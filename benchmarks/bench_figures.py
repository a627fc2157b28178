"""Benchmarks regenerating every figure of the paper's evaluation.

One benchmark per registered figure scenario (``figure_scenarios()`` in
:mod:`repro.experiments.scenarios`, which holds the sweep parameters).
Each runs its scenario once at quick scale (simulations are deterministic,
so repeated timing rounds would only measure the simulator's Python
overhead), records the reproduced series as extra benchmark info, and
asserts that the paper's qualitative shape checks hold.  Run with::

    pytest benchmarks/bench_figures.py --benchmark-only
    pytest benchmarks/bench_figures.py -k fig06 --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import check_shape
from repro.experiments.scenarios import figure_scenarios, run_figure


@pytest.mark.parametrize("scenario_name", [scenario.name for scenario in figure_scenarios()])
def test_figure(benchmark, scenario_name):
    result = benchmark.pedantic(lambda: run_figure(scenario_name), rounds=1, iterations=1)
    benchmark.extra_info["figure"] = result.figure_id
    benchmark.extra_info["scenario"] = scenario_name
    benchmark.extra_info["series_means"] = {
        label: round(value, 6) for label, value in result.summary().items()
    }
    failed = [description for description, holds in check_shape(result) if not holds]
    assert not failed, (
        f"{result.figure_id}: shape checks failed: {failed}; "
        f"series means: {result.summary()}"
    )
