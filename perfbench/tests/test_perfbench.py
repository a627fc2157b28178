"""Self-tests of the benchmark: it runs, reports every metric, and its
oracles reject wrong answers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, oracles, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def run_bench(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
    command += ["--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {entry["name"]: entry["unit"] for entry in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.xfail(
    strict=True,
    reason="deltas overtake each other on a channel when churn shortens its route, "
    "leaving stale tuples (see perfbench/README.md)",
)
def test_mincost_churn_matches_a_from_scratch_build():
    result = result_of(run_bench("mincost_churn", 0))
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC["end_to_end"]}
    assert result["correct"] is True


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    done = run_bench("pv_fixpoint", 0, root=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_layer_self_times_partition_the_window():
    clock = layers.LayerClock()

    def inner():
        return sum(range(20000))

    def outer():
        return wrapped_inner() + sum(range(20000))

    wrapped_inner = clock.wrap("storage", inner)
    wrapped_outer = clock.wrap("engine", outer)
    before = clock.snapshot()
    start = layers.time.perf_counter()
    wrapped_outer()
    window = layers.window(before, clock.snapshot(), layers.time.perf_counter() - start)
    assert window["calls"]["engine"] == 1 and window["calls"]["storage"] == 1
    assert window["self_s"]["storage"] > 0 and window["self_s"]["engine"] > 0
    assert window["self_s"]["engine"] < window["inclusive_s"]["engine"]
    total = sum(window["self_s"].values()) + window["unattributed_s"]
    assert total == pytest.approx(window["wall_s"])
    assert window["unattributed_s"] >= 0


def test_pathvector_oracle_rejects_corrupted_routes():
    links = [("a", "b", 1), ("b", "a", 1), ("b", "c", 1), ("c", "b", 1)]
    links += [("a", "c", 5), ("c", "a", 5)]
    good = [
        ("a", "b", 1, ["a", "b"]),
        ("b", "a", 1, ["b", "a"]),
        ("b", "c", 1, ["b", "c"]),
        ("c", "b", 1, ["c", "b"]),
        ("a", "c", 2, ["a", "b", "c"]),
        ("c", "a", 2, ["c", "b", "a"]),
    ]
    assert oracles.check_pathvector(links, good) == []

    def replace_ac(row):
        return [row if old[:2] == ("a", "c") else old for old in good]

    wrong_cost = replace_ac(("a", "c", 5, ["a", "c"]))
    fake_link = replace_ac(("a", "c", 2, ["a", "b", "a", "c"]))
    missing = good[:-1]
    for corrupted in (wrong_cost, fake_link, missing):
        assert oracles.check_pathvector(links, corrupted)


def test_pathvector_oracle_accepts_a_real_fixpoint():
    episode = workloads.pv_fixpoint(3, **workloads.TINY["pv_fixpoint"])
    assert episode["problems"] == []
    assert episode["ops"] == len(episode["wall_ms"]) == len(episode["sim_ms"]) > 0


def test_table_oracle_rejects_a_wrong_derivation_count():
    tables = {"n0": {"pathCost": [["('n0', 'n1', 1)", 1], ["('n0', 'n2', 2)", 2]]}}
    assert oracles.compare_tables(tables, json.loads(json.dumps(tables))) == []
    corrupted = {"n0": {"pathCost": [["('n0', 'n1', 1)", 1], ["('n0', 'n2', 2)", 1]]}}
    assert oracles.compare_tables(corrupted, tables)
    assert oracles.compare_tables({"n0": {}}, tables)


def test_query_oracle_rejects_a_wrong_or_missing_answer():
    reference = {("f1", "bdd"): '{"kind":"bdd"}', ("f2", "nodeset"): '{"nodes":["n0"]}'}
    good = [(("f1", "bdd"), '{"kind":"bdd"}'), (("f2", "nodeset"), '{"nodes":["n0"]}')]
    assert oracles.compare_query_results(good, reference) == []
    assert oracles.compare_query_results([(("f2", "nodeset"), '{"nodes":[]}')], reference)
    assert oracles.compare_query_results([(("f1", "bdd"), None)], reference)


def test_service_oracle_rejects_errors_and_divergence():
    assert oracles.check_service([], "abc", "abc") == []
    assert oracles.check_service(["query: timeout"], "abc", "abc")
    assert oracles.check_service([], "abc", "abd")
