"""Delta-pipeline speedup ladder: delta vs batched on rings.

Benchmarks the two delta-evaluation pipelines against each other on the
PATHVECTOR fixpoint with the reference-provenance rewrite enabled, on
rings of 12/24/32 nodes.

* ``delta`` — the retained one-at-a-time term-tree interpreter with VID
  caching disabled: every SHA-1 VID preimage is recomputed on every rule
  firing.  This is the code path the engine ran before the batched
  pipeline landed, kept as the baseline so speedup numbers stay
  comparable across releases.  Note that storage and engine improvements
  shared by both pipelines (interned rows, row-hash memoization,
  precomputed index key extractors) have kept making this baseline faster
  since it was first measured, so the ratios printed here *understate*
  the speedup over the historical pre-batching commit.
* ``batched`` — the production path: compiled plan executors, fused
  zero-/one-step rules, VID memoization.

Both produce bit-identical results — same fixpoints, VIDs, prov/ruleExec
rows and counters — which the equivalence suite
(``tests/test_plan_equivalence.py``) enforces; this benchmark asserts it
again on the smallest fixpoint size it measures.

Run directly for the comparison table (the README "Performance" section
reproduces it) and the machine-readable artifact
``results/BENCH_batch_speedup.json``::

    PYTHONPATH=src python benchmarks/bench_batch_speedup.py [repeats] \
        [--json PATH]

or through pytest-benchmark for the 12-node cases.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from typing import Any, Dict, List, Tuple

from repro.core import vid
from repro.core.rewrite import rewrite_program
from repro.datalog import Fact, StandaloneNetwork
from repro.datalog.ast import Program
from repro.net import ring_topology
from repro.protocols import pathvector_program

SIZES = (12, 24, 32)
DEFAULT_REPEATS = 3
DEFAULT_JSON_PATH = os.path.join("results", "BENCH_batch_speedup.json")

#: (pipeline, vid-caching) per configuration, in baseline-first order.
#: ``delta`` runs with the memo layers off by the baseline definition
#: above; ``batched`` runs in its production configuration.
CONFIGS: Dict[str, Tuple[str, bool]] = {
    "delta": ("delta", False),
    "batched": ("batched", True),
}


def _build(size: int, pipeline: str) -> Tuple[StandaloneNetwork, List]:
    topology = ring_topology(size, seed=0)
    program: Program = rewrite_program(pathvector_program())
    network = StandaloneNetwork(topology.nodes, program, pipeline=pipeline)
    return network, topology.link_facts()


def run_fixpoint(size: int, config: str) -> StandaloneNetwork:
    """Run the provenance-rewritten PATHVECTOR fixpoint once."""
    pipeline, caching = CONFIGS[config]
    vid.set_vid_caching(caching)
    vid.clear_vid_caches()
    network, links = _build(size, pipeline)
    for source, destination, cost in links:
        network.insert(Fact("link", (source, destination, cost)))
    network.run()
    vid.set_vid_caching(True)
    return network


def _run_once(size: int, config: str) -> Tuple[float, int]:
    """One timed fixpoint, excluding construction.

    Plan compilation happens at program-load time by design (one-time setup
    amortized over the network's lifetime), so the timing isolates delta
    processing — the quantity the batched pipeline changes.
    """
    pipeline, caching = CONFIGS[config]
    vid.set_vid_caching(caching)
    vid.clear_vid_caches()
    network, links = _build(size, pipeline)
    gc.collect()
    started = time.perf_counter()
    for source, destination, cost in links:
        network.insert(Fact("link", (source, destination, cost)))
    network.run()
    elapsed = time.perf_counter() - started
    deltas = network.planner_stats()["deltas_processed"]
    vid.set_vid_caching(True)
    return elapsed, deltas


def _measure(size: int, repeats: int) -> Dict[str, Any]:
    """Best-of-*repeats* wall-clock for every configuration, interleaved.

    Alternating the configurations within each repetition keeps background
    load spikes from skewing one side of a ratio.
    """
    best = {config: float("inf") for config in CONFIGS}
    deltas = 0
    for _ in range(repeats):
        for config in CONFIGS:
            elapsed, deltas = _run_once(size, config)
            best[config] = min(best[config], elapsed)
    deltas_per_s = {
        config: deltas / max(elapsed, 1e-9) for config, elapsed in best.items()
    }
    return {
        "deltas": deltas,
        "elapsed_s": {k: round(v, 4) for k, v in best.items()},
        "deltas_per_s": {k: round(v, 1) for k, v in deltas_per_s.items()},
        "speedup": {
            "batched_vs_delta": round(best["delta"] / max(best["batched"], 1e-9), 2),
        },
    }


def _snapshot(network: StandaloneNetwork) -> dict:
    names = set()
    for engine in network.engines.values():
        names.update(engine.catalog.names())
    return {name: network.all_rows(name) for name in sorted(names)}


# ---------------------------------------------------------------------- #
# pytest-benchmark cases (and the equivalence guard)
# ---------------------------------------------------------------------- #
def test_rewritten_fixpoint_delta(benchmark):
    network = benchmark(lambda: run_fixpoint(SIZES[0], "delta"))
    assert len(network.all_rows("prov")) > 0


def test_rewritten_fixpoint_batched(benchmark):
    network = benchmark(lambda: run_fixpoint(SIZES[0], "batched"))
    assert len(network.all_rows("prov")) > 0


def test_pipelines_bit_identical():
    """Both pipelines must agree on every table, VIDs included."""
    reference = _snapshot(run_fixpoint(SIZES[0], "delta"))
    assert _snapshot(run_fixpoint(SIZES[0], "batched")) == reference


# ---------------------------------------------------------------------- #
# standalone comparison table + JSON artifact
# ---------------------------------------------------------------------- #
def main(repeats: int = DEFAULT_REPEATS, json_path: str = DEFAULT_JSON_PATH) -> None:
    print(
        "Delta-pipeline comparison: PATHVECTOR + provenance rewrite "
        f"(ring, StandaloneNetwork fixpoint, best of {repeats})"
    )
    header = (
        f"{'nodes':>5} {'deltas':>8} "
        f"{'delta d/s':>11} {'batched d/s':>12} {'batch/delta':>11}"
    )
    print(header)
    print("-" * len(header))
    sizes: Dict[str, Any] = {}
    for size in SIZES:
        measured = _measure(size, repeats)
        sizes[str(size)] = measured
        rates = measured["deltas_per_s"]
        speedup = measured["speedup"]
        print(
            f"{size:>5} {measured['deltas']:>8} "
            f"{rates['delta']:>11,.0f} {rates['batched']:>12,.0f} "
            f"{speedup['batched_vs_delta']:>10.2f}x"
        )
    artifact = {
        "benchmark": "batch_speedup",
        "workload": "pathvector + ref-provenance rewrite, ring topology",
        "baseline": "pipeline=delta with VID/sha1 caching disabled",
        "repeats": repeats,
        "sizes": sizes,
    }
    os.makedirs(os.path.dirname(json_path) or ".", exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {json_path}")
    stats = vid.vid_cache_stats()
    print(
        "vid cache after last run: "
        f"sha1 entries={stats['sha1']['entries']} hits={stats['sha1']['hits']} "
        f"misses={stats['sha1']['misses']} (bounded at {stats['sha1']['limit']})"
    )


if __name__ == "__main__":
    argv = [arg for arg in sys.argv[1:]]
    path = DEFAULT_JSON_PATH
    if "--json" in argv:
        index = argv.index("--json")
        path = argv[index + 1]
        del argv[index : index + 2]
    main(int(argv[0]) if argv else DEFAULT_REPEATS, path)
