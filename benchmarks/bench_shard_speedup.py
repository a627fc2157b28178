"""Sharded simulation engine speedup: one fixpoint, N worker processes.

Benchmarks the conservative windowed sharded engine
(:mod:`repro.net.sharding`) against the single-process engine on the
paper-scale fixpoint workload of the ``scale_sweep`` scenario: PATHVECTOR
(default) or MINCOST with reference provenance on a clustered topology.
The flagship configuration is the **512-node PATHVECTOR fixpoint at
shards ∈ {1, 2, 4}** (several minutes of simulated routing — run smaller
sizes for a quick look)::

    PYTHONPATH=src python benchmarks/bench_shard_speedup.py              # 512 nodes
    PYTHONPATH=src python benchmarks/bench_shard_speedup.py 128          # quicker
    PYTHONPATH=src python benchmarks/bench_shard_speedup.py 128 --shards 1 2 4 8

Two quantities are reported per shard count:

* **wall-clock** — machine-dependent (scales with available cores; a
  CPU-quota'd single-core container shows ~1x regardless of shards);
* **attainable speedup** — total executed events over critical-path
  events (the per-window maximum across shards, summed).  Windows are
  barriers, so the most-loaded shard bounds each window's wall-clock;
  this ratio is what the run's schedule admits on enough cores.  It is
  fully deterministic, so it is what this benchmark *asserts* (≥2x at 4
  shards on the default workload); wall-clock is printed as evidence and
  asserted by the same bar only when ``--assert-wall`` is passed (the
  README scaling table is produced on a multi-core machine with it on).

Result identity is always asserted: merged summaries — fixpoint time,
every traffic/planner/provenance counter, per-host receive counters —
must be equal across all shard counts, and for sizes ≤ 128 the full
per-node state digests (table rows, annotations, engine counters) too.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from typing import Any, Dict, List, Optional

from repro.core.api import ExspanNetwork
from repro.core.config import ExspanConfig
from repro.core.modes import ProvenanceMode
from repro.experiments.trials import MODE_KEYS, PROGRAM_FACTORIES, scale_topology
from repro.net.sharding import ShardedExspanNetwork, collect_digest, collect_summary

DEFAULT_SIZE = 512
SHARD_COUNTS = (1, 2, 4)
#: Full per-node digests are compared up to this size (they are large).
DIGEST_MAX_SIZE = 128
#: The deterministic acceptance bar at >= 4 shards on the default workload.
MIN_ATTAINABLE_AT_4 = 2.0


def run_once(
    program: str,
    size: int,
    shards: int,
    mode: str = "ref",
    seed: int = 0,
) -> Dict[str, Any]:
    """One seeded fixpoint at *shards* workers; returns metrics + state."""
    topology = scale_topology(size, seed)
    program_factory = PROGRAM_FACTORIES[program]
    gc.collect()
    config = ExspanConfig(mode=MODE_KEYS[mode], seed=seed)
    started = time.perf_counter()
    if shards <= 1:
        network = ExspanNetwork(topology, program_factory(), config=config)
        network.seed_links()
        network.run_to_fixpoint()
        elapsed = time.perf_counter() - started
        summary = collect_summary(network)
        digest = (
            collect_digest(network) if topology.node_count() <= DIGEST_MAX_SIZE else None
        )
        parallelism: Dict[str, Any] = {}
    else:
        with ShardedExspanNetwork(
            topology, program_factory(), config, shards=shards
        ) as sharded:
            sharded.seed_links()
            sharded.run_to_fixpoint()
            elapsed = time.perf_counter() - started
            summary = sharded.summary()
            digest = (
                sharded.digest() if topology.node_count() <= DIGEST_MAX_SIZE else None
            )
            parallelism = sharded.parallelism_report()
    return {
        "shards": shards,
        "seconds": elapsed,
        "summary": summary,
        "digest": digest,
        "parallelism": parallelism,
    }


def run_matrix(
    program: str,
    size: int,
    shard_counts: List[int],
    mode: str = "ref",
    seed: int = 0,
    assert_wall: bool = False,
) -> List[Dict[str, Any]]:
    """Run every shard count, assert identity, print the scaling table."""
    rows = [run_once(program, size, shards, mode=mode, seed=seed) for shards in shard_counts]
    reference = rows[0]
    for row in rows[1:]:
        assert row["summary"] == reference["summary"], (
            f"shards={row['shards']} summary diverged from "
            f"shards={reference['shards']}"
        )
        if row["digest"] is not None and reference["digest"] is not None:
            assert row["digest"] == reference["digest"], (
                f"shards={row['shards']} node state diverged"
            )

    base_wall = reference["seconds"]
    traffic = reference["summary"]["traffic"]
    print(
        f"\n{program} fixpoint, {size} nodes, mode={mode}: "
        f"{traffic['total_messages']} messages, "
        f"fixpoint at t={reference['summary']['fixpoint_time']:.3f}s (simulated)"
    )
    print(f"{'shards':>7} {'wall (s)':>10} {'speedup':>8} {'windows':>8} "
          f"{'attainable':>11}  identity")
    for row in rows:
        speedup = base_wall / row["seconds"] if row["seconds"] else float("inf")
        windows = row["parallelism"].get("windows", "-")
        attainable = row["parallelism"].get("attainable_speedup")
        attainable_text = f"{attainable:10.2f}x" if attainable else f"{'-':>11}"
        print(
            f"{row['shards']:>7} {row['seconds']:>10.2f} {speedup:>7.2f}x "
            f"{windows:>8} {attainable_text}  ok"
        )

    for row in rows:
        if row["shards"] >= 4 and row["parallelism"]:
            attainable = row["parallelism"]["attainable_speedup"]
            assert attainable >= MIN_ATTAINABLE_AT_4, (
                f"attainable speedup {attainable:.2f}x at {row['shards']} shards "
                f"is below the {MIN_ATTAINABLE_AT_4}x bar"
            )
            if assert_wall:
                speedup = base_wall / row["seconds"]
                assert speedup >= MIN_ATTAINABLE_AT_4, (
                    f"wall-clock speedup {speedup:.2f}x at {row['shards']} shards "
                    f"is below the {MIN_ATTAINABLE_AT_4}x bar (is this machine "
                    f"multi-core?)"
                )
    return rows


# ---------------------------------------------------------------------- #
# pytest smoke cases (tiny sizes; no timing assertions)
# ---------------------------------------------------------------------- #
def test_sharded_fixpoint_identity_smoke():
    """2- and 4-shard 64-node fixpoints match the serial engine exactly."""
    rows = run_matrix("pathvector", 64, [1, 2, 4], mode="ref")
    assert rows[0]["digest"] is not None  # digests compared at this size


def test_attainable_parallelism_smoke():
    """The windowed schedule admits real parallelism even at small scale."""
    reference = run_once("mincost", 64, 1)
    sharded = run_once("mincost", 64, 4)
    assert sharded["summary"] == reference["summary"]
    assert sharded["parallelism"]["attainable_speedup"] > 1.5


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("size", nargs="?", type=int, default=DEFAULT_SIZE,
                        help=f"topology size in nodes (default {DEFAULT_SIZE})")
    parser.add_argument("--shards", type=int, nargs="+", default=list(SHARD_COUNTS),
                        help="shard counts to sweep (default: 1 2 4)")
    parser.add_argument("--program", choices=sorted(PROGRAM_FACTORIES), default="pathvector")
    parser.add_argument("--mode", choices=sorted(MODE_KEYS), default="ref")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--assert-wall", action="store_true",
                        help="also gate on wall-clock >= 2x at 4+ shards "
                        "(requires a multi-core machine)")
    arguments = parser.parse_args(argv)
    run_matrix(
        arguments.program,
        arguments.size,
        arguments.shards,
        mode=arguments.mode,
        seed=arguments.seed,
        assert_wall=arguments.assert_wall,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
