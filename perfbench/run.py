"""The ExSPAN end-to-end benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pv_fixpoint --seed 1 --seconds 20 --trace 0

Runs episodes of one workload, each in a fresh interpreter
(``python -m perfbench.episode``) on inputs generated from the seed,
until ``--seconds`` have passed (and at least :data:`MIN_EPISODES` have
run).  Episode *i* of a run with seed *n* uses input seed ``1000 n + i``.
Every episode checks its outputs with an order-independent oracle.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` each input runs twice, untraced
and with every layer's entry points wrapped, and the line carries the
per-layer metrics instead.  Earlier stdout lines record the machine (a
fingerprint and a fixed calibration loop, never used to rescale
anything) and per-kind details.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("pv_fixpoint", "mincost_churn", "query_mix", "service_mixed")

#: Episodes every run makes, whatever ``--seconds`` says.  On the
#: in-process workloads ``sim_mean_ms`` and ``kb_per_op`` are a pure
#: function of the inputs; they come from these episodes only, so they
#: depend on the seed alone.
MIN_EPISODES = 3

#: Longest one episode may take before the run is abandoned.
EPISODE_TIMEOUT_S = 150

#: Service ops that change state (the writer's flap requests).
WRITE_OPS = ("insert", "delete", "run_until_idle")


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (``fraction`` in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def best_decile(values: Sequence[float], lower_is_better: bool) -> float:
    """The decile of per-episode *values* at their better end (interpolated).

    Other tenants of a shared machine only ever slow an episode down, in
    spells that last from a fraction of a second to minutes.  The better
    tail of a run's episodes tracks the code; its middle tracks how busy
    the neighbours were.  Over ten consecutive 30-second runs of
    ``pv_fixpoint`` on a 2-core shared VM the spread (interquartile range
    over median) of the run figure was 16% with the median over episodes
    and 11% with this decile; for ``setup_s`` 18% and 5%.
    """
    if len(values) < 2:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0] if lower_is_better else deciles[-1]


def calibration_s() -> float:
    """Median of three timings of a fixed pure-Python loop (machine speed record)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for index in range(1_000_000):
            total += index * index % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_record() -> Dict[str, Any]:
    uname = platform.uname()
    return {
        "system": uname.system,
        "release": uname.release,
        "machine": uname.machine,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "calibration_s": calibration_s(),
    }


def run_episode(workload: str, seed: int, trace: bool, tiny: bool) -> Dict[str, Any]:
    command = [sys.executable, "-m", "perfbench.episode", "--workload", workload]
    command += ["--seed", str(seed)]
    if trace:
        command.append("--trace")
    if tiny:
        command.append("--tiny")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=EPISODE_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"episode {workload} seed {seed} exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, episodes: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics over one run's untraced episodes."""
    median = statistics.median
    if workload == "service_mixed":
        # What a served query sees depends on how it interleaves with the
        # writer's flaps in wall time, so these take the median of all.
        sim_mean_ms = median(statistics.fmean(episode["sim_ms"]) for episode in episodes)
        kb_per_op = median(episode["kb_per_op"] for episode in episodes)
    else:
        fixed = episodes[:MIN_EPISODES]
        sim_mean_ms = statistics.fmean(ms for episode in fixed for ms in episode["sim_ms"])
        kb_per_op = statistics.fmean(episode["kb_per_op"] for episode in fixed)
    return {
        "setup_s": best_decile([episode["setup_s"] for episode in episodes], True),
        "ops_per_s": best_decile(
            [episode["ops"] / episode["timed_s"] for episode in episodes], False
        ),
        "wall_p50_ms": best_decile(
            [percentile(episode["wall_ms"], 0.50) for episode in episodes], True
        ),
        "wall_p90_ms": best_decile(
            [percentile(episode["wall_ms"], 0.90) for episode in episodes], True
        ),
        "sim_mean_ms": sim_mean_ms,
        "kb_per_op": kb_per_op,
        "peak_rss_mb": median(episode["rss_mb"] for episode in episodes),
    }


UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "wall_p50_ms": "ms",
    "wall_p90_ms": "ms",
    "sim_mean_ms": "ms",
    "kb_per_op": "KB",
    "peak_rss_mb": "MB",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(episode: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced episode (see README for the map)."""
    service = episode.get("service")
    if service:
        server = service["server"]
        window, counters = server["layers"], server["counters"]
        compile_s, dispatch, rtt_s = server["compile_s"], server["dispatch_s"], service["rtt_s"]
        frame_bytes, replays = server["frame_bytes"], server["replays"]
    else:
        window, counters = episode["layers"], episode["counters"]
        compile_s, dispatch, rtt_s = episode["compile_s"], {}, 0.0
        frame_bytes, replays = 0, 0
    wall = window["wall_s"]
    calls = window["calls"]
    metrics = {
        "wall_traced_s": episode["timed_s"],
        "unattributed_pct": 100.0 * window["unattributed_s"] / wall,
    }
    for layer, spent in window["self_s"].items():
        metrics[f"{layer}.self_pct"] = 100.0 * spent / wall
    dispatched = sum(dispatch.values())
    writes = sum(dispatch.get(op, 0.0) for op in WRITE_OPS)
    metrics.update(
        {
            "sim.events": counters["sim.events"],
            "net.msgs": counters["net.msgs"],
            "net.bytes": counters["net.bytes"],
            "engine.deltas": counters["engine.deltas"],
            "engine.deltas_per_run": _ratio(counters["engine.deltas"], calls["engine"]),
            "plan.tuples_scanned": counters["plan.tuples_scanned"],
            "plan.index_lookups": counters["plan.index_lookups"],
            "plan.compiled": counters["plan.compiled"],
            "plan.compile_s": compile_s,
            "storage.calls": calls["storage"],
            "storage.rows": counters["storage.rows"],
            "vid.calls": calls["vid"],
            "vid.cache_hit_ratio": _ratio(
                counters["vid.hits"], counters["vid.hits"] + counters["vid.misses"]
            ),
            "sha1.cache_hit_ratio": _ratio(
                counters["sha1.hits"], counters["sha1.hits"] + counters["sha1.misses"]
            ),
            "bdd.ops": calls["bdd"],
            "bdd.apply_cache_hit_ratio": _ratio(
                counters["bdd.hits"], counters["bdd.hits"] + counters["bdd.misses"]
            ),
            "query.started": counters["query.started"],
            "query.coalesced_frac": _ratio(counters["query.coalesced"], counters["query.started"]),
            "query.cache_hit_ratio": _ratio(
                counters["query.cache_hits"],
                counters["query.cache_hits"] + counters["query.cache_misses"],
            ),
            "query.msgs": counters["query.msgs"],
            "query.msgs_batched": counters["query.msgs_batched"],
            "svc.calls": calls["svc"],
            "svc.dispatch_pct": 100.0 * dispatched / wall,
            "svc.query_dispatch_pct": 100.0 * dispatch.get("query", 0.0) / wall,
            "svc.write_dispatch_pct": 100.0 * writes / wall,
            "svc.wire_pct": 100.0 * _ratio(rtt_s - dispatched, rtt_s),
            "svc.frame_bytes": frame_bytes,
            "svc.replays": replays,
        }
    )
    return metrics


LAYER_UNITS = {
    "wall_traced_s": "s",
    "wall_untraced_s": "s",
    "trace_overhead_pct": "%",
    "plan.compile_s": "s",
    "net.bytes": "B",
    "svc.frame_bytes": "B",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_frac", "_per_run")):
        return "ratio"
    return "count"


def details(workload: str, episodes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-kind figures printed beside the metrics (never part of them)."""
    info: Dict[str, Any] = {
        "episodes": len(episodes),
        "wall_samples": sum(len(episode["wall_ms"]) for episode in episodes),
        "sim_samples": sum(len(episode["sim_ms"]) for episode in episodes),
        "timed_s": [episode["timed_s"] for episode in episodes],
    }
    if workload == "service_mixed":
        queries = [ms for episode in episodes for ms in episode["service"]["query_ms"]]
        flaps = [ms for episode in episodes for ms in episode["service"]["flap_ms"]]
        late = [ms for episode in episodes for ms in episode["service"]["late_ms"]]
        info.update(
            {
                "query_p50_ms": percentile(queries, 0.5),
                "query_p99_ms": percentile(queries, 0.99),
                "flaps": len(flaps),
                "flap_p50_ms": percentile(flaps, 0.5) if flaps else None,
                "flap_p90_ms": percentile(flaps, 0.9) if flaps else None,
                "writer_late_p90_ms": percentile(late, 0.9) if late else None,
                "writer_late_max_ms": max(late) if late else None,
            }
        )
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest inputs, one episode (self-tests)"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts: on a small
    # shared machine, migrations and cross-core wake-ups (the service's
    # client and server hand off on every request) spread a run's timings
    # two to three times wider than the code's own variation.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("machine " + json.dumps(machine_record()), flush=True)

    minimum = 1 if args.tiny else MIN_EPISODES
    start = time.perf_counter()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    problems: List[str] = []
    index = 0
    try:
        while index < minimum or time.perf_counter() - start < args.seconds:
            seed = 1000 * args.seed + index
            episode = run_episode(args.workload, seed, False, args.tiny)
            plain.append(episode)
            problems += episode["problems"]
            if args.trace:
                twin = run_episode(args.workload, seed, True, args.tiny)
                traced.append(twin)
                problems += twin["problems"]
                if twin["det"] != episode["det"]:
                    problems.append(f"traced outputs differ from untraced at seed {seed}")
            index += 1
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    for problem in problems[:20]:
        print(f"problem {problem}", file=sys.stderr)
    print("details " + json.dumps(details(args.workload, plain)), flush=True)
    if args.trace:
        rows = [per_layer(episode) for episode in traced]
        values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
        values["wall_untraced_s"] = statistics.median(episode["timed_s"] for episode in plain)
        # Extra wall time per operation: the service's sessions have a fixed
        # length, so there tracing shows up as fewer requests, not more time.
        values["trace_overhead_pct"] = statistics.median(
            100.0 * (twin["timed_s"] / twin["ops"] / (episode["timed_s"] / episode["ops"]) - 1.0)
            for episode, twin in zip(plain, traced)
        )
        metrics = {
            name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()
        }
    else:
        values = end_to_end(args.workload, plain)
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    everything = plain + traced
    result = {
        "correct": not problems,
        "attempted": sum(episode["attempted"] for episode in everything),
        "failed": sum(episode["failed"] for episode in everything),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
