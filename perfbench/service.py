"""The ``service_mixed`` workload: reads beside writes on one live server.

One episode spawns ``python -m repro.service`` (or, traced, the
benchmark's own launcher around it) on a fixed grid, then drives it from
this process over two connections:

* a closed-loop *querier* sends one ``query`` at a time for a fixed
  session length, rotating spec kinds over ``bestPathCost`` targets drawn
  with a seeded skew;
* an open-loop *writer* flaps a link on a fixed wall-clock schedule over
  the same session: ``delete`` both directions, ``run_until_idle`` with an
  event budget, ``insert`` both back, ``run_until_idle`` again.  It walks
  the intra-cluster (stub) links, where the paper's churn applies, in one
  fixed order, so every session carries the same write load.  A flap is
  timed from when it was due, so a writer stalled behind a slow request
  is charged for the wait.

Both connections share the server's single event loop, so a slow write
shows up first in the querier's tail latency.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

from repro.core.requests import encode_fact
from repro.datalog.ast import Fact
from repro.faults.oracle import convergence_digest
from repro.net.topology import TIER_STUB
from repro.service import ServiceClient, ServiceError, build_network, build_topology

from . import oracles
from .workloads import QUERY_SPECS, skewed_picker

clock = time.perf_counter

TOPOLOGY = "cluster:6x6"
PROGRAM = "mincost:16"
MODE = "ref"
SERVER_ARGS = ["--topology", TOPOLOGY, "--program", PROGRAM, "--mode", MODE]

#: Prefix of the launcher's closing stdout line (traced runs only).
TRACE_PREFIX = "PERFBENCH-TRACE "

#: Event budget of each flap's ``run_until_idle``; work left over runs
#: inside whichever request next drives the simulator.
FLAP_EVENT_BUDGET = 5000

#: Wall seconds between the starts of two flaps.  The querier gets what
#: the flaps leave of a session, so the flaps' share sets how much more
#: than the machine's own speed the throughput swings: at two flaps a
#: second they took a third of the session, and ten runs of
#: ``service_mixed`` on a 2-core shared VM spread 28% in throughput.
FLAP_PERIOD_S = 1.0

#: Traffic counter of provenance-query messages in a ``metrics`` snapshot.
QUERY_BYTES = "net.bytes{kind=prov}"


class Session:
    """Both connections' bookkeeping: every call is timed and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []
        self.rtt_s = 0.0
        self.lock = threading.Lock()

    def call(self, client: ServiceClient, op: str, **params: Any) -> Tuple[Any, float]:
        """One request; returns ``(result or None, round trip seconds)``."""
        start = clock()
        try:
            result = client.call(op, **params)
        except ServiceError as error:
            result = None
            with self.lock:
                self.errors.append(f"{op}: {error}")
        elapsed = clock() - start
        with self.lock:
            self.attempted += 1
            self.rtt_s += elapsed
        return result, elapsed


def _query_bytes(metrics: Dict[str, Any]) -> int:
    return metrics["counters"].get(QUERY_BYTES, 0)


def _spawn(traced: bool) -> Tuple[subprocess.Popen, str, int, float]:
    module = "perfbench.launcher" if traced else "repro.service"
    start = clock()
    proc = subprocess.Popen(
        [sys.executable, "-m", module, *SERVER_ARGS],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup_s = clock() - start
    if not line.startswith("LISTENING "):
        proc.kill()
        _, err = proc.communicate()
        raise RuntimeError(f"service did not start: {line!r} {err[-2000:]}")
    _, host, port = line.split()
    return proc, host, int(port), setup_s


def _reap(proc: subprocess.Popen) -> Tuple[str, float]:
    """Wait for the server to exit; returns its stdout and peak RSS (MB)."""
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0:
        raise RuntimeError(f"service exited with {proc.returncode}: {err[-2000:]}")
    return out, usage.ru_maxrss / 1024.0


def mixed_session(seed: int, session_s: float = 3.0, traced: bool = False) -> Dict[str, Any]:
    """One server lifetime: spawn, session, convergence check, shutdown.

    Both clients stop starting requests *session_s* seconds in, so every
    session carries the same write load whatever the machine's speed.
    """
    proc, host, port, setup_s = _spawn(traced)
    try:
        return _drive(proc, host, port, setup_s, seed, session_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _drive(
    proc: subprocess.Popen,
    host: str,
    port: int,
    setup_s: float,
    seed: int,
    session_s: float,
) -> Dict[str, Any]:
    session = Session()
    rng = random.Random(seed)
    with ServiceClient(host, port) as querier, ServiceClient(host, port) as writer:
        names = [
            session.call(querier, "register_spec", spec=spec.to_dict())[0]["name"]
            for spec in QUERY_SPECS
        ]
        rows = session.call(querier, "tuples", table="bestPathCost")[0]["rows"]
        pick = skewed_picker([tuple(values) for _, values in rows], rng)
        pairs = [
            (a, b, spec.cost) for a, b, spec in build_topology(TOPOLOGY).links_by_tier(TIER_STUB)
        ]
        before = _query_bytes(session.call(querier, "metrics")[0])

        query_ms: List[float] = []
        sim_ms: List[float] = []
        flap_ms: List[float] = []
        late_ms: List[float] = []

        def run_querier() -> None:
            while clock() < end:
                fact = encode_fact(Fact("bestPathCost", pick()))
                spec = names[len(query_ms) % len(names)]
                result, elapsed = session.call(querier, "query", fact=fact, spec=spec)
                query_ms.append(elapsed * 1000.0)
                if result is not None:
                    meta = result["meta"]
                    sim_ms.append((meta["completed_at"] - meta["issued_at"]) * 1000.0)

        def flap(a: str, b: str, cost: int) -> None:
            for fact in (Fact("link", (a, b, cost)), Fact("link", (b, a, cost))):
                session.call(writer, "delete", fact=encode_fact(fact))
            session.call(writer, "run_until_idle", max_events=FLAP_EVENT_BUDGET)
            for fact in (Fact("link", (a, b, cost)), Fact("link", (b, a, cost))):
                session.call(writer, "insert", fact=encode_fact(fact))
            session.call(writer, "run_until_idle", max_events=FLAP_EVENT_BUDGET)

        def run_writer() -> None:
            due = start
            while due < end:
                time.sleep(max(0.0, due - clock()))
                late_ms.append(max(0.0, clock() - due) * 1000.0)
                flap(*pairs[len(flap_ms) % len(pairs)])
                flap_ms.append((clock() - due) * 1000.0)
                due += FLAP_PERIOD_S

        setup_calls = session.attempted
        start = clock()
        end = start + session_s
        threads = [threading.Thread(target=run_querier), threading.Thread(target=run_writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = clock() - start
        requests = session.attempted - setup_calls

        session.call(querier, "run_until_idle")
        traffic = _query_bytes(session.call(querier, "metrics")[0]) - before
        converged = session.call(querier, "faults", digest=True)[0]
        session.call(querier, "shutdown")
        rtt_s = session.rtt_s
    out, rss_mb = _reap(proc)
    expected = convergence_digest(build_network(TOPOLOGY, PROGRAM, MODE))
    digest = converged["convergence"] if converged else None
    problems = oracles.check_service(session.errors, digest, expected)
    server = None
    for line in out.splitlines():
        if line.startswith(TRACE_PREFIX):
            server = json.loads(line[len(TRACE_PREFIX):])
    return {
        "setup_s": setup_s,
        "timed_s": wall_s,
        "ops": requests,
        "wall_ms": query_ms,
        "sim_ms": sim_ms,
        "kb_per_op": traffic / len(sim_ms) / 1000.0,
        "attempted": session.attempted,
        "failed": len(session.errors),
        "problems": problems,
        "det": {"digest": digest},
        "rss_mb": rss_mb,
        "service": {
            "query_ms": query_ms,
            "flap_ms": flap_ms,
            "late_ms": late_ms,
            "rtt_s": rtt_s,
            "server": server,
        },
    }
