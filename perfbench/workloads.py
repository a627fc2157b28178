"""The three in-process workloads, one episode each.

An episode builds one network from generated inputs, times one phase of
work through the public :class:`~repro.core.api.ExspanNetwork` surface,
then checks the outputs with an oracle outside the timed region.  Every
episode uses the default :class:`~repro.core.config.ExspanConfig` apart
from the provenance mode, and sets no execution-environment knob.

Each function returns a plain dict (see :func:`_record`) that
``perfbench.episode`` prints as JSON for ``perfbench/run.py``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import resource
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.api import ExspanNetwork
from repro.core.bdd import bdd_cache_stats
from repro.core.config import ExspanConfig
from repro.core.modes import ProvenanceMode
from repro.core.requests import QueryRequest, SpecDescriptor, canonical_json
from repro.core.vid import vid_cache_stats
from repro.datalog.ast import Fact
from repro.experiments.trials import size_topology
from repro.experiments.workloads import make_churn
from repro.protocols.mincost import mincost_program
from repro.protocols.pathvector import pathvector_program

from . import layers, oracles

clock = time.perf_counter

#: Query spec kinds the query workloads rotate through (``derivations``
#: uses the result cache, the others resolve afresh every time).
QUERY_SPECS: Tuple[SpecDescriptor, ...] = (
    SpecDescriptor(kind="derivations", use_cache=True),
    SpecDescriptor(kind="polynomial"),
    SpecDescriptor(kind="bdd"),
    SpecDescriptor(kind="nodeset"),
)

#: Queries each node issues per simulated second: the paper's rate, the
#: default of :class:`~repro.experiments.workloads.QueryWorkload`.
QUERY_RATE = 5.0

#: Query target skew: a seeded hot set holding this share of the tuples
#: draws :data:`HOT_DRAWS` of the queries.  The paper draws targets
#: uniformly; these two figures are an assumption, not a measurement,
#: chosen so the result cache and coalescing find shared work while the
#: cost of a run does not hang on which one or two tuples are hottest.
HOT_TUPLES = 0.25
HOT_DRAWS = 0.75

#: Stub links ``mincost_churn`` adds or removes per round (every 0.5
#: simulated seconds, the ``make_churn`` default).
CHURN_LINKS_PER_ROUND = 4


def skewed_picker(rows: List[Any], rng: random.Random) -> Callable[[], Any]:
    """A seeded sampler over *rows* with a hot set (see :data:`HOT_TUPLES`)."""
    hot = rng.sample(rows, max(1, round(len(rows) * HOT_TUPLES)))

    def pick() -> Any:
        return rng.choice(hot if rng.random() < HOT_DRAWS else rows)

    return pick


def counters(net: ExspanNetwork) -> Dict[str, float]:
    """The program's own counters that the per-layer report uses."""
    planner = net.planner_stats()
    queries = net.query_service_stats()
    memo = vid_cache_stats()
    bdd = bdd_cache_stats()
    return {
        "sim.events": net.simulator.events_executed,
        "net.msgs": net.stats.total_messages(),
        "net.bytes": net.stats.total_bytes(),
        "engine.deltas": planner["deltas_processed"],
        "plan.tuples_scanned": planner["tuples_scanned"],
        "plan.index_lookups": planner["index_lookups"],
        "plan.compiled": planner["plans_compiled"] + planner["plans_recompiled"],
        "storage.rows": sum(node.engine.catalog.total_rows() for node in net.nodes.values()),
        "vid.hits": memo["vid"]["hits"],
        "vid.misses": memo["vid"]["misses"],
        "sha1.hits": memo["sha1"]["hits"],
        "sha1.misses": memo["sha1"]["misses"],
        "bdd.hits": bdd["apply_cache_hits"],
        "bdd.misses": bdd["apply_cache_misses"],
        "query.started": queries["queries_started"],
        "query.coalesced": queries["coalesced_inflight"] + queries["coalesced_roots"],
        "query.cache_hits": queries["cache_hits"],
        "query.cache_misses": queries["cache_misses"],
        "query.msgs": net.query_messages(),
        "query.msgs_batched": queries["messages_batched"],
    }


#: Counters reported as their level at the end, not their growth.
LEVELS = ("storage.rows", "plan.compiled")


def counter_window(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Counter growth over the timed phase (:data:`LEVELS` stay levels)."""
    return {key: after[key] if key in LEVELS else after[key] - before[key] for key in after}


class RouteWatch:
    """Remembers when each route of one table last changed.

    Registered as an engine update listener, so it sees a route appear,
    be replaced or disappear at the simulated and wall instant it happens.
    """

    def __init__(self, net: ExspanNetwork, table: str) -> None:
        self.table = table
        self.simulator = net.simulator
        #: (source, destination) -> (wall, sim) of the route's last change.
        self.last: Dict[Tuple[Any, Any], Tuple[float, float]] = {}
        for node in net.nodes.values():
            node.engine.add_update_listener(self._update)

    def _update(self, action: str, fact: Fact) -> None:
        if fact.name == self.table:
            self.last[fact.values[0], fact.values[1]] = (clock(), self.simulator.now)

    def reset(self) -> None:
        self.last = {}


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Timed:
    """Brackets the timed phase: wall time, counters and layer self time."""

    def __init__(self, net: ExspanNetwork, layer_clock: Optional[layers.LayerClock]) -> None:
        self.net = net
        self.layer_clock = layer_clock

    def __enter__(self) -> "_Timed":
        self.counters = counters(self.net)
        self.layers = self.layer_clock.snapshot() if self.layer_clock else None
        self.start = clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = clock() - self.start
        self.window = (
            layers.window(self.layers, self.layer_clock.snapshot(), self.wall_s)
            if self.layer_clock
            else None
        )
        self.growth = counter_window(self.counters, counters(self.net))
        # Peak RSS up to here, before the oracle's own work can raise it.
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def kb_per_op(self, ops: int) -> float:
        return self.growth["net.bytes"] / ops / 1000.0


def _record(
    timed: _Timed, layer_clock: Optional[layers.LayerClock], **fields: Any
) -> Dict[str, Any]:
    """The per-episode record every workload returns.

    *fields* carry ``setup_s``, ``ops``, ``wall_ms``/``sim_ms`` (latency
    samples per operation, in wall and simulated milliseconds),
    ``kb_per_op``, ``attempted``, ``failed``, the oracle's ``problems`` and
    ``det``: outputs that are a pure function of the inputs, which the
    traced run must reproduce exactly.
    """
    return {
        "timed_s": timed.wall_s,
        "layers": timed.window,
        "counters": timed.growth,
        "compile_s": layer_clock.inclusive_s["plan"] if layer_clock else None,
        "rss_mb": timed.rss_mb,
        **fields,
    }


def pv_fixpoint(seed: int, size: int = 48, layer_clock=None) -> Dict[str, Any]:
    """PATHVECTOR with reference provenance, cold start to fixpoint."""
    topology = size_topology(size, seed)
    start = clock()
    net = ExspanNetwork(topology, pathvector_program(), config=ExspanConfig())
    setup_s = clock() - start
    routes = RouteWatch(net, "bestPath")
    with _Timed(net, layer_clock) as timed:
        net.seed_links()
        net.run_to_fixpoint()
    best = sorted((row for _, row in net.tuples("bestPath")), key=repr)
    problems = oracles.check_pathvector(topology.link_facts(), best)
    wall_ms, sim_ms = [], []
    for source, destination, _, _ in best:
        wall, sim = routes.last[source, destination]
        wall_ms.append((wall - timed.start) * 1000.0)
        sim_ms.append(sim * 1000.0)
    kb_per_op = timed.kb_per_op(len(best))
    return _record(
        timed,
        layer_clock,
        setup_s=setup_s,
        ops=len(best),
        wall_ms=wall_ms,
        sim_ms=sim_ms,
        kb_per_op=kb_per_op,
        attempted=1,
        failed=0,
        problems=problems,
        det={
            "routes": _digest([repr(row) for row in best]),
            "sim_ms": _digest(sim_ms),
            "kb_per_op": kb_per_op,
            "deltas": timed.growth["engine.deltas"],
        },
    )


def node_tables(net: ExspanNetwork) -> Dict[str, Dict[str, List[Any]]]:
    """Every node's rows with derivation counts, in canonical order."""
    return {
        repr(address): {
            table.name: sorted([repr(row), count] for row, count in table.rows_with_counts())
            for table in node.engine.catalog.tables()
            if len(table)
        }
        for address, node in net.nodes.items()
    }


def mincost_churn(seed: int, size: int = 36, rounds: int = 8, layer_clock=None) -> Dict[str, Any]:
    """Bounded MINCOST with value (BDD) provenance under stub-link churn."""
    program = mincost_program(max_cost=16)
    config = ExspanConfig(mode=ProvenanceMode.VALUE)
    start = clock()
    net = ExspanNetwork(size_topology(size, seed), program, config=config)
    net.seed_links()
    net.run_to_fixpoint()
    setup_s = clock() - start
    routes = RouteWatch(net, "bestPathCost")
    churn = make_churn(net, links_per_round=CHURN_LINKS_PER_ROUND, seed=seed)
    # Markers at the round instants, scheduled first so they run just
    # before each round applies: they split route changes by round.
    round_marks: List[Tuple[float, float, Dict[Tuple[Any, Any], Tuple[float, float]]]] = []

    def mark() -> None:
        round_marks.append((clock(), net.simulator.now, routes.last))
        routes.reset()

    for index in range(rounds):
        net.simulator.schedule(churn.interval * (index + 1), mark)
    churn.start(rounds=rounds)
    with _Timed(net, layer_clock) as timed:
        net.simulator.run_until_idle()
    mark()
    wall_ms, sim_ms = [], []
    for (round_wall, round_sim, _), (_, _, changed) in zip(round_marks, round_marks[1:]):
        for wall, sim in changed.values():
            wall_ms.append((wall - round_wall) * 1000.0)
            sim_ms.append((sim - round_sim) * 1000.0)
    fresh = ExspanNetwork(copy.deepcopy(net.topology), program, config=config)
    fresh.seed_links()
    fresh.run_to_fixpoint()
    tables = node_tables(net)
    problems = oracles.compare_tables(tables, node_tables(fresh))
    kb_per_op = timed.kb_per_op(len(churn.events))
    return _record(
        timed,
        layer_clock,
        setup_s=setup_s,
        ops=len(churn.events),
        wall_ms=wall_ms,
        sim_ms=sim_ms,
        kb_per_op=kb_per_op,
        attempted=len(churn.events),
        failed=0,
        problems=problems,
        det={
            "tables": _digest(tables),
            "sim_ms": _digest(sim_ms),
            "kb_per_op": kb_per_op,
            "changes": len(churn.events),
        },
    )


def query_mix(
    seed: int, size: int = 48, queries_per_node: int = 60, layer_clock=None
) -> Dict[str, Any]:
    """Read-only provenance queries, open loop in simulated time.

    Every node issues *queries_per_node* queries at :data:`QUERY_RATE`,
    as the paper's query workload does, about ``bestPathCost`` tuples it
    stores, drawn with a seeded hot-set skew; spec kinds rotate through
    :data:`QUERY_SPECS`.
    """
    start = clock()
    net = ExspanNetwork(size_topology(size, seed), mincost_program(), config=ExspanConfig())
    net.seed_links()
    net.run_to_fixpoint()
    setup_s = clock() - start
    rng = random.Random(seed)
    names = [net.register_spec(spec) for spec in QUERY_SPECS]
    interval = 1.0 / QUERY_RATE
    plan: List[float] = []
    requests: List[QueryRequest] = []
    for address in net.addresses():
        rows = list(net.node(address).engine.catalog.table("bestPathCost").rows())
        if not rows:
            continue
        pick = skewed_picker(rows, rng)
        offset = rng.uniform(0.0, interval)
        for tick in range(queries_per_node):
            spec = names[len(requests) % len(names)]
            fact = Fact("bestPathCost", pick())
            requests.append(QueryRequest(fact=fact, spec=spec, issuer=address))
            plan.append(offset + tick * interval)
    answers: List[Any] = [None] * len(requests)
    issued_wall = [0.0] * len(requests)
    done_wall = [0.0] * len(requests)

    def issuer(index: int) -> Callable[[], None]:
        def finish(result) -> None:
            done_wall[index] = clock()
            answers[index] = result

        def issue() -> None:
            issued_wall[index] = clock()
            net.submit(requests[index], finish)

        return issue

    now = net.now
    for index, at in enumerate(plan):
        net.simulator.schedule_at(now + at, issuer(index))
    with _Timed(net, layer_clock) as timed:
        net.simulator.run_until_idle()
    completed = [answer for answer in answers if answer is not None]
    failed = sum(1 for answer in answers if answer is None or answer.partial)

    def key(request: QueryRequest) -> Tuple[str, str]:
        return repr(request.fact.values), QUERY_SPECS[names.index(request.spec)].kind

    results = [
        (key(request), canonical_json(answer.annotation) if answer is not None else None)
        for request, answer in zip(requests, answers)
    ]
    reference: Dict[Tuple[str, str], str] = {}
    for request in requests:
        if key(request) in reference:
            continue
        kind = key(request)[1]
        oracle_spec = SpecDescriptor(kind=kind, name=f"serial-{kind}")
        answer = net.execute(QueryRequest(fact=request.fact, spec=oracle_spec))
        reference[key(request)] = canonical_json(answer.annotation)
    problems = oracles.compare_query_results(results, reference)
    sim_ms = [answer.latency * 1000.0 for answer in completed]
    kb_per_op = timed.kb_per_op(len(completed))
    return _record(
        timed,
        layer_clock,
        setup_s=setup_s,
        ops=len(completed),
        wall_ms=[
            (done - issued) * 1000.0
            for issued, done, answer in zip(issued_wall, done_wall, answers)
            if answer is not None
        ],
        sim_ms=sim_ms,
        kb_per_op=kb_per_op,
        attempted=len(requests),
        failed=failed,
        problems=problems,
        det={
            "answers": _digest([answer for _, answer in results]),
            "sim_ms": _digest(sim_ms),
            "kb_per_op": kb_per_op,
        },
    )


WORKLOADS = {
    "pv_fixpoint": pv_fixpoint,
    "mincost_churn": mincost_churn,
    "query_mix": query_mix,
}

#: Smallest inputs that still exercise every code path (self-tests).
TINY = {
    "pv_fixpoint": {"size": 12},
    "mincost_churn": {"size": 12, "rounds": 2},
    "query_mix": {"size": 12, "queries_per_node": 4},
}
