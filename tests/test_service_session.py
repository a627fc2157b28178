"""Service equivalence gate: concurrent socket clients vs in-process calls.

The paper-level contract of the always-on service: putting a socket and
an event loop between the operator and the engine changes *nothing*
about query results.  Four concurrent clients issuing interleaved
queries must observe results whose canonical bytes (VIDs, annotations,
derivation order) are identical to the same queries executed serially
in-process on an identically constructed network.
"""

import asyncio
import gc
import threading
import warnings

import pytest

from repro.core.api import ExspanNetwork
from repro.core.config import ExspanConfig
from repro.core.requests import QueryRequest, QueryResult, SpecDescriptor
from repro.net.topology import ring_topology
from repro.protocols.mincost import mincost_program
from repro.service import ServiceClient, ServiceThread
from repro.service.server import ExspanService, ServiceServer

SPECS = [
    SpecDescriptor(kind="polynomial"),
    SpecDescriptor(kind="polynomial", traversal="dfs"),
    SpecDescriptor(kind="polynomial", max_depth=3),
    SpecDescriptor(kind="nodeset"),
    SpecDescriptor(kind="derivations"),
    SpecDescriptor(kind="derivability"),
]


def _network():
    network = ExspanNetwork(
        ring_topology(6, seed=0), mincost_program(), config=ExspanConfig(seed=0)
    )
    network.seed_links()
    network.run_to_fixpoint()
    return network


def _requests(network):
    """A deterministic mixed workload: every bestPathCost fact x every spec."""
    facts = sorted(
        (node, values) for node, values in network.tuples("bestPathCost")
    )[:8]
    requests = []
    for index, (node, values) in enumerate(facts):
        spec = SPECS[index % len(SPECS)]
        requests.append(
            {
                "fact": {"name": "bestPathCost", "values": list(values)},
                "spec": spec.to_dict(),
            }
        )
    return requests


@pytest.fixture(scope="module")
def serial_bodies():
    """Ground truth: the same workload executed serially in-process."""
    network = _network()
    bodies = {}
    for request in _requests(network):
        result = network.execute(QueryRequest.from_dict(request))
        key = (result.fact["name"], tuple(request["fact"]["values"]), result.spec)
        bodies[key] = result.canonical_bytes()
    return bodies


def _client_worker(address, requests, barrier, outputs, index):
    with ServiceClient(*address) as client:
        barrier.wait(timeout=30)
        collected = []
        # Each client walks the workload from a different offset so the
        # interleaving across clients is genuinely mixed.
        for step in range(len(requests)):
            request = requests[(index + step) % len(requests)]
            payload = client.call("query", **request)
            collected.append((request, payload))
        outputs[index] = collected


def test_concurrent_clients_byte_identical_to_serial(serial_bodies):
    network = _network()
    requests = _requests(network)
    client_count = 4
    with ServiceThread(network) as service:
        barrier = threading.Barrier(client_count)
        outputs = [None] * client_count
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(service.address, requests, barrier, outputs, index),
            )
            for index in range(client_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "client thread wedged"

    checked = 0
    for collected in outputs:
        assert collected is not None, "a client produced no output"
        for request, payload in collected:
            result = QueryResult.from_dict(payload)
            key = (
                result.fact["name"],
                tuple(request["fact"]["values"]),
                result.spec,
            )
            assert result.canonical_bytes() == serial_bodies[key]
            checked += 1
    # 4 clients x 8 requests each: the whole matrix was exercised.
    assert checked == client_count * len(requests)


def test_single_client_matches_in_process(serial_bodies):
    network = _network()
    requests = _requests(network)
    with ServiceThread(network) as service:
        with ServiceClient(*service.address) as client:
            for request in requests:
                payload = client.call("query", **request)
                result = QueryResult.from_dict(payload)
                key = (
                    result.fact["name"],
                    tuple(request["fact"]["values"]),
                    result.spec,
                )
                assert result.canonical_bytes() == serial_bodies[key]


def test_mutations_visible_across_clients():
    """One client's insert is visible to another client's query."""
    network = _network()
    with ServiceThread(network) as service:
        with (
            ServiceClient(*service.address) as writer,
            ServiceClient(*service.address) as reader,
        ):
            before = {tuple(row) for _, row in network_rows(reader, "link")}
            writer.call("insert", fact={"name": "link", "values": ["n0", "n3", 7]})
            writer.call("fixpoint")
            after = {tuple(row) for _, row in network_rows(reader, "link")}
            assert ("n0", "n3", 7) not in before
            assert ("n0", "n3", 7) in after
            writer.call("delete", fact={"name": "link", "values": ["n0", "n3", 7]})
            writer.call("fixpoint")
            final = {tuple(row) for _, row in network_rows(reader, "link")}
            assert ("n0", "n3", 7) not in final


def network_rows(client, table):
    return [(node, tuple(values)) for node, values in client.call("tuples", table=table)["rows"]]


def test_stats_and_metrics_snapshots_are_detached():
    """Satellite gate: snapshot ops hand back deep copies, not live state."""
    network = _network()
    live = network.stats
    snap = network.stats_snapshot()
    snap["messages_sent"] = -1
    snap.setdefault("kind_totals", {}).clear()
    assert live.snapshot()["messages_sent"] != -1
    assert network.stats_snapshot()["kind_totals"]

    metrics = network.metrics_snapshot()
    metrics["counters"].clear()
    assert network.metrics_snapshot()["counters"]


def test_per_request_spans_get_fresh_traces():
    """Each wire request is a root span in its own trace (obs integration)."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    network = ExspanNetwork(
        ring_topology(4, seed=0),
        mincost_program(),
        config=ExspanConfig(seed=0),
        tracer=tracer,
    )
    network.seed_links()
    network.run_to_fixpoint()
    with ServiceThread(network) as service:
        with ServiceClient(*service.address) as client:
            client.call("ping")
            client.call(
                "query",
                fact={"name": "bestPathCost", "values": ["n0", "n1", 1]},
                spec={"kind": "polynomial"},
            )
    request_spans = [
        span for span in tracer.spans if span.cat == "service" and span.name.startswith("service.")
    ]
    names = {span.name for span in request_spans}
    assert "service.ping" in names
    assert "service.query" in names
    trace_ids = [span.trace_id for span in request_spans]
    assert len(trace_ids) == len(set(trace_ids)), "requests must not share a trace"
    assert all(span.parent_id is None for span in request_spans), "request spans are roots"


def test_graceful_shutdown_drains():
    """A shutdown request stops the server; clients get a clean close."""
    network = _network()
    service = ServiceThread(network)
    service.start()
    with ServiceClient(*service.address) as client:
        assert client.call("ping")["now"] >= 0
        assert client.shutdown_server()["stopping"] is True
    service.stop()
    with pytest.raises(OSError):
        ServiceClient(*service.address, timeout=2)


def test_stop_after_loop_closed_neither_raises_nor_warns():
    """stop() racing a client's shutdown: the loop is closed, the thread lives.

    A client's shutdown lets the service thread close its event loop while
    the thread has not yet exited; stop() must treat that as "already
    stopping" instead of raising or orphaning a coroutine.
    """
    network = _network()
    service = ServiceThread(network)
    release = threading.Event()
    service._thread = threading.Thread(target=release.wait, daemon=True)
    service._thread.start()
    loop = asyncio.new_event_loop()
    loop.close()
    service._loop = loop
    service._server = ServiceServer(ExspanService(network))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service.stop(timeout=0.01)
            gc.collect()
    finally:
        release.set()
        service._thread.join()
