"""Order-independent correctness oracles for the benchmark's outputs.

Each oracle takes plain data (rows, digests, result encodings) extracted
from a run and returns a list of human-readable problems; an empty list
means the output is correct.  Keeping them free of live network objects
lets the self-tests feed each one a deliberately corrupted result.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

Link = Tuple[Any, Any, int]

#: Cap on problems reported by one oracle (the first few explain a failure).
MAX_PROBLEMS = 10


def shortest_costs(links: Iterable[Link]) -> Dict[Any, Dict[Any, int]]:
    """All-pairs least path cost over directed ``(src, dst, cost)`` links."""
    adjacency: Dict[Any, List[Tuple[Any, int]]] = {}
    for source, destination, cost in links:
        adjacency.setdefault(source, []).append((destination, cost))
        adjacency.setdefault(destination, [])
    costs: Dict[Any, Dict[Any, int]] = {}
    for origin in adjacency:
        best = {origin: 0}
        heap = [(0, repr(origin), origin)]
        while heap:
            cost, _, node = heapq.heappop(heap)
            if cost > best[node]:
                continue
            for neighbour, weight in adjacency[node]:
                total = cost + weight
                if total < best.get(neighbour, total + 1):
                    best[neighbour] = total
                    heapq.heappush(heap, (total, repr(neighbour), neighbour))
        costs[origin] = best
    return costs


def check_pathvector(links: Sequence[Link], best_paths: Sequence[Tuple[Any, ...]]) -> List[str]:
    """PATHVECTOR ``bestPath(S, D, C, P)`` rows against the topology.

    Every reachable ordered pair has exactly one row; its cost is the
    shortest-path cost; its path starts at S, ends at D, visits no node
    twice and follows real links whose costs sum to C.  Equal-cost ties
    may break either way, so the oracle never compares paths byte-wise.
    """
    problems: List[str] = []
    link_cost = {(source, destination): cost for source, destination, cost in links}
    costs = shortest_costs(links)
    seen = set()
    for source, destination, cost, path in best_paths:
        pair = (source, destination)
        if pair in seen:
            problems.append(f"duplicate bestPath for {pair}")
        seen.add(pair)
        expected = costs.get(source, {}).get(destination)
        if expected is None or cost != expected:
            problems.append(f"bestPath{pair} cost {cost}, shortest is {expected}")
        hops = list(path)
        if not hops or hops[0] != source or hops[-1] != destination:
            problems.append(f"bestPath{pair} path {hops} does not run {source}->{destination}")
        elif len(set(hops)) != len(hops):
            problems.append(f"bestPath{pair} path {hops} repeats a node")
        else:
            steps = list(zip(hops, hops[1:]))
            missing = [step for step in steps if step not in link_cost]
            if missing:
                problems.append(f"bestPath{pair} uses missing links {missing}")
            elif sum(link_cost[step] for step in steps) != cost:
                problems.append(f"bestPath{pair} path {hops} does not cost {cost}")
    for source, reachable in costs.items():
        for destination in reachable:
            if destination != source and (source, destination) not in seen:
                problems.append(f"no bestPath for reachable pair {(source, destination)}")
    return problems[:MAX_PROBLEMS]


Tables = Mapping[str, Mapping[str, Sequence[Any]]]


def compare_tables(actual: Tables, expected: Tables) -> List[str]:
    """Per-node tables (rows with derivation counts) against a reference.

    Both sides map ``node -> table -> sorted [row, count] list``; tables
    that are empty on both sides may be absent from either.
    """
    problems: List[str] = []
    for node in sorted(set(actual) | set(expected)):
        mine, theirs = actual.get(node, {}), expected.get(node, {})
        for table in sorted(set(mine) | set(theirs)):
            left, right = list(mine.get(table, ())), list(theirs.get(table, ()))
            if left != right:
                extra = [row for row in left if row not in right][:3]
                lacking = [row for row in right if row not in left][:3]
                problems.append(
                    f"node {node} table {table}: {len(left)} rows vs {len(right)} "
                    f"from scratch; extra {extra}, missing {lacking}"
                )
    return problems[:MAX_PROBLEMS]


def compare_query_results(
    results: Sequence[Tuple[Any, Any]], reference: Mapping[Any, Any]
) -> List[str]:
    """Concurrent query answers against serially issued reference answers.

    *results* holds ``(key, answer)`` per issued query, where *key* names
    the fact and spec kind and *answer* is the canonical encoding of the
    result (``None`` for a query that never completed); *reference* maps
    each key to the answer the same query got when issued alone.
    """
    problems: List[str] = []
    for index, (key, answer) in enumerate(results):
        expected = reference.get(key)
        if answer is None:
            problems.append(f"query {index} {key} never completed")
        elif expected is None:
            problems.append(f"query {index} {key} has no serial reference")
        elif answer != expected:
            problems.append(f"query {index} {key} answered {answer!r}, serially {expected!r}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def check_service(errors: Sequence[str], digest: Any, expected_digest: Any) -> List[str]:
    """A service session: every response ok, and the final state converged.

    *digest* is the server's convergence digest after the session; it
    must equal the digest of a from-scratch build on the final link set.
    """
    problems = [f"error response: {error}" for error in errors[:MAX_PROBLEMS]]
    if digest != expected_digest:
        problems.append(
            f"final digest {digest} differs from a from-scratch build {expected_digest}"
        )
    return problems
