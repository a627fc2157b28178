"""Write-behind sqlite backend with an interval-encoded provenance DAG.

:class:`SqliteBackend` mirrors every visibility transition of every node
onto one sqlite database (WAL mode) — base and derived tuples, the
``prov``/``ruleExec`` relations, and the VID index (each mirrored tuple row
carries its content-derived VID).  The mirror is *write-behind*: the
engine's update listener only appends to an in-RAM journal, and
:meth:`SqliteBackend.flush` drains the journal in one WAL transaction, so
the batched delta hot path keep their in-RAM speed and the
database lags the engine by at most one un-flushed journal.

On top of the mirrored ``prov``/``ruleExec`` rows the backend maintains a
**pre/post-order interval encoding** of the provenance DAG (the
XPath-accelerator trick): a DFS spanning forest assigns every tuple vertex
a ``[pre, post]`` interval such that tree descendants satisfy
``child.pre BETWEEN parent.pre AND parent.post`` — one indexed range scan —
and the residual non-tree DAG edges (shared sub-derivations, cycles) are
kept in ``extra_edges`` and closed with a recursive CTE whose ``UNION``
dedup guarantees termination on cyclic reachability.  Reachability,
reachable-base-tuple, node-set and subgraph queries all compile onto this
encoding, giving a second, independent oracle for the distributed query
engine (cross-checked in ``tests/test_storage_sql.py``).

The schema (see also ``docs/STORAGE.md``)::

    meta(key TEXT PRIMARY KEY, value TEXT)
    tuples(id INTEGER PRIMARY KEY, node TEXT, name TEXT, row TEXT, vid TEXT)
    prov(id INTEGER PRIMARY KEY, loc TEXT, vid TEXT, rid TEXT, rloc TEXT)
    rule_exec(id INTEGER PRIMARY KEY, rloc TEXT, rid TEXT, rule TEXT,
              inputs TEXT)
    intervals(vid TEXT PRIMARY KEY, pre INTEGER, post INTEGER)
    extra_edges(parent_pre INTEGER, child_vid TEXT)

Values, rows and node addresses are stored as canonical JSON
(sorted keys, compact separators) so the database contents are a
deterministic function of the engine state.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..datalog.ast import Fact, is_event_predicate
from .backend import StorageBackend, StorageError
from .memory import freeze_value

__all__ = ["SqliteBackend", "SQL_QUERY_KINDS"]

#: Query kinds :meth:`SqliteBackend.sql_query` compiles.
SQL_QUERY_KINDS = ("reachable", "reachable_base", "nodeset", "derivability", "subgraph")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tuples(
    id INTEGER PRIMARY KEY,
    node TEXT NOT NULL,
    name TEXT NOT NULL,
    row TEXT NOT NULL,
    vid TEXT NOT NULL,
    UNIQUE(node, name, row)
);
CREATE INDEX IF NOT EXISTS tuples_vid ON tuples(vid);
CREATE TABLE IF NOT EXISTS prov(
    id INTEGER PRIMARY KEY,
    loc TEXT NOT NULL,
    vid TEXT NOT NULL,
    rid TEXT,
    rloc TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS prov_vid ON prov(vid);
CREATE TABLE IF NOT EXISTS rule_exec(
    id INTEGER PRIMARY KEY,
    rloc TEXT NOT NULL,
    rid TEXT NOT NULL,
    rule TEXT NOT NULL,
    inputs TEXT NOT NULL,
    UNIQUE(rloc, rid)
);
CREATE INDEX IF NOT EXISTS rule_exec_rid ON rule_exec(rid);
CREATE TABLE IF NOT EXISTS intervals(
    vid TEXT PRIMARY KEY,
    pre INTEGER NOT NULL,
    post INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS intervals_pre ON intervals(pre);
CREATE TABLE IF NOT EXISTS extra_edges(
    parent_pre INTEGER NOT NULL,
    child_vid TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS extra_edges_parent ON extra_edges(parent_pre);
"""

#: Recursive interval-closure over the DAG: seed with the root's interval,
#: then repeatedly pull in the intervals of children reached through
#: non-tree edges whose parent lies inside an already-entered interval.
#: ``UNION`` (not ``UNION ALL``) dedups entries, so cyclic extra edges
#: terminate.  The final reachable set is every vertex whose ``pre`` falls
#: inside an entered interval — indexed range scans on ``intervals_pre``.
_REACHABLE_CTE = """
WITH RECURSIVE entry(pre, post) AS (
    SELECT pre, post FROM intervals WHERE vid = :root
    UNION
    SELECT i.pre, i.post
    FROM entry
    JOIN extra_edges e ON e.parent_pre BETWEEN entry.pre AND entry.post
    JOIN intervals i ON i.vid = e.child_vid
),
reach(vid) AS (
    SELECT DISTINCT t.vid
    FROM intervals t
    JOIN entry ON t.pre BETWEEN entry.pre AND entry.post
)
"""


def _encode(value: Any) -> str:
    """Canonical JSON for a (frozen) value, row or node address."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=list)


def _decode(text: str) -> Any:
    return json.loads(text)


class SqliteBackend(StorageBackend):
    """Durable mirror of the network's relations in one sqlite file."""

    kind = "sqlite"
    persistent = True
    supports_sql = True

    def __init__(self, path: Optional[str] = None):
        super().__init__()
        # Lazy core imports: repro.storage must be importable while
        # repro.core is still loading (api.py imports this package).
        from ..core.rewrite import PROV_TABLE, RULE_EXEC_TABLE
        from ..core.vid import fact_vid

        self._prov_table = PROV_TABLE
        self._rule_exec_table = RULE_EXEC_TABLE
        self._fact_vid = fact_vid
        self._ephemeral = path is None
        if path is None:
            handle, path = tempfile.mkstemp(prefix="exspan-storage-", suffix=".sqlite")
            os.close(handle)
        self.path = path
        self._connection = sqlite3.connect(path)
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.executescript(_SCHEMA)
        self._connection.commit()
        # Journal of (address, action, name, frozen values) visibility
        # transitions, drained by flush() in arrival order.
        self._journal: List[Tuple[Any, str, str, Tuple[Any, ...]]] = []
        self._intervals_dirty = True

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach_node(self, address: Any, engine: Any, store: Any) -> None:
        super().attach_node(address, engine, store)
        journal = self._journal
        counters = self.counters

        def _observe(action: str, fact: Fact, _address: Any = address) -> None:
            # Freeze eagerly: the journal may outlive the fact's value
            # list, and flush-time encoding needs hashable canonical rows.
            journal.append((_address, action, fact.name, freeze_value(tuple(fact.values))))
            counters["journal_appends"] += 1

        engine.add_update_listener(_observe)

    def record(self, address: Any, action: str, name: str, values: Any) -> None:
        self._journal.append((address, action, name, freeze_value(tuple(values))))
        self.counters["journal_appends"] += 1

    def close(self) -> None:
        if self._connection is not None:
            try:
                self.flush()
            except sqlite3.Error:  # pragma: no cover - best-effort close
                pass
            self._connection.close()
            self._connection = None  # type: ignore[assignment]
        if self._ephemeral and self.path:
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(self.path + suffix)
                except OSError:
                    pass

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        # Networks rarely close their backend explicitly (trial functions
        # build thousands of short-lived ones); reclaim the connection and
        # the ephemeral temp file when the backend is collected.
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # write-behind journal
    # ------------------------------------------------------------------ #
    def flush(self) -> int:
        """Drain the journal into one WAL transaction; return op count."""
        journal = self._journal
        if not journal:
            return 0
        # Swap in a fresh list so listeners appending mid-flush (there are
        # none today, but the invariant is cheap) never hit a shared list.
        drained = journal[:]
        journal.clear()
        prov_name = self._prov_table
        rule_exec_name = self._rule_exec_table
        fact_vid = self._fact_vid
        connection = self._connection
        operations = 0
        graph_touched = False
        with connection:
            execute = connection.execute
            for address, action, name, values in drained:
                if name == prov_name:
                    loc, vid, rid, rloc = values[0], values[1], values[2], values[3]
                    row = (_encode(loc), vid, rid, _encode(rloc))
                    if action == "insert":
                        execute(
                            "INSERT INTO prov(loc, vid, rid, rloc) VALUES(?,?,?,?)",
                            row,
                        )
                    else:
                        execute(
                            "DELETE FROM prov WHERE loc = ? AND vid = ? "
                            "AND rid IS ? AND rloc = ?",
                            row,
                        )
                    graph_touched = True
                elif name == rule_exec_name:
                    rloc, rid, rule = values[0], values[1], values[2]
                    inputs = _encode(list(values[3]) if values[3] else [])
                    if action == "insert":
                        execute(
                            "INSERT OR REPLACE INTO rule_exec"
                            "(rloc, rid, rule, inputs) VALUES(?,?,?,?)",
                            (_encode(rloc), rid, rule, inputs),
                        )
                    else:
                        execute(
                            "DELETE FROM rule_exec WHERE rloc = ? AND rid = ?",
                            (_encode(rloc), rid),
                        )
                    graph_touched = True
                elif is_event_predicate(name):
                    continue  # transient events are never materialized
                else:
                    node = _encode(address)
                    row_text = _encode(values)
                    if action == "insert":
                        vid = fact_vid(Fact(name, values))
                        execute(
                            "INSERT OR REPLACE INTO tuples(node, name, row, vid) "
                            "VALUES(?,?,?,?)",
                            (node, name, row_text, vid),
                        )
                    else:
                        execute(
                            "DELETE FROM tuples WHERE node = ? AND name = ? "
                            "AND row = ?",
                            (node, name, row_text),
                        )
                operations += 1
        if graph_touched:
            self._intervals_dirty = True
        self.counters["flushes"] += 1
        self.counters["flushed_ops"] += operations
        return operations

    # ------------------------------------------------------------------ #
    # interval encoding
    # ------------------------------------------------------------------ #
    def _ensure_intervals(self) -> None:
        if not self._intervals_dirty:
            return
        self._rebuild_intervals()
        self._intervals_dirty = False

    def _rebuild_intervals(self) -> None:
        """Recompute the pre/post-order encoding from the mirrored graph.

        Deterministic: vertices are rooted in ``prov`` insertion order and
        children follow the stored ``ruleExec`` input order, so the same
        graph always yields the same intervals regardless of hash seed.
        """
        connection = self._connection
        prov_rows = connection.execute("SELECT vid, rid FROM prov ORDER BY id").fetchall()
        rule_inputs: Dict[str, List[str]] = {}
        for rid, inputs in connection.execute(
            "SELECT rid, inputs FROM rule_exec ORDER BY id"
        ):
            rule_inputs.setdefault(rid, _decode(inputs))
        children: Dict[str, List[str]] = {}
        order: List[str] = []
        for vid, rid in prov_rows:
            bucket = children.get(vid)
            if bucket is None:
                bucket = children[vid] = []
                order.append(vid)
            if rid is not None:
                bucket.extend(rule_inputs.get(rid, ()))
        pre: Dict[str, int] = {}
        post: Dict[str, int] = {}
        extra: List[Tuple[int, str]] = []
        counter = 0
        for root in order:
            if root in pre:
                continue
            pre[root] = counter
            counter += 1
            stack: List[Tuple[str, Iterator[str]]] = [
                (root, iter(children.get(root, ())))
            ]
            while stack:
                vertex, child_iter = stack[-1]
                descended = False
                for child in child_iter:
                    if child in pre:
                        # Non-tree DAG edge (shared sub-derivation or
                        # cycle): closed by the recursive CTE at query time.
                        extra.append((pre[vertex], child))
                    else:
                        pre[child] = counter
                        counter += 1
                        stack.append((child, iter(children.get(child, ()))))
                        descended = True
                        break
                if not descended:
                    post[vertex] = counter
                    counter += 1
                    stack.pop()
        with connection:
            connection.execute("DELETE FROM intervals")
            connection.execute("DELETE FROM extra_edges")
            connection.executemany(
                "INSERT INTO intervals(vid, pre, post) VALUES(?,?,?)",
                [(vid, pre[vid], post[vid]) for vid in pre],
            )
            connection.executemany(
                "INSERT INTO extra_edges(parent_pre, child_vid) VALUES(?,?)",
                extra,
            )

    # ------------------------------------------------------------------ #
    # SQL query path
    # ------------------------------------------------------------------ #
    def sql_query(self, kind: str, root_vid: str) -> Any:
        """Answer a provenance query from the database alone.

        Flushes the journal, refreshes the interval encoding if the graph
        changed, then compiles *kind* onto indexed range scans plus the
        recursive interval-closure CTE.  Supported kinds:

        ``reachable``
            Sorted VIDs of every tuple vertex in the derivation subgraph.
        ``reachable_base``
            Sorted VIDs of the base tuples (null-RID ``prov`` rows) the
            root transitively depends on.
        ``nodeset``
            Sorted node addresses participating in any derivation — the
            SQL twin of the distributed NODESET query / Figure 5's
            ``nodes_involved``.
        ``derivability``
            True when the root vertex exists in the provenance graph (the
            trust-free derivability check).
        ``subgraph``
            Sorted ``[parent_vid, rid, child_vid]`` edges of the
            derivation subgraph.
        """
        if kind not in SQL_QUERY_KINDS:
            raise StorageError(
                f"unknown SQL provenance query kind {kind!r} "
                f"(expected one of {SQL_QUERY_KINDS})"
            )
        self.flush()
        self._ensure_intervals()
        self.counters["sql_queries"] += 1
        connection = self._connection
        parameters = {"root": root_vid}
        if kind == "derivability":
            found = connection.execute(
                "SELECT 1 FROM intervals WHERE vid = :root LIMIT 1", parameters
            ).fetchone()
            return found is not None
        if kind == "reachable":
            rows = connection.execute(
                _REACHABLE_CTE + "SELECT vid FROM reach ORDER BY vid", parameters
            ).fetchall()
            return [vid for (vid,) in rows]
        if kind == "reachable_base":
            rows = connection.execute(
                _REACHABLE_CTE
                + """
                SELECT r.vid FROM reach r
                WHERE EXISTS (
                    SELECT 1 FROM prov p WHERE p.vid = r.vid AND p.rid IS NULL
                )
                ORDER BY r.vid
                """,
                parameters,
            ).fetchall()
            return [vid for (vid,) in rows]
        if kind == "nodeset":
            rows = connection.execute(
                _REACHABLE_CTE
                + """
                SELECT DISTINCT p.loc FROM prov p
                WHERE p.vid IN (SELECT vid FROM reach)
                UNION
                SELECT DISTINCT p.rloc FROM prov p
                WHERE p.rid IS NOT NULL AND p.vid IN (SELECT vid FROM reach)
                """,
                parameters,
            ).fetchall()
            return sorted((_decode(text) for (text,) in rows), key=lambda v: str(v))
        # subgraph: the reachable set comes from the interval encoding, the
        # edge list from the mirrored prov/ruleExec rows.
        reachable = set(
            vid
            for (vid,) in connection.execute(
                _REACHABLE_CTE + "SELECT vid FROM reach", parameters
            )
        )
        edges: List[Tuple[str, str, str]] = []
        for vid, rid in connection.execute(
            "SELECT vid, rid FROM prov WHERE rid IS NOT NULL ORDER BY id"
        ):
            if vid not in reachable:
                continue
            inputs_row = connection.execute(
                "SELECT inputs FROM rule_exec WHERE rid = ? LIMIT 1", (rid,)
            ).fetchone()
            if inputs_row is None:
                continue
            for child in _decode(inputs_row[0]):
                edges.append((vid, rid, child))
        return sorted(set(edges))

    # ------------------------------------------------------------------ #
    # inspection helpers (tests, durability gate)
    # ------------------------------------------------------------------ #
    def tuple_rows(self) -> List[Tuple[Any, str, Tuple[Any, ...], str]]:
        """Decoded ``(node, name, row, vid)`` mirror rows, flushed first."""
        self.flush()
        rows = self._connection.execute(
            "SELECT node, name, row, vid FROM tuples ORDER BY node, name, row"
        ).fetchall()
        return [
            (_decode(node), name, freeze_value(_decode(row)), vid)
            for node, name, row, vid in rows
        ]

    def graph_counts(self) -> Dict[str, int]:
        """Row counts of the mirrored provenance relations, flushed first."""
        self.flush()
        counts = {}
        for table in ("tuples", "prov", "rule_exec", "intervals", "extra_edges"):
            counts[table] = self._connection.execute(
                f"SELECT COUNT(*) FROM {table}"  # noqa: S608 - fixed names
            ).fetchone()[0]
        return counts

    def stats(self) -> Dict[str, Any]:
        snapshot = super().stats()
        snapshot["journal_pending"] = len(self._journal)
        return snapshot
