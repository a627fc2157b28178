"""In-RAM relation storage: interned-row tables, catalogs, MemoryBackend.

Each node in the network owns a :class:`Catalog` of :class:`Table` objects.
A table stores only the tuples whose location specifier equals the owning
node's address — this is the horizontal partitioning described throughout
the ExSPAN paper (e.g. the ``prov`` relation is "distributed across nodes,
partitioned based on the location specifier Loc").

Tables implement *derivation counting*: inserting an already-present fact
increments its count instead of duplicating it, and deleting decrements the
count, only removing the fact when the count reaches zero.  This is the
standard bookkeeping used by the pipelined semi-naive (PSN) evaluation to
handle tuples with multiple derivations.

Tables optionally declare primary-key positions.  When a new fact shares the
primary key of an existing fact with different non-key attributes, the old
fact is *replaced* (an update), which mirrors RapidNet's ``materialize``
semantics and is relied upon by routing tables such as ``bestHop``.

Rows are *interned*: each table hash-conses its stored tuples into one
canonical :class:`InternedRow` per distinct value tuple.  An interned row
caches its hash after the first computation, so the row dict, the
primary-key map and every secondary index stop re-hashing the same tuple on
each insert, delete and probe; sharing one object also makes the dict
equality checks on those structures identity hits.  The pool only holds
live rows (entries are dropped when the last derivation disappears), so its
memory is bounded by the table's current cardinality.

This module is the storage engine's in-RAM tier.  Every backend —
including the persistent ones — keeps this tier as the authoritative copy
consulted by evaluation, and :class:`MemoryBackend` is the backend that
adds nothing on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..datalog.ast import Fact, TableDecl
from ..datalog.errors import SchemaError
from .backend import StorageBackend

__all__ = [
    "InternedRow",
    "Table",
    "Catalog",
    "InsertOutcome",
    "DeleteOutcome",
    "freeze_value",
    "MemoryBackend",
]


class InternedRow(tuple):
    """A hash-consed table row: a tuple whose hash is computed once.

    Instances are created only by :meth:`Table.insert`, so at most one
    exists per distinct live row of a table.  Equality, ordering, repr and
    JSON serialization are inherited from ``tuple`` unchanged — interning
    is invisible to everything except the hash profile.  The canonical
    object also carries the row's *derivation count* (``count``), which
    lets insert/delete bump a plain attribute instead of rewriting a dict
    entry.
    """

    # Lazily cached in the instance dict on first hash (tuple subclasses
    # cannot carry nonempty __slots__, so the per-instance dict is the one
    # canonical copy's storage cost — shared with ``count``).
    _cached_hash: Optional[int] = None
    #: Derivation count maintained by the owning Table.
    count: int = 0

    def __hash__(self) -> int:
        cached = self._cached_hash
        if cached is None:
            cached = tuple.__hash__(self)
            self._cached_hash = cached
        return cached


@dataclass(frozen=True, slots=True)
class InsertOutcome:
    """Result of a table insert.

    ``became_visible`` is True when the fact was not previously present
    (count went 0 -> 1) and therefore must be propagated to dependent rules.
    ``replaced`` holds a fact evicted by primary-key update semantics, which
    the engine must propagate as a deletion.
    """

    became_visible: bool
    replaced: Optional[Fact] = None


@dataclass(frozen=True, slots=True)
class DeleteOutcome:
    """Result of a table delete.

    ``became_invisible`` is True when the count reached zero and the fact was
    actually removed, requiring downstream deletion propagation.
    """

    became_invisible: bool
    was_present: bool


# Immutable outcome singletons for the overwhelmingly common cases (one
# fresh frozen-dataclass allocation per table mutation adds up at delta
# rates); only primary-key replacement still allocates.
_INSERTED_NEW = InsertOutcome(became_visible=True, replaced=None)
_INSERTED_DUP = InsertOutcome(became_visible=False, replaced=None)
_DELETED_GONE = DeleteOutcome(became_invisible=True, was_present=True)
_DELETED_KEPT = DeleteOutcome(became_invisible=False, was_present=True)
_DELETED_ABSENT = DeleteOutcome(became_invisible=False, was_present=False)


class Table:
    """A horizontally-partitioned relation fragment stored at one node."""

    def __init__(
        self,
        name: str,
        arity: Optional[int] = None,
        key_positions: Sequence[int] = (),
        location_index: int = 0,
    ):
        self.name = name
        self.arity = arity
        self.key_positions: Tuple[int, ...] = tuple(key_positions)
        self.location_index = location_index
        self._key_getter = (
            _subkey_getter(self.key_positions) if self.key_positions else None
        )
        # frozen tuple -> canonical InternedRow (which carries .count).
        # One dict serves as row set, intern pool and count store at once.
        self._rows: Dict[Tuple[Any, ...], InternedRow] = {}
        # primary key -> full tuple (only when key_positions declared)
        self._by_key: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        # (positions) -> {values -> ordered set (dict) of full tuples}.
        # Buckets are insertion-ordered dicts, NOT sets: indexed lookups must
        # enumerate rows in the same order a full scan of ``_rows`` would, so
        # that planned and naive evaluation break equal-cost ties (e.g. two
        # best paths of the same length) identically.
        self._indexes: Dict[
            Tuple[int, ...], Dict[Tuple[Any, ...], Dict[Tuple[Any, ...], None]]
        ] = {}
        # Maintenance view of _indexes: (max position, key getter, index
        # dict) triples, so insert/delete skip per-row position loops.
        self._index_list: List[
            Tuple[int, Callable[[Sequence[Any]], Tuple[Any, ...]], Dict]
        ] = []

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _check_arity(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        if type(values) is InternedRow:
            row: Tuple[Any, ...] = values
        else:
            row = tuple(map(_freeze, values))
        if self.arity is None:
            self.arity = len(row)
        elif len(row) != self.arity:
            raise SchemaError(
                f"relation {self.name!r} expects arity {self.arity}, "
                f"got {len(row)}"
            )
        return row

    def _key_of(self, row: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
        getter = self._key_getter
        if getter is None:
            return None
        return getter(row)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, values: Sequence[Any]) -> InsertOutcome:
        """Insert one derivation of *values*; see :class:`InsertOutcome`."""
        row = self._check_arity(values)
        interned = self._rows.get(row)
        if interned is not None:
            interned.count += 1
            return _INSERTED_DUP
        # Always a fresh canonical object: the incoming row may be another
        # table's interned row, whose derivation count must not be touched.
        interned = InternedRow(row)
        interned.count = 1
        replaced: Optional[Fact] = None
        key = self._key_of(interned)
        if key is not None:
            existing = self._by_key.get(key)
            if existing is not None and existing != interned:
                # primary-key update: evict the old row entirely
                self._remove_row(existing)
                replaced = Fact(self.name, existing, self.location_index)
            self._by_key[key] = interned
        self._rows[interned] = interned
        self._index_add(interned)
        if replaced is None:
            return _INSERTED_NEW
        return InsertOutcome(became_visible=True, replaced=replaced)

    def delete(self, values: Sequence[Any]) -> DeleteOutcome:
        """Remove one derivation of *values*; see :class:`DeleteOutcome`."""
        row = self._check_arity(values)
        interned = self._rows.get(row)
        if interned is None:
            return _DELETED_ABSENT
        if interned.count <= 1:
            self._remove_row(interned)
            return _DELETED_GONE
        interned.count -= 1
        return _DELETED_KEPT

    def apply_delta_block(self, deltas: Sequence[Any]) -> List[Any]:
        """Apply a block of deltas in order; per-delta fire codes.

        Semantically one :meth:`insert` / :meth:`delete` per delta (REFRESH
        is a storage no-op), with the per-call overhead — method dispatch,
        outcome allocation, unconditional value freezing — amortized over
        the block.  Returns one code per delta telling the caller what to
        propagate: ``None`` (nothing became visible/invisible), ``True``
        (the delta's own fact must fire), or an evicted :class:`Fact`
        (primary-key replacement: fire its DELETE, then the delta).

        The freeze fast path relies on equality, not identity: a row whose
        values are already hashable (no embedded lists/sets) looks up and
        stores identically to its frozen image, because ``_freeze`` only
        rewrites containers into equal tuples.

        No evaluation pipeline calls this; it is kept as a storage entry
        point that the benchmark's per-layer tracing binds by name.
        """
        results: List[Any] = []
        append = results.append
        rows = self._rows
        rows_get = rows.get
        key_getter = self._key_getter
        by_key = self._by_key
        index_list = self._index_list
        name = self.name
        location_index = self.location_index
        for delta in deltas:
            action = delta.action
            if action == "insert":
                # A delta-like object may carry its row prefrozen in a
                # ``frozen`` attribute; Delta itself has none, so the
                # getattr default sends it down the freeze below.
                row = getattr(delta, "frozen", None)
                if row is None:
                    values = delta.fact.values
                    if type(values) is InternedRow:
                        row = values
                    else:
                        # Branchless freeze: per-value class checks beat the
                        # try-hash-except dance because list-carrying rows
                        # (paths, VID buffers) are common on this path and
                        # each would pay a raised TypeError.  Lists freeze
                        # shallowly (one C-level tuple() — they are flat
                        # scalar sequences in practice); a nested container
                        # surfaces as TypeError at the lookup and reruns the
                        # recursive deep freeze.
                        row = tuple(
                            [
                                v
                                if v.__class__ is str or v.__class__ is int
                                else tuple(v)
                                if v.__class__ is list
                                else _freeze(v)
                                for v in values
                            ]
                        )
                try:
                    interned = rows_get(row)
                except TypeError:
                    row = tuple([_freeze(v) for v in delta.fact.values])
                    interned = rows_get(row)
                if interned is not None:
                    interned.count += 1
                    append(None)
                    continue
                arity = self.arity
                if arity is None:
                    self.arity = len(row)
                elif len(row) != arity:
                    raise SchemaError(
                        f"relation {name!r} expects arity {arity}, "
                        f"got {len(row)}"
                    )
                interned = InternedRow(row)
                interned.count = 1
                code: Any = True
                if key_getter is not None:
                    key = key_getter(interned)
                    existing = by_key.get(key)
                    if existing is not None and existing != interned:
                        self._remove_row(existing)
                        code = Fact(name, existing, location_index)
                    by_key[key] = interned
                rows[interned] = interned
                length = len(interned)
                for max_position, getter, index in index_list:
                    if max_position < length:
                        index.setdefault(getter(interned), {})[interned] = None
                append(code)
            elif action == "delete":
                row = getattr(delta, "frozen", None)
                if row is None:
                    values = delta.fact.values
                    if type(values) is InternedRow:
                        row = values
                    else:
                        row = tuple(
                            [
                                v
                                if v.__class__ is str or v.__class__ is int
                                else tuple(v)
                                if v.__class__ is list
                                else _freeze(v)
                                for v in values
                            ]
                        )
                arity = self.arity
                if arity is None:
                    self.arity = len(row)
                elif len(row) != arity:
                    raise SchemaError(
                        f"relation {name!r} expects arity {arity}, "
                        f"got {len(row)}"
                    )
                try:
                    interned = rows_get(row)
                except TypeError:
                    row = tuple([_freeze(v) for v in delta.fact.values])
                    interned = rows_get(row)
                if interned is None:
                    append(None)
                elif interned.count <= 1:
                    self._remove_row(interned)
                    append(True)
                else:
                    interned.count -= 1
                    append(None)
            else:  # REFRESH: no storage effect
                append(None)
        return results

    def delete_all(self, values: Sequence[Any]) -> DeleteOutcome:
        """Remove every derivation of *values* regardless of count."""
        row = self._check_arity(values)
        if row not in self._rows:
            return _DELETED_ABSENT
        self._remove_row(row)
        return _DELETED_GONE

    def _remove_row(self, row: Tuple[Any, ...]) -> None:
        self._rows.pop(row, None)
        key = self._key_of(row)
        if key is not None and self._by_key.get(key) == row:
            del self._by_key[key]
        self._index_remove(row)

    def clear(self) -> None:
        self._rows.clear()
        self._by_key.clear()
        self._indexes.clear()
        self._index_list.clear()

    # ------------------------------------------------------------------ #
    # restore
    # ------------------------------------------------------------------ #
    def load_row(self, values: Sequence[Any], count: int) -> None:
        """Checkpoint-restore entry point: install one row with its count.

        Rows must be loaded in their original insertion order — ``_rows``
        and every index bucket are insertion-ordered dicts, and planned
        evaluation's equal-cost tie-breaks depend on that order — so a
        restored table enumerates identically to the table it snapshots.
        Bypasses primary-key replacement (a checkpoint never contains two
        rows with the same key) and fires no listeners.
        """
        outcome = self.insert(values)
        if not outcome.became_visible:
            raise SchemaError(
                f"relation {self.name!r}: duplicate checkpoint row {values!r}"
            )
        self._rows[self._check_arity(values)].count = int(count)

    # ------------------------------------------------------------------ #
    # indexes
    # ------------------------------------------------------------------ #
    def _index_add(self, row: Tuple[Any, ...]) -> None:
        length = len(row)
        for max_position, getter, index in self._index_list:
            if max_position >= length:
                continue  # row too short for this index; it can never match
            index.setdefault(getter(row), {})[row] = None

    def _index_remove(self, row: Tuple[Any, ...]) -> None:
        length = len(row)
        for max_position, getter, index in self._index_list:
            if max_position >= length:
                continue
            key = getter(row)
            bucket = index.get(key)
            if bucket is not None:
                bucket.pop(row, None)
                if not bucket:
                    del index[key]

    def _ensure_index(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Any, ...], Dict[Tuple[Any, ...], None]]:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            getter = _subkey_getter(positions)
            max_position = positions[-1] if positions else -1
            for row in self._rows:
                if max_position >= len(row):
                    continue
                index.setdefault(getter(row), {})[row] = None
            self._indexes[positions] = index
            self._index_list.append((max_position, getter, index))
        return index

    def ensure_index(self, positions: Sequence[int]) -> None:
        """Materialize a secondary hash index over *positions* now.

        The index is maintained incrementally by every subsequent insert and
        delete.  The query planner registers the indexes its compiled plans
        will use through this entry point so the first delta does not pay a
        lazy build inside the evaluation loop.
        """
        canonical = tuple(sorted(set(int(p) for p in positions)))
        if not canonical:
            return
        if canonical[0] < 0:
            raise SchemaError(
                f"relation {self.name!r}: negative index position {canonical[0]}"
            )
        if self.arity is not None and canonical[-1] >= self.arity:
            raise SchemaError(
                f"relation {self.name!r} has arity {self.arity}; cannot index "
                f"position {canonical[-1]}"
            )
        self._ensure_index(canonical)

    def has_index(self, positions: Sequence[int]) -> bool:
        return tuple(sorted(set(positions))) in self._indexes

    def index_position_sets(self) -> List[Tuple[int, ...]]:
        """The position sets currently indexed, sorted (for explain/stats)."""
        return sorted(self._indexes)

    def index_size(self, positions: Sequence[int]) -> int:
        """Number of rows held by the index over *positions* (0 if absent)."""
        index = self._indexes.get(tuple(sorted(set(positions))))
        if not index:
            return 0
        return sum(len(bucket) for bucket in index.values())

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, values: Sequence[Any]) -> bool:
        return tuple(_freeze(v) for v in values) in self._rows

    def count(self, values: Sequence[Any]) -> int:
        """Return the derivation count for *values* (0 if absent)."""
        interned = self._rows.get(tuple(_freeze(v) for v in values))
        return interned.count if interned is not None else 0

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over distinct rows (ignoring derivation counts)."""
        return iter(list(self._rows))

    def rows_list(self) -> List[Tuple[Any, ...]]:
        """The distinct rows as a list (compiled full-scan entry point)."""
        return list(self._rows)

    def rows_with_counts(self) -> List[Tuple[Tuple[Any, ...], int]]:
        """``(row, derivation count)`` pairs in insertion order.

        The checkpoint serializer uses this: counts are part of PSN state
        (a restored table must survive the same number of deletions), and
        insertion order is part of determinism (see :meth:`load_row`).
        """
        return [(row, row.count) for row in self._rows.values()]

    def facts(self) -> Iterator[Fact]:
        for row in self.rows():
            yield Fact(self.name, row, self.location_index)

    def lookup(self, bound: Dict[int, Any]) -> Iterator[Tuple[Any, ...]]:
        """Yield rows whose attributes match the {position: value} constraints.

        Uses (and lazily builds) a hash index over the constrained positions
        whenever at least one position is constrained.
        """
        if not bound:
            yield from self.rows()
            return
        positions = tuple(sorted(bound))
        index = self._ensure_index(positions)
        key = tuple(_freeze(bound[i]) for i in positions)
        for row in list(index.get(key, ())):
            yield row

    def probe(
        self, positions: Tuple[int, ...], key: Tuple[Any, ...]
    ) -> Optional[Dict[Tuple[Any, ...], None]]:
        """The index bucket for *key* over *positions* (``None`` when empty).

        The compiled execution path uses this instead of :meth:`lookup`: the
        caller has already computed the canonical position tuple and the
        frozen key, so the bucket (an insertion-ordered dict of rows) is
        returned directly with no per-row generator machinery.  Callers must
        not mutate the table while iterating the bucket — rule evaluation
        never does (all table mutation happens between deltas).
        """
        index = self._indexes.get(positions)
        if index is None:
            index = self._ensure_index(positions)
        return index.get(key)

    def probe_index(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Any, ...], Dict[Tuple[Any, ...], None]]:
        """The raw hash index over *positions* (built on first use).

        Returned for repeated probing against a table known to be stable,
        so a batch loop can hoist ``index.get``.  Callers must not mutate
        the table while holding the reference.  No evaluation pipeline
        calls this; the benchmark's per-layer tracing binds it by name.
        """
        index = self._indexes.get(positions)
        if index is None:
            index = self._ensure_index(positions)
        return index

    def probe_many(
        self, positions: Tuple[int, ...], keys: Sequence[Tuple[Any, ...]]
    ) -> List[Optional[Dict[Tuple[Any, ...], None]]]:
        """Bulk index probe: the per-key bucket (or ``None``) for each key.

        One C-speed ``map`` over the whole key column instead of a Python
        call per probe.  Keys must already be frozen in canonical
        (sorted-position) order, exactly as :meth:`probe` expects them.  No
        evaluation pipeline calls this; the benchmark's per-layer tracing
        binds it by name.
        """
        index = self._indexes.get(positions)
        if index is None:
            index = self._ensure_index(positions)
        return list(map(index.get, keys))

    def column(self, position: int) -> List[Any]:
        """Extract one attribute column across the current rows."""
        return [row[position] for row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={len(self._rows)})"


def _subkey_getter(
    positions: Sequence[int],
) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
    """A C-speed ``row -> (row[p0], row[p1], ...)`` key extractor.

    Single-position getters are wrapped so every key stays a tuple (index
    and primary-key dictionaries key on tuples regardless of width).
    """
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _freeze(value: Any) -> Any:
    """Convert mutable containers to hashable equivalents for storage."""
    cls = value.__class__
    if cls is str or cls is int:  # the dominant row-attribute types
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


#: Public alias used by the compiled execution layer (index key freezing
#: must match storage freezing exactly).
freeze_value = _freeze


class Catalog:
    """The set of tables owned by a single node."""

    def __init__(self, declarations: Iterable[TableDecl] = ()):
        self._tables: Dict[str, Table] = {}
        for decl in declarations:
            self.declare(decl)

    def declare(self, decl: TableDecl) -> Table:
        table = Table(decl.name, decl.arity, decl.key_positions)
        self._tables[decl.name] = table
        return table

    def table(self, name: str, arity: Optional[int] = None) -> Table:
        """Return the table for *name*, creating it on first use."""
        table = self._tables.get(name)
        if table is None:
            table = Table(name, arity)
            self._tables[name] = table
        return table

    def get(self, name: str) -> Optional[Table]:
        """Return the table for *name* without creating it (None if absent).

        The planner's statistics use this: costing a rule must not litter
        the catalog with empty tables for relations (e.g. transient events)
        that evaluation itself would never materialize.
        """
        return self._tables.get(name)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def names(self) -> List[str]:
        return sorted(self._tables)

    def total_rows(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def __getitem__(self, name: str) -> Table:
        return self.table(name)

    def __contains__(self, name: str) -> bool:
        return name in self._tables


class MemoryBackend(StorageBackend):
    """The default backend: the in-RAM tier and nothing else.

    Registers no listeners and shadows no state, so a network running on
    ``MemoryBackend`` executes the exact instruction stream it executed
    before the storage abstraction existed — the bit-identity guarantee the
    equivalence suite and the CI baseline gates enforce.
    """

    kind = "memory"
