"""Builtin function registry for NDlog rule evaluation.

The ExSPAN paper relies on a small set of builtin functions inside rewritten
provenance rules — ``f_sha1`` for vertex identifiers, ``f_concat`` /
``f_append`` for VID lists, ``f_size`` and ``f_item`` for buffer handling,
and ``f_empty`` for buffer initialization.  This module implements them plus
a handful of generally useful helpers, and exposes a
:class:`FunctionRegistry` that rules evaluate against.

User code may register additional functions (for example the provenance
query UDFs ``f_pEDB`` / ``f_pIDB`` / ``f_pRULE``) on a per-engine basis.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterable, List, Sequence

from .errors import EvaluationError, UnknownFunctionError

__all__ = [
    "FunctionRegistry",
    "default_registry",
    "sha1_hex",
    "freeze_cache_key",
    "set_sha1_caching",
    "sha1_cache_stats",
    "clear_sha1_cache",
]


#: Number of hex characters kept from the SHA-1 digest.  The paper ships
#: 20-byte identifiers (raw SHA-1); we keep identifiers printable by using
#: 20 hex characters (80 bits), so a VID string occupies exactly the 20
#: bytes the paper charges per pointer while remaining collision-resistant
#: at simulation scale.
DIGEST_LENGTH = 20


def sha1_hex(text: str) -> str:
    """Return the (truncated) SHA-1 hex digest of *text* (UTF-8 encoded).

    This is the hash the paper uses for vertex identifiers (VIDs and RIDs);
    see :data:`DIGEST_LENGTH` for the truncation rationale.
    """
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:DIGEST_LENGTH]


# ---------------------------------------------------------------------- #
# f_sha1 memoization
# ---------------------------------------------------------------------- #
#: Upper bound on cached ``f_sha1`` results.  Each entry holds the frozen
#: argument tuple plus a 20-character digest (roughly 200-400 bytes), so the
#: cache tops out around 30-60 MB before it is dropped wholesale and
#: rebuilt — crude but bounded, and the hit rate recovers within one
#: fixpoint round because the hot keys (tuple VID preimages) recur densely.
SHA1_CACHE_LIMIT = 1 << 17

_sha1_cache: Dict[tuple, str] = {}
_sha1_caching = True
_sha1_hits = 0
_sha1_misses = 0


def set_sha1_caching(enabled: bool) -> None:
    """Toggle ``f_sha1`` memoization (benchmarks use this for before/after)."""
    global _sha1_caching
    _sha1_caching = bool(enabled)
    if not _sha1_caching:
        _sha1_cache.clear()


def clear_sha1_cache() -> None:
    """Drop every cached digest (tests / benchmark isolation)."""
    global _sha1_hits, _sha1_misses
    _sha1_cache.clear()
    _sha1_hits = 0
    _sha1_misses = 0


def sha1_cache_stats() -> Dict[str, int]:
    """Entries / hits / misses / limit of the ``f_sha1`` memo (diagnostics)."""
    return {
        "entries": len(_sha1_cache),
        "hits": _sha1_hits,
        "misses": _sha1_misses,
        "limit": SHA1_CACHE_LIMIT,
    }


def freeze_cache_key(value: Any) -> Any:
    """Hashable cache-key form of one hash-input value.

    Lists become tuples, which is safe because :func:`_stringify` (and
    ``repro.core.vid.render_value``) render both identically — equal keys
    always map to equal digests.  Shared by the ``f_sha1`` memo here and
    the ``tuple_vid`` memo in :mod:`repro.core.vid`; values that remain
    unhashable (sets, dicts) surface as ``TypeError`` at the cache lookup,
    which callers treat as "skip the cache".
    """
    cls = value.__class__
    if cls is str:  # the dominant case: names, addresses, digests
        return value
    if cls is list or cls is tuple or isinstance(value, (list, tuple)):
        return tuple(map(freeze_cache_key, value))
    return value


def _stringify(value: Any) -> str:
    """Render *value* for hashing the way NDlog string concatenation does.

    Lists and tuples are rendered as the concatenation of their members so
    that ``f_sha1(R + RLoc + List)`` in rewritten provenance rules matches
    :func:`repro.core.vid.rule_rid`, which joins the input VIDs directly.
    """
    if value.__class__ is str:  # the dominant case on the provenance path
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return "".join(map(_stringify, value))
    return str(value)


def _f_sha1(args: Sequence[Any]) -> str:
    """``f_sha1(X)`` — SHA-1 of the concatenation of all arguments.

    Memoized on the (frozen) argument tuple: the provenance rewrite
    recomputes the same tuple-VID preimages on every rule firing a tuple
    participates in, so each distinct preimage is stringified and hashed
    once per cache lifetime instead of once per firing.
    """
    global _sha1_hits, _sha1_misses
    if _sha1_caching:
        # Most calls carry only scalars: try the raw argument tuple first
        # (C-speed) and freeze lists into tuples only when hashing rejects
        # it.  Both key forms coexist safely: a hashable raw tuple IS its
        # own frozen image (lists are the only values freeze_cache_key changes,
        # and any list makes the raw tuple unhashable).
        try:
            key = tuple(args)
            digest = _sha1_cache.get(key)
        except TypeError:
            try:
                key = tuple(map(freeze_cache_key, args))
                digest = _sha1_cache.get(key)
            except TypeError:  # unhashable argument (e.g. a dict): no cache
                key = None
                digest = None
        if key is not None:
            if digest is not None:
                _sha1_hits += 1
                return digest
            _sha1_misses += 1
            digest = sha1_hex("".join(map(_stringify, args)))
            if len(_sha1_cache) >= SHA1_CACHE_LIMIT:
                _sha1_cache.clear()
            _sha1_cache[key] = digest
            return digest
    return sha1_hex("".join(map(_stringify, args)))


def sha1_for_preimage(preimage: str) -> str:
    """Digest (and cache) an already-concatenated ``f_sha1`` preimage.

    Memoizes the digest by the preimage string itself.  Preimage-keyed and
    frozen-argument-keyed entries coexist safely in the one bounded cache:
    string keys never compare equal to tuple keys, and both map to the same
    digest values.  No evaluation pipeline calls this; it is kept as a
    hashing entry point that the benchmark's per-layer tracing binds by
    name.
    """
    global _sha1_misses
    digest = sha1_hex(preimage)
    if _sha1_caching:
        _sha1_misses += 1
        if len(_sha1_cache) >= SHA1_CACHE_LIMIT:
            _sha1_cache.clear()
        _sha1_cache[preimage] = digest
    return digest


def _f_concat(args: Sequence[Any]) -> List[Any]:
    """``f_concat(A, B, ...)`` — concatenate scalars and lists into one list."""
    result: List[Any] = []
    for arg in args:
        if isinstance(arg, (list, tuple)):
            result.extend(arg)
        else:
            result.append(arg)
    return result


def _f_append(args: Sequence[Any]) -> List[Any]:
    """``f_append(A, B, ...)`` — build a list of the arguments, flattening lists."""
    return _f_concat(args)


def _f_empty(args: Sequence[Any]) -> List[Any]:
    """``f_empty()`` — an empty list (used to initialize result buffers)."""
    if args:
        raise EvaluationError("f_empty takes no arguments")
    return []


def _f_size(args: Sequence[Any]) -> int:
    """``f_size(L)`` — number of elements in a list (or length of a string)."""
    if len(args) != 1:
        raise EvaluationError("f_size takes exactly one argument")
    value = args[0]
    if value is None:
        return 0
    return len(value)


def _f_item(args: Sequence[Any]) -> Any:
    """``f_item(L)`` or ``f_item(L, I)`` — the first (or *I*-th) element of a list."""
    if not args:
        raise EvaluationError("f_item requires a list argument")
    sequence = args[0]
    index = int(args[1]) if len(args) > 1 else 0
    try:
        return sequence[index]
    except (IndexError, TypeError) as exc:
        raise EvaluationError(f"f_item: cannot take item {index} of {sequence!r}") from exc


def _f_member(args: Sequence[Any]) -> bool:
    """``f_member(L, X)`` — membership test."""
    if len(args) != 2:
        raise EvaluationError("f_member takes exactly two arguments")
    sequence, value = args
    return value in (sequence or ())


def _f_first(args: Sequence[Any]) -> Any:
    """``f_first(L)`` — first element of a non-empty list."""
    return _f_item([args[0], 0])


def _f_last(args: Sequence[Any]) -> Any:
    """``f_last(L)`` — last element of a non-empty list."""
    return _f_item([args[0], -1])


def _f_min(args: Sequence[Any]) -> Any:
    """``f_min(A, B, ...)`` — minimum of the arguments."""
    if not args:
        raise EvaluationError("f_min requires at least one argument")
    return min(args)


def _f_max(args: Sequence[Any]) -> Any:
    """``f_max(A, B, ...)`` — maximum of the arguments."""
    if not args:
        raise EvaluationError("f_max requires at least one argument")
    return max(args)


def _f_tostr(args: Sequence[Any]) -> str:
    """``f_tostr(X)`` — string rendering of the argument."""
    if len(args) != 1:
        raise EvaluationError("f_tostr takes exactly one argument")
    return _stringify(args[0])


class FunctionRegistry:
    """A lookup table of builtin functions.

    Each function receives the already-evaluated argument values as a list
    and returns a plain Python value.
    """

    def __init__(self, functions: Dict[str, Callable[[Sequence[Any]], Any]] | None = None):
        self._functions: Dict[str, Callable[[Sequence[Any]], Any]] = dict(functions or {})

    def register(self, name: str, function: Callable[[Sequence[Any]], Any]) -> None:
        """Register *function* under *name*, replacing any existing binding."""
        self._functions[name] = function

    def unregister(self, name: str) -> None:
        self._functions.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def call(self, name: str, args: Sequence[Any]) -> Any:
        """Invoke the builtin *name* with *args*; raise if it is unknown."""
        try:
            function = self._functions[name]
        except KeyError:
            raise UnknownFunctionError(name) from None
        return function(args)

    def names(self) -> Iterable[str]:
        return sorted(self._functions)

    def copy(self) -> "FunctionRegistry":
        """Return an independent copy (per-engine customization)."""
        return FunctionRegistry(dict(self._functions))


_DEFAULTS: Dict[str, Callable[[Sequence[Any]], Any]] = {
    "f_sha1": _f_sha1,
    "f_concat": _f_concat,
    "f_append": _f_append,
    "f_empty": _f_empty,
    "f_size": _f_size,
    "f_item": _f_item,
    "f_member": _f_member,
    "f_first": _f_first,
    "f_last": _f_last,
    "f_min": _f_min,
    "f_max": _f_max,
    "f_tostr": _f_tostr,
}


def default_registry() -> FunctionRegistry:
    """Return a fresh registry pre-populated with the standard builtins."""
    return FunctionRegistry(dict(_DEFAULTS))
