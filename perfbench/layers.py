"""Per-layer self time, measured from outside the program.

:func:`install` wraps the public entry points of each layer (class
methods, or the module attributes callers actually look up) with a timer
that keeps a stack of open calls.  A call's *self* time is its duration
minus the time spent in wrapped calls it made, so the self times of all
layers never overlap and, with an ``unattributed`` remainder, add up to
the wall time of the window being measured.

Nothing under ``src/`` is edited: the wrappers are installed at run time,
in a fresh interpreter, before any network is built (handlers bound at
construction then capture the wrapped methods).  The wrappers are not
thread-safe; they are only installed in single-threaded processes (the
in-process episodes and the service's event-loop process).
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: Layers in report order; names follow the modules they wrap.
LAYERS: Tuple[str, ...] = ("sim", "net", "engine", "plan", "storage", "vid", "bdd", "query", "svc")


class LayerClock:
    """Accumulates calls and self time per layer."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Summed duration of every wrapped call (nested calls of one
        #: layer count twice; only ``plan`` and ``svc`` are read, and
        #: neither nests).
        self.inclusive_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        # One child-time accumulator per open wrapped call; the bottom
        # frame collects the time of outermost calls.
        self._stack: List[float] = [0.0]

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls, self_s, inclusive_s = self.calls, self.self_s, self.inclusive_s
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                self_s[layer] += elapsed - child
                inclusive_s[layer] += elapsed
                calls[layer] += 1

        return timed

    def snapshot(self) -> Dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
        }


def window(before: Dict[str, Any], after: Dict[str, Any], wall_s: float) -> Dict[str, Any]:
    """Per-layer calls and self time between two snapshots, plus the rest.

    ``unattributed_s`` is *wall_s* minus the summed self times: the
    benchmark's own code and any program code outside a wrapped call.
    """
    growth = {
        part: {layer: after[part][layer] - before[part][layer] for layer in LAYERS}
        for part in ("calls", "self_s", "inclusive_s")
    }
    return {**growth, "wall_s": wall_s, "unattributed_s": wall_s - sum(growth["self_s"].values())}


def _patch_class(clock: LayerClock, layer: str, cls: type, names: Tuple[str, ...]) -> None:
    for name in names:
        setattr(cls, name, clock.wrap(layer, cls.__dict__[name]))


def _patch_function(clock: LayerClock, layer: str, original: Callable[..., Any]) -> None:
    """Rebind every ``repro.*`` module attribute that names *original*."""
    wrapped = clock.wrap(layer, original)
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapped)


def install() -> LayerClock:
    """Wrap every layer's entry points; call once, before building networks."""
    # Import everything the wrappers rebind, so late imports find them too.
    import repro.core  # noqa: F401
    import repro.service.server  # noqa: F401
    from repro.core import bdd, vid
    from repro.core.api import ExspanNetwork
    from repro.core.query import ProvenanceQueryService
    from repro.datalog import functions
    from repro.datalog.engine import NDlogEngine
    from repro.datalog.plan.compiler import PlanCompiler
    from repro.net.host import Host
    from repro.net.network import Network
    from repro.net.simulator import Simulator
    from repro.service.server import ExspanService
    from repro.storage.memory import Table

    clock = LayerClock()
    _patch_class(clock, "sim", Simulator, ("run", "run_until_idle"))
    _patch_class(clock, "net", Host, ("send", "deliver"))
    _patch_class(clock, "net", Network, ("send_batch",))
    _patch_class(clock, "engine", NDlogEngine, ("run", "load_program"))
    _patch_class(clock, "plan", PlanCompiler, ("compile",))
    table_methods = ("insert", "delete", "apply_delta_block", "probe", "probe_index", "probe_many")
    _patch_class(clock, "storage", Table, table_methods)
    for original in (vid.tuple_vid, vid.fact_vid, vid.rule_rid, functions.sha1_for_preimage):
        _patch_function(clock, "vid", original)
    # Engines copy their builtins from this table at construction.
    functions._DEFAULTS["f_sha1"] = clock.wrap("vid", functions._DEFAULTS["f_sha1"])
    _patch_class(clock, "bdd", bdd.Bdd, ("__and__", "__or__", "__invert__"))
    _patch_class(clock, "bdd", bdd.BddManager, ("var", "from_dnf"))
    _patch_class(clock, "query", ProvenanceQueryService, ("query", "query_fact", "_on_message"))
    _patch_class(clock, "query", ExspanNetwork, ("execute", "submit"))
    _patch_class(clock, "svc", ExspanService, ("dispatch",))
    return clock
