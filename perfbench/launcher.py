"""Traced service launcher: ``python -m perfbench.launcher <service args>``.

Installs the per-layer wrappers of :mod:`perfbench.layers`, plus a timer
per service op around ``ExspanService.dispatch`` and a wire-byte counter
on the frame codec, then runs the unmodified ``python -m repro.service``
entry point.  When the server exits it prints one line, prefixed with
``PERFBENCH-TRACE``, holding the serving window's per-layer self time,
per-op dispatch time and the network's counters.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict

import repro.service.__main__ as entry
from repro.service import protocol, server

from . import layers
from .service import TRACE_PREFIX
from .workloads import counter_window, counters


def main(argv: list) -> int:
    layer_clock = layers.install()
    state: Dict[str, Any] = {"frame_bytes": 0, "dispatch_s": {}}

    build = entry.build_network

    def build_network(*args: Any, **kwargs: Any):
        state["network"] = build(*args, **kwargs)
        return state["network"]

    entry.build_network = build_network

    start_server = server.ServiceServer.start

    async def start(self) -> None:
        await start_server(self)
        state["server"] = self
        state["counters"] = counters(state["network"])
        state["layers"] = layer_clock.snapshot()
        state["start"] = time.perf_counter()

    server.ServiceServer.start = start

    dispatch = server.ExspanService.dispatch

    def timed_dispatch(self, op: str, params: Dict[str, Any]) -> Any:
        begin = time.perf_counter()
        try:
            return dispatch(self, op, params)
        finally:
            spent = state["dispatch_s"]
            spent[op] = spent.get(op, 0.0) + time.perf_counter() - begin

    server.ExspanService.dispatch = timed_dispatch

    encode = server.encode_frame

    def encode_frame(payload: Any, *args: Any, **kwargs: Any) -> bytes:
        frame = encode(payload, *args, **kwargs)
        state["frame_bytes"] += len(frame)
        return frame

    server.encode_frame = encode_frame

    decode = protocol.decode_payload

    def decode_payload(body: bytes) -> Dict[str, Any]:
        state["frame_bytes"] += 4 + len(body)
        return decode(body)

    protocol.decode_payload = decode_payload

    status = entry.main(argv)
    wall_s = time.perf_counter() - state["start"]
    report = {
        "layers": layers.window(state["layers"], layer_clock.snapshot(), wall_s),
        "counters": counter_window(state["counters"], counters(state["network"])),
        "compile_s": layer_clock.inclusive_s["plan"],
        "dispatch_s": state["dispatch_s"],
        "frame_bytes": state["frame_bytes"],
        "replays": state["server"].idempotent_replays,
    }
    print(TRACE_PREFIX + json.dumps(report), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
