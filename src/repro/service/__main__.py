"""Stand-alone service entry point: ``python -m repro.service``.

Builds a network from string specs (see :mod:`repro.service.bootstrap`),
binds the socket server, prints ``LISTENING <host> <port>`` on stdout
(and optionally writes the port to ``--port-file`` for scripted
harnesses), then serves until a client sends ``shutdown`` or the
process receives SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from typing import List, Optional

from .bootstrap import build_network
from .server import ExspanService, ServiceServer


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a live ExspanNetwork over the wire protocol.",
    )
    parser.add_argument("--topology", default="ring:6", help="ring:N, line:N, grid:RxC, ...")
    parser.add_argument(
        "--program", default="mincost", help="mincost[:MAXCOST], pathvector, packetforward"
    )
    parser.add_argument("--mode", default="ref", help="provenance mode (none/ref/value/...)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument(
        "--port-file", default=None, help="write the bound port here once listening"
    )
    parser.add_argument(
        "--no-converge",
        action="store_true",
        help="skip seeding links and running to fixpoint before serving",
    )
    return parser


async def _amain(args: argparse.Namespace) -> int:
    network = build_network(
        topology_spec=args.topology,
        program_spec=args.program,
        mode=args.mode,
        seed=args.seed,
        converge=not args.no_converge,
    )
    server = ServiceServer(ExspanService(network), host=args.host, port=args.port)
    await server.start()
    host, port = server.address
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
    print(f"LISTENING {host} {port}", flush=True)

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, server.stop)
    await server.serve_until_stopped()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
