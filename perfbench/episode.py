"""One benchmark episode in a fresh interpreter.

``python -m perfbench.episode --workload W --seed N [--trace] [--tiny]``
runs one episode of workload *W* on the inputs generated from seed *N*
and prints its record as one JSON line.  A fresh process per episode
means the process-wide VID, SHA-1 and plan-codegen memos start empty,
as they do for a user's first network, and peak RSS is the episode's
(read right after the timed phase, before the oracle runs).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.episode")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="wrap every layer's entry points")
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (self-tests)")
    args = parser.parse_args(argv)
    if args.workload == "service_mixed":
        from .service import mixed_session

        sizes = {"session_s": 0.3} if args.tiny else {}
        record = mixed_session(args.seed, traced=args.trace, **sizes)
    else:
        from . import layers, workloads

        layer_clock = layers.install() if args.trace else None
        sizes = workloads.TINY[args.workload] if args.tiny else {}
        record = workloads.WORKLOADS[args.workload](args.seed, layer_clock=layer_clock, **sizes)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
