"""Child process of one benchmark run.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --fd FD

Runs one workload from ``workloads.py`` and writes its messages to file
descriptor FD.  ``--seconds 0`` runs exactly one pass over the input.
``run.py`` starts it; it is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import os
import sys
from types import SimpleNamespace


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--fd", type=int, required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath("src"))
    from workloads import OUT_DIR, WORKLOADS, Reporter

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = SimpleNamespace(
        workload=args.workload, seed=args.seed, seconds=args.seconds, tracer=tracer
    )
    WORKLOADS[args.workload](ctx, Reporter(args.fd))
    if tracer:
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))


if __name__ == "__main__":
    main()
