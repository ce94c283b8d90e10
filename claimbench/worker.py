"""One pass of a workload in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last line of output:
the set-up time (from the parent's spawn to a loaded, hash-checked catalog
and the first operation ready to start), each operation's wall time and
untimed report, the peak RSS, and, for a traced pass, the per-layer
summary.  The tracer is installed before ``prepare``, so the operations
call the wrapped functions.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="the parent's time.perf_counter() just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", help="trace this pass and write its spans here")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import grpfact
    from workloads import WORKLOADS, prepare, run_ops

    if Path(grpfact.__file__).resolve().parent != SRC / "grpfact":
        raise SystemExit(f"imported grpfact from {grpfact.__file__}, not from {SRC}")
    tracer = None
    if args.trace_file:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from grpfact import catalog as catalog_module

    ops = prepare(WORKLOADS[args.workload], catalog_module.load_catalog(), args.seed)
    out: dict = {"setup_s": time.perf_counter() - args.spawned}
    if not args.setup_only:
        out["ops"] = run_ops(ops)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.save(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
