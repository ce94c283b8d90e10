"""Benchmark for grpfact: certified claim verification, timed from outside.

    python3 claimbench/run.py --workload desk --seed 20260810 --seconds 54 --trace 0

Each pass runs every operation of the workload in a fresh interpreter
(``worker.py``).  With ``--trace 0`` a run makes max(2, seconds //
pass_budget_s) passes and reports the end-to-end metrics of BENCHMARK.json:

* ``verify_s``: the sum over operations of each operation's fastest time
  across the passes;
* ``setup_s``: the median, over every pass and a few set-up-only spawns, of
  the time from spawning an interpreter to a loaded, hash-checked catalog
  and the first operation ready to start;
* ``peak_rss_mb``: the largest peak RSS of any pass.

With ``--trace 1`` a run makes one untraced and one traced pass and reports
the per-layer metrics of BENCHMARK.json, the tracing overhead among them.

Every operation's report is checked against closed-form orders
(``checks.py``) outside the timed region, and must be byte-identical across
the passes of a run.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
# a run must end within 180 s; passes get what is left of this
RUN_BUDGET_S = 170.0


class PassError(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, setup_only=False, trace_file=None) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    extra = ["--setup-only"] if setup_only else []
    if trace_file is not None:
        extra += ["--trace-file", str(trace_file)]
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--spawned", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass of {workload} did not finish within the run budget") from exc
    if proc.returncode != 0:
        raise PassError(f"pass of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_passes(workload: str, passes: list[dict]) -> tuple[int, int, list[str]]:
    """attempted, failed and the problems found in the operations that did not fail."""
    attempted = failed = 0
    problems: list[str] = []
    digests: dict[str, list[str]] = {}
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if "error" in op:
                failed += 1
                continue
            digests.setdefault(op["id"], []).append(checks.digest(op["report"]))
            if workload == "big-orbit":
                problems += checks.check_big_orbit(op["report"])
            else:
                problems += checks.check_claim(op["id"], op["report"])
    for op_id, ds in digests.items():
        problems += checks.check_same_across_passes(op_id, ds)
    return attempted, failed, problems


def fastest_sum(passes: list[dict]) -> float:
    """Sum over operations of each operation's fastest time; failed ones are left out."""
    times: dict[str, list[float]] = {}
    broken = set()
    for p in passes:
        for op in p["ops"]:
            if "error" in op:
                broken.add(op["id"])
            else:
                times.setdefault(op["id"], []).append(op["seconds"])
    return sum(min(ts) for key, ts in times.items() if key not in broken)


def metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = metric_specs()
    deadline = time.perf_counter() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    if trace:
        trace_file = OUT / f"trace-{workload}-{seed}.npz"
        passes = [spawn(workload, seed, deadline),
                  spawn(workload, seed, deadline, trace_file=trace_file)]
        untraced, traced = (fastest_sum([p]) for p in passes)
        values = dict(passes[1]["trace"])
        values["trace.untraced_verify_s"] = untraced
        values["trace.traced_verify_s"] = traced
        values["trace.overhead"] = traced / untraced if untraced else 0.0
        wanted = spec["per_layer"]
    else:
        passes = [spawn(workload, seed, deadline) for _ in range(WORKLOADS[workload].passes(seconds))]
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, deadline, setup_only=True)["setup_s"])
        values = {
            "verify_s": fastest_sum(passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(p["rss_mb"] for p in passes),
        }
        wanted = spec["end_to_end"]
    attempted, failed, problems = check_passes(workload, passes)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "passes": passes}
    (OUT / f"run-{workload}-{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20260810,
                    help="base seed handed to every claim (default: the catalog's 20260810)")
    ap.add_argument("--seconds", type=int, default=54, help="measured time the passes are sized to")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "grpfact" / "__init__.py").is_file():
        print(f"no grpfact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
