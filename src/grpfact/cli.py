"""Batch driver: run catalog verifications from the shell.

``grpfact verify`` runs the desk tier, the extended tier, the negative
controls, or the claims that ``--row`` selects: a claim id, a row key, a
table-row number, or a template point ``ROW:k=v,...``, which the catalog
instantiates as the claim ``adhoc-<row>-<params>``.  Reports are JSON files
(one per claim plus a summary); the summary also prints as a text table.
Exit code 0 means every selected claim reached its expected outcome -
negative controls pass by failing.  With a fixed seed and default flags the
report bytes are identical across runs; --timings records wall-clock times
and waives byte reproducibility.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

from .catalog import CatalogError, load_catalog
from .factorize import verify_claim
from .grpcore import DEFAULT_BUDGET_MB, budget_points

DEFAULT_SEED = 20260810
_POINT_FORM = "ROW:k=v,... with integer values"


def _claim_worker(args):
    claim, seed, timings, max_points = args
    report = verify_claim(claim, base_seed=seed, record_timings=timings,
                          max_orbit_points=max_points)
    return claim.claim_id, report.as_dict()


def _template_point(catalog, sel):
    """The claim at a template point 'ROW:k=v,...'."""
    row, _, spec = sel.partition(":")
    items = [item.partition("=") for item in spec.split(",")]
    if not all(k and sep and v.isdecimal() for k, sep, v in items):
        raise CatalogError(f"bad template point {sel!r}: expected {_POINT_FORM}")
    keys = [k for k, _, _ in items]
    if repeated := next((k for k in keys if keys.count(k) > 1), None):
        raise CatalogError(f"bad template point {sel!r} ({_POINT_FORM}): parameter {repeated!r} is repeated")
    try:
        return catalog.instantiate(row, {k: int(v) for k, _, v in items})
    except CatalogError as exc:
        raise CatalogError(f"bad template point {sel!r} ({_POINT_FORM}): {exc}") from None


def _select_claims(catalog, selectors):
    """Claim ids, row keys ('1SL'), bare table-row numbers ('9'), or
    template points ('6Sp:m=4')."""
    out = []
    all_claims = catalog.desk_grid(tier=None)
    for sel in selectors:
        if ":" in sel:
            out.append(_template_point(catalog, sel))
            continue
        matches = [c for c in all_claims if c.claim_id == sel]
        if not matches:
            matches = [c for c in all_claims if c.row == sel and c.tier == "desk"]
        if not matches and sel.isdecimal():
            matches = [
                c for c in all_claims
                if c.template is not None and c.template.table_row == int(sel) and c.tier == "desk"
            ]
        if not matches:
            raise CatalogError(f"no catalog claim matches {sel!r}")
        out.extend(matches)
    seen = set()
    return [c for c in out if not (c.claim_id in seen or seen.add(c.claim_id))]


def cmd_verify(args) -> int:
    catalog = load_catalog()
    if args.row:
        claims = _select_claims(catalog, args.row)
    elif args.negative_controls:
        claims = [c for c in catalog.desk_grid() if c.expect == "no_factorization"]
    else:
        tier = None if args.tier == "all" else args.tier
        claims = catalog.desk_grid(tier=tier)
    if not claims:
        print("no claims selected", file=sys.stderr)
        return 2
    max_points = budget_points(args.memory_budget)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [(c, args.seed, args.timings, max_points) for c in claims]
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = dict(pool.map(_claim_worker, jobs))
    else:
        results = dict(_claim_worker(j) for j in jobs)
    rows = []
    all_ok = True
    for claim in claims:
        report = results[claim.claim_id]
        path = outdir / f"{claim.claim_id}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        ok = report["overall"] == "pass"
        all_ok &= ok
        strategies = " ".join(f"{s['name']}:{s['verdict']}" for s in report["strategies"])
        rows.append((claim.claim_id, claim.expect, report["overall"], strategies))
    summary = {
        "seed": args.seed,
        "tier": args.tier,
        "claims": {cid: rep["overall"] for cid, rep in sorted(results.items())},
        "all_pass": all_ok,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    width = max(len(r[0]) for r in rows)
    lines = [f"{'claim':{width}s}  {'expects':16s}  {'overall':8s}  strategies"]
    for cid, expect, overall, strategies in rows:
        lines.append(f"{cid:{width}s}  {expect:16s}  {overall:8s}  {strategies}")
    lines.append(f"\n{'ALL CLAIMS PASS' if all_ok else 'FAILURES PRESENT'}")
    table = "\n".join(lines)
    (outdir / "summary.txt").write_text(table + "\n")
    print(table)
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="grpfact",
                                     description="construct and verify the catalog of linear-group factorizations")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run catalog verifications")
    pv.add_argument("--row", action="append",
                    help="claim id, row key, table-row number or ROW:k=v,... (repeatable)")
    pv.add_argument("--tier", choices=["desk", "extended", "all"], default="desk")
    pv.add_argument("--negative-controls", action="store_true")
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per claim")
    pv.add_argument("--timings", action="store_true",
                    help="record wall-clock times (waives byte-reproducibility)")
    pv.add_argument("--memory-budget", type=int, default=DEFAULT_BUDGET_MB, metavar="MB")
    pv.add_argument("--out", default="reports")

    args = parser.parse_args(argv)
    for flag, value in (("--jobs", args.jobs), ("--memory-budget", args.memory_budget)):
        if value < 1:
            pv.error(f"argument {flag}: must be at least 1, got {value}")
    try:
        return cmd_verify(args)
    except CatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
