"""Batch driver: run catalog verifications and ad-hoc tools from the shell.

Reports are JSON files (one per claim plus a summary); the summary also
prints as a text table.  Exit code 0 means every selected claim reached its
expected outcome - negative controls pass by failing.  With a fixed seed
and default flags the report bytes are identical across runs; --timings
records wall-clock times and waives byte reproducibility.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

from . import orders
from .catalog import CatalogError, load_catalog
from .factorize import verify_claim
from .grpcore import ORBIT_POINT_BYTES

DEFAULT_SEED = 20260810
_MEMORY_ENV = "GRPFACT_MEMORY_BUDGET_MB"


def _max_orbit_points(budget_mb: int) -> int:
    # the budget buys ORBIT_POINT_BYTES per point.  An orbit holds a
    # byte mask and a bit mask over its keyspace (9/8 bytes per key, 18 MiB
    # for t1r14-ext's 8.4M points), one sweep block's arrays and the action's
    # cached block tables (128 KiB per generator in characteristic two), and
    # grpcore.orbit refuses masks over that price before it allocates them,
    # whatever the size of the keyspace
    return max(1 << 16, budget_mb * (1 << 20) // ORBIT_POINT_BYTES)


def _claim_worker(args):
    claim_id, seed, timings, max_points = args
    catalog = load_catalog()
    claim = catalog.claim_by_id(claim_id)
    report = verify_claim(claim, base_seed=seed, record_timings=timings,
                          max_orbit_points=max_points)
    return claim_id, report.as_dict()


def _select_claims(catalog, selectors):
    """Claim ids, row keys ('1SL'), or bare table-row numbers ('9')."""
    out = []
    all_claims = catalog.desk_grid(tier=None)
    for sel in selectors:
        matches = [c for c in all_claims if c.claim_id == sel]
        if not matches:
            matches = [c for c in all_claims if c.row == sel and c.tier == "desk"]
        if not matches and sel.isdigit():
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
        if args.tier == "desk":
            claims = [c for c in claims if c.tier == "desk"]
    if not claims:
        print("no claims selected", file=sys.stderr)
        return 2
    budget = args.memory_budget or int(os.environ.get(_MEMORY_ENV, "2048"))
    max_points = _max_orbit_points(budget)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [(c.claim_id, args.seed, args.timings, max_points) for c in claims]
    if args.jobs > 1:
        with multiprocessing.get_context("fork").Pool(args.jobs) as pool:
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


def _parse_point(text: str, action: str, group):
    """The --point text as a point of the action; a malformed point exits
    with a usage error that names the expected form."""
    from .linalg import ANTIFLAG, PAIR, LinAlgError, canonical_point

    n, q = group.n, group.spec.q
    form = "v;w" if action in (PAIR, ANTIFLAG) else "one vector v"
    usage = (f"bad {action} point {text!r} for n={n}, q={q}: expected {form}, each vector "
             f"eK with 1 <= K <= {n} or {n} comma-separated coordinates in 0..{q - 1}")

    def vec(part):
        if part.startswith("e") and part[1:].isdigit() and 1 <= int(part[1:]) <= n:
            return tuple(int(i == int(part[1:]) - 1) for i in range(n))
        coords = tuple(int(t) for t in part.split(","))
        if len(coords) != n or any(not 0 <= c < q for c in coords):
            raise ValueError
        return coords

    parts = text.split(";")
    if len(parts) != (2 if action in (PAIR, ANTIFLAG) else 1):
        raise SystemExit(usage)
    try:
        return canonical_point(action, *map(vec, parts), spec=group.spec)
    except LinAlgError as exc:  # a zero vector, or w(v) != 1
        raise SystemExit(f"{usage} ({exc})") from None
    except ValueError:
        raise SystemExit(usage) from None


def _parse_group(text: str):
    """The --group text as a group; a malformed or unsupported spec exits
    with a usage error that names the accepted forms and the reason."""
    from . import constructors
    from .g2 import g2_derived, g2_generators

    usage = f"bad group spec {text!r}: use SL:n:q, Sp:n:q, GL:n:q, G2:q or G2p:q"
    fam, *args = text.split(":")
    if fam in ("SL", "Sp", "GL"):
        build, arity = lambda n, q: constructors.classical_generators(fam, n, q), 2
    elif fam in ("G2", "G2p"):
        build, arity = g2_generators if fam == "G2" else g2_derived, 1
    else:
        raise SystemExit(usage)
    if len(args) != arity or not all(a.isdigit() for a in args):
        raise SystemExit(usage)
    try:
        return build(*map(int, args))
    except ValueError as exc:  # no such group, or a field outside the modulus table
        raise SystemExit(f"{usage} ({exc})") from None


def cmd_tools_orbit(args) -> int:
    from .grpcore import OrbitBudgetError, orbit

    group = _parse_group(args.group)
    point = _parse_point(args.point, args.action, group)
    budget = int(os.environ.get(_MEMORY_ENV, "2048"))
    try:
        orb = orbit(group, point, max_points=_max_orbit_points(budget))
    except OrbitBudgetError as exc:
        print(f"orbit of {args.point} ({args.action}) under {group.name}: {exc} "
              f"(memory budget {budget} MB)", file=sys.stderr)
        return 1
    print(f"orbit of {args.point} ({args.action}) under {group.name}: {orb.size}")
    return 0


def cmd_tools_order(args) -> int:
    if args.sweep:
        reports = orders.sweep(qmax=args.qmax, nmax=args.nmax)
        csv = orders.sweep_csv(reports)
        if args.csv:
            Path(args.csv).write_text(csv)
        else:
            sys.stdout.write(csv)
        bad = [r for r in reports if not r.ok]
        print(f"# {len(reports)} identities checked, {len(bad)} failures", file=sys.stderr)
        return 0 if not bad else 1
    if not (args.family and args.n and args.q):
        print("need --sweep or --family/--n/--q", file=sys.stderr)
        return 2
    try:
        print(orders.group_order(args.family, args.n, args.q))
    except orders.OrderError as exc:
        print(f"bad --family/--n/--q: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_tools_intersect(args) -> int:
    catalog = load_catalog()
    claim = catalog.claim_by_id(args.claim)
    report = verify_claim(claim, base_seed=args.seed)
    for strat in report.strategies:
        if strat.intersection_order is not None and strat.name in ("order", "enumerate"):
            hint = strat.details.get("intersection_hint", "")
            print(f"{claim.claim_id}: |H n K| = {strat.intersection_order}  {hint}")
            return 0
    print(f"{claim.claim_id}: no intersection strategy ran", file=sys.stderr)
    return 2


def cmd_tools_catalog(args) -> int:
    catalog = load_catalog()
    if args.lemmas:
        cover = catalog.lemma_coverage()
        for tag in catalog.lemma_tags:
            rows = ", ".join(sorted(set(cover.get(tag, [])))) or "UNCOVERED"
            print(f"{tag}: {rows}")
        return 0
    if args.table2:
        for row in catalog.table2:
            print(f"row {row.row}: {row.socle}  {row.h_inf}  {row.k_inf}  -> table-1 rows {row.t1_rows}")
        return 0
    templates = sorted({t.table_row for t in catalog.templates.values()})
    print(f"{len(templates)} catalog rows, {len(catalog.templates)} templates")
    for claim in catalog.desk_grid(tier=None):
        print(f"{claim.claim_id:18s} row {claim.row:5s} tier {claim.tier:8s} expect {claim.expect}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="grpfact",
                                     description="construct and verify the catalog of linear-group factorizations")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run catalog verifications")
    pv.add_argument("--row", action="append", help="claim id (repeatable)")
    pv.add_argument("--tier", choices=["desk", "extended", "all"], default="desk")
    pv.add_argument("--negative-controls", action="store_true")
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--jobs", type=int, default=1)
    pv.add_argument("--timings", action="store_true",
                    help="record wall-clock times (waives byte-reproducibility)")
    pv.add_argument("--memory-budget", type=int, default=None, metavar="MB")
    pv.add_argument("--out", default="reports")
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("tools", help="ad-hoc module operations")
    tsub = pt.add_subparsers(dest="tool", required=True)

    po = tsub.add_parser("orbit", help="orbit size of a point under a group")
    po.add_argument("--group", required=True, help="SL:n:q, Sp:n:q, GL:n:q, G2:q, G2p:q")
    po.add_argument("--point", required=True, help="e1, comma tuple, or v;w for pairs")
    po.add_argument("--action", default="vector",
                    choices=["vector", "functional", "projective", "pair", "antiflag"])
    po.set_defaults(func=cmd_tools_orbit)

    pr = tsub.add_parser("order", help="order formulas and the identity sweep")
    pr.add_argument("--sweep", action="store_true")
    pr.add_argument("--qmax", type=int, default=16)
    pr.add_argument("--nmax", type=int, default=16)
    pr.add_argument("--csv")
    pr.add_argument("--family")
    pr.add_argument("--n", type=int)
    pr.add_argument("--q", type=int)
    pr.set_defaults(func=cmd_tools_order)

    pi = tsub.add_parser("intersect", help="intersection order for a catalog claim")
    pi.add_argument("--claim", required=True)
    pi.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pi.set_defaults(func=cmd_tools_intersect)

    pc = tsub.add_parser("catalog", help="list templates, claims and cross-references")
    pc.add_argument("--list", action="store_true")
    pc.add_argument("--lemmas", action="store_true")
    pc.add_argument("--table2", action="store_true")
    pc.set_defaults(func=cmd_tools_catalog)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
