"""Output checks for the benchmark, computed apart from the program.

Every group order here comes from a closed formula or from the catalog's
named sporadic orders; nothing is imported from ``grpfact``.  A check
returns a list of problems, empty when the output is right, so that a run
can report every fault it sees.
"""

from __future__ import annotations

import json
from hashlib import sha256
from math import gcd, prod


def sl(n: int, q: int) -> int:
    return q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(2, n + 1))


def psl(n: int, q: int) -> int:
    return sl(n, q) // gcd(n, q - 1)


def sp(n: int, q: int) -> int:
    m = n // 2
    return q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))


def g2(q: int) -> int:
    return q**6 * (q**6 - 1) * (q**2 - 1)


def vector_orbit(n: int, q: int) -> int:
    return q**n - 1


def projective_orbit(n: int, q: int) -> int:
    return (q**n - 1) // (q - 1)


def antiflag_orbit(n: int, q: int) -> int:
    return (q**n - 1) * q ** (n - 1)


# Named subgroup orders of the sporadic rows.
A5, S5, FOUR_X_A5, TWO_4_A5, PSL2_13, A7 = 60, 120, 240, 960, 1092, 2520


def _with_stab(g: int, orbit: int) -> int:
    """Order of a point stabilizer of a transitive group of order g."""
    if g % orbit:
        raise ValueError(f"orbit {orbit} does not divide the group order {g}")
    return g // orbit


def _claims() -> dict[str, dict]:
    """|G|, |H|, |K|, expected orbit sizes and expectation for each claim.

    K is the stabilizer of the orbit's point in G, so |K| = |G| / orbit.
    """
    out: dict[str, dict] = {}

    def add(cid, G, H, K, orbits=(), negative=False):
        out[cid] = {"G": G, "H": H, "K": K, "orbits": list(orbits), "negative": negative}

    # row 1: SL_a(q^b) and Sp_a(q^b) against a vector stabilizer of SL_ab(q)
    add("t1r01-sl-a2b2q2", sl(4, 2), sl(2, 4), _with_stab(sl(4, 2), vector_orbit(4, 2)),
        [vector_orbit(4, 2)])
    add("t1r01-sp-a4b1q2", sl(4, 2), sp(4, 2) // 2, _with_stab(sl(4, 2), vector_orbit(4, 2)),
        [vector_orbit(4, 2)])
    add("t1r01-sp-a4b1q3", sl(4, 3), sp(4, 3), _with_stab(sl(4, 3), vector_orbit(4, 3)),
        [vector_orbit(4, 3)])
    # row 2: G2(2)' in SL_6(2), vector stabilizer
    add("t1r02-b1q2", sl(6, 2), g2(2) // 2, _with_stab(sl(6, 2), vector_orbit(6, 2)),
        [vector_orbit(6, 2)])
    # row 3: Sp_n(q) (Sp_4(2)' at n=4, q=2) against an antiflag stabilizer
    add("t1r03-n4q2", sl(4, 2), sp(4, 2) // 2, _with_stab(sl(4, 2), antiflag_orbit(4, 2)),
        [antiflag_orbit(4, 2)])
    add("t1r03-n6q2", sl(6, 2), sp(6, 2), _with_stab(sl(6, 2), antiflag_orbit(6, 2)),
        [antiflag_orbit(6, 2)])
    # rows 4-5: SL_m(4).2 and Sp_m(4).2 in SL_2m(2) (row 5: SL_2m(2).2)
    add("t1r04-m2", sl(4, 2), 2 * sl(2, 4), _with_stab(sl(4, 2), antiflag_orbit(4, 2)),
        [antiflag_orbit(4, 2)])
    add("t1r04-sp-m4", sl(8, 2), 2 * sp(4, 4), _with_stab(sl(8, 2), antiflag_orbit(8, 2)),
        [antiflag_orbit(8, 2)])
    add("t1r05-m2", 2 * sl(4, 2), 2 * sl(2, 4), _with_stab(2 * sl(4, 2), antiflag_orbit(4, 2)),
        [antiflag_orbit(4, 2)])
    # rows 6-7: SL_m(16).4 and Sp_m(16).4 in SL_2m(4).2
    add("t1r06-m2", 2 * sl(4, 4), 4 * sl(2, 16), _with_stab(2 * sl(4, 4), antiflag_orbit(4, 4)),
        [antiflag_orbit(4, 4)])
    add("t1r07-m2", 2 * sl(4, 4), 4 * sp(2, 16), _with_stab(2 * sl(4, 4), antiflag_orbit(4, 4)),
        [antiflag_orbit(4, 4)])
    # row 8: G2(q) against an antiflag stabilizer of SL_6(q), or against the
    # Sp_4(q) fixing a hyperbolic pair in Sp_6(q)
    add("t1r08-q2", sl(6, 2), g2(2), _with_stab(sl(6, 2), antiflag_orbit(6, 2)),
        [antiflag_orbit(6, 2)])
    add("t1r08-q4-sp", sp(6, 4), g2(4), sp(4, 4))
    add("t1r08-sp-q2", sp(6, 2), g2(2), sp(4, 2))
    # rows 9-13: sporadic factors
    add("t1r09", psl(2, 9), A5, A5)
    add("t1r11-a", sl(4, 2), _with_stab(sl(4, 2), antiflag_orbit(4, 2)), A7,
        [antiflag_orbit(4, 2)])
    add("t1r11-b", sl(4, 2), _with_stab(sl(4, 2), vector_orbit(4, 2)), A7,
        [vector_orbit(4, 2)])
    y12 = _with_stab(psl(4, 3), projective_orbit(4, 3))
    add("t1r12-a", psl(4, 3), S5, y12, [projective_orbit(4, 3)])
    add("t1r12-b", psl(4, 3), FOUR_X_A5, y12, [projective_orbit(4, 3)])
    add("t1r12-c", psl(4, 3), TWO_4_A5, y12, [projective_orbit(4, 3)])
    y13 = _with_stab(psl(6, 3), projective_orbit(6, 3))
    add("t1r13", psl(6, 3), PSL2_13, y13, [projective_orbit(6, 3)] * 2)
    # rows 14-15: blown-down G2 over an extension field, identity only on the desk
    add("t1r14", sl(12, 2), 2 * g2(4), _with_stab(sl(12, 2), antiflag_orbit(12, 2)))
    add("t1r15", 2 * sl(12, 4), 4 * g2(16), _with_stab(2 * sl(12, 4), antiflag_orbit(12, 4)))
    # negative controls: G2(2)' does not factorize these ambients
    add("neg-sp6-g2p", sp(6, 2), g2(2) // 2, sp(4, 2), negative=True)
    add("neg-sl6-g2p", sl(6, 2), g2(2) // 2, _with_stab(sl(6, 2), antiflag_orbit(6, 2)),
        [antiflag_orbit(6, 2)], negative=True)
    # conjugation suites re-verify rows 1 and 9 under random conjugates
    out["suite-r1"] = dict(out["t1r01-sl-a2b2q2"], orbits=[])
    out["suite-r9"] = dict(out["t1r09"])
    return out


CLAIMS = _claims()

# big-orbit: the pair point of GF(2)^12 under the blown G2(4).2
BIG_ORBIT_SIZE = antiflag_orbit(12, 2)
BIG_ORBIT_GROUP = 2 * g2(4)
BIG_ORBIT_STABILIZER = 60


def digest(report: dict) -> str:
    return sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def check_claim(claim_id: str, report: dict) -> list[str]:
    """Problems with one claim report, judged against closed-form orders."""
    exp = CLAIMS.get(claim_id)
    if exp is None:
        return [f"{claim_id}: no closed-form orders for this claim"]
    problems = []
    if report.get("claim_id") != claim_id:
        problems.append(f"{claim_id}: report is for {report.get('claim_id')!r}")
    if report.get("overall") != "pass":
        problems.append(f"{claim_id}: overall {report.get('overall')!r}, expected 'pass'")
    G, H, K = exp["G"], exp["H"], exp["K"]
    for s in report.get("strategies", []):
        if s.get("verdict") == "skipped":
            continue
        io = s.get("intersection_order")
        if io is not None:
            if exp["negative"]:
                if G * io == H * K:
                    problems.append(f"{claim_id}/{s['name']}: negative control factorizes "
                                    f"(|G|*{io} == |H|*|K|)")
            elif G * io != H * K:
                problems.append(f"{claim_id}/{s['name']}: intersection order {io}, "
                                f"closed form gives {H * K}/{G}")
        for size in s.get("orbit_sizes", []):
            if exp["negative"]:
                if size in exp["orbits"]:
                    problems.append(f"{claim_id}/{s['name']}: negative control orbit {size} "
                                    "covers the ambient orbit")
            elif size not in exp["orbits"]:
                problems.append(f"{claim_id}/{s['name']}: orbit size {size}, "
                                f"closed form gives {exp['orbits']}")
    if exp["negative"] and not any(s.get("intersection_order") is not None
                                   for s in report.get("strategies", [])):
        problems.append(f"{claim_id}: negative control reports no intersection order")
    return problems


def check_big_orbit(report: dict) -> list[str]:
    size = report.get("orbit_size")
    problems = []
    if size != BIG_ORBIT_SIZE:
        problems.append(f"big-orbit: size {size}, closed form gives {BIG_ORBIT_SIZE}")
    elif BIG_ORBIT_GROUP % size or BIG_ORBIT_GROUP // size != BIG_ORBIT_STABILIZER:
        problems.append(f"big-orbit: 2|G2(4)| / {size} is not {BIG_ORBIT_STABILIZER}")
    return problems


def check_same_across_passes(op_id: str, digests: list[str]) -> list[str]:
    if len(set(digests)) > 1:
        return [f"{op_id}: report bytes differ across passes"]
    return []
