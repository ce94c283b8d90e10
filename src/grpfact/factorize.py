"""The verification engine: decide G = HK by independent strategies,
compute H n K explicitly, and check tight containment.

Strategies per claim:

* ``identity``   exact integer identity |G| * |H n K| == |H| * |K| from the
                 order formulas (with projective bookkeeping for rows whose
                 ambient is stated modulo scalars);
* ``order``      H n K computed as an iterated point stabilizer of H (K must
                 be a constructed stabilizer), then the counting identity
                 with chain-certified orders;
* ``enumerate``  H n K by enumerating the smaller factor and sifting;
* ``orbit``      transitivity: the H-orbit of K's defining point must cover
                 the whole ambient orbit;
* ``sample``     product membership of random ambient elements (smoke test);
* ``tight``      solvable residuals agree, as subgroups, with the expected
                 minimal factor;
* ``vector_orbit``  the extended-tier big orbit witness.

Every claim runs one path: ``build_setup`` constructs or locates the
ambient order, the factors and the orbit point, one runner per entry of
``claim.checks`` produces a strategy, and ``_finalize`` decides the claim.
Row 10, which searches three ambients for its pair of factors, is the one
bespoke verifier left; the conjugation suites keep their own runner.

Claims carry an expectation; negative controls expect the identity to fail
and pass exactly when it does.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import orders
from .actions import Action
from .catalog import FactorizationClaim, identity_for_claim
from .constructors import (
    ambient_group,
    automorphism_element,
    adjoin,
    classical_generators,
    ext_subgroup,
    sp_pointwise_factor,
    stabilizer_subgroup,
)
from .g2 import g2_derived, g2_generators
from .grpcore import (
    CertificationError,
    GroupSpec,
    element_order_perm,
    orbit,
    orbit_with_transporters,
    same_subgroup,
    solvable_residual,
    stabilizer_generators,
    transporter,
)
from .linalg import (
    FUNCTIONAL,
    PAIR,
    PROJECTIVE,
    VECTOR,
    ActionPoint,
    GroupElement,
    sl_compose,
    sl_inverse,
)
from . import sporadic


class VerifyError(ValueError):
    pass


@dataclass
class StrategyResult:
    name: str
    verdict: str  # pass | fail | skipped
    intersection_order: int | None = None
    orbit_sizes: list[int] = field(default_factory=list)
    wall_ms: int = 0
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "intersection_order": self.intersection_order,
            "orbit_sizes": self.orbit_sizes,
            "wall_ms": self.wall_ms,
            "seed": self.seed,
            "details": self.details,
        }


@dataclass
class VerificationReport:
    claim_id: str
    params: dict
    strategies: list[StrategyResult]
    tight: bool | None
    overall: str  # pass | fail | skipped
    reason: str = ""
    notes: dict = field(default_factory=dict)

    def as_dict(self):
        out = {
            "claim_id": self.claim_id,
            "params": self.params,
            "strategies": [s.as_dict() for s in self.strategies],
            "tight": self.tight,
            "overall": self.overall,
        }
        if self.reason:
            out["reason"] = self.reason
        if self.notes:
            out["notes"] = self.notes
        return out


REPORT_SCHEMA = {
    "type": "object",
    "required": ["claim_id", "params", "strategies", "tight", "overall"],
    "properties": {
        "claim_id": {"type": "string"},
        "params": {"type": "object"},
        "strategies": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "verdict", "intersection_order", "orbit_sizes", "wall_ms", "seed"],
                "properties": {
                    "name": {"type": "string"},
                    "verdict": {"enum": ["pass", "fail", "skipped"]},
                    "intersection_order": {"type": ["integer", "null"]},
                    "orbit_sizes": {"type": "array", "items": {"type": "integer"}},
                    "wall_ms": {"type": "integer"},
                    "seed": {"type": ["integer", "null"]},
                },
            },
        },
        "tight": {"type": ["boolean", "null"]},
        "overall": {"enum": ["pass", "fail", "skipped"]},
        "reason": {"type": "string"},
        "notes": {"type": "object"},
    },
}


# ---------------------------------------------------------------------------
# intersection


_HINTS = {
    (10, frozenset({1, 2, 5})): "D10",
    (6, frozenset({1, 2, 3})): "S3",
    (21, frozenset({1, 3, 7})): "7:3",
    (168, frozenset({1, 2, 3, 4, 7})): "PSL_2(7)",
    (24, frozenset({1, 2, 3, 4, 6})): "SL_2(3)",
    (3, frozenset({1, 3})): "C3",
    (4, frozenset({1, 2})): "2^2",
    (1, frozenset({1})): "1",
}


def structure_hint(group: GroupSpec, cap: int = 10_000) -> str:
    """Order/spectrum-based isomorphism-type hint (labeled as a hint)."""
    order = group.order()
    if order > cap:
        return f"order {order}"
    spectrum = frozenset(
        element_order_perm(t.perm) for t in group.chain().elements()
    )
    return _HINTS.get((order, spectrum), f"order {order}, spectrum {sorted(spectrum)}")


def _point(tag: str, data) -> ActionPoint:
    if tag == PAIR:
        return ActionPoint(PAIR, (tuple(data[0]), tuple(data[1])))
    return ActionPoint(tag, tuple(data))


def _stages_for(H: GroupSpec, stages: list) -> list[ActionPoint]:
    """Adapt K's stabilizer stages to H's home action."""
    points = []
    for tag, data in stages:
        if tag in (FUNCTIONAL, VECTOR, PROJECTIVE):
            points.append(ActionPoint(tag, tuple(data)))
        elif tag == PAIR:
            points.append(_point(PAIR, data))
        else:
            raise VerifyError(f"unsupported stabilizer stage {tag!r}")
    if H.has_duality:
        # vector/functional stages are undefined under duality; merge
        # a (vector, functional) pair of stages into the pair point
        if len(points) == 2 and points[0].tag == VECTOR and points[1].tag == FUNCTIONAL:
            return [ActionPoint(PAIR, (points[0].data, points[1].data))]
        if any(pt.tag in (VECTOR, FUNCTIONAL) for pt in points):
            raise VerifyError("duality subgroup cannot stabilize bare vectors")
    else:
        if len(points) == 1 and points[0].tag == PAIR:
            v, w = points[0].data
            return [ActionPoint(VECTOR, v), ActionPoint(FUNCTIONAL, w)]
    return points


def intersect(H: GroupSpec, K: GroupSpec, strategy: str = "stabilizer") -> GroupSpec:
    """Generators and exact order of H n K.

    'stabilizer' requires K to be a constructed full stabilizer (its
    stabilizer_of stages are intersected out of H); 'enumerate_smaller'
    requires the smaller factor to have at most 10^4 elements.
    """
    if strategy == "stabilizer":
        if not K.stabilizer_of:
            raise VerifyError("stabilizer strategy needs a constructed stabilizer K")
        cur = H
        for i, pt in enumerate(_stages_for(H, K.stabilizer_of)):
            cur = stabilizer_generators(cur, pt, name=f"{H.name}_cap_{K.name}_{i}")
        return cur.with_name(f"{H.name} n {K.name}")
    if strategy == "enumerate_smaller":
        small, big = (H, K) if H.order() <= K.order() else (K, H)
        if small.order() > 10_000:
            raise VerifyError("enumerate strategy capped at 10^4 elements")
        big_chain = big.chain()
        members = []
        for t in small.chain().elements():
            if big_chain.contains_tracked(t):
                members.append(t.elem)
        out = GroupSpec(
            f"{H.name} n {K.name}",
            H.n,
            H.spec,
            members or [H.identity()],
            claimed_order=len(members) or 1,
            provenance=f"enumerated intersection of {small.name} into {big.name}",
            action_tag=H.action_tag,
        )
        return out
    raise VerifyError(f"unknown intersection strategy {strategy!r}")


# ---------------------------------------------------------------------------
# claim setups


@dataclass
class ClaimSetup:
    g_order: int
    H: GroupSpec
    K: GroupSpec
    G: GroupSpec | None = None
    orbit_seed: ActionPoint | None = None
    orbit_target: int | None = None
    tight_target: GroupSpec | None = None
    # row 12a: the table names the witness's solvable residual only by its
    # type (A5), so the tight check reads the residual's order inside H
    residual_order: int | None = None
    # row 13: a second witness for H, from the other conjugacy class
    extra_witnesses: tuple[GroupSpec, ...] = ()
    # facts for the report's notes; the tight runner adds its reading
    notes: dict = field(default_factory=dict)

    @property
    def witnesses(self) -> tuple[GroupSpec, ...]:
        return (self.H, *self.extra_witnesses)


def _e1(n):
    return (1,) + (0,) * (n - 1)


def _f1(n):
    return (0, 1) + (0,) * (n - 2)


def _pair_point(n):
    return ActionPoint(PAIR, (_e1(n), _e1(n)))


def build_setup(claim: FactorizationClaim, rng) -> ClaimSetup:
    row, p = claim.row, claim.params
    if row == "1SL":
        a, b, q = p["a"], p["b"], p["q"]
        n = a * b
        H = ext_subgroup("SL", a, b, q)
        K = stabilizer_subgroup("vector", n, q)
        return ClaimSetup(
            orders.sl_order(n, q), H, K, G=classical_generators("SL", n, q),
            orbit_seed=ActionPoint(VECTOR, _e1(n)), orbit_target=q**n - 1,
        )
    if row == "1Sp":
        a, b, q = p["a"], p["b"], p["q"]
        n = a * b
        if (a, b, q) == (4, 1, 2):
            H = sporadic.sp4_2_derived()
        else:
            H = ext_subgroup("Sp", a, b, q)
        K = stabilizer_subgroup("vector", n, q)
        return ClaimSetup(
            orders.sl_order(n, q), H, K, G=classical_generators("SL", n, q),
            orbit_seed=ActionPoint(VECTOR, _e1(n)), orbit_target=q**n - 1,
        )
    if row == "2":
        b, q = p["b"], p["q"]
        n = 6 * b
        if b == 1:
            H = g2_derived(q)
        else:
            H = ext_subgroup("G2", 6, b, q)
        K = stabilizer_subgroup("vector", n, q)
        return ClaimSetup(
            orders.sl_order(n, q), H, K,
            orbit_seed=ActionPoint(VECTOR, _e1(n)), orbit_target=q**n - 1,
        )
    if row == "3":
        n, q = p["n"], p["q"]
        H = sporadic.sp4_2_derived() if (n, q) == (4, 2) else classical_generators("Sp", n, q)
        K = stabilizer_subgroup("antiflag", n, q)
        return ClaimSetup(
            orders.sl_order(n, q), H, K, G=classical_generators("SL", n, q),
            orbit_seed=_pair_point(n), orbit_target=(q**n - 1) * q ** (n - 1),
        )
    if row in ("4SL", "4Sp"):
        m = p["m"]
        n, q = 2 * m, 2
        inner = "SL" if row == "4SL" else "Sp"
        H = ext_subgroup(inner, m, 2, q, "psi")
        K = stabilizer_subgroup("antiflag", n, q)
        return ClaimSetup(
            orders.sl_order(n, q), H, K,
            orbit_seed=_pair_point(n), orbit_target=(q**n - 1) * q ** (n - 1),
            tight_target=ext_subgroup(inner, m, 2, q),
        )
    if row in ("5SL", "5Sp"):
        m = p["m"]
        n, q = 2 * m, 2
        inner = "SL" if row == "5SL" else "Sp"
        H = ext_subgroup(inner, m, 2, q, "psi_gamma")
        K = adjoin(
            stabilizer_subgroup("antiflag", n, q),
            [automorphism_element("phi_gamma", n, q)],
            f"stab_antiflag_SL_{n}({q}).2",
            2,
        )
        return ClaimSetup(
            2 * orders.sl_order(n, q), H, K, G=ambient_group(n, q, "phi_gamma"),
            orbit_seed=_pair_point(n), orbit_target=(q**n - 1) * q ** (n - 1),
            tight_target=ext_subgroup(inner, m, 2, q),
        )
    if row in ("6SL", "6Sp"):
        m = p["m"]
        n, q = 2 * m, 4
        inner = "SL" if row == "6SL" else "Sp"
        H = ext_subgroup(inner, m, 2, q, "psi")
        K = adjoin(
            stabilizer_subgroup("antiflag", n, q),
            [automorphism_element("phi", n, q)],
            f"stab_antiflag_SL_{n}({q}).phi",
            2,
        )
        return ClaimSetup(
            2 * orders.sl_order(n, q), H, K,
            orbit_seed=_pair_point(n), orbit_target=(q**n - 1) * q ** (n - 1),
            tight_target=ext_subgroup(inner, m, 2, q),
        )
    if row in ("7SL", "7Sp"):
        m = p["m"]
        n, q = 2 * m, 4
        inner = "SL" if row == "7SL" else "Sp"
        H = ext_subgroup(inner, m, 2, q, "psi_gamma")
        K = adjoin(
            stabilizer_subgroup("antiflag", n, q),
            [automorphism_element("phi_gamma", n, q)],
            f"stab_antiflag_SL_{n}({q}).2",
            2,
        )
        return ClaimSetup(
            2 * orders.sl_order(n, q), H, K,
            orbit_seed=_pair_point(n), orbit_target=(q**n - 1) * q ** (n - 1),
            tight_target=ext_subgroup(inner, m, 2, q),
        )
    if row == "8":
        q = p["q"]
        H = g2_generators(q)
        K = stabilizer_subgroup("antiflag", 6, q)
        return ClaimSetup(
            orders.sl_order(6, q), H, K,
            orbit_seed=_pair_point(6), orbit_target=(q**6 - 1) * q**5,
        )
    if row == "8Sp":
        q = p["q"]
        H = g2_generators(q)
        K = sp_pointwise_factor(6, q)
        return ClaimSetup(orders.sp_order(6, q), H, K, G=classical_generators("Sp", 6, q))
    if row == "neg_sp":
        q = 2
        H = g2_derived(2)
        K = sp_pointwise_factor(6, q)
        return ClaimSetup(orders.sp_order(6, q), H, K, G=classical_generators("Sp", 6, q))
    if row == "neg_sl":
        q = 2
        H = g2_derived(2)
        K = stabilizer_subgroup("antiflag", 6, q)
        return ClaimSetup(
            orders.sl_order(6, q), H, K,
            orbit_seed=_pair_point(6), orbit_target=(q**6 - 1) * q**5,
        )
    if row == "14":
        H = ext_subgroup("G2", 6, 2, 2, "psi")
        K = stabilizer_subgroup("antiflag", 12, 2)
        return ClaimSetup(
            orders.sl_order(12, 2), H, K,
            orbit_seed=_pair_point(12), orbit_target=(2**12 - 1) * 2**11,
            tight_target=ext_subgroup("G2", 6, 2, 2),
        )
    if row == "15":
        # degree 16.7M ambient: generators only, witness-grade claimed order
        H = ext_subgroup("G2", 6, 2, 4, "psi", certify_adjoin=False)
        return ClaimSetup(
            2 * orders.sl_order(12, 4), H, H,
            orbit_seed=ActionPoint(VECTOR, _e1(12)), orbit_target=4**12 - 1,
        )
    if row == "9":
        X, Y, info = sporadic.locate_two_a5_classes(rng)
        return ClaimSetup(360, X, Y, notes={
            "located": {"tries": [info["first"]["tries"], info["second"]["tries"]],
                        "rejected_conjugates": info["rejected_conjugates"]},
            "classes": "brute-force conjugacy over all 360 ambient elements",
        })
    if row in ("11a", "11b"):
        A7, info = sporadic.locate_a7(rng)
        if row == "11a":
            K, seed_pt, target = stabilizer_subgroup("antiflag", 4, 2), _pair_point(4), (2**4 - 1) * 2**3
        else:
            K, seed_pt, target = stabilizer_subgroup("vector", 4, 2), ActionPoint(VECTOR, _e1(4)), 2**4 - 1
        return ClaimSetup(
            orders.sl_order(4, 2), A7, K,
            orbit_seed=seed_pt, orbit_target=target, notes={"a7_search": info},
        )
    if row in ("12a", "12b", "12c"):
        Z = sporadic.psl_n3_projective(4)
        Y = _projective_point_stabilizer(Z)
        X, info = _row12_x(row, rng)
        return ClaimSetup(
            Z.order(), X, Y,
            orbit_seed=ActionPoint(PROJECTIVE, _e1(4)), orbit_target=(3**4 - 1) // 2,
            residual_order=60 if row == "12a" else None,
            notes={"search": info, "y_is_point_stabilizer": Y.order() == 3**3 * orders.sl_order(3, 3)},
        )
    if row == "13":
        Z = sporadic.psl_n3_projective(6)
        Y = _projective_point_stabilizer(Z)
        X1, X2, info = sporadic.locate_two_psl2_13(rng)
        table_reading = 3**5 * orders.sl_order(5, 3)
        text_reading = 5**3 * orders.sl_order(5, 3)
        discrepancy = {
            "computed_stabilizer_order": str(Y.order()),
            "table_reading_3^5:SL_5(3)": str(table_reading),
            "text_reading_5^3:SL_5(3)": str(text_reading),
            "matches": "table" if Y.order() == table_reading else (
                "text" if Y.order() == text_reading else "neither"),
        }
        return ClaimSetup(
            Z.order(), X1, Y, extra_witnesses=(X2,),
            orbit_seed=ActionPoint(PROJECTIVE, _e1(6)), orbit_target=(3**6 - 1) // 2,
            notes={"class_certificate": info, "structure_discrepancy": discrepancy},
        )
    raise VerifyError(f"no setup builder for row {claim.row!r}")


def _projective_point_stabilizer(Z: GroupSpec) -> GroupSpec:
    """The stabilizer Y of <e1> in a projective ambient, usable as K."""
    Y = stabilizer_generators(Z, ActionPoint(PROJECTIVE, _e1(Z.n)), name=f"stab_proj_{Z.name}")
    Y.stabilizer_of = [(PROJECTIVE, _e1(Z.n))]
    return Y


def _row12_x(row, rng):
    if row == "12a":
        # only two of the four S5 classes factorize: keep transitive witnesses
        X, info = sporadic.locate_s5(rng, reject=_s5_not_transitive)
        # also exhibit a non-factorizing witness (two of four classes fail)
        try:
            X_bad, bad_info = sporadic.locate_s5(rng, reject=lambda ch: not _s5_not_transitive(ch))
            info["non_factorizing_witness"] = {"found": True, "tries": bad_info["tries"]}
        except sporadic.SearchBudgetError:
            info["non_factorizing_witness"] = {"found": False}
        return X, info
    if row == "12b":
        return sporadic.locate_4xa5(rng)
    return sporadic.locate_2_4_a5(rng)


def _s5_not_transitive(chain) -> bool:
    if not chain.levels:
        return True
    return len(chain.levels[0].orbit) != chain.domain.size


# ---------------------------------------------------------------------------
# strategy runners


class _Timer:
    """Wall time of a with-block in ms, frozen when the block exits.

    It stays zero unless timing was requested, so default reports are
    byte-reproducible.
    """

    def __init__(self, record: bool):
        self.record = record
        self.ms = 0

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.record:
            self.ms = int((time.perf_counter() - self.t0) * 1000)


def _run_identity(claim, setup, record_timings) -> StrategyResult:
    with _Timer(record_timings) as tm:
        report = identity_for_claim(claim)
        details = {}
        verdict = "skipped"
        if report is not None:
            verdict = "pass" if report.ok else "fail"
            details = {
                "g_order": str(report.g_order),
                "h_order": str(report.h_order),
                "k_order": str(report.k_order),
                "lhs": str(report.lhs),
                "rhs": str(report.rhs),
            }
            if report.note:
                details["note"] = report.note
            if claim.template is not None and claim.template.z_label.startswith("P"):
                # projective bookkeeping: the linear identity divides through
                # by the scalar subgroup on both sides
                details["projective"] = "ambient stated modulo scalars; linear lift identity shown"
    return StrategyResult(
        "identity",
        verdict,
        intersection_order=report.intersection_order if report else None,
        details=details,
        wall_ms=tm.ms,
    )


def _run_order(claim, setup, rng, record) -> StrategyResult:
    """The counting identity for each witness; the first one's figures are reported."""
    with _Timer(record) as tm:
        found = []
        for H in setup.witnesses:
            inter = intersect(H, setup.K, "stabilizer")
            found.append({
                "name": H.name,
                "intersection_order": inter.order(),
                "intersection_hint": structure_hint(inter),
                "lhs": str(setup.g_order * inter.order()),
                "rhs": str(H.order() * setup.K.order()),
            })
        verdict = "pass" if all(w["lhs"] == w["rhs"] for w in found) else "fail"
        details = {k: found[0][k] for k in ("intersection_hint", "lhs", "rhs")}
        if len(found) > 1:
            details["witnesses"] = found
    return StrategyResult("order", verdict, intersection_order=found[0]["intersection_order"],
                          details=details, wall_ms=tm.ms)


def _run_enumerate(claim, setup, rng, record) -> StrategyResult:
    with _Timer(record) as tm:
        inter = intersect(setup.H, setup.K, "enumerate_smaller")
        i_order = inter.order()
        lhs = setup.g_order * i_order
        rhs = setup.H.order() * setup.K.order()
        verdict = "pass" if lhs == rhs else "fail"
        details = {"intersection_hint": structure_hint(inter)}
    return StrategyResult("enumerate", verdict, intersection_order=i_order, details=details, wall_ms=tm.ms)


def _run_orbit(claim, setup, rng, record, max_points) -> StrategyResult:
    with _Timer(record) as tm:
        sizes = [orbit(H, setup.orbit_seed, max_points=max_points).size
                 for H in setup.witnesses]
        verdict = "pass" if all(size == setup.orbit_target for size in sizes) else "fail"
        details = {"target": setup.orbit_target, "seed": setup.orbit_seed.tag}
    return StrategyResult("orbit", verdict, orbit_sizes=sizes, details=details, wall_ms=tm.ms)


def _run_vector_orbit(claim, setup, rng, record, max_points) -> StrategyResult:
    with _Timer(record) as tm:
        orb = orbit(setup.H, setup.orbit_seed, max_points=max_points)
        verdict = "pass" if orb.size == setup.orbit_target else "fail"
    return StrategyResult(
        "vector_orbit",
        verdict,
        orbit_sizes=[orb.size],
        details={"target": setup.orbit_target, "witness_only": True},
        wall_ms=tm.ms,
    )


def _run_sample(claim, setup, rng, record, samples=50) -> StrategyResult:
    """Random-element product membership, via layered transport through K's stages."""
    with _Timer(record) as tm:
        if setup.G is None:
            return StrategyResult("sample", "skipped", details={"reason": "no ambient chain"})
        stages = _stages_for(setup.H, setup.K.stabilizer_of)
        gchain = setup.G.chain()
        layers = []
        group = setup.H
        for pt in stages:
            action = Action(pt.tag, group.spec, group.n)
            orb = orbit_with_transporters(group.generators, pt, action)
            layers.append((group, pt, action, orb))
            group = stabilizer_generators(group, pt)
        ok = 0
        for _ in range(samples):
            g = gchain.random_element(rng)
            # g in H.K iff the staged points moved by g^-1 land in the
            # layered H-orbits; each stage transports its point back before
            # testing the next against the stabilizer's orbit
            cur = sl_inverse(g.elem)
            good = True
            for (grp, pt, action, orb) in layers:
                key = action.point_key(action.apply_point(cur, pt))
                if not orb.contains_key(key):
                    good = False
                    break
                back = transporter(orb, grp.generators, key)
                cur = sl_compose(cur, sl_inverse(back))
            if good:
                ok += 1
        verdict = "pass" if ok == samples else "fail"
    return StrategyResult(
        "sample", verdict, details={"samples": samples, "members": ok}, wall_ms=tm.ms,
        seed=None,
    )


def _run_tight(claim, setup, rng, record) -> StrategyResult:
    with _Timer(record) as tm:
        if setup.residual_order is not None:
            res = solvable_residual(setup.H, rng=rng)
            ok = res.order() == setup.residual_order and all(setup.H.contains(g) for g in res.generators)
            setup.notes["residual_reading"] = {
                "x_residual_order": res.order(),
                "matches_A5_entry": ok,
            }
            details = {"target": "A5 inside the S5 witness"}
        elif setup.tight_target is None:
            return StrategyResult("tight", "skipped", details={"reason": "no tightness target"})
        else:
            ok = check_tight(setup.H, setup.tight_target, rng=rng)
            details = {"target": setup.tight_target.name}
    return StrategyResult("tight", "pass" if ok else "fail", details=details, wall_ms=tm.ms)


def check_tight(H_located: GroupSpec, X_catalog: GroupSpec, rng=None) -> bool:
    """Solvable residuals equal as subgroups (mutual membership), not just isomorphic."""
    res_h = solvable_residual(H_located, rng=rng)
    res_x = solvable_residual(X_catalog, rng=rng)
    return same_subgroup(res_h, res_x)


# ---------------------------------------------------------------------------
# claim-level verification


def claim_seed(claim_id: str, base_seed: int) -> int:
    return (zlib.crc32(claim_id.encode()) ^ base_seed) & 0x7FFFFFFF


def verify_claim(claim: FactorizationClaim, base_seed: int = 20260810,
                 record_timings: bool = False, max_orbit_points: int = 2**24) -> VerificationReport:
    seed = claim_seed(claim.claim_id, base_seed)
    rng = np.random.default_rng(seed)
    if claim.row == "10":
        return _verify_row10(claim, rng, seed, record_timings)
    if claim.row in ("suite1", "suite9"):
        return _verify_suite(claim, rng, seed, record_timings)

    strategies: list[StrategyResult] = []
    needs_setup = any(c in ("order", "enumerate", "orbit", "vector_orbit", "sample", "tight")
                      for c in claim.checks)
    setup = None
    if needs_setup:
        try:
            setup = build_setup(claim, rng)
        except CertificationError as exc:
            return VerificationReport(claim.claim_id, claim.params, [], None,
                                      "fail", reason=f"construction failed certification: {exc}")
    notes = setup.notes if setup is not None else {}
    if claim.notes:
        notes["claim"] = claim.notes
    for check in claim.checks:
        if check == "identity":
            strategies.append(_run_identity(claim, setup, record_timings))
        elif check == "order":
            strategies.append(_run_order(claim, setup, rng, record_timings))
        elif check == "enumerate":
            strategies.append(_run_enumerate(claim, setup, rng, record_timings))
        elif check == "orbit":
            strategies.append(_run_orbit(claim, setup, rng, record_timings, max_orbit_points))
        elif check == "vector_orbit":
            strategies.append(_run_vector_orbit(claim, setup, rng, record_timings, max_orbit_points))
        elif check == "sample":
            strategies.append(_run_sample(claim, setup, rng, record_timings))
        elif check == "tight":
            strategies.append(_run_tight(claim, setup, rng, record_timings))
        elif check == "discrepancy":
            pass  # row 13's structure discrepancy is a note of its setup
        else:
            strategies.append(StrategyResult(check, "skipped", details={"reason": "unknown check"}))
    for s in strategies:
        s.seed = seed
    return _finalize(claim, strategies, notes)


def _finalize(claim, strategies, notes) -> VerificationReport:
    # strategy agreement on the intersection order
    inter_orders = {
        s.intersection_order
        for s in strategies
        if s.intersection_order is not None and s.verdict != "skipped"
    }
    agreement = len(inter_orders) <= 1
    vote_names = ("identity", "order", "enumerate", "orbit", "conjugation", "product_identity")
    factorization_votes = [s for s in strategies if s.name in vote_names and s.verdict != "skipped"]
    holds = agreement and bool(factorization_votes) and all(s.verdict == "pass" for s in factorization_votes)
    failed = any(s.verdict == "fail" for s in factorization_votes) or not agreement
    support = [s for s in strategies if s.name in ("sample", "vector_orbit", "tight") and s.verdict == "fail"]
    if claim.expected_intersection is not None and inter_orders:
        if inter_orders != {claim.expected_intersection}:
            holds = False
            failed = True
            notes["intersection_mismatch"] = {
                "expected": claim.expected_intersection,
                "computed": sorted(inter_orders),
            }
    if claim.expect == "no_factorization":
        overall = "pass" if failed and not holds else "fail"
        notes["negative_control"] = "claim passes because the factorization fails, as required"
    else:
        overall = "pass" if holds and not support else "fail"
    tight_result = None
    for s in strategies:
        if s.name == "tight" and s.verdict != "skipped":
            tight_result = s.verdict == "pass"
    if not agreement:
        notes["strategy_disagreement"] = sorted(inter_orders)
    return VerificationReport(claim.claim_id, claim.params, strategies, tight_result, overall, notes=notes)


# ---------------------------------------------------------------------------
# row 10: three candidate ambients


def _verify_row10(claim, rng, seed, record) -> VerificationReport:
    with _Timer(record) as tm:
        candidates = sporadic.locate_pgl27_m10(rng, max_tries=900)
        per_candidate = {}
        any_pass = False
        i_order_seen = None
        for outer, entry in candidates.items():
            if entry["pgl27"] is None or entry["m10"] is None:
                per_candidate[outer] = {
                    "pgl27": entry["pgl27"] is not None,
                    "m10": entry["m10"] is not None,
                    "verdict": "subgroups absent within search budget",
                }
                continue
            X, xinfo = entry["pgl27"]
            Y, yinfo = entry["m10"]
            inter = intersect(X, Y, "enumerate_smaller")
            i_order = inter.order()
            lhs = 2 * orders.psl_order(3, 4) * i_order
            rhs = X.order() * Y.order()
            ok = lhs == rhs and i_order == 6
            any_pass = any_pass or ok
            i_order_seen = i_order if ok else i_order_seen
            per_candidate[outer] = {
                "pgl27": True,
                "m10": True,
                "intersection_order": i_order,
                "intersection_hint": structure_hint(inter),
                "verdict": "factorizes" if ok else "does not factorize",
                "tries": {"pgl27": xinfo["tries"], "m10": yinfo["tries"]},
            }
    with _Timer(record) as tm_identity:
        identity = identity_for_claim(claim)
    strategies = [
        StrategyResult("identity", "pass" if identity.ok else "fail",
                       intersection_order=identity.intersection_order, wall_ms=tm_identity.ms, seed=seed),
        StrategyResult("enumerate", "pass" if any_pass else "fail",
                       intersection_order=i_order_seen, details={"extensions": per_candidate},
                       wall_ms=tm.ms, seed=seed),
    ]
    notes = {"extension_resolution": "all three index-2 extensions tried; see strategy details"}
    return _finalize(claim, strategies, notes)


# ---------------------------------------------------------------------------
# conjugation stability / quotient bookkeeping suites


def _conjugate_group(G: GroupSpec, x: GroupElement, name: str) -> GroupSpec:
    xin = sl_inverse(x)
    gens = [sl_compose(sl_compose(xin, g), x) for g in G.generators]
    return GroupSpec(name, G.n, G.spec, gens, claimed_order=G.claimed_order,
                     provenance=f"{G.name} conjugated", action_tag=G.action_tag)


def property_suite_section2(claim, rng, samples=50, record=False) -> tuple[list[StrategyResult], dict]:
    """Conjugation stability of a verified factorization plus the product
    set identity on the socle-full case."""
    with _Timer(record) as tm_conj:
        G, H, K, base_inter, stable, spectra_ok = _conjugation_samples(claim, rng, samples)
    # product set identity with both side products equal to the whole group
    # (the socle equals the ambient for these two instances, so the identity
    # degenerates to the factorization itself)
    with _Timer(record) as tm_prod:
        kb = K.order() if claim.row != "suite1" else orders.vector_stab_order(4, 2)
        product_identity = G.order() * base_inter == H.order() * kb
    strategies = [
        StrategyResult("conjugation", "pass" if stable == samples else "fail",
                       intersection_order=base_inter,
                       details={"samples": samples, "stable": stable,
                                "spectra_preserved": spectra_ok},
                       wall_ms=tm_conj.ms),
        StrategyResult("product_identity", "pass" if product_identity else "fail",
                       details={"socle_equals_ambient": True}, wall_ms=tm_prod.ms),
    ]
    return strategies, {"samples": samples}


def _conjugation_samples(claim, rng, samples):
    if claim.row == "suite1":
        G = classical_generators("SL", 4, 2)
        H = ext_subgroup("SL", 2, 2, 2)
        omega = ActionPoint(VECTOR, _e1(4))
        K = stabilizer_subgroup("vector", 4, 2)
        base_inter = 4
        action = Action(VECTOR, G.spec, 4)
    else:
        Z = sporadic.psl2_9()
        H, K, _ = sporadic.locate_two_a5_classes(rng)
        G = Z
        omega = None
        base_inter = 10
        action = None
    gchain = G.chain()
    stable = 0
    spectra_ok = 0
    for _ in range(samples):
        x = gchain.random_element(rng).elem
        y = gchain.random_element(rng).elem
        Hx = _conjugate_group(H, x, "H^x")
        if omega is not None:
            omega_y = action.apply_point(y, omega)
            orb = orbit(Hx, omega_y)
            inter = stabilizer_generators(Hx, omega_y)
            ok = orb.size == (2**4 - 1) and inter.order() == base_inter
            spec_ok = _spectrum_of(inter) == frozenset({1, 2})
        else:
            Ky = _conjugate_group(K, y, "K^y")
            inter = intersect(Hx, Ky, "enumerate_smaller")
            ok = G.order() * inter.order() == Hx.order() * Ky.order() and inter.order() == base_inter
            spec_ok = _spectrum_of(inter) == frozenset({1, 2, 5})
        stable += 1 if ok else 0
        spectra_ok += 1 if spec_ok else 0
    return G, H, K, base_inter, stable, spectra_ok


def _spectrum_of(group: GroupSpec) -> frozenset:
    return frozenset(element_order_perm(t.perm) for t in group.chain().elements())


def _verify_suite(claim, rng, seed, record) -> VerificationReport:
    strategies, notes = property_suite_section2(claim, rng, claim.params.get("samples", 50), record)
    for s in strategies:
        s.seed = seed
    return _finalize(claim, strategies, notes)


# ---------------------------------------------------------------------------
# convenience wrappers


def verify(G: GroupSpec, H: GroupSpec, K: GroupSpec, strategies=("order", "orbit")) -> dict:
    """Ad-hoc verification of G = HK for constructed groups."""
    out = {}
    if "order" in strategies:
        inter = intersect(H, K, "stabilizer" if K.stabilizer_of else "enumerate_smaller")
        out["intersection_order"] = inter.order()
        out["order_identity"] = G.order() * inter.order() == H.order() * K.order()
    if "orbit" in strategies and K.stabilizer_of:
        stages = _stages_for(H, K.stabilizer_of)
        if len(stages) == 1:
            orb = orbit(H, stages[0])
            out["orbit_size"] = orb.size
            out["orbit_covers"] = orb.size * K.order() == G.order()
    out["verdict"] = all(v for k, v in out.items() if k.endswith(("identity", "covers")))
    return out
