"""The verification engine: decide G = HK by independent strategies,
compute H n K explicitly, and check tight containment.

``STRATEGIES`` maps each check name to its runner, its role and its needs:
a vote decides the claim, and a veto can only fail it.

* ``identity``     (vote) exact integer identity |G| * |H n K| == |H| * |K|
                   from the order formulas, with projective bookkeeping for
                   ambients stated modulo scalars; needs a lemma identity;
* ``order``        (vote) H n K computed as an iterated point stabilizer of H,
                   then the counting identity with chain-certified orders;
                   needs a K that is a constructed stabilizer;
* ``enumerate``    (vote) H n K by enumerating the smaller factor and sifting;
* ``orbit``        (vote) transitivity: the H-orbit of K's defining point must
                   cover the whole ambient orbit; needs an orbit seed;
* ``conjugation``  (vote) the suites: H^x n K^y for random x, y of the ambient
                   has the order and spectrum of H n K; needs a suite;
* ``tight``        (veto) H^inf = X^inf as subgroups, for the set-up's
                   target X (rows 4-7's and 14's core, row 12a's S5
                   witness's derived A5), by X^inf's normality in H; needs
                   a tightness target;
* ``vector_orbit`` (veto) the extended tier's big orbit; needs an orbit seed.

Every claim runs one path: ``build_setup`` constructs the ambient order,
the factors and the orbit point, one runner per entry of ``claim.checks``
produces a strategy, and ``_finalize`` decides the claim.  No set-up
searches: the sporadic factors are certified literals.  Only ``verify_claim``
skips a check for an unmet need, before its runner, or for a domain or an
enumeration past its cap (``DomainCapError``); no other exception is caught.

Claims carry an expectation; negative controls expect the identity to fail
and pass exactly when it does.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import orders
from .actions import DomainCapError
from .catalog import FactorizationClaim, identity_for_claim
from .constructors import (
    ConstructionError,
    automorphism_element,
    adjoin,
    classical_generators,
    ext_subgroup,
    psi_extension,
    sp_pointwise_factor,
    stabilizer_subgroup,
)
from .g2 import g2_derived, g2_generators
from .grpcore import (
    DEFAULT_MAX_POINTS,
    CertificationError,
    GroupSpec,
    OrbitBudgetError,
    StabChain,
    Tracked,
    commutators,
    conjugates,
    derived_domain,
    derived_series,
    derived_subgroup,
    orbit,
    point_chain,
    solvable_residual,
    stabilizer_generators,
    t_compose,
)
from .linalg import DUALITY, PAIR, PROJECTIVE, VECTOR, ActionPoint
from .streams import Stream
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
        # a report names a reason and notes only when it has them
        return {k: v for k, v in asdict(self).items() if v or k not in ("reason", "notes")}


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
_ENUMERATION_CAP = 10_000


def structure_hint(group: GroupSpec) -> str:
    """Order/spectrum-based isomorphism-type hint (labeled as a hint)."""
    order = group.order()
    if order > _ENUMERATION_CAP:
        return f"order {order}"
    spectrum = sporadic.exact_spectrum(group.chain())
    return _HINTS.get((order, spectrum), f"order {order}, spectrum {sorted(spectrum)}")


def intersect(H: GroupSpec, K: GroupSpec, strategy: str = "stabilizer") -> GroupSpec:
    """Generators and exact order of H n K.

    'stabilizer' requires K to be a constructed full stabilizer (its
    stabilizer_of stages are intersected out of H, as a set when both have
    dualities); 'enumerate_smaller' requires at most 10^4 elements in the
    smaller factor.
    """
    if strategy == "stabilizer":
        if not K.stabilizer_of:
            raise VerifyError("stabilizer strategy needs a constructed stabilizer K")
        if H.action_tag == DUALITY == K.action_tag:
            return _swap_extension(H, K)
        inter = H
        for i, pt in enumerate(K.stabilizer_of):
            inter = stabilizer_generators(inter, pt, name=f"{H.name}_cap_{K.name}_{i}")
        return inter.with_name(f"{H.name} n {K.name}")
    if strategy == "enumerate_smaller":
        small, big = (H, K) if H.order() <= K.order() else (K, H)
        if small.order() > _ENUMERATION_CAP:
            raise DomainCapError(f"enumeration of {small.order()} elements", small.order(), _ENUMERATION_CAP)
        big_chain, small_chain = big.chain(), small.chain()
        members = [Tracked(row) for block in small_chain.element_perm_blocks()
                   for row in block[big_chain.contains_block(block)]]
        name = f"{H.name} n {K.name}"
        # the members are the whole intersection, so its order is known
        chain = StabChain.build(small_chain.domain, members, order=len(members), bound=len(members), name=name)
        return GroupSpec.of_chain(name, chain)
    raise VerifyError(f"unknown intersection strategy {strategy!r}")


def _swap_extension(H: GroupSpec, K: GroupSpec) -> GroupSpec:
    """H n K for H and K with duality elements, K the stabilizer of the
    antiflag (v, w): the setwise stabilizer of {v, w} on V - 0 and V* - 0,
    which is H_(v,w), or twice it when H swaps v and w.  Both stages come
    from chains whose first basic orbits hold their points (``point_chain``):
    H's at v, and H_v's at w, which also gives H_(v,w).  Any swap is s
    followed by u, for u in H mapping v to w and s in H_v mapping w to
    u^-1(v), each read off its chain's level-0 transversals; twice
    |H_(v,w)| is then a known order, which the chain takes as its bound."""
    v, w = K.stabilizer_of
    name, home = f"{H.name} n {K.name}", H.home_domain()
    chain_v, u_v = point_chain(H, v)
    H_v = GroupSpec.of_chain(f"{H.name}_cap_{K.name}_0", chain_v.conjugate(u_v, from_level=1))
    chain_w, u_w = point_chain(H_v, w)
    pointwise = GroupSpec.of_chain(name, chain_w.conjugate(u_w, from_level=1))

    def mover(chain: StabChain, u_p: Tracked, y: int) -> Tracked | None:
        # u_p^-1 then u_y carries the chain's point to y through its first base point
        u_y = chain.first_transversal(y)
        return None if u_y is None else t_compose(u_p.inverse(), u_y)

    u = mover(chain_v, u_v, home.index_of_point(w))
    s = None if u is None else mover(chain_w, u_w, int(u.inverse().perm[home.index_of_point(v)]))
    if s is None:
        return pointwise
    order = 2 * pointwise.order()
    chain = StabChain.build(home, pointwise.tracked_generators() + [t_compose(s, u)], order=order, bound=order,
                            name=name)
    return GroupSpec.of_chain(name, chain)


# ---------------------------------------------------------------------------
# claim setups


@dataclass
class ClaimSetup:
    g_order: int
    H: GroupSpec
    K: GroupSpec
    # the conjugation suites' ambient, whose random elements conjugate H and K
    G: GroupSpec | None = None
    orbit_seed: ActionPoint | None = None
    orbit_target: int | None = None
    # H^inf's expected value: rows 4-7's and 14's core, row 12a's certified A5
    tight_target: GroupSpec | None = None
    # row 13: a second witness for H, from the other conjugacy class
    extra_witnesses: tuple[GroupSpec, ...] = ()
    # conjugation suites: the order and element-order spectrum of every
    # conjugate intersection H^x n K^y
    conjugate_intersection: tuple[int, frozenset] | None = None
    # facts for the report's notes; the tight runner adds its reading
    notes: dict = field(default_factory=dict)

    @property
    def witnesses(self) -> tuple[GroupSpec, ...]:
        return (self.H, *self.extra_witnesses)


def _e1(n):
    return (1,) + (0,) * (n - 1)


def _stab_setup(kind: str, n: int, q: int, H: GroupSpec, **kw) -> ClaimSetup:
    """H against K = the ``kind`` stabilizer in SL_n(q), in an ambient of
    order |SL_n(q)|; the orbit seed is K's defining point, e1 for a vector
    and (e1, e1) for an antiflag, and the target is its SL_n(q)-orbit."""
    K = stabilizer_subgroup(kind, n, q)
    if kind == "vector":
        seed, target = ActionPoint(VECTOR, _e1(n)), q**n - 1
    else:
        seed, target = ActionPoint(PAIR, (_e1(n), _e1(n))), (q**n - 1) * q ** (n - 1)
    return ClaimSetup(orders.sl_order(n, q), H, K, orbit_seed=seed, orbit_target=target, **kw)


# rows 4-7 by their digit: q, H's adjoined element, and K's outer element,
# which doubles the ambient's order
_ANTIFLAG_ROWS = {
    "4": (2, "psi", None),
    "5": (2, "psi_gamma", "phi_gamma"),
    "6": (4, "psi", "phi"),
    "7": (4, "psi_gamma", "phi_gamma"),
}


def build_setup(claim: FactorizationClaim, rng) -> ClaimSetup:
    row, p = claim.row, claim.params
    if row in ("1SL", "1Sp"):
        a, b, q = p["a"], p["b"], p["q"]
        if (row, a, b, q) == ("1Sp", 4, 1, 2):
            H = sporadic.sp4_2_derived()
        else:
            H = ext_subgroup(row[1:], a, b, q)
        return _stab_setup("vector", a * b, q, H)
    if row == "2":
        b, q = p["b"], p["q"]
        H = g2_derived(q) if b == 1 else ext_subgroup("G2", 6, b, q)
        return _stab_setup("vector", 6 * b, q, H)
    if row == "3":
        n, q = p["n"], p["q"]
        H = sporadic.sp4_2_derived() if (n, q) == (4, 2) else classical_generators("Sp", n, q)
        return _stab_setup("antiflag", n, q, H)
    if row[:1] in _ANTIFLAG_ROWS and row[1:] in ("SL", "Sp"):
        m, inner = p["m"], row[1:]
        n = 2 * m
        q, h_extra, k_extra = _ANTIFLAG_ROWS[row[:1]]
        core = ext_subgroup(inner, m, 2, q)
        setup = _stab_setup("antiflag", n, q, psi_extension(core, h_extra), tight_target=core)
        if k_extra is not None:
            suffix = "phi" if k_extra == "phi" else "2"
            setup.K = adjoin(setup.K, [automorphism_element(k_extra, n, q)],
                             f"stab_antiflag_SL_{n}({q}).{suffix}", 2)
            if setup.K.action_tag == VECTOR and q > 2 and math.gcd(n, q - 1) == 1:
                # K's linear elements lie in SL_n(q), whose scalars are
                # mu_gcd(n, q-1), here trivial: the known-order chain on the
                # q - 1 times smaller projective domain certifies the same |K|.
                # Only K's order reads that chain; intersect uses stabilizer_of.
                # A duality K keeps V - 0 and V* - 0, which are smaller still.
                setup.K.action_tag = PROJECTIVE
            setup.g_order *= 2
        return setup
    if row == "8":
        return _stab_setup("antiflag", 6, p["q"], g2_generators(p["q"]))
    if row in ("8Sp", "neg_sp"):
        q = p["q"] if row == "8Sp" else 2
        H = g2_generators(q) if row == "8Sp" else g2_derived(2)
        K = sp_pointwise_factor(6, q)
        return ClaimSetup(orders.sp_order(6, q), H, K)
    if row == "neg_sl":
        return _stab_setup("antiflag", 6, 2, g2_derived(2))
    if row == "14":
        core = ext_subgroup("G2", 6, 2, 2)
        return _stab_setup("antiflag", 12, 2, psi_extension(core, "psi"), tight_target=core)
    if row == "15":
        # degree 16.7M ambient: generators only, witness-grade claimed order
        H = psi_extension(ext_subgroup("G2", 6, 2, 4), "psi", certify=False)
        return ClaimSetup(
            2 * orders.sl_order(12, 4), H, H,
            orbit_seed=ActionPoint(VECTOR, _e1(12)), orbit_target=4**12 - 1,
        )
    if row == "9":
        X, Y = _two_a5(sporadic.psl2_9(), rng)
        return ClaimSetup(360, X, Y, notes={
            "witnesses": "certified literals",
            "classes": "distinct conjugate A5s meet in A4 (order 12), so an intersection of order 10 "
                       "separates the classes",
        })
    if row == "10":
        # the literals lie in the phi_gamma extension of PSL_3(4); the report
        # names it, and says nothing of the other two
        Z = sporadic.psl3_4_ext("phi_gamma")
        X = sporadic.subgroup_from_literal(Z, sporadic.PGL2_7, "PGL2_7", f"PGL_2(7)<{Z.name}", rng)
        Y = sporadic.subgroup_from_literal(Z, sporadic.M10, "M10", f"M10<{Z.name}", rng)
        return ClaimSetup(2 * orders.psl_order(3, 4), X, Y,
                          notes={"extension": Z.name, "witnesses": "certified literals"})
    # the conjugation suites: H^x n K^y for random x, y of G, with H^x and
    # K^y on G's chain domain; suite 1 reads K^y as the stabilizer of y(e1)
    samples = {"samples": p.get("samples", 50)}
    if row == "suite1":
        return _stab_setup("vector", 4, 2, ext_subgroup("SL", 2, 2, 2), G=classical_generators("SL", 4, 2),
                           conjugate_intersection=(4, frozenset({1, 2})), notes=samples)
    if row == "suite9":
        Z = sporadic.psl2_9()
        X, Y = _two_a5(Z, rng)
        return ClaimSetup(360, X, Y, G=Z, conjugate_intersection=(10, frozenset({1, 2, 5})), notes=samples)
    if row in ("11a", "11b"):
        A7 = sporadic.subgroup_from_literal(classical_generators("SL", 4, 2), sporadic.A7, "A7", "A7<SL_4(2)", rng)
        kind = "antiflag" if row == "11a" else "vector"
        return _stab_setup(kind, 4, 2, A7, notes={"witnesses": "certified literals"})
    if row in ("12a", "12b", "12c"):
        Z = sporadic.psl_n3_projective(4)
        Y = _projective_point_stabilizer(Z)
        X, info = _row12_x(row, Z, rng)
        setup = ClaimSetup(
            Z.order(), X, Y,
            orbit_seed=ActionPoint(PROJECTIVE, _e1(4)), orbit_target=(3**4 - 1) // 2,
            notes={"search": info, "y_is_point_stabilizer": Y.order() == 3**3 * orders.sl_order(3, 3)},
        )
        if row == "12a":
            # Table 2 types the S5 witness's residual only as A5: X' must have its order and spectrum
            A5 = setup.tight_target = derived_subgroup(X, rng=rng, name="A5 inside the S5 witness")
            if A5.order() != 60 or sporadic.exact_spectrum(A5.chain()) != sporadic.SPECTRA["A5"]:
                raise CertificationError(f"{A5.name}: {X.name}' has order {A5.order()}, not that of A5")
            setup.notes["residual_reading"] = {"x_residual_order": A5.order(), "matches_A5_entry": True}
        return setup
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
    Y.stabilizer_of = [ActionPoint(PROJECTIVE, _e1(Z.n))]
    return Y


def _two_a5(Z: GroupSpec, rng) -> tuple[GroupSpec, GroupSpec]:
    """Row 9's two literal A5 < PSL_2(9), one from each class."""
    return (sporadic.subgroup_from_literal(Z, sporadic.A5_FIRST, "A5", "A5 class 1", rng),
            sporadic.subgroup_from_literal(Z, sporadic.A5_SECOND, "A5", "A5 class 2", rng))


def _row12_x(row, Z, rng):
    if row == "12a":
        # only two of the four S5 classes factorize: the witness is transitive
        # on the 40 projective points, and a second literal S5 is not
        X = sporadic.subgroup_from_literal(Z, sporadic.S5_TRANSITIVE, "S5", "S5<PSL_4(3)", rng)
        X_bad = sporadic.subgroup_from_literal(Z, sporadic.S5_INTRANSITIVE, "S5", "S5'<PSL_4(3)", rng)
        bad_orbit = orbit(X_bad, ActionPoint(PROJECTIVE, _e1(4))).size
        return X, {"kind": "S5", "witnesses": "certified literals",
                   "non_factorizing_witness": {"orbit_length": bad_orbit}}
    if row == "12b":
        return sporadic.locate_4xa5(rng)
    return sporadic.locate_2_4_a5(rng)


# ---------------------------------------------------------------------------
# strategy runners: each takes (claim, setup, rng, max_points) and returns an
# untimed result; verify_claim looks them up in STRATEGIES and times them


def _run_identity(claim, setup, rng, max_points) -> StrategyResult:
    report = identity_for_claim(claim)
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
    return StrategyResult("identity", "pass" if report.ok else "fail",
                          intersection_order=report.intersection_order, details=details)


def _run_order(claim, setup, rng, max_points) -> StrategyResult:
    """The counting identity for each witness; the first one's figures are reported."""
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
    return StrategyResult("order", verdict, intersection_order=found[0]["intersection_order"], details=details)


def _run_enumerate(claim, setup, rng, max_points) -> StrategyResult:
    inter = intersect(setup.H, setup.K, "enumerate_smaller")
    i_order = inter.order()
    verdict = "pass" if setup.g_order * i_order == setup.H.order() * setup.K.order() else "fail"
    return StrategyResult("enumerate", verdict, intersection_order=i_order,
                          details={"intersection_hint": structure_hint(inter)})


def _orbit_strategy(name, setup, groups, details, max_points) -> StrategyResult:
    """Each group's orbit of the seed must reach the target.

    A target above the budget is skipped before any BFS, with the reason;
    an orbit that outgrows a target the budget holds cannot equal it, so
    that strategy fails with the budget error as its reason.  An orbit
    stopped before it passed the target (its keyspace masks priced over
    the budget) decides nothing and is skipped with that reason.
    """
    if setup.orbit_target > max_points:
        return StrategyResult(name, "skipped", details={
            **details, "reason": "orbit target exceeds the memory budget", "max_points": max_points})
    try:
        sizes = [orbit(H, setup.orbit_seed, max_points=max_points).size for H in groups]
    except OrbitBudgetError as exc:
        details.update(reason=str(exc), max_points=max_points)
        return StrategyResult(name, "fail" if exc.partial_size > setup.orbit_target else "skipped",
                              details=details)
    verdict = "pass" if all(size == setup.orbit_target for size in sizes) else "fail"
    return StrategyResult(name, verdict, orbit_sizes=sizes, details=details)


def _run_orbit(claim, setup, rng, max_points) -> StrategyResult:
    details = {"target": setup.orbit_target, "seed": setup.orbit_seed.tag}
    return _orbit_strategy("orbit", setup, setup.witnesses, details, max_points)


def _run_vector_orbit(claim, setup, rng, max_points) -> StrategyResult:
    details = {"target": setup.orbit_target, "witness_only": True}
    return _orbit_strategy("vector_orbit", setup, (setup.H,), details, max_points)


def _run_tight(claim, setup, rng, max_points) -> StrategyResult:
    ok = check_tight(setup.H, setup.tight_target, rng=rng)
    return StrategyResult("tight", "pass" if ok else "fail", details={"target": setup.tight_target.name})


def check_tight(H_located: GroupSpec, X_catalog: GroupSpec, rng=None) -> bool:
    """H^inf = X^inf as subgroups, by normality.

    R = X^inf (``solvable_residual``) is perfect, so R <= H gives
    R <= H^inf, and H^inf is normal in H.  The check refuses unless R lies
    in H and H normalizes R, then walks H's derived series to the first
    term D whose generators' commutators lie in R: D' <= R <= D^inf = H^inf.
    A series that ends at a perfect term first is refused.  When H/R is
    abelian, D = H and H takes no derived step.  Conjugates and
    commutators are sifted into R's chain on H's derived domain.
    """
    R = solvable_residual(X_catalog, rng=rng)
    if R.chain().domain is not derived_domain(H_located):
        raise VerifyError(f"tight: {R.name} does not act on the derived domain of {H_located.name}")
    if not H_located.includes(R):
        return False
    in_r = R.chain().contains_tracked
    return all(map(in_r, conjugates(H_located, R.tracked_generators(H_located.home_domain())))) and any(
        all(map(in_r, commutators(D))) for D in derived_series(H_located, rng=rng))


def _conjugate_intersections(setup, rng, samples: int):
    """Per sample x, y of G: H^x's orbit size of y(omega) in suite 1, else
    None, and the order and spectrum of H^x n K^y, from one factor's block
    of elements and their orders (H in suite 1, else the smaller): x's image
    of H_p, p = x^-1 y(omega), off column p, or of the h in H with
    (y^-1 x) h (y^-1 x)^-1 in K, the block relabeled and sifted into K."""
    gchain, omega, H, K = setup.G.chain(), setup.orbit_seed, setup.H, setup.K
    dom = gchain.domain
    small, big = (H, K) if omega is not None or H.order() <= K.order() else (K, H)
    # x and y are permutations of G's chain domain, so the groups they
    # conjugate must live on it
    if any(g.chain().domain is not dom for g in ((H,) if omega is not None else (H, K))):
        raise VerifyError("conjugation suite: the conjugated groups must share G's chain domain")
    if small.order() > _ENUMERATION_CAP:
        raise DomainCapError(f"enumeration of {small.order()} elements", small.order(), _ENUMERATION_CAP)
    chain = small.chain()
    block = np.concatenate(list(chain.element_perm_blocks()))
    block_orders = chain.support().orders(np.concatenate(list(chain.words()), axis=1))
    for _ in range(samples):
        x, y = gchain.random_element(rng), gchain.random_element(rng)
        if omega is not None:
            p = int(x.inverse().perm[y.perm[dom.index_of_point(omega)]])
            members = block[:, p] == p
            size = len(set(block[:, p].tolist()))
        else:
            s, t = (x, y) if small is H else (y, x)
            pi = t.inverse().perm[s.perm]
            relabeled = np.empty_like(block)
            relabeled[:, pi] = pi[block]
            members, size = big.chain().contains_block(relabeled), None
        yield size, int(members.sum()), frozenset(block_orders[members].tolist())


def _run_conjugation(claim, setup, rng, max_points) -> StrategyResult:
    """Conjugation stability: each sampled H^x n K^y (``_conjugate_intersections``)
    passes the orbit or product identity and has the order and spectrum of H n K."""
    samples = claim.params.get("samples", 50)
    base_inter, spectrum = setup.conjugate_intersection
    stable = spectra_ok = 0
    for size, order, spec in _conjugate_intersections(setup, rng, samples):
        ok = size == setup.orbit_target if size is not None else (
            setup.g_order * order == setup.H.order() * setup.K.order())
        stable += ok and order == base_inter
        spectra_ok += spec == spectrum
    return StrategyResult("conjugation", "pass" if stable == samples else "fail", intersection_order=base_inter,
                          details={"samples": samples, "stable": stable, "spectra_preserved": spectra_ok})


# Each check's runner, its role and its needs.  A vote decides the claim:
# every vote that ran must pass.  A veto can only fail it.  A need is the
# reason the check is skipped without it, and a test, met(claim, setup), of
# what the runner reads.  A check missing here is skipped as unknown, and
# neither votes nor vetoes.
VOTE, VETO = "vote", "veto"
_SEED = ("no orbit seed", lambda c, s: s.orbit_seed is not None)
_STABILIZER_K = ("K is not a constructed stabilizer", lambda c, s: bool(s.K.stabilizer_of))
_LEMMA = ("no lemma identity for this row", lambda c, s: identity_for_claim(c) is not None)
STRATEGIES = {
    "identity": (_run_identity, VOTE, [_LEMMA]),
    "order": (_run_order, VOTE, [_STABILIZER_K]),
    "enumerate": (_run_enumerate, VOTE, []),
    "orbit": (_run_orbit, VOTE, [_SEED]),
    "conjugation": (_run_conjugation, VOTE, [("no conjugation suite",
                                              lambda c, s: s.conjugate_intersection is not None)]),
    "tight": (_run_tight, VETO, [("no tightness target", lambda c, s: s.tight_target is not None)]),
    "vector_orbit": (_run_vector_orbit, VETO, [_SEED]),
}


# ---------------------------------------------------------------------------
# claim-level verification


def claim_seed(claim_id: str, base_seed: int) -> int:
    return (zlib.crc32(claim_id.encode()) ^ base_seed) & 0x7FFFFFFF


def verify_claim(claim: FactorizationClaim, base_seed: int = 20260810,
                 record_timings: bool = False, max_orbit_points: int = DEFAULT_MAX_POINTS) -> VerificationReport:
    """Run each of claim.checks from STRATEGIES on one set-up and one
    stream; with record_timings, each strategy's wall_ms is its call's
    wall time, else 0, so default reports are byte-reproducible.  A check
    is skipped here: unknown, with an unmet need, or past a cap."""
    seed = claim_seed(claim.claim_id, base_seed)
    rng = Stream(seed)
    strategies: list[StrategyResult] = []
    setup = None
    if any(c != "identity" for c in claim.checks):
        try:
            setup = build_setup(claim, rng)
        except (CertificationError, ConstructionError) as exc:
            failed = "failed certification" if isinstance(exc, CertificationError) else "failed"
            return VerificationReport(claim.claim_id, claim.params, [], None,
                                      "fail", reason=f"construction {failed}: {exc}")
        except DomainCapError as exc:
            # a set-up past the enumeration cap decides nothing
            return VerificationReport(claim.claim_id, claim.params, [], None,
                                      "skipped", reason=f"construction skipped: {exc}")
    notes = setup.notes if setup is not None else {}
    if claim.notes:
        notes["claim"] = claim.notes
    for check in claim.checks:
        t0 = time.perf_counter()
        run, _, needs = STRATEGIES.get(check, (None, None, []))
        unmet = "unknown check" if run is None else next((why for why, met in needs if not met(claim, setup)), None)
        try:
            result = (StrategyResult(check, "skipped", details={"reason": unmet}) if unmet is not None
                      else run(claim, setup, rng, max_orbit_points))
        except DomainCapError as exc:
            result = StrategyResult(check, "skipped",
                                    details={"reason": str(exc), "domain_size": exc.size, "max_size": exc.cap})
        if record_timings:
            result.wall_ms = int((time.perf_counter() - t0) * 1000)
        strategies.append(result)
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
    roles = [STRATEGIES.get(s.name, (None, None))[1] for s in strategies]
    votes = [s for s, role in zip(strategies, roles) if role == VOTE and s.verdict != "skipped"]
    vetoes = [s for s, role in zip(strategies, roles) if role == VETO and s.verdict == "fail"]
    holds = agreement and bool(votes) and all(s.verdict == "pass" for s in votes)
    failed = any(s.verdict == "fail" for s in votes) or not agreement
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
        overall = "pass" if holds and not vetoes else "fail"
    tight_result = None
    for s in strategies:
        if s.name == "tight" and s.verdict != "skipped":
            tight_result = s.verdict == "pass"
    if not agreement:
        notes["strategy_disagreement"] = sorted(inter_orders)
    return VerificationReport(claim.claim_id, claim.params, strategies, tight_result, overall, notes=notes)
