"""Locators for the sporadic subgroups of the catalog's fixed rows.

Subgroups are located, not classified: randomized two-generator searches
with explicit certificates (exact order via a stabilizer chain, exact
element-order spectrum by enumeration), literal witnesses certified on
every use (row 12a's two S5, row 12c's normalizing elements, row 13's
module), algebraic constructions where one exists (the scalar-extended
icosahedral lift, the extraspecial normalizer), and brute-force conjugacy
or module certificates for "two classes" claims.  Every search takes a
seeded RNG and reports the tries it used; tests/provenance.py holds the
derivations of the literals.
"""

from __future__ import annotations

import numpy as np

from . import orders
from .constructors import ConstructionError, classical_generators
from .gf import make_field
from .grpcore import (
    BLOCK_ENTRIES,
    CertificationError,
    GroupSpec,
    StabChain,
    Tracked,
    element_order_perm,
    element_orders,
    shared_domain,
    solvable_residual,
    t_compose,
    tracked_power,
)
from .linalg import (
    ANTIFLAG,
    PROJECTIVE,
    VECTOR,
    GroupElement,
    Mat,
    blowup,
    det,
    mat_identity,
)

SPECTRA = {
    "A5": frozenset({1, 2, 3, 5}),
    "S5": frozenset({1, 2, 3, 4, 5, 6}),
    "SL2_5": frozenset({1, 2, 3, 4, 5, 6, 10}),
    "A7": frozenset({1, 2, 3, 4, 5, 6, 7}),
    "PGL2_7": frozenset({1, 2, 3, 4, 6, 7, 8}),
    "M10": frozenset({1, 2, 3, 4, 5, 8}),
    "PSL2_13": frozenset({1, 2, 3, 6, 7, 13}),
}

TARGET_ORDERS = {
    "A5": 60,
    "S5": 120,
    "SL2_5": 120,
    "A7": 2520,
    "PGL2_7": 336,
    "M10": 720,
    "PSL2_13": 1092,
}

SEARCH_PATTERNS = {
    "A5": [(2, 3, 5)],
    "S5": [(2, 5, 6), (2, 5, 4), (2, 4, 5)],
    "SL2_5": [(4, 3, None), (4, 6, None), (4, 10, None)],
    "A7": [(7, 3, None), (7, 5, None), (6, 7, None)],
    "PGL2_7": [(2, 3, 8)],
    "M10": [(8, 2, None), (8, 3, None), (8, 4, None), (8, 5, None)],
    "PSL2_13": [(2, 3, 13)],
}


class SearchBudgetError(CertificationError):
    pass


def _random_of_order(chain: StabChain, rng, k: int, tries: int = 600):
    for _ in range(tries):
        t = chain.random_element(rng)
        m = element_order_perm(t.perm)
        if m % k == 0:
            return tracked_power(t, m // k)
    return None


def _walk_rejects(a: Tracked, b: Tracked, allowed, rng, samples: int = 16) -> bool:
    cur = a
    for _ in range(samples):
        cur = t_compose(cur, a if rng.integers(2) else b)
        if element_order_perm(cur.perm) not in allowed:
            return True
    return False


def exact_spectrum(chain: StabChain) -> frozenset[int]:
    """The set of element orders of a small group, by enumeration."""
    return frozenset(o for block in chain.element_perm_blocks() for o in element_orders(block))


def certify_subgroup(domain, tracked: list[Tracked], kind: str, rng, name: str) -> StabChain:
    """The chain of <tracked> on the domain, certified to be of the given kind:
    exact order TARGET_ORDERS[kind] and exact element-order spectrum
    SPECTRA[kind].  Raises CertificationError otherwise.

    The generators come with no a-priori upper bound group, so the
    known-order build alone is not a certificate: post_verify rejects proper
    supergroups whose orbit products pass through the target on the way up.
    """
    sub = StabChain.build(
        domain,
        [],
        known_order=TARGET_ORDERS[kind],
        rng=rng,
        name=name,
        max_stall=250,
        tracked=tracked,
        post_verify=True,
    )
    if exact_spectrum(sub) != SPECTRA[kind]:
        raise CertificationError(f"{name}: element orders are not those of {kind}")
    return sub


def two_generator_search(
    ambient: GroupSpec,
    kind: str,
    rng,
    max_tries: int = 4000,
    name: str | None = None,
) -> tuple[GroupSpec, dict]:
    """Find a subgroup of the given isomorphism certificate inside the ambient.

    Certificate: ``certify_subgroup``.  The returned info dict records tries
    and the generator pattern used.
    """
    chain = ambient.chain()
    domain = chain.domain
    allowed = SPECTRA[kind]
    patterns = SEARCH_PATTERNS[kind]
    for attempt in range(max_tries):
        oa, ob, oprod = patterns[attempt % len(patterns)]
        a = _random_of_order(chain, rng, oa)
        b = _random_of_order(chain, rng, ob)
        if a is None or b is None:
            continue
        if oprod is not None and element_order_perm(t_compose(a, b).perm) != oprod:
            continue
        if _walk_rejects(a, b, allowed, rng):
            continue
        try:
            sub = certify_subgroup(domain, [a, b], kind, rng, f"{kind} candidate")
        except CertificationError:
            continue
        spec = GroupSpec(
            name or f"{kind}<{ambient.name}",
            ambient.n,
            ambient.spec,
            [a.elem, b.elem],
            claimed_order=TARGET_ORDERS[kind],
            provenance=f"two_generator_search({kind}) in {ambient.name}, try {attempt + 1}",
            action_tag=ambient.action_tag,
        )
        spec._chain = sub
        info = {"tries": attempt + 1, "pattern": (oa, ob, oprod), "kind": kind}
        return spec, info
    raise SearchBudgetError(f"search budget exhausted locating {kind} in {ambient.name} ({max_tries} tries)")


def subgroups_conjugate(ambient: GroupSpec, A: GroupSpec, B: GroupSpec) -> bool:
    """Brute-force conjugacy decision on the ambient's permutation domain;
    only for small ambient orders."""
    if ambient.order() > 50000:
        raise ConstructionError("brute-force conjugacy is desk scale only")
    if A.order() != B.order():
        return False
    achain, bchain = ambient.chain(), B.chain()
    if bchain.domain is not achain.domain:
        raise ConstructionError("conjugacy test needs B on the ambient's domain")
    gens = [Tracked(g, achain.domain.perm_of(g)) for g in A.generators]
    for z in achain.elements():
        zi = z.inverse()
        if all(bchain.contains_tracked(t_compose(t_compose(zi, g), z)) for g in gens):
            return True
    return False


# ---------------------------------------------------------------------------
# the concrete ambients of the fixed rows


def psl2_9() -> GroupSpec:
    base = classical_generators("SL", 2, 9)
    return GroupSpec(
        "PSL_2(9)",
        2,
        base.spec,
        base.generators,
        claimed_order=360,
        provenance="projective image of SL_2(9) on the 10 projective points",
        action_tag=PROJECTIVE,
    )


def psl3_4_ext(outer: str) -> GroupSpec:
    """PSL_3(4).2 candidates: outer in {phi, gamma, phi_gamma}, antiflag action."""
    from .constructors import automorphism_element

    base = classical_generators("SL", 3, 4)
    extra = automorphism_element(outer, 3, 4)
    return GroupSpec(
        f"PSL_3(4).2[{outer}]",
        3,
        base.spec,
        base.generators + [extra],
        claimed_order=2 * orders.psl_order(3, 4),
        provenance=f"antiflag image of SL_3(4) extended by {outer}",
        action_tag=ANTIFLAG,
    )


def psl_n3_projective(n: int) -> GroupSpec:
    base = classical_generators("SL", n, 3)
    return GroupSpec(
        f"PSL_{n}(3)",
        n,
        base.spec,
        base.generators,
        claimed_order=orders.psl_order(n, 3),
        provenance=f"projective image of SL_{n}(3)",
        action_tag=PROJECTIVE,
    )


# ---------------------------------------------------------------------------
# per-target locators


def locate_two_a5_classes(rng) -> tuple[GroupSpec, GroupSpec, dict]:
    """Two non-conjugate A5 subgroups of PSL_2(9) ~ A6."""
    Z = psl2_9()
    first, info1 = two_generator_search(Z, "A5", rng, name="A5 class 1")
    tries = [info1]
    for k in range(40):
        cand, info2 = two_generator_search(Z, "A5", rng, name="A5 class 2")
        if not subgroups_conjugate(Z, first, cand):
            info = {
                "first": info1,
                "second": info2,
                "rejected_conjugates": k,
            }
            return first, cand, info
    raise SearchBudgetError("could not find a second A5 class in PSL_2(9)")


def locate_a7(rng) -> tuple[GroupSpec, dict]:
    Z = classical_generators("SL", 4, 2)
    return two_generator_search(Z, "A7", rng, name="A7<SL_4(2)")


def locate_pgl27_m10(rng, max_tries: int = 2500) -> dict:
    """Try each index-2 extension of PSL_3(4); report which admit both subgroups."""
    report = {}
    for outer in ("gamma", "phi", "phi_gamma"):
        Z = psl3_4_ext(outer)
        Z.order()
        entry = {"ambient": Z.name}
        try:
            x, info_x = two_generator_search(Z, "PGL2_7", rng, max_tries=max_tries, name=f"PGL2_7<{Z.name}")
            entry["pgl27"] = (x, info_x)
        except SearchBudgetError:
            entry["pgl27"] = None
        try:
            y, info_y = two_generator_search(Z, "M10", rng, max_tries=max_tries, name=f"M10<{Z.name}")
            entry["m10"] = (y, info_y)
        except SearchBudgetError:
            entry["m10"] = None
        report[outer] = entry
    return report


# Two S5 < PSL_4(3) for row 12a, each as the images of a pair of matrices of
# SL_4(3): the first is transitive on the 40 projective points, the second
# is not.  tests/provenance.py derives them; s5_from_literal certifies them
# on every use.
S5_TRANSITIVE = (
    [[1, 0, 1, 2], [1, 0, 2, 2], [1, 2, 0, 0], [0, 2, 1, 2]],
    [[1, 0, 2, 1], [1, 1, 0, 2], [2, 1, 0, 1], [2, 2, 0, 2]],
)
S5_INTRANSITIVE = (
    [[2, 1, 2, 1], [0, 1, 1, 2], [2, 2, 0, 1], [2, 2, 1, 0]],
    [[2, 0, 0, 2], [0, 1, 2, 2], [2, 0, 1, 2], [0, 2, 0, 0]],
)


def _sl4_3_elements(mats, name: str) -> list[GroupElement]:
    F3 = make_field(3, 1)
    elements = [GroupElement(Mat(F3, m)) for m in mats]
    if any(det(g.mat) != 1 for g in elements):
        raise CertificationError(f"{name}: a literal matrix is not in SL_4(3)")
    return elements


def s5_from_literal(mats, name: str, rng) -> GroupSpec:
    """The projective image in PSL_4(3) of the group generated by the given
    4x4 GF(3) matrices, certified to be S5: each matrix has determinant 1,
    and the chain on the 40 projective points passes ``certify_subgroup``."""
    gens = _sl4_3_elements(mats, name)
    F3 = gens[0].spec
    domain = shared_domain(PROJECTIVE, F3, 4)
    spec = GroupSpec(name, 4, F3, gens, claimed_order=120, provenance="certified literal", action_tag=PROJECTIVE)
    spec._chain = certify_subgroup(domain, [Tracked(g, domain.perm_of(g)) for g in gens], "S5", rng, name)
    return spec


def locate_4xa5(rng) -> tuple[GroupSpec, dict]:
    """4 x A5 < PSL_4(3): scalar-extended icosahedral lift, blown up from GF(9).

    SL_2(5) < SL_2(9) is located by search; blowing up to SL_4(3) and
    adjoining the blown GF(9) scalar gives a group of linear order 480
    whose projective image is 4 x A5 of order 240.
    """
    F9 = make_field(3, 2)
    F3 = make_field(3, 1)
    inner_ambient = classical_generators("SL", 2, 9)
    icosa, info = two_generator_search(inner_ambient, "SL2_5", rng, name="SL_2(5)<SL_2(9)")
    gens = [blowup(g.mat, 0, F3) for g in icosa.generators]
    scalar = Mat(F9, np.diag([F9.primitive_elem, F9.primitive_elem]))
    gens.append(blowup(scalar, 0, F3))
    # the blown scalar is central here (it commutes with every blown GF(9)
    # matrix), so |<S, c>| = |S| |c| / |S n <c>| = 120*8/2 exactly
    lift = GroupSpec(
        "(8oSL_2(5)) lift",
        4,
        F3,
        gens,
        claimed_order=480,
        provenance="blow-up of SL_2(5)<SL_2(9) with the blown GF(9) scalar",
        action_tag=VECTOR,
    )
    domain = shared_domain(VECTOR, F3, 4)
    lift._chain = StabChain.build(domain, gens, known_order=480, rng=rng, name=lift.name, post_verify=True)
    projective = GroupSpec(
        "4xA5<PSL_4(3)",
        4,
        F3,
        gens,
        claimed_order=240,
        provenance=lift.provenance + "; projective image",
        action_tag=PROJECTIVE,
    )
    pdomain = shared_domain(PROJECTIVE, F3, 4)
    projective._chain = StabChain.build(pdomain, gens, known_order=240, rng=rng, name=projective.name, post_verify=True)
    info = dict(info, linear_order=480)
    return projective, info


def _tensor(a: Mat, b: Mat) -> Mat:
    spec = a.spec
    n1, n2 = a.n, b.n
    out = np.zeros((n1 * n2, n1 * n2), dtype=np.int64)
    for i in range(n1):
        for j in range(n1):
            if a.a[i, j]:
                block = spec.mul_table[int(a.a[i, j]), b.a].astype(np.int64)
                out[i * n2 : (i + 1) * n2, j * n2 : (j + 1) * n2] = block
    return Mat(spec, out)


def _extraspecial_32(spec) -> list[GroupElement]:
    """D8 o Q8 in its 4-dimensional representation over GF(3)."""
    neg1 = spec.neg(1)
    sigma = Mat(spec, [[0, 1], [1, 0]])
    delta = Mat(spec, [[1, 0], [0, neg1]])
    qi = Mat(spec, [[0, neg1], [1, 0]])
    qj = Mat(spec, [[1, 1], [1, neg1]])
    ident2 = mat_identity(spec, 2)
    return [
        GroupElement(_tensor(sigma, ident2)),
        GroupElement(_tensor(delta, ident2)),
        GroupElement(_tensor(ident2, qi)),
        GroupElement(_tensor(ident2, qj)),
    ]


def _extraspecial_chain(gens: list[GroupElement], domain) -> StabChain:
    """E = <gens> on the domain, built with no claimed order, so the Schreier
    pass makes the chain's order exact; E must have order 32."""
    chain = StabChain.build(domain, gens, name="2^(1+4)")
    if chain.order() != 32:
        raise ConstructionError(f"extraspecial group has order {chain.order()}, not 32")
    return chain


def _normalizes(echain: StabChain, t: Tracked) -> bool:
    """Whether t^-1 e t lies in E for every generator e of E, sifted as
    permutations of E's domain, on which matrices act faithfully."""
    eperms = np.stack([e.perm for e in echain.originals])
    # row k applies t^-1, then e_k, then t
    return bool(echain.contains_block(t.perm[eperms[:, t.inverse().perm]]).all())


def require_minus_identity(group: GroupSpec) -> None:
    """Over GF(3) the scalars are +-I, so a linear group's projective image
    has half its order exactly when -I lies in the group; sift -I in the
    group's certified chain."""
    spec = group.spec
    minus_one = GroupElement(Mat(spec, np.eye(group.n, dtype=np.int64) * spec.neg(1)))
    if not group.contains(minus_one):
        raise CertificationError(f"{group.name}: -I is not in the group, so its projective image "
                                 f"does not have half its order {group.order()}")


# Elements of SL_4(3) that normalize E = 2^(1+4) and, with E, generate a
# group whose solvable residual is 2^(1+4).A5 of order 1920.
# tests/provenance.py derives them; normalizer_residual certifies them on
# every use.
E_NORMALIZERS = (
    [[2, 2, 1, 2], [1, 2, 1, 1], [0, 1, 1, 0], [1, 0, 0, 2]],
    [[1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 0, 2], [1, 2, 2, 1]],
)


def normalizer_residual(mats, rng) -> GroupSpec:
    """The solvable residual of <E, mats> for E = 2^(1+4) < SL_4(3),
    certified to be 2^(1+4).A5: E's chain has order 32, each matrix lies in
    SL_4(3) and normalizes E, the residual has order 1920 and contains -I."""
    F3 = make_field(3, 1)
    egens = _extraspecial_32(F3)
    domain = shared_domain(VECTOR, F3, 4)
    echain = _extraspecial_chain(egens, domain)
    extra = _sl4_3_elements(mats, "2^(1+4) normalizer")
    if not all(_normalizes(echain, Tracked(t, domain.perm_of(t))) for t in extra):
        raise CertificationError("a literal element does not normalize 2^(1+4)")
    candidate = GroupSpec("N(2^(1+4))", 4, F3, egens + extra, action_tag=VECTOR,
                          provenance=f"2^(1+4) extended by {len(extra)} normalizing elements")
    residual = solvable_residual(candidate, rng=rng)
    if residual.order() != 1920:
        raise CertificationError(f"the normalizer's solvable residual has order {residual.order()}, not 1920")
    require_minus_identity(residual)
    return residual


def locate_2_4_a5(rng) -> tuple[GroupSpec, dict]:
    """2^4:A5 < PSL_4(3) as the extraspecial normalizer's solvable residual."""
    residual = normalizer_residual(E_NORMALIZERS, rng)
    projective = GroupSpec(
        "2^4:A5<PSL_4(3)",
        4,
        residual.spec,
        residual.generators,
        claimed_order=960,
        provenance=residual.provenance + "; solvable residual, projective image",
        action_tag=PROJECTIVE,
    )
    info = {"normalizing_elements": len(E_NORMALIZERS), "linear_order": 1920}
    return projective, info


def _sl2_13_group():
    """SL_2(13) as 2x2 tuples, enumerated by BFS from the identity under
    right multiplication by C (order 13) and S (S^2 = -1).

    Returns C, S, tmul, the elements in BFS order, their index, and the
    BFS tree: the levels as index arrays, and for each element i > 0 the
    (parent, generator) edge with elements[i] = elements[parent] * gen.
    """
    P = 13
    def tmul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % P,
            (a[0] * b[1] + a[1] * b[3]) % P,
            (a[2] * b[0] + a[3] * b[2]) % P,
            (a[2] * b[1] + a[3] * b[3]) % P,
        )
    C = (1, 1, 0, 1)
    S = (0, P - 1, 1, 0)
    els = [(1, 0, 0, 1)]
    index = {els[0]: 0}
    parent, gen, levels = [0], [0], [[0]]
    while levels[-1]:
        new = []
        for i in levels[-1]:
            for gi, h in enumerate((C, S)):
                x = tmul(els[i], h)
                if x not in index:
                    index[x] = len(els)
                    new.append(len(els))
                    els.append(x)
                    parent.append(i)
                    gen.append(gi)
        levels.append(new)
    tree = ([np.array(lv, dtype=np.int64) for lv in levels[:-1]],
            np.array(parent, dtype=np.int64), np.array(gen, dtype=np.int64))
    return C, S, tmul, els, index, tree


def _inv2(t):
    P = 13
    d = (t[0] * t[3] - t[1] * t[2]) % P
    di = pow(d, -1, P)
    return (t[3] * di % P, -t[1] * di % P, -t[2] * di % P, t[0] * di % P)


# The images of _sl2_13_group's C and S in a 6-dim GF(3) module of
# SL_2(13).  tests/provenance.py derives them; certify_psl2_13_module
# certifies them on every use.
_PSL2_13_C6 = np.array([
    [0, 1, 0, 2, 2, 1],
    [0, 2, 2, 1, 0, 1],
    [0, 1, 0, 1, 1, 1],
    [0, 0, 1, 0, 1, 2],
    [2, 0, 0, 2, 0, 0],
    [0, 0, 1, 0, 2, 0],
], dtype=np.int64)
_PSL2_13_S6 = np.array([
    [2, 2, 0, 1, 2, 1],
    [1, 2, 2, 2, 2, 0],
    [0, 1, 0, 1, 2, 2],
    [0, 2, 1, 0, 1, 2],
    [1, 1, 0, 1, 0, 0],
    [0, 0, 1, 1, 0, 2],
], dtype=np.int64)


def certify_psl2_13_module(c6: np.ndarray, s6: np.ndarray):
    """Certify that C -> c6, S -> s6 is a GF(3) representation rho of SL_2(13)
    whose projective image has order at most |PSL_2(13)| = 1092.

    rho is built on all 2184 elements along the BFS tree of
    ``_sl2_13_group``, so rho(x g) = rho(x) rho(g) holds on the tree edges
    by construction; checking it on every edge of the Cayley graph (every
    x, both generators) proves rho a homomorphism.  With s6^2 = -I, the
    image of the central -1 is the scalar -I, so the projective image is a
    homomorphic image of PSL_2(13).  Returns rho as a (2184, 6, 6) int8
    array (an entry of a product of two reduced matrices is at most
    6 * 2 * 2 = 24 before its reduction), with the group data (C, S, tmul,
    index) that indexes it.
    """
    C, S, tmul, els, index, (levels, parent, gen) = _sl2_13_group()
    if len(els) != 2184:
        raise CertificationError(f"<C, S> has {len(els)} elements, not |SL_2(13)| = 2184")
    gens = (np.stack([c6, s6]) % 3).astype(np.int8)
    rho = np.empty((len(els), 6, 6), dtype=np.int8)
    rho[0] = np.eye(6, dtype=np.int8)
    for level in levels[1:]:
        rho[level] = rho[parent[level]] @ gens[gen[level]] % 3
    for gi, h in enumerate((C, S)):
        right = np.array([index[tmul(x, h)] for x in els], dtype=np.int64)
        if not np.array_equal(rho[right], rho @ gens[gi] % 3):
            raise CertificationError("the PSL_2(13) module matrices do not define a representation of SL_2(13)")
    if not np.array_equal(gens[1] @ gens[1] % 3, 2 * np.eye(6, dtype=np.int64)):
        raise CertificationError("s6^2 != -I: the central -1 of SL_2(13) does not map to -I")
    return rho, (C, S, tmul, index)


def locate_two_psl2_13(rng) -> tuple[GroupSpec, GroupSpec, dict]:
    """Two PSL_2(13) < PSL_6(3), one per conjugacy class.

    The first witness is generated by the literal module matrices
    ``_PSL2_13_C6``, ``_PSL2_13_S6`` (derived in tests/provenance.py).
    ``certify_psl2_13_module`` proves its projective order at most 1092,
    so a chain build that reaches 1092 is exact without a Schreier pass;
    the exact spectrum and a (2,3,13) generator pair are checked on top.
    The second witness is its determinant -1 conjugate, whose chain is
    relabeled, not rebuilt.

    The classes are fused in the full projective general group, so no
    orbit statistic can separate them; instead the class split is certified
    exactly: the 6-dim module is absolutely irreducible (commutant of
    dimension 1), it admits no intertwiner to its outer twist, hence every
    normalizing matrix has determinant 1, and the witnesses differ by a
    determinant -1 conjugation.
    """
    from . import meataxe as mx

    F3 = make_field(3, 1)
    c6, s6 = _PSL2_13_C6, _PSL2_13_S6
    rho, (C2, S2, tmul, index) = certify_psl2_13_module(c6, s6)
    gens1 = [GroupElement(Mat(F3, c6)), GroupElement(Mat(F3, s6))]
    X1 = GroupSpec(
        "PSL_2(13)a<PSL_6(3)",
        6,
        F3,
        gens1,
        claimed_order=1092,
        provenance="certified literal 6-dim module of SL_2(13)",
        action_tag=PROJECTIVE,
    )
    pdom = shared_domain(PROJECTIVE, F3, 6)
    X1._chain = StabChain.build(pdom, gens1, known_order=1092, rng=rng, name=X1.name)
    # the elements of order 2 and 3 are kept in the narrowest dtype that
    # holds a point of the 364-point domain
    narrow = np.min_scalar_type(pdom.size)
    spectrum, of_order = set(), {2: [], 3: []}
    for block in X1.chain().element_perm_blocks():
        orders = np.array(element_orders(block))
        spectrum.update(orders.tolist())
        for k, found in of_order.items():
            found.append(block[orders == k].astype(narrow))
    if spectrum != SPECTRA["PSL2_13"]:
        raise SearchBudgetError("PSL_2(13) witness has a wrong spectrum")
    # presentation-style certificate: |a| = 2, |b| = 3, |ab| = 13, with the
    # b taken in blocks of at most BLOCK_ENTRIES entries
    threes = np.concatenate(of_order[3])
    step = max(1, BLOCK_ENTRIES // threes.shape[1])
    if not any(13 in element_orders(threes[lo : lo + step, a])
               for a in np.concatenate(of_order[2]) for lo in range(0, len(threes), step)):
        raise SearchBudgetError("no (2,3,13) generator pair inside the witness")
    # second class: conjugate by a determinant -1 matrix (2 is self-inverse mod 3)
    Tdiag = np.diag([2, 1, 1, 1, 1, 1]).astype(np.int64)
    gens2 = [GroupElement(Mat(F3, (Tdiag @ g.mat.a @ Tdiag) % 3)) for g in gens1]
    X2 = GroupSpec(
        "PSL_2(13)b<PSL_6(3)",
        6,
        F3,
        gens2,
        claimed_order=1092,
        provenance=X1.provenance + "; det(-1) conjugate",
        action_tag=PROJECTIVE,
    )
    X2._chain = X1.chain().conjugate(GroupElement(Mat(F3, Tdiag)))
    # class-split certificate
    commutant = mx.commutant_dimension([c6, s6], [c6, s6], 3)
    # outer twist: conjugation by diag(2,1) of GL_2(13), pushed through rho
    delta = (2, 0, 0, 1)
    twisted = [rho[index[tmul(_inv2(delta), tmul(g2, delta))]] for g2 in (C2, S2)]
    outer_hom = mx.commutant_dimension(twisted, [c6, s6], 3)
    info = {
        "strategy": "module chop + determinant class",
        "commutant_dimension": commutant,
        "outer_twist_intertwiner_dimension": outer_hom,
        "classes_split_certified": commutant == 1 and outer_hom == 0,
        "presentation_orders": (2, 3, 13),
    }
    if not info["classes_split_certified"]:
        raise SearchBudgetError("class-split certificate failed for PSL_2(13)")
    return X1, X2, info


def sp4_2_derived() -> GroupSpec:
    """Sp_4(2)' of order 360 inside SL_4(2)."""
    from .grpcore import derived_subgroup

    base = classical_generators("Sp", 4, 2)
    der = derived_subgroup(base, name="Sp_4(2)'")
    if der.order() != 360:
        raise CertificationError(f"Sp_4(2)' computed order {der.order()}")
    return GroupSpec(
        "Sp_4(2)'",
        4,
        base.spec,
        der.generators,
        claimed_order=360,
        provenance="derived subgroup of Sp_4(2)",
    )
