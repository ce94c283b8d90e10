"""The sporadic subgroups of the catalog's fixed rows.

Subgroups are given, not classified: literal witnesses certified on every
use (rows 9, 10, 11, 12a and 12b's SL_2(5) through ``subgroup_from_literal``,
row 12c's normalizing elements, row 13's module), algebraic constructions
where one exists (the scalar-extended icosahedral lift, the extraspecial
normalizer), and module certificates for row 13's two classes, which run
on the core: ``frontier_levels`` over the regular action of SL_2(13) on
pairs stands in for an enumeration of the group.  Each subgroup's spec is
made from the chain that certifies it (``GroupSpec.of_chain``).  The verify
path searches nothing: tests/provenance.py holds the derivations of the
literals, some of which call the seeded ``two_generator_search`` kept here.
"""

from __future__ import annotations

import numpy as np

from . import orders
from .actions import Action, PermDomain
from .constructors import ConstructionError, classical_generators
from .gf import make_field
from .grpcore import (
    CertificationError,
    GroupSpec,
    StabChain,
    Tracked,
    element_order_perm,
    frontier_levels,
    shared_domain,
    solvable_residual,
    t_compose,
    tracked_power,
)
from .linalg import (
    ANTIFLAG,
    PAIR,
    PROJECTIVE,
    VECTOR,
    ActionPoint,
    GroupElement,
    Mat,
    blowup,
    commutant_dimension,
    det,
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
    """The set of element orders of a small group, read off its elements'
    words on its support (``Support.orders``)."""
    support = chain.support()
    return frozenset(o for words in chain.words() for o in support.orders(words).tolist())


def certify_subgroup(domain, tracked: list[Tracked], kind: str, rng, name: str) -> StabChain:
    """The chain of <tracked> on the domain, certified to be of the given kind:
    exact order TARGET_ORDERS[kind] and exact element-order spectrum
    SPECTRA[kind].  Raises CertificationError otherwise.

    The generators come with no a-priori upper bound group, so the target
    order is no bound: the build takes it as the order alone, and its
    Schreier pass rejects proper supergroups whose orbit products pass
    through the target on the way up.
    """
    sub = StabChain.build(domain, tracked, order=TARGET_ORDERS[kind], rng=rng, name=name)
    if exact_spectrum(sub) != SPECTRA[kind]:
        raise CertificationError(f"{name}: element orders are not those of {kind}")
    return sub


def literal_elements(spec, literal, name: str) -> list[GroupElement]:
    """The elements of a literal over the field: each entry is a
    ``(matrix, fa, dual)`` tuple or a bare matrix.  A singular matrix is
    refused with CertificationError before any permutation is read."""
    elements = []
    for entry in literal:
        mat, fa, dual = entry if isinstance(entry, tuple) else (entry, 0, 0)
        m = Mat(spec, mat)
        if det(m) == 0:
            raise CertificationError(f"{name}: a literal matrix is singular")
        elements.append(GroupElement(m, fa, dual))
    return elements


def subgroup_from_literal(Z: GroupSpec, literal, kind: str, name: str, rng) -> GroupSpec:
    """The subgroup of the ambient Z generated by a literal, certified to be
    of the given kind: no matrix is singular, each element sifts into Z's
    certified chain, and the generated group passes ``certify_subgroup`` on
    Z's domain.  tests/provenance.py derives the literals."""
    gens = literal_elements(Z.spec, literal, name)
    chain = Z.chain()
    tracked = [Tracked(chain.domain.perm_of(g), g) for g in gens]
    if not all(chain.contains_tracked(t) for t in tracked):
        raise CertificationError(f"{name}: a literal element is not in {Z.name}")
    return GroupSpec.of_chain(name, certify_subgroup(chain.domain, tracked, kind, rng, name))


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
        info = {"tries": attempt + 1, "pattern": (oa, ob, oprod), "kind": kind}
        return GroupSpec.of_chain(name or f"{kind}<{ambient.name}", sub), info
    raise SearchBudgetError(f"search budget exhausted locating {kind} in {ambient.name} ({max_tries} tries)")


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
        action_tag=PROJECTIVE,
    )


# ---------------------------------------------------------------------------
# certified literals: tests/provenance.py derives them, and
# subgroup_from_literal certifies each one on every use

# row 9: two A5 < PSL_2(9), as pairs of SL_2(9) matrices in GF(9) encodings;
# their intersection of order 10 shows the classes differ, since distinct
# conjugate A5s in A6 meet in A4
A5_FIRST = ([[6, 5], [2, 3]], [[5, 4], [2, 8]])
A5_SECOND = ([[7, 8], [7, 5]], [[1, 6], [5, 0]])

# row 10: PGL_2(7) and M10 in PSL_3(4).2[phi_gamma], as SL_3(4) matrices in
# GF(4) encodings, meeting in order 6; an entry (matrix, 1, 1) carries
# phi_gamma's field automorphism and duality
PGL2_7 = (([[0, 3, 3], [2, 1, 3], [2, 2, 1]], 1, 1), [[3, 0, 2], [0, 3, 0], [1, 1, 0]])
M10 = (([[1, 3, 1], [1, 2, 0], [2, 2, 0]], 1, 1), [[1, 2, 0], [0, 3, 0], [3, 2, 2]])

# row 11: A7 < SL_4(2)
A7 = (
    [[0, 0, 1, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 1, 1, 1]],
    [[0, 0, 1, 1], [0, 0, 0, 1], [1, 1, 1, 0], [0, 1, 0, 1]],
)

# row 12a: two S5 < PSL_4(3), as pairs of SL_4(3) matrices: the first is
# transitive on the 40 projective points, the second is not
S5_TRANSITIVE = (
    [[1, 0, 1, 2], [1, 0, 2, 2], [1, 2, 0, 0], [0, 2, 1, 2]],
    [[1, 0, 2, 1], [1, 1, 0, 2], [2, 1, 0, 1], [2, 2, 0, 2]],
)
S5_INTRANSITIVE = (
    [[2, 1, 2, 1], [0, 1, 1, 2], [2, 2, 0, 1], [2, 2, 1, 0]],
    [[2, 0, 0, 2], [0, 1, 2, 2], [2, 0, 1, 2], [0, 2, 0, 0]],
)

# row 12b: SL_2(5) < SL_2(9), in GF(9) encodings
SL2_5 = ([[0, 2], [1, 0]], [[4, 4], [2, 7]])



def locate_4xa5(rng) -> tuple[GroupSpec, dict]:
    """4 x A5 < PSL_4(3): scalar-extended icosahedral lift, blown up from GF(9).

    SL_2(5) < SL_2(9) is the certified literal ``SL2_5``; blowing it up to
    SL_4(3) and adjoining the blown GF(9) scalar gives a group of linear
    order 480 whose projective image is 4 x A5 of order 240.
    """
    F9 = make_field(3, 2)
    F3 = make_field(3, 1)
    icosa = subgroup_from_literal(classical_generators("SL", 2, 9), SL2_5, "SL2_5", "SL_2(5)<SL_2(9)", rng)
    gens = [blowup(g.mat, 0, F3) for g in icosa.generators]
    scalar = Mat(F9, np.diag([F9.primitive_elem, F9.primitive_elem]))
    gens.append(blowup(scalar, 0, F3))
    # the blown scalar is central here (it commutes with every blown GF(9)
    # matrix), so |<S, c>| = |S| |c| / |S n <c>| = 120*8/2 exactly; the
    # linear build certifies that order and is not kept
    StabChain.build(shared_domain(VECTOR, F3, 4), gens, order=480, rng=rng, name="(8oSL_2(5)) lift")
    name = "4xA5<PSL_4(3)"
    projective = StabChain.build(shared_domain(PROJECTIVE, F3, 4), gens, order=240, rng=rng, name=name)
    info = {"kind": "SL2_5", "witnesses": "certified literals", "linear_order": 480}
    return GroupSpec.of_chain(name, projective), info


def _extraspecial_32(spec) -> list[GroupElement]:
    """D8 o Q8 in its 4-dimensional representation over GF(3), as Kronecker
    products of 2x2 matrices."""
    sigma = [[0, 1], [1, 0]]
    delta = [[1, 0], [0, 2]]
    qi = [[0, 2], [1, 0]]
    qj = [[1, 1], [1, 2]]
    ident2 = np.eye(2, dtype=np.int64)
    pairs = [(sigma, ident2), (delta, ident2), (ident2, qi), (ident2, qj)]
    return [GroupElement(Mat(spec, np.kron(a, b) % 3)) for a, b in pairs]


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
    extra = literal_elements(F3, mats, "2^(1+4) normalizer")
    if any(det(g.mat) != 1 for g in extra):
        raise CertificationError("a literal 2^(1+4) normalizer is not in SL_4(3)")
    if not all(_normalizes(echain, Tracked(domain.perm_of(t), t)) for t in extra):
        raise CertificationError("a literal element does not normalize 2^(1+4)")
    candidate = GroupSpec("N(2^(1+4))", 4, F3, egens + extra, action_tag=VECTOR)
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
        action_tag=PROJECTIVE,
    )
    info = {"normalizing_elements": len(E_NORMALIZERS), "linear_order": 1920}
    return projective, info


# C (order 13) and S (S^2 = -1), generators of SL_2(13)
_SL2_13_GENS = ([[1, 1], [0, 1]], [[0, 12], [1, 0]])

# The images of C and S in a 6-dim GF(3) module of SL_2(13).
# tests/provenance.py derives them; certify_psl2_13_module certifies them
# on every use.
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


def certify_psl2_13_module(c6: np.ndarray, s6: np.ndarray) -> list[np.ndarray]:
    """Certify that C -> c6, S -> s6 is a GF(3) representation rho of SL_2(13)
    whose projective image has order at most |PSL_2(13)| = 1092, and return
    its outer twist.

    SL_2(13) acts freely on the 2,184 pairs (v, w) of GF(13)^2 with
    w(v) = 1: an element fixing (v, w) fixes v and, of determinant 1, acts
    trivially on ker w.  So an orbit of p = (e1, e1*) under <C, S> that
    covers all 2,184 = |SL_2(13)| pairs shows <C, S> = SL_2(13), and x -> xp
    indexes the group by the pairs.  A generator's permutation is left
    multiplication there, so rho filled along the orbit's BFS tree, one
    wave at a time, has rho(g x) = rho(g) rho(x) on the tree edges by
    construction; checking it on every edge of the Cayley graph (every x,
    both generators) proves rho a homomorphism.  With s6^2 = -I, the image
    of the central -1 is the scalar -I, so the projective image is a
    homomorphic image of PSL_2(13).

    rho is a (2184, 6, 6) int8 array (an entry of a product of two reduced
    matrices is at most 6 * 2 * 2 = 24 before its reduction) that does not
    outlive the call: the return value is copies of rho(d^-1 C d) and
    rho(d^-1 S d) for d = diag(2, 1) in GL_2(13), the module twisted by the
    outer automorphism.
    """
    F13 = make_field(13, 1)
    domain = PermDomain(Action(PAIR, F13, 2))
    p = ActionPoint(PAIR, ((1, 0), (1, 0)))
    base = domain.index_of_point(p)
    perms = [domain.perm_of(GroupElement(Mat(F13, g))) for g in _SL2_13_GENS]
    seen, par = np.zeros(domain.size, dtype=bool), np.full(domain.size, -1, dtype=np.int32)
    waves = list(frontier_levels([perm.__getitem__ for perm in perms], seen, base, par))
    if (size := int(seen.sum())) != 2184:
        raise CertificationError(f"<C, S> has {size} elements, not |SL_2(13)| = 2184")
    gens = (np.stack([c6, s6]) % 3).astype(np.int8)
    inv = np.argsort(perms, axis=1)  # the generators' inverse permutations
    rho = np.empty((domain.size, 6, 6), dtype=np.int8)
    rho[base] = np.eye(6, dtype=np.int8)
    for wave in waves[1:]:
        # a point of a wave is the image of its tree parent, one wave back,
        # under the generator that reached it first
        gi = par[wave]
        rho[wave] = gens[gi] @ rho[inv[gi, wave]] % 3
    for perm, gen in zip(perms, gens):
        if not np.array_equal(rho[perm], gen @ rho % 3):
            raise CertificationError("the PSL_2(13) module matrices do not define a representation of SL_2(13)")
    if not np.array_equal(gens[1] @ gens[1] % 3, 2 * np.eye(6, dtype=np.int64)):
        raise CertificationError("s6^2 != -I: the central -1 of SL_2(13) does not map to -I")
    # d^-1 = diag(7, 1), since 2 * 7 = 1 mod 13
    d, d_inv = np.diag([2, 1]), np.diag([7, 1])
    twist = [GroupElement(Mat(F13, d_inv @ np.array(g) @ d % 13)) for g in _SL2_13_GENS]
    return [rho[domain.perm_of(x)[base]].copy() for x in twist]


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
    F3 = make_field(3, 1)
    c6, s6 = _PSL2_13_C6, _PSL2_13_S6
    twisted = certify_psl2_13_module(c6, s6)
    gens1 = [GroupElement(Mat(F3, c6)), GroupElement(Mat(F3, s6))]
    pdom = shared_domain(PROJECTIVE, F3, 6)
    name1 = "PSL_2(13)a<PSL_6(3)"
    X1 = GroupSpec.of_chain(name1, StabChain.build(pdom, gens1, order=1092, bound=1092, rng=rng, name=name1))
    # the spectrum, and a presentation-style certificate: |a| = 2, |b| = 3,
    # |ab| = 13, with ab walked as a's word, then b's, for every b at once
    support, words = X1.chain().support(), np.concatenate(list(X1.chain().words()), axis=1)
    orders = support.orders(words)
    if set(orders.tolist()) != SPECTRA["PSL2_13"]:
        raise CertificationError("PSL_2(13) witness has a wrong spectrum")
    if not any(13 in support.orders(a[:, None], words[:, orders == 3]) for a in words[:, orders == 2].T):
        raise CertificationError("no (2,3,13) generator pair inside the witness")
    # second class: conjugate by a determinant -1 matrix; its generators are
    # the relabeled permutations, with no matrix
    Tdiag = np.diag([2, 1, 1, 1, 1, 1]).astype(np.int64)
    X2 = GroupSpec.of_chain("PSL_2(13)b<PSL_6(3)", X1.chain().conjugate(GroupElement(Mat(F3, Tdiag))))
    # class-split certificate
    commutant = commutant_dimension([c6, s6], [c6, s6], 3)
    outer_hom = commutant_dimension(twisted, [c6, s6], 3)
    info = {
        "strategy": "module chop + determinant class",
        "commutant_dimension": commutant,
        "outer_twist_intertwiner_dimension": outer_hom,
        "classes_split_certified": commutant == 1 and outer_hom == 0,
        "presentation_orders": (2, 3, 13),
    }
    if not info["classes_split_certified"]:
        raise CertificationError("class-split certificate failed for PSL_2(13)")
    return X1, X2, info


def sp4_2_derived() -> GroupSpec:
    """Sp_4(2)' of order 360 inside SL_4(2)."""
    from .grpcore import derived_subgroup

    base = classical_generators("Sp", 4, 2)
    der = derived_subgroup(base, name="Sp_4(2)'")
    if der.order() != 360:
        raise CertificationError(f"Sp_4(2)' computed order {der.order()}")
    return der
