"""Provenance of the package's literal witnesses: the derivations that found them.

The verify path never runs these.  It certifies each literal on every use
(``sporadic.subgroup_from_literal``, ``sporadic.normalizer_residual``,
``sporadic.certify_psl2_13_module``), and ``tests/test_sporadic.py``
reruns each derivation at its seed and compares the result with the
literal.  Rows 12a and 12c draw their candidates from a matrix-level walk
driven by a seeded numpy Generator, not from a stabilizer chain, so a change
to the chain internals cannot change which literal a derivation finds.
Rows 9, 10, 11 and 12b take ``sporadic.two_generator_search``'s pairs,
which draw from the ambient's chain, so a change to the chain internals or
to ``streams.Stream``, which seeds the chain's build by its name, can change
what those derivations find.  Each candidate is accepted by the
package's own certificate.
"""

from contextlib import contextmanager

import numpy as np

import oracles
from grpfact import grpcore
from grpfact import meataxe as mx
from grpfact import sporadic
from grpfact.constructors import classical_generators
from grpfact.factorize import intersect
from grpfact.grpcore import CertificationError, Tracked, element_order_perm, orbit, shared_domain
from grpfact.linalg import PROJECTIVE, VECTOR, ActionPoint, GroupElement, Mat, sl_compose, sl_inverse

ROW12_SEED = 3
PSL2_13_SEED = 4
SEARCH_SEED = 5


def matrix_walk(gens: list[np.ndarray], p: int, rng):
    """An endless walk in the group generated by the matrices over GF(p):
    each step multiplies by a generator drawn from rng."""
    cur = np.eye(gens[0].shape[0], dtype=np.int64)
    while True:
        cur = cur @ gens[rng.integers(len(gens))] % p
        yield cur


def _mat_power(m: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=np.int64)
    for _ in range(e):
        out = out @ m % p
    return out


def _sl4_3():
    G = classical_generators("SL", 4, 3)
    return G.spec, [g.mat.a.astype(np.int64) for g in G.generators]


def derive_row12a_s5s(rng) -> tuple[tuple, tuple]:
    """Two S5 < PSL_4(3), one transitive on the 40 projective points and one
    not, each as a pair (a, b) of SL_4(3) matrices: a of projective order 2,
    b of order 5, ab of order 4, accepted by ``sporadic.subgroup_from_literal``.

    a and b are powers of walk elements of projective order divisible by 2
    and 5; the first accepted pair of each kind is returned."""
    F3, gens = _sl4_3()
    domain = shared_domain(PROJECTIVE, F3, 4)
    e1 = ActionPoint(PROJECTIVE, (1, 0, 0, 0))

    def order(m):
        return element_order_perm(domain.perm_of(GroupElement(Mat(F3, m))))

    def of_order(walk, k):
        while True:
            m = next(walk)
            o = order(m)
            if o % k == 0:
                return _mat_power(m, o // k, 3)

    Z = sporadic.psl_n3_projective(4)
    walk = matrix_walk(gens, 3, rng)
    found = {}
    while len(found) < 2:
        a, b = of_order(walk, 2), of_order(walk, 5)
        if order(a @ b % 3) != 4:
            continue
        try:
            X = sporadic.subgroup_from_literal(Z, (a, b), "S5", "S5 candidate", None)
        except CertificationError:
            continue
        found.setdefault(orbit(X, e1).size == 40, (a.tolist(), b.tolist()))
    return found[True], found[False]


def derive_row12c_normalizers(rng) -> tuple:
    """Elements of SL_4(3) that normalize E = 2^(1+4) and, with E, give
    ``sporadic.normalizer_residual`` its 2^(1+4).A5: walk elements that
    normalize E (``sporadic._normalizes``) are collected until the residual
    of <E, collected> passes that certificate."""
    F3, gens = _sl4_3()
    domain = shared_domain(VECTOR, F3, 4)
    echain = sporadic._extraspecial_chain(sporadic._extraspecial_32(F3), domain)
    found = []
    for m in matrix_walk(gens, 3, rng):
        g = GroupElement(Mat(F3, m))
        if not sporadic._normalizes(echain, Tracked(domain.perm_of(g), g)):
            continue
        found.append(m.tolist())
        try:
            sporadic.normalizer_residual(found, None)
        except CertificationError:
            continue
        return tuple(found)


# ---------------------------------------------------------------------------
# rows 9, 10, 11 and 12b: two-generator searches


def _as_literal(group) -> tuple:
    """A group's generators as a literal: a bare matrix for a linear
    element, a (matrix, fa, dual) tuple otherwise."""
    return tuple(g.mat.a.tolist() if g.is_linear() else (g.mat.a.tolist(), g.fa, g.dual)
                 for g in group.generators)


@contextmanager
def matrix_shadow():
    """While the block runs, every product and inverse of elements that hold
    their matrices holds its composed matrix too.

    A permutation of projective points or antiflags fixes an element only up
    to a scalar, so the package reads no matrix off one.  The literals of
    rows 9 and 10 are the lifts that composing the factors' matrices gives,
    and the searches that found them draw elements of projective and
    antiflag chains; the shadow gives ``Tracked.matrix`` those lifts.
    The chain's random walk, its sift and its random elements compose raw
    permutation arrays, so the shadow also swaps in their Tracked oracles
    (``oracles.TrackedRattle``, ``oracles.tracked_sift``,
    ``oracles.tracked_random_element``), which draw the same samples,
    residues and elements."""
    compose, inverse = grpcore.t_compose, grpcore.Tracked.inverse
    rattle, sift, element = grpcore.Rattle, grpcore.StabChain._sift, grpcore.StabChain.random_element

    def shadow_compose(a, b):
        out = compose(a, b)
        if a.elem is not None and b.elem is not None:
            out.elem = sl_compose(a.elem, b.elem)
        return out

    def shadow_inverse(t):
        out = inverse(t)
        if out.elem is None and t.elem is not None:
            out.elem = sl_inverse(t.elem)
        return out

    grpcore.t_compose, grpcore.Tracked.inverse = shadow_compose, shadow_inverse
    grpcore.Rattle, grpcore.StabChain._sift = oracles.TrackedRattle, oracles.tracked_sift
    grpcore.StabChain.random_element = oracles.tracked_random_element
    try:
        yield
    finally:
        grpcore.t_compose, grpcore.Tracked.inverse = compose, inverse
        grpcore.Rattle, grpcore.StabChain._sift = rattle, sift
        grpcore.StabChain.random_element = element


def derive_searched_literal(Z, kind: str, rng) -> tuple:
    """The generators of ``sporadic.two_generator_search``'s first subgroup
    of the given kind in Z, accepted by ``sporadic.subgroup_from_literal``;
    the search runs under ``matrix_shadow``."""
    with matrix_shadow():
        found, _ = sporadic.two_generator_search(Z, kind, rng)
    literal = _as_literal(found)
    sporadic.subgroup_from_literal(Z, literal, kind, f"{kind} candidate", None)
    return literal


def derive_pair_meeting_in(Z, kinds: tuple[str, str], order: int, rng) -> tuple[tuple, tuple]:
    """The first pair of searched literals, one of each kind, whose
    enumerated intersection has the given order."""
    while True:
        literals = [derive_searched_literal(Z, kind, rng) for kind in kinds]
        X, Y = (sporadic.subgroup_from_literal(Z, lit, kind, kind, None) for lit, kind in zip(literals, kinds))
        if intersect(X, Y, "enumerate_smaller").order() == order:
            return tuple(literals)


def derive_row9_a5s(rng) -> tuple[tuple, tuple]:
    """Two A5 < PSL_2(9) ~ A6 from different classes: distinct conjugate A5s
    meet in A4 (order 12), so an intersection of order 10 separates them."""
    return derive_pair_meeting_in(sporadic.psl2_9(), ("A5", "A5"), 10, rng)


def derive_row10_pair(rng) -> tuple[tuple, tuple]:
    """PGL_2(7) and M10 in PSL_3(4).2[phi_gamma] that meet in order 6."""
    return derive_pair_meeting_in(sporadic.psl3_4_ext("phi_gamma"), ("PGL2_7", "M10"), 6, rng)


def derive_row11_a7(rng) -> tuple:
    return derive_searched_literal(classical_generators("SL", 4, 2), "A7", rng)


def derive_row12b_sl2_5(rng) -> tuple:
    return derive_searched_literal(classical_generators("SL", 2, 9), "SL2_5", rng)


# ---------------------------------------------------------------------------
# row 13: the 6-dim GF(3) module of SL_2(13)


def _tmul(a, b):
    """The product of two elements of SL_2(13) as 2x2 tuples (a, b, c, d)."""
    return (
        (a[0] * b[0] + a[1] * b[2]) % 13,
        (a[0] * b[1] + a[1] * b[3]) % 13,
        (a[2] * b[0] + a[3] * b[2]) % 13,
        (a[2] * b[1] + a[3] * b[3]) % 13,
    )


def _inv2(t):
    d = pow((t[0] * t[3] - t[1] * t[2]) % 13, -1, 13)
    return (t[3] * d % 13, -t[1] * d % 13, -t[2] * d % 13, t[0] * d % 13)


def _sl2_13_group():
    """SL_2(13) as 2x2 tuples: C, S and all 2,184 elements, enumerated from
    the identity under right multiplication by C and S."""
    c, s = (tuple(x for row in g for x in row) for g in sporadic._SL2_13_GENS)
    elements, seen = [(1, 0, 0, 1)], {(1, 0, 0, 1)}
    for x in elements:
        for h in (c, s):
            y = _tmul(x, h)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    assert len(elements) == 2184
    return c, s, elements


def _sl2_13_torus_module():
    """156-dim GF(3) module induced from the order-2 character of the C14 torus."""
    C, S, elements = _sl2_13_group()
    ident = elements[0]
    els = sorted(elements)
    def torder(t):
        k, x = 1, t
        while x != ident:
            x = _tmul(x, t)
            k += 1
        return k
    gen14 = next(t for t in els if torder(t) == 14)
    torus, x = [], ident
    for _ in range(14):
        torus.append(x)
        x = _tmul(x, gen14)
    tor_exp = {t: k for k, t in enumerate(torus)}
    coset_rep: dict[tuple, tuple] = {}
    cos_of: dict[tuple, int] = {}
    for g in els:
        key = min(_tmul(t, g) for t in torus)
        if key not in coset_rep:
            coset_rep[key] = g
            cos_of[key] = len(cos_of)
    keys = sorted(cos_of, key=lambda k: cos_of[k])
    reps = [coset_rep[k] for k in keys]
    def module_matrix(h):
        M = np.zeros((156, 156), dtype=np.int64)
        for j, r in enumerate(reps):
            gh = _tmul(r, h)
            i = cos_of[min(_tmul(t, gh) for t in torus)]
            t = _tmul(gh, _inv2(reps[i]))
            M[i, j] = 1 if tor_exp[t] % 2 == 0 else 2
        return M
    return module_matrix(C), module_matrix(S), (C, S, _tmul)




def derive_psl2_13_module(rng) -> tuple[np.ndarray, np.ndarray]:
    """Provenance of the literal module: 6-dim GF(3) matrices for the SL_2(13)
    generators C (order 13) and S (S^2 = -1) of ``sporadic._SL2_13_GENS``.

    The faithful 6-dim module is a defect-zero constituent: it is carved out
    of (14-dim faithful submodule) tensor (7-dim submodule of the signed
    projective-line module) by three ``meataxe.chop_for_dimension`` hunts
    for minimal-polynomial kernel spins, which draw from rng.  SL_2(13) has
    two 6-dim modules over GF(3), swapped by the outer automorphism, and
    the seed decides which one the hunts carve out; both have the same
    image group.  At PSL2_13_SEED this returns the literal
    ``sporadic._PSL2_13_C6``, ``sporadic._PSL2_13_S6``.
    """
    MC, MS, (C2, S2, tmul) = _sl2_13_torus_module()
    U14 = mx.chop_for_dimension([MC, MS], 14, 3, rng)
    if U14 is None:
        raise sporadic.SearchBudgetError("no 14-dim faithful constituent found")
    A14 = [mx.action_on(U14, g, 3) for g in (MC, MS)]
    # signed projective-line module: quadratic character of the Borel
    P = 13
    def act(A, x):
        if x == "inf":
            num, den = A[0], A[2]
        else:
            num, den = (A[0] * x + A[1]) % P, (A[2] * x + A[3]) % P
        return "inf" if den % P == 0 else num * pow(den, -1, P) % P
    pts = list(range(P)) + ["inf"]
    idx = {x: i for i, x in enumerate(pts)}
    reps = {a: (a, 1, 1, 0) for a in range(P)}
    reps["inf"] = (1, 0, 0, 1)
    def signed_matrix(g):
        M = np.zeros((14, 14), dtype=np.int64)
        for x in pts:
            gx = act(g, x)
            b = tmul(_inv2(reps[gx]), tmul(g, reps[x]))
            sgn = pow(b[0] % P, (P - 1) // 2, P)
            M[idx[gx], idx[x]] = 1 if sgn == 1 else 2
        return M
    B14 = [signed_matrix(g) for g in (C2, S2)]
    U7 = mx.chop_for_dimension(B14, 7, 3, rng)
    if U7 is None:
        raise sporadic.SearchBudgetError("no 7-dim constituent in the signed line module")
    A7 = [mx.action_on(U7, g, 3) for g in B14]
    T = [np.kron(A14[k], A7[k]) % 3 for k in range(2)]
    U6 = mx.chop_for_dimension(T, 6, 3, rng)
    if U6 is None:
        raise sporadic.SearchBudgetError("no 6-dim constituent in the 14x7 tensor")
    A6 = [mx.action_on(U6, g, 3) for g in T]
    return A6[0], A6[1]
