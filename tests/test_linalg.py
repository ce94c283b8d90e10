"""Matrix/semilinear element algebra: composition law, actions, blow-up."""

import random

import numpy as np
import pytest

from grpfact import gf, linalg
from grpfact.linalg import (
    ANTIFLAG,
    PAIR,
    PROJECTIVE,
    VECTOR,
    GroupElement,
    Mat,
    blowup,
    canonical_point,
    det,
    dualize,
    identity_element,
    mat_identity,
    mat_inverse,
    mat_product,
    sl_apply,
    sl_compose,
    sl_inverse,
)
import oracles
from oracles import element_order, field_norm


def random_invertible(spec, n, rng):
    while True:
        M = Mat(spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(n)])
        if det(M) != 0:
            return M


def random_element(spec, n, rng, with_dual=True):
    return GroupElement(
        random_invertible(spec, n, rng),
        rng.randrange(spec.f),
        rng.randrange(2) if with_dual else 0,
    )


def test_identity_and_det_trivia():
    F2 = gf.make_field(2, 1)
    A = Mat(F2, [[1, 1], [0, 1]])
    I = mat_identity(F2, 2)
    assert mat_product(I, A) == A
    assert det(I) == 1
    F4 = gf.make_field(2, 2)
    lam = F4.primitive_elem
    lam2 = F4.mul(lam, lam)
    D = Mat(F4, [[lam, 0], [0, lam2]])
    assert det(D) == 1


def test_inverse_roundtrip():
    rng = random.Random(7)
    for p, f, n in [(2, 1, 3), (2, 2, 3), (3, 1, 4), (3, 2, 2), (2, 4, 2)]:
        spec = gf.make_field(p, f)
        for _ in range(10):
            A = random_invertible(spec, n, rng)
            assert mat_product(A, mat_inverse(A)) == mat_identity(spec, n)


def test_singular_inverse_raises():
    F2 = gf.make_field(2, 1)
    with pytest.raises(linalg.LinAlgError):
        mat_inverse(Mat(F2, [[1, 1], [1, 1]]))


@pytest.mark.parametrize("q", [2, 3, 4, 9, 13, 16])
def test_list_gauss_jordan_matches_the_numpy_oracle(q):
    # random matrices, a third of them made singular by a repeated scaled
    # row, with an identity, a random or no right-hand side carried in the
    # rows: the same det and the same reduced rows, also where a singular
    # matrix stops early
    spec = gf.make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2), 13: (13, 1), 16: (2, 4)}[q])
    rng = np.random.default_rng(q)
    for trial in range(90):
        n = int(rng.integers(1, 9))
        M = rng.integers(q, size=(n, n))
        if trial % 3 == 0 and n > 1:
            M[-1] = spec.mul_table[M[0], int(rng.integers(q))]
        rhs = (None, np.eye(n, dtype=np.int64), rng.integers(q, size=(n, n)))[trial // 3 % 3]
        rows = (M if rhs is None else np.hstack([M, rhs])).tolist()
        work, want_rhs = M.astype(np.int64), None if rhs is None else rhs.astype(np.int64)
        assert linalg._gauss(spec, rows) == oracles.gauss(spec, work, want_rhs)
        assert rows == (work if rhs is None else np.hstack([work, want_rhs])).tolist()
        A = Mat(spec, M)
        assert det(A) == oracles.gauss(spec, M.astype(np.int64), None)
        if det(A):
            assert mat_product(A, mat_inverse(A)) == mat_identity(spec, n)


def test_compose_associative_random_triples():
    # mixed fa/dual parts; two small ambients get the full 10^4 triples,
    # the larger ones a sample
    rng = random.Random(11)
    for p, f, n, reps in [(2, 1, 2, 10_000), (2, 2, 2, 10_000), (3, 1, 3, 300),
                          (2, 4, 2, 300), (3, 2, 2, 300)]:
        spec = gf.make_field(p, f)
        for _ in range(reps):
            g, h, k = (random_element(spec, n, rng) for _ in range(3))
            assert sl_compose(sl_compose(g, h), k) == sl_compose(g, sl_compose(h, k))


def test_compose_neutral_and_inverse():
    rng = random.Random(13)
    for p, f, n in [(2, 2, 3), (3, 1, 4), (2, 4, 2)]:
        spec = gf.make_field(p, f)
        ident = identity_element(spec, n)
        for _ in range(40):
            g = random_element(spec, n, rng)
            assert sl_compose(g, ident) == g
            assert sl_compose(ident, g) == g
            assert sl_compose(g, sl_inverse(g)) == ident
            assert sl_compose(sl_inverse(g), g) == ident


def test_gamma_is_involution():
    for p, f, n in [(2, 1, 4), (2, 2, 3)]:
        spec = gf.make_field(p, f)
        gamma = GroupElement(mat_identity(spec, n), 0, 1)
        assert sl_compose(gamma, gamma) == identity_element(spec, n)


def test_gamma_conjugation_is_inverse_transpose():
    rng = random.Random(3)
    spec = gf.make_field(2, 2)
    gamma = GroupElement(mat_identity(spec, 3), 0, 1)
    for _ in range(20):
        A = random_invertible(spec, 3, rng)
        g = GroupElement(A)
        conj = sl_compose(sl_compose(gamma, g), gamma)
        assert conj == GroupElement(dualize(A))


def test_phi_gamma_orders():
    # |phi.gamma| = lcm(f, 2)
    spec4 = gf.make_field(2, 2)
    pg = GroupElement(mat_identity(spec4, 2), 1, 1)
    assert element_order(pg) == 2
    spec16 = gf.make_field(2, 4)
    pg16 = GroupElement(mat_identity(spec16, 2), 1, 1)
    assert element_order(pg16) == 4


def test_inverse_transpose_antiautomorphism():
    # dualize(A.B) = dualize(A).dualize(B): composed with inversion the
    # order flip cancels, which is what makes duality an automorphism
    rng = random.Random(5)
    spec = gf.make_field(3, 1)
    for _ in range(25):
        A, B = random_invertible(spec, 3, rng), random_invertible(spec, 3, rng)
        assert dualize(mat_product(A, B)) == mat_product(dualize(A), dualize(B))


def test_linear_subcase_compose():
    rng = random.Random(17)
    spec = gf.make_field(2, 1)
    for _ in range(10):
        A, B = random_invertible(spec, 3, rng), random_invertible(spec, 3, rng)
        g = sl_compose(GroupElement(A), GroupElement(B))
        assert g == GroupElement(mat_product(B, A))  # apply A first, then B


# ---------------------------------------------------------------------------
# actions


def test_identity_fixes_points():
    spec = gf.make_field(2, 2)
    ident = identity_element(spec, 2)
    pts = [
        canonical_point(VECTOR, (1, 2)),
        canonical_point(PROJECTIVE, (2, 1), spec=spec),
        canonical_point(PAIR, (1, 0), (1, 1), spec=spec),
        canonical_point(ANTIFLAG, (2, 0), (3, 1), spec=spec),
    ]
    for x in pts:
        assert sl_apply(ident, x) == x


def test_transvection_action():
    spec = gf.make_field(2, 1)
    t = GroupElement(Mat(spec, [[1, 1], [0, 1]]))  # e1 -> e1, e2 -> e1 + e2
    e2 = canonical_point(VECTOR, (0, 1))
    assert sl_apply(t, e2) == canonical_point(VECTOR, (1, 1))


def test_right_action_property():
    rng = random.Random(23)
    for p, f, n in [(2, 1, 4), (2, 2, 2), (3, 1, 3)]:
        spec = gf.make_field(p, f)
        for _ in range(60):
            g = random_element(spec, n, rng)
            h = random_element(spec, n, rng)
            v = [rng.randrange(spec.q) for _ in range(n)]
            if not any(v):
                v[0] = 1
            w = [rng.randrange(spec.q) for _ in range(n)]
            if not linalg._eval_functional(spec, w, v):
                continue
            for tag in (PAIR, ANTIFLAG):
                x = canonical_point(tag, v, w, spec=spec)
                assert sl_apply(sl_compose(g, h), x) == sl_apply(h, sl_apply(g, x))
            if g.dual or h.dual:
                continue
            for tag in (VECTOR, PROJECTIVE):
                x = canonical_point(tag, v, spec=spec)
                assert sl_apply(sl_compose(g, h), x) == sl_apply(h, sl_apply(g, x))


def test_duality_rejects_bare_vectors():
    spec = gf.make_field(2, 1)
    gamma = GroupElement(mat_identity(spec, 3), 0, 1)
    with pytest.raises(linalg.LinAlgError):
        sl_apply(gamma, canonical_point(VECTOR, (1, 0, 0)))
    with pytest.raises(linalg.LinAlgError):
        sl_apply(gamma, canonical_point(PROJECTIVE, (1, 0, 0), spec=spec))


def test_gamma_fixes_dual_basis_antiflag():
    # brute-force check that the basis-dual antiflag is gamma-stable
    spec = gf.make_field(2, 1)
    gamma = GroupElement(mat_identity(spec, 4), 0, 1)
    x = canonical_point(ANTIFLAG, (1, 0, 0, 0), (1, 0, 0, 0), spec=spec)
    assert sl_apply(gamma, x) == x
    y = canonical_point(PAIR, (1, 0, 0, 0), (1, 0, 0, 0), spec=spec)
    assert sl_apply(gamma, y) == y


def test_canonical_point_scalar_quotient():
    rng = random.Random(31)
    spec = gf.make_field(2, 2)
    v = (2, 1, 3)
    vn, _ = linalg._proj_normalize(spec, v)
    assert vn == (1, 3, 2)  # divide by first entry lam: (lam,1,lam+1)/lam
    for _ in range(20):
        v = tuple(rng.randrange(4) for _ in range(3))
        if not any(v):
            continue
        pts = set()
        for c in range(1, 4):
            cv = tuple(spec.mul(c, x) for x in v)
            pts.add(canonical_point(PROJECTIVE, cv, spec=spec))
        assert len(pts) == 1


def test_antiflag_canonicalizes_scalar_pairs():
    spec = gf.make_field(2, 2)
    v, w = (1, 0), (1, 2)
    base = canonical_point(ANTIFLAG, v, w, spec=spec)
    for c in range(2, 4):
        cv = tuple(spec.mul(c, x) for x in v)
        cw = tuple(spec.mul(spec.inv(c), x) for x in w)
        assert canonical_point(ANTIFLAG, cv, cw, spec=spec) == base
    # pair points keep the vector marked
    assert canonical_point(PAIR, v, w, spec=spec) != canonical_point(
        PAIR, tuple(spec.mul(2, x) for x in v), tuple(spec.mul(spec.inv(2), x) for x in w), spec=spec
    )


def test_canonical_point_rejects_degenerate():
    spec = gf.make_field(2, 1)
    with pytest.raises(linalg.LinAlgError):
        canonical_point(VECTOR, (0, 0))
    with pytest.raises(linalg.LinAlgError, match="not an antiflag"):
        canonical_point(ANTIFLAG, (1, 0), (0, 1), spec=spec)
    with pytest.raises(linalg.LinAlgError, match="not a pair"):
        canonical_point(PAIR, (1, 0), (0, 1), spec=spec)


def test_pair_normalizes_functional_value():
    spec = gf.make_field(2, 2)
    x = canonical_point(PAIR, (2, 0), (3, 1), spec=spec)
    v, w = x.data
    assert linalg._eval_functional(spec, w, v) == 1


def test_packing_roundtrip():
    rng = random.Random(37)
    for q, n in [(2, 5), (3, 4), (4, 6)]:
        for _ in range(30):
            v = tuple(rng.randrange(q) for _ in range(n))
            assert oracles.unpack_vector(linalg.pack_vector(v, q), q, n) == v
        spec = gf.make_field(2, 2) if q == 4 else gf.make_field(q, 1)
        v = tuple([1] + [rng.randrange(q) for _ in range(n - 1)])
        w = tuple([1] + [0] * (n - 1))
        x = canonical_point(PAIR, v, w, spec=spec)
        key = linalg.pack_point(x, q, n)
        assert oracles.unpack_point(PAIR, key, q, n) == x


# ---------------------------------------------------------------------------
# blow-up


def test_blowup_of_lambda_is_companion():
    F2, F4 = gf.make_field(2, 1), gf.make_field(2, 2)
    M = Mat(F4, [[F4.primitive_elem]])
    g = blowup(M, 0, F2)
    assert g.fa == 0 and g.dual == 0
    assert g.mat.a.tolist() == [[0, 1], [1, 1]]
    assert det(g.mat) == field_norm(F4, F2, F4.primitive_elem)


def test_blowup_identity():
    F2, F4 = gf.make_field(2, 1), gf.make_field(2, 2)
    g = blowup(mat_identity(F4, 3), 0, F2)
    assert g == identity_element(F2, 6)


def test_blowup_of_frobenius_q2():
    # x -> x^2 on GF(4) in basis {1, lam}: unitriangular involution, fa = 0
    F2, F4 = gf.make_field(2, 1), gf.make_field(2, 2)
    psi = blowup(mat_identity(F4, 1), 1, F2)
    assert psi.fa == 0
    assert psi.mat.a.tolist() == [[1, 1], [0, 1]]
    assert element_order(psi) == 2


def test_blowup_of_frobenius_q4():
    F4, F16 = gf.make_field(2, 2), gf.make_field(2, 4)
    psi = blowup(mat_identity(F16, 1), 1, F4)
    assert psi.fa == 1
    assert element_order(psi) == 4


def test_blowup_multiplicative():
    rng = random.Random(41)
    for (p, fs, fe) in [(2, 1, 2), (2, 2, 4)]:
        sub, ext = gf.make_field(p, fs), gf.make_field(p, fe)
        for _ in range(15):
            M = random_invertible(ext, 2, rng)
            N = random_invertible(ext, 2, rng)
            lhs = blowup(mat_product(M, N), 0, sub)
            rhs = GroupElement(mat_product(blowup(M, 0, sub).mat, blowup(N, 0, sub).mat))
            assert lhs == rhs


def test_blowup_norm_det_exhaustive_1x1():
    for (p, fs, fe) in [(2, 1, 2), (2, 2, 4)]:
        sub, ext = gf.make_field(p, fs), gf.make_field(p, fe)
        for x in range(1, ext.q):
            g = blowup(Mat(ext, [[x]]), 0, sub)
            assert det(g.mat) == field_norm(ext, sub, x)


def test_blowup_semilinear_consistency():
    # blowing up x -> M . x^(p^s) must act like the original map on V_sharp
    rng = random.Random(43)
    sub, ext = gf.make_field(2, 1), gf.make_field(2, 2)
    coords = linalg.subfield_coords(sub, ext)
    for _ in range(20):
        M = random_invertible(ext, 2, rng)
        s = rng.randrange(2)
        g = blowup(M, s, sub)
        # random vector in GF(4)^2
        v = [rng.randrange(4) for _ in range(2)]
        image = linalg.mat_vec(M, np.array([ext.frobenius(t, s) for t in v]))
        flat = [int(c) for t in v for c in coords[t]]
        out = sl_apply(g, canonical_point(VECTOR, flat)) if any(flat) else None
        if out is not None:
            expect = [int(c) for t in image for c in coords[int(t)]]
            assert list(out.data) == expect
