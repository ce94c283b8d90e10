"""Module-chopping utilities over GF(p)."""

import numpy as np
import pytest

from grpfact import meataxe as mx
import oracles


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_factor_poly_reassembles(rng):
    # (x^2+1)(x+2)(x^3 + 2x + 1) over GF(3)
    p = 3
    f1, f2, f3 = [1, 0, 1], [2, 1], [1, 2, 0, 1]
    prod = mx._pmul(mx._pmul(f1, f2, p), f3, p)
    factors = mx.factor_poly(prod, p, rng)
    assert sorted(len(f) for f in factors) == [2, 3, 4]
    acc = [1]
    for f in factors:
        acc = mx._pmul(acc, list(f), p)
    assert acc == mx._pnorm(prod, p)


def test_factor_poly_handles_repeated_factors(rng):
    p = 3
    sq = mx._pmul([1, 1], [1, 1], p)
    factors = mx.factor_poly(sq, p, rng)
    assert factors == [(1, 1)]


def test_kernel_and_spin(rng):
    p = 3
    # block-diagonal module: a 2-dim and a 1-dim invariant piece
    g = np.array([[0, 2, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)
    U = mx.spin(np.array([1, 0, 0]), [g], p)
    assert U.shape[0] == 2
    act = mx.action_on(U, g, p)
    assert act.shape == (2, 2)
    V = mx.spin(np.array([0, 0, 1]), [g], p)
    assert V.shape[0] == 1


def test_krylov_minpoly(rng):
    p = 3
    g = np.array([[0, 2], [1, 0]], dtype=np.int64)  # satisfies x^2 = -1 -> x^2+1
    m = mx.krylov_minpoly(g, np.array([1, 0]), p)
    assert m == [1, 0, 1]


def test_chop_finds_known_constituent(rng):
    # permutation module of C3 over GF(2): 3 = 1 + 2 with a 2-dim faithful piece
    p = 2
    g = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    U = mx.chop_for_dimension([g], 2, p, rng, max_trials=200)
    assert U is not None and U.shape[0] == 2


def test_commutant_dimension():
    p = 3
    g = np.array([[0, 2], [1, 0]], dtype=np.int64)
    # commutant of an irreducible 2-dim module over GF(3) containing i:
    # the centralizer algebra is GF(9), dimension 2 over GF(3)
    assert mx.commutant_dimension([g], [g], p) == 2
    h = np.array([[1, 1], [0, 1]], dtype=np.int64)
    # adding a unipotent cuts the centralizer to the scalars
    assert mx.commutant_dimension([g, h], [g, h], p) == 1
    # no intertwiner between inequivalent modules
    one = np.array([[1]], dtype=np.int64)
    assert mx.commutant_dimension([one], [one], p) == 1


def test_action_on_rejects_non_invariant():
    p = 2
    g = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.int64)
    bad = np.array([[1, 0, 0]], dtype=np.int64)
    with pytest.raises(mx.MeatAxeError):
        mx.action_on(bad, g, p)


def _random_module(rng, p, n, k):
    """k random n x n matrices over GF(p), and the same module relabeled by a
    random permutation matrix, an isomorphic one."""
    gens = [rng.integers(0, p, size=(n, n)) for _ in range(k)]
    perm = np.eye(n, dtype=np.int64)[rng.permutation(n)]
    return gens, [perm @ g @ perm.T for g in gens]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_basis_matches_the_row_loop(p):
    rng = np.random.default_rng(p)
    for trial in range(60):
        rows, n, rank = (int(v) for v in rng.integers(1, 13, size=3))
        M = rng.integers(0, p, size=(rows, n))
        if trial % 2:  # a product through rank columns, often rank-deficient
            M = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, n))
        got, want = mx.kernel_basis(M, p), oracles.kernel_basis(M, p)
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_commutant_dimension_matches_the_coefficient_loop(p):
    rng = np.random.default_rng(10 + p)
    dims = set()
    for n in range(1, 7):
        for k in (1, 2):
            gens, relabeled = _random_module(rng, p, n, k)
            other = _random_module(rng, p, n, k)[0]
            for a, b in ((gens, gens), (gens, relabeled), (gens, other)):
                dim = mx.commutant_dimension(a, b, p)
                assert dim == oracles.commutant_dimension(a, b, p)
                dims.add(dim)
    assert 0 in dims and max(dims) > 1
