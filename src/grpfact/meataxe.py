"""Minimal module-chopping toolkit over prime fields GF(p).

Used to locate small composition factors of matrix modules (Holt-Rees
style): random group-algebra elements, Krylov minimal polynomials,
Cantor-Zassenhaus factorization, kernel spins, and basis extraction of
the action on an invariant subspace.  Everything is exact arithmetic on
numpy int64 matrices mod p.
"""

from __future__ import annotations

import numpy as np

from .linalg import commutant_dimension, kernel_basis  # noqa: F401  (re-exported)


class MeatAxeError(ValueError):
    pass


# -- polynomial helpers, coefficients low degree first, over GF(p) ----------


def _pnorm(a, p):
    a = [int(c) % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pnorm(out, p)


def _pdivmod(a, b, p):
    a = [int(c) % p for c in a]
    b = _pnorm(b, p)
    q = [0] * max(1, len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    while True:
        a = _pnorm(a, p)
        if len(a) < len(b):
            return _pnorm(q, p), a
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        q[shift] = c
        for k in range(len(b)):
            a[shift + k] = (a[shift + k] - c * b[k]) % p


def _pmod(a, m, p):
    return _pdivmod(a, m, p)[1]


def _pgcd(a, b, p):
    a, b = _pnorm(a, p), _pnorm(b, p)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _ppowmod(a, e, m, p):
    r = [1]
    base = _pmod(a, m, p)
    while e:
        if e & 1:
            r = _pmod(_pmul(r, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return r


def factor_poly(m, p, rng):
    """Irreducible factors (with repetition collapsed) of m over GF(p)."""
    out = []
    stack = [_pnorm(m, p)]
    x = [0, 1]
    while stack:
        f = stack.pop()
        if len(f) <= 1:
            continue
        if len(f) == 2:
            out.append(tuple(f))
            continue
        deriv = _pnorm([(i * c) % p for i, c in enumerate(f)][1:], p)
        if not deriv:
            g = [f[i] for i in range(0, len(f), p)]
            stack.append(g)
            continue
        g = _pgcd(f, deriv, p)
        if len(g) > 1:
            stack += [g, _pdivmod(f, g, p)[0]]
            continue
        # squarefree distinct-degree split
        v = f[:]
        h = x[:]
        d = 0
        while len(v) > 1:
            d += 1
            if d > (len(v) - 1) // 2:
                out.append(tuple(v))
                break
            h = _ppowmod(h, p, f, p)
            diff = [(a - b) % p for a, b in zip(h + [0] * len(x), x + [0] * len(h))]
            gg = _pgcd(diff, v, p)
            if len(gg) > 1:
                out += [tuple(w) for w in _equal_degree_split(gg, d, p, rng)]
                v = _pdivmod(v, gg, p)[0]
    return sorted(set(out), key=lambda f: (len(f), f))


def _equal_degree_split(u, d, p, rng):
    if len(u) - 1 == d:
        return [u]
    while True:
        r = _pnorm([int(rng.integers(0, p)) for _ in range(len(u) - 1)], p)
        if not r:
            continue
        t = _ppowmod(r, (p**d - 1) // 2, u, p)
        t = _pnorm([(c - (1 if i == 0 else 0)) % p for i, c in enumerate(t + [0])], p)
        w = _pgcd(t, u, p)
        if 1 < len(w) < len(u):
            return _equal_degree_split(w, d, p, rng) + _equal_degree_split(
                _pdivmod(u, w, p)[0], d, p, rng
            )


# -- linear algebra over GF(p) ----------------------------------------------


def spin(vector, gens, p):
    """Echelonized basis of the submodule generated by the vector."""
    basis: list[tuple[int, np.ndarray]] = []

    def add(v):
        v = v % p
        for piv, row in basis:
            if v[piv]:
                v = (v - v[piv] * row) % p
        nz = np.nonzero(v)[0]
        if not len(nz):
            return None
        piv = int(nz[0])
        v = (v * pow(int(v[piv]), -1, p)) % p
        basis.append((piv, v))
        return v

    queue = [w for w in [add(np.asarray(vector, dtype=np.int64))] if w is not None]
    while queue:
        w = queue.pop()
        for g in gens:
            u = add(g @ w)
            if u is not None:
                queue.append(u)
    basis.sort(key=lambda pr: pr[0])
    return np.array([row for _, row in basis])


def action_on(U, g, p):
    """Matrix of g on the invariant subspace with echelonized basis rows U."""
    img = ((g @ U.T) % p).T
    k = U.shape[0]
    A = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        v = img[i].copy()
        coords = np.zeros(k, dtype=np.int64)
        for j, row in enumerate(U):
            piv = np.nonzero(row)[0][0]
            if v[piv]:
                coords[j] = v[piv]
                v = (v - v[piv] * row) % p
        if v.any():
            raise MeatAxeError("subspace is not invariant")
        A[i] = coords
    return A.T % p


def krylov_minpoly(M, v, p):
    basis = []
    vecs = [np.asarray(v, dtype=np.int64) % p]
    while True:
        w = vecs[-1].copy()
        comb = np.zeros(len(vecs), dtype=np.int64)
        comb[-1] = 1
        for piv, row, cvec in basis:
            if w[piv]:
                c = w[piv]
                w = (w - c * row) % p
                comb[: len(cvec)] = (comb[: len(cvec)] - c * cvec) % p
        nz = np.nonzero(w)[0]
        if len(nz) == 0:
            return _pnorm([int(c) for c in comb], p)
        piv = int(nz[0])
        inv = pow(int(w[piv]), -1, p)
        basis.append((piv, (w * inv) % p, (comb * inv) % p))
        vecs.append((M @ vecs[-1]) % p)


def poly_of_matrix(M, coeffs, p):
    n = M.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    for c in reversed(coeffs):
        out = (out @ M + int(c) * eye) % p
    return out


def random_algebra_element(gens, p, rng, terms=(2, 5), word_len=(1, 6)):
    n = gens[0].shape[0]
    theta = np.zeros((n, n), dtype=np.int64)
    for _ in range(int(rng.integers(*terms))):
        w = np.eye(n, dtype=np.int64)
        for _ in range(int(rng.integers(*word_len))):
            w = (w @ gens[int(rng.integers(len(gens)))]) % p
        theta = (theta + int(rng.integers(1, p)) * w) % p
    return theta


def chop_for_dimension(gens, dim, p, rng, max_trials=300, max_factor_deg=8, max_kernel=24):
    """Hunt an invariant subspace of the given dimension; None if not found.

    Strategy: kernels of irreducible minimal-polynomial factors of random
    algebra elements, spun up to submodules.
    """
    n = gens[0].shape[0]
    for _ in range(max_trials):
        theta = random_algebra_element(gens, p, rng)
        v = rng.integers(0, p, size=n).astype(np.int64)
        mp = krylov_minpoly(theta, v, p)
        for f in factor_poly(mp, p, rng):
            if len(f) - 1 > max_factor_deg:
                continue
            K = kernel_basis(poly_of_matrix(theta, list(f), p), p)
            if not K or len(K) > max_kernel:
                continue
            for kv in K[:6]:
                U = spin(kv, gens, p)
                if U.shape[0] == dim:
                    return U
    return None
