"""The exceptional group G2(q) for even q, inside Sp_6(q).

Construction: the split octonion algebra in Zorn vector-matrix form is one
integer structure tensor, built once from the Zorn product; left and right
multiplications by basis vectors are slices of it.  The generators are
automorphisms of the algebra: the unimodular part acting on the (v, w)
halves, the half-swap, and the exponentials exp(tD) over the field basis t
of one inner derivation, D = D_(e0,e2), whose divided powers D^k/k! are
integral.  Each is certified as an algebra automorphism over GF(q) by one
gather over the multiplication table with XOR folds.  Restricting to the
trace-zero part modulo the identity line gives the 6-dimensional
symplectic representation; the chain order against q^6(q^6-1)(q^2-1)
certifies the construction at q in {2, 4}.
"""

from __future__ import annotations

import numpy as np

from . import orders
from .constructors import (
    ConstructionError,
    _split_prime_power,
    preserves_form,
    sl_generators,
    standard_symplectic_form,
)
from .gf import FieldSpec, make_field
from .grpcore import CertificationError, GroupSpec, derived_subgroup
from .linalg import GroupElement, Mat, det, mat_inverse, mat_transpose

# Zorn coordinates: (a, b, v1, v2, v3, w1, w2, w3) for [[a, v], [w, b]].
_W_IDX = [2, 5, 3, 6, 4, 7]  # restriction basis u1, w1, u2, w2, u3, w3


def _zorn_product(x, y):
    """Integer Zorn product of coordinate arrays, broadcast over leading axes."""
    a, b, v, w = x[..., :1], x[..., 1:2], x[..., 2:5], x[..., 5:8]
    c, d, s, t = y[..., :1], y[..., 1:2], y[..., 2:5], y[..., 5:8]
    return np.concatenate(
        [
            a * c + (v * t).sum(-1, keepdims=True),
            b * d + (w * s).sum(-1, keepdims=True),
            a * s + d * v - np.cross(w, t),
            c * w + b * t + np.cross(v, s),
        ],
        axis=-1,
    )


_E = np.eye(8, dtype=np.int64)
# structure tensor: _MULT[i, j] holds the coordinates of e_i e_j
_MULT = _zorn_product(_E[:, None], _E[None, :])


def _derivation_exp():
    """The divided powers D^k/k! of the inner derivation D = D_(e0,e2), up
    to D's nilpotency (D^3 = 0): sum_k t^k D^k/k! is exp(tD) over GF(q)."""
    L = _MULT.transpose(0, 2, 1)  # L[i] @ y = e_i y
    R = _MULT.transpose(1, 2, 0)  # R[i] @ y = y e_i
    D = L[0] @ L[2] - L[2] @ L[0] + L[0] @ R[2] - R[2] @ L[0] + R[0] @ R[2] - R[2] @ R[0]
    terms = [_E]
    for k in range(1, 9):
        power = terms[-1] @ D
        if not power.any():
            break
        if (power % k).any():
            raise ConstructionError(f"D^{k}/{k}! is not integral")
        terms.append(power // k)
    return terms


def _is_algebra_automorphism(spec: FieldSpec, A) -> bool:
    """A(e_i e_j) = (A e_i)(A e_j) for every basis pair.

    q is even, so the structure constants reduce to 0/1 and every sum over
    GF(q) is an XOR fold.
    """
    M = _MULT % 2
    lhs = np.bitwise_xor.reduce(M[:, :, None, :] * A, axis=-1)
    # prods[i, j, a, b] = A[a, i] A[b, j]
    prods = spec.mul_table[A.T[:, None, :, None], A.T[None, :, None, :]].astype(np.int64)
    rhs = np.bitwise_xor.reduce((prods[..., None] * M).reshape(8, 8, 64, 8), axis=2)
    return np.array_equal(lhs, rhs)


def _unimodular_automorphism(M: Mat) -> np.ndarray:
    """v -> Mv, w -> M^-T w, diagonal fixed: an automorphism for M in SL_3."""
    A = np.zeros((8, 8), dtype=np.int64)
    A[0, 0] = A[1, 1] = 1
    A[2:5, 2:5] = M.a
    A[5:8, 5:8] = mat_transpose(mat_inverse(M)).a
    return A


def _half_swap() -> np.ndarray:
    A = np.zeros((8, 8), dtype=np.int64)
    A[0, 1] = A[1, 0] = 1
    for i in range(3):
        A[2 + i, 5 + i] = A[5 + i, 2 + i] = 1
    return A


def _family_elements(spec: FieldSpec, terms) -> list[np.ndarray]:
    """x(t) = sum_k t^k T_k over GF(q), q even, for t running over the field basis."""
    T = np.stack(terms) % spec.p
    t_pows = spec.exp[np.outer(np.arange(spec.f), np.arange(len(terms))) % (spec.q - 1)]
    return list(np.bitwise_xor.reduce(spec.mul_table[t_pows[:, :, None, None], T].astype(np.int64), axis=1))


def _restrict_to_w(spec: FieldSpec, A, J: Mat) -> GroupElement:
    """Quotient action on trace-zero octonions modulo the identity line."""
    B = np.zeros((6, 6), dtype=np.int64)
    for cidx, zi in enumerate(_W_IDX):
        col = A[:, zi]
        if col[0] != col[1]:  # trace a + b = 0 in even characteristic
            raise ConstructionError("automorphism image is not trace-balanced")
        B[:, cidx] = col[_W_IDX]
    g = GroupElement(Mat(spec, B))
    if det(g.mat) != 1 or not preserves_form(g, J):
        raise ConstructionError("restricted automorphism left Sp_6")
    return g


# G2(2)' is cached, since three desk claims use it; G2(q) and its chain
# live only as long as a caller holds them
_G2_DERIVED_CACHE: dict[int, GroupSpec] = {}


def g2_generators(q: int) -> GroupSpec:
    """G2(q) < Sp_6(q) for even q in the catalog range {2, 4, 16}.

    A generator that is not an algebra automorphism raises
    ConstructionError.  |G2(q)| is the claimed order, so the spec's first
    ``chain()`` builds with it as known order and bound (the generators are
    automorphisms of the octonions, in G2(q)) and raises its
    CertificationError; at q = 16 the recipe is certified by the
    automorphism and form checks only (the degree 16^6 - 1 chain is beyond
    desk scale).
    """
    if q % 2 or q not in (2, 4, 16):
        raise ConstructionError("G2 construction supports even q in {2, 4, 16}")
    p, f = _split_prime_power(q)
    spec = make_field(p, f)
    J = standard_symplectic_form(spec, 6)

    auts8 = [_unimodular_automorphism(g.mat) for g in sl_generators(spec, 3)]
    auts8.append(_half_swap())
    auts8 += _family_elements(spec, _derivation_exp())
    if not all(_is_algebra_automorphism(spec, A) for A in auts8):
        raise ConstructionError(f"a generator of G2({q}) failed the algebra-automorphism check")
    gens6 = [_restrict_to_w(spec, A, J) for A in auts8]
    return GroupSpec(f"G2({q})", 6, spec, gens6, claimed_order=orders.g2_order(q))


def g2_derived(q: int) -> GroupSpec:
    """G2(q)'; a proper (index 2) subgroup only at q = 2."""
    if q in _G2_DERIVED_CACHE:
        return _G2_DERIVED_CACHE[q]
    base = g2_generators(q)
    if q != 2:
        return base
    der = derived_subgroup(base, name=f"G2({q})'")
    if der.order() != orders.g2_derived_order(q):
        raise CertificationError(f"G2({q})' has order {der.order()}")
    _G2_DERIVED_CACHE[q] = der
    return der
