"""Vectors, matrices and semilinear-with-duality elements over GF(q).

Conventions, fixed once and used by every action:

* column vectors; a matrix A sends v to A @ v;
* points are acted on from the right: x^(g*h) = (x^g)^h, i.e. ``compose(g, h)``
  is "apply g, then h";
* a ``GroupElement`` (A, s, d) is the map  x -> A . phi^s( delta^d (x) )
  where phi is the entrywise p-power Frobenius and delta the duality swap;
* V is identified with its dual via the standard dual basis, so duality
  conjugates matrices by inverse-transpose;
* functionals are row vectors; a linear g moves a functional w to w . A^-1.

Point kinds:

* ``vector``      nonzero column vector (duality undefined here);
* ``functional``  nonzero row vector (duality undefined);
* ``pair``        (v, w) with w(v) = 1: a nonzero vector together with a
                  hyperplane avoiding it, no scalar normalization;
* ``projective``  1-space, normalized so the first nonzero coordinate is 1;
* ``antiflag``    scalar-normalized pair: projectively normalized v, then w
                  rescaled so w(v) = 1.  Scalars act trivially here.

The ``duality`` domain, V - 0 then V* - 0, holds vector and functional points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldError, FieldSpec, embedding_table

VECTOR = "vector"
FUNCTIONAL = "functional"
PAIR = "pair"
PROJECTIVE = "projective"
ANTIFLAG = "antiflag"
DUALITY = "duality"


class LinAlgError(ValueError):
    pass


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Square matrix of field-element encodings over an interned FieldSpec."""

    __slots__ = ("spec", "a", "_hash")

    def __init__(self, spec: FieldSpec, entries):
        self.spec = spec
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise LinAlgError(f"matrix must be square, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        self.a = arr
        self._hash = None

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.spec is other.spec and np.array_equal(self.a, other.a)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.spec), self.a.tobytes()))
        return self._hash

    def __repr__(self):
        return f"Mat({self.spec}, {self.a.tolist()})"


def mat_identity(spec: FieldSpec, n: int) -> Mat:
    return Mat(spec, np.eye(n, dtype=np.int64))


def _check_pair(A: Mat, B: Mat):
    if A.spec is not B.spec or A.n != B.n:
        raise LinAlgError("matrix ambient mismatch")


def mat_product(A: Mat, B: Mat) -> Mat:
    _check_pair(A, B)
    spec = A.spec
    prods = spec.mul_table[A.a[:, :, None], B.a[None, :, :]].astype(np.int64)
    if spec.p == 2:
        out = np.bitwise_xor.reduce(prods, axis=1)
    else:
        out = prods[:, 0, :]
        for k in range(1, A.n):
            out = spec.add_table[out, prods[:, k, :]].astype(np.int64)
    return Mat(spec, out)


def mat_vec(A: Mat, v: np.ndarray) -> np.ndarray:
    """A @ v for a digit vector v."""
    spec = A.spec
    prods = spec.mul_table[A.a, v[None, :]].astype(np.int64)
    if spec.p == 2:
        return np.bitwise_xor.reduce(prods, axis=1)
    out = prods[:, 0]
    for k in range(1, A.n):
        out = spec.add_table[out, prods[:, k]].astype(np.int64)
    return out


def _gauss(spec: FieldSpec, rows: list[list[int]]) -> int:
    """In-place Gauss-Jordan on the n x n matrix in the first n columns of
    n rows of field-element codes held as Python lists, any columns past n
    (a right-hand side) carried along, by the field's tables as lists
    (``FieldSpec.table_lists``); returns det (0 when singular)."""
    add, mul, neg, inv = spec.table_lists
    n = len(rows)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), -1)
        if piv < 0:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = neg[det]
        pivval = rows[col][col]
        det = mul[det][pivval]
        scale = mul[inv[pivval]]
        pivrow = rows[col] = [scale[x] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                times = mul[neg[rows[r][col]]]
                if spec.p == 2:
                    rows[r] = [a ^ times[b] for a, b in zip(rows[r], pivrow)]
                else:
                    rows[r] = [add[a][times[b]] for a, b in zip(rows[r], pivrow)]
    return det


def det(A: Mat) -> int:
    return _gauss(A.spec, A.a.tolist())


def mat_inverse(A: Mat) -> Mat:
    n = A.n
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(A.a.tolist())]
    if _gauss(A.spec, rows) == 0:
        raise LinAlgError("matrix is singular")
    return Mat(A.spec, [row[n:] for row in rows])


def mat_transpose(A: Mat) -> Mat:
    return Mat(A.spec, A.a.T)


def mat_frobenius(A: Mat, s: int) -> Mat:
    out = A.a
    for _ in range(s % A.spec.f):
        out = A.spec.frob_table[out]
    return Mat(A.spec, out)


def dualize(A: Mat) -> Mat:
    """Inverse-transpose, the matrix action of the duality automorphism."""
    return mat_transpose(mat_inverse(A))


# ---------------------------------------------------------------------------
# semilinear-with-duality group elements


class GroupElement:
    """Element of GammaL_n(q) extended by duality: (matrix, phi-exp, dual bit)."""

    __slots__ = ("mat", "fa", "dual", "_inv_cache", "_dual_mat_cache", "_hash", "__weakref__")

    def __init__(self, mat: Mat, fa: int = 0, dual: int = 0):
        self.mat = mat
        self.fa = fa % mat.spec.f
        self.dual = dual & 1
        self._inv_cache = None
        self._dual_mat_cache = None
        self._hash = None

    @property
    def spec(self) -> FieldSpec:
        return self.mat.spec

    @property
    def n(self) -> int:
        return self.mat.n

    def is_linear(self) -> bool:
        return self.fa == 0 and self.dual == 0

    def dual_mat(self) -> Mat:
        """A^-T, used for the functional side of the action."""
        if self._dual_mat_cache is None:
            self._dual_mat_cache = dualize(self.mat)
        return self._dual_mat_cache

    def __eq__(self, other):
        # identity first: a weak-keyed cache compares its keys' referents
        return self is other or (
            isinstance(other, GroupElement)
            and self.fa == other.fa
            and self.dual == other.dual
            and self.mat == other.mat
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.mat, self.fa, self.dual))
        return self._hash

    def __repr__(self):
        return f"GroupElement(fa={self.fa}, dual={self.dual}, mat={self.mat.a.tolist()})"


def identity_element(spec: FieldSpec, n: int) -> GroupElement:
    return GroupElement(mat_identity(spec, n))


def sl_compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Apply g, then h.

    The second factor's automorphism part acts on the first factor's
    matrix: duality by inverse-transpose, Frobenius entrywise.
    """
    if g.spec is not h.spec or g.n != h.n:
        raise LinAlgError("ambient mismatch in composition")
    m = g.mat
    if h.dual:
        m = dualize(m)
    m = mat_frobenius(m, h.fa)
    return GroupElement(mat_product(h.mat, m), g.fa + h.fa, g.dual ^ h.dual)


def sl_inverse(g: GroupElement) -> GroupElement:
    if g._inv_cache is None:
        fa_inv = (-g.fa) % g.spec.f
        m = g.mat
        if g.dual:
            m = dualize(m)
        m = mat_frobenius(m, fa_inv)
        g._inv_cache = GroupElement(mat_inverse(m), fa_inv, g.dual)
    return g._inv_cache


# ---------------------------------------------------------------------------
# action points


@dataclass(frozen=True)
class ActionPoint:
    """Tagged point of an action; data is a tuple (or pair of tuples) of encodings."""

    tag: str
    data: tuple

    def __repr__(self):
        return f"ActionPoint({self.tag}, {self.data})"


def _as_tuple(v) -> tuple:
    if isinstance(v, np.ndarray):
        return tuple(int(x) for x in v)
    return tuple(int(x) for x in v)


def _eval_functional(spec: FieldSpec, w, v) -> int:
    acc = 0
    for wi, vi in zip(w, v):
        acc = spec.add(acc, spec.mul(int(wi), int(vi)))
    return acc


def _proj_normalize(spec: FieldSpec, v: tuple) -> tuple[tuple, int]:
    """Scale so the first nonzero coordinate is 1; returns (vec, scale used)."""
    for x in v:
        if x:
            c = spec.inv(int(x))
            return tuple(spec.mul(c, int(t)) for t in v), c
    raise LinAlgError("zero vector has no projective point")


def canonical_point(tag: str, vector, functional=None, spec: FieldSpec | None = None) -> ActionPoint:
    """Build the canonical representative for any point kind.

    Raises on a zero vector or on a functional vanishing at the vector.
    """
    v = _as_tuple(vector)
    if not any(v):
        raise LinAlgError("zero vector is not a point")
    if tag == VECTOR:
        return ActionPoint(VECTOR, v)
    if tag == FUNCTIONAL:
        return ActionPoint(FUNCTIONAL, v)
    if spec is None:
        raise LinAlgError("field spec required for normalized kinds")
    if tag == PROJECTIVE:
        vn, _ = _proj_normalize(spec, v)
        return ActionPoint(PROJECTIVE, vn)
    w = _as_tuple(functional)
    c = _eval_functional(spec, w, v)
    if c == 0:
        raise LinAlgError(f"vector lies in the hyperplane: not {'a pair' if tag == PAIR else 'an antiflag'}")
    ci = spec.inv(c)
    if tag == PAIR:
        return ActionPoint(PAIR, (v, tuple(spec.mul(ci, x) for x in w)))
    if tag == ANTIFLAG:
        vn, _ = _proj_normalize(spec, v)
        c2 = spec.inv(_eval_functional(spec, w, vn))
        return ActionPoint(ANTIFLAG, (vn, tuple(spec.mul(c2, x) for x in w)))
    raise LinAlgError(f"unknown point kind {tag!r}")


def sl_apply(g: GroupElement, x: ActionPoint) -> ActionPoint:
    """Right action of g on x; see the module docstring for the orientation."""
    spec = g.spec
    tag = x.tag
    if tag in (VECTOR, FUNCTIONAL, PROJECTIVE):
        if g.dual:
            raise LinAlgError(f"duality does not act on {tag} points")
        v = np.array(x.data, dtype=np.int64)
        for _ in range(g.fa):
            v = spec.frob_table[v]
        if tag == FUNCTIONAL:
            out = mat_vec(g.dual_mat(), v)
            return ActionPoint(FUNCTIONAL, _as_tuple(out))
        out = mat_vec(g.mat, v)
        if tag == PROJECTIVE:
            return canonical_point(PROJECTIVE, out, spec=spec)
        return ActionPoint(VECTOR, _as_tuple(out))
    if tag in (PAIR, ANTIFLAG):
        v, w = x.data
        if g.dual:
            v, w = w, v
        va = np.array(v, dtype=np.int64)
        wa = np.array(w, dtype=np.int64)
        for _ in range(g.fa):
            va = spec.frob_table[va]
            wa = spec.frob_table[wa]
        vout = mat_vec(g.mat, va)
        wout = mat_vec(g.dual_mat(), wa)
        if tag == PAIR:
            return ActionPoint(PAIR, (_as_tuple(vout), _as_tuple(wout)))
        return canonical_point(ANTIFLAG, vout, wout, spec=spec)
    raise LinAlgError(f"unknown point kind {tag!r}")


# ---------------------------------------------------------------------------
# packing


def pack_vector(v, q: int) -> int:
    key = 0
    for x in reversed(tuple(v)):
        key = key * q + int(x)
    return key


def pack_point(x: ActionPoint, q: int, n: int) -> int:
    if x.tag in (VECTOR, FUNCTIONAL, PROJECTIVE):
        return pack_vector(x.data, q)
    v, w = x.data
    return pack_vector(v, q) + q**n * pack_vector(w, q)


# ---------------------------------------------------------------------------
# extension-field blow-up


_COORD_CACHE: dict[tuple[int, int, int, int], np.ndarray] = {}


def subfield_coords(sub: FieldSpec, ext: FieldSpec) -> np.ndarray:
    """(ext.q, b) table: coordinates over sub in the basis 1, mu, ..., mu^(b-1),
    where mu is ext's primitive element."""
    key = (sub.p, sub.f, ext.p, ext.f)
    if key in _COORD_CACHE:
        return _COORD_CACHE[key]
    if ext.f % sub.f != 0 or sub.p != ext.p:
        raise FieldError(f"{ext} is not an extension of {sub}")
    b = ext.f // sub.f
    emb = embedding_table(sub, ext)
    mu_pows = [ext.power(ext.primitive_elem, i) for i in range(b)]
    table = np.full((ext.q, b), -1, dtype=np.int64)
    # enumerate all sub^b coordinate tuples
    from itertools import product as iproduct

    for coords in iproduct(range(sub.q), repeat=b):
        acc = 0
        for c, mp in zip(coords, mu_pows):
            acc = ext.add(acc, ext.mul(int(emb[c]), mp))
        table[acc] = coords
    if (table < 0).any():
        raise FieldError("subfield coordinate table incomplete: basis not spanning")
    _COORD_CACHE[key] = table
    return table


def blowup(M: Mat, s: int, sub: FieldSpec) -> GroupElement:
    """Rewrite the GF(q^b)-semilinear map x -> M . x^(p^s) over GF(q).

    Blocks follow the basis v_1, mu v_1, ..., mu^(b-1) v_1, v_2, ... of the
    underlying GF(q)-space; the result carries fa = s mod f.  With s = 0
    this is a ring homomorphism of matrix algebras and det lifts to the
    field norm of det M.
    """
    ext = M.spec
    if ext.f % sub.f != 0:
        raise LinAlgError("blowup needs a field extension")
    b = ext.f // sub.f
    coords = subfield_coords(sub, ext)
    a = M.n
    n = a * b
    out = np.zeros((n, n), dtype=np.int64)
    ps = ext.p**s
    for j in range(a):
        for c in range(b):
            # image of basis vector mu^c v_j
            lam_pc = ext.power(ext.primitive_elem, (c * ps) % (ext.q - 1))
            for i in range(a):
                val = ext.mul(int(M.a[i, j]), lam_pc)
                out[i * b : (i + 1) * b, j * b + c] = coords[val]
    return GroupElement(Mat(sub, out), s % sub.f, 0)


# ---------------------------------------------------------------------------
# linear algebra over a prime field GF(p), on int64 arrays


def kernel_basis(M, p):
    """Null space basis of M over GF(p), one vector per free column of its
    RREF, each pivot column cleared in all other rows by one masked update."""
    A = np.asarray(M, dtype=np.int64) % p
    n, pivots = A.shape[1], []
    for c in range(n):
        r = len(pivots)
        nz = np.flatnonzero(A[r:, c])
        if nz.size:
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
            row = A[r] * pow(int(A[r, c]), -1, p) % p
            A = (A - np.outer(A[:, c], row)) % p
            A[r] = row
            pivots.append(c)
    free = [c for c in range(n) if c not in pivots]
    out = np.zeros((len(free), n), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = -A[: len(pivots), free].T % p
    return list(out)


def commutant_dimension(gens_a, gens_b, p):
    """dim of {M : M g_a = g_b M for matching generators}; 0 means no intertwiner.
    On M's row-major entries, M A - B M is (I kron A^T - B kron I)."""
    eye = np.eye(len(gens_a[0]), dtype=np.int64)
    system = [np.kron(eye, A.T) - np.kron(B, eye) for A, B in zip(gens_a, gens_b)]
    return len(kernel_basis(np.concatenate(system) % p, p))
