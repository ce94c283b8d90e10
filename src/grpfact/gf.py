"""Exact arithmetic in the finite fields GF(p^f) of the group catalog.

Elements of GF(p^f) are encoded as integer indices in [0, p^f): the index
is the base-p packing of the coefficient vector of the residue polynomial,
low degree first.

Every field is table-backed: its modulus comes from a fixed table that
covers each prime power q = p^f <= 256 with p <= 13 (every field the
constructors can name), and it carries exp/log tables and dense q x q
addition and multiplication tables, so every element operation is a table
lookup.  make_field rejects every other field.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Moduli, coefficients low degree first, monic.  Most are the standard
# (Conway) polynomials.  (2, 7), (3, 5), (5, 3), (11, 2) and (13, 2) are the
# smallest-index monic polynomials with a primitive root, which is what a
# deterministic modulus search used to pick for fields outside the table;
# they are kept as they were so element encodings do not move.
_MODULUS_TABLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (2, 3, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (9, 1),
    (11, 2): (7, 1, 1),
    (13, 1): (11, 1),
    (13, 2): (2, 1, 1),
}


class FieldError(ValueError):
    pass


def supported_fields() -> str:
    """The fields make_field builds, smallest first."""
    return ", ".join(f"GF({p ** f})" for p, f in sorted(_MODULUS_TABLE, key=lambda k: k[0] ** k[1]))


def _digits(idx: int, p: int, f: int) -> tuple[int, ...]:
    out = []
    for _ in range(f):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def _pack(digits, p: int) -> int:
    idx = 0
    for c in reversed(digits):
        idx = idx * p + c
    return idx


def _poly_mulmod(a, b, modulus, p: int):
    """Product of coefficient tuples reduced mod the monic modulus."""
    f = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for deg in range(len(prod) - 1, f - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for k in range(f + 1):
                prod[deg - f + k] = (prod[deg - f + k] - c * modulus[k]) % p
    return tuple(prod[:f])


class FieldSpec:
    """Descriptor of GF(p^f): modulus, primitive element, lookup tables.

    Immutable after construction; instances are interned per (p, f), so
    identity comparison decides whether two elements share a field.
    """

    def __init__(self, p: int, f: int, modulus: tuple[int, ...]):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = modulus
        self._build_tables()
        if self.f > 1:
            self.primitive_elem = self.p  # encoding of the residue class of x
        else:
            self.primitive_elem = (self.p - self.modulus[0]) % self.p

    def _build_tables(self):
        """exp/log and dense tables; also certifies the modulus.

        Walking x, x^2, ... must produce q-1 distinct nonzero residues and
        return to 1: that forces the quotient ring to be a field with x
        primitive, so no separate irreducibility check is needed.
        """
        p, f, q = self.p, self.f, self.q
        exp = np.zeros(2 * (q - 1), dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        x = (0, 1) + (0,) * (f - 2) if f >= 2 else ((self.p - self.modulus[0]) % self.p,)
        cur = (1,) + (0,) * (f - 1)
        for k in range(q - 1):
            idx = _pack(cur, p)
            if idx == 0 or (log[idx] != -1):
                raise FieldError(f"modulus {self.modulus} does not define GF({p}^{f}) with primitive root")
            exp[k] = idx
            log[idx] = k
            cur = _poly_mulmod(cur, x, self.modulus, p)
        if _pack(cur, p) != 1:
            raise FieldError(f"root of {self.modulus} is not primitive in GF({p}^{f})")
        exp[q - 1 :] = exp[: q - 1]
        self.exp = exp
        self.log = log
        digits = np.array([_digits(a, p, f) for a in range(q)], dtype=np.int64)
        weights = p ** np.arange(f, dtype=np.int64)
        self.add_table = ((digits[:, None, :] + digits[None, :, :]) % p @ weights).astype(np.uint8)
        self.neg_table = (-digits) % p @ weights
        nonzero = np.arange(1, q)
        self.mul_table = np.zeros((q, q), dtype=np.uint8)
        self.mul_table[1:, 1:] = exp[log[nonzero, None] + log[None, nonzero]]
        self.inv_table = np.zeros(q, dtype=np.uint8)
        self.inv_table[1:] = exp[(q - 1 - log[nonzero]) % (q - 1)]
        self.frob_table = np.zeros(q, dtype=np.int64)
        self.frob_table[1:] = exp[log[nonzero] * p % (q - 1)]

    @cached_property
    def table_lists(self) -> tuple[list, list, list, list]:
        """The add, mul, neg and inv tables as nested Python lists, for
        loops that look up one element at a time (``linalg._gauss``)."""
        return (self.add_table.tolist(), self.mul_table.tolist(), self.neg_table.tolist(),
                self.inv_table.tolist())

    # -- element operations on integer indices -------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return int(self.inv_table[a])

    def power(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if a == 0:
            return 0 if e else 1
        return int(self.exp[int(self.log[a]) * e % (self.q - 1)])

    def frobenius(self, a: int, s: int = 1) -> int:
        """a^(p^s)."""
        for _ in range(s % self.f):
            a = int(self.frob_table[a])
        return a

    def __repr__(self):
        return f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"


_FIELD_CACHE: dict[tuple[int, int], FieldSpec] = {}


def make_field(p: int, f: int = 1) -> FieldSpec:
    """Construct (or fetch the interned) GF(p^f) from the modulus table."""
    key = (p, f)
    if key not in _MODULUS_TABLE:
        raise FieldError(f"GF({p}^{f}) is not a supported field (supported: {supported_fields()})")
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldSpec(p, f, _MODULUS_TABLE[key])
    return _FIELD_CACHE[key]


_EMBED_CACHE: dict[tuple[int, int, int, int], np.ndarray] = {}


def embedding_table(sub: FieldSpec, ext: FieldSpec) -> np.ndarray:
    """Index table of the field embedding GF(p^f) -> GF(p^(f*b)).

    The subfield generator maps to ext.x ^ ((q_ext-1)/(q_sub-1)) when that
    is a root of the subfield modulus (true for the compatible table
    moduli); otherwise to the smallest-index root found by brute force.
    """
    if sub.p != ext.p or ext.f % sub.f != 0:
        raise FieldError(f"no embedding {sub} -> {ext}")
    key = (sub.p, sub.f, ext.p, ext.f)
    if key in _EMBED_CACHE:
        return _EMBED_CACHE[key]
    ratio = (ext.q - 1) // (sub.q - 1)
    candidates = [int(ext.exp[ratio])]
    candidates += sorted(
        int(ext.exp[(k * ratio) % (ext.q - 1)]) for k in range(1, sub.q - 1)
    )
    mu = None
    for cand in candidates:
        # a prime-field coefficient c is encoded as the index c in every field
        acc, pw = 0, 1
        for coeff in sub.modulus:
            acc = ext.add(acc, ext.mul(coeff, pw))
            pw = ext.mul(pw, cand)
        if acc == 0:
            mu = cand
            break
    if mu is None:
        raise FieldError(f"subfield modulus has no root in {ext}: broken embedding")
    table = np.zeros(sub.q, dtype=np.int64)
    lam = sub.primitive_elem
    cur_sub, cur_ext = 1, 1
    for _ in range(sub.q - 1):
        table[cur_sub] = cur_ext
        cur_sub = sub.mul(cur_sub, lam)
        cur_ext = ext.mul(cur_ext, mu)
    _EMBED_CACHE[key] = table
    return table
