"""Exact arithmetic in small finite fields GF(p^f).

Elements of GF(p^f) are encoded as integer indices in [0, p^f): the index
is the base-p packing of the coefficient vector of the residue polynomial,
low degree first.

Fields up to 2^16 elements get exp/log and Zech-logarithm tables, so every
element operation is a couple of table lookups.  Larger fields (supported
up to 2^20 as design headroom) fall back to polynomial arithmetic.

The defining modulus is taken from a fixed table of standard (Conway)
polynomials for every field the group catalog touches; outside the table a
deterministic search picks the smallest monic polynomial whose root is
primitive, so encodings are reproducible across runs.
"""

from __future__ import annotations

import numpy as np

MAX_FIELD_SIZE = 2**20
_ZECH_LIMIT = 2**16
_DENSE_TABLE_LIMIT = 256  # q*q numpy add/mul tables kept below this

# Standard (Conway) moduli, coefficients low degree first, monic.
_MODULUS_TABLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (9, 1),
    (13, 1): (11, 1),
}


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def _factorize(n: int) -> list[int]:
    """Distinct prime factors by trial division (n <= 2^20 here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


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


def _poly_powmod(a, e: int, modulus, p: int):
    result = (1,) + (0,) * (len(modulus) - 2)
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _is_irreducible(modulus, p: int) -> bool:
    """Rabin test: x^(p^f) = x and x^(p^(f/l)) - x coprime to the modulus."""
    f = len(modulus) - 1
    x = (0, 1) + (0,) * (f - 2) if f >= 2 else (0,)
    if f == 1:
        return True
    xq = _poly_powmod(x, p**f, modulus, p)
    if xq != x:
        return False
    for ell in _factorize(f):
        xe = _poly_powmod(x, p ** (f // ell), modulus, p)
        diff = tuple((a - b) % p for a, b in zip(xe, x))
        if not _poly_gcd_is_one(diff, modulus, p):
            return False
    return True


def _poly_gcd_is_one(a, modulus, p: int) -> bool:
    ra = [c % p for c in modulus]
    rb = [c % p for c in a]
    while any(rb):
        ra, rb = rb, _poly_rem(ra, rb, p)
    while ra and ra[-1] == 0:
        ra.pop()
    return len(ra) == 1


def _poly_rem(a, b, p: int):
    a = [c % p for c in a]
    b = [c % p for c in b]
    while b and b[-1] == 0:
        b.pop()
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        for k in range(len(b)):
            a[shift + k] = (a[shift + k] - c * b[k]) % p
    return a


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
        self._small = self.q <= _ZECH_LIMIT
        if self._small:
            self._build_tables()
        else:
            if not _is_irreducible(modulus, p):
                raise FieldError(f"modulus not irreducible over GF({p})")
            if not self._x_is_primitive():
                raise FieldError("modulus root is not primitive")
        if self.f > 1:
            self.primitive_elem = self.p  # encoding of the residue class of x
        else:
            self.primitive_elem = (self.p - self.modulus[0]) % self.p

    # -- construction helpers ------------------------------------------------

    def _build_tables(self):
        """exp/log/Zech tables; also certifies the modulus.

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
        # Zech logarithms: 1 + x^k = x^zech[k]; -1 marks 1 + x^k = 0.
        zech = np.full(q - 1, -1, dtype=np.int64)
        for k in range(q - 1):
            s = self._idx_add_digits(1, int(exp[k]))
            if s != 0:
                zech[k] = log[s]
        self.zech = zech
        self.neg_table = np.array([self._idx_neg_digits(a) for a in range(q)], dtype=np.int64)
        self.frob_table = np.array([self._pow_int(a, p) for a in range(q)], dtype=np.int64)
        if q <= _DENSE_TABLE_LIMIT:
            dt = np.uint8 if q <= 256 else np.uint16
            self.add_table = np.zeros((q, q), dtype=dt)
            self.mul_table = np.zeros((q, q), dtype=dt)
            for a in range(q):
                for b in range(q):
                    self.add_table[a, b] = self._idx_add_digits(a, b)
                    if a and b:
                        self.mul_table[a, b] = exp[(log[a] + log[b]) % (q - 1)]
            self.inv_table = np.zeros(q, dtype=dt)
            for a in range(1, q):
                self.inv_table[a] = exp[(q - 1 - log[a]) % (q - 1)]

    def _x_is_primitive(self) -> bool:
        x = (0, 1) + (0,) * (self.f - 2)
        one = (1,) + (0,) * (self.f - 1)
        if _poly_powmod(x, self.q - 1, self.modulus, self.p) != one:
            return False
        return all(
            _poly_powmod(x, (self.q - 1) // r, self.modulus, self.p) != one
            for r in _factorize(self.q - 1)
        )

    def _idx_add_digits(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        da, db = _digits(a, self.p, self.f), _digits(b, self.p, self.f)
        return _pack([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def _idx_neg_digits(self, a: int) -> int:
        if self.p == 2:
            return a
        return _pack([(-x) % self.p for x in _digits(a, self.p, self.f)], self.p)

    def _pow_int(self, a: int, e: int) -> int:
        if a == 0:
            return 0
        if self._small:
            return int(self.exp[(int(self.log[a]) * (e % (self.q - 1))) % (self.q - 1)])
        return _pack(_poly_powmod(_digits(a, self.p, self.f), e, self.modulus, self.p), self.p)

    # -- element operations on integer indices -------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._small:
            if a == 0:
                return b
            if b == 0:
                return a
            la, lb = int(self.log[a]), int(self.log[b])
            z = int(self.zech[(lb - la) % (self.q - 1)])
            if z < 0:
                return 0
            return int(self.exp[(la + z) % (self.q - 1)])
        return self._idx_add_digits(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self._small:
            return int(self.neg_table[a])
        return self._idx_neg_digits(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._small:
            return int(self.exp[int(self.log[a]) + int(self.log[b])])
        return _pack(
            _poly_mulmod(_digits(a, self.p, self.f), _digits(b, self.p, self.f), self.modulus, self.p),
            self.p,
        )

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self._small:
            return int(self.exp[(self.q - 1 - int(self.log[a])) % (self.q - 1)])
        return self._pow_int(a, self.q - 2)

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self._pow_int(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        return self._pow_int(a, e)

    def frobenius(self, a: int, s: int = 1) -> int:
        """a^(p^s)."""
        s %= self.f
        if self._small:
            for _ in range(s):
                a = int(self.frob_table[a])
            return a
        return self._pow_int(a, self.p**s)

    def elem_order(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero has no multiplicative order")
        if self._small:
            return (self.q - 1) // _gcd(int(self.log[a]), self.q - 1)
        n = self.q - 1
        for r in sorted(_factorize(n)):
            while n % r == 0 and self._pow_int(a, n // r) == 1:
                n //= r
        return n

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


_FIELD_CACHE: dict[tuple[int, int], FieldSpec] = {}


def make_field(p: int, f: int = 1) -> FieldSpec:
    """Construct (or fetch the interned) GF(p^f).

    The modulus comes from the fixed table when available, otherwise from a
    deterministic smallest-first search over monic polynomials whose root
    is primitive.
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if f < 1:
        raise FieldError("extension degree must be >= 1")
    if p**f > MAX_FIELD_SIZE:
        raise FieldError(f"field size {p}^{f} exceeds bound {MAX_FIELD_SIZE}")
    key = (p, f)
    if key not in _FIELD_CACHE:
        modulus = _MODULUS_TABLE.get(key)
        if modulus is None:
            modulus = _search_modulus(p, f)
        _FIELD_CACHE[key] = FieldSpec(p, f, tuple(modulus))
    return _FIELD_CACHE[key]


def _search_modulus(p: int, f: int) -> tuple[int, ...]:
    """Smallest monic degree-f polynomial with a primitive root, by index."""
    if f == 1:
        for g in range(2, p):
            if _mult_order_mod_p(g, p) == p - 1:
                return ((p - g) % p, 1)
        return (p - 1, 1)  # p == 2
    for low in range(p**f):
        modulus = _digits(low, p, f) + (1,)
        if modulus[0] == 0:
            continue
        if not _is_irreducible(modulus, p):
            continue
        try:
            FieldSpec(p, f, modulus)
        except FieldError:
            continue
        return modulus
    raise FieldError(f"no primitive modulus found for GF({p}^{f})")


def _mult_order_mod_p(g: int, p: int) -> int:
    n, k = 1, g % p
    while k != 1:
        k = k * g % p
        n += 1
    return n


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
    if sub.q > _ZECH_LIMIT or ext.q > _ZECH_LIMIT:
        raise FieldError("embedding tables only built for table-backed fields")
    ratio = (ext.q - 1) // (sub.q - 1)
    candidates = [int(ext.exp[ratio])]
    candidates += sorted(
        int(ext.exp[(k * ratio) % (ext.q - 1)]) for k in range(1, sub.q - 1)
    )
    mu = None
    for cand in candidates:
        acc, pw = 0, 1
        for coeff in sub.modulus:
            term = ext.mul(_scalar_into(coeff, ext), pw)
            acc = ext.add(acc, term)
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


def _scalar_into(c: int, ext: FieldSpec) -> int:
    """Image of the prime-subfield scalar c in ext (sum of c ones)."""
    acc = 0
    for _ in range(c):
        acc = ext.add(acc, 1)
    return acc
