"""Point domains and batched application of group elements to packed keys.

Keys pack coordinate digits base q (bit-packed when q is a power of two),
vector first, functional second for the two-sided kinds.  Batch application
works on int64 key arrays.  In characteristic two the key map of vector,
functional and pair points is GF(2)-linear on the key bits, so it never
unpacks: one XOR table per run of at most 12 key bits, one lookup each.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec
from .linalg import (
    ANTIFLAG,
    FUNCTIONAL,
    PAIR,
    PROJECTIVE,
    VECTOR,
    ActionPoint,
    GroupElement,
    LinAlgError,
    pack_point,
    sl_apply,
    unpack_point,
)

_DENSE_LOOKUP_LIMIT = 2**26
_CHUNK_BITS = 12  # widest key run one XOR table covers


class ActionError(ValueError):
    pass


def domain_size(tag: str, q: int, n: int) -> int:
    if tag in (VECTOR, FUNCTIONAL):
        return q**n - 1
    if tag == PROJECTIVE:
        return (q**n - 1) // (q - 1)
    if tag == PAIR:
        return (q**n - 1) * q ** (n - 1)
    if tag == ANTIFLAG:
        return (q**n - 1) // (q - 1) * q ** (n - 1)
    raise ActionError(f"unknown point kind {tag!r}")


class Action:
    """One action kind bound to an ambient (n, GF(q))."""

    def __init__(self, tag: str, spec: FieldSpec, n: int):
        self.tag = tag
        self.spec = spec
        self.n = n
        self.q = spec.q
        self.two_sided = tag in (PAIR, ANTIFLAG)
        self.width = 2 * n if self.two_sided else n
        self._chunk_cache: dict = {}

    # -- scalar interface ---------------------------------------------------

    def point_key(self, x: ActionPoint) -> int:
        if x.tag != self.tag:
            raise ActionError(f"point of kind {x.tag} in {self.tag} action")
        return pack_point(x, self.q, self.n)

    def key_point(self, key: int) -> ActionPoint:
        return unpack_point(self.tag, int(key), self.q, self.n)

    def apply_point(self, g: GroupElement, x: ActionPoint) -> ActionPoint:
        return sl_apply(g, x)

    # -- key digit helpers ----------------------------------------------------

    def _unpack_digits(self, keys: np.ndarray) -> np.ndarray:
        q, w = self.q, self.width
        out = np.empty((len(keys), w), dtype=np.int64)
        if self.spec.p == 2:
            bits = self.spec.f
            mask = q - 1
            for i in range(w):
                out[:, i] = (keys >> (i * bits)) & mask
        else:
            rest = keys.copy()
            for i in range(w):
                out[:, i] = rest % q
                rest //= q
        return out

    def _pack_digits(self, digits: np.ndarray) -> np.ndarray:
        powers = self.q ** np.arange(self.width, dtype=np.int64)
        return digits @ powers

    # -- batch application ----------------------------------------------------

    def _chunk_tables(self, g: GroupElement):
        """XOR tables of the char-2 key map, which is GF(2)-linear on key bits.

        Column b is the image of the basis key 1 << b: the duality swap is a
        rotation of the columns, Frobenius acts on the digit 1 << j, and the
        matrix column is scaled by the result.  The key bits are cut into
        runs of at most _CHUNK_BITS, as even as possible, and each run gets a
        table, built by doubling, of the XOR of its bits' columns; folding
        one lookup per run is the whole product ("four Russians").
        """
        cached = self._chunk_cache.get(g)
        if cached is not None:
            return cached
        spec, n, f = self.spec, self.n, self.spec.f
        digits = np.array([spec.frobenius(1 << j, g.fa) for j in range(f)], dtype=np.int64)
        shifts = np.arange(n, dtype=np.int64)[:, None, None] * f
        if self.tag == VECTOR:
            mats = [g.mat.a]
        elif self.tag == FUNCTIONAL:
            mats = [g.dual_mat().a]
        else:
            mats = [g.mat.a, g.dual_mat().a]
        cols = []
        for side, M in enumerate(mats):
            # scaled[r, i, j]: row r of column i times the digit of bit j
            scaled = spec.mul_table[M[:, :, None], digits[None, None, :]]
            cols.append((scaled.astype(np.int64) << shifts).sum(axis=0).ravel() << (side * n * f))
        cols = np.concatenate(cols)
        if g.dual:
            cols = np.roll(cols, n * f)
        nbits = len(cols)
        k = -(-nbits // _CHUNK_BITS)
        tables, lo = [], 0
        for c in range(k):
            width = nbits // k + (c < nbits % k)
            tab = np.zeros(1 << width, dtype=np.int64)
            for j in range(width):
                np.bitwise_xor(tab[: 1 << j], cols[lo + j], out=tab[1 << j : 2 << j])
            tables.append((lo, (1 << width) - 1, tab))
            lo += width
        self._chunk_cache[g] = tables
        return tables

    def apply_batch(self, g: GroupElement, keys: np.ndarray) -> np.ndarray:
        """Images of packed keys under g; canonicalizes normalized kinds."""
        if g.dual and not self.two_sided:
            raise LinAlgError(f"duality does not act on {self.tag} points")
        if self.spec.p == 2 and self.tag in (VECTOR, FUNCTIONAL, PAIR):
            (lo, mask, tab), *rest = self._chunk_tables(g)
            out = tab[(keys >> lo) & mask]
            for lo, mask, tab in rest:
                out ^= tab[(keys >> lo) & mask]
            return out
        if g.dual:
            qn = self.q**self.n
            keys = (keys // qn) + (keys % qn) * qn
        return self._apply_batch_digits(g, keys)

    def _apply_batch_digits(self, g: GroupElement, keys: np.ndarray) -> np.ndarray:
        spec, n, q = self.spec, self.n, self.q
        D = self._unpack_digits(keys)
        if g.fa:
            frob = np.arange(q, dtype=np.int64)
            for _ in range(g.fa):
                frob = spec.frob_table[frob]
            D = frob[D]
        out = np.empty_like(D)
        sides = [(0, g.mat.a)] + ([(n, g.dual_mat().a)] if self.two_sided else [])
        if self.tag == FUNCTIONAL:
            sides = [(0, g.dual_mat().a)]
        for offset, M in sides:
            block = D[:, offset : offset + n]
            if spec.f == 1:
                res = (block @ M.T.astype(np.int64)) % spec.p
            else:
                res = np.zeros_like(block)
                for i in range(n):
                    acc = res[:, i]
                    for k in range(n):
                        term = spec.mul_table[int(M[i, k]), block[:, k]].astype(np.int64)
                        acc = spec.add_table[acc, term].astype(np.int64) if spec.p != 2 else acc ^ term
                    res[:, i] = acc
            out[:, offset : offset + n] = res
        if self.tag in (PROJECTIVE, ANTIFLAG):
            out = self._normalize_digits(out)
        return self._pack_digits(out)

    def _normalize_digits(self, D: np.ndarray) -> np.ndarray:
        spec, n = self.spec, self.n
        v = D[:, :n]
        lead = (v != 0).argmax(axis=1)
        rows = np.arange(len(D))
        scale = spec.inv_table[v[rows, lead]].astype(np.int64)
        v = spec.mul_table[scale[:, None], v].astype(np.int64)
        D = D.copy()
        D[:, :n] = v
        if self.tag == ANTIFLAG:
            w = D[:, n:]
            c = np.zeros(len(D), dtype=np.int64)
            for i in range(n):
                term = spec.mul_table[w[:, i], v[:, i]].astype(np.int64)
                c = c ^ term if spec.p == 2 else spec.add_table[c, term].astype(np.int64)
            wscale = spec.inv_table[c].astype(np.int64)
            D[:, n:] = spec.mul_table[wscale[:, None], w]
        return D

    # -- domain enumeration ---------------------------------------------------

    def all_keys(self) -> np.ndarray:
        q, n = self.q, self.n
        if self.tag in (VECTOR, FUNCTIONAL):
            return np.arange(1, q**n, dtype=np.int64)
        if self.tag == PROJECTIVE:
            parts = []
            for lead in range(n):
                base = q**lead
                step = q ** (lead + 1)
                parts.append(base + step * np.arange(q ** (n - lead - 1), dtype=np.int64))
            return np.concatenate(parts)
        keys = []
        spec = self.spec
        v_iter = (
            np.arange(1, q**n, dtype=np.int64)
            if self.tag == PAIR
            else Action(PROJECTIVE, spec, n).all_keys()
        )
        qn = q**n
        for vkey in v_iter:
            v = unpack_point(VECTOR, int(vkey), q, n).data
            piv = next(i for i, x in enumerate(v) if x)
            piv_inv = spec.inv(v[piv])
            free = [i for i in range(n) if i != piv]
            for fkey in range(q ** (n - 1)):
                w = [0] * n
                rest = fkey
                acc = 0
                for i in free:
                    w[i] = rest % q
                    rest //= q
                    acc = spec.add(acc, spec.mul(w[i], v[i]))
                w[piv] = spec.mul(spec.add(1, spec.neg(acc)), piv_inv)
                keys.append(int(vkey) + qn * sum(w[i] * q**i for i in range(n)))
        return np.array(keys, dtype=np.int64)


class PermDomain:
    """Enumerated action domain with key -> index lookup and permutation images."""

    def __init__(self, action: Action, max_size: int = 200_000):
        self.action = action
        size = domain_size(action.tag, action.q, action.n)
        if size > max_size:
            raise ActionError(
                f"domain of {size} {action.tag} points exceeds the {max_size} limit"
            )
        self.keys = action.all_keys()
        self.size = len(self.keys)
        if self.size != size:
            raise ActionError(f"domain enumeration bug: {self.size} != {size}")
        keyspace = (action.q ** action.n) ** (2 if action.two_sided else 1)
        if keyspace <= _DENSE_LOOKUP_LIMIT:
            self._dense = np.full(keyspace, -1, dtype=np.int64)
            self._dense[self.keys] = np.arange(self.size, dtype=np.int64)
            self._lookup = None
        else:
            self._dense = None
            self._lookup = {int(k): i for i, k in enumerate(self.keys)}
        self.identity_perm = np.arange(self.size, dtype=np.int64)

    def index_of_key(self, key: int) -> int:
        if self._dense is not None:
            idx = int(self._dense[key]) if 0 <= key < len(self._dense) else -1
        else:
            idx = self._lookup.get(int(key), -1)
        if idx < 0:
            raise ActionError(f"key {key} is not a point of this domain")
        return idx

    def index_of_point(self, x: ActionPoint) -> int:
        return self.index_of_key(self.action.point_key(x))

    def point(self, idx: int) -> ActionPoint:
        return self.action.key_point(int(self.keys[idx]))

    def perm_of(self, g: GroupElement) -> np.ndarray:
        imgs = self.action.apply_batch(g, self.keys)
        if self._dense is not None:
            perm = self._dense[imgs]
            if (perm < 0).any():
                raise ActionError("element does not preserve the domain")
            return perm.astype(np.int64)
        return np.array([self._lookup[int(k)] for k in imgs], dtype=np.int64)
