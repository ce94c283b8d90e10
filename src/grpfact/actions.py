"""Point domains and batched application of group elements to packed keys.

Keys pack coordinate digits base q (bit-packed when q is a power of two),
vector first, functional second for pairs; a duality key is a vector's key,
or q^n plus a functional's.  Batch application acts on vector, functional,
pair and duality keys only, and takes and returns int64 key arrays.  In
characteristic two the key map of the first three is GF(2)-linear on the
key bits, so it never unpacks: one XOR table per run of at most 12 key
bits, one lookup each.  The sweep of an orbit's keyspace walks aligned
blocks of ``Action.block_bits`` key bits, and on a linear key map it
stacks each generator's images of a block's offsets and of the block
starts once, since f(base + j) = f(base) XOR f(j) there, each row an XOR
table of the basis keys' images (``grpcore._block_images``).
The digit path unpacks keys to digits, kept in the narrowest unsigned type
that holds q - 1 and widened only for a prime field's dot products and for
packing.  A duality key map applies the linear part on each side, and a
duality element lands each side on the other.  Projective and antiflag
points are acted on only through their enumerated domain
(``PermDomain``): its int32 key -> index table indexes every scalar
multiple of its points, so the domain permutes through the vector or pair
kind beneath, and no image is normalized.  A domain's base
(``PermDomain.base``) is fixed only by the identity of its ambient group;
a vector or duality domain reads an element off its images there
(``PermDomain.element_of``).
"""

from __future__ import annotations

import weakref

import numpy as np

from .gf import FieldSpec
from .linalg import (
    ANTIFLAG,
    DUALITY,
    FUNCTIONAL,
    PAIR,
    PROJECTIVE,
    VECTOR,
    ActionPoint,
    GroupElement,
    LinAlgError,
    Mat,
    pack_point,
)

DOMAIN_CAP = 200_000  # the most points a PermDomain enumerates
_DENSE_LOOKUP_LIMIT = 2**26
_CHUNK_BITS = 12  # widest key run one XOR table covers


class ActionError(ValueError):
    pass


class DomainCapError(ActionError):
    """A domain past a limit on enumerated domains; size and cap say by how much."""

    def __init__(self, what: str, size: int, cap: int):
        super().__init__(f"{what} exceeds the {cap} limit")
        self.size, self.cap = size, cap


def domain_size(tag: str, q: int, n: int) -> int:
    if tag in (VECTOR, FUNCTIONAL, DUALITY):
        return (2 if tag == DUALITY else 1) * (q**n - 1)
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
        self.keyspace = 2 * self.q**n if tag == DUALITY else self.q**self.width
        self._sides = (Action(VECTOR, spec, n), Action(FUNCTIONAL, spec, n)) if tag == DUALITY else None
        self.linear = spec.p == 2 and tag in (VECTOR, FUNCTIONAL, PAIR)
        # log2 of the keys per block of an orbit's keyspace sweep: a linear
        # block's offset tables stay cache-sized, and the digit path needs
        # larger batches
        self.block_bits = 14 if self.linear else 16
        # digits stay in the narrowest type that holds q - 1 (uint8 for
        # every supported field): the field tables are uint8 as well
        self.digit_type = np.min_scalar_type(self.q - 1)
        # an element's tables live as long as the element: a shared
        # domain's action outlives every claim that applied elements through it
        self._chunk_cache = weakref.WeakKeyDictionary()

    # -- scalar interface ---------------------------------------------------

    def point_key(self, x: ActionPoint) -> int:
        if self.tag == DUALITY and x.tag in (VECTOR, FUNCTIONAL):
            return pack_point(x, self.q, self.n) + (self.q**self.n if x.tag == FUNCTIONAL else 0)
        if x.tag != self.tag:
            raise ActionError(f"point of kind {x.tag} in {self.tag} action")
        return pack_point(x, self.q, self.n)

    # -- key digit helpers ----------------------------------------------------

    def _unpack_digits(self, keys: np.ndarray) -> np.ndarray:
        """The keys' base-q digits, one row per key, in ``self.digit_type``."""
        q, w = self.q, self.width
        out = np.empty((len(keys), w), dtype=self.digit_type)
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
        """Keys of digit rows, by Horner's rule in int64, one column at a
        time, so the digits are never widened as a whole."""
        out = np.zeros(len(digits), dtype=np.int64)
        for i in range(self.width - 1, -1, -1):
            out *= self.q
            out += digits[:, i]
        return out

    # -- batch application ----------------------------------------------------

    def _columns(self, g: GroupElement) -> np.ndarray:
        """Images of the basis keys 1 << b under the char-2 key map, which is
        GF(2)-linear on key bits.

        The duality swap is a rotation of the columns, Frobenius acts on the
        digit 1 << j, and the matrix column is scaled by the result.
        """
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
        return np.roll(cols, n * f) if g.dual else cols

    def _chunk_tables(self, g: GroupElement):
        """XOR tables of whole keys: the key bits are cut into runs of at
        most _CHUNK_BITS, as even as possible, and each run gets a table;
        folding one lookup per run is the whole product ("four Russians")."""
        tables = self._chunk_cache.get(g)
        if tables is None:
            cols = self._columns(g)
            k = -(-len(cols) // _CHUNK_BITS)
            tables, lo = [], 0
            for c in range(k):
                width = len(cols) // k + (c < len(cols) % k)
                tables.append((lo, (1 << width) - 1, _xor_table(cols[lo : lo + width])))
                lo += width
            self._chunk_cache[g] = tables
        return tables

    def apply_batch(self, g: GroupElement, keys: np.ndarray) -> np.ndarray:
        """Images of packed vector, functional, pair or duality keys under g."""
        if self.tag in (PROJECTIVE, ANTIFLAG):
            raise ActionError(f"{self.tag} points are acted on only through their enumerated domain")
        if self.tag == DUALITY:
            # side i lands on side i ^ dual, under that side's action of the linear part
            qn, linear = self.q**self.n, GroupElement(g.mat, g.fa) if g.dual else g
            out = np.empty_like(keys)
            for side in (0, 1):
                at, dest = (keys >= qn) == side, side ^ g.dual
                out[at] = self._sides[dest].apply_batch(linear, keys[at] - side * qn) + dest * qn
            return out
        if g.dual and not self.two_sided:
            raise LinAlgError(f"duality does not act on {self.tag} points")
        if self.linear:
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
            frob = np.arange(q)
            for _ in range(g.fa):
                frob = spec.frob_table[frob]
            D = frob.astype(self.digit_type)[D]
        out = np.empty_like(D)
        sides = [(0, g.mat.a)] + ([(n, g.dual_mat().a)] if self.two_sided else [])
        if self.tag == FUNCTIONAL:
            sides = [(0, g.dual_mat().a)]
        for offset, M in sides:
            block = D[:, offset : offset + n]
            res = out[:, offset : offset + n]
            if spec.f == 1:
                # the one widened step: int64 dot products, reduced mod p
                res[:] = (block @ M.T.astype(np.int64)) % spec.p
                continue
            for i in range(n):
                acc = spec.mul_table[int(M[i, 0]), block[:, 0]]
                for k in range(1, n):
                    term = spec.mul_table[int(M[i, k]), block[:, k]]
                    acc = acc ^ term if spec.p == 2 else spec.add_table[acc, term]
                res[:, i] = acc
        return self._pack_digits(out)

    # -- domain enumeration ---------------------------------------------------

    def all_keys(self) -> np.ndarray:
        q, n = self.q, self.n
        if self.tag in (VECTOR, FUNCTIONAL, DUALITY):
            keys = np.arange(1, q**n, dtype=np.int64)
            return np.concatenate([keys, keys + q**n]) if self.tag == DUALITY else keys
        if self.tag == PROJECTIVE:
            parts = []
            for lead in range(n):
                base = q**lead
                step = q ** (lead + 1)
                parts.append(base + step * np.arange(q ** (n - lead - 1), dtype=np.int64))
            return np.concatenate(parts)
        # two-sided: for each vector v (nonzero, or normalized for antiflags)
        # the functionals w with w.v = 1, w's free digits (all but v's pivot,
        # the first nonzero coordinate) counting up and w[pivot] solved
        spec = self.spec
        add, mul = spec.add_table.astype(np.int64), spec.mul_table.astype(np.int64)
        vkeys = (
            np.arange(1, q**n, dtype=np.int64)
            if self.tag == PAIR
            else Action(PROJECTIVE, spec, n).all_keys()
        )
        V = Action(VECTOR, spec, n)._unpack_digits(vkeys)
        pivots = (V != 0).argmax(axis=1)
        fdigits = Action(VECTOR, spec, n - 1)._unpack_digits(np.arange(q ** (n - 1), dtype=np.int64))
        powers = q ** np.arange(n, dtype=np.int64)
        wkeys = np.empty((len(vkeys), q ** (n - 1)), dtype=np.int64)
        for piv in range(n):
            rows = np.flatnonzero(pivots == piv)
            if not rows.size:
                continue
            free = [i for i in range(n) if i != piv]
            acc = np.zeros((rows.size, q ** (n - 1)), dtype=np.int64)
            wkey = np.zeros_like(acc)
            for j, i in enumerate(free):
                acc = add[acc, mul[fdigits[None, :, j], V[rows, i][:, None]]]
                wkey += fdigits[None, :, j] * powers[i]
            rhs = add[1, spec.neg_table[acc]]
            wpiv = mul[rhs, spec.inv_table[V[rows, piv]].astype(np.int64)[:, None]]
            wkeys[rows] = wkey + wpiv * powers[piv]
        return (vkeys[:, None] + q**n * wkeys).ravel()


def _xor_table(cols: np.ndarray, tab: np.ndarray | None = None) -> np.ndarray:
    """Table of the XOR of each subset of the columns, indexed by the subset's
    bits, built by doubling, in tab (2**len(cols) int64 zeros) if given."""
    tab = np.zeros(1 << len(cols), dtype=np.int64) if tab is None else tab
    for j, col in enumerate(cols):
        np.bitwise_xor(tab[: 1 << j], col, out=tab[1 << j : 2 << j])
    return tab


class PermDomain:
    """Enumerated action domain with key -> index lookup and permutation images.

    The lookup is one int32 table over the whole keyspace (every index is
    below DOMAIN_CAP), and a keyspace past _DENSE_LOOKUP_LIMIT keys is
    refused.  A projective or antiflag table also indexes lv, or (lv, w/l),
    for each scalar l != 1: (q - 2) scaled copies of the keys, filled at
    build, so the domain takes its images under the vector or pair kind
    beneath, unnormalized.  This is the only way those points are acted on.
    A duality domain's points are V - 0, then V* - 0.

    ``base`` indexes points that only the identity of the ambient group
    (Gamma L_n(q), with dualities on duality, pair and antiflag points)
    fixes: e_1, ..., e_n and w.e_1 (w primitive), or their duals on
    functional points; on the other kinds, the frame <e_1>, ..., <e_n>,
    <e_1 + ... + e_n>, which a field automorphism fixes, and <e_1 + w.e_2>,
    with e_i* beside e_i and e_1* beside the last two, or every point at n = 1.
    """

    def __init__(self, action: Action):
        self.action = action
        size = domain_size(action.tag, action.q, action.n)
        if size > DOMAIN_CAP:
            raise DomainCapError(f"domain of {size} {action.tag} points", size, DOMAIN_CAP)
        keyspace = action.keyspace
        if keyspace > _DENSE_LOOKUP_LIMIT:
            raise DomainCapError(f"lookup table over the {keyspace} keys of {action.tag} points",
                                 keyspace, _DENSE_LOOKUP_LIMIT)
        self.keys = action.all_keys()
        self.size = len(self.keys)
        if self.size != size:
            raise ActionError(f"domain enumeration bug: {self.size} != {size}")
        self._dense = np.full(keyspace, -1, dtype=np.int32)
        index = np.arange(self.size, dtype=np.int32)
        self._dense[self.keys] = index
        self._applier = action  # the action perm_of applies
        if action.tag in (PROJECTIVE, ANTIFLAG):
            self._applier = Action(PAIR if action.two_sided else VECTOR, action.spec, action.n)
            spec, digits = action.spec, action._unpack_digits(self.keys)
            for lam in range(2, action.q):
                scale = np.full(action.width, lam)
                scale[action.n :] = spec.inv_table[lam]
                self._dense[action._pack_digits(spec.mul_table[scale, digits])] = index
        self.identity_perm = np.arange(self.size, dtype=np.int64)
        q, n, w = action.q, action.n, action.spec.primitive_elem
        frame = [q**i for i in range(n)]
        vectors = action.tag in (VECTOR, FUNCTIONAL, DUALITY)
        base = frame + ([w] if vectors else [sum(frame), 1 + w * q])
        if action.two_sided:
            base = [v + q**n * f for v, f in zip(base, frame + [1, 1])]
        self.base = np.array([self.index_of_key(k) for k in base]) if vectors or n > 1 else np.arange(self.size)

    def index_of_key(self, key: int) -> int:
        """The index of a key's point; a table takes any scalar representative."""
        idx = int(self._dense[key]) if 0 <= key < len(self._dense) else -1
        if idx < 0:
            raise ActionError(f"key {key} is not a point of this domain")
        return idx

    def index_of_point(self, x: ActionPoint) -> int:
        return self.index_of_key(self.action.point_key(x))

    def perm_of(self, g: GroupElement) -> np.ndarray:
        """g's permutation of the domain indices, as int64.  A projective or
        antiflag table takes g's images under the vector or pair kind."""
        imgs = self._applier.apply_batch(g, self.keys)
        perm = self._dense[imgs]
        if (perm < 0).any():
            raise ActionError("element does not preserve the domain")
        # the int64 images are spent: their buffer takes the indices
        imgs[:] = perm
        return imgs

    def element_of(self, perm: np.ndarray) -> GroupElement:
        """The semilinear element with this permutation of a vector or
        duality domain, read at its base: the images of e_1, ..., e_n are
        its matrix's columns, and the image of w.e_1 is w^(p^s) times the
        first, for Frobenius exponent s; a duality element, which sends e_1
        to a functional, sends those functionals to vectors.  Other kinds
        raise ActionError: projective and antiflag points fix no scalar
        lift, and no caller reads functional or pair points."""
        tag, spec, q, n = self.action.tag, self.action.spec, self.action.q, self.action.n
        if tag not in (VECTOR, DUALITY):
            raise ActionError(f"no element is read off a permutation of {tag} points")
        dual = int(tag == DUALITY and perm[0] >= q**n - 1)
        images = self.action._unpack_digits(self.keys[perm[self.base + dual * (q**n - 1)]]).astype(np.int64)
        j = int(np.flatnonzero(images[0])[0])
        scale = spec.mul(int(images[-1, j]), spec.inv(int(images[0, j])))
        fa = next(s for s in range(spec.f) if spec.frobenius(spec.primitive_elem, s) == scale)
        return GroupElement(Mat(spec, images[:-1].T), fa, dual)
