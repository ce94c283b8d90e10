"""Generic group machinery on enumerated action domains.

Groups are given by semilinear generators; every computation runs on the
permutation image over a chosen action domain.  A ``Tracked`` element is a
permutation of a domain, and it holds a matrix only when it was built from
one.  Sifts, random walks, transversals, Schreier generators, commutators
and conjugates are permutation products, and no matrix is composed; the
chain's random walk (``Rattle``) and its sift (``StabChain._sift``) compose
raw index arrays and wrap only a sample or a residue as Tracked.  Every
spec that comes with a certified chain is made from it here
(``GroupSpec.of_chain``) and keeps its generators as Tracked elements of
the chain's domain.  ``GroupSpec.tracked_generators`` reads any spec's
generators as permutations of a domain, reading a matrix off a vector or
duality permutation (``PermDomain.element_of``) only for a domain they
were not built on.  A spec with a duality element has V - 0 and V* - 0
(the duality domain) as its home, for its chain and its point
stabilizers; its commutators and their conjugates are sifted on the vector
half (``derived_domain``), where its derived subgroup lives.
Enumerated intersections (``StabChain.contains_block``) and the Schreier
pass sift only an element's images of a base (``StabChain._sift_rows``),
and a Schreier generator is composed in full only when it fails.
Element orders are read off transversal words on a chain's support
(``StabChain.support``), with no element's permutation of the domain
formed; only the seeded search takes one permutation's cycles
(``element_order_perm``).

One BFS kernel computes orbits.  ``frontier_levels`` yields a frontier
BFS level by level, under each generator's images of an index array: a
gather from its permutation of an enumerated domain, or its
``Action.apply_batch`` on packed keys.  ``schreier_orbit`` concatenates
the levels of a domain orbit and keeps a Schreier vector, for the chain
levels and chain supports; row 13's module certificate fills its matrices
along the levels.
``orbit`` keeps only the size and a seen mask.  It runs over the seed's
shared domain for a spec that already holds permutations of it, and for
every projective or antiflag seed: those points are acted on only through
their enumerated domain.  Otherwise it runs over packed keys, with no
enumerated domain, so it reaches orbits of millions of points; once a
level is large it drops the BFS and sweeps the keyspace until every seen
key is applied, a large GF(2)-linear one on two threads, which it starts
and joins itself.

Stabilizer chains use randomized Schreier-Sims; a level keeps one
append-only generator list and rebuilds its Schreier tree only when its
orbit grows.  A chain built this way is a partial chain, so its order is
a lower bound on the group's order, and one of two certificates makes it
exact (``StabChain.build``), after which each generator the build did not
add, as the chain reached its target first, is sifted once:

* bound: the certified order of a group known to contain the generated
  one, on the same action or with both actions faithful; a Monte Carlo
  chain that reaches it is complete (sandwich), one above it is refused.
  A known order is such a bound, and the chain must reach it;
* Schreier pass: otherwise a deterministic Schreier generator check runs
  after the Monte Carlo phase.  A literal or searched candidate, which has
  no containing group of its order, always takes it.

Chains that follow from a certified chain are inherited rather than
rebuilt.  ``StabChain.conjugate`` relabels a chain, or its suffix from some
level, through a conjugating element.  ``stabilizer_generators`` takes
every point stabilizer as the suffix of a chain whose first basic orbit
holds the point (``point_chain``): the group's own chain, or one built on
the point's domain with the point as its first base point; the order
|G|/|orbit| is the orbit-stabilizer certificate.  ``derived_subgroup``
runs the Monte Carlo phase and the normal-closure rounds on the
commutators, then certifies the closure once; it and
``solvable_residual`` return that chain.
"""

from __future__ import annotations

import contextlib
import math
import os
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .actions import Action, ActionError, PermDomain, _xor_table
from .gf import FieldSpec
from .linalg import (
    ANTIFLAG,
    DUALITY,
    FUNCTIONAL,
    PROJECTIVE,
    VECTOR,
    ActionPoint,
    GroupElement,
    identity_element,
)
from .streams import Stream


class GrpError(Exception):
    pass


class CertificationError(GrpError):
    pass


class OrbitBudgetError(GrpError):
    def __init__(self, message, partial_size):
        super().__init__(message)
        self.partial_size = partial_size


# ---------------------------------------------------------------------------
# tracked elements: permutations of a domain


# one arange per size, shared with the domains of that size (shared_domain)
_IDENTITY_PERMS: dict[int, np.ndarray] = {}


def _identity_perm(size: int) -> np.ndarray:
    ident = _IDENTITY_PERMS.get(size)
    if ident is None:
        ident = _IDENTITY_PERMS[size] = np.arange(size)
    return ident


class Tracked:
    """Group element as a permutation of a domain.

    ``elem`` is the matrix the element was built from, or None for a
    product, an inverse or a relabeled element; ``matrix`` reads such an
    element's matrix off its permutation of a vector domain.

    An element holds its inverse once built, and the inverse holds no link
    back: a two-way link would be a reference cycle, which keeps both
    permutations alive until the cyclic collector runs.  So the inverse of
    an inverse is a new element with the original's permutation.
    """

    __slots__ = ("perm", "elem", "_inv", "__weakref__")

    def __init__(self, perm: np.ndarray, elem: GroupElement | None = None):
        self.perm = perm
        self.elem = elem
        self._inv = None

    def matrix(self, domain: PermDomain) -> GroupElement:
        """The matrix the element was built from, else the one read off its
        permutation of the domain (``PermDomain.element_of``)."""
        return self.elem if self.elem is not None else domain.element_of(self.perm)

    def inverse(self) -> "Tracked":
        if self._inv is None:
            self._inv = Tracked(_inverse_perm(self.perm))
        return self._inv

    def is_identity(self) -> bool:
        return bool((self.perm == _identity_perm(len(self.perm))).all())


def t_compose(a: Tracked, b: Tracked) -> Tracked:
    """Apply a, then b."""
    return Tracked(b.perm[a.perm])


def _inverse_perm(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = _identity_perm(len(perm))
    return inv


class Rattle:
    """Product-replacement random walk over a fixed generating set.

    The slots and the accumulator are raw permutation arrays, composed
    with one gather a step, and a slot keeps its inverse until it is
    replaced; only a sample is wrapped as a Tracked element.  A step draws
    four integers through the stream's ``integers`` (a ``Stream`` or a numpy
    Generator), as ``tests/oracles.py``'s ``TrackedRattle`` does, so the
    samples are those of the same walk over Tracked products."""

    def __init__(self, gens: list[Tracked], ident: Tracked, rng):
        self.slots = [t.perm for t in gens] + [ident.perm] * 6
        self._invs: list[np.ndarray | None] = [None] * len(self.slots)
        self.accu = ident.perm
        self._integers = rng.integers
        for _ in range(max(50, 5 * len(self.slots))):
            self._stir()

    def _stir(self) -> np.ndarray:
        slots, invs, integers = self.slots, self._invs, self._integers
        n = len(slots)
        i, j, invert, after = int(integers(n)), int(integers(n - 1)), int(integers(2)), int(integers(2))
        # i != j keeps <slots> invariant; allowing i == j can erase a slot
        if j >= i:
            j += 1
        s = slots[i]
        if invert:
            if invs[i] is None:
                invs[i] = _inverse_perm(s)
            s = invs[i]
        # s after slot j, else before it (a, then b, is b[a])
        slots[j] = s[slots[j]] if after else slots[j][s]
        invs[j] = None
        self.accu = slots[j][self.accu]
        return self.accu

    def sample(self) -> Tracked:
        return Tracked(self._stir())


# ---------------------------------------------------------------------------
# stabilizer chains


def frontier_levels(images, seen: np.ndarray, base: int, par: np.ndarray | None = None):
    """Frontier BFS from base, yielding each level, base first; a level is
    applied only when the next one is asked for.  images[i](xs) gives
    generator i's images of an index array, and seen is the caller's mask,
    marked as points are reached, between generators, so a level has no
    repeats.  With par, each generator's new images are sorted and par[y]
    is set to the index of the generator that reached y.  Between yields
    only the current level is held, so a caller that stops early and
    closes the generator keeps nothing else of the BFS."""
    seen[base] = True
    level = np.array([base], dtype=np.int64)
    while level.size:
        yield level
        parts = []
        for gi, image in enumerate(images):
            new = image(level)
            new = new[~seen[new]]  # a copy, so the sort may run in place
            if new.size:
                if par is not None:
                    new.sort()
                    par[new] = gi
                seen[new] = True
                parts.append(new)
        level = np.concatenate(parts) if len(parts) > 1 else parts[0] if parts else level[:0]
        parts = new = None  # only the level outlives the next yield


def schreier_orbit(perms: Sequence[np.ndarray], base: int, size: int):
    """Orbit of a domain index under permutations, with a Schreier vector:
    the levels of ``frontier_levels`` concatenated, the seen mask and par,
    where par[x] is the index of the generator that reached x (-1 off the
    orbit and at the base), over all ``size`` points.  A chain level keeps
    all three as its basic orbit and tree, which its sifts walk home."""
    seen = np.zeros(size, dtype=bool)
    par = np.full(size, -1, dtype=np.int32)
    orbit = np.concatenate(list(frontier_levels([p.__getitem__ for p in perms], seen, base, par)))
    return orbit, seen, par


@dataclass(slots=True, eq=False)
class _Level:
    """A chain level.  ``eff`` is every strong generator added at this level
    or deeper, in the order added; ``orbit``, ``seen`` and ``par`` are the
    BFS tree of the generators it had when its orbit last grew, replaced
    and never edited in place; ``inverses`` caches eff's inverses and the
    identity, stacked (``StabChain._sift_rows``), and goes when eff grows."""

    base: int
    eff: list[Tracked] = field(default_factory=list)
    orbit: np.ndarray | None = None
    seen: np.ndarray | None = None
    par: np.ndarray | None = None
    inverses: np.ndarray | None = None


def _generator_images(level: _Level, points: np.ndarray) -> np.ndarray:
    """The level's strong generators' images of points, stacked (k, len(points));
    a level with none (a based first level of a trivial chain) stacks the
    identity's, so its one transversal is the identity."""
    return np.stack([t.perm[points] for t in level.eff] or [points])


def _transversal_rows(gens: np.ndarray, orbit: np.ndarray, par: np.ndarray, li: int, first: np.ndarray) -> np.ndarray:
    """Level li's transversals' images of the points first, in orbit order,
    as one (orbit, len(first)) int32 array, from its generators gens (k, n)
    and Schreier vector par on n points: one gather per BFS layer, u_b = u_a
    * g for b = g(a), a in an earlier layer, with each a read off the
    generators' forward images of the orbit: with first every point, the
    transversals themselves."""
    m, n = len(orbit), gens.shape[1]
    pos = np.full(n, m)
    pos[orbit] = np.arange(m)
    img = gens[:, orbit]
    g_of, col = (par[img] == np.arange(len(gens))[:, None]).nonzero()  # g reached g(orbit[col])
    src = np.full(m + 1, m)  # the position of each point's parent; m at the base and past the end
    src[pos[img[g_of, col]]] = col
    out = np.empty((m, len(first)), dtype=np.int32)
    out[0] = first
    lo = 1
    while lo < m:
        hi = lo + int((src[lo:] >= lo).argmax())
        if hi == lo:
            raise CertificationError(f"Schreier vector of level {li} does not lead its orbit to its base")
        out[lo:hi] = gens[par[orbit[lo:hi], None], out[src[lo:hi]]]
        lo = hi
    return out


class Support(NamedTuple):
    """A chain on its support Δ (``StabChain.support``): Δ's points, the base
    points' positions in Δ, and the levels' transversals on Δ, top first."""

    points: np.ndarray
    base: np.ndarray
    stacks: list[np.ndarray]

    def orders(self, *words: np.ndarray) -> np.ndarray:
        """Orders of the products of words (``StabChain.words``, or one word
        for all rows), applied in turn, all rows walking the base points'
        cycles at once: only the identity fixes a base, so |g| is their lcm."""
        walk = [(T.ravel(), w[i, :, None] * len(self.points)) for w in words for i, T in enumerate(self.stacks)]
        pts = self.base + np.zeros((max(w.shape[1] for w in words), 1), dtype=np.intp)
        lengths, step = np.zeros_like(pts), 0
        while not lengths.all():
            step += 1
            for flat, offsets in walk:
                pts = flat[offsets + pts]
            lengths[(lengths == 0) & (pts == self.base)] = step
        return np.lcm.reduce(lengths, axis=1, initial=1)  # partial lcms divide |g|: no overflow


# entries of a block of permutations or base images (element_perm_blocks, the Schreier
# pass) or of words times levels (Support.orders): a few intp arrays under 1 MiB
BLOCK_ENTRIES = 1 << 14


class StabChain:
    """BSGS over a PermDomain.

    Every decision reads permutations only, and the stored generators are
    Tracked permutations of the domain.  A level's ``eff`` is every strong
    generator added at it or deeper, in the order added, and its tree is
    the BFS tree of the generators it had when its orbit last grew: a new
    generator that keeps the orbit leaves the old tree valid.
    The Schreier pass and ``contains_block`` sift an element's images of Q
    (``_sift_points``) alone (``_sift_rows``).
    """

    MAX_STALL = 250
    QUIET_ROUNDS = 14

    def __init__(self, domain: PermDomain):
        self.domain = domain
        self.levels: list[_Level] = []
        self._arange = domain.identity_perm
        spec = domain.action.spec
        self.ident = Tracked(self._arange, identity_element(spec, domain.action.n))
        self.originals: list[Tracked] = []
        self.verified = False

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        domain: PermDomain,
        generators: Sequence[GroupElement | Tracked],
        order: int | None = None,
        bound: int | None = None,
        rng=None,
        name: str = "",
        base: int | None = None,
    ) -> "StabChain":
        """Chain construction, certified by a bound or by the Schreier pass.
        Each generator (original) is a Tracked element of the domain or a
        matrix element, whose permutation is read here.  Originals are added,
        and so are members, while the chain is short of its target (``order``,
        else ``bound``); each other one is sifted once after the certificate.
        A ``base`` index is the first base point, whose basic orbit may be
        the point alone; otherwise each level's base is the first point
        moved by the residue that opened it.

        Bound: ``bound`` is the certified order of a group P known to
        contain the generated group S (determinant, form or block-shape
        invariants, homomorphic images, ...), on this action or with both
        actions faithful.  The Monte Carlo chain's order is a lower bound on
        |S|, so a chain that reaches |P| proves S = P and needs no Schreier
        pass (sandwich); a chain above it raises CertificationError.

        Schreier pass: a chain below its bound, or built without one, ends
        in the deterministic Schreier generator check.

        ``order`` is the order S must have, checked after the certificate.
        A known order is passed as both: ``order=X, bound=X``.  A literal or
        searched candidate has no a-priori group, and passes ``order`` alone,
        so the Schreier pass rejects a proper supergroup whose orbit
        products pass through X on the way up.
        """
        chain = cls(domain)
        if base is not None:
            chain.levels.append(_Level(base, [], *schreier_orbit([], base, domain.size)))
        rng = rng if rng is not None else Stream(zlib.crc32(name.encode()) or 1)
        chain.originals = [g if isinstance(g, Tracked) else Tracked(domain.perm_of(g), g) for g in generators]
        target, added = bound if order is None else order, 0
        while added < len(chain.originals) and (target is None or chain.order() < target):
            chain._add(chain.originals[added])
            added += 1
        nontrivial = [t for t in chain.originals if not t.is_identity()]
        chain._build_monte_carlo(nontrivial, rng, target, required=order is not None)
        chain._certify(bound, name)
        if not all(chain.contains_tracked(t) for t in chain.originals[added:]):
            raise CertificationError(f"{name}: a generator the chain did not add fails to sift")
        if order is not None and chain.order() != order:
            raise CertificationError(f"{name}: generated group has order {chain.order()}, not the claimed {order}")
        return chain

    def _build_monte_carlo(self, gens, rng, target: int | None, required: bool = False):
        """Sift random elements of <gens> until the chain reaches target, or
        until a run of samples sifts: more than MAX_STALL below a required
        order, QUIET_ROUNDS otherwise.  No walk starts when there is nothing
        to sample or the target is already reached."""
        if not gens or (target is not None and self.order() >= target):
            return
        patience = self.MAX_STALL + 1 if required else self.QUIET_ROUNDS
        rat = Rattle(gens, self.ident, rng)
        quiet = 0
        while quiet < patience and (target is None or self.order() < target):
            quiet = 0 if self._add(rat.sample()) else quiet + 1

    def _certify(self, bound: int | None, name: str):
        """Make a Monte Carlo chain exact for the group of its strong
        generators: complete at its bound (sandwich), else by the Schreier
        pass; the chain is then ``verified``."""
        if bound is None or self.order() < bound:
            self._verify_loop()
        if bound is not None and self.order() > bound:
            raise CertificationError(
                f"{name}: generated group has order {self.order()}, exceeding its bound {bound}"
            )
        self.verified = True

    def _verify_loop(self):
        while (witness := self._schreier_witness()) is not None:
            if not self._add(witness):
                raise CertificationError("a Schreier witness sifts into the chain it was found against")

    def _schreier_witness(self):
        """The residue of the first Schreier generator u_beta * g * u_g(beta)^-1
        that does not sift (levels deepest first, beta in orbit order, g in
        eff order), else None.  A level's rows u_beta * g on Q, read off
        u_beta's images of Q (``_transversal_rows``), are sifted from that
        level on (``_sift_rows``), which takes u_g(beta)^-1 off, in chunks of
        at most BLOCK_ENTRIES entries; only the first that fails is composed
        in full, for ``_sift`` to give its residue."""
        points = self._sift_points()
        for li, level in reversed(list(enumerate(self.levels))):
            gens = _generator_images(level, self._arange)
            images = _transversal_rows(gens, level.orbit, level.par, li, points)
            step = max(1, BLOCK_ENTRIES // (len(gens) * len(points)))
            for lo in range(0, len(level.orbit), step):
                # row i * len(gens) + j applies u_beta_i, then eff[j]
                rows = gens[:, images[lo:lo + step]].transpose(1, 0, 2).reshape(-1, len(points))
                self._sift_rows(rows, li)
                bad = np.flatnonzero((rows != points).any(axis=1))
                if bad.size:
                    i, j = divmod(int(bad[0]), len(gens))
                    u = self._transversal(li, int(level.orbit[lo + i]))
                    return self._sift(t_compose(u, level.eff[j]))[0]
        return None

    # -- internals -------------------------------------------------------------

    def _transversal(self, li: int, beta: int) -> Tracked:
        level = self.levels[li]
        path = []
        b = beta
        while b != level.base:
            if len(path) == len(level.orbit):
                raise CertificationError(f"Schreier vector of level {li} does not lead {beta} to its base")
            e = level.eff[int(level.par[b])]
            path.append(e)
            b = int(e.inverse().perm[b])
        return reduce(t_compose, reversed(path)) if path else self.ident

    def _sift(self, t: Tracked):
        """The residue of t and the level where its sift stopped, walking a
        raw permutation array home level by level; t itself when no level
        moves it."""
        perm = t.perm
        for li, level in enumerate(self.levels):
            base = level.base
            beta = int(perm[base])
            if beta == base:
                continue
            if not level.seen[beta]:
                return (t if perm is t.perm else Tracked(perm)), li
            eff, par, steps = level.eff, level.par, 0
            while beta != base:
                if steps == len(level.orbit):
                    raise CertificationError(f"Schreier vector of level {li} does not lead a sift to its base")
                steps += 1
                einv = eff[par[beta]].inverse().perm
                perm = einv[perm]
                beta = int(einv[beta])
        return (t if perm is t.perm else Tracked(perm)), len(self.levels)

    def _add(self, t: Tracked) -> bool:
        residue, li = self._sift(t)
        if residue.is_identity():
            return False
        if li == len(self.levels):
            self.levels.append(_Level(int(np.flatnonzero(residue.perm != self._arange)[0])))
        N = self.domain.size
        for level in self.levels[:li + 1]:
            level.eff.append(residue)
            level.inverses = None
            if level.orbit is None or not level.seen[residue.perm[level.orbit]].all():
                level.orbit, level.seen, level.par = schreier_orbit([g.perm for g in level.eff], level.base, N)
        return True

    def add_element(self, g: GroupElement | Tracked) -> bool:
        """Incremental extension; invalidates prior verification."""
        self.verified = False
        t = g if isinstance(g, Tracked) else Tracked(self.domain.perm_of(g), g)
        self.originals.append(t)
        return self._add(t)

    def conjugate(self, x: GroupElement | Tracked, from_level: int = 0) -> "StabChain":
        """The chain of x^-1 G^(from_level) x, relabeled through perm(x)
        without a build; G^(i) is the pointwise stabilizer of the first i
        base points.

        x maps base point b to the conjugate's base point x(b), and the
        orbits and Schreier vectors move the same way; each generator t
        becomes x^-1 t x, a permutation relabeled through perm(x).  The
        levels from from_level on are a chain of G^(from_level), whose
        strong generators are the originals of the relabeled chain, so the
        relabeled chain carries this chain's certificate.  A trivial x
        relabels nothing and shares the generators and the Schreier trees,
        which a later ``_add`` replaces and never edits.
        """
        xt = x if isinstance(x, Tracked) else Tracked(self.domain.perm_of(x), x)
        pi = xt.perm
        out = StabChain(self.domain)
        images: dict[int, Tracked] = {}
        trivial = xt.is_identity()

        def conj(t: Tracked) -> Tracked:
            if trivial:
                return t
            if id(t) not in images:
                perm = np.empty_like(t.perm)
                perm[pi] = pi[t.perm]
                images[id(t)] = Tracked(perm)
            return images[id(t)]

        def moved(a: np.ndarray) -> np.ndarray:
            # the entry of point b goes to point x(b)
            if trivial:
                return a
            res = np.empty_like(a)
            res[pi] = a
            return res

        out.levels = [_Level(int(pi[lv.base]), [conj(t) for t in lv.eff], pi[lv.orbit], moved(lv.seen), moved(lv.par))
                      for lv in self.levels[from_level:]]
        if from_level == 0:
            out.originals = [conj(t) for t in self.originals]
        else:
            out.originals = list(out.levels[0].eff) if out.levels else []
        out.verified = self.verified
        return out

    # -- queries ----------------------------------------------------------------

    def order(self) -> int:
        out = 1
        for level in self.levels:
            out *= len(level.orbit)
        return out

    def contains(self, g: GroupElement) -> bool:
        """Membership of the permutation image (kernel classes are collapsed)."""
        try:
            return self.contains_tracked(Tracked(self.domain.perm_of(g), g))
        except ActionError:
            return False

    def contains_tracked(self, t: Tracked) -> bool:
        return self._sift(t)[0].is_identity()

    def first_transversal(self, beta: int) -> Tracked | None:
        """u_beta, the element that level 0's Schreier tree gives to map the
        first base point to index beta, else None off the first basic orbit."""
        return self._transversal(0, beta) if self.levels and self.levels[0].seen[beta] else None

    def random_element(self, rng) -> Tracked:
        """The product of u_b for a uniform b of each basic orbit, deepest first,
        each walked home (``_transversal``)."""
        perm = self._arange
        for li in range(len(self.levels) - 1, -1, -1):
            level = self.levels[li]
            perm = self._transversal(li, int(level.orbit[rng.integers(len(level.orbit))])).perm[perm]
        return Tracked(perm.astype(np.intp, copy=False)) if self.levels else self.ident

    def words(self):
        """The group's elements as words in (levels, k) chunks of at most
        BLOCK_ENTRIES entries: element x's word is x's digits in the orbit
        sizes, top level first, so the words run lexicographically."""
        sizes = [len(lv.orbit) for lv in reversed(self.levels)]
        total, rows = math.prod(sizes), max(1, BLOCK_ENTRIES // max(1, len(sizes)))
        for lo in range(0, total, rows):
            x = np.arange(lo, min(lo + rows, total))
            out = np.empty((len(sizes), len(x)), dtype=np.intp)
            for i, size in enumerate(sizes):
                out[i] = x // math.prod(sizes[i + 1:]) % size
            yield out

    def element_perm_blocks(self):
        """The group's elements as stacked (k, N) permutation arrays of at most
        BLOCK_ENTRIES entries (or one element), in ``words`` order.  A chunk's
        words that share a prefix are consecutive, so each level takes one
        gather over the distinct prefixes, and no matrix is composed."""
        N = len(self._arange)
        stacks = [_transversal_rows(_generator_images(lv, self._arange), lv.orbit, lv.par, li, self._arange)
                  for li, lv in reversed(list(enumerate(self.levels)))]
        total, rows = math.prod(len(T) for T in stacks), max(1, BLOCK_ENTRIES // N)
        for lo in range(0, total, rows):
            # block[i] is prefix first + i; prefix p extends p // len(T) by p % len(T)
            block, span, first = self._arange[None, :], total, 0
            for T in stacks:
                span //= len(T)
                p = np.arange(lo // span, (min(lo + rows, total) - 1) // span + 1)
                block = T.ravel()[(p % len(T) * N)[:, None] + block[p // len(T) - first]]
                first = lo // span
            yield block.astype(np.intp)

    def support(self) -> Support:
        """The chain relabeled onto its support Δ, the union of its base points'
        orbits, on which the group acts faithfully: each level's generators,
        orbit and Schreier vector are read at Δ's points and renumbered."""
        N = len(self._arange)
        inside = np.zeros(N, dtype=bool)
        for level in self.levels:
            if not inside[level.base]:
                inside |= schreier_orbit([t.perm for t in self.levels[0].eff], level.base, N)[1]
        points, rank = np.flatnonzero(inside), np.zeros(N, dtype=np.int32)
        rank[points] = np.arange(len(points))  # each point's position in Δ
        stacks = [_transversal_rows(rank[_generator_images(lv, points)], rank[lv.orbit], lv.par[points], li,
                                    np.arange(len(points))) for li, lv in reversed(list(enumerate(self.levels)))]
        return Support(points, rank[[lv.base for lv in self.levels]], stacks)

    def contains_block(self, block: np.ndarray) -> np.ndarray:
        """Membership mask of the stacked permutations block[i] (shape (k, N)),
        each in the domain's ambient semilinear group (``PermDomain.base``),
        as block enumerations and conjugates of chain elements are: a row is
        a member when its images of Q sift home to Q (``_sift_rows``).
        ``contains_tracked`` is exact for any permutation."""
        points = self._sift_points()
        u = block[:, points]
        self._sift_rows(u)
        return (u == points).all(axis=1)

    def _sift_points(self) -> np.ndarray:
        """Q: the domain's base (``PermDomain.base``), then the chain's base points."""
        return np.concatenate([self.domain.base, [level.base for level in self.levels]]).astype(np.intp)

    def _sift_rows(self, u: np.ndarray, start: int = 0):
        """Sift the rows of u, each an element's images of Q, in place from
        level start on to their residue's images, as ``_sift`` walks.  Only
        the identity of the ambient group fixes Q, so a member comes home to
        Q.  At each level, the rows that move its base within its orbit walk
        home together, one gather a step from its generators' inverses,
        stacked on first use and kept until its generators grow."""
        N, at = np.intp(len(self._arange)), len(self.domain.base)  # at: the column of level 0's base point
        alive = np.ones(len(u), dtype=bool)
        for li, level in enumerate(self.levels[start:], start):
            alive &= level.seen[u[:, at + li]]
            walk = u[alive]
            if level.inverses is None:
                # par is -1 at the base, so a row there reads the last block: the identity
                level.inverses = np.concatenate([t.inverse().perm for t in level.eff] + [self._arange])
            inverses = level.inverses
            for _ in range(len(level.orbit)):
                if (walk[:, at + li] == level.base).all():
                    break
                walk = inverses[(level.par[walk[:, at + li]] * N)[:, None] + walk]
            else:
                raise CertificationError(f"Schreier vector of level {li} does not lead a sift to its base")
            u[alive] = walk


# ---------------------------------------------------------------------------
# group specs


_DOMAIN_CACHE: dict[tuple, PermDomain] = {}


def shared_domain(tag: str, spec: FieldSpec, n: int) -> PermDomain:
    domain = _cached_domain(tag, spec, n)
    if domain is None:
        domain = _DOMAIN_CACHE[tag, spec.p, spec.f, n] = PermDomain(Action(tag, spec, n))
        domain.identity_perm = _IDENTITY_PERMS.setdefault(domain.size, domain.identity_perm)
    return domain


def _cached_domain(tag: str, spec: FieldSpec, n: int) -> PermDomain | None:
    """The shared domain of tag in (n, q) if it was built, else None."""
    return _DOMAIN_CACHE.get((tag, spec.p, spec.f, n))


class TrackedGenerators(Sequence):
    """A spec's generators kept as Tracked elements of one domain; a read
    gives the matrix a generator was built from, else the one read off its
    permutation (``Tracked.matrix``), which a vector domain supports."""

    def __init__(self, tracked: list[Tracked], domain: PermDomain):
        self.tracked = list(tracked)
        self.domain = domain

    def __len__(self) -> int:
        return len(self.tracked)

    def __getitem__(self, i: int) -> GroupElement:
        return self.tracked[i].matrix(self.domain)


@dataclass
class GroupSpec:
    """Named matrix group: generators, claimed order, home action.

    A spec is one of two kinds.  One made by ``of_chain`` carries the
    certificate of the chain its caller built, and its order is that
    chain's.  One made with a formula order has ``chain()`` take that order
    as a known order and the bound (sandwich, each generator the chain did
    not add sifted once): a chain above it is refused, but a wrong formula
    at or below a partial chain's order goes unnoticed.

    generators is a list of matrices, or a ``TrackedGenerators`` whose
    matrices are read off their permutations.  stabilizer_of, when set, records
    that the group is the full ambient stabilizer of the listed points
    (applied in order); the intersection engine uses it to compute H n K as
    an iterated point stabilizer.
    """

    name: str
    n: int
    spec: FieldSpec
    generators: Sequence[GroupElement]
    claimed_order: int | None = None
    action_tag: str | None = None
    stabilizer_of: list[ActionPoint] | None = None
    _chain: StabChain | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.action_tag is None:
            # V - 0 and V* - 0 together are faithful for a duality element
            self.action_tag = DUALITY if any(g.dual for g in self.generators) else VECTOR

    @classmethod
    def of_chain(cls, name: str, chain: StabChain, tracked: list[Tracked] | None = None) -> "GroupSpec":
        """The spec of a group whose certified chain its caller built: unlike
        a spec with a formula order, it carries that chain's certificate
        (``chain()`` returns the chain).  Its home action, n, field and order
        are the chain's, and its generators are the given Tracked elements
        of the chain's domain, else the chain's originals.  A chain whose
        certificate has not run (``StabChain.verified``) is refused."""
        if not chain.verified:
            raise CertificationError(f"{name}: its chain's certificate has not run")
        action = chain.domain.action
        gens = TrackedGenerators(tracked or chain.originals or [chain.ident], chain.domain)
        return cls(name, action.n, action.spec, gens, claimed_order=chain.order(), action_tag=action.tag, _chain=chain)

    def home_domain(self) -> PermDomain:
        return shared_domain(self.action_tag, self.spec, self.n)

    def point_domain(self, point: ActionPoint) -> PermDomain:
        """The home if it holds the point (a duality home holds vectors and
        functionals), else the point's shared domain."""
        if self.action_tag == DUALITY and point.tag in (VECTOR, FUNCTIONAL):
            return self.home_domain()
        return shared_domain(point.tag, self.spec, self.n)

    def tracked_generators(self, domain: PermDomain | None = None) -> list[Tracked]:
        """The generators as Tracked elements of a domain, the home domain by
        default: kept ones, else the originals of a chain built there, which
        are the generators' permutations in order, else read off each
        matrix."""
        domain = self.home_domain() if domain is None else domain
        gens = self.generators
        if isinstance(gens, TrackedGenerators) and gens.domain is domain:
            return gens.tracked
        if self._chain is not None and self._chain.domain is domain:
            return self._chain.originals
        return [Tracked(domain.perm_of(g), g) for g in gens]

    def chain(self) -> StabChain:
        """Build (once) the certified stabilizer chain on the home action; a
        claimed order is a known order, so it is both the order and the bound."""
        if self._chain is None:
            self._chain = StabChain.build(self.home_domain(), self.tracked_generators(),
                                          order=self.claimed_order, bound=self.claimed_order, name=self.name)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def contains(self, g: GroupElement) -> bool:
        return self.chain().contains(g)

    def includes(self, other: "GroupSpec") -> bool:
        """Whether every generator of other lies in this group, sifted as
        permutations of this chain's domain (``tracked_generators``); a
        generator that does not act there is not in it."""
        chain = self.chain()
        try:
            tracked = other.tracked_generators(chain.domain)
        except ActionError:
            return False
        return all(chain.contains_tracked(t) for t in tracked)

    def with_name(self, name: str) -> "GroupSpec":
        return GroupSpec(name, self.n, self.spec, self.generators, self.claimed_order,
                         self.action_tag, self.stabilizer_of, self._chain)


# ---------------------------------------------------------------------------
# orbits over packed keys (domain-free)


@dataclass
class OrbitSet:
    """Closure of a seed under the generators: its size and the seen
    points, a bool mask over the keyspace, or over the indices of
    ``domain`` for an orbit taken on an enumerated domain."""

    size: int
    seen: np.ndarray
    domain: PermDomain | None = None


_SCAN_SHARE = 64
# a GF(2)-linear keyspace of at least _PARALLEL_KEYS keys is swept by up
# to _SWEEP_WORKERS threads, and a sweep passes over a span of _SPAN_BLOCKS
# blocks with no key to apply after one packed read of its seen bytes
_PARALLEL_KEYS = 1 << 20
_SWEEP_WORKERS = 2
_SPAN_BLOCKS = 8
# bytes that an orbit budget buys per point; an orbit's masks are priced
# in them before they are allocated
ORBIT_POINT_BYTES = 24
# the orbit budget in MiB of orbit, factorize.verify_claim and grpfact verify
DEFAULT_BUDGET_MB = 2048


def budget_points(budget_mb: int) -> int:
    # an orbit holds a byte mask and a bit mask over its keyspace (9/8 bytes
    # per key, 18 MiB for t1r14-ext's 8.4M points), one sweep block's arrays
    # and the action's cached block tables (128 KiB per generator in
    # characteristic two), and orbit refuses masks over the budget's price
    # before it allocates them, whatever the size of the keyspace
    return max(1 << 16, budget_mb * (1 << 20) // ORBIT_POINT_BYTES)


DEFAULT_MAX_POINTS = budget_points(DEFAULT_BUDGET_MB)


def orbit(
    group_or_gens,
    point: ActionPoint,
    *,
    max_points: int = DEFAULT_MAX_POINTS,
    keep_keys: bool = False,
) -> OrbitSet:
    """BFS closure of the point under the generators, by
    ``frontier_levels``, keeping only the size and a seen mask.

    A projective or antiflag seed, or a spec that already holds
    permutations of the seed's shared domain (its Tracked generators, or
    its certified chain's originals), takes the orbit over that domain's
    indices, under gathers from those permutations: past the cap the
    domain raises ``DomainCapError``, and no matrix is composed.  Any
    other orbit runs over the packed keys of the seed's action, with no
    enumerated domain, and no level sorts.  Its seen mask spans the
    keyspace, and once a level reaches keyspace/_SCAN_SHARE images, the
    BFS and its level are dropped and the sweep (``_sweep_closure``)
    closes the seen mask in aligned blocks of the action's block width,
    each block's keys applied under every generator at once
    (``_block_images``).  A GF(2)-linear keyspace of at least
    _PARALLEL_KEYS keys is swept by two threads when the process may run
    on two CPUs (``_sweep_workers``); the digit path stays on one.  Either
    way the mask and size are those of one thread, and the sweep runs
    beside nothing but the seen mask, its own packed mask of applied keys,
    each worker's block arrays, the action's cached tables and the sweep's
    stacked block tables.
    Those masks, keyspace * 9/8 bytes, are priced at ORBIT_POINT_BYTES per
    point of max_points before they are allocated.  Either route checks
    max_points after each level.  ``keep_keys`` is accepted only as False,
    for callers that still pass it; ``orbit_with_transporters`` keeps the
    orbit points and a Schreier vector.
    """
    if keep_keys:
        raise ValueError("orbit keeps no keys; use orbit_with_transporters")
    domain = None
    if isinstance(group_or_gens, GroupSpec):
        group = group_or_gens
        spec, n = group.spec, group.n
        cached = _cached_domain(point.tag, spec, n)
        held = (getattr(group.generators, "domain", None), getattr(group._chain, "domain", None))
        if point.tag in (PROJECTIVE, ANTIFLAG) or (cached is not None and cached in held):
            domain = shared_domain(point.tag, spec, n)
        else:
            gens = list(group.generators)
    else:
        gens = list(group_or_gens)
        spec, n = gens[0].spec, gens[0].n
    if domain is not None:
        keyspace = domain.size
        images = [t.perm.__getitem__ for t in group.tracked_generators(domain)]
        start = domain.index_of_point(point)
    else:
        action = Action(point.tag, spec, n)
        keyspace = action.keyspace
        mask_bytes = keyspace + (keyspace + 7) // 8
        if mask_bytes > ORBIT_POINT_BYTES * max_points:
            raise OrbitBudgetError(
                f"orbit masks over {keyspace} keys need {mask_bytes} bytes, "
                f"more than the {ORBIT_POINT_BYTES * max_points} bytes of a {max_points}-point budget", 1)
        images = [partial(action.apply_batch, g) for g in gens]
        start = action.point_key(point)
    seen = np.zeros(keyspace, dtype=bool)
    total, levels = 0, frontier_levels(images, seen, start)
    for level in levels:
        total += level.size
        if total > max_points:
            raise OrbitBudgetError(f"orbit exceeded {max_points} points", total)
        if domain is None and level.size * len(images) * _SCAN_SHARE >= keyspace:
            levels.close()
            del level
            total = _sweep_closure(action, gens, seen, max_points)
            break
    return OrbitSet(total, seen, domain)


def _sweep_workers(action: Action, keyspace: int) -> int:
    """Threads that sweep a keyspace: two on a GF(2)-linear one of at
    least _PARALLEL_KEYS keys, when the process may run on two CPUs, else
    one.  A linear block is one stacked lookup and one scatter, numpy
    calls that release the GIL.  The digit path stays on one.  On a 2-core
    machine two workers won there on Sp_8(3)'s 3^16 pair keys (17.0 s on
    one, 10.3 s on two), SL_15(3)'s vectors (11.0 s, 7.7 s) and SL_8(9)'s
    (81.2 s, 64.0 s), and lost on SL_4(9)'s 9^8 pair keys (5.8 s, 6.6 s);
    no benchmark workload runs the digit path to settle a split rule."""
    if action.linear and keyspace >= _PARALLEL_KEYS:
        return min(_SWEEP_WORKERS, len(os.sched_getaffinity(0)))
    return 1


def _block_images(action: Action, gens):
    """``images(offsets, base)``: the images of base + offsets under each
    generator, one row per generator, for base a multiple of
    2**action.block_bits and offsets below it.  A GF(2)-linear key map has
    f(base + j) = f(base) XOR f(j) there, so the images of every offset
    and of every block start are stacked once, and a block is one lookup
    and one XOR with its column; the digit path applies whole keys.  A row
    is filled in place from the basis keys' images (``actions._xor_table``)."""
    if not action.linear:
        return lambda offsets, base: np.stack([action.apply_batch(g, offsets + base) for g in gens])
    bits, nbits = action.block_bits, action.keyspace.bit_length() - 1
    low, high = (np.zeros((len(gens), 1 << k), dtype=np.int64) for k in (min(bits, nbits), max(0, nbits - bits)))
    for g, lo, hi in zip(gens, low, high):
        cols = action.apply_batch(g, np.left_shift(1, np.arange(nbits, dtype=np.int64)))
        _xor_table(cols[:bits], lo)
        _xor_table(cols[bits:], hi)

    def images(offsets: np.ndarray, base: int) -> np.ndarray:
        out = np.take(low, offsets, axis=1)
        out ^= high[:, base >> bits, None]
        return out

    return images


def _sweep_closure(action: Action, gens, seen: np.ndarray, max_points: int) -> int:
    """Close the seen mask under the generators in place and return the
    orbit size.  done, a packed bit mask of the seen keys whose images are
    set, starts empty, so every seen key is applied once, the BFS's
    included; the two masks are all the sweep keeps beyond each worker's
    block arrays.

    A pass walks the keyspace once in aligned blocks of
    2**action.block_bits keys (a multiple of 8, so a block starts on a byte
    of the bit mask), grouped in spans of _SPAN_BLOCKS blocks that
    ``_sweep_workers`` threads take in turn from one shared iterator of the
    pass, so a worker with light spans takes more of them.  Taking the next
    span is one call under the GIL, so each span has one owner per pass.
    A worker packs a block's seen bytes once, and takes from that snapshot
    both the keys to apply (seen and not done) and the done bits it
    stores, so a key that another worker sets meanwhile is neither marked
    done nor lost: it waits for the next pass.  Each done byte lies in one
    span, so one worker per pass, and seen only ever gets stores of True,
    so the workers need no lock.  All generators' images
    of a block's keys (``_block_images``) are set in seen with no
    filter; images behind a walk wait for the next pass.  A pass, counted
    after every worker finishes, that sets no new key leaves every seen key
    done, which ends the closure: the mask and size are one worker's, and
    every orbit key is applied once per generator.  The last passes apply
    few keys, so a span of _SPAN_BLOCKS blocks with none is passed over
    after one packed read.
    """
    block = 1 << action.block_bits
    span = block * _SPAN_BLOCKS
    workers = _sweep_workers(action, seen.size)
    images = _block_images(action, gens)
    done = np.zeros((seen.size + 7) // 8, dtype=np.uint8)

    def sweep(spans) -> None:
        for first in spans:
            unapplied = np.packbits(seen[first : first + span]) & ~done[first // 8 : (first + span) // 8]
            if not unapplied.any():
                continue
            for lo in range(first, min(first + span, seen.size), block):
                snapshot = np.packbits(seen[lo : lo + block])
                bits = done[lo // 8 : (lo + block) // 8]
                new = snapshot & ~bits
                if new.any():
                    bits[:] = snapshot
                    todo = np.flatnonzero(np.unpackbits(new).view(bool))
                    seen[images(todo, lo)] = True

    if workers > 1:
        # imported here, since it loads logging, which no one-worker sweep needs
        from concurrent.futures import ThreadPoolExecutor
    total, grown = 0, int(np.count_nonzero(seen))
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        run = map if pool is None else pool.map
        while grown > total:
            total = grown
            spans = iter(range(0, seen.size, span))
            list(run(sweep, [spans] * workers))  # re-raises a worker's error
            grown = int(np.count_nonzero(seen))
            if grown > max_points:
                raise OrbitBudgetError(f"orbit exceeded {max_points} points", grown)
    return total


class TransporterOrbit(NamedTuple):
    """A point's orbit over the indices of its shared domain, in
    ``schreier_orbit``'s order (the point first), with the generators'
    permutations of that domain and the Schreier vector par."""

    domain: PermDomain
    perms: list[np.ndarray]
    orbit: np.ndarray
    par: np.ndarray
    size: int


def orbit_with_transporters(group: GroupSpec, point: ActionPoint) -> TransporterOrbit:
    """The point's orbit with a Schreier vector, by ``schreier_orbit`` over
    the generators' permutations of the point's domain
    (``GroupSpec.point_domain``).  No verify run calls it; it stays while
    ``claimbench/tracing.py`` traces it by name."""
    domain = group.point_domain(point)
    perms = [t.perm for t in group.tracked_generators(domain)]
    orb, _, par = schreier_orbit(perms, domain.index_of_point(point), domain.size)
    return TransporterOrbit(domain, perms, orb, par, len(orb))


def point_chain(group: GroupSpec, point: ActionPoint) -> tuple[StabChain, Tracked]:
    """A certified chain of the group on the point's domain
    (``GroupSpec.point_domain``) whose first basic orbit holds the point,
    and u_p, its level-0 transversal element that maps the first base
    point to the point, so the chain relabeled through u_p
    (``StabChain.conjugate``) is based at the point.  It is the group's own
    chain when that lies on the domain with the point in its first basic
    orbit; otherwise it is built there with the point as its first base
    point, and the group's order as its known order and bound, and u_p is
    the identity."""
    chain, domain = group.chain(), group.point_domain(point)
    x = domain.index_of_point(point)
    u = chain.first_transversal(x) if chain.domain is domain else None
    if u is None:
        chain = StabChain.build(domain, group.tracked_generators(domain), order=group.order(), bound=group.order(),
                                name=group.name, base=x)
        u = chain.ident
    return chain, u


def stabilizer_generators(
    group: GroupSpec,
    point: ActionPoint,
    name: str | None = None,
) -> GroupSpec:
    """Point stabilizer, certified by orbit-stabilizer.

    With u = u_p the transversal element of a chain whose first basic orbit
    holds the point, from its first base point b0 (``point_chain``), the
    stabilizer is u^-1 G_b0 u.  The chain's levels from 1 on are a chain of
    G_b0, so they are relabeled through u (``StabChain.conjugate``) and
    nothing is sifted; the order is |G| / |b0^G| (Holt, Eick and O'Brien,
    Handbook of CGT, 2005, 4.1).

    The returned spec is made from that certified chain
    (``GroupSpec.of_chain``), so its generators are Tracked permutations of
    the chain's domain: the group's home, or the point's domain for a point
    off the home, such as a functional for a group acting on vectors.
    """
    chain, u = point_chain(group, point)
    return GroupSpec.of_chain(name or f"{group.name}_stab", chain.conjugate(u, from_level=1))


# ---------------------------------------------------------------------------
# derived series / solvable residual


def derived_domain(group: GroupSpec) -> PermDomain:
    """Where group's commutators and their conjugates act: having no duality bit,
    on a duality home's vector half V - 0, faithfully on half the points, else on the home."""
    return shared_domain(VECTOR, group.spec, group.n) if group.action_tag == DUALITY else group.home_domain()


def _derived_product(group: GroupSpec, *factors: Tracked) -> Tracked:
    """A product of elements of group's home with no duality bit, on group's derived domain."""
    product, size = reduce(t_compose, factors), derived_domain(group).size
    return product if len(product.perm) == size else Tracked(product.perm[:size])


def commutators(group: GroupSpec) -> list[Tracked]:
    """[a, b] for the generators a before b, on group's derived domain."""
    return [_derived_product(group, a.inverse(), b.inverse(), a, b)
            for a, b in combinations(group.tracked_generators(), 2)]


def conjugates(group: GroupSpec, elements: Iterable[Tracked]):
    """g^-1 t g for each element t of group's home and generator g, lazily, on group's derived domain."""
    gens = group.tracked_generators()
    return (_derived_product(group, g.inverse(), t, g) for t in elements for g in gens)


def derived_subgroup(group: GroupSpec, rng=None, name: str | None = None) -> GroupSpec:
    """Normal closure of the commutators [a_i, a_j], i < j, certified once,
    at its fixpoint.

    The commutators seed a Monte Carlo chain on group's derived domain,
    bounded by the parent's order (D <= parent, whose home is faithful).
    Each round adds the conjugates of the last round's elements that do not
    sift, then resumes the Monte Carlo phase; a Monte Carlo chain never takes
    a non-member for a member, so the fixpoint is the closure.  Only then
    does ``StabChain._certify`` run, and the returned spec keeps the chain.
    On a duality home a derived element is lifted to the home through its
    matrix."""
    rng = rng if rng is not None else Stream(zlib.crc32(group.name.encode()) or 1)
    home, domain = group.home_domain(), derived_domain(group)
    bound = group.order()  # the parent's chain first, so its originals are the generators read here
    chain = StabChain(domain)
    for t in commutators(group):
        chain.add_element(t)
    chain._build_monte_carlo([t for t in chain.originals if not t.is_identity()], rng, bound)
    current = list(chain.levels[0].eff) if chain.levels else []
    added = list(current) if chain.order() < bound else []  # a chain at |parent| is the parent
    while added:
        lifted = added if home is domain else (Tracked(home.perm_of(t.matrix(domain))) for t in added)
        added = [c for c in conjugates(group, lifted) if not chain.contains_tracked(c) and chain.add_element(c)]
        if added:
            current += added
            chain._build_monte_carlo(list(current), rng, bound)
    chain._certify(bound, (name or group.name) + "'")
    # the strong generators, not the k(k-1)/2 commutators, keep the next step small
    return GroupSpec.of_chain(name or f"{group.name}'", chain, current or [chain.ident])


def derived_series(group: GroupSpec, rng=None):
    """group, then each derived subgroup (``derived_subgroup``) while the
    order falls: the last term is the solvable residual.  Each term keeps
    its certified chain, and the step that shows the last term perfect is
    built but not yielded.  A term is derived only when the next one is
    asked for."""
    cur, cur_order = group, group.order()
    step = 0
    yield cur
    while True:
        step += 1
        nxt = derived_subgroup(cur, rng=rng, name=f"{group.name}^({step})")
        if nxt.order() == cur_order:
            return
        cur, cur_order = nxt, nxt.order()
        yield cur


def solvable_residual(group: GroupSpec, rng=None) -> GroupSpec:
    """Limit of the derived series (``derived_series``); the residual keeps
    its certified chain."""
    *_, last = derived_series(group, rng=rng)
    return last.with_name(f"{group.name}^(inf)")


def tracked_power(t: Tracked, e: int) -> Tracked:
    if e < 0:
        return tracked_power(t.inverse(), -e)
    out = None
    base = t
    while e:
        if e & 1:
            out = base if out is None else t_compose(out, base)
        e >>= 1
        if e:
            base = t_compose(base, base)
    return out if out is not None else Tracked(_identity_perm(len(t.perm)))


def element_order_perm(perm: np.ndarray) -> int:
    """Order of a permutation, the lcm of its cycle lengths.

    Pointer doubling labels every point with the least point of its cycle;
    the label counts are the cycle lengths, whose lcm is taken on Python
    ints, which do not overflow.  The index arrays are intp, because numpy
    casts an index array of any other dtype on each gather and bincount.
    """
    jump = np.asarray(perm, dtype=np.intp)
    label = np.arange(len(jump), dtype=np.intp)
    while not np.array_equal(nxt := np.minimum(label, label[jump]), label):
        label, jump = nxt, jump[jump]
    counts = np.bincount(label)
    return math.lcm(*set(counts[counts > 0].tolist()))
