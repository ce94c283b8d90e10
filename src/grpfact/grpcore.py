"""Generic group machinery on enumerated action domains.

Groups are given by semilinear generators; every computation runs on the
permutation image over a chosen action domain.  A ``Tracked`` element
carries its permutation eagerly and its matrix form as a pending product
DAG.  Sifts, random walks, transversals and Schreier generators use
permutations only; a matrix is composed when ``.elem`` is read, which
happens when an element leaves the core: as a generator of a returned
``GroupSpec`` (accepted Schreier generators, derived-subgroup generators,
enumerated intersections, searched witnesses) or as a random element used
as a matrix (product-membership samples, conjugating elements).
Stabilizer chains use randomized Schreier-Sims: with a known (claimed)
target order the build is Las Vegas and the reached order is itself the
certificate; with an unknown order a Monte Carlo phase is followed by a
full deterministic Schreier generator verification pass.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .actions import Action, ActionError, PermDomain
from .gf import FieldSpec
from .linalg import (
    PAIR,
    VECTOR,
    ActionPoint,
    GroupElement,
    identity_element,
    sl_compose,
    sl_inverse,
)


class GrpError(Exception):
    pass


class CertificationError(GrpError):
    pass


class OrbitBudgetError(GrpError):
    def __init__(self, message, partial_size):
        super().__init__(message)
        self.partial_size = partial_size


# ---------------------------------------------------------------------------
# tracked elements: eager permutation image + lazy matrix form


class _Lazy:
    """Matrix side of a Tracked element.

    A leaf holds its GroupElement; otherwise args is (a, b) for "apply a,
    then b" or (a,) for the inverse of a.  Nodes hold no permutations, so
    unread history costs only these small objects.
    """

    __slots__ = ("elem", "args")

    def __init__(self, elem: GroupElement | None = None, args: tuple = ()):
        self.elem = elem
        self.args = args


def _force(node: _Lazy) -> GroupElement:
    """Evaluate a node with an explicit stack; results are memoized and the
    evaluated nodes drop their parents."""
    stack = [node]
    while stack:
        top = stack[-1]
        if top.elem is not None:
            stack.pop()
            continue
        pending = [a for a in top.args if a.elem is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if len(top.args) == 2:
            top.elem = sl_compose(top.args[0].elem, top.args[1].elem)
        else:
            top.elem = sl_inverse(top.args[0].elem)
        top.args = ()
    return node.elem


class Tracked:
    """Group element as a permutation of a domain, with its matrix on demand."""

    __slots__ = ("perm", "_node", "_inv")

    def __init__(self, elem: GroupElement | _Lazy, perm: np.ndarray):
        self._node = elem if isinstance(elem, _Lazy) else _Lazy(elem)
        self.perm = perm
        self._inv = None

    @property
    def elem(self) -> GroupElement:
        node = self._node
        return node.elem if node.elem is not None else _force(node)

    def inverse(self) -> "Tracked":
        if self._inv is None:
            inv_perm = np.empty_like(self.perm)
            inv_perm[self.perm] = np.arange(len(self.perm), dtype=self.perm.dtype)
            self._inv = Tracked(_Lazy(args=(self._node,)), inv_perm)
            self._inv._inv = self
        return self._inv

    def is_identity(self) -> bool:
        return bool((self.perm == np.arange(len(self.perm))).all())


def t_compose(a: Tracked, b: Tracked) -> Tracked:
    """Apply a, then b; the matrix product waits until .elem is read."""
    return Tracked(_Lazy(args=(a._node, b._node)), b.perm[a.perm])


class Rattle:
    """Product-replacement random walk over a fixed generating set."""

    def __init__(self, gens: list[Tracked], ident: Tracked, rng, extra: int = 6, scramble: int = 50):
        self.slots = list(gens) + [ident] * extra
        self.accu = ident
        self.rng = rng
        for _ in range(max(scramble, 5 * len(self.slots))):
            self._stir()

    def _stir(self) -> Tracked:
        # i != j keeps <slots> invariant; allowing i == j can erase a slot
        i = int(self.rng.integers(len(self.slots)))
        j = int(self.rng.integers(len(self.slots) - 1))
        if j >= i:
            j += 1
        s = self.slots[i]
        if self.rng.integers(2):
            s = s.inverse()
        self.slots[j] = t_compose(self.slots[j], s) if self.rng.integers(2) else t_compose(s, self.slots[j])
        self.accu = t_compose(self.accu, self.slots[j])
        return self.accu

    def sample(self) -> Tracked:
        return self._stir()


# ---------------------------------------------------------------------------
# stabilizer chains


class _Level:
    __slots__ = ("base", "own", "eff", "orbit", "seen", "par")

    def __init__(self, base: int):
        self.base = base
        self.own: list[Tracked] = []
        self.eff: list[Tracked] = []
        self.orbit = None
        self.seen = None
        self.par = None


class StabChain:
    """BSGS over a PermDomain.

    Every decision reads permutations only; the stored generators are
    Tracked, so their matrices are composed when a caller reads ``.elem``
    (``suffix_generators``, derived subgroups, searched witnesses).
    """

    MAX_STALL = 4000
    QUIET_ROUNDS = 14

    def __init__(self, domain: PermDomain, base_hint: list[int] | None = None):
        self.domain = domain
        self.levels: list[_Level] = []
        self._arange = domain.identity_perm
        spec = domain.action.spec
        self.ident = Tracked(identity_element(spec, domain.action.n), self._arange)
        self.originals: list[Tracked] = []
        self.verified = False
        for b in base_hint or []:
            lvl = _Level(int(b))
            self.levels.append(lvl)
        for li in range(len(self.levels) - 1, -1, -1):
            self._recompute_orbit(li)

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        domain: PermDomain,
        generators: list[GroupElement],
        base_hint=None,
        known_order: int | None = None,
        rng=None,
        name: str = "",
        max_stall: int | None = None,
        tracked: list["Tracked"] | None = None,
        post_verify: bool = False,
    ) -> "StabChain":
        """Chain construction.

        A known_order build is a certificate only when the caller has an
        a-priori upper bound group of that order containing the generators
        (determinant/form/block-shape invariants, homomorphic images, ...).
        Without such a bound - searched candidates in particular - the
        generated group can exceed the claim while the orbit-length product
        passes through it; post_verify=True closes that hole by running the
        deterministic Schreier check and rejecting any growth.
        """
        chain = cls(domain, base_hint)
        rng = rng if rng is not None else np.random.default_rng(zlib.crc32(name.encode()) or 1)
        chain.originals = tracked if tracked is not None else [
            Tracked(g, domain.perm_of(g)) for g in generators
        ]
        for t in chain.originals:
            chain._add(t)
        nontrivial = [t for t in chain.originals if not t.is_identity()]
        if not nontrivial:
            chain.verified = True
            if known_order is not None and known_order != 1:
                raise CertificationError(f"{name}: trivial group, claimed order {known_order}")
            return chain
        if known_order is not None:
            chain._build_to_order(nontrivial, known_order, rng, name, max_stall)
            if post_verify:
                chain._verify_loop()
                if chain.order() != known_order:
                    raise CertificationError(
                        f"{name}: generated group has order {chain.order()}, "
                        f"exceeding the claimed {known_order}"
                    )
        else:
            chain._build_monte_carlo(nontrivial, rng)
            chain._verify_loop()
        chain.verified = True
        return chain

    def _build_to_order(self, gens, target, rng, name, max_stall=None):
        cap = max_stall if max_stall is not None else self.MAX_STALL
        if self.order() == target:
            self._assert_originals_sift(name)
            return
        rat = Rattle(gens, self.ident, rng)
        stall = 0
        while self.order() < target:
            if self._add(rat.sample()):
                stall = 0
            else:
                stall += 1
                if stall > cap:
                    raise CertificationError(
                        f"{name}: chain stalled at order {self.order()} (claimed {target})"
                    )
        if self.order() != target:
            raise CertificationError(
                f"{name}: computed order {self.order()} exceeds claimed {target}"
            )
        self._assert_originals_sift(name)

    def _assert_originals_sift(self, name):
        for t in self.originals:
            residue, _ = self._sift(t)
            if not residue.is_identity():
                raise CertificationError(f"{name}: generator fails to sift after build")

    def _build_monte_carlo(self, gens, rng):
        rat = Rattle(gens, self.ident, rng)
        quiet = 0
        while quiet < self.QUIET_ROUNDS:
            quiet = 0 if self._add(rat.sample()) else quiet + 1

    def _verify_loop(self):
        while True:
            witness = self._schreier_witness()
            if witness is None:
                return
            self._add(witness)

    def _schreier_witness(self):
        for li in range(len(self.levels) - 1, -1, -1):
            level = self.levels[li]
            for beta in map(int, level.orbit):
                u_beta = self._transversal(li, beta)
                for g in level.eff:
                    target = int(g.perm[beta])
                    s = t_compose(t_compose(u_beta, g), self._transversal(li, target).inverse())
                    residue, _ = self._sift(s)
                    if not residue.is_identity():
                        return residue
        return None

    # -- internals -------------------------------------------------------------

    def _recompute_orbit(self, li: int):
        level = self.levels[li]
        level.eff = [t for lvl in self.levels[li:] for t in lvl.own]
        N = self.domain.size
        seen = np.zeros(N, dtype=bool)
        par = np.full(N, -1, dtype=np.int32)
        seen[level.base] = True
        frontier = np.array([level.base], dtype=np.int64)
        chunks = [frontier]
        while frontier.size:
            parts = []
            for gi, g in enumerate(level.eff):
                imgs = g.perm[frontier]
                new = np.unique(imgs[~seen[imgs]])
                if new.size:
                    seen[new] = True
                    par[new] = gi
                    parts.append(new)
            frontier = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            if frontier.size:
                chunks.append(frontier)
        level.orbit = np.concatenate(chunks)
        level.seen = seen
        level.par = par

    def _transversal(self, li: int, beta: int) -> Tracked:
        level = self.levels[li]
        path = []
        b = beta
        while b != level.base:
            e = level.eff[int(level.par[b])]
            path.append(e)
            b = int(e.inverse().perm[b])
        t = None
        for e in reversed(path):
            t = e if t is None else t_compose(t, e)
        return t if t is not None else self.ident

    def _sift(self, t: Tracked, start: int = 0):
        u = t
        for li in range(start, len(self.levels)):
            level = self.levels[li]
            beta = int(u.perm[level.base])
            if beta == level.base:
                continue
            if not level.seen[beta]:
                return u, li
            while beta != level.base:
                e = level.eff[int(level.par[beta])]
                einv = e.inverse()
                u = t_compose(u, einv)
                beta = int(einv.perm[beta])
        return u, len(self.levels)

    def _add(self, t: Tracked) -> bool:
        residue, li = self._sift(t)
        if residue.is_identity():
            return False
        if li == len(self.levels):
            moved = int(np.nonzero(residue.perm != self._arange)[0][0])
            self.levels.append(_Level(moved))
        self.levels[li].own.append(residue)
        for j in range(li, -1, -1):
            self._recompute_orbit(j)
        return True

    def add_element(self, g: GroupElement | Tracked) -> bool:
        """Incremental extension; invalidates prior verification."""
        self.verified = False
        t = g if isinstance(g, Tracked) else Tracked(g, self.domain.perm_of(g))
        self.originals.append(t)
        return self._add(t)

    # -- queries ----------------------------------------------------------------

    def order(self) -> int:
        out = 1
        for level in self.levels:
            out *= len(level.orbit)
        return out

    def base_points(self) -> list[int]:
        return [level.base for level in self.levels]

    def sift_residue(self, g: GroupElement) -> Tracked:
        return self._sift(Tracked(g, self.domain.perm_of(g)))[0]

    def contains(self, g: GroupElement) -> bool:
        """Membership of the permutation image (kernel classes are collapsed)."""
        try:
            return self.sift_residue(g).is_identity()
        except ActionError:
            return False

    def contains_tracked(self, t: Tracked) -> bool:
        return self._sift(t)[0].is_identity()

    def suffix_order(self, from_level: int) -> int:
        out = 1
        for level in self.levels[from_level:]:
            out *= len(level.orbit)
        return out

    def suffix_generators(self, from_level: int) -> list[GroupElement]:
        """Generators of the pointwise stabilizer of the first base points."""
        gens = [t.elem for lvl in self.levels[from_level:] for t in lvl.own]
        return gens or [self.ident.elem]

    def random_element(self, rng) -> Tracked:
        acc = None
        for li in range(len(self.levels) - 1, -1, -1):
            level = self.levels[li]
            pick = int(level.orbit[int(rng.integers(len(level.orbit)))])
            u = self._transversal(li, pick)
            acc = u if acc is None else t_compose(acc, u)
        return acc if acc is not None else self.ident

    def elements(self):
        """Iterate the whole group (use only at small orders)."""
        transversals = []
        for li in range(len(self.levels) - 1, -1, -1):
            level = self.levels[li]
            transversals.append([self._transversal(li, int(b)) for b in level.orbit])
        if not transversals:
            yield self.ident
            return

        def walk(i, acc):
            if i == len(transversals):
                yield acc
                return
            for t in transversals[i]:
                yield from walk(i + 1, t_compose(acc, t))

        yield from walk(0, self.ident)


# ---------------------------------------------------------------------------
# group specs


_DOMAIN_CACHE: dict[tuple, PermDomain] = {}


def shared_domain(tag: str, spec: FieldSpec, n: int, max_size: int = 200_000) -> PermDomain:
    key = (tag, spec.p, spec.f, n)
    if key not in _DOMAIN_CACHE:
        _DOMAIN_CACHE[key] = PermDomain(Action(tag, spec, n), max_size)
    return _DOMAIN_CACHE[key]


@dataclass
class GroupSpec:
    """Named matrix group: generators, claimed order, provenance, home action.

    stabilizer_of, when set, records that the group is the full ambient
    stabilizer of the listed points (applied in order); the intersection
    engine uses it to compute H n K as an iterated point stabilizer.
    """

    name: str
    n: int
    spec: FieldSpec
    generators: list[GroupElement]
    claimed_order: int | None = None
    provenance: str = ""
    action_tag: str | None = None
    stabilizer_of: list | None = None
    _chain: StabChain | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.action_tag is None:
            self.action_tag = PAIR if self.has_duality else VECTOR

    @property
    def has_duality(self) -> bool:
        return any(g.dual for g in self.generators)

    @property
    def q(self) -> int:
        return self.spec.q

    def identity(self) -> GroupElement:
        return identity_element(self.spec, self.n)

    def chain(self, rng=None) -> StabChain:
        """Build (once) the certified stabilizer chain on the home action."""
        if self._chain is None:
            domain = shared_domain(self.action_tag, self.spec, self.n)
            self._chain = StabChain.build(
                domain,
                self.generators,
                known_order=self.claimed_order,
                rng=rng,
                name=self.name,
            )
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def contains(self, g: GroupElement) -> bool:
        return self.chain().contains(g)

    def with_name(self, name: str) -> "GroupSpec":
        return GroupSpec(name, self.n, self.spec, self.generators, self.claimed_order, self.provenance,
                         self.action_tag, self.stabilizer_of, self._chain)


# ---------------------------------------------------------------------------
# orbits over packed keys (domain-free)


@dataclass
class OrbitSet:
    """Closure of a seed under the generators, over packed keys.

    ``orbit`` keeps only the seen keys (a bool array over a dense keyspace,
    a set over a sparse one); ``orbit_with_transporters`` keeps the keys in
    BFS order and a Schreier vector.
    """

    tag: str
    seed_key: int
    size: int
    keys: np.ndarray | None = None
    seen_dense: np.ndarray | None = None
    seen_set: set | None = None
    # Schreier vector (orbit_with_transporters): BFS index of each key's
    # parent (-1 at the seed) and the generator mapping the parent to the
    # key; sorted_keys[i] == keys[sort_order[i]] serves lookups
    parent: np.ndarray | None = None
    via: np.ndarray | None = None
    sorted_keys: np.ndarray | None = field(default=None, repr=False)
    sort_order: np.ndarray | None = field(default=None, repr=False)

    def index_of(self, keys):
        """BFS index of each key, -1 where the key is not in the orbit."""
        keys = np.asarray(keys, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.sorted_keys, keys), self.size - 1)
        return np.where(self.sorted_keys[pos] == keys, self.sort_order[pos], -1)

    def contains_key(self, key: int) -> bool:
        if self.seen_dense is not None:
            return 0 <= key < len(self.seen_dense) and bool(self.seen_dense[key])
        if self.seen_set is not None:
            return key in self.seen_set
        return int(self.index_of(key)) >= 0


_DENSE_SEEN_LIMIT = 2**26
_SCAN_SHARE = 8


def orbit(
    group_or_gens,
    point: ActionPoint,
    action: Action | None = None,
    max_points: int = 2**24,
    keep_keys: bool = False,
) -> OrbitSet:
    """BFS closure of the point under the generators, vectorized over keys.

    Only the size and membership are kept, and no level sorts.  Over a
    dense keyspace, a level with at least keyspace/_SCAN_SHARE images
    scatters them into a second keyspace-sized mask, drops the seen keys
    from it and reads the next frontier off with one flatnonzero scan; a
    smaller level filters each generator's images against the seen mask,
    which costs less than scanning the keyspace.  ``keep_keys`` is accepted
    only as False; ``orbit_with_transporters`` keeps the keys themselves.
    """
    if keep_keys:
        raise ValueError("orbit keeps no keys; use orbit_with_transporters")
    if isinstance(group_or_gens, GroupSpec):
        gens = group_or_gens.generators
        spec, n = group_or_gens.spec, group_or_gens.n
    else:
        gens = list(group_or_gens)
        spec, n = gens[0].spec, gens[0].n
    if action is None:
        action = Action(point.tag, spec, n)
    seed = action.point_key(point)
    keyspace = (spec.q**n) ** (2 if action.two_sided else 1)
    dense = keyspace <= _DENSE_SEEN_LIMIT
    if dense:
        seen = np.zeros(keyspace, dtype=bool)
        hit = np.zeros(keyspace, dtype=bool)
        seen[seed] = True
    else:
        seen_set = {seed}
    frontier = np.array([seed], dtype=np.int64)
    total = 1
    while frontier.size:
        if dense and frontier.size * len(gens) * _SCAN_SHARE >= keyspace:
            for g in gens:
                hit[action.apply_batch(g, frontier)] = True
            # hit and not seen; this also clears the last scanned frontier
            np.greater(hit, seen, out=hit)
            frontier = np.flatnonzero(hit)
            seen[frontier] = True
        elif dense:
            # a generator maps distinct keys to distinct keys, so marking
            # each batch seen as it is filtered leaves the frontier no repeats
            parts = []
            for g in gens:
                imgs = action.apply_batch(g, frontier)
                imgs = imgs[~seen[imgs]]
                seen[imgs] = True
                parts.append(imgs)
            frontier = np.concatenate(parts)
        else:
            new = set()
            for g in gens:
                new.update(action.apply_batch(g, frontier).tolist())
            new -= seen_set
            seen_set |= new
            frontier = np.fromiter(new, dtype=np.int64, count=len(new))
        total += frontier.size
        if total > max_points:
            raise OrbitBudgetError(f"orbit exceeded {max_points} points", total)
    if dense:
        return OrbitSet(point.tag, seed, total, seen_dense=seen)
    return OrbitSet(point.tag, seed, total, seen_set=seen_set)


def orbit_with_transporters(gens: list[GroupElement], point: ActionPoint, action: Action | None = None, max_points: int = 500_000) -> OrbitSet:
    """Orbit with a Schreier vector, by a frontier BFS over apply_batch.

    Each level stacks the frontier's images point-major, generator-minor and
    keeps the first occurrence of every unseen key in that flat order, so
    the key order and each key's (parent, generator) are those of a queue
    BFS that tries the generators in order at each point.
    """
    spec, n = gens[0].spec, gens[0].n
    if action is None:
        action = Action(point.tag, spec, n)
    seed = action.point_key(point)
    frontier = np.array([seed], dtype=np.int64)
    keys, parent, via = [frontier], [np.array([-1])], [np.array([-1])]
    seen = frontier  # sorted
    start, total = 0, 1
    while frontier.size:
        imgs = np.stack([action.apply_batch(g, frontier) for g in gens], axis=1).ravel()
        pos = np.minimum(np.searchsorted(seen, imgs), seen.size - 1)
        flat = np.nonzero(seen[pos] != imgs)[0]
        fresh, first = np.unique(imgs[flat], return_index=True)
        flat = flat[np.sort(first)]
        total += flat.size
        if total > max_points:
            raise OrbitBudgetError("transporter orbit exceeded budget", total)
        keys.append(imgs[flat])
        parent.append(start + flat // len(gens))
        via.append(flat % len(gens))
        start += frontier.size
        frontier = keys[-1]
        seen = np.sort(np.concatenate((seen, fresh)), kind="stable")
    keys = np.concatenate(keys)
    return OrbitSet(point.tag, seed, total, keys, parent=np.concatenate(parent), via=np.concatenate(via),
                    sorted_keys=seen, sort_order=np.argsort(keys, kind="stable"))


def transporter(orbit_set: OrbitSet, gens: list[GroupElement], key: int) -> GroupElement:
    """Element moving the seed to the given orbit key."""
    i = int(orbit_set.index_of(key))
    if i < 0:
        raise GrpError(f"key {key} is not in the orbit")
    word = []
    while orbit_set.parent[i] >= 0:
        word.append(int(orbit_set.via[i]))
        i = int(orbit_set.parent[i])
    g = identity_element(gens[0].spec, gens[0].n)
    for gi in reversed(word):
        g = sl_compose(g, gens[gi])
    return g


def stabilizer_generators(
    group: GroupSpec,
    point: ActionPoint,
    name: str | None = None,
) -> GroupSpec:
    """Point stabilizer via Schreier generators, certified by orbit-stabilizer.

    Transversals are composed as permutations on the home domain along the
    Schreier vector, only for the orbit points the loop reaches; matrices
    are read only for the Schreier generators the chain accepts.
    """
    action = Action(point.tag, group.spec, group.n)
    orb = orbit_with_transporters(group.generators, point, action)
    total = group.order()
    if total % orb.size:
        raise GrpError("orbit length does not divide the group order")
    target = total // orb.size
    stab_name = name or f"{group.name}_stab"
    domain = shared_domain(group.action_tag, group.spec, group.n)
    chain = StabChain(domain)
    gens_out: list[GroupElement] = []
    if target > 1:
        gens = [Tracked(g, domain.perm_of(g)) for g in group.generators]
        images = [orb.index_of(action.apply_batch(g, orb.keys)) for g in group.generators]
        reps = {0: chain.ident}

        def rep(i: int) -> Tracked:
            path = []
            while i not in reps:
                path.append(i)
                i = int(orb.parent[i])
            for j in reversed(path):
                reps[j] = t_compose(reps[i], gens[int(orb.via[j])])
                i = j
            return reps[i]

        done = False
        for i in range(orb.size):
            if done:
                break
            u = rep(i)
            for gi, g in enumerate(gens):
                s = t_compose(t_compose(u, g), rep(int(images[gi][i])).inverse())
                if chain.add_element(s):
                    gens_out.append(s.elem)
                if chain.order() == target:
                    done = True
                    break
        if chain.order() != target:
            raise CertificationError(
                f"{stab_name}: Schreier generators reached {chain.order()}, expected {target}"
            )
    spec_out = GroupSpec(
        stab_name,
        group.n,
        group.spec,
        gens_out or [group.identity()],
        claimed_order=target,
        provenance=f"stabilizer of {point.tag} point in {group.name}",
        action_tag=group.action_tag,
    )
    return spec_out


# ---------------------------------------------------------------------------
# derived series / solvable residual


def derived_subgroup(group: GroupSpec, rng=None, name: str | None = None) -> GroupSpec:
    """Normal closure of generator commutators, with verified closure fixpoint.

    Commutators and their conjugates always have trivial duality bit, so the
    derived subgroup acts on bare vectors even when the parent does not; the
    vector domain is both faithful and much smaller than a pair domain.
    """
    rng = rng if rng is not None else np.random.default_rng(zlib.crc32(group.name.encode()) or 1)
    derived_tag = VECTOR if group.action_tag == PAIR else group.action_tag
    domain = shared_domain(derived_tag, group.spec, group.n)
    gens = group.generators
    comms = []
    for a in gens:
        for b in gens:
            c = sl_compose(sl_compose(sl_inverse(a), sl_inverse(b)), sl_compose(a, b))
            comms.append(c)
    chain = StabChain.build(domain, comms, rng=rng, name=(name or group.name) + "'")
    current = [t.elem for lvl in chain.levels for t in lvl.own]
    changed = True
    while changed:
        changed = False
        for t in list(current):
            for g in gens:
                conj = sl_compose(sl_compose(sl_inverse(g), t), g)
                if not chain.contains(conj):
                    chain.add_element(conj)
                    current.append(conj)
                    changed = True
        if changed:
            chain._build_monte_carlo([Tracked(e, domain.perm_of(e)) for e in current], rng)
            chain._verify_loop()
    out_gens = current or [group.identity()]
    return GroupSpec(
        name or f"{group.name}'",
        group.n,
        group.spec,
        out_gens,
        claimed_order=chain.order(),
        provenance=f"derived subgroup of {group.name}",
        action_tag=derived_tag,
    )


def solvable_residual(group: GroupSpec, rng=None) -> GroupSpec:
    """Limit of the derived series."""
    cur = group
    cur_order = cur.order()
    step = 0
    while True:
        nxt = derived_subgroup(cur, rng=rng, name=f"{group.name}^({step + 1})")
        nxt_order = nxt.order()
        if nxt_order == cur_order:
            return cur.with_name(f"{group.name}^(inf)") if step else GroupSpec(
                f"{group.name}^(inf)",
                group.n,
                group.spec,
                cur.generators,
                claimed_order=cur_order,
                provenance=f"solvable residual of {group.name}",
                action_tag=group.action_tag,
            )
        cur, cur_order = nxt, nxt_order
        step += 1


def same_subgroup(a: GroupSpec, b: GroupSpec) -> bool:
    """Equality as subgroups: mutual membership of generators."""
    if a.order() != b.order():
        return False
    return all(b.contains(g) for g in a.generators) and all(a.contains(g) for g in b.generators)


def product_membership(h_orbit: OrbitSet, action: Action, g: GroupElement, omega: ActionPoint) -> bool:
    """g lies in H.K (K the full stabilizer of omega) iff omega^(g^-1) is in omega^H."""
    pre = action.apply_point(sl_inverse(g), omega)
    return h_orbit.contains_key(action.point_key(pre))


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
    if out is None:
        return Tracked(identity_element(t.elem.spec, t.elem.n), np.arange(len(t.perm), dtype=t.perm.dtype))
    return out


def element_order_perm(perm: np.ndarray) -> int:
    """Order of a permutation: lcm of cycle lengths.

    Pointer doubling labels every point with the least point of its cycle;
    the label counts are the cycle lengths, and their lcm is taken on
    Python ints, which do not overflow.
    """
    label = np.arange(len(perm))
    jump = np.asarray(perm)
    while True:
        nxt = np.minimum(label, label[jump])
        if np.array_equal(nxt, label):
            break
        label = nxt
        jump = jump[jump]
    lengths = np.bincount(label)
    return math.lcm(*np.unique(lengths[lengths > 0]).tolist())
