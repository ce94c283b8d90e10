"""Slow, direct reference computations that tests compare the package against."""

import functools
import importlib
import itertools
import math
import pkgutil

import numpy as np

import grpfact
from grpfact import grpcore, linalg
from grpfact.actions import ActionError
from grpfact.gf import FieldError, FieldSpec
from grpfact.grpcore import CertificationError, StabChain, Tracked
from grpfact.linalg import (
    DUALITY,
    FUNCTIONAL,
    PROJECTIVE,
    VECTOR,
    ActionPoint,
    GroupElement,
    LinAlgError,
    Mat,
    det,
    identity_element,
    sl_compose,
    sl_inverse,
    subfield_coords,
)


def unpack_vector(key: int, q: int, n: int) -> tuple:
    """The base-q digits of a packed vector key, lowest first."""
    out = []
    for _ in range(n):
        out.append(key % q)
        key //= q
    return tuple(out)


def unpack_point(tag: str, key: int, q: int, n: int) -> ActionPoint:
    """The point a key packs, one digit at a time: the inverse of
    ``linalg.pack_point``."""
    if tag in (VECTOR, FUNCTIONAL, PROJECTIVE):
        return ActionPoint(tag, unpack_vector(key, q, n))
    qn = q**n
    return ActionPoint(tag, (unpack_vector(key % qn, q, n), unpack_vector(key // qn, q, n)))


def domain_point(domain, idx: int) -> ActionPoint:
    """The point at an index of an enumerated domain; a duality domain's
    points are vectors, then functionals."""
    action, key = domain.action, int(domain.keys[idx])
    if action.tag == DUALITY:
        qn = action.q**action.n
        return unpack_point(FUNCTIONAL if key > qn else VECTOR, key % qn, action.q, action.n)
    return unpack_point(action.tag, key, action.q, action.n)


def orbit_contains_key(orb: grpcore.OrbitSet, key: int) -> bool:
    """Whether an orbit holds a packed key: a lookup in its keyspace mask,
    or, for an orbit taken on an enumerated domain, in its mask over the
    domain indices (a key off the domain is not held)."""
    if orb.domain is None:
        return 0 <= key < len(orb.seen) and bool(orb.seen[key])
    try:
        return bool(orb.seen[orb.domain.index_of_key(key)])
    except ActionError:
        return False


def count_matrix_ops(monkeypatch) -> list:
    """Count linalg.sl_compose and sl_inverse calls, in every grpfact module
    that imports them, for the rest of the test: one list entry per call."""
    calls = []
    for name in ("sl_compose", "sl_inverse"):
        real = getattr(linalg, name)

        def counting(*args, real=real):
            calls.append(real.__name__)
            return real(*args)

        for info in pkgutil.iter_modules(grpfact.__path__):
            module = importlib.import_module(f"grpfact.{info.name}")
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls


def adjoin_failure(core: StabChain, blown_gens, x: GroupElement, index: int) -> str | None:
    """Why x does not extend the linear core S = <blown_gens>, whose chain is
    on vectors, with index ``index`` (x normalizes S, x^index lies in S and
    no smaller power does), or None; every conjugate and power is composed
    as a matrix, and one that carries the duality bit lies outside S
    without a sift.  The reference for ``constructors._certify_adjoin``."""
    xinv = sl_inverse(x)
    if not all(core.contains(sl_compose(sl_compose(xinv, g), x)) for g in blown_gens):
        return "adjoined element does not normalize the core"
    power = x
    for k in range(1, index):
        if not power.dual and core.contains(power):
            return f"adjoined element power {k} already lies in the core"
        power = sl_compose(power, x)
    if power.dual or not core.contains(power):
        return f"adjoined element power {index} leaves the core"
    return None


def count_chain_builds(monkeypatch) -> list:
    """Count the chains made for the rest of the test, by
    grpcore.StabChain.build or by derived_subgroup (in every grpfact module
    that holds it): one list entry per chain, in the order they are
    finished, the name build was given, else the derived chain's name (the
    name given to derived_subgroup, else the parent's, primed)."""
    calls = []
    real = StabChain.build.__func__

    def counting(cls, *args, **kwargs):
        calls.append(kwargs.get("name", ""))
        return real(cls, *args, **kwargs)

    def deriving(group, rng=None, name=None, real=grpcore.derived_subgroup):
        out = real(group, rng=rng, name=name)
        calls.append((name or group.name) + "'")
        return out

    monkeypatch.setattr(StabChain, "build", classmethod(counting))
    for info in pkgutil.iter_modules(grpfact.__path__):
        module = importlib.import_module(f"grpfact.{info.name}")
        if getattr(module, "derived_subgroup", None) is grpcore.derived_subgroup:
            monkeypatch.setattr(module, "derived_subgroup", deriving)
    return calls


def conjugate_gens(gens, x: GroupElement) -> list[GroupElement]:
    """x^-1 g x for each g of gens, composed as matrices."""
    return [sl_compose(sl_compose(sl_inverse(x), g), x) for g in gens]


def non_normalizing_element(G, X, rng) -> GroupElement:
    """A random element of G, as a matrix, that does not normalize X."""
    chain = G.chain()
    while True:
        x = chain.random_element(rng).matrix(chain.domain)
        if not all(X.contains(g) for g in conjugate_gens(X.generators, x)):
            return x


def same_subgroup(a, b) -> bool:
    """Equality as subgroups: equal orders and mutual membership of generators."""
    return a.order() == b.order() and a.includes(b) and b.includes(a)


def check_tight_by_residuals(H, X, rng=None) -> bool:
    """Tightness by both solvable residuals, each H's and X's derived
    series walked to its end, compared as subgroups."""
    return same_subgroup(grpcore.solvable_residual(H, rng=rng), grpcore.solvable_residual(X, rng=rng))


def count_schreier_orbits(monkeypatch) -> list:
    """Count grpcore.schreier_orbit calls made inside grpcore (the chain
    levels among them) for the rest of the test: one list entry per call,
    the size of the orbit it returned."""
    calls = []
    real = grpcore.schreier_orbit

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(len(out[0]))
        return out

    monkeypatch.setattr(grpcore, "schreier_orbit", counting)
    return calls


def element_order(g: GroupElement, cap: int = 10**6) -> int:
    """Order of a semilinear element, by composing it with itself until the identity."""
    cur = g
    ident = identity_element(g.spec, g.n)
    for k in range(1, cap + 1):
        if cur == ident:
            return k
        cur = sl_compose(cur, g)
    raise LinAlgError("element order exceeds cap")


def field_norm(ext: FieldSpec, sub: FieldSpec, x: int) -> int:
    """Norm map GF(q^b) -> GF(q) expressed in sub's encoding."""
    e = (ext.q - 1) // (sub.q - 1) if sub.q > 1 else 1
    img = ext.power(x, e) if x else 0
    coords = subfield_coords(sub, ext)[img]
    if any(int(c) for c in coords[1:]):
        raise FieldError("norm image fell outside the subfield")
    return int(coords[0])


def ambient_element(rng, spec: FieldSpec, n: int, fa: int = 0, dual: int = 0) -> GroupElement:
    """A uniform invertible n x n matrix over spec, drawn by rejection, with
    Frobenius exponent fa and duality bit dual: an element of the ambient
    semilinear group of a domain (``PermDomain.base``)."""
    while True:
        m = Mat(spec, rng.integers(0, spec.q, size=(n, n)))
        if det(m):
            return GroupElement(m, fa, dual)


def perm_closure(perms: list[np.ndarray]) -> list[np.ndarray]:
    """Every element of the permutation group the perms generate, by breadth-first closure."""
    ident = np.arange(len(perms[0]))
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in perms:
                y = g[x]
                if y.tobytes() not in seen:
                    seen[y.tobytes()] = y
                    new.append(y)
        frontier = new
    return list(seen.values())


def chain_elements(chain: StabChain):
    """Every element of the chain's group, each multiplied out on its own
    from one transversal element per level, in ``element_perm_blocks``'
    order: top level first, lexicographic in the orbit positions."""
    transversals = [[chain._transversal(li, int(b)) for b in chain.levels[li].orbit]
                    for li in range(len(chain.levels) - 1, -1, -1)]
    for picks in itertools.product(*transversals):
        yield functools.reduce(grpcore.t_compose, picks, chain.ident)


def brute_stabilizer(group, point) -> set[bytes]:
    """The stabilizer of a point in a small group, by enumeration: every
    element of the group's chain (``element_perm_blocks``) that fixes the
    point, as the bytes of its permutation of the point's domain
    (``GroupSpec.point_domain``).  For a point off the chain's domain, each
    element's permutation there is read off its matrix."""
    chain, domain = group.chain(), group.point_domain(point)
    x = domain.index_of_point(point)
    out = set()
    for block in chain.element_perm_blocks():
        for perm in block:
            if domain is not chain.domain:
                perm = domain.perm_of(Tracked(perm).matrix(chain.domain))
            if perm[x] == x:
                out.add(perm.astype(np.intp).tobytes())
    return out


def perm_order(p: np.ndarray) -> int:
    """Order of a permutation, by composing it with itself until the identity."""
    k, cur = 1, p
    while (cur != np.arange(len(p))).any():
        cur = p[cur]
        k += 1
    return k


def schreier_witness(chain: StabChain):
    """The residue of the first Schreier generator of the chain that does
    not sift, one generator at a time: levels deepest first, beta in orbit
    order, g in eff order; None when every one sifts."""
    for li in range(len(chain.levels) - 1, -1, -1):
        level = chain.levels[li]
        for beta in map(int, level.orbit):
            u_beta = chain._transversal(li, beta)
            for g in level.eff:
                target = int(g.perm[beta])
                s = grpcore.t_compose(grpcore.t_compose(u_beta, g), chain._transversal(li, target).inverse())
                residue, _ = chain._sift(s)
                if not residue.is_identity():
                    return residue
    return None


def kernel_basis(M, p):
    """Null space basis of M over GF(p), by Gauss-Jordan elimination one row
    at a time: one vector per free column of the reduced row echelon form."""
    M = np.asarray(M, dtype=np.int64) % p
    rows, n = M.shape
    A = M.copy()
    pivots = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, rows) if A[i, c]), None)
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * pow(int(A[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        pivots[c] = r
        r += 1
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        v = np.zeros(n, dtype=np.int64)
        v[fc] = 1
        for c, rr in pivots.items():
            v[c] = (-A[rr, fc]) % p
        out.append(v)
    return out


def commutant_dimension(gens_a, gens_b, p):
    """dim of {M : M A = B M for matching generators}, its linear system
    written out one coefficient at a time (``kernel_basis``)."""
    n = gens_a[0].shape[0]
    rows = []
    for A, B in zip(gens_a, gens_b):
        for i in range(n):
            for j in range(n):
                row = np.zeros(n * n, dtype=np.int64)
                for k in range(n):
                    row[i * n + k] = (row[i * n + k] + A[k, j]) % p
                    row[k * n + j] = (row[k * n + j] - B[i, k]) % p
                rows.append(row)
    return len(kernel_basis(np.array(rows, dtype=np.int64), p))


def field_elem_order(F: FieldSpec, a: int) -> int:
    """Multiplicative order of a nonzero field element, from its discrete log."""
    if a == 0:
        raise FieldError("zero has no multiplicative order")
    return (F.q - 1) // math.gcd(int(F.log[a]), F.q - 1)


def conjugate_intersection_samples(setup, rng, samples: int) -> list:
    """Per sample of x, y drawn from G's chain as the conjugation suites
    draw them: H^x's orbit size of y(omega) in suite 1 (else None), and the
    order and spectrum of H^x n K^y, each computed on a relabeled chain: the
    orbit by a BFS over H^x's generators, the intersection as a point
    stabilizer of H^x or by ``intersect``'s enumeration of H^x against K^y."""
    from grpfact import factorize, sporadic

    gchain = setup.G.chain()
    dom = gchain.domain
    out = []
    for _ in range(samples):
        x = gchain.random_element(rng)
        y = gchain.random_element(rng)
        Hx = grpcore.GroupSpec.of_chain("H^x", setup.H.chain().conjugate(x))
        size = None
        if setup.orbit_seed is not None:
            y_omega = int(y.perm[dom.index_of_point(setup.orbit_seed)])
            size = len(grpcore.schreier_orbit([t.perm for t in Hx.tracked_generators(dom)], y_omega, dom.size)[0])
            inter = grpcore.stabilizer_generators(Hx, domain_point(dom, y_omega))
        else:
            Ky = grpcore.GroupSpec.of_chain("K^y", setup.K.chain().conjugate(y))
            inter = factorize.intersect(Hx, Ky, "enumerate_smaller")
        out.append((size, inter.order(), sporadic.exact_spectrum(inter.chain())))
    return out


class TrackedRattle:
    """``grpcore.Rattle`` as a walk over Tracked products: every step
    builds its slots and accumulator with ``grpcore.t_compose`` and
    ``Tracked.inverse``, read at call time, and draws by ``integers``."""

    def __init__(self, gens, ident, rng, extra: int = 6, scramble: int = 50):
        self.slots = list(gens) + [ident] * extra
        self.accu = ident
        self.rng = rng
        for _ in range(max(scramble, 5 * len(self.slots))):
            self._stir()

    def _stir(self) -> Tracked:
        i = int(self.rng.integers(len(self.slots)))
        j = int(self.rng.integers(len(self.slots) - 1))
        if j >= i:
            j += 1
        s = self.slots[i]
        if self.rng.integers(2):
            s = s.inverse()
        compose = grpcore.t_compose
        self.slots[j] = compose(self.slots[j], s) if self.rng.integers(2) else compose(s, self.slots[j])
        self.accu = compose(self.accu, self.slots[j])
        return self.accu

    def sample(self) -> Tracked:
        return self._stir()


def tracked_sift(chain: StabChain, t: Tracked):
    """``StabChain._sift`` by Tracked products (``grpcore.t_compose``, read
    at call time): the residue and the level where the sift stopped."""
    u = t
    for li, level in enumerate(chain.levels):
        beta = int(u.perm[level.base])
        if beta == level.base:
            continue
        if not level.seen[beta]:
            return u, li
        steps = 0
        while beta != level.base:
            if steps == len(level.orbit):
                raise CertificationError(f"Schreier vector of level {li} does not lead a sift to its base")
            steps += 1
            einv = level.eff[int(level.par[beta])].inverse()
            u = grpcore.t_compose(u, einv)
            beta = int(einv.perm[beta])
    return u, len(chain.levels)


def tracked_random_element(chain: StabChain, rng) -> Tracked:
    """``StabChain.random_element`` by Tracked products: each level's u_b
    walked home (``StabChain._transversal``) and multiplied out with
    ``grpcore.t_compose``, read at call time; the same draws give the same
    element."""
    acc = None
    for li in range(len(chain.levels) - 1, -1, -1):
        level = chain.levels[li]
        u = chain._transversal(li, int(level.orbit[int(rng.integers(len(level.orbit)))]))
        acc = u if acc is None else grpcore.t_compose(acc, u)
    return acc if acc is not None else chain.ident


def gauss(spec: FieldSpec, work: np.ndarray, rhs: np.ndarray | None) -> int:
    """Gauss-Jordan in place on int64 arrays, one numpy row operation at a
    time through the field's dense tables; returns det (0 when singular)."""
    n = work.shape[0]
    det = 1
    for col in range(n):
        piv = -1
        for r in range(col, n):
            if work[r, col]:
                piv = r
                break
        if piv < 0:
            return 0
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
            if rhs is not None:
                rhs[[col, piv]] = rhs[[piv, col]]
            det = spec.neg(det)
        pivval = int(work[col, col])
        det = spec.mul(det, pivval)
        pivinv = spec.inv(pivval)
        work[col] = spec.mul_table[work[col], pivinv]
        if rhs is not None:
            rhs[col] = spec.mul_table[rhs[col], pivinv]
        for r in range(n):
            if r != col and work[r, col]:
                c = spec.neg(int(work[r, col]))
                contrib = spec.mul_table[work[col], c].astype(np.int64)
                if spec.p == 2:
                    work[r] ^= contrib
                else:
                    work[r] = spec.add_table[work[r], contrib].astype(np.int64)
                if rhs is not None:
                    contrib = spec.mul_table[rhs[col], c].astype(np.int64)
                    if spec.p == 2:
                        rhs[r] ^= contrib
                    else:
                        rhs[r] = spec.add_table[rhs[r], contrib].astype(np.int64)
    return det
