"""Slow, direct reference computations that tests compare the package against."""

import functools
import importlib
import itertools
import pkgutil

import numpy as np

import grpfact
from grpfact import grpcore, linalg
from grpfact.actions import ActionError
from grpfact.gf import FieldError, FieldSpec
from grpfact.grpcore import StabChain
from grpfact.linalg import GroupElement, LinAlgError, identity_element, sl_compose, subfield_coords


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


def count_chain_builds(monkeypatch) -> list:
    """Count grpcore.StabChain.build calls for the rest of the test: one
    list entry per call, the name it was given."""
    calls = []
    real = StabChain.build.__func__

    def counting(cls, *args, **kwargs):
        calls.append(kwargs.get("name", ""))
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(StabChain, "build", classmethod(counting))
    return calls


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


def perm_order(p: np.ndarray) -> int:
    """Order of a permutation, by composing it with itself until the identity."""
    k, cur = 1, p
    while (cur != np.arange(len(p))).any():
        cur = p[cur]
        k += 1
    return k
