"""Action kernels against scalar references: apply_batch, and the
permutations of projective, antiflag and duality domains, against
sl_apply, a sweep's block images against whole keys, the two-sided domain
enumeration, and the scalar-class lookup of projective and antiflag
domains against sl_apply with canonical_point."""

import numpy as np
import pytest

from grpfact import gf, grpcore
from grpfact.actions import Action, ActionError, DomainCapError, PermDomain, domain_size
from grpfact.grpcore import shared_domain
from grpfact.linalg import (
    ANTIFLAG,
    DUALITY,
    FUNCTIONAL,
    PAIR,
    PROJECTIVE,
    VECTOR,
    ActionPoint,
    LinAlgError,
    pack_point,
    sl_apply,
)
from oracles import ambient_element, unpack_point


# (kind, p, f, n): every char-2 vector, functional and pair case packs at
# least 24 key bits, so at least two XOR tables; the odd-characteristic
# cases take the digit path on points of the domain, and the projective and
# antiflag cases permute their domain through the kind beneath
_CASES = [
    (VECTOR, 2, 1, 24), (VECTOR, 2, 2, 12), (VECTOR, 2, 4, 6),
    (FUNCTIONAL, 2, 1, 25), (FUNCTIONAL, 2, 2, 12), (FUNCTIONAL, 2, 4, 7),
    (PAIR, 2, 1, 12), (PAIR, 2, 2, 6), (PAIR, 2, 4, 3),
    (PROJECTIVE, 2, 2, 4), (ANTIFLAG, 2, 2, 4), (PROJECTIVE, 3, 2, 3), (ANTIFLAG, 3, 2, 3),
    (PROJECTIVE, 3, 1, 5), (ANTIFLAG, 3, 1, 4), (PAIR, 3, 2, 3),
]


@pytest.mark.parametrize("tag,p,f,n", _CASES,
                         ids=[f"{t}-{f}-{n}" if p == 2 else f"{t}-{p}^{f}-{n}" for t, p, f, n in _CASES])
def test_apply_batch_matches_sl_apply(tag, p, f, n):
    spec = gf.make_field(p, f)
    action = Action(tag, spec, n)
    if action.linear:
        nbits = action.width * f
        assert nbits >= 24
        rng = np.random.default_rng(nbits * 31 + f)
        keys = rng.integers(0, 1 << nbits, size=60, dtype=np.int64)
        keys[:nbits] = 1 << np.arange(nbits, dtype=np.int64)  # every basis key
    else:
        rng = np.random.default_rng(action.width * 31 + p * 7 + f)
        keys = rng.choice(action.all_keys(), size=60, replace=False)
    domain = PermDomain(action) if tag in (PROJECTIVE, ANTIFLAG) else None
    duals = (0, 1) if action.two_sided else (0,)
    for fa in sorted({0, f - 1, f // 2}):
        for dual in duals:
            g = ambient_element(rng, spec, n, fa, dual)
            want = [action.point_key(sl_apply(g, unpack_point(tag, int(k), spec.q, n))) for k in keys]
            if domain is not None:
                at = [domain.index_of_key(int(k)) for k in keys]
                assert domain.keys[domain.perm_of(g)[at]].tolist() == want, (fa, dual)
                continue
            got = action.apply_batch(g, keys)
            assert got.dtype == np.int64 and got.tolist() == want, (fa, dual)
            assert action.apply_batch(g, keys).tolist() == want  # from the cache


# (kind, f, n): GF(2)^4 vectors are narrower than one block, the rest wider
_BLOCK_CASES = [
    (VECTOR, 1, 4), (VECTOR, 1, 18), (VECTOR, 2, 9), (VECTOR, 4, 5),
    (FUNCTIONAL, 1, 17), (FUNCTIONAL, 2, 8), (FUNCTIONAL, 4, 4),
    (PAIR, 1, 9), (PAIR, 2, 5), (PAIR, 4, 3),
]


def _block_offsets_match_whole_keys(action, gens, rng):
    images = grpcore._block_images(action, gens)
    keyspace = action.q**action.width
    block = 1 << action.block_bits
    starts = range(0, keyspace, block)
    for lo in sorted({starts[0], starts[len(starts) // 2], starts[-1]}):
        size = min(block, keyspace - lo)
        offsets = np.unique(np.concatenate([[0, size - 1], rng.integers(0, size, size=200)]))
        want = [action.apply_batch(g, offsets + lo).tolist() for g in gens]
        got = images(offsets, lo)
        assert got.dtype == np.int64 and got.shape == (len(gens), len(offsets))
        assert got.tolist() == want, lo
        assert images(offsets, lo).tolist() == want  # from the same tables


@pytest.mark.parametrize("tag,f,n", _BLOCK_CASES, ids=lambda c: str(c))
def test_block_offsets_match_whole_keys(tag, f, n):
    spec = gf.make_field(2, f)
    action = Action(tag, spec, n)
    assert action.linear and action.block_bits == 14
    rng = np.random.default_rng(action.width * 31 + f)
    duals = (0, 1) if tag == PAIR else (0,)
    gens = [ambient_element(rng, spec, n, fa, dual) for fa in sorted({0, f - 1, f // 2}) for dual in duals]
    _block_offsets_match_whole_keys(action, gens, rng)
    # one generator alone, and the same ones in another order, get their
    # own stacked images
    _block_offsets_match_whole_keys(action, gens[-1:], rng)
    _block_offsets_match_whole_keys(action, gens[::-1], rng)


def test_block_offsets_on_the_digit_path():
    # the pair keyspace of GF(3)^6 has 3^12 keys, eight full blocks and a
    # partial last one
    spec = gf.make_field(3, 1)
    action = Action(PAIR, spec, 6)
    assert not action.linear and action.block_bits == 16
    rng = np.random.default_rng(7)
    _block_offsets_match_whole_keys(action, [ambient_element(rng, spec, 6, 0, dual) for dual in (0, 1)], rng)


def test_dead_element_tables_leave_the_shared_action_cache():
    # a shared domain's action outlives the claims that apply elements
    # through it; the tables of an element go with the element
    domain = shared_domain(PAIR, gf.make_field(2, 2), 3)
    action = domain.action
    before = len(action._chunk_cache)
    rng = np.random.default_rng(3)
    g, h = (ambient_element(rng, action.spec, 3, 1, 1) for _ in range(2))
    domain.perm_of(g)
    assert len(action._chunk_cache) == before + 1
    grpcore._block_images(action, [g, h])
    assert len(action._chunk_cache) == before + 2
    del g
    assert len(action._chunk_cache) == before + 1
    del h
    assert len(action._chunk_cache) == before


@pytest.mark.parametrize("p,f,n", [(2, 2, 3), (5, 3, 2)])
def test_key_lookup_matches_apply_batch(p, f, n, monkeypatch):
    # the antiflags of GF(4)^3 (4^6 keys) take the int32 table, which
    # their pair images under the kind beneath look up; the 15,750
    # antiflags of GF(125)^2 lie under the point cap, but their 125^4 keys
    # pass _DENSE_LOOKUP_LIMIT, so the domain is refused (under the cap
    # only the antiflags of a plane over q >= 121 are)
    spec = gf.make_field(p, f)
    keyspace = spec.q ** (2 * n)
    if keyspace > 2**26:
        with pytest.raises(DomainCapError, match=f"{keyspace} keys of antiflag points exceeds the {2**26} limit") as exc:
            PermDomain(Action(ANTIFLAG, spec, n))
        assert (exc.value.size, exc.value.cap) == (keyspace, 2**26)
        assert domain_size(ANTIFLAG, spec.q, n) == 15750
        return
    domain = PermDomain(Action(ANTIFLAG, spec, n))
    assert domain._applier.tag == PAIR
    rng = np.random.default_rng(p * f)
    for fa, dual in ((0, 0), (f - 1, 1)):
        g = ambient_element(rng, spec, n, fa, dual)
        perm = domain.perm_of(g)
        imgs = domain._applier.apply_batch(g, domain.keys)
        assert perm.dtype == np.int64 and np.array_equal(domain._dense[imgs], perm)
        picks = rng.choice(domain.size, size=50, replace=False)
        assert [domain.index_of_key(int(k)) for k in imgs[picks]] == perm[picks].tolist()
    with pytest.raises(ActionError, match="not a point"):
        domain.index_of_key(1)  # v = e1 and w = 0, so w(v) = 0
    # an element whose image keys leave the domain (key 0 has v = 0)
    monkeypatch.setattr(domain._applier, "apply_batch", lambda g, keys: np.zeros_like(keys))
    with pytest.raises(ActionError, match="does not preserve the domain"):
        domain.perm_of(g)


# (kind, p, f, n): tables over GF(3), GF(4) and GF(9), on the digit and the
# XOR path beneath
_CLASS_CASES = [
    (PROJECTIVE, 3, 1, 4), (PROJECTIVE, 2, 2, 4), (PROJECTIVE, 3, 2, 3),
    (ANTIFLAG, 3, 1, 3), (ANTIFLAG, 2, 2, 3),
]


def _scaled_key(spec, tag, n, key, lam, mu=None):
    """The key of (lam v, mu w) for the point (v, w) a key packs, one digit
    at a time; mu defaults to lam^-1, and a projective point has no w."""
    x = unpack_point(tag, key, spec.q, n)
    if tag == PROJECTIVE:
        return pack_point(ActionPoint(tag, tuple(spec.mul(lam, a) for a in x.data)), spec.q, n)
    mu = spec.inv(lam) if mu is None else mu
    v, w = x.data
    data = (tuple(spec.mul(lam, a) for a in v), tuple(spec.mul(mu, a) for a in w))
    return pack_point(ActionPoint(tag, data), spec.q, n)


@pytest.mark.parametrize("tag,p,f,n", _CLASS_CASES)
def test_scalar_class_lookup_matches_the_normalizing_path(tag, p, f, n):
    # the normalizing path is sl_apply, whose images canonical_point scales
    spec = gf.make_field(p, f)
    domain = PermDomain(Action(tag, spec, n))
    where = {int(k): i for i, k in enumerate(domain.keys)}
    rng = np.random.default_rng(p * f * n)
    for fa in range(f):
        for dual in (0, 1) if tag == ANTIFLAG else (0,):
            g = ambient_element(rng, spec, n, fa, dual)
            want = [where[pack_point(sl_apply(g, unpack_point(tag, k, spec.q, n)), spec.q, n)]
                    for k in domain.keys.tolist()]
            assert domain.perm_of(g).tolist() == want
    # every scalar representative resolves to its point
    for i, key in enumerate(domain.keys.tolist()):
        assert {domain.index_of_key(_scaled_key(spec, tag, n, key, lam)) for lam in range(1, spec.q)} == {i}
    if tag == ANTIFLAG:
        # (v, 2w) has w(v) = 2, which is -1 in GF(3) and a generator of GF(4)
        key = _scaled_key(spec, tag, n, int(domain.keys[-1]), 1, 2)
        with pytest.raises(ActionError, match="not a point"):
            domain.index_of_key(key)


@pytest.mark.parametrize("tag,p,f,n", _CLASS_CASES)
def test_dense_projective_and_antiflag_domains_never_normalize(tag, p, f, n):
    # the domain permutes through the vector or pair kind beneath, and its
    # own kind has no batch action, which would have to normalize
    spec = gf.make_field(p, f)
    domain = PermDomain(Action(tag, spec, n))
    assert domain._applier.tag == (PAIR if tag == ANTIFLAG else VECTOR)
    g = ambient_element(np.random.default_rng(5), spec, n, f - 1, tag == ANTIFLAG)
    perm = domain.perm_of(g)
    assert np.array_equal(domain._dense[domain._applier.apply_batch(g, domain.keys)], perm)
    with pytest.raises(ActionError, match="only through their enumerated domain"):
        domain.action.apply_batch(g, domain.keys[:1])


@pytest.mark.parametrize("p,f,n", [(2, 1, 4), (2, 2, 3), (3, 1, 3), (3, 2, 2)])
def test_duality_domain_matches_sl_apply(p, f, n):
    # V - 0, then V* - 0: sl_apply on the pair (x, x) gives the vector x's
    # image as its functional part under a duality element, else as its
    # vector part, and the functional x's the other way round
    spec = gf.make_field(p, f)
    domain, qn = PermDomain(Action(DUALITY, spec, n)), spec.q**n
    assert domain.size == domain_size(DUALITY, spec.q, n) == 2 * (qn - 1)
    e1 = (1,) + (0,) * (n - 1)
    assert [domain.index_of_point(ActionPoint(tag, e1)) for tag in (VECTOR, FUNCTIONAL)] == [0, qn - 1]
    rng = np.random.default_rng(p * f * n)
    for fa in range(f):
        for dual in (0, 1):
            g = ambient_element(rng, spec, n, fa, dual)
            want = []
            for key in domain.keys.tolist():
                side, x = divmod(key, qn)
                x = unpack_point(VECTOR, x, spec.q, n).data
                v, w = sl_apply(g, ActionPoint(PAIR, (x, x))).data
                image = ActionPoint(VECTOR, v) if side == dual else ActionPoint(FUNCTIONAL, w)
                want.append(domain.index_of_point(image))
            perm = domain.perm_of(g)
            assert perm.tolist() == want
            assert domain.element_of(perm) == g


def test_duality_rejected_on_one_sided_kinds():
    spec = gf.make_field(2, 2)
    g = ambient_element(np.random.default_rng(1), spec, 3, 0, 1)
    for tag in (VECTOR, FUNCTIONAL):
        with pytest.raises(LinAlgError):
            Action(tag, spec, 3).apply_batch(g, np.array([1, 2], dtype=np.int64))


def _all_keys_reference(action: Action) -> list[int]:
    """The two-sided domain one vector at a time: for each v, the w with
    w.v = 1, w's free digits counting up and w[pivot] solved."""
    spec, q, n = action.spec, action.q, action.n
    vkeys = range(1, q**n) if action.tag == PAIR else Action(PROJECTIVE, spec, n).all_keys()
    keys = []
    for vkey in vkeys:
        v = unpack_point(VECTOR, int(vkey), q, n).data
        piv = next(i for i, x in enumerate(v) if x)
        free = [i for i in range(n) if i != piv]
        for fkey in range(q ** (n - 1)):
            w, rest, acc = [0] * n, fkey, 0
            for i in free:
                w[i] = rest % q
                rest //= q
                acc = spec.add(acc, spec.mul(w[i], v[i]))
            w[piv] = spec.mul(spec.add(1, spec.neg(acc)), spec.inv(v[piv]))
            keys.append(int(vkey) + q**n * sum(w[i] * q**i for i in range(n)))
    return keys


@pytest.mark.parametrize("tag", [PAIR, ANTIFLAG])
@pytest.mark.parametrize("p,f,n", [(2, 1, 2), (2, 1, 5), (3, 1, 3), (2, 2, 3), (5, 1, 3), (2, 3, 2), (3, 1, 1)])
def test_all_keys_matches_scalar_enumeration(tag, p, f, n):
    action = Action(tag, gf.make_field(p, f), n)
    keys = action.all_keys()
    assert keys.tolist() == _all_keys_reference(action)
    assert len(keys) == domain_size(tag, action.q, n)
