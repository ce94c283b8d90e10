"""Chains, orbits, stabilizers and residuals, cross-checked against sympy."""

import math

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from grpfact import gf, grpcore
from grpfact.constructors import automorphism_element, classical_generators, stabilizer_subgroup
from grpfact.grpcore import (
    CertificationError,
    GroupSpec,
    StabChain,
    Tracked,
    element_order_perm,
    orbit,
    orbit_with_transporters,
    product_membership,
    shared_domain,
    solvable_residual,
    stabilizer_generators,
    t_compose,
    transporter,
)
from grpfact.actions import Action
from grpfact.linalg import (
    ANTIFLAG,
    PAIR,
    PROJECTIVE,
    VECTOR,
    GroupElement,
    Mat,
    canonical_point,
    sl_compose,
    sl_inverse,
)


@pytest.fixture(scope="module")
def sl32():
    return classical_generators("SL", 3, 2)


def test_chain_orders_match_formulas(sl32):
    assert sl32.order() == 168
    assert classical_generators("Sp", 4, 2).order() == 720


def test_a6_on_six_points_oracle():
    # an independent sympy cross-check of the chain order machinery:
    # the permutation images of our SL_2(9) generators on the 10 projective
    # points generate a group whose order sympy must agree on
    from grpfact.sporadic import psl2_9

    Z = psl2_9()
    chain = Z.chain()
    assert chain.order() == 360
    dom = chain.domain
    perms = [Permutation(dom.perm_of(g).tolist()) for g in Z.generators]
    assert PermutationGroup(perms).order() == 360


def test_chain_base_reorder_invariance(sl32):
    dom = shared_domain(VECTOR, sl32.spec, 3)
    c1 = StabChain.build(dom, sl32.generators, base_hint=[0, 1], known_order=168)
    c2 = StabChain.build(dom, sl32.generators, base_hint=[5, 2], known_order=168)
    assert c1.order() == c2.order() == 168


def test_contains_generators_and_identity(sl32):
    chain = sl32.chain()
    for g in sl32.generators:
        assert chain.contains(g)
    assert chain.contains(sl32.identity())


def test_contains_rejects_determinant_obstruction():
    g = classical_generators("SL", 2, 4)
    spec = g.spec
    lam = spec.primitive_elem
    diag = GroupElement(Mat(spec, [[lam, 0], [0, 1]]))
    assert not g.chain().contains(diag)


def test_orbit_stabilizer_invariant(sl32):
    pt = canonical_point(VECTOR, (1, 0, 0))
    orb = orbit(sl32, pt)
    stab = stabilizer_generators(sl32, pt)
    assert orb.size * stab.order() == sl32.order()
    assert orb.size == 7


def test_vector_stabilizer_fixes_its_point():
    K = stabilizer_subgroup("vector", 3, 2)
    pt = canonical_point(VECTOR, (1, 0, 0))
    orb = orbit(K, pt)
    assert orb.size == 1


def test_stabilizer_orders(sl32):
    # |stab| = |G| / |orbit| across several points
    for coords in [(1, 0, 0), (1, 1, 0), (1, 1, 1)]:
        stab = stabilizer_generators(sl32, canonical_point(VECTOR, coords))
        assert stab.order() == 24


def test_blown_sl24_stabilizer_structure():
    # inside SL_4(2) the blown SL_2(4) has vector stabilizer 2^2, elementary abelian
    from grpfact.constructors import ext_subgroup
    from grpfact.grpcore import element_order_perm

    H = ext_subgroup("SL", 2, 2, 2)
    stab = stabilizer_generators(H, canonical_point(VECTOR, (1, 0, 0, 0)))
    assert stab.order() == 4
    spectrum = {element_order_perm(t.perm) for t in stab.chain().elements()}
    assert spectrum == {1, 2}


def test_solvable_residual_perfect_group(sl32):
    res = solvable_residual(sl32)
    assert res.order() == 168


def test_solvable_residual_sigma_l24_vs_sympy():
    from grpfact.constructors import ext_subgroup

    H = ext_subgroup("SL", 2, 2, 2, "psi")
    assert H.order() == 120
    res = solvable_residual(H)
    assert res.order() == 60
    # oracle: the same derived series on the degree-15 permutation image
    dom = shared_domain(VECTOR, H.spec, 4)
    perms = [Permutation(dom.perm_of(g).tolist()) for g in H.generators]
    G = PermutationGroup(perms)
    series = G.derived_series()
    assert series[0].order() == 120
    assert series[-1].order() == 60
    assert series[-1].is_perfect


def test_solvable_residual_abelian_group():
    spec = gf.make_field(2, 1)
    t = GroupElement(Mat(spec, [[1, 1], [0, 1]]))
    G = GroupSpec("unitriangular", 2, spec, [t], claimed_order=2)
    assert solvable_residual(G).order() == 1


def test_residual_idempotent_and_inside_derived():
    from grpfact.constructors import ext_subgroup
    from grpfact.grpcore import derived_subgroup, same_subgroup

    H = ext_subgroup("SL", 2, 2, 2, "psi")
    der = derived_subgroup(H)
    res = solvable_residual(H)
    assert all(der.contains(g) for g in res.generators)
    assert same_subgroup(solvable_residual(res), res)


def test_product_membership_matches_brute_force():
    # SL_2(2) with H a subgroup and K = stabilizer: HK as an explicit set
    G = classical_generators("SL", 2, 2)
    spec = G.spec
    w = GroupElement(Mat(spec, [[0, 1], [1, 0]]))
    H = GroupSpec("swap", 2, spec, [w], claimed_order=2)
    omega = canonical_point(VECTOR, (1, 0))
    action = Action(VECTOR, spec, 2)
    h_orbit = orbit(H, omega)
    els = list(G.chain().elements())
    k_els = [t for t in els if action.point_key(action.apply_point(t.elem, omega)) == action.point_key(omega)]
    hk = set()
    h_els = list(H.chain().elements())
    for h in h_els:
        for k in k_els:
            hk.add(t_compose(h, k).perm.tobytes())
    for t in els:
        expected = t.perm.tobytes() in hk
        assert product_membership(h_orbit, action, t.elem, omega) == expected
    assert product_membership(h_orbit, action, G.identity(), omega)
    assert product_membership(h_orbit, action, w, omega)


def test_transporters_transport():
    G = classical_generators("SL", 3, 2)
    pt = canonical_point(VECTOR, (0, 1, 0))
    action = Action(VECTOR, G.spec, 3)
    orb = orbit_with_transporters(G.generators, pt, action)
    for key in map(int, orb.keys):
        u = transporter(orb, G.generators, key)
        assert action.point_key(action.apply_point(u, pt)) == key


def test_known_order_build_rejects_wrong_claims():
    G = classical_generators("SL", 2, 2)
    dom = shared_domain(VECTOR, G.spec, 2)
    with pytest.raises(CertificationError):
        StabChain.build(dom, G.generators, known_order=12, max_stall=50, name="bad")


def test_post_verify_rejects_supergroup_masquerade():
    # claiming a proper divisor of the true order slips past the orbit
    # product; the deterministic verification pass must catch it
    G = classical_generators("SL", 3, 2)  # true order 168
    dom = shared_domain(VECTOR, G.spec, 3)
    try:
        chain = StabChain.build(dom, G.generators, known_order=24,
                                max_stall=80, name="masquerade", post_verify=True)
    except CertificationError:
        return  # either failure mode is a correct rejection
    pytest.fail(f"order-24 claim accepted for a group of order {chain.order()}")


def test_orbit_budget_error():
    G = classical_generators("SL", 4, 2)
    with pytest.raises(grpcore.OrbitBudgetError):
        orbit(G, canonical_point(VECTOR, (1, 0, 0, 0)), max_points=4)


def test_random_elements_are_members():
    G = classical_generators("Sp", 4, 3)
    chain = G.chain()
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = chain.random_element(rng)
        assert chain.contains_tracked(t)
        assert np.array_equal(chain.domain.perm_of(t.elem), t.perm)


def test_elements_enumeration_complete():
    G = classical_generators("SL", 2, 4)
    els = list(G.chain().elements())
    assert len(els) == 60
    assert len({t.perm.tobytes() for t in els}) == 60


# ---------------------------------------------------------------------------
# permutation-first core: lazy matrices, Schreier vectors, element orders


def _primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, int(p**0.5) + 1))]


def test_element_order_perm_does_not_overflow():
    primes = _primes_below(80)
    assert sum(primes) == 791
    perm, start = [], 0
    for p in primes:
        perm.extend(start + (i + 1) % p for i in range(p))
        start += p
    expected = 1
    for p in primes:
        expected *= p
    assert expected > 2**63
    assert element_order_perm(np.array(perm)) == expected


def test_element_order_perm_matches_cycle_walk():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 7, 60, 336, 1000):
        for _ in range(5):
            perm = rng.permutation(size)
            seen, lengths = set(), []
            for i in range(size):
                length = 0
                while i not in seen:
                    seen.add(i)
                    i = int(perm[i])
                    length += 1
                if length:
                    lengths.append(length)
            assert element_order_perm(perm) == math.lcm(*lengths)


def _semilinear_gens():
    """SL_2(4) generators with the Frobenius-and-duality automorphism, on pairs."""
    G = classical_generators("SL", 2, 4)
    gens = list(G.generators) + [automorphism_element("phi_gamma", 2, 4), automorphism_element("phi", 2, 4)]
    assert any(g.dual for g in gens) and any(g.fa for g in gens)
    return gens, shared_domain(PAIR, G.spec, 2)


def test_lazy_product_of_many_factors_matches_eager():
    gens, dom = _semilinear_gens()
    tracked = [Tracked(g, dom.perm_of(g)) for g in gens]
    rng = np.random.default_rng(11)
    word = rng.integers(len(gens), size=20_000)
    left = right = tracked[word[0]]
    eager_left = eager_right = gens[word[0]]
    for gi in word[1:]:
        left = t_compose(left, tracked[gi])
        right = t_compose(tracked[gi], right)
        eager_left = sl_compose(eager_left, gens[gi])
        eager_right = sl_compose(gens[gi], eager_right)
    assert left.elem == eager_left
    assert right.elem == eager_right
    assert np.array_equal(dom.perm_of(left.elem), left.perm)
    assert np.array_equal(dom.perm_of(right.elem), right.perm)
    assert left.inverse().inverse() is left
    assert left.inverse().elem == sl_inverse(eager_left)


def test_lazy_inverse_chain_has_no_recursion_limit():
    gens, dom = _semilinear_gens()
    t = Tracked(gens[-2], dom.perm_of(gens[-2]))
    acc = t
    for _ in range(20_000):
        acc = t_compose(acc, t).inverse()
    assert np.array_equal(dom.perm_of(acc.elem), acc.perm)


def test_matrices_are_composed_only_when_read(monkeypatch):
    gens, dom = _semilinear_gens()
    calls = []
    real = grpcore.sl_compose
    monkeypatch.setattr(grpcore, "sl_compose", lambda g, h: calls.append(1) or real(g, h))
    a, b = (Tracked(g, dom.perm_of(g)) for g in gens[:2])
    ab = t_compose(a, b)
    abab = t_compose(ab, ab)
    assert not calls
    assert abab.elem == sl_compose(sl_compose(gens[0], gens[1]), sl_compose(gens[0], gens[1]))
    assert len(calls) == 2  # the shared factor ab is composed once
    abab.elem
    assert len(calls) == 2


def _queue_bfs(gens, point, action):
    """Scalar reference: queue BFS trying the generators in order at each point."""
    seed = action.point_key(point)
    found = {seed: None}
    queue = [seed]
    for key in queue:
        x = action.key_point(key)
        for gi, g in enumerate(gens):
            img = action.point_key(action.apply_point(g, x))
            if img not in found:
                found[img] = (gi, key)
                queue.append(img)
    return queue, found


def _orbit_cases():
    sl33 = classical_generators("SL", 3, 3).generators
    sl34 = classical_generators("SL", 3, 4).generators
    sl32 = classical_generators("SL", 3, 2).generators
    sl29 = classical_generators("SL", 2, 9).generators
    F3, F4, F2, F9 = gf.make_field(3, 1), gf.make_field(2, 2), gf.make_field(2, 1), gf.make_field(3, 2)
    return [
        ("vector", sl33, canonical_point(VECTOR, (0, 1, 2))),
        ("vector-frobenius", sl34 + [automorphism_element("phi", 3, 4)], canonical_point(VECTOR, (1, 0, 0))),
        ("projective", sl34 + [automorphism_element("phi", 3, 4)],
         canonical_point(PROJECTIVE, (0, 1, 3), spec=F4)),
        ("projective-odd", sl33, canonical_point(PROJECTIVE, (1, 2, 0), spec=F3)),
        ("antiflag", sl34 + [automorphism_element("phi_gamma", 3, 4)],
         canonical_point(ANTIFLAG, (1, 0, 0), (1, 1, 0), spec=F4)),
        ("antiflag-odd", sl33, canonical_point(ANTIFLAG, (1, 1, 0), (0, 1, 0), spec=F3)),
        ("pair-duality", sl32 + [automorphism_element("gamma", 3, 2)],
         canonical_point(PAIR, (1, 0, 0), (1, 0, 0), spec=F2)),
        ("pair-duality-odd", sl29 + [automorphism_element("phi_gamma", 2, 9)],
         canonical_point(PAIR, (1, 0), (1, 0), spec=F9)),
    ]


@pytest.mark.parametrize("case", _orbit_cases(), ids=lambda c: c[0])
def test_orbit_with_transporters_matches_queue_bfs(case):
    _, gens, point = case
    action = Action(point.tag, gens[0].spec, gens[0].n)
    queue, found = _queue_bfs(gens, point, action)
    orb = orbit_with_transporters(gens, point, action)
    assert orb.keys.tolist() == queue
    assert orb.size == len(queue) > 1
    assert orb.parent[0] == -1
    for i, key in enumerate(queue[1:], start=1):
        assert (int(orb.via[i]), int(orb.keys[orb.parent[i]])) == found[key]
    assert orb.index_of(orb.keys).tolist() == list(range(orb.size))
    for key in queue[:: max(1, len(queue) // 7)]:
        u = transporter(orb, gens, key)
        assert action.point_key(action.apply_point(u, point)) == key
        assert orb.contains_key(key)
    outside = next(k for k in range(10**6) if k not in found)
    assert not orb.contains_key(outside)
    plain = orbit(gens, point, action)
    assert plain.size == len(queue)
    assert all(plain.contains_key(key) for key in queue)
    assert not plain.contains_key(outside)


def test_contains_key_on_sparse_keyspace_orbit():
    # the pair keyspace of GF(2)^14 has 2^28 keys, past the dense-mask limit
    G = classical_generators("SL", 14, 2)
    F2 = gf.make_field(2, 1)
    e1 = (1,) + (0,) * 13
    omega = canonical_point(PAIR, e1, e1, spec=F2)
    action = Action(PAIR, F2, 14)
    gens = G.generators[1:2]
    orb = orbit(gens, omega, action)
    assert orb.seen_dense is None
    queue, found = _queue_bfs(gens, omega, action)
    assert orb.size == len(queue) > 1
    assert all(orb.contains_key(key) for key in queue)
    assert not orb.contains_key(next(k for k in range(10**6) if k not in found))
    assert product_membership(orb, action, G.identity(), omega)
    assert product_membership(orb, action, gens[0], omega)


def test_orbit_keeps_no_keys():
    with pytest.raises(ValueError):
        orbit(classical_generators("SL", 3, 2).generators, canonical_point(VECTOR, (1, 0, 0)), keep_keys=True)


def test_orbit_with_transporters_budget():
    gens = classical_generators("SL", 3, 3).generators
    with pytest.raises(grpcore.OrbitBudgetError):
        orbit_with_transporters(gens, canonical_point(VECTOR, (1, 0, 0)), max_points=10)


def test_with_name_keeps_stabilizer_stages_and_chain():
    K = stabilizer_subgroup("vector", 3, 2)
    chain = K.chain()
    renamed = K.with_name("renamed")
    assert renamed.name == "renamed"
    assert renamed.stabilizer_of == K.stabilizer_of is not None
    assert renamed._chain is chain
    assert renamed.order() == K.order()
