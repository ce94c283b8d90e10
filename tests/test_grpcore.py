"""Chains, orbits, stabilizers and residuals, cross-checked against sympy."""

import dataclasses
import gc
import importlib
import math
import os
import pkgutil
import subprocess
import sys
import threading
import tracemalloc
import weakref
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

import grpfact
from grpfact import factorize, gf, grpcore, sporadic
from grpfact.catalog import load_catalog
from grpfact.constructors import (
    automorphism_element,
    classical_generators,
    ext_subgroup,
    psi_extension,
    sl_generators,
    stabilizer_subgroup,
)
from grpfact.g2 import g2_generators
from grpfact.grpcore import (
    CertificationError,
    GroupSpec,
    derived_subgroup,
    StabChain,
    Tracked,
    element_order_perm,
    orbit,
    orbit_with_transporters,
    point_chain,
    schreier_orbit,
    shared_domain,
    solvable_residual,
    stabilizer_generators,
    t_compose,
)
from grpfact.actions import Action, ActionError, PermDomain
from grpfact.linalg import (
    ANTIFLAG,
    DUALITY,
    FUNCTIONAL,
    PAIR,
    PROJECTIVE,
    VECTOR,
    ActionPoint,
    GroupElement,
    Mat,
    canonical_point,
    identity_element,
    sl_apply,
    sl_compose,
    sl_inverse,
)
from grpfact.orders import sl_order
from grpfact.streams import Stream
from oracles import (
    TrackedRattle,
    ambient_element,
    brute_stabilizer,
    chain_elements,
    count_chain_builds,
    count_matrix_ops,
    count_schreier_orbits,
    conjugate_gens,
    domain_point,
    non_normalizing_element,
    orbit_contains_key,
    perm_order,
    same_subgroup,
    schreier_witness,
    tracked_random_element,
    tracked_sift,
)
from test_trace_targets import _targets as tracing_targets


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


def test_contains_generators_and_identity(sl32):
    chain = sl32.chain()
    for g in sl32.generators:
        assert chain.contains(g)
    assert chain.contains(identity_element(sl32.spec, 3))


def test_tracked_generators_reuse_a_built_chains_permutations(monkeypatch):
    G = classical_generators("SL", 3, 4)
    chain = G.chain()
    calls = []
    perm_of = PermDomain.perm_of
    monkeypatch.setattr(PermDomain, "perm_of", lambda domain, g: calls.append(g) or perm_of(domain, g))
    tracked = G.tracked_generators()
    assert not calls and G.tracked_generators(chain.domain) is tracked is chain.originals
    assert [t.elem for t in tracked] == list(G.generators)
    assert all(np.array_equal(t.perm, perm_of(chain.domain, g)) for t, g in zip(tracked, G.generators))
    # on another shared domain, each generator's matrix is read onto it
    functional = shared_domain(FUNCTIONAL, G.spec, 3)
    other = G.tracked_generators(functional)
    assert len(calls) == len(G.generators)
    assert all(np.array_equal(t.perm, perm_of(functional, g)) for t, g in zip(other, G.generators))


def test_of_chain_carries_the_given_chain_with_no_build(monkeypatch):
    G = classical_generators("SL", 3, 2)
    domain = shared_domain(PROJECTIVE, G.spec, 3)
    chain = StabChain.build(domain, G.generators, order=168, bound=168, name="PSL_3(2)")
    builds = count_chain_builds(monkeypatch)
    spec = GroupSpec.of_chain("PSL_3(2)", chain)
    assert spec.chain() is chain and spec.home_domain() is domain
    assert spec.order() == chain.order() == 168 and spec.claimed_order == 168
    assert spec.action_tag == PROJECTIVE and (spec.n, spec.spec) == (3, G.spec)
    # built from matrices, the originals read back as those matrices
    assert list(spec.generators) == list(G.generators)
    assert builds == []


def test_of_chain_takes_only_a_certified_chain():
    G = classical_generators("SL", 3, 2)
    domain = shared_domain(VECTOR, G.spec, 3)
    grown = StabChain(domain)
    for t in G.tracked_generators(domain):
        grown._add(t)
    with pytest.raises(CertificationError, match="certificate has not run"):
        GroupSpec.of_chain("grown", grown)
    built = StabChain.build(domain, G.generators, order=168, bound=168)
    x = built.random_element(np.random.default_rng(2))
    chains = [built, derived_subgroup(G).chain(), built.conjugate(x), built.conjugate(x, from_level=1),
              built.conjugate(built.ident)]
    for chain in chains:
        assert GroupSpec.of_chain("certified", chain).chain() is chain
    # a chain extended after its certificate is refused again
    extended = StabChain.build(domain, G.generators[:1], name="<a>")
    extended.add_element(G.generators[1])
    with pytest.raises(CertificationError, match="certificate has not run"):
        GroupSpec.of_chain("extended", extended)


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
    spectrum = {element_order_perm(t.perm) for t in chain_elements(stab.chain())}
    assert spectrum == {1, 2}


def test_solvable_residual_perfect_group(sl32):
    res = solvable_residual(sl32)
    assert res.order() == 168


def test_solvable_residual_sigma_l24_vs_sympy():
    from grpfact.constructors import ext_subgroup

    H = psi_extension(ext_subgroup("SL", 2, 2, 2), "psi")
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
    H = psi_extension(ext_subgroup("SL", 2, 2, 2), "psi")
    der = derived_subgroup(H)
    res = solvable_residual(H)
    assert all(der.contains(g) for g in res.generators)
    assert same_subgroup(solvable_residual(res), res)


def _brute_force_products(G, H, points):
    """K, the stabilizer in G of the points (read off matrices), as Tracked
    elements, and the set HK as permutation bytes."""
    actions = [Action(pt.tag, G.spec, G.n) for pt in points]
    dom = G.chain().domain

    def fixes(t):
        g = t.matrix(dom)
        return all(a.point_key(sl_apply(g, pt)) == a.point_key(pt) for a, pt in zip(actions, points))

    k_els = [t for t in chain_elements(G.chain()) if fixes(t)]
    return k_els, {t_compose(h, k).perm.tobytes() for h in chain_elements(H.chain()) for k in k_els}


def _intersect_matches_brute_force(G, H, points) -> bool:
    """H n K by ``intersect``, for K the stabilizer of the points, against
    brute force: its order counts H's elements that fix every point, and
    the counting identity holds exactly when HK is all of G, which is
    returned."""
    k_els, hk = _brute_force_products(G, H, points)
    K = GroupSpec("K", G.n, G.spec, grpcore.TrackedGenerators(k_els, G.chain().domain), claimed_order=len(k_els),
                  action_tag=VECTOR, stabilizer_of=list(points))
    inter = factorize.intersect(H, K, "stabilizer")
    k = {t.perm.tobytes() for t in k_els}
    assert inter.order() == sum(h.perm.tobytes() in k for h in chain_elements(H.chain()))
    factorizes = len(hk) == G.order()
    assert (G.order() * inter.order() == H.order() * len(k_els)) == factorizes
    return factorizes


def test_one_stage_intersection_matches_brute_force():
    # SL_2(2) with H the swap and K the stabilizer of e1: HK is a proper subset
    G = classical_generators("SL", 2, 2)
    w = GroupElement(Mat(G.spec, [[0, 1], [1, 0]]))
    H = GroupSpec("swap", 2, G.spec, [w], claimed_order=2)
    assert not _intersect_matches_brute_force(G, H, [canonical_point(VECTOR, (1, 0))])


def test_two_stage_intersection_matches_brute_force():
    # SL_3(2) with K the stabilizer of e1 and e2, and H the stabilizer of
    # e3 (order 24), a Sylow 7 (order 7) and G itself
    G = classical_generators("SL", 3, 2)
    dom = G.chain().domain
    stages = [canonical_point(VECTOR, (1, 0, 0)), canonical_point(VECTOR, (0, 1, 0))]
    rng = np.random.default_rng(11)
    seven = next(t for t in (G.chain().random_element(rng) for _ in range(200)) if element_order_perm(t.perm) == 7)
    H7 = GroupSpec("C7", 3, G.spec, grpcore.TrackedGenerators([seven], dom), claimed_order=7)
    H24 = stabilizer_generators(G, canonical_point(VECTOR, (0, 0, 1)))
    # the antiflag (e1, e1*) as a vector stage and a functional stage: the
    # functional stage's stabilizer is taken on its own domain
    antiflag = [stages[0], ActionPoint(FUNCTIONAL, (1, 0, 0))]
    outcomes = {_intersect_matches_brute_force(G, H, points) for points in (stages, antiflag) for H in (H7, H24, G)}
    assert outcomes == {True, False}


def _walk_to_seed(orb, x):
    """Walk the Schreier vector from domain index x back to the orbit's
    first point: each step applies the inverse of the generator that
    reached the point, and the walk is no longer than the orbit."""
    base = int(orb.orbit[0])
    for _ in range(orb.size):
        if x == base:
            return x
        x = int(np.flatnonzero(orb.perms[int(orb.par[x])] == x)[0])
    assert x == base
    return x


def test_transporters_transport():
    G = classical_generators("SL", 3, 2)
    pt = canonical_point(VECTOR, (0, 1, 0))
    orb = orbit_with_transporters(G, pt)
    assert orb.size == 7
    assert orb.domain is shared_domain(VECTOR, G.spec, 3)
    assert int(orb.orbit[0]) == orb.domain.index_of_point(pt)
    for x in map(int, orb.orbit):
        assert _walk_to_seed(orb, x) == orb.domain.index_of_point(pt)


# ---------------------------------------------------------------------------
# the certificate rule: a known order is a bound, a bare order takes the
# Schreier pass


def test_known_order_reached_at_its_bound_runs_no_schreier_pass(sl32, verify_loop_calls):
    chain = StabChain.build(shared_domain(VECTOR, sl32.spec, 3), sl32.generators, order=168, bound=168,
                            name="known")
    assert chain.order() == 168 and chain.verified
    assert verify_loop_calls == []


def test_order_alone_always_runs_the_schreier_pass(sl32, verify_loop_calls):
    chain = StabChain.build(shared_domain(VECTOR, sl32.spec, 3), sl32.generators, order=168, name="literal")
    assert chain.order() == 168 and chain.verified
    assert verify_loop_calls == [168]


@pytest.mark.parametrize("with_bound", [True, False], ids=["order+bound", "order"])
def test_wrong_order_is_refused_either_way(with_bound, verify_loop_calls):
    # the random phase stalls below 12, and the Schreier pass completes the
    # chain before the order check refuses it
    G = classical_generators("SL", 2, 2)  # true order 6
    dom = shared_domain(VECTOR, G.spec, 2)
    with pytest.raises(CertificationError, match="order 6, not the claimed 12"):
        StabChain.build(dom, G.generators, order=12, bound=12 if with_bound else None, name="bad")
    assert verify_loop_calls


@pytest.mark.xfail(strict=True, reason="a bound at or below a partial chain's order is trusted "
                   "(the originals sift through it); the guard is open with the containers")
def test_known_order_below_the_true_order_is_refused():
    # SL_2(2) has order 6; its partial chain reaches order 3 before the
    # random phase runs, and its originals sift through it (in reverse
    # order the generators reach 6 and the build raises)
    G = classical_generators("SL", 2, 2)
    with pytest.raises(CertificationError):
        StabChain.build(shared_domain(VECTOR, G.spec, 2), G.generators, order=3, bound=3)


def test_the_pass_finds_a_witness_on_the_order_3_chain_of_sl_2_2():
    # the chain that the build above accepts meets its known order and its
    # bound, so no pass runs; forced, the pass on base images finds the
    # oracle's witness, which a check of the known order can raise on
    G = classical_generators("SL", 2, 2)
    chain = StabChain.build(shared_domain(VECTOR, G.spec, 2), G.generators, order=3, bound=3)
    assert chain.order() == 3
    witness = chain._schreier_witness()
    assert witness is not None and not witness.is_identity()
    assert np.array_equal(witness.perm, schreier_witness(chain).perm)


def test_order_alone_refuses_a_supergroup_masquerade(verify_loop_calls):
    # a random chain of SL_3(2) can pass through order 24 on its way to 168;
    # with no containing group of order 24, the Schreier pass must refuse it
    G = classical_generators("SL", 3, 2)
    dom = shared_domain(VECTOR, G.spec, 3)
    with pytest.raises(CertificationError, match="168"):
        StabChain.build(dom, G.generators, order=24, name="masquerade")
    assert verify_loop_calls


# ---------------------------------------------------------------------------
# certificates other than the Schreier pass: look-alikes must not pass them


@pytest.fixture
def verify_loop_calls(monkeypatch):
    calls = []
    schreier_pass = StabChain._verify_loop

    def spy(chain):
        calls.append(chain.order())
        schreier_pass(chain)

    monkeypatch.setattr(StabChain, "_verify_loop", spy)
    return calls


def test_normal_closure_certifies_once_at_its_fixpoint(monkeypatch, verify_loop_calls):
    # SL_2(4).2 blown into SL_4(2), on two generators (the product of the
    # core generators, and psi): their one commutator generates a group of
    # order 2, so the rounds must enlarge the chain to H' = SL_2(4), and
    # the one certificate comes after them, on the closure
    H = psi_extension(ext_subgroup("SL", 2, 2, 2), "psi")
    *core, psi = H.generators
    H2 = GroupSpec("SL_2(4).2 on two", H.n, H.spec, [reduce(sl_compose, core), psi], claimed_order=120)
    H2.order()
    certified = []
    certify = StabChain._certify

    def spy(chain, bound, name):
        certified.append((bound, chain.order()))
        certify(chain, bound, name)

    monkeypatch.setattr(StabChain, "_certify", spy)
    D = derived_subgroup(H2)
    assert D.order() == 60 and len(D.generators) > 1
    # one certificate, bounded by the parent, on the fixpoint's chain, and
    # the Schreier pass it ran was on that chain alone
    assert certified == [(120, 60)] and verify_loop_calls == [60]


def test_monte_carlo_short_of_its_bound_falls_back_to_the_schreier_pass(monkeypatch, verify_loop_calls):
    G = classical_generators("SL", 4, 2)  # order 20160
    dom = shared_domain(VECTOR, G.spec, 4)
    partial = StabChain(dom)
    for g in G.generators:
        partial._add(Tracked(dom.perm_of(g), g))
    assert partial.order() < 20160  # the generators alone stop short
    monkeypatch.setattr(StabChain, "QUIET_ROUNDS", 0)
    chain = StabChain.build(dom, G.generators, bound=20160, name="short")
    assert verify_loop_calls and verify_loop_calls[0] < 20160
    assert chain.order() == 20160


def test_chain_above_its_bound_is_refused():
    G = classical_generators("SL", 3, 2)  # true order 168
    dom = shared_domain(VECTOR, G.spec, 3)
    with pytest.raises(CertificationError):
        StabChain.build(dom, G.generators, bound=24, name="too big")


# ---------------------------------------------------------------------------
# sift-once: originals are added while the chain is short of its target,
# and every other one is sifted once, after the certificate


def test_order_reached_before_the_last_original_is_refused():
    # the chain of a alone reaches |<a>| = 2; b is never added, and its
    # sift refuses the claim
    a, b = classical_generators("SL", 4, 2).generators
    dom = shared_domain(VECTOR, a.spec, 4)
    assert element_order_perm(dom.perm_of(a)) == 2
    with pytest.raises(CertificationError, match="did not add fails to sift"):
        StabChain.build(dom, [a, b], order=2, name="<a>")


def test_bound_reached_before_an_original_outside_it_is_refused():
    a, b = classical_generators("SL", 4, 2).generators
    dom = shared_domain(VECTOR, a.spec, 4)
    with pytest.raises(CertificationError, match="did not add fails to sift"):
        StabChain.build(dom, [a, b], bound=2, name="bounded")


@pytest.mark.parametrize("originals", ["generators", "elements"])
def test_known_order_build_sifts_each_original_once(sl32, originals, monkeypatch):
    # SL_3(2)'s generators are all added; of its 168 elements (as an
    # enumerated intersection passes them), the chain adds those before it
    # reaches 168 and sifts the rest
    full = sl32.chain()
    tracked = list(sl32.tracked_generators() if originals == "generators" else chain_elements(full))
    sifted, added = [], []
    real_sift, real_add = StabChain._sift, StabChain._add
    monkeypatch.setattr(StabChain, "_sift", lambda chain, t: sifted.append(id(t)) or real_sift(chain, t))
    monkeypatch.setattr(StabChain, "_add", lambda chain, t: added.append(id(t)) or real_add(chain, t))
    chain = StabChain.build(full.domain, tracked, order=168, bound=168, name="once")
    assert chain.order() == 168
    assert [sifted.count(id(t)) for t in tracked] == [1] * len(tracked)
    ids = {id(t) for t in tracked}
    assert (sum(i in ids for i in added) < len(tracked)) == (originals == "elements")


def test_schreier_pass_refuses_a_witness_that_does_not_grow_the_chain(sl32, monkeypatch):
    # a witness that sifts leaves the chain as it was, so the pass would
    # find it again forever: it raises instead
    monkeypatch.setattr(StabChain, "_schreier_witness", lambda chain: chain.originals[0])
    with pytest.raises(CertificationError, match="sifts into the chain"):
        StabChain.build(shared_domain(VECTOR, sl32.spec, 3), sl32.generators, order=168, name="stuck")


def test_sl12_2_chain_rebuilds_few_schreier_trees(monkeypatch):
    # a level's tree is rebuilt only when a new strong generator grows its
    # orbit; rebuilding every level below each new one took 361 calls here
    calls = count_schreier_orbits(monkeypatch)
    assert classical_generators("SL", 12, 2).order() == sl_order(12, 2)
    assert 0 < len(calls) <= 64


def _sl3_2_adds():
    """A chain of SL_3(2) on its 7 vectors holding one involution t (level 0
    has base b and orbit {b, t(b)}), an element fixing b and t(b) that adds
    a level and keeps level 0's orbit, and one that moves b off it."""
    G = classical_generators("SL", 3, 2)
    elements = list(chain_elements(G.chain()))
    t = next(g for g in elements if not g.is_identity() and t_compose(g, g).is_identity())
    chain = StabChain(shared_domain(VECTOR, G.spec, 3))
    chain.add_element(t)
    b = chain.levels[0].base
    pair = {b, int(t.perm[b])}
    keep = next(g for g in elements if not g.is_identity() and all(int(g.perm[p]) == p for p in pair))
    grow = next(g for g in elements if int(g.perm[b]) not in pair)
    return chain, keep, grow


def test_a_level_keeps_its_tree_until_its_orbit_grows():
    chain, keep, grow = _sl3_2_adds()
    level = chain.levels[0]
    orbit, par = level.orbit, level.par
    assert chain.add_element(keep) and len(chain.levels) == 2
    assert level.orbit is orbit and level.par is par and len(level.eff) == 2
    assert chain.add_element(grow)
    assert level.orbit is not orbit and level.par is not par and len(level.orbit) > len(orbit)
    # level 0's eff is every strong generator, in the order added; each
    # residue here is the element added, as neither sift walked a tree
    assert [id(e) for e in level.eff] == [id(e) for e in chain.originals]
    assert len(chain.levels[1].eff) == 1 and chain.levels[1].eff[0] is keep
    assert all(chain.contains_tracked(g) for g in (keep, grow))


def test_adding_to_a_trivial_conjugate_leaves_the_original_chain():
    chain, keep, grow = _sl3_2_adds()
    level = chain.levels[0]
    seen, par, eff = level.seen.copy(), level.par.copy(), list(level.eff)
    copy = chain.conjugate(chain.ident)
    assert copy.levels[0].seen is level.seen and copy.levels[0].par is level.par
    assert copy.add_element(keep)
    # the kept tree is still the shared one
    assert copy.levels[0].seen is level.seen and copy.levels[0].par is level.par
    assert copy.add_element(grow)
    assert len(copy.levels[0].orbit) > len(level.orbit)
    assert np.array_equal(level.seen, seen) and np.array_equal(level.par, par)
    assert level.eff == eff and len(chain.levels) == 1


def test_conjugate_chain_matches_a_fresh_build():
    G = classical_generators("SL", 4, 2)
    X = ext_subgroup("SL", 2, 2, 2)
    rng = np.random.default_rng(11)
    x = non_normalizing_element(G, X, rng)
    conj = X.chain().conjugate(x)
    dom = conj.domain
    fresh = StabChain.build(dom, conjugate_gens(X.generators, x), name="fresh")
    assert conj.verified and conj.order() == fresh.order() == 60
    for t in conj.levels[0].eff:
        assert np.array_equal(dom.perm_of(t.matrix(dom)), t.perm)
    for _ in range(200):
        t = fresh.random_element(rng)
        assert conj.contains_tracked(t)
        u = conj.random_element(rng)
        assert fresh.contains_tracked(u)
        assert np.array_equal(dom.perm_of(u.matrix(dom)), u.perm)
    gchain = G.chain()
    outside = 0
    while outside < 200:
        t = gchain.random_element(rng)
        if not fresh.contains_tracked(t):
            assert not conj.contains_tracked(t)
            outside += 1


def test_stabilizer_generators_keeps_its_certified_chain():
    G = classical_generators("SL", 4, 2)
    S = stabilizer_generators(G, canonical_point(VECTOR, (1, 0, 0, 0)))
    kept = S._chain
    assert kept is not None and kept.verified
    rebuilt = StabChain.build(kept.domain, S.generators, name="rebuild")
    assert kept.order() == rebuilt.order() == 20160 // 15
    assert S.order() == kept.order()


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
        assert np.array_equal(chain.domain.perm_of(t.matrix(chain.domain)), t.perm)


def test_elements_enumeration_complete():
    G = classical_generators("SL", 2, 4)
    els = list(chain_elements(G.chain()))
    assert len(els) == 60
    assert len({t.perm.tobytes() for t in els}) == 60


# ---------------------------------------------------------------------------
# permutation-first core: lazy matrices, Schreier vectors, element orders


def _primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _cycles(*lengths):
    """A permutation made of consecutive cycles of the given lengths."""
    perm, start = [], 0
    for length in lengths:
        perm.extend(start + (i + 1) % length for i in range(length))
        start += length
    return np.array(perm)


def _overflow_perm():
    """Cycles of every prime below 80: 791 points, order above 2**63."""
    primes = _primes_below(80)
    assert sum(primes) == 791
    return _cycles(*primes), math.prod(primes)


def _cycle_walk_order(perm):
    seen, lengths = set(), []
    for i in range(len(perm)):
        length = 0
        while i not in seen:
            seen.add(i)
            i = int(perm[i])
            length += 1
        if length:
            lengths.append(length)
    return math.lcm(*lengths)


def test_element_order_perm_does_not_overflow():
    perm, expected = _overflow_perm()
    assert expected > 2**63
    assert element_order_perm(perm) == expected


def test_element_order_perm_matches_cycle_walk():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 7, 60, 336, 1000):
        for _ in range(5):
            perm = rng.permutation(size)
            assert element_order_perm(perm) == _cycle_walk_order(perm)


def test_element_order_perm_matches_perm_order():
    # the identity, one long cycle, and coprime cycles
    for perm, order in ((np.arange(9), 1), (_cycles(60), 60), (_cycles(4, 9, 5, 7), 1260),
                        (_cycles(3, 1, 2, 5), 30)):
        assert element_order_perm(perm) == perm_order(perm) == order


def test_element_order_perm_on_65535_points():
    # perm_order would compose this permutation about 1.2e16 times: forty
    # cycles of each length, then fixed points
    lengths = [2**7, 3**4, 5**2, 7**2, 11, 13, 17, 19, 23, 29, 31]
    rest = 65535 - 40 * sum(lengths)
    perm = _cycles(*lengths * 40, *[1] * rest)
    assert len(perm) == 65535 and rest > 0
    rng = np.random.default_rng(11)
    relabel = rng.permutation(65535)
    # the same cycles on shuffled points: relabel^-1 perm relabel
    shuffled = np.empty_like(perm)
    shuffled[relabel] = relabel[perm]
    for p in (perm, shuffled):
        assert element_order_perm(p) == math.lcm(*lengths)


def test_verifying_an_element_order_claim_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma (about 1 MB) on its first call in a process;
    # t1r09's literal certificates take element orders, which must not pay for it
    code = ("import sys\n"
            "from grpfact import catalog, factorize\n"
            "report = factorize.verify_claim(catalog.load_catalog().claim_by_id('t1r09'))\n"
            "print(report.overall, 'numpy.ma' in sys.modules)\n")
    src = str(Path(grpcore.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                          timeout=300, check=True)
    assert done.stdout.split() == ["pass", "False"]


def test_element_perm_blocks_follow_elements(sl32, monkeypatch):
    chain = sl32.chain()
    want = np.stack([t.perm for t in chain_elements(chain)])
    # element by element, a few levels, a few levels times three prefixes, one block
    for entries in (1, 7 * 10, 7 * 7 * 3, 1 << 22):
        monkeypatch.setattr(grpcore, "BLOCK_ENTRIES", entries)
        got = np.concatenate(list(chain.element_perm_blocks()))
        assert np.array_equal(got, want)


def _corrupt_first_level(chain):
    """Point one Schreier vector entry of level 0 at a descendant, which makes
    a cycle; returns the point and its transversal element from before."""
    level = chain.levels[0]

    def walk_closes(start):
        b = start
        for _ in range(len(level.orbit)):
            if b == level.base:
                return True
            b = int(level.eff[int(level.par[b])].inverse().perm[b])
        return b == level.base

    for beta in map(int, level.orbit[1:]):
        u = chain._transversal(0, beta)
        old = int(level.par[beta])
        for gi in range(len(level.eff)):
            level.par[beta] = gi
            if not walk_closes(beta):
                return beta, u
        level.par[beta] = old
    pytest.fail("no single Schreier vector entry closes a cycle")


def test_corrupt_schreier_vector_raises_instead_of_walking_forever(sl32):
    chain = StabChain.build(shared_domain(VECTOR, sl32.spec, 3), sl32.generators, order=168, bound=168)
    beta, u = _corrupt_first_level(chain)
    with pytest.raises(CertificationError, match="Schreier vector"):
        chain._transversal(0, beta)
    with pytest.raises(CertificationError, match="Schreier vector"):
        chain._sift(u)


def test_corrupt_schreier_vector_stops_the_batched_sift(sl32):
    chain = StabChain.build(shared_domain(VECTOR, sl32.spec, 3), sl32.generators, order=168, bound=168)
    beta, u = _corrupt_first_level(chain)
    block = np.stack([chain.ident.perm, u.perm, u.perm])
    with pytest.raises(CertificationError, match="Schreier vector of level 0"):
        chain.contains_block(block)


@pytest.mark.parametrize("case", range(3), ids=["vector", "projective", "pair"])
def test_contains_block_matches_contains_tracked(case):
    G, _ = _stabilizer_cases()[case]
    gchain = G.chain()
    dom = gchain.domain
    S = stabilizer_generators(G, domain_point(dom, _points_of_first_orbit(gchain)[1])).chain()
    rng = np.random.default_rng(29 + case)
    members = [S.random_element(rng) for _ in range(40)]
    supergroup = [gchain.random_element(rng) for _ in range(40)]
    loose = [Tracked(rng.permutation(dom.size)) for _ in range(20)]
    tests = members + supergroup + loose + [S.ident]
    want = [S.contains_tracked(t) for t in tests]
    assert all(want[:40]) and want[-1] and not any(want[80:100])
    assert 0 < sum(want[40:80]) < 40
    got = S.contains_block(np.stack([t.perm for t in tests]))
    assert got.dtype == bool and got.tolist() == want
    assert gchain.contains_block(np.stack([t.perm for t in supergroup])).all()


def test_psl2_13_blocks_fill_max_entries(monkeypatch):
    from grpfact import sporadic

    X1, _, _ = sporadic.locate_two_psl2_13(np.random.default_rng(3))
    chain = X1.chain()
    N, max_entries = chain.domain.size, 1 << 16
    assert (N, chain.order()) == (364, 1092)
    monkeypatch.setattr(grpcore, "BLOCK_ENTRIES", max_entries)
    blocks = list(chain.element_perm_blocks())
    assert len(blocks) <= -(-1092 * 364 // max_entries) + 1
    assert all(b.size <= max_entries for b in blocks)
    want = np.stack([t.perm for t in chain_elements(chain)])
    assert np.array_equal(np.concatenate(blocks), want)


def _support_cases():
    """One chain per domain kind, a trivial group and a one-level chain:
    (chain, whether its support is a proper subset of its domain)."""
    sl32 = classical_generators("SL", 3, 2)
    stab_v = stabilizer_subgroup("vector", 3, 2)
    stab_af = stabilizer_subgroup("antiflag", 3, 2)
    antiflag = StabChain.build(shared_domain(ANTIFLAG, stab_af.spec, 3), stab_af.generators, order=6, bound=6)
    sl42 = classical_generators("SL", 4, 2).chain()
    rng = np.random.default_rng(5)
    five = next(t for t in (sl42.random_element(rng) for _ in range(200)) if element_order_perm(t.perm) == 5)
    return {
        "vector": (stab_v.chain(), True),
        "projective": (_stabilizer_cases()[1][0].chain(), False),
        "pair": (_stabilizer_cases()[2][0].chain(), False),
        "antiflag": (antiflag, True),
        "trivial": (StabChain.build(shared_domain(VECTOR, sl32.spec, 3), [], order=1, bound=1), True),
        "one-level": (StabChain.build(sl42.domain, [five], order=5), True),
    }


@pytest.mark.parametrize("case", ["vector", "projective", "pair", "antiflag", "trivial", "one-level"])
def test_word_orders_on_the_support_match_the_domain(case, monkeypatch):
    chain, proper = _support_cases()[case]
    if case in ("trivial", "one-level"):
        assert len(chain.levels) == ("trivial", "one-level").index(case)
    perms = np.stack([t.perm for t in chain_elements(chain)])
    want = [element_order_perm(p) for p in perms]
    support = chain.support()
    # Δ is the union of the base points' orbits, read off every element
    orbits = set(perms[:, [lv.base for lv in chain.levels]].ravel().tolist())
    assert support.points.tolist() == sorted(orbits)
    assert (len(support.points) < chain.domain.size) == proper
    assert support.points[support.base].tolist() == [lv.base for lv in chain.levels]
    assert [len(T) for T in support.stacks] == [len(lv.orbit) for lv in reversed(chain.levels)]
    # each word's order, in chunks of any size, is its element's order on the domain
    for entries in (7, grpcore.BLOCK_ENTRIES):
        monkeypatch.setattr(grpcore, "BLOCK_ENTRIES", entries)
        got = np.concatenate([support.orders(words) for words in chain.words()])
        assert got.tolist() == want
    assert sporadic.exact_spectrum(chain) == frozenset(want)
    # the permutation blocks materialize the same words, so their rows line up
    assert [element_order_perm(p) for p in np.concatenate(list(chain.element_perm_blocks()))] == want


@pytest.mark.parametrize("case", ["vector", "projective", "antiflag"])
def test_orders_of_products_walk_one_word_then_the_other(case):
    chain = _support_cases()[case][0]
    perms = np.stack([t.perm for t in chain_elements(chain)])
    words = np.concatenate(list(chain.words()), axis=1)
    support = chain.support()
    for i in (0, 1, len(perms) // 2, len(perms) - 1):
        # a row applies a, then b
        want = [element_order_perm(p) for p in perms[:, perms[i]]]
        assert support.orders(words[:, i:i + 1], words).tolist() == want


def _semilinear_gens():
    """SL_2(4) generators with the Frobenius-and-duality automorphism, on pairs."""
    G = classical_generators("SL", 2, 4)
    gens = list(G.generators) + [automorphism_element("phi_gamma", 2, 4), automorphism_element("phi", 2, 4)]
    assert any(g.dual for g in gens) and any(g.fa for g in gens)
    return gens, shared_domain(PAIR, G.spec, 2)


@pytest.mark.parametrize("q, outer", [(3, None), (5, None), (4, "phi"), (9, "phi")])
def test_matrix_read_off_a_vector_permutation_matches_eager_composition(q, outer):
    # long words over a prime field, and over GF(4) and GF(9) with the
    # Frobenius automorphism; a vector domain carries no duality
    G = classical_generators("SL", 3, q)
    gens = list(G.generators) + ([automorphism_element(outer, 3, q)] if outer else [])
    dom = shared_domain(VECTOR, G.spec, 3)
    tracked = [Tracked(dom.perm_of(g), g) for g in gens]
    rng = np.random.default_rng(11)
    word = rng.integers(len(gens), size=3000)
    left = right = tracked[word[0]]
    eager_left = eager_right = gens[word[0]]
    exponents = set()
    for k, gi in enumerate(word[1:], 1):
        left = t_compose(left, tracked[gi])
        right = t_compose(tracked[gi], right)
        eager_left = sl_compose(eager_left, gens[gi])
        eager_right = sl_compose(gens[gi], eager_right)
        if k % 300 == 0:
            for t, eager in ((left, eager_left), (right, eager_right), (left.inverse(), sl_inverse(eager_left))):
                read = t.matrix(dom)
                assert t.elem is None and read == eager
                assert np.array_equal(dom.perm_of(read), t.perm)
                exponents.add(read.fa)
    assert exponents == ({0, 1} if outer else {0})
    assert np.array_equal(left.inverse().inverse().perm, left.perm)


@pytest.mark.parametrize("tag", [PROJECTIVE, ANTIFLAG, PAIR, FUNCTIONAL])
def test_no_matrix_is_read_off_other_kinds(tag):
    G = classical_generators("SL", 2, 4)
    dom = shared_domain(tag, G.spec, 2)
    g = G.generators[0]
    perm = dom.perm_of(g)
    with pytest.raises(ActionError):
        dom.element_of(perm)
    with pytest.raises(ActionError):
        Tracked(perm).matrix(dom)
    assert Tracked(perm, g).matrix(dom) is g


def test_duality_is_read_off_duality_domain_permutations():
    # products of SL_2(4) generators, phi_gamma and phi on V - 0 and V* - 0:
    # the element read off a product's permutation, its duality bit
    # included, is the eagerly composed one
    gens, _ = _semilinear_gens()
    spec = gens[0].spec
    dom = shared_domain(DUALITY, spec, 2)
    tracked = [Tracked(dom.perm_of(g), g) for g in gens]
    rng = np.random.default_rng(5)
    duals = set()
    for _ in range(50):
        word = rng.integers(len(gens), size=int(rng.integers(1, 8))).tolist()
        t = reduce(t_compose, [tracked[i] for i in word])
        read = Tracked(t.perm).matrix(dom)
        assert read == reduce(sl_compose, [gens[i] for i in word])
        assert np.array_equal(dom.perm_of(read), t.perm)
        duals.add(read.dual)
    assert duals == {0, 1}
    # a spec with a duality generator makes its home there
    assert GroupSpec("all", 2, spec, gens).action_tag == DUALITY
    assert GroupSpec("linear", 2, spec, [g for g in gens if not g.dual]).action_tag == VECTOR


def test_inverse_does_not_keep_its_element_alive():
    gens, dom = _semilinear_gens()
    g = gens[-2]
    perm = dom.perm_of(g)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = Tracked(perm.copy(), g)
        inv = t.inverse()
        ref = weakref.ref(t)
        del t
        assert ref() is None
        back = inv.inverse()
        assert np.array_equal(back.perm, perm)
        assert back.elem is None  # built afresh from the permutation
    finally:
        if enabled:
            gc.enable()


def _queue_bfs(gens, point, action):
    """Scalar reference: queue BFS trying the generators in order at each
    point, by sl_apply, which normalizes projective and antiflag images
    (canonical_point); the keys in BFS order, and each key's (generator,
    parent key)."""
    found = {action.point_key(point): None}
    queue = [point]
    for x in queue:
        key = action.point_key(x)
        for gi, g in enumerate(gens):
            y = sl_apply(g, x)
            img = action.point_key(y)
            if img not in found:
                found[img] = (gi, key)
                queue.append(y)
    return [action.point_key(x) for x in queue], found


def _schreier_orbit_reference(perms, base, size):
    """A frontier BFS with a seen mask, one generator at a time: the orbit
    order, mask and Schreier vector that schreier_orbit must return."""
    seen = np.zeros(size, dtype=bool)
    par = np.full(size, -1, dtype=np.int32)
    seen[base] = True
    frontier = np.array([base], dtype=np.int64)
    chunks = [frontier]
    while frontier.size:
        parts = []
        for gi, perm in enumerate(perms):
            imgs = perm[frontier]
            new = np.sort(imgs[~seen[imgs]])
            if new.size:
                seen[new] = True
                par[new] = gi
                parts.append(new)
        frontier = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        if frontier.size:
            chunks.append(frontier)
    return np.concatenate(chunks), seen, par


def _assert_schreier_orbit_matches_reference(perms, base, size):
    got = schreier_orbit(perms, base, size)
    want = _schreier_orbit_reference(perms, base, size)
    assert [a.dtype for a in got] == [np.dtype(np.int64), np.dtype(bool), np.dtype(np.int32)]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@st.composite
def _perm_sets(draw):
    # every generator permutes [0, split) and [split, size) separately, so
    # the orbit of base is often a proper part of the domain
    size = draw(st.integers(1, 40))
    split = draw(st.integers(0, size))

    def perm():
        low = draw(st.permutations(range(split)))
        high = draw(st.permutations(range(split, size)))
        return np.array(low + high, dtype=np.int64)

    perms = [perm() for _ in range(draw(st.integers(0, 5)))]
    if perms and draw(st.booleans()):
        perms.insert(draw(st.integers(0, len(perms))), perms[draw(st.integers(0, len(perms) - 1))])
    if draw(st.booleans()):
        perms.insert(draw(st.integers(0, len(perms))), np.arange(size, dtype=np.int64))
    return perms, draw(st.integers(0, size - 1)), size


@settings(max_examples=300, deadline=None)
@given(_perm_sets())
def test_schreier_orbit_matches_reference_on_random_generators(case):
    _assert_schreier_orbit_matches_reference(*case)


@pytest.mark.parametrize("perms, base, size", [
    ([], 3, 8),  # no generators
    ([np.array([0])], 0, 1),  # one-point domain
    ([], 0, 1),
    ([np.array([1, 2, 0, 3, 4]), np.array([2, 0, 1, 3, 4])], 4, 5),  # every generator fixes base
    ([np.array([1, 0, 2, 4, 3]), np.arange(5), np.array([1, 0, 2, 4, 3])], 3, 5),  # repeated and identity
    ([np.array([1, 2, 3, 4, 5, 0])], 2, 6),  # one generator
], ids=["k0", "one-point", "one-point-k0", "fixed-base", "repeated-identity", "k1"])
def test_schreier_orbit_matches_reference_on_edge_cases(perms, base, size):
    _assert_schreier_orbit_matches_reference(perms, base, size)


def _orbit_cases():
    sl33 = classical_generators("SL", 3, 3).generators
    sl34 = classical_generators("SL", 3, 4).generators
    sl32 = classical_generators("SL", 3, 2).generators
    sl29 = classical_generators("SL", 2, 9).generators
    F3, F4, F2, F9 = gf.make_field(3, 1), gf.make_field(2, 2), gf.make_field(2, 1), gf.make_field(3, 2)
    # SL_2(3) on the first two coordinates of GF(3)^3, the one intransitive
    # case: the orbit of e1 is the 8 nonzero vectors of that plane, and the
    # 18 vectors off it are real points outside the orbit
    plane = [GroupElement(Mat(F3, np.block([[g.mat.a, np.zeros((2, 1), dtype=np.int64)], [0, 0, 1]])))
             for g in classical_generators("SL", 2, 3).generators]
    return [
        ("vector", sl33, canonical_point(VECTOR, (0, 1, 2))),
        ("vector-intransitive", plane, canonical_point(VECTOR, (1, 0, 0))),
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
        ("pair-duality-frobenius", sl34 + [automorphism_element("phi_gamma", 3, 4)],
         canonical_point(PAIR, (1, 0, 0), (1, 0, 0), spec=F4)),
    ]


@pytest.mark.parametrize("case", _orbit_cases(), ids=lambda c: c[0])
def test_orbit_with_transporters_matches_queue_bfs(case):
    name, gens, point = case
    spec, n = gens[0].spec, gens[0].n
    action = Action(point.tag, spec, n)
    queue, found = _queue_bfs(gens, point, action)
    orb = orbit_with_transporters(GroupSpec("case", n, spec, gens), point)
    assert orb.size == len(queue) > 1
    assert sorted(orb.domain.keys[orb.orbit].tolist()) == sorted(queue)
    assert int(orb.orbit[0]) == orb.domain.index_of_point(point)
    assert (orb.par[orb.orbit[1:]] >= 0).all() and orb.par[orb.orbit[0]] == -1
    for x in map(int, orb.orbit):
        assert _walk_to_seed(orb, x) == int(orb.orbit[0])
    # the real points of the kind off the orbit: those of the one
    # intransitive case
    outside = [key for key in orb.domain.keys.tolist() if key not in found]
    assert bool(outside) == name.endswith("intransitive")
    # the domain route, for a spec that holds permutations of the domain
    held = GroupSpec("held", n, spec, grpcore.TrackedGenerators([Tracked(p, g) for p, g in zip(orb.perms, gens)],
                                                                  orb.domain))
    routes = [orbit(held, point)]
    assert routes[0].domain is orb.domain
    if point.tag in (PROJECTIVE, ANTIFLAG):
        # these points are acted on only through their domain, which the
        # spec's orbit takes
        with pytest.raises(ActionError, match="enumerated domain"):
            orbit(gens, point)
        routes.append(orbit(GroupSpec("case", n, spec, gens), point))
        assert routes[1].domain is orb.domain
    else:
        routes.append(orbit(gens, point))
        assert routes[1].domain is None
    for got in routes:
        assert got.size == len(queue)
        assert all(orbit_contains_key(got, key) for key in queue)
        assert not any(orbit_contains_key(got, key) for key in outside)


@pytest.mark.parametrize("case", _orbit_cases(), ids=lambda c: c[0])
def test_scanned_orbit_levels_in_small_blocks_match_queue_bfs(case, monkeypatch):
    # the first level goes to the sweep, which walks the keyspace in blocks
    # of 8 and of 16 keys, on one worker and on two; the keyspaces of 27,
    # 729 and 6561 keys end inside a byte of the packed done mask.  A
    # projective or antiflag case sweeps the vector or pair keyspace beneath
    # it, which its domain permutes through
    monkeypatch.setattr(grpcore, "_SCAN_SHARE", 10**12)
    _, gens, point = case
    point = ActionPoint({PROJECTIVE: VECTOR, ANTIFLAG: PAIR}.get(point.tag, point.tag), point.data)
    action = Action(point.tag, gens[0].spec, gens[0].n)
    queue, _ = _queue_bfs(gens, point, action)
    applied = []
    _hook_block_images(monkeypatch, lambda gens, offsets, base: applied.append(np.tile(offsets + base, len(gens))))
    for workers in (1, 2):
        # two workers on the linear kinds by the rule itself, with its
        # threshold lowered; on the digit path by fiat
        monkeypatch.setattr(grpcore, "_PARALLEL_KEYS", 1)
        monkeypatch.setattr(grpcore.os, "sched_getaffinity", lambda pid: set(range(workers)))
        if not action.linear:
            monkeypatch.setattr(grpcore, "_sweep_workers", lambda action, keyspace: workers)
        assert grpcore._sweep_workers(action, action.q**action.width) == workers
        for bits in (3, 4):
            _orbit_actions(monkeypatch, block_bits=bits)
            applied.clear()
            orb = orbit(gens, point)
            assert orb.size == len(queue) > 3
            assert all(orbit_contains_key(orb, key) for key in queue)
            assert int(orb.seen.sum()) == len(queue)
            # every orbit key is applied once per generator
            keys, counts = np.unique(np.concatenate(applied), return_counts=True)
            assert keys.tolist() == sorted(queue)
            assert (counts == len(gens)).all()


def test_orbit_budget_error_inside_a_sweep(monkeypatch):
    monkeypatch.setattr(grpcore, "_SCAN_SHARE", 10**12)
    sweeps = []
    real = grpcore._sweep_closure
    monkeypatch.setattr(grpcore, "_sweep_closure", lambda *args: sweeps.append(1) or real(*args))
    G = classical_generators("SL", 4, 2)
    with pytest.raises(grpcore.OrbitBudgetError, match="exceeded 4 points") as exc:
        orbit(G, canonical_point(VECTOR, (1, 0, 0, 0)), max_points=4)
    assert sweeps == [1] and 4 < exc.value.partial_size <= 15


def test_keyspace_sweep_runs_beside_nothing_but_its_masks(monkeypatch):
    # SL_21(2) on the 2^21 vector keys leaves the BFS at a level of about
    # 16,500 keys; that level and its filtered parts (0.25 MiB of int64)
    # must be gone before the sweep starts, which runs on two workers
    monkeypatch.setattr(grpcore.os, "sched_getaffinity", lambda pid: {0, 1})
    n, keyspace = 21, 1 << 21
    gens = sl_generators(gf.make_field(2, 1), n)
    sweeps = []
    real = grpcore._sweep_closure
    monkeypatch.setattr(grpcore, "_sweep_closure", lambda *args: sweeps.append(1) or real(*args))
    built = _orbit_actions(monkeypatch)
    tracemalloc.start()
    try:
        size = orbit(gens, canonical_point(VECTOR, (1,) + (0,) * (n - 1))).size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (size, sweeps) == (keyspace - 1, [1])
    action, = built
    assert grpcore._sweep_workers(action, keyspace) == 2
    masks = keyspace * 9 // 8  # the seen mask and the packed done mask
    tables = sum(tab.nbytes for tabs in action._chunk_cache.values() for _, _, tab in tabs)
    # the sweep's stacked images of a block's offsets and of the block starts
    tables += len(gens) * ((1 << action.block_bits) + (keyspace >> action.block_bits)) * 8
    # each worker's block scratch: every generator's images of a block's
    # keys as int64, and one snapshot of the block's seen bytes
    block = 1 << action.block_bits
    worker_scratch = len(gens) * 8 * block + block
    assert peak <= masks + tables + 2 * worker_scratch


def _sl10_pair_orbit_case():
    """SL_10(2) on the 2^20 pair keys of GF(2)^10, whose orbit is all
    523,776 pairs (v, w) with w(v) = 1: a keyspace just at _PARALLEL_KEYS."""
    n = 10
    F2 = gf.make_field(2, 1)
    e1 = (1,) + (0,) * (n - 1)
    return sl_generators(F2, n), canonical_point(PAIR, e1, e1, spec=F2)


def test_two_sweep_workers_close_a_big_linear_orbit_as_one_does(monkeypatch):
    gens, point = _sl10_pair_orbit_case()
    used = []
    real = grpcore._sweep_workers
    monkeypatch.setattr(grpcore, "_sweep_workers", lambda *args: used.append(real(*args)) or used[-1])
    monkeypatch.setattr(grpcore.os, "sched_getaffinity", lambda pid: {0, 1})
    two = orbit(gens, point)
    monkeypatch.setattr(grpcore.os, "sched_getaffinity", lambda pid: {0})
    one = orbit(gens, point)
    assert used == [2, 1]
    assert two.size == one.size == (2**10 - 1) * 2**9
    assert np.array_equal(two.seen, one.seen)


def test_sweep_spans_close_a_reducible_orbit_on_two_workers_as_on_one(monkeypatch):
    # SL_10(2) x SL_10(2) on the 2^20 vector keys of GF(2)^20: the orbit of
    # e1 + e11 is the (2^10 - 1)^2 vectors with both halves nonzero.  The
    # workers take spans from one shared iterator per pass; on two, as on
    # one, the sweep applies each key it reaches once
    F2, half = gf.make_field(2, 1), 10
    gens = []
    for g in sl_generators(F2, half):
        for lo in (0, half):
            m = np.eye(2 * half, dtype=np.int64)
            m[lo:lo + half, lo:lo + half] = g.mat.a
            gens.append(GroupElement(Mat(F2, m)))
    point = canonical_point(VECTOR, (1,) + (0,) * (half - 1) + (1,) + (0,) * (half - 1))
    applied = []
    _hook_block_images(monkeypatch, lambda gens, offsets, base: applied.append(offsets + base))
    orbits = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(grpcore.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        action = Action(VECTOR, F2, 2 * half)
        assert grpcore._sweep_workers(action, 1 << 20) == len(cpus)
        applied.clear()
        orbits.append(orbit(gens, point))
        assert orbits[-1].size == (2**half - 1) ** 2
        # a block's keys are applied under every generator at once, and the
        # sweep applies every orbit key, those of the BFS levels included
        keys, counts = np.unique(np.concatenate(applied), return_counts=True)
        assert len(keys) == orbits[-1].size and (counts == 1).all()
    assert np.array_equal(orbits[0].seen, orbits[1].seen)


def test_sweep_stress_on_more_workers_than_cores(monkeypatch):
    # four workers on blocks of 128 of the 2^16 pair keys of GF(2)^8,
    # switching threads every microsecond: a key marked done but never
    # applied would leave the orbit of all 32,640 pairs short (a worker
    # that re-read seen for its done bits did so in most runs)
    monkeypatch.setattr(grpcore, "_sweep_workers", lambda action, keyspace: 4)
    n = 8
    F2 = gf.make_field(2, 1)
    e1 = (1,) + (0,) * (n - 1)
    gens, point = sl_generators(F2, n), canonical_point(PAIR, e1, e1, spec=F2)
    threads = _worker_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    _orbit_actions(monkeypatch, block_bits=7)
    try:
        for _ in range(10):
            orb = orbit(gens, point)
            assert orb.size == int(orb.seen.sum()) == (2**n - 1) * 2 ** (n - 1)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) > 1


def test_sweep_worker_rule(monkeypatch):
    F2, F4 = gf.make_field(2, 1), gf.make_field(2, 2)
    linear, digits = Action(PAIR, F2, 10), Action(PROJECTIVE, F4, 12)
    big = grpcore._PARALLEL_KEYS
    assert big == 1 << 20 and grpcore._SWEEP_WORKERS == 2
    for cpus, want in (({0}, 1), ({0, 1}, 2), (set(range(8)), 2)):
        monkeypatch.setattr(grpcore.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert grpcore._sweep_workers(linear, big) == want
        assert grpcore._sweep_workers(linear, big - 1) == 1
        assert grpcore._sweep_workers(digits, 4**12) == 1


def _orbit_actions(monkeypatch, **attrs) -> list:
    """Record, for the rest of the test, each action that an orbit builds
    for its keyspace, with attrs set on it."""
    built = []

    def action(*args):
        built.append(Action(*args))
        vars(built[-1]).update(attrs)
        return built[-1]

    monkeypatch.setattr(grpcore, "Action", action)
    return built


def _hook_block_images(monkeypatch, hook):
    """Call hook(gens, offsets, base), for the rest of the test, before a
    sweep applies each block (``grpcore._block_images``)."""
    real = grpcore._block_images

    def built(action, gens):
        images = real(action, gens)
        return lambda offsets, base: hook(gens, offsets, base) or images(offsets, base)

    monkeypatch.setattr(grpcore, "_block_images", built)


def _worker_threads(monkeypatch) -> set:
    """Record, for the rest of the test, each thread other than the main
    one that applies a sweep's block."""
    threads = set()

    def recording(gens, offsets, base):
        if threading.current_thread() is not threading.main_thread():
            threads.add(threading.current_thread())

    _hook_block_images(monkeypatch, recording)
    return threads


def test_sweep_worker_threads_end_with_the_orbit(monkeypatch):
    # a fork pool (verify --jobs) must never fork a live thread pool
    monkeypatch.setattr(grpcore.os, "sched_getaffinity", lambda pid: {0, 1})
    gens, point = _sl10_pair_orbit_case()
    threads = _worker_threads(monkeypatch)
    before = threading.active_count()
    assert orbit(gens, point).size == (2**10 - 1) * 2**9
    assert len(threads) == 2
    assert threading.active_count() == before
    assert not any(t.is_alive() for t in threads)


def test_an_error_in_a_sweep_worker_leaves_the_orbit(monkeypatch):
    monkeypatch.setattr(grpcore.os, "sched_getaffinity", lambda pid: {0, 1})
    gens, point = _sl10_pair_orbit_case()

    def failing(gens, offsets, base):
        if base >= 1 << 19:  # in the second worker's range only
            raise RuntimeError("worker failed")

    _hook_block_images(monkeypatch, failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        orbit(gens, point)
    assert threading.active_count() == before


def test_sweep_worker_threads_call_no_traced_function(monkeypatch):
    # the benchmark's tracer keeps one span stack, which is not
    # thread-safe: only the main thread may call what it wraps
    off_main = []

    def wrap(real, name):
        def traced(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return real(*args, **kwargs)
        return traced

    modules = [importlib.import_module(f"grpfact.{info.name}") for info in pkgutil.iter_modules(grpfact.__path__)]
    for module_name, attr, name, _ in tracing_targets():
        owner = importlib.import_module(f"grpfact.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            monkeypatch.setattr(cls, meth, wrap(vars(cls)[meth], name))
        else:
            real = getattr(owner, attr)
            for holder in modules:
                if getattr(holder, attr, None) is real:
                    monkeypatch.setattr(holder, attr, wrap(real, name))
    monkeypatch.setattr(grpcore.os, "sched_getaffinity", lambda pid: {0, 1})
    gens, point = _sl10_pair_orbit_case()
    threads = _worker_threads(monkeypatch)
    assert grpcore.orbit(gens, point).size == (2**10 - 1) * 2**9
    assert len(threads) == 2 and off_main == []


def test_orbit_budget_stops_a_one_point_level(monkeypatch):
    # one generator, g = a * b of SL_10(2), takes e1 round a cycle of 889
    # of the 1,024 vector keys, one point a level: no level nears
    # keyspace/_SCAN_SHARE, so only the per-level check can stop it.  48
    # points is the least budget that prices in the 1,152 bytes of masks
    sweeps = []
    real = grpcore._sweep_closure
    monkeypatch.setattr(grpcore, "_sweep_closure", lambda *args: sweeps.append(1) or real(*args))
    gens = [sl_compose(*classical_generators("SL", 10, 2).generators)]
    e1 = canonical_point(VECTOR, (1,) + (0,) * 9)
    assert orbit(gens, e1).size == 889
    with pytest.raises(grpcore.OrbitBudgetError, match="need 1152 bytes"):
        orbit(gens, e1, max_points=47)
    with pytest.raises(grpcore.OrbitBudgetError) as exc:
        orbit(gens, e1, max_points=48)
    assert str(exc.value) == "orbit exceeded 48 points" and exc.value.partial_size == 49
    assert sweeps == []


def test_orbit_prices_the_dense_masks_before_allocating():
    # 16 + 2 bytes of masks over the 16 vector keys of GF(2)^4; a budget
    # of 24 bytes a point holds them at one point but not at none
    G = classical_generators("SL", 4, 2)
    point = canonical_point(VECTOR, (1, 0, 0, 0))
    with pytest.raises(grpcore.OrbitBudgetError, match="need 18 bytes"):
        orbit(G, point, max_points=0)
    with pytest.raises(grpcore.OrbitBudgetError, match="exceeded 1 points"):
        orbit(G, point, max_points=1)


@pytest.mark.parametrize("n, q, tag, size", [
    (4, 2, VECTOR, 15),
    (4, 2, PAIR, 120),
    (2, 243, VECTOR, 59048),  # the largest odd table field, on its digit path
])
def test_orbit_of_e1_under_sl(n, q, tag, size):
    G = classical_generators("SL", n, q)
    e1 = tuple(int(i == 0) for i in range(n))
    point = canonical_point(tag, e1, e1 if tag == PAIR else None, spec=G.spec)
    assert orbit(G, point).size == size


def test_orbit_refuses_masks_past_the_budget_before_allocating():
    # a 16 MB budget prices 699,050 points; the masks over the 2^26 pair
    # keys of GF(2)^13 need 72 MiB, so the orbit stops before it allocates them
    G = classical_generators("SL", 13, 2)
    e1 = tuple(int(i == 0) for i in range(13))
    point = canonical_point(PAIR, e1, e1, spec=G.spec)
    tracemalloc.start()
    try:
        with pytest.raises(grpcore.OrbitBudgetError):
            orbit(G, point, max_points=grpcore.budget_points(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_orbit_of_tracked_spec_composes_no_matrix(monkeypatch):
    G = classical_generators("SL", 3, 3)
    K = stabilizer_generators(G, canonical_point(VECTOR, (1, 0, 0)))
    assert isinstance(K.generators, grpcore.TrackedGenerators)
    point = canonical_point(VECTOR, (0, 1, 0))
    calls = count_matrix_ops(monkeypatch)
    # both orbits take the shared domain's indices, with no transporters
    transporter_orbits = []
    real = grpcore.orbit_with_transporters
    monkeypatch.setattr(grpcore, "orbit_with_transporters",
                        lambda *args: transporter_orbits.append(args) or real(*args))
    orb = orbit(K, point)
    assert calls == [] and transporter_orbits == []
    gens = list(K.generators)
    queue, found = _queue_bfs(gens, point, Action(VECTOR, G.spec, 3))
    assert orb.size == len(queue) == 24  # the vectors off <e1>
    assert all(orbit_contains_key(orb, key) for key in queue)
    assert not orbit_contains_key(orb, next(k for k in range(1, 27) if k not in found))
    with pytest.raises(grpcore.OrbitBudgetError):
        orbit(K, point, max_points=23)
    # a projective point is closed on its shared domain, under permutations
    # of the matrices read off the vector domain
    proj = canonical_point(PROJECTIVE, (0, 1, 0), spec=G.spec)
    orb = orbit(K, proj)
    assert orb.domain is shared_domain(PROJECTIVE, G.spec, 3)
    assert orb.size == len(_queue_bfs(gens, proj, Action(PROJECTIVE, G.spec, 3))[0]) == 12
    assert calls == [] and transporter_orbits == []


def test_contains_key_on_2_28_key_pair_orbit():
    # the pair keyspace of GF(2)^14 has 2^28 keys: its masks, 302 MB priced
    # inside the default budget, are allocated zeroed, and a small orbit
    # writes only the pages its keys fall in
    G = classical_generators("SL", 14, 2)
    F2 = gf.make_field(2, 1)
    e1 = (1,) + (0,) * 13
    omega = canonical_point(PAIR, e1, e1, spec=F2)
    action = Action(PAIR, F2, 14)
    gens = G.generators[1:2]
    orb = orbit(gens, omega)
    assert orb.seen.size == 1 << 28 and orb.domain is None
    queue, found = _queue_bfs(gens, omega, action)
    assert orb.size == len(queue) > 1
    assert all(orbit_contains_key(orb, key) for key in queue)
    # a real pair off the orbit, (e1, e1 + e2), with w(v) = 1: the
    # generator moves (e1, e1) through the pairs (e_i, e_i)
    outside = action.point_key(canonical_point(PAIR, e1, (1, 1) + (0,) * 12, spec=F2))
    assert outside not in found and not orbit_contains_key(orb, outside)
    seed = action.point_key(omega)
    assert orbit_contains_key(orb, seed)
    assert orbit_contains_key(orb, int(action.apply_batch(sl_inverse(gens[0]), np.array([seed]))[0]))


@pytest.fixture(scope="module")
def ordered_setups():
    """t1r05-m2's and t1r07-m2's set-ups with H, whose generators are
    matrices, moved from V - 0 and V* - 0 to the pair domain, where its
    certified chain is built."""
    catalog = load_catalog()
    out = {}
    for claim_id in ("t1r05-m2", "t1r07-m2"):
        claim = catalog.claim_by_id(claim_id)
        rng = np.random.default_rng(factorize.claim_seed(claim_id, 20260810))
        setup = factorize.build_setup(claim, rng)
        setup.H = dataclasses.replace(setup.H, action_tag=PAIR)
        setup.H.order()
        out[claim_id] = claim, setup, rng
    return out


@pytest.mark.parametrize("claim_id", ["t1r05-m2", "t1r07-m2"])
def test_orbit_on_a_certified_chain_matches_the_keyspace_orbit(ordered_setups, claim_id):
    _, setup, _ = ordered_setups[claim_id]
    H = setup.H
    domain = H._chain.domain
    assert not isinstance(H.generators, grpcore.TrackedGenerators) and domain.action.tag == PAIR
    # H is transitive on the pair domain; a point stabilizer given by its
    # matrices, with its chain, has domain points off its orbits
    stab = stabilizer_generators(H, setup.orbit_seed)
    S = GroupSpec("S", H.n, H.spec, list(stab.generators), action_tag=PAIR, _chain=stab._chain)
    not_a_point = 1  # v = e1, w = 0, so w(v) = 0
    for group, seed in ((H, setup.orbit_seed), (S, domain_point(domain, domain.size - 1))):
        on_chain = orbit(group, seed)
        plain = orbit(list(group.generators), seed)
        assert on_chain.domain is domain and plain.domain is None
        assert on_chain.size == plain.size == int(plain.seen[domain.keys].sum())
        inside = domain.keys[plain.seen[domain.keys]].tolist()
        outside = domain.keys[~plain.seen[domain.keys]].tolist()
        assert all(orbit_contains_key(on_chain, key) for key in inside[:: max(1, len(inside) // 200)])
        assert not any(orbit_contains_key(on_chain, key) for key in outside[:: max(1, len(outside) // 200)])
        assert not orbit_contains_key(on_chain, not_a_point) and not orbit_contains_key(plain, not_a_point)
    assert outside  # the stabilizer's orbit leaves domain points out


def test_orbit_on_a_certified_chain_holds_no_keyspace_tables(ordered_setups):
    # t1r07-m2's H has its chain on the 16,320 pair points; a keyspace
    # orbit builds a 2^14-entry int64 XOR table per generator (0.92 MiB)
    claim, setup, rng = ordered_setups["t1r07-m2"]
    tracemalloc.start()
    try:
        res = factorize._run_orbit(claim, setup, rng, 2**24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.verdict == "pass" and res.orbit_sizes == [16320]
    assert peak < 0.5 * 2**20


def test_perm_of_on_the_digit_path_keeps_narrow_scratch(ordered_setups):
    # a K generator of t1r07-m2 on the 5,440 antiflags of GF(4)^4; int64
    # digit arrays peak at 1.81 MiB there
    _, setup, _ = ordered_setups["t1r07-m2"]
    g = setup.K.generators[0]
    domain = shared_domain(ANTIFLAG, setup.K.spec, 4)
    want = domain.perm_of(g)
    tracemalloc.start()
    try:
        perm = domain.perm_of(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert perm.dtype == np.int64 and np.array_equal(perm, want)
    assert peak < 0.75 * 2**20


def test_orbit_keeps_no_keys():
    with pytest.raises(ValueError):
        orbit(classical_generators("SL", 3, 2).generators, canonical_point(VECTOR, (1, 0, 0)), keep_keys=True)


def test_orbit_takes_its_budget_by_keyword_only():
    # the budget is keyword-only, so a stray third positional argument fails loudly
    gens = classical_generators("SL", 3, 2).generators
    with pytest.raises(TypeError):
        orbit(gens, canonical_point(VECTOR, (1, 0, 0)), 4)
    assert orbit(gens, canonical_point(VECTOR, (1, 0, 0)), max_points=7).size == 7


def test_orbit_with_transporters_budget():
    # the pair domain of GF(2)^10 has 1023 * 512 = 523,776 points
    G = classical_generators("SL", 10, 2)
    e1 = (1,) + (0,) * 9
    with pytest.raises(ActionError, match="200000 limit"):
        orbit_with_transporters(G, canonical_point(PAIR, e1, e1, spec=G.spec))


def test_with_name_keeps_stabilizer_stages_and_chain():
    K = stabilizer_subgroup("vector", 3, 2)
    chain = K.chain()
    renamed = K.with_name("renamed")
    assert renamed.name == "renamed"
    assert renamed.stabilizer_of == K.stabilizer_of is not None
    assert renamed._chain is chain
    assert renamed.order() == K.order()


# ---------------------------------------------------------------------------
# point stabilizers as relabeled suffixes of certified chains


def _stabilizer_cases():
    """(group, point kind) on vector, projective, pair and duality home
    domains; the last two are one group with a duality generator."""
    sl42 = classical_generators("SL", 4, 2)
    sl33 = classical_generators("SL", 3, 3)
    psl33 = GroupSpec("PSL_3(3)", 3, sl33.spec, sl33.generators, claimed_order=5616, action_tag=PROJECTIVE)
    gamma_l24 = psi_extension(ext_subgroup("SL", 2, 2, 2), "psi_gamma")
    return [(sl42, VECTOR), (psl33, PROJECTIVE), (dataclasses.replace(gamma_l24, action_tag=PAIR), PAIR),
            (gamma_l24, DUALITY)]


def _points_of_first_orbit(chain):
    """b0 and the point of the first basic orbit that the Schreier vector
    reaches last, so that its transversal element is a long word."""
    return chain.levels[0].base, int(chain.levels[0].orbit[-1])


@pytest.fixture
def based_builds(monkeypatch):
    """The first base point of each chain built with one, for the rest of
    the test."""
    bases = []
    real = StabChain.build.__func__

    def spy(cls, *args, **kwargs):
        if kwargs.get("base") is not None:
            bases.append(kwargs["base"])
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(StabChain, "build", classmethod(spy))
    return bases


def _elements(S):
    """S's elements as the bytes of their permutations of its chain's domain."""
    return {perm.tobytes() for block in S.chain().element_perm_blocks() for perm in block}


@pytest.mark.parametrize("case", range(4), ids=["vector", "projective", "pair", "duality"])
def test_suffix_stabilizer_matches_the_schreier_loop(case, based_builds):
    # the reference is the stabilizer by enumeration (oracles.brute_stabilizer)
    G, tag = _stabilizer_cases()[case]
    gchain = G.chain()
    dom = gchain.domain
    assert dom.action.tag == tag
    for x in _points_of_first_orbit(gchain):
        pt = domain_point(dom, x)
        S = stabilizer_generators(G, pt)
        assert not based_builds, "a first-orbit point took a based build"
        assert S.order() == gchain.order() // len(gchain.levels[0].orbit)
        assert S.chain().verified and S.chain().domain is dom
        for t in S.generators.tracked:
            if tag == VECTOR:
                assert np.array_equal(dom.perm_of(t.matrix(dom)), t.perm)
        assert _elements(S) == brute_stabilizer(G, pt)


def test_off_domain_and_outside_first_orbit_points_take_a_based_build(based_builds):
    G = classical_generators("SL", 4, 2)
    functional = ActionPoint(FUNCTIONAL, (1, 0, 0, 0))
    S = stabilizer_generators(G, functional)
    fdom = G.point_domain(functional)
    assert based_builds == [fdom.index_of_point(functional)] and S.chain().domain is fdom
    assert S.order() == 20160 // 15
    assert _elements(S) == brute_stabilizer(G, functional)
    # the antiflag stabilizer SL_3(2) fixes e1, and moves the other 14
    # vectors in two orbits of 7; its chain's first basic orbit is one of them
    K = stabilizer_subgroup("antiflag", 4, 2)
    kchain = K.chain()
    e1 = kchain.domain.index_of_point(ActionPoint(VECTOR, (1, 0, 0, 0)))
    other = next(i for i in range(kchain.domain.size) if not kchain.levels[0].seen[i] and i != e1)
    pt = domain_point(kchain.domain, other)
    based_builds.clear()
    S = stabilizer_generators(K, pt)
    assert based_builds == [other]
    assert S.order() * orbit(K, pt).size == K.order()
    assert _elements(S) == brute_stabilizer(K, pt)


def test_a_point_the_group_fixes_has_a_one_point_first_level():
    K = stabilizer_subgroup("antiflag", 4, 2)
    e1 = ActionPoint(VECTOR, (1, 0, 0, 0))
    x = K.chain().domain.index_of_point(e1)
    assert not K.chain().levels[0].seen[x]
    chain, u = point_chain(K, e1)
    assert chain.levels[0].base == x and chain.levels[0].orbit.tolist() == [x] and u.is_identity()
    S = stabilizer_generators(K, e1)
    assert S.order() == K.order() == chain.order()
    assert _elements(S) == brute_stabilizer(K, e1) == _elements(K)


@pytest.mark.parametrize("case", range(4), ids=["vector", "projective", "pair", "duality"])
def test_based_build_starts_at_its_point_and_agrees_with_an_unbased_build(case):
    G, _ = _stabilizer_cases()[case]
    gchain = G.chain()
    x = int(gchain.levels[0].orbit[-1])
    based = StabChain.build(gchain.domain, G.tracked_generators(), order=G.order(), bound=G.order(),
                            name="based", base=x)
    assert based.levels[0].base == x != gchain.levels[0].base
    assert based.verified and based.order() == gchain.order()
    rng = np.random.default_rng(29 + case)
    members = np.stack([c.random_element(rng).perm for c in (based, gchain) for _ in range(100)])
    others = [Tracked(rng.permutation(gchain.domain.size)) for _ in range(200)]
    assert based.contains_block(members).all() and gchain.contains_block(members).all()
    # random permutations lie outside the ambient group, where only the full sift is exact
    assert not any(c.contains_tracked(t) for c in (based, gchain) for t in others)
    # generators that fix every point, against a known order of 2: the
    # based level has no generator, and the Schreier pass passes over it
    with pytest.raises(CertificationError, match="not the claimed 2"):
        StabChain.build(gchain.domain, [gchain.ident], order=2, bound=2, name="trivial", base=x)


def test_first_orbit_stabilizer_sifts_nothing(monkeypatch):
    G = classical_generators("SL", 4, 2)
    G.chain()
    adds = []
    real_add = StabChain._add
    monkeypatch.setattr(StabChain, "_add", lambda chain, t: adds.append(t) or real_add(chain, t))
    S = stabilizer_generators(G, ActionPoint(VECTOR, (1, 0, 0, 0)))
    assert S.order() == 20160 // 15
    assert adds == []


def test_stabilizer_generators_are_composed_only_when_read(monkeypatch):
    # a generator's matrix is read off its permutation: nothing is composed,
    # not even when it is read
    G = classical_generators("SL", 4, 2)
    gchain = G.chain()
    x = _points_of_first_orbit(gchain)[1]
    calls = count_matrix_ops(monkeypatch)
    S = stabilizer_generators(G, domain_point(gchain.domain, x))
    S.order()
    sub = stabilizer_generators(S, domain_point(gchain.domain, _points_of_first_orbit(S.chain())[1]))
    sub.order()
    g = S.generators[0]
    assert np.array_equal(gchain.domain.perm_of(g), S.generators.tracked[0].perm)
    assert not calls


def _derived_by_matrices(group, rng, label):
    """The normal-closure loop with every commutator and conjugate composed
    as a matrix, as a reference for the permutation route; it seeds the
    chain with the same commutators [a_i, a_j], i < j."""
    tag = VECTOR if group.action_tag == DUALITY else group.action_tag
    dom = shared_domain(tag, group.spec, group.n)
    gens = list(group.generators)
    comms = [sl_compose(sl_compose(sl_inverse(a), sl_inverse(b)), sl_compose(a, b))
             for i, a in enumerate(gens) for b in gens[i + 1:]]
    chain = StabChain.build(dom, comms, rng=rng, name=label, bound=group.order())
    current = [t.matrix(dom) for t in chain.levels[0].eff] if chain.levels else []
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
            chain._build_monte_carlo([Tracked(dom.perm_of(e), e) for e in current], rng, group.order())
            chain._certify(group.order(), label)
    return current, chain


@pytest.mark.parametrize("parent", ["Sp_4(2)", "duality"])
def test_derived_subgroup_on_permutations_matches_the_matrix_path(parent, monkeypatch):
    if parent == "Sp_4(2)":
        G = classical_generators("Sp", 4, 2)
    else:
        G = psi_extension(ext_subgroup("SL", 2, 2, 2), "psi_gamma")
        assert G.action_tag == DUALITY
    G.order()
    current, ref = _derived_by_matrices(G, np.random.default_rng(9), f"{G.name}'")
    calls = count_matrix_ops(monkeypatch)
    D = derived_subgroup(G, rng=np.random.default_rng(9))
    assert not calls  # products with a duality generator are taken on V - 0 and V* - 0
    assert D.order() == ref.order() == (360 if parent == "Sp_4(2)" else 60)
    assert [lvl.base for lvl in D.chain().levels] == [lvl.base for lvl in ref.levels]
    assert list(D.generators) == current
    dom = D.chain().domain
    for t in D.generators.tracked:
        assert np.array_equal(dom.perm_of(t.matrix(dom)), t.perm)


# ---------------------------------------------------------------------------
# the Schreier pass and transversal stacks on blocks, against the scalar walk


@pytest.fixture
def checked_witnesses(monkeypatch):
    """Every block Schreier witness, checked against the scalar reference:
    one list entry per call, whether the chain was complete."""
    calls = []
    block = StabChain._schreier_witness

    def checked(chain):
        got, want = block(chain), schreier_witness(chain)
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got.perm, want.perm)
        calls.append(got is None)
        return got

    monkeypatch.setattr(StabChain, "_schreier_witness", checked)
    return calls


def _chain_of(domain, tracked):
    """The partial chain that sifting the given elements alone builds."""
    chain = StabChain(domain)
    for t in tracked:
        chain._add(t)
    return chain


@pytest.mark.parametrize("stream", [Stream, np.random.default_rng], ids=["Stream", "Generator"])
@pytest.mark.parametrize("case", range(3), ids=["vector", "projective", "pair"])
def test_raw_walk_and_sift_match_their_tracked_oracles(case, stream):
    # the walk on raw arrays draws what the Tracked walk draws and gives the
    # same samples; sifted through partial chains, which walk them and then
    # stop some outside an orbit and let others through, and through the
    # complete chain, they leave the same residues
    G, _ = _stabilizer_cases()[case]
    chain = G.chain()
    gens = G.tracked_generators()
    raw_rng, oracle_rng = stream(31 + case), stream(31 + case)
    raw, oracle = grpcore.Rattle(gens, chain.ident, raw_rng), TrackedRattle(gens, chain.ident, oracle_rng)
    samples = [raw.sample() for _ in range(60)]
    assert all(np.array_equal(a.perm, oracle.sample().perm) for a in samples)
    assert raw_rng.integers(10**9) == oracle_rng.integers(10**9)
    stops = set()
    for partial in [_chain_of(chain.domain, samples[:k]) for k in (1, 3, 6)] + [chain]:
        for t in samples + [partial.ident]:
            (got, got_level), (want, want_level) = partial._sift(t), tracked_sift(partial, t)
            assert got_level == want_level and np.array_equal(got.perm, want.perm)
            stops.add((got_level == len(partial.levels), got is not t))
    # walked, then passed; and, below a chain of one level (the pair case's
    # regular orbit), walked, then stopped inside
    assert (True, True) in stops and ((False, True) in stops or len(chain.levels) == 1)


@pytest.mark.parametrize("block_entries", [1, grpcore.BLOCK_ENTRIES], ids=["one-point-chunks", "default"])
@pytest.mark.parametrize("case", range(3), ids=["vector", "projective", "pair"])
def test_block_schreier_pass_matches_the_scalar_pass(case, block_entries, checked_witnesses, monkeypatch):
    monkeypatch.setattr(grpcore, "BLOCK_ENTRIES", block_entries)
    G = _stabilizer_cases()[case][0]
    if case == 2:
        # the pair case of _stabilizer_cases is regular on its 120 pairs, so
        # every chain of it is complete: SL_3(3) on its 234 pairs is not
        sl33 = classical_generators("SL", 3, 3)
        G = GroupSpec("SL_3(3) on pairs", 3, sl33.spec, sl33.generators, claimed_order=5616, action_tag=PAIR)
    full = G.chain()
    dom, order = full.domain, full.order()
    # a Monte Carlo chain stopped after one sample, far below its order, and
    # chains with one strong generator removed: the pass completes each to
    # the chain of the group its elements generate
    partial = [full.originals[:1] + [full.random_element(np.random.default_rng(41))]]
    strong = full.levels[0].eff
    partial += [strong[:drop] + strong[drop + 1:] for drop in (0, len(strong) - 1)]
    for elements in partial:
        chain = _chain_of(dom, elements)
        chain._verify_loop()
        assert order % chain.order() == 0 and checked_witnesses[-1]
    assert checked_witnesses.count(False) > 0
    assert full._schreier_witness() is None


@pytest.mark.parametrize("claim_id", ["t1r09", "t1r11-a", "t1r12-b"])
def test_block_schreier_pass_matches_on_the_literal_chains(claim_id, checked_witnesses):
    claim = load_catalog().claim_by_id(claim_id)
    factorize.build_setup(claim, np.random.default_rng(factorize.claim_seed(claim.claim_id, 20260810)))
    assert checked_witnesses and checked_witnesses[-1]


def _transversal_stack(chain, li):
    """Level li's transversals on the whole domain, as ``element_perm_blocks``
    stacks them."""
    level, points = chain.levels[li], chain._arange
    return grpcore._transversal_rows(grpcore._generator_images(level, points), level.orbit, level.par, li, points)


@pytest.mark.parametrize("case", range(3), ids=["vector", "projective", "pair"])
def test_transversal_stack_rows_are_the_transversals(case):
    chain = _stabilizer_cases()[case][0].chain()
    for li, level in enumerate(chain.levels):
        stack = _transversal_stack(chain, li)
        assert stack.dtype == np.int32 and stack.shape == (len(level.orbit), chain.domain.size)
        for row, b in zip(stack, level.orbit.tolist()):
            assert np.array_equal(row, chain._transversal(li, b).perm)


def test_corrupt_schreier_vector_stops_the_transversal_stack(sl32):
    chain = StabChain.build(shared_domain(VECTOR, sl32.spec, 3), sl32.generators, order=168, bound=168)
    _corrupt_first_level(chain)
    for call in (lambda: next(chain.element_perm_blocks()), chain.support):
        with pytest.raises(CertificationError, match="Schreier vector of level 0 does not lead its orbit"):
            call()


def test_a_level_with_no_generator_has_the_identity_alone(sl32):
    # a chain based at a point with trivial generators keeps a first level
    # with no strong generator, whose one transversal is the identity
    dom = shared_domain(VECTOR, sl32.spec, 3)
    chain = StabChain.build(dom, [identity_element(sl32.spec, 3)], base=3)
    assert [(lv.base, lv.eff, lv.orbit.tolist()) for lv in chain.levels] == [(3, [], [3])]
    stream = Stream(83)
    assert all(chain.random_element(stream).is_identity() for _ in range(3))
    blocks = list(chain.element_perm_blocks())
    assert len(blocks) == 1 and np.array_equal(blocks[0], dom.identity_perm[None, :])
    assert chain.support().points.tolist() == [3]
    assert sporadic.exact_spectrum(chain) == {1}


# ---------------------------------------------------------------------------
# row sifts on base images


def _table_cases():
    """One group per domain kind, the last PSL_3(4) on its 336 antiflags."""
    sl33, sl34 = classical_generators("SL", 3, 3), classical_generators("SL", 3, 4)
    (vector, _), (projective, _), *_ = _stabilizer_cases()
    return [
        vector,
        projective,
        GroupSpec("SL_3(3) on pairs", 3, sl33.spec, sl33.generators, claimed_order=5616, action_tag=PAIR),
        GroupSpec("PSL_3(4) on antiflags", 3, sl34.spec, sl34.generators, claimed_order=20160, action_tag=ANTIFLAG),
    ]


def _full_rows(monkeypatch) -> list:
    """Record, for the rest of the test, the residue of each row that
    ``contains_block``, ``_sift_rows`` or ``_schreier_witness`` composes in
    full and sifts by ``_sift``."""
    full, inside = [], []

    def entered(real):
        def call(chain, *args):
            inside.append(True)
            try:
                return real(chain, *args)
            finally:
                inside.pop()
        return call

    sift = StabChain._sift

    def sifting(chain, t):
        out = sift(chain, t)
        if inside:
            full.append(out[0])
        return out

    for name in ("contains_block", "_sift_rows", "_schreier_witness"):
        monkeypatch.setattr(StabChain, name, entered(getattr(StabChain, name)))
    monkeypatch.setattr(StabChain, "_sift", sifting)
    return full


@pytest.mark.parametrize("case", range(4), ids=["vector", "projective", "pair", "antiflag-past-the-budget"])
def test_table_path_matches_the_tracked_oracles(case, monkeypatch):
    # random elements are the tracked walk's; row sifts on Q through
    # partial and complete chains give the tracked residues' images of Q,
    # for any permutation, and each Schreier witness is the oracle's and
    # the one row the pass composes in full
    full = _table_cases()[case].chain()
    dom = full.domain
    composed = _full_rows(monkeypatch)
    streams = Stream(61 + case), Stream(61 + case)
    samples = [full.random_element(streams[0]) for _ in range(30)]
    for t in samples:
        want = tracked_random_element(full, streams[1])
        assert t.perm.dtype == want.perm.dtype and np.array_equal(t.perm, want.perm)
    assert streams[0].integers(10**9) == streams[1].integers(10**9)
    rng = np.random.default_rng(67 + case)
    loose = [Tracked(rng.permutation(dom.size)) for _ in range(10)]
    witnessed = []
    for partial in [_chain_of(dom, samples[:k]) for k in (1, 3)] + [full]:
        points = partial._sift_points()
        tests = samples + loose + [partial.ident]
        rows = np.stack([t.perm[points] for t in tests]).astype(np.int64)
        partial._sift_rows(rows)
        for row, t in zip(rows, tests):
            assert np.array_equal(row, tracked_sift(partial, t)[0].perm[points])
        got, want = partial._schreier_witness(), schreier_witness(partial)
        assert (got is None) == (want is None) and (got is None or np.array_equal(got.perm, want.perm))
        assert composed == ([] if got is None else [got])
        composed.clear()
        witnessed.append(got is not None)
    assert witnessed[-1] is False and any(witnessed)


@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"), reason="the 511-point Schreier pass is opt-in: set RUN_EXTENDED=1")
def test_schreier_pass_past_the_budget_on_511_points(monkeypatch):
    # the antiflag stabilizer of SL_9(2) on its 511 vectors: the complete
    # chain's pass composes no row in full, and a partial chain's composes
    # only its witness, the oracle's
    full = stabilizer_subgroup("antiflag", 9, 2).chain()
    N = full.domain.size
    assert N == 511
    composed = _full_rows(monkeypatch)
    assert full._schreier_witness() is None and composed == []
    rng = np.random.default_rng(79)
    samples = [full.random_element(rng) for _ in range(3)]
    witnessed = []
    for k in (1, 2, 3):
        partial = _chain_of(full.domain, samples[:k])
        got, want = partial._schreier_witness(), schreier_witness(partial)
        assert (got is None) == (want is None) and (got is None or np.array_equal(got.perm, want.perm))
        assert composed == ([] if got is None else [got])
        composed.clear()
        witnessed.append(got is not None)
    assert any(witnessed)


@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"), reason="the forced passes on 4,095 points are opt-in: set RUN_EXTENDED=1")
@pytest.mark.parametrize("group", ["G2(4)", "stab_antiflag_SL_12(2)"])
def test_forced_schreier_pass_on_4095_vectors(group, monkeypatch):
    # two complete chains that their known orders certify with no pass:
    # forced, the pass finds no witness and composes no row in full
    G = g2_generators(4) if group == "G2(4)" else stabilizer_subgroup("antiflag", 12, 2)
    chain = G.chain()
    assert chain.domain.size == 4095
    composed = _full_rows(monkeypatch)
    assert chain._schreier_witness() is None and composed == []


def test_add_drops_the_inverses_of_a_level_whose_generators_grow():
    full = _table_cases()[0].chain()
    rng = np.random.default_rng(73)
    elements = [full.random_element(rng) for _ in range(8)]
    block = np.stack([t.perm for t in elements])
    chain, grown = _chain_of(full.domain, elements[:1]), 0
    for t in elements[1:]:
        chain.contains_block(block)
        before = [(len(level.eff), level.inverses) for level in chain.levels]
        assert all(inverses is not None for _, inverses in before)
        chain._add(t)
        for (k, inverses), level in zip(before, chain.levels):
            assert level.inverses is (inverses if len(level.eff) == k else None)
            grown += len(level.eff) > k
        assert chain.contains_block(block).tolist() == [chain.contains_tracked(e) for e in elements]
    assert grown


def test_a_relabeled_chain_builds_its_own_tables():
    chain = _table_cases()[1].chain()
    x = chain.random_element(np.random.default_rng(73))
    assert not x.is_identity()
    for conj in (chain.conjugate(x), chain.conjugate(chain.ident), chain.conjugate(x, from_level=1)):
        streams = Stream(5), Stream(5)
        assert np.array_equal(conj.random_element(streams[0]).perm, tracked_random_element(conj, streams[1]).perm)
        for li, level in enumerate(conj.levels):
            for row, b in zip(_transversal_stack(conj, li), level.orbit.tolist()):
                assert np.array_equal(row, conj._transversal(li, b).perm)


def test_corrupt_schreier_vector_stops_the_table_path(sl32):
    # a draw walks the Schreier vector home (_transversal) and raises once
    # it draws a point whose walk meets the cycle; the pass's transversals
    # on Q are read off the vector by _transversal_rows, whose check raises
    # where the walk would have; a row sift walks the vector and raises as well
    chain = StabChain.build(shared_domain(VECTOR, sl32.spec, 3), sl32.generators, order=168, bound=168)
    _, u = _corrupt_first_level(chain)
    rng = np.random.default_rng(1)
    with pytest.raises(CertificationError, match="Schreier vector of level 0 does not lead .* to its base"):
        for _ in range(100):
            chain.random_element(rng)
    with pytest.raises(CertificationError, match="Schreier vector of level 0 does not lead its orbit"):
        chain._schreier_witness()
    block = np.stack([u.perm] * len(chain.levels[0].orbit))
    with pytest.raises(CertificationError, match="Schreier vector of level 0 does not lead a sift"):
        chain.contains_block(block)


def test_the_conjugation_suite_walks_no_schreier_vector(monkeypatch):
    # suite-r9 draws x and y from G's chain and sifts each relabeled block
    # into K's chain on base images, composing no row in full
    composed, during = _full_rows(monkeypatch), []
    run, role, needs = factorize.STRATEGIES["conjugation"]

    def conjugation(*args):
        before = len(composed)
        try:
            return run(*args)
        finally:
            during.append(len(composed) - before)

    monkeypatch.setitem(factorize.STRATEGIES, "conjugation", (conjugation, role, needs))
    report = factorize.verify_claim(load_catalog().claim_by_id("suite-r9"))
    assert report.overall == "pass" and "conjugation" in [s.name for s in report.strategies]
    assert during and not any(during)


def test_no_table_past_the_budget_on_the_pair_domain():
    claim = load_catalog().claim_by_id("t1r07-m2")
    assert factorize.verify_claim(claim).overall == "pass"
    # H on its 16,320 pairs rather than its 510 vectors and functionals
    H = factorize.build_setup(claim, np.random.default_rng(0)).H
    chain = dataclasses.replace(H, action_tag=PAIR).chain()
    assert chain.domain.size == 16320
    level, N = chain.levels[0], chain.domain.size
    block = np.stack([t.perm for t in chain.originals])
    tracemalloc.start()
    try:
        members = chain.contains_block(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert members.all()
    # the block's images of Q and the strong generators' inverses; this
    # level's transversals on the whole domain would take orbit x N entries (2 GiB)
    assert peak <= 2 * (block.nbytes + len(level.eff) * N * 8)
    # members and elements of the ambient group, sifted on base images
    # through the level past the budget, agree row by row with the full
    # sift; members with two images swapped and random permutations lie
    # outside the ambient group, where only the full sift is exact
    rng = np.random.default_rng(5)
    dom, action = chain.domain, chain.domain.action
    elements = [chain.random_element(rng) for _ in range(8)]
    ambient = [Tracked(dom.perm_of(ambient_element(rng, action.spec, action.n, fa, dual)))
               for fa in range(action.spec.f) for dual in (0, 1) for _ in range(4)]
    tests = elements + ambient + [chain.ident]
    want = [chain.contains_tracked(t) for t in tests]
    assert all(want[:8]) and want[-1] and not all(want[8:-1])
    assert chain.contains_block(np.stack([t.perm for t in tests])).tolist() == want
    swapped = []
    for t in elements:
        perm = t.perm.copy()
        i, j = rng.choice(N, size=2, replace=False)
        perm[[i, j]] = perm[[j, i]]
        swapped.append(Tracked(perm))
    assert not any(chain.contains_tracked(t) for t in swapped + [Tracked(rng.permutation(N)) for _ in range(4)])
