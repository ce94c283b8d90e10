"""Verification engine behavior: strategies, agreement, negative controls."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from jsonschema import validate
from sympy.combinatorics import Permutation, PermutationGroup

from grpfact import constructors, factorize, grpcore, orders, sporadic
from grpfact.actions import domain_size
from grpfact.catalog import FactorizationClaim, load_catalog
from grpfact.constructors import (
    automorphism_element,
    classical_generators,
    ext_subgroup,
    psi_extension,
    stabilizer_subgroup,
)
from grpfact.factorize import (
    REPORT_SCHEMA,
    check_tight,
    claim_seed,
    intersect,
    structure_hint,
    verify_claim,
)
from grpfact.grpcore import CertificationError, GroupSpec
from grpfact.gf import make_field
from grpfact.linalg import DUALITY, PAIR, PROJECTIVE, VECTOR, ActionPoint, GroupElement, Mat
from grpfact.sporadic import sp4_2_derived
import oracles
from oracles import count_matrix_ops


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_intersect_stabilizer_route():
    H = ext_subgroup("SL", 2, 2, 2)
    K = stabilizer_subgroup("vector", 4, 2)
    inter = intersect(H, K, "stabilizer")
    assert inter.order() == 4


def test_intersect_enumerate_route_agrees():
    H = sp4_2_derived()
    K = stabilizer_subgroup("vector", 4, 2)
    by_stab = intersect(H, K, "stabilizer")
    by_enum = intersect(H, K, "enumerate_smaller")
    assert by_stab.order() == by_enum.order() == 24


def test_intersect_requires_applicable_strategy():
    H = classical_generators("SL", 4, 2)
    K = classical_generators("SL", 4, 2).with_name("bare")
    with pytest.raises(Exception):
        intersect(H, K, "stabilizer")
    with pytest.raises(Exception):
        intersect(H, K, "enumerate_smaller")  # both too big


def test_intersect_and_orbit_give_the_factorization():
    G = classical_generators("SL", 4, 2)
    H = ext_subgroup("SL", 2, 2, 2)
    K = stabilizer_subgroup("vector", 4, 2)
    inter = intersect(H, K, "stabilizer")
    assert inter.order() == 4
    assert G.order() * inter.order() == H.order() * K.order()
    orb = grpcore.orbit(H, ActionPoint(VECTOR, (1, 0, 0, 0)))
    assert orb.size == 15
    assert orb.size * K.order() == G.order()


def test_structure_hints():
    K = stabilizer_subgroup("antiflag", 4, 2)
    assert structure_hint(K) == "PSL_2(7)"  # SL_3(2): same order and spectrum


def test_check_tight_positive_and_negative():
    H = psi_extension(ext_subgroup("SL", 2, 2, 2), "psi")
    X = ext_subgroup("SL", 2, 2, 2)
    assert check_tight(H, X)
    # SL_3(2)-block inside SL_4(2) vs the affine vector stabilizer: residual
    # orders 168 vs 1344, not equal as subgroups
    A = stabilizer_subgroup("antiflag", 4, 2)
    B = stabilizer_subgroup("vector", 4, 2)
    assert not check_tight(A, B)


def test_report_schema_and_dict(catalog):
    claim = catalog.claim_by_id("t1r01-sl-a2b2q2")
    rep = verify_claim(claim)
    data = rep.as_dict()
    validate(data, REPORT_SCHEMA)
    assert data["overall"] == "pass"
    names = [s["name"] for s in data["strategies"]]
    assert names == ["identity", "order", "orbit"]
    orders_seen = {s["intersection_order"] for s in data["strategies"]
                   if s["intersection_order"] is not None}
    assert orders_seen == {4}
    assert all(s["wall_ms"] == 0 for s in data["strategies"])  # byte-stable default


def test_negative_controls_pass_by_failing(catalog):
    for cid in ("neg-sp6-g2p", "neg-sl6-g2p"):
        rep = verify_claim(catalog.claim_by_id(cid))
        assert rep.overall == "pass"
        votes = [s for s in rep.strategies if s.verdict != "skipped"]
        assert votes and all(s.verdict == "fail" for s in votes)


def test_negative_control_intersection_is_not_the_required_one(catalog):
    rep = verify_claim(catalog.claim_by_id("neg-sp6-g2p"))
    computed = {s.intersection_order for s in rep.strategies if s.intersection_order}
    # the factorization would need |H n K| = 3; the actual intersection differs
    needed = 6048 * 720 // orders.sp_order(6, 2)
    assert needed == 3
    assert computed and 3 not in computed


def test_row13_reports_structure_discrepancy(catalog):
    rep = verify_claim(catalog.claim_by_id("t1r13"))
    assert rep.overall == "pass"
    disc = rep.notes["structure_discrepancy"]
    assert disc["matches"] == "table"
    assert disc["computed_stabilizer_order"] == str(3**5 * orders.sl_order(5, 3))


def test_row10_reports_which_extensions_succeed(catalog):
    # row 10's witnesses are certified literals in the phi_gamma extension,
    # the one the report names; the common loop decides the claim
    rep = verify_claim(catalog.claim_by_id("t1r10"))
    assert rep.overall == "pass"
    assert rep.notes == {"extension": "PSL_3(4).2[phi_gamma]", "witnesses": "certified literals"}
    assert [(s.name, s.verdict, s.intersection_order) for s in rep.strategies] == [
        ("identity", "pass", 6), ("enumerate", "pass", 6)]
    assert rep.strategies[1].details == {"intersection_hint": "S3"}


def test_determinism_same_seed_same_report(catalog):
    claim = catalog.claim_by_id("t1r09")
    a = verify_claim(claim, base_seed=123).as_dict()
    b = verify_claim(claim, base_seed=123).as_dict()
    assert a == b
    assert claim_seed("t1r09", 123) == claim_seed("t1r09", 123)


def test_desk_reports_differ_across_base_seeds_only_in_their_seeds(catalog):
    # each verdict, order and note rests on a certificate, so no draw of a
    # claim stream reaches a report byte; the opt-in sweep below compares
    # only verdicts and orders, over more seeds
    def reports(base_seed):
        out = {}
        for claim in catalog.desk_grid("desk"):
            rep = verify_claim(claim, base_seed=base_seed).as_dict()
            for s in rep["strategies"]:
                del s["seed"]
            out[claim.claim_id] = rep
        return out

    assert reports(7) == reports(20260810)


def test_timings_cover_every_strategy(catalog, monkeypatch):
    # a fake clock that advances one second per reading: every timed block
    # reads at least 1000 ms, and an untimed strategy stays at 0
    ticks = iter(range(10**9))
    monkeypatch.setattr(factorize.time, "perf_counter", lambda: float(next(ticks)))
    for cid in ("t1r09", "t1r11-a", "t1r12-b", "t1r13", "suite-r1"):
        claim = catalog.claim_by_id(cid)
        timed = verify_claim(claim, record_timings=True).as_dict()
        assert timed["overall"] == "pass"
        assert [s["name"] for s in timed["strategies"]] == claim.checks, cid
        for s in timed["strategies"]:
            assert s["wall_ms"] >= 1000, (cid, s["name"])
        untimed = verify_claim(claim).as_dict()
        assert all(s["wall_ms"] == 0 for s in untimed["strategies"])
        for s in timed["strategies"]:
            s["wall_ms"] = 0
        assert timed == untimed


def test_row11_enumerate_strategy_enumerates(catalog, monkeypatch):
    routes = []
    real = factorize.intersect

    def spy(H, K, strategy="stabilizer"):
        routes.append(strategy)
        return real(H, K, strategy)

    monkeypatch.setattr(factorize, "intersect", spy)
    rep = verify_claim(catalog.claim_by_id("t1r11-a"))
    assert rep.overall == "pass"
    assert [s.name for s in rep.strategies] == ["identity", "enumerate", "orbit"]
    assert routes == ["enumerate_smaller"]


def test_big_orbit_setup_draws_nothing_from_its_rng(catalog):
    # a benchmark prepares t1r14-ext's set-up on a numpy Generator, where
    # verify_claim hands it a Stream; no draw means no number can differ
    class NoDraws:
        def integers(self, *args):
            raise AssertionError(f"drew integers{args}")

    setup = factorize.build_setup(catalog.claim_by_id("t1r14-ext"), NoDraws())
    assert setup.orbit_target == (2**12 - 1) * 2**11  # the antiflags of GF(2)^12


def test_locator_budget_exhaustion_is_a_fail_report(catalog, monkeypatch):
    def refused(domain, tracked, kind, rng, name):
        raise CertificationError(f"{name}: element orders are not those of {kind}")

    monkeypatch.setattr(sporadic, "certify_subgroup", refused)
    rep = verify_claim(catalog.claim_by_id("t1r11-a"))
    assert rep.overall == "fail"
    assert rep.strategies == []
    assert "A7<SL_4(2): element orders are not those of A7" in rep.reason


def test_row14_extended_orbit_covers_every_pair_point(catalog):
    # the orbit certificate of t1r14-ext: the blown G2(4).2 on pair points of GF(2)^12
    claim = catalog.claim_by_id("t1r14-ext")
    setup = factorize.build_setup(claim, np.random.default_rng(claim_seed(claim.claim_id, 20260810)))
    assert setup.orbit_seed.tag == "pair"
    tracemalloc.start()
    try:
        size = grpcore.orbit(setup.H, setup.orbit_seed).size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == (2**12 - 1) * 2**11
    # the 16 MiB seen mask over the 2^24 pair keys, the 2 MiB packed done
    # mask, one sweep block's temporaries and the cached block tables; holding
    # the largest BFS level as int64 keys (3,231,067 keys, 24.7 MiB) breaks
    # this bound
    assert peak < 24 * 2**20


@pytest.mark.parametrize("claim_id", ["t1r01-sp-a4b1q2", "t1r02-b1q2"])
def test_orbit_strategy_on_tracked_witnesses_composes_no_matrix(catalog, claim_id, monkeypatch):
    # the witnesses' generators are Tracked on the seed's domain, so the
    # orbit is read off their permutations
    claim = catalog.claim_by_id(claim_id)
    rng = np.random.default_rng(claim_seed(claim_id, 20260810))
    setup = factorize.build_setup(claim, rng)
    assert any(isinstance(H.generators, grpcore.TrackedGenerators) for H in setup.witnesses)
    calls = count_matrix_ops(monkeypatch)
    res = factorize._run_orbit(claim, setup, rng, 2**20)
    assert res.verdict == "pass" and res.orbit_sizes == [setup.orbit_target] * len(setup.witnesses)
    assert calls == []


@pytest.mark.parametrize("point", ["t1r04-sp-m4", "t1r06-m2", "t1r07-m2", pytest.param(("5Sp", {"m": 6}), id="5Sp-m6")])
def test_check_tight_needs_no_schreier_pass(catalog, point, monkeypatch):
    # X is perfect, so its one derived step reaches |X|, which bounds it,
    # and H's commutators lie in X, so H takes no derived step: the
    # Schreier pass never runs (at 5Sp m = 6, one on H's commutator group
    # would take about 3.6 s on 4,095 points)
    claim = catalog.claim_by_id(point) if isinstance(point, str) else catalog.instantiate(*point)
    rng = np.random.default_rng(claim_seed(claim.claim_id, 20260810))
    setup = factorize.build_setup(claim, rng)
    calls = []
    monkeypatch.setattr(grpcore.StabChain, "_verify_loop", lambda chain: calls.append(chain.order()))
    assert check_tight(setup.H, setup.tight_target, rng=rng)
    assert calls == []


def test_row12a_tight_refuses_an_a5_outside_the_witness(catalog, monkeypatch):
    # the control: the intransitive S5's A5 is not inside the transitive S5
    # witness, so check_tight refuses at R <= H, before any conjugate is sifted
    build = factorize.build_setup

    def with_other_a5(claim, rng):
        setup = build(claim, rng)
        other = sporadic.subgroup_from_literal(sporadic.psl_n3_projective(4), sporadic.S5_INTRANSITIVE, "S5",
                                               "S5'<PSL_4(3)", rng)
        setup.tight_target = grpcore.derived_subgroup(other, rng=rng, name="A5 inside the other S5")
        assert setup.tight_target.order() == 60 and not setup.H.includes(setup.tight_target)
        return setup

    sifted = []
    monkeypatch.setattr(factorize, "build_setup", with_other_a5)
    monkeypatch.setattr(factorize, "conjugates", lambda *args: sifted.append(args) or iter(()))
    report = verify_claim(catalog.claim_by_id("t1r12-a"))
    tight = next(s for s in report.strategies if s.name == "tight")
    assert (tight.verdict, tight.details, report.tight, report.overall) == (
        "fail", {"target": "A5 inside the other S5"}, False, "fail")
    assert sifted == []


def test_row12a_witness_with_no_derived_a5_fails_certification(catalog, monkeypatch):
    # row 12c's 2^4:A5 is perfect, of order 960: its derived subgroup is
    # itself, which the set-up refuses as row 12a's A5
    monkeypatch.setattr(factorize, "_row12_x", lambda row, Z, rng: sporadic.locate_2_4_a5(rng))
    report = verify_claim(catalog.claim_by_id("t1r12-a"))
    assert (report.overall, report.strategies, report.tight) == ("fail", [], None)
    assert report.reason == ("construction failed certification: "
                             "A5 inside the S5 witness: 2^4:A5<PSL_4(3)' has order 960, not that of A5")


def _derived_steps(monkeypatch) -> list:
    """The names of the groups that take a derived step (derived_subgroup,
    as derived_series calls it) for the rest of the test."""
    steps = []
    real = grpcore.derived_subgroup
    monkeypatch.setattr(grpcore, "derived_subgroup",
                        lambda group, *args, **kw: steps.append(group.name) or real(group, *args, **kw))
    return steps


ROWS_4_TO_7 = ["t1r04-m2", "t1r04-sp-m4", "t1r05-m2", "t1r06-m2", "t1r07-m2"]


@pytest.mark.parametrize("claim_id", ROWS_4_TO_7)
def test_check_tight_agrees_with_both_residuals(catalog, claim_id, monkeypatch):
    claim = catalog.claim_by_id(claim_id)
    seed = claim_seed(claim_id, 20260810)
    setup = factorize.build_setup(claim, np.random.default_rng(seed))
    want = oracles.check_tight_by_residuals(setup.H, setup.tight_target, rng=np.random.default_rng(seed))
    steps = _derived_steps(monkeypatch)
    assert check_tight(setup.H, setup.tight_target, rng=np.random.default_rng(seed)) is want is True
    assert steps == [setup.tight_target.name]  # H/X is abelian: X's perfectness step alone


def test_check_tight_compares_a_non_perfect_x_by_its_residual(monkeypatch):
    # X = H = SL_2(4).2, not perfect: R = X^inf = SL_2(4) is normal in H,
    # and H's commutators lie in R, so H takes no derived step
    H = psi_extension(ext_subgroup("SL", 2, 2, 2), "psi")
    steps = _derived_steps(monkeypatch)
    assert check_tight(H, H)
    assert steps == [H.name, f"{H.name}^(1)"]  # X's series, to its perfect term, and no more
    assert oracles.check_tight_by_residuals(H, H)


def test_check_tight_refuses_an_x_that_h_does_not_normalize(monkeypatch):
    # a conjugate of the core SL_2(4) lies in SL_4(2) = A8, which is simple,
    # so it is not H^inf: the check refuses it at normality, before any
    # derived step of H
    G = classical_generators("SL", 4, 2)
    X = ext_subgroup("SL", 2, 2, 2)
    x = oracles.non_normalizing_element(G, X, np.random.default_rng(3))
    X_conj = GroupSpec("X^x", 4, X.spec, oracles.conjugate_gens(X.generators, x), claimed_order=60)
    assert G.includes(X_conj)
    steps = _derived_steps(monkeypatch)
    assert not check_tight(G, X_conj)
    assert steps == ["X^x"]
    assert not oracles.check_tight_by_residuals(G, X_conj)


def test_check_tight_takes_one_derived_step_when_h_over_x_is_not_abelian(monkeypatch):
    # GammaL_2(4) = <SL_2(4), omega I, phi> has order 360 and H/X = S3:
    # [omega I, phi] = omega I lies outside X = SL_2(4), so H's own
    # commutators do not lie in R; H' = GL_2(4), whose commutators do
    spec = make_field(2, 2)
    X = classical_generators("SL", 2, 4)
    omega = GroupElement(Mat(spec, [[2, 0], [0, 2]]))
    H = GroupSpec("GammaL_2(4)", 2, spec, [*X.generators, omega, automorphism_element("phi", 2, 4)],
                  claimed_order=360)
    steps = _derived_steps(monkeypatch)
    assert check_tight(H, X)
    assert steps == [X.name, H.name]
    assert oracles.check_tight_by_residuals(H, X)


@pytest.mark.parametrize("claim_id", ROWS_4_TO_7)
def test_rows_4_to_7_build_four_chains(catalog, claim_id, monkeypatch):
    # four chains of the set-up's groups: the core, H, K's stabilizer and
    # the core's perfectness step in the tight check, which derives no term
    # of H; besides them, H n K's last stage, the functional, lies outside
    # the first basic orbit of H_v's chain, or off its domain, and takes a
    # chain of H_v based at the functional
    builds = oracles.count_chain_builds(monkeypatch)
    report = verify_claim(catalog.claim_by_id(claim_id))
    assert report.overall == "pass" and report.tight is True
    core, H, stage, K, core_derived = builds
    assert stage == f"{H}_cap_{K}_0" and core_derived == core + "^(1)'"


def _duality_setup(catalog, claim_id):
    """A row 5 or 7 claim's set-up, and its ambient SL_n(q).2, extended by
    K's duality element."""
    setup = factorize.build_setup(catalog.claim_by_id(claim_id), np.random.default_rng(0))
    n, spec = setup.H.n, setup.H.spec
    outer = [g for g in setup.K.generators if g.dual]
    return setup, GroupSpec("SL.2", n, spec, classical_generators("SL", n, spec.q).generators + outer,
                            claimed_order=setup.g_order)


@pytest.mark.parametrize("claim_id", ["t1r05-m2", "t1r07-m2"])
def test_duality_groups_on_pairs_agree(catalog, claim_id):
    # H and K of rows 5 and 7 on V - 0 and V* - 0 and on the pair domain:
    # the same order, and the same answer for 200 members and for 200
    # elements of the ambient SL_n(q).2 outside the group
    setup, ambient = _duality_setup(catalog, claim_id)
    rng = np.random.default_rng(7)
    for X in (setup.H, setup.K):
        pairs = dataclasses.replace(X, action_tag=PAIR, _chain=None)
        chain, pair_chain = X.chain(), pairs.chain()
        assert (chain.domain.action.tag, pair_chain.domain.action.tag) == (DUALITY, PAIR)
        assert chain.order() == pair_chain.order() == X.claimed_order
        outside = []
        while len(outside) < 200:
            t = ambient.chain().random_element(rng)
            if not chain.contains_tracked(t):
                outside.append(t)
        inside = [chain.random_element(rng) for _ in range(200)]
        for t, member in [(t, True) for t in inside] + [(t, False) for t in outside]:
            g = t.matrix(chain.domain)
            assert chain.contains(g) is pair_chain.contains(g) is member


@pytest.mark.parametrize("claim_id", ["t1r05-m2", "t1r07-m2"])
def test_duality_intersection_is_the_pair_stabilizer(catalog, claim_id):
    # for K the antiflag stabilizer with its duality, H n K is the setwise
    # stabilizer of {e1, e1*} on V - 0 and V* - 0, as the pair (e1, e1*)'s
    # stabilizer on pairs is: the claim's H has no element swapping them,
    # while K and the ambient have phi_gamma, which doubles H_(e1, e1*)
    setup, ambient = _duality_setup(catalog, claim_id)
    e1 = (1,) + (0,) * (setup.H.n - 1)
    for H, swaps in ((setup.H, False), (setup.K, True), (ambient, True)):
        inter = factorize.intersect(H, setup.K)
        if H is not setup.K:  # K n K is K
            on_pairs = dataclasses.replace(H, action_tag=PAIR, _chain=None)
            assert inter.order() == grpcore.stabilizer_generators(on_pairs, ActionPoint(PAIR, (e1, e1))).order()
        assert any(g.dual for g in inter.generators) is swaps
        assert setup.K.includes(inter) and (inter.order() == setup.K.order()) is swaps


def test_forced_schreier_pass_on_a_duality_home(catalog):
    # with no bound the chain of t1r07-m2's H ends in the deterministic
    # Schreier pass, on its 510 vectors and functionals rather than its
    # 16,320 pairs (about 0.05 s on a 2-core host)
    H = factorize.build_setup(catalog.claim_by_id("t1r07-m2"), np.random.default_rng(0)).H
    t0 = time.perf_counter()
    chain = grpcore.StabChain.build(H.home_domain(), H.tracked_generators(), name=H.name)
    assert time.perf_counter() - t0 < 1.0
    assert chain.domain.size == 510 and chain.order() == H.claimed_order == 4 * orders.sp_order(2, 16)


@pytest.mark.parametrize("row, m, home, points", [
    ("7Sp", 2, DUALITY, 510),  # t1r07-m2: the duality extension
    ("6SL", 2, PROJECTIVE, 85),  # t1r06-m2: the Frobenius extension
    ("5SL", 2, DUALITY, 30),  # t1r05-m2: q = 2
    ("6SL", 3, VECTOR, None),  # gcd(6, 4 - 1) = 3: SL_6(4) has scalars
])
def test_extended_antiflag_stabilizer_home(row, m, home, points):
    # a duality extension of the stabilizer K is certified on V - 0 and
    # V* - 0; with q > 2 and gcd(n, q - 1) = 1 any other on the projective
    # form of its action, with the same order
    claim = FactorizationClaim(f"row{row}-m{m}", row, {"m": m}, "desk", "pass", [])
    K = factorize.build_setup(claim, np.random.default_rng(0)).K
    assert K.action_tag == home
    if points is not None:
        chain = K.chain()
        assert chain.domain.size == points
        q = 2 if row.startswith("5") else 4
        assert chain.order() == K.claimed_order == 2 * orders.sl_order(3, q)


def test_orbit_outgrowing_its_budget_is_a_fail(catalog):
    # a target the budget holds, and an orbit that outgrows the budget
    # before it closes: the strategy fails with the budget error as reason
    setup = factorize.ClaimSetup(
        orders.sl_order(4, 2), classical_generators("SL", 4, 2), stabilizer_subgroup("vector", 4, 2),
        orbit_seed=ActionPoint(VECTOR, (1, 0, 0, 0)), orbit_target=8,
    )
    res = factorize._run_orbit(None, setup, None, 10)
    assert res.verdict == "fail"
    assert "exceeded" in res.details["reason"] and res.details["max_points"] == 10
    res = factorize._run_orbit(None, setup, None, 4)
    assert res.verdict == "skipped" and res.details["target"] == 8
    # the 288 bytes of masks over the 256 pair keys of GF(2)^4 are over a
    # 10-point budget's 240: no point is closed, so nothing is decided
    setup.orbit_seed = ActionPoint(PAIR, ((1, 0, 0, 0), (1, 0, 0, 0)))
    res = factorize._run_orbit(None, setup, None, 10)
    assert res.verdict == "skipped" and "need 288 bytes" in res.details["reason"]


def _verify_on(setup, checks, monkeypatch):
    """verify_claim's strategies for checks, run on the given set-up."""
    monkeypatch.setattr(factorize, "build_setup", lambda claim, rng: setup)
    return verify_claim(FactorizationClaim("given-setup", "3", {}, "desk", "pass", checks)).strategies


def test_orbit_on_a_projective_domain_past_the_cap_is_skipped(monkeypatch):
    # the projective points of GF(3)^12 are acted on only through their
    # domain, of 265,720 points: past the cap, the orbit decides nothing,
    # and verify_claim's one cap handler skips it with the size and the cap
    G = classical_generators("SL", 12, 3)
    setup = factorize.ClaimSetup(
        orders.sl_order(12, 3), G, G,
        orbit_seed=ActionPoint(PROJECTIVE, (1,) + (0,) * 11), orbit_target=(3**12 - 1) // 2,
    )
    [res] = _verify_on(setup, ["orbit"], monkeypatch)
    assert res.verdict == "skipped" and res.orbit_sizes == []
    assert res.details == {"reason": "domain of 265720 projective points exceeds the 200000 limit",
                           "domain_size": 265720, "max_size": 200000}


@pytest.mark.parametrize("claim_id, path", [
    ("t1r04-sp-m4", "point_chain"),  # stage chains, built on the functional domain for the last stage
    ("t1r05-m2", "_derived_product"),  # the tight check's conjugates and commutators by a duality H
])
def test_strategies_after_set_up_compose_no_matrix(catalog, claim_id, path, monkeypatch):
    ran = []
    real_path = getattr(grpcore, path)
    monkeypatch.setattr(grpcore, path,
                        lambda group, *args, **kw: ran.append(group.action_tag) or real_path(group, *args, **kw))
    build, counts = factorize.build_setup, []

    def set_up_then_count(*args):
        setup = build(*args)
        counts.append(count_matrix_ops(monkeypatch))
        return setup

    monkeypatch.setattr(factorize, "build_setup", set_up_then_count)
    report = verify_claim(catalog.claim_by_id(claim_id))
    assert report.overall == "pass" and (DUALITY if claim_id == "t1r05-m2" else VECTOR) in ran
    [calls] = counts
    assert (calls.count("sl_compose"), calls.count("sl_inverse")) == (0, 0)


def test_orbit_without_a_seed_is_skipped(catalog):
    report = verify_claim(catalog.instantiate("8Sp", {"q": 2}))
    orbit = next(s for s in report.strategies if s.name == "orbit")
    assert (orbit.verdict, orbit.details) == ("skipped", {"reason": "no orbit seed"})


def test_construction_error_in_set_up_is_a_fail_report(catalog, monkeypatch):
    # offered only the first psi_gamma candidate, whose square leaves the
    # Sp_2(4) core, the set-up cannot construct H; the report must carry
    # the reason instead of a traceback
    first = next(constructors._psi_gamma_candidates(4, 2))
    monkeypatch.setattr(constructors, "_psi_gamma_candidates", lambda n, q: [first])
    report = verify_claim(catalog.instantiate("5Sp", {"m": 2}))
    assert (report.overall, report.strategies) == ("fail", [])
    assert report.reason == "construction failed: Sp_2(4)^in_SL_4(2): adjoined element power 2 leaves the core"


@pytest.mark.parametrize("row,m,orbit_size", [
    *[pytest.param(row, 2, 120 if row[0] in "45" else 16_320, id=row)
      for row in ["4SL", "4Sp", "5SL", "5Sp", "6SL", "6Sp", "7SL", "7Sp"]],
    *[pytest.param(row, m, size, id=f"{row}-m{m}") for row, m, size in [
        ("4SL", 3, 2_016), ("5SL", 3, 2_016),
        ("4SL", 4, 32_640), ("4Sp", 4, 32_640), ("5SL", 4, 32_640), ("5Sp", 4, 32_640),
        ("6SL", 4, None),  # its target, the 1,073,725,440 pairs of GF(4)^8, is past the budget
    ]],
])
def test_every_row_4_to_7_variant_factorizes(catalog, row, m, orbit_size):
    # 5Sp, 6Sp and 7SL have no catalog claim; their setups run only here
    report = verify_claim(catalog.instantiate(row, {"m": m}))
    assert report.overall == "pass"
    orbit = next(s for s in report.strategies if s.name == "orbit")
    if orbit_size is None:
        assert (orbit.verdict, orbit.details["reason"]) == ("skipped", "orbit target exceeds the memory budget")
    else:
        assert (orbit.verdict, orbit.orbit_sizes) == ("pass", [orbit_size])
    expected = orders.row_orders(row, {"m": m})[3]
    assert {s.intersection_order for s in report.strategies if s.name != "orbit"} == {expected}


_SET_UP_DESK_CLAIMS = [c.claim_id for c in load_catalog().desk_grid("desk") if set(c.checks) != {"identity"}]


@pytest.mark.parametrize("claim_id", _SET_UP_DESK_CLAIMS)
def test_formula_orders_match_sympy_at_desk_parameters(catalog, claim_id):
    # a claimed order is a chain's known order and its bound, and the
    # build accepts a bound at or below a partial chain's order; so each
    # formula order on a home domain of at most 1,000 points is checked
    # against sympy's order of the group's permutations there
    claim = catalog.claim_by_id(claim_id)
    setup = factorize.build_setup(claim, np.random.default_rng(claim_seed(claim_id, 20260810)))
    checked = 0
    for group in (setup.G, setup.H, setup.K):
        if group is None or group.claimed_order is None:
            continue
        if domain_size(group.action_tag, group.spec.q, group.n) > 1000:
            continue
        perms = [t.perm for t in group.tracked_generators()]
        assert PermutationGroup([Permutation(p.tolist()) for p in perms]).order() == group.claimed_order, group.name
        checked += 1
    assert checked or claim_id in ("t1r07-m2", "t1r08-q4-sp")  # their groups act on 4,095 or more points


def test_domain_past_the_cap_skips_the_order_strategy(catalog):
    # row 3 at (n, q) = (12, 3) intersects Sp_12(3) on the 531,440 vectors
    # of GF(3)^12, past the 200,000-point cap on enumerated domains
    report = verify_claim(catalog.instantiate("3", {"n": 12, "q": 3}))
    order = next(s for s in report.strategies if s.name == "order")
    assert (order.verdict, order.intersection_order) == ("skipped", None)
    assert order.details == {"reason": "domain of 531440 vector points exceeds the 200000 limit",
                             "domain_size": 531_440, "max_size": 200_000}
    validate(report.as_dict(), REPORT_SCHEMA)


@pytest.mark.parametrize("row,m,size", [("6SL", 5, 4**10 - 1), ("7Sp", 6, 4**12 - 1)])
def test_set_up_past_the_domain_cap_is_a_skipped_report(catalog, row, m, size):
    # psi_extension's adjoin certificate needs the core's chain on the
    # vectors of GF(4)^(2m), a domain past the cap
    report = verify_claim(catalog.instantiate(row, {"m": m}))
    assert (report.overall, report.strategies) == ("skipped", [])
    assert report.reason == f"construction skipped: domain of {size} vector points exceeds the 200000 limit"
    validate(report.as_dict(), REPORT_SCHEMA)


def test_conjugation_suite_composes_no_matrix(catalog, monkeypatch):
    claim = catalog.claim_by_id("suite-r1")
    rng = np.random.default_rng(5)
    calls = count_matrix_ops(monkeypatch)
    result = factorize._run_conjugation(claim, factorize.build_setup(claim, rng), rng, 2**24)
    assert (result.details["stable"], result.details["spectra_preserved"]) == (50, 50)
    assert not calls


def _same_class_setup(catalog, seed):
    # suite-r9's set-up with K a conjugate of H, in H's class of A5: two
    # such A5s of PSL_2(9) are equal or meet in A4, so no sample factorizes
    setup = factorize.build_setup(catalog.claim_by_id("suite-r9"), np.random.default_rng(seed))
    z = setup.G.chain().random_element(np.random.default_rng(seed))
    setup.K = GroupSpec.of_chain("A5 class 1'", setup.H.chain().conjugate(z))
    return setup


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("variant", ["suite-r1", "suite-r9", "same-class"])
def test_conjugate_intersections_match_relabeled_chains(catalog, variant, seed):
    if variant == "same-class":
        setup = _same_class_setup(catalog, seed)
    else:
        setup = factorize.build_setup(catalog.claim_by_id(variant), np.random.default_rng(seed))
    got = list(factorize._conjugate_intersections(setup, np.random.default_rng(seed), 25))
    want = oracles.conjugate_intersection_samples(setup, np.random.default_rng(seed), 25)
    assert got == want
    if variant == "same-class":
        # the control reaches both intersections: H^x = K^y and A4
        assert {order for _, order, _ in got} == {12, 60}


def test_conjugation_fails_with_both_a5s_in_one_class(catalog):
    claim = catalog.claim_by_id("suite-r9")
    result = factorize._run_conjugation(claim, _same_class_setup(catalog, 4), np.random.default_rng(4), 2**24)
    assert (result.verdict, result.details["stable"]) == ("fail", 0)


def test_conjugation_refuses_a_factor_past_the_enumeration_cap(catalog, monkeypatch):
    # SL_4(2) as H: 20,160 elements, past the 10^4 that intersect enumerates
    setup = factorize.build_setup(catalog.claim_by_id("suite-r1"), np.random.default_rng(0))
    setup.H = setup.G
    [res] = _verify_on(setup, ["conjugation"], monkeypatch)
    assert (res.verdict, res.intersection_order) == ("skipped", None)
    assert res.details == {"reason": "enumeration of 20160 elements exceeds the 10000 limit",
                           "domain_size": 20160, "max_size": 10000}


def test_verification_leaves_no_cyclic_element_garbage(catalog):
    """Elements and their inverses are freed by reference counting: with the
    collector off, a full collection afterwards finds none of them in a
    cycle."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for claim_id in ("t1r04-m2", "t1r08-sp-q2", "suite-r9"):
            verify_claim(catalog.claim_by_id(claim_id))
        gc.collect()
        cyclic = [type(o).__name__ for o in gc.garbage if isinstance(o, grpcore.Tracked)]
        assert cyclic == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _catalog_checks(catalog):
    """Every check a catalog claim or a template point names."""
    checks = {c for claim in catalog.desk_grid(tier=None) for c in claim.checks}
    return checks | set(catalog.instantiate("4SL", {"m": 2}).checks)


def test_every_catalog_check_has_a_strategy(catalog):
    assert _catalog_checks(catalog) <= set(factorize.STRATEGIES)


def test_every_strategy_is_a_catalog_check(catalog):
    # no orphan strategy: each runner is named by some claim's checks
    assert set(factorize.STRATEGIES) <= _catalog_checks(catalog)


def test_strategy_roles():
    roles = {name: role for name, (_, role, _) in factorize.STRATEGIES.items()}
    assert {n for n, r in roles.items() if r == factorize.VOTE} == {
        "identity", "order", "enumerate", "orbit", "conjugation"}
    assert {n for n, r in roles.items() if r == factorize.VETO} == {"tight", "vector_orbit"}
    assert set(roles.values()) == {factorize.VOTE, factorize.VETO}


@pytest.mark.parametrize("check", ["order", "tight"])
def test_a_failing_vote_or_veto_fails_the_claim(catalog, monkeypatch, check):
    claim = catalog.claim_by_id("t1r04-m2")
    assert verify_claim(claim).overall == "pass"
    _, role, needs = factorize.STRATEGIES[check]
    monkeypatch.setitem(factorize.STRATEGIES, check,
                        (lambda *args: factorize.StrategyResult(check, "fail"), role, needs))
    report = verify_claim(claim)
    assert report.overall == "fail"
    assert next(s for s in report.strategies if s.name == check).verdict == "fail"


def test_an_unknown_check_is_skipped_and_does_not_vote(catalog):
    claim = dataclasses.replace(catalog.claim_by_id("t1r04-m2"), checks=["identity", "no_such_check"])
    report = verify_claim(claim)
    assert report.overall == "pass"
    unknown = report.strategies[1]
    assert (unknown.name, unknown.verdict, unknown.details) == ("no_such_check", "skipped", {"reason": "unknown check"})


@pytest.mark.parametrize("claim_id", ROWS_4_TO_7)
def test_rows_4_to_7_build_each_blown_core_once(catalog, monkeypatch, claim_id):
    # the adjoin certificate and the tight target read one chain of the
    # blown core: count the builds on its domain from its generators
    claim = catalog.claim_by_id(claim_id)
    q = factorize._ANTIFLAG_ROWS[claim.row[:1]][0]
    core = ext_subgroup(claim.row[1:], claim.params["m"], 2, q)
    domain = core.home_domain()
    core_perms = sorted(domain.perm_of(g).tobytes() for g in core.generators)
    chains = []
    real = grpcore.StabChain.build.__func__

    def recording(cls, *args, **kwargs):
        chains.append(real(cls, *args, **kwargs))
        return chains[-1]

    monkeypatch.setattr(grpcore.StabChain, "build", classmethod(recording))
    report = verify_claim(claim)
    assert report.overall == "pass" and report.tight is True
    core_builds = [c for c in chains if c.domain is domain
                   and sorted(t.perm.tobytes() for t in c.originals) == core_perms]
    assert len(core_builds) == 1


@pytest.mark.extended
@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"), reason="seed sweep is opt-in: set RUN_EXTENDED=1")
def test_desk_results_do_not_depend_on_the_seed(catalog):
    claims = [c for c in catalog.desk_grid() if c.tier == "desk"]

    def results(base_seed):
        out = {}
        for claim in claims:
            rep = verify_claim(claim, base_seed=base_seed)
            out[claim.claim_id] = (rep.overall, [(s.name, s.verdict, s.intersection_order, s.orbit_sizes)
                                                 for s in rep.strategies])
        return out

    first = results(1)
    for base_seed in range(2, 21):
        got = results(base_seed)
        assert {cid: r for cid, r in got.items() if r != first[cid]} == {}, f"base seed {base_seed}"


@pytest.mark.extended
@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"), reason="duality sweep points are opt-in: set RUN_EXTENDED=1")
@pytest.mark.parametrize("row, m", [("7SL", 4), ("7Sp", 4), ("5SL", 7), ("5SL", 8), ("5Sp", 8)])
def test_duality_sweep_points_certify_the_intersection(tmp_path, row, m):
    # their pair domains are past the cap, V - 0 and V* - 0 are not: the
    # order strategy passes with the closed-form |H n K|; each point runs
    # through verify --row in a fresh process, which reports its wall time
    # and peak RSS
    script = ("import resource, sys, time; from grpfact.cli import main; t = time.perf_counter(); "
              f"rc = main(['verify', '--row', '{row}:m={m}', '--out', sys.argv[1]]); "
              "print(rc, time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, check=True,
                         timeout=900)
    rc, wall, rss_kib = run.stdout.split()[-3:]
    order = next(s for s in json.loads((tmp_path / f"adhoc-{row}-m{m}.json").read_text())["strategies"]
                 if s["name"] == "order")
    print(f"\n{row}:m={m}: order {order['verdict']}, |H n K| = {order['intersection_order']}, "
          f"{float(wall):.2f} s, peak RSS {int(rss_kib) / 1024:.0f} MiB")
    assert rc == "0" and order["verdict"] == "pass"
    assert order["intersection_order"] == orders.identity_check(row, {"m": m}).intersection_order


def test_6sp_sweep_point_at_m4_reads_its_spectrum_on_the_support(catalog, monkeypatch):
    # the intersection that structure_hint labels has 4,080 elements on
    # 65,535 vectors and a support of 255 points; forming each element's
    # permutation of the domain instead peaks above 100 MiB here, in the
    # transversal stacks of the domain and one int64 row per element
    peaks = []
    spectrum = sporadic.exact_spectrum

    def traced(chain):
        tracemalloc.start()
        try:
            return spectrum(chain)
        finally:
            peaks.append((chain.order(), chain.domain.size, tracemalloc.get_traced_memory()[1]))
            tracemalloc.stop()

    monkeypatch.setattr(sporadic, "exact_spectrum", traced)
    report = verify_claim(catalog.instantiate("6Sp", {"m": 4}))
    assert report.overall == "pass"
    order = next(s for s in report.strategies if s.name == "order")
    assert order.verdict == "pass" and order.intersection_order == 4080
    assert order.details["intersection_hint"] == "order 4080, spectrum [1, 2, 3, 5, 15, 17]"
    assert [peak[:2] for peak in peaks] == [(4080, 65535)]
    assert peaks[0][2] < 2**20
