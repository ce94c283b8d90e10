"""Verification engine behavior: strategies, agreement, negative controls."""

import numpy as np
import pytest
from jsonschema import validate

from grpfact import factorize, grpcore, orders, sporadic
from grpfact.catalog import load_catalog
from grpfact.constructors import classical_generators, ext_subgroup, stabilizer_subgroup
from grpfact.factorize import (
    REPORT_SCHEMA,
    check_tight,
    claim_seed,
    intersect,
    structure_hint,
    verify,
    verify_claim,
)
from grpfact.grpcore import GroupSpec
from grpfact.sporadic import sp4_2_derived


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


def test_generic_verify_wrapper():
    G = classical_generators("SL", 4, 2)
    H = ext_subgroup("SL", 2, 2, 2)
    K = stabilizer_subgroup("vector", 4, 2)
    out = verify(G, H, K)
    assert out["verdict"]
    assert out["intersection_order"] == 4
    assert out["orbit_size"] == 15


def test_structure_hints():
    K = stabilizer_subgroup("antiflag", 4, 2)
    assert structure_hint(K) == "PSL_2(7)"  # SL_3(2): same order and spectrum


def test_check_tight_positive_and_negative():
    H = ext_subgroup("SL", 2, 2, 2, "psi")
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
    assert names == ["identity", "order", "orbit", "sample"]
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
    rep = verify_claim(catalog.claim_by_id("t1r10"))
    assert rep.overall == "pass"
    enumerate_strategy = next(s for s in rep.strategies if s.name == "enumerate")
    extensions = enumerate_strategy.details["extensions"]
    assert set(extensions) == {"gamma", "phi", "phi_gamma"}
    verdicts = {k: v["verdict"] for k, v in extensions.items()}
    assert any(v == "factorizes" for v in verdicts.values())


def test_determinism_same_seed_same_report(catalog):
    claim = catalog.claim_by_id("t1r09")
    a = verify_claim(claim, base_seed=123).as_dict()
    b = verify_claim(claim, base_seed=123).as_dict()
    assert a == b
    assert claim_seed("t1r09", 123) == claim_seed("t1r09", 123)


def test_timings_cover_every_strategy(catalog, monkeypatch):
    # a fake clock that advances one second per reading: every timed block
    # reads at least 1000 ms, and an untimed strategy stays at 0
    ticks = iter(range(10**9))
    monkeypatch.setattr(factorize.time, "perf_counter", lambda: float(next(ticks)))
    for cid in ("t1r09", "t1r11-a", "t1r12-b", "t1r13", "suite-r1"):
        claim = catalog.claim_by_id(cid)
        timed = verify_claim(claim, record_timings=True).as_dict()
        assert timed["overall"] == "pass"
        if not claim.row.startswith("suite"):
            names = [s["name"] for s in timed["strategies"]]
            assert names == [c for c in claim.checks if c != "discrepancy"], cid
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


def test_locator_budget_exhaustion_is_a_fail_report(catalog, monkeypatch):
    def exhausted(rng):
        raise sporadic.SearchBudgetError("search budget exhausted locating A7")

    monkeypatch.setattr(sporadic, "locate_a7", exhausted)
    rep = verify_claim(catalog.claim_by_id("t1r11-a"))
    assert rep.overall == "fail"
    assert rep.strategies == []
    assert "search budget exhausted" in rep.reason


def test_row14_extended_orbit_covers_every_pair_point(catalog):
    # the orbit certificate of t1r14-ext: the blown G2(4).2 on pair points of GF(2)^12
    claim = catalog.claim_by_id("t1r14-ext")
    setup = factorize.build_setup(claim, np.random.default_rng(claim_seed(claim.claim_id, 20260810)))
    assert setup.orbit_seed.tag == "pair"
    assert grpcore.orbit(setup.H, setup.orbit_seed).size == (2**12 - 1) * 2**11
