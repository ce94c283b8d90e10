"""Acceptance criteria, one test per criterion, one printed verdict line each.

Criterion 7 (the extended tier) is opt-in: set RUN_EXTENDED=1 to run it;
it needs roughly ten minutes and stays well under its one-hour budget.
"""

import os
import time

import pytest

from grpfact import orders
from grpfact.catalog import load_catalog
from grpfact.factorize import verify_claim

BASE_SEED = 20260810
_REPORT_CACHE = {}


def _report(claim_id, **kw):
    if claim_id not in _REPORT_CACHE:
        catalog = load_catalog()
        claim = catalog.claim_by_id(claim_id)
        t0 = time.perf_counter()
        rep = verify_claim(claim, base_seed=BASE_SEED, **kw)
        _REPORT_CACHE[claim_id] = (rep, time.perf_counter() - t0)
    return _REPORT_CACHE[claim_id]


def _intersections(rep):
    return {s.intersection_order for s in rep.strategies
            if s.intersection_order is not None and s.verdict != "skipped"}


def _say(line):
    print(f"\nACCEPTANCE  {line}")


def test_criterion_1_order_identity_sweep():
    t0 = time.perf_counter()
    reports = [orders.identity_check(r, p) for r, p in load_catalog().sweep_grid()]
    elapsed = time.perf_counter() - t0
    ok = all(r.ok for r in reports) and len(reports) == 520 and elapsed < 1.0
    _say(f"1 order-identity sweep: {len(reports)} tuples, {elapsed * 1000:.0f} ms, "
         f"{'pass' if ok else 'FAIL'}")
    assert all(r.ok for r in reports)
    assert len(reports) == 520
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "claim_id,expected_intersection",
    [
        ("t1r01-sl-a2b2q2", 4),
        ("t1r01-sp-a4b1q2", 24),
        ("t1r02-b1q2", 96),
        ("t1r03-n4q2", 3),
        ("t1r03-n6q2", 720),
        ("t1r04-m2", 1),
        ("t1r05-m2", 1),
        ("t1r08-q4-sp", 60),
    ],
)
def test_criterion_2_desk_verifications(claim_id, expected_intersection):
    rep, elapsed = _report(claim_id)
    ok = rep.overall == "pass" and _intersections(rep) == {expected_intersection} and elapsed < 60
    _say(f"2 {claim_id}: |H n K| = {expected_intersection}, {elapsed:.1f} s, "
         f"{'pass' if ok else 'FAIL'}")
    assert rep.overall == "pass"
    assert _intersections(rep) == {expected_intersection}
    assert elapsed < 60


def test_criterion_2_rows_4_5_product_identity():
    # 120 * 168 = 20160 at the linear level of the row-4 instance
    r = orders.identity_check("4SL", {"m": 2})
    ok = r.h_order == 120 and r.k_order == 168 and r.g_order == 20160 and r.ok
    _say(f"2 rows 4/5 arithmetic: 120*168 = 20160, {'pass' if ok else 'FAIL'}")
    assert ok


@pytest.mark.parametrize(
    "claim_id,expected",
    [
        ("t1r09", {10}),
        ("t1r10", {6}),
        ("t1r11-a", {21}),
        ("t1r11-b", {168}),
        ("t1r12-a", {3}),
        ("t1r12-b", {6}),
        ("t1r12-c", {24}),
        ("t1r13", {3}),
    ],
)
def test_criterion_3_sporadic_rows(claim_id, expected):
    rep, elapsed = _report(claim_id)
    ok = rep.overall == "pass" and _intersections(rep) == expected and elapsed < 120
    _say(f"3 {claim_id}: |X n Y| = {sorted(expected)}, {elapsed:.1f} s, "
         f"{'pass' if ok else 'FAIL'}")
    assert rep.overall == "pass"
    assert _intersections(rep) == expected
    assert elapsed < 120


def test_criterion_3_row13_discrepancy_reported():
    rep, _ = _report("t1r13")
    disc = rep.notes.get("structure_discrepancy", {})
    ok = disc.get("matches") == "table"
    _say(f"3 row 13 structure discrepancy: computed stabilizer matches the "
         f"{disc.get('matches')} reading, {'pass' if ok else 'FAIL'}")
    assert ok


@pytest.mark.parametrize("claim_id", ["neg-sp6-g2p", "neg-sl6-g2p"])
def test_criterion_4_negative_controls(claim_id):
    rep, elapsed = _report(claim_id)
    votes = [s for s in rep.strategies if s.verdict != "skipped"]
    ok = rep.overall == "pass" and votes and all(s.verdict == "fail" for s in votes)
    _say(f"4 {claim_id}: factorization fails as required, {'pass' if ok else 'FAIL'}")
    assert ok


@pytest.mark.parametrize("claim_id", ["suite-r1", "suite-r9"])
def test_criterion_5_section2_suites(claim_id):
    rep, elapsed = _report(claim_id)
    conj = next(s for s in rep.strategies if s.name == "conjugation")
    ok = (rep.overall == "pass" and conj.details["stable"] == 50
          and conj.details["spectra_preserved"] == 50)
    _say(f"5 {claim_id}: 50/50 conjugations stable, spectra preserved, {'pass' if ok else 'FAIL'}")
    assert ok


@pytest.mark.parametrize("claim_id", ["t1r04-m2", "t1r04-sp-m4", "t1r05-m2", "t1r06-m2", "t1r07-m2"])
def test_criterion_6_tightness_rows_4_to_7(claim_id):
    rep, _ = _report(claim_id)
    ok = rep.tight is True
    _say(f"6 {claim_id}: solvable residual equals the minimal-factor subgroup, "
         f"{'pass' if ok else 'FAIL'}")
    assert ok


def test_criterion_6_row12_residual_reading():
    rep, _ = _report("t1r12-a")
    reading = rep.notes.get("residual_reading", {})
    ok = rep.tight is True and reading.get("x_residual_order") == 60
    _say(f"6 t1r12-a: S5 witness has A5 residual (order 60), {'pass' if ok else 'FAIL'}")
    assert ok


@pytest.mark.extended
@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"),
                    reason="extended tier is opt-in: set RUN_EXTENDED=1")
def test_criterion_7_extended_tier():
    rep, elapsed = _report("t1r14-ext", max_orbit_points=2**25)
    orbit_strategy = next(s for s in rep.strategies if s.name == "orbit")
    ok = (rep.overall == "pass" and orbit_strategy.orbit_sizes == [8386560]
          and _intersections(rep) == {60} and rep.tight is True and elapsed < 3600)
    _say(f"7 t1r14-ext: 8386560-point orbit covered, |H n K| = 60, "
         f"{elapsed:.0f} s, {'pass' if ok else 'FAIL'}")
    assert ok


@pytest.mark.extended
@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"),
                    reason="extended tier is opt-in: set RUN_EXTENDED=1")
def test_criterion_7_row15_vector_witness():
    rep, elapsed = _report("t1r15-ext", max_orbit_points=2**25)
    orbit_strategy = next(s for s in rep.strategies if s.name == "vector_orbit")
    ok = rep.overall == "pass" and orbit_strategy.orbit_sizes == [4**12 - 1]
    _say(f"7 t1r15-ext: 16777215-point vector orbit witness, {elapsed:.0f} s, "
         f"{'pass' if ok else 'FAIL'}")
    assert ok
