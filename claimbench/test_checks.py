"""Each output check accepts a right result and rejects a corrupted one.

    python3 -m pytest claimbench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402


def _report(claim_id, strategies, overall="pass"):
    return {"claim_id": claim_id, "params": {}, "strategies": strategies,
            "tight": None, "overall": overall}


def _strategy(name, io=None, orbits=(), verdict="pass"):
    return {"name": name, "verdict": verdict, "intersection_order": io,
            "orbit_sizes": list(orbits), "wall_ms": 0, "details": {}}


GOOD = {
    "t1r01-sl-a2b2q2": _report("t1r01-sl-a2b2q2", [
        _strategy("identity", 4), _strategy("order", 4), _strategy("orbit", orbits=[15])]),
    "t1r04-sp-m4": _report("t1r04-sp-m4", [
        _strategy("identity", 60), _strategy("order", 60), _strategy("orbit", orbits=[32640])]),
    "t1r13": _report("t1r13", [
        _strategy("identity", 3), _strategy("order", 3), _strategy("orbit", orbits=[364, 364])]),
    "t1r15": _report("t1r15", [_strategy("identity", 4080)]),
    "neg-sl6-g2p": _report("neg-sl6-g2p", [
        _strategy("order", 6, verdict="fail"), _strategy("orbit", orbits=[1008], verdict="fail")]),
    "neg-sp6-g2p": _report("neg-sp6-g2p", [
        _strategy("order", 6, verdict="fail"), _strategy("enumerate", 6, verdict="fail")]),
}


@pytest.mark.parametrize("claim_id", sorted(GOOD))
def test_right_reports_pass(claim_id):
    assert checks.check_claim(claim_id, GOOD[claim_id]) == []


def test_every_workload_claim_has_closed_form_orders():
    from workloads import DESK

    for claim_id in DESK:
        exp = checks.CLAIMS[claim_id]
        if not exp["negative"]:
            assert exp["H"] * exp["K"] % exp["G"] == 0, claim_id


@pytest.mark.parametrize("factor", [2, 3])
def test_intersection_order_off_by_a_factor_is_rejected(factor):
    bad = copy.deepcopy(GOOD["t1r04-sp-m4"])
    bad["strategies"][1]["intersection_order"] *= factor
    assert checks.check_claim("t1r04-sp-m4", bad)


def test_wrong_orbit_size_is_rejected():
    bad = copy.deepcopy(GOOD["t1r13"])
    bad["strategies"][2]["orbit_sizes"] = [364, 182]
    assert checks.check_claim("t1r13", bad)


def test_failed_overall_is_rejected():
    bad = copy.deepcopy(GOOD["t1r15"])
    bad["overall"] = "fail"
    assert checks.check_claim("t1r15", bad)


@pytest.mark.parametrize("claim_id", ["neg-sl6-g2p", "neg-sp6-g2p"])
def test_negative_control_that_factorizes_is_rejected(claim_id):
    exp = checks.CLAIMS[claim_id]
    bad = copy.deepcopy(GOOD[claim_id])
    bad["strategies"][0]["intersection_order"] = exp["H"] * exp["K"] // exp["G"]
    assert checks.check_claim(claim_id, bad)


def test_negative_control_orbit_covering_the_ambient_is_rejected():
    bad = copy.deepcopy(GOOD["neg-sl6-g2p"])
    bad["strategies"][1]["orbit_sizes"] = [2016]
    assert checks.check_claim("neg-sl6-g2p", bad)


def test_big_orbit():
    good = {"claim_id": "t1r14-ext", "orbit_size": 8386560, "seed_tag": "pair"}
    assert checks.check_big_orbit(good) == []
    assert checks.check_big_orbit(dict(good, orbit_size=8386560 // 2))
    assert checks.check_big_orbit(dict(good, orbit_size=4095))


def test_reports_must_match_across_passes():
    a = GOOD["t1r01-sl-a2b2q2"]
    b = copy.deepcopy(a)
    b["strategies"][0]["details"] = {"note": "changed"}
    same = [checks.digest(a), checks.digest(copy.deepcopy(a))]
    assert checks.check_same_across_passes("x", same) == []
    assert checks.check_same_across_passes("x", same + [checks.digest(b)])


def test_check_passes_counts_failures_and_problems():
    good_op = {"id": "t1r15", "seconds": 0.1, "report": GOOD["t1r15"]}
    bad = copy.deepcopy(GOOD["t1r15"])
    bad["strategies"][0]["intersection_order"] = 4080 * 2
    passes = [
        {"ops": [good_op, {"id": "t1r14", "error": "RuntimeError()"}]},
        {"ops": [{"id": "t1r15", "seconds": 0.2, "report": bad}]},
    ]
    attempted, failed, problems = run.check_passes("desk", passes)
    assert (attempted, failed) == (3, 1)
    assert any("intersection order" in p for p in problems)
    assert any("differ across passes" in p for p in problems)
    assert run.fastest_sum(passes) == pytest.approx(0.1)
