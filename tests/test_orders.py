"""Order formulas and the full identity sweep."""

import re
import time
from math import gcd

import pytest

from grpfact import orders
from grpfact.catalog import load_catalog


def _sweep():
    return [orders.identity_check(r, p) for r, p in load_catalog().sweep_grid()]


def test_formula_values():
    assert orders.sl_order(4, 2) == 20160
    assert orders.sl_order(2, 2) == 6
    assert orders.sl_order(3, 2) == 168
    assert orders.sp_order(6, 2) == 1451520
    assert orders.sp_order(4, 2) == 720
    assert orders.g2_order(4) == 251596800
    assert orders.g2_order(2) == 12096
    assert orders.g2_derived_order(2) == 6048
    assert orders.sl_order(1, 5) == 1
    assert orders.sp_order(0, 3) == 1


def test_group_order_dispatch():
    assert orders.group_order("SL", 4, 2) == 20160
    assert orders.group_order("Sp", 6, 2) == 1451520
    assert orders.group_order("G2", 6, 4) == 251596800
    assert orders.group_order("vector_stab", 4, 2) == 1344
    with pytest.raises(orders.OrderError):
        orders.group_order("SU", 3, 2)
    with pytest.raises(orders.OrderError):
        orders.sp_order(5, 2)


def test_projective_orders():
    assert orders.psl_order(2, 4) == 60
    assert orders.psl_order(4, 3) == orders.sl_order(4, 3) // 2
    assert orders.psl_order(2, 9) == 360
    assert orders.scalar_count(6, 4) == 3


def test_bracket_gcd_reproduces_both_branches():
    # gcd(q^5b, q^6b/4) is q^5b for q >= 4 and 2^(2+2) at q = 2, b = 1
    assert orders._bracket_gcd(2, 1) == 16
    for q in (4, 8, 16):
        for b in (1, 2):
            assert orders._bracket_gcd(q, b) == q ** (5 * b)
    assert orders._bracket_gcd(2, 2) == 2**10


def test_acceptance_spot_identities():
    r = orders.identity_check("1SL", {"a": 2, "b": 2, "q": 2})
    assert r.ok and (r.g_order, r.h_order, r.k_order, r.intersection_order) == (20160, 60, 1344, 4)
    assert orders.identity_check("1Sp", {"a": 4, "b": 1, "q": 2}).intersection_order == 24
    r2 = orders.identity_check("2", {"b": 1, "q": 2})
    assert r2.intersection_order == 96 and r2.h_order == 6048
    assert orders.identity_check("3", {"n": 6, "q": 2}).intersection_order == 720
    assert orders.identity_check("3", {"n": 4, "q": 2}).intersection_order == 3
    r4 = orders.identity_check("4SL", {"m": 2})
    assert r4.h_order * r4.k_order == 120 * 168 == 20160
    assert orders.identity_check("8", {"q": 2}).intersection_order == 6
    assert orders.identity_check("8Sp", {"q": 4}).intersection_order == 60
    assert orders.identity_check("9", {}).rhs == 3600
    assert orders.identity_check("13", {}).intersection_order == 3
    assert orders.identity_check("14", {}).intersection_order == 60
    assert orders.identity_check("15", {}).intersection_order == 4080


def test_row2_identity_matches_index_count():
    # |H| / |H n K| = q^n - 1 on the whole row-2 grid
    for q in (2, 4, 8, 16):
        for b in (1, 2):
            r = orders.identity_check("2", {"b": b, "q": q})
            assert r.ok
            assert r.h_order % r.intersection_order == 0
            assert r.h_order // r.intersection_order == q ** (6 * b) - 1


def test_sweep_full_grid_fast_and_clean():
    t0 = time.perf_counter()
    reports = _sweep()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert len(reports) == 520
    assert all(r.ok for r in reports)


def test_sweep_covers_every_row():
    rows = {r.row for r in _sweep()}
    for row in ("1SL", "1Sp", "2", "3", "4SL", "4Sp", "5SL", "5Sp", "6SL", "6Sp",
                "7SL", "7Sp", "8", "8Sp", "9", "10", "11a", "11b", "12a", "12b",
                "12c", "13", "14", "15"):
        assert row in rows


def test_sweep_respects_side_conditions():
    for row, params in load_catalog().sweep_grid():
        if row == "1SL":
            assert params["b"] >= 2 and params["a"] >= 2
        if row == "1Sp":
            assert params["a"] % 2 == 0
            assert not (params["a"] == 2 and params["b"] == 1)
        if row in ("2", "8"):
            assert params["q"] % 2 == 0
        if row == "3":
            assert params["n"] % 2 == 0


@pytest.mark.parametrize("family, q, reason", [
    ("XX", 2, "unknown family 'XX'"),
    ("SL", 6, "q = 6 is not a prime power"),
])
def test_group_order_refuses_bad_input(family, q, reason):
    with pytest.raises(orders.OrderError, match=re.escape(reason)):
        orders.group_order(family, 3, q)


def test_exceptional_sp_branch_boundary():
    # only (4,1,2) uses the exceptional order; neighbours take the generic one
    generic = orders.identity_check("1Sp", {"a": 4, "b": 1, "q": 3})
    assert generic.intersection_order == 3**3 * orders.sp_order(2, 3)
    assert generic.ok
    exceptional = orders.identity_check("1Sp", {"a": 4, "b": 1, "q": 2})
    assert "exceptional" in exceptional.note

