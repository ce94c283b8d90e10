"""Exact order formulas and the arithmetic identity behind every catalog row.

Everything here is integer arithmetic: |G| * |H n K| == |H| * |K| decides a
factorization of subgroups, so each row of the catalog reduces to one exact
identity over its legal parameter grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


class OrderError(ValueError):
    pass


def sl_order(n: int, q: int) -> int:
    if n <= 1:
        return 1
    return q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(2, n + 1))


def sp_order(n: int, q: int) -> int:
    if n == 0:
        return 1
    if n % 2:
        raise OrderError("symplectic groups need even dimension")
    m = n // 2
    return q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))


def sp_derived_order(n: int, q: int) -> int:
    """|Sp_n(q)'|: a proper subgroup only at (n, q) in {(2,2),(2,3),(4,2)} within our grids."""
    base = sp_order(n, q)
    if (n, q) in ((2, 2), (4, 2)):
        return base // 2
    if (n, q) == (2, 3):
        return base // 3  # Sp_2(3)' = SL_2(3)' = Q8, of order 24/3; not in any legal grid
    return base


def g2_order(q: int) -> int:
    return q**6 * (q**6 - 1) * (q**2 - 1)


def g2_derived_order(q: int) -> int:
    return g2_order(q) // 2 if q == 2 else g2_order(q)


def vector_stab_order(n: int, q: int) -> int:
    """|q^(n-1) : SL_(n-1)(q)|, the stabilizer of a nonzero vector in SL_n(q)."""
    return q ** (n - 1) * sl_order(n - 1, q)


_FAMILIES = {
    "SL": lambda n, q: sl_order(n, q),
    "Sp": lambda n, q: sp_order(n, q),
    "Sp'": lambda n, q: sp_derived_order(n, q),
    "G2": lambda n, q: g2_order(q),
    "G2'": lambda n, q: g2_derived_order(q),
    "vector_stab": lambda n, q: vector_stab_order(n, q),
}


def group_order(family: str, n: int, q: int) -> int:
    if family not in _FAMILIES:
        raise OrderError(f"unknown family {family!r} (use {', '.join(_FAMILIES)})")
    if not _is_prime_power(q):
        raise OrderError(f"q = {q} is not a prime power")
    return _FAMILIES[family](n, q)


def _is_prime_power(q: int) -> bool:
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    if p is None:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def scalar_count(n: int, q: int) -> int:
    """Number of scalar matrices inside SL_n(q)."""
    return gcd(n, q - 1)


def psl_order(n: int, q: int) -> int:
    return sl_order(n, q) // scalar_count(n, q)


# ---------------------------------------------------------------------------
# per-row identity arithmetic


@dataclass
class IdentityReport:
    row: str
    params: dict
    g_order: int
    h_order: int
    k_order: int
    intersection_order: int
    ok: bool
    note: str = ""

    @property
    def lhs(self) -> int:
        return self.g_order * self.intersection_order

    @property
    def rhs(self) -> int:
        return self.h_order * self.k_order


def _bracket_gcd(q: int, b: int) -> int:
    """gcd(q^(5b), q^(6b)/4): q^(5b) for q >= 4 or b >= 2, q^(6b)/4 at q = 2, b = 1."""
    return gcd(q ** (5 * b), q ** (6 * b) // 4)


def row_orders(row: str, params: dict) -> tuple[int, int, int, int, str]:
    """(|G|, |H|, |K|, |H n K|, note) at the linear level of the row's lemma."""
    p = params
    note = ""
    if row == "1SL":
        a, b, q = p["a"], p["b"], p["q"]
        n = a * b
        return (
            sl_order(n, q),
            sl_order(a, q**b),
            vector_stab_order(n, q),
            q ** (n - b) * sl_order(a - 1, q**b),
            note,
        )
    if row == "1Sp":
        a, b, q = p["a"], p["b"], p["q"]
        n = a * b
        if (a, b, q) == (4, 1, 2):
            inter = 2**2 * sp_order(2, 2)
            note = "exceptional intersection 2^2:Sp_2(2)"
        else:
            inter = q ** (n - b) * sp_order(a - 2, q**b)
        h = sp_order(a, q**b)
        if (a, q**b) == (4, 2):
            h //= 2
        return sl_order(n, q), h, vector_stab_order(n, q), inter, note
    if row == "2":
        b, q = p["b"], p["q"]
        n = 6 * b
        inter = _bracket_gcd(q, b) * sl_order(2, q**b)
        return sl_order(n, q), g2_derived_order(q**b), vector_stab_order(n, q), inter, note
    if row == "3":
        n, q = p["n"], p["q"]
        h = sp_derived_order(n, q)
        if (n, q) == (4, 2):
            inter = 3
            note = "exceptional case: intersection computed, not formulaic"
        else:
            inter = sp_order(n - 2, q)
        return sl_order(n, q), h, sl_order(n - 1, q), inter, note
    if row in ("4SL", "4Sp", "5SL", "5Sp"):
        m = p["m"]
        n = 2 * m
        wrap = 2  # psi has order 2f = 2 over GF(2)
        ambient_wrap = 1 if row.startswith("4") else 2
        if row.endswith("SL"):
            h, inter = wrap * sl_order(m, 4), sl_order(m - 1, 4)
        else:
            h, inter = wrap * sp_order(m, 4), sp_order(m - 2, 4)
        return (
            ambient_wrap * sl_order(n, 2),
            h,
            ambient_wrap * sl_order(n - 1, 2),
            inter,
            note,
        )
    if row in ("6SL", "6Sp", "7SL", "7Sp"):
        m = p["m"]
        n = 2 * m
        wrap = 4  # 2f = 4 over GF(4)
        if row.endswith("SL"):
            h, inter = wrap * sl_order(m, 16), sl_order(m - 1, 16)
        else:
            h, inter = wrap * sp_order(m, 16), sp_order(m - 2, 16)
        return 2 * sl_order(n, 4), h, 2 * sl_order(n - 1, 4), inter, note
    if row == "8":
        q = p["q"]
        return sl_order(6, q), g2_order(q), sl_order(5, q), sl_order(2, q), note
    if row == "8Sp":
        q = p["q"]
        return sp_order(6, q), g2_order(q), sp_order(4, q), sl_order(2, q), note
    if row == "9":
        return 360, 60, 60, 10, note
    if row == "10":
        return 2 * psl_order(3, 4), 336, 720, 6, note
    if row == "11a":
        return sl_order(4, 2), sl_order(3, 2), 2520, 21, note
    if row == "11b":
        return sl_order(4, 2), 2**3 * sl_order(3, 2), 2520, 168, note
    if row in ("12a", "12b", "12c"):
        z = psl_order(4, 3)
        y = 3**3 * sl_order(3, 3)
        x, i = {"12a": (120, 3), "12b": (240, 6), "12c": (960, 24)}[row]
        return z, x, y, i, note
    if row == "13":
        return psl_order(6, 3), 1092, 3**5 * sl_order(5, 3), 3, note
    if row == "14":
        return sl_order(12, 2), 2 * g2_order(4), sl_order(11, 2), sl_order(2, 4), note
    if row == "15":
        return 2 * sl_order(12, 4), 4 * g2_order(16), 2 * sl_order(11, 4), sl_order(2, 16), note
    raise OrderError(f"unknown row {row!r}")


def identity_check(row: str, params: dict) -> IdentityReport:
    g, h, k, inter, note = row_orders(row, params)
    return IdentityReport(row, dict(params), g, h, k, inter, g * inter == h * k, note)

