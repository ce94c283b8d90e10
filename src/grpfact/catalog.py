"""Machine-readable factorization catalog: both tables, side conditions,
the default desk verification grid and the legal sweep grid of Table 1.

The catalog ships as a hash-pinned JSON data file; the loader refuses a
file whose digest disagrees with the manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import product

from . import orders

# importing hashlib maps OpenSSL's libcrypto, several MB resident, only to
# hash this one file; the interpreter's built-in sha256 gives the same digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256


class CatalogError(ValueError):
    pass


_CONDITIONS = {
    "n=a*b": lambda p: p["a"] * p["b"] == p.get("n", p["a"] * p["b"]),
    "n=6*b": lambda p: 6 * p["b"] == p.get("n", 6 * p["b"]),
    "a>=2": lambda p: p["a"] >= 2,
    "b>=2": lambda p: p["b"] >= 2,
    "m>=2": lambda p: p["m"] >= 2,
    "n>=4": lambda p: p.get("n", p.get("a", 0) * p.get("b", 1)) >= 4,
    "a_even": lambda p: p["a"] % 2 == 0,
    "m_even": lambda p: p["m"] % 2 == 0,
    "n_even": lambda p: p["n"] % 2 == 0,
    "q_even": lambda p: p["q"] % 2 == 0,
    "sp_proper": lambda p: not (p["a"] == 2 and p["b"] == 1),
    "x_nonsolvable": lambda p: (p["a"], p["q"] ** p["b"]) not in ((2, 2), (2, 3)),
    "x_nonsolvable_sp": lambda p: not (p["a"] == 2 and p["q"] ** p["b"] <= 3),
}

# the variants of Table 1 that take parameters: their parameter names and
# the dimension n of the ambient SL_n(q) at a point
_VARIANTS = {
    "1SL": (("a", "b", "q"), lambda p: p["a"] * p["b"]),
    "1Sp": (("a", "b", "q"), lambda p: p["a"] * p["b"]),
    "2": (("b", "q"), lambda p: 6 * p["b"]),
    "3": (("n", "q"), lambda p: p["n"]),
    **{f"{r}{kind}": (("m",), lambda p: 2 * p["m"]) for r in "4567" for kind in ("SL", "Sp")},
    "8": (("q",), lambda p: 6),
    "8Sp": (("q",), lambda p: 6),
}
# the values the sweep grid tries for each parameter; it keeps n <= 16
_SWEEP_VALUES = {"a": range(1, 17), "b": range(1, 17), "n": range(1, 17),
                 "m": range(1, 9), "q": orders.PRIME_POWERS_16}


@dataclass
class ClaimTemplate:
    row: str
    table_row: int
    z_label: str
    x_labels: list[str]
    y_label: str
    conditions: list[str]
    lemmas: list[str]
    structure_discrepancy: dict | None = None


@dataclass
class FactorizationClaim:
    claim_id: str
    row: str
    params: dict
    tier: str
    expect: str
    checks: list[str]
    expected_intersection: int | None = None
    intersection_hint: str | None = None
    notes: str = ""
    template: ClaimTemplate | None = field(default=None, repr=False)


@dataclass
class Table2Row:
    row: int
    socle: str
    h_inf: list[str]
    k_inf: str
    conditions: str
    t1_rows: list[int]


class Catalog:
    def __init__(self, raw: dict):
        self.raw = raw
        self.templates: dict[str, ClaimTemplate] = {}
        for entry in raw["table1"]:
            for variant, vdata in entry["variants"].items():
                self.templates[variant] = ClaimTemplate(
                    variant,
                    entry["row"],
                    entry["z"],
                    entry["x"],
                    entry["y"],
                    vdata["conditions"],
                    entry["lemmas"],
                    entry.get("structure_discrepancy"),
                )
        self.table2 = [
            Table2Row(e["row"], e["l"], e["h_inf"], e["k_inf"], e["conditions"], e["t1_rows"])
            for e in raw["table2"]
        ]
        self.lemma_tags = list(raw["lemma_tags"])

    def point_error(self, row: str, params: dict) -> str | None:
        """Why (row, params) is no point of Table 1, or None if it is one:
        the row must take parameters, exactly its own, with q a prime power,
        under its side conditions."""
        if row not in self.templates:
            return f"unknown catalog row {row!r}"
        if row not in _VARIANTS:
            ids = [e["claim_id"] for e in self.raw["desk_grid"] if e["row"] == row]
            return f"row {row} takes no parameters; its catalog claims are {', '.join(ids)}"
        names = _VARIANTS[row][0]
        if sorted(params) != sorted(names):
            return f"row {row} takes exactly the parameters {list(names)}; got {sorted(params)}"
        if "q" in params and not orders._is_prime_power(params["q"]):
            return f"row {row}: q = {params['q']} is not a prime power"
        for cond in self.templates[row].conditions:
            if not _CONDITIONS[cond](params):
                return f"row {row}: condition {cond!r} violated by {params}"
        return None

    def instantiate(self, row: str, params: dict) -> FactorizationClaim:
        """Bind a template to concrete parameters, validating side conditions."""
        if (error := self.point_error(row, params)) is not None:
            raise CatalogError(error)
        params_id = "".join(f"{k}{v}" for k, v in sorted(params.items()))
        return FactorizationClaim(
            claim_id=f"adhoc-{row}-{params_id}" if params_id else f"adhoc-{row}",
            row=row,
            params=dict(params),
            tier="desk",
            expect="factorization",
            checks=["identity", "order", "orbit"],
            template=self.templates[row],
        )

    def desk_grid(self, tier: str | None = "desk") -> list[FactorizationClaim]:
        """The default verification matrix (desk tier unless told otherwise)."""
        out = []
        for entry in self.raw["desk_grid"]:
            if tier is not None and entry["tier"] != tier:
                continue
            claim = FactorizationClaim(
                claim_id=entry["claim_id"],
                row=entry["row"],
                params=dict(entry["params"]),
                tier=entry["tier"],
                expect=entry["expect"],
                checks=list(entry["checks"]),
                expected_intersection=entry.get("expected_intersection"),
                intersection_hint=entry.get("intersection_hint"),
                notes=entry.get("notes", ""),
                template=self.templates.get(entry["row"]),
            )
            if claim.row in _VARIANTS and (error := self.point_error(claim.row, claim.params)):
                raise CatalogError(f"{claim.claim_id}: {error}")
            out.append(claim)
        return out

    def sweep_grid(self) -> list[tuple[str, dict]]:
        """Every point of Table 1 with n <= 16 and q <= 16: each variant's
        points that pass its side conditions, then rows 9-15 at {}."""
        out = []
        for row, (names, dim) in _VARIANTS.items():
            for values in product(*(_SWEEP_VALUES[k] for k in names)):
                params = dict(zip(names, values))
                if dim(params) <= 16 and self.point_error(row, params) is None:
                    out.append((row, params))
        return out + [(row, {}) for row in self.templates if row not in _VARIANTS]

    def claim_by_id(self, claim_id: str) -> FactorizationClaim:
        for claim in self.desk_grid(tier=None):
            if claim.claim_id == claim_id:
                return claim
        raise CatalogError(f"no catalog claim {claim_id!r}")

    def cross_reference_audit(self) -> dict:
        """Table 2 -> Table 1 mapping must be total, acyclic, and in range."""
        t1_rows = {e["row"] for e in self.raw["table1"]}
        covered = set()
        for row in self.table2:
            if not row.t1_rows:
                raise CatalogError(f"table 2 row {row.row} maps nowhere")
            for target in row.t1_rows:
                if target not in t1_rows:
                    raise CatalogError(f"table 2 row {row.row} maps to missing row {target}")
                covered.add(target)
        return {"table1_rows_covered": sorted(covered), "total": True}

    def lemma_coverage(self) -> dict[str, list[str]]:
        """Which templates cite each lemma tag; the audit test wants all covered."""
        cover: dict[str, list[str]] = {tag: [] for tag in self.lemma_tags}
        for template in self.templates.values():
            for tag in template.lemmas:
                cover.setdefault(tag, []).append(template.row)
        return cover


_CATALOG: Catalog | None = None


def load_catalog() -> Catalog:
    global _CATALOG
    if _CATALOG is None:
        data_dir = resources.files("grpfact") / "data"
        blob = (data_dir / "catalog.json").read_bytes()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        digest = sha256(blob).hexdigest()
        if digest != manifest["catalog.json"]:
            raise CatalogError(f"catalog hash mismatch: {digest} != pinned {manifest['catalog.json']}")
        _CATALOG = Catalog(json.loads(blob))
    return _CATALOG


def identity_for_claim(claim: FactorizationClaim) -> orders.IdentityReport | None:
    """The row's exact order identity at the claim's parameters, if formulaic."""
    if claim.row.startswith(("suite", "neg")):
        return None
    return orders.identity_check(claim.row, claim.params)
