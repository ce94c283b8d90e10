"""Catalog data: hash pin, side conditions, cross-references, coverage."""

import hashlib
import json
import re
from collections import Counter
from importlib import resources

import pytest

from grpfact import catalog as cat
from grpfact.catalog import CatalogError, load_catalog


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_hash_is_pinned_and_matches():
    data_dir = resources.files("grpfact") / "data"
    blob = (data_dir / "catalog.json").read_bytes()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert hashlib.sha256(blob).hexdigest() == manifest["catalog.json"]


@pytest.fixture
def tampered_catalog(monkeypatch, tmp_path):
    """Point the loader at a data directory whose catalog has one extra byte."""
    data_dir = resources.files("grpfact") / "data"
    blob = (data_dir / "catalog.json").read_bytes() + b" "
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "catalog.json").write_bytes(blob)
    (tmp_path / "data" / "manifest.json").write_text((data_dir / "manifest.json").read_text())
    monkeypatch.setattr(cat, "_CATALOG", None)
    monkeypatch.setattr(cat.resources, "files", lambda package: tmp_path)
    return blob


def test_tampered_catalog_rejected(tampered_catalog):
    pinned = json.loads((resources.files("grpfact") / "data" / "manifest.json").read_text())
    assert hashlib.sha256(tampered_catalog).hexdigest() != pinned["catalog.json"]
    with pytest.raises(CatalogError, match="catalog hash mismatch"):
        load_catalog()


def test_loader_refuses_a_tampered_catalog(tampered_catalog):
    # the loader hashes with the interpreter's built-in sha256, not hashlib's
    assert cat.sha256(tampered_catalog).hexdigest() == hashlib.sha256(tampered_catalog).hexdigest()
    with pytest.raises(CatalogError, match="catalog hash mismatch"):
        load_catalog()
    # a refused load caches nothing, so the next load checks the pin again
    assert cat._CATALOG is None
    with pytest.raises(CatalogError, match="catalog hash mismatch"):
        load_catalog()


def test_fifteen_table1_rows(catalog):
    assert len(catalog.raw["table1"]) == 15
    assert len(catalog.table2) == 13


def test_instantiate_validates_conditions(catalog):
    claim = catalog.instantiate("1SL", {"a": 2, "b": 2, "q": 2})
    assert claim.row == "1SL"
    with pytest.raises(CatalogError):
        catalog.instantiate("2", {"b": 1, "q": 3})  # q even required
    with pytest.raises(CatalogError):
        catalog.instantiate("1SL", {"a": 1, "b": 2, "q": 2})
    with pytest.raises(CatalogError):
        catalog.instantiate("1Sp", {"a": 3, "b": 2, "q": 2})  # a even
    with pytest.raises(CatalogError):
        catalog.instantiate("nope", {})
    # rows 9-15 take no parameters, and the refusal names their catalog
    # claims; an adhoc claim of row 9 or 10 had no stabilizer for its order check
    for row, ids in (("9", "t1r09"), ("10", "t1r10")):
        with pytest.raises(CatalogError, match=f"takes no parameters; its catalog claims are {ids}"):
            catalog.instantiate(row, {})
    exactly = "takes exactly the parameters ['a', 'b', 'q']; got "
    with pytest.raises(CatalogError, match=re.escape(exactly + "['a', 'b', 'n', 'q']")):
        catalog.instantiate("1SL", {"a": 2, "b": 2, "q": 2, "n": 4})
    with pytest.raises(CatalogError, match=re.escape(exactly + "['a', 'q']")):
        catalog.instantiate("1Sp", {"a": 4, "q": 2})  # b missing


def test_row6_divisor_condition(catalog):
    claim = catalog.instantiate("6SL", {"m": 3})
    from math import gcd

    assert gcd(claim.params["m"], 3) == 3  # d = (m,3) recorded via params


def test_sweep_grid_is_every_legal_point(catalog):
    grid = catalog.sweep_grid()
    counts = Counter(row for row, _ in grid)
    assert len(grid) == 520
    assert counts == {
        "1SL": 190, "1Sp": 190, "2": 8, "3": 70,
        **{f"{r}SL": 7 for r in "4567"}, **{f"{r}Sp": 4 for r in "4567"},
        "8": 4, "8Sp": 4,
        **{row: 1 for row in ("9", "10", "11a", "11b", "12a", "12b", "12c", "13", "14", "15")},
    }
    for row, params in grid:
        if catalog.templates[row].table_row <= 8:
            assert catalog.instantiate(row, params).params == params
        else:
            assert params == {}


def test_condition_and_variant_tables_match_the_catalog(catalog):
    # a side condition or a parameterized variant added to catalog.json
    # must be wired into _CONDITIONS and _VARIANTS
    used = {c for e in catalog.raw["table1"] for v in e["variants"].values() for c in v["conditions"]}
    assert used == set(cat._CONDITIONS) and len(used) == 13
    with_params = {row for row, t in catalog.templates.items() if t.conditions}
    assert with_params == set(cat._VARIANTS) and len(with_params) == 14


def test_desk_grid_contents(catalog):
    grid = catalog.desk_grid()
    ids = {c.claim_id for c in grid}
    # every table-1 row appears; the exceptional cases and controls included
    for required in ("t1r01-sl-a2b2q2", "t1r01-sp-a4b1q2", "t1r02-b1q2",
                     "t1r03-n4q2", "t1r03-n6q2", "t1r04-m2", "t1r05-m2",
                     "t1r06-m2", "t1r07-m2", "t1r08-q2", "t1r08-q4-sp",
                     "t1r09", "t1r10", "t1r11-a", "t1r11-b", "t1r12-a",
                     "t1r12-b", "t1r12-c", "t1r13", "t1r14", "t1r15",
                     "neg-sp6-g2p", "neg-sl6-g2p", "suite-r1", "suite-r9"):
        assert required in ids
    rows_present = {c.row for c in grid if c.template is not None}
    assert {catalog.templates[r].table_row for r in rows_present} == set(range(1, 16))


def test_negative_controls_expect_failure(catalog):
    negs = [c for c in catalog.desk_grid() if c.expect == "no_factorization"]
    assert len(negs) == 2


def test_extended_tier(catalog):
    ext = catalog.desk_grid(tier="extended")
    assert {c.claim_id for c in ext} == {"t1r14-ext", "t1r15-ext"}


def test_cross_reference_total(catalog):
    audit = catalog.cross_reference_audit()
    assert audit["total"]
    assert audit["table1_rows_covered"] == list(range(1, 16))


def test_lemma_coverage_complete(catalog):
    cover = catalog.lemma_coverage()
    for tag in catalog.lemma_tags:
        assert cover.get(tag), f"lemma tag {tag} not referenced by any template"


def test_row13_discrepancy_recorded(catalog):
    template = catalog.templates["13"]
    assert template.structure_discrepancy is not None
    assert len(template.structure_discrepancy["y_candidates"]) == 2


def test_claim_by_id_roundtrip(catalog):
    claim = catalog.claim_by_id("t1r09")
    assert claim.row == "9" and claim.expected_intersection == 10
    with pytest.raises(CatalogError):
        catalog.claim_by_id("missing")
