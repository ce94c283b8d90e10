"""CLI contract: selections, reports, exit codes, byte determinism."""

import json
import tracemalloc
from pathlib import Path

import pytest

from grpfact.cli import main


def test_verify_single_row(tmp_path, capsys):
    rc = main(["verify", "--row", "t1r01-sl-a2b2q2", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "t1r01-sl-a2b2q2.json").read_text())
    assert report["overall"] == "pass"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["all_pass"]
    assert "ALL CLAIMS PASS" in capsys.readouterr().out


def test_verify_negative_controls_pass_by_failing(tmp_path):
    rc = main(["verify", "--negative-controls", "--out", str(tmp_path)])
    assert rc == 0
    for cid in ("neg-sp6-g2p", "neg-sl6-g2p"):
        report = json.loads((tmp_path / f"{cid}.json").read_text())
        assert report["overall"] == "pass"
        assert all(s["verdict"] == "fail" for s in report["strategies"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_byte_determinism(tmp_path, jobs):
    # each run is compared with a --jobs 1 run
    rows = ["--row", "t1r09", "--row", "t1r03-n4q2", "--row", "suite-r1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out, j in ((out1, 1), (out2, jobs)):
        assert main(["verify", *rows, "--seed", "99", "--jobs", str(j), "--out", str(out)]) == 0
    for name in ("t1r09.json", "t1r03-n4q2.json", "suite-r1.json", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_memory_budget_below_the_orbit_target_skips_the_orbit(tmp_path):
    # 16 MB holds 699,050 points, far below row 14's 8,386,560 pair points
    rc = main(["verify", "--row", "t1r14-ext", "--memory-budget", "16", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "t1r14-ext.json").read_text())
    orbit = next(s for s in report["strategies"] if s["name"] == "orbit")
    assert orbit["verdict"] == "skipped"
    assert orbit["details"]["max_points"] < orbit["details"]["target"] == 8386560
    assert "memory budget" in orbit["details"]["reason"]
    # a skipped certificate is left out of the vote; the others decide
    assert rc == 0 and report["overall"] == "pass"


def test_order_sweep_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    rc = main(["tools", "order", "--sweep", "--csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) > 300
    assert all(line.endswith("ok") for line in lines[1:])


def test_order_single(capsys):
    assert main(["tools", "order", "--family", "Sp", "--n", "6", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1451520"


@pytest.mark.parametrize("family, q, reason", [
    ("XX", 2, "unknown family 'XX'"),
    ("SL", 6, "q = 6 is not a prime power"),
])
def test_order_single_bad_input_is_a_usage_error(capsys, family, q, reason):
    assert main(["tools", "order", "--family", family, "--n", "3", "--q", str(q)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and reason in out.err


def test_orbit_tool(capsys):
    assert main(["tools", "orbit", "--group", "SL:4:2", "--point", "e1",
                 "--action", "vector"]) == 0
    assert ": 15" in capsys.readouterr().out


def test_orbit_tool_pair(capsys):
    assert main(["tools", "orbit", "--group", "SL:4:2", "--point", "e1;e1",
                 "--action", "pair"]) == 0
    assert ": 120" in capsys.readouterr().out


@pytest.mark.parametrize("point, action, form", [
    ("e1", "pair", "expected v;w"),              # a pair or antiflag needs v;w
    ("e1;e1", "vector", "expected one vector"),  # a vector point is one vector
    ("e5", "vector", "1 <= K <= 4"),             # eK past n
    ("e0", "vector", "1 <= K <= 4"),             # e0 is no basis vector
    ("e1;e2", "pair", "not a pair"),             # w(v) = 0
    ("e1;e2", "antiflag", "not an antiflag"),
])
def test_orbit_tool_malformed_point_is_a_usage_error(point, action, form):
    with pytest.raises(SystemExit) as exc:
        main(["tools", "orbit", "--group", "SL:4:2", "--point", point, "--action", action])
    assert form in str(exc.value.code) and repr(point) in str(exc.value.code)


@pytest.mark.parametrize("group, reason", [
    ("SL:x:2", ""),                                    # n is not an integer
    ("SL:3", ""),                                      # q missing
    ("SL:2:289", "not a supported field size"),        # 17^2: p past the table
    ("SL:2:0", "q = 0 is not a supported field size"),
    ("Sp:3:2", "Sp needs even n"),
    ("G2:8", "G2 construction supports even q"),
    ("SL:2:512", "GF(2^9) is not a supported field"),  # 2^9 > 256
])
def test_orbit_tool_bad_group_is_a_usage_error(group, reason):
    with pytest.raises(SystemExit) as exc:
        main(["tools", "orbit", "--group", group, "--point", "e1"])
    msg = str(exc.value.code)
    assert msg.startswith(f"bad group spec {group!r}: use SL:n:q") and reason in msg
    if "field" in reason:
        assert "GF(243), GF(256)" in msg


def test_orbit_tool_over_the_largest_odd_table_field(capsys):
    assert main(["tools", "orbit", "--group", "SL:2:243", "--point", "e1"]) == 0
    assert capsys.readouterr().out.strip().endswith(": 59048")


def test_orbit_tool_over_budget_reports_instead_of_raising(capsys, monkeypatch):
    # 1 MB holds the 65,536-point floor; SL_10(2) has 523,776 pair points
    monkeypatch.setenv("GRPFACT_MEMORY_BUDGET_MB", "1")
    assert main(["tools", "orbit", "--group", "SL:10:2", "--point", "e1;e1",
                 "--action", "pair"]) == 1
    assert "exceeded 65536 points" in capsys.readouterr().err


def test_orbit_tool_refuses_masks_past_the_budget_before_allocating(capsys, monkeypatch):
    # 16 MB prices 699,050 points; the masks over the 2^26 pair keys of
    # GF(2)^13 need 72 MiB, so the orbit stops before it allocates them
    monkeypatch.setenv("GRPFACT_MEMORY_BUDGET_MB", "16")
    tracemalloc.start()
    try:
        rc = main(["tools", "orbit", "--group", "SL:13:2", "--point", "e1;e1", "--action", "pair"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert "(memory budget 16 MB)" in capsys.readouterr().err
    assert peak < 2**20


def test_intersect_tool(capsys):
    assert main(["tools", "intersect", "--claim", "t1r01-sl-a2b2q2"]) == 0
    out = capsys.readouterr().out
    assert "|H n K| = 4" in out


def test_catalog_tool(capsys):
    assert main(["tools", "catalog", "--list"]) == 0
    out = capsys.readouterr().out
    assert "15 catalog rows" in out
    assert "t1r14-ext" in out


def test_catalog_lemma_audit(capsys):
    assert main(["tools", "catalog", "--lemmas"]) == 0
    out = capsys.readouterr().out
    assert "UNCOVERED" not in out


def test_bad_claim_id_errors(tmp_path):
    assert main(["verify", "--row", "nonsense", "--out", str(tmp_path)]) == 2


def test_row_number_selection(tmp_path):
    # bare table-row numbers select the desk claims of that row
    rc = main(["verify", "--row", "9", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "t1r09.json").exists()
