"""CLI contract: selections, reports, exit codes, byte determinism."""

import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

from grpfact import cli
from grpfact.catalog import load_catalog
from grpfact.cli import DEFAULT_SEED, main
from grpfact.factorize import verify_claim

README = Path(__file__).resolve().parents[1] / "README.md"


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
    rows = ["--row", "t1r09", "--row", "t1r03-n4q2", "--row", "suite-r1", "--row", "6Sp:m=4"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out, j in ((out1, 1), (out2, jobs)):
        assert main(["verify", *rows, "--seed", "99", "--jobs", str(j), "--out", str(out)]) == 0
    for name in ("t1r09.json", "t1r03-n4q2.json", "suite-r1.json", "adhoc-6Sp-m4.json",
                 "summary.json"):
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


@pytest.mark.parametrize("jobs, why", [("0", "must be at least 1, got 0"), ("-2", "must be at least 1, got -2"),
                                       ("two", "invalid int value: 'two'")])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs, why):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--row", "t1r09", "--jobs", jobs, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: grpfact verify") and f"argument --jobs: {why}" in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_memory_budget_below_one_is_a_usage_error(tmp_path, capsys, budget):
    # not a silent floor of budget_points' 65,536 points
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--row", "t1r14-ext", "--memory-budget", budget, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: grpfact verify")
    assert f"argument --memory-budget: must be at least 1, got {budget}" in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("jobs, rows, workers", [
    (8, ["t1r09", "t1r03-n4q2", "suite-r1"], 3), (2, ["t1r09", "t1r03-n4q2", "suite-r1"], 2), (4, ["t1r09"], None),
])
def test_one_worker_per_claim_at_most(tmp_path, monkeypatch, jobs, rows, workers):
    # a stub pool records its size and maps in this process: no worker starts
    sizes = []

    class Pool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(cli.multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool))
    selected = [arg for row in rows for arg in ("--row", row)]
    assert main(["verify", *selected, "--jobs", str(jobs), "--out", str(tmp_path)]) == 0
    assert sizes == ([] if workers is None else [workers])
    assert len(json.loads((tmp_path / "summary.json").read_text())["claims"]) == len(rows)


def test_bad_claim_id_errors(tmp_path):
    assert main(["verify", "--row", "nonsense", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("sel", ["\u00b2", "\u2463"])  # a superscript two and a circled four: digits, not decimals
def test_non_decimal_digit_row_is_a_usage_error(tmp_path, capsys, sel):
    assert main(["verify", "--row", sel, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"no catalog claim matches {sel!r}" in err
    assert "Traceback" not in err


def test_row_number_selection(tmp_path):
    # bare table-row numbers select the desk claims of that row
    rc = main(["verify", "--row", "9", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "t1r09.json").exists()


def test_template_point_is_verified_like_a_catalog_claim(tmp_path, capsys):
    assert main(["verify", "--row", "6Sp:m=4", "--out", str(tmp_path)]) == 0
    # verify_claim's own orbit budget is the CLI's default
    claim = load_catalog().instantiate("6Sp", {"m": 4})
    report = verify_claim(claim, base_seed=DEFAULT_SEED)
    written = (tmp_path / "adhoc-6Sp-m4.json").read_text()
    assert written == json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    assert report.overall == "pass"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["claims"] == {"adhoc-6Sp-m4": "pass"}
    assert "adhoc-6Sp-m4" in capsys.readouterr().out


@pytest.mark.parametrize("point", [
    "6Sp:m",    # no value
    "6Sp:m=x",  # a value that is no integer
    "6Sp:q=4",  # m missing
    "6Sp:m=3",  # violates m_even
    "6Sp:m=4,q=3",  # q is not read by the row
    "3:n=4,q=6",  # q is not a prime power
    "1SL:a=2,b=2,q=6",
    "8:q=6",
    "4SL:m=2,m=3",  # a repeated parameter
])
def test_bad_template_point_is_a_usage_error(tmp_path, capsys, point):
    assert main(["verify", "--row", point, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "ROW:k=v,..." in err and repr(point) in err
    assert "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


def test_verify_is_the_only_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{verify}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["tools", "catalog", "--list"])
    assert exc.value.code == 2


def _readme_commands():
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()
            if line.startswith("grpfact ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_lines_parse(capsys, argv):
    # --help exits before argparse reports an unknown option, so each
    # option the line names must also appear in the help it printed
    with pytest.raises(SystemExit) as exc:
        main(argv[1:] + ["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for option in (a for a in argv if a.startswith("--")):
        assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", usage), option
