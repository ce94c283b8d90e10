"""Every strategy at points it was not written for: each check of
``factorize.STRATEGIES`` ends in a verdict, or in ``skipped`` with the
reason, and never raises."""

import dataclasses
import os
import time

import pytest

from grpfact import factorize, grpcore
from grpfact.catalog import _VARIANTS, load_catalog
from grpfact.factorize import STRATEGIES, verify_claim
from grpfact.streams import Stream

_FIXED = ["t1r09", "t1r10", "t1r11-a", "t1r11-b", "t1r12-a", "t1r12-b", "t1r12-c", "t1r13",
          "suite-r1", "suite-r9", "neg-sp6-g2p", "neg-sl6-g2p"]


def _first_points():
    """The first legal sweep point of each row 1-8 variant."""
    first = {}
    for row, params in load_catalog().sweep_grid():
        if row in _VARIANTS:
            first.setdefault(row, params)
    return list(first.items())


def _every_check(claim, **kw):
    """claim's report with every strategy as its checks; each one must end
    in a verdict."""
    report = verify_claim(dataclasses.replace(claim, checks=list(STRATEGIES)), **kw)
    results = {s.name: s for s in report.strategies}
    assert list(results) == list(STRATEGIES)
    assert {s.verdict for s in results.values()} <= {"pass", "fail", "skipped"}
    return results


# (row or claim id, check) -> the skip's details
_PINNED = {
    ("6SL", "enumerate"): {"reason": "enumeration of 16320 elements exceeds the 10000 limit",
                           "domain_size": 16320, "max_size": 10000},
    ("8Sp", "vector_orbit"): {"reason": "no orbit seed"},
    ("t1r09", "order"): {"reason": "K is not a constructed stabilizer"},
    ("suite-r1", "identity"): {"reason": "no lemma identity for this row"},
    ("neg-sl6-g2p", "identity"): {"reason": "no lemma identity for this row"},
}


@pytest.mark.parametrize("where, params", [
    *[pytest.param(row, params, id=row) for row, params in _first_points()],
    *[pytest.param(claim_id, None, id=claim_id) for claim_id in _FIXED],
])
def test_every_strategy_answers(where, params):
    catalog = load_catalog()
    claim = catalog.claim_by_id(where) if params is None else catalog.instantiate(where, params)
    results = _every_check(claim)
    if not claim.row.startswith("suite"):
        assert results["conjugation"].details == {"reason": "no conjugation suite"}
    for (pinned, check), details in _PINNED.items():
        if pinned == where:
            assert (results[check].verdict, results[check].details) == ("skipped", details)


# (row, m) -> the sifts one check_tight call made there before this bound
# was set: StabChain._sift calls plus rows passed to StabChain._sift_rows
_TIGHT_SIFTS = {
    "4SL": {2: 26, 3: 69, 4: 104, 5: 147, 6: 184, 7: 222, 8: 283},
    "4Sp": {2: 26, 4: 63, 6: 158, 8: 208},
    "5SL": {2: 30, 3: 73, 4: 105, 5: 146, 6: 184, 7: 224, 8: 265},
    "5Sp": {2: 29, 4: 65, 6: 160, 8: 207},
    "6SL": {2: 64, 3: 167, 4: 244},
    "6Sp": {2: 63, 4: 116},
    "7SL": {2: 62, 3: 169, 4: 238},
    "7Sp": {2: 63, 4: 119},
}


@pytest.mark.extended
@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"), reason="tight sweep is opt-in: set RUN_EXTENDED=1")
def test_tight_at_every_rows_4_to_7_point_up_to_2_16(monkeypatch):
    # the normality certificate: one derived step of the core, and sifts.
    # Each call's own CPU time stays under a second, with set-up's chains
    # built first, as the strategies before it in a claim build them.  CPU
    # time, which host load moves less than wall time; the counts do not
    # move with load at all: no call runs a Schreier pass, and none makes
    # more sifts than its pinned count
    catalog = load_catalog()
    points = [(row, params) for row, params in _sweep_points(1 << 16) if row[0] in factorize._ANTIFLAG_ROWS]
    assert len(points) == 32 == sum(map(len, _TIGHT_SIFTS.values()))
    schreier_pass, sift, sift_rows = grpcore.StabChain._verify_loop, grpcore.StabChain._sift, grpcore.StabChain._sift_rows
    sifts = [0]

    def counted_sift(chain, t):
        sifts[0] += 1
        return sift(chain, t)

    def counted_rows(chain, u, *args):
        sifts[0] += len(u)
        return sift_rows(chain, u, *args)

    for row, params in points:
        claim = catalog.instantiate(row, params)
        rng = Stream(factorize.claim_seed(claim.claim_id, 20260810))
        setup = factorize.build_setup(claim, rng)
        setup.H.order(), setup.tight_target.order()
        passes, sifts[0] = [], 0
        with monkeypatch.context() as m:
            m.setattr(grpcore.StabChain, "_verify_loop", lambda chain: passes.append(chain) or schreier_pass(chain))
            m.setattr(grpcore.StabChain, "_sift", counted_sift)
            m.setattr(grpcore.StabChain, "_sift_rows", counted_rows)
            t0 = time.process_time()
            ok = factorize.check_tight(setup.H, setup.tight_target, rng=rng)
            cpu_ms = (time.process_time() - t0) * 1000
        print(row, params, ok, f"{cpu_ms:.0f} ms CPU", f"{len(passes)} Schreier passes", f"{sifts[0]} sifts")
        assert ok and cpu_ms < 1000 and passes == [], (row, params)
        assert sifts[0] <= _TIGHT_SIFTS[row][params["m"]], (row, params)


def test_tight_at_5sl_m6_certifies_the_closure_once():
    # the normal closure's rounds run on the Monte Carlo chain and end in
    # one certificate; with one per round this took about 40 s
    tight = _every_check(load_catalog().instantiate("5SL", {"m": 6}), record_timings=True)["tight"]
    assert tight.verdict == "pass" and tight.wall_ms < 5000


def _sweep_points(max_qn=4096):
    """The rows 1-8 grid points with q^n <= max_qn: 89 at the default."""
    points = []
    for row, params in load_catalog().sweep_grid():
        if row in _VARIANTS:
            q = params.get("q") or factorize._ANTIFLAG_ROWS[row[0]][0]
            if q ** _VARIANTS[row][1](params) <= max_qn:
                points.append((row, params))
    return points


@pytest.mark.extended
@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"), reason="strategy sweep is opt-in: set RUN_EXTENDED=1")
def test_every_strategy_answers_across_the_sweep():
    catalog = load_catalog()
    points = _sweep_points()
    assert len(points) == 89
    claims = [catalog.instantiate(row, params) for row, params in points]
    for claim in claims + [catalog.claim_by_id("t1r14"), catalog.claim_by_id("t1r15")]:
        results = _every_check(claim)
        print(claim.row, claim.params, {name: (s.verdict, s.details.get("reason")) for name, s in results.items()})
