"""The benchmark's workloads: which operations one pass runs, in which order.

An operation is one catalog claim verified through ``factorize.verify_claim``,
or the one orbit call of ``big-orbit``.  Claims run in catalog order: the
process-global caches of ``grpfact`` (``_DOMAIN_CACHE``, ``_G2_CACHE``,
``_PSI_GAMMA_CACHE``, ``_EMBED_CACHE``) make a claim's cost depend on the
claims that ran before it in the same process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

# every desk claim but rows 10, 12a and 12c (see README.md), in catalog order
DESK = (
    "t1r01-sl-a2b2q2", "t1r01-sp-a4b1q2", "t1r01-sp-a4b1q3", "t1r02-b1q2",
    "t1r03-n4q2", "t1r03-n6q2", "t1r04-m2", "t1r04-sp-m4", "t1r05-m2",
    "t1r06-m2", "t1r07-m2", "t1r08-q2", "t1r08-q4-sp", "t1r08-sp-q2",
    "t1r09", "t1r11-a", "t1r11-b", "t1r12-b", "t1r13",
    "t1r14", "t1r15", "neg-sp6-g2p", "neg-sl6-g2p", "suite-r1", "suite-r9",
)

BIG_ORBIT_CLAIM = "t1r14-ext"


@dataclass(frozen=True)
class Workload:
    name: str
    claims: tuple[str, ...]
    # the share of --seconds one pass is given; a run makes
    # max(2, seconds // pass_budget_s) passes, so the pass count is fixed
    # by --seconds and never by how fast the machine happens to be
    pass_budget_s: float

    def passes(self, seconds: int) -> int:
        return max(2, int(seconds // self.pass_budget_s))


# A desk pass takes about 20 s and a big-orbit pass about 16 s on the
# reference machine.  At --seconds 54 desk makes 3 passes and big-orbit 2,
# so that a run of either takes about a minute or less.
WORKLOADS = {
    "desk": Workload("desk", DESK, 18.0),
    "big-orbit": Workload("big-orbit", (BIG_ORBIT_CLAIM,), 27.0),
}


@dataclass(frozen=True)
class Op:
    id: str
    call: Callable[[], object]  # timed
    report: Callable[[object], dict]  # untimed


def prepare(workload: Workload, catalog, seed: int) -> list[Op]:
    """The operations of one pass, in catalog order.

    Anything built here, before the first operation, counts as set-up.
    """
    import numpy as np
    from grpfact import factorize, grpcore

    if workload.name == "big-orbit":
        claim = catalog.claim_by_id(BIG_ORBIT_CLAIM)
        rng = np.random.default_rng(factorize.claim_seed(claim.claim_id, seed))
        setup = factorize.build_setup(claim, rng)
        return [Op(
            claim.claim_id,
            lambda: grpcore.orbit(setup.H, setup.orbit_seed, keep_keys=False),
            lambda orb: {"claim_id": claim.claim_id, "orbit_size": int(orb.size),
                         "seed_tag": setup.orbit_seed.tag},
        )]
    wanted = set(workload.claims)
    claims = [c for c in catalog.desk_grid("desk") if c.claim_id in wanted]
    if tuple(c.claim_id for c in claims) != workload.claims:
        raise RuntimeError(f"{workload.name}: catalog order or contents changed: "
                           f"{[c.claim_id for c in claims]}")
    return [Op(c.claim_id, partial(factorize.verify_claim, c, base_seed=seed),
               lambda report: report.as_dict())
            for c in claims]


def run_ops(ops: list[Op]) -> list[dict]:
    """Each operation's wall time and report; one that raises is recorded as an error."""
    out = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # recorded as a failed operation
            out.append({"id": op.id, "error": repr(exc)})
            continue
        seconds = time.perf_counter() - t0
        out.append({"id": op.id, "seconds": seconds, "report": op.report(result)})
    return out
