"""Claim streams: seeded scalar draws on the standard library's generator."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grpfact import streams
from grpfact.constructors import classical_generators
from grpfact.factorize import claim_seed
from grpfact.grpcore import StabChain, shared_domain
from grpfact.linalg import VECTOR
from grpfact.streams import Stream

# the first eight draws of one claim stream, a fresh stream per bound; a
# change to CPython's generator or to the scaling shows here
FIRST_DRAWS = {
    2: [1, 0, 0, 0, 0, 1, 1, 0],
    7: [4, 1, 0, 0, 0, 3, 6, 1],
    16_320: [10826, 4526, 1425, 2212, 1583, 8453, 15065, 3037],
    200_000: [132678, 55466, 17466, 27118, 19405, 103598, 184620, 37220],
}


@pytest.mark.parametrize("bound", sorted(FIRST_DRAWS))
def test_first_draws_of_a_claim_stream(bound):
    stream = Stream(claim_seed("t1r01-sl-a2b2q2", 20260810))
    assert [stream.integers(bound) for _ in range(8)] == FIRST_DRAWS[bound]


def test_a_range_with_a_low_end_is_shifted():
    stream = Stream(claim_seed("t1r01-sl-a2b2q2", 20260810))
    assert [stream.integers(-3, 4) for _ in range(8)] == [b - 3 for b in FIRST_DRAWS[7]]
    assert Stream(5).integers(1) == 0 and Stream(5).integers(7, 8) == 7


@pytest.mark.parametrize("args", [(0,), (3, 3), (4, 2)], ids=["empty-bound", "empty-range", "inverted-range"])
def test_empty_and_inverted_ranges_raise(args):
    with pytest.raises(ValueError):
        Stream(1).integers(*args)


@pytest.mark.parametrize("rng", [Stream(17), np.random.default_rng(17)], ids=["stream", "numpy"])
def test_a_chain_reaches_its_certified_order_on_either_generator(rng):
    # no order and no bound: the Schreier pass certifies whatever the draws
    G = classical_generators("SL", 3, 3)
    chain = StabChain.build(shared_domain(VECTOR, G.spec, 3), G.generators, rng=rng, name="SL_3(3)")
    assert chain.verified and chain.order() == 5616


def test_verifying_claims_leaves_numpy_random_and_openssl_unloaded():
    # numpy.random (through secrets and hmac) and hashlib map OpenSSL, about
    # 6 MB of a desk worker's peak; a verify pass and the catalog's hash pin
    # need neither
    code = ("import sys\n"
            "from grpfact import catalog, factorize\n"
            "cat = catalog.load_catalog()\n"
            "for cid in ('t1r09', 't1r01-sl-a2b2q2'):\n"
            "    print(factorize.verify_claim(cat.claim_by_id(cid)).overall)\n"
            "print(*(m in sys.modules for m in ('numpy.random', 'hashlib', '_hashlib')))\n")
    src = str(Path(streams.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                          timeout=300, check=True)
    assert done.stdout.split() == ["pass", "pass", "False", "False", "False"]
