"""Claim streams: numpy's scalar draws reproduced without numpy.random."""

import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from grpfact import streams
from grpfact.factorize import claim_seed
from grpfact.streams import Stream

SEEDS = [
    0, 1, 2**31 - 1,
    claim_seed("t1r01-sl-a2b2q2", 20260810), claim_seed("t1r13", 1), claim_seed("t1r10", 7),
    zlib.crc32(b"SL_4(2)") or 1, zlib.crc32(b"Sp_6(4)") or 1, zlib.crc32(b"G2(4)'") or 1,
    2**32 - 1, 2**64 + 3,  # seeds of two and three 32-bit words
]
BOUNDS = [1, 2, 3, 8, 4095, 16_320, 200_000, 2**32 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_draws_match_numpy(seed):
    for bound in BOUNDS:
        ref = np.random.default_rng(seed)
        ours = Stream(seed)
        want = [int(ref.integers(bound)) for _ in range(3000)]
        assert [ours.integers(bound) for _ in range(3000)] == want, bound


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_interleaved_bounds_and_ranges_match_numpy(seed):
    # a claim stream mixes bounds (a Rattle stirs with 2 and with its slot
    # count, a chain draws from each orbit); the buffered high half of a
    # 64-bit output must carry across them.  The bounds are numpy integers.
    pick = np.random.default_rng(seed + 1)
    calls = []
    for _ in range(5000):
        low = pick.integers(-100, 100)
        span = pick.choice([1, 2, 7, 1000, 16_320, 2**31 + 5, 2**32 - 1])
        calls.append((low, low + span) if pick.integers(2) else (span,))
    ref, ours = np.random.default_rng(seed), Stream(seed)
    assert [ours.integers(*c) for c in calls] == [int(ref.integers(*c)) for c in calls]


def test_a_one_point_range_draws_nothing():
    ref, ours = np.random.default_rng(5), Stream(5)
    assert ours.integers(1) == 0 and ours.integers(7, 8) == 7
    assert ours.integers(10**6) == int(ref.integers(10**6))


@pytest.mark.parametrize("args", [(2**32,), (2**40,), (5, 5 + 2**32), (0,), (3, 3), (4, 2)])
def test_empty_and_64_bit_ranges_raise(args):
    with pytest.raises(ValueError):
        Stream(1).integers(*args)


def test_a_negative_seed_raises():
    with pytest.raises(ValueError):
        Stream(-1)


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
