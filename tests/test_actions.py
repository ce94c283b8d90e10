"""The char-2 XOR-table kernel of Action.apply_batch against scalar sl_apply."""

import numpy as np
import pytest

from grpfact import gf
from grpfact.actions import Action
from grpfact.linalg import FUNCTIONAL, PAIR, VECTOR, GroupElement, LinAlgError, Mat, det


def _random_element(rng, spec, n, fa, dual):
    while True:
        m = Mat(spec, rng.integers(0, spec.q, size=(n, n)))
        if det(m):
            return GroupElement(m, fa, dual)


# (kind, f, n): every case packs at least 24 key bits, so at least two tables
_CASES = [
    (VECTOR, 1, 24), (VECTOR, 2, 12), (VECTOR, 4, 6),
    (FUNCTIONAL, 1, 25), (FUNCTIONAL, 2, 12), (FUNCTIONAL, 4, 7),
    (PAIR, 1, 12), (PAIR, 2, 6), (PAIR, 4, 3),
]


@pytest.mark.parametrize("tag,f,n", _CASES, ids=lambda c: str(c))
def test_apply_batch_matches_sl_apply(tag, f, n):
    spec = gf.make_field(2, f)
    action = Action(tag, spec, n)
    nbits = action.width * f
    assert nbits >= 24
    rng = np.random.default_rng(nbits * 31 + f)
    keys = rng.integers(0, 1 << nbits, size=60, dtype=np.int64)
    keys[:nbits] = 1 << np.arange(nbits, dtype=np.int64)  # every basis key
    duals = (0, 1) if tag == PAIR else (0,)
    for fa in sorted({0, f - 1, f // 2}):
        for dual in duals:
            g = _random_element(rng, spec, n, fa, dual)
            got = action.apply_batch(g, keys)
            want = [action.point_key(action.apply_point(g, action.key_point(int(k)))) for k in keys]
            assert got.tolist() == want, (fa, dual)
            assert action.apply_batch(g, keys).tolist() == want  # from the cache


def test_duality_rejected_on_one_sided_kinds():
    spec = gf.make_field(2, 2)
    g = _random_element(np.random.default_rng(1), spec, 3, 0, 1)
    for tag in (VECTOR, FUNCTIONAL):
        with pytest.raises(LinAlgError):
            Action(tag, spec, 3).apply_batch(g, np.array([1, 2], dtype=np.int64))
