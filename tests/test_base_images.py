"""Row sifts on base images against the full sifts.

A domain's base (``PermDomain.base``) is fixed only by the identity of its
ambient semilinear group, checked here by enumerating that group on small
domains of every kind.  The differential harness draws small generating
sets with hypothesis (derandomized, so every run tries the same examples)
and checks the Schreier pass, which sifts images of the base, against the
one-generator-at-a-time pass of ``tests/oracles.py`` on every partial chain
it completes, and ``contains_block`` against ``contains_tracked`` on
members and on elements of the ambient group.  On the same kinds of drawn
groups, chains built with a bound and with a base, point stabilizers and
both intersection strategies are checked against enumerations, and so
are the derived subgroup and the solvable residual of drawn groups of at
most 2,000 elements.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from grpfact import gf
from grpfact.factorize import intersect
from grpfact.grpcore import (
    GroupSpec,
    StabChain,
    Tracked,
    derived_domain,
    derived_subgroup,
    shared_domain,
    solvable_residual,
    stabilizer_generators,
)
from grpfact.linalg import ANTIFLAG, DUALITY, FUNCTIONAL, PAIR, PROJECTIVE, VECTOR, GroupElement, Mat, det
from oracles import ambient_element, brute_stabilizer, derived_closure, domain_point, perm_closure, schreier_witness

_KINDS = [VECTOR, FUNCTIONAL, DUALITY, PROJECTIVE, ANTIFLAG, PAIR]
# the kinds on which a duality element acts
_DUAL = (DUALITY, ANTIFLAG, PAIR)


def _ambient(spec, n, tag):
    """Every element of the ambient group of tag's domain over (n, spec):
    each invertible matrix with each Frobenius exponent, and each duality
    bit where tag takes one."""
    for entries in itertools.product(range(spec.q), repeat=n * n):
        m = Mat(spec, np.array(entries).reshape(n, n))
        if det(m):
            for fa in range(spec.f):
                for dual in (0, 1) if tag in _DUAL else (0,):
                    yield GroupElement(m, fa, dual)


@pytest.mark.parametrize("p,f,n", [(2, 2, 2), (3, 1, 2), (2, 1, 3), (2, 2, 1)],
                         ids=["GF(4)^2", "GF(3)^2", "GF(2)^3", "GF(4)^1"])
@pytest.mark.parametrize("tag", _KINDS)
def test_only_the_identity_fixes_the_base(tag, p, f, n):
    spec = gf.make_field(p, f)
    dom = shared_domain(tag, spec, n)
    fixing = [g for g in _ambient(spec, n, tag) if (dom.perm_of(g)[dom.base] == dom.base).all()]
    assert fixing and all(np.array_equal(dom.perm_of(g), dom.identity_perm) for g in fixing)


@pytest.mark.parametrize("tag", _KINDS)
def test_a_base_without_its_last_point_is_fixed_by_the_frobenius(tag):
    # on GF(4)^2 the Frobenius fixes e_1, e_2 and every point of the
    # frame's prime-field span; only the base's last point, w.e_1 or
    # <e_1 + w.e_2>, shows that it is not the identity
    spec = gf.make_field(2, 2)
    dom = shared_domain(tag, spec, 2)
    frobenius = dom.perm_of(GroupElement(Mat(spec, np.eye(2, dtype=np.int64)), 1, 0))
    assert (frobenius[dom.base[:-1]] == dom.base[:-1]).all()
    assert frobenius[dom.base[-1]] != dom.base[-1]


# (label, kind, p, f, n): the groups are drawn inside GL_3(2), GL_4(2),
# GL_2(3) and GammaL_2(4), and a kind that takes a duality element draws it
_HARNESS = [
    ("GL_3(2)", VECTOR, 2, 1, 3), ("GL_3(2)", FUNCTIONAL, 2, 1, 3),
    ("GL_4(2)", VECTOR, 2, 1, 4), ("GL_4(2)", FUNCTIONAL, 2, 1, 4),
    ("GL_2(3)", VECTOR, 3, 1, 2), ("GL_2(3)", PROJECTIVE, 3, 1, 2),
    ("GammaL_2(4)", VECTOR, 2, 2, 2), ("GammaL_2(4)", PROJECTIVE, 2, 2, 2), ("GammaL_2(4)", ANTIFLAG, 2, 2, 2),
    ("SL_3(2)", DUALITY, 2, 1, 3), ("SL_3(2)", PAIR, 2, 1, 3),
]


_IDS = [f"{c[0]}-{c[1]}" for c in _HARNESS]


def _drawer(tag, spec, n, rng):
    """Draws from the ambient group of the case: an invertible matrix, a
    Frobenius exponent, and a duality bit where tag takes one."""
    return lambda: ambient_element(rng, spec, n, int(rng.integers(spec.f)), int(rng.integers(2)) if tag in _DUAL else 0)


@pytest.mark.parametrize("label,tag,p,f,n", _HARNESS, ids=_IDS)
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
def test_base_image_sifts_match_the_full_sifts(label, tag, p, f, n, seed, k):
    spec = gf.make_field(p, f)
    dom = shared_domain(tag, spec, n)
    rng = np.random.default_rng(seed)
    draw = _drawer(tag, spec, n, rng)
    gens = [Tracked(dom.perm_of(g), g) for g in (draw() for _ in range(k))]
    # the chain that sifting the generators builds, then each chain that
    # adding a witness builds: the pass on base images finds the oracle's
    # witness on each, and none on the last, which is complete
    chain = StabChain(dom)
    for t in gens:
        chain._add(t)
    while True:
        got, want = chain._schreier_witness(), schreier_witness(chain)
        assert (got is None) == (want is None) and (got is None or np.array_equal(got.perm, want.perm))
        if got is None:
            break
        assert chain._add(got)
    assert chain.order() == PermutationGroup([Permutation(t.perm.tolist()) for t in gens]).order()
    members = [chain.random_element(rng) for _ in range(12)]
    ambient = [Tracked(dom.perm_of(draw())) for _ in range(12)]
    tests = [chain.ident] + members + ambient
    want = [chain.contains_tracked(t) for t in tests]
    assert all(want[:13])
    assert chain.contains_block(np.stack([t.perm for t in tests])).tolist() == want
    assert chain.contains_block(np.stack([t.perm for t in members])).all()


def _elements(group: GroupSpec, domain) -> set[bytes]:
    """The bytes of every element of a group whose chain lies on the domain."""
    chain = group.chain()
    assert chain.domain is domain
    return {row.astype(np.intp).tobytes() for block in chain.element_perm_blocks() for row in block}


@pytest.mark.parametrize("label,tag,p,f,n", _HARNESS, ids=_IDS)
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
def test_builds_stabilizers_and_intersections_match_enumeration(label, tag, p, f, n, seed, k):
    spec = gf.make_field(p, f)
    dom = shared_domain(tag, spec, n)
    rng = np.random.default_rng(seed)
    draw = _drawer(tag, spec, n, rng)
    gens = [Tracked(dom.perm_of(g), g) for g in (draw() for _ in range(k))]
    elements = {e.astype(np.intp).tobytes() for e in perm_closure([t.perm for t in gens])}
    # the group's order as a bound (sandwich), and a first base point with
    # no bound (the Schreier pass)
    base = int(rng.integers(dom.size))
    bounded = StabChain.build(dom, gens, bound=len(elements), name=label)
    based = StabChain.build(dom, gens, base=base, name=label)
    assert bounded.order() == based.order() == len(elements) and based.levels[0].base == base
    H = GroupSpec.of_chain(label, bounded)
    assert _elements(H, dom) == elements
    point = domain_point(dom, int(rng.integers(dom.size)))
    assert _elements(stabilizer_generators(H, point), dom) == brute_stabilizer(H, point)
    # K, the stabilizer in A = <H, a> of one or two points, or of the set
    # {v, w} of a vector and a functional on the duality domain, is
    # enumerated and built from its elements
    ambient = perm_closure([t.perm for t in gens] + [dom.perm_of(draw())])
    if tag == DUALITY:
        half = dom.size // 2
        fixed = [int(rng.integers(half)), half + int(rng.integers(half))]
        K_perms = [a for a in ambient if set(a[fixed].tolist()) == set(fixed)]
    else:
        fixed = [int(i) for i in rng.integers(dom.size, size=1 + int(rng.integers(2)))]
        K_perms = [a for a in ambient if (a[fixed] == fixed).all()]
    K_chain = StabChain.build(dom, [Tracked(a) for a in K_perms], order=len(K_perms), bound=len(K_perms))
    K = GroupSpec.of_chain("K", K_chain)
    K.stabilizer_of = [domain_point(dom, i) for i in fixed]
    want = elements & {a.astype(np.intp).tobytes() for a in K_perms}
    for strategy in ("stabilizer", "enumerate_smaller"):
        assert _elements(intersect(H, K, strategy), dom) == want


@pytest.mark.parametrize("label,tag,p,f,n", _HARNESS, ids=_IDS)
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
def test_derived_subgroups_and_residuals_match_enumeration(label, tag, p, f, n, seed, k):
    spec = gf.make_field(p, f)
    dom = shared_domain(tag, spec, n)
    rng = np.random.default_rng(seed)
    draw = _drawer(tag, spec, n, rng)
    gens = [Tracked(dom.perm_of(g), g) for g in (draw() for _ in range(k))]
    G = GroupSpec.of_chain(label, StabChain.build(dom, gens, name=label))
    if G.order() > 2000:
        return
    # the derived series by brute force, on the derived domain from its
    # first step on, down to its fixpoint, the solvable residual
    size = derived_domain(G).size
    series = [([t.perm for t in gens], perm_closure([t.perm for t in gens]))]
    while True:
        step = derived_closure(*series[-1], size)
        if len(step[1]) == len(series[-1][1]):
            break
        series.append(step)

    def elements(group):
        return {row[:size].astype(np.intp).tobytes() for block in group.chain().element_perm_blocks() for row in block}

    want = [{e[:size].astype(np.intp).tobytes() for e in closure} for _, closure in series]
    derived = derived_subgroup(G)
    assert derived.chain().domain is derived_domain(G)
    assert elements(derived) == (want[1] if len(want) > 1 else want[0])
    assert elements(solvable_residual(G)) == want[-1]
