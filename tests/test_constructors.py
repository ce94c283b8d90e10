"""Certified constructions: classical groups, stabilizers, blow-ups, G2."""

import hashlib
import re
import weakref

import numpy as np
import pytest

from grpfact import gf, orders
from grpfact.constructors import (
    ConstructionError,
    _certify_adjoin,
    _psi_gamma_candidates,
    automorphism_element,
    classical_generators,
    ext_subgroup,
    preserves_form,
    psi_extension,
    sl_generators,
    sp_pointwise_factor,
    stabilizer_subgroup,
    standard_symplectic_form,
)
from grpfact import g2
from grpfact.g2 import g2_derived, g2_generators
from grpfact.grpcore import orbit, shared_domain, solvable_residual
from grpfact.linalg import (
    VECTOR,
    GroupElement,
    Mat,
    canonical_point,
    det,
    sl_compose,
)
from oracles import adjoin_failure, count_chain_builds, count_matrix_ops, element_order, same_subgroup


@pytest.mark.parametrize(
    "family,n,q",
    [("SL", 2, 2), ("SL", 3, 2), ("SL", 4, 2), ("SL", 2, 4), ("SL", 4, 3),
     ("Sp", 4, 2), ("Sp", 6, 2), ("Sp", 4, 3)],
)
def test_classical_orders_certified(family, n, q):
    g = classical_generators(family, n, q)
    assert g.order() == orders.group_order(family, n, q)


@pytest.mark.parametrize("build, args, reason", [
    (classical_generators, ("SL", 2, 289), "q = 289 is not a supported field size"),  # 17^2
    (classical_generators, ("SL", 2, 0), "q = 0 is not a supported field size"),
    (classical_generators, ("SL", 2, 512), "GF(2^9) is not a supported field"),  # 2^9 > 256
    (classical_generators, ("Sp", 3, 2), "Sp needs even n"),
    (g2_generators, (8,), "G2 construction supports even q"),
], ids=["SL-2-289", "SL-2-0", "SL-2-512", "Sp-3-2", "G2-8"])
def test_unsupported_groups_are_refused_with_the_reason(build, args, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        build(*args)


def test_sp_generators_preserve_form():
    for n, q in [(4, 2), (6, 2), (4, 3), (2, 4), (6, 4)]:
        G = classical_generators("Sp", n, q)
        J = standard_symplectic_form(G.spec, n)
        for g in G.generators:
            assert preserves_form(g, J)
            assert det(g.mat) == 1


def test_stabilizer_subgroup_orders():
    assert stabilizer_subgroup("vector", 2, 2).order() == 2
    assert stabilizer_subgroup("vector", 4, 2).order() == 1344
    assert stabilizer_subgroup("antiflag", 4, 2).order() == 168
    assert stabilizer_subgroup("vector", 3, 2).order() == 24
    assert stabilizer_subgroup("antiflag", 6, 2).order() == orders.sl_order(5, 2)


def test_stabilizer_fixes_its_stages():
    from grpfact.linalg import sl_apply

    K = stabilizer_subgroup("antiflag", 4, 2)
    for pt in K.stabilizer_of:
        for g in K.generators:
            assert sl_apply(g, pt) == pt


def test_sp_pointwise_factor():
    K = sp_pointwise_factor(6, 2)
    assert K.order() == orders.sp_order(4, 2)
    J = standard_symplectic_form(K.spec, 6)
    for g in K.generators:
        assert preserves_form(g, J)
        assert np.array_equal(g.mat.a[:2, :2], np.eye(2, dtype=np.int64))


def test_automorphism_element_orders():
    gamma = automorphism_element("gamma", 4, 2)
    assert element_order(gamma) == 2
    assert element_order(automorphism_element("phi", 2, 4)) == 2
    assert element_order(automorphism_element("phi_gamma", 2, 4)) == 2
    assert element_order(automorphism_element("phi_gamma", 2, 16)) == 4
    psi2 = automorphism_element("psi", 4, 2)
    assert psi2.fa == 0 and element_order(psi2) == 2
    psi4 = automorphism_element("psi", 4, 4)
    assert psi4.fa == 1 and element_order(psi4) == 4


def test_psi_inside_sl_only_for_q2():
    # over GF(2) the blown Frobenius is a plain matrix; over GF(4) it is not
    psi2 = automorphism_element("psi", 4, 2)
    assert psi2.is_linear() and det(psi2.mat) == 1
    psi4 = automorphism_element("psi", 4, 4)
    assert psi4.fa != 0


def test_psi_gamma_has_extension_order():
    for q, f in [(2, 1), (4, 2)]:
        x = psi_extension(ext_subgroup("SL", 2, 2, q), "psi_gamma").generators[-1]
        assert x.dual == 1
        assert element_order(x) == 2 * f


@pytest.mark.parametrize(
    "inner,m,q,pick",
    [("SL", 2, 2, 1), ("Sp", 2, 2, 1), ("SL", 2, 4, 12), ("Sp", 2, 4, 12), ("SL", 4, 2, 1), ("Sp", 4, 2, 1),
     ("Sp", 6, 2, 1)],
)
def test_psi_gamma_is_chosen_against_the_core_it_extends(inner, m, q, pick):
    # the m = 2 and 4 picks are the ones a scan against the blown SL_m(q^2)
    # gave; at m = 6, SL_6(4) holds the scalars omega*I and would keep the
    # first candidate, whose square leaves Sp_6(4), so the Sp core refuses it
    x = psi_extension(ext_subgroup(inner, m, 2, q), "psi_gamma").generators[-1]
    assert x == list(_psi_gamma_candidates(2 * m, q))[pick]


def test_psi_gamma_ext_subgroup_builds_one_core_chain(monkeypatch):
    builds = count_chain_builds(monkeypatch)
    core = ext_subgroup("Sp", 6, 2, 2)
    psi_extension(core, "psi_gamma")
    assert builds == ["Sp_6(4)^in_SL_12(2)"]
    # the certificate read the core's own chain, which the core keeps
    core.order()
    assert len(builds) == 1


def test_psi_gamma_needs_its_adjoin_certificate():
    with pytest.raises(ConstructionError, match="chosen by the adjoin certificate"):
        psi_extension(ext_subgroup("SL", 2, 2, 2), "psi_gamma", certify=False)


@pytest.mark.parametrize(
    "inner,a,b,q,adjoin_kind,expect",
    [
        ("SL", 2, 2, 2, None, 60),
        ("SL", 2, 2, 2, "psi", 120),
        ("SL", 2, 2, 2, "psi_gamma", 120),
        ("SL", 2, 2, 4, "psi", 16320),
        ("Sp", 2, 2, 4, "psi_gamma", 16320),
        ("Sp", 4, 1, 2, None, 720),
        ("SL", 2, 3, 2, None, orders.sl_order(2, 8)),
    ],
)
def test_ext_subgroup_orders(inner, a, b, q, adjoin_kind, expect):
    g = ext_subgroup(inner, a, b, q)
    if adjoin_kind:
        g = psi_extension(g, adjoin_kind)
    assert g.order() == expect


def test_ext_subgroup_lands_in_sl():
    g = psi_extension(ext_subgroup("SL", 2, 2, 2), "psi")
    for gen in g.generators:
        if gen.is_linear():
            assert det(gen.mat) == 1


def test_adjoin_certificate_rejects_non_normalizing_element():
    spec = gf.make_field(2, 1)
    # a transvection that does not normalize the blown SL_2(4)
    rogue = GroupElement(Mat(spec, np.array(
        [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.int64)))
    with pytest.raises(ConstructionError, match="does not normalize the core"):
        _certify_adjoin(ext_subgroup("SL", 2, 2, 2), [rogue], 2)


def _adjoin_failure_on_permutations(core, x, index):
    """The permutation route's failure for the one candidate x, or None."""
    try:
        _certify_adjoin(core, [x], index)
    except ConstructionError as err:
        return str(err).removeprefix(f"{core.name}: ")
    return None


# every desk psi or psi_gamma core: rows 4-7 at m = 2, 4Sp at m = 4, row 14
@pytest.mark.parametrize("inner, a, q, kind", [
    ("SL", 2, 2, "psi"), ("SL", 2, 2, "psi_gamma"), ("SL", 2, 4, "psi"), ("SL", 2, 4, "psi_gamma"),
    ("Sp", 4, 2, "psi"), ("G2", 6, 2, "psi"),
], ids=["row4", "row5", "row6", "row7", "row4Sp-m4", "row14"])
def test_adjoin_certificate_on_permutations_matches_the_matrix_oracle(inner, a, q, kind, monkeypatch):
    # the identity, a transvection, psi^2 and the raw psi.gamma go first:
    # they fail, in the ways the matrix oracle says, before the candidates
    # that psi_extension tries
    core = ext_subgroup(inner, a, 2, q)
    n, index, spec = core.n, 2 * core.spec.f, core.spec
    transvection = np.eye(n, dtype=np.int64)
    transvection[0, n - 1] = 1
    psi = automorphism_element("psi", n, q)
    candidates = [GroupElement(Mat(spec, np.eye(n, dtype=np.int64))), GroupElement(Mat(spec, transvection)),
                  sl_compose(psi, psi), sl_compose(psi, automorphism_element("gamma", n, q))]
    candidates += list(_psi_gamma_candidates(n, q)) if kind == "psi_gamma" else [automorphism_element(kind, n, q)]
    want = [adjoin_failure(core.chain(), core.generators, x, index) for x in candidates]
    calls = count_matrix_ops(monkeypatch)
    assert [_adjoin_failure_on_permutations(core, x, index) for x in candidates] == want
    assert _certify_adjoin(core, candidates, index) is candidates[want.index(None)]
    assert not calls
    assert want[0] == "adjoined element power 1 already lies in the core"
    assert want[1] == "adjoined element does not normalize the core"


# ---------------------------------------------------------------------------
# G2


def test_g2_orders_and_form():
    for q in (2, 4):
        G = g2_generators(q)
        assert G.order() == orders.g2_order(q)
        J = standard_symplectic_form(G.spec, 6)
        for g in G.generators:
            assert preserves_form(g, J)
            assert det(g.mat) == 1


# sha256 of each generator's int64 matrix bytes, Frobenius exponent and
# duality bit, in generator order: the construction must not move them
G2_GENERATOR_DIGESTS = {
    2: "91a45500c26c8ce09e1f9dc6c1cd9818c7453531a88521aa8adeb3bbfd4ffee7",
    4: "e164e910350a65e947b98256f17d56a549aab4000678ecdd5d59e4cec9bcc10b",
    16: "90267464599c9f75eb94b93fc088822731d3ccd574782bc06c8813c6325eff0f",
}


@pytest.mark.parametrize("q", sorted(G2_GENERATOR_DIGESTS))
def test_g2_generator_bytes_are_pinned(q):
    h = hashlib.sha256()
    for g in g2_generators(q).generators:
        h.update(np.ascontiguousarray(g.mat.a, dtype=np.int64).tobytes())
        h.update(bytes([g.fa, g.dual]))
    assert h.hexdigest() == G2_GENERATOR_DIGESTS[q]


def test_algebra_automorphism_check_rejects_one_changed_entry():
    spec = gf.make_field(2, 2)
    auts = [g2._unimodular_automorphism(g.mat) for g in sl_generators(spec, 3)]
    auts.append(g2._half_swap())
    auts += g2._family_elements(spec, g2._derivation_exp())
    for A in auts:
        assert g2._is_algebra_automorphism(spec, A)
        for r in range(8):
            for c in range(8):
                B = A.copy()
                B[r, c] ^= 1
                assert not g2._is_algebra_automorphism(spec, B), (r, c)


def test_g2_recipe_that_is_not_an_automorphism_is_refused(monkeypatch):
    # one recipe and no loop over candidates: a derivation exponential that
    # fails the algebra-automorphism check ends the construction
    not_a_derivation = np.zeros((8, 8), dtype=np.int64)
    not_a_derivation[0, 2] = 1
    monkeypatch.setattr(g2, "_derivation_exp", lambda: [np.eye(8, dtype=np.int64), not_a_derivation])
    with pytest.raises(ConstructionError, match="algebra-automorphism"):
        g2_generators(4)


def test_g2_derived_index_two():
    d = g2_derived(2)
    assert d.order() == 6048
    G = g2_generators(2)
    assert all(G.contains(g) for g in d.generators)


def test_g2_derived_keeps_the_chain_derived_subgroup_certified(monkeypatch):
    monkeypatch.setattr(g2, "_G2_DERIVED_CACHE", {})
    builds = count_chain_builds(monkeypatch)
    d = g2_derived(2)
    assert d.chain().order() == 6048
    # G2(2)'s chain, then the derived one, and no third
    assert builds == ["G2(2)", "G2(2)''"]


def test_g2_lives_only_as_long_as_a_caller_holds_it():
    first = g2_generators(4)
    second = g2_generators(4)
    # the construction builds no chain; the first read of the order does
    assert first is not second and first._chain is None and second._chain is None
    chain = weakref.ref(first.chain())
    del first  # no reference cycle holds it: it dies with its last reference
    assert chain() is None
    assert second.chain().order() == orders.g2_order(4)


def test_g2_derived_transitive_on_vectors():
    d = g2_derived(2)
    orb = orbit(d, canonical_point(VECTOR, (1, 0, 0, 0, 0, 0)))
    assert orb.size == 63


def test_g2_16_constructs_with_partial_certification():
    # order certification is out of desk scale at q = 16; the construction
    # still passes the algebra-automorphism and form certificates
    G = g2_generators(16)
    assert G.claimed_order == orders.g2_order(16)
    J = standard_symplectic_form(G.spec, 6)
    for g in G.generators:
        assert preserves_form(g, J)


def test_g2_order_against_sympy_oracle():
    # independent route: sympy recomputes the order of the degree-63
    # permutation image of the constructed generators from scratch
    from sympy.combinatorics import Permutation, PermutationGroup

    G2 = g2_generators(2)
    dom = shared_domain(VECTOR, G2.spec, 6)
    perms = [Permutation(dom.perm_of(g).tolist()) for g in G2.generators]
    oracle = PermutationGroup(perms)
    assert oracle.order() == 12096
    d = oracle.derived_subgroup()
    assert d.order() == 6048


def test_g2_lives_inside_sp6():
    G2 = g2_generators(2)
    sp6 = classical_generators("Sp", 6, 2)
    chain = sp6.chain()
    for g in G2.generators:
        assert chain.contains(g)


def test_tightness_targets_of_ext_rows():
    H = psi_extension(ext_subgroup("SL", 2, 2, 2), "psi")
    X = ext_subgroup("SL", 2, 2, 2)
    res = solvable_residual(H)
    assert same_subgroup(res, X)
