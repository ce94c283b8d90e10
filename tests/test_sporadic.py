"""Sporadic-row locators and their certificates."""

import tracemalloc

import numpy as np
import provenance
import pytest

from grpfact import sporadic
from grpfact.constructors import ConstructionError, classical_generators
from grpfact.gf import make_field
from grpfact.grpcore import CertificationError, Tracked, shared_domain, t_compose
from grpfact.linalg import VECTOR, GroupElement, Mat, mat_identity, sl_compose
from grpfact.sporadic import (
    SPECTRA,
    exact_spectrum,
    locate_a7,
    locate_4xa5,
    locate_two_a5_classes,
    sp4_2_derived,
    subgroups_conjugate,
)


@pytest.fixture
def rng():
    return np.random.default_rng(424242)


def test_sp42_derived():
    d = sp4_2_derived()
    assert d.order() == 360
    assert exact_spectrum(d.chain()) == frozenset({1, 2, 3, 4, 5})


def test_exact_spectrum_scratch_is_bounded():
    # Sp_4(3), 51,840 elements on 80 vectors, enumerated in blocks of at
    # most 2^14 entries: element_orders' temporaries on one block stay well
    # under 1 MiB, where blocks of 2^16 entries took 2.9 MiB
    chain = classical_generators("Sp", 4, 3).chain()
    tracemalloc.start()
    try:
        spectrum = exact_spectrum(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.order() == 51840
    assert spectrum == frozenset({1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 18})
    assert peak < 2**20


def test_two_a5_classes(rng):
    X, Y, info = locate_two_a5_classes(rng)
    assert X.order() == Y.order() == 60
    assert exact_spectrum(X.chain()) == SPECTRA["A5"]
    Z = sporadic.psl2_9()
    assert not subgroups_conjugate(Z, X, Y)
    assert subgroups_conjugate(Z, X, X)


def test_a7_certificates(rng):
    A7, info = locate_a7(rng)
    assert A7.order() == 2520
    assert exact_spectrum(A7.chain()) == SPECTRA["A7"]
    assert info["tries"] >= 1


def test_search_rejects_supergroups(rng):
    # inside SL_4(2) ~ A8 a two-generator search for A7 must never return
    # the whole ambient; exercised implicitly, asserted via the certificate
    A7, _ = locate_a7(rng)
    chain = A7.chain()
    assert chain.verified
    assert chain.order() == 2520


def test_4xa5_structure(rng):
    X, info = locate_4xa5(rng)
    assert X.order() == 240
    assert info["linear_order"] == 480
    spectrum = exact_spectrum(X.chain())
    # 4 x A5 has elements of order 4, 12, 20 absent from plain A5
    assert 4 in spectrum and 60 not in spectrum


def test_psl2_13_pipeline(rng):
    X1, X2, info = sporadic.locate_two_psl2_13(rng)
    assert X1.order() == X2.order() == 1092
    assert info["classes_split_certified"]
    assert info["commutant_dimension"] == 1
    assert info["outer_twist_intertwiner_dimension"] == 0
    assert exact_spectrum(X1.chain()) == SPECTRA["PSL2_13"]


def test_extension_ambients():
    for outer in ("gamma", "phi", "phi_gamma"):
        Z = sporadic.psl3_4_ext(outer)
        assert Z.order() == 40320


def test_minus_identity_check():
    # row 12c halves the residual's order in its projective image, which
    # needs -I in the residual
    from grpfact.constructors import classical_generators
    from grpfact.grpcore import CertificationError

    sporadic.require_minus_identity(classical_generators("SL", 2, 3))
    with pytest.raises(CertificationError):
        sporadic.require_minus_identity(classical_generators("SL", 3, 3))  # det(-I) = -1


# ---------------------------------------------------------------------------
# row 13: the certified literal module


def test_literal_module_is_the_derived_one():
    c6, s6 = provenance.derive_psl2_13_module(np.random.default_rng(provenance.PSL2_13_SEED))
    assert np.array_equal(c6, sporadic._PSL2_13_C6)
    assert np.array_equal(s6, sporadic._PSL2_13_S6)


@pytest.mark.parametrize("which,entry", [(0, (0, 0)), (0, (4, 5)), (1, (2, 3)), (1, (5, 5))])
def test_changed_literal_entry_is_not_a_representation(which, entry):
    mats = [sporadic._PSL2_13_C6.copy(), sporadic._PSL2_13_S6.copy()]
    mats[which][entry] = (mats[which][entry] + 1) % 3
    with pytest.raises(CertificationError, match="representation"):
        sporadic.certify_psl2_13_module(*mats)


def test_module_needs_s_squared_minus_identity():
    # the trivial module is a representation, but its -1 is not -I, so the
    # projective bound 1092 would not follow
    ident = np.eye(6, dtype=np.int64)
    with pytest.raises(CertificationError, match="-I"):
        sporadic.certify_psl2_13_module(ident, ident)


def test_row13_setup_runs_no_module_hunt_and_no_schreier_pass(monkeypatch):
    from grpfact import grpcore, meataxe
    from grpfact.catalog import load_catalog
    from grpfact.factorize import build_setup, claim_seed

    calls = []
    monkeypatch.setattr(meataxe, "chop_for_dimension", lambda *a, **k: calls.append("chop"))
    monkeypatch.setattr(grpcore.StabChain, "_verify_loop", lambda chain: calls.append("schreier"))
    setup = build_setup(load_catalog().claim_by_id("t1r13"), np.random.default_rng(claim_seed("t1r13", 1)))
    assert calls == []
    assert setup.H.order() == setup.extra_witnesses[0].order() == 1092


def test_row13_results_do_not_depend_on_the_seed():
    from grpfact.catalog import load_catalog
    from grpfact.factorize import verify_claim

    claim = load_catalog().claim_by_id("t1r13")
    for base_seed in range(1, 6):
        rep = verify_claim(claim, base_seed=base_seed)
        got = [(s.name, s.verdict, s.intersection_order, s.orbit_sizes) for s in rep.strategies]
        assert rep.overall == "pass"
        assert got == [("identity", "pass", 3, []), ("order", "pass", 3, []), ("orbit", "pass", None, [364, 364])]
        witnesses = rep.strategies[1].details["witnesses"]
        assert [w["intersection_order"] for w in witnesses] == [3, 3]


# ---------------------------------------------------------------------------
# row 12c: the extraspecial group E and the normalizer test


def _unipotent_in_second_factor(F3):
    """I_2 (x) [[1, 1], [0, 1]], of order 3: it centralizes the D8 factor and
    normalizes the Q8 factor (Q8 is normal in GL_2(3)), so it normalizes E
    without lying in it."""
    return GroupElement(sporadic._tensor(mat_identity(F3, 2), Mat(F3, [[1, 1], [0, 1]])))


def test_extraspecial_build_refuses_a_group_not_of_order_32():
    F3 = make_field(3, 1)
    egens = sporadic._extraspecial_32(F3)
    domain = shared_domain(VECTOR, F3, 4)
    assert sporadic._extraspecial_chain(egens, domain).order() == 32
    with pytest.raises(ConstructionError):
        sporadic._extraspecial_chain(egens + [_unipotent_in_second_factor(F3)], domain)


def test_normalizer_test_on_permutations_matches_the_matrix_test():
    F3 = make_field(3, 1)
    egens = sporadic._extraspecial_32(F3)
    chain = classical_generators("SL", 4, 3).chain()
    echain = sporadic._extraspecial_chain(egens, chain.domain)
    eset = {t.elem for t in echain.elements()}
    assert len(eset) == 32
    rng = np.random.default_rng(20260810)
    u = _unipotent_in_second_factor(F3)
    u = Tracked(u, chain.domain.perm_of(u))
    # the same unipotent in the first factor does not normalize D8
    v = GroupElement(sporadic._tensor(Mat(F3, [[1, 1], [0, 1]]), mat_identity(F3, 2)))
    v = Tracked(v, chain.domain.perm_of(v))
    tries = [chain.random_element(rng) for _ in range(40)] + [u, v]
    tries += [t_compose(echain.random_element(rng), w) for w in (u, v, u.inverse()) for _ in range(3)]
    perm_verdicts = [sporadic._normalizes(echain, t) for t in tries]
    matrix_verdicts = [
        all(sl_compose(sl_compose(t.inverse().elem, e), t.elem) in eset for e in egens) for t in tries
    ]
    assert perm_verdicts == matrix_verdicts
    assert True in perm_verdicts and False in perm_verdicts


# ---------------------------------------------------------------------------
# rows 12a and 12c: certified literals


def test_row12_literals_are_the_derived_ones():
    transitive, intransitive = provenance.derive_row12a_s5s(np.random.default_rng(provenance.ROW12_SEED))
    assert (transitive, intransitive) == (sporadic.S5_TRANSITIVE, sporadic.S5_INTRANSITIVE)
    normalizers = provenance.derive_row12c_normalizers(np.random.default_rng(provenance.ROW12_SEED))
    assert normalizers == sporadic.E_NORMALIZERS


def _change_entry(mats, which, entry):
    mats = [np.array(m) for m in mats]
    mats[which][entry] = (mats[which][entry] + 1) % 3
    return mats


@pytest.mark.parametrize("literal", ["S5_TRANSITIVE", "S5_INTRANSITIVE"])
@pytest.mark.parametrize("which,entry", [(0, (0, 0)), (0, (2, 3)), (1, (1, 2)), (1, (3, 3))])
def test_changed_s5_literal_entry_fails_its_certificate(literal, which, entry):
    mats = getattr(sporadic, literal)
    assert sporadic.s5_from_literal(mats, literal, None).order() == 120
    with pytest.raises(CertificationError):
        sporadic.s5_from_literal(_change_entry(mats, which, entry), literal, None)


@pytest.mark.parametrize("which,entry", [(0, (0, 0)), (0, (2, 3)), (1, (1, 2)), (1, (3, 3))])
def test_changed_normalizer_literal_entry_fails_its_certificate(which, entry):
    with pytest.raises(CertificationError):
        sporadic.normalizer_residual(_change_entry(sporadic.E_NORMALIZERS, which, entry), None)


@pytest.mark.parametrize("claim_id", ["t1r12-a", "t1r12-c"])
def test_row12_setup_runs_no_search(monkeypatch, claim_id):
    from grpfact import grpcore
    from grpfact.catalog import load_catalog
    from grpfact.factorize import build_setup, claim_seed

    calls = []
    monkeypatch.setattr(sporadic, "two_generator_search", lambda *a, **k: calls.append("search"))
    monkeypatch.setattr(grpcore.StabChain, "random_element", lambda *a, **k: calls.append("random_element"))
    setup = build_setup(load_catalog().claim_by_id(claim_id), np.random.default_rng(claim_seed(claim_id, 1)))
    assert calls == []
    assert setup.H.order() == (120 if claim_id == "t1r12-a" else 960)


ROW12_RESULTS = {
    "t1r12-a": (
        [("identity", "pass", 3, []), ("order", "pass", 3, []), ("orbit", "pass", None, [40]),
         ("tight", "pass", None, [])],
        {"kind": "S5", "witnesses": "certified literals", "non_factorizing_witness": {"orbit_length": 20}},
    ),
    "t1r12-c": (
        [("identity", "pass", 24, []), ("order", "pass", 24, []), ("orbit", "pass", None, [40])],
        {"normalizing_elements": 2, "linear_order": 1920},
    ),
}


@pytest.mark.parametrize("claim_id", sorted(ROW12_RESULTS))
def test_row12_results_and_cost_do_not_depend_on_the_seed(claim_id):
    import time

    from grpfact.catalog import load_catalog
    from grpfact.factorize import verify_claim

    claim = load_catalog().claim_by_id(claim_id)
    strategies, search = ROW12_RESULTS[claim_id]
    for base_seed in range(1, 21):
        # a run slowed by the host is retried, up to three runs in all
        times = []
        while len(times) < 3 and (not times or times[-1] >= 0.1):
            start = time.perf_counter()
            rep = verify_claim(claim, base_seed=base_seed)
            times.append(time.perf_counter() - start)
            assert rep.overall == "pass"
            assert [(s.name, s.verdict, s.intersection_order, s.orbit_sizes) for s in rep.strategies] == strategies
            assert rep.notes["search"] == search
        assert min(times) < 0.1, f"{claim_id} took {min(times):.3f} s at base seed {base_seed}"
