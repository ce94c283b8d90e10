"""Sporadic-row locators and their certificates."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import provenance
import pytest

from grpfact import sporadic
from grpfact.actions import PermDomain
from grpfact.constructors import ConstructionError, classical_generators
from grpfact.factorize import intersect
from grpfact.gf import make_field
from grpfact.grpcore import CertificationError, Tracked, shared_domain, t_compose
from grpfact.linalg import VECTOR, GroupElement, Mat, sl_compose
from grpfact.sporadic import SPECTRA, exact_spectrum, locate_4xa5, sp4_2_derived, subgroup_from_literal


@pytest.fixture
def rng():
    return np.random.default_rng(424242)


def test_sp42_derived():
    d = sp4_2_derived()
    assert d.order() == 360
    assert exact_spectrum(d.chain()) == frozenset({1, 2, 3, 4, 5})


def test_sp42_derived_keeps_the_chain_derived_subgroup_certified(monkeypatch):
    builds = oracles.count_chain_builds(monkeypatch)
    d = sp4_2_derived()
    assert d.chain().order() == 360
    assert builds == ["Sp_4(2)", "Sp_4(2)''"]  # the parent's chain and the derived one


def test_exact_spectrum_scratch_is_bounded():
    # Sp_4(3), 51,840 elements on 80 vectors, walked in chunks of at most
    # 2^14 word entries: Support.orders' temporaries on one chunk stay under
    # 1 MiB, where the whole group in one chunk takes several MiB
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


def test_two_a5_classes():
    Z = sporadic.psl2_9()
    X = subgroup_from_literal(Z, sporadic.A5_FIRST, "A5", "A5 class 1", None)
    Y = subgroup_from_literal(Z, sporadic.A5_SECOND, "A5", "A5 class 2", None)
    assert X.order() == Y.order() == 60
    assert exact_spectrum(X.chain()) == exact_spectrum(Y.chain()) == SPECTRA["A5"]
    assert intersect(X, Y, "enumerate_smaller").order() == 10
    # brute force over all 360 elements z of Z: z^-1 Y z is never X
    xchain, ygens = X.chain(), Y.tracked_generators()
    conjugate_to_x = [z for z in oracles.chain_elements(Z.chain())
                      if all(xchain.contains_tracked(t_compose(t_compose(z.inverse(), g), z)) for g in ygens)]
    assert conjugate_to_x == []


def test_a7_certificates():
    A7 = subgroup_from_literal(classical_generators("SL", 4, 2), sporadic.A7, "A7", "A7<SL_4(2)", None)
    assert A7.order() == 2520
    assert A7.chain().verified
    assert exact_spectrum(A7.chain()) == SPECTRA["A7"]


def test_search_rejects_supergroups():
    # A7 is maximal in SL_4(2) ~ A8, so the A7 literal and one more element
    # of SL_4(2) generate the whole ambient; certify_subgroup, which both
    # the literals and two_generator_search go through, must refuse it
    Z = classical_generators("SL", 4, 2)
    domain = Z.chain().domain
    A7 = subgroup_from_literal(Z, sporadic.A7, "A7", "A7<SL_4(2)", None)
    extra = next(g for g in Z.generators if not A7.contains(g))
    tracked = [Tracked(domain.perm_of(g), g) for g in (*A7.generators, extra)]
    with pytest.raises(CertificationError):
        sporadic.certify_subgroup(domain, tracked, "A7", None, "A7 and one more generator")


def test_4xa5_structure(rng):
    X, info = locate_4xa5(rng)
    assert X.order() == 240
    assert info == {"kind": "SL2_5", "witnesses": "certified literals", "linear_order": 480}
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


def test_module_twist_conjugates_by_delta_inverse_on_the_left():
    # d^-1 C d = C^7 in SL_2(13) for d = diag(2, 1) (2^-1 = 7 mod 13), while
    # d C d^-1 = C^2: the twist of C must be c6^7, not c6^2
    c6 = sporadic._PSL2_13_C6
    twist_c, twist_s = sporadic.certify_psl2_13_module(c6, sporadic._PSL2_13_S6)
    assert np.array_equal(twist_c, np.linalg.matrix_power(c6, 7) % 3)
    assert not np.array_equal(twist_c, np.linalg.matrix_power(c6, 2) % 3)
    assert twist_s.base is None


def test_module_certificate_leaves_nothing_alive():
    # the certificate's orbit, rho and domain are freed at return: a second
    # call, its return value held, leaves under 0.05 MiB traced
    mats = (sporadic._PSL2_13_C6, sporadic._PSL2_13_S6)
    sporadic.certify_psl2_13_module(*mats)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = sporadic.certify_psl2_13_module(*mats)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(held) == 2
    assert left < 0.05 * 2**20


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


def test_row13_verifies_with_no_matrix_read_off_a_permutation(monkeypatch):
    from grpfact.actions import ActionError
    from grpfact.catalog import load_catalog
    from grpfact.factorize import verify_claim

    def refuse(domain, perm):
        raise ActionError("no matrix is read off a permutation here")

    monkeypatch.setattr(PermDomain, "element_of", refuse)
    _, X2, _ = sporadic.locate_two_psl2_13(np.random.default_rng(1))
    # the second witness holds the relabeled projective permutations only
    assert X2.order() == 1092 and all(t.elem is None for t in X2.tracked_generators())
    rep = verify_claim(load_catalog().claim_by_id("t1r13"))
    assert rep.overall == "pass"
    assert rep.strategies[1].details["witnesses"][1]["name"] == X2.name


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
    return GroupElement(Mat(F3, np.kron(np.eye(2, dtype=np.int64), [[1, 1], [0, 1]]) % 3))


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
    dom = chain.domain
    echain = sporadic._extraspecial_chain(egens, dom)
    eset = {t.matrix(dom) for t in oracles.chain_elements(echain)}
    assert len(eset) == 32
    rng = np.random.default_rng(20260810)
    u = _unipotent_in_second_factor(F3)
    u = Tracked(dom.perm_of(u), u)
    # the same unipotent in the first factor does not normalize D8
    v = GroupElement(Mat(F3, np.kron([[1, 1], [0, 1]], np.eye(2, dtype=np.int64)) % 3))
    v = Tracked(dom.perm_of(v), v)
    tries = [chain.random_element(rng) for _ in range(40)] + [u, v]
    tries += [t_compose(echain.random_element(rng), w) for w in (u, v, u.inverse()) for _ in range(3)]
    perm_verdicts = [sporadic._normalizes(echain, t) for t in tries]
    matrix_verdicts = [
        all(sl_compose(sl_compose(t.inverse().matrix(dom), e), t.matrix(dom)) in eset for e in egens) for t in tries
    ]
    assert perm_verdicts == matrix_verdicts
    assert True in perm_verdicts and False in perm_verdicts


# ---------------------------------------------------------------------------
# rows 9-12: certified literals


def test_row12_literals_are_the_derived_ones():
    transitive, intransitive = provenance.derive_row12a_s5s(np.random.default_rng(provenance.ROW12_SEED))
    assert (transitive, intransitive) == (sporadic.S5_TRANSITIVE, sporadic.S5_INTRANSITIVE)
    normalizers = provenance.derive_row12c_normalizers(np.random.default_rng(provenance.ROW12_SEED))
    assert normalizers == sporadic.E_NORMALIZERS


SEARCHED_LITERALS = {
    "row9": (provenance.derive_row9_a5s, (sporadic.A5_FIRST, sporadic.A5_SECOND)),
    "row10": (provenance.derive_row10_pair, (sporadic.PGL2_7, sporadic.M10)),
    "row11": (provenance.derive_row11_a7, sporadic.A7),
    "row12b": (provenance.derive_row12b_sl2_5, sporadic.SL2_5),
}


@pytest.mark.parametrize("row", sorted(SEARCHED_LITERALS))
def test_searched_literals_are_the_derived_ones(row):
    derive, literal = SEARCHED_LITERALS[row]
    assert derive(np.random.default_rng(provenance.SEARCH_SEED)) == literal


def _change_entry(literal, which, entry, q=3):
    """The literal with one matrix entry moved to the next field encoding;
    the entry's indices are taken modulo the matrix size."""
    literal = list(literal)
    item = literal[which]
    mat = np.array(item[0] if isinstance(item, tuple) else item)
    i, j = (k % len(mat) for k in entry)
    mat[i, j] = (mat[i, j] + 1) % q
    literal[which] = (mat, *item[1:]) if isinstance(item, tuple) else mat
    return literal


# each literal's ambient and kind
LITERALS = {
    "S5_TRANSITIVE": (lambda: sporadic.psl_n3_projective(4), "S5"),
    "S5_INTRANSITIVE": (lambda: sporadic.psl_n3_projective(4), "S5"),
    "A5_FIRST": (sporadic.psl2_9, "A5"),
    "A5_SECOND": (sporadic.psl2_9, "A5"),
    "PGL2_7": (lambda: sporadic.psl3_4_ext("phi_gamma"), "PGL2_7"),
    "M10": (lambda: sporadic.psl3_4_ext("phi_gamma"), "M10"),
    "A7": (lambda: classical_generators("SL", 4, 2), "A7"),
    "SL2_5": (lambda: classical_generators("SL", 2, 9), "SL2_5"),
}


# changes after which the matrices still generate a subgroup of the kind, so
# the certificate rightly accepts them; a brute-force closure confirms it
STILL_OF_THE_KIND = {("A5_FIRST", 0, (0, 0)), ("A5_SECOND", 0, (2, 3)), ("M10", 0, (0, 0)), ("SL2_5", 0, (0, 0))}


@pytest.mark.parametrize("literal", list(LITERALS))
@pytest.mark.parametrize("which,entry", [(0, (0, 0)), (0, (2, 3)), (1, (1, 2)), (1, (3, 3))])
def test_changed_s5_literal_entry_fails_its_certificate(literal, which, entry):
    # named for row 12a's S5 literals, the first it covered; it covers every
    # literal that subgroup_from_literal certifies
    ambient, kind = LITERALS[literal]
    Z, mats = ambient(), getattr(sporadic, literal)
    X = subgroup_from_literal(Z, mats, kind, literal, None)
    assert X.order() == sporadic.TARGET_ORDERS[kind]
    changed = _change_entry(mats, which, entry, Z.spec.q)
    if (literal, which, entry) not in STILL_OF_THE_KIND:
        with pytest.raises(CertificationError):
            subgroup_from_literal(Z, changed, kind, literal, None)
        return
    Y = subgroup_from_literal(Z, changed, kind, literal, None)
    elements = oracles.perm_closure([t.perm for t in Y.tracked_generators()])
    assert len(elements) == sporadic.TARGET_ORDERS[kind]
    assert {oracles.perm_order(p) for p in elements} == SPECTRA[kind]


def test_singular_literal_is_refused_before_any_permutation(monkeypatch):
    Z = sporadic.psl2_9()
    Z.chain()
    reads = []
    monkeypatch.setattr(PermDomain, "perm_of", lambda *a: reads.append(a))
    singular = ([[1, 1], [1, 1]], sporadic.A5_FIRST[1])
    with pytest.raises(CertificationError, match="singular"):
        subgroup_from_literal(Z, singular, "A5", "singular literal", None)
    assert reads == []


@pytest.mark.parametrize("which,entry", [(0, (0, 0)), (0, (2, 3)), (1, (1, 2)), (1, (3, 3))])
def test_changed_normalizer_literal_entry_fails_its_certificate(which, entry):
    with pytest.raises(CertificationError):
        sporadic.normalizer_residual(_change_entry(sporadic.E_NORMALIZERS, which, entry), None)


# each claim's first factor and its order
SETUP_H_ORDERS = {
    "t1r09": 60, "t1r10": 336, "t1r11-a": 2520, "t1r11-b": 2520,
    "t1r12-a": 120, "t1r12-b": 240, "t1r12-c": 960, "suite-r9": 60,
}


@pytest.mark.parametrize("claim_id", sorted(SETUP_H_ORDERS))
def test_row12_setup_runs_no_search(monkeypatch, claim_id):
    from grpfact import grpcore
    from grpfact.catalog import load_catalog
    from grpfact.factorize import build_setup, claim_seed

    calls = []
    monkeypatch.setattr(sporadic, "two_generator_search", lambda *a, **k: calls.append("search"))
    monkeypatch.setattr(grpcore.StabChain, "random_element", lambda *a, **k: calls.append("random_element"))
    setup = build_setup(load_catalog().claim_by_id(claim_id), np.random.default_rng(claim_seed(claim_id, 1)))
    assert calls == []
    assert setup.H.order() == SETUP_H_ORDERS[claim_id]


LITERALS_NOTE = {"witnesses": "certified literals"}
PROJECTIVE_NOTE = "ambient stated modulo scalars; linear lift identity shown"
# each claim's strategies and the notes of its witnesses, at every base seed
ROW12_RESULTS = {
    "t1r09": (
        [("identity", "pass", 10, []), ("enumerate", "pass", 10, [])],
        {**LITERALS_NOTE, "classes": "distinct conjugate A5s meet in A4 (order 12), so an intersection of "
                                     "order 10 separates the classes"},
    ),
    "t1r10": (
        [("identity", "pass", 6, []), ("enumerate", "pass", 6, [])],
        {"extension": "PSL_3(4).2[phi_gamma]", **LITERALS_NOTE},
    ),
    "t1r11-a": (
        [("identity", "pass", 21, []), ("enumerate", "pass", 21, []), ("orbit", "pass", None, [120])],
        LITERALS_NOTE,
    ),
    "t1r11-b": (
        [("identity", "pass", 168, []), ("enumerate", "pass", 168, []), ("orbit", "pass", None, [15])],
        LITERALS_NOTE,
    ),
    "t1r12-a": (
        [("identity", "pass", 3, []), ("order", "pass", 3, []), ("orbit", "pass", None, [40]),
         ("tight", "pass", None, [])],
        {"search": {"kind": "S5", "witnesses": "certified literals",
                    "non_factorizing_witness": {"orbit_length": 20}}},
    ),
    "t1r12-b": (
        [("identity", "pass", 6, []), ("order", "pass", 6, []), ("orbit", "pass", None, [40])],
        {"search": {"kind": "SL2_5", "witnesses": "certified literals", "linear_order": 480}},
    ),
    "t1r12-c": (
        [("identity", "pass", 24, []), ("order", "pass", 24, []), ("orbit", "pass", None, [40])],
        {"search": {"normalizing_elements": 2, "linear_order": 1920}},
    ),
}


@pytest.mark.parametrize("claim_id", sorted(ROW12_RESULTS))
def test_row12_results_and_cost_do_not_depend_on_the_seed(claim_id):
    import time

    from grpfact.catalog import load_catalog
    from grpfact.factorize import verify_claim

    claim = load_catalog().claim_by_id(claim_id)
    strategies, notes = ROW12_RESULTS[claim_id]
    # t1r10 certifies PGL_2(7) and M10 on 336 antiflags and enumerates 336
    # elements, a few times the work of the others
    bound = 0.5 if claim_id == "t1r10" else 0.1
    for base_seed in range(1, 21):
        # a run slowed by the host is retried, up to three runs in all
        times = []
        while len(times) < 3 and (not times or times[-1] >= bound):
            start = time.perf_counter()
            rep = verify_claim(claim, base_seed=base_seed)
            times.append(time.perf_counter() - start)
            assert rep.overall == "pass"
            assert [(s.name, s.verdict, s.intersection_order, s.orbit_sizes) for s in rep.strategies] == strategies
            assert {k: rep.notes[k] for k in notes} == notes
        assert min(times) < bound, f"{claim_id} took {min(times):.3f} s at base seed {base_seed}"


def test_verifying_row13_leaves_the_meataxe_unimported():
    # the class-split certificate needs only linalg's commutant dimension;
    # the chop machinery would be compiled inside the timed claim
    code = ("import sys\n"
            "from grpfact import catalog, factorize\n"
            "report = factorize.verify_claim(catalog.load_catalog().claim_by_id('t1r13'))\n"
            "print(report.overall, 'grpfact.meataxe' in sys.modules)\n")
    src = str(Path(sporadic.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                          timeout=300, check=True)
    assert done.stdout.split() == ["pass", "False"]
