"""Field arithmetic: axioms on exhaustive element sets, Frobenius, embeddings."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpfact import gf
from oracles import field_elem_order

SMALL_FIELDS = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (2, 4), (13, 1), (3, 4)]


@pytest.fixture(params=SMALL_FIELDS, ids=lambda pf: f"GF{pf[0]}^{pf[1]}")
def field(request):
    return gf.make_field(*request.param)


def test_make_field_rejects_bad_params():
    with pytest.raises(gf.FieldError):
        gf.make_field(6, 1)
    with pytest.raises(gf.FieldError):
        gf.make_field(2, 0)
    with pytest.raises(gf.FieldError):
        gf.make_field(2, 21)


def test_gf2_trivia():
    F = gf.make_field(2, 1)
    assert F.primitive_elem == 1
    assert F.add(1, 1) == 0
    for s in range(5):
        assert F.frobenius(1, s) == 1


def test_gf4_lambda_relation():
    F = gf.make_field(2, 2)
    lam = F.primitive_elem
    lam_plus_1 = F.add(lam, 1)
    assert F.mul(lam, lam) == lam_plus_1
    assert F.inv(lam) == lam_plus_1
    assert F.frobenius(lam, 1) == lam_plus_1


def test_gf9_multiplicative_order():
    # exhaustive order check over all 9 elements
    F = gf.make_field(3, 2)
    lam = F.primitive_elem
    assert F.power(lam, 8) == 1
    assert F.power(lam, 4) != 1
    orders = sorted(field_elem_order(F, a) for a in range(1, 9))
    assert orders == [1, 2, 4, 4, 8, 8, 8, 8]


def test_field_axioms_exhaustive(field):
    # associativity, distributivity, inverses on the full triple product
    # space, exhaustively for every field up to 81 elements
    F = field
    els = list(range(F.q))
    assert F.q <= 81
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in els:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_frobenius_is_automorphism(field):
    F = field
    for a, b in itertools.product(range(F.q), repeat=2):
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    # order divides f
    for a in range(F.q):
        assert F.frobenius(a, F.f) == a


def test_frobenius_composes():
    F = gf.make_field(2, 4)
    for a in range(F.q):
        assert F.frobenius(F.frobenius(a, 1), 1) == F.frobenius(a, 2)


def test_power_negative_exponent(field):
    F = field
    for a in range(1, min(F.q, 16)):
        assert F.mul(F.power(a, -3), F.power(a, 3)) == 1


@given(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_gf16_axioms_hypothesis(x, y, z):
    F = gf.make_field(2, 4)
    a, b, c = x % 16, y % 16, z % 16
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_embed_prime_field_into_gf4():
    F2, F4 = gf.make_field(2, 1), gf.make_field(2, 2)
    t = gf.embedding_table(F2, F4)
    assert t[1] == 1
    for a, b in itertools.product(range(2), repeat=2):
        assert t[F2.add(a, b)] == F4.add(t[a], t[b])


def test_embed_gf4_into_gf16():
    F4, F16 = gf.make_field(2, 2), gf.make_field(2, 4)
    t = gf.embedding_table(F4, F16)
    lam4 = F4.primitive_elem
    image = int(t[lam4])
    assert image == F16.power(F16.primitive_elem, 5)
    assert field_elem_order(F16, image) == 3
    # ring homomorphism on the full domain
    for a, b in itertools.product(range(4), repeat=2):
        assert t[F4.add(a, b)] == F16.add(int(t[a]), int(t[b]))
        assert t[F4.mul(a, b)] == F16.mul(int(t[a]), int(t[b]))
    assert len(set(int(v) for v in t)) == 4  # injective


def test_embed_requires_subfield_relation():
    with pytest.raises(gf.FieldError):
        gf.embedding_table(gf.make_field(3, 1), gf.make_field(2, 2))
    with pytest.raises(gf.FieldError):
        gf.embedding_table(gf.make_field(2, 3), gf.make_field(2, 4))


def test_lambda_q_outside_ground_field():
    # needed by the hyperplane obstruction: lambda^q must fall outside GF(q)
    for q, f2 in [(2, 2), (4, 4)]:
        sub = gf.make_field(2, f2 // 2)
        ext = gf.make_field(2, f2)
        sub_image = set(int(v) for v in gf.embedding_table(sub, ext))
        lam_q = ext.power(ext.primitive_elem, q)
        assert lam_q not in sub_image


def test_zero_inverse_raises(field):
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


@pytest.mark.parametrize("p, f", [(3, 11), (2, 9), (17, 1)])
def test_make_field_rejects_fields_outside_the_table(p, f):
    with pytest.raises(gf.FieldError, match="not a supported field.*GF\\(256\\)"):
        gf.make_field(p, f)


# the moduli a smallest-index search picked for these fields before the
# table covered them; element encodings depend on them
ADDED_MODULI = {
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 3): (2, 3, 0, 1),
    (11, 2): (7, 1, 1),
    (13, 2): (2, 1, 1),
}


def test_every_prime_power_up_to_256_builds():
    for p in (2, 3, 5, 7, 11, 13):
        f = 1
        while p**f <= 256:
            F = gf.make_field(p, f)
            assert F.q == p**f and field_elem_order(F, F.primitive_elem) == F.q - 1
            assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, F.q))
            f += 1
    for (p, f), modulus in ADDED_MODULI.items():
        assert gf.make_field(p, f).modulus == modulus


@pytest.mark.parametrize("p, f", [(2, 3), (3, 2), (2, 5), (5, 2), (3, 3), (7, 2)])
def test_tables_match_polynomial_arithmetic(p, f):
    # loop reference for the vectorised tables: digit-wise sums and
    # products of residue polynomials reduced by the modulus
    F = gf.make_field(p, f)
    for a, b in itertools.product(range(F.q), repeat=2):
        da, db = gf._digits(a, p, f), gf._digits(b, p, f)
        assert F.add(a, b) == gf._pack([(x + y) % p for x, y in zip(da, db)], p)
        assert F.mul(a, b) == gf._pack(gf._poly_mulmod(da, db, F.modulus, p), p)


def test_specs_are_interned():
    assert gf.make_field(2, 2) is gf.make_field(2, 2)
