import itertools

import pytest

from mincodes.field import (
    MAX_ORDER,
    FieldError,
    GF,
    factor_prime_power,
    field_of_order,
    make_field,
)

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4)]


def test_gf4_has_the_unique_irreducible_modulus():
    # x^2 + x + 1 is the only monic irreducible quadratic over GF(2)
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_prime_field_modulus_is_identity_polynomial():
    assert make_field(3).modulus == (0, 1)


def test_nonprime_characteristic_rejected():
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(9)


def test_bad_degree_and_size_cap():
    with pytest.raises(FieldError):
        make_field(2, 0)
    with pytest.raises(FieldError):
        make_field(2, 9)  # 512 > MAX_ORDER
    assert make_field(2, 8).q == MAX_ORDER


def test_gf4_multiplication():
    gf = make_field(2, 2)
    # x * (x+1) = x^2 + x = 1 mod x^2+x+1
    assert gf.mul(2, 3) == 1


def test_prime_field_arithmetic():
    gf3 = make_field(3)
    assert gf3.add(2, 2) == 1
    gf5 = make_field(5)
    assert gf5.inv(2) == 3


def test_inv_of_zero_raises():
    with pytest.raises(FieldError):
        make_field(5).inv(0)


def test_nonzero_elements():
    assert list(make_field(3).nonzero_elements()) == [1, 2]
    assert len(list(make_field(2, 2).nonzero_elements())) == 3
    assert list(make_field(2).nonzero_elements()) == [1]


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_field_axioms_exhaustive(p, m):
    gf = make_field(p, m)
    q = gf.q
    els = range(q)
    for a in els:
        assert gf.add(a, 0) == a
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
    if q <= 16:
        for a, b in itertools.product(els, repeat=2):
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
        for a, b, c in itertools.product(els, repeat=3):
            assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
            assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
            assert gf.mul(a, gf.add(b, c)) == \
                gf.add(gf.mul(a, b), gf.mul(a, c))


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_characteristic(p, m):
    gf = make_field(p, m)
    total = 0
    for _ in range(p):
        total = gf.add(total, 1)
    assert total == 0


def test_field_of_order():
    assert field_of_order(9).p == 3
    assert field_of_order(8).m == 3
    with pytest.raises(FieldError):
        field_of_order(6)


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(256) == (2, 8)
    for q in (6, 12, 1, 0, -4):
        with pytest.raises(FieldError):
            factor_prime_power(q)


def test_construction_is_deterministic():
    a = GF(3, 2, make_field(3, 2).modulus)
    b = make_field(3, 2)
    assert a == b
    assert a._mul == b._mul


def test_explicit_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        GF(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2


def test_repr():
    assert repr(make_field(2, 2)) == "GF(2^2), modulus=1,1,1"
