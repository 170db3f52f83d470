import hashlib
import itertools
import time

import pytest

from mincodes import field
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
    # an order past the cap is refused before it is factored
    with pytest.raises(FieldError, match="exceeds cap 256"):
        field_of_order(1000000007)


def test_field_of_order_checks_the_cap_before_factoring(monkeypatch):
    def refuse(q):
        raise AssertionError(f"{q} factored")

    monkeypatch.setattr(field, "factor_prime_power", refuse)
    for q in (257, 2 ** 61 - 1):
        with pytest.raises(FieldError, match=f"field order {q} exceeds cap"):
            field_of_order(q)


def _trial_division(q):
    """(p, m) with q = p^m, p prime, by trial division; None otherwise."""
    p = next((p for p in range(2, q + 1) if q % p == 0), None)
    if p is None:
        return None
    m = 0
    while q % p == 0:
        q, m = q // p, m + 1
    return (p, m) if q == 1 else None


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(256) == (2, 8)
    # p is an exact integer root of q, proved prime by Miller-Rabin
    assert factor_prime_power(1000000007) == (1000000007, 1)
    assert factor_prime_power(10007 ** 2) == (10007, 2)
    assert factor_prime_power(2 ** 61 - 1) == (2 ** 61 - 1, 1)
    assert factor_prime_power((2 ** 31 - 1) ** 2) == (2 ** 31 - 1, 2)
    assert factor_prime_power(3 ** 50) == (3, 50)
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2,
    # 3215031751 to the prime bases up to 7, 3825123056546413051 up to 31
    # and 318665857834031151167461 up to 37: base 41 alone shows it
    for q in (6, 12, 1, 0, -4, 10007 * 10009, 2 * 10007 ** 2, 561, 2047,
              3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(FieldError, match="is not a prime power"):
            factor_prime_power(q)
    for q in range(-5, 3000):
        try:
            found = factor_prime_power(q)
        except FieldError:
            found = None
        assert found == _trial_division(q), q


def test_factor_prime_power_refuses_past_the_proved_bound():
    # the 13 bases decide primality below 3.3 * 10^24; a prime root past
    # that is refused at once, and so is the bound itself, the least
    # composite that passes every base; other composites are rejected
    start = time.perf_counter()
    prime = 2 ** 89 - 1
    for q, p in ((prime, prime), (prime ** 2, prime),
                 (field._MR_LIMIT, field._MR_LIMIT)):
        with pytest.raises(FieldError, match=f"{p} is past"):
            factor_prime_power(q)
    with pytest.raises(FieldError, match="is not a prime power"):
        factor_prime_power(10 ** 400)
    assert factor_prime_power(2 ** 100) == (2, 100)
    assert time.perf_counter() - start < 1


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


# sha256 of every modulus and table of make_field, captured when the tables
# were still built by polynomial multiplication and trial division
TABLES_DIGEST = (
    "c8596b8f7d3323d672abb95da476b1b1014e19551330462fd243e4ab2e28f8aa")


def test_tables_of_every_field_are_pinned():
    h = hashlib.sha256()
    orders = 0
    for q in range(2, MAX_ORDER + 1):
        try:
            p, m = factor_prime_power(q)
        except FieldError:
            continue
        gf = make_field(p, m)
        h.update(repr((p, m, gf.modulus)).encode())
        h.update(gf.add_table.tobytes())
        h.update(gf.mul_table.tobytes())
        orders += 1
    assert orders == 70
    assert h.hexdigest() == TABLES_DIGEST


def _mobius(n: int) -> int:
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                                 (7, 2), (11, 2)])
def test_accepted_moduli_match_gauss_count(p, m):
    accepted = 0
    for low in itertools.product(range(p), repeat=m):
        try:
            GF(p, m, low + (1,))
        except FieldError:
            continue
        accepted += 1
    # monic irreducibles of degree m: (1/m) sum_{d|m} mu(d) p^(m/d)
    total = sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1)
                if m % d == 0)
    assert accepted * m == total
