"""Exact arithmetic in GF(p^m) with precomputed operation tables.

Elements are plain ints in [0, q).  The j-th base-p digit of element i
(least significant first) is the coefficient of x^j in the polynomial it
stands for, reduced modulo the field's monic modulus of degree m.  So
index 0 is the additive identity and index 1 the multiplicative identity.

Both tables are built at once with numpy.  Addition is digitwise addition
mod p.  Multiplying by x is the companion matrix X of the modulus, so
multiplying by b is sum_j b_j X^j, applied to the digits of every element.
A modulus is irreducible exactly when its mul table has no zero divisors,
so irreducibility is read from the table.  All arithmetic is table-driven,
so a constructed field is immutable and safe to share across workers.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

#: largest field order this desk-scale tool will build dense tables for
MAX_ORDER = 256


class FieldError(ValueError):
    """Invalid field construction or operation."""


def _check_order(p: int, m: int) -> None:
    if m < 1:
        raise FieldError(f"extension degree must be >= 1, got {m}")
    if p ** m > MAX_ORDER:
        raise FieldError(f"field order {p ** m} exceeds cap {MAX_ORDER}")
    if factor_prime_power(p) != (p, 1):
        raise FieldError(f"characteristic {p} is not prime")


def _tables(p: int, m: int,
            modulus: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """add and mul tables of GF(p)[x]/(modulus) on the base-p encoding."""
    place = p ** np.arange(m)
    digits = np.arange(p ** m)[:, None] // place % p
    x = np.eye(m, k=-1, dtype=np.int64)
    x[:, -1] -= modulus[:m]
    powers = [np.eye(m, dtype=np.int64)]
    for _ in range(m - 1):
        powers.append(x @ powers[-1] % p)
    by = np.tensordot(digits, powers, axes=1)  # by[b] = sum_j b_j X^j
    add = (digits[:, None] + digits) % p @ place
    mul = np.einsum("bij,aj->abi", by, digits) % p @ place
    return add, mul


class GF:
    """A finite field GF(p^m) with dense add/mul tables.

    Construct via :func:`make_field`; direct construction accepts an
    explicit modulus (monic, irreducible, degree m, low-to-high).
    """

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        _check_order(p, m)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree m")
        add, mul = _tables(p, m, modulus)
        if not mul[1:, 1:].all():  # zero divisors: the modulus factors
            raise FieldError("modulus is reducible")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        # numpy tables for vectorized evaluation and row reduction
        self.add_table = add
        self.mul_table = mul
        self.neg_table = (add == 0).argmax(axis=1)
        self.inv_table = (mul == 1).argmax(axis=1)  # 0 for the zero row
        # list copies for scalar arithmetic
        self._add = add.tolist()
        self._mul = mul.tolist()
        self._neg = self.neg_table.tolist()
        self._inv = self.inv_table.tolist()

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        return self._inv[a]

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def dot(self, coeffs: Sequence[int], point: Sequence[int]) -> int:
        """Evaluate the linear form sum_j coeffs[j] * point[j]."""
        acc = 0
        for c, x in zip(coeffs, point):
            if c and x:
                acc = self._add[acc][self._mul[c][x]]
        return acc

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"GF({self.p}^{self.m}), modulus={mod}"


@functools.lru_cache(maxsize=None)
def make_field(p: int, m: int = 1) -> GF:
    """Build GF(p^m) with the canonical (lexicographically smallest
    monic irreducible) modulus.  Deterministic across runs.

    Candidates are tried by the base-p value of their non-leading
    coefficients, low coefficient least significant.
    """
    _check_order(p, m)  # before the search builds any table
    for low in itertools.product(range(p), repeat=m):
        # product varies the last slot fastest, so reverse it.  The
        # order has passed _check_order and each candidate is monic of
        # degree m, so the only FieldError left is a reducible modulus.
        try:
            return GF(p, m, tuple(reversed(low)) + (1,))
        except FieldError:
            pass


#: the first 13 primes: as Miller-Rabin bases they decide primality of
#: every n below _MR_LIMIT (Sorenson and Webster, "Strong pseudoprimes to
#: twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: about 3.3 * 10^24, the least strong pseudoprime to all of _MR_BASES
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin with _MR_BASES, which is
    exact for n < _MR_LIMIT.  A larger n that passes every base is
    refused with FieldError, since no base proves it prime."""
    if n < 2:
        return False
    if n in _MR_BASES or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:  # a^(n-1) != 1, or 1 has a square root other than +-1
            return False
    if n >= _MR_LIMIT:
        raise FieldError(f"{n} is past {_MR_LIMIT}, where primality is "
                         f"not decided")
    return True


def _root(q: int, m: int) -> int:
    """The integer p with p^m = q >= 1, or 0 when there is none: Newton's
    iteration in integers, from above, ends at the floor of the root."""
    x = 1 << -(-q.bit_length() // m)  # at least the root
    while (y := ((m - 1) * x + q // x ** (m - 1)) // m) < x:
        x = y
    return x if x ** m == q else 0


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m and p prime; FieldError for any other q.

    The candidates p are the exact integer m-th roots of q, for m from
    log2(q) down to 1, and p is proved prime by :func:`_is_prime`.  So it
    costs O(log q) modular powers.  Primality is decided below about
    3.3 * 10^24; a q whose root p is past that and passes every base is
    refused with FieldError.
    """
    for m in range(max(q, 1).bit_length() - 1, 0, -1):
        p = _root(q, m)
        if p >= 2 and _is_prime(p):
            return p, m
    raise FieldError(f"{q} is not a prime power")


def field_of_order(q: int) -> GF:
    """Build GF(q) for a prime power q, factoring q automatically (the
    same object on every call, from :func:`make_field`'s cache).  An
    order above MAX_ORDER is refused before it is factored."""
    if q > MAX_ORDER:
        raise FieldError(f"field order {q} exceeds cap {MAX_ORDER}")
    return make_field(*factor_prime_power(q))
