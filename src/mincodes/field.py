"""Exact arithmetic in GF(p^m) with precomputed operation tables.

Elements are plain ints in [0, q): the index encodes the coefficient
vector of the representative polynomial in base p (index 0 is the
additive identity, index 1 the multiplicative identity).  All arithmetic
is table-driven, so a constructed field is immutable and safe to share
across workers.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

import numpy as np

#: largest field order this desk-scale tool will build dense tables for
MAX_ORDER = 256


class FieldError(ValueError):
    """Invalid field construction or operation."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over GF(p); coefficients stored low-to-high --------

def _poly_trim(a: Sequence[int]) -> tuple[int, ...]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        c = a[-1]
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _poly_trim(a)


def _monic_polys(degree: int, p: int) -> Iterator[tuple[int, ...]]:
    for low in itertools.product(range(p), repeat=degree):
        yield low + (1,)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1 or poly[0] == 0 and deg > 1:
        # divisible by x
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(d, p):
            if not _poly_mod(poly, div, p):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Candidates are scanned by the base-p value of their non-leading
    coefficients (low coefficient least significant), which is the
    canonical order used for reproducible moduli.
    """
    for low in itertools.product(range(p), repeat=m):
        # itertools.product varies the last slot fastest; we want the
        # low-order coefficient fastest, so reverse.
        cand = tuple(reversed(low)) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")


class GF:
    """A finite field GF(p^m) with dense add/mul tables.

    Construct via :func:`make_field`; direct construction accepts an
    explicit modulus (monic, irreducible, degree m, low-to-high).
    """

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        q = p ** m
        if q > MAX_ORDER:
            raise FieldError(f"field order {q} exceeds cap {MAX_ORDER}")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree m")
        if m > 1 and not _is_irreducible(modulus, p):
            raise FieldError("modulus is reducible")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self._build_tables()

    # -- encoding ----------------------------------------------------------

    def _coeffs(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(out)

    def _index(self, coeffs: Sequence[int]) -> int:
        idx = 0
        for c in reversed(tuple(coeffs)[: self.m]):
            idx = idx * self.p + c
        return idx

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        if self.m == 1:
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            polys = [self._coeffs(i) for i in range(q)]
            add = [
                [
                    self._index(tuple((x + y) % p for x, y in zip(pa, pb)))
                    for pb in polys
                ]
                for pa in polys
            ]
            mul = [
                [
                    self._index(
                        _poly_mod(_poly_mul(_poly_trim(pa), _poly_trim(pb), p),
                                  self.modulus, p)
                        + (0,) * self.m
                    )
                    for pb in polys
                ]
                for pa in polys
            ]
        self._add = add
        self._mul = mul
        self._neg = [add[a].index(0) for a in range(q)]
        self._inv = [0] + [mul[a].index(1) for a in range(1, q)]
        # numpy views for vectorized evaluation and row reduction
        self.add_table = np.array(add, dtype=np.int64)
        self.mul_table = np.array(mul, dtype=np.int64)
        self.neg_table = np.array(self._neg, dtype=np.int64)
        self.inv_table = np.array(self._inv, dtype=np.int64)

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

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def elements(self) -> range:
        return range(self.q)

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
    monic irreducible) modulus.  Deterministic across runs."""
    if not is_prime(p):
        raise FieldError(f"characteristic {p} is not prime")
    if m < 1:
        raise FieldError(f"extension degree must be >= 1, got {m}")
    if p ** m > MAX_ORDER:
        raise FieldError(f"field order {p ** m} exceeds cap {MAX_ORDER}")
    if m == 1:
        modulus = (0, 1)  # the identity polynomial x
    else:
        modulus = _smallest_irreducible(p, m)
    return GF(p, m, modulus)


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m and p prime; FieldError for any other q."""
    for p in range(2, q + 1):
        if q % p == 0:  # the smallest divisor above 1 is prime
            m, rest = 0, q
            while rest % p == 0:
                rest //= p
                m += 1
            if rest == 1:
                return p, m
            break
    raise FieldError(f"{q} is not a prime power")


@functools.lru_cache(maxsize=None)
def field_of_order(q: int) -> GF:
    """Build GF(q) for a prime power q, factoring q automatically."""
    return make_field(*factor_prime_power(q))
