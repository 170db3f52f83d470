"""Exact integer counters behind the closed-form weight formulas.

Everything here is arbitrary-precision integer arithmetic; every
division asserts exactness (an inexact division means a formula was
transcribed wrong, so we abort loudly instead of rounding).
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Iterator, Sequence


class CountError(ValueError):
    """Invalid arguments to a counting function."""


def exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"inexact division {num}/{den}")
    return quot


@functools.lru_cache(maxsize=None)
def psi(s: int, q: int) -> int:
    """Number of all-nonzero s-tuples over GF(q) summing to 0.

    psi(0) = 1 (the empty tuple).
    """
    if s < 0 or q < 2:
        raise CountError(f"psi requires s >= 0, q >= 2; got s={s}, q={q}")
    return exact_div((q - 1) ** s + (-1) ** s * (q - 1), q)


@functools.lru_cache(maxsize=None)
def phi(s: int, q: int) -> int:
    """Number of all-nonzero s-tuples over GF(q) summing to 1."""
    if s < 0 or q < 2:
        raise CountError(f"phi requires s >= 0, q >= 2; got s={s}, q={q}")
    return exact_div((q - 1) ** s - psi(s, q), q - 1)


def _strip_trailing_zero(parts: Sequence[int]) -> tuple[int, ...]:
    """Apply the notational convention A_{r1,...,rl,0} = A_{r1,...,rl}."""
    parts = tuple(int(r) for r in parts)
    if parts and parts[-1] == 0:
        parts = parts[:-1]
    if not parts or any(r < 1 for r in parts):
        raise CountError(f"composition parts must be >= 1: {parts}")
    return parts


@functools.lru_cache(maxsize=None)
def _A(parts: tuple[int, ...], q: int) -> int:
    """Recursive block-sum solution count, no block-count validation."""
    if len(parts) == 1:
        return psi(parts[0], q)
    head, last = parts[:-1], parts[-1]
    return psi(sum(head), q) * phi(last, q) + (-1) ** last * _A(head, q)


def count_A(parts: Sequence[int], q: int) -> int:
    """Solutions of the block-sum system S_{r1..rl}(0) with pairwise
    distinct nonzero block coefficients and all variables nonzero.

    ``parts`` may carry a single trailing 0 (notational convention: same
    value as without it).  Requires l <= q-1 so l distinct nonzero
    coefficients exist.
    """
    parts = _strip_trailing_zero(parts)
    if len(parts) > q - 1:
        raise CountError(
            f"need {len(parts)} pairwise distinct nonzero coefficients "
            f"but GF({q}) has only {q - 1}"
        )
    return _A(parts, q)


def surjections(x: int, y: int) -> int:
    """Number of surjective functions from an x-set onto a y-set."""
    if x < 0 or y < 0:
        raise CountError("surjections requires nonnegative arguments")
    if y > x:
        return 0
    return sum((-1) ** i * math.comb(y, i) * (y - i) ** x for i in range(y + 1))


def gamma_cap(h: int, q: int) -> int:
    """Number of h-tuples over GF(q), q odd, with all entries nonzero and
    no two entries summing to zero."""
    if q % 2 == 0:
        raise CountError("gamma_cap is defined for odd q only")
    if h < 0:
        raise CountError("h must be >= 0")
    m = (q - 1) // 2  # the pairs {a, -a} of nonzero elements
    # s of the pairs, one element of each, and the h positions onto them
    return sum(math.comb(m, s) * 2 ** s * surjections(h, s)
               for s in range(1, min(h, m) + 1))


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (r_1! ... r_l!) with sum(parts) == n enforced."""
    parts = tuple(parts)
    if sum(parts) != n:
        raise CountError(f"multinomial parts {parts} do not sum to {n}")
    out = math.factorial(n)
    for r in parts:
        out = exact_div(out, math.factorial(r))
    return out


def part_type(parts: Sequence[int]) -> tuple[int, ...]:
    """Multiplicities (i_1,...,i_j) of the distinct values in ``parts``."""
    seen = collections.Counter(parts)
    return tuple(seen[v] for v in sorted(seen, reverse=True))


def _partitions_desc(s: int, max_part: int,
                     max_len: int) -> Iterator[tuple[int, ...]]:
    """Partitions of s into at most max_len parts of at most max_part,
    parts descending, in descending-lexicographic order.  A first part
    with first * max_len < s leaves too much for the other parts, and so
    does every smaller one, so the loop stops there."""
    if s == 0:
        yield ()
        return
    for first in range(min(s, max_part), 0, -1):
        if first * max_len < s:
            break
        for rest in _partitions_desc(s - first, first, max_len - 1):
            yield (first,) + rest


@functools.lru_cache(maxsize=256)
def enumerate_part_multisets(
    s: int, max_len: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All multisets {r_1,...,r_l} of positive parts with sum s and
    l <= max_len, as (parts sorted descending, type multiplicities),
    in deterministic descending-lexicographic order.

    Memoized, as :func:`psi` and :func:`phi` are, for the last 256
    distinct (s, max_len): a repeated call returns the same tuple of
    tuples, which no caller can change."""
    if s < 1:
        raise CountError("s must be >= 1")
    return tuple((parts, part_type(parts))
                 for parts in _partitions_desc(s, s, max_len))
