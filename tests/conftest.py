"""Shared oracles, kept independent of the library's code paths: the
brute-force ones count by direct enumeration over field tuples, and the
two block-system counts below are identities that only tests use.
point_set, which builds a literal set through the library's encoding, and
first_short_class, which decodes is_cutting's first failing class, are
the helpers that are not oracles."""

import itertools

import numpy as np
import pytest

from mincodes.combinat import count_A, exact_div, phi, psi
from mincodes.field import field_of_order
from mincodes.pointset import DefiningSet, _codes, _digits, _first_short_class


def point_set(gf, k, pts):
    """The defining set of AG(k,q) with the points pts, tuples of element
    indices, in their order."""
    rows = np.array(pts, dtype=np.int64).reshape(len(pts), k)
    return DefiningSet(field=gf, dim=k, codes=_codes(rows, gf.q))


def first_short_class(d):
    """The first class, as a tuple of element indices, whose hyperplane
    is_cutting finds D fails to span, or None when D is cutting."""
    code = _first_short_class(d, budget=10 ** 9)
    return None if code is None else tuple(
        _digits(np.int64(code), d.field.q, d.dim).tolist())


def brute_sum_count(s, q, target, coeffs=None):
    """Count all-nonzero s-tuples over GF(q) with sum(a_i * x_i) == target
    by direct enumeration (coeffs default to all ones)."""
    gf = field_of_order(q)
    coeffs = coeffs or (1,) * s
    count = 0
    for xs in itertools.product(gf.nonzero_elements(), repeat=s):
        total = 0
        for a, x in zip(coeffs, xs):
            total = gf.add(total, gf.mul(a, x))
        if total == target:
            count += 1
    return count


def brute_block_system_count(parts, alphas, q, gamma):
    """Count all-nonzero solutions of the paired block-sum system: total
    sum == gamma and sum of alpha_i * (block i sum) == 0."""
    gf = field_of_order(q)
    s = sum(parts)
    count = 0
    for xs in itertools.product(gf.nonzero_elements(), repeat=s):
        total = 0
        for x in xs:
            total = gf.add(total, x)
        if total != gamma:
            continue
        weighted = 0
        pos = 0
        for a, r in zip(alphas, parts):
            block = 0
            for x in xs[pos : pos + r]:
                block = gf.add(block, x)
            weighted = gf.add(weighted, gf.mul(a, block))
            pos += r
        if weighted == 0:
            count += 1
    return count


def count_A_closed(parts, q):
    """Alternating-sum expansion of the recursion behind count_A; must
    agree with count_A(parts, q) for every composition parts."""
    l = len(parts)
    if l == 1:
        return psi(parts[0], q)
    total = psi(sum(parts[: l - 1]), q) * phi(parts[l - 1], q)
    total += (-1) ** sum(parts[1:]) * psi(parts[0], q)
    for i in range(1, l - 1):
        sign = (-1) ** sum(parts[l - i:])
        total += sign * psi(sum(parts[: l - i - 1]), q) * phi(parts[l - i - 1], q)
    return total


def count_A_nonzero_gamma(parts, q):
    """Solutions of the block-sum system for a nonzero total gamma.
    Scaling every variable by one nonzero scalar shows that all nonzero
    gammas have the same count, and the psi(s) all-nonzero solutions of
    the weighted equation alone split into count_A for gamma = 0 and q-1
    equal shares."""
    return exact_div(psi(sum(parts), q) - count_A(parts, q), q - 1)


def brute_gamma_cap(h, q):
    """Count h-tuples with all entries nonzero and no two entries
    summing to zero."""
    gf = field_of_order(q)
    count = 0
    for xs in itertools.product(gf.nonzero_elements(), repeat=h):
        if all(
            gf.add(xs[i], xs[j]) != 0
            for i in range(h)
            for j in range(i + 1, h)
        ):
            count += 1
    return count


def brute_points(q, k, predicate):
    """All nonzero points of AG(k,q) satisfying a predicate, lex order."""
    gf = field_of_order(q)
    return [
        pt
        for pt in itertools.product(range(q), repeat=k)
        if any(pt) and predicate(gf, pt)
    ]


def brute_weight_distribution(d):
    """Weight counts over all q^k functionals, one scalar product at a
    time (no projective shortcut, no numpy)."""
    gf, k = d.field, d.dim
    counts = {}
    for f in itertools.product(range(gf.q), repeat=k):
        w = sum(1 for pt in d.points if gf.dot(f, pt) != 0)
        counts[w] = counts.get(w, 0) + 1
    return counts


def brute_rank(gf, rows):
    """Rank over GF(q) by plain Gaussian elimination on lists, one field
    operation at a time (no numpy)."""
    rows = [list(row) for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = gf.inv(rows[rank][j])
        top = [gf.mul(inv, x) for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            c = gf.neg(rows[i][j])
            rows[i] = [gf.add(x, gf.mul(c, y)) for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def brute_is_cutting(d):
    """Every hyperplane through the origin, from every nonzero functional,
    meets D in a set of rank k-1."""
    gf, k = d.field, d.dim
    for f in itertools.product(range(gf.q), repeat=k):
        if not any(f):
            continue
        on = [pt for pt in d.points if gf.dot(f, pt) == 0]
        if brute_rank(gf, on) < k - 1:
            return False
    return True


def brute_is_minimal(d):
    """The first pair (containing, contained) of normalized functionals,
    in lexicographic order, whose codewords are nonzero and not scalar
    multiples while the support of the second lies in that of the first;
    None when C_D is minimal.  Supports are bitmasks over D."""
    gf, k = d.field, d.dim
    funcs = [f for f in itertools.product(range(gf.q), repeat=k)
             if any(f) and next(x for x in f if x) == 1]
    words = [[gf.dot(f, pt) for pt in d.points] for f in funcs]
    supports = [sum(1 << i for i, x in enumerate(w) if x) for w in words]
    for i, outer in enumerate(supports):
        for j, inner in enumerate(supports):
            if not inner or i == j or inner & ~outer:
                continue
            if not any(all(gf.mul(a, x) == y
                           for x, y in zip(words[i], words[j]))
                       for a in gf.nonzero_elements()):
                return funcs[i], funcs[j]
    return None


@pytest.fixture
def gf3():
    return field_of_order(3)


@pytest.fixture
def gf5():
    return field_of_order(5)
