import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from mincodes import combinat
from mincodes.combinat import (
    CountError,
    count_A,
    enumerate_part_multisets,
    gamma_cap,
    multinomial,
    phi,
    psi,
    surjections,
)
from conftest import brute_block_system_count, brute_gamma_cap, \
    brute_sum_count, count_A_closed, count_A_nonzero_gamma

PRIME_POWERS_SMALL = [2, 3, 4, 5, 7]


def compositions(total, max_parts):
    """All ordered tuples of positive ints with the given sum."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first, max_parts - 1):
            yield (first,) + rest


# -- psi / phi ----------------------------------------------------------------

def test_psi_phi_base_cases():
    for q in PRIME_POWERS_SMALL:
        assert psi(0, q) == 1
        assert phi(0, q) == 0
        assert psi(1, q) == 0
        assert phi(1, q) == 1


def test_psi_phi_examples():
    assert psi(2, 3) == 2
    assert psi(3, 5) == 12
    assert phi(2, 3) == 1


@pytest.mark.parametrize("q", PRIME_POWERS_SMALL)
@pytest.mark.parametrize("s", range(6))
def test_psi_phi_against_brute_force(q, s):
    assert psi(s, q) == brute_sum_count(s, q, target=0)
    assert phi(s, q) == brute_sum_count(s, q, target=1)


def test_psi_phi_identities():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for s in range(13):
            assert q * psi(s, q) == (q - 1) ** s + (-1) ** s * (q - 1)
            assert psi(s, q) + (q - 1) * phi(s, q) == (q - 1) ** s


@settings(max_examples=200)
@given(st.data())
def test_weighted_sums_match_unweighted(data):
    # arbitrary nonzero coefficients leave psi/phi unchanged
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7]))
    s = data.draw(st.integers(min_value=0, max_value=4))
    coeffs = tuple(
        data.draw(st.integers(min_value=1, max_value=q - 1))
        for _ in range(s)
    )
    assert brute_sum_count(s, q, 0, coeffs) == psi(s, q)
    assert brute_sum_count(s, q, 1, coeffs) == phi(s, q)


# -- A recursion ---------------------------------------------------------------

def test_count_A_examples():
    assert count_A((1,), 5) == 0
    for q in (3, 5, 7):
        assert count_A((1, 1), q) == 0
    assert count_A((2, 2), 3) == 4
    assert count_A((1, 1, 1), 5) == 4


def test_count_A_trailing_zero_convention():
    assert count_A((2, 2, 0), 3) == count_A((2, 2), 3)
    assert count_A((1, 3, 0), 5) == count_A((1, 3), 5)


def test_count_A_rejects_too_many_blocks():
    with pytest.raises(CountError):
        count_A((1, 1, 1), 3)  # only 2 distinct nonzero values in GF(3)
    with pytest.raises(CountError):
        count_A((2, -1), 5)


def test_count_A_nonzero_gamma_brute_force():
    gf_nonzero = {5: [1, 2, 3, 4], 7: [1, 2, 3, 4, 5, 6]}
    for q in (5, 7):
        for parts in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1)]:
            alphas = tuple(gf_nonzero[q][: len(parts)])
            for gamma in (1, 2):
                assert count_A_nonzero_gamma(parts, q) == \
                    brute_block_system_count(parts, alphas, q, gamma)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_count_A_alpha_independence_and_closed_form(data):
    q = data.draw(st.sampled_from([5, 7]))
    total = data.draw(st.integers(min_value=1, max_value=4))
    parts = data.draw(
        st.sampled_from(sorted(compositions(total, min(total, q - 1)))))
    expected = count_A(parts, q)
    assert count_A_closed(parts, q) == expected
    # permutation invariance, checked empirically (not assumed in code)
    for perm in itertools.permutations(parts):
        assert count_A(perm, q) == expected
    # independence from the choice of distinct nonzero coefficients
    alphas = data.draw(
        st.permutations(list(range(1, q))).map(
            lambda xs: tuple(xs[: len(parts)])))
    assert brute_block_system_count(parts, alphas, q, 0) == expected


def test_closed_form_equals_recursion_everywhere():
    for q in (3, 4, 5, 7, 8, 9):
        for total in range(1, 11):
            for parts in compositions(total, min(total, q - 1)):
                assert count_A_closed(parts, q) == count_A(parts, q)


def test_single_block_closed_form_is_psi():
    for q in (3, 5, 9):
        assert count_A_closed((3,), q) == psi(3, q)


# -- surjections / gamma_cap ---------------------------------------------------

def test_surjections():
    for h in range(1, 6):
        assert surjections(h, 1) == 1
    assert surjections(3, 2) == 6
    assert surjections(2, 3) == 0
    assert surjections(0, 0) == 1
    assert surjections(4, 4) == math.factorial(4)


def test_gamma_cap_examples():
    assert gamma_cap(1, 5) == 4
    assert gamma_cap(2, 5) == 12
    assert gamma_cap(3, 5) == 28
    assert gamma_cap(2, 3) == 2
    assert gamma_cap(0, 5) == 0


def test_gamma_cap_rejects_even_q():
    with pytest.raises(CountError):
        gamma_cap(3, 4)


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("h", range(1, 5))
def test_gamma_cap_against_brute_force(q, h):
    assert gamma_cap(h, q) == brute_gamma_cap(h, q)


# -- multinomial / partition enumeration ---------------------------------------

def test_multinomial():
    assert multinomial(4, (4,)) == 1
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(5, (3, 2)) == 10
    with pytest.raises(CountError):
        multinomial(4, (2, 1))


def test_enumerate_part_multisets():
    assert [p for p, _ in enumerate_part_multisets(2, 99)] == \
        [(2,), (1, 1)]
    assert [p for p, _ in enumerate_part_multisets(2, 2)] == \
        [(2,), (1, 1)]
    assert len(enumerate_part_multisets(4, 99)) == 5
    assert [p for p, _ in enumerate_part_multisets(4, 2)] == \
        [(4,), (3, 1), (2, 2)]
    # types: {3,1} has two distinct values once each
    types = dict(enumerate_part_multisets(4, 99))
    assert types[(3, 1)] == (1, 1)
    assert types[(2, 2)] == (2,)
    assert types[(1, 1, 1, 1)] == (4,)


def _partitions(s, max_part):
    """Every partition of s into parts of at most max_part, descending."""
    if s == 0:
        yield ()
    for first in range(min(s, max_part), 0, -1):
        for rest in _partitions(s - first, first):
            yield (first,) + rest


def test_enumerate_part_multisets_matches_enumerate_and_filter():
    for s in range(1, 25):
        every = list(_partitions(s, s))
        for max_len in range(s + 2):
            assert enumerate_part_multisets(s, max_len) == tuple(
                (parts, tuple(parts.count(v)
                              for v in sorted(set(parts), reverse=True)))
                for parts in every if len(parts) <= max_len), (s, max_len)


def test_enumerate_part_multisets_builds_no_longer_partition(monkeypatch):
    # every call of the recursion yields some partition, none with more
    # parts than it may still take, so no longer prefix is ever built
    calls = []
    real = combinat._partitions_desc

    def spy(s, max_part, max_len):
        out = list(real(s, max_part, max_len))
        calls.append((s, max_len, out))
        return iter(out)

    monkeypatch.setattr(combinat, "_partitions_desc", spy)
    fresh = enumerate_part_multisets.__wrapped__  # past the memo
    for s in range(1, 13):
        for max_len in range(s + 2):
            calls.clear()
            fresh(s, max_len)
            for at, most, out in calls:
                assert out or (at, most) == (s, 0), (s, max_len)
                assert all(len(p) <= most for p in out), (s, max_len)
    calls.clear()
    assert [p for p, _ in fresh(50, 1)] == [(50,)]
    assert [(at, most) for at, most, _ in calls] == [(0, 0), (50, 1)]


def test_enumerate_part_multisets_is_memoized():
    first = enumerate_part_multisets(6, 3)
    assert enumerate_part_multisets(6, 3) is first
    assert isinstance(first, tuple)
    assert all(isinstance(x, tuple) for x in first)


@settings(max_examples=200)
@given(
    s=st.integers(min_value=1, max_value=8),
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
)
def test_completeness_identity(s, q):
    # summing the pattern counts over all part multisets recovers the
    # number of all-nonzero s-tuples
    total = 0
    for parts, mult_type in enumerate_part_multisets(s, min(s, q - 1)):
        l = len(parts)
        total += (
            multinomial(s, parts)
            * multinomial(l, mult_type)
            * math.comb(q - 1, l)
        )
    assert total == (q - 1) ** s
