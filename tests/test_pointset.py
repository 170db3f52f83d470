import itertools
import random

import numpy as np
import pytest

from mincodes import cli, code, pointset
from mincodes.code import dimension
from mincodes.field import field_of_order, make_field
from mincodes.pointset import (
    FAMILIES,
    FAMILY_H_MIN,
    BudgetExceeded,
    DefiningSet,
    ParameterError,
    family1,
    family2,
    family3,
    family4,
    functional_count,
    is_cutting,
    is_scale_invariant,
    tilde_join,
)
from conftest import (
    brute_is_cutting,
    brute_points,
    brute_rank,
    first_short_class,
    point_set,
)


def fam1_pred(gf, pt, h):
    head = pt[:h]
    if 0 in head:
        return True
    total = 0
    for x in head:
        total = gf.add(total, x)
    return total == 0


def test_family1_sizes_match_brute_force():
    gf3 = make_field(3)
    d = family1(gf3, 4, 4)
    assert len(d) == 70
    assert list(d.points) == brute_points(
        3, 4, lambda gf, pt: fam1_pred(gf, pt, 4))
    assert len(family1(gf3, 5, 4)) == 212
    # over GF(2): every nonzero point with some x_i = 0 or sum = 0
    d2 = family1(make_field(2), 4, 4)
    assert list(d2.points) == brute_points(
        2, 4, lambda gf, pt: fam1_pred(gf, pt, 4))


def test_family2_sizes():
    assert len(family2(make_field(5), 3, 3)) == 60
    assert len(family2(make_field(7), 3, 3)) == 126
    # char 2: x_i + x_j = 0 means x_i = x_j; relaxed h=2 leaves the
    # diagonal minus the origin
    d = family2(make_field(2, 2), 2, 2, relaxed=True)
    assert sorted(d.points) == [(1, 1), (2, 2), (3, 3)]


def test_family3_sizes_and_superset():
    gf7 = make_field(7)
    d3 = family3(gf7, 3, 3)
    assert len(d3) == 216
    assert len(family3(make_field(5), 3, 3)) == 96
    d2 = family2(gf7, 3, 3)
    assert set(d2.points) <= set(d3.points)


def test_family3_inclusion_exclusion():
    for q in (3, 5, 7):
        gf = make_field(q)
        s2 = set(family2(gf, 3, 3).points)
        s3 = set(family3(gf, 3, 3).points)
        s4 = set(family4(gf, 3, 3).points)
        assert len(s3) == len(s4) + len(s2) - len(s4 & s2)
        assert s3 == s4 | s2


def test_family4_sizes():
    gf3 = make_field(3)
    assert len(family4(gf3, 3, 3)) == 18
    assert len(family4(make_field(5), 3, 3)) == 60
    d = family4(gf3, 2, 2, relaxed=True)
    assert list(d.points) == [(0, 1), (0, 2), (1, 0), (2, 0)]


def test_parameter_ranges():
    gf3 = make_field(3)
    with pytest.raises(ParameterError):
        family1(gf3, 4, 3)  # h < 4 without relaxed
    with pytest.raises(ParameterError):
        family4(gf3, 2, 2)  # h < 3 without relaxed
    with pytest.raises(ParameterError):
        family4(gf3, 2, 3)  # h > k even relaxed
    assert len(family1(gf3, 4, 3, relaxed=True)) > 0
    # each constructor's proved range starts at FAMILY_H_MIN
    for family, ctor in FAMILIES.items():
        h = FAMILY_H_MIN[family] - 1
        with pytest.raises(ParameterError):
            ctor(gf3, h + 1, h)
        assert len(ctor(gf3, h + 1, h, relaxed=True)) > 0
    # and so does each family's part of the verification sweep
    rows = list(cli._sweep_rows([2, 3], 1000))
    for family in FAMILIES:
        assert min(h for f, _, _, _, h in rows
                   if f == family) == FAMILY_H_MIN[family]


def test_point_cap():
    # AG(24, 2) is above the fixed cap of 10^7 points: refused before any
    # point is enumerated
    with pytest.raises(BudgetExceeded) as exc:
        family4(make_field(2), 24, 3)
    assert exc.value.required == 2 ** 24


def test_points_are_lexicographically_ordered():
    for ctor in (family1, family2, family3, family4):
        d = ctor(make_field(3), 5, 3, relaxed=True)
        assert list(d.points) == sorted(d.points)
    # code order is lexicographic order: every constructor's codes rise
    for q in (2, 3, 4, 5):
        for ctor in FAMILIES.values():
            for h in (1, 2, 3):
                d = ctor(field_of_order(q), 4, h, relaxed=True)
                assert (np.diff(d.codes) > 0).all(), d


def test_scale_invariance():
    gf5 = make_field(5)
    for ctor, h in ((family1, 4), (family2, 3), (family3, 3), (family4, 3)):
        assert is_scale_invariant(ctor(make_field(3), 4, h))
    assert not is_scale_invariant(
        point_set(gf5, 2, ((1, 0), (2, 0))))
    # one whole punctured line is not enough: every line must be whole
    line = ((1, 0), (2, 0), (3, 0), (4, 0))
    assert is_scale_invariant(point_set(gf5, 2, line))
    assert not is_scale_invariant(point_set(gf5, 2, line + ((0, 1),)))
    assert is_scale_invariant(point_set(gf5, 2, ()))
    # over GF(2) the only nonzero scalar is 1, so every set qualifies
    assert is_scale_invariant(
        point_set(make_field(2), 3, ((1, 0, 0),)))


def test_tilde_join_layout_and_sizes():
    gf3 = make_field(3)
    d = family4(gf3, 3, 3)
    t = tilde_join(d, d)
    assert t.dim == 4
    assert len(t) == 36
    assert t.points[: len(d)] == tuple(pt + (0,) for pt in d.points)
    assert t.points[len(d):] == tuple(pt + (1,) for pt in d.points)
    assert len(tilde_join(family1(gf3, 5, 4), family1(gf3, 5, 4))) == 424


def test_tilde_join_rejects_bad_inputs():
    gf3 = make_field(3)
    d = family4(gf3, 3, 3)
    single = point_set(gf3, 3, ((1, 0, 0),))
    with pytest.raises(ParameterError):
        tilde_join(single, d)  # D1 not scale-invariant
    with pytest.raises(ParameterError):
        tilde_join(d, family4(make_field(5), 3, 3))


def test_defining_set_invariants():
    gf3 = make_field(3)
    with pytest.raises(ParameterError):
        point_set(gf3, 2, ((0, 0),))
    with pytest.raises(ParameterError):
        point_set(gf3, 2, ((1, 0), (1, 0)))
    # a point of the wrong length enters only through the text format
    with pytest.raises(ParameterError):
        DefiningSet.from_text("3 2 1\n1 0 0\n")
    with pytest.raises(ParameterError):
        DefiningSet.from_text("3 2 1\n1\n")
    # codes outside [1, q^k) are not nonzero points of AG(k,q)
    for codes in ([9], [-1], [1, 10]):
        with pytest.raises(ParameterError):
            DefiningSet(field=gf3, dim=2, codes=codes)
    # codes of AG(k,q) with q^k > 2^62 could overflow int64
    assert len(DefiningSet(field=make_field(2), dim=62, codes=[1])) == 1
    for q, k in ((2, 63), (3, 40), (256, 8)):
        with pytest.raises(ParameterError):
            DefiningSet(field=field_of_order(q), dim=k, codes=[1])
    # the codes are read-only, so a set cannot change after its checks
    d = family4(gf3, 3, 3)
    with pytest.raises(ValueError):
        d.codes[0] = 1
    with pytest.raises(ParameterError):
        DefiningSet(field=gf3, dim=2, codes=[[1, 2]])
    # codes are never truncated or overflowed: non-integers and codes past
    # int64 are refused, and the empty set stays valid
    for codes in ([1.5, 2.7], [2 ** 63], [2 ** 64], [True]):
        with pytest.raises(ParameterError):
            DefiningSet(field=gf3, dim=3, codes=codes)
    assert len(DefiningSet(field=gf3, dim=3, codes=[])) == 0
    # a duplicate is found whether the codes are in order or not, and
    # distinct codes pass in any order
    for codes in ([1, 2, 2, 5], [5, 2, 7, 2], [3, 3]):
        with pytest.raises(ParameterError, match="duplicate points"):
            DefiningSet(field=gf3, dim=2, codes=codes)
    for codes in ([1, 2, 5], [5, 2, 7], [4]):
        assert len(DefiningSet(field=gf3, dim=2, codes=codes)) == len(codes)


@pytest.mark.parametrize("q, k", [(2, 62), (3, 39), (5, 26), (7, 22),
                                  (251, 1), (251, 7)])
def test_prime_field_values_match_python_sums(q, k):
    # at the widest k of each prime q (q^k <= 2^62) and with every digit
    # q - 1 the sums sum(f_i x_i) are at their largest before the reduction
    gf = field_of_order(q)
    rng = random.Random(q * 100 + k)
    top = [q - 1] * k
    forms = [top] + [[rng.randrange(q) for _ in range(k)] for _ in range(5)]
    xs = [top] + [[rng.randrange(q) for _ in range(k)] for _ in range(7)]
    fs = np.array([sum(c * q ** (k - 1 - i) for i, c in enumerate(f))
                   for f in forms], dtype=np.int64)
    got = pointset.functional_values(gf, fs, np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [[sum(a * b for a, b in zip(f, x)) % q
                             for x in xs] for f in forms]


def test_defining_sets_compare_by_value():
    gf3 = make_field(3)
    d = family4(gf3, 3, 3)
    same = DefiningSet(field=gf3, dim=3, codes=list(d.codes),
                       family=d.family)
    assert d == same and hash(d) == hash(same) and len({d, same}) == 1
    assert d.points == same.points and d.points is d.points
    assert d != DefiningSet(field=gf3, dim=3, codes=d.codes)  # no tag
    assert d != DefiningSet(field=gf3, dim=3, codes=d.codes[::-1],
                            family=d.family)
    assert point_set(gf3, 2, ((1, 0),)) != point_set(gf3, 3, ((0, 1, 0),))


def test_is_cutting():
    gf3 = make_field(3)
    d = family4(gf3, 3, 3)
    assert is_cutting(d)
    line = point_set(gf3, 3, ((0, 1, 2), (0, 2, 1)))
    assert not is_cutting(line)
    # the tilde join of cutting sets is cutting
    assert is_cutting(tilde_join(d, d))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_is_cutting_matches_the_oracle_on_random_sets(q):
    gf = field_of_order(q)
    rng = random.Random(q)
    verdicts = set()
    for k in range(1, 5):
        space = [pt for pt in itertools.product(range(q), repeat=k)
                 if any(pt)]
        for _ in range(4):
            # sparse sets miss or underspan some hyperplane; dense ones
            # (small spaces only, to keep the oracle quick) are cutting
            dense = q ** k <= 125 and rng.random() < 0.5
            size = (len(space) - rng.randrange(3) if dense
                    else rng.randint(0, min(len(space), 4 * k)))
            d = point_set(gf, k, tuple(rng.sample(space, size)))
            verdict = is_cutting(d)
            assert verdict == brute_is_cutting(d), d
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_packed_is_cutting_matches_the_oracle_on_random_sets():
    # the mask route at q = 2 up to k = 7, with sets from empty to the whole
    # space, so that both verdicts occur at k = 6 and 7
    gf = field_of_order(2)
    rng = random.Random(2)
    verdicts = set()
    for k in range(1, 8):
        space = [pt for pt in itertools.product(range(2), repeat=k)
                 if any(pt)]
        for _ in range(6):
            size = rng.randint(0, len(space))
            d = point_set(gf, k, tuple(rng.sample(space, size)))
            verdict = is_cutting(d)
            assert verdict == brute_is_cutting(d), d
            verdicts.add((k, verdict))
    assert {True, False} <= {v for k, v in verdicts if k >= 6}


def _rank_stacks(q):
    """(12, r, k) stacks of every shape is_cutting builds, zero rows and
    k = 1 included, with repeated, scaled and zero rows and a zero
    column."""
    gf = field_of_order(q)
    rng = np.random.default_rng(q)
    for k in range(1, 6):
        for r in (0, 1, 2, 3, 7):
            stacks = rng.integers(0, q, (12, r, k))
            if r >= 3:
                stacks[::2, 1] = stacks[::2, 0]
                stacks[::3, 2] = gf.mul_table[q - 1, stacks[::3, 0]]
                stacks[1::4, 0] = 0
            stacks[::5, :, 0] = 0
            yield stacks


@pytest.mark.parametrize("q", [2, 4, 5, 9])
def test_ranks_match_the_oracle(q):
    gf = field_of_order(q)
    for stacks in _rank_stacks(q):
        assert pointset.ranks(gf, stacks).tolist() == [
            brute_rank(gf, m.tolist()) for m in stacks]


def test_ranks_gf2_match_the_oracle():
    # the one GF(2) kernel, _mask_ranks, on the stacks ranks is checked on
    gf = field_of_order(2)
    ops = pointset._plane_ops(gf)
    for stacks in _rank_stacks(2):
        assert pointset._mask_ranks(gf, _mask_planes(2, stacks),
                                    ops).tolist() == [
            brute_rank(gf, m.tolist()) for m in stacks]
    # k = 63 columns, x_1 set in every other row of some stacks, and up to
    # 70 rows, two words
    rng = np.random.default_rng(63)
    for r in (1, 5, 40, 70):
        stacks = rng.integers(0, 2, (6, r, 63))
        stacks[::2, ::2, 0] = 1
        stacks[1::2, :, 0] = 0
        planes = _mask_planes(2, stacks)
        assert planes[0].shape == (63, 1 + (r > 64), 6)
        assert pointset._mask_ranks(gf, planes, ops).tolist() == [
            brute_rank(gf, m.tolist()) for m in stacks]


def _mask_stacks(q, words):
    """(16, r, k) stacks of element indices with r up to 64 words rows:
    no rows, zero columns, k = 1, rank-deficient stacks whose last
    column is a multiple of the first or whose rows repeat, and stacks
    whose columns, all or every other one, are zero before the last word,
    so that their pivots lie past word 0, half of them rank-deficient."""
    gf = field_of_order(q)
    rng = np.random.default_rng(10 * q + words)
    for k in range(1, 7):
        for r in sorted({0, 1, k + 1, 64 * words - 3, 64 * words}):
            stacks = rng.integers(0, q, (12, r, k))
            stacks[::4] *= rng.random((3, r, 1)) < 0.2  # mostly zero rows
            stacks[1::4, :, 0] = 0
            stacks[2::4, :, -1] = gf.mul_table[q - 1, stacks[2::4, :, 0]]
            stacks[3::4, 1::2] = stacks[3::4, :1]
            late = rng.integers(0, q, (4, r, k))
            late[:2, : 64 * (words - 1)] = 0
            late[2:, : 64 * (words - 1), ::2] = 0
            late[1::2, :, -1] = gf.mul_table[q - 1, late[1::2, :, 0]]
            yield np.concatenate([stacks, late])


def _mask_planes(q, stacks):
    """The bit planes of stacks (C, r, k), packed one column at a time
    into (k, w, C) uint64 arrays: bit i of word j holds row 64j + i."""
    c, r, k = stacks.shape
    words = max(1, -(-r // 64))
    out = []
    for plane in pointset._bit_planes(q, stacks):
        packed = np.zeros((k, words, c), dtype=np.uint64)
        for m, row, col in zip(*np.nonzero(plane)):
            packed[col, row // 64, m] |= np.uint64(1) << np.uint64(row % 64)
        out.append(packed)
    return out


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("words", [1, 2, 3])
def test_mask_ranks_match_the_oracle(q, words):
    gf = field_of_order(q)
    ops = pointset._plane_ops(gf)
    for stacks in _mask_stacks(q, words):
        planes = _mask_planes(q, stacks)
        assert planes[0].shape[1] == words or len(stacks[0]) < 64
        assert pointset._mask_ranks(gf, planes, ops).tolist() == [
            brute_rank(gf, m.tolist()) for m in stacks]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_plane_ops_match_the_field_tables(q):
    # every pair of elements, one pair per bit of a word
    gf = field_of_order(q)
    a, b = (x.ravel() for x in np.indices((q, q)))

    def packed(xs):  # one uint64 word per plane, bit i from element i
        return [np.array(int(sum(int(v) << i for i, v in enumerate(x))),
                         dtype=np.uint64) for x in pointset._bit_planes(q, xs)]

    def unpacked(planes):  # the element indices back, from the weights
        return [sum((int(p) >> i & 1) << b for b, p in enumerate(planes))
                for i in range(q * q)]

    scale, add = pointset._plane_ops(gf)
    assert unpacked(packed(a)) == a.tolist()
    assert unpacked(add(packed(a), packed(b))) == gf.add_table[a, b].tolist()
    for s in range(q):
        assert unpacked(scale(s, packed(a))) == gf.mul_table[s, a].tolist()
    if q == 3:  # negation, scaling by 2, swaps the planes
        assert scale(2, packed(a)) == packed(a)[::-1]


def _line_plus_one(q, with_completer):
    """AG(3,q) points: the plane x_1 = 1 (which spans every hyperplane
    but x_1 = 0), the q-1 points of the line through (0,0,1), and, when
    asked, (0,1,0), which completes the span of x_1 = 0.  The completer
    is placed last in is_cutting's fixed scan order."""
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts += [(0, 0, t) for t in range(1, q)]
    if with_completer:
        scan = np.random.default_rng(0).permutation(len(pts) + 1)
        pts.insert(int(scan[-1]), (0, 1, 0))
    return point_set(field_of_order(q), 3, tuple(pts))


def _single_ranks(monkeypatch, kernel="ranks"):
    """Spy on a rank kernel of pointset: the row count of each one-matrix
    call, every row of the (1, R, k) stack of ranks, and the nonzero rows,
    the positions set in some column and plane, of the (k, w, 1) planes
    of _mask_ranks."""
    single = []
    real = getattr(pointset, kernel)

    def spy(gf, stacks, *rest):
        if kernel == "ranks" and len(stacks) == 1:
            single.append(len(stacks[0]))
        elif kernel == "_mask_ranks" and stacks[0].shape[2] == 1:
            rows = np.bitwise_or.reduce([x.reshape(-1, x.shape[1])
                                         for x in stacks], axis=(0, 1))
            single.append(sum(bin(int(w)).count("1") for w in rows))
        return real(gf, stacks, *rest)

    monkeypatch.setattr(pointset, kernel, spy)
    return single


def _certify_nothing(monkeypatch):
    """Send every class to the sample route, as if the echelon certificate
    settled none; it would settle the hyperplanes that the sets below
    span, and the tests that use this pin the ranks taken on them."""
    monkeypatch.setattr(pointset, "_echelon_certificate",
                        lambda gf, k, codes: lambda fs: np.zeros(len(fs), bool))


def test_is_cutting_exact_pass(monkeypatch):
    # q - 1 = 12 > k + 8 points of x_1 = 0 lie on one line, so the first
    # k + 8 of them in scan order fall short of rank 2, and only the exact
    # pass, one rank over all of that hyperplane's points, finds the
    # completer; the scan's prefix holds all of D (n < 2q(k+8))
    _certify_nothing(monkeypatch)
    single = _single_ranks(monkeypatch)
    d = _line_plus_one(13, with_completer=True)
    assert len(d) < 2 * 13 * 11
    assert is_cutting(d)
    assert single == [13]
    single.clear()
    assert not is_cutting(_line_plus_one(13, with_completer=False))
    assert single == [12]


def test_is_cutting_second_exact_stage(monkeypatch):
    # q - 1 = 46 > 4(k + 8) = 44 points of x_1 = 0 lie on one line: a
    # short hyperplane far longer than the scan's prefix is still settled
    # by one exact rank over all of its points, not by one over a prefix
    _certify_nothing(monkeypatch)
    single = _single_ranks(monkeypatch)
    assert is_cutting(_line_plus_one(47, with_completer=True))
    assert single == [47]
    single.clear()
    assert not is_cutting(_line_plus_one(47, with_completer=False))
    assert single == [46]


def _plane_plus_subspace(tails, with_completer):
    """AG(9,2) points: the plane x_1 = 1 (which spans every hyperplane but
    x_1 = 0), the points (0, 0, t) for the given tails t, which span a
    subspace of x_1 = 0 of dimension 7, and, when asked, (0, 1, 0, ..., 0),
    which completes the span of x_1 = 0.  The completer is placed last in
    is_cutting's fixed scan order."""
    pts = [(1,) + t for t in itertools.product(range(2), repeat=8)]
    pts += [(0, 0) + t for t in tails]
    if with_completer:
        scan = np.random.default_rng(0).permutation(len(pts) + 1)
        pts.insert(int(scan[-1]), (0, 1) + (0,) * 7)
    return point_set(field_of_order(2), 9, tuple(pts))


def test_packed_is_cutting_exact_pass(monkeypatch):
    # the 29 tails of weight at least 5 span GF(2)^7; the points of
    # x_1 = 0 in the prefix fall short of rank 8, and only the exact pass
    # over that hyperplane's 30 points finds the completer
    tails = [t for t in itertools.product(range(2), repeat=7) if sum(t) >= 5]
    assert brute_rank(field_of_order(2), tails) == 7
    _certify_nothing(monkeypatch)
    single = _single_ranks(monkeypatch, "_mask_ranks")
    assert is_cutting(_plane_plus_subspace(tails, with_completer=True))
    assert single == [30]
    single.clear()
    assert not is_cutting(_plane_plus_subspace(tails, with_completer=False))
    assert single == [29]


def test_packed_is_cutting_second_exact_stage(monkeypatch):
    # all 127 nonzero tails: x_1 = 0 holds 127 > 4(k + 8) = 68 points of
    # the subspace, and one exact rank over all of them, not one over a
    # prefix, decides
    tails = [t for t in itertools.product(range(2), repeat=7) if any(t)]
    _certify_nothing(monkeypatch)
    single = _single_ranks(monkeypatch, "_mask_ranks")
    assert is_cutting(_plane_plus_subspace(tails, with_completer=True))
    assert single == [128]
    single.clear()
    assert not is_cutting(_plane_plus_subspace(tails, with_completer=False))
    assert single == [127]


@pytest.mark.parametrize("q, kernel, unused", [
    (2, "_mask_ranks", "ranks"),
    (3, "_mask_ranks", "ranks"),
    (4, "_mask_ranks", "ranks"),
    (5, "ranks", "_mask_ranks"),
], ids=["2-_ranks_gf2-ranks", "3-ranks-_ranks_gf2", "4-ranks-_ranks_gf2",
        "5-ranks-_mask_ranks-_ranks_gf2"])  # ids kept stable across kernels
def test_is_cutting_route(q, kernel, unused, monkeypatch):
    # each q has one rank kernel: is_cutting's sample of blocks of classes,
    # its exact pass over one class and the code dimension all rank bit
    # masks at q <= 4 and rows of element indices at q >= 5; the echelon
    # certificate ranks nothing, and it would settle every class of these
    # cutting sets
    _certify_nothing(monkeypatch)

    def refuse(*args):
        raise AssertionError(f"{args} reached an unused kernel at q = {q}")

    calls = []  # (kernel, matrices) per call

    def spy(*args, real=getattr(pointset, kernel)):
        arg = args[1]
        calls.append((kernel, arg[0].shape[2] if isinstance(arg, list)
                       else len(arg)))
        return real(*args)

    for module in (pointset, code):  # dimension imports both kernels
        monkeypatch.setattr(module, unused, refuse)
        monkeypatch.setattr(module, kernel, spy)
    d = family4(field_of_order(q), 4, 3)
    assert is_cutting(d) and is_cutting(tilde_join(d, d))
    assert not is_cutting(family4(field_of_order(q), 4, 1, relaxed=True))
    assert {name for name, matrices in calls if matrices > 1} == {kernel}
    assert (kernel, 1) in calls  # the exact pass of the failing class
    calls.clear()
    assert dimension(d) == 4 and dimension(tilde_join(d, d)) == 5
    assert calls == [(kernel, 1), (kernel, 1)]


@pytest.mark.parametrize("q, k", [(2, 20), (3, 12)])
def test_is_cutting_builds_class_blocks_lazily(q, k, monkeypatch):
    # 5 unit vectors span too little of the first class's hyperplane, so
    # is_cutting stops after its first block, of as many classes as fit
    # the mask stage's cell cap; at these k a build that materializes
    # every class code allocates megabytes, not gigabytes
    asked = []
    real = pointset._class_codes

    def spy(q, k, positions):
        asked.append(len(positions))
        return real(q, k, positions)

    monkeypatch.setattr(pointset, "_class_codes", spy)
    units = tuple(tuple(int(i == j) for i in range(k)) for j in range(5))
    d = point_set(field_of_order(q), k, units)
    assert not is_cutting(d, budget=10 ** 12)
    block = pointset._MASK_CELLS // (k * pointset._window_words(q, k))
    assert asked == [block]
    assert 1 < block < pointset.functional_count(q, k) // 50


def _scan_placed(gf, k, pts):
    """A set whose point at position j of is_cutting's fixed scan order
    is pts[j]."""
    placed = [None] * len(pts)
    for j, i in enumerate(np.random.default_rng(0).permutation(len(pts))):
        placed[i] = pts[j]
    return point_set(gf, k, tuple(placed))


@pytest.mark.parametrize("q, ks", [(2, (4, 8)), (3, (3, 6)), (4, (3, 4))])
def test_mask_stage_blocks_do_not_change_ranks(q, ks, monkeypatch):
    # the cell cap sizes the blocks of classes of is_cutting at q <= 4,
    # from a few classes per block to all in one: every class's sample
    # rank and the first class that falls short, with every class sent to
    # the sample, are the same at every size, with a window of one word
    # and, at q = 4 and k >= 4, of two
    _certify_nothing(monkeypatch)
    assert pointset._window_words(q, ks[-1]) == (2 if q == 4 else 1)
    gf = field_of_order(q)
    sets = [ctor(gf, k, h, relaxed=True)
            for f, ctor in sorted(FAMILIES.items()) for k in ks
            for h in sorted({2, FAMILY_H_MIN[f]}) if h <= k]  # 2: not cutting
    if q == 4:  # x_1 = 0 holds a line in word 0 and two completers past it
        plane = [(1,) + t for t in itertools.product(range(4), repeat=3)]
        line = [(0, 0, 0, t) for t in (1, 2, 3)]
        sets.append(_scan_placed(gf, 4, plane[:61] + line + [
            (0, 0, 1, 0), (0, 1, 0, 0)] + plane[61:]))
    seen = []
    for cells in (24, pointset._MASK_CELLS, 2 ** 40):
        monkeypatch.setattr(pointset, "_MASK_CELLS", cells)
        out = []
        for d in sets:
            k, c = d.dim, pointset.functional_count(q, d.dim)
            codes = d.codes[np.random.default_rng(0).permutation(len(d))]
            sample = pointset._mask_route(gf, k, codes)[0]
            stage = list(pointset._class_blocks(
                q, k, pointset._block_size(q, k)))
            # 24 // (k w) classes per block, 3 to 8, and all in one
            size = max(1, cells // (k * pointset._window_words(q, k)))
            assert len(stage) == -(-c // size)
            assert (len(stage) > 1) == (cells == 24)
            fs = np.concatenate(stage)
            ranks = np.concatenate([sample(block) for block in stage])
            assert fs.tolist() == pointset._class_codes(
                q, d.dim, np.arange(c)).tolist()
            out.append((ranks.tolist(), first_short_class(d)))
        seen.append(out)
    assert seen[0] == seen[1] == seen[2]
    assert None in [s for _, s in seen[0]] and any(s for _, s in seen[0])
    # a sample is every zero of its class among the first 64w points in
    # scan order; checked where w = 2, since the oracle is slow
    for d, (sample, _) in zip(sets, seen[0]):
        k, w = d.dim, pointset._window_words(q, d.dim)
        if w > 1:
            scan = np.random.default_rng(0).permutation(len(d))[: 64 * w]
            window = [d.points[i] for i in scan]
            fs = pointset._digits(pointset._class_codes(
                q, k, np.arange(len(sample))), q, k).tolist()
            assert sample == [brute_rank(gf, [x for x in window
                                              if gf.dot(f, x) == 0])
                              for f in fs]


def _matches_the_table_kernel(q, ks, words, monkeypatch):
    """The first failing class of family sets at each k in ks and of their
    tilde joins, as found by is_cutting's route at q and by the q >= 5
    route, with every class sent to the sample; words is the mask route's
    window at each k."""
    _certify_nothing(monkeypatch)
    assert [pointset._window_words(q, k) for k in ks] == words
    gf = field_of_order(q)
    sets = []
    for f, ctor in sorted(FAMILIES.items()):
        for k in ks:
            for h in sorted({2, FAMILY_H_MIN[f], k}):  # 2: non-cutting
                if h <= k:
                    d = ctor(gf, k, h, relaxed=True)
                    sets += [d, tilde_join(d, d)]
    routed = [first_short_class(d) for d in sets]
    monkeypatch.setattr(pointset, "_mask_route", pointset._table_route)
    assert routed == [first_short_class(d) for d in sets]
    assert None in routed and any(routed)


def test_packed_is_cutting_matches_the_table_kernel(monkeypatch):
    # k = 10 and 11, and 11 and 12 for the tilde joins, span 2 to 8
    # blocks of _CHUNK = 512 classes
    _matches_the_table_kernel(2, (10, 11), [1, 1], monkeypatch)


@pytest.mark.parametrize("q, ks", [(3, (7, 8)), (4, (3, 4))])
def test_mask_stage_matches_the_table_kernel(q, ks, monkeypatch):
    # the window is one word at the smaller k and two at the larger
    _matches_the_table_kernel(q, ks, [1, 2], monkeypatch)


def _trailing(pt):
    """The trailing level of a point: the index of its last nonzero
    coordinate."""
    return max(i for i, x in enumerate(pt) if x)


def _certificate_sets(q):
    """Sets of AG(k,q), k >= 2 and at most 256 classes, for the echelon
    certificate: random ones from sparse to dense, each again with one
    trailing level emptied, and the whole space with a single point left
    at level 1.  Most levels hold fewer than 64 points; in the dense sets
    the last holds more wherever (q - 1) q^(k-1) > 64, so that the window
    is a strict part of it."""
    gf = field_of_order(q)
    rng = random.Random(q)
    k = 2
    while functional_count(q, k) <= 256:
        space = [pt for pt in itertools.product(range(q), repeat=k)
                 if any(pt)]
        for n in (k, 2 * k, 4 * k, len(space) // 3, len(space) - 1):
            pts = rng.sample(space, min(n, len(space)))
            yield point_set(gf, k, tuple(pts))
            gone = rng.randrange(k)
            yield point_set(gf, k, tuple(x for x in pts
                                         if _trailing(x) != gone))
        yield point_set(gf, k, tuple(x for x in space if _trailing(x) != 1)
                        + ((1, 1) + (0,) * (k - 2),))
        k += 1


def _settled(d):
    """The certificate's verdict on every class of D, in class order, from
    D in is_cutting's fixed shuffled order, and the class codes."""
    q, k = d.field.q, d.dim
    codes = d.codes[np.random.default_rng(0).permutation(len(d))]
    fs = pointset._class_codes(q, k, np.arange(functional_count(q, k)))
    return pointset._echelon_certificate(d.field, k, codes)(fs), fs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_echelon_certificate_is_sound(q):
    # every class the certificate settles has zeros in D of rank k - 1:
    # on random sets, on sets with one trailing level empty, and on sets
    # whose levels hold fewer than 64 points, where the window's empty
    # slots (the origin, a zero of every class) must not count
    gf = field_of_order(q)
    seen = set()
    for d in _certificate_sets(q):
        settled, fs = _settled(d)
        k = d.dim
        for f, ok in zip(pointset._digits(fs, q, k).tolist(), settled):
            if ok:
                zeros = [x for x in d.points if gf.dot(f, x) == 0]
                assert brute_rank(gf, zeros) == k - 1, (d, f)
        empty = k - len({_trailing(x) for x in d.points})
        seen.add((empty, bool(settled.any()), bool(settled.all())))
    # some classes are left, and some sets are settled whole, with no level
    # empty; with one empty, some are settled; with two, none
    assert {(0, True, False), (0, True, True), (1, True, False),
            (2, False, False)} <= seen


def test_certificate_keeps_the_first_short_class(monkeypatch):
    # a certified class's hyperplane is spanned, so the first class that
    # falls short is the one found with every class sent to the sample:
    # on family sets, relaxed ones that fail, their tilde joins, random
    # sets, and F2(h = 3) at q = 3, k = 3, cutting, whose certificate
    # leaves 3 of its 13 classes to the sample route
    sets = []
    for q in (2, 3, 4, 5, 7):
        gf = field_of_order(q)
        for f, ctor in sorted(FAMILIES.items()):
            for k in (3, 4):
                for h in sorted({2, FAMILY_H_MIN[f], k}):
                    if h <= k:
                        d = ctor(gf, k, h, relaxed=True)
                        sets += [d, tilde_join(d, d)]
        sets += list(_certificate_sets(q))[::3]
    partial = family2(field_of_order(3), 3, 3)
    settled, _ = _settled(partial)
    assert is_cutting(partial) and (~settled).sum() == 3
    sets.append(partial)
    found = [first_short_class(d) for d in sets]
    _certify_nothing(monkeypatch)
    assert found == [first_short_class(d) for d in sets]
    assert None in found and any(found)


def _certificate_work(monkeypatch):
    """Spy on the echelon certificate's work while it or its settled runs:
    the words of each plane addition, one value per class and level, at
    q <= 4, and the cells of each functional_values, one value per class
    and point, at q >= 5."""
    work, active = [], []
    real_ops, real_values = pointset._plane_ops, pointset.functional_values
    real_certificate = pointset._echelon_certificate

    def plane_ops(gf):
        scale, add = real_ops(gf)

        def counted(xs, ys):
            out = add(xs, ys)
            if active:
                work.append(out[0].size)
            return out

        return scale, counted

    def values(gf, fs, pts):
        if active:
            work.append(len(fs) * len(pts))
        return real_values(gf, fs, pts)

    def during(run):
        def spy(*args):
            active.append(run)
            try:
                return run(*args)
            finally:
                active.pop()
        return spy

    def certificate(gf, k, codes):
        return during(during(real_certificate)(gf, k, codes))

    for name, spy in (("_plane_ops", plane_ops),
                      ("functional_values", values),
                      ("_echelon_certificate", certificate)):
        monkeypatch.setattr(pointset, name, spy)
    return work


def test_echelon_certificate_charge_bounds_its_work(monkeypatch):
    # check_budget's charge for is_cutting, c * max(n, 1), bounds the
    # certificate's work: sets with one point at each of k - 1 levels, the
    # fewest it reads, family sets, their tilde joins and random sets; a
    # set with two levels empty, such as 5 unit vectors in AG(20, 2) or one
    # point at each of k - 2 levels, is not read
    work = _certificate_work(monkeypatch)
    units = tuple(tuple(int(i == j) for i in range(20)) for j in range(5))
    sets = [(point_set(field_of_order(2), 20, units), False)]
    for q in (2, 3, 4, 5, 7, 8, 9):
        gf = field_of_order(q)
        for k in (1, 2, 3, 4):
            pts = [(1,) * (j + 1) + (0,) * (k - 1 - j) for j in range(k)]
            for gone in itertools.chain(itertools.combinations(range(k), 1),
                                        itertools.combinations(range(k), 2)):
                sets.append((point_set(gf, k, tuple(
                    x for j, x in enumerate(pts) if j not in gone)),
                             len(gone) == 1))
        d = family4(gf, 3, 3)
        sets += [(d, True), (tilde_join(d, d), True)]
        sets += [(d, True) for d in list(_certificate_sets(q))[::4]
                 if d.dim - len({_trailing(x) for x in d.points}) < 2]
    for d, read in sets:
        work.clear()
        is_cutting(d, budget=10 ** 12)
        charge = functional_count(d.field.q, d.dim) * max(len(d), 1)
        assert sum(work) <= charge, (d, sum(work), charge)
        assert bool(work) == read or d.dim == 1, d


def test_is_cutting_with_an_empty_hyperplane():
    for q, k in ((2, 2), (3, 3), (4, 2), (5, 3)):
        gf = field_of_order(q)
        # the affine hyperplane x_1 = 1 misses the hyperplane x_1 = 0
        plane = point_set(gf, k, tuple(
            (1,) + tail for tail in itertools.product(range(q), repeat=k - 1)))
        assert not is_cutting(plane)
        assert not brute_is_cutting(plane)
    gf3 = field_of_order(3)
    assert not is_cutting(point_set(gf3, 2, ()))
    # in AG(1,q) the one hyperplane is {0}, spanned by the empty set
    assert is_cutting(point_set(gf3, 1, ()))
    assert is_cutting(point_set(gf3, 1, ((2,),)))


def test_is_cutting_budget():
    d = family4(make_field(3), 3, 3)
    with pytest.raises(BudgetExceeded) as exc:
        is_cutting(d, budget=10)
    assert exc.value.required == 13 * len(d)
    with pytest.raises(ParameterError):
        is_cutting(d, budget=-1)
    # past 2^62 a class code could overflow int64; k = 62 is the widest
    # q = 2 set (a set with q^k > 2^62 is refused)
    units = tuple(tuple(int(i == j) for i in range(62)) for j in range(5))
    wide = point_set(field_of_order(2), 62, units)
    with pytest.raises(ParameterError):
        is_cutting(wide, budget=2 ** 62)
    with pytest.raises(BudgetExceeded):
        is_cutting(wide, budget=2 ** 62 - 1)


def test_coordinates_outside_the_field_rejected():
    # 7 is not an element of GF(5), even though 7 = 2 mod 5
    with pytest.raises(ParameterError, match=r"\(7, 1\) is not"):
        DefiningSet.from_text("5 2 2\n7 1\n2 1\n")
    with pytest.raises(ParameterError, match=r"\(-1, 1\) is not"):
        DefiningSet.from_text("5 2 1\n-1 1\n")
    with pytest.raises(ParameterError, match=r"\(5, 1\) is not"):
        DefiningSet.from_text("4 2 1\n5 1\n")
    assert len(DefiningSet.from_text("5 2 2\n4 1\n2 1\n")) == 2


def test_text_round_trip():
    d = family1(make_field(2, 2), 4, 4, relaxed=True)
    text = d.to_text()
    back = DefiningSet.from_text(text)
    assert back.points == d.points
    assert back.field == d.field
    assert back.to_text() == text
    assert text.splitlines()[0] == f"4 4 {len(d)}"
    # the format carries no family tag
    assert d.family == "F1(h=4)" and back.family is None


def test_from_text_rejects_a_point_count_mismatch():
    with pytest.raises(ParameterError):
        DefiningSet.from_text("3 2 2\n0 1\n")
    with pytest.raises(ParameterError):
        DefiningSet.from_text("3 2 1\n0 1\n1 0\n")


@pytest.mark.parametrize("text", [
    "3 2 1\n0 x\n",
    "",
    " \n\n",
    "3 2\n0 1\n",
    "3 2 1 0\n0 1\n",
    "three 2 1\n0 1\n",
    "2 0 0\n",
    "3 -1 0\n",
], ids=["non-integer-token", "empty", "blank", "short-header",
        "long-header", "non-integer-header", "zero-dim", "negative-dim"])
def test_from_text_rejects_malformed_text(text):
    with pytest.raises(ParameterError):
        DefiningSet.from_text(text)
