import itertools

import pytest

from mincodes.field import make_field
from mincodes.pointset import (
    BudgetExceeded,
    DefiningSet,
    ParameterError,
    family1,
    family2,
    family3,
    family4,
    is_cutting,
    is_scale_invariant,
    tilde_join,
)
from conftest import brute_points


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


def test_point_cap():
    # AG(24, 2) is above the fixed cap of 10^7 points: refused before any
    # point is enumerated
    with pytest.raises(BudgetExceeded) as exc:
        family4(make_field(2), 24, 3)
    assert exc.value.required == 2 ** 24


def test_points_are_lexicographically_ordered():
    for ctor in (family1, family4):
        d = ctor(make_field(3), 4, 4)
        assert list(d.points) == sorted(d.points)


def test_scale_invariance():
    gf5 = make_field(5)
    for ctor, h in ((family1, 4), (family2, 3), (family3, 3), (family4, 3)):
        assert is_scale_invariant(ctor(make_field(3), 4, h))
    assert not is_scale_invariant(
        DefiningSet(field=gf5, dim=2, points=((1, 0), (2, 0))))
    assert is_scale_invariant(DefiningSet(field=gf5, dim=2, points=()))


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
    single = DefiningSet(field=gf3, dim=3, points=((1, 0, 0),))
    with pytest.raises(ParameterError):
        tilde_join(single, d)  # D1 not scale-invariant
    with pytest.raises(ParameterError):
        tilde_join(d, family4(make_field(5), 3, 3))


def test_defining_set_invariants():
    gf3 = make_field(3)
    with pytest.raises(ParameterError):
        DefiningSet(field=gf3, dim=2, points=((0, 0),))
    with pytest.raises(ParameterError):
        DefiningSet(field=gf3, dim=2, points=((1, 0), (1, 0)))
    with pytest.raises(ParameterError):
        DefiningSet(field=gf3, dim=2, points=((1, 0, 0),))


def test_is_cutting():
    gf3 = make_field(3)
    d = family4(gf3, 3, 3)
    assert is_cutting(d)
    line = DefiningSet(field=gf3, dim=3, points=((0, 1, 2), (0, 2, 1)))
    assert not is_cutting(line)
    # the tilde join of cutting sets is cutting
    assert is_cutting(tilde_join(d, d))


def test_is_cutting_budget():
    d = family4(make_field(3), 3, 3)
    with pytest.raises(BudgetExceeded) as exc:
        is_cutting(d, budget=10)
    assert exc.value.required == 13 * len(d)
    with pytest.raises(ParameterError):
        is_cutting(d, budget=-1)


def test_coordinates_outside_the_field_rejected():
    gf5 = make_field(5)
    # 7 is not an element of GF(5), even though 7 = 2 mod 5
    with pytest.raises(ParameterError):
        DefiningSet(field=gf5, dim=2, points=((7, 1), (2, 1)))
    with pytest.raises(ParameterError):
        DefiningSet(field=gf5, dim=2, points=((-1, 1),))
    with pytest.raises(ParameterError):
        DefiningSet(field=make_field(2, 2), dim=2, points=((5, 1),))
    assert len(DefiningSet(field=gf5, dim=2, points=((4, 1), (2, 1)))) == 2


def test_text_round_trip():
    d = family1(make_field(2, 2), 4, 4, relaxed=True)
    text = d.to_text()
    back = DefiningSet.from_text(text)
    assert back.points == d.points
    assert back.field == d.field
    assert back.to_text() == text
    assert text.splitlines()[0] == f"4 4 {len(d)}"


def test_from_text_rejects_a_point_count_mismatch():
    with pytest.raises(ParameterError):
        DefiningSet.from_text("3 2 2\n0 1\n")
    with pytest.raises(ParameterError):
        DefiningSet.from_text("3 2 1\n0 1\n1 0\n")
