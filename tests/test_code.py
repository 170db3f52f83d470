import itertools
import json
import math
import random

import numpy as np
import pytest

from mincodes import code, pointset
from mincodes.code import (
    ab_check,
    class_weights,
    codeword,
    dimension,
    functional_count,
    is_minimal_direct,
    summarize,
    weight_distribution_bruteforce,
)
from mincodes.field import field_of_order, make_field
from mincodes.pointset import (
    FAMILIES,
    BudgetExceeded,
    DefiningSet,
    ParameterError,
    _class_codes,
    _codes,
    _digits,
    family1,
    family2,
    family4,
    is_cutting,
    tilde_join,
)
from conftest import (
    brute_is_minimal,
    brute_rank,
    brute_weight_distribution,
    first_short_class,
    point_set,
)


def full_space(gf, k):
    pts = [pt for pt in itertools.product(range(gf.q), repeat=k)
           if any(pt)]
    return point_set(gf, k, tuple(pts))


def projective_functionals(q, k):
    """The functional of each class, in class order."""
    codes = _class_codes(q, k, np.arange(functional_count(q, k)))
    return list(map(tuple, _digits(codes, q, k).tolist()))


def test_projective_functionals():
    fs = projective_functionals(3, 2)
    assert fs == [(0, 1), (1, 0), (1, 1), (1, 2)]
    assert len(fs) == functional_count(3, 2)
    fs4 = projective_functionals(3, 3)
    assert len(fs4) == functional_count(3, 3) == 13
    assert all(f[next(i for i, x in enumerate(f) if x)] == 1 for f in fs4)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_class_order_matches_an_independent_enumeration(q):
    # class order, the order of every class array, is lexicographic
    # order of the functionals whose first nonzero entry is 1
    for k in range(1, 5):
        normalized = [f for f in itertools.product(range(q), repeat=k)
                      if any(f) and f[next(i for i, x in enumerate(f) if x)]
                      == 1]
        assert projective_functionals(q, k) == normalized


def test_codes_round_trip_at_63_bits():
    rows = np.random.default_rng(63).integers(0, 2, (40, 63))
    rows[::2, 0] = 1  # bit 62, the top bit of a non-negative int64
    codes = _codes(rows, 2)
    assert (codes[::2] >> 62).tolist() == [1] * 20
    assert np.array_equal(_digits(codes, 2, 63), rows)


def test_codeword_example():
    gf3 = make_field(3)
    d = family4(gf3, 2, 2, relaxed=True)
    assert d.points == ((0, 1), (0, 2), (1, 0), (2, 0))
    assert codeword(d, (1, 0)) == (0, 0, 1, 2)
    assert sum(map(bool, codeword(d, (1, 0)))) == 2
    with pytest.raises(ParameterError):
        codeword(d, (1, 0, 0))


def test_codeword_rejects_coefficients_outside_the_field():
    # -1 would index the tables from the end, as 4 does; 7 past them
    d = family4(make_field(5), 3, 3)
    # and a non-integer would be truncated, 1.5 evaluated as 1
    for f in ((-1, 1, 0), (7, 0, 0), (0, 0, 5), (1.5, 0, 0), (0, 0.0, 1)):
        with pytest.raises(ParameterError, match="outside"):
            codeword(d, f)
    assert codeword(d, (4, 1, 0)) != codeword(d, (0, 1, 0))


@pytest.mark.parametrize("q", [2, 4, 7, 8, 9])
def test_codeword_matches_the_scalar_dot(q):
    gf = field_of_order(q)
    rng = random.Random(500 + q)
    for d in (family4(gf, 3, 3), point_set(gf, 3, ())):
        for _ in range(20):
            f = tuple(rng.randrange(q) for _ in range(3))
            assert codeword(d, f) == tuple(gf.dot(f, pt) for pt in d.points)


def test_codeword_scalar_multiples_share_weight():
    gf5 = make_field(5)
    d = family4(gf5, 3, 3)
    c1 = codeword(d, (1, 2, 3))
    c2 = codeword(d, (2, 4, 1))  # 2 * (1, 2, 3)
    assert sum(map(bool, c1)) == sum(map(bool, c2))
    assert c2 == tuple(gf5.mul(2, x) for x in c1)


def test_dimension():
    gf3 = make_field(3)
    assert dimension(family4(gf3, 3, 3)) == 3
    line = point_set(gf3, 3, ((1, 1, 1), (2, 2, 2)))
    assert dimension(line) == 1
    assert dimension(tilde_join(family4(gf3, 3, 3),
                                family4(gf3, 3, 3))) == 4


def _span_sample(gf, rng, k, r, draws):
    """Distinct nonzero combinations of r random vectors of length k, from
    draws random draws: a set of rank at most r, below k unless r = k."""
    basis = [[rng.randrange(gf.q) for _ in range(k)] for _ in range(r)]
    pts = set()
    for _ in range(draws):
        pt = [0] * k
        for vec in basis:
            c = rng.randrange(gf.q)
            pt = [gf.add(x, gf.mul(c, y)) for x, y in zip(pt, vec)]
        if any(pt):
            pts.add(tuple(pt))
    return point_set(gf, k, tuple(sorted(pts)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_dimension_matches_the_oracle(q):
    gf = field_of_order(q)
    rng = random.Random(q)
    sets = [(_span_sample(gf, rng, k, r, 3 * k), r)
            for k in range(1, 5) for r in range(k + 1)]
    # rank-deficient sets of more than 64 points, whose masks at q <= 4
    # span two to four words
    big = [(_span_sample(gf, rng, 9, r, 240), r) for r in (7, 8)]
    assert all(64 < len(d) <= 256 for d, _ in big)
    if q == 2:  # k = 62, the widest code
        big.append((_span_sample(gf, rng, 62, 60, 100), 60))
    for d, r in sets + big:
        assert dimension(d) == brute_rank(gf, d.points) <= r


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_dimension_falls_back_when_the_sample_falls_short(q, monkeypatch):
    # dimension ranks a fixed sample of D first and all of D when the
    # sample's rank is below k: the hyperplane x_1 = 0 with e_1 added has
    # rank k, though a sample of 64 points at q <= 4, 2k above, nearly
    # always misses e_1, and the same set without e_1, and a random span
    # of at most k - 2 vectors, have rank below k whatever the sample
    gf = field_of_order(q)
    k = {2: 11, 3: 7, 4: 6, 5: 5}.get(q, 4)
    plane = [pt for pt in itertools.product(range(q), repeat=k)
             if pt[0] == 0 and any(pt)]
    e1 = (1,) + (0,) * (k - 1)
    span = _span_sample(gf, random.Random(q), k, k - 2, 300)
    ranked = []
    real = code._rank

    def rank(*args):
        ranked.append(real(*args))
        return ranked[-1]

    monkeypatch.setattr(code, "_rank", rank)
    for d, want in ((point_set(gf, k, tuple(plane + [e1])), k),
                    (point_set(gf, k, tuple(plane)), k - 1),
                    (span, min(brute_rank(gf, span.points), k - 2))):
        assert len(d) > (64 if q <= 4 else 2 * k)
        ranked.clear()
        assert dimension(d) == brute_rank(gf, d.points) == want
        assert ranked[0] < k and len(ranked) == 2, (d, ranked)


def test_weight_distribution_examples():
    gf3 = make_field(3)
    d = family4(gf3, 3, 3)
    dist = weight_distribution_bruteforce(d)
    assert dist.counts() == {0: 1, 10: 6, 12: 8, 14: 12}
    assert dist.total == 27
    d5 = family4(make_field(5), 3, 3)
    assert weight_distribution_bruteforce(d5).counts() == {
        0: 1, 36: 12, 48: 64, 52: 48}


def test_distribution_matches_scalar_oracle():
    # cross-check the vectorized projective enumerator against a plain
    # all-functionals loop
    for d in (family4(make_field(3), 3, 3),
              family2(make_field(2, 2), 3, 3),
              family1(make_field(2, 2), 4, 4, relaxed=True)):
        assert (weight_distribution_bruteforce(d).counts()
                == brute_weight_distribution(d))


def test_simplex_code_is_single_weight():
    for q, k in ((2, 3), (3, 2), (4, 2), (5, 2)):
        gf = make_field(*( (q, 1) if q in (2, 3, 5) else (2, 2) ))
        d = full_space(gf, k)
        dist = weight_distribution_bruteforce(d)
        assert dist.nonzero_entries() == (
            (gf.q ** (k - 1) * (gf.q - 1), gf.q ** k - 1),)


def test_counts_sum_to_field_size_power():
    for d in (family4(make_field(3), 4, 3), family2(make_field(5), 3, 3)):
        dist = weight_distribution_bruteforce(d)
        assert dist.total == d.field.q ** d.dim


def test_empty_defining_set():
    d = point_set(make_field(3), 2, ())
    assert weight_distribution_bruteforce(d).counts() == {0: 9}
    # one codeword, the zero word: nothing to contain or be contained
    assert is_minimal_direct(d).minimal
    assert dimension(d) == 0


def test_budget_exceeded_reports_cost():
    d = family4(make_field(3), 4, 3)
    classes = functional_count(3, 4)
    with pytest.raises(BudgetExceeded) as exc:
        weight_distribution_bruteforce(d, budget=100)
    assert exc.value.required == classes * len(d)
    with pytest.raises(ParameterError):
        weight_distribution_bruteforce(d, budget=-1)


ROUTES = ("transform", "incidence", "enumeration")


def test_class_values_chunk_invariance(monkeypatch):
    # the enumeration evaluates the classes, and the incidence count the
    # tails after a point's first nonzero, in blocks of _CHUNK
    d = family4(make_field(2, 2), 3, 3)

    def weights(route, chunk):
        monkeypatch.setattr(code, "_cheapest_route", lambda *args: route)
        monkeypatch.setattr(pointset, "_CHUNK", chunk)
        return class_weights(d)

    for route in ROUTES:
        assert np.array_equal(weights(route, 10 ** 6), weights(route, 3))


def test_ab_check():
    gf3 = make_field(3)
    dist = weight_distribution_bruteforce(family4(gf3, 3, 3))
    # 3 * 10 > 2 * 14
    assert ab_check(dist, 3)
    dist5 = weight_distribution_bruteforce(family4(make_field(5), 3, 3))
    # 5 * 36 < 4 * 52
    assert not ab_check(dist5, 5)


def test_minimality():
    assert is_minimal_direct(family4(make_field(3), 3, 3)).minimal
    # minimal even though the AB criterion fails
    assert is_minimal_direct(family4(make_field(5), 3, 3)).minimal
    res = is_minimal_direct(
        family4(make_field(3), 2, 2, relaxed=True))
    assert not res.minimal
    assert res.witness == ((1, 1), (0, 1))
    # witness really is a support containment of non-proportional words
    d = family4(make_field(3), 2, 2, relaxed=True)
    big, small = (codeword(d, f) for f in res.witness)
    assert all(b != 0 for b, s in zip(big, small) if s != 0)


def random_sets(gf, rng):
    """Seeded sets for k = 1..4: the empty set, a subset of a hyperplane
    (dim < k), sparse sets, and near-full sets of small spaces."""
    q = gf.q
    for k in range(1, 5):
        space = [pt for pt in itertools.product(range(q), repeat=k)
                 if any(pt)]
        for trial in range(4):
            if trial == 0:
                pts = []
            elif trial == 1:
                # inside a hyperplane, so dim C_D < k: codewords of
                # distinct classes can be scalar multiples
                f = [rng.randrange(q) for _ in range(k)]
                f[rng.randrange(k)] = 1
                plane = [pt for pt in space if gf.dot(f, pt) == 0]
                pts = rng.sample(plane, rng.randint(0, len(plane)))
            else:
                # sparse sets are rarely minimal, near-full ones (small
                # spaces only, to keep the oracles quick) are
                dense = trial == 3 and q ** k <= 125
                size = (max(len(space) - rng.randrange(3), 0) if dense
                        else rng.randint(1, min(len(space), 4 * k)))
                pts = rng.sample(space, size)
            yield point_set(gf, k, tuple(pts))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_is_minimal_direct_matches_the_oracle_on_random_sets(q):
    gf = field_of_order(q)
    verdicts, low_rank = set(), 0
    for d in random_sets(gf, random.Random(q)):
        res = is_minimal_direct(d)
        witness = brute_is_minimal(d)
        assert (res.minimal, res.witness) == (witness is None, witness), d
        verdicts.add(res.minimal)
        low_rank += dimension(d) < d.dim
    assert verdicts == {True, False} and low_rank > 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_weight_routes_agree_on_random_sets(q, monkeypatch):
    gf = field_of_order(q)
    kinds = set()
    for d in random_sets(gf, random.Random(100 + q)):
        routes = []
        for route in ROUTES:
            monkeypatch.setattr(code, "_cheapest_route",
                                lambda *args: route)
            routes.append(class_weights(d))
        for wts in routes[1:]:
            assert np.array_equal(routes[0], wts), d
        brute = brute_weight_distribution(d)
        for wts in routes:
            assert code._distribution(q, wts).counts() == brute, d
        kinds.update(kind for kind, seen in (
            ("empty", not d.points), ("dim < k", dimension(d) < d.dim),
            ("near-full", len(d) >= q ** d.dim - 3)) if seen)
    assert kinds == {"empty", "dim < k", "near-full"}


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_weights_with_mixed_multiplicities(q, monkeypatch):
    # partial scalar orbits: the i-th projective point, in a seeded
    # order, keeps i mod q of its q-1 multiples, so multiplicities 1 to
    # q-1 all occur in one set
    gf = field_of_order(q)
    rng = random.Random(300 + q)
    normal = [f for f in itertools.product(range(q), repeat=3)
              if any(f) and next(x for x in f if x) == 1]
    rng.shuffle(normal)
    pts, want = [], {}
    for i, pt in enumerate(normal):
        scalars = rng.sample(range(1, q), i % q)
        pts += [tuple(gf.mul(a, x) for x in pt) for a in scalars]
        if scalars:
            want[pt] = len(scalars)
    mixed = point_set(gf, 3, tuple(rng.sample(pts, len(pts))))
    reps, mult = pointset._projective_points(mixed)
    reps = _digits(reps, q, 3)
    assert dict(zip(map(tuple, reps.tolist()), mult.tolist())) == want
    assert set(want.values()) == set(range(1, q))
    assert mult.tolist() == sorted(mult.tolist())
    empty = point_set(gf, 3, ())
    for d in (mixed, empty, family4(gf, 3, 3)):
        brute = brute_weight_distribution(d)
        for route in ROUTES:
            monkeypatch.setattr(code, "_cheapest_route",
                                lambda *args: route)
            assert code._distribution(q, class_weights(d)).counts() == brute


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_hyperplane_counts_match_a_pure_python_count(q):
    # |D ∩ ker f| at the code of every functional f, one scalar product
    # at a time, for distinct points of mixed multiplicities
    gf = field_of_order(q)
    rng = random.Random(400 + q)
    for k in (1, 2, 3):
        space = [pt for pt in itertools.product(range(q), repeat=k)
                 if any(pt)]
        for size in (0, 1, min(len(space), 12), len(space)):
            pts = sorted(rng.sample(space, size))
            mult = [rng.randint(1, 2 * q) for _ in pts]
            codes = _codes(np.array(pts, dtype=np.int64).reshape(-1, k), q)
            counts = code._hyperplane_counts(
                gf, k, codes, np.array(mult, dtype=np.int64))
            assert counts.shape == (q ** k,)
            for f in itertools.product(range(q), repeat=k):
                want = sum(m for pt, m in zip(pts, mult)
                           if gf.dot(f, pt) == 0)
                assert counts[_codes(np.array(f), q)] == want, (k, pts, f)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27])
def test_incidence_counts_match_a_pure_python_count(q):
    # |D ∩ ker f| for every class f, in class order, one scalar product at
    # a time, for distinct projective points of mixed multiplicities; the
    # unit vectors e_i vanish from every s > i on
    gf = field_of_order(q)
    rng = random.Random(500 + q)
    vanishing = 0
    for k in (1, 2, 3, 4):
        classes = projective_functionals(q, k)
        units = {tuple(int(i == j) for j in range(k)) for i in range(k)}
        sizes = (0, 1, min(len(classes), 12))
        for size in sizes + ((len(classes),) if len(classes) <= 200 else ()):
            pts = rng.sample(classes, size)
            if size > 1:
                pts = sorted(set(pts) | units)
            mult = sorted(rng.randint(1, 2 * q) for _ in pts)
            vanishing += sum(not any(pt[s:]) for pt in pts for s in range(k))
            codes = _codes(np.array(pts, dtype=np.int64).reshape(-1, k), q)
            counts = code._incidence_counts(
                gf, k, codes, np.array(mult, dtype=np.int64))
            want = [sum(m for pt, m in zip(pts, mult) if gf.dot(f, pt) == 0)
                    for f in classes]
            assert counts.tolist() == want, (k, pts, mult)
    assert vanishing > 0


#: perfbench's large_q sets, (family, q, k, h)
LARGE_Q = ((4, 49, 3, 3), (4, 53, 3, 3), (4, 32, 3, 3), (3, 13, 4, 3),
           (2, 11, 4, 3), (1, 9, 4, 4))


def test_class_weights_picks_the_cheaper_route(monkeypatch):
    class Chosen(Exception):
        pass

    def stop(route):
        def spy(*args):
            raise Chosen(route)
        return spy

    with monkeypatch.context() as patch:
        patch.setattr(code, "_hyperplane_counts", stop("transform"))
        patch.setattr(code, "_incidence_counts", stop("incidence"))
        patch.setattr(code, "functional_values", stop("enumeration"))
        # few classes and many points: on the large_q sets the pass is 1.4
        # to 10 times faster with the incidence count than with the faster
        # of the enumeration and the transform
        for f, q, k, h in LARGE_Q:
            with pytest.raises(Chosen, match="incidence"):
                class_weights(FAMILIES[f](field_of_order(q), k, h))
        # many classes at q = 2: the transform
        with pytest.raises(Chosen, match="transform"):
            class_weights(family4(field_of_order(2), 10, 3))
        # few classes and few points: a verify_sweep row
        with pytest.raises(Chosen, match="enumeration"):
            class_weights(family4(field_of_order(2), 4, 3))

    # the route is first chosen at n/(q-1) points, the fewest projective
    # points D can have: F4 at q = 49 is routed on its 147 projective
    # points, never on its 7,056 points
    chosen, seen = [], []
    real_route, real_counts = code._cheapest_route, code._incidence_counts

    def route(gf, k, r):
        chosen.append((r, real_route(gf, k, r)))
        return chosen[-1][1]

    def incidence(gf, k, codes, mult):
        seen.append(len(codes))
        return real_counts(gf, k, codes, mult)

    monkeypatch.setattr(code, "_cheapest_route", route)
    monkeypatch.setattr(code, "_incidence_counts", incidence)
    d = family4(field_of_order(49), 3, 3)
    assert len(d) == 7056
    class_weights(d)
    assert chosen == [(147, "incidence")] * 2 and seen == [147]
    # and F1 at q = 9, which takes the incidence count on its 365
    # projective points (above), would take the transform on its 2,920
    d = FAMILIES[1](field_of_order(9), 4, 4)
    assert len(d) == 2920
    assert real_route(d.field, 4, len(d)) == "transform"
    # where the transform wins at that bound, D is never reduced: the
    # transform counts D's own points, each once
    reduced, counted = [], []
    real_points = code._projective_points
    real_transform = code._hyperplane_counts

    def points(d):
        reduced.append(d)
        return real_points(d)

    def transform(gf, k, codes, mult):
        counted.append((codes, mult))
        return real_transform(gf, k, codes, mult)

    monkeypatch.setattr(code, "_projective_points", points)
    monkeypatch.setattr(code, "_hyperplane_counts", transform)
    d = family4(field_of_order(3), 5, 3)
    chosen.clear()
    want = brute_weight_distribution(d)
    assert code._distribution(3, class_weights(d)).counts() == want
    assert chosen == [(-(-len(d) // 2), "transform")] and not reduced
    (codes, mult), = counted
    assert codes is d.codes and mult.tolist() == [1] * len(d)
    monkeypatch.undo()

    # each value route evaluates on the distinct projective points only,
    # the enumeration every class on all of them, the incidence count
    # each point once for each lead s; the budget's classes * n bounds the
    # cells of both: at most r values per class, and r(c-1)/q in all
    cells = []
    real = code.functional_values

    def spy(gf, fs, pts):
        cells.append((len(fs), len(pts)))
        return real(gf, fs, pts)

    monkeypatch.setattr(code, "functional_values", spy)
    d = family4(field_of_order(49), 3, 3)
    for forced in ("enumeration", "incidence"):
        monkeypatch.setattr(code, "_cheapest_route", lambda *args: forced)
        cells.clear()
        class_weights(d)
        sizes = {n for _, n in cells}
        if forced == "enumeration":
            assert sizes == {147}
        else:
            assert max(sizes) <= 147
    for f, q, k, h in LARGE_Q + ((1, 2, 4, 4),):
        d = FAMILIES[f](field_of_order(q), k, h)
        for forced in ("enumeration", "incidence"):
            monkeypatch.setattr(code, "_cheapest_route",
                                lambda *args: forced)
            cells.clear()
            class_weights(d)
            assert cells
            assert (sum(c * n for c, n in cells)
                    <= functional_count(q, k) * len(d)), (f, q, forced)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_cutting_equals_minimality_on_spanning_sets(q):
    # the two routes agree only when D spans AG(k,q); a set inside a
    # proper subspace is never cutting for k >= 2, minimal or not
    gf = field_of_order(q)
    rng = random.Random(200 + q)
    sets = list(random_sets(gf, rng))
    for k in range(1, 5):
        space = [pt for pt in itertools.product(range(q), repeat=k)
                 if any(pt)]
        sets += [point_set(gf, k, tuple(rng.sample(
            space, rng.randint(k, min(len(space), 6 * k)))))
            for _ in range(6)]
    seen = set()
    for d in sets:
        cut, res = is_cutting(d), is_minimal_direct(d)
        if dimension(d) == d.dim:
            assert cut == res.minimal, d
            # and the first hyperplane D fails to span is the smallest
            # containing class of a violating pair
            if not cut:
                assert first_short_class(d) == res.witness[0], d
            seen.add(cut)
        elif d.dim >= 2:
            assert not cut, d
    assert seen == {True, False}


def test_minimal_but_not_cutting():
    # the 10 weight-2 vectors of GF(2)^5 span only the even-weight
    # hyperplane: C_D is minimal, D is not cutting
    pts = tuple(sorted(tuple(int(i in pair) for i in range(5))
                       for pair in itertools.combinations(range(5), 2)))
    d = point_set(field_of_order(2), 5, pts)
    assert dimension(d) == 4
    assert is_minimal_direct(d).minimal and not is_cutting(d)


def test_minimality_budget_charges_the_line_scan(monkeypatch):
    # the 136 vectors of weight 1 and 2 in GF(2)^16: c * n is 8.9e6, but
    # the line scan visits c(c-1)/3 = 1.4e9 cells for the c = 65535 classes
    def spy(*args):
        raise AssertionError("the class pass ran before the budget check")

    monkeypatch.setattr(code, "class_weights", spy)
    pts = tuple(sorted(
        tuple(int(i in part) for i in range(16))
        for size in (1, 2) for part in itertools.combinations(range(16),
                                                              size)))
    d = point_set(field_of_order(2), 16, pts)
    assert len(d) == 136
    for check in (is_minimal_direct, summarize):
        with pytest.raises(BudgetExceeded) as exc:
            check(d)
        assert exc.value.required == 65535 * 21845


def _q2_sets():
    """Seeded q = 2 sets: random_sets' empty, dim < k, sparse and
    near-full sets at k <= 4, sparse sets at k = 5 to 8, and the family
    sets of acceptance criterion 9 with 2^k <= 2047, relaxed h included,
    which gives non-minimal ones."""
    gf = field_of_order(2)
    rng = random.Random(2)
    yield from random_sets(gf, rng)
    for k in range(5, 9):
        space = list(itertools.product(range(2), repeat=k))[1:]
        for _ in range(6):
            yield point_set(gf, k, tuple(rng.sample(
                space, rng.randint(1, 4 * k))))
    for f, ctor in sorted(FAMILIES.items()):
        for k in range(1, 11):
            for h in range(1, k + 1):
                yield ctor(gf, k, h, relaxed=True)


def test_q2_line_test_matches_the_scan_and_the_oracle():
    # the q = 2 line test, whichever scan it takes, gives the verdict and
    # witness of the scan of every line, and so does the pure-Python
    # oracle where it is quick
    kinds = set()
    for d in _q2_sets():
        res = is_minimal_direct(d)
        assert res == code._line_scan(d.field, d.dim, class_weights(d)), d
        if d.dim <= 5:
            witness = brute_is_minimal(d)
            assert (res.minimal, res.witness) == (witness is None, witness), d
        kinds.update(kind for kind, seen in (
            ("empty", not d.points), ("dim < k", dimension(d) < d.dim),
            ("minimal", res.minimal), ("not minimal", not res.minimal))
            if seen)
    assert kinds == {"empty", "dim < k", "minimal", "not minimal"}


def _line_routes(monkeypatch):
    """A spy on the line scan: the route of each scan that runs, in order,
    "_line_scan" for the scan of every line or "through" for the scan of
    the lines through some classes."""
    ran = []

    def spy(*args, real=code._line_scan):
        ran.append("_line_scan" if args[3] is None else "through")
        return real(*args)

    monkeypatch.setattr(code, "_line_scan", spy)
    return ran


def _many_levels(k, seed, q=2):
    """A seeded sparse set of AG(k,q) with many weight levels."""
    rng = random.Random(seed)
    space = list(itertools.product(range(q), repeat=k))[1:]
    return point_set(field_of_order(q), k, tuple(rng.sample(space, 3 * k)))


def _filter(d):
    """The feasible tops and mandatory levels of D's class weights."""
    wts = class_weights(d)
    return code._level_filter(d.field.q, len(wts), np.unique(wts[wts > 0]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_level_filter_matches_the_scan_and_the_oracle(q, monkeypatch):
    # the line test, whichever route it takes, and the scan through the
    # classes of the feasible tops and of each mandatory level give the
    # verdict and witness of the scan of every line, and of the
    # pure-Python oracle where it is quick; seeded random sets, sparse
    # sets with many levels and the relaxed family sets with q^k <= 1024
    # reach every route of this q
    gf = field_of_order(q)
    scan = code._line_scan
    ran = _line_routes(monkeypatch)
    sets = list(random_sets(gf, random.Random(400 + q)))
    sets += [_many_levels(k, 400 + k, q) for k in range(4, 12)
             if q ** k <= 2048]
    k = 2
    while q ** k <= 1024:
        sets += [ctor(gf, k, h, relaxed=True)
                 for _, ctor in sorted(FAMILIES.items())
                 for h in range(1, k + 1)]
        k += 1
    verdicts, routes = set(), set()
    for d in sets:
        ran.clear()
        res = is_minimal_direct(d)
        routes.add(ran[0] if ran else "settled")
        wts = class_weights(d)
        assert res == scan(gf, d.dim, wts), d
        if d.dim <= 5 and q ** d.dim <= 256:
            witness = brute_is_minimal(d)
            assert (res.minimal, res.witness) == (witness is None, witness), d
        filtered = _filter(d)
        if filtered is not None:
            tops, mandatory = filtered
            assert tops or res.minimal, d
            for via in [tops] * bool(tops) + [[level] for level in mandatory]:
                through = np.flatnonzero(np.isin(wts, via))
                assert scan(gf, d.dim, wts, through) == res, (d, via)
        verdicts.add(res.minimal)
    assert verdicts == {True, False}
    assert routes == {"settled", "through", "_line_scan"}


def test_level_filter_on_the_large_q_sets(monkeypatch):
    # the weight levels, feasible tops and mandatory levels of perfbench's
    # large_q sets: F1 at q = 9 has no feasible top and is settled; on the
    # rest the rarest mandatory level is the minimum weight, and the scan
    # runs through its classes alone
    pinned = {
        (4, 49, 3, 3): ([4656, 6912, 6960], [6960], [4656, 6912, 6960]),
        (4, 53, 3, 3): ([5460, 8112, 8164], [8164], [5460, 8112, 8164]),
        (4, 32, 3, 3): ([1953, 2883, 2914], [2914], [1953, 2883, 2914]),
        (3, 13, 4, 3): ([9048, 10296, 10380, 10452, 10608, 10764],
                        [10452, 10608, 10764], [9048]),
        (2, 11, 4, 3): ([2310, 3300, 3310, 3410], [3410],
                        [2310, 3300, 3410]),
        (1, 9, 4, 4): ([2192, 2584, 2592, 2600, 2640, 2648], [], []),
    }
    through = []
    real = code._line_scan

    def scan(gf, k, wts, via):
        through.append(via)
        return real(gf, k, wts, via)

    monkeypatch.setattr(code, "_line_scan", scan)
    for (f, q, k, h), (levels, tops, mandatory) in pinned.items():
        d = FAMILIES[f](field_of_order(q), k, h)
        wts = class_weights(d)
        assert np.unique(wts).tolist() == levels
        assert _filter(d) == (tops, mandatory)
        through.clear()
        assert is_minimal_direct(d).minimal
        if tops:
            assert len(through) == 1
            assert np.array_equal(through[0], np.flatnonzero(
                wts == levels[0]))
        else:
            assert through == []


def test_line_test_route(monkeypatch):
    # the weight levels settle most family sets, at q = 2 and above; the
    # rest take the scan of fewer cells: through the classes of the
    # rarest mandatory level, or of every line; a set whose filter would
    # pass its cap takes the scan of every line
    ran = _line_routes(monkeypatch)
    gf2, gf3 = field_of_order(2), field_of_order(3)
    # the same set inside the hyperplane x_11 = 0 of AG(11,2): its zero
    # class is no weight level, and it settles too
    flat = DefiningSet(gf2, 11, family1(gf2, 10, 4).codes * 2)
    assert 0 in class_weights(flat)
    for d, route in ((family1(gf2, 10, 4), []),
                     (flat, []),
                     (family1(gf3, 5, 4), []),
                     (family4(gf2, 10, 2, relaxed=True), ["through"]),
                     (family4(field_of_order(49), 3, 3), ["through"]),
                     (_many_levels(8, 3), ["through"]),
                     (_many_levels(11, 5), ["_line_scan"]),
                     (_many_levels(9, 4), ["_line_scan"]),
                     (_many_levels(4, 1, q=3), ["_line_scan"])):
        ran.clear()
        is_minimal_direct(d)
        assert ran == route, d
    # sixteen levels, nine of them feasible tops and none mandatory: the
    # classes of the tops are too many for the restricted scan, and the
    # scan of every line runs
    tops, mandatory = _filter(_many_levels(9, 4))
    assert len(tops) >= 9 and mandatory == []
    assert _filter(family1(gf2, 10, 4)) == ([], [])
    # forty levels at q = 3: the DP would pass the cap, so every level
    # counts as a feasible top and the scan of every line runs
    wts = np.arange(1, 41)
    assert code._level_filter(3, 40, wts) is None
    ran.clear()
    code._minimality(gf3, 4, wts)
    assert ran == ["_line_scan"]


def test_line_test_charge_bounds_its_work(monkeypatch):
    # the cost _check_scan_budget charges is at least the cells of each
    # part of the line test that runs: the level filter's DPs, counted
    # from the calls of _reaches, and the scan's, of every line or of
    # those through some classes, counted from the calls of _translates
    # and _joins
    dp, cells, through = [], [], []
    real_translates, real_joins = code._translates, code._joins
    real_reaches, real_scan = code._reaches, code._line_scan

    def reaches(t, steps, layers):
        if steps:
            dp.append(layers * len(steps) * (t // math.gcd(*steps) + 1))
        return real_reaches(t, steps, layers)

    def translates(gf, vs, m):  # (b, s, u) for the q^(k-1-m) heads
        heads = functional_count(gf.q, d.dim - 1 - m)
        cells.append(heads * len(vs) * gf.q ** (m + 1))
        return real_translates(gf, vs, m)

    def joins(gf, vs, m):  # (f, g, u)
        cells.append(len(vs) * functional_count(gf.q, m) * gf.q)
        return real_joins(gf, vs, m)

    def scan(gf, k, wts, via):
        through.extend([] if via is None else via.tolist())
        return real_scan(gf, k, wts, via)

    for name, spy in (("_reaches", reaches), ("_translates", translates),
                      ("_joins", joins), ("_line_scan", scan)):
        monkeypatch.setattr(code, name, spy)
    ran = _line_routes(monkeypatch)
    gf2 = field_of_order(2)
    for d, route in ((family4(gf2, 10, 2, relaxed=True), "through"),
                     (_many_levels(11, 5), "_line_scan"),
                     (_many_levels(12, 2), "_line_scan"),
                     (_many_levels(8, 3), "through"),
                     (_many_levels(9, 4), "_line_scan"),
                     (family4(field_of_order(3), 5, 3), "settled"),
                     (family4(field_of_order(4), 4, 3), "through"),
                     (_many_levels(4, 1, q=3), "_line_scan")):
        for seen in (ran, dp, cells, through):
            seen.clear()
        with pytest.raises(BudgetExceeded) as exc:
            code._check_scan_budget(d, 0)
        is_minimal_direct(d)
        assert ran == ([] if route == "settled" else [route]), d
        charge = exc.value.required
        assert sum(dp) <= charge, d
        c = functional_count(d.field.q, d.dim)
        if route == "settled":
            assert dp and not cells, d
        elif route == "through":  # c - 1 cells per class
            assert dp and through, d
            assert sum(cells) == len(through) * (c - 1) <= charge, d
        else:  # q of the q + 1 classes of each line
            assert sum(cells) == c * (c - 1) // (d.field.q + 1) <= charge, d


def test_scale_invariant_weights_divisible():
    # scale-invariant defining set => every weight divisible by q - 1
    gf5 = make_field(5)
    dist = weight_distribution_bruteforce(family4(gf5, 3, 3))
    assert all(w % 4 == 0 for w, _ in dist.entries)
    dist7 = weight_distribution_bruteforce(family2(make_field(7), 3, 3))
    assert all(w % 6 == 0 for w, _ in dist7.entries)


def test_summarize():
    s = summarize(family4(make_field(3), 3, 3))
    assert (s.n, s.dim, s.d) == (18, 3, 10)
    assert s.ab_holds and s.minimal and s.minimality_method == "direct"
    t = summarize(tilde_join(family4(make_field(3), 3, 3),
                             family4(make_field(3), 3, 3)))
    assert (t.n, t.dim, t.d) == (36, 4, 18)
    f2 = summarize(family2(make_field(7), 3, 3))
    assert (f2.n, f2.dim, f2.d) == (126, 3, 78)
    assert f2.minimal
    j = s.to_json_dict()
    assert j["minimal_direct"] is True and "witness" not in j


def test_summarize_budget_covers_one_pass():
    d = family4(make_field(3), 3, 3)
    cost = functional_count(3, 3) * len(d)
    assert summarize(d, budget=cost).minimal
    with pytest.raises(BudgetExceeded) as exc:
        summarize(d, budget=cost - 1)
    assert exc.value.required == cost


def test_summarize_runs_one_class_pass(monkeypatch):
    calls = []

    def spy(d, *args):
        calls.append(d)
        return class_weights(d, *args)

    monkeypatch.setattr(code, "class_weights", spy)
    d = family4(make_field(3), 2, 2, relaxed=True)  # not minimal
    s = summarize(d)
    assert calls == [d]
    # the verdicts of the two separate passes
    assert s.d == weight_distribution_bruteforce(d).min_weight
    res = is_minimal_direct(d)
    assert not s.minimal and (s.minimal, s.witness) == (res.minimal,
                                                         res.witness)


def test_distribution_serialization_round_trips():
    dist = weight_distribution_bruteforce(family4(make_field(3), 3, 3))
    parsed = json.loads(json.dumps(dist.to_json_dict(18, 3)))
    assert parsed["n"] == 18 and parsed["dim"] == 3
    assert {e["w"]: e["count"] for e in parsed["weights"]} == dist.counts()
