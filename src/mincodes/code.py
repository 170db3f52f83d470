"""Codes from defining sets: exact weight distributions and minimality.

Weights and supports are class invariants (scalar multiples of a
functional permute nothing and rescale every entry), so the oracle finds
the weight of one functional per projective class and multiplies counts
by q-1.  Whether f.x = 0 depends only on the projective point of x too,
so D is reduced to its distinct projective points, each with its
multiplicity (q-1 for every point of a family set, which is a cone).
The oracle takes one of three exact routes, whichever a cost model
fitted to timings of all three says is fastest.  The enumeration
evaluates each class on every distinct projective point and adds the
multiplicities of those off its hyperplane.  The transform reads n minus
the points on each hyperplane from one count over all functionals (k
steps, each q^2 adds of contiguous int32 blocks); it needs no reduction,
and when it wins at the fewest projective points D can have, D is not
reduced.  The incidence count lists, for each projective point, the
classes through it, about 1/q of all (class, point) pairs, and reads n
minus the multiplicities each class collects.  Minimality is
decided from the same class weights: the weight levels alone settle most
sets, and the rest take a scan of the projective lines, of all of them or
of those through the classes that every violating line holds.  The code
dimension ranks a fixed sample of D first, and all of D only when the
sample's rank is short of k.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Optional, Sequence

import numpy as np

from .field import GF
from .pointset import (
    DEFAULT_BUDGET,
    DefiningSet,
    ParameterError,
    _class_blocks,
    _class_codes,
    _codes,
    _digits,
    _mask_ranks,
    _masks,
    _plane_ops,
    _projective_points,
    check_budget,
    functional_count,
    functional_values,
    ranks,
)


def codeword(d: DefiningSet, f: Sequence[int]) -> tuple[int, ...]:
    """Evaluate the linear form f on every point of D, in D's order."""
    if len(f) != d.dim:
        raise ParameterError(
            f"functional has length {len(f)}, ambient dimension is {d.dim}"
        )
    q = d.field.q
    if not all(isinstance(c, numbers.Integral) and 0 <= c < q for c in f):
        raise ParameterError(
            f"functional {tuple(f)} is outside the integers in [0, {q})")
    return tuple(_codewords(d, [f])[0].tolist())


def _codewords(d: DefiningSet, fs: Sequence[Sequence[int]]) -> np.ndarray:
    """The values (b, n) of the b linear forms fs on the points of D, in
    D's order: one numpy evaluation for all of them."""
    q, k = d.field.q, d.dim
    fs = np.array(fs, dtype=np.int64).reshape(-1, k)
    return functional_values(d.field, _codes(fs, q), _digits(d.codes, q, k))


def dimension(d: DefiningSet) -> int:
    """Rank over GF(q) of the matrix whose columns are the points of D.

    A fixed sample of D is ranked first: 64 points at q <= 4, one word of
    bit masks, and 2k above, drawn in a fixed random order (a stride
    through lex order can fall into a subspace).  The rank of D is at
    most k, so a sample of rank k settles it; otherwise all of D is
    ranked."""
    gf, k = d.field, d.dim
    size = 64 if gf.q <= 4 else 2 * k
    if len(d) > size:
        pick = np.random.default_rng(0).choice(len(d), size, replace=False)
        rank = _rank(gf, k, d.codes[pick])
        if rank == k:
            return rank
    return _rank(gf, k, d.codes)


def _rank(gf: GF, k: int, codes: np.ndarray) -> int:
    """Rank over GF(q) of the points of codes (n,), by the one rank kernel
    of each q: column elimination on their bit masks (:func:`_mask_ranks`)
    at q <= 4, row reduction through the field tables (:func:`ranks`)
    above."""
    if gf.q <= 4:
        planes = [x[..., None] for x in _masks(gf.q, k, codes)]
        return int(_mask_ranks(gf, planes, _plane_ops(gf))[0])
    return int(ranks(gf, _digits(codes, gf.q, k)[None])[0])


@dataclass(frozen=True)
class WeightDistribution:
    """Exact weight -> count map, weights strictly increasing."""

    entries: tuple[tuple[int, int], ...]

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "WeightDistribution":
        return cls(tuple(sorted((w, c) for w, c in counts.items() if c)))

    def counts(self) -> dict[int, int]:
        return dict(self.entries)

    def nonzero_entries(self) -> tuple[tuple[int, int], ...]:
        return tuple((w, c) for w, c in self.entries if w > 0)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.entries)

    @property
    def min_weight(self) -> int:
        nz = self.nonzero_entries()
        if not nz:
            raise ParameterError("distribution has no nonzero weight")
        return nz[0][0]

    @property
    def max_weight(self) -> int:
        nz = self.nonzero_entries()
        if not nz:
            raise ParameterError("distribution has no nonzero weight")
        return nz[-1][0]

    # -- serialization -------------------------------------------------------

    def to_csv(self) -> str:
        lines = ["weight,count"]
        lines.extend(f"{w},{c}" for w, c in self.entries)
        return "\n".join(lines) + "\n"

    def to_json_dict(self, n: int, dim: int) -> dict:
        return {
            "n": n,
            "dim": dim,
            "weights": [{"w": w, "count": c} for w, c in self.entries],
        }


def _markdown_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A markdown table, in the layout of the paper's weight tables."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines.extend("| " + " | ".join(map(str, row)) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def _hyperplane_counts(gf: GF, k: int, codes: np.ndarray, mult: np.ndarray
                       ) -> np.ndarray:
    """|D ∩ ker f| for every functional f of AG(k,q), at the code of f,
    for D given by the codes (n,) of distinct points, of multiplicities
    mult (n,).

    The table t[s, code] counts the points of D at each code with partial
    sum s, and starts as D's multiplicities in row s = 0.  Each step views
    it as (s, x, rest), x the most significant coordinate left, and
    replaces x by a coefficient f at the end: the count at (s, x, rest)
    moves to (s + f x, rest, f).  For each f and x that is one add of a
    contiguous (q, q^(k-1)) block, its rows permuted by s' -> s' - f x,
    and each f's sum is written once to its column.  After k steps the
    axes are (s, f_1, ..., f_k) and s = f.x.
    """
    q = gf.q
    # counts never exceed |D| < q^k, and the table has q^(k+1) cells
    t = np.zeros((q, q ** k), dtype=np.int32)
    t[0, codes] = mult
    # perm[f, x, s']: the partial sum s' - f x whose count lands at s'
    perm = gf.add_table[np.arange(q), gf.neg_table[gf.mul_table][:, :, None]]
    for _ in range(k):
        t = t.reshape(q, q, -1)
        out = np.empty((q, t.shape[2], q), dtype=np.int32)
        for f in range(q):
            acc = t[:, 0].copy()  # x = 0 moves nothing
            for x in range(1, q):
                acc += t[perm[f, x], x]
            out[..., f] = acc
        t = out.reshape(q, -1)
    return t[0]


def _incidence_counts(gf: GF, k: int, codes: np.ndarray, mult: np.ndarray
                      ) -> np.ndarray:
    """|D ∩ ker f| (c,) for every class f, in class order, for D given by
    the codes (r,) of distinct projective points, of multiplicities
    mult (r,) in increasing order.

    A class with lead s (f_s = 1, zero before s) holds x when
    x_s + sum over i > s of f_i x_i is 0.  When x vanishes from s on,
    all q^(k-1-s) classes with lead s hold it, and when only x_s is
    nonzero from s on, none does.  Otherwise let j be the first i > s with
    x_i != 0: the coefficients between s and j multiply zeros, so they are
    free, and for each tail (f_(j+1), ..., f_(k-1)) one f_j solves the
    equation.  So x lies on q^(k-2-s) classes, listed as the q^(k-1-j)
    values f_j = -(x_s + sum over i > j of f_i x_i) / x_j of the forms
    (1, tail) at -(x_s, x_(j+1), ..., x_(k-1)) / x_j, in blocks of _CHUNK
    tails.  Each point adds its multiplicity at (f_j, tail), and that count
    is added once for every value of the free coefficients.  No array is
    larger than a block of _CHUNK tails by r points, or than the c counts.
    """
    q = gf.q
    pts = _digits(codes, q, k)
    # a nonzero sentinel at coordinate k: first is k when x is 0 after s
    ends = np.concatenate([pts, np.ones((len(pts), 1), np.int64)], axis=1)
    counts = np.zeros(functional_count(q, k), dtype=np.int64)
    for s in range(k):
        m = k - 1 - s
        # the classes with lead s are the codes [q^m, 2 q^m), in order
        lead = counts[functional_count(q, m):functional_count(q, m + 1)]
        first = s + 1 + (ends[:, s + 1:] != 0).argmax(axis=1)
        lead += mult[(first == k) & (pts[:, s] == 0)].sum()
        for j in range(s + 1, k):
            on = first == j
            if not on.any():
                continue
            x, tail = pts[on], k - 1 - j
            scale = gf.neg_table[gf.inv_table[x[:, j]]]
            y = gf.mul_table[scale[:, None], x[:, [s, *range(j + 1, k)]]]
            at = np.zeros(q ** (tail + 1), dtype=np.int64)
            levels = list(_levels(mult[on]))
            # the forms (1, tail) have the codes q^tail + tail
            for fs in _class_blocks(q, tail + 1,
                                    first=functional_count(q, tail)):
                hits = (functional_values(gf, fs, y) * q ** tail
                        + (fs[:, None] - q ** tail))  # at (f_j, tail)
                for level, lo, hi in levels:
                    at += level * np.bincount(hits[:, lo:hi].ravel(),
                                              minlength=len(at))
            free = lead.reshape(-1, len(at))
            free += at
    return counts


def _levels(mult: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """(multiplicity, start, end) of each run of equal multiplicities in
    mult, which is in increasing order: at most q-1 runs, one for a cone."""
    levels, starts = np.unique(mult, return_index=True)
    return zip(levels.tolist(), starts.tolist(),
               np.append(starts[1:], len(mult)).tolist())


def _cheapest_route(gf: GF, k: int, r: int) -> str:
    """The route of :func:`class_weights` predicted to be fastest for r
    distinct projective points in AG(k,q): "transform"
    (:func:`_hyperplane_counts`), "incidence" (:func:`_incidence_counts`)
    or "enumeration" (every class on every point).

    The costs are in nanoseconds.  A step of the transform adds q^(k+2)
    cells, about 0.5 ns each, in q^2 block adds of about 3000 ns each, and
    does not depend on r.  The enumeration costs 14 per value over a prime
    field, 39 over a prime power (k table lookups), and 500 per class.
    The incidence count lists at most r(c-1)/q incidences, at 12 ns each
    over a prime field and 24 over a prime power, plus 19000 k^2 for its at
    most k(k-1)/2 groups of points with one lead s and one first nonzero
    j after it.  The constants are a
    least-squares fit, in relative error, to the times of the three routes
    on 1,171 sets (2-vCPU VM, Python 3.11, numpy 2.4): every distinct row
    of ``verify-all --qs 2,3,4,5,7,8,9 --max-points 400000``, which holds
    perfbench's verify_sweep and acceptance criterion 9, perfbench's
    large_q sets, and 239 seeded random sets with q from 2 to 53 and q^k
    up to 3*10^5.  Refitting the transform and enumeration constants saved
    no time, so they are those of the earlier two-route fit.  Against
    always taking the fastest route, it loses 2.8 ms over all 1,171.
    """
    q, c = gf.q, functional_count(gf.q, k)
    prime = gf.m == 1
    costs = {
        "transform": k * (q ** (k + 2) // 2 + 3000 * q * q),
        "enumeration": c * ((14 if prime else 39) * r + 500),
        "incidence": (12 if prime else 24) * r * (c - 1) // q
        + 19000 * k * k,
    }
    return min(costs, key=costs.__getitem__)


def class_weights(d: DefiningSet, budget: int = DEFAULT_BUDGET
                  ) -> np.ndarray:
    """The codeword weight (c,) of each projective class, in class order:
    the one pass over the classes, refused when over budget.

    The route is the one :func:`_cheapest_route` predicts to be fastest.
    D has r >= n/(q-1) distinct projective points, n = len(D), and only the
    transform's cost does not grow with r, so when the transform wins at
    that bound it wins at r: it then counts D's own points, each once, and
    D is never reduced.  Otherwise D is reduced to its projective points,
    with their multiplicities, and the route is chosen again at r.  The
    budget charges classes times n, which bounds the r values per class
    the enumeration computes and the at most r(c-1)/q the incidence count
    does; the transform runs only where it is predicted to be faster.
    """
    gf, k, n = d.field, d.dim, len(d)
    check_budget(gf.q, k, n, budget)
    codes, mult = d.codes, np.ones(n, dtype=np.int64)
    route = _cheapest_route(gf, k, -(-n // (gf.q - 1)))
    if route != "transform":
        codes, mult = _projective_points(d)
        route = _cheapest_route(gf, k, len(codes))
    if route == "transform":
        classes = _class_codes(gf.q, k, np.arange(functional_count(gf.q, k)))
        return n - _hyperplane_counts(gf, k, codes, mult)[classes].astype(
            np.int64)
    if route == "incidence":
        return n - _incidence_counts(gf, k, codes, mult)
    pts = _digits(codes, gf.q, k)
    weights = []
    for fs in _class_blocks(gf.q, k):
        vals = functional_values(gf, fs, pts)
        w = np.zeros(len(vals), dtype=np.int64)
        for level, lo, hi in _levels(mult):
            w += level * np.count_nonzero(vals[:, lo:hi], axis=1)
        weights.append(w)
        del vals  # freed before the next block is computed
    return np.concatenate(weights)


def _distribution(q: int, wts: np.ndarray) -> WeightDistribution:
    """Histogram of the class weights, each class counting q-1 words,
    plus the zero word."""
    ws, cs = np.unique(wts, return_counts=True)
    counts = dict(zip(ws.tolist(), (cs * (q - 1)).tolist()))
    counts[0] = counts.get(0, 0) + 1  # the zero word
    return WeightDistribution.from_counts(counts)


def weight_distribution_bruteforce(
    d: DefiningSet, budget: int = DEFAULT_BUDGET
) -> WeightDistribution:
    """Exact distribution over all q^k functionals, zero word included."""
    return _distribution(d.field.q, class_weights(d, budget))


def ab_check(dist: WeightDistribution, q: int) -> bool:
    """Sufficient minimality criterion: q * w_min > (q-1) * w_max."""
    return q * dist.min_weight > (q - 1) * dist.max_weight


@dataclass(frozen=True)
class MinimalityResult:
    minimal: bool
    #: (functional of containing word, functional of contained word)
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __bool__(self) -> bool:
        return self.minimal


#: cells (lines times points) of one step of the line scan, one b at least
_SCAN_CELLS = 1 << 18


def _translates(gf: GF, vs: np.ndarray, m: int) -> np.ndarray:
    """s * q^m + (base-q value of u + s*v) at [v, s, u], for v in GF(q)^m
    of base-q values vs, s in GF(q), and u in GF(q)^m in base-q order."""
    q = gf.q
    out = np.tile(np.arange(q)[:, None], (len(vs), 1, 1))
    for v in _digits(vs, q, m).T:  # most significant digit first
        # digit of u + s*v, at [v, s, digit of u]
        digit = gf.add_table[np.arange(q), gf.mul_table[:, v].T[:, :, None]]
        out = (out[..., None] * q + digit[:, :, None, :]).reshape(
            len(vs), q, -1)
    return out


def _joins(gf: GF, vs: np.ndarray, m: int) -> np.ndarray:
    """The base-q value of v + u*g at [v, g, u], for v in GF(q)^m of
    base-q values vs, g the classes of AG(m,q) in class order, and u in
    GF(q)."""
    q = gf.q
    gs = _class_codes(q, m, np.arange(functional_count(q, m)))
    ug = gf.mul_table[_digits(gs, q, m).T]  # u * g_i at [i, g, u]
    out = np.zeros((len(vs), len(gs), q), dtype=np.int64)
    for v, g in zip(_digits(vs, q, m).T, ug):  # most significant first
        out *= q
        out += gf.add_table[v[:, None, None], g]
    return out


def is_minimal_direct(
    d: DefiningSet, budget: int = DEFAULT_BUDGET
) -> MinimalityResult:
    """Exhaustive minimality check from the class weights alone.

    A point of D is a zero of one of the q+1 classes on a projective
    line, or of all, so the weights on a line sum to q times the size of
    the union of its supports: the heaviest class holds every other
    support on the line exactly when the sum is q times its weight.  A
    line with a zero class (dim C_D < k) holds multiples of one codeword
    and is skipped.  The witness (containing, contained) is the
    lexicographically smallest violating pair, a line's smallest heaviest
    class and its smallest other class.

    The weight levels alone often settle the test (:func:`_level_filter`):
    a set where no level can top a violating line is minimal.  Otherwise
    :func:`_minimality` takes whichever scan touches fewer cells: that of
    every line (:func:`_line_scan`) or that of the lines through the
    classes that every violating line holds.  Both give the same verdict
    and witness, and the budget charge for the scan of every line bounds
    each of them.
    """
    _check_scan_budget(d, budget)
    return _minimality(d.field, d.dim, class_weights(d, budget))


def _check_scan_budget(d: DefiningSet, budget: int) -> None:
    """Refuse the class pass plus line test of :func:`is_minimal_direct`
    when over budget.  The scan of every line visits q of the q+1 classes
    on each of the c(c-1)/(q(q+1)) lines through the c classes, so each
    class is charged the larger of n and (c-1)/(q+1), rounded up.  That
    charge bounds every part of the line test: the level filter stops
    before its cells pass c times the larger of the heaviest weight, at
    most n, and (c-1)/(q+1), rounded up, and the restricted scan runs only
    when it touches fewer cells than the full scan."""
    q = d.field.q
    c = functional_count(q, d.dim)
    check_budget(q, d.dim, max(len(d), -(-(c - 1) // (q + 1))), budget)


def _minimality(gf: GF, k: int, wts: np.ndarray) -> MinimalityResult:
    """The line test of :func:`is_minimal_direct` over the class weights
    wts (c,), in class order.

    A set with no feasible top (:func:`_level_filter`) is minimal.
    Otherwise the scan that touches fewer cells runs, the full scan on a
    tie: :func:`_line_scan` over every line, c(c-1)/(q+1) cells, or the
    same scan over the lines through the classes of a mandatory level or
    of the feasible tops, whichever are fewest, c-1 cells per class.  When
    the filter does not run, every level counts as a feasible top and the
    restricted scan is not offered."""
    q, c = gf.q, len(wts)
    levels, counts = np.unique(wts[wts > 0], return_counts=True)
    tops, mandatory = _level_filter(q, c, levels) or (levels, None)
    if not len(tops):
        return MinimalityResult(True)
    cells = {"scan": c * (c - 1) // (q + 1)}
    if mandatory is not None:
        size = dict(zip(levels.tolist(), counts.tolist()))
        via = min([tops] + [[level] for level in mandatory],
                  key=lambda ls: sum(map(size.__getitem__, ls)))
        cells["through"] = sum(map(size.__getitem__, via)) * (c - 1)
    route = min(cells, key=cells.__getitem__)
    return _line_scan(gf, k, wts, np.flatnonzero(np.isin(wts, via))
                      if route == "through" else None)


def _level_filter(q: int, c: int, levels: np.ndarray
                  ) -> Optional[tuple[list[int], list[int]]]:
    """The feasible tops and the mandatory levels among the positive weight
    levels (L,), increasing, of c classes, from the levels alone; None when
    the filter's cells would pass its cap.

    A violating line has a top class of weight T, and its other q classes
    have positive levels l <= T whose weights sum to (q-1)T, so their
    deficits T - l sum to T.  Classes at T itself add nothing, so T is a
    feasible top only when some at most q deficits T - l, l < T a level,
    sum to T (:func:`_reaches`).  A level l is mandatory when every
    violating line holds a class at l: when no feasible top is below l,
    and every one above l needs the deficit T - l.

    The DP for a top T touches at most q * deficits * (T/g + 1) cells, one
    bit each, g the gcd of its deficits, and the check of a level at most
    the cells of the tops above it.  The filter stops before its cells
    would pass c times the larger of the heaviest level and (c-1)/(q+1),
    rounded up, which :func:`_check_scan_budget` charges: before the tops
    it returns None, and before a level's check it returns the mandatory
    levels found so far, in increasing order.
    """
    lv = levels.tolist()
    if not lv:
        return [], []
    deficits = {t: [t - level for level in lv if level < t] for t in lv}
    cost = {t: q * len(ds) * (t // math.gcd(*ds) + 1)
            for t, ds in deficits.items() if ds}
    left = c * max(lv[-1], -(-(c - 1) // (q + 1))) - sum(cost.values())
    if left < 0:
        return None
    tops = [t for t in cost if _reaches(t, deficits[t], q)]
    mandatory = []
    for level in lv:
        if not tops or level > tops[0]:
            break
        above = [t for t in tops if t > level]
        left -= sum(map(cost.__getitem__, above))
        if left < 0:
            break
        if not any(_reaches(t, [x for x in deficits[t] if x != t - level], q)
                   for t in above):
            mandatory.append(level)
    return tops, mandatory


def _reaches(t: int, steps: list[int], layers: int) -> bool:
    """Whether t is a sum of at most `layers` of the positive integers
    steps, repeats allowed: a bitset DP over the multiples of the steps'
    gcd g up to t, one layer of shifts at a time, layers * steps *
    (t/g + 1) cells at most."""
    g = math.gcd(*steps)
    if not steps or t % g:
        return False
    t, steps = t // g, [s // g for s in steps]
    mask, reach = (2 << t) - 1, 1
    for _ in range(layers):
        grown = reach
        for s in steps:
            grown |= reach << s
        grown &= mask
        if grown >> t & 1:
            return True
        if grown == reach:
            return False
        reach = grown
    return False


def _line_scan(gf: GF, k: int, wts: np.ndarray,
               through: Optional[np.ndarray] = None) -> MinimalityResult:
    """The line scan of :func:`is_minimal_direct` over the class weights
    wts (c,), in class order, at any q: of every line, or of the lines
    through the classes at positions through.

    Lines are visited by echelon basis (b leads at p, a before p with
    a_p = 0; the points are b and a + s*b), in increasing order of b,
    their smallest class: by :func:`_translates`, for every b or for each
    b in through.  A class f of through with lead p also lies on the lines
    of g and f + u*g, u in GF(q), for each class g of larger lead; f + u*g
    leads at p with entry 1, so no class is rescaled (:func:`_joins`).  A
    line visited twice leaves the least violating pair as it is.
    """
    q, c = gf.q, len(wts)
    # weight -1: a line with a zero class never sums to q times its max
    wts = np.where(wts > 0, wts, -1)
    # position of each lead's first class (later leads come first)
    first = [functional_count(q, k - 1 - lead) for lead in range(k)]
    best = c * c  # heaviest * c + other, over the violating lines
    for p in range(k - 1, -1, -1):
        m = k - 1 - p
        # b after p: the classes of lead p are first[p] + [0, q^m)
        vs = (np.arange(q ** m) if through is None else through[
            (through >= first[p]) & (through < first[p] + q ** m)] - first[p])
        if p and len(vs):
            # the class of each a that is zero after p
            heads = np.concatenate([first[lead] + q ** (m + 1) * np.arange(
                q ** (p - 1 - lead)) for lead in range(p)])
            nv = max(1, _SCAN_CELLS // (len(heads) * q ** (m + 1)))
            for v0 in range(0, len(vs), nv):
                v = vs[v0:v0 + nv]
                # class of a + s*b at [a's head, b, s, a after p]
                idx = heads[:, None, None, None] + _translates(gf, v, m)
                best = min(best, _least_violation(
                    wts, q, idx, (first[p] + v)[:, None]))
        if through is not None and m and len(vs):
            nf = max(1, _SCAN_CELLS // (first[p] * q))
            for f0 in range(0, len(vs), nf):
                # class of f + u*g at [f, g, u]; the classes g of larger
                # lead are the first first[p], in the order of _joins
                idx = first[p] + _joins(gf, vs[f0:f0 + nf], m)
                best = min(best, _least_violation(
                    wts, q, idx, np.arange(first[p])))
    if best == c * c:
        return MinimalityResult(True)
    pair = _digits(_class_codes(q, k, np.array(divmod(best, c))), q, k)
    return MinimalityResult(False, tuple(map(tuple, pair.tolist())))


def _least_violation(wts: np.ndarray, q: int, idx: np.ndarray,
                     extra: np.ndarray) -> int:
    """The least heaviest * c + other over the violating lines among those
    of the classes idx[i, j, :, ...] along axis 2 and the class extra,
    which broadcasts against idx without that axis; c * c when none
    violates.  Zero weights in wts (c,) are -1."""
    c = len(wts)
    w, other = wts.take(idx), wts.take(extra)
    top = np.maximum(w.max(axis=2), other)
    hits = np.nonzero(w.sum(axis=2) + other == q * top)
    if not hits[0].size:
        return c * c
    line = np.concatenate([np.moveaxis(idx, 2, -1)[hits],
                           np.broadcast_to(extra, top.shape)[hits][:, None]],
                          axis=1)
    heavy = np.where(wts[line] == top[hits][:, None], line, c).min(axis=1)
    rest = np.where(line != heavy[:, None], line, c).min(axis=1)
    return int((heavy * c + rest).min())


@dataclass(frozen=True)
class CodeSummary:
    n: int
    dim: int
    d: int
    ab_holds: bool
    minimal: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    #: the algorithm behind ``minimal``: always the exhaustive check
    minimality_method: ClassVar[str] = "direct"

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "dim": self.dim,
            "d": self.d,
            "ab_holds": self.ab_holds,
            "minimality_method": self.minimality_method,
            "minimal_direct": self.minimal,
        }
        if self.witness is not None:
            out["witness"] = [list(f) for f in self.witness]
        return out


def summarize(d: DefiningSet, budget: int = DEFAULT_BUDGET) -> CodeSummary:
    """[n, dim, d], the sufficient-only AB verdict and the exhaustive
    minimality verdict, both read from one pass over the classes."""
    _check_scan_budget(d, budget)
    wts = class_weights(d, budget)
    dist = _distribution(d.field.q, wts)
    ab = ab_check(dist, d.field.q)
    dim = dimension(d)
    res = _minimality(d.field, d.dim, wts)
    return CodeSummary(
        n=len(d), dim=dim, d=dist.min_weight, ab_holds=ab,
        minimal=res.minimal, witness=res.witness,
    )
