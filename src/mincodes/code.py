"""Codes from defining sets: exact weight distributions and minimality.

Weights and supports are class invariants (scalar multiples of a
functional permute nothing and rescale every entry), so the oracle finds
the weight of one functional per projective class and multiplies counts
by q-1.  Whether f.x = 0 depends only on the projective point of x too,
so D is first reduced to its distinct projective points, each with its
multiplicity (q-1 for every point of a family set, which is a cone).
The oracle evaluates each class on every distinct projective point and
adds the multiplicities of those off its hyperplane, or reads n minus
the points on its hyperplane from one exact count over all functionals
(k steps, each q^2 adds of contiguous int32 blocks), whichever a cost
model fitted to timings of both routes says is faster.  Minimality is
decided from the same class weights, by a scan of the projective lines or,
at q = 2, by an XOR convolution of the weight levels.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional, Sequence

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
    """Rank over GF(q) of the matrix whose columns are the points of D, by
    the one rank kernel of each q: column elimination on D's bit masks
    (:func:`_mask_ranks`) at q <= 4, row reduction through the field
    tables (:func:`ranks`) above."""
    gf, k = d.field, d.dim
    if gf.q <= 4:
        planes = [x[..., None] for x in _masks(gf.q, k, d.codes)]
        return int(_mask_ranks(gf, planes, _plane_ops(gf))[0])
    return int(ranks(gf, _digits(d.codes, gf.q, k)[None])[0])


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


def _transform_is_cheaper(gf: GF, k: int, r: int) -> bool:
    """Whether :func:`_hyperplane_counts` takes less time than
    enumerating the c classes on the r distinct projective points of D.

    Both costs are in nanoseconds.  A step of the transform adds q^(k+2)
    cells, about 0.5 ns each, in q^2 block adds of about 3000 ns each.
    The enumeration costs 14 per value over a prime field, 39 over a
    prime power (k table lookups), and 500 per class.  The constants are
    a least-squares fit, in relative error, to the times of both routes on
    644 sets (2-vCPU VM, Python 3.11, numpy 2.4): every distinct set of
    perfbench's three workloads and of acceptance criterion 9, 117 rows of
    ``verify-all`` with 2047 < q^k <= 400000, and 224 seeded random sets,
    q from 2 to 53 and k from 1 to 17.  Against always taking the faster
    route, it loses 1.4 ms over all 644.
    """
    q, c = gf.q, functional_count(gf.q, k)
    transform = k * (q ** (k + 2) // 2 + 3000 * q * q)
    value = 14 if gf.m == 1 else 39
    return transform < c * (value * r + 500)


def class_weights(d: DefiningSet, budget: int = DEFAULT_BUDGET
                  ) -> np.ndarray:
    """The codeword weight (c,) of each projective class, in class order:
    the one pass over the classes, refused when over budget.

    Both routes run over the r distinct projective points of D, with
    their multiplicities.  The weights come from
    :func:`_hyperplane_counts` when that costs less than evaluating every
    class on each of the r points.  The budget charges classes times
    n = len(D), at least r, so it bounds that evaluation.
    """
    gf, k, n = d.field, d.dim, len(d)
    check_budget(gf.q, k, n, budget)
    codes, mult = _projective_points(d)
    if _transform_is_cheaper(gf, k, len(codes)):
        classes = _class_codes(gf.q, k, np.arange(functional_count(gf.q, k)))
        return n - _hyperplane_counts(gf, k, codes, mult)[classes].astype(
            np.int64)
    pts = _digits(codes, gf.q, k)
    # one group of points per multiplicity: at most q-1, one for a cone
    levels, starts = np.unique(mult, return_index=True)
    ends = np.append(starts[1:], len(pts))
    weights = []
    for fs in _class_blocks(gf.q, k):
        vals = functional_values(gf, fs, pts)
        w = np.zeros(len(vals), dtype=np.int64)
        for m, lo, hi in zip(levels, starts, ends):
            w += m * np.count_nonzero(vals[:, lo:hi], axis=1)
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


def is_minimal_direct(
    d: DefiningSet, budget: int = DEFAULT_BUDGET
) -> MinimalityResult:
    """Exhaustive minimality check from the class weights alone.

    A point of D is a zero of one of the q+1 classes on a projective
    line, or of all, so the weights on a line sum to q times the size of
    the union of its supports: the heaviest class holds every other
    support on the line exactly when the sum is q times its weight.  A
    line with a zero class (dim C_D < k) holds multiples of one codeword
    and is skipped.  Lines are visited once, by echelon basis (b leads
    at p, a before p with a_p = 0; the points are b and a + s*b), in
    increasing order of b, their smallest class.  The witness
    (containing, contained) is the lexicographically smallest violating
    pair, a line's smallest heaviest class and its smallest other class.

    At q = 2 the same test is an XOR convolution of the weight levels
    (:func:`_xor_line_test`), taken when it touches fewer cells than the
    scan; it gives the same verdict and witness, and the budget charge
    for the scan bounds it too.
    """
    _check_scan_budget(d, budget)
    return _minimality(d.field, d.dim, class_weights(d, budget))


def _check_scan_budget(d: DefiningSet, budget: int) -> None:
    """Refuse the class pass plus line scan of :func:`is_minimal_direct`
    when over budget.  The scan visits q of the q+1 classes on each of
    the c(c-1)/(q(q+1)) lines through the c classes, so each class is
    charged the larger of n and (c-1)/(q+1), rounded up.  At q = 2 the
    XOR convolution runs only when it touches fewer cells than the scan,
    so the charge bounds whichever route runs."""
    q = d.field.q
    c = functional_count(q, d.dim)
    check_budget(q, d.dim, max(len(d), -(-(c - 1) // (q + 1))), budget)


def _minimality(gf: GF, k: int, wts: np.ndarray) -> MinimalityResult:
    """The line test of :func:`is_minimal_direct` over the class weights
    wts (c,), in class order.  At q = 2 and k <= _XOR_MAX_K it is
    :func:`_xor_line_test` when that touches fewer cells,
    :func:`_xor_cells`, than the c(c-1)/3 the scan visits; otherwise, and
    at every q > 2, it is :func:`_line_scan`."""
    c = len(wts)
    if gf.q == 2 and k <= _XOR_MAX_K:
        levels, pairs = _level_pairs(wts)
        if _xor_cells(k, levels, pairs) < c * (c - 1) // 3:
            return _xor_line_test(k, wts, levels, pairs)
    return _line_scan(gf, k, wts)


def _line_scan(gf: GF, k: int, wts: np.ndarray) -> MinimalityResult:
    """The line scan of :func:`is_minimal_direct` over the class weights
    wts (c,), in class order, at any q."""
    q, c = gf.q, len(wts)
    # weight -1: a line with a zero class never sums to q times its max
    wts = np.where(wts > 0, wts, -1)
    # position of each lead's first class (later leads come first)
    first = [functional_count(q, k - 1 - lead) for lead in range(k)]
    best = c * c  # heaviest * c + other, over the violating lines
    for p in range(k - 1, 0, -1):
        m = k - 1 - p
        # the class of each a that is zero after p
        heads = np.concatenate([first[lead] + q ** (m + 1) * np.arange(
            q ** (p - 1 - lead)) for lead in range(p)])
        nv = max(1, _SCAN_CELLS // (len(heads) * q ** (m + 1)))
        for v0 in range(0, q ** m, nv):
            vs = np.arange(v0, min(v0 + nv, q ** m))  # b after p
            b = first[p] + vs
            # class of a + s*b at [a's head, b, s, a after p]
            idx = heads[:, None, None, None] + _translates(gf, vs, m)
            w = wts.take(idx)
            top = np.maximum(w.max(axis=2), wts[b][:, None])
            hits = np.nonzero(w.sum(axis=2) + wts[b][:, None] == q * top)
            if hits[0].size:
                line = np.concatenate([idx[hits[0], hits[1], :, hits[2]],
                                       b[hits[1], None]], axis=1)
                heavy = np.where(wts[line] == top[hits][:, None], line,
                                 c).min(axis=1)
                other = np.where(line != heavy[:, None], line, c).min(axis=1)
                best = min(best, int((heavy * c + other).min()))
    if best == c * c:
        return MinimalityResult(True)
    pair = _digits(_class_codes(q, k, np.array(divmod(best, c))), q, k)
    return MinimalityResult(False, tuple(map(tuple, pair.tolist())))


#: the largest k at which :func:`_xor_line_test` is exact in int64: a
#: level's transform is at most 2^k in size, a sum of products of two at
#: most (2^k)^2, and the inverse adds 2^k of those, so at most 2^(3k)
_XOR_MAX_K = 20


def _level_pairs(wts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive weight levels (L,) of wts, increasing, and the pairs
    (P, 2) of indices i <= j of levels whose sum is a level."""
    levels = np.unique(wts[wts > 0])
    sums = levels[:, None] + levels
    i, j = np.nonzero(np.isin(sums, levels) & (levels[:, None] <= levels))
    return levels, np.stack([i, j], axis=1)


def _xor_cells(k: int, levels: np.ndarray, pairs: np.ndarray) -> int:
    """The cells :func:`_xor_line_test` touches at q = 2, each a row of
    2^k: k + 1 per level it transforms (built, then k passes) and per
    sum it transforms back (k passes, then read), one per pair (a
    product) and one for the witness."""
    rows = len(np.unique(pairs)) + len(np.unique(levels[pairs].sum(axis=1)))
    return 2 ** k * ((k + 1) * rows + len(pairs) + 1)


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """The unnormalized Walsh-Hadamard transform of each row of a
    (R, 2^k) int64, in place: sum over x of (-1)^(popcount(u & x)) a[x]
    at u.  Applied twice it multiplies by 2^k."""
    h = a.shape[1] // 2
    while h:
        b = a.reshape(len(a), -1, 2, h)  # a view: the pairs (x, x ^ h)
        low = b[:, :, 0].copy()
        b[:, :, 0] += b[:, :, 1]
        low -= b[:, :, 1]
        b[:, :, 1] = low
        h //= 2
    return a


def _xor_line_test(k: int, wts: np.ndarray, levels: np.ndarray,
                   pairs: np.ndarray) -> MinimalityResult:
    """The line test at q = 2 by XOR convolution of weight levels (Ding,
    Heng and Zhou, "Minimal binary linear codes", 2018): the answer of
    :func:`_line_scan`, witness included, for the levels and pairs of
    :func:`_level_pairs`.

    A line holds f, g and f+g, and w(g) + w(f+g) >= w(f), with equality
    exactly when supp(g) lies in supp(f).  So f contains another nonzero
    codeword exactly when some g has w(g), w(f+g) > 0 and w(g) + w(f+g) =
    w(f).  For levels a <= b, the number of g with w(g) = a and w(f+g) = b
    is the XOR convolution of the indicators of the two levels at f.  The
    convolutions of the pairs with the same sum are added in the transform
    domain and transformed back once per sum, one sum at a time, all in
    exact int64 (k <= _XOR_MAX_K).  The witness is the smallest such f, as
    at q = 2 class order is code order, and then the smallest g, the
    smaller class of the pair g, f+g, found in one pass over the 2^k
    functionals.
    """
    if not len(pairs):
        return MinimalityResult(True)
    w = np.zeros(2 ** k, dtype=np.int64)  # the weight at each code
    w[1:] = wts  # at q = 2 the class at position i has code i + 1
    used, at = np.unique(pairs, return_inverse=True)
    at = at.reshape(pairs.shape)
    hat = _walsh_hadamard((w == levels[used][:, None]).astype(np.int64))
    sums = levels[pairs].sum(axis=1)
    hits = []
    for s in np.unique(sums):
        acc = sum(hat[i] * hat[j] for i, j in at[sums == s])
        counts = _walsh_hadamard(acc[None])[0]  # 2^k times the g counted
        hits.extend(np.flatnonzero((w == s) & (counts > 0))[:1].tolist())
    if not hits:
        return MinimalityResult(True)
    f = min(hits)
    g = np.arange(2 ** k)
    inner = (w > 0) & (w[g ^ f] > 0) & (w + w[g ^ f] == w[f])
    pair = _digits(np.array([f, np.flatnonzero(inner)[0]]), 2, k)
    return MinimalityResult(False, tuple(map(tuple, pair.tolist())))


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
