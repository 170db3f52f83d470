"""Defining sets in AG(k,q): the four families, the tilde join, and the
scale-invariance / cutting predicates.

Points are held as base-q codes (:func:`_codes`, x_1 most significant), so
code order is lexicographic order.  Family constructors emit points in it,
so every downstream artifact (codeword layout, serialized files,
fixtures) is bit-stable.

The cutting test (:func:`is_cutting`) walks the hyperplane classes in class
order.  An echelon certificate (:func:`_echelon_certificate`) first proves
most of them spanned without a rank, from one point of D at each trailing
level, the position of a point's last nonzero coordinate; the rest are
ranked on a sample of their points, and exactly when the sample falls
short.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable, Iterator, Optional

import numpy as np

from .field import GF, field_of_order

#: refuse to enumerate ambient spaces larger than this many points
DEFAULT_POINT_CAP = 10_000_000

#: default bound on the field operations of one pass over the classes
DEFAULT_BUDGET = 100_000_000


class ParameterError(ValueError):
    """Invalid input: family parameters outside the allowed range,
    malformed points, or a negative budget."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its configured budget."""

    def __init__(self, msg: str, required: int):
        super().__init__(msg)
        self.required = required


def functional_count(q: int, k: int) -> int:
    """Number of hyperplanes through the origin of AG(k,q)."""
    return (q ** k - 1) // (q - 1)


def check_budget(q: int, k: int, n: int, budget: int) -> None:
    """Raise BudgetExceeded when one pass over the projective classes of
    AG(k,q) for n points, costing classes * max(n, 1), is over budget, and
    ParameterError when the budget is outside [0, 2^62), so codes fit int64."""
    if not 0 <= budget < 2 ** 62:
        raise ParameterError(f"budget must be in [0, 2^62), got {budget}")
    cost = functional_count(q, k) * max(n, 1)
    if cost > budget:
        raise BudgetExceeded(
            f"enumeration needs {cost} field operations, budget is {budget}",
            required=cost,
        )


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """A set of distinct nonzero points of AG(k,q), in a fixed order, held
    as the read-only int64 array of their :func:`_codes`."""

    field: GF
    dim: int
    codes: np.ndarray
    family: Optional[str] = None

    def __post_init__(self):
        q, k = self.field.q, self.dim
        if not 1 <= k <= 62 or q ** k > 2 ** 62:  # codes must fit int64
            raise ParameterError(f"AG({k},{q}) needs k >= 1 and q^k <= 2^62")
        codes = np.asarray(self.codes)
        if codes.size and codes.dtype.kind not in "iu":  # never truncate
            raise ParameterError(f"codes must be integers, got {codes.dtype}")
        codes = codes.astype(np.int64)  # a copy, so read-only is safe
        # code 0 is the origin, which defining sets exclude
        if codes.ndim != 1 or ((codes < 1) | (codes >= q ** k)).any():
            raise ParameterError(f"codes must be a flat list in [1, {q}^{k})")
        if not np.diff(np.sort(codes)).all():  # np.unique imports numpy.ma
            raise ParameterError("duplicate points in defining set")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DefiningSet) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return self.field, self.dim, self.codes.tobytes(), self.family

    @cached_property
    def points(self) -> tuple[tuple[int, ...], ...]:
        """The points as tuples of element indices, in D's order (zipped
        from columns, so no list of lists is alive next to the tuples)."""
        return tuple(zip(*_digits(self.codes, self.field.q, self.dim).T
                         .tolist()))

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        tag = f", family={self.family}" if self.family else ""
        return (f"DefiningSet(q={self.field.q}, k={self.dim}, "
                f"n={len(self)}{tag})")

    # -- text serialization (header "q k n", one point per line) -----------

    def to_text(self) -> str:
        """The header "q k n" and one point per line.  The family tag is
        not written, so :meth:`from_text` gives it back as None."""
        lines = [f"{self.field.q} {self.dim} {len(self)}"]
        lines.extend(" ".join(str(x) for x in pt) for pt in self.points)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DefiningSet":
        """Parse :meth:`to_text` output; the family tag is None, because
        the format carries none.  The one place where point tuples enter:
        their lengths and coordinates are checked before they are encoded."""
        try:  # no lines, a header not of 3 tokens, or a non-integer
            (q, k, n), *pts = (tuple(map(int, ln.split()))
                               for ln in text.splitlines() if ln.strip())
        except ValueError as exc:
            raise ParameterError(f"malformed defining set: {exc}") from None
        if len(pts) != n:
            raise ParameterError(f"expected {n} points, found {len(pts)}")
        for pt in pts:  # of the wrong length, or not over GF(q)
            if len(pt) != k or not all(0 <= x < q for x in pt):
                raise ParameterError(f"{pt} is not a point of AG({k},{q})")
        codes = _codes(np.array(pts, dtype=np.int64), q) if pts else []
        return cls(field=field_of_order(q), dim=k, codes=codes)


#: smallest h each family is proved for
FAMILY_H_MIN = {1: 4, 2: 3, 3: 3, 4: 3}


def _check_range(family: int, h: int, k: int, relaxed: bool) -> None:
    name, h_min = f"family{family}", FAMILY_H_MIN[family]
    if k < 1 or h < 1 or h > k:
        raise ParameterError(f"{name} requires 1 <= h <= k; got h={h}, k={k}")
    if h < h_min and not relaxed:
        raise ParameterError(
            f"{name} requires {h_min} <= h <= k (pass relaxed=True to "
            f"explore outside this range); got h={h}"
        )


def _enumerate(gf: GF, k: int, h: int,
               head_in: Callable[[np.ndarray], np.ndarray],
               tag: str) -> DefiningSet:
    """All nonzero points whose first h coordinates satisfy head_in, in
    code order: head_in maps the digits (h, q^h) of all heads, x_1 first,
    to a mask (q^h,), and each kept head takes all q^(k-h) tails."""
    q = gf.q
    if q ** k > DEFAULT_POINT_CAP:
        raise BudgetExceeded(f"AG({k},{q}) has {q ** k} points, above the "
                             f"cap {DEFAULT_POINT_CAP}", required=q ** k)
    # uint8 digits (q <= 256): the grid is h bytes per head
    heads = np.indices((q,) * h, dtype=np.uint8).reshape(h, -1)
    tails = q ** (k - h)
    codes = (np.flatnonzero(head_in(heads))[:, None] * tails
             + np.arange(tails)).ravel()
    return DefiningSet(field=gf, dim=k, codes=codes[codes != 0], family=tag)


def _has_zero(heads: np.ndarray) -> np.ndarray:
    """Mask of the heads (h, q^h) with x_1 * ... * x_h = 0."""
    return (heads == 0).any(axis=0)


def _has_opposite_pair(gf: GF, heads: np.ndarray) -> np.ndarray:
    """Mask of the heads (h, q^h) with x_i + x_j = 0, i < j, pair by pair."""
    out = np.zeros(heads.shape[1], dtype=bool)
    for xi, xj in itertools.combinations(heads, 2):
        out |= gf.add_table[xi, xj] == 0
    return out


def family1(gf: GF, k: int, h: int, relaxed: bool = False) -> DefiningSet:
    """Points with (x_1 + ... + x_h) * x_1 * ... * x_h = 0."""
    _check_range(1, h, k, relaxed)

    def head_in(heads: np.ndarray) -> np.ndarray:
        total = reduce(lambda s, x: gf.add_table[s, x], heads)
        return _has_zero(heads) | (total == 0)

    return _enumerate(gf, k, h, head_in, f"F1(h={h})")


def family2(gf: GF, k: int, h: int, relaxed: bool = False) -> DefiningSet:
    """Points with prod_{i<j<=h} (x_i + x_j) = 0."""
    _check_range(2, h, k, relaxed)
    return _enumerate(gf, k, h, partial(_has_opposite_pair, gf),
                      f"F2(h={h})")


def family3(gf: GF, k: int, h: int, relaxed: bool = False) -> DefiningSet:
    """Points with prod x_i * prod_{i<j<=h} (x_i + x_j) = 0."""
    _check_range(3, h, k, relaxed)
    return _enumerate(
        gf, k, h, lambda heads: _has_zero(heads)
        | _has_opposite_pair(gf, heads), f"F3(h={h})")


def family4(gf: GF, k: int, h: int, relaxed: bool = False) -> DefiningSet:
    """Points with x_1 * ... * x_h = 0."""
    _check_range(4, h, k, relaxed)
    return _enumerate(gf, k, h, _has_zero, f"F4(h={h})")


FAMILIES: dict[int, Callable[..., DefiningSet]] = {
    1: family1, 2: family2, 3: family3, 4: family4,
}


def _projective_points(d: DefiningSet) -> tuple[np.ndarray, np.ndarray]:
    """The codes (r,) of the distinct projective points of D, normalized
    (first nonzero entry 1), and their multiplicities (r,), in increasing
    order of multiplicity."""
    gf, q, codes = d.field, d.field.q, d.codes
    if q == 2:  # every nonzero point is its own projective point
        return codes, np.ones(len(d), dtype=np.int64)
    # a code in [q^j, q^(j+1)) has its first nonzero digit at q^j, and that
    # digit is code // q^j; each digit is scaled by its inverse in turn,
    # least significant first, so no (n, k) array of digits is built
    powers = q ** np.arange(d.dim)
    lead = codes // powers[np.searchsorted(powers, codes, side="right") - 1]
    inv = gf.inv_table.take(lead) * q
    mul = gf.mul_table.ravel()
    rest, normal = codes, np.zeros_like(codes)
    for power in powers.tolist():
        rest, digit = np.divmod(rest, q)
        digit += inv
        scaled = mul.take(digit)
        scaled *= power
        normal += scaled
    codes, mult = np.unique(normal, return_counts=True)
    order = np.argsort(mult, kind="stable")
    return codes[order], mult[order]


def is_scale_invariant(d: DefiningSet) -> bool:
    """True iff a*D = D for every nonzero scalar a, i.e. D is a union of
    punctured lines through the origin: each of its projective points
    occurs q-1 times."""
    return bool((_projective_points(d)[1] == d.field.q - 1).all())


def tilde_join(d1: DefiningSet, d2: DefiningSet) -> DefiningSet:
    """Lift D1 to height 1 and D2 to height 0 inside AG(k+1,q).

    Coordinate layout: the (x,0) block for x in D2 first, then the (x,1)
    block for x in D1, each in the stored order of its source set.  The
    new coordinate is the least significant digit of a code.
    """
    if d1.field != d2.field or d1.dim != d2.dim:
        raise ParameterError("tilde_join requires matching ambient spaces")
    if not is_scale_invariant(d1):
        raise ParameterError("tilde_join requires a scale-invariant D1")
    q, tag = d1.field.q, f"[{d1.family or '?'},{d2.family or '?'}]~"
    return DefiningSet(field=d1.field, dim=d1.dim + 1,
                       codes=np.concatenate([d2.codes * q, d1.codes * q + 1]),
                       family=tag)


def _codes(rows: np.ndarray, q: int) -> np.ndarray:
    """Base-q values, x_1 most significant, of rows (..., k) of element
    indices: the one integer code of points and functionals."""
    return rows @ q ** np.arange(rows.shape[-1] - 1, -1, -1)


def _digits(codes: np.ndarray, q: int, k: int) -> np.ndarray:
    """The rows (..., k) of element indices whose :func:`_codes` are codes.
    Where q = 2^b a digit is a b-bit field, read by shift and mask."""
    if q & (q - 1) == 0:
        b = q.bit_length() - 1
        return codes[..., None] >> b * np.arange(k - 1, -1, -1) & q - 1
    return codes[..., None] // q ** np.arange(k - 1, -1, -1) % q


def _class_codes(q: int, k: int, positions: np.ndarray) -> np.ndarray:
    """Codes of the classes of AG(k,q) at positions in class order.  The
    normalized functionals (first nonzero coefficient 1) with m entries
    after the 1 are the codes [q^m, 2 q^m), so class order is code order,
    and they follow the (q^m - 1)/(q - 1) classes with fewer entries."""
    starts = np.array([functional_count(q, m) for m in range(k)])
    m = np.searchsorted(starts, positions, side="right") - 1
    return positions - starts[m] + q ** m


#: projective classes per block of _class_blocks
_CHUNK = 512


def _class_blocks(q: int, k: int, size: Optional[int] = None,
                  first: int = 0) -> Iterator[np.ndarray]:
    """Class codes of AG(k,q) from position first on, in blocks of size
    classes, _CHUNK when none is given, each built when asked."""
    c, size = functional_count(q, k), size or _CHUNK
    for lo in range(first, c, size):
        yield _class_codes(q, k, np.arange(lo, min(lo + size, c)))


def functional_values(gf: GF, fs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Values of the linear forms of codes fs (b,) at the points pts (n, k),
    as a (b, n) array of element indices."""
    fs = _digits(fs, gf.q, pts.shape[1])
    if gf.m == 1:
        return (fs @ pts.T) % gf.p
    # in place: a block can hold _CHUNK x n values
    add = gf.add_table.ravel()
    vals = np.zeros((fs.shape[0], pts.shape[0]), dtype=np.int64)
    for j in range(fs.shape[1]):
        vals *= gf.q
        vals += gf.mul_table[fs[:, j, None], pts[None, :, j]]
        vals = add.take(vals)
    return vals


def ranks(gf: GF, stacks: np.ndarray) -> np.ndarray:
    """Rank over GF(q) of each matrix in a (C, R, k) stack of element
    indices, by batched row reduction.

    Step j takes as pivot the first row of each matrix with a nonzero
    entry in column j, scales it to 1, and subtracts from every row, the
    pivot row included, the multiple of it that clears column j.  The
    pivot row becomes zero, so it is never chosen again, and the rank is
    the number of steps that found a pivot.  Column j is never read
    again, so only the columns after it are updated.
    """
    a = np.array(stacks, dtype=np.int64)
    c, r, k = a.shape
    q = gf.q
    add, mul = gf.add_table.ravel(), gf.mul_table.ravel()
    found = np.zeros(c, dtype=np.int64)
    every = np.arange(c)
    for j in range(k if r else 0):  # argmax needs at least one row
        nonzero = a[:, :, j] != 0
        found += nonzero.any(axis=1)
        piv = nonzero.argmax(axis=1)  # row 0 of a zero column: no change
        scale = gf.inv_table.take(a[every, piv, j])
        prow = mul.take(scale[:, None] * q + a[every, piv, j + 1:])
        coef = gf.neg_table.take(a[:, :, j])
        a[:, :, j + 1:] = add.take(
            a[:, :, j + 1:] * q
            + mul.take(coef[:, :, None] * q + prow[:, None, :]))
    return found


def _bit_planes(q: int, digits: np.ndarray) -> list[np.ndarray]:
    """The bit planes of element indices, q <= 4, as bool arrays of their
    shape: the index itself at q = 2, index == 1 and index == 2 at q = 3,
    and the two bits of the index (the coefficients of 1 and x) at q = 4.
    In every case the index is the sum of the planes' bits, plane p's
    weighted by 1 << p.  digits may be any integers whose residues mod q
    are the indices (at q = 2 and 4 the low bits are the residue's)."""
    if q == 3:
        digits = digits % 3
        return [digits == 1, digits == 2]
    return [(digits & (1 << b)).astype(bool)
            for b in range((q - 1).bit_length())]


def _shifted(q: int, codes: np.ndarray, e) -> np.ndarray:
    """codes // q^e, q <= 4, whose residues mod q are the digits e places
    before the last: a shift at q = 2 and 4, where digits are bit fields."""
    return codes // 3 ** e if q == 3 else codes >> (q.bit_length() - 1) * e


def _masks(q: int, k: int, codes: np.ndarray) -> list[np.ndarray]:
    """The :func:`_bit_planes` of the points of codes (n,), q <= 4, as
    (k, w) uint64 masks, w = max(1, ceil(n / 64)): bit i of word j at
    [l, j] holds that plane's bit of coordinate l of point 64j + i; the bits
    past n are zero.  Built one coordinate at a time from codes // q^(k-1-l),
    a shift at q = 2 and 4, so no (n, k) array of digits is."""
    words = max(1, -(-len(codes) // 64))
    out = [np.zeros((k, 8 * words), dtype=np.uint8)
           for _ in range((q - 1).bit_length())]
    for l in range(k):
        # held until the next one replaces it: freed with the planes at
        # once, it let the allocator hand its pages back, and faulting them
        # in again made this loop about 4 times slower at n = 2^16
        high = _shifted(q, codes, k - 1 - l)
        for x, bits in zip(out, _bit_planes(q, high)):
            packed = np.packbits(bits, bitorder="little")
            x[l, : len(packed)] = packed
    return [x.view("<u8") for x in out]


def _gf3_add(xs: list[np.ndarray], ys: list[np.ndarray]) -> list[np.ndarray]:
    """Sum over GF(3) of elements held as (== 1, == 2) bit planes, word by
    word (Boothby and Bradshaw 2009)."""
    (x1, x2), (y1, y2) = xs, ys
    t = (x1 | y2) ^ (x2 | y1)
    return [(x2 | y2) ^ t, (x1 | y1) ^ t]


def _plane_ops(gf: GF) -> tuple[Callable, Callable]:
    """scale(s, xs) and add(xs, ys) over GF(q), q <= 4, on elements held as
    the :func:`_bit_planes` xs and ys of uint64 words, for element indices
    s that broadcast against a plane's trailing axes.

    Scaling by s sends the bits of plane p to plane b when s times the
    element 1 << p has plane b's bit (at q = 2 and 4, where the planes are
    coordinates over GF(2)) or is the value b + 1 (at q = 3, where they
    are value indicators and scaling by 2 swaps them); both are read from
    the field's mul table.  Addition is XOR of the planes at q = 2 and 4,
    and :func:`_gf3_add` at q = 3.
    """
    q = gf.q
    planes = range((q - 1).bit_length())
    lands = ((lambda v, b: v == b + 1) if q == 3
             else (lambda v, b: v >> b & 1 == 1))
    lift = np.array([[[lands(gf.mul(s, 1 << p), b) for b in planes]
                      for p in planes] for s in range(q)])

    def scale(s, xs):
        to = lift[s]  # (..., P, P)
        return [reduce(np.bitwise_xor, (x * to[..., p, b]
                                        for p, x in enumerate(xs)))
                for b in planes]

    def add(xs, ys):
        return [x ^ y for x, y in zip(xs, ys)]

    return scale, _gf3_add if q == 3 else add


def _mask_ranks(gf: GF, planes: list[np.ndarray],
                ops: tuple[Callable, Callable]) -> np.ndarray:
    """Rank over GF(q), q <= 4, of each matrix in a stack held column by
    column as bit masks: the :func:`_bit_planes` of the stack, each a
    (k, w, C) uint64 array whose bit i of word j at [l, j, c] holds that
    plane's bit of the entry in row 64j + i, column l of matrix c.  Column
    l of every matrix, and the columns after it, are contiguous.

    Step j takes as pivot the lowest row where column j is nonzero and
    adds to every later column the multiple of column j that clears that
    row's entry: column j itself where the entry is set at q = 2, an XOR,
    and column j scaled by -entry / pivot entry, by ops, the
    :func:`_plane_ops` of gf, at q = 3 and 4.  The rank is the number of
    steps that found a pivot.
    """
    cols = [np.array(p, dtype=np.uint64) for p in planes]
    k, w, c = cols[0].shape
    scale, add = ops
    found = np.zeros(c, dtype=np.int64)
    every = np.arange(c)
    for j in range(k):
        col = [x[j] for x in cols]  # (w, C)
        nonzero = reduce(np.bitwise_or, col)
        # the first nonzero word of each column and its lowest set bit
        at = ((nonzero != 0).argmax(axis=0), every) if w > 1 else (0,)
        low = nonzero[at]
        piv = low & -low
        found += low != 0
        rest = [x[j + 1:] for x in cols]  # (k - j - 1, w, C) views
        # the pivot row's bits of the later columns, (k - j - 1, 1, C)
        on = [((x[(slice(None),) + at] & piv) != 0)[:, None] for x in rest]
        if gf.q == 2:
            rest[0] ^= col[0] * on[0]
            continue
        entry = sum(o << b for b, o in enumerate(on))
        pivot = sum(((x[at] & piv) != 0) << b for b, x in enumerate(col))
        coef = gf.mul_table[gf.neg_table[entry], gf.inv_table[pivot]]
        for x, y in zip(rest, add(rest, scale(coef, col))):
            x[...] = y
    return found


def _zero_ranks(gf: GF, k: int, masks: list[np.ndarray], fs: np.ndarray,
                ops: tuple[Callable, Callable]) -> np.ndarray:
    """Rank over GF(q), q <= 4, of the zeros of each class of codes fs (C,)
    among the points of masks, :func:`_masks` or their first words, by
    :func:`_mask_ranks` with ops.  A class's values are summed coordinate
    by coordinate in the planes, and column l of its matrix is its zero
    mask ANDed with coordinate l: O(C k w) words.  Every class vanishes on
    the bits past the points, but they are zero rows of its matrix."""
    scale, add = ops
    # f_l x_l at [l, word, class], the terms of each class's values
    terms = scale(_digits(fs, gf.q, k).T[:, None], [x[..., None]
                                                      for x in masks])
    value = reduce(add, ([x[l] for x in terms] for l in range(k)))
    zero = ~reduce(np.bitwise_or, value)  # (w, C)
    return _mask_ranks(gf, [x[..., None] & zero for x in masks], ops)


#: words of one bit plane of a block of :func:`_mask_route`'s samples,
#: (k, w, C) for C classes: 256 KiB, at which larger blocks stopped
#: saving time on family sets at q <= 4 and peak memory had not risen
_MASK_CELLS = 1 << 15


def _window_words(q: int, k: int) -> int:
    """Words w of the mask route's window, the first 64w points of D in
    :func:`_first_short_class`'s order: the fewest for which a class's
    expected zeros in it, 64w/q, exceed k - 1 by four binomial standard
    deviations."""
    w = 1
    while 64 * w / q - (k - 1) < 4 * math.sqrt(64 * w / q * (1 - 1 / q)):
        w += 1
    return w


def _block_size(q: int, k: int) -> int:
    """Classes per block of :func:`_first_short_class`: at q <= 4 as many
    as fit _MASK_CELLS words of a (k, w, C) plane of the mask route's
    samples, and _CHUNK above."""
    if q > 4:
        return _CHUNK
    return max(1, _MASK_CELLS // (k * _window_words(q, k)))


def _mask_route(gf: GF, k: int, codes: np.ndarray):
    """The (sample, exact) of :func:`_first_short_class` at q <= 4, both
    ranked by :func:`_zero_ranks` on the masks of codes (n,), built once:
    the ranks of the zeros of classes of codes fs (C,) in the window, the
    masks' first w words (w from :func:`_window_words`), and the rank of
    one class's zeros among all of codes."""
    ops = _plane_ops(gf)
    masks = _masks(gf.q, k, codes)
    window = [x[:, :_window_words(gf.q, k)] for x in masks]
    return (lambda fs: _zero_ranks(gf, k, window, fs, ops),
            lambda f: _zero_ranks(gf, k, masks, f[None], ops)[0])


def _table_route(gf: GF, k: int, codes: np.ndarray):
    """The (sample, exact) of :func:`_first_short_class` at q >= 5, both
    ranked by :func:`ranks` on the digits of codes (n,): the rank of each
    class of codes fs (C,) on its first k + 8 zeros among the first
    2q(k + 8) points, and the rank of one class's zeros among all of
    codes."""
    pts = _digits(codes, gf.q, k)
    # such a prefix gives each hyperplane about 2(k+8) of its points, and
    # k+8 random points of a hyperplane span it with probability about
    # 1 - q^-9
    rows = k + 8
    prefix = pts[: 2 * gf.q * rows]

    def sample(fs):
        vals = functional_values(gf, fs, prefix)
        # each class's first `rows` points in the prefix, zero-padded
        idx = np.argsort(vals != 0, axis=1, kind="stable")[:, :rows]
        on = np.take_along_axis(vals == 0, idx, axis=1)
        return ranks(gf, pts[idx] * on[..., None])

    def exact(f):
        plane = pts[functional_values(gf, f[None], pts)[0] == 0]
        return ranks(gf, plane[None])[0]

    return sample, exact


def _level_window(q: int, k: int,
                  codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The window of :func:`_echelon_certificate`: the first 64 points of
    codes (n,) at each trailing level l, as (k, 64) codes with the origin
    in the empty slots, and the (k, 64) mask of the filled ones.  A point
    is at level l when x_(l+1) is its last nonzero coordinate: its code has
    k - 1 - l trailing zero digits, counted from its lowest set bit where
    q = 2^b and one power of q at a time above."""
    if q & (q - 1) == 0:
        zeros = np.bitwise_count((codes & -codes) - 1) // (q.bit_length() - 1)
    else:
        zeros = np.zeros(len(codes), dtype=np.uint8)
        at, power = np.arange(len(codes)), 1
        while len(at):  # codes below q^k: at most k - 1 rounds
            power *= q
            at = at[codes[at] % power == 0]
            zeros[at] += 1
    level = (k - 1 - zeros).astype(np.uint8)
    order = np.argsort(level, kind="stable")
    counts = np.bincount(level, minlength=k)
    first = np.cumsum(counts) - counts
    keep = np.arange(len(codes)) - first[level[order]] < 64
    present = np.arange(64) < counts[:, None]
    window = np.zeros((k, 64), dtype=np.int64)
    window[present] = codes[order[keep]]
    return window, present


def _mask_levels(gf: GF, k: int, window: np.ndarray, present: np.ndarray,
                 lead: list[np.ndarray]):
    """The (parents, top) of :func:`_echelon_certificate` at q <= 4, on the
    :func:`_bit_planes` of the window, one uint64 word per level and
    coordinate.  Each certified class carries its values at the window's
    points of every level from its depth on, and its q children take them
    plus t x_(j+1) by one :func:`_plane_ops` addition a word: their values
    at level j give their zeros there, and the certified children carry
    the rest down.  top(fs, rows) does the same at level k - 1 for the
    classes of codes fs whose parents are at rows."""
    q = gf.q
    scale, add = _plane_ops(gf)
    # xs[b][level, l]: plane b of coordinate l at that level's points
    high = _shifted(q, window[:, None], np.arange(k - 1, -1, -1)[:, None])
    xs = [np.packbits(x, axis=-1, bitorder="little").view("<u8")[..., 0]
          for x in _bit_planes(q, high)]
    on = np.packbits(present, axis=-1, bitorder="little").view("<u8")[:, 0]
    ts = np.arange(q)[:, None]
    terms = scale(ts[..., None], xs)  # t x_l at [t, level, l]
    # the certified classes of depth j, in no fixed order, and their
    # values at the levels from j on, [level, class]
    fs = np.zeros(0, dtype=np.int64)
    values = [np.zeros((k, 0), dtype=np.uint64) for _ in xs]
    for j in range(k - 1):
        # the children's values at levels j..k-1, (k - j, q, c)
        child = add([v[:, None] for v in values],
                    [t[:, j:, j].T[..., None] for t in terms])
        # a zero at level j: a filled slot where every plane is 0
        keep = (reduce(np.bitwise_or, [y[0] for y in child]) & on[j]
                != on[j]).ravel()
        fs = np.concatenate([lead[j], np.compress(keep, fs * q + ts)])
        values = [np.concatenate(
            [x[j + 1:, j, None][:, : len(lead[j])],
             np.compress(keep, y[1:].reshape(k - 1 - j, -1), axis=1)],
            axis=1) for x, y in zip(xs, child)]
    order = np.argsort(fs)
    values = [v[0, order] for v in values]

    def top(codes, rows):
        last = add([v[rows] for v in values],
                   [t[codes % q, k - 1, k - 1] for t in terms])
        return reduce(np.bitwise_or, last) & on[k - 1] != on[k - 1]

    return fs[order], top


def _table_levels(gf: GF, k: int, window: np.ndarray, present: np.ndarray,
                   lead: list[np.ndarray]):
    """The (parents, top) of :func:`_echelon_certificate` at q >= 5: the
    children of the certified classes of each depth j are evaluated by
    :func:`functional_values` on the window's points at level j, in blocks
    of _CHUNK classes, and top(fs, rows) evaluates the classes of codes fs
    at level k - 1."""
    q = gf.q
    pts = [_digits(w[p], q, k)[:, : j + 1]
           for j, (w, p) in enumerate(zip(window, present))]

    def zero(j, fs):
        return (functional_values(gf, fs, pts[j]) == 0).any(axis=1)

    fs = np.zeros(0, dtype=np.int64)
    for j in range(k - 1):
        kids = (fs[:, None] * q + np.arange(q)).ravel()
        fs = np.concatenate([lead[j]] + [g[zero(j, g)] for g in np.split(
            kids, range(_CHUNK, len(kids), _CHUNK))])
    return fs, lambda codes, rows: zero(k - 1, codes)


def _echelon_certificate(gf: GF, k: int, codes: np.ndarray) -> Callable:
    """settled(fs): which classes of codes fs (C,) D is proved to span,
    from the window of codes (n,), the first 64 points at each trailing
    level (:func:`_level_window`).

    Let s be the lead of class f, its first nonzero coordinate.  When
    D ∩ ker f holds a point at every level but s - 1, those k - 1 points
    have distinct last nonzero coordinates, so they are independent and
    span ker f.  Every point at a level below s - 1 is a zero of f; above,
    some point of the window at that level must be.  The classes of depth
    j + 1, functionals of x_1..x_(j+1), are the lead class x_(j+1) and
    g + t x_(j+1) for each class g of depth j and t = 0..q-1, in class
    order.  One is certified when it is the lead class and every level
    below j holds a point, or when its parent g is certified and it has a
    zero at level j; so only the children of certified classes are
    evaluated.  With two levels empty no class is certified and the window
    is not read further.  The depths below k are settled here, and depth k
    block by block, by :func:`_mask_levels` at q <= 4 and
    :func:`_table_levels` above, from lead[j], the code of the lead class
    of depth j + 1 when it is certified.  They give the certified classes
    of depth k - 1 (parents) and the zeros at level k - 1 of the classes
    whose parents are among them.
    """
    q = gf.q
    window, present = _level_window(q, k, codes)
    filled = present.any(axis=1)
    if k - filled.sum() > 1:
        return lambda fs: np.zeros(len(fs), dtype=bool)
    # the lead class of depth j + 1 is certified when every level below j
    # holds a point, and lead[j] is then its code
    empty = filled.argmin() if not filled.all() else k
    lead = [np.ones(int(j <= empty), dtype=np.int64) for j in range(k - 1)]
    parents, top = (_mask_levels if q <= 4 else _table_levels)(
        gf, k, window, present, lead)

    def settled(fs):
        out = (fs == 1) & (k - 1 <= empty)
        if len(parents):
            rows = np.minimum(np.searchsorted(parents, fs // q),
                              len(parents) - 1)
            out |= (parents[rows] == fs // q) & top(fs, rows)
        return out

    return settled


def _first_short_class(d: DefiningSet, budget: int) -> Optional[int]:
    """The code of the first class, in class order, whose hyperplane D
    fails to span, or None when D is cutting.

    Blocks of classes are first settled by :func:`_echelon_certificate`,
    which proves most hyperplanes of a spanning set spanned from a window
    of D, drawn in a fixed shuffled order (lex order crowds a hyperplane's
    points onto a few).  The classes it leaves are ranked together on a
    sample of each hyperplane's points, from the same order, and a class
    whose sample falls short of rank k-1 is ranked again on all of its
    points, one class at a time, so memory stays bounded.  q picks one
    route for both ranks, built only when a class reaches it:
    :func:`_mask_route` at q <= 4 and :func:`_table_route` above.  A
    certified class spans and a failing class falls short on every sample,
    so the certificate and the sample decide only how many classes take
    the exact pass, never which class is returned.
    """
    gf, q, k = d.field, d.field.q, d.dim
    check_budget(q, k, len(d), budget)
    codes = d.codes[np.random.default_rng(0).permutation(len(d))]
    settled = _echelon_certificate(gf, k, codes)
    route = None
    for fs in _class_blocks(q, k, _block_size(q, k)):
        fs = fs[~settled(fs)]
        if len(fs):
            sample, exact = route = route or (
                _mask_route if q <= 4 else _table_route)(gf, k, codes)
            for f in fs[sample(fs) < k - 1]:
                if exact(f) < k - 1:
                    return int(f)
    return None


def is_cutting(d: DefiningSet, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff D meets every hyperplane through the origin in a set that
    spans that (k-1)-dimensional hyperplane: iff
    :func:`_first_short_class` finds no class that falls short.

    Most classes of a spanning set are settled without a rank: D holds one
    zero of the class at each trailing level but the lead's, among the
    first 64 points of that level in a fixed shuffled order, and such
    points are triangular (:func:`_echelon_certificate`).  The rest are
    ranked: at q <= 4 on bit masks, first on all of a class's zeros among
    the first 64w points of D in that order; w is the fewest words for
    which a class's expected zeros there, 64w/q, exceed k - 1 by four
    binomial standard deviations, so a class whose hyperplane D spans
    rarely takes the exact pass.  At q >= 5 every rank is a row reduction,
    each class's first on its first k + 8 zeros among the first 2q(k + 8)
    points.
    """
    return _first_short_class(d, budget) is None
