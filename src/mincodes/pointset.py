"""Defining sets in AG(k,q): the four families, the tilde join, and the
scale-invariance / cutting predicates.

Points are tuples of element indices.  Family constructors emit points
in canonical lexicographic order so every downstream artifact (codeword
layout, serialized files, fixtures) is bit-stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

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
    AG(k,q) for n points, costing classes * max(n, 1), is over budget,
    and ParameterError when the budget is negative."""
    if budget < 0:
        raise ParameterError(f"budget must be non-negative, got {budget}")
    cost = functional_count(q, k) * max(n, 1)
    if cost > budget:
        raise BudgetExceeded(
            f"enumeration needs {cost} field operations, budget is {budget}",
            required=cost,
        )


@dataclass(frozen=True)
class DefiningSet:
    """A set of distinct nonzero points of AG(k,q), in a fixed order."""

    field: GF
    dim: int
    points: tuple[tuple[int, ...], ...]
    family: Optional[str] = None

    def __post_init__(self):
        # set operations, not a per-point loop: every family build and
        # tilde join runs these checks
        if set(map(len, self.points)) - {self.dim}:
            bad = next(pt for pt in self.points if len(pt) != self.dim)
            raise ParameterError(f"point {bad} has wrong length")
        distinct = set(self.points)
        if (0,) * self.dim in distinct:
            raise ParameterError("defining sets exclude the origin")
        elements = set(range(self.field.q))
        if not elements.issuperset(itertools.chain.from_iterable(distinct)):
            bad = min(set(itertools.chain.from_iterable(distinct)) - elements)
            raise ParameterError(
                f"coordinate {bad} is not an element of GF({self.field.q})")
        if len(distinct) != len(self.points):
            raise ParameterError("duplicate points in defining set")

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        tag = f", family={self.family}" if self.family else ""
        return (
            f"DefiningSet(q={self.field.q}, k={self.dim}, "
            f"n={len(self.points)}{tag})"
        )

    # -- text serialization (header "q k n", one point per line) -----------

    def to_text(self) -> str:
        lines = [f"{self.field.q} {self.dim} {len(self.points)}"]
        lines.extend(" ".join(str(x) for x in pt) for pt in self.points)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DefiningSet":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        q, k, n = (int(tok) for tok in lines[0].split())
        pts = tuple(tuple(int(tok) for tok in ln.split()) for ln in lines[1:])
        if len(pts) != n:
            raise ParameterError(f"expected {n} points, found {len(pts)}")
        return cls(field=field_of_order(q), dim=k, points=pts)


def _check_range(name: str, h: int, k: int, h_min: int, relaxed: bool) -> None:
    if k < 1 or h < 1 or h > k:
        raise ParameterError(f"{name} requires 1 <= h <= k; got h={h}, k={k}")
    if h < h_min and not relaxed:
        raise ParameterError(
            f"{name} requires {h_min} <= h <= k (pass relaxed=True to "
            f"explore outside this range); got h={h}"
        )


def _enumerate(
    gf: GF,
    k: int,
    h: int,
    prefix_in: Callable[[tuple[int, ...]], bool],
    tag: str,
) -> DefiningSet:
    """All nonzero points whose first h coordinates satisfy a predicate."""
    q = gf.q
    if q ** k > DEFAULT_POINT_CAP:
        raise BudgetExceeded(
            f"AG({k},{q}) has {q ** k} points, above the cap "
            f"{DEFAULT_POINT_CAP}",
            required=q ** k,
        )
    points = []
    for head in itertools.product(range(q), repeat=h):
        if not prefix_in(head):
            continue
        for tail in itertools.product(range(q), repeat=k - h):
            pt = head + tail
            if any(pt):
                points.append(pt)
    points.sort()
    return DefiningSet(field=gf, dim=k, points=tuple(points), family=tag)


def family1(gf: GF, k: int, h: int, relaxed: bool = False) -> DefiningSet:
    """Points with (x_1 + ... + x_h) * x_1 * ... * x_h = 0."""
    _check_range("family1", h, k, 4, relaxed)

    def cond(head: tuple[int, ...]) -> bool:
        if 0 in head:
            return True
        total = 0
        for x in head:
            total = gf.add(total, x)
        return total == 0

    return _enumerate(gf, k, h, cond, f"F1(h={h})")


def family2(gf: GF, k: int, h: int, relaxed: bool = False) -> DefiningSet:
    """Points with prod_{i<j<=h} (x_i + x_j) = 0."""
    _check_range("family2", h, k, 3, relaxed)

    def cond(head: tuple[int, ...]) -> bool:
        for i in range(len(head)):
            for j in range(i + 1, len(head)):
                if gf.add(head[i], head[j]) == 0:
                    return True
        return False

    return _enumerate(gf, k, h, cond, f"F2(h={h})")


def family3(gf: GF, k: int, h: int, relaxed: bool = False) -> DefiningSet:
    """Points with prod x_i * prod_{i<j<=h} (x_i + x_j) = 0."""
    _check_range("family3", h, k, 3, relaxed)

    def cond(head: tuple[int, ...]) -> bool:
        if 0 in head:
            return True
        for i in range(len(head)):
            for j in range(i + 1, len(head)):
                if gf.add(head[i], head[j]) == 0:
                    return True
        return False

    return _enumerate(gf, k, h, cond, f"F3(h={h})")


def family4(gf: GF, k: int, h: int, relaxed: bool = False) -> DefiningSet:
    """Points with x_1 * ... * x_h = 0."""
    _check_range("family4", h, k, 3, relaxed)
    return _enumerate(gf, k, h, lambda head: 0 in head, f"F4(h={h})")


FAMILIES: dict[int, Callable[..., DefiningSet]] = {
    1: family1, 2: family2, 3: family3, 4: family4,
}

#: smallest h each family is proved for
FAMILY_H_MIN = {1: 4, 2: 3, 3: 3, 4: 3}


def is_scale_invariant(d: DefiningSet) -> bool:
    """True iff a*D = D for every nonzero scalar a, i.e. D is a union of
    punctured lines through the origin."""
    gf = d.field
    pts = set(d.points)
    for a in gf.nonzero_elements():
        for pt in d.points:
            if tuple(gf.mul(a, x) for x in pt) not in pts:
                return False
    return True


def tilde_join(d1: DefiningSet, d2: DefiningSet) -> DefiningSet:
    """Lift D1 to height 1 and D2 to height 0 inside AG(k+1,q).

    Coordinate layout: the (x,0) block for x in D2 first, then the (x,1)
    block for x in D1, each in the stored order of its source set.
    """
    if d1.field != d2.field or d1.dim != d2.dim:
        raise ParameterError("tilde_join requires matching ambient spaces")
    if not is_scale_invariant(d1):
        raise ParameterError("tilde_join requires a scale-invariant D1")
    points = tuple(pt + (0,) for pt in d2.points) + tuple(
        pt + (1,) for pt in d1.points
    )
    tag = f"[{d1.family or '?'},{d2.family or '?'}]~"
    return DefiningSet(field=d1.field, dim=d1.dim + 1, points=points,
                       family=tag)


def rank(gf: GF, rows: Iterable[Sequence[int]], stop_at: Optional[int] = None) -> int:
    """Rank over GF(q) by incremental row reduction; optional early stop."""
    basis: list[tuple[int, list[int]]] = []  # (pivot position, reduced row)
    r = 0
    for row in rows:
        row = list(row)
        for pivot, base in basis:
            c = row[pivot]
            if c:
                row = [gf.sub(x, gf.mul(c, b)) for x, b in zip(row, base)]
        for pivot, x in enumerate(row):
            if x:
                inv = gf.inv(x)
                row = [gf.mul(inv, y) for y in row]
                basis.append((pivot, row))
                r += 1
                break
        if stop_at is not None and r >= stop_at:
            return r
    return r


def is_cutting(d: DefiningSet, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff D meets every hyperplane through the origin in a set that
    spans that (k-1)-dimensional hyperplane."""
    import numpy as np

    from .code import _class_values  # local import: no cycle at load

    gf, k = d.field, d.dim
    check_budget(gf.q, k, len(d), budget)
    if len(d) == 0:
        return k <= 1
    # shuffled scan order: lex order ramps rank slowly (long zero-prefix
    # runs), a random permutation hits a spanning subset within ~k rows,
    # so the blockwise scan below almost never needs a second block
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(d))
    block = max(4 * k, 64)
    gf2 = gf.q == 2
    if gf2:
        masks = [
            sum(1 << j for j, x in enumerate(pt) if x) for pt in d.points
        ]

    def spans_hyperplane(row: "np.ndarray") -> bool:
        r = 0
        basis2 = [0] * (k + 1)
        basis: list[tuple[int, list[int]]] = []
        for start in range(0, len(perm), block):
            cols = perm[start : start + block]
            for i in cols[row[cols] == 0]:
                if gf2:
                    m = masks[int(i)]
                    while m:
                        b = m.bit_length() - 1
                        if basis2[b]:
                            m ^= basis2[b]
                        else:
                            basis2[b] = m
                            r += 1
                            break
                else:
                    vec = list(d.points[int(i)])
                    for pivot, base in basis:
                        c = vec[pivot]
                        if c:
                            vec = [gf.sub(x, gf.mul(c, b))
                                   for x, b in zip(vec, base)]
                    for pivot, x in enumerate(vec):
                        if x:
                            inv = gf.inv(x)
                            basis.append(
                                (pivot, [gf.mul(inv, y) for y in vec]))
                            r += 1
                            break
                if r >= k - 1:
                    return True
        return False

    for _, vals in _class_values(d):
        for row in vals:
            if not spans_hyperplane(row):
                return False
    return True
