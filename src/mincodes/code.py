"""Codes from defining sets: exact weight enumeration and minimality.

The enumeration oracle walks one functional per projective class (scalar
multiples of a functional permute nothing and rescale every entry, so
weights and supports are class invariants) and multiplies counts by q-1.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .field import GF
from .pointset import (
    DEFAULT_BUDGET,
    DefiningSet,
    ParameterError,
    check_budget,
    functional_count,
    functional_values,
    rank,
)


def projective_functionals(gf: GF, k: int) -> Iterator[tuple[int, ...]]:
    """One representative per hyperplane through the origin (first
    nonzero coefficient normalized to 1), in lexicographic order."""
    q = gf.q
    for lead in range(k - 1, -1, -1):
        for tail in itertools.product(range(q), repeat=k - 1 - lead):
            yield (0,) * lead + (1,) + tail


def codeword(d: DefiningSet, f: Sequence[int]) -> tuple[int, ...]:
    """Evaluate the linear form f on every point of D, in D's order."""
    if len(f) != d.dim:
        raise ParameterError(
            f"functional has length {len(f)}, ambient dimension is {d.dim}"
        )
    gf = d.field
    return tuple(gf.dot(f, pt) for pt in d.points)


def weight(values: Sequence[int]) -> int:
    return sum(1 for v in values if v)


def dimension(d: DefiningSet) -> int:
    """Rank over GF(q) of the matrix whose columns are the points of D."""
    return rank(d.field, d.points, stop_at=d.dim)


@dataclass(frozen=True)
class WeightDistribution:
    """Exact weight -> count map, weights strictly increasing."""

    entries: tuple[tuple[int, int], ...]
    includes_zero_word: bool = True

    @classmethod
    def from_counts(cls, counts: dict[int, int],
                    includes_zero_word: bool = True) -> "WeightDistribution":
        entries = tuple(sorted((w, c) for w, c in counts.items() if c))
        return cls(entries=entries, includes_zero_word=includes_zero_word)

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

    def without_zero(self) -> "WeightDistribution":
        return WeightDistribution(self.nonzero_entries(),
                                  includes_zero_word=False)

    def with_zero(self) -> "WeightDistribution":
        if self.includes_zero_word:
            return self
        return WeightDistribution(((0, 1),) + self.entries,
                                  includes_zero_word=True)

    # -- serialization -------------------------------------------------------

    def to_csv(self) -> str:
        lines = ["weight,count"]
        lines.extend(f"{w},{c}" for w, c in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "WeightDistribution":
        rows = [ln for ln in text.splitlines() if ln.strip()]
        counts = {}
        for ln in rows[1:]:
            w, c = (int(tok) for tok in ln.split(","))
            counts[w] = c
        return cls.from_counts(counts, includes_zero_word=0 in counts)

    def to_json_dict(self, n: int, dim: int) -> dict:
        return {
            "n": n,
            "dim": dim,
            "weights": [{"w": w, "count": c} for w, c in self.entries],
        }

    def to_json(self, n: int, dim: int) -> str:
        return json.dumps(self.to_json_dict(n, dim), indent=2) + "\n"


def _class_values(d: DefiningSet, chunk: int = 512
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (functional block, value matrix block) over projective classes.

    Each value matrix block has one row per functional in the block and
    one column per point of D.
    """
    gf, k = d.field, d.dim
    pts = np.array(d.points, dtype=np.int64).reshape(len(d), k)
    reps = iter(projective_functionals(gf, k))
    while True:
        block = list(itertools.islice(reps, chunk))
        if not block:
            return
        fs = np.array(block, dtype=np.int64)  # (b, k)
        yield fs, functional_values(gf, fs, pts)


def weight_distribution_bruteforce(
    d: DefiningSet, budget: int = DEFAULT_BUDGET
) -> WeightDistribution:
    """Exact distribution over all q^k functionals, zero word included."""
    check_budget(d.field.q, d.dim, len(d), budget)
    q = d.field.q
    if len(d) == 0:
        return WeightDistribution.from_counts({0: q ** d.dim})
    counts: dict[int, int] = {0: 1}
    for _, vals in _class_values(d):
        wts = np.count_nonzero(vals, axis=1)
        for w, c in zip(*np.unique(wts, return_counts=True)):
            w = int(w)
            counts[w] = counts.get(w, 0) + int(c) * (q - 1)
    return WeightDistribution.from_counts(counts)


def ab_check(dist: WeightDistribution, q: int) -> bool:
    """Sufficient minimality criterion: q * w_min > (q-1) * w_max."""
    return q * dist.min_weight > (q - 1) * dist.max_weight


def _pack_supports(vals: np.ndarray, words: int) -> np.ndarray:
    """Bit-pack the nonzero mask of a value block into uint64 rows."""
    mask = (vals != 0)
    packed8 = np.packbits(mask, axis=1)
    padded = np.zeros((mask.shape[0], words * 8), dtype=np.uint8)
    padded[:, : packed8.shape[1]] = packed8
    return padded.view(np.uint64)


@dataclass(frozen=True)
class MinimalityResult:
    minimal: bool
    #: (functional of containing word, functional of contained word)
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __bool__(self) -> bool:
        return self.minimal


def is_minimal_direct(
    d: DefiningSet, budget: int = DEFAULT_BUDGET
) -> MinimalityResult:
    """Exhaustive support-containment check over projective classes.

    Supports are bitsets; containment is a bitwise test, prefiltered by
    a single word and by Hamming weight.  The reported witness is the
    lexicographically smallest violating pair of functionals.
    """
    check_budget(d.field.q, d.dim, len(d), budget)
    gf = d.field
    n = len(d)
    words = max((n + 63) // 64, 1)
    func_blocks = []
    sup_blocks = []
    wts_blocks = []
    for fs, vals in _class_values(d):
        func_blocks.append(fs)
        sup_blocks.append(_pack_supports(vals, words))
        wts_blocks.append(np.count_nonzero(vals, axis=1))
    funcs = np.vstack(func_blocks)
    supports = np.vstack(sup_blocks)
    wts = np.concatenate(wts_blocks)
    c = len(funcs)
    idx = np.arange(c)
    for i in range(c):
        if wts[i] == 0:
            continue
        outer = supports[i]
        # contained candidates: nonzero, lighter or equal, pass word-0 filter
        cand = (wts <= wts[i]) & (wts > 0) & (idx != i)
        cand &= (supports[:, 0] & ~outer[0]) == 0
        hits = np.where(cand)[0]
        if hits.size:
            full = (supports[hits] & ~outer).max(axis=1) == 0
            for j in hits[full]:
                pair = (tuple(map(int, funcs[i])), tuple(map(int, funcs[j])))
                if not _scalar_multiples(d, *pair):
                    return MinimalityResult(False, pair)
    return MinimalityResult(True)


def _scalar_multiples(d: DefiningSet, f1: Sequence[int],
                      f2: Sequence[int]) -> bool:
    """True iff the codewords of f1 and f2 are scalar multiples (can only
    happen across distinct projective classes when dim(C_D) < k)."""
    gf = d.field
    c1 = codeword(d, f1)
    c2 = codeword(d, f2)
    for a in gf.nonzero_elements():
        if all(gf.mul(a, x) == y for x, y in zip(c1, c2)):
            return True
    return False


@dataclass(frozen=True)
class CodeSummary:
    n: int
    dim: int
    d: int
    ab_holds: bool
    minimal: bool
    #: the algorithm behind ``minimal``: always the exhaustive check
    minimality_method: str = "direct"
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

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
    minimality verdict; both passes cost the same, so one budget check
    covers them."""
    dist = weight_distribution_bruteforce(d, budget=budget)
    ab = ab_check(dist, d.field.q)
    dim = dimension(d)
    res = is_minimal_direct(d, budget=budget)
    return CodeSummary(
        n=len(d), dim=dim, d=dist.min_weight, ab_holds=ab,
        minimal=res.minimal, witness=res.witness,
    )
