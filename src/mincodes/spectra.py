"""Closed-form lengths, minimum weights, and weight distributions for the
four defining-set families and their tilde lifts.

Weights for Family 1 are always derived as n - Lambda + 1 from the two
solution-count formulas (the printed spectrum expression disagrees with
them in sign; the enumeration oracle confirms n - Lambda + 1).  Equal
weights arising from different formula terms are always aggregated, and
every aggregated entry keeps the symbolic provenance of its terms so a
failing comparison pinpoints the responsible term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import combinat
from .combinat import exact_div, gamma_cap, multinomial, psi
from .code import WeightDistribution, _codewords, _markdown_table
from .field import factor_prime_power
from .pointset import FAMILY_H_MIN, DefiningSet, ParameterError


def _check_params(name: str, q: int, k: int, h: int, h_min: int = 1) -> None:
    if q < 2 or k < 1 or not (h_min <= h <= k):
        raise ParameterError(
            f"{name} requires {h_min} <= h <= k and q >= 2; "
            f"got q={q}, k={k}, h={h}"
        )
    factor_prime_power(q)  # FieldError unless GF(q) exists


@dataclass(frozen=True)
class SpectrumReport:
    """A closed-form weight distribution with symbolic provenance."""

    family: int
    q: int
    k: int
    h: int
    tilde: bool
    n: int
    distribution: WeightDistribution
    provenance: tuple[tuple[int, str], ...]

    @property
    def dim(self) -> int:
        """The code dimension: k, for every family and its lift alike."""
        return self.k

    def to_json_dict(self) -> dict:
        out = self.distribution.to_json_dict(self.n, self.dim)
        out["family"] = self.family
        out["q"], out["k"], out["h"] = self.q, self.k, self.h
        out["tilde"] = self.tilde
        out["provenance"] = [
            {"w": w, "origin": label} for w, label in self.provenance
        ]
        return out

    def to_markdown(self) -> str:
        """Weight table in the layout of the published tables."""
        prov: dict[int, list[str]] = {}
        for w, label in self.provenance:
            prov.setdefault(w, []).append(label)
        return _markdown_table(
            ("Weight i", "B_i", "origin"),
            ((w, c, " = ".join(prov.get(w, ["zero word"])))
             for w, c in self.distribution.entries))


def _aggregate(
    family: int, q: int, k: int, h: int, tilde: bool, n: int,
    terms: list[tuple[int, int, str]],
) -> SpectrumReport:
    counts: dict[int, int] = {0: 1}
    prov: list[tuple[int, str]] = []
    for w, c, label in terms:
        counts[w] = counts.get(w, 0) + c
        prov.append((w, label))
    dist = WeightDistribution.from_counts(counts)
    return SpectrumReport(
        family=family, q=q, k=k, h=h, tilde=tilde, n=n,
        distribution=dist, provenance=tuple(sorted(prov)),
    )


# -- Family 1 ----------------------------------------------------------------

def family1_length(q: int, k: int, h: int) -> int:
    _check_params("family1_length", q, k, h)
    inner = q ** (h + 1) - (q - 1) ** (h + 1) + (-1) ** h * (q - 1)
    if k > h:
        return q ** (k - h - 1) * inner - 1
    return exact_div(inner, q) - 1


def lambda_r_pos(q: int, k: int, h: int) -> int:
    """Hyperplane-intersection size when some coefficient beyond the
    first h coordinates is nonzero; the codeword weight is n - Lambda + 1."""
    if k <= h:
        raise ParameterError("lambda_r_pos requires k > h")
    return q ** (k - h - 1) * (q ** h + psi(h, q) - (q - 1) ** h)


def lambda_r_zero(q: int, k: int, h: int, s: int,
                  parts: tuple[int, ...]) -> int:
    """Hyperplane-intersection size when all nonzero coefficients sit in
    the first h coordinates, taking s of them with value multiset given
    by ``parts`` (composition of s, at most q-1 distinct blocks)."""
    _check_params("lambda_r_zero", q, k, h)
    if not (1 <= s <= h) or sum(parts) != s:
        raise ParameterError(f"parts {parts} must sum to s in 1..h; s={s}")
    if len(parts) > q - 1:
        raise ParameterError(
            f"{len(parts)} distinct nonzero coefficients do not exist "
            f"in GF({q})"
        )
    # the appended h-s block carries no coefficient-distinctness
    # constraint, so the raw recursion is used (A_{...,0} = A_{...})
    a = combinat._A(parts + (h - s,) if s < h else parts, q)
    return (
        q ** (k - 1)
        - (q - 1) ** (h - s) * q ** (k - h) * psi(s, q)
        + q ** (k - h) * a
    )


def family1_distribution(q: int, k: int, h: int,
                         relaxed: bool = False) -> SpectrumReport:
    _check_params("family1_distribution", q, k, h,
                  h_min=1 if relaxed else FAMILY_H_MIN[1])
    n = family1_length(q, k, h)
    terms: list[tuple[int, int, str]] = []
    if k > h:
        w = n - lambda_r_pos(q, k, h) + 1
        terms.append((w, q ** k - q ** h, "r>=1"))
    for s in range(1, h + 1):
        for parts, mult_type in combinat.enumerate_part_multisets(
                s, min(s, q - 1)):
            lam = lambda_r_zero(q, k, h, s, parts)
            count = (
                math.comb(h, s)
                * multinomial(s, parts)
                * multinomial(len(parts), mult_type)
                * math.comb(q - 1, len(parts))
            )
            label = f"r=0, s={s}, partition {{{','.join(map(str, parts))}}}"
            terms.append((n - lam + 1, count, label))
    return _aggregate(1, q, k, h, False, n, terms)


# -- Families 2 and 3: lengths and minimum weights ---------------------------

def family2_length(q: int, k: int, h: int) -> int:
    _check_params("family2_length", q, k, h)
    if h == 1:  # no pair i < j: the product is empty, so no point is in D
        return 0
    # heads with no x_i + x_j = 0; in characteristic 2, x_i + x_j = 0
    # means x_i = x_j, so these are the heads of h distinct elements
    if factor_prime_power(q)[0] == 2:
        avoid = math.perm(q, h)
    else:
        avoid = gamma_cap(h, q) + h * gamma_cap(h - 1, q)
    return q ** (k - h) * (q ** h - avoid) - 1


def family3_length(q: int, k: int, h: int) -> int:
    _check_params("family3_length", q, k, h)
    # heads with no x_i = 0 and no x_i + x_j = 0; in characteristic 2,
    # the heads of h distinct nonzero elements
    if factor_prime_power(q)[0] == 2:
        avoid = math.perm(q - 1, h)
    else:
        avoid = gamma_cap(h, q)
    return q ** (k - h) * (q ** h - avoid) - 1


def family4_length(q: int, k: int, h: int) -> int:
    _check_params("family4_length", q, k, h)
    return q ** (k - h) * (q ** h - (q - 1) ** h) - 1


def min_weight_applies(q: int, h: int, tilde: bool) -> bool:
    """True iff the minimum-weight proposition for families 2 and 3
    covers these parameters: a base set (no tilde lift), h in the proved
    range of both families, and q > 5 of odd characteristic."""
    return (not tilde and h >= max(FAMILY_H_MIN[2], FAMILY_H_MIN[3])
            and q > 5 and factor_prime_power(q)[0] != 2)


def _check_min_weight(family: int, q: int, k: int, h: int) -> None:
    name = f"family{family}_min_weight"
    _check_params(name, q, k, h, h_min=FAMILY_H_MIN[family])
    if not min_weight_applies(q, h, False):
        raise ParameterError(
            f"{name} is only established for q > 5 with odd characteristic"
        )


def _sums(k: int, h: int, r: int) -> list[tuple[int, ...]]:
    """The forms x_i1 + ... + x_ir, i1 < ... < ir <= h, as coefficient
    tuples of length k, in lexicographic order of the indices."""
    return [tuple(int(t in idx) for t in range(k))
            for idx in itertools.combinations(range(h), r)]


def family2_min_weight(q: int, k: int, h: int
                       ) -> tuple[int, list[tuple[int, ...]]]:
    """Minimum weight n - q^(k-1) + 1, achieved exactly by the
    hyperplanes x_i + x_j = 0, 1 <= i < j <= h."""
    _check_min_weight(2, q, k, h)
    return family2_length(q, k, h) - q ** (k - 1) + 1, _sums(k, h, 2)


def family3_min_weight(q: int, k: int, h: int
                       ) -> tuple[int, list[tuple[int, ...]]]:
    """Minimum weight n - q^(k-1) + 1, achieved exactly by the
    hyperplanes x_i = 0 and then x_i + x_j = 0, indices within the
    first h."""
    _check_min_weight(3, q, k, h)
    return (family3_length(q, k, h) - q ** (k - 1) + 1,
            _sums(k, h, 1) + _sums(k, h, 2))


# -- Family 4 ----------------------------------------------------------------

def family4_distribution(q: int, k: int, h: int,
                         relaxed: bool = False) -> SpectrumReport:
    _check_params("family4_distribution", q, k, h,
                  h_min=1 if relaxed else FAMILY_H_MIN[4])
    n = family4_length(q, k, h)
    terms: list[tuple[int, int, str]] = []
    if k > h:
        w = n - q ** (k - 1) + q ** (k - h - 1) * (q - 1) ** h + 1
        terms.append((w, q ** k - q ** h, "w"))
    for s in range(1, h + 1):
        w_s = n - q ** (k - 1) + q ** (k - h) * (q - 1) ** (h - s) \
            * psi(s, q) + 1
        terms.append((w_s, math.comb(h, s) * (q - 1) ** s, f"w_{s}"))
    return _aggregate(4, q, k, h, False, n, terms)


# -- tilde lifts --------------------------------------------------------------

def tilde_transfer(base: WeightDistribution, n: int,
                   q: int) -> WeightDistribution:
    """Distribution of the doubled code C_[D,D]~ from the distribution of
    C_D, for scale-invariant D of size n.

    Every base entry (w, A) contributes (2w, A) and
    (n + (q-2)w/(q-1), (q-1)A); in particular the zero word maps to the
    zero word plus weight n with count q-1.  Equal images are merged.
    """
    if 0 not in base.counts():
        raise ParameterError("tilde_transfer needs the base zero word")
    if n % (q - 1):
        raise ParameterError(
            f"base length {n} not divisible by q-1: D cannot be "
            "scale-invariant"
        )
    counts: dict[int, int] = {}
    for w, a in base.entries:
        if w % (q - 1):
            raise ParameterError(
                f"base weight {w} not divisible by q-1: base is not the "
                "distribution of a scale-invariant defining set"
            )
        counts[2 * w] = counts.get(2 * w, 0) + a
        lifted = n + exact_div((q - 2) * w, q - 1)
        counts[lifted] = counts.get(lifted, 0) + (q - 1) * a
    return WeightDistribution.from_counts(counts)


def _tilde_report(base: SpectrumReport) -> SpectrumReport:
    q, n = base.q, base.n
    dist = tilde_transfer(base.distribution, n, q)
    prov: list[tuple[int, str]] = [(0, "zero word"), (n, "n (base zero word)")]
    for w, label in base.provenance:
        prov.append((2 * w, f"2*({label})"))
        prov.append((n + (q - 2) * w // (q - 1), f"n+(q-2)/(q-1)*({label})"))
    return replace(
        base, k=base.k + 1, tilde=True, n=2 * n, distribution=dist,
        provenance=tuple(sorted(set(prov))),
    )


def family4_tilde_distribution(q: int, k: int, h: int,
                               relaxed: bool = False) -> SpectrumReport:
    """Distribution of the [2n, k+1, n] code lifted from family 4."""
    return _tilde_report(family4_distribution(q, k, h, relaxed=relaxed))


def family1_tilde_distribution(q: int, k: int, h: int,
                               relaxed: bool = False) -> SpectrumReport:
    """Distribution of the doubled code lifted from family 1, with
    collisions aggregated unconditionally."""
    return _tilde_report(family1_distribution(q, k, h, relaxed=relaxed))


# -- dispatch helpers ---------------------------------------------------------

LENGTHS = {
    1: family1_length,
    2: family2_length,
    3: family3_length,
    4: family4_length,
}

#: the families with a closed-form weight distribution
DISTRIBUTIONS = {
    1: family1_distribution,
    4: family4_distribution,
}


def closed_form_report(family: int, q: int, k: int, h: int,
                       tilde: bool = False,
                       relaxed: bool = False) -> SpectrumReport:
    """Closed-form SpectrumReport, available for families 1 and 4 (and
    their tilde lifts); raises ParameterError otherwise."""
    if family not in DISTRIBUTIONS:
        raise ParameterError(
            f"no closed-form weight distribution for family {family}"
            f"{' tilde' if tilde else ''}"
        )
    report = DISTRIBUTIONS[family](q, k, h, relaxed=relaxed)
    return _tilde_report(report) if tilde else report


def oracle_failure(family: int, q: int, k: int, h: int, tilde: bool,
                   d: DefiningSet, oracle: WeightDistribution,
                   report: Optional[SpectrumReport] = None) -> Optional[str]:
    """The first failure, or None, of these checks of the formulas against
    C_D and its enumerated distribution: the length (doubled for a tilde
    lift), the count q^dim, the closed form when a report is passed, and,
    where :func:`min_weight_applies`, the family-2/3 w_min, reached by
    every witness hyperplane and by no other class."""
    n = LENGTHS[family](q, k, h) * (2 if tilde else 1)
    if n != len(d):
        return f"length formula {n} != constructed {len(d)}"
    if oracle.total != q ** d.dim:
        return f"oracle total {oracle.total} != q^dim {q ** d.dim}"
    if report is not None and report.distribution.entries != oracle.entries:
        return (f"formula {report.distribution.entries} != "
                f"oracle {oracle.entries}")
    if family not in (2, 3) or not min_weight_applies(q, h, tilde):
        return None
    min_fn = family2_min_weight if family == 2 else family3_min_weight
    w_min, witnesses = min_fn(q, k, h)
    if w_min != oracle.min_weight:
        return f"min weight formula {w_min} != oracle {oracle.min_weight}"
    weights = np.count_nonzero(_codewords(d, witnesses), axis=1)
    for f, w in zip(witnesses, weights.tolist()):
        if w != w_min:
            return f"witness {f} misses minimum weight"
    if oracle.counts()[w_min] != (q - 1) * len(witnesses):
        return "non-witness hyperplane reaches the minimum"
    return None
