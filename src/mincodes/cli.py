"""Batch front-end: build families, emit distributions, verify formulas
against the enumeration oracle, and report minimality.

Exit codes: 0 success, 1 formula/oracle mismatch, 2 invalid parameters,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
from typing import Optional, Sequence

from . import spectra
from .code import (
    DEFAULT_BUDGET,
    _markdown_table,
    dimension,
    summarize,
    weight_distribution_bruteforce,
)
from .field import FieldError, field_of_order
from .pointset import (
    FAMILIES,
    FAMILY_H_MIN,
    BudgetExceeded,
    DefiningSet,
    ParameterError,
    check_budget,
    tilde_join,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARAMS = 2
EXIT_BUDGET = 3

BUDGET_ENV = "MINCODES_BUDGET"


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(
            f"{BUDGET_ENV} must be an integer, got {raw!r}") from None


def build_defining_set(family: int, q: int, k: int, h: int,
                       tilde: bool = False,
                       relaxed: bool = False) -> DefiningSet:
    gf = field_of_order(q)
    d = FAMILIES[family](gf, k, h, relaxed=relaxed)
    if tilde:
        d = tilde_join(d, d)
    return d


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(
                f"cannot write --output {output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def cmd_weights(args: argparse.Namespace) -> int:
    family, q, k, h = args.family, args.q, args.k, args.h
    report = None
    oracle = None
    if args.method in ("formula", "both"):
        if family in spectra.DISTRIBUTIONS:
            report = spectra.closed_form_report(
                family, q, k, h, tilde=args.tilde, relaxed=args.relaxed
            )
        elif args.method == "formula":
            raise ParameterError(
                f"family {family} has no closed-form weight distribution; "
                "use --method enumerate or both"
            )
    if args.method in ("enumerate", "both"):
        d = build_defining_set(family, q, k, h, tilde=args.tilde,
                               relaxed=args.relaxed)
        oracle = weight_distribution_bruteforce(d, budget=args.budget)

    match: Optional[bool] = None
    if args.method == "both":
        match = spectra.oracle_failure(family, q, k, h, args.tilde, d,
                                       oracle, report) is None

    payload: dict = {}
    if report is not None:
        payload["formula"] = report.to_json_dict()
    if oracle is not None:
        payload["enumerate"] = oracle.to_json_dict(len(d), dimension(d))
    if match is not None:
        payload["match"] = match
        if not match and args.relaxed:
            payload["note"] = "outside paper hypotheses"

    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        dist = oracle if oracle is not None else report.distribution
        text = dist.to_csv()
        if match is not None:
            text += f"match,{str(match).lower()}\n"
        _emit(text, args.output)
    else:  # md
        text = (report.to_markdown() if report is not None
                else _markdown_table(("Weight i", "B_i"), oracle.entries))
        if match is not None:
            text += f"\nmatch: {str(match).lower()}\n"
        _emit(text, args.output)

    if match is False and not args.relaxed:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_minimal(args: argparse.Namespace) -> int:
    d = build_defining_set(args.family, args.q, args.k, args.h,
                           tilde=args.tilde, relaxed=args.relaxed)
    summary = summarize(d, budget=args.budget)
    _emit(json.dumps(summary.to_json_dict(), indent=2) + "\n", args.output)
    return EXIT_OK


def _sweep_rows(qs: Sequence[int], max_points: int):
    """Canonical parameter order for the verification sweep."""
    for family in FAMILIES:
        for tilde in ((False, True) if family in spectra.DISTRIBUTIONS
                      else (False,)):
            for q in qs:
                k = FAMILY_H_MIN[family]
                while q ** k <= max_points:
                    for h in range(FAMILY_H_MIN[family], k + 1):
                        yield family, tilde, q, k, h
                    k += 1


def verify_one(family: int, q: int, k: int, h: int, tilde: bool,
               budget: int, _cache: Optional[dict] = None) -> tuple[str, str]:
    """Run the formula-vs-oracle check for one parameter tuple.

    Returns (status, detail) with status PASS, FAIL, or SKIP.
    """
    n = spectra.LENGTHS[family](q, k, h) * (2 if tilde else 1)
    dim = k + 1 if tilde else k
    try:
        check_budget(q, dim, n, budget)
    except BudgetExceeded as exc:
        return "SKIP", f"cost {exc.required} over budget {budget}"
    cache = _cache if _cache is not None else {}
    d = build_defining_set(family, q, k, h, tilde=tilde)
    okey = (q, d.dim, d.codes.tobytes())
    # one lookup: hashing the key hashes every code of D
    oracle = cache.get(okey)
    if oracle is None:
        oracle = cache[okey] = weight_distribution_bruteforce(d, budget=budget)
    report = (spectra.closed_form_report(family, q, k, h, tilde=tilde)
              if family in spectra.DISTRIBUTIONS else None)
    failure = spectra.oracle_failure(family, q, k, h, tilde, d, oracle,
                                     report)
    if failure is not None:
        return "FAIL", failure
    if report is not None:
        return "PASS", f"n={n}, distribution matches"
    # families 2/3: the minimum-weight proposition when it applies
    if spectra.min_weight_applies(q, h, tilde):
        return "PASS", f"n={n}, min weight {oracle.min_weight} exact"
    return "PASS", f"n={n}"


def cmd_verify_all(args: argparse.Namespace) -> int:
    try:
        qs = [int(tok) for tok in args.qs.split(",")]
    except ValueError:
        raise ParameterError(
            f"--qs takes comma-separated integers, got {args.qs!r}") from None
    if len(set(qs)) < len(qs):  # each row would run and count twice
        raise ParameterError(f"--qs repeats a field order: {args.qs!r}")
    if args.max_points < 1:
        raise ParameterError(
            f"--max-points must be at least 1, got {args.max_points}")
    for q in qs:  # refuse a bad order before the sweep, not midway
        field_of_order(q)
    cache: dict = {}
    lines = []
    tally: collections.Counter = collections.Counter()
    for family, tilde, q, k, h in _sweep_rows(qs, args.max_points):
        try:
            status, detail = verify_one(family, q, k, h, tilde,
                                         args.budget, cache)
        except BudgetExceeded as exc:
            status, detail = "SKIP", str(exc)
        tally[status] += 1
        tag = f"F{family}{'~' if tilde else ''}"
        lines.append(f"{tag:4} q={q:<3} k={k:<3} h={h:<3} {status:4} {detail}")
    lines.append(f"{tally['PASS']} PASS, {tally['FAIL']} FAIL, "
                 f"{tally['SKIP']} SKIP")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_MISMATCH if tally["FAIL"] else EXIT_OK


def _add_common(sub: argparse.ArgumentParser, with_params: bool) -> None:
    if with_params:
        sub.add_argument("--family", type=int, required=True,
                         choices=sorted(FAMILIES))
        sub.add_argument("--q", type=int, required=True)
        sub.add_argument("--k", type=int, required=True)
        sub.add_argument("--h", type=int, required=True)
        sub.add_argument("--tilde", action="store_true",
                         help="lift via the tilde join [D,D]~")
        sub.add_argument("--relaxed", action="store_true",
                         help="allow parameters outside the proved ranges")
    sub.add_argument("--budget", type=int, default=None,
                     help="max field-operation count for enumeration")
    sub.add_argument("--output", default=None,
                     help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mincodes",
        description="Minimal-code families from defining sets: "
                    "closed-form weight distributions vs exhaustive "
                    "enumeration.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    w = subs.add_parser("weights", help="emit a weight distribution")
    _add_common(w, with_params=True)
    w.add_argument("--method", choices=("formula", "enumerate", "both"),
                   default="both")
    w.add_argument("--format", choices=("json", "csv", "md"),
                   default="json")
    w.set_defaults(func=cmd_weights)

    m = subs.add_parser("minimal", help="report minimality verdicts")
    _add_common(m, with_params=True)
    m.set_defaults(func=cmd_minimal)

    v = subs.add_parser("verify-all",
                        help="sweep all families, formula vs oracle")
    _add_common(v, with_params=False)
    v.add_argument("--qs", default="2,3,4,5,7",
                   help="comma-separated field orders to sweep")
    v.add_argument("--max-points", type=int, default=100_000,
                   help="largest ambient space size q^k to include")
    v.set_defaults(func=cmd_verify_all)
    return parser


# Built once, at import: the tree depends on constants alone and parsing
# leaves it unchanged, so a process that calls main many times (perfbench's
# large_q runs twelve calls a pass) parses each time instead of paying
# about 0.5 ms to rebuild it.  It holds no answer and no per-call state.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.budget is None:  # read after parsing, so --help always works
            args.budget = default_budget()
        return args.func(args)
    except (ParameterError, FieldError, spectra.combinat.CountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc} (required {exc.required})",
              file=sys.stderr)
        return EXIT_BUDGET


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
