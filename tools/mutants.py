"""Mutation check: apply each mutant below to a fresh copy of the package
and its tests, run only the tests named for it, and tally the outcomes.

    python tools/mutants.py              # every mutant
    python tools/mutants.py filter mask  # those whose name holds a word

Each mutant replaces one exact anchor, which must occur exactly once in
its file, by a replacement.  It is caught when its tests fail (or run past
TIMEOUT_S) and survives when they pass.  An anchor that is missing or not
unique is an error, so an entry the code has moved away from shows at
once.  Mutants marked equivalent change no answer, with the reason given;
they are expected to survive.  The named tests must pass on the unmutated
copy first.  The exit status is 0 only when every other mutant is caught,
every equivalent one survives and no anchor is missing.

A surviving mutant is answered with a test that catches it, never by
deleting its entry.  Only the standard library is used, and nothing is
written inside the repository.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a mutant whose tests run longer than this (say, a loop that no longer
#: ends) counts as caught
TIMEOUT_S = 600

PS = "tests/test_pointset.py::"
CODE = "tests/test_code.py::"
FIELD = "tests/test_field.py::"
CLI = "tests/test_cli.py::"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    anchor: str
    replacement: str
    tests: tuple[str, ...]
    #: why the mutant changes no answer, when it is equivalent
    equivalent: str = ""


MUTANTS = (
    # -- the mask route at q <= 4: is_cutting and the code dimension --------
    Mutant("gf3-add-planes-swapped", "src/mincodes/pointset.py",
           "return [(x2 | y2) ^ t, (x1 | y1) ^ t]",
           "return [(x1 | y1) ^ t, (x2 | y2) ^ t]",
           (PS + "test_plane_ops_match_the_field_tables",
            PS + "test_mask_ranks_match_the_oracle")),
    Mutant("gf4-scaling-ignores-the-plane", "src/mincodes/pointset.py",
           "lands(gf.mul(s, 1 << p), b)", "lands(gf.mul(s, 1), b)",
           (PS + "test_plane_ops_match_the_field_tables",
            PS + "test_mask_ranks_match_the_oracle")),
    Mutant("first-zero-word-as-pivot-word", "src/mincodes/pointset.py",
           "((nonzero != 0).argmax(axis=0), every)",
           "((nonzero == 0).argmax(axis=0), every)",
           (PS + "test_mask_ranks_match_the_oracle",)),
    Mutant("all-bits-as-pivot", "src/mincodes/pointset.py",
           "piv = low & -low", "piv = low",
           (PS + "test_mask_ranks_match_the_oracle",)),
    Mutant("pivot-inverse-dropped", "src/mincodes/pointset.py",
           "coef = gf.mul_table[gf.neg_table[entry], gf.inv_table[pivot]]",
           "coef = gf.neg_table[entry]",
           (PS + "test_mask_ranks_match_the_oracle",)),
    Mutant("two-sigma-window", "src/mincodes/pointset.py",
           "< 4 * math.sqrt(", "< 2 * math.sqrt(",
           (PS + "test_packed_is_cutting_matches_the_table_kernel",
            PS + "test_mask_stage_matches_the_table_kernel")),
    Mutant("short-threshold-k-2", "src/mincodes/pointset.py",
           "for f in fs[sample(fs) < k - 1]:",
           "for f in fs[sample(fs) < k - 2]:",
           (PS + "test_is_cutting", PS + "test_is_cutting_route",
            PS + "test_is_cutting_matches_the_oracle_on_random_sets")),
    Mutant("block-first-class-returned", "src/mincodes/pointset.py",
           "return int(f)", "return int(fs[0])",
           (CODE + "test_cutting_equals_minimality_on_spanning_sets",
            PS + "test_packed_is_cutting_matches_the_table_kernel")),
    Mutant("values-without-the-last-coordinate", "src/mincodes/pointset.py",
           "for l in range(k)))", "for l in range(k - 1)))",
           (CODE + "test_cutting_equals_minimality_on_spanning_sets",
            PS + "test_mask_stage_matches_the_table_kernel")),
    Mutant("q2-elimination-or-for-xor", "src/mincodes/pointset.py",
           "rest[0] ^= col[0] * on[0]", "rest[0] |= col[0] * on[0]",
           (PS + "test_mask_ranks_match_the_oracle",)),
    Mutant("pivot-row-read-from-word-0", "src/mincodes/pointset.py",
           "on = [((x[(slice(None),) + at] & piv) != 0)",
           "on = [((x[:, 0] & piv) != 0)",
           (PS + "test_mask_ranks_match_the_oracle",)),
    Mutant("zero-mask-of-plane-0-only", "src/mincodes/pointset.py",
           "zero = ~reduce(np.bitwise_or, value)", "zero = ~value[0]",
           (PS + "test_mask_stage_matches_the_table_kernel",)),
    Mutant("block-size-ignores-the-window", "src/mincodes/pointset.py",
           "_MASK_CELLS // (k * _window_words(q, k))", "_MASK_CELLS // k",
           (PS + "test_is_cutting_builds_class_blocks_lazily",
            PS + "test_mask_stage_blocks_do_not_change_ranks")),
    Mutant("exact-pass-on-the-window", "src/mincodes/pointset.py",
           "_zero_ranks(gf, k, masks, f[None], ops)",
           "_zero_ranks(gf, k, window, f[None], ops)",
           (PS + "test_packed_is_cutting_exact_pass",
            PS + "test_packed_is_cutting_second_exact_stage")),
    Mutant("window-one-word-short", "src/mincodes/pointset.py",
           "window = [x[:, :_window_words(gf.q, k)] for x in masks]",
           "window = [x[:, : max(1, _window_words(gf.q, k) - 1)] "
           "for x in masks]",
           (PS + "test_mask_stage_blocks_do_not_change_ranks",)),
    # -- the echelon certificate of is_cutting -------------------------------
    Mutant("certificate-counts-empty-slots", "src/mincodes/pointset.py",
           "reduce(np.bitwise_or, [y[0] for y in child]) & on[j]\n"
           "                != on[j]",
           "reduce(np.bitwise_or, [y[0] for y in child])\n"
           "                != ~np.uint64(0)",
           (PS + "test_echelon_certificate_is_sound",)),
    Mutant("table-certificate-counts-empty-slots", "src/mincodes/pointset.py",
           "pts = [_digits(w[p], q, k)[:, : j + 1]",
           "pts = [_digits(w, q, k)[:, : j + 1]",
           (PS + "test_echelon_certificate_is_sound",)),
    Mutant("lead-class-needs-a-zero-at-its-level", "src/mincodes/pointset.py",
           "np.ones(int(j <= empty), dtype=np.int64)",
           "np.ones(0, dtype=np.int64)",
           (PS + "test_echelon_certificate_is_sound",)),
    Mutant("empty-lower-level-ignored", "src/mincodes/pointset.py",
           "empty = filled.argmin() if not filled.all() else k",
           "empty = k",
           (PS + "test_echelon_certificate_is_sound",)),
    Mutant("two-empty-levels-read", "src/mincodes/pointset.py",
           "if k - filled.sum() > 1:", "if k - filled.sum() > 2:",
           (PS + "test_echelon_certificate_charge_bounds_its_work",)),
    Mutant("children-codes-misaligned-with-values", "src/mincodes/pointset.py",
           "np.compress(keep, fs * q + ts)",
           "np.compress(keep, (fs[:, None] * q + ts.T).ravel())",
           (PS + "test_echelon_certificate_is_sound",)),
    Mutant("top-ignores-the-parent-certificate", "src/mincodes/pointset.py",
           "out |= (parents[rows] == fs // q) & top(fs, rows)",
           "out |= top(fs, rows)",
           (PS + "test_echelon_certificate_is_sound",)),
    Mutant("q3-planes-without-the-residue", "src/mincodes/pointset.py",
           "digits = digits % 3", "digits = digits",
           (CODE + "test_dimension_matches_the_oracle",)),
    Mutant("dimension-drops-a-column", "src/mincodes/code.py",
           "planes = [x[..., None] for x in",
           "planes = [x[1:, :, None] for x in",
           (CODE + "test_dimension_matches_the_oracle",)),
    Mutant("dimension-returns-the-sample-rank", "src/mincodes/code.py",
           "        if rank == k:\n            return rank\n",
           "        return rank\n",
           (CODE + "test_dimension_falls_back_when_the_sample_falls_short",)),
    # -- the level filter and the scan through some classes -------------------
    Mutant("filter-drops-a-level", "src/mincodes/code.py",
           "lv = levels.tolist()", "lv = levels.tolist()[1:]",
           (CODE + "test_level_filter_matches_the_scan_and_the_oracle",
            CODE + "test_level_filter_on_the_large_q_sets")),
    Mutant("filter-allows-q-minus-1-deficits", "src/mincodes/code.py",
           "tops = [t for t in cost if _reaches(t, deficits[t], q)]",
           "tops = [t for t in cost if _reaches(t, deficits[t], q - 1)]",
           (CODE + "test_level_filter_matches_the_scan_and_the_oracle",
            CODE + "test_level_filter_on_the_large_q_sets")),
    Mutant("filter-counts-zero-weights-as-a-level", "src/mincodes/code.py",
           "np.unique(wts[wts > 0], return_counts=True)",
           "np.unique(wts[wts >= 0], return_counts=True)",
           (CODE + "test_level_filter_matches_the_scan_and_the_oracle",
            CODE + "test_line_test_route")),
    Mutant("mandatory-ignores-the-level-as-a-top", "src/mincodes/code.py",
           "above = [t for t in tops if t > level]",
           "above = [t for t in tops if t >= level]",
           (CODE + "test_level_filter_on_the_large_q_sets",)),
    Mutant("scan-skips-lines-of-larger-lead", "src/mincodes/code.py",
           "if through is not None and m and len(vs):",
           "if through is not None and m < 0 and len(vs):",
           (CODE + "test_level_filter_matches_the_scan_and_the_oracle",)),
    Mutant("through-route-when-dearer", "src/mincodes/code.py",
           'cells["through"] = sum(map(size.__getitem__, via)) * (c - 1)',
           'cells["through"] = sum(map(size.__getitem__, via)) * 0',
           (CODE + "test_line_test_route",)),
    # -- the weight transform -------------------------------------------------
    Mutant("perm-as-s-plus-fx", "src/mincodes/code.py",
           "perm = gf.add_table[np.arange(q), gf.neg_table[gf.mul_table]"
           "[:, :, None]]",
           "perm = gf.add_table[np.arange(q), gf.mul_table[:, :, None]]",
           (CODE + "test_hyperplane_counts_match_a_pure_python_count",),
           equivalent="row 0 of the table then counts -f.x = 0, the same "
                      "set as f.x = 0"),
    Mutant("perm-indices-swapped", "src/mincodes/code.py",
           "acc += t[perm[f, x], x]", "acc += t[perm[x, f], x]",
           (CODE + "test_hyperplane_counts_match_a_pure_python_count",),
           equivalent="perm[f, x] depends on f * x only, and "
                      "multiplication commutes"),
    # -- the incidence count and the transform bypass ------------------------
    Mutant("incidence-vanishing-points-dropped", "src/mincodes/code.py",
           "        lead += mult[(first == k) & (pts[:, s] == 0)].sum()\n", "",
           (CODE + "test_incidence_counts_match_a_pure_python_count",
            CODE + "test_weight_routes_agree_on_random_sets")),
    Mutant("incidence-solves-the-last-nonzero", "src/mincodes/code.py",
           "first = s + 1 + (ends[:, s + 1:] != 0).argmax(axis=1)",
           "first = np.array([max([i for i in range(s + 1, k) if x[i]], "
           "default=k) for x in pts.tolist()], dtype=np.int64)",
           (CODE + "test_incidence_counts_match_a_pure_python_count",
            CODE + "test_weight_routes_agree_on_random_sets")),
    Mutant("incidence-without-the-m-0-class", "src/mincodes/code.py",
           "for s in range(k):", "for s in range(k - 1):",
           (CODE + "test_incidence_counts_match_a_pure_python_count",
            CODE + "test_weight_routes_agree_on_random_sets")),
    Mutant("incidence-multiplicity-as-1", "src/mincodes/code.py",
           "at += level * np.bincount(", "at += np.bincount(",
           (CODE + "test_incidence_counts_match_a_pure_python_count",
            CODE + "test_weights_with_mixed_multiplicities")),
    Mutant("bypass-seeds-the-projective-codes", "src/mincodes/code.py",
           "codes, mult = d.codes, np.ones(n, dtype=np.int64)",
           "codes = _projective_points(d)[0]\n"
           "    mult = np.ones(len(codes), dtype=np.int64)",
           (CODE + "test_weights_with_mixed_multiplicities",
            CODE + "test_class_weights_picks_the_cheaper_route")),
    # -- field orders ---------------------------------------------------------
    Mutant("cap-checked-after-factoring", "src/mincodes/field.py",
           "    if q > MAX_ORDER:\n"
           "        raise FieldError(f\"field order {q} exceeds cap "
           "{MAX_ORDER}\")\n"
           "    return make_field(*factor_prime_power(q))",
           "    p, m = factor_prime_power(q)\n"
           "    if q > MAX_ORDER:\n"
           "        raise FieldError(f\"field order {q} exceeds cap "
           "{MAX_ORDER}\")\n"
           "    return make_field(p, m)",
           (FIELD + "test_field_of_order_checks_the_cap_before_factoring",)),
    Mutant("root-search-skips-m-1", "src/mincodes/field.py",
           "range(max(q, 1).bit_length() - 1, 0, -1)",
           "range(max(q, 1).bit_length() - 1, 1, -1)",
           (FIELD + "test_factor_prime_power",)),
    Mutant("root-not-checked-exact", "src/mincodes/field.py",
           "return x if x ** m == q else 0", "return x",
           (FIELD + "test_factor_prime_power",)),
    Mutant("base-41-dropped", "src/mincodes/field.py",
           "31, 37, 41)", "31, 37)",
           (FIELD + "test_factor_prime_power",)),
    Mutant("bound-itself-certified", "src/mincodes/field.py",
           "if n >= _MR_LIMIT:", "if n > _MR_LIMIT:",
           (FIELD + "test_factor_prime_power_refuses_past_the_proved_bound",)),
    Mutant("one-squaring-short", "src/mincodes/field.py",
           "for _ in range(s - 1):", "for _ in range(s - 2):",
           (FIELD + "test_factor_prime_power",)),
    Mutant("past-the-bound-accepted", "src/mincodes/field.py",
           "        raise FieldError(f\"{n} is past {_MR_LIMIT}, where "
           "primality is \"\n",
           "        return True\n        raise FieldError(f\"{n} is past "
           "{_MR_LIMIT}, where primality is \"\n",
           (FIELD + "test_factor_prime_power_refuses_past_the_proved_bound",
            CLI + "test_bad_input_exits_2_with_one_line")),
)


def _apply(tree: Path, mutant: Mutant) -> bool:
    """Write the mutant into the copy at tree; False when its anchor is
    missing or not unique."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.anchor) != 1:
        return False
    path.write_text(text.replace(mutant.anchor, mutant.replacement))
    return True


def _passes(tree: Path, tests: tuple[str, ...]) -> bool:
    """Whether the tests pass in the copy at tree; a run past TIMEOUT_S
    counts as failing."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", *tests]
    try:
        run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def _copy(dest: Path) -> Path:
    tree = dest / "tree"
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tree / "pyproject.toml")
    return tree


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS
              if not argv or any(word in m.name for word in argv)]
    with tempfile.TemporaryDirectory() as tmp:
        tree = _copy(Path(tmp))
        tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        if not _passes(tree, tests):
            print("error: the named tests fail without any mutant")
            return 2
    tally = {"caught": 0, "survived": 0, "equivalent": 0,
             "equivalent, but caught": 0, "anchor not found": 0}
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            tree = _copy(Path(tmp))
            if not _apply(tree, mutant):
                outcome = "anchor not found"
            elif _passes(tree, mutant.tests):
                outcome = "equivalent" if mutant.equivalent else "survived"
            else:
                outcome = ("equivalent, but caught" if mutant.equivalent
                           else "caught")
        tally[outcome] += 1
        print(f"{outcome:>22}  {mutant.name}", flush=True)
    print("tally: " + ", ".join(f"{n} {k}" for k, n in tally.items() if n))
    bad = (tally["survived"] + tally["anchor not found"]
           + tally["equivalent, but caught"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
