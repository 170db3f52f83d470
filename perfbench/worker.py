"""One benchmark run of one workload, in a fresh process started by
``run.py``.  Prints one JSON object on its last line of output.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --setup-only

The timed phase repeats whole passes over the workload's instances and
starts another pass only while it is predicted to end within ``--seconds``
(but runs at least ``MIN_PASSES``).  Times are medians over passes.  With
``--trace 1`` untraced and traced passes alternate: layer times come from
the traced ones and the difference of the two medians is the tracing
overhead.  Field tables are built before the timed phase, as a user's
process builds them once.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: passes at least, untraced; with --trace 1, of each kind
MIN_PASSES = 3
MIN_PASSES_TRACED = 2


def _import_library():
    sys.path.insert(0, str(SRC))
    import mincodes
    if not Path(mincodes.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported mincodes from {mincodes.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed,
                                                  expected[args.workload])
    if args.setup_only:
        workload.setup()
        return 0

    tracer = tracing.Tracer()

    result: dict = {"workload": args.workload, "seed": args.seed,
                    "instances": len(workload.instances)}
    if args.trace:
        tracer.install()
        start = perf_counter()
        workload.setup()
        setup_layers = tracer.layer_self_times(0, perf_counter() - start)
        builds = sum(1 for s in tracer.spans if s[0] == "field.make_field")
        tracer.uninstall()

    checks = workloads.Checks()
    walls = {False: [], True: []}
    times: dict[str, list[float]] = {}
    layer_runs: list[dict[str, float]] = []
    counts = None
    digests = set()
    timed_start = perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        gc.collect()
        if traced:
            tracer.install()
            tracer.counts.clear()
            first = len(tracer.spans)
        start = perf_counter()
        pass_times, digest = workload.run_pass(tracer, checks)
        wall = perf_counter() - start
        walls[traced].append(wall)
        digests.add(digest)
        if traced:
            tracer.uninstall()
            layer_runs.append(tracer.layer_self_times(first, wall))
            counts = dict(tracer.counts)
            counts["spectra.calls"] = tracer.top_level_calls(first,
                                                            "spectra.")
        else:
            for key, t in pass_times.items():
                times.setdefault(key, []).append(t)
        kinds = (False, True) if args.trace else (False,)
        least = MIN_PASSES_TRACED if args.trace else MIN_PASSES
        if all(len(walls[k]) >= least for k in kinds):
            elapsed = perf_counter() - timed_start
            if elapsed + statistics.median(walls[traced]) > args.seconds:
                break

    per_instance = sorted(statistics.median(v) for v in times.values())
    result.update({
        "passes": len(walls[False]),
        "pass_walls_s": walls[False],
        "wall_s": statistics.median(walls[False]),
        "instance_samples": len(per_instance),
        "instance_p50_s": statistics.median(per_instance),
        # reported only with at least ten instances beyond it
        "instance_p90_s": (statistics.quantiles(per_instance, n=10)[-1]
                           if len(per_instance) >= 100 else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "skipped": checks.skipped,
        "failures": checks.messages,
        "digests": sorted(digests),
    })
    if args.trace:
        result["layers"] = _layer_metrics(setup_layers, builds, layer_runs,
                                          counts, walls)
        # layer self times plus harness time against each traced wall time
        result["trace_unaccounted_s"] = max(
            abs(wall - sum(run.values()))
            for wall, run in zip(walls[True], layer_runs))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path, {"workload": args.workload,
                                  "seed": args.seed})
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


def _layer_metrics(setup_layers, builds, layer_runs, counts, walls) -> dict:
    """Per-layer metrics: self times are medians over the traced passes."""
    def median_of(*layers: str) -> float:
        return statistics.median(sum(run.get(layer, 0.0) for layer in layers)
                                 for run in layer_runs)

    traced_wall = statistics.median(walls[True])
    return {
        "field.build_s": setup_layers.get("field.build", 0.0),
        "field.builds": builds,
        "pointset.construct_s": median_of("pointset.construct"),
        "pointset.tilde_join_s": median_of("pointset.tilde_join"),
        "pointset.points": counts.get("pointset.points", 0),
        "pointset.is_cutting_s": median_of("pointset.is_cutting",
                                           "pointset.is_cutting.tilde"),
        "pointset.is_cutting.tilde_s": median_of("pointset.is_cutting.tilde"),
        "pointset.is_cutting.calls": counts.get("pointset.is_cutting.calls",
                                                0),
        "code.weights_s": median_of("code.weights"),
        "code.weights.calls": counts.get("code.weights.calls", 0),
        "code.is_minimal_direct_s": median_of("code.is_minimal_direct"),
        "code.dimension_s": median_of("code.dimension"),
        "code.classes": counts.get("code.classes", 0),
        "code.field_ops": counts.get("code.field_ops", 0),
        "code.support_bytes": counts.get("code.support_bytes", 0),
        "spectra.closed_form_s": median_of("spectra.closed_form"),
        "spectra.min_weight_s": median_of("spectra.min_weight"),
        "spectra.calls": counts.get("spectra.calls", 0),
        "cli.verify_one.self_s": median_of("cli.verify_one"),
        "cli.main.self_s": median_of("cli.main"),
        "cli.pass": counts.get("cli.pass", 0),
        "cli.skip": counts.get("cli.skip", 0),
        "harness.self_s": median_of(tracing.HARNESS),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(walls[False]),
    }


if __name__ == "__main__":
    sys.exit(main())
