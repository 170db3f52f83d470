"""Benchmark of mincodes: end-to-end metrics from an untraced run, per-layer
metrics from a traced one.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout that holds ``src/mincodes``.  Workloads
(see ``workloads.py``): ``verify_sweep``, ``cutting_sweep`` and ``large_q``.

The run measures set-up time in fresh interpreters, then starts one fresh
worker process (``worker.py``) for the timed phase, so that set-up time and
peak memory belong to this workload alone.  Load comes from that single
thread; the ``*_NUM_THREADS`` variables pin native libraries to one thread.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  The line before
it is the run's record (seed, machine facts, digests, counts), which is
also written to ``.perfbench_out/``.  The program is single-threaded, so no
work waits on another and a layer's time is its busy time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify_sweep", "cutting_sweep", "large_q")
#: fresh interpreters timed for set-up; the reported value is their median
SETUP_PROBES = 7
#: a worker still running this long after its timed phase is killed
WORKER_GRACE_S = 90
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("MINCODES_BUDGET", None)
    return env


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_facts() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def _worker(args: list[str], env: dict, timeout: float) -> str:
    """Run the worker to completion; its standard output."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                          capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return proc.stdout


def measure_setup(workload: str, env: dict) -> list[float]:
    """Interpreter start, imports and field tables, in fresh processes;
    the first, untimed, probe fills the bytecode cache."""
    times = []
    for i in range(SETUP_PROBES + 1):
        start = perf_counter()
        _worker(["--workload", workload, "--setup-only"], env, timeout=60)
        if i:
            times.append(perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mincodes" / "__init__.py").is_file():
        print(f"error: no mincodes sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    env = _child_env()
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "machine": machine_facts(),
                    "loadavg_start": _read("/proc/loadavg").strip()}
    try:
        setup = measure_setup(args.workload, env)
        out = _worker(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)],
                      env, timeout=args.seconds + WORKER_GRACE_S)
        run = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = _read("/proc/loadavg").strip()
    record["setup_probes_s"] = setup
    record.update(run)
    record["failed_frac"] = run["failed"] / run["attempted"]
    record["waiting"] = ("none: the program is single-threaded, so a "
                         "layer's time is its busy time")

    # report exactly the metrics BENCHMARK.json declares, in its units
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, kind = run["layers"], "per_layer"
    else:
        values = dict(run, setup_s=statistics.median(setup))
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[kind]}
    result = {"correct": run["failed"] == 0 and run["skipped"] == 0,
              "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
