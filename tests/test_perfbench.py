"""One in-process pass of each benchmark workload in ``perfbench/`` gives
the answers pinned in ``perfbench/expected.json``: no failed check, and the
same results digest.  The workloads are imported read-only."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # leave no bytecode cache in perfbench/
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_pass_gives_the_pinned_answers(name):
    workload = workloads.WORKLOADS[name](0, EXPECTED[name])
    workload.setup()
    checks = workloads.Checks()
    tracer = types.SimpleNamespace(instance=None)  # run_pass only tags it
    times, digest = workload.run_pass(tracer, checks)
    assert (checks.failed, checks.skipped) == (0, 0), checks.messages
    assert digest == EXPECTED[name]["digest"]
    assert times and checks.attempted > len(times)
