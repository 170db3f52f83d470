"""Byte-for-byte CLI outputs: stdout, stderr and exit code of a fixed set
of commands, compared with the files under tests/golden/.

Regenerate the files (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

import pytest

from mincodes import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

F4_333 = ("--family", "4", "--q", "3", "--k", "3", "--h", "3")

CASES = {
    "weights_f4_3_json": ("weights", *F4_333),
    "weights_f4_3_csv": ("weights", *F4_333, "--format", "csv"),
    "weights_f4_3_md": ("weights", *F4_333, "--format", "md"),
    "weights_f2_7": ("weights", "--family", "2", "--q", "7", "--k", "3",
                     "--h", "3"),
    "weights_f2_7_md": ("weights", "--family", "2", "--q", "7", "--k", "3",
                        "--h", "3", "--format", "md"),
    "weights_f3_7": ("weights", "--family", "3", "--q", "7", "--k", "3",
                     "--h", "3"),
    "weights_f4_5_tilde": ("weights", "--family", "4", "--q", "5", "--k", "3",
                           "--h", "3", "--tilde"),
    "minimal_f4_5": ("minimal", "--family", "4", "--q", "5", "--k", "3",
                     "--h", "3"),
    "minimal_f4_3_relaxed": ("minimal", "--family", "4", "--q", "3", "--k",
                             "2", "--h", "2", "--relaxed"),
    "verify_all_2_3": ("verify-all", "--qs", "2,3", "--max-points", "100"),
    "verify_all_3_skip": ("verify-all", "--qs", "3", "--max-points", "200",
                          "--budget", "500"),
    "weights_over_budget": ("weights", *F4_333, "--budget", "10"),
    "minimal_over_budget": ("minimal", *F4_333, "--budget", "10"),
}


def run_cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit_code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert run_cli(CASES[name]) == expected


#: sha256 of the stdout of ``mincodes verify-all`` at its defaults: 598
#: PASS, 0 FAIL and 428 SKIP over 1,026 rows, too long for a golden file
VERIFY_ALL_SHA256 = (
    "6c2c53c71a0c5a6d6ac565bd5605d6d5b336ea39b8cbac3a6e35bd0462046075")


def test_default_verify_all_output_is_pinned(monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    run = run_cli(["verify-all"])
    assert run["exit_code"] == 0 and run["stderr"] == ""
    assert run["stdout"].endswith("\n598 PASS, 0 FAIL, 428 SKIP\n")
    digest = hashlib.sha256(run["stdout"].encode()).hexdigest()
    assert digest == VERIFY_ALL_SHA256


if __name__ == "__main__":
    os.environ.pop(cli.BUDGET_ENV, None)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        text = json.dumps(run_cli(argv), indent=2) + "\n"
        (GOLDEN / f"{name}.json").write_text(text)
        print(f"wrote {name}", file=sys.stderr)
