import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mincodes.cli as cli
import mincodes.spectra as spectra
from mincodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weights_both_family4(capsys):
    code, out, _ = run(capsys, "weights", "--family", "4", "--q", "3",
                       "--k", "3", "--h", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    got = {e["w"]: e["count"] for e in doc["enumerate"]["weights"]}
    assert got == {0: 1, 10: 6, 12: 8, 14: 12}
    assert doc["formula"]["weights"] == doc["enumerate"]["weights"]


def test_weights_tilde_collision(capsys):
    code, out, _ = run(capsys, "weights", "--family", "4", "--q", "5",
                       "--k", "3", "--h", "3", "--tilde")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    got = {e["w"]: e["count"] for e in doc["enumerate"]["weights"]}
    assert got[96] == 320
    assert doc["enumerate"]["n"] == 120 and doc["enumerate"]["dim"] == 4


def test_weights_family2_enumerate_and_both(capsys):
    code, out, _ = run(capsys, "weights", "--family", "2", "--q", "7",
                       "--k", "3", "--h", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert "formula" not in doc
    assert doc["enumerate"]["n"] == 126


def test_weights_formula_unavailable_for_family2(capsys):
    code, _, err = run(capsys, "weights", "--family", "2", "--q", "7",
                       "--k", "3", "--h", "3", "--method", "formula")
    assert code == 2
    assert "closed-form" in err


def test_weights_bad_params(capsys):
    code, _, err = run(capsys, "weights", "--family", "1", "--q", "3",
                       "--k", "4", "--h", "2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "weights", "--family", "4", "--q", "6",
                       "--k", "3", "--h", "3")
    assert code == 2


def test_weights_relaxed_out_of_range(capsys):
    # relaxed parameters run, and a mismatch there is reported but not
    # treated as a failure
    code, out, _ = run(capsys, "weights", "--family", "4", "--q", "3",
                       "--k", "2", "--h", "2", "--relaxed")
    assert code == 0
    doc = json.loads(out)
    got = {e["w"]: e["count"] for e in doc["enumerate"]["weights"]}
    assert got == {0: 1, 2: 4, 4: 4}


def test_weights_csv_and_md(capsys):
    code, out, _ = run(capsys, "weights", "--family", "4", "--q", "3",
                       "--k", "3", "--h", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "weight,count"
    assert "10,6" in out and "match,true" in out
    code, out, _ = run(capsys, "weights", "--family", "4", "--q", "3",
                       "--k", "3", "--h", "3", "--format", "md")
    assert code == 0
    assert "| 10 | 6 |" in out and "match: true" in out


def test_weights_output_file(tmp_path, capsys):
    target = tmp_path / "dist.json"
    code, out, _ = run(capsys, "weights", "--family", "4", "--q", "3",
                       "--k", "3", "--h", "3", "--output", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["match"] is True


def test_budget_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "weights", "--family", "4", "--q", "3",
                       "--k", "3", "--h", "3", "--budget", "10")
    assert code == 3
    assert "required" in err


def test_budget_env(monkeypatch, capsys):
    monkeypatch.setenv(cli.BUDGET_ENV, "10")
    code, _, err = run(capsys, "weights", "--family", "4", "--q", "3",
                       "--k", "3", "--h", "3")
    assert code == 3


def test_minimal_command(capsys):
    code, out, _ = run(capsys, "minimal", "--family", "4", "--q", "3",
                       "--k", "3", "--h", "3")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["dim"], doc["d"]) == (18, 3, 10)
    assert doc["ab_holds"] and doc["minimal_direct"]
    # minimal despite the AB criterion failing
    code, out, _ = run(capsys, "minimal", "--family", "4", "--q", "5",
                       "--k", "3", "--h", "3")
    doc = json.loads(out)
    assert doc["ab_holds"] is False and doc["minimal_direct"] is True
    # relaxed non-minimal case carries a witness
    code, out, _ = run(capsys, "minimal", "--family", "4", "--q", "3",
                       "--k", "2", "--h", "2", "--relaxed")
    doc = json.loads(out)
    assert doc["minimal_direct"] is False
    assert doc["witness"] == [[1, 1], [0, 1]]


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify-all", "--qs", "3",
                       "--max-points", "200")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(" PASS" in ln or " SKIP" in ln for ln in lines[:-1])
    assert "0 FAIL" in lines[-1]
    assert any(ln.startswith("F1") for ln in lines)
    assert any(ln.startswith("F4~") for ln in lines)


def test_verify_all_budget_skips(capsys):
    code, out, _ = run(capsys, "verify-all", "--qs", "3",
                       "--max-points", "200", "--budget", "500")
    assert code == 0
    assert " SKIP" in out and "0 FAIL" in out


def test_verify_all_deterministic(capsys):
    args = ("verify-all", "--qs", "2,3", "--max-points", "100")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_one_detects_formula_mutation(monkeypatch):
    # sanity check that the sweep actually exercises the formulas: an
    # off-by-one in psi must surface as FAIL for families 1 and 4
    assert cli.verify_one(1, 3, 4, 4, False, 10 ** 8)[0] == "PASS"
    assert cli.verify_one(4, 3, 3, 3, False, 10 ** 8)[0] == "PASS"
    real_psi = spectra.psi
    monkeypatch.setattr(spectra, "psi", lambda s, q: real_psi(s, q) + 1)
    assert cli.verify_one(4, 3, 3, 3, False, 10 ** 8)[0] == "FAIL"
    assert cli.verify_one(1, 3, 4, 4, False, 10 ** 8)[0] == "FAIL"


def test_verify_one_family2_witness_check():
    status, detail = cli.verify_one(2, 7, 3, 3, False, 10 ** 8)
    assert status == "PASS" and "min weight 78" in detail
    status, detail = cli.verify_one(3, 7, 3, 3, False, 10 ** 8)
    assert status == "PASS" and "168" in detail


@pytest.mark.parametrize("argv, env", [
    (("verify-all", "--qs", "2,x"), None),
    (("weights", "--family", "4", "--q", "3", "--k", "3", "--h", "3"), "abc"),
    (("weights", "--family", "4", "--q", "3", "--k", "3", "--h", "3",
      "--budget", "-5"), None),
    (("verify-all", "--qs", "3", "--budget", str(2 ** 62)), None),
    (("weights", "--family", "1", "--q", "6", "--k", "4", "--h", "4",
      "--method", "formula"), None),
    (("verify-all", "--max-points", "0"), None),
    (("verify-all", "--max-points", "-5"), None),
    (("weights", "--family", "4", "--q", "3", "--k", "3", "--h", "3",
      "--output", os.path.join(os.path.dirname(__file__), "no-such-dir",
                               "out.json")), None),
    (("weights", "--family", "4", "--q", "3", "--k", "3", "--h", "3",
      "--output", os.path.dirname(__file__)), None),
    (("verify-all", "--qs", "300", "--max-points", "10"), None),
    (("verify-all", "--qs", "6", "--max-points", "1"), None),
    (("verify-all", "--qs", "2,300", "--max-points", "10"), None),
    (("verify-all", "--qs", "1"), None),
    (("verify-all", "--qs", "2,2", "--max-points", "8"), None),
    (("verify-all", "--qs", "100000007", "--max-points", "10"), None),
    (("weights", "--method", "formula", "--family", "4", "--q",
      str(2 ** 89 - 1), "--k", "3", "--h", "3"), None),
], ids=["qs-not-integer", "budget-env-not-integer", "negative-budget",
        "budget-past-2^62", "formula-q-6", "max-points-0",
        "max-points-negative", "output-in-a-missing-directory",
        "output-a-directory", "qs-300", "qs-6-below-max-points",
        "qs-300-after-2", "qs-1", "qs-repeated", "qs-prime-past-the-cap",
        "formula-q-past-the-primality-bound"])
def test_bad_input_exits_2_with_one_line(argv, env, monkeypatch, capsys):
    # refused at once: a prime order past the cap is never factored, and
    # one past the proved Miller-Rabin bound is refused as undecided
    if env is None:
        monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.BUDGET_ENV, env)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_formula_at_a_large_prime_order(capsys):
    # q = 10^9 + 7 and 2^61 - 1 are proved prime by Miller-Rabin, in
    # O(log q) steps, so the closed form prints within a second
    for q in (1000000007, 2 ** 61 - 1):
        start = time.perf_counter()
        code, out, _ = run(capsys, "weights", "--method", "formula",
                           "--family", "4", "--q", str(q), "--k", "3",
                           "--h", "3")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert json.loads(out)["formula"]["q"] == q


def test_help_ignores_a_bad_budget_env(monkeypatch, capsys):
    monkeypatch.setenv(cli.BUDGET_ENV, "abc")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mincodes")


@pytest.mark.parametrize("family", [2, 3])
def test_min_weight_mutation_fails_both_callers(family, monkeypatch, capsys):
    # verify_one and `weights --method both` share one minimum-weight
    # check: a formula off by one must fail in both
    name = f"family{family}_min_weight"
    real = getattr(spectra, name)

    def off_by_one(q, k, h):
        w_min, witnesses = real(q, k, h)
        return w_min + 1, witnesses

    monkeypatch.setattr(spectra, name, off_by_one)
    status, _ = cli.verify_one(family, 7, 3, 3, False, 10 ** 8)
    assert status == "FAIL"
    code, out, _ = run(capsys, "weights", "--family", str(family), "--q",
                       "7", "--k", "3", "--h", "3", "--method", "both")
    assert code == 1 and json.loads(out)["match"] is False
    # verify-all counts that row's FAIL, and only it, and exits 1
    code, out, _ = run(capsys, "verify-all", "--qs", "7",
                       "--max-points", "343")
    *rows, summary = out.splitlines()
    assert code == 1 and sum(" FAIL " in row for row in rows) == 1
    assert summary == f"{len(rows) - 1} PASS, 1 FAIL, 0 SKIP"


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop(cli.BUDGET_ENV, None)
    argv = ["weights", "--family", "4", "--q", "3", "--k", "3", "--h", "3",
            "--format", "csv"]
    proc = subprocess.run([sys.executable, "-m", "mincodes", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[:2] == ["weight,count", "0,1"]
    assert "match,true" in proc.stdout
