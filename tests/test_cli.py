import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vpal
from vpal.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    main,
)
from vpal.oracle import VerificationReport
from vpal.procedure import run_procedure

from test_factor import ARNAULT_1995
from test_oracle import _is_vpal_reference


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_v(capsys):
    assert run(capsys, "v", "18") == (EXIT_OK, "7\n", "")
    assert run(capsys, "v", "1") == (EXIT_OK, "0\n", "")
    assert run(capsys, "v", "81") == (EXIT_OK, "7\n", "")
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin at the bases 2..37
    assert run(capsys, "v", "318665857834031151167461") == (EXIT_OK, "1197495870662\n", "")


def test_check(capsys):
    code, out, _ = run(capsys, "check", "18")
    assert code == EXIT_OK and out == "yes: v(18) = 7 = v(81)\n"
    code, out, _ = run(capsys, "check", "12")
    assert code == EXIT_OK and "7" in out and "10" in out and out.startswith("no")
    code, out, _ = run(capsys, "check", "22")
    assert code == EXIT_OK and out.startswith("no")
    code, out, _ = run(capsys, "check", "20")
    assert code == EXIT_OK and "10" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "18", "--json")
    d = json.loads(out)
    assert d == {
        "n": "18", "vpalindrome": True, "v": 7, "reversal": "81", "v_of_reversal": 7,
    }


def test_check_agrees_with_the_sympy_reference(capsys):
    # n <= 300 holds multiples of 10, palindromes and v-palindromes
    from sympy import factorint

    v = lambda m: sum(p + e if e >= 2 else p for p, e in factorint(m).items())
    for n in range(1, 301):
        code, out, _ = run(capsys, "check", str(n), "--json")
        record = json.loads(out)
        assert code == EXIT_OK and record["vpalindrome"] == _is_vpal_reference(n), n
        r = int(str(n)[::-1])
        if n % 10 == 0 or n == r:
            reason = "divisible by 10" if n % 10 == 0 else "equals its own reversal"
            assert record == {"n": str(n), "vpalindrome": False, "reason": reason}, n
            assert list(record) == ["n", "vpalindrome", "reason"], n
        else:
            assert record == {"n": str(n), "vpalindrome": v(n) == v(r), "v": v(n),
                              "reversal": str(r), "v_of_reversal": v(r)}, n
            assert list(record) == ["n", "vpalindrome", "v", "reversal", "v_of_reversal"], n


def test_type(capsys):
    assert run(capsys, "type", "18", "4")[1] == "(2, 2)\n"
    assert run(capsys, "type", "12", "3")[1] == "not a v-palindrome\n"
    assert run(capsys, "type", "13", "15")[1] == "(2, 2)\n"


def test_procedure_text(capsys):
    code, out, _ = run(capsys, "procedure", "18")
    assert code == EXIT_OK
    assert "p=2" in out and "p=3" in out
    assert "(2, 2)" in out
    assert "omega = 1" in out


def test_procedure_text_matches_golden_bytes(capsys):
    # 45 and 238 carry all seven cases between them; 18 at copies 3 is shifted.
    golden = Path(__file__).parent / "data" / "golden_procedure_text.txt"
    out = ""
    for argv in (["45"], ["238"], ["18", "--copies", "3"]):
        code, text, _ = run(capsys, "procedure", *argv)
        assert code == EXIT_OK
        out += text
    assert out.encode() == golden.read_bytes()


def test_procedure_json_schema_and_verdict_parity(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema = json.loads(
        (Path(__file__).parent.parent / "docs" / "procedure-result.schema.json").read_text()
    )
    code, out, _ = run(capsys, "procedure", "13", "--json")
    assert code == EXIT_OK
    d = json.loads(out)
    jsonschema.validate(d, schema)
    assert d["c"] == 15
    assert [c["A"] for c in d["columns"]] == [[39, 465], [3, 15]]
    # text mode reports the same verdict values
    _, text, _ = run(capsys, "procedure", "13")
    assert "c = 15" in text and "omega = 6045" in text


def test_procedure_copies(capsys):
    code, out, _ = run(capsys, "procedure", "18", "--copies", "3", "--json")
    d = json.loads(out)
    assert d["copies"] == 3 and d["digit_length"] == 6


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["procedure"])  # missing argument
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["v", "-5"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["v", "abc"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["verify", "disjointness", "--window", "50"])  # the lattice scan has no window
    assert exc.value.code == EXIT_USAGE


def test_domain_errors_exit_64(capsys):
    code, _, err = run(capsys, "procedure", "20")
    assert code == EXIT_USAGE and "divisible by 10" in err
    with pytest.raises(SystemExit) as exc:  # rejected by the parser, with the usage line
        main(["procedure", "18", "--copies", "0"])
    assert exc.value.code == EXIT_USAGE
    assert "expected a positive integer" in capsys.readouterr().err
    code, _, err = run(capsys, "type", "22", "3")
    assert code == EXIT_USAGE and "reversal" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("VPAL_BUDGET", "0.1")
    n = str(100000000000000000000000000319 * 100000000000000000000000000379)
    code, _, err = run(capsys, "v", n)
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("value", ["abc", "nan", "-1", "1_0"])
def test_bad_budget_env_var_exits_64(capsys, monkeypatch, value):
    monkeypatch.setenv("VPAL_BUDGET", value)
    code, _, err = run(capsys, "v", "18")
    assert code == EXIT_USAGE and "VPAL_BUDGET" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "inf", "0", "1_0", "\u0661\u0660"])
def test_bad_budget_flag_exits_64(capsys, value):
    # 1_0 and Arabic-Indic 10 would both read as 10 seconds through float()
    code, _, err = run(capsys, "--budget", value, "v", "18")
    assert code == EXIT_USAGE and "--budget" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0.3", "1e1"])
def test_decimal_budget_flag_runs(capsys, value):
    code, out, _ = run(capsys, "--budget", value, "v", "18")
    assert code == EXIT_OK and out.strip() == "7"


@pytest.mark.parametrize(
    "n, seconds",
    [
        # product of two 30-digit primes; tiny budget cannot split it
        (100000000000000000000000000319 * 100000000000000000000000000379, "0.1"),
        # passes Miller-Rabin at every prime base below 307; rho cannot split it
        (ARNAULT_1995, "0.5"),
    ],
    ids=["semiprime", "arnault_1995"],
)
def test_budget_exhaustion_exit_2(capsys, n, seconds):
    code, _, err = run(capsys, "--budget", seconds, "v", str(n))
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_verify_lemmas_cli(capsys):
    code, out, _ = run(
        capsys, "verify", "lemmas", "--pmax", "20", "--alphamax", "1",
        "--kmax", "6", "--lmax", "2",
    )
    assert code == EXIT_OK
    assert "0 failed" in out


def test_verify_invariance_cli(capsys):
    code, out, _ = run(capsys, "verify", "--json", "invariance", "--nmax", "40", "--kmax", "3")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["corpus"] == "type invariance: n<=40, k<=3"
    assert d["failed"] == 0 and d["skipped"] == 0 and d["checked"] > 0


@pytest.mark.parametrize("option", [["--jmax", "6"], ["--shift-tables"]])
def test_removed_invariance_options_exit_64(capsys, option):
    # every j is checked at once and the shift tables always are
    with pytest.raises(SystemExit) as exc:
        main(["verify", "invariance", "--nmax", "40", *option])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "periodicity"],
        ["verify", "oracle", "--nmax", "40", "--kmax", "8"],
        ["verify", "lemmas", "--pmax", "20", "--check", "divisibility"],
    ],
)
def test_removed_options_exit_64(capsys, argv):
    # verify oracle checks every k, which makes the oracle omega-periodic too;
    # verify lemmas always checks both identities
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE
    assert err.startswith("usage: vpal") and "Traceback" not in err


def test_verify_disjointness_cli(capsys):
    code, out, _ = run(capsys, "verify", "disjointness", "--nmax", "60")
    assert code == EXIT_OK and "0 failed" in out


def test_verify_oracle_cli_json(capsys):
    code, out, _ = run(capsys, "verify", "--json", "oracle", "--nmax", "30")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["corpus"] == "procedure vs oracle: n<=30, every k"
    assert d["failed"] == 0 and d["skipped"] == 0 and d["checked"] > 0


def test_verify_enumerate_cli(capsys):
    code, out, _ = run(capsys, "verify", "enumerate", "--limit", "100", "--print")
    assert code == EXIT_OK
    assert "18" in out and "81" in out


def test_verify_enumerate_reports_its_elapsed_time(capsys):
    code, out, _ = run(capsys, "verify", "--json", "enumerate", "--limit", "2000")
    assert code == EXIT_OK
    assert json.loads(out)["elapsed_seconds"] > 0


def test_procedure_json_of_a_wide_table_matches_golden_bytes(capsys):
    # 20 solutions over 6 crucial primes at copies 3, cases i, ii, iv and v
    golden = Path(__file__).parent / "data" / "golden_procedure_396871711257_copies3.json"
    code, out, _ = run(capsys, "procedure", "396871711257", "--copies", "3", "--json")
    assert code == EXIT_OK
    assert out.encode() == golden.read_bytes()


def test_verify_parallel_matches_serial(capsys):
    code1, out1, _ = run(capsys, "verify", "--json", "oracle", "--nmax", "40")
    code2, out2, _ = run(capsys, "verify", "--json", "--jobs", "2", "oracle", "--nmax", "40")
    assert code1 == code2 == EXIT_OK
    d1, d2 = json.loads(out1), json.loads(out2)
    for key in ("checked", "passed", "failed", "skipped"):
        assert d1[key] == d2[key]


def test_unbounded_decimal_input(capsys):
    n = "1" * 5001  # 5001 digits, past any int/str conversion cap
    code, out, _ = run(capsys, "check", n)
    assert code == EXIT_OK  # palindrome: verdict needs no factorization
    assert out.startswith("no")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--jobs", "0", "oracle", "--nmax", "30"],
        ["verify", "--jobs", "-4", "oracle", "--nmax", "30"],
        ["verify", "disjointness", "--nmax", "0"],
        ["verify", "oracle", "--nmax", "-5"],
        ["verify", "invariance", "--kmax", "0"],
        ["verify", "lemmas", "--pmax", "0"],
    ],
)
def test_verify_counts_that_check_nothing_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE
    assert "expected a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "oracle", "--nmax", "11"],  # no eligible n <= 11
        ["verify", "invariance", "--nmax", "11"],  # no eligible n <= 11
        ["verify", "lemmas", "--pmax", "2"],  # 2 is skipped
    ],
)
def test_verify_that_checks_nothing_exits_64(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert "nothing to check" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["v", "1_3"],  # int() would read 13
        ["v", "\u0661\u0663"],  # Arabic-Indic 13
        ["procedure", "18", "--copies", "1_0"],
        ["verify", "enumerate", "--limit", "1_0"],
    ],
)
def test_non_decimal_syntax_exits_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and out == ""
    assert "not a decimal integer" in err and "usage:" in err and "Traceback" not in err


def test_verification_failure_exits_1(capsys, monkeypatch):
    def failing_sweep(check, nmax, jobs=1, **params):
        report = VerificationReport(corpus="patched")
        report.record(True, n=13)
        report.record(False, n=18, k=2)
        return report

    monkeypatch.setattr("vpal.cli.sweep", failing_sweep)
    code, out, _ = run(capsys, "verify", "disjointness")
    assert code == EXIT_VERIFICATION_FAILED
    assert "1 failed" in out and "FAIL {'n': 18, 'k': 2}" in out
    code, out, _ = run(capsys, "verify", "--json", "disjointness")
    assert code == EXIT_VERIFICATION_FAILED
    d = json.loads(out)
    assert d["failed"] == 1 and d["failures"] == [{"n": 18, "k": 2}]


def test_a_reader_that_closes_the_pipe_early_gets_exit_141():
    # About 950 KB of JSON, more than a pipe buffer holds, so the writer is
    # still writing when the reader goes, as with `vpal procedure ... | head -1`.
    size = len(run_procedure(7243529084560665).to_json())
    assert size > 256 * 1024, (
        f"the document is {size} bytes: a pipe buffer may hold it all, so the "
        "writer could finish before the reader goes; choose an n with a larger one"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vpal.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "vpal.cli",
         "procedure", "7243529084560665", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (EXIT_BROKEN_PIPE, b"")
