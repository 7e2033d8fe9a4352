"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

import pytest

import mgonal.cli as cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eta_plain(capsys):
    code, out, _ = run(capsys, "eta", "--n", "48", "--s", "8")
    assert code == 0
    assert out.splitlines()[0] == "13"
    assert out.strip().splitlines()[-1].startswith("# mgonal ")


def test_psi_json_is_canonical(capsys):
    code, out, _ = run(capsys, "psi", "--n", "48", "--count", "8",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == ["8", "7", "5", "4", "3", "3", "3", "2"]
    assert payload["tool"] == "mgonal"
    assert "version" in payload and "command" in payload
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert out == canon


def test_psi_single_prime(capsys):
    code, out, _ = run(capsys, "psi", "--n", "48", "--p", "5")
    assert code == 0
    assert out.splitlines()[0] == "8"


def test_table1_verify(capsys):
    code, out, _ = run(capsys, "table1", "--verify")
    assert code == 0
    assert "eta(17,8) = 2" in out
    assert "eta(125,19) = 25" in out


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table1", "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 17  # header + 16 rows
    assert lines[0].split(",")[:3] == ["n", "s", "eta"]


def test_csv_rejected_for_non_tabular(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["theorem", "--case", "1", "--format", "csv"])
    assert exc.value.code == 2
    assert "csv" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eta", "--n", "48", "--s", "8", "--verify"],
    ["stabilize", "--conductor", "5", "--coeffs", "1,9,27", "--format", "csv"],
    ["ineq", "--verify"],
    ["psi", "--n", "48"],
    ["psi", "--n", "48", "--p", "5", "--count", "8"],
    ["ineq", "--clause", "1", "--t", "30", "--t-max", "17"],
], ids=["eta-verify", "stabilize-csv", "ineq-no-clause", "psi-neither",
        "psi-both", "ineq-t-and-t-max"])
def test_options_only_where_they_act(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_ineq_verify(capsys):
    code, out, _ = run(capsys, "ineq", "--clause", "1", "--verify")
    assert code == 0


def test_ineq_verify_checks_only_its_clause(capsys, monkeypatch):
    golden = cli._golden

    def corrupted(name):
        data = golden(name)
        if name == "ineq_base.json":
            for rec in data["base_cases"]:
                if rec["clause"] == 5:
                    rec["lhs"] += 1
        return data

    monkeypatch.setattr(cli, "_golden", corrupted)
    code, _, err = run(capsys, "ineq", "--clause", "5", "--verify")
    assert code == 1 and "clause 5:" in err
    code, _, _ = run(capsys, "ineq", "--clause", "1", "--verify")
    assert code == 0


def test_ineq_single_clause(capsys):
    code, out, _ = run(capsys, "ineq", "--clause", "1", "--t", "16",
                       "--format", "json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["lhs"] == 12091972151626183
    assert result["rhs"] == 3770775127457792
    assert result["holds"] is True


def test_theorem_case_four_transcript(capsys):
    code, out, _ = run(capsys, "theorem", "--case", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("# mgonal ")
    assert lines[-2] == "result: m <= 712"


def test_theorem_verify_all(capsys):
    code, out, _ = run(capsys, "theorem", "--verify")
    assert code == 0


def test_theorem_json_bounds(capsys):
    code, out, _ = run(capsys, "theorem", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    merged = {}
    for case in payload["cases"].values():
        merged.update(case["m_bounds"])
    assert merged == {
        "odd,2mod3": 35,
        "odd,not2mod3": 147,
        "2mod4,2mod3": 38,
        "2mod4,not2mod3": 142,
        "0mod4,2mod3": 188,
        "0mod4,not2mod3": 712,
    }


def test_verify_failure_exits_one(capsys, monkeypatch):
    good = cli._golden("psi48.json")
    bad = dict(good, values=[9] + list(good["values"][1:]))
    monkeypatch.setattr(cli, "_golden", lambda name: bad)
    code, _, err = run(capsys, "psi", "--n", "48", "--count", "8", "--verify")
    assert code == 1
    assert err.strip()


def test_replay_mismatch_exits_one(capsys, monkeypatch):
    import mgonal.pipeline as pipeline

    def boom(expected=None):
        raise pipeline.ReplayMismatch("synthetic divergence")

    monkeypatch.setattr(cli, "replay_all", boom)
    code, _, err = run(capsys, "theorem", "--verify")
    assert code == 1
    assert "divergence" in err


def test_main_reuses_the_parser_built_at_import(capsys, monkeypatch):
    def boom():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "build_parser", boom)
    code, out, _ = run(capsys, "eta", "--n", "48", "--s", "8")
    assert code == 0 and out.splitlines()[0] == "13"


def test_reused_parser_keeps_no_state_between_calls(capsys):
    argvs = (
        [["theorem", "--verify"], ["table1", "--verify"],
         ["psi", "--n", "48", "--count", "8", "--verify"]]
        + [["ineq", "--clause", str(k), "--verify"] for k in range(1, 14)]
        + [["stabilize", "--conductor", "5", "--coeffs", "1,9,25",
            "--format", "json"],
           ["psi", "--n", "48", "--p", "7"],
           ["eta", "--n", "60", "--s", "9", "--format", "csv"]]
    )
    passes = [[run(capsys, *argv) for argv in argvs] for _ in range(2)]
    assert passes[0] == passes[1]
    assert all(code == 0 for code, _, _ in passes[0])


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_localrep_witness_line(capsys):
    code, out, _ = run(capsys, "localrep", "--coeffs", "1,1,2", "--n", "6",
                       "--p", "2")
    assert code == 0
    assert "6 over Z_2: True" in out
    assert "witness [" in out and "] mod 2^" in out


def test_localrep_excluded_class(capsys):
    # x^2 + y^2 + 2 z^2 misses exactly the 4^a (16b + 14) family at 2
    code, out, _ = run(capsys, "localrep", "--coeffs", "1,1,2", "--n", "14",
                       "--p", "2")
    assert code == 0
    assert "14 over Z_2: False" in out
    assert "witness" not in out


@pytest.mark.parametrize("p", ["1", "4"])
def test_localrep_rejects_non_prime_p(p):
    proc = subprocess.run(
        [sys.executable, "-m", "mgonal.cli", "localrep", "--coeffs", "1,1,1",
         "--n", "3", "--p", p],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].endswith(
        f"argument --p: expected a prime, got '{p}'")


@pytest.mark.parametrize("p", ["4194319", "1000000000000000003"])
def test_localrep_rejects_primes_above_the_array_limit(p):
    # both are primes; the second would take trial division up to 10^9
    proc = subprocess.run(
        [sys.executable, "-m", "mgonal.cli", "localrep", "--coeffs", "1,1,1",
         "--n", "3", "--p", p],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "Traceback" not in proc.stderr
    assert errors[0] == proc.stderr.strip().splitlines()[-1]
    assert "2^22" in errors[0] and p in errors[0]


@pytest.mark.parametrize("argv", [
    ["eta", "--n", "0", "--s", "3"],
    ["psi", "--n", "0", "--p", "5"],
    ["watson", "--conductor", "5", "--coeffs", "1,1,3", "--p", "5"],
    ["localrep", "--coeffs", "1,0,1", "--n", "7", "--p", "2"],
    ["regcheck", "scan", "--m", "3", "--coeffs", "0,1,1", "--bound", "10"],
    ["ineq", "--clause", "1", "--t", "3"],
    ["ineq", "--clause", "2", "--t", "1"],
    ["ineq", "--clause", "1", "--t-max", "3"],
    ["psi", "--n", "48", "--count", "-2"],
    ["psi", "--n", "48", "--count", "0"],
    ["regcheck", "scan", "--m", "4", "--coeffs", "1,1", "--bound", "100"],
    ["regcheck", "scan", "--m", "3", "--coeffs", "1,1,1", "--bound", "-1"],
    ["regcheck", "scan", "--m", "3", "--coeffs", "1,1,1", "--bound", "0"],
    ["stabilize", "--conductor", "7", "--coeffs", "1,1,1,1", "--shifts", "1,1,1,1"],
    ["stabilize", "--conductor", "7", "--coeffs", "1,2", "--shifts", "1,1"],
    ["watson", "--conductor", "7", "--coeffs", "5,10,25", "--shifts", "1,1,1",
     "--p", "5"],
    ["watson", "--conductor", "7", "--coeffs", "1,2", "--shifts", "1,1", "--p", "2"],
], ids=["eta-n0", "psi-n0", "watson-p-divides-c", "localrep-zero-coeff",
        "regcheck-zero-coeff", "ineq-t-below-lower", "ineq-t-below-three",
        "ineq-t-max-below-t0", "psi-count-negative", "psi-count-zero",
        "regcheck-rank-2", "regcheck-bound-negative", "regcheck-bound-zero",
        "stabilize-rank-4", "stabilize-rank-2", "watson-non-primitive",
        "watson-rank-2"])
def test_rejected_input_is_one_error_line_under_optimize(argv):
    # -O strips asserts, so these must fail through raised errors
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mgonal.cli", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_localrep_deep_coefficient_is_answered_under_optimize():
    # the 2^30 entry is too deep to matter at n = 7 (x^2 + y^2 misses 7
    # mod 8), so no 2^63-entry table is needed and no refusal is made
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mgonal.cli", "localrep", "--coeffs",
         "1,1,1073741824", "--n", "7", "--p", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "7 over Z_2: False"


@pytest.mark.parametrize("p", ["4", "1000000000000000003"])
@pytest.mark.parametrize("argv", [
    ["psi", "--n", "48"],
    ["watson", "--conductor", "5", "--coeffs", "1,1,3"],
], ids=["psi", "watson"])
def test_every_p_option_takes_a_prime(argv, p):
    # the large prime took trial division up to 10^9; under -O, --p 4 made
    # watson report <1,1,3> as "already 4-stable"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mgonal.cli", *argv, "--p", p],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "argument --p: " in proc.stderr.strip().splitlines()[-1]


def test_localrep_shifted_mode(capsys):
    code, out, _ = run(capsys, "localrep", "--coeffs", "1,1,1", "--n", "3",
                       "--p", "2", "--conductor", "6")
    assert code == 0


def test_regcheck_scan_beyond_the_fft_limit(capsys):
    # the local test at 709 | c is a congruence, not a 709^3-entry table
    code, out, _ = run(capsys, "regcheck", "scan", "--m", "711",
                       "--coeffs", "1,2,3", "--bound", "300")
    assert code == 0
    assert out.splitlines()[0].endswith(": not-regular(witness n=7)")


def test_stabilize_logs_steps(capsys):
    code, out, _ = run(capsys, "stabilize", "--conductor", "5",
                       "--coeffs", "1,9,27", "--shifts", "1,1,1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["output"]["conductor"] == 5
    assert payload["steps"], "descent from <1,9,27> must take at least a step"
    assert all(set(s) == {"p", "q", "s", "j"} for s in payload["steps"])
    assert payload["output"]["coeffs"] == sorted(payload["output"]["coeffs"])


def test_regcheck_scan_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "regcheck", "scan", "--m", "3",
                       "--coeffs", "1,1,1", "--bound", "300",
                       "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["verdict"] == "regular-up-to-300"
    assert payload["counterexamples"] == []


_NOTE_711 = ("candidate only: the nonexistence statement covers regular "
             "forms, and m = 711 exceeds its congruence-class bound 147")


@pytest.mark.parametrize("m,coeffs,body", [
    (8, "1,2,3", '"bound":300,"coeffs":[1,2,3],"counterexamples":[9,93],'
                 '"locally_represented":277,"m":8,'
                 '"verdict":"not-regular(witness n=9)"'),
    (711, "1,2,3", '"bound":300,"coeffs":[1,2,3],"counterexamples":['
                   + ",".join(map(str, range(7, 301)))
                   + f'],"locally_represented":301,"m":711,"note":"{_NOTE_711}",'
                   '"verdict":"not-regular(witness n=7)"'),
    (3, "1,1,1", '"bound":300,"coeffs":[1,1,1],"counterexamples":[],'
                 '"locally_represented":301,"m":3,'
                 '"verdict":"regular-up-to-300"'),
], ids=["m8-two-counterexamples", "m711-all-past-6", "m3-survivor"])
def test_regcheck_scan_report_bytes_are_pinned(capsys, tmp_path, m, coeffs,
                                               body):
    """The canonical JSON of `regcheck scan --out` at bound 300, byte for
    byte: counterexamples decoded from the scan's bitsets, in order."""
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "regcheck", "scan", "--m", str(m), "--coeffs",
                     coeffs, "--bound", "300", "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == ("{" + body + "}\n").encode()


def test_examples_eureka(capsys):
    code, out, _ = run(capsys, "examples", "--eureka", "500",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["eureka"] == {"bound": 500, "universal": True}
    assert payload["ok"] is True


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mgonal.cli", "table1", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["entries"]) == 16
