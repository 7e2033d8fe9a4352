"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import mgonal.cli as cli
import mgonal.regcheck as regcheck


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


@pytest.mark.parametrize("extra, calls", [([], 1), (["--t", "40"], 2),
                                          (["--t-max", "20"], 5)],
                         ids=["t0", "t", "t-max"])
def test_ineq_verify_reuses_the_printed_row(capsys, monkeypatch, extra, calls):
    """--verify evaluates the clause at the golden t0 once: a printed row
    at t0 serves the check."""
    import mgonal.prodineq as prodineq

    seen = []
    inner = prodineq.verify_inequality
    monkeypatch.setattr(prodineq, "verify_inequality",
                        lambda k, t: seen.append(t) or inner(k, t))
    code, _, _ = run(capsys, "ineq", "--clause", "1", "--verify", *extra)
    assert code == 0 and len(seen) == calls and seen.count(16) == 1


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


@pytest.mark.parametrize("which", [["--count", "8"], ["--p", "5"]],
                         ids=["count", "p"])
def test_psi_verify_reads_the_golden_file_in_both_forms(capsys, monkeypatch,
                                                        which):
    """`psi --verify` checks psi48.json whether it prints the top values or
    one psi_p (the --p form used to return before the check and exit 0),
    and on success prints what the same command prints without --verify."""
    argv = ["psi", "--n", "48", *which]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--verify") == (0, plain, "")
    golden = cli._golden("psi48.json")
    golden["values"][0] = 999
    monkeypatch.setitem(cli._GOLDEN_TEXT, "psi48.json", json.dumps(golden))
    code, out, err = run(capsys, *argv, "--verify")
    assert code == 1 and out == "" and "golden" in err


def test_replay_mismatch_exits_one(capsys, monkeypatch):
    import mgonal.pipeline as pipeline

    def boom(expected=None):
        raise pipeline.ReplayMismatch("synthetic divergence")

    monkeypatch.setattr(pipeline, "replay_all", boom)
    code, _, err = run(capsys, "theorem", "--verify")
    assert code == 1
    assert "divergence" in err


# every --verify command, and one stabilize, psi --p and eta
VERIFY_ARGVS = (
    [["theorem", "--verify"], ["table1", "--verify"],
     ["psi", "--n", "48", "--count", "8", "--verify"]]
    + [["ineq", "--clause", str(k), "--verify"] for k in range(1, 14)]
    + [["stabilize", "--conductor", "5", "--coeffs", "1,9,25",
        "--format", "json"],
       ["psi", "--n", "48", "--p", "7"],
       ["eta", "--n", "60", "--s", "9", "--format", "csv"]]
)


def test_each_command_parser_is_built_once_per_process(capsys, monkeypatch):
    """Two passes of VERIFY_ARGVS build the parser of each of their
    commands once, on first use, as a top-level parser with that command
    alone, and never the full parser."""
    built = []
    build = cli.build_parser

    def counted(*names):
        built.append(names)
        return build(*names)

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._command_parser.cache_clear()
    for _ in range(2):
        for argv in VERIFY_ARGVS:
            assert run(capsys, *argv)[0] == 0, argv
    assert built == [((name,),) for name in dict.fromkeys(
        argv[0] for argv in VERIFY_ARGVS)]


def test_reused_parser_keeps_no_state_between_calls(capsys):
    passes = [[run(capsys, *argv) for argv in VERIFY_ARGVS] for _ in range(2)]
    assert passes[0] == passes[1]
    assert all(code == 0 for code, _, _ in passes[0])


def test_verify_commands_stdout_is_pinned(capsys):
    """The stdout of VERIFY_ARGVS and of `theorem --format json`, byte for
    byte, as one sha256."""
    outs = []
    for argv in VERIFY_ARGVS + [["theorem", "--format", "json"]]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
        "52ff0b07d55120b231c8d9c75732a5666163b908fb1e792ffecbacd47bdf29d8")


# every (command, format) pair the parser accepts, and the lines that vary:
# a localrep witness, a refused witness box, the --conductor form, --eureka
EVERY_FORMAT_ARGVS = [
    ["psi", "--n", "48", "--p", "7"],
    ["psi", "--n", "48", "--count", "8", "--format", "json"],
    ["psi", "--n", "48", "--p", "5", "--format", "json"],
    ["psi", "--n", "48", "--count", "8", "--format", "csv"],
    ["psi", "--n", "48", "--p", "5", "--format", "csv"],
    *[["eta", "--n", "60", "--s", "9", "--format", f]
      for f in ("text", "json", "csv")],
    *[["table1", "--format", f] for f in ("text", "json", "csv")],
    *[["ineq", "--clause", "5", "--t-max", "11", "--format", f]
      for f in ("text", "json", "csv")],
    ["ineq", "--clause", "2", "--t", "40", "--format", "csv"],
    *[["watson", "--conductor", "5", "--coeffs", "1,2,4", "--p", "2",
       "--format", f] for f in ("text", "json")],
    *[["stabilize", "--conductor", "5", "--coeffs", "1,9,25", "--format", f]
      for f in ("text", "json")],
    *[["localrep", "--coeffs", coeffs, "--n", n, "--p", p, *extra,
       "--format", f]
      for coeffs, n, p, extra in [("1,1,2", "6", "2", []),
                                  ("1,1,2", "14", "2", []),
                                  ("1,1,2401", "16807", "7", []),
                                  ("1,1,1", "3", "2", ["--conductor", "6"])]
      for f in ("text", "json")],
    *[["regcheck", "scan", "--m", "8", "--coeffs", "1,2,3", "--bound", "300",
       "--format", f] for f in ("text", "json")],
    *[["theorem", "--case", "4", "--format", f] for f in ("text", "json")],
    ["examples"],
    ["examples", "--eureka", "100"],
    ["examples", "--eureka", "100", "--format", "json"],
]


def test_every_command_stdout_is_pinned(capsys):
    """The stdout of EVERY_FORMAT_ARGVS, byte for byte, as one sha256; the
    list names each format of each command's parser."""
    accepted = {(name, f)
                for name, sub in cli._subparsers(cli.build_parser()).items()
                for a in sub._actions if a.dest == "format" for f in a.choices}
    assert {(argv[0], argv[argv.index("--format") + 1]
             if "--format" in argv else "text")
            for argv in EVERY_FORMAT_ARGVS} == accepted
    digest = hashlib.sha256()
    for argv in EVERY_FORMAT_ARGVS:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "dba5ea5745d918be69db0bba82cef1e285f641fe6d28143a79d1cc8987718954")


def test_array_free_commands_do_not_import_numpy():
    """A fresh process that imports mgonal.cli and runs VERIFY_ARGVS, a
    watson step, a regcheck scan, `examples`, `examples --eureka` and a
    localrep witness search in-process never loads numpy.  numpy was most
    of the start-up of every mgonal process; a scan's local and global
    sides and the eureka sumset are bitsets, and the witness grid search
    is a loop over Python ints.
    The layers are pinned too: importing the cli loads no layer, and each
    command adds the layers it runs, which every process compiles anew
    when no bytecode is cached.  Nor does the import load `fractions`
    (with `decimal` and `numbers`), which only two `prodineq` functions
    and `regcheck` use."""
    argvs = VERIFY_ARGVS + [["watson", "--conductor", "12", "--coeffs",
                             "1,5,25", "--p", "5"],
                            ["regcheck", "scan", "--m", "8", "--coeffs",
                             "1,2,3", "--bound", "2000"], ["examples"],
                            ["examples", "--eureka", "2000"],
                            ["localrep", "--coeffs", "3,5,7", "--n", "10",
                             "--p", "5"]]
    script = ("import contextlib, io, json, sys\n"
              "seen = set()\n"
              "def loaded(step):\n"
              "    new = {m for m in sys.modules if m.split('.')[0] == 'mgonal'}\n"
              "    new -= seen\n"
              "    seen.update(new)\n"
              "    return [step, 'numpy' in sys.modules, sorted(new)]\n"
              "import mgonal.cli as cli\n"
              "steps = [loaded('import')]\n"
              "fractions = 'fractions' in sys.modules\n"
              f"for argv in json.loads({json.dumps(argvs)!r}):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = cli.main(argv)\n"
              "    assert code == 0, (argv, code)\n"
              "    steps.append(loaded(argv[0]))\n"
              "print(json.dumps([fractions, steps]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fractions, steps = json.loads(proc.stdout)
    assert not fractions
    assert len(steps) == len(argvs) + 1
    assert not any(numpy for _, numpy, _ in steps)
    assert [(step, new) for step, _, new in steps if new] == [
        ("import", ["mgonal", "mgonal.cli"]),
        ("theorem", ["mgonal.density", "mgonal.numth", "mgonal.pipeline",
                     "mgonal.polygonal", "mgonal.prodineq"]),
        ("stabilize", ["mgonal.localrep", "mgonal.watson"]),
        ("regcheck", ["mgonal.regcheck"])]


def test_importing_the_cli_loads_no_layer():
    """`import mgonal.cli` in a fresh process without `site` loads no other
    module of the package, nor `csv` or `importlib.resources`: the golden
    files are read next to the module's file, and the layers, the
    commands' parsers and `csv` wait for the command that uses them."""
    script = ("import json, sys\n"
              "import mgonal.cli\n"
              "print(json.dumps([sorted(m for m in sys.modules\n"
              "                         if m.split('.')[0] == 'mgonal'),\n"
              "                  'csv' in sys.modules,\n"
              "                  'importlib.resources' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["mgonal", "mgonal.cli"], False, False]


# the layers a process of each command loads
COMMAND_LAYERS = [
    (["eta", "--n", "48", "--s", "8"], ["density", "numth"]),
    (["psi", "--n", "48", "--p", "7"], ["density", "numth"]),
    (["table1", "--verify"], ["density", "numth"]),
    (["ineq", "--clause", "5", "--verify"], ["numth", "prodineq"]),
    (["watson", "--conductor", "5", "--coeffs", "1,2,4", "--p", "2"],
     ["localrep", "numth", "polygonal", "watson"]),
    (["stabilize", "--conductor", "5", "--coeffs", "1,9,25"],
     ["localrep", "numth", "polygonal", "watson"]),
    (["localrep", "--coeffs", "3,5,7", "--n", "10", "--p", "5"],
     ["localrep", "numth"]),
    (["theorem", "--verify"],
     ["density", "numth", "pipeline", "polygonal", "prodineq"]),
    (["examples"], ["localrep", "numth", "polygonal", "regcheck"]),
    (["regcheck", "scan", "--m", "8", "--coeffs", "1,2,3", "--bound", "2000"],
     ["density", "localrep", "numth", "pipeline", "polygonal", "prodineq",
      "regcheck"]),
]


@pytest.mark.parametrize("argv, layers", COMMAND_LAYERS,
                         ids=[argv[0] for argv, _ in COMMAND_LAYERS])
def test_a_command_process_loads_only_its_layers(argv, layers):
    """A fresh process without `site` that runs one command loads exactly
    the layers of that command, and builds only that command's parser:
    `build_parser` is called once, with that command alone."""
    script = ("import contextlib, io, json, sys\n"
              "import mgonal.cli as cli\n"
              "built, build = [], cli.build_parser\n"
              "cli.build_parser = lambda *a: built.append(a) or build(*a)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(sys.argv[1:])\n"
              "print(json.dumps([code, built, sorted(\n"
              "    m[len('mgonal.'):] for m in sys.modules\n"
              "    if m.startswith('mgonal.') and m != 'mgonal.cli')]))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [[[argv[0]]]], layers]


def test_every_command_runs_without_numpy(capsys):
    """A process where numpy cannot be imported runs every argv of
    EVERY_FORMAT_ARGVS, the localrep witness searches and the refused
    witness box included: each exits 0, raises nothing and prints the
    stdout of an unblocked run."""
    script = ("import contextlib, io, json, sys\n"
              "sys.modules['numpy'] = None\n"
              "import mgonal.cli as cli\n"
              "outcomes = []\n"
              f"for argv in json.loads({json.dumps(EVERY_FORMAT_ARGVS)!r}):\n"
              "    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        code = cli.main(argv)\n"
              "    outcomes.append([code, out.getvalue()])\n"
              "print(json.dumps(outcomes))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    blocked = json.loads(proc.stdout)
    assert len(blocked) == len(EVERY_FORMAT_ARGVS)
    for argv, (code, out) in zip(EVERY_FORMAT_ARGVS, blocked):
        want_code, want, _ = run(capsys, *argv)
        assert want_code == 0, argv
        assert [code, out] == [0, want], argv


def _outcome(capsys, call):
    """(return value, or the code of the SystemExit raised, stdout, stderr)."""
    try:
        code = call()
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--version"], ["bogus"], ["ineq", "-h"],
    ["ineq", "--clause", "5", "--bogus"], ["ineq", "--version"],
    ["ineq", "--clause", "99"],
    ["localrep", "--coeffs", "1,1,1", "--n", "3", "--p", "4"],
    ["regcheck", "scan", "--m", "3"], ["psi", "--n", "48"],
    ["eta", "--n", "48", "--s", "8", "--form", "json"],
    ["ineq", "--format", "json", "--clause", "5"],
    # one usage error of each command
    ["psi", "--n", "48", "--p", "5", "--count", "8"],
    ["eta", "--n", "0x30", "--s", "8"],
    ["table1", "--format", "xml"],
    ["ineq", "--t", "7", "--t-max", "9"],
    ["watson", "--conductor", "5", "--coeffs", "1,2,4"],
    ["stabilize", "--conductor", "5", "--coeffs", "1,x,4"],
    ["localrep", "--coeffs", "1,1,1", "--n", "3"],
    ["regcheck", "audit", "--m", "8", "--coeffs", "1,2,3", "--bound", "9"],
    ["theorem", "--case", "5"],
    ["examples", "--eureka", str(2 ** 21 + 1)],
], ids=["none", "help", "version", "unknown-command", "command-help",
        "unrecognized-option", "version-after-command", "invalid-choice",
        "invalid-type", "missing-required", "missing-group",
        "abbreviated-option", "options-before-required", "psi-p-and-count",
        "eta-invalid-int", "table1-invalid-format", "ineq-t-and-t-max",
        "watson-missing-p", "stabilize-invalid-coeffs", "localrep-missing-p",
        "regcheck-invalid-action", "theorem-invalid-case",
        "examples-past-limit"])
def test_main_answers_as_the_top_level_parser(capsys, argv):
    """A command parses with its own parser; help, version and usage errors
    still come from a fresh top-level parser's code path, byte for byte."""
    def top_level():
        args = cli.build_parser().parse_args(argv)
        return args.func(args)

    want = _outcome(capsys, top_level)
    assert _outcome(capsys, lambda: cli.main(argv)) == want


def test_golden_files_are_read_once_and_handed_out_fresh(capsys, monkeypatch,
                                                         tmp_path):
    monkeypatch.setattr(cli, "_DATA", tmp_path / "missing")
    for argv in [a for a in VERIFY_ARGVS if "--verify" in a]:
        assert run(capsys, *argv)[0] == 0, argv
    first, second = cli._golden("ineq_base.json"), cli._golden("ineq_base.json")
    assert first == second and first is not second
    first["base_cases"][0]["lhs"] += 1
    assert second != first and second == cli._golden("ineq_base.json")


def test_a_copy_imported_under_another_name_reads_its_own_golden_files(
        tmp_path):
    """Two trees of the package loaded side by side, one under another
    name, each read the golden files of their own tree."""
    copy = tmp_path / "mgonal_copy"
    shutil.copytree(os.path.dirname(cli.__file__), copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    psi = json.loads((copy / "data" / "psi48.json").read_text())
    psi["values"][0] += 1
    (copy / "data" / "psi48.json").write_text(json.dumps(psi))
    script = ("import json, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import mgonal.cli, mgonal_copy.cli\n"
              "print(json.dumps([mgonal.cli._golden('psi48.json'),\n"
              "                  mgonal_copy.cli._golden('psi48.json')]))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    own, copied = json.loads(proc.stdout)
    assert own == cli._golden("psi48.json") and copied == psi != own


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["mgonal", "eta", "--n", "48", "--s", "8"])
    assert cli.main() == 0
    assert capsys.readouterr().out.splitlines()[0] == "13"


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


def test_localrep_refused_witness_box(capsys):
    # the witness grid at the Hensel exponent, 5^(5*3), is refused, so the
    # verdict stands alone with the conservative exponent 8
    code, out, _ = run(capsys, "localrep", "--coeffs", "3,5,7", "--n", "1000",
                       "--p", "5")
    assert code == 0
    assert out.splitlines()[0] == "1000 over Z_5: True"
    assert "witness" not in out
    code, out, _ = run(capsys, "localrep", "--coeffs", "3,5,7", "--n", "1000",
                       "--p", "5", "--format", "json")
    body = json.loads(out)
    assert body["modulus_exponent"] == 8 and body["witness"] is None


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
    ["regcheck", "scan", "--m", "3", "--coeffs", "1,1,1", "--bound", "10",
     "--out", os.path.join(os.devnull, "r.json")],
    ["localrep", "--coeffs", "1,1,1", "--n", "7", "--p", "2", "--shifts", "1,1,1"],
], ids=["eta-n0", "psi-n0", "watson-p-divides-c", "localrep-zero-coeff",
        "regcheck-zero-coeff", "ineq-t-below-lower", "ineq-t-below-three",
        "ineq-t-max-below-t0", "psi-count-negative", "psi-count-zero",
        "regcheck-rank-2", "regcheck-bound-negative", "regcheck-bound-zero",
        "stabilize-rank-4", "stabilize-rank-2", "watson-non-primitive",
        "watson-rank-2", "regcheck-out-unwritable", "localrep-shifts-no-conductor"])
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


def test_watson_step_text_and_json(capsys):
    """One step at p = 2 on <1,2,4> with c = 5: the unit entry 1 is scaled
    by 4, then 2^1 divides out; its shift moves by 2^(j-1) = 8 = 3 (mod 5),
    normalized to 2, and the others by 2^j = 1 (mod 5)."""
    argv = ("watson", "--conductor", "5", "--coeffs", "1,2,4", "--p", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "input:  conductor 5, coeffs [1, 2, 4], shifts [1, 1, 1]",
        "step:   p=2, q=2, scale s=1, order j=4",
        "output: conductor 5, coeffs [2, 1, 2], shifts [2, 1, 1]",
        f"# mgonal {cli.__version__}"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (
        '{"command":"watson","input":{"coeffs":[1,2,4],"conductor":5,'
        '"shifts":[1,1,1]},"j":4,"output":{"coeffs":[2,1,2],"conductor":5,'
        '"shifts":[2,1,1]},"p":2,"q":2,"s":1,"tool":"mgonal",'
        f'"version":"{cli.__version__}"}}\n')


def _descent_argvs(seed=30, calls=1200):
    """Seeded `watson` and `stabilize` argv: conductors 1, 2 and up to 30,
    shifts in [-c, 2c] or left to the default, coefficients built from
    small primes so that descents take steps, text and JSON, and refused
    inputs (conductor 0, a prime dividing the conductor, a non-prime or
    stable p, a shift sharing a factor with c, an imprimitive or rank-2
    lattice, csv)."""
    rng = random.Random(seed)
    out = []
    for i in range(calls):
        c = rng.choice((0, 1, 1, 1, 2, 2, 2) + tuple(range(3, 31)))
        rank = 3 if rng.random() < 0.95 else 2
        coeffs = [math.prod(rng.choice((2, 3, 3, 5, 5, 7))
                            for _ in range(rng.randint(0, 4)))
                  for _ in range(rank)]
        if rng.random() < 0.8:
            coeffs[0] = 1
        argv = ["watson" if i % 2 else "stabilize", "--conductor", str(c),
                "--coeffs", ",".join(map(str, coeffs))]
        if rng.random() < 0.7:
            shifts = [rng.randint(-c, 2 * c) for _ in range(rank)]
            if rng.random() < 0.9:  # else a shift may share a factor with c
                shifts = [al if math.gcd(al, c) == 1 else 1 for al in shifts]
            argv.append("--shifts=" + ",".join(map(str, shifts)))
        if i % 2:
            primes = [q for q in (2, 3, 5, 7) if any(a % q == 0 for a in coeffs)]
            p = rng.choice(primes) if primes and rng.random() < 0.85 else (
                rng.choice((2, 3, 11, 4, 1)))
            argv += ["--p", str(p)]
        argv += rng.choice((["--format", "json"], ["--format", "text"], [])
                           * 6 + (["--format", "csv"],))
        out.append(argv)
    return out


def test_descent_bytes_are_pinned(capsys):
    """Exit code, stdout and stderr of every `_descent_argvs` argv, as one
    sha256: the descent's records and normal forms, byte for byte."""
    digest = hashlib.sha256()
    codes = set()
    for argv in _descent_argvs():
        code, out, err = _outcome(capsys, lambda: cli.main(argv))
        codes.add(code if isinstance(code, int) else code[1])
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert codes == {0, 2}
    assert digest.hexdigest() == (
        "61c92ebba36507efdd4a0db814335fb9ea29e757dd1951222437b30aec02eaf5")


def test_regcheck_scan_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "regcheck", "scan", "--m", "3",
                       "--coeffs", "1,1,1", "--bound", "300",
                       "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["verdict"] == "regular-up-to-300"
    assert payload["counterexamples"] == []


def test_regcheck_scan_checks_out_before_scanning(capsys, monkeypatch, tmp_path):
    def scan(form, bound):
        raise AssertionError("scanned before checking --out")

    monkeypatch.setattr(regcheck, "regularity_scan", scan)
    path = tmp_path / "missing-dir" / "r.json"
    code, out, err = run(capsys, "regcheck", "scan", "--m", "3", "--coeffs",
                         "1,1,1", "--bound", "2000000", "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("before", [None, b"an older, longer report\n" * 40],
                         ids=["new", "existing"])
def test_regcheck_scan_out_is_untouched_by_a_failed_scan(capsys, tmp_path,
                                                         before):
    path = tmp_path / "r.json"
    if before is not None:
        path.write_bytes(before)
    argv = ["regcheck", "scan", "--m", "3", "--coeffs", "1,1,1",
            "--out", str(path), "--bound"]
    code, _, err = run(capsys, *argv, "0")
    assert code == 2 and err.startswith("error: ")
    assert (path.read_bytes() if path.exists() else None) == before
    code, out, _ = run(capsys, *argv, "300", "--format", "json")
    assert code == 0
    report = {k: v for k, v in json.loads(out).items()
              if k not in ("tool", "version", "command")}
    assert path.read_text() == cli._canonical(report)


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
