"""A seeded fuzz of the command line, run in-process.

Every argv, drawn from a fixed seed over every command and its options,
must end within a time cap with exit code 0, 1 or 2 and no traceback, and
a refusal (exit 2) must print one `error:` line on stderr and nothing on
stdout.  A pool value that exposes a defect stays in the pool.
"""

import random
import signal

import pytest

import mgonal.cli as cli

# a value is small with probability 0.85, so that most argv reach a
# computation, and else an edge value: 0 and negatives, the limits of `cli`
# and one past them, and inputs that once crashed or hung a command
SMALL = (1, 2, 3, 4, 5, 7, 8, 9, 12, 36, 48, 100)
EDGE = (-7, -1, 0, 1000, 1001, 1300, 10 ** 4, 10 ** 4 + 1, 100000, 2 ** 21,
        2 ** 21 + 1, 10 ** 7, 2 ** 16, 2 ** 16 + 1, 2 ** 31, 2 ** 32 - 5,
        2 ** 32, 2 ** 32 + 1, 10 ** 13, 10 ** 15, 2 ** 63, -2 ** 63,
        10 ** 18 + 3)
# --p values: primes, non-primes, and primes on both sides of 2^22
PS = (2, 3, 5, 7, 11, 4, 0, -1, 4194301, 4194319, 10 ** 18 + 3)
FORMATS = ("text", "json", "csv")
SEED, CALLS = 28, 400
CAP_S = 10.0  # per call; the slowest input inside the limits takes ~2 s


def _num(rng):
    return str(rng.choice(SMALL if rng.random() < 0.85 else EDGE))


def _nums(rng):
    rank = rng.choice((2, 3, 3, 3, 3, 3, 4))
    return ",".join(_num(rng) for _ in range(rank))


def _prime(rng):
    return str(rng.choice(PS))


def _format(rng):
    return rng.choice(FORMATS)


# command -> (option, value generator or None for a flag, probability)
SPEC = {
    "psi": [("--n", _num, 0.95), ("--count", _num, 0.6), ("--p", _prime, 0.45),
            ("--verify", None, 0.2), ("--format", _format, 0.3)],
    "eta": [("--n", _num, 0.95), ("--s", _num, 0.95), ("--format", _format, 0.3)],
    "table1": [("--verify", None, 0.5), ("--format", _format, 0.3)],
    "ineq": [("--clause", _num, 0.95), ("--t", _num, 0.45),
             ("--t-max", _num, 0.45), ("--verify", None, 0.2),
             ("--format", _format, 0.3)],
    "watson": [("--conductor", _num, 0.95), ("--coeffs", _nums, 0.95),
               ("--shifts", _nums, 0.4), ("--p", _prime, 0.95),
               ("--format", _format, 0.3)],
    "stabilize": [("--conductor", _num, 0.95), ("--coeffs", _nums, 0.95),
                  ("--shifts", _nums, 0.4), ("--format", _format, 0.3)],
    "localrep": [("--coeffs", _nums, 0.95), ("--n", _num, 0.95),
                 ("--p", _prime, 0.95), ("--conductor", _num, 0.3),
                 ("--shifts", _nums, 0.2), ("--format", _format, 0.3)],
    "regcheck": [("--m", _num, 0.95), ("--coeffs", _nums, 0.95),
                 ("--bound", _num, 0.95), ("--format", _format, 0.3)],
    "theorem": [("--case", _num, 0.5), ("--verify", None, 0.5),
                ("--format", _format, 0.3)],
    "examples": [("--eureka", _num, 0.5), ("--format", _format, 0.3)],
}


def fuzz_argvs(seed=SEED, calls=CALLS):
    rng = random.Random(seed)
    out = []
    for i in range(calls):
        command = sorted(SPEC)[i % len(SPEC)]  # every command as often
        argv = [command] + (["scan"] if command == "regcheck" else [])
        for option, value, prob in SPEC[command]:
            if rng.random() < prob:
                argv += [option] if value is None else [option, value(rng)]
        out.append(argv)
    return out


class _Overran(Exception):
    pass


def _alarm(signum, frame):
    raise _Overran


@pytest.fixture
def run_capped(capsys):
    """cli.main(argv) as (exit code, stdout, stderr), with SystemExit read
    as its code and any other exception, or a call past CAP_S, as a
    string naming it."""
    old = signal.signal(signal.SIGALRM, _alarm)

    def run(argv):
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors, help
            code = exc.code
        except _Overran:
            code = f"ran past {CAP_S} s"
        except Exception as exc:  # a traceback in a real process
            code = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        out, err = capsys.readouterr()
        return code, out, err

    yield run
    signal.signal(signal.SIGALRM, old)


def test_fuzz_covers_every_command():
    argvs = fuzz_argvs()
    assert {a[0] for a in argvs} == set(cli._COMMANDS)
    assert len({tuple(a) for a in argvs}) > 0.75 * CALLS


def test_every_fuzzed_argv_exits_cleanly_within_the_cap(run_capped):
    problems, codes = [], []
    for argv in fuzz_argvs():
        code, out, err = run_capped(argv)
        codes.append(code)
        if code not in (0, 1, 2):
            problems.append((argv, code))
        elif "Traceback" in err:
            problems.append((argv, err))
        elif code == 2 and (out or sum("error:" in line
                                       for line in err.splitlines()) != 1):
            problems.append((argv, out[:200], err))
    assert not problems, problems[:5]
    # the draw reaches both answers and refusals
    assert codes.count(0) > CALLS // 5 and codes.count(2) > CALLS // 5


# Each bounded option at its limit answers; one past it, or at an input
# that once crashed or hung the command, is refused by argument parsing
# with a message that names the limit.  The refused ones were a MemoryError
# traceback (psi --count), Python's "Exceeds the limit (4300 digits)"
# message (ineq --t 1300), and runs of seconds to minutes.
AT_LIMIT = [
    ["psi", "--n", str(2 ** 32), "--count", "10000"],
    ["psi", "--n", str(2 ** 32), "--p", "4194301"],
    ["eta", "--n", str(2 ** 32), "--s", "10000"],
    ["ineq", "--clause", "5", "--t", "1000"],
    ["ineq", "--clause", "12", "--t-max", "1000", "--format", "csv"],
    ["watson", "--conductor", str(2 ** 32 - 5), "--coeffs", "1,5,25",
     "--shifts", "1,1,1", "--p", "5"],
    ["stabilize", "--conductor", str(2 ** 32 - 5), "--coeffs", "1,5,25",
     "--shifts", "1,1,1"],
    # two entries that are primes near 2^32, factored one at a time
    ["stabilize", "--conductor", "4", "--coeffs",
     f"1,{2 ** 32 - 17},{2 ** 32 - 65}", "--shifts", "1,1,1"],
    ["regcheck", "scan", "--m", str(2 ** 16), "--coeffs", "1,65519,65521",
     "--bound", "1000"],
    ["regcheck", "scan", "--m", "3", "--coeffs", "1,1,1", "--bound",
     str(2 ** 21)],
    ["examples", "--eureka", str(2 ** 21)],
]
PAST_LIMIT = [  # (argv, the refused option, its limit)
    (["psi", "--n", "48", "--count", "2147483648"], "--count", 10 ** 4),
    (["psi", "--n", "48", "--count", "10001"], "--count", 10 ** 4),
    (["psi", "--n", str(10 ** 15), "--p", "5"], "--n", 2 ** 32),
    (["eta", "--n", str(10 ** 13), "--s", "3"], "--n", 2 ** 32),
    (["eta", "--n", "48", "--s", "10001"], "--s", 10 ** 4),
    (["ineq", "--clause", "5", "--t", "1300"], "--t", 1000),
    (["ineq", "--clause", "5", "--t", "100000"], "--t", 1000),
    (["ineq", "--clause", "1", "--t-max", "1001"], "--t-max", 1000),
    (["watson", "--conductor", str(2 ** 32 + 1), "--coeffs", "1,5,25",
      "--p", "5"], "--conductor", 2 ** 32),
    (["stabilize", "--conductor", str(10 ** 18 + 3), "--coeffs", "1,5,25",
      "--shifts", "1,1,1"], "--conductor", 2 ** 32),
    (["stabilize", "--conductor", "5", "--coeffs", f"1,1,{10 ** 18 + 3}"],
     "--coeffs", 2 ** 32),
    (["regcheck", "scan", "--m", str(2 ** 16 + 1), "--coeffs", "1,1,1",
      "--bound", "10"], "--m", 2 ** 16),
    (["regcheck", "scan", "--m", "3", "--coeffs", "1,1,65537", "--bound",
      "10"], "--coeffs", 2 ** 16),
    (["regcheck", "scan", "--m", "3", "--coeffs", "1,1,1", "--bound",
      str(2 ** 21 + 1)], "--bound", 2 ** 21),
    (["examples", "--eureka", str(2 ** 63)], "--eureka", 2 ** 21),
]


@pytest.mark.parametrize("argv", AT_LIMIT, ids=" ".join)
def test_inputs_at_the_limits_answer(run_capped, argv):
    code, out, err = run_capped(argv)
    assert code == 0 and not err, (code, err)
    assert out.rstrip().splitlines()[-1].startswith("# mgonal")


@pytest.mark.parametrize("argv, option, limit", PAST_LIMIT,
                         ids=[" ".join(a) for a, _, _ in PAST_LIMIT])
def test_inputs_past_the_limits_are_refused_by_name(run_capped, argv, option,
                                                    limit):
    code, out, err = run_capped(argv)
    value = argv[argv.index(option) + 1]
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(
        f"argument {option}: values above {limit} are not supported, "
        f"got {value!r}")
