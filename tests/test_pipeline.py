"""Tests for the bound-derivation pipeline: the individual lemma moves,
the four-case replay against the recorded logs, and the final bounds."""

import hashlib
import json
import math
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from mgonal.density import eta
from mgonal.pipeline import (
    CASES,
    CongruenceClass,
    LemmaViolation,
    ReplayMismatch,
    bound_a1_from_eta,
    bound_a1_two_reps,
    bound_a2_from_eta,
    case4_step3_check,
    find_coprime_shift,
    k_bound,
    m_bound_from_c,
    replay_all,
    replay_case,
    t_bound_step,
    theorem_bounds,
)
from mgonal.prodineq import CLAUSES

BOUNDS = {
    "odd,2mod3": 35,
    "odd,not2mod3": 147,
    "2mod4,2mod3": 38,
    "2mod4,not2mod3": 142,
    "0mod4,2mod3": 188,
    "0mod4,not2mod3": 712,
}


def _golden():
    path = resources.files("mgonal") / "data" / "theorem.json"
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# input checks


def test_lemma_and_bound_helpers_raise_under_optimize():
    """A c bound below every m of the class, a window below 1 and a
    conductor below 1 raise ValueError, and a tight window that does not
    shrink raises LemmaViolation, also when asserts are stripped (under -O
    the first two and the last used to return 2, 0 and 30; the conductor
    used to end in ZeroDivisionError)."""
    script = (
        "from mgonal.pipeline import *\n"
        "for call in (lambda: m_bound_from_c(CongruenceClass(4, True), 0),\n"
        "             lambda: bound_a1_two_reps(CASES[1], 0),\n"
        "             lambda: case4_step3_check(CASES[4], 60, -2, 19),\n"
        "             lambda: bound_a2_from_eta(CASES[3], 5, 4, 3,\n"
        "                                       tight_window=True)):\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except (ValueError, LemmaViolation) as exc:\n"
        "        print(type(exc).__name__ + ':', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError: no m >= 3 in class odd,2mod3 has c <= 0",
        "ValueError: the two-representations bound needs a window >= 1, got 0",
        "ValueError: a conductor is at least 1, got -2",
        "LemmaViolation: tight window 7 is wider than n - 1 = 4"]


def test_case_records_reject_bad_fields_under_optimize():
    """A congruence class with the wrong delta, a descent step at p = 3
    with q = s = 3, and a case whose schedule has an unknown op or lacks a
    key its op reads raise ValueError, also when asserts are stripped
    (under -O the class used to be built, and m_bound_from_c of it
    returned 65; the cases used to be built, and replaying them ended in
    AssertionError or KeyError)."""
    script = (
        "import dataclasses\n"
        "from mgonal.pipeline import CASES, CongruenceClass\n"
        "from mgonal.watson import WatsonStep\n"
        "def case(*schedule):\n"
        "    return dataclasses.replace(CASES[1], schedule=schedule)\n"
        "for call in (lambda: CongruenceClass(3, True),\n"
        "             lambda: WatsonStep(p=3, q=3, s=3, j=1),\n"
        "             lambda: case(('bogus', {'n': 5})),\n"
        "             lambda: case(('a1_eta', {})),\n"
        "             lambda: case(('a2_eta', {'n': 50}))):\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except ValueError as exc:\n"
        "        print('ValueError:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError: delta is 4, 2 or 1 (m odd, 2 mod 4, 0 mod 4), got 3",
        "ValueError: need s in (1, 2), got s = 3",
        "ValueError: schedule entry ('bogus', {'n': 5}) has an unknown op; "
        "the ops are open, tighten_t, a1_two_reps, a1_eta, a2_eta, c_eta, "
        "c_case4",
        "ValueError: schedule entry ('a1_eta', {}) lacks n",
        "ValueError: schedule entry ('a2_eta', {'n': 50}) lacks N"]


# ---------------------------------------------------------------------------
# coprime shifts


@given(
    st.lists(st.sampled_from([5, 7, 11, 13, 17]), min_size=1, max_size=4,
             unique=True).map(sorted),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=120),
)
@settings(max_examples=200)
def test_find_coprime_shift_minimal(primes, u, v):
    prod = math.prod(primes)
    if math.gcd(u, prod) != 1:
        return
    n = find_coprime_shift(primes, u, v)
    assert math.gcd(u * n + v, prod) == 1
    assert all(math.gcd(u * k + v, prod) != 1 for k in range(n))
    s = len(primes)
    if s >= 2:
        assert n < (s + 4) * 2 ** (s - 2)
    else:
        assert n < primes[0]


def test_find_coprime_shift_rejects_bad_input_under_optimize():
    """A u sharing a prime with the list, a list out of order and an empty
    list raise ValueError naming the input, also when asserts are stripped
    (they used to raise LemmaViolation, return 1 and fail on a negative
    shift count)."""
    script = (
        "from mgonal.pipeline import find_coprime_shift\n"
        "for args in (((5,), 5, 0), ((7, 5), 1, 0), ((), 1, 0)):\n"
        "    try:\n"
        "        print(find_coprime_shift(*args))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "u must be prime to (5,), got 5",
        "need a nonempty ascending list of primes, got (7, 5)",
        "need a nonempty ascending list of primes, got ()"]


# ---------------------------------------------------------------------------
# the individual bound moves, at the constants the replay derives


def test_k_bound_cofactors():
    assert k_bound(CASES[1], 15) == 73728
    assert k_bound(CASES[2], 17) == 983039
    assert k_bound(CASES[3], 17) == 1310719
    assert k_bound(CASES[4], 19) == 17301497
    assert k_bound(CASES[1], 6) == 72
    assert k_bound(CASES[1], 4) == 14


def test_bound_a1_formulas():
    assert bound_a1_two_reps(CASES[1], 45) == 45
    assert bound_a1_from_eta(CASES[1], 25, eta(25, 6), 1) == 2
    assert bound_a1_from_eta(CASES[2], 30, eta(30, 7), 1) == 9
    assert bound_a1_from_eta(CASES[3], 30, eta(30, 7), 1) == 3


def test_bound_a1_needs_thick_window():
    with pytest.raises(LemmaViolation):
        bound_a1_from_eta(CASES[1], 10, eta(10, 1), 1)


def test_bound_a2_formulas():
    assert bound_a2_from_eta(CASES[1], 50, eta(50, 15), 3) == 49
    assert bound_a2_from_eta(CASES[1], 19, eta(19, 6), 2) == 18
    assert bound_a2_from_eta(CASES[2], 102, eta(102, 17), 8) == 304
    assert bound_a2_from_eta(CASES[3], 25, eta(25, 7), 2,
                             tight_window=True) == 90


def test_bound_a2_guards():
    with pytest.raises(LemmaViolation, match="<= 2N"):
        bound_a2_from_eta(CASES[1], 10, eta(10, 1), 4)  # eta too small
    # one rung: N^2 c + 2N = 38 <= delta * bound = 4 * 49 at c = 36
    with pytest.raises(LemmaViolation, match="38 <= 196"):
        bound_a2_from_eta(CASES[1], 50, eta(50, 15), 1)  # c side fails


def test_t_bound_step_matches_clauses():
    # (a, b, k, const) names a clause: the lookup can match one row at most
    assert len({(c.a, c.b, c.k, c.const) for c in CLAUSES.values()}) == 13
    assert t_bound_step(CASES[1], 1, 1, 3) == (1, 15)
    assert t_bound_step(CASES[1], 45, 49, 1) == (2, 6)
    assert t_bound_step(CASES[1], 2, 18, 1) == (3, 4)
    assert t_bound_step(CASES[2], 9, 88, 1) == (7, 6)
    assert t_bound_step(CASES[3], 3, 90, 1) == (11, 6)
    assert t_bound_step(CASES[4], 580, 1492, 1) == (13, 9)


def test_t_bound_step_rejects_shape_mismatch():
    with pytest.raises(LemmaViolation, match="shape"):
        # clause 5's constant, but clause 5 has the kappa = 3 shape
        t_bound_step(CASES[1], 142, 304, 1)


def test_replay_checks_raise_under_optimize():
    """Every proof-step check of t_bound_step and replay_case raises
    LemmaViolation, also when asserts are stripped: no clause of the case's
    shape, power and constant, a failed base case, induction or sharpness,
    a clause that does not tighten t, an eta window before any t bound,
    too few eta hits for the two-representations and conductor steps, the
    case 4 conductor step off its window or off its ray, and case 4 with
    nu_1 <= 3, whose k-bound shape no clause has.  (Under -O a shape
    mismatch used to return t <= 8.)"""
    script = (
        "import dataclasses\n"
        "from mgonal import pipeline\n"
        "from mgonal.pipeline import CASES, LemmaViolation, replay_case, t_bound_step\n"
        "one, four = CASES[1].schedule, CASES[4].schedule\n"
        "def case(cid, *schedule):\n"
        "    return dataclasses.replace(CASES[cid], schedule=schedule)\n"
        "def patched(name, fake, call):\n"
        "    saved = getattr(pipeline, name)\n"
        "    setattr(pipeline, name, fake)\n"
        "    try:\n"
        "        return call()\n"
        "    finally:\n"
        "        setattr(pipeline, name, saved)\n"
        "calls = [\n"
        "    lambda: t_bound_step(CASES[1], 142, 304, 1),\n"
        "    lambda: t_bound_step(CASES[1], 2, 1, 3),\n"
        "    lambda: t_bound_step(CASES[1], 45, 50, 1),\n"
        "    lambda: patched('verify_inequality', lambda i, t: (0, 0, False),\n"
        "                    lambda: t_bound_step(CASES[1], 1, 1, 3)),\n"
        "    lambda: patched('certify_all_t', lambda i: (0, 0, False),\n"
        "                    lambda: t_bound_step(CASES[1], 1, 1, 3)),\n"
        "    lambda: patched('verify_inequality', lambda i, t: (0, 0, True),\n"
        "                    lambda: t_bound_step(CASES[1], 1, 1, 3)),\n"
        "    lambda: replay_case(case(1, *one[:4], one[3])),\n"
        "    lambda: replay_case(case(1, *one[1:])),\n"
        "    lambda: patched('eta', lambda n, s: 1, lambda: replay_case(CASES[1])),\n"
        "    lambda: patched('eta', lambda n, s: 8, lambda: replay_case(\n"
        "        case(1, one[0], ('c_eta', {'n': 20})))),\n"
        "    lambda: replay_case(case(4, *four[:4], ('c_case4', {'n': 61}))),\n"
        "    lambda: patched('case4_step3_check', lambda case, n, c, e: True,\n"
        "                    lambda: replay_case(CASES[4])),\n"
        "    lambda: replay_case(dataclasses.replace(CASES[4], nu1_max=3)),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except LemmaViolation as exc:\n"
        "        print('LemmaViolation:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = ["shape (1, 0), power 1 and constant 142 * 304",
            "shape (1, 0), power 3 and constant 2 * 1",
            "shape (1, 0), power 1 and constant 45 * 50",
            "fails at its own base case", "ratio induction not certified",
            "already holds at t0 - 1", "clause 2 gives t <= 6, not below",
            "a1_two_reps comes before any bound on t",
            "needs two hits", "eta(20,15) = 8 <= 8", "got eta(61, 9)",
            "not the ray", "case 4's k-bound shape (12, -8), power 3"]
    lines = proc.stdout.splitlines()
    assert len(lines) == len(want), lines
    for line, fragment in zip(lines, want):
        assert line.startswith("LemmaViolation:") and fragment in line, line


def test_case4_conductor_ray():
    case, e = CASES[4], eta(60, 9)
    # the cap over u <= 59 and the last link's reach over u <= 8
    assert case.reach(59) == 712 and case.reach(8) == 100
    assert not case4_step3_check(case, 60, 355, e)
    assert case4_step3_check(case, 60, 356, e)
    assert case4_step3_check(case, 60, 10**6, e)

    def first(n):
        return next(c for c in range(1, 400)
                    if case4_step3_check(case, n, c, e))

    assert first(60) == 356
    assert all(case4_step3_check(case, 60, c, e) for c in range(356, 500))
    # the cap is reach(n - 1) of the step's window: reach(60) = 724
    assert first(61) == 362
    # 18 represented values fit the 3*3*2 slots: no contradiction at any c
    assert not case4_step3_check(case, 60, 10**6, 2 * 3 * 3)
    for c in (0, -2):  # at c = -2 the third link would divide by c + 2 = 0
        with pytest.raises(ValueError, match="conductor is at least 1"):
            case4_step3_check(case, 60, c, e)


# ---------------------------------------------------------------------------
# congruence classes and the c -> m inversion


def test_m_bound_from_c_per_family():
    assert m_bound_from_c(CongruenceClass(4, True), 74) == 35
    assert m_bound_from_c(CongruenceClass(2, True), 36) == 38
    assert m_bound_from_c(CongruenceClass(4, False), 290) == 147
    assert m_bound_from_c(CongruenceClass(2, False), 144) == 142
    assert m_bound_from_c(CongruenceClass(1, True), 96) == 188
    assert m_bound_from_c(CongruenceClass(1, False), 355) == 712


@given(st.sampled_from([4, 2, 1]), st.booleans(),
       st.integers(min_value=36, max_value=3000))
def test_m_bound_membership_and_maximality(delta, three, c_bound):
    cls = CongruenceClass(delta, three)
    m = m_bound_from_c(cls, c_bound)
    assert cls.contains(m)
    # maximal: no larger member of the class keeps c <= c_bound
    for cand in range(m + 1, cls.invert_c(c_bound) + 1):
        assert not cls.contains(cand)


# ---------------------------------------------------------------------------
# the full replay


def test_replay_matches_recorded_logs():
    golden = _golden()
    states = replay_all(expected=golden["cases"])  # raises on any diff
    merged = {}
    for state in states.values():
        merged.update(state.m_bounds)
    assert merged == BOUNDS == golden["bounds"]


def test_replay_evaluates_each_scheduled_eta_once(monkeypatch):
    # case 4's conductor search reuses the eta(60, 9) of its schedule step
    # instead of recomputing it for each of the ~320 candidate c
    import mgonal.pipeline as pipeline

    calls = []

    def counted(n, s):
        calls.append((n, s))
        return eta(n, s)

    monkeypatch.setattr(pipeline, "eta", counted)
    replay_all(expected=_golden()["cases"])
    assert len(calls) == 22  # one per eta window of the four schedules
    assert calls.count((60, 9)) == 1


def test_replay_bytes_are_pinned():
    """The full replay log (inputs included) and the transcript text: the
    golden file holds only [step, value] pairs, so these digests pin the
    rest, such as each window's s and each clause number."""
    states = replay_all()
    log = json.dumps({str(c): st.as_dict() for c, st in states.items()},
                     sort_keys=True, separators=(",", ":"))
    text = "\n".join(line for c in (1, 2, 3, 4)
                     for line in states[c].transcript())
    assert hashlib.sha256(log.encode()).hexdigest() == (
        "61438a6c26e56675eaf213c4cd218096c079aef92852cebb5e34ac53bf5fbae1")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "522d8b107ee530660d13309cf76b9fb9d84faa63b0f50a95caa1c8fb209def4f")


def test_table1_is_the_replays_eta_windows():
    """table1.json lists the (n, s, eta) of every distinct eta window the
    four schedules read, and no other."""
    table = json.loads((resources.files("mgonal") / "data"
                        / "table1.json").read_text())["entries"]
    windows = {(e["inputs"]["n"], e["inputs"]["s"], e["inputs"]["eta"])
               for state in replay_all().values() for e in state.log
               if "eta" in e["inputs"]}
    assert len(table) == 16
    assert sorted(map(tuple, table)) == sorted(windows)


def test_theorem_bounds():
    assert theorem_bounds() == BOUNDS


def test_replay_log_shape():
    state = replay_case(CASES[1])
    names = [entry["step"] for entry in state.log]
    assert names[0] == "hypothesis"
    assert names.count("t") == 3 and names.count("k") == 3
    assert state.t_bound == 4 and state.k_cofactor == 14
    assert state.c_bounds == {4: 74, 2: 36}
    for entry in state.log:
        assert set(entry) == {"step", "lemma", "inputs", "value"}


def test_replay_detects_tampering():
    golden = _golden()
    tampered = json.loads(json.dumps(golden["cases"]["1"]))
    tampered["steps"][3][1] += 1
    with pytest.raises(ReplayMismatch):
        replay_case(CASES[1], expected=tampered)


def test_eta_inputs_of_the_schedule_are_thick_enough():
    # every eta the schedules consume is positive (the counting arguments
    # all need at least one forced representation in the window), and each
    # window's s is the t bound in force when the replay reaches it
    for cid, state in replay_all().items():
        t_bound = None
        for entry in state.log:
            if entry["step"] == "t":
                t_bound = entry["value"]
            elif "eta" in entry["inputs"]:
                inputs = entry["inputs"]
                assert inputs["s"] == t_bound, (cid, entry)
                assert inputs["eta"] == eta(inputs["n"], inputs["s"]) > 0
