"""Tests for the bound-derivation pipeline: the individual lemma moves,
the four-case replay against the recorded logs, and the final bounds."""

import json
import math
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from mgonal.density import eta
from mgonal.localrep import represents_over_zp
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
    find_nu,
    find_v,
    k_bound,
    m_bound_from_c,
    replay_all,
    replay_case,
    t_bound_step,
    theorem_bounds,
)

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
# nu selection


def test_find_nu_sums_of_squares():
    # 4n + 0 hits 28 = 4 * 7, which three squares miss, so nu = 0 fails
    assert find_nu((1, 1, 1), u=1, l=0) == 1
    assert find_nu((1, 1, 2), u=1, l=1) == 0


def test_find_nu_mod_twelve():
    nu = find_nu((1, 1, 1), u=1, l=0, also_3=True)
    assert nu == 1
    for n in range(40):
        assert represents_over_zp((1, 1, 1), 12 * n + 1, 2)
        assert represents_over_zp((1, 1, 1), 12 * n + 1, 3)


def test_find_nu_rejects_unstable():
    with pytest.raises(AssertionError):
        find_nu((1, 4, 16), u=1, l=0)  # unimodular rank 1 at 2


# ---------------------------------------------------------------------------
# v construction


def test_find_v_worked_examples():
    assert find_v(5, 1, (1, 2, 5), (1, 1, 1)) == 12
    assert find_v(5, 2, (1, 2, 10), (1, 1, 1)) == 1
    assert find_v(5, 1, (1, 2, 5), (1, 1, 5)) == 2
    assert find_v(5, 1, (1, 5, 2), (1, 1, 1)) == 1
    assert find_v(5, 1, (5, 1, 2), (1, 1, 1)) == 1
    assert find_v(7, 1, (1, 4, 7), (1, 1, 2)) == 23


def test_find_v_clauses_hold():
    for p, u, a, alpha in [
        (5, 1, (1, 2, 5), (1, 1, 1)),
        (5, 2, (1, 2, 10), (1, 1, 1)),
        (5, 1, (1, 2, 5), (1, 1, 5)),
        (7, 1, (1, 4, 7), (1, 1, 2)),
        (11, 3, (1, 5, 11), (1, 1, 1)),
    ]:
        v = find_v(p, u, a, alpha)
        A2 = a[0] * alpha[0] ** 2 + a[1] * alpha[1] ** 2
        m0 = A2 + a[2] * alpha[2] ** 2
        assert 0 < v < p * p
        assert not represents_over_zp((a[0], a[1]), u * v + A2, p)
        assert represents_over_zp(a, u * v + m0, p)


def test_find_v_rejects_isotropic_binary():
    # -1*3 = -3 is a square mod 7, so <1,3> is isotropic at 7
    with pytest.raises(ValueError):
        find_v(7, 1, (1, 3, 7), (1, 1, 2))


def test_find_v_rejects_bad_input_under_optimize():
    """p below 5 or composite, a wrong length and a u that is not a positive
    p-unit raise ValueError naming the input, also when asserts are
    stripped."""
    script = (
        "from mgonal.pipeline import find_v\n"
        "for args in ((3, 1, (1, 2, 3), (1, 1, 1)), (25, 1, (1, 2, 5), (1, 1, 1)),\n"
        "             (5, 1, (1, 2), (1, 1, 1)), (5, 1, (1, 2, 5), (1, 1)),\n"
        "             (5, 0, (1, 2, 5), (1, 1, 1)), (5, 10, (1, 2, 5), (1, 1, 1))):\n"
        "    try:\n"
        "        print(find_v(*args))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "p must be a prime >= 5, got 3",
        "p must be a prime >= 5, got 25",
        "find_v needs three coefficients and three shifts, got (1, 2) and (1, 1, 1)",
        "find_v needs three coefficients and three shifts, got (1, 2, 5) and (1, 1)",
        "find_v needs a positive unit u at 5, got 0",
        "find_v needs a positive unit u at 5, got 10"]


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
    assert k_bound(CASES[2], 17, p1=5) == 25 * 983039


def test_bound_a1_formulas():
    assert bound_a1_two_reps(45, 1, 0) == 45
    assert bound_a1_from_eta(25, 6, 1, 4, 1, 0, 36) == 2
    assert bound_a1_from_eta(30, 7, 1, 4, 3, 1, 36) == 9
    assert bound_a1_from_eta(30, 7, 1, 1, 4, 2, 36) == 3


def test_bound_a1_needs_thick_window():
    with pytest.raises(LemmaViolation):
        bound_a1_from_eta(10, 1, 1, 4, 1, 0, 36)


def test_bound_a2_formulas():
    assert bound_a2_from_eta(50, 15, 3, 4, 1, 0, 36) == 49
    assert bound_a2_from_eta(19, 6, 2, 4, 1, 0, 36) == 18
    assert bound_a2_from_eta(102, 17, 8, 4, 3, 1, 36) == 304
    assert bound_a2_from_eta(25, 7, 2, 1, 4, 2, 36, tight_window=True) == 90


def test_bound_a2_guards():
    with pytest.raises(LemmaViolation):
        bound_a2_from_eta(10, 1, 4, 4, 1, 0, 36)  # eta too small
    with pytest.raises(LemmaViolation):
        bound_a2_from_eta(50, 15, 3, 4, 1, 0, 1)  # c side fails


def test_t_bound_step_matches_clauses():
    assert t_bound_step(CASES[1], 1, 1, 1) == 15
    assert t_bound_step(CASES[1], 45, 49, 2) == 6
    assert t_bound_step(CASES[1], 2, 18, 3) == 4
    assert t_bound_step(CASES[2], 9, 88, 7) == 6
    assert t_bound_step(CASES[3], 3, 90, 11) == 6
    assert t_bound_step(CASES[4], 580, 1492, 13) == 9


def test_t_bound_step_rejects_shape_mismatch():
    with pytest.raises(LemmaViolation, match="shape"):
        t_bound_step(CASES[1], 45, 49, 5)  # clause 5 has kappa = 3 shape


def test_replay_checks_raise_under_optimize():
    """Every proof-step check of t_bound_step and replay_case raises
    LemmaViolation, also when asserts are stripped: a clause of the wrong
    shape or constant, a failed base case, induction or sharpness, a
    clause that does not tighten t, an eta window off the current t bound,
    too few eta hits for the two-representations and conductor steps, and
    the case 4 conductor step off its window or off its ray.  (Under -O
    the shape mismatch used to return t <= 8.)"""
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
        "    lambda: t_bound_step(CASES[1], 45, 49, 5),\n"
        "    lambda: t_bound_step(CASES[1], 2, 1, 1),\n"
        "    lambda: t_bound_step(CASES[1], 45, 50, 2),\n"
        "    lambda: patched('verify_inequality', lambda i, t: (0, 0, False),\n"
        "                    lambda: t_bound_step(CASES[1], 1, 1, 1)),\n"
        "    lambda: patched('certify_all_t', lambda i: (0, 0, False),\n"
        "                    lambda: t_bound_step(CASES[1], 1, 1, 1)),\n"
        "    lambda: patched('verify_inequality', lambda i, t: (0, 0, True),\n"
        "                    lambda: t_bound_step(CASES[1], 1, 1, 1)),\n"
        "    lambda: replay_case(case(1, *one[:4], one[3])),\n"
        "    lambda: replay_case(case(1, one[0], ('a1_two_reps', {'n': 49, 's': 14}))),\n"
        "    lambda: patched('eta', lambda n, s: 1, lambda: replay_case(CASES[1])),\n"
        "    lambda: patched('eta', lambda n, s: 8, lambda: replay_case(\n"
        "        case(1, one[0], ('c_eta', {'n': 20, 's': 15})))),\n"
        "    lambda: replay_case(case(4, *four[:4], ('c_case4', {'n': 61, 's': 9}))),\n"
        "    lambda: patched('case4_step3_check', lambda c, e: True,\n"
        "                    lambda: replay_case(CASES[4])),\n"
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
    want = ["clause 5 shape does not match case 1", "cubic clause 1 needs",
            "clause 2 constant 2205 != 45 * 50", "fails at its own base case",
            "ratio induction not certified", "already holds at t0 - 1",
            "clause 2 gives t <= 6, not below", "needs s = t_bound = 15",
            "needs two hits", "eta(20,15) = 8 <= 8", "got eta(61, 9)",
            "not the ray"]
    lines = proc.stdout.splitlines()
    assert len(lines) == len(want), lines
    for line, fragment in zip(lines, want):
        assert line.startswith("LemmaViolation:") and fragment in line, line


def test_case4_conductor_ray():
    e = eta(60, 9)
    assert not case4_step3_check(355, e)
    assert case4_step3_check(356, e)
    assert case4_step3_check(10**6, e)
    first = next(c for c in range(1, 400) if case4_step3_check(c, e))
    assert first == 356
    assert all(case4_step3_check(c, e) for c in range(356, 500))
    # 18 represented values fit the 3*3*2 slots: no contradiction at any c
    assert not case4_step3_check(10**6, 2 * 3 * 3)


# ---------------------------------------------------------------------------
# congruence classes and the c -> m inversion


def test_m_bound_from_c_per_family():
    assert m_bound_from_c(CongruenceClass("odd", True, 4), 74) == 35
    assert m_bound_from_c(CongruenceClass("2mod4", True, 2), 36) == 38
    assert m_bound_from_c(CongruenceClass("odd", False, 4), 290) == 147
    assert m_bound_from_c(CongruenceClass("2mod4", False, 2), 144) == 142
    assert m_bound_from_c(CongruenceClass("0mod4", True, 1), 96) == 188
    assert m_bound_from_c(CongruenceClass("0mod4", False, 1), 355) == 712


@given(st.sampled_from([("odd", 4), ("2mod4", 2), ("0mod4", 1)]),
       st.booleans(), st.integers(min_value=36, max_value=3000))
def test_m_bound_membership_and_maximality(tag_delta, three, c_bound):
    tag, delta = tag_delta
    cls = CongruenceClass(tag, three, delta)
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
    assert len(calls) == 34
    assert calls.count((60, 9)) == 1


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
    # all need at least one forced representation in the window)
    for case in CASES.values():
        for op, kw in case.schedule:
            if op in ("a1_eta", "a2_eta", "c_eta", "c_case4", "a1_two_reps"):
                assert eta(kw["n"], kw["s"]) > 0, (case.case_id, op, kw)
