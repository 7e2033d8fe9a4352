"""Exact-arithmetic checks of the thirteen prime-product inequalities."""

import json
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest
import sympy
from hypothesis import given, strategies as st

from mgonal.numth import _prime_from_5
from mgonal.prodineq import (
    CLAUSES,
    IMPLICATIONS,
    certify_all_t,
    check_implications,
    lhs,
    min_slack,
    rhs,
    verify_induction_step,
    verify_inequality,
    w_factor,
)


def _golden():
    path = resources.files("mgonal") / "data" / "ineq_base.json"
    return json.loads(path.read_text())["base_cases"]


def test_base_cases_match_golden():
    for row in _golden():
        left, right, holds = verify_inequality(row["clause"], row["t0"])
        assert (left, right) == (row["lhs"], row["rhs"])
        assert holds


def test_clause_one_base_constants():
    left, right, holds = verify_inequality(1, 16)
    assert left == 12091972151626183
    assert right == ((16 + 3) * 2 ** (16 - 3)) ** 3 == 3770775127457792
    assert holds


def test_lhs_is_a_plain_prime_product():
    # independent recomputation: r_i is the i-th prime >= 5
    for index, t in [(1, 16), (3, 5), (13, 10), (7, 12)]:
        spec = CLAUSES[index]
        prod = 1
        for i in range(spec.lower, t + 1):
            prod *= sympy.prime(i + 2)
        assert lhs(index, t) == prod


def test_all_clauses_hold_through_forty():
    for index in CLAUSES:
        for t in range(CLAUSES[index].t0, 41):
            assert verify_inequality(index, t)[2], (index, t)


def test_thresholds_are_sharp():
    # one step below the stated threshold every clause fails
    for index, spec in CLAUSES.items():
        assert spec.t0 - 1 >= spec.lower
        assert not verify_inequality(index, spec.t0 - 1)[2], index


def test_induction_steps():
    for index in CLAUSES:
        assert verify_induction_step(index, CLAUSES[index].t0 + 30)


def test_integer_induction_step_matches_rational_ratio():
    # RHS(u+1) < r_{u+1} RHS(u) in integers against the ratio as a Fraction
    for index, spec in CLAUSES.items():
        for u in range(spec.t0, spec.t0 + 41):
            want = all(Fraction(rhs(index, v + 1), rhs(index, v)) < _prime_from_5(v + 1)
                       for v in range(spec.t0, u + 1))
            assert verify_induction_step(index, u + 1) == want, (index, u)


def test_single_certificate_covers_all_t():
    for index in CLAUSES:
        bound, r_next, ok = certify_all_t(index)
        assert ok and bound < r_next
        # the certificate really dominates the stepwise RHS ratios
        for u in range(CLAUSES[index].t0, CLAUSES[index].t0 + 25):
            assert Fraction(rhs(index, u + 1), rhs(index, u)) <= bound


def test_certificate_matches_the_fraction_formula():
    """The integer certificate returns the bound of the module docstring,
    rho (1 + (-b)(1 - 1/rho) / (a W(t0) + b)) to the k, computed here as a
    chain of Fractions, and the same verdict."""
    for index, spec in CLAUSES.items():
        rho = Fraction(2 * (spec.t0 + 4), spec.t0 + 3)
        core0 = spec.a * (spec.t0 + 3) * 2 ** (spec.t0 - 3) + spec.b
        bound = (rho * (1 + Fraction(-spec.b) * (1 - 1 / rho) / core0)) ** spec.k
        r_next = sympy.prime(spec.t0 + 3)
        assert certify_all_t(index) == (bound, r_next, bound < r_next), index


def test_min_slack_exceeds_one():
    for index in CLAUSES:
        assert min_slack(index, CLAUSES[index].t0 + 10) > 1


@given(st.integers(min_value=3, max_value=200))
def test_w_factor_growth(t):
    assert w_factor(t) == (t + 3) * 2 ** (t - 3)
    assert Fraction(w_factor(t + 1), w_factor(t)) == Fraction(2 * (t + 4), t + 3)


def test_implications_dominate_and_propagate():
    assert check_implications(40)
    for i_from, i_to in IMPLICATIONS:
        t0 = CLAUSES[i_from].t0
        for t in range(t0, 30):
            if verify_inequality(i_from, t)[2]:
                assert verify_inequality(i_to, t)[2], (i_from, i_to, t)


def test_rejects_empty_product():
    with pytest.raises(ValueError, match=r"clause 1: t = 5 .* lower index 7"):
        lhs(1, 5)  # clause 1 starts at r_7
    with pytest.raises(ValueError, match=r"t = 2"):
        w_factor(2)


@pytest.mark.parametrize("call", [
    lambda: verify_inequality(0, 10), lambda: certify_all_t(99),
    lambda: verify_induction_step(14, 20), lambda: lhs(-1, 16),
    lambda: rhs(14, 16), lambda: min_slack(0, 20),
], ids=["verify_inequality", "certify_all_t", "verify_induction_step", "lhs",
        "rhs", "min_slack"])
def test_unknown_clause_is_refused(call):
    with pytest.raises(ValueError, match=r"clause must be one of 1\.\.13"):
        call()


def test_clause_number_must_be_an_integer():
    """A float is not taken for the clause of the same value."""
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        lhs(1.0, 16)


def test_prime_table_agrees_with_sympy():
    assert [_prime_from_5(i) for i in range(1, 30)] == [
        sympy.prime(i + 2) for i in range(1, 30)]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_induction_step_rejects_t_max_below_threshold(flags):
    """t_max < t0 in the induction step and t_hi < t0 in the slack raise
    ValueError, also when asserts are stripped (under -O the induction
    step used to return True; the slack raised "min() arg is an empty
    sequence")."""
    script = ("from mgonal.prodineq import min_slack, verify_induction_step\n"
              "for call in (lambda: verify_induction_step(1, 3),\n"
              "             lambda: min_slack(1, 5)):\n"
              "    try:\n        print(call())\n"
              "    except ValueError as exc:\n        print(exc)\n")
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "clause 1: t_max = 3 is below the threshold t0 = 16",
        "clause 1: t_hi = 5 is below the threshold t0 = 16"]
