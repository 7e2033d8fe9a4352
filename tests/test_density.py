"""The exception-count bound psi, its digit extension, and the aggregated
window count eta -- checked against brute-force counting and literal subset
enumeration."""

import itertools
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from mgonal import density
from mgonal.density import (
    eta,
    exception_count_check,
    psi,
    psi_prime_power,
    psi_values_desc,
)


def test_psi_prime_power_formulas():
    # odd s: (p^s + p + 2) / (2p + 2); even s: (p^s + 2p + 1) / (2p + 2)
    assert psi_prime_power(5, 1) == Fraction(12, 12) == 1
    assert psi_prime_power(5, 2) == Fraction(36, 12) == 3
    assert psi_prime_power(7, 1) == Fraction(16, 16) == 1
    assert psi_prime_power(7, 2) == Fraction(64, 16) == 4
    assert psi_prime_power(5, 3) == Fraction(132, 12) == 11


def test_psi_digit_recomposition():
    """Integer psi against the rational digit formula, written out here
    (not through psi_prime_power) so no integrality is assumed: with
    n = b_e ... b_1 b_0 in base p, psi = [b_0 != 0] + sum_s b_s N_s / (2p + 2)
    with N_s = p^s + p + 2 (s odd), p^s + 2p + 1 (s even)."""
    for p in sympy.primerange(5, 98):
        for n in range(1, 10**4 + 1):
            num, t, s = 0, n // p, 1
            while t:
                num += (t % p) * (p ** s + (p + 2 if s % 2 else 2 * p + 1))
                t //= p
                s += 1
            assert psi(p, n) == Fraction(num, 2 * p + 2) + (1 if n % p else 0)


@given(st.sampled_from([5, 7, 11, 13]), st.integers(min_value=1, max_value=2000))
def test_psi_against_crude_cap(p, n):
    """Each block of p consecutive values contributes at most one exception
    in the s = 1 digit and more generally psi is below (n/p + small)."""
    assert psi(p, n) <= Fraction(n, p) + p


def test_psi_values_at_48():
    vals = psi_values_desc(48, 8)
    assert vals == [8, 7, 5, 4, 3, 3, 3, 2]
    # the maximizers, recomputed directly per prime
    per_prime = sorted((psi(p, 48) for p in sympy.primerange(5, 49)),
                       reverse=True)
    assert per_prime[:8] == vals


def test_psi_values_pad_independent_of_cutoff():
    # primes beyond n give psi = 1; asking for more values than primes <= n
    # pads with 1 and never depends on how far the list scans
    assert psi_values_desc(4, 3) == [1, 1, 1]


@given(st.integers(min_value=2, max_value=60),
       st.integers(min_value=1, max_value=6))
def test_eta_matches_subset_enumeration(n, s):
    """eta by literal minimization over s-element prime subsets, the
    defining expression."""
    primes = list(sympy.primerange(5, max(n, 5) + 1))
    vals = {p: psi(p, n) for p in primes}
    if len(primes) < s:
        best = sum(sorted(vals.values(), reverse=True), Fraction(0))
        best += Fraction(s - len(primes))
    else:
        best = max(
            sum((vals[p] for p in combo), Fraction(0))
            for combo in itertools.combinations(primes, s)
        ) if primes else Fraction(s)
    got = eta(n, s)
    assert got == n - best


def test_eta_pads_primes_beyond_n_without_listing_them():
    # psi = 1 for each of the s - 1 primes past the single prime 5 <= 5;
    # a padding list of 10^12 entries would not fit in memory
    assert eta(5, 10**12) == 5 - 10**12


def _psi_all_desc(n):
    """psi_p(n) over every prime 5 <= p <= n, largest first."""
    return sorted((psi(p, n) for p in sympy.primerange(5, n + 1)), reverse=True)


def test_eta_and_top_psi_values_match_full_enumeration():
    """eta and psi_values_desc read psi only at the primes <= sqrt(n) and
    the first s above; against psi at every prime 5 <= p <= n, padded with
    1s, for every n <= 3000 and at n = p^2, p^2 +- 1 up to p = 113."""
    squares = [q * q + d for q in sympy.primerange(5, 114) for d in (-1, 0, 1)]
    for n in [*range(1, 3001), *squares]:
        full = _psi_all_desc(n)
        for s in [*range(1, 17), 10 ** 6]:
            top = full[:s]
            assert eta(n, s) == n - sum(top) - (s - len(top)), (n, s)
        for count in (1, 8, 40):
            want = full[:count] + [1] * (count - len(full[:count]))
            assert psi_values_desc(n, count) == want, (n, count)


def test_eta_evaluates_psi_at_the_primes_that_can_rank(monkeypatch):
    """eta(10^6, 13) reads psi at most pi(1000) + 13 primes >= 5, by digits
    or as ceil(n / p), not at the 78,496 primes 5 <= p <= 10^6."""
    drawn = []
    inner = density.primes

    def counted():
        for p in inner():
            if p >= 5:
                drawn.append(p)
            yield p

    monkeypatch.setattr(density, "primes", counted)
    eta(10 ** 6, 13)
    assert len(drawn) <= sympy.primepi(1000) + 13


@given(st.integers(min_value=20, max_value=200),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_eta_monotone_in_s(n, s):
    # one more obstructing prime can only lower the guaranteed count
    assert eta(n, s + 1) <= eta(n, s)


def test_eta_table_entries():
    table = [
        (17, 8, 2), (19, 6, 5), (20, 4, 9), (25, 6, 9), (25, 7, 7),
        (28, 8, 7), (30, 7, 9), (48, 8, 13), (49, 15, 5), (49, 17, 3),
        (50, 15, 7), (50, 19, 3), (60, 9, 19), (74, 17, 7), (102, 17, 17),
        (125, 19, 25),
    ]
    for n, s, want in table:
        assert eta(n, s) == want, (n, s)


def test_psi_rejects_bad_primes():
    with pytest.raises(ValueError):
        psi(4, 10)
    with pytest.raises(ValueError):
        psi(3, 10)  # the bound is stated for p >= 5 only
    for bad in (lambda: psi(5, 0), lambda: psi_prime_power(5, 0),
                lambda: eta(0, 3), lambda: eta(10, 0),
                lambda: psi_values_desc(48, 0), lambda: psi_values_desc(48, -2),
                lambda: psi_values_desc(0, 3)):
        with pytest.raises(ValueError):
            bad()


@pytest.mark.parametrize("call", [
    lambda: psi(5, 10.5), lambda: psi(5.0, 10),
    lambda: psi_prime_power(5, 2.0), lambda: psi_prime_power(5.0, 2),
    lambda: psi_values_desc(48.0, 3), lambda: psi_values_desc(48, 3.0),
    lambda: eta(10.5, 2), lambda: eta(10, 2.5),
], ids=["psi-n", "psi-p", "psi_prime_power-s", "psi_prime_power-p",
        "psi_values_desc-n", "psi_values_desc-count", "eta-n", "eta-s"])
def test_float_arguments_are_refused(call):
    """A float is not taken for an integer: it does not come back as a
    float count or end in an unrelated error."""
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_exception_count_check_small():
    """The counting lemma on a couple of concrete stable lattices, with the
    brute-forced exception count returned for inspection."""
    count, bound, ok = exception_count_check(5, 1, (1, 2, 5), 1, 0)
    assert ok and count <= bound
    count, bound, ok = exception_count_check(5, 2, (1, 2, 5), 2, 1)
    assert ok and bound == Fraction(5**2 + 2 * 5 + 1, 12) == 3
    with pytest.raises(ValueError):
        exception_count_check(5, 1, (1, 2, 25), 1, 0)  # unstable lattice
    with pytest.raises(ValueError):
        exception_count_check(5, 1, (1, 2, 5), 2**62, 0)  # targets overflow int64


def test_exception_count_check_rejects_bad_input_under_optimize():
    # -O strips asserts: p, s and u must be checked by raised errors
    calls = ["(9, 1, (1, 2, 5), 1, 0)", "(2, 1, (1, 1, 1), 1, 0)",
             "(5, 0, (1, 2, 5), 1, 0)", "(5, 1, (1, 2, 5), 10, 0)"]
    script = ("from mgonal.density import exception_count_check as f\n"
              f"for args in [{', '.join(calls)}]:\n"
              "    try:\n"
              "        f(*args)\n"
              "    except ValueError:\n"
              "        print('ValueError')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 4
