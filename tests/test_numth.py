"""numth against sympy oracles and arithmetic identities, plus the
square-class labels that the local engine builds on them."""

import math
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, strategies as st

from mgonal.localrep import (_lattice_key, _order_and_class,
                             _progression_exponent, hensel_exponent)
from mgonal.numth import (
    _check_prime,
    _prime_from_5,
    is_prime,
    multiplicative_order,
    ord_p,
    prime_divisors,
    primes,
)


def test_primes_against_sympy():
    want = list(sympy.primerange(2, 500))
    got = []
    for p in primes():
        if p >= 500:
            break
        got.append(p)
    assert got == want


@given(st.integers(min_value=-10, max_value=10**6))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_prime_seq_indexing():
    # r_i is the i-th prime >= 5: r_1 = 5, r_2 = 7, ...
    for i in range(1, 60):
        assert _prime_from_5(i) == sympy.prime(i + 2)


def test_ord_p_rejects_p_below_two():
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            ord_p(12, p)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorization_matches_sympy(n):
    assert prime_divisors(n) == sorted(sympy.factorint(n))


def _unit_class(u, p):
    """The class index in the lattice key of <u>."""
    return _lattice_key([u], p)[0][1]


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda u: u != 0),
       st.integers(min_value=0, max_value=40),
       st.sampled_from([2, 3, 5, 7, 11, 13, 97, 1009, 4093,
                        4099, 65537, 2 ** 31 - 1, 4294967311]))
def test_order_and_class_matches_sympy(u, k, p):
    """The label (ord_p a, i) of a = p^k u, signed and deep: the unit part
    of a is 2 i + 1 mod 8 at 2, and i is 1 exactly for a nonsquare unit
    part at odd p, small primes and primes past 2^31.5 alike."""
    a = p ** k * u
    e, i = _order_and_class(a, p)
    assert e == k + ord_p(u, p)
    unit = a // p ** e
    if p == 2:
        assert 2 * i + 1 == unit % 8
    else:
        assert i == (not sympy.is_quad_residue(unit, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 709, 4194301])  # 2^22 - 3
def test_order_and_class_matches_a_reference_beyond_int64(p):
    """The label of a = +-p^k u against ord_p, then u mod 8 at 2 and
    Euler's criterion at odd p, for every |a| <= 2^200: small units of
    both classes and large ones, at every order k that fits."""
    def reference(a):
        e = ord_p(a, p)
        u = a // p ** e
        if p == 2:
            return e, u % 8 >> 1
        return e, int(pow(u, (p - 1) // 2, p) != 1)

    units = [u for u in range(1, 40) if u % p][:16]
    units += [u for u in (2 ** 64 + 1, 3 ** 90 + 2, 10 ** 50 + 7, 2 ** 200 - 1)
              if u % p]
    entries = [sign * p ** k * u for u in units for sign in (1, -1)
               for k in range(201) if p ** k * u <= 2 ** 200]
    assert max(entries) > 2 ** 199 and min(entries) < -2 ** 199
    assert [_order_and_class(a, p) for a in entries] == list(map(reference, entries))


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_order_and_class_rejects_zero_and_p_below_two(flags):
    """a = 0 and p in {0, 1} raise ord_p's ValueError, also when asserts
    are stripped; the timeout turns a hang at p = 1 into a failure."""
    script = ("from mgonal.localrep import _order_and_class\n"
              "for a, p in [(0, 2), (0, 3), (12, 0), (12, 1), (-7, 1), (0, 1)]:\n"
              "    try:\n        print(_order_and_class(a, p))\n"
              "    except ValueError as exc:\n        print(exc)\n")
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ord_p(0) is infinite", "ord_p(0) is infinite",
        "ord_p needs p >= 2, got 0", "ord_p needs p >= 2, got 1",
        "ord_p needs p >= 2, got 1", "ord_p needs p >= 2, got 1"]


@given(st.integers(min_value=1, max_value=300),
       st.sampled_from([3, 5, 7, 11, 13, 17]))
def test_unit_class_rep_squares(u, p):
    # u and u * (square) land on the same representative
    if u % p == 0:
        return
    for w in range(1, p):
        assert _unit_class(u, p) == _unit_class(u * w * w, p)


def test_unit_class_rep_distinguishes():
    # at an odd prime there are exactly two unit square classes
    for p in [3, 5, 7, 11, 13]:
        reps = {_unit_class(u, p) for u in range(1, p)}
        assert len(reps) == 2
    # at 2 the classes are the odd residues mod 8
    reps2 = {_unit_class(u, 2) for u in range(1, 32, 2)}
    assert len(reps2) == 4


@given(st.sampled_from([3, 5, 7, 9, 11, 13, 25, 27, 49,
                        2 ** 26 + 15, 2 ** 31 - 1]),
       st.integers(min_value=2, max_value=100))
def test_multiplicative_order_matches_sympy(m, a):
    # orders at 2^26 + 15 and 2^31 - 1 reach 6.7 * 10^7 and 2.1 * 10^9,
    # out of reach of a walk through the powers of a
    if math.gcd(a, m) != 1:
        return
    assert multiplicative_order(a, m) == sympy.n_order(a, m)


def test_bad_arguments_raise_named_errors_under_optimize():
    """With asserts stripped, multiplicative_order(2, 4) and (3, 1) used to
    loop forever, and m = 2 gave polygonal constants (c = 0) and numbers.
    Each raises ValueError naming the argument; the timeout turns a hang
    into a failure."""
    script = (
        "from mgonal.numth import multiplicative_order\n"
        "from mgonal.polygonal import constants, polygonal_number\n"
        "for call in (lambda: multiplicative_order(2, 4),\n"
        "             lambda: multiplicative_order(3, 1),\n"
        "             lambda: constants(2),\n"
        "             lambda: polygonal_number(2, 3)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "multiplicative_order needs a coprime to m, got a = 2, m = 4",
        "multiplicative_order needs a modulus m >= 2, got 1",
        "polygonal index must be >= 3, got 2",
        "polygonal index must be >= 3, got 2"]


def test_preconditions_raise_named_errors_under_optimize():
    """With asserts stripped, a short coordinate vector gave an m-gonal
    value, r(0) and r(-1) of the primes >= 5 gave 3 and 2, and the minimum of
    unnormalized shifts was 243 where the least value is 3.  Each raises
    ValueError naming the input."""
    script = (
        "from mgonal.numth import _prime_from_5\n"
        "from mgonal.polygonal import MGonalForm, ShiftedForm\n"
        "for call in (lambda: MGonalForm(5, (1, 2, 3)).value((1,)),\n"
        "             lambda: _prime_from_5(0),\n"
        "             lambda: _prime_from_5(-1),\n"
        "             lambda: ShiftedForm(10, (1, 1, 1), (9, 9, 9)).minimum()):\n"
        "    try:\n"
        "        print(call())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "need 3 coordinates, got (1,)",
        "r_i is 1-based, got r(0)",
        "r_i is 1-based, got r(-1)",
        "minimum needs normalized shifts, got (9, 9, 9); apply "
        "normalize_shifts first"]


@pytest.mark.parametrize("call", [
    lambda: is_prime(7.5),
    lambda: _check_prime(7.5),
    lambda: hensel_exponent((1, 2, 3), 5, 7.5),
    lambda: _progression_exponent(15, 5.0),
    lambda: prime_divisors(10.0),
    lambda: ord_p(2.5, 2),
    lambda: ord_p(12, 2.0),
], ids=["is_prime", "check_prime", "hensel_exponent", "progression_exponent",
        "prime_divisors", "ord_p-n", "ord_p-p"])
def test_float_arguments_are_refused(call):
    """A float is no integer: 7.5 passed as a prime, and prime_divisors(10.0)
    gave [2, 5.0]."""
    with pytest.raises(TypeError):
        call()
