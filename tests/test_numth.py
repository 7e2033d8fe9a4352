"""numth against sympy oracles and arithmetic identities, plus the
square-class labels that the local engine builds on them."""

import math
import subprocess
import sys

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from mgonal.localrep import (_SQUARE_TABLE_LIMIT, _lattice_key, _order_and_class,
                             _orders_and_classes)
from mgonal.numth import (
    RS,
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
        assert RS.r(i) == sympy.prime(i + 2)


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
       st.sampled_from([2, 3, 5, 7, 11, 13, 97, 1009, 4093,  # square table
                        4099, 65537, 2 ** 31 - 1, 4294967311]))  # Euler
def test_order_and_class_matches_sympy(u, k, p):
    """The label (ord_p a, i) of a = p^k u, signed and deep: the unit part
    of a is 2 i + 1 mod 8 at 2, i is 1 exactly for a nonsquare unit part
    at odd p, and the array helper gives the same label, on both sides of
    its square-table limit and past 2^31.5, where Euler's criterion leaves
    int64."""
    assert 4093 < _SQUARE_TABLE_LIMIT < 4099
    while k and abs(p ** k * u) >= 2 ** 63:
        k -= 1  # the deepest a = p^k u that fits in int64
    a = p ** k * u
    e, i = _order_and_class(a, p)
    assert e == k + ord_p(u, p)
    unit = a // p ** e
    if p == 2:
        assert 2 * i + 1 == unit % 8
    else:
        assert i == (not sympy.is_quad_residue(unit, p))
    ks, cs = _orders_and_classes(np.array([a], dtype=np.int64), p)
    assert (int(ks[0]), int(cs[0])) == (e, i)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 61, 4093,  # residue table
                               4099, 65537, 4294967311])  # Euler
def test_orders_and_classes_match_the_scalar_label(p):
    """The array labels equal `_order_and_class` entry by entry, for arrays
    large enough to get the largest residue table mod P = p^J <= 2^12
    and for short ones, which get smaller tables (down to P = p): p^k u of
    either sign for every order k that fits in int64, so the orders J - 1,
    J, J + 1 and deeper of each table, units of both classes, every
    residue up to 5,000, and at 2 the extremes +-2^62 and -2^63."""
    units = [u for u in range(1, 30) if u % p][:12]
    entries = [sign * p ** k * u for u in units for sign in (1, -1)
               for k in range(64) if p ** k * u < 2 ** 63]
    entries += list(range(1, 5001))
    if p == 2:
        entries += [2 ** 62, -2 ** 62, -2 ** 63, 2 ** 63 - 1, -2 ** 63 + 1]
    J = 1
    while p ** (J + 1) <= _SQUARE_TABLE_LIMIT:
        J += 1
    assert p >= _SQUARE_TABLE_LIMIT or {J - 1, J, J + 1} <= {
        ord_p(a, p) for a in entries}
    want = [_order_and_class(a, p) for a in entries]
    N = np.array(entries, dtype=np.int64)
    for size in (len(N), 700, 40, 1):
        got = []
        for lo in range(0, len(N) if size > 1 else 300, size):
            ks, cs = _orders_and_classes(N[lo:lo + size], p)
            got += zip(ks.tolist(), cs.tolist())
        assert got == want[:len(got)], size


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


@given(st.sampled_from([3, 5, 7, 9, 11, 13, 25, 27, 49]),
       st.integers(min_value=2, max_value=100))
def test_multiplicative_order_matches_sympy(m, a):
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
    value, RS.r(0) and RS.r(-1) gave 3 and 2, and the minimum of
    unnormalized shifts was 243 where the least value is 3.  Each raises
    ValueError naming the input."""
    script = (
        "from mgonal.numth import RS\n"
        "from mgonal.polygonal import MGonalForm, ShiftedForm\n"
        "for call in (lambda: MGonalForm(5, (1, 2, 3)).value((1,)),\n"
        "             lambda: RS.r(0),\n"
        "             lambda: RS.r(-1),\n"
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
        "PrimeSeq is 1-based, got r(0)",
        "PrimeSeq is 1-based, got r(-1)",
        "minimum needs normalized shifts, got (9, 9, 9); apply "
        "normalize_shifts first"]
