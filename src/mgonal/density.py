"""Counting functions for p-adic representation exceptions.

For an odd prime p, a p-stable ternary diagonal lattice L, u coprime to p
and arbitrary v, the number of 1 <= n <= p^s with u n + v not represented
by L over Z_p is at most

    (p^s + p + 2) / (2p + 2)   (s odd),
    (p^s + 2p + 1) / (2p + 2)  (s even).

psi_p extends this bound from prime powers to arbitrary windows [1, n] by
base-p digits, and eta(n, s) aggregates the worst s primes >= 5:

    eta(n, s) = min over s-element prime sets P' of ( n - sum psi_p(n) ),

i.e. a guaranteed count of represented values in any window of length n of
an arithmetic progression, no matter which s primes act as obstructions.
Everything is computed in exact rational arithmetic; the encountered
values all happen to be integers, but integrality is asserted rather than
assumed.
"""

import math
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .localrep import _entries, is_stable, represents_over_zp_many
from .numth import RS, is_prime


def _check_prime(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime >= 5, got {p}")


def psi_prime_power(p: int, s: int) -> Fraction:
    """The exception-count bound for the window [1, p^s]."""
    _check_prime(p)
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if s % 2 == 1:
        return Fraction(p ** s + p + 2, 2 * p + 2)
    return Fraction(p ** s + 2 * p + 1, 2 * p + 2)


def psi(p: int, n: int) -> Fraction:
    """Exception-count bound for the window [1, n], via base-p digits.

    With n = b_e ... b_1 b_0 in base p:  sum_s b_s psi_p(p^s), plus 1 when
    b_0 != 0.  For n < p this is 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_prime(p)
    digits = []
    t = n
    while t:
        digits.append(t % p)
        t //= p
    total = Fraction(1 if digits[0] else 0)
    for s in range(1, len(digits)):
        if digits[s]:
            total += digits[s] * psi_prime_power(p, s)
    return total


def psi_values_desc(n: int, count: int) -> List[Fraction]:
    """The `count` largest values of psi_p(n) over primes p >= 5.

    Primes p > n all give psi_p(n) = 1 (single base-p digit), so the
    enumeration stops at n and pads with 1s — the result is independent of
    any larger cutoff.
    """
    vals = [psi(p, n) for p in RS.upto(n)]
    vals.sort(reverse=True)
    if len(vals) < count:
        vals += [Fraction(1)] * (count - len(vals))
    return vals[:count]


def eta(n: int, s: int) -> int:
    """n minus the sum of the s largest psi_p(n), p >= 5.

    Minimizing n - sum_{p in P'} psi_p(n) over all s-element prime sets P'
    is the same as picking the s largest psi values (the sum is separable);
    the tests re-check this against literal subset enumeration on small
    inputs.  The result is integral on every input we touch; asserted.
    """
    if n < 1 or s < 1:
        raise ValueError(f"need n >= 1 and s >= 1, got n = {n}, s = {s}")
    total = sum(psi_values_desc(n, s), Fraction(0))
    out = n - total
    assert out.denominator == 1, f"eta({n},{s}) = {out} is not integral"
    return int(out)


def exception_count_check(p: int, s: int, L, u: int, v: int
                          ) -> Tuple[int, Fraction, bool]:
    """Brute-force the exception count against its psi bound.

    Counts n in [1, p^s] with u n + v not represented by L over Z_p and
    compares with the parity-dependent bound.  L must be p-stable (the
    bound says nothing about unstable lattices) and u coprime to p.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if math.gcd(u, p) != 1:
        raise ValueError(f"u = {u} must be coprime to p = {p}")
    entries = _entries(L)
    if not is_stable(entries, p):
        raise ValueError(f"<{','.join(map(str, entries))}> is not {p}-stable")
    if abs(u) * p ** s + abs(v) >= 2 ** 63:
        raise ValueError("targets u n + v overflow int64")
    targets = u * np.arange(1, p ** s + 1, dtype=np.int64) + v
    count = int(np.count_nonzero(~represents_over_zp_many(entries, targets, p)))
    if s % 2 == 1:
        bound = Fraction(p ** s + p + 2, 2 * p + 2)
    else:
        bound = Fraction(p ** s + 2 * p + 1, 2 * p + 2)
    return count, bound, count <= bound
