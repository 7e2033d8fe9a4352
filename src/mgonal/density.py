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

Both bounds are integers, so everything here is computed in exact integer
arithmetic.  Proof: p is odd, so p - 1 is even and p^2 - 1 = (p - 1)(p + 1)
is a multiple of 2(p + 1) = 2p + 2, i.e. p^2 = 1 (mod 2p + 2).  Hence
p^s = p for odd s and p^s = 1 for even s (mod 2p + 2), so the numerators
p^s + p + 2 (s odd) and p^s + 2p + 1 (s even) are both = 2p + 2 = 0
(mod 2p + 2).  psi and eta are sums and differences of these quotients
and integers.
"""

import math
from typing import List, Sequence, Tuple

import numpy as np

from .localrep import is_stable, represents_over_zp_many
from .numth import RS, _check_prime


def _prime_power_bound(p: int, s: int) -> int:
    """psi_p(p^s) for an odd prime p and s >= 1, unchecked; exact by the
    integrality proof in the module docstring."""
    return (p ** s + (p + 2 if s % 2 else 2 * p + 1)) // (2 * p + 2)


def psi_prime_power(p: int, s: int) -> int:
    """The exception-count bound for the window [1, p^s]."""
    _check_prime(p, 5)
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    return _prime_power_bound(p, s)


def psi(p: int, n: int) -> int:
    """Exception-count bound for the window [1, n], via base-p digits.

    With n = b_e ... b_1 b_0 in base p:  sum_s b_s psi_p(p^s), plus 1 when
    b_0 != 0.  For n < p this is 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_prime(p, 5)
    return _psi(p, n)


def _psi(p: int, n: int) -> int:
    """psi_p(n) for a prime p >= 5 and n >= 1, unchecked."""
    q, b = divmod(n, p)
    total, s = (1 if b else 0), 1
    while q:
        q, b = divmod(q, p)
        if b:
            total += b * _prime_power_bound(p, s)
        s += 1
    return total


def _psi_desc(n: int) -> List[int]:
    """psi_p(n) for every prime 5 <= p <= n, largest first."""
    return sorted((_psi(p, n) for p in RS.upto(n)), reverse=True)


def psi_values_desc(n: int, count: int) -> List[int]:
    """The `count` largest values of psi_p(n) over primes p >= 5.

    Primes p > n all give psi_p(n) = 1 (single base-p digit), so the
    enumeration stops at n and pads with 1s — the result is independent of
    any larger cutoff.
    """
    if n < 1 or count < 1:
        raise ValueError(f"need n >= 1 and count >= 1, got n = {n}, count = {count}")
    vals = _psi_desc(n)[:count]
    return vals + [1] * (count - len(vals))


def eta(n: int, s: int) -> int:
    """n minus the sum of the s largest psi_p(n), p >= 5.

    Minimizing n - sum_{p in P'} psi_p(n) over all s-element prime sets P'
    is the same as picking the s largest psi values (the sum is separable);
    the tests re-check this against literal subset enumeration on small
    inputs.  Each of the s - #{5 <= p <= n} primes beyond n contributes
    psi = 1, so the cost does not grow with s.
    """
    if n < 1 or s < 1:
        raise ValueError(f"need n >= 1 and s >= 1, got n = {n}, s = {s}")
    vals = _psi_desc(n)
    return n - sum(vals[:s]) - max(0, s - len(vals))


def exception_count_check(p: int, s: int, coeffs: Sequence[int], u: int,
                          v: int) -> Tuple[int, int, bool]:
    """Brute-force the exception count against its psi bound.

    Counts n in [1, p^s] with u n + v not represented by <coeffs> over Z_p
    and compares with the parity-dependent bound.  The lattice must be
    p-stable (the bound says nothing about unstable lattices) and u
    coprime to p.
    """
    _check_prime(p, 3)
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if math.gcd(u, p) != 1:
        raise ValueError(f"u = {u} must be coprime to p = {p}")
    if not is_stable(coeffs, p):
        raise ValueError(f"<{','.join(map(str, coeffs))}> is not {p}-stable")
    if abs(u) * p ** s + abs(v) >= 2 ** 63:
        raise ValueError("targets u n + v overflow int64")
    targets = u * np.arange(1, p ** s + 1, dtype=np.int64) + v
    count = int(np.count_nonzero(~represents_over_zp_many(coeffs, targets, p)))
    bound = _prime_power_bound(p, s)
    return count, bound, count <= bound
