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

Only few primes can rank among the s largest psi_p(n).  Once p^2 > n, n has
at most two base-p digits, n = q p + b, and psi_p(p) = 1, so
psi_p(n) = q + [b != 0] = ceil(n / p), which never increases with p.  So the
s largest values lie among the primes p <= sqrt(n) and the first s primes
above sqrt(n).  eta and psi_values_desc evaluate psi at just those, by its
digits below sqrt(n) and as ceil(n / p) above: O(pi(sqrt n) + s)
evaluations instead of pi(n).  The primes p > n (psi_p(n) = 1) are counted,
not listed.

Both bounds are integers, so everything here is computed in exact integer
arithmetic.  Proof: p is odd, so p - 1 is even and p^2 - 1 = (p - 1)(p + 1)
is a multiple of 2(p + 1) = 2p + 2, i.e. p^2 = 1 (mod 2p + 2).  Hence
p^s = p for odd s and p^s = 1 for even s (mod 2p + 2), so the numerators
p^s + p + 2 (s odd) and p^s + 2p + 1 (s even) are both = 2p + 2 = 0
(mod 2p + 2).  psi and eta are sums and differences of these quotients
and integers.
"""

import math
from itertools import islice
from operator import index
from typing import List, Sequence, Tuple

from .numth import _check_prime, primes


def _prime_power_bound(p: int, s: int) -> int:
    """psi_p(p^s) for an odd prime p and s >= 1, unchecked; exact by the
    integrality proof in the module docstring."""
    return (p ** s + (p + 2 if s % 2 else 2 * p + 1)) // (2 * p + 2)


def psi_prime_power(p: int, s: int) -> int:
    """The exception-count bound for the window [1, p^s]."""
    p, s = index(p), index(s)
    _check_prime(p, 5)
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    return _prime_power_bound(p, s)


def psi(p: int, n: int) -> int:
    """Exception-count bound for the window [1, n], via base-p digits.

    With n = b_e ... b_1 b_0 in base p:  sum_s b_s psi_p(p^s), plus 1 when
    b_0 != 0.  For n < p this is 1.
    """
    p, n = index(p), index(n)
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


def _psi_top(n: int, count: int) -> List[int]:
    """The largest psi_p(n) over primes 5 <= p <= n, largest first, at most
    `count` of them: psi is evaluated at the primes p <= sqrt(n) by its
    digits and at the first `count` primes sqrt(n) < p <= n as ceil(n / p)
    (module docstring)."""
    vals, above = [], 0
    for p in islice(primes(), 2, None):
        if p > n:
            break
        if p * p <= n:
            vals.append(_psi(p, n))
        elif above < count:
            vals.append(-(-n // p))
            above += 1
        else:
            break
    vals.sort(reverse=True)
    return vals[:count]


def psi_values_desc(n: int, count: int) -> List[int]:
    """The `count` largest values of psi_p(n) over primes p >= 5.

    Primes p > n all give psi_p(n) = 1 (single base-p digit), so the
    enumeration stops at n and pads with 1s — the result is independent of
    any larger cutoff.
    """
    n, count = index(n), index(count)
    if n < 1 or count < 1:
        raise ValueError(f"need n >= 1 and count >= 1, got n = {n}, count = {count}")
    vals = _psi_top(n, count)
    return vals + [1] * (count - len(vals))


def eta(n: int, s: int) -> int:
    """n minus the sum of the s largest psi_p(n), p >= 5.

    Minimizing n - sum_{p in P'} psi_p(n) over all s-element prime sets P'
    is the same as picking the s largest psi values (the sum is separable);
    the tests re-check this against literal subset enumeration on small
    inputs.  For p^2 > n, psi_p(n) = ceil(n / p) is non-increasing in p, so
    only the primes p <= sqrt(n) and the first s primes above sqrt(n) are
    evaluated: O(pi(sqrt n) + s) values, and at most pi(n) however large s
    is.  Each of the s - #{5 <= p <= n} primes beyond n contributes psi = 1
    and is counted, not listed.
    """
    n, s = index(n), index(s)
    if n < 1 or s < 1:
        raise ValueError(f"need n >= 1 and s >= 1, got n = {n}, s = {s}")
    vals = _psi_top(n, s)
    return n - sum(vals) - (s - len(vals))


def exception_count_check(p: int, s: int, coeffs: Sequence[int], u: int,
                          v: int) -> Tuple[int, int, bool]:
    """Brute-force the exception count against its psi bound.

    Counts n in [1, p^s] with u n + v not represented by <coeffs> over Z_p
    and compares with the parity-dependent bound.  The lattice must be
    p-stable (the bound says nothing about unstable lattices) and u
    coprime to p.  The targets run through a progression, so the count is
    the size of the range engine's exclusion bitset (`_exclusions`) over
    the window n - 1 = 0, ..., p^s - 1.
    """
    from .localrep import _exclusions, _lattice_key, is_stable

    p, s, u, v = index(p), index(s), index(u), index(v)
    _check_prime(p, 3)
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if math.gcd(u, p) != 1:
        raise ValueError(f"u = {u} must be coprime to p = {p}")
    if not is_stable(coeffs, p):
        raise ValueError(f"<{','.join(map(str, coeffs))}> is not {p}-stable")
    count = _exclusions(p, u, p ** s)(_lattice_key(coeffs, p), u + v).bit_count()
    bound = _prime_power_bound(p, s)
    return count, bound, count <= bound
