"""Exact number-theoretic primitives used across the package.

Everything here is integer-exact (no floats).  The descent arguments only
ever meet the primes >= 5 — the sequence r_1 = 5, r_2 = 7, r_3 = 11, ... —
so `PrimeSeq` exposes 1-based indexing into that sequence, but the
underlying cache also serves 2 and 3 for the local engines.
"""

from __future__ import annotations

import math
from typing import Iterator, List


_PRIMES: List[int] = [2, 3, 5, 7, 11, 13]


def _extend_primes() -> None:
    # grow the cache by roughly 50%, simple trial division (plenty fast for
    # the sizes this package needs: a few thousand primes at most)
    n = _PRIMES[-1]
    target = len(_PRIMES) + max(16, len(_PRIMES) // 2)
    while len(_PRIMES) < target:
        n += 2
        for p in _PRIMES:
            if p * p > n:
                _PRIMES.append(n)
                break
            if n % p == 0:
                break


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (intended for small n)."""
    if n < 2:
        return False
    while _PRIMES[-1] * _PRIMES[-1] < n:
        _extend_primes()
    for p in _PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return True


def _check_prime(p: int, least: int = 2) -> None:
    """Raise ValueError unless p is a prime >= least; the one check of a
    prime argument in the package."""
    if p < least or not is_prime(p):
        at_least = f" >= {least}" if least > 2 else ""
        raise ValueError(f"p must be a prime{at_least}, got {p}")


def primes() -> Iterator[int]:
    """All primes 2, 3, 5, 7, ... (unbounded iterator)."""
    i = 0
    while True:
        while i >= len(_PRIMES):
            _extend_primes()
        yield _PRIMES[i]
        i += 1


class PrimeSeq:
    """The primes >= 5 with 1-based indexing: r(1) = 5, r(2) = 7, r(3) = 11.

    Instances share the module-wide prime cache, so they are cheap and can
    be handed around freely.
    """

    def r(self, i: int) -> int:
        if i < 1:
            raise ValueError(f"PrimeSeq is 1-based, got r({i})")
        while i + 1 >= len(_PRIMES):
            _extend_primes()
        return _PRIMES[i + 1]  # skip 2 and 3


RS = PrimeSeq()


def ord_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if p < 2:
        raise ValueError(f"ord_p needs p >= 2, got {p}")
    if n == 0:
        raise ValueError("ord_p(0) is infinite")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def prime_divisors(n: int) -> List[int]:
    """Sorted prime divisors of n != 0, by trial division."""
    if n == 0:
        raise ValueError("prime_divisors(0)")
    n = abs(n)
    out = []
    for p in primes():
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(a: int, m: int) -> int:
    """Least j >= 1 with a^j = 1 mod m.  Raises ValueError unless m >= 2
    and gcd(a, m) = 1, the cases where no such j exists or m is no modulus.

    The order divides phi(m) (Euler), so it is phi(m) with each prime q
    divided out for as long as a^(j / q) = 1 still holds: a q-power above
    the order's leaves a multiple of the order, one at it does not.  Two
    factorizations by trial division, of m and of phi(m), instead of a
    walk through the powers of a."""
    if m < 2:
        raise ValueError(f"multiplicative_order needs a modulus m >= 2, got {m}")
    if math.gcd(a, m) != 1:
        raise ValueError(f"multiplicative_order needs a coprime to m, got "
                         f"a = {a}, m = {m}")
    j = m
    for p in prime_divisors(m):
        j = j // p * (p - 1)
    for q in prime_divisors(j):
        while j % q == 0 and pow(a, j // q, m) == 1:
            j //= q
    return j
