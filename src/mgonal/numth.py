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
        assert i >= 1, "PrimeSeq is 1-based"
        while i + 1 >= len(_PRIMES):
            _extend_primes()
        return _PRIMES[i + 1]  # skip 2 and 3

    __call__ = r

    def first(self, t: int) -> List[int]:
        """[r_1, ..., r_t]."""
        return [self.r(i) for i in range(1, t + 1)]

    def upto(self, bound: int) -> List[int]:
        """All primes p with 5 <= p <= bound."""
        out = []
        for p in primes():
            if p > bound:
                return out
            if p >= 5:
                out.append(p)

    def __iter__(self) -> Iterator[int]:
        i = 1
        while True:
            yield self.r(i)
            i += 1


RS = PrimeSeq()


def nth_prime_ge5(i: int) -> int:
    """The i-th prime >= 5 (1-based): 1 -> 5, 3 -> 11, 7 -> 23."""
    return RS.r(i)


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


def unit_part(n: int, p: int) -> int:
    """n / p^ord_p(n), sign preserved."""
    return n // p ** ord_p(n, p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p; 0 if p | a."""
    assert p > 2 and is_prime(p), f"legendre needs an odd prime, got {p}"
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def smallest_nonresidue(p: int) -> int:
    """Least positive quadratic nonresidue mod an odd prime."""
    a = 2
    while legendre(a, p) != -1:
        a += 1
    return a


def big_product(xs) -> int:
    """Exact product of an iterable of integers."""
    return math.prod(xs)


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


def factorize(n: int) -> List[tuple]:
    """[(p, e), ...] for n >= 1, ascending p."""
    assert n >= 1
    out = []
    for p in prime_divisors(n) if n > 1 else []:
        out.append((p, ord_p(n, p)))
    return out


class UnitClass:
    """Square class of a p-adic unit.

    For odd p the class is the Legendre symbol (+1/-1); for p = 2 it is the
    residue mod 8 (one of 1, 3, 5, 7).  Two units u, v satisfy u = v * s^2
    for some unit s iff they have the same UnitClass.
    """

    __slots__ = ("p", "value")

    def __init__(self, u: int, p: int):
        assert u % p != 0, f"{u} is not a unit at {p}"
        self.p = p
        self.value = u % 8 if p == 2 else legendre(u, p)

    def representative(self) -> int:
        """Smallest positive unit in the class."""
        if self.p == 2:
            return self.value
        return 1 if self.value == 1 else smallest_nonresidue(self.p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnitClass)
            and self.p == other.p
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.p, self.value))

    def __repr__(self):
        return f"UnitClass(p={self.p}, value={self.value})"


def unit_class_rep(u: int, p: int) -> int:
    """Canonical representative of the square class of the unit u at p."""
    return UnitClass(u, p).representative()


def multiplicative_order(a: int, m: int) -> int:
    """Least j >= 1 with a^j = 1 mod m (requires gcd(a, m) = 1)."""
    assert m >= 2 and math.gcd(a, m) == 1
    j, x = 1, a % m
    while x != 1:
        x = x * a % m
        j += 1
        assert j <= m, "order search overran the modulus"
    return j
