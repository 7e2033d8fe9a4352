"""Generalized polygonal numbers and the quadratic-coset view of m-gonal forms.

P_m(x) = ((m-2)x^2 - (m-4)x)/2 with x running over all of Z.  An m-gonal
form f = sum a_i P_m(x_i) is studied through the exact identity

    sum a_i P_m(x_i) = n   <=>   sum a_i (c x_i - d)^2 = mu n + d^2 sum a_i

where, with delta = delta(m) chosen to clear denominators,

    delta = 4 (m odd), 2 (m = 2 mod 4), 1 (m = 0 mod 4),
    c = delta (m-2) / 2,   d = delta (m-4) / 4,   mu = delta c.

Always gcd(c, d) = 1, and 0 < d < c/2 for m >= 5, so the right-hand side is
a sum over the arithmetic progressions c Z + d: a "shifted" diagonal form
with conductor c and shifts alpha_i = d.  `ShiftedForm` models the general
object (any shifts coprime to the conductor); `form_to_shifted` performs
the translation above, and `_norm_shift` is the one rule of a normal shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import List, Tuple


def polygonal_number(m: int, x):
    """x-th generalized m-gonal number, m >= 3, x in Z.

    Also accepts Fraction x (used to evaluate p-adic witness vectors
    exactly); the result is then a Fraction.  Raises ValueError for m < 3.
    """
    _check_index(m)
    num = (m - 2) * x * x - (m - 4) * x
    if isinstance(x, int):
        assert num % 2 == 0  # (m-2)x^2 - (m-4)x = (m-2)(x^2 - x) + 2x is even
        return num // 2
    return num / 2


def _check_index(m: int) -> None:
    if m < 3:
        raise ValueError(f"polygonal index must be >= 3, got {m}")


def _check_coefficients(coeffs) -> None:
    """Raise ValueError unless coeffs is a nonempty ascending sequence of
    positive integers, the coefficients of an `MGonalForm`."""
    if not coeffs or min(coeffs) < 1:
        raise ValueError(f"coefficients must be positive, got {coeffs}")
    if tuple(sorted(coeffs)) != tuple(coeffs):
        raise ValueError(f"coefficients must be ascending, got {coeffs}")


def delta_of(m: int) -> int:
    """4 for odd m, 2 for m = 2 mod 4, 1 for m = 0 mod 4."""
    if m % 2 == 1:
        return 4
    return 2 if m % 4 == 2 else 1


@dataclass(frozen=True)
class MGonalConstants:
    """The exact constants (delta, c, d, mu) attached to an index m >= 3."""

    m: int
    delta: int
    c: int
    d: int
    mu: int


def constants(m: int) -> MGonalConstants:
    """The constants of m; raises ValueError for m < 3."""
    _check_index(m)
    delta = delta_of(m)
    c2 = delta * (m - 2)
    d4 = delta * (m - 4)
    assert c2 % 2 == 0 and d4 % 4 == 0
    c, d = c2 // 2, d4 // 4
    assert math.gcd(c, abs(d)) == 1 if d != 0 else c == 1
    return MGonalConstants(m=m, delta=delta, c=c, d=d, mu=delta * c)


@dataclass(frozen=True)
class MGonalForm:
    """Diagonal m-gonal form sum a_i P_m(x_i), coefficients ascending.  m
    and a tuple of the coefficients are kept as Python ints, read through
    `operator.index`: a float raises TypeError."""

    m: int
    coeffs: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", index(self.m))
        object.__setattr__(self, "coeffs", tuple(map(index, self.coeffs)))
        _check_index(self.m)
        _check_coefficients(self.coeffs)

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def value(self, xs) -> int:
        if len(xs) != self.rank:
            raise ValueError(f"need {self.rank} coordinates, got {tuple(xs)}")
        return sum(a * polygonal_number(self.m, x) for a, x in zip(self.coeffs, xs))

    def __str__(self):
        terms = " + ".join(f"{a}*P{self.m}" for a in self.coeffs)
        return f"<{terms}: {','.join(map(str, self.coeffs))}>"


def _norm_shift(r: int, c: int) -> int:
    """Reduce a shift mod c into the sign-normalized window.

    For c >= 3 and gcd(r, c) = 1 the result lies in (0, c/2); c = 2 gives
    1 and c = 1 gives 0.
    """
    r %= c
    assert math.gcd(r, c) == 1, f"shift {r} not coprime to conductor {c}"
    return min(r, c - r)


@dataclass(frozen=True)
class ShiftedForm:
    """Diagonal form sum a_i (c x_i + alpha_i)^2 on the coset c Z + alpha.

    `conductor` is c >= 1; shifts are `normalized` when each is its own
    `_norm_shift` — every residue coprime to c has a unique such
    representative up to sign, and (c x + alpha)^2 only sees alpha up to
    sign and mod c.
    """

    conductor: int
    coeffs: Tuple[int, ...]
    shifts: Tuple[int, ...]

    def __post_init__(self):
        c, coeffs, shifts = self.conductor, self.coeffs, self.shifts
        if c < 1:
            raise ValueError(f"conductor must be >= 1, got {c}")
        if not coeffs or min(coeffs) < 1:
            raise ValueError(f"coefficients must be positive, got {coeffs}")
        if len(shifts) != len(coeffs):
            raise ValueError(f"need one shift per coefficient, got {shifts}")
        # a prime divides c and some shift iff it divides c and their product
        if math.gcd(math.prod(shifts), c) != 1:
            raise ValueError(f"shifts {shifts} must be coprime to the "
                             f"conductor {c}")

    @property
    def normalized(self) -> bool:
        return all(al == _norm_shift(al, self.conductor) for al in self.shifts)

    def minimum(self) -> int:
        """Smallest value, = sum a_i alpha_i^2 once shifts are normalized.
        Raises ValueError unless they are (`watson.normalize_shifts`
        normalizes them)."""
        if not self.normalized:
            raise ValueError(f"minimum needs normalized shifts, got "
                             f"{self.shifts}; apply normalize_shifts first")
        return sum(a * al * al for a, al in zip(self.coeffs, self.shifts))

    def value(self, ys) -> int:
        c = self.conductor
        return sum(a * (c * y + al) ** 2
                   for a, y, al in zip(self.coeffs, ys, self.shifts))

    def values_upto(self, bound: int) -> List[int]:
        """Sorted list of all values <= bound (exhaustive enumeration).
        Raises ValueError for a negative bound."""
        if bound < 0:
            raise ValueError(f"bound must be >= 0, got {bound}")
        c = self.conductor
        per: List[List[int]] = []
        for a, al in zip(self.coeffs, self.shifts):
            vals = set()
            y = 0
            while True:
                lo = min(a * (c * y + al) ** 2, a * (-c * y + al) ** 2)
                if lo > bound and y > 0:
                    break
                for s in (c * y + al, -c * y + al):
                    v = a * s * s
                    if v <= bound:
                        vals.add(v)
                y += 1
            per.append(sorted(vals))
        sums = {0}
        for vals in per:
            sums = {s + v for s in sums for v in vals if s + v <= bound}
        return sorted(sums)


def form_to_shifted(f: MGonalForm) -> ShiftedForm:
    """Translate an m-gonal form into its shifted diagonal form.

    Every shift is |d|, already normal: 0 < d < c/2 for m >= 5, the sign
    flip x -> -x turns d = -1 at m = 3 (c = 2) into 1, and m = 4 (c = 1,
    d = 0) is a plain sum of squares.
    """
    k = constants(f.m)
    alpha = abs(k.d)  # sign flip is an isometry of the coset
    assert alpha == _norm_shift(alpha, k.c)
    return ShiftedForm(conductor=k.c, coeffs=f.coeffs,
                       shifts=(alpha,) * f.rank)


def shifted_target(f: MGonalForm, n: int) -> int:
    """mu n + d^2 sum a_i: the value the shifted form must take for f = n."""
    k = constants(f.m)
    return k.mu * n + k.d * k.d * sum(f.coeffs)
