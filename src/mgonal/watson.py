"""Descent transformations on ternary diagonal lattices and square cosets.

The lambda transformation at a prime p repairs p-instability of a ternary
diagonal lattice <a_1,a_2,a_3>: pass to the sublattice of vectors whose
value is divisible by p (resp. 4), which for a diagonal lattice means
rescaling every coordinate with unit entry by p, and then divide the whole
form by p^s (s the resulting common p-power) so the scale ideal is
restored.  All three classical branches collapse to that one recipe:

  * one unit entry (0 < s_2):        <p^2 a_1, p^{s_2} a_2, p^{s_3} a_3>,
  * two unit entries, odd p:         <p^2 a_1, p^2 a_2, p^{s_3} a_3>,
  * two unit entries, p = 2,
    u_1 u_2 = 1 mod 4, s_3 >= 2:     values divisible by 4 force both unit
                                     coordinates even, same rescale recipe
                                     (the modulus-4 branch, q = 4),

each followed by division by p^s, s = min ord_p of the rescaled entries.
The step strictly decreases sum_i ord_p(a_i), so iterating over the primes
dividing a_1 a_2 a_3 terminates in a lattice that is stable at every prime
away from the conductor.

On the coset side the same substitution acts on a shifted form
sum a_i (c x_i + alpha_i)^2 with p coprime to c.  Let j be the
multiplicative order of p mod c.  A rescaled coordinate x -> p x keeps a
coset of c Z: p(c y + beta) = c(p y) + p beta, and p beta = alpha mod c
has the solution beta = p^{j-1} alpha; an untouched coordinate keeps
alpha = p^j alpha mod c.  Hence, coordinatewise,

    p^s * (value of stepped form at y)  =  value of original form at x

for suitable integer x, which gives the defining inclusion
p^s * (new value set) <= (old value set), with the conductor unchanged.
Shifts are reduced mod c and sign-normalized into the window (0, c/2)
afterwards (`polygonal._norm_shift`); (c x + alpha)^2 only sees alpha up
to sign and mod c.

A warning from the construction: for p != +-1 mod c the stepped coset is
not of the shape (c x - d)^2 that polygonal forms produce, so stepped
forms must never be translated back into polygonal coefficients; they are
compared purely through their value sets.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .localrep import is_stable
from .numth import _check_prime, multiplicative_order, ord_p, prime_divisors
from .polygonal import ShiftedForm, _norm_shift


@dataclass(frozen=True)
class WatsonStep:
    """Record of one descent step: prime p, modulus q in {p, 4}, scale
    exponent s in {1, 2}, and j = the multiplicative order of p mod c."""

    p: int
    q: int
    s: int
    j: int

    def __post_init__(self):
        if self.s not in (1, 2):
            raise ValueError(f"need s in (1, 2), got s = {self.s}")
        if self.q != self.p and (self.q, self.p) != (4, 2):
            raise ValueError(f"need q = p, or q = 4 at p = 2, got p = {self.p}, "
                             f"q = {self.q}")


def _check_primitive_ternary(coeffs) -> None:
    if len(coeffs) != 3 or math.gcd(*coeffs) != 1:
        raise ValueError(f"descent needs a primitive ternary lattice, got "
                         f"<{','.join(map(str, coeffs))}>")


def lambda_step(coeffs: Sequence[int], p: int
                ) -> Tuple[Tuple[int, ...], int, int]:
    """One descent step at p on a p-unstable ternary lattice: (new
    entries, s, modulus q).

    Every unit coordinate is rescaled by p, then the common p^s divides
    out.  Entry positions are preserved, e.g. lambda_step((1, 5, 5), 5) =
    ((5, 1, 1), 1, 5).  q = 4 exactly when p = 2 and two entries are units
    (the modulus-4 branch); q = p otherwise.  The modulus-4 branch needs
    u_1 u_2 = 1 mod 4 and the third entry at ord_2 >= 2, and `is_stable`
    calls every other lattice with two unit entries at 2 stable, so an
    unstable input meets both: every value of <u_1, u_2> at odd
    coordinates is u_1 + u_2 = 2 u_1 mod 4, so no odd class 3 or 7 mod 8
    is hit and passing to values divisible by 4 forces both unit
    coordinates even, giving s = 2.

    Raises ValueError on stable input (the step would be a no-op and the
    stabilization loop must make progress) and on input with every entry
    divisible by p (divide the common factor out first).
    """
    if is_stable(coeffs, p):
        raise ValueError(f"<{','.join(map(str, coeffs))}> is already {p}-stable")
    units = [a % p != 0 for a in coeffs]
    if not any(units):
        raise ValueError(f"every entry of <{','.join(map(str, coeffs))}> is "
                         f"divisible by {p}; divide out the common factor first")
    scaled = [a * p * p if unit else a for a, unit in zip(coeffs, units)]
    s = min(ord_p(a, p) for a in scaled)
    q = 4 if p == 2 and sum(units) == 2 else p
    return tuple(a // p ** s for a in scaled), s, q


# --------------------------------------------------------------------------
# the same step on shifted forms (cosets of cZ)

def normalize_shifts(g: ShiftedForm) -> ShiftedForm:
    """Sign-flip and reduce every shift mod c into (0, c/2).

    (c x + alpha)^2 = (c(-x-t) + (c t - alpha))^2, so the represented
    value multiset is unchanged.
    """
    c = g.conductor
    return ShiftedForm(conductor=c, coeffs=g.coeffs,
                       shifts=tuple(_norm_shift(al, c) for al in g.shifts))


def coset_watson_step(g: ShiftedForm, p: int
                      ) -> Tuple[ShiftedForm, WatsonStep]:
    """One descent step on a shifted form whose lattice is p-unstable:
    (stepped form, the step's record).

    Requires p coprime to the conductor.  The lattice part undergoes
    lambda_step; shift alpha_i becomes p^{j-1} alpha_i on the rescaled
    coordinates and p^j alpha_i (= alpha_i mod c) elsewhere, with
    j the multiplicative order of p mod c, then everything is reduced
    into the normalized window.  Conductor and primitivity are preserved.
    Raises ValueError unless p is a prime, or when p divides the conductor
    or the lattice is not ternary and primitive.
    """
    c = g.conductor
    _check_prime(p)
    if c % p == 0:
        raise ValueError(f"prime {p} divides the conductor {c}")
    _check_primitive_ternary(g.coeffs)
    stepped, s, q = lambda_step(g.coeffs, p)
    j = 1 if c == 1 else multiplicative_order(p, c)

    # the unit coordinates are the rescaled ones
    shifts = tuple(_norm_shift(pow(p, j - 1 if a % p else j, c) * al, c)
                   for a, al in zip(g.coeffs, g.shifts))
    out = ShiftedForm(conductor=c, coeffs=stepped, shifts=shifts)
    assert math.gcd(*out.coeffs) == 1
    return out, WatsonStep(p=p, q=q, s=s, j=j)


def stabilize(g: ShiftedForm) -> Tuple[ShiftedForm, Tuple[WatsonStep, ...]]:
    """Apply coset descent steps until the lattice is p-stable for every
    prime p away from the conductor: (stable form, the steps' records).

    The least unstable prime is stepped each round (the result does not
    depend on the order, which the tests assert).  Terminates because
    every step strictly decreases the total valuation sum_p sum_i
    ord_p(a_i) over the eligible primes; the bound is asserted.  Output
    coefficients are re-sorted ascending with their shifts carried along.
    Raises ValueError unless the lattice is ternary and primitive.
    """
    _check_primitive_ternary(g.coeffs)
    cur = normalize_shifts(g)
    # a step at p scales entries by powers of p, so no prime joins these
    primes = sorted({p for a in cur.coeffs for p in prime_divisors(a)})
    budget = sum(ord_p(a, p) for p in primes for a in cur.coeffs)
    steps = []
    while True:
        unstable = [p for p in primes
                    if cur.conductor % p != 0
                    and not is_stable(cur.coeffs, p)]
        if not unstable:
            break
        cur, step = coset_watson_step(cur, min(unstable))
        steps.append(step)
        assert len(steps) <= budget, "descent failed to make progress"
    coeffs, shifts = zip(*sorted(zip(cur.coeffs, cur.shifts)))
    return ShiftedForm(cur.conductor, coeffs, shifts), tuple(steps)
