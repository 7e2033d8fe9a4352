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
afterwards; (c x + alpha)^2 only sees alpha up to sign and mod c.

A warning from the construction: for p != +-1 mod c the stepped coset is
not of the shape (c x - d)^2 that polygonal forms produce, so stepped
forms must never be translated back into polygonal coefficients; they are
compared purely through their value sets.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .localrep import DiagonalLattice, _entries, is_stable, jordan_split
from .numth import multiplicative_order, ord_p, prime_divisors
from .polygonal import ShiftedForm


@dataclass(frozen=True)
class WatsonStep:
    """Record of one descent step: prime p, modulus q in {p, 4}, scale
    exponent s in {1, 2}, and j = the multiplicative order of p mod c."""

    p: int
    q: int
    s: int
    j: int

    def __post_init__(self):
        assert self.s in (1, 2)
        assert self.q == self.p or (self.q == 4 and self.p == 2)


def _lambda_core(coeffs: Tuple[int, ...], p: int):
    """Rescale every unit coordinate by p, then divide out the common p^s.

    Returns (new entries, s, indices of the rescaled coordinates).  Entry
    order is preserved — no re-sorting happens here.
    """
    ords = [ord_p(a, p) for a in coeffs]
    moved = tuple(i for i, e in enumerate(ords) if e == 0)
    assert moved, f"all entries divisible by {p}; divide out the common factor first"
    scaled = tuple(a * p * p if e == 0 else a for a, e in zip(coeffs, ords))
    s = min(ord_p(a, p) for a in scaled)
    new = tuple(a // p ** s for a in scaled)
    return new, s, moved


def lambda_p(L, p: int) -> Tuple[DiagonalLattice, int]:
    """One descent step at an odd prime on a p-unstable ternary lattice.

    Returns (new lattice, s).  Entry positions are preserved, e.g.
    lambda_p(<1,5,5>, 5) = (<5,1,1>, 1).  Stable input is rejected: the
    step would be a no-op and the stabilization loop must make progress.
    """
    assert p % 2 == 1, "use lambda_4 for the modulus-4 step at p = 2"
    coeffs = _entries(L)
    assert len(coeffs) == 3
    if is_stable(coeffs, p):
        raise ValueError(f"<{','.join(map(str, coeffs))}> is already {p}-stable")
    new, s, _ = _lambda_core(coeffs, p)
    return DiagonalLattice(new), s


def lambda_4(L) -> Tuple[DiagonalLattice, int]:
    """The modulus-4 descent step on a 2-unstable ternary lattice.

    Preconditions, each rejected by name: the 2-adic unimodular rank is
    exactly 2, the two unit entries u_1, u_2 satisfy u_1 u_2 = 1 mod 4,
    and the remaining entry has ord_2 >= 2.  (Together these say exactly
    that the lattice is 2-unstable with two unit entries: every value of
    <u_1, u_2> at odd coordinates is u_1 + u_2 = 2 u_1 mod 4, so no odd
    class 3 or 7 mod 8 is hit and passing to values divisible by 4 forces
    both unit coordinates even.)  Result: the deep entry divided by 4,
    s = 2.
    """
    coeffs = _entries(L)
    assert len(coeffs) == 3
    units = [a for a in coeffs if a % 2 == 1]
    if len(units) != 2:
        raise ValueError(f"unimodular rank at 2 is {len(units)}, need exactly 2")
    if units[0] * units[1] % 4 != 1:
        raise ValueError(f"a1*a2 = {units[0] * units[1] % 4} (mod 4), need 1")
    deep = next(a for a in coeffs if a % 2 == 0)
    if ord_p(deep, 2) < 2:
        raise ValueError(f"deep entry {deep} has ord_2 = {ord_p(deep, 2)}, need >= 2")
    new, s, _ = _lambda_core(coeffs, 2)
    assert s == 2
    return DiagonalLattice(new), s


def lambda_step(L, p: int) -> Tuple[DiagonalLattice, int, int]:
    """Dispatching descent step at any prime: (new lattice, s, modulus q).

    q = 4 exactly when p = 2 and the 2-adic unimodular rank is 2 (the
    modulus-4 branch); in every other unstable shape q = p.
    """
    coeffs = _entries(L)
    if p == 2:
        if is_stable(coeffs, 2):
            raise ValueError(f"<{','.join(map(str, coeffs))}> is already 2-stable")
        if jordan_split(coeffs, 2).unimodular_rank == 2:
            out, s = lambda_4(L)
            return out, s, 4
        new, s, _ = _lambda_core(coeffs, 2)
        return DiagonalLattice(new), s, 2
    out, s = lambda_p(L, p)
    return out, s, p


# --------------------------------------------------------------------------
# the same step on shifted forms (cosets of cZ)

def _norm_shift(r: int, c: int) -> int:
    """Reduce a shift mod c into the sign-normalized window.

    For c >= 3 and gcd(r, c) = 1 the result lies in (0, c/2); c = 2 gives
    1 and c = 1 gives 0.
    """
    r %= c
    assert math.gcd(r, c) == 1, f"shift {r} not coprime to conductor {c}"
    return min(r, c - r)


def normalize_shifts(g: ShiftedForm) -> ShiftedForm:
    """Sign-flip and reduce every shift mod c into (0, c/2).

    (c x + alpha)^2 = (c(-x-t) + (c t - alpha))^2, so the represented
    value multiset is unchanged.
    """
    c = g.conductor
    return ShiftedForm(conductor=c, coeffs=g.coeffs,
                       shifts=tuple(_norm_shift(al, c) for al in g.shifts))


def coset_watson_step(g: ShiftedForm, p: int,
                      log: Optional[List[WatsonStep]] = None) -> ShiftedForm:
    """One descent step on a shifted form whose lattice is p-unstable.

    Requires p coprime to the conductor.  The lattice part undergoes
    lambda_step; shift alpha_i becomes p^{j-1} alpha_i on the rescaled
    coordinates and p^j alpha_i (= alpha_i mod c) elsewhere, with
    j the multiplicative order of p mod c, then everything is reduced
    into the normalized window.  Conductor and primitivity are preserved.
    """
    c = g.conductor
    if c % p == 0:
        raise ValueError(f"prime {p} divides the conductor {c}")
    coeffs = g.coeffs
    assert len(coeffs) == 3, "coset steps are for ternary forms"
    assert math.gcd(math.gcd(coeffs[0], coeffs[1]), coeffs[2]) == 1, \
        "coset step needs a primitive lattice"

    lat, s, q = lambda_step(DiagonalLattice(coeffs), p)
    _, _, moved = _lambda_core(coeffs, p)
    j = 1 if c == 1 else multiplicative_order(p, c)

    shifts = tuple(
        _norm_shift(pow(p, j - 1 if i in moved else j, c) * al if c > 1 else 0, c)
        for i, al in enumerate(g.shifts))
    out = ShiftedForm(conductor=c, coeffs=lat.entries, shifts=shifts)
    assert math.gcd(math.gcd(out.coeffs[0], out.coeffs[1]), out.coeffs[2]) == 1
    if log is not None:
        log.append(WatsonStep(p=p, q=q, s=s, j=j))
    return out


def stabilize(g: ShiftedForm, log: Optional[List[WatsonStep]] = None,
              prefer: str = "min") -> ShiftedForm:
    """Apply coset descent steps until the lattice is p-stable for every
    prime p away from the conductor.

    Primes are taken ascending each round (`prefer="max"` flips the order;
    the final diagonal multiset does not depend on the choice, which the
    tests assert).  Terminates because every step strictly decreases the
    total valuation sum_p sum_i ord_p(a_i) over the eligible primes; the
    bound is asserted.  Output coefficients are re-sorted ascending with
    their shifts carried along.
    """
    assert g.rank == 3
    cur = normalize_shifts(g)
    budget = sum(ord_p(a, p)
                 for p in prime_divisors(math.prod(cur.coeffs))
                 for a in cur.coeffs) if math.prod(cur.coeffs) > 1 else 0
    steps = 0
    while True:
        disc = math.prod(cur.coeffs)
        unstable = [p for p in prime_divisors(disc)
                    if disc > 1 and cur.conductor % p != 0
                    and not is_stable(cur.coeffs, p)]
        if not unstable:
            break
        p = max(unstable) if prefer == "max" else min(unstable)
        cur = coset_watson_step(cur, p, log=log)
        steps += 1
        assert steps <= budget, "descent failed to make progress"
    order = sorted(range(3), key=lambda i: (cur.coeffs[i], cur.shifts[i]))
    return ShiftedForm(conductor=cur.conductor,
                       coeffs=tuple(cur.coeffs[i] for i in order),
                       shifts=tuple(cur.shifts[i] for i in order))
