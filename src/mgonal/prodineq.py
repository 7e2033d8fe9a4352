"""Exact verification of the thirteen prime-product inequalities.

Write r_i for the i-th prime >= 5 (r_1 = 5, r_2 = 7, r_3 = 11, ...) and
W(t) = (t+3) 2^(t-3).  Each clause asserts, for t at or above a stated
threshold t0,

    r_lo * r_{lo+1} * ... * r_t  >  C * (a W(t) + b)^k

with lo in {3, 7}, k in {1, 3}, a in {1, 3, 4, 12} and b in {0, -1, -7}.

Verification is split the way the statement splits: the base case t = t0
is an exact big-integer comparison, and the induction step needs
RHS(u+1)/RHS(u) < r_{u+1} for u >= t0, since the left side gains exactly
the factor r_{u+1}.  The step ratio has a closed monotone bound: with
rho(u) = W(u+1)/W(u) = 2(u+4)/(u+3),

    (a W(u+1) + b) / (a W(u) + b)
        = rho(u) * (1 + (-b) (1 - 1/rho(u)) / (a W(u) + b)),

and since b <= 0, rho is decreasing and W is increasing, every factor is
largest at u = t0.  So the single exact-rational check

    [rho(t0) * (1 + (-b)(1 - 1/rho(t0)) / (a W(t0) + b))]^k  <  r_{t0+1}

certifies the induction step for every u >= t0 at once (the primes r_{u+1}
only grow).  No floating point is used anywhere in this module.
"""

import operator
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .numth import RS


class IneqSpec(NamedTuple):
    index: int   # clause number 1..13
    lower: int   # product runs over r_lower .. r_t
    t0: int      # stated threshold
    const: int   # constant factor C
    a: int       # RHS core is a*W(t) + b
    b: int
    k: int       # power on the core


CLAUSES: Dict[int, IneqSpec] = {
    1:  IneqSpec(1, 7, 16, 1, 1, 0, 3),
    2:  IneqSpec(2, 3, 7, 45 * 49, 1, 0, 1),
    3:  IneqSpec(3, 3, 5, 2 * 18, 1, 0, 1),
    4:  IneqSpec(4, 7, 18, 1, 3, -1, 3),
    5:  IneqSpec(5, 3, 9, 142 * 304, 3, -1, 1),
    6:  IneqSpec(6, 3, 8, 49 * 142, 3, -1, 1),
    7:  IneqSpec(7, 3, 7, 9 * 88, 3, -1, 1),
    8:  IneqSpec(8, 7, 18, 1, 4, -1, 3),
    9:  IneqSpec(9, 3, 9, 190 * 294, 4, -1, 1),
    10: IneqSpec(10, 3, 8, 66 * 110, 4, -1, 1),
    11: IneqSpec(11, 3, 7, 3 * 90, 4, -1, 1),
    12: IneqSpec(12, 7, 20, 1, 12, -7, 3),
    13: IneqSpec(13, 3, 10, 580 * 1492, 12, -7, 1),
}

# antecedent -> consequent pairs whose RHS dominates pointwise (same lower
# index, same threshold), so the stronger inequality implies the weaker
IMPLICATIONS: List[Tuple[int, int]] = [(7, 2), (7, 11), (10, 6), (9, 5), (8, 4)]


def w_factor(t: int) -> int:
    """W(t) = (t+3) 2^(t-3)."""
    if t < 3:
        raise ValueError(f"W(t) needs t >= 3, got t = {t}")
    return (t + 3) << (t - 3)


def _clause(index: int) -> IneqSpec:
    """The clause numbered `index`; the one lookup of a clause number."""
    spec = CLAUSES.get(operator.index(index))
    if spec is None:
        raise ValueError(f"clause must be one of 1..13, got {index}")
    return spec


def _rhs(spec: IneqSpec, t: int) -> int:
    core = spec.a * w_factor(t) + spec.b
    assert core > 0
    return spec.const * core ** spec.k


def rhs(index: int, t: int) -> int:
    return _rhs(_clause(index), t)


def lhs(index: int, t: int) -> int:
    spec = _clause(index)
    if t < spec.lower:
        raise ValueError(f"clause {index}: t = {t} is below the product's "
                         f"lower index {spec.lower} (empty prime product)")
    out = 1
    for i in range(spec.lower, t + 1):
        out *= RS.r(i)
    return out


def verify_inequality(index: int, t: int) -> Tuple[int, int, bool]:
    """Exact (lhs, rhs, lhs > rhs) for one clause at one t.

    t may lie below the clause threshold — useful for locating where the
    inequality starts to hold — but not below the product's lower index.
    """
    left, right = lhs(index, t), rhs(index, t)
    return left, right, left > right


def verify_induction_step(index: int, t_max: int) -> bool:
    """RHS(u+1)/RHS(u) < r_{u+1} for every u in [t0, t_max], exactly.

    RHS > 0, so each ratio check is the integer comparison
    RHS(u+1) < r_{u+1} RHS(u).  Raises ValueError for t_max < t0.
    """
    spec = _clause(index)
    if t_max < spec.t0:
        raise ValueError(f"clause {index}: t_max = {t_max} is below the "
                         f"threshold t0 = {spec.t0}")
    prev = _rhs(spec, spec.t0)
    for u in range(spec.t0, t_max):
        nxt = _rhs(spec, u + 1)
        if nxt >= RS.r(u + 1) * prev:
            return False
        prev = nxt
    return True


def certify_all_t(index: int) -> Tuple[Fraction, int, bool]:
    """One exact check certifying the induction step for every u >= t0.

    Returns (ratio bound, r_{t0+1}, bound < r_{t0+1}); see the module
    docstring for why the bound dominates RHS(u+1)/RHS(u) for all u >= t0.
    With rho(t0) = hi / lo, hi = 2(t0 + 4), lo = t0 + 3, the bound is
    (num / den)^k for the integers num = hi core0 - b (hi - lo) and
    den = lo core0, so the check is num^k < r_{t0+1} den^k.
    """
    spec = _clause(index)
    hi, lo = 2 * (spec.t0 + 4), spec.t0 + 3
    core0 = spec.a * w_factor(spec.t0) + spec.b
    num, den = hi * core0 - spec.b * (hi - lo), lo * core0
    r_next = RS.r(spec.t0 + 1)
    return (Fraction(num, den) ** spec.k, r_next,
            num ** spec.k < r_next * den ** spec.k)


def min_slack(index: int, t_hi: int) -> Fraction:
    """Smallest lhs/rhs over t in [t0, t_hi] (> 1 iff the clause holds).
    Raises ValueError for t_hi < t0."""
    spec = _clause(index)
    if t_hi < spec.t0:
        raise ValueError(f"clause {index}: t_hi = {t_hi} is below the "
                         f"threshold t0 = {spec.t0}")
    return min(Fraction(*verify_inequality(index, t)[:2])
               for t in range(spec.t0, t_hi + 1))


def check_implications(t_hi: int) -> bool:
    """RHS dominance behind the five clause implications, exactly.

    For each (antecedent, consequent) pair: same product range, same
    threshold, and rhs(antecedent, t) >= rhs(consequent, t) on [t0, t_hi] —
    so the antecedent inequality implies the consequent one.
    """
    for i_from, i_to in IMPLICATIONS:
        f, g = CLAUSES[i_from], CLAUSES[i_to]
        assert f.lower == g.lower and f.t0 == g.t0
        if any(rhs(i_from, t) < rhs(i_to, t) for t in range(f.t0, t_hi + 1)):
            return False
    return True
