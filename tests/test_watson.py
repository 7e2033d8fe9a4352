"""Descent steps: lattice-level rescaling, the coset-tracking step, and the
stabilization loop (termination, order-independence, value-set inclusion)."""

import math

import pytest

from mgonal.localrep import is_stable
from mgonal.numth import multiplicative_order, prime_divisors
from mgonal.polygonal import ShiftedForm
from mgonal.watson import (
    WatsonStep,
    coset_watson_step,
    lambda_step,
    normalize_shifts,
    stabilize,
)


def _lattice_values(entries, bound):
    vals = [set() for _ in entries]
    for i, a in enumerate(entries):
        x = 0
        while a * x * x <= bound:
            vals[i].add(a * x * x)
            x += 1
    sums = {0}
    for v in vals:
        sums = {s + w for s in sums for w in v if s + w <= bound}
    return sums


def test_lambda_step_rescales_units():
    # <1,1,9> is 3-unstable (-1 is a nonsquare mod 3, deep third entry);
    # scaling the two unit coordinates by 3 gives <9,9,9>, so the whole
    # 3^2 divides out
    assert lambda_step((1, 1, 9), 3) == ((1, 1, 1), 2, 3)
    # units 1,2 move to 25,50; the common factor 25 comes back out
    assert lambda_step((1, 2, 25), 5) == ((1, 2, 1), 2, 5)


def test_lambda_step_rejects_stable_input():
    # <1,1,3>: anisotropic binary with the third entry at order exactly 1
    with pytest.raises(ValueError):
        lambda_step((1, 1, 3), 3)
    # <1,2,9>: -2 = 1 (mod 3) is a square, so <1,2> is hyperbolic at 3
    with pytest.raises(ValueError):
        lambda_step((1, 2, 9), 3)


def test_lambda_step_divides_valuation():
    for entries, p, want in [((1, 1, 4), 2, (1, 1, 1)), ((1, 1, 9), 3, (1, 1, 1)),
                             ((1, 2, 25), 5, (1, 2, 1)), ((1, 4, 8), 2, (1, 1, 2)),
                             ((9, 9, 2), 3, (1, 1, 2))]:
        lat, s, q = lambda_step(entries, p)
        assert lat == want, (entries, p)
        assert s in (1, 2)
        assert q in (p, 4) and (q == 4) <= (p == 2)
        before = sum(e for e in _ords(entries, p))
        after = sum(e for e in _ords(lat, p))
        assert after < before, (entries, p)


def _ords(entries, p):
    from mgonal.numth import ord_p

    return [ord_p(a, p) for a in entries]


def test_lambda_value_set_inclusion():
    """p^s * Q(lambda L) is a subset of Q(L): rescaled vectors stay in L."""
    bound = 900
    for entries, p in [((1, 1, 4), 2), ((1, 1, 9), 3), ((1, 2, 25), 5),
                       ((1, 9, 9), 3)]:
        lat, s, _ = lambda_step(entries, p)
        small = _lattice_values(lat, bound // p**s)
        big = _lattice_values(entries, bound)
        assert {p**s * v for v in small} <= big, (entries, p)


def test_normalize_shifts_preserves_values():
    g = ShiftedForm(conductor=10, coeffs=(1, 2, 3), shifts=(9, 13, 7))
    h = normalize_shifts(g)
    assert h.normalized
    assert g.values_upto(600) == h.values_upto(600)


def test_coset_step_requires_coprime_prime():
    g = ShiftedForm(conductor=10, coeffs=(1, 2, 25), shifts=(1, 1, 1))
    with pytest.raises(ValueError):
        coset_watson_step(g, 5)  # 5 divides the conductor


def test_coset_step_shift_bookkeeping():
    """One step at p: conductor kept, primitivity kept, the step log carries
    j = order of p mod c, and the shifts move by p^(j-1) / p^j."""
    g = ShiftedForm(conductor=5, coeffs=(1, 2, 4), shifts=(1, 1, 1))
    log = []
    out = coset_watson_step(g, 2, log=log)
    (step,) = log
    assert isinstance(step, WatsonStep)
    assert out.conductor == 5
    assert step.p == 2 and step.j == multiplicative_order(2, 5) == 4
    assert math.gcd(math.gcd(out.coeffs[0], out.coeffs[1]), out.coeffs[2]) == 1


def test_coset_step_value_inclusion():
    """p^s * (values of stepped form) is a subset of (values of the input):
    the rescaled coset vectors land back in the original coset."""
    cases = [
        (ShiftedForm(conductor=5, coeffs=(1, 2, 4), shifts=(1, 1, 1)), 2),
        (ShiftedForm(conductor=5, coeffs=(1, 9, 3), shifts=(1, 2, 2)), 3),
        (ShiftedForm(conductor=3, coeffs=(1, 2, 25), shifts=(1, 1, 1)), 5),
        (ShiftedForm(conductor=10, coeffs=(1, 3, 9), shifts=(1, 1, 3)), 3),
    ]
    bound = 2500
    for g, p in cases:
        log = []
        out = coset_watson_step(g, p, log=log)
        s = log[0].s
        small = set(out.values_upto(bound // p**s))
        big = set(g.values_upto(bound))
        assert {p**s * v for v in small} <= big, (g, p)


def test_stabilize_reaches_stability():
    for g in [
        ShiftedForm(conductor=5, coeffs=(1, 9, 27), shifts=(1, 1, 1)),
        ShiftedForm(conductor=2, coeffs=(1, 25, 45), shifts=(1, 1, 1)),
        ShiftedForm(conductor=1, coeffs=(1, 8, 32), shifts=(0, 0, 0)),
        ShiftedForm(conductor=6, coeffs=(1, 25, 35), shifts=(1, 1, 1)),
    ]:
        out = stabilize(g)
        disc = math.prod(out.coeffs)
        for p in prime_divisors(disc):
            if out.conductor % p:
                assert is_stable(out.coeffs, p), (g, out, p)
        assert out.conductor == g.conductor
        assert list(out.coeffs) == sorted(out.coeffs)


def test_stabilize_idempotent_and_order_free():
    g = ShiftedForm(conductor=5, coeffs=(1, 9, 27), shifts=(1, 1, 1))
    a = stabilize(g, prefer="min")
    b = stabilize(g, prefer="max")
    assert a == b
    assert stabilize(a) == a


def test_stabilize_keeps_local_solubility_of_targets():
    """Descent is used to pass to a stable form while tracking targets; at
    the very least the stepped forms keep representing the minimum."""
    g = ShiftedForm(conductor=5, coeffs=(1, 9, 27), shifts=(1, 1, 1))
    out = stabilize(g)
    assert out.normalized
    assert min(out.values_upto(out.minimum())) == out.minimum()


def test_lambda_step_modulus_4_branch():
    # two units with u1 u2 = 1 (mod 4) and a deep third entry: q = 4
    assert lambda_step((1, 1, 4), 2) == ((1, 1, 1), 2, 4)
    # one unit entry at 2 is a plain q = 2 step
    assert lambda_step((1, 2, 4), 2) == ((2, 1, 2), 1, 2)
    with pytest.raises(ValueError):
        lambda_step((1, 3, 4), 2)  # u1 u2 = 3 (mod 4): stable
    with pytest.raises(ValueError):
        lambda_step((1, 1, 2), 2)  # third at order 1: stable
    with pytest.raises(ValueError):
        lambda_step((2, 4, 8), 2)  # no unit entry
