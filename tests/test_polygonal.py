"""Polygonal numbers, the structure constants, and the square-completion
translation into shifted diagonal forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mgonal.polygonal import (
    MGonalForm,
    ShiftedForm,
    constants,
    delta_of,
    form_to_shifted,
    polygonal_number,
    shifted_target,
)


def test_small_polygonal_tables():
    # triangular, square, pentagonal values at x = 0..5
    assert [polygonal_number(3, x) for x in range(6)] == [0, 1, 3, 6, 10, 15]
    assert [polygonal_number(4, x) for x in range(6)] == [0, 1, 4, 9, 16, 25]
    assert [polygonal_number(5, x) for x in range(6)] == [0, 1, 5, 12, 22, 35]
    # generalized: negative arguments interleave
    assert [polygonal_number(5, -x) for x in range(1, 4)] == [2, 7, 15]


def test_polygonal_accepts_fractions():
    assert polygonal_number(3, Fraction(-1, 2)) == Fraction(-1, 8)


@given(st.integers(min_value=3, max_value=80))
def test_delta_table(m):
    if m % 2 == 1:
        assert delta_of(m) == 4
    elif m % 4 == 2:
        assert delta_of(m) == 2
    else:
        assert delta_of(m) == 1


@given(st.integers(min_value=3, max_value=80))
def test_constants_coprimality(m):
    k = constants(m)
    assert k.c == delta_of(m) * (m - 2) // 2
    assert k.mu == delta_of(m) * k.c
    if k.d == 0:
        assert m == 4 and k.c == 1
    else:
        assert math.gcd(k.c, abs(k.d)) == 1


@given(st.integers(min_value=3, max_value=60),
       st.lists(st.integers(min_value=-8, max_value=8), min_size=3, max_size=3))
def test_square_completion_identity(m, xs):
    """mu * f(x) + d^2 sum(a) equals the shifted form at mapped coordinates.

    Completing the square in mu P_m(x) gives (c x - d)^2; with the shift
    normalized to |d| the coordinate map is x -> -x exactly when d > 0.
    """
    f = MGonalForm(m, (1, 2, 3))
    k = constants(m)
    g = form_to_shifted(f)
    ys = [(-x if k.d > 0 else x) for x in xs]
    lhs = k.mu * f.value(xs) + k.d * k.d * sum(f.coeffs)
    assert lhs == g.value(ys)


@given(st.integers(min_value=3, max_value=60),
       st.integers(min_value=-5, max_value=30))
def test_shifted_target_consistency(m, n):
    f = MGonalForm(m, (1, 1, 2))
    k = constants(m)
    assert shifted_target(f, n) == k.mu * n + k.d * k.d * sum(f.coeffs)


def test_shifted_target_sample():
    # 8 * (-3) + 1 * (1 + 3 + 27) = 7
    assert shifted_target(MGonalForm(3, (1, 3, 27)), -3) == 7


def test_form_to_shifted_shapes():
    g3 = form_to_shifted(MGonalForm(3, (1, 1, 1)))
    assert (g3.conductor, g3.shifts) == (2, (1, 1, 1))
    g4 = form_to_shifted(MGonalForm(4, (1, 2, 5)))
    assert (g4.conductor, g4.shifts) == (1, (0, 0, 0))
    g7 = form_to_shifted(MGonalForm(7, (1, 1, 3)))
    assert g7.conductor == 10 and g7.normalized
    assert g7.minimum() == sum(a * al * al for a, al in zip(g7.coeffs, g7.shifts))


def test_mgonal_form_validation():
    # ValueError, not assert: under python -O a zero coefficient made a
    # regularity scan loop forever
    bad = [
        lambda: MGonalForm(3, (2, 1, 1)),  # not ascending
        lambda: MGonalForm(2, (1, 1, 1)),  # degenerate m
        lambda: MGonalForm(3, (0, 1, 1)),  # sign
        lambda: MGonalForm(3, ()),  # rank
        lambda: ShiftedForm(conductor=6, coeffs=(1, 2), shifts=(2, 1)),  # gcd(2,6)>1
        lambda: ShiftedForm(conductor=0, coeffs=(1, 2), shifts=(1, 1)),
        lambda: ShiftedForm(conductor=6, coeffs=(1, -2), shifts=(1, 1)),
        lambda: ShiftedForm(conductor=6, coeffs=(1, 2), shifts=(1,)),
    ]
    for make in bad:
        with pytest.raises(ValueError):
            make()


def test_values_upto_brute_force():
    g = ShiftedForm(conductor=3, coeffs=(1, 2), shifts=(1, 1))
    bound = 400
    brute = sorted({
        g.value((x, y))
        for x in range(-15, 16)
        for y in range(-15, 16)
        if g.value((x, y)) <= bound
    })
    assert g.values_upto(bound) == brute


@given(st.integers(min_value=3, max_value=40),
       st.integers(min_value=0, max_value=120))
def test_mgonal_value_membership(m, n):
    """values_upto of the shifted form sees exactly mu*n + d^2*sum(a) for
    representable n (small brute force)."""
    f = MGonalForm(m, (1, 2))
    g = form_to_shifted(f)
    reachable = {
        f.value((x, y)) for x in range(-12, 13) for y in range(-12, 13)
    }
    if n in reachable:
        assert shifted_target(f, n) in g.values_upto(shifted_target(f, n))
