"""The local representation engine against its two reference routes, plus
the structural predicates read from the lattice key (stability, value sets
of stable lattices) and anisotropy and Hilbert symbols against classical
identities and the engine."""

import itertools
import math
import random
import re
import subprocess
import sys

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from mgonal.localrep import (
    ModulusTooLarge,
    _convolve_presence,
    _coord_indicator,
    _exclusions,
    _lattice_key,
    _near_sums_odd,
    _progression_exponent,
    _value_set,
    conservative_exponent,
    hensel_exponent,
    hilbert_symbol,
    is_anisotropic_ternary,
    is_stable,
    locally_represented,
    locally_represented_bits,
    locally_represented_rows,
    represents_mod_search,
    represents_over_zp,
    represents_reference_fft,
    shifted_represents_over_zp,
    stable_value_set_check,
)
from mgonal.numth import is_prime, ord_p, prime_divisors
from mgonal.regcheck import candidate_scan, regularity_scan
from mgonal.polygonal import MGonalForm, ShiftedForm, form_to_shifted, shifted_target

# a corpus mixing unit, once-divisible and deeply divisible entries
CORPUS = {
    2: [(1, 1, 1), (1, 1, 2), (1, 2, 4), (1, 3, 8), (3, 5, 16), (1, 4, 4),
        (1, 1, 7), (2, 2, 3), (1, 8, 8)],
    3: [(1, 1, 1), (1, 1, 3), (1, 2, 9), (2, 3, 27), (1, 9, 9), (2, 2, 3),
        (1, 3, 6), (5, 7, 9)],
    5: [(1, 1, 1), (1, 2, 5), (1, 2, 25), (2, 5, 25), (1, 25, 25), (3, 4, 5)],
    7: [(1, 1, 1), (1, 3, 7), (1, 7, 49), (2, 3, 49), (5, 7, 7)],
}


def test_engine_matches_fft_reference():
    """The structured decision equals plain witness existence mod p^K for
    K at the lifting threshold (where existence is exact), on the corpus
    and on the targets 12 n + nu (nu < 5) that choose nu over Z_2 and Z_3."""
    queries = [(p, coeffs, range(1, 120))
               for p, triples in CORPUS.items() for coeffs in triples]
    twelve = [12 * n + nu for n in range(40) for nu in range(5)]
    queries += [(p, coeffs, twelve)
                for p in (2, 3) for coeffs in ((1, 1, 1), (1, 1, 3))]
    for p, coeffs, targets in queries:
        for n in targets:
            got = bool(represents_over_zp(coeffs, n, p))
            K = hensel_exponent(coeffs, n, p)
            want = represents_reference_fft(coeffs, n, p, K)
            assert got == want, (coeffs, n, p)


def test_engine_matches_grid_search():
    """Where the full grid is feasible, the exhaustive lifting-criterion
    search agrees as well, on ternary lattices and on the binary lattices
    <1,2>, <1,4> and <1,5>, which miss values over Z_5, Z_7 and Z_11 in
    turn."""
    binary = [(1, 2), (1, 4), (1, 5)]
    for p, lattices in {2: [(1, 1, 1), (1, 1, 2), (1, 2, 2)],
                        3: [(1, 1, 1), (1, 1, 3), (1, 2, 3)],
                        5: [(1, 2, 5), (1, 1, 2), *binary],
                        7: binary, 11: binary}.items():
        for coeffs in lattices:
            for n in range(1, 40):
                K = hensel_exponent(coeffs, n, p)
                try:
                    ref = represents_mod_search(coeffs, n, p, K)
                except ModulusTooLarge:
                    continue
                assert ref.represented == bool(represents_over_zp(coeffs, n, p))
                if ref.witness is not None:
                    mod = p**ref.modulus_exponent
                    val = sum(a * x * x for a, x in zip(coeffs, ref.witness))
                    assert val % mod == n % mod


def _first_grid_hit(coeffs, n, p, K):
    """The grid search by its definition: every point x of (Z/p^K)^rank in
    lexicographic order, the first with Q(x) = n (mod p^K) and some
    coordinate with 2 ord_p(2 a_i x_i) + 1 <= K, where 2 a_i x_i = 0
    (mod p^K) has order K.  Each coordinate's a_i x_i^2 and criterion are
    listed once per residue x_i, and three products walk the points, their
    terms and their criteria in step."""
    mod = p ** K

    def lifts(t):
        return t % mod != 0 and 2 * ord_p(t % mod, p) + 1 <= K

    points = itertools.product(range(mod), repeat=len(coeffs))
    terms = itertools.product(*[[a * y * y for y in range(mod)] for a in coeffs])
    oks = itertools.product(*[[lifts(2 * a * y) for y in range(mod)]
                              for a in coeffs])
    for x, term, ok in zip(points, terms, oks):
        if (sum(term) - n) % mod == 0 and any(ok):
            return x
    return None


def test_grid_search_is_the_first_hit_of_the_full_grid():
    """represents_mod_search gives the verdict and witness of the literal
    enumeration of its box, on seeded boxes of at most 2 10^4 points:
    ranks 1 to 4, signed entries up to p^2 deep, p in {2, 3, 5, 7} and
    K from 1 to 5, below hensel_exponent too, where the lifting criterion
    decides.  Half the targets are values of the form, at a random point
    of the box."""
    rng = random.Random(37)
    boxes = below = found = 0
    while boxes < 2400:
        p, rank, K = rng.choice((2, 3, 5, 7)), rng.randint(1, 4), rng.randint(1, 5)
        if p ** (K * rank) > 2 * 10**4:
            continue
        units = [u for u in range(1, 3 * p) if u % p]
        coeffs = tuple(rng.choice((1, -1)) * p ** rng.randrange(3)
                       * rng.choice(units) for _ in range(rank))
        n = rng.choice((1, -1)) * p ** rng.randrange(4) * rng.choice(units)
        if rng.randrange(2):
            n = sum(a * rng.randrange(p ** K) ** 2 for a in coeffs) or n
        want = _first_grid_hit(coeffs, n, p, K)
        assert represents_mod_search(coeffs, n, p, K) == (
            p, want is not None, want, K), (coeffs, n, p, K)
        boxes += 1
        below += K < hensel_exponent(coeffs, n, p)
        found += want is not None
    assert below > 1000 and 500 < found < 2000, (below, found)


def test_rank_one_search_stops_at_its_first_hit():
    """At rank 1 the witness is the least x <= p^K/2 that hits n mod p^K
    and passes the criterion, returned as soon as it is found (x = 512 in
    a box of 2^21 points); a miss scans every x."""
    assert represents_mod_search((1,), 2**18, 2, 21) == (2, True, (512,), 21)
    assert represents_mod_search((-32,), 9317, 11) == (11, False, None, 6)


def test_zero_always_represented():
    assert represents_over_zp((1, 2, 3), 0, 5).represented
    assert represents_mod_search((1, 2, 3), 0, 5).witness == (0, 0, 0)
    # the verdict's exponent, read from the key, is conservative_exponent's
    for p in (2, 3, 5, 7):
        for coeffs in ((1, 2, 3), (-4, 9, -p ** 5), (-p, -p * p, 12)):
            for n in (0, 1, -7, 5 * p ** 3, -(p ** 8)):
                assert (represents_over_zp(coeffs, n, p).modulus_exponent
                        == conservative_exponent(coeffs, n, p)), (coeffs, n, p)


@given(st.sampled_from([2, 3, 5, 7]),
       st.lists(st.integers(min_value=1, max_value=60), min_size=3, max_size=3),
       st.integers(min_value=1, max_value=150),
       st.permutations(range(3)))
@settings(max_examples=120, deadline=None)
def test_verdict_permutation_invariant(p, coeffs, n, perm):
    base = bool(represents_over_zp(tuple(coeffs), n, p))
    shuffled = tuple(coeffs[i] for i in perm)
    assert bool(represents_over_zp(shuffled, n, p)) == base


@given(st.sampled_from([2, 3, 5, 7]),
       st.lists(st.integers(min_value=1, max_value=40), min_size=3, max_size=3),
       st.integers(min_value=1, max_value=80),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=120, deadline=None)
def test_verdict_square_scaling_invariant(p, coeffs, n, u):
    """Scaling the target by the square of a p-unit never changes the
    verdict (x -> ux is a bijection of Z_p)."""
    if u % p == 0:
        return
    lhs = bool(represents_over_zp(tuple(coeffs), n, p))
    rhs = bool(represents_over_zp(tuple(coeffs), n * u * u, p))
    assert lhs == rhs


@given(st.sampled_from([2, 3, 5]),
       st.lists(st.integers(min_value=1, max_value=30), min_size=3, max_size=3),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=80, deadline=None)
def test_verdict_p2_lattice_scaling(p, coeffs, n):
    """<p^2 a> represents p^2 n iff <a> represents n (divide everything)."""
    scaled = tuple(a * p * p for a in coeffs)
    assert bool(represents_over_zp(scaled, n * p * p, p)) == bool(
        represents_over_zp(tuple(coeffs), n, p))


def test_2_stability_truth_table():
    assert is_stable((1, 1, 1), 2)
    assert is_stable((1, 1, 2), 2)     # third entry at order exactly 1
    assert is_stable((1, 3, 4), 2)     # u1 u2 = 3 (mod 4)
    assert is_stable((3, 5, 16), 2)    # 15 = 3 (mod 4)
    assert not is_stable((1, 1, 4), 2)  # u1 u2 = 1 (mod 4), deep third
    assert not is_stable((1, 5, 8), 2)
    assert not is_stable((1, 2, 4), 2)  # unimodular rank 1
    assert not is_stable((2, 4, 8), 2)


def test_odd_stability_truth_table():
    assert is_stable((1, 1, 5), 5)    # -1 is a square mod 5: hyperbolic
    assert is_stable((1, 2, 5), 5)    # anisotropic binary, third at order 1
    assert not is_stable((1, 2, 25), 5)
    assert is_stable((1, 1, 25), 5)   # hyperbolic again, depth irrelevant
    assert not is_stable((1, 3, 9), 3)
    assert not is_stable((2, 3, 9), 3)  # unimodular rank 1
    assert is_stable((1, 1, 1), 7)


@pytest.mark.parametrize("coeffs, p", [((1, 1), 3), ((1, 1, 1, 1), 2),
                                        ((1, 1, 1), 4), ((1, 1, 1), 1)],
                         ids=["rank-2", "rank-4", "p-4", "p-1"])
def test_stability_rejects_non_ternary_and_non_prime(coeffs, p):
    with pytest.raises(ValueError):
        is_stable(coeffs, p)


def test_stable_value_set_exactness_odd():
    """For stable lattices at odd p the closed-form value set description
    matches the engine: exact in the anisotropic case, everything in the
    hyperbolic case."""
    for p, triples in {3: [(1, 1, 1), (1, 1, 3), (1, 2, 3)],
                       5: [(1, 1, 5), (1, 2, 5), (2, 3, 5)],
                       7: [(1, 1, 7), (1, 3, 7)]}.items():
        for coeffs in triples:
            if not is_stable(coeffs, p):
                continue
            for gamma in range(0, p**3 + 1):
                want = bool(represents_over_zp(coeffs, gamma, p))
                got = stable_value_set_check(coeffs, p, gamma)
                assert got == want, (coeffs, p, gamma)


def test_stable_value_set_one_sided_at_2():
    """At p = 2 the stable description is sound: whatever it claims must be
    represented.  For unimodular completions it is exact in both directions
    (<1,1,1> must reject precisely the 4^a(8b+7) class)."""
    for coeffs in [(1, 1, 1), (1, 1, 3), (1, 3, 5), (3, 3, 3),
                   (1, 1, 2), (1, 3, 4), (3, 5, 16)]:
        unimodular = all(a % 2 for a in coeffs)
        for gamma in range(0, 65):
            claim = stable_value_set_check(coeffs, 2, gamma)
            truth = represents_over_zp(coeffs, gamma, 2).represented
            if claim:
                assert truth, (coeffs, gamma)
            elif unimodular:
                assert not truth, (coeffs, gamma)
    with pytest.raises(ValueError):
        stable_value_set_check((1, 1, 4), 2, 1)  # 2-unstable


def test_stable_value_set_matches_descriptor():
    """`stable_value_set_check` is a closed form of the descriptor's value
    set.  On every stable rank-3 key of depth <= 2 at p in {2, 3, 5, 7},
    at 0 and at p^k u for every unit class u and every order k <= K + 3
    (K + 2 entries in the descriptor), it equals the engine's verdict at
    odd p and on unimodular keys at 2; at 2 with a deeper third entry a
    True claim is represented."""
    stable, one_sided = 0, set()
    for p in (2, 3, 5, 7):
        units = _class_reps(p)
        for key in _ternary_keys(p, 2):
            coeffs = _canonical_entries(key, p)
            if not is_stable(coeffs, p):
                continue
            stable += 1
            K = len(_value_set(p, key)) - 2
            for gamma in [0] + [p ** k * u for k in range(K + 4) for u in units]:
                claim = stable_value_set_check(coeffs, p, gamma)
                truth = represents_over_zp(coeffs, gamma, p).represented
                if p == 2 and key[-1][0] > 0:
                    assert truth or not claim, (key, gamma)
                    one_sided.add((claim, truth))
                else:
                    assert claim == truth, (p, key, gamma)
    assert stable == 114 and one_sided == {(True, True), (False, True), (False, False)}


@given(st.integers(min_value=-30, max_value=30).filter(lambda a: a != 0),
       st.integers(min_value=-30, max_value=30).filter(lambda b: b != 0),
       st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=200)
def test_hilbert_symbol_symmetric_multiplicative(a, b, p):
    assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
    assert hilbert_symbol(a, -a, p) == 1
    for c in (2, 3, 7):
        assert hilbert_symbol(a, b * c * c, p) == hilbert_symbol(a, b, p)
        assert (hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p)
                == hilbert_symbol(a, b * c, p))


@given(st.integers(min_value=-40, max_value=40).filter(lambda a: a != 0),
       st.integers(min_value=-40, max_value=40).filter(lambda b: b != 0))
@settings(max_examples=200)
def test_hilbert_product_formula(a, b):
    """prod over all places of (a,b)_v = 1; only p | 2ab and the real place
    can contribute -1."""
    from mgonal.numth import prime_divisors

    prod = -1 if (a < 0 and b < 0) else 1
    for p in prime_divisors(2 * abs(a) * abs(b)):
        prod *= hilbert_symbol(a, b, p)
    assert prod == 1


def test_anisotropy_parity():
    """A positive definite ternary is anisotropic at an odd number of finite
    primes (the real place accounts for the even total)."""
    from mgonal.numth import prime_divisors

    for coeffs in [(1, 1, 1), (1, 1, 3), (1, 2, 5), (1, 3, 7), (2, 3, 5),
                   ((1, 1, 2)), (1, 2, 9), (3, 4, 5)]:
        d = coeffs[0] * coeffs[1] * coeffs[2]
        bad = [p for p in prime_divisors(2 * d)
               if is_anisotropic_ternary(coeffs, p)]
        # anisotropy is impossible at primes of good reduction
        assert len(bad) % 2 == 1, coeffs


def test_anisotropy_known_values():
    assert is_anisotropic_ternary((1, 1, 1), 2)       # sums of 3 squares
    assert not is_anisotropic_ternary((1, 1, 1), 3)
    assert not is_anisotropic_ternary((1, 1, 7), 2)
    assert is_anisotropic_ternary((1, 1, 3), 3)
    assert not is_anisotropic_ternary((1, 1, 3), 2)


def test_anisotropy_closed_form_matches_engine():
    """The Hasse-invariant closed form agrees with the primitive-zero
    characterization: the form is isotropic iff for some i the
    complementary binary form represents -a_i over Z_p."""
    seen = set()
    for p, triples in CORPUS.items():
        for coeffs in triples:
            engine = not any(
                represents_over_zp((coeffs[(i + 1) % 3], coeffs[(i + 2) % 3]),
                                   -coeffs[i], p).represented
                for i in range(3))
            assert is_anisotropic_ternary(coeffs, p) == engine, (coeffs, p)
            seen.add(engine)
    assert seen == {True, False}


def test_progression_exponent_brute():
    """{(cx+alpha)^2 mod p^K} is exactly {alpha^2 + p^e t mod p^K}."""
    for c, p in [(2, 2), (4, 2), (6, 2), (6, 3), (10, 2), (10, 5), (12, 2),
                 (12, 3), (18, 3)]:
        e = _progression_exponent(c, p)
        K = e + 3
        mod = p**K
        for alpha in [a for a in range(1, c) if _coprime(a, c)][:2]:
            got = {(c * x + alpha) ** 2 % mod for x in range(mod)}
            want = {(alpha * alpha + p**e * t) % mod for t in range(mod)}
            assert got == want, (c, p, alpha)


def _coprime(a, b):
    import math

    return math.gcd(a, b) == 1


def test_shifted_rep_away_from_conductor():
    """For p not dividing c the congruence constraint is vacuous: the
    verdict equals the plain-lattice one."""
    g = ShiftedForm(conductor=2, coeffs=(1, 3, 5), shifts=(1, 1, 1))
    for p in (3, 5, 7):
        for N in range(0, 80):
            assert shifted_represents_over_zp(g, N, p) == bool(
                represents_over_zp((1, 3, 5), N, p))


def test_shifted_rep_at_conductor_closed_form():
    """For p | c each coordinate contributes the full ball
    a_i alpha_i^2 + p^(e + ord_p a_i) Z_p, so N is represented iff
    N = sum a_i alpha_i^2 modulo p^(e + min ord_p a_i)."""
    cases = [
        (ShiftedForm(conductor=2, coeffs=(1, 1, 1), shifts=(1, 1, 1)), 2),
        (ShiftedForm(conductor=2, coeffs=(1, 2, 6), shifts=(1, 1, 1)), 2),
        (ShiftedForm(conductor=6, coeffs=(1, 3, 5), shifts=(1, 1, 5)), 2),
        (ShiftedForm(conductor=6, coeffs=(1, 3, 5), shifts=(1, 1, 5)), 3),
        (ShiftedForm(conductor=10, coeffs=(1, 2, 4), shifts=(1, 3, 3)), 5),
        (ShiftedForm(conductor=12, coeffs=(2, 3, 8), shifts=(1, 5, 7)), 2),
        (ShiftedForm(conductor=12, coeffs=(2, 3, 8), shifts=(1, 5, 7)), 3),
    ]
    for g, p in cases:
        e = _progression_exponent(g.conductor, p)
        gexp = e + min(ord_p(a, p) for a in g.coeffs)
        m0 = sum(a * al * al for a, al in zip(g.coeffs, g.shifts))
        for N in range(0, 3 * p**gexp):
            want = (N - m0) % p**gexp == 0
            assert shifted_represents_over_zp(g, N, p) == want, (g, p, N)


def test_locally_represented_basics():
    # every n is locally represented by the triangular-number form (1,1,1)
    f3 = MGonalForm(3, (1, 1, 1))
    assert all(locally_represented(f3, n) for n in range(0, 200))
    # sums of three squares: exactly the 4^a(8b+7) targets fail, and they
    # fail at p = 2
    f4 = MGonalForm(4, (1, 1, 1))
    for n in range(0, 200):
        blocked = _is_4a_8b7(n)
        assert locally_represented(f4, n) == (not blocked), n
    # real condition: negative targets with negative shifted target fail
    assert not locally_represented(MGonalForm(3, (1, 1, 1)), -1)
    # ... but (1,3,27) at -3 has shifted target 7 >= 0 and passes locally
    assert locally_represented(MGonalForm(3, (1, 3, 27)), -3)
    assert shifted_target(MGonalForm(3, (1, 3, 27)), -3) == 7


def _is_4a_8b7(n):
    while n % 4 == 0 and n > 0:
        n //= 4
    return n % 8 == 7


def test_form_to_shifted_roundtrip_values():
    """Local routing through form_to_shifted preserves the defining identity
    on actual integer points."""
    for m in (3, 5, 6, 7, 8, 12):
        f = MGonalForm(m, (1, 2, 3))
        g = form_to_shifted(f)
        vals_f = {f.value(xs) for xs in itertools.product(range(-6, 7), repeat=3)}
        targets = {shifted_target(f, n) for n in vals_f}
        vals_g = {g.value(ys) for ys in itertools.product(range(-9, 9), repeat=3)}
        assert targets <= vals_g


def _class_reps(p):
    """One unit of each square class at p, in class-index order: 2 i + 1 at
    p = 2; 1 and the least nonresidue (from sympy) at odd p."""
    if p == 2:
        return (1, 3, 5, 7)
    return (1, next(a for a in range(2, p) if not sympy.is_quad_residue(a, p)))


def _canonical_entries(key, p):
    """The entries p^e u of a key, u the class representative of index i."""
    reps = _class_reps(p)
    return [p ** e * reps[i] for e, i in key]


def _ternary_keys(p, depth):
    """Every rank-3 lattice key with entries of depth <= depth at p: the
    sorted triples of labels (e, i)."""
    entries = [(e, i) for e in range(depth + 1)
               for i in range(len(_class_reps(p)))]
    return list(itertools.combinations_with_replacement(entries, 3))


def _window_verdicts(coeffs, lo, width, p):
    """The range engine's verdicts on the targets lo, ..., lo + width - 1:
    the complement of its exclusion bitset (`_exclusions`, mu = 1), read
    from its binary digits, lowest bit first."""
    excluded = _exclusions(p, 1, width)(_lattice_key(coeffs, p), lo)
    return [bit == "0" for bit in reversed(f"{excluded:0{width}b}")]


def _check_against_fft(coeffs, key, p):
    """The range engine's verdict at every nonzero residue r mod p^K, K >=
    hensel_exponent, equals the full value set of coeffs mod p^K,
    convolved by FFT.  K reaches the orders where the descriptor turns
    periodic, and stops at p^K <= 2^16."""
    lift = key[-1][0] + 2 * ord_p(2, p) + 1  # hensel_exponent at a unit
    K = 2 * (key[-1][0] + ord_p(2, p)) + 2 + lift  # to the period
    while p ** K > 2 ** 16:
        K -= 1
    residues = np.arange(1, p ** K)
    deep = residues % p ** (K - lift + 1) == 0
    values = _coord_indicator(coeffs[0], p, K)
    for a in coeffs[1:]:
        values = _convolve_presence(values, _coord_indicator(a, p, K))
    got = np.array(_window_verdicts(coeffs, 1, p ** K - 1, p))
    assert np.array_equal(got[~deep], values[residues[~deep]] > 0.5), (p, coeffs)


def test_class_built_tables_match_fft_tables():
    """The descriptor, written from class sums, gives the FFT verdicts on
    the canonical entries p^e u of every rank-3 key of depth <= 2 at p in
    {2, 3, 5, 7} and of a sample at 11 and 13 (all keys of depth <= 1, and
    some of depth 2 at 11)."""
    rng = random.Random(10)
    cases = [(p, key) for p in (2, 3, 5, 7) for key in _ternary_keys(p, 2)]
    cases += [(p, key) for p in (11, 13) for key in _ternary_keys(p, 1)]
    cases += [(11, key) for key in rng.sample(_ternary_keys(11, 2), 4)]
    for p, key in cases:
        _check_against_fft(_canonical_entries(key, p), key, p)
    assert len(cases) == 364 + 3 * 56 + 2 * 20 + 4


def test_pivot_tables_match_real_entries():
    """Real entries give the verdicts of the canonical lattice of their key,
    checked against the FFT value set of the real entries: random signed
    units of the same square class for every rank-3 key of depth <= 2 at p
    in {2, 3, 5, 7}, all four odd classes mod 8 at p = 2 included."""
    rng = random.Random(11)
    checked, signs, classes_at_2 = 0, set(), set()
    for p in (2, 3, 5, 7):
        units = [u for u in range(-8 * p, 8 * p) if u % p]
        for key in _ternary_keys(p, 2):
            real = []
            for e, i in key:
                a = p ** e * rng.choice(units)
                while _lattice_key([a], p) != ((e, i),):
                    a = p ** e * rng.choice(units)
                real.append(a)
            signs |= {a > 0 for a in real}
            if p == 2:
                classes_at_2 |= {a // 2 ** ord_p(a, 2) % 8 for a in real}
            _check_against_fft(real, key, p)
            checked += 1
    assert checked == 364 + 3 * 56 and signs == {True, False}
    assert classes_at_2 == {1, 3, 5, 7}


def test_odd_class_sum_rule_matches_enumeration():
    """u x^2 + w y^2 over units x, y mod p, for u and w in the square or the
    nonsquare class and every odd prime p < 100: the nonzero Legendre
    classes met and whether 0 is met are those the count rule of
    `_near_sums_odd` gives."""
    for p in filter(is_prime, range(3, 100, 2)):
        q = _class_reps(p)[1]
        squares = {x * x % p for x in range(1, p)}
        classes = (squares, set(range(1, p)) - squares)
        for i, u in enumerate((1, q)):
            for j, w in enumerate((1, q)):
                sums = {(u * a + w * b) % p for a in squares for b in squares}
                mask = sum(1 << c for c, cls in enumerate(classes) if sums & cls)
                assert _near_sums_odd(p)[0][i][j] == (0, mask, 0 in sums), (p, u, w)


def test_engine_makes_no_fft_call(monkeypatch):
    """With numpy's FFT disabled and a cold descriptor cache, plain,
    range-engine and shifted queries and a census scan give the answers they
    give with it: the engine builds its descriptors from class sums, and
    only the oracles convolve."""
    g = ShiftedForm(conductor=6, coeffs=(1, 2, 3), shifts=(1, 1, 1))
    queries = [
        lambda: [represents_over_zp(c, n, p).represented
                 for p in (2, 3, 5, 7) for c in ((1, 1, 1), (1, 2, p ** 3), (3, p, p * p))
                 for n in (1, 2, 3, 7, p, p ** 3, 5 * p ** 4)],
        lambda: [_window_verdicts(c, n, 1, p) for n in range(-5, 400)
                 for p in (2, 3, 5) for c in ((1, 1, 1), (1, 3, 4 * p))],
        lambda: [shifted_represents_over_zp(g, N, p) for p in (2, 3, 5, 7)
                 for N in range(60)],
        lambda: candidate_scan(8, 5, 500),
    ]
    expected = [query() for query in queries]

    def no_fft(*args, **kwargs):
        raise AssertionError("the engine called numpy.fft")

    monkeypatch.setattr(np.fft, "rfft", no_fft)
    monkeypatch.setattr(np.fft, "irfft", no_fft)
    with pytest.raises(AssertionError, match="numpy.fft"):
        represents_reference_fft((1, 1, 1), 7, 3)
    _value_set.cache_clear()
    assert [query() for query in queries] == expected
    assert _value_set.cache_info().misses > 0


def test_verdict_does_not_depend_on_coefficient_order():
    # a deep coefficient anywhere in the tuple gives the same key
    assert represents_over_zp((5**10, 1, 1), 1, 5).represented
    assert represents_over_zp((1, 1, 5**10), 1, 5).represented
    # <1,1> is anisotropic at 3 and 3^5 is too deep to reach 3
    assert not represents_over_zp((3**5, 1, 1), 3, 3).represented
    assert not represents_over_zp((1, 2**30, 1), 7, 2).represented


def test_composite_p_is_rejected_by_name():
    # the square-class arithmetic is only meaningful at a prime, and a
    # raised error (not an assert) survives python -O
    g = ShiftedForm(conductor=6, coeffs=(1, 1, 1), shifts=(1, 1, 1))
    for call in (lambda: represents_over_zp((1, 1, 1), 3, 9),
                 lambda: shifted_represents_over_zp(g, 3, 6),
                 lambda: shifted_represents_over_zp(g, 3, 1),
                 lambda: represents_over_zp((1, 1, 1), 3, 1)):
        with pytest.raises(ValueError, match="must be a prime"):
            call()


def test_modulus_too_large_paths():
    with pytest.raises(ModulusTooLarge):
        represents_mod_search((1, 1, 1), 5, 2, K=10)  # grid 2^30 cells
    with pytest.raises(ModulusTooLarge):
        represents_reference_fft((2**10, 2**10, 2**11), 7, 2)  # K past 2^22


def test_fft_reference_checks_raise_under_optimize():
    """The FFT oracle refuses a K below hensel_exponent with ValueError,
    and a convolution whose counts are not near integers with
    FloatingPointError, also when asserts are stripped: under -O,
    represents_reference_fft((1, 1, 1), 7, 2, K=1) used to return True,
    though <1,1,1> misses 7 over Z_2."""
    assert not represents_over_zp((1, 1, 1), 7, 2)
    script = (
        "import numpy as np\n"
        "from mgonal.localrep import _convolve_presence, represents_reference_fft\n"
        "half = np.array([0.5, 0.0, 0.0, 0.0])\n"
        "for call in (lambda: represents_reference_fft((1, 1, 1), 7, 2, K=1),\n"
        "             lambda: _convolve_presence(half, np.roll(half, 1) * 2)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except (ValueError, FloatingPointError) as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError the FFT reference needs K >= 3, got K = 1",
        "FloatingPointError FFT roundoff out of tolerance"]


def test_pivots_deeper_than_the_target_build_no_table():
    """A pivot deeper than the target builds no residue table: the
    descriptor of <1,1,3^5> is K + 2 = 13 bitmasks, K = 2 * 5 + 1, where a
    table of its 3^5 pivot would hold 3^11 entries, and a 2^30 entry gives
    65 bitmasks, not a table past 2^22 entries."""
    _value_set.cache_clear()
    assert represents_over_zp((1, 1, 3**5), 2, 3).represented
    # <1,1> is anisotropic at 3: the unit pivot misses at 3, and n / 9 is
    # not integral, so the 3^5 pivot cannot reach n
    assert not represents_over_zp((1, 1, 3**5), 3, 3).represented
    assert _value_set.cache_info().misses == 1
    assert len(_value_set(3, _lattice_key((1, 1, 3**5), 3))) == 13
    assert not represents_over_zp((1, 1, 2**30), 7, 2).represented
    assert [represents_over_zp((1, 1, 2**30), n, 2).represented
            for n in (7, 5, 2**40)] == [False, True, True]
    assert len(_value_set(2, _lattice_key((1, 1, 2**30), 2))) == 65


# the first p-depth of an entry a at which a residue table mod
# p^(2 ord_p(2a) + 1) would pass 2^22 entries
PAST_LIMIT = {2: 10, 3: 7, 5: 5, 7: 4}


def _deep_lattices(count, seed):
    """Random (p, coeffs, draw) with two entries at most 2 deep and one
    entry at least PAST_LIMIT deep (2^30 deep at the most); draw() gives a
    target up to 3 deeper than that entry, and within int64."""
    rng = random.Random(seed)

    def signed(p, depth, units):
        return rng.choice((1, -1)) * p ** depth * rng.choice(units)

    def drawer(p, deep, units):
        return lambda: signed(p, rng.randrange(min(deep + 4, 18)), units)

    out = []
    for _ in range(count):
        p = rng.choice((2, 3, 5, 7))
        units = [u for u in range(1, 4 * p) if u % p]
        deep = rng.choice((PAST_LIMIT[p], PAST_LIMIT[p] + 1, 30))
        coeffs = [signed(p, e, units)
                  for e in (rng.randrange(3), rng.randrange(3), deep)]
        rng.shuffle(coeffs)
        out.append((p, tuple(coeffs), drawer(p, deep, units)))
    return out


def test_deep_verdicts_match_fft_reference():
    """On lattices with an entry past the depths a residue table could
    reach, every target is answered, and the verdicts equal plain witness
    existence mod p^K at the Hensel exponent wherever p^K <= 2^18, which
    keeps each reference FFT quick."""
    checked = refused = 0
    for p, coeffs, target in _deep_lattices(1000, 17):
        n = target()
        try:
            got = represents_over_zp(coeffs, n, p).represented
        except ModulusTooLarge:
            refused += 1
            continue
        K = hensel_exponent(coeffs, n, p)
        if p**K <= 2**18:
            assert got == represents_reference_fft(coeffs, n, p, K), (p, coeffs, n)
            checked += 1
    assert checked > 150 and refused == 0


def test_array_and_scalar_paths_agree_on_refusals():
    """The range engine gives the scalar verdicts on lattices with a deep
    entry, in one-target windows and in windows of 7 around each target,
    and neither path refuses a target."""
    # <1,1> is anisotropic at 7, so 7^5 needs the 7^4 entry: with
    # z^2 = 2 (mod 7^6), 49^2 + 98^2 + 7^4 z^2 = 7^4 (5 + z^2) = 7^5
    # (mod 7^10), and 7^10 is the Hensel modulus
    assert represents_over_zp((1, 1, 7**4), 7**4, 7).represented
    assert represents_over_zp((1, 1, 7**4), 7**5, 7).represented
    assert hensel_exponent((1, 1, 7**4), 7**5, 7) == 10
    z = next(z for z in range(1, 7**6) if z * z % 7**6 == 2)
    witness = (49, 98, z)
    assert sum(a * x * x for a, x in zip((1, 1, 7**4), witness)) % 7**10 == 7**5
    # (*): the coordinate z is a unit and 2 ord_7(2 * 7^4) + 1 <= 10
    assert z % 7 and 2 * ord_p(2 * 7**4, 7) + 1 <= 10
    assert [_window_verdicts((1, 1, 7**4), n, 1, 7)[0]
            for n in (7**4, 1, 7, 7**5)] == [True, True, False, True]
    seen = set()
    for p, coeffs, target in _deep_lattices(60, 18):
        ns = [target() for _ in range(20)]
        scalar = [represents_over_zp(coeffs, n, p).represented for n in ns]
        assert [_window_verdicts(coeffs, n, 1, p)[0] for n in ns] == scalar
        for n in ns:
            assert _window_verdicts(coeffs, n - 3, 7, p) == [
                represents_over_zp(coeffs, t, p).represented
                for t in range(n - 3, n + 4)], (p, coeffs, n)
        seen |= set(scalar)
    assert seen == {True, False}


def test_coefficients_are_rejected_by_name_under_optimize():
    """Empty and zero coefficients raise ValueError naming them, also
    when asserts are stripped."""
    script = (
        "from mgonal.localrep import represents_over_zp\n"
        "for call in (lambda: represents_over_zp((), 5, 2),\n"
        "             lambda: represents_over_zp((1, 0, 3), 5, 2)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("got ()")
    assert lines[1].endswith("got (1, 0, 3)")


@pytest.mark.parametrize("call", [
    conservative_exponent, hensel_exponent, represents_mod_search,
    represents_reference_fft, represents_over_zp],
    ids=lambda f: f.__name__)
@pytest.mark.parametrize("coeffs", [(), (1, 0, 3)], ids=["empty", "zero"])
def test_exponents_refuse_what_the_lattice_key_refuses(call, coeffs):
    """No entries or a zero entry raise the lattice key's ValueError from
    both exponents and from the oracles that default to one: on no entries
    conservative_exponent used to return 5, hensel_exponent to fail in
    max() and the search with an IndexError, and a zero entry reached
    ord_p(0)."""
    with pytest.raises(ValueError, match=re.escape(
            f"nonempty list of nonzero integers, got {coeffs}")):
        call(coeffs, 5, 2)


def test_anisotropy_and_hilbert_symbol_reject_bad_input_under_optimize():
    """A wrong rank, a zero entry or a composite p raises ValueError
    naming the input, also when asserts are stripped."""
    script = (
        "from mgonal.localrep import hilbert_symbol, is_anisotropic_ternary\n"
        "for call in (lambda: is_anisotropic_ternary((1, 1), 3),\n"
        "             lambda: is_anisotropic_ternary((1, 0, 2), 3),\n"
        "             lambda: is_anisotropic_ternary((1, 1, 1), 9),\n"
        "             lambda: hilbert_symbol(0, 3, 5),\n"
        "             lambda: hilbert_symbol(2, 3, 9)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "anisotropy needs three nonzero entries, got (1, 1)",
        "anisotropy needs three nonzero entries, got (1, 0, 2)",
        "p must be a prime, got 9",
        "the Hilbert symbol needs nonzero a, b, got 0, 3",
        "p must be a prime, got 9"]


# primitive ascending triples with a_3 <= 5, as in a census
CENSUS_TRIPLES = [(a, b, c) for a in range(1, 6) for b in range(a, 6)
                  for c in range(b, 6) if math.gcd(math.gcd(a, b), c) == 1]


def _local_oracle(f, n):
    """The local verdict written out prime by prime, one target at a time."""
    g = form_to_shifted(f)
    N = shifted_target(f, n)
    if N < 0:
        return False
    # the primes of the lcm are those of the product, whose square root
    # trial division would reach past an entry near 2^32
    relevant = prime_divisors(2 * 3 * g.conductor * math.lcm(*f.coeffs))
    return all(shifted_represents_over_zp(g, N, p) for p in relevant)


# Rows with large prime entries 4099 and 65521; at m = 4 also 2^32 + 15 =
# 4294967311, a prime past 2^31.5.  The targets add multiples of the
# primes, of order 1 and 2 at them.
BIG_ROWS = [(1, 4099, 4099), (1, 2, 4099), (3, 65521, 65521),
            (1, 4099, 65521)]
BIG_ROWS_4 = [(1, 4294967311, 4294967311)]
BIG_NS = [q ** j * k for q in (4099, 65521) for j in (1, 2)
          for k in (1, 2, 3, 5)] + [4294967311 * k for k in (1, 2, 3, 5)]


@pytest.mark.parametrize("m", [3, 4, 5, 8, 13, 29])
def test_locally_represented_many_matches_per_prime_oracle(m):
    """One-row calls of the batch give the verdicts written out one prime
    and one target at a time, on the census triples and on BIG_ROWS."""
    ns = list(range(-10, 601))
    big = BIG_ROWS + (BIG_ROWS_4 if m == 4 else [])
    for coeffs in CENSUS_TRIPLES + big:
        f = MGonalForm(m, coeffs)
        targets = ns + (BIG_NS if coeffs in big else [])
        (got,) = locally_represented_rows(m, [coeffs], targets)
        assert got == [_local_oracle(f, n) for n in targets], coeffs


def test_locally_represented_many_edges():
    """Edge cases of one-row batch calls."""
    assert locally_represented_rows(5, [(1, 2, 3)], []) == [[]]
    # negative shifted targets fail over R; (1,3,27) at -3 has target 7
    assert locally_represented_rows(3, [(1, 1, 1)], [-3, -1, 0]) == [
        [False, False, True]]
    assert locally_represented_rows(3, [(1, 3, 27)], [-3]) == [[True]]
    # m = 4: the shifted target is n itself, and 0 is represented
    assert locally_represented_rows(4, [(1, 1, 1)], [0, 7, 28, 29]) == [
        [True, False, False, True]]
    assert locally_represented(MGonalForm(4, (1, 1, 1)), 0)
    # targets past int64, and a uint64 past 2^63, get the exact verdicts
    f = MGonalForm(5, (1, 2, 3))
    for ns in ([2**62], [-2**62], [2**70], [2**62 + j for j in range(-20, 21)]):
        assert locally_represented_rows(5, [f.coeffs], ns) == [
            [_local_oracle(f, n) for n in ns]]
    f = MGonalForm(4, (1, 1, 1))
    for ns in (np.array([2**63 + 7, 2**64 - 1], dtype=np.uint64), [2**70, 7 * 2**70]):
        assert locally_represented_rows(4, [f.coeffs], ns) == [
            [_local_oracle(f, int(n)) for n in ns]]
    # targets are not truncated or parsed: a float and a string raise
    for ns in ([7.9], ["3"], np.array([7.0])):
        with pytest.raises(TypeError):
            locally_represented_rows(4, [(1, 1, 1)], ns)
    # numpy integers of any width are answered
    for ns in (np.array([7, 29], dtype=np.uint64), np.array([7, 29], dtype=np.int8),
               [np.int16(7), 29]):
        assert locally_represented_rows(4, [(1, 1, 1)], ns) == [[False, True]]
    # at m = 4 (d = 0) an entry past int64 keeps its exact labels
    huge, ns = MGonalForm(4, (1, 1, 2**70)), [5, 7, 2**60]
    assert locally_represented_rows(4, [huge.coeffs], ns)[0] == [
        _local_oracle(huge, n) for n in ns] == [True, False, True]
    # at p = 2 the congruence modulus is 2^(3 + 61): only N = base =
    # 3 * 2^61 (n = 0) solves it among these targets
    assert locally_represented_rows(3, [(2**61,) * 3], [0, 1, 2**40]) == [
        [True, False, False]]


# Census rows plus rank-4 rows in the same call, rows sharing sum a_i
# across ranks ((1,1,1,1) and (1,1,2); (1,2,3,64) and (2,4,64); (1,1,3,81)
# and (1,4,81)), entries with deep 2-, 3- and 5-powers, and one row of
# rank 16 whose lattice key at 2 has sixteen distinct labels.
BATCH_ROWS = CENSUS_TRIPLES + [
    (1, 1, 1, 1), (1, 2, 3, 64), (2, 4, 64), (1, 1, 3, 81), (1, 4, 81),
    (1, 1, 128), (32, 81, 125), (1, 243, 243), (1, 625, 1250),
    (2, 3, 25, 125), (8, 27, 27, 3125), tuple(2**i for i in range(16))]


@pytest.mark.parametrize("m", [3, 4, 5, 8, 13, 29, 711])
def test_locally_represented_rows_match_one_row_calls(m):
    """One batch of rows of rank 3, 4 and 16 gives, per row and n, the verdict
    written out one target and one prime at a time: N >= 0 and the scalar
    shifted_represents_over_zp at every prime of 2 c prod(a_i)
    (`_local_oracle`), negative n included.  At m = 4 (N = n) the last
    targets lie deeper than every descriptor of the batch, at 7 too."""
    ns = [*range(-10, 601), 7 * 2**21, 7 * 2**22, 2 * 3**13, 2 * 5**13,
          3 * 7**10]
    got = locally_represented_rows(m, BATCH_ROWS, ns)
    assert len(got) == len(BATCH_ROWS)
    for row, flags in zip(BATCH_ROWS, got):
        f = MGonalForm(m, row)
        assert flags == [_local_oracle(f, n) for n in ns], row
    assert locally_represented_rows(m, [], ns) == []


def test_numpy_rows_give_the_verdicts_of_list_rows():
    """Rows passed as a numpy array are read as Python ints: int64 entries
    give the verdicts of the same rows as lists, an object array keeps an
    entry past int64 exact at m = 4, and int64 entries whose sum passes
    2^63 give the verdicts of the exact sum, not of a wrapped one.  A scan
    of a form with numpy coefficients reports what the list form does."""
    rows = [row for row in BATCH_ROWS if len(row) == 3]
    ns = np.arange(-10, 301)
    for m in (3, 4, 8, 13):
        assert (locally_represented_rows(m, np.array(rows), ns)
                == locally_represented_rows(m, rows, ns)), m
    huge = [(1, 1, 2**70), (1, 2, 2**64)]
    got = locally_represented_rows(4, np.array(huge, dtype=object), ns)
    assert got == locally_represented_rows(4, huge, ns)
    assert [flags[10:50] for flags in got] == [
        [_local_oracle(MGonalForm(4, row), n) for n in range(40)] for row in huge]
    wide = MGonalForm(5, (1, 2**62, 2**62))
    assert locally_represented_rows(5, np.array([wide.coeffs]), range(-5, 40)) == [
        [_local_oracle(wide, n) for n in range(-5, 40)]]
    scans = [regularity_scan(MGonalForm(8, coeffs), 300)
             for coeffs in (tuple(np.array([1, 2, 3])), (1, 2, 3))]
    assert len({(r.verdict, r.counterexamples, r.locally_count)
                for r in scans}) == 1


def _seeded_rows(rng):
    """Rows of rank 3 to 5 with entries 2^a 3^b 5^c times a unit, made
    primitive, each also scaled by a common factor."""
    rows = []
    for rank in (3, 3, 3, 3, 4, 4, 5):
        row = [2 ** rng.randrange(5) * 3 ** rng.randrange(4) * 5 ** rng.randrange(3)
               * rng.choice((1, 1, 7, 11, 13)) for _ in range(rank)]
        g = math.gcd(*row)
        row, h = sorted(a // g for a in row), rng.choice((2, 3, 4, 8, 9, 27))
        rows += [tuple(row), tuple(a * h for a in row)]
    return rows


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 13, 45, 100, 711, 712, 1000])
def test_range_bitsets_match_the_array_batch(m):
    """locally_represented_bits gives, bit for bit, the verdicts of the
    literal reference locally_represented_rows on the same range: seeded
    primitive and imprimitive rows of rank 3 to 5, the census triples and
    entries 4099 and 65521, primes past every window, and at m = 4 (no
    overflow check on the entries) entries past int64; single n, negative
    lo and widths up to 3000."""
    rng = random.Random(m)
    rows = (_seeded_rows(rng) + CENSUS_TRIPLES
            + [(1, 2, 4099), (1, 4099, 4099), (3, 65521, 65521)]
            + ([(1, 1, 2**70), (1, 2, 2**64)] if m == 4 else []))
    ranges = [(0, 0), (-3, -3), (7, 7), (0, 1), (0, 2), (-40, 40),
              (123, 777), (0, 3000)]
    ranges += [(lo, lo + rng.randrange(3000)) for lo in
               (rng.randrange(-60, 0), rng.randrange(500))]
    for lo, hi in ranges:
        flags = locally_represented_rows(m, rows, range(lo, hi + 1))
        want = [sum(1 << j for j, ok in enumerate(row) if ok) for row in flags]
        assert locally_represented_bits(m, rows, lo, hi) == want, (lo, hi)
    assert locally_represented_bits(m, [], 0, 10) == []
    assert locally_represented_bits(m, rows, 5, 4) == [0] * len(rows)


def test_low_rank_forms_are_rejected_under_optimize():
    """Below rank 3 a form with p-unit entries need not be universal at p:
    <1,1> misses 77 over Z_7, a prime that 2 c prod(a_i) does not hold.
    So rank 1 and 2 raise ValueError naming the rank, on the scalar and
    the batch entry point and with asserts stripped."""
    assert not represents_over_zp((1, 1), 77, 7)
    script = (
        "from mgonal.localrep import locally_represented, locally_represented_rows\n"
        "from mgonal.polygonal import MGonalForm\n"
        "for call in (lambda: locally_represented(MGonalForm(4, (1, 1)), 77),\n"
        "             lambda: locally_represented_rows(4, [(1, 1, 1), (2,)], [5])):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "local verdicts need rank >= 3, got rank 2 in (1, 1)",
        "local verdicts need rank >= 3, got rank 1 in (2,)"]


def _enumerated_residues(g, mod):
    """Residues mod `mod` of sum a_i (c x_i + alpha_i)^2, by enumerating
    every x_i mod `mod` (a value mod `mod` depends only on x mod `mod`)."""
    xs = np.arange(mod, dtype=np.int64)
    reach = np.zeros(1, dtype=np.int64)
    for a, al in zip(g.coeffs, g.shifts):
        vals = np.unique(a * ((g.conductor * xs + al) % mod) ** 2 % mod)
        reach = np.unique(np.add.outer(reach, vals) % mod)
    want = np.zeros(mod, dtype=bool)
    want[reach] = True
    return want


def test_witness_is_searched_once_at_the_hensel_exponent(monkeypatch):
    """want_witness runs one grid search, at hensel_exponent: a witness
    found there solves Q(x) = n mod p^K, and a refused box leaves no
    witness and the conservative exponent (a larger box would be refused
    as well)."""
    import mgonal.localrep as localrep

    search, sizes = localrep.represents_mod_search, []
    monkeypatch.setattr(localrep, "represents_mod_search",
                        lambda *args: sizes.append(args[3]) or search(*args))
    v = represents_over_zp((1, 1, 2), 6, 2, want_witness=True)
    assert sizes == [hensel_exponent((1, 1, 2), 6, 2)] == [v.modulus_exponent]
    assert sum(a * x * x for a, x in zip((1, 1, 2), v.witness)) % 2 ** sizes[0] == 6
    sizes.clear()
    v = represents_over_zp((3, 5, 7), 1000, 5, want_witness=True)
    assert v.represented and v.witness is None
    assert sizes == [hensel_exponent((3, 5, 7), 1000, 5)] == [5]
    assert v.modulus_exponent == conservative_exponent((3, 5, 7), 1000, 5) == 8


def test_shifted_residue_tables_match_enumeration():
    """At p | c the verdict at every residue mod the Hensel modulus
    p^(2 ord_p(2c) + 1) (up to 10^4 entries) equals the set of values of
    sum a_i (c x_i + alpha_i)^2 mod that modulus, enumerated directly.
    With w = ord_p(c), {c x + alpha : x mod p^K} = alpha + p^w Z mod p^K,
    so both sides see the form only through p, w, the coefficients and the
    shifts mod p^w; each distinct such case is checked once.
    """
    seen, primes = set(), set()
    for m in range(3, 47):
        for coeffs in CENSUS_TRIPLES:
            g = form_to_shifted(MGonalForm(m, coeffs))
            for p in prime_divisors(g.conductor):
                w = ord_p(g.conductor, p)
                mod = p ** (2 * ord_p(2 * g.conductor, p) + 1)
                case = (p, w, coeffs, tuple(al % p ** w for al in g.shifts))
                if mod > 10**4 or case in seen:
                    continue
                seen.add(case)
                got = [shifted_represents_over_zp(g, N, p) for N in range(mod)]
                assert got == _enumerated_residues(g, mod).tolist(), (g, p)
                primes.add(p)
    assert primes == {2, 3, 5, 7, 11, 13, 17, 19} and len(seen) > 300


def test_shifted_rep_of_non_primitive_forms():
    """A form whose coefficients all share the prime p | c gets an exact
    verdict: at targets of either sign it matches the values mod
    p^(e + min ord_p a_i + 1), enumerated directly."""
    cases = [
        (ShiftedForm(conductor=6, coeffs=(3, 6, 9), shifts=(1, 1, 5)), 3),
        (ShiftedForm(conductor=2, coeffs=(2, 4, 6), shifts=(1, 1, 1)), 2),
        (ShiftedForm(conductor=4, coeffs=(4, 8, 12), shifts=(1, 3, 1)), 2),
        (ShiftedForm(conductor=10, coeffs=(25, 50, 125), shifts=(1, 3, 3)), 5),
    ]
    for g, p in cases:
        depth = min(ord_p(a, p) for a in g.coeffs)
        assert depth >= 1
        mod = p ** (_progression_exponent(g.conductor, p) + depth + 1)
        want = _enumerated_residues(g, mod)
        assert 0 < want.sum() < mod
        for N in range(-mod, 2 * mod):
            assert shifted_represents_over_zp(g, N, p) == want[N % mod], (g, p, N)



@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_scalar_array_and_shifted_paths_agree_off_the_corpus(p):
    """On random keys the corpus lacks (depths up to 6, entries of either
    sign), at zero, negative and deep targets p^k u: the scalar verdict is
    the range engine's in a one-target window, its exponent is
    conservative_exponent, and the
    shifted verdict is the plain one at p not dividing c and the
    enumerated residues at p | c."""
    rng = random.Random(2000 + p)
    units = [u for u in range(-6 * p, 6 * p) if u % p]
    other = [q for q in (3, 5, 7, 11) if q != p]
    for _ in range(30):
        coeffs = tuple(rng.choice(units) * p ** rng.randrange(7) for _ in range(3))
        ns = [0] + [rng.choice(units) * p ** rng.randrange(9) for _ in range(15)]
        scalar = [represents_over_zp(coeffs, n, p) for n in ns]
        assert [v.represented for v in scalar] == \
            [_window_verdicts(coeffs, n, 1, p)[0] for n in ns], (coeffs, p)
        assert [v.modulus_exponent for v in scalar] == \
            [conservative_exponent(coeffs, n, p) for n in ns], (coeffs, p)
        positive = tuple(abs(a) for a in coeffs)
        c = rng.choice(other)
        g = ShiftedForm(c, positive, tuple(rng.randrange(1, c) for _ in range(3)))
        assert [shifted_represents_over_zp(g, n, p) for n in ns] == \
            [bool(represents_over_zp(positive, n, p)) for n in ns], (g, p)
    for _ in range(30):
        c = p ** rng.randrange(1, 3) * rng.choice(other)
        shifts = tuple(rng.choice([s for s in range(1, c) if math.gcd(s, c) == 1])
                       for _ in range(3))
        depths = [0, rng.randrange(3), rng.randrange(7)]
        rng.shuffle(depths)
        g = ShiftedForm(c, tuple(abs(rng.choice(units)) * p ** e for e in depths),
                        shifts)
        mod = p ** (_progression_exponent(c, p) + 1)
        want = _enumerated_residues(g, mod)
        ns = [rng.randrange(-3 * mod, 3 * mod) for _ in range(20)]
        assert [shifted_represents_over_zp(g, n, p) for n in ns] == \
            [bool(want[n % mod]) for n in ns], (g, p)


def test_numpy_integers_are_accepted_at_the_entry_points():
    """np.int64 targets, entries and primes give the verdicts of Python
    integers; a float still raises TypeError."""
    g = ShiftedForm(conductor=15, coeffs=(1, 2, 9), shifts=(1, 2, 4))
    for p in (2, 3, 5, 7):
        for coeffs, n in (((1, 2, 3), 7), ((3, 5, 16), 44), ((1, p, p ** 3), -5 * p * p)):
            want = represents_over_zp(coeffs, n, p)
            i64 = tuple(np.int64(a) for a in coeffs)
            assert represents_over_zp(coeffs, np.int64(n), p) == want
            assert represents_over_zp(i64, n, p) == want
            assert represents_over_zp(np.array(coeffs), n, np.int64(p)) == want
            assert is_stable(i64, np.int64(p)) == is_stable(coeffs, p)
            if is_stable(coeffs, p):
                assert stable_value_set_check(i64, np.int64(p), np.int64(n)) \
                    == stable_value_set_check(coeffs, p, n)
            assert hilbert_symbol(np.int64(coeffs[0]), np.int64(n), np.int64(p)) \
                == hilbert_symbol(coeffs[0], n, p)
            assert shifted_represents_over_zp(g, np.int64(n), np.int64(p)) \
                == shifted_represents_over_zp(g, n, p)
    for call in (lambda: represents_over_zp((1, 2, 3), 7.0, 2),
                 lambda: represents_over_zp((1, 2.0, 3), 7, 3),
                 lambda: represents_over_zp((1, 2, 3), 7, 2.0),
                 lambda: is_stable((1, 2, 3), 3.0),
                 lambda: hilbert_symbol(2, 3.0, 5),
                 lambda: shifted_represents_over_zp(g, 7.0, 3),
                 lambda: shifted_represents_over_zp(g, 7, 2.0)):
        with pytest.raises(TypeError):
            call()


def test_shifted_and_plain_validation_raise_under_optimize():
    """A zero shift, a negative shift sharing a factor with c, a p that is
    not a prime (on both sides of p | c, in the exponents and in a descent
    step) and a zero entry raise ValueError, also when asserts are stripped;
    at c = 1 any shifts are accepted.  (hensel_exponent and
    conservative_exponent used to return 1 and 3 at p = 4 and 6, and the
    descent step divided by p = 0.)"""
    script = (
        "from mgonal.localrep import (conservative_exponent, hensel_exponent,\n"
        "                             represents_over_zp, shifted_represents_over_zp)\n"
        "from mgonal.polygonal import ShiftedForm\n"
        "from mgonal.watson import coset_watson_step\n"
        "print(ShiftedForm(1, (1, 2, 3), (0, -4, 6)).shifts)\n"
        "g, h = ShiftedForm(36, (1, 2, 3), (1, 5, 7)), ShiftedForm(5, (1, 2, 3), (1, 2, 3))\n"
        "for call in (lambda: ShiftedForm(6, (1, 2, 3), (1, 0, 5)),\n"
        "             lambda: ShiftedForm(10, (1, 2, 3), (1, -4, 3)),\n"
        "             lambda: shifted_represents_over_zp(g, 7, 1),\n"
        "             lambda: shifted_represents_over_zp(g, 7, 4),\n"
        "             lambda: shifted_represents_over_zp(h, 7, 4),\n"
        "             lambda: shifted_represents_over_zp(g, 7, 9),\n"
        "             lambda: shifted_represents_over_zp(h, 7, 9),\n"
        "             lambda: represents_over_zp((1, 0, 3), 5, 3),\n"
        "             lambda: hensel_exponent((1, 1, 1), 5, 4),\n"
        "             lambda: conservative_exponent((1, 1, 1), 5, 6),\n"
        "             lambda: coset_watson_step(ShiftedForm(7, (1, 1, 25), (1, 1, 1)), 0),\n"
        "             lambda: coset_watson_step(ShiftedForm(7, (1, 1, 25), (1, 1, 1)), 1)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "(0, -4, 6)",
        "shifts (1, 0, 5) must be coprime to the conductor 6",
        "shifts (1, -4, 3) must be coprime to the conductor 10",
        "p must be a prime, got 1",
        "p must be a prime, got 4",
        "p must be a prime, got 4",
        "p must be a prime, got 9",
        "p must be a prime, got 9",
        "coefficients must be a nonempty list of nonzero integers, got (1, 0, 3)",
        "p must be a prime, got 4",
        "p must be a prime, got 6",
        "p must be a prime, got 0",
        "p must be a prime, got 1"]
