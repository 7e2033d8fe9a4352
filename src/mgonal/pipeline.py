"""Constructive local lemmas and the mechanical replay of the four-case
bound derivation for ternary shifted forms.

Setting: a ternary shifted form sum a_i (c x_i + alpha_i)^2 with conductor
c >= 36, coefficients a_1 <= a_2 <= a_3, and T = {p_1 < ... < p_t} the odd
primes prime to 2c at which the lattice <a_1,a_2,a_3> is anisotropic.  All
p_i >= 5, so p_i >= r_i (the i-th prime >= 5).  Each congruence case of m
fixes kappa (the step of the arithmetic progression of represented targets)
and the ranges of the correction terms nu_1, nu_2; the derivation then
alternates three moves:

  * eta-window counts bound a_1 (two-representations argument) and a_2
    (N-option ladder argument);
  * a product inequality r_l ... r_t > a_1 a_2 * (k-bound shape) turns the
    pair of coefficient bounds into a smaller bound on t;
  * once t is small, one more eta window bounds a_1 (c + 2) and hence c,
    and inverting c(m) per congruence class bounds m.

The bounds are recomputed from the eta table, the product-inequality
clauses and the bound lemmas; the golden log shipped under data/ is used
only to cross-check the derivation, never as an input to it.  The ranges
of the correction terms, `CaseParams.nu1_range` and `nu2_range`, are fixed
inputs of each case, not derived here (ROADMAP.md, item 4, plans a
certificate for them).

The constructive lemmas behind the derivation are also implemented here.
`replay_case` calls none of them; the tests check each one:

  * find_nu: pick nu so that u(4n+nu)+l (or u(12n+nu)+l) is represented
    over Z_2 (and Z_3) for every n >= 0.  Unit squares in Z_2 are exactly
    1 + 8 Z_2, so whether 2^e * w (w odd) is represented depends only on
    (e, w mod 8); a residue class mod 4 therefore decomposes into finitely
    many such fingerprints, and the deep ords reduce to e in {2,3} because
    4 * Q(L) is contained in Q(L).  The check below tests exactly those
    fingerprints, making the "for every n" quantifier finite.
  * find_v: at an anisotropic prime p (lattice of shape <1,-Delta> with an
    extra <p eps> entry), construct v with 0 < v < p^2 such that uv + A_2
    escapes the binary sublattice while uv + min stays represented, both
    values having ord at most 1.  Three branches, depending on which
    coefficient p divides.
  * find_coprime_shift: the smallest n with gcd(un + v, p_1...p_s) = 1,
    which always lands below (s+4) 2^{s-2} when s >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .density import eta
from .localrep import (_lattice_key, _order_and_class, _stable_pair, is_stable,
                       represents_over_zp)
from .numth import _check_prime, ord_p
from .prodineq import CLAUSES, certify_all_t, verify_inequality, w_factor

# The derivation's standing hypothesis on the conductor.  All c-dependent
# bounds are evaluated here; they only get stronger as c grows.
C_MIN = 36


class LemmaViolation(Exception):
    """A constructive lemma failed to produce its guaranteed object."""


class ReplayMismatch(Exception):
    """The recomputed derivation differs from the recorded one."""


def _require(holds: bool, message: str) -> None:
    """A proof step's check: raise LemmaViolation unless it holds (an
    assert would vanish under python -O)."""
    if not holds:
        raise LemmaViolation(message)


# ---------------------------------------------------------------------------
# nu-selection over Z_2 (and Z_3)


def _coset_covered_z2(coeffs, w: int) -> bool:
    """Is the whole class w + 4 Z_2 inside the value set of L over Z_2?

    Odd w: every element is a unit congruent to w or w+4 mod 8, and units
    in a fixed class mod 8 differ by unit squares, so two checks suffice.
    w = 2 mod 4: elements are 2 * unit; four checks.  w = 0 mod 4: besides
    0 (always represented) the elements are 2^e * unit with e >= 2, and
    e >= 4 reduces to e - 2 via 4 Q(L) <= Q(L), leaving the eight
    fingerprints e in {2,3} x units mod 8.
    """
    w %= 4
    rep = lambda n: bool(represents_over_zp(coeffs, n, 2))
    if w % 2:
        return rep(w) and rep(w + 4)
    if w == 2:
        return all(rep(2 * odd) for odd in (1, 3, 5, 7))
    return all(rep((1 << e) * odd) for e in (2, 3) for odd in (1, 3, 5, 7))


def _coset_covered_z3(coeffs, w: int) -> bool:
    """Same coverage question for w + 3 Z_3 over Z_3.

    Unit squares in Z_3 are 1 + 3 Z_3, so units in a fixed class mod 3 form
    one orbit; class 0 reduces to the four fingerprints 3*{1,2}, 9*{1,2}.
    """
    w %= 3
    rep = lambda n: bool(represents_over_zp(coeffs, n, 3))
    if w:
        return rep(w)
    return all(rep(s * u) for s in (3, 9) for u in (1, 2))


def find_nu(coeffs: Sequence[int], u: int, l: int, also_3: bool = False) -> int:
    """Smallest nu with u(4n+nu)+l (also_3: u(12n+nu)+l) represented over
    Z_2 (and Z_3) for every integer n >= 0.

    The progression's closure in Z_2 is the full class (u nu + l) + 4 Z_2
    (resp. + 3 Z_3 at 3), so representability for every n is equivalent to
    coverage of that class, decided by the fingerprint checks above.  The
    first eight progression members are re-tested directly as a guard.
    """
    coeffs = tuple(coeffs)
    assert u % 2 == 1, "u must be odd"
    assert is_stable(coeffs, 2), "nu-selection needs a 2-stable lattice"
    if also_3:
        assert gcd(u, 6) == 1, "u must be prime to 6"
        assert is_stable(coeffs, 3), "nu-selection mod 12 needs 3-stability"
    mult = 12 if also_3 else 4
    for nu in range(5 if also_3 else 3):
        w = u * nu + l
        if not _coset_covered_z2(coeffs, w):
            continue
        if also_3 and not _coset_covered_z3(coeffs, w):
            continue
        for n in range(8):  # direct spot check of the first members
            val = u * (mult * n + nu) + l
            assert represents_over_zp(coeffs, val, 2), (nu, n, val)
            if also_3:
                assert represents_over_zp(coeffs, val, 3), (nu, n, val)
        return nu
    raise LemmaViolation(
        f"no nu in 0..{4 if also_3 else 2} covers u={u}, l={l} for {coeffs}"
    )


# ---------------------------------------------------------------------------
# v-construction at an anisotropic prime


def _anisotropic_shape(a: Sequence[int], p: int) -> int:
    """Index of the ord-1 entry if <a_1,a_2,a_3> = <1,-Delta> perp <p eps>
    at p (unimodular binary anisotropic, one entry of ord exactly 1);
    ValueError otherwise."""
    (e1, i1), (e2, i2), (e3, _) = _lattice_key(a, p)
    if (e1, e2, e3) != (0, 0, 1):
        raise ValueError(
            f"lattice {tuple(a)} at p={p} is not unimodular-rank-2 with a "
            f"single ord-1 entry (orders {(e1, e2, e3)})"
        )
    if _stable_pair(i1, i2, p):
        raise ValueError(
            f"binary part of {tuple(a)} is isotropic at p={p}; the "
            "construction needs -u1*u2 to be a nonsquare"
        )
    return next(i for i, x in enumerate(a) if x % p == 0)


def find_v(p: int, u: int, a: Sequence[int], alpha: Sequence[int]) -> int:
    """Construct 0 < v < p^2 with, writing A2 = a1 al1^2 + a2 al2^2 and
    m0 = A2 + a3 al3^2:

      (i)   0 < v < p^2;
      (ii)  u v + A2 is NOT represented by <a1,a2> over Z_p;
      (iii) u v + m0 IS represented by <a1,a2,a3> over Z_p;
      (iv)  ord_p of both values is at most 1.

    Requires p >= 5 and the anisotropic shape <1,-Delta> perp <p eps>.
    Branches on which coefficient p divides; each branch pins u v mod p or
    mod p^2 so that the target lands in the excluded square class of the
    binary part.  All four clauses are re-verified through the local
    engine before returning.  Raises ValueError unless p is a prime >= 5,
    a and alpha have three entries and u is a positive p-unit.
    """
    a = tuple(a)
    alpha = tuple(alpha)
    _check_prime(p, 5)
    if len(a) != 3 or len(alpha) != 3:
        raise ValueError(f"find_v needs three coefficients and three shifts, "
                         f"got {a} and {alpha}")
    if u <= 0 or u % p == 0:
        raise ValueError(f"find_v needs a positive unit u at {p}, got {u}")
    deep = _anisotropic_shape(a, p)
    a1, a2, a3 = a
    al1, al2, al3 = alpha
    A2 = a1 * al1 * al1 + a2 * al2 * al2
    m0 = A2 + a3 * al3 * al3

    if deep == 2:
        if al3 % p == 0:
            # p | a3 and p | alpha3: aim u v + A2 = a3 (mod p^2), an ord-1
            # value in the class the binary part misses.
            target = a3 % (p * p)
        else:
            # p | a3, alpha3 a unit: pick a square t != alpha3^2 mod p and
            # aim at a3 (t - alpha3^2), again ord exactly 1.
            t = next(
                t
                for t in range(1, p)
                if t % p != (al3 * al3) % p and _order_and_class(t, p)[1] == 0
            )
            target = a3 * (t - al3 * al3) % (p * p)
        v = (target - A2) * pow(u, -1, p * p) % (p * p)
    else:
        # p divides a1 or a2; the other of the pair is a unit.
        unit_class = _order_and_class(a2 if deep == 0 else a1, p)[1]
        # a' is a unit in the square class the pair <a1,a2> cannot take,
        # kept away from -a3 alpha3^2 so that clause (iii) sees a unit.
        aprime = next(
            x
            for x in range(1, p)
            if x % p != (-a3 * al3 * al3) % p
            and _order_and_class(x, p)[1] != unit_class
        )
        v = (aprime - A2) * pow(u, -1, p) % p

    # v = 0 would make u v + A2 = A2, which <a1,a2> represents at
    # (alpha1, alpha2) -- contradicting clause (ii); the targets above are
    # chosen so this cannot happen.
    assert v != 0

    failures = []
    if not 0 < v < p * p:
        failures.append(f"(i) v={v} outside (0, {p * p})")
    if represents_over_zp((a1, a2), u * v + A2, p):
        failures.append(f"(ii) {u * v + A2} represented by <{a1},{a2}>")
    if not represents_over_zp(a, u * v + m0, p):
        failures.append(f"(iii) {u * v + m0} not represented by {a}")
    if max(ord_p(u * v + A2, p), ord_p(u * v + m0, p)) > 1:
        failures.append("(iv) ord_p of a target exceeds 1")
    if failures:
        raise LemmaViolation(
            f"v-construction failed at p={p}, u={u}, a={a}, alpha={alpha}: "
            + "; ".join(failures)
        )
    return v


# ---------------------------------------------------------------------------
# coprime shifts


def find_coprime_shift(primes: Sequence[int], u: int, v: int) -> int:
    """Smallest n >= 0 with gcd(u n + v, p_1 ... p_s) = 1.

    For s >= 2 the result is guaranteed (and asserted) to lie below
    (s+4) 2^{s-2}.  The s = 1 case falls outside that bound's statement;
    there a direct scan below p_1 always succeeds (u is a unit mod p_1, so
    u n + v meets every residue class), and the same scan code handles it.
    Raises ValueError unless the p_i are ascending primes >= 5, at least
    one, and u is prime to each of them.
    """
    primes = tuple(primes)
    s = len(primes)
    if not s or any(x >= y for x, y in zip(primes, primes[1:])):
        raise ValueError(f"need a nonempty ascending list of primes, got "
                         f"{primes}")
    prod = 1
    for p in primes:
        _check_prime(p, 5)
        prod *= p
    if gcd(u, prod) != 1:
        raise ValueError(f"u must be prime to {primes}, got {u}")
    limit = primes[0] if s == 1 else (s + 4) << (s - 2)
    for n in range(limit):
        if gcd(u * n + v, prod) == 1:
            return n
    raise LemmaViolation(
        f"no coprime shift below {limit} for primes={primes}, u={u}, v={v}"
    )


# ---------------------------------------------------------------------------
# case parameters


@dataclass(frozen=True)
class CongruenceClass:
    """One congruence family of m sharing a single delta value."""

    tag: str  # "odd" | "2mod4" | "0mod4"
    three: bool  # is m = 2 (mod 3)?
    delta: int

    def __post_init__(self):
        assert (self.tag, self.delta) in {("odd", 4), ("2mod4", 2), ("0mod4", 1)}

    @property
    def label(self) -> str:
        return f"{self.tag},{'2mod3' if self.three else 'not2mod3'}"

    def contains(self, m: int) -> bool:
        if self.tag == "odd":
            mod4_ok = m % 2 == 1
        elif self.tag == "2mod4":
            mod4_ok = m % 4 == 2
        else:
            mod4_ok = m % 4 == 0
        return mod4_ok and (m % 3 == 2) == self.three

    def invert_c(self, c_bound: int) -> int:
        # c = delta (m - 2) / 2, so m = 2 c / delta + 2.
        return 2 * c_bound // self.delta + 2


@dataclass(frozen=True)
class CaseParams:
    """Fixed data of one of the four congruence cases of the derivation."""

    case_id: int
    description: str
    kappa: int
    nu1_range: Tuple[int, ...]
    nu2_range: Tuple[int, ...]
    classes: Tuple[CongruenceClass, ...]
    schedule: Tuple[Tuple[str, dict], ...]

    def __post_init__(self):
        assert self.case_id in (1, 2, 3, 4)
        assert self.kappa in (1, 3, 4, 12)

    @property
    def nu1_max(self) -> int:
        return max(self.nu1_range)

    @property
    def nu2_max(self) -> int:
        return max(self.nu2_range)

    @property
    def delta_max(self) -> int:
        return max(cls.delta for cls in self.classes)

    @property
    def s_shift(self) -> int:
        # k <= p1^2 (kappa W + s_shift): the additive part of the k-bound
        # shape, matching the product-inequality clauses' (a, b).
        return self.nu1_max + 1 - self.kappa


CASES: Dict[int, CaseParams] = {
    1: CaseParams(
        case_id=1,
        description="m != 0 (mod 4), m = 2 (mod 3)",
        kappa=1,
        nu1_range=(0,),
        nu2_range=(0,),
        classes=(
            CongruenceClass("odd", True, 4),
            CongruenceClass("2mod4", True, 2),
        ),
        schedule=(
            ("open", {"clause": 1}),
            ("a1_two_reps", {"n": 49, "s": 15}),
            ("a2_eta", {"n": 50, "s": 15, "N": 3}),
            ("tighten_t", {"clause": 2}),
            ("a1_eta", {"n": 25, "s": 6}),
            ("a2_eta", {"n": 19, "s": 6, "N": 2}),
            ("tighten_t", {"clause": 3}),
            ("c_eta", {"n": 20, "s": 4}),
        ),
    ),
    2: CaseParams(
        case_id=2,
        description="m != 0 (mod 4), m != 2 (mod 3)",
        kappa=3,
        nu1_range=(0, 1),
        nu2_range=(0, 1),
        classes=(
            CongruenceClass("odd", False, 4),
            CongruenceClass("2mod4", False, 2),
        ),
        schedule=(
            ("open", {"clause": 4}),
            ("a1_two_reps", {"n": 49, "s": 17}),
            ("a2_eta", {"n": 102, "s": 17, "N": 8}),
            ("tighten_t", {"clause": 5}),
            ("a1_two_reps", {"n": 17, "s": 8}),
            ("a2_eta", {"n": 48, "s": 8, "N": 6}),
            ("tighten_t", {"clause": 6}),
            ("a1_eta", {"n": 30, "s": 7}),
            ("a2_eta", {"n": 30, "s": 7, "N": 4}),
            ("tighten_t", {"clause": 7}),
            ("c_eta", {"n": 25, "s": 6}),
        ),
    ),
    3: CaseParams(
        case_id=3,
        description="m = 0 (mod 4), m = 2 (mod 3)",
        kappa=4,
        nu1_range=(0, 1, 2),
        nu2_range=(0, 1, 2),
        classes=(CongruenceClass("0mod4", True, 1),),
        schedule=(
            ("open", {"clause": 8}),
            ("a1_two_reps", {"n": 49, "s": 17}),
            ("a2_eta", {"n": 74, "s": 17, "N": 3}),
            ("tighten_t", {"clause": 9}),
            ("a1_two_reps", {"n": 17, "s": 8}),
            ("a2_eta", {"n": 28, "s": 8, "N": 3}),
            ("tighten_t", {"clause": 10}),
            ("a1_eta", {"n": 30, "s": 7}),
            ("a2_eta", {"n": 25, "s": 7, "N": 2, "tight_window": True}),
            ("tighten_t", {"clause": 11}),
            ("c_eta", {"n": 25, "s": 6}),
        ),
    ),
    4: CaseParams(
        case_id=4,
        description="m = 0 (mod 4), m != 2 (mod 3)",
        kappa=12,
        nu1_range=(0, 1, 2, 3, 4),
        nu2_range=(0, 1, 2, 3, 4),
        classes=(CongruenceClass("0mod4", False, 1),),
        schedule=(
            ("open", {"clause": 12}),
            ("a1_two_reps", {"n": 50, "s": 19}),
            ("a2_eta", {"n": 125, "s": 19, "N": 9}),
            ("tighten_t", {"clause": 13}),
            ("c_case4", {"n": 60, "s": 9}),
        ),
    ),
}


# ---------------------------------------------------------------------------
# individual bound moves


def k_bound(case: CaseParams, t: int, p1: int = 1) -> int:
    """Closed-form bound p1^2 * S(t) on k = p1^2 (kappa w + nu_1) + v.

    With w < W(t) = (t+3) 2^{t-3}, nu_1 <= nu1_max and 0 <= v < p1^2,
    k < p1^2 (kappa (W-1) + nu1_max + 1) = p1^2 (kappa W + s_shift).
    Pass p1=1 to get the p1^2 cofactor S(t) itself.
    """
    W = w_factor(t)
    S = case.kappa * (W - 1) + case.nu1_max + 1
    assert S == case.kappa * W + case.s_shift
    return p1 * p1 * S


def bound_a1_two_reps(n: int, kappa: int, nu: int) -> int:
    """a_1 bound when at least two of u in [0, n] have their target value
    represented: two represented values at most kappa n + nu apart force
    the smallest coefficient under that gap."""
    assert n >= 1
    return kappa * n + nu


def bound_a1_from_eta(
    n: int, s: int, N: int, delta: int, kappa: int, nu: int, c_min: int
) -> int:
    """a_1 bound from eta(n, s) > 8 N^3: then a_1 (N^2 c + 2N) is at most
    delta (kappa (n-1) + nu), evaluated at c = c_min (larger c only
    tightens it)."""
    e = eta(n, s)
    if e <= 8 * N**3:
        raise LemmaViolation(
            f"eta({n},{s}) = {e} <= 8N^3 = {8 * N ** 3}: window too thin"
        )
    return delta * (kappa * (n - 1) + nu) // (N * N * c_min + 2 * N)


def bound_a2_from_eta(
    n: int,
    s: int,
    N: int,
    delta: int,
    kappa: int,
    nu: int,
    c_min: int,
    tight_window: bool = False,
) -> int:
    """a_2 bound from the N-option ladder argument.

    Standard form: eta(n, s) > 2N and N^2 c + 2N > delta (kappa (n-1) + nu)
    give a_2 <= kappa (n-1) + nu.  With tight_window the count of
    represented values is pushed into the smallest window still holding
    2N + 1 of them -- top = 2N + (n - eta(n, s)) -- which sharpens the
    bound to kappa * top + nu under the same c-side condition.
    """
    e = eta(n, s)
    if tight_window:
        window = 2 * N + (n - e)
        assert window <= n - 1, "shrunk window must actually shrink"
    else:
        if e <= 2 * N:
            raise LemmaViolation(f"eta({n},{s}) = {e} <= 2N = {2 * N}")
        window = n - 1
    bound = kappa * window + nu
    if N * N * c_min + 2 * N <= delta * bound:
        raise LemmaViolation(
            f"ladder needs N^2 c + 2N > delta * bound at c = {c_min}: "
            f"{N * N * c_min + 2 * N} <= {delta * bound}"
        )
    return bound


def t_bound_step(
    case: CaseParams, a1_bound: int, a2_bound: int, ineq_index: int
) -> int:
    """Turn coefficient bounds into a bound on t via a product inequality.

    The clause must carry exactly the constant a1_bound * a2_bound (or 1
    for the cubic opening clauses) and the case's k-bound shape.  Since
    the inequality holds for every t >= t0 (base case plus certified
    ratio induction) while p_1 ... p_t <= a1 a2 p1^2 S(t) must hold for a
    real form, t <= t0 - 1.  Sharpness at t0 - 1 is checked as well.  A
    failed check raises LemmaViolation.
    """
    spec = CLAUSES[ineq_index]
    _require((spec.a, spec.b) == (case.kappa, case.s_shift),
             f"clause {ineq_index} shape does not match case "
             f"{case.case_id}'s k-bound shape")
    if spec.k == 3:
        _require(spec.const == 1 and a1_bound == a2_bound == 1,
                 f"cubic clause {ineq_index} needs constant 1 and "
                 f"a1 = a2 = 1, got {a1_bound} * {a2_bound}")
    else:
        _require(spec.k == 1 and spec.const == a1_bound * a2_bound,
                 f"clause {ineq_index} constant {spec.const} != "
                 f"{a1_bound} * {a2_bound}")
    _, _, base = verify_inequality(ineq_index, spec.t0)
    _require(base, f"clause {ineq_index} fails at its own base case")
    _, _, ok = certify_all_t(ineq_index)
    _require(ok, f"clause {ineq_index} ratio induction not certified")
    if spec.t0 - 1 >= spec.lower:
        _, _, above = verify_inequality(ineq_index, spec.t0 - 1)
        _require(not above, f"clause {ineq_index} already holds at t0 - 1")
    return spec.t0 - 1


def case4_step3_check(c_candidate: int, eta_60_9: int) -> bool:
    """Replay of the bespoke conductor argument closing case 4 at t <= 9.

    At conductor c the chain reads: (1) 2c + 2 > 12*59 + 4 confines y_1 and
    y_2 to three rungs each over the window u <= 59; (2) eta(60, 9) = 19
    represented values exceed the 3*3*2 = 18 slots available if y_3 had
    only two rungs, so some representation has y_3 >= c + alpha_3, giving
    a_3 (c + 2 alpha_3) <= 12*59 + 4; (3) that cap divided by c + 2 drops
    below 2, forcing a_3 = 1 and hence a_1 = a_2 = a_3 = 1; (4) all nine
    u <= 8 represented then put some c + 2 alpha_j <= 12*8 + 4, impossible
    once c + 2 exceeds it.  Returns True when every link fires (the
    candidate c is contradictory).  Each link is monotone in c, so the set
    of contradictory c is an upward-closed ray.

    Link (2) does not depend on c: the caller computes eta(60, 9) once and
    passes it as `eta_60_9`.
    """
    nu2_max = 4
    cap = 12 * 59 + nu2_max  # 712
    forces_ladder = 2 * c_candidate + 2 > cap
    counting = eta_60_9 > 2 * 3 * 3
    forces_unit_a3 = cap // (c_candidate + 2) < 2
    final = c_candidate + 2 > 12 * 8 + nu2_max
    return forces_ladder and counting and forces_unit_a3 and final


def m_bound_from_c(cls: CongruenceClass, c_bound: int) -> int:
    """Largest m in the congruence class compatible with c <= c_bound."""
    m = cls.invert_c(c_bound)
    while m >= 3 and not cls.contains(m):
        m -= 1
    assert m >= 3
    return m


# ---------------------------------------------------------------------------
# the replay


@dataclass
class BoundState:
    """Evolving bounds of one case's derivation, with a step-by-step log.

    a3/k are bounded only up to the symbolic factor p_1^2; the cofactor
    S(t) is tracked instead (a_3 <= k <= p_1^2 * k_cofactor).
    """

    case_id: int
    t_bound: Optional[int] = None
    a1_bound: Optional[int] = None
    a2_bound: Optional[int] = None
    k_cofactor: Optional[int] = None
    c_bounds: Dict[int, int] = field(default_factory=dict)
    m_bounds: Dict[str, int] = field(default_factory=dict)
    log: List[dict] = field(default_factory=list)

    def tighten(self, attr: str, value: int) -> None:
        old = getattr(self, attr)
        assert old is None or value <= old, (attr, old, value)
        setattr(self, attr, value)

    def record(self, step: str, lemma: str, inputs: dict, value: int) -> None:
        self.log.append(
            {"step": step, "lemma": lemma, "inputs": inputs, "value": value}
        )

    def as_dict(self) -> dict:
        return {
            "case": self.case_id,
            "t_bound": self.t_bound,
            "a1_bound": self.a1_bound,
            "a2_bound": self.a2_bound,
            "k_cofactor": self.k_cofactor,
            "c_bounds": {str(d): c for d, c in sorted(self.c_bounds.items())},
            "m_bounds": dict(sorted(self.m_bounds.items())),
            "log": self.log,
        }


def _set_t(state: BoundState, case: CaseParams, t: int, clause: int, cap) -> None:
    state.tighten("t_bound", t)
    state.record(
        "t",
        f"product-clause-{clause}",
        {"clause": clause, "product_cap": cap},
        t,
    )
    cof = k_bound(case, t, 1)
    state.tighten("k_cofactor", cof)
    state.record("k", "k-closed-form", {"t": t}, cof)


def replay_case(case: CaseParams, expected: Optional[dict] = None) -> BoundState:
    """Run one case's derivation; optionally diff it against a recorded log.

    `expected` carries {"steps": [[step, value], ...], "c_bounds": {...},
    "m_bounds": {...}}; any disagreement raises ReplayMismatch with the
    full diff.  The derivation itself never reads `expected`.
    """
    st = BoundState(case_id=case.case_id)
    st.record("hypothesis", "standing-assumption", {"c_min": C_MIN}, C_MIN)
    for op, kw in case.schedule:
        if op == "open":
            t = t_bound_step(case, 1, 1, kw["clause"])
            _set_t(st, case, t, kw["clause"], 1)
            continue

        if op == "tighten_t":
            cap = st.a1_bound * st.a2_bound
            t = t_bound_step(case, st.a1_bound, st.a2_bound, kw["clause"])
            _require(t < st.t_bound, f"clause {kw['clause']} gives t <= {t}, "
                                     f"not below t <= {st.t_bound}")
            _set_t(st, case, t, kw["clause"], cap)
            continue

        n, s = kw["n"], kw["s"]
        # Window counts use s = current bound on t: one psi subtraction
        # per anisotropic prime.
        _require(s == st.t_bound,
                 f"{op} {kw} needs s = t_bound = {st.t_bound}")
        e = eta(n, s)

        if op == "a1_two_reps":
            _require(e >= 2, "two-representations argument needs two hits")
            window = n - e + 1  # every length-window slice holds >= 2
            val = bound_a1_two_reps(window, case.kappa, case.nu2_max)
            st.tighten("a1_bound", val)
            st.record(
                "a1",
                "two-reps",
                {"n": n, "s": s, "eta": e, "window": window},
                val,
            )
        elif op == "a1_eta":
            val = bound_a1_from_eta(
                n, s, 1, case.delta_max, case.kappa, case.nu2_max, C_MIN
            )
            st.tighten("a1_bound", val)
            st.record(
                "a1",
                "eta-floor",
                {"n": n, "s": s, "eta": e, "N": 1, "delta": case.delta_max},
                val,
            )
        elif op == "a2_eta":
            N = kw["N"]
            tight = kw.get("tight_window", False)
            val = bound_a2_from_eta(
                n,
                s,
                N,
                case.delta_max,
                case.kappa,
                case.nu2_max,
                C_MIN,
                tight_window=tight,
            )
            st.tighten("a2_bound", val)
            st.record(
                "a2",
                "ladder-count" if tight else "ladder",
                {"n": n, "s": s, "eta": e, "N": N, "delta": case.delta_max},
                val,
            )
        elif op == "c_eta":
            # a_1 (c + 2) <= delta (kappa (n-1) + nu) with a_1 >= 1 caps c
            # at delta (kappa (n-1) + nu) - 2, separately per delta.
            _require(e > 8, f"eta({n},{s}) = {e} <= 8")
            for cls in case.classes:
                cb = cls.delta * (case.kappa * (n - 1) + case.nu2_max) - 2
                st.c_bounds[cls.delta] = cb
                st.record(
                    f"c[delta={cls.delta}]",
                    "eta-floor-solved-for-c",
                    {"n": n, "s": s, "eta": e, "delta": cls.delta},
                    cb,
                )
        elif op == "c_case4":
            _require((n, s) == (60, 9),
                     f"the case 4 conductor step reads eta(60, 9), got "
                     f"eta({n}, {s})")
            first_true = next(
                c for c in range(C_MIN, 10**4) if case4_step3_check(c, e)
            )
            # each link is monotone in c; spot-check far out
            _require(not case4_step3_check(first_true - 1, e)
                     and case4_step3_check(10**6, e),
                     f"contradictory conductors are not the ray c >= "
                     f"{first_true}")
            cb = first_true - 1
            (cls,) = case.classes
            st.c_bounds[cls.delta] = cb
            st.record(
                "c[delta=1]",
                "three-rung-contradiction",
                {"n": n, "s": s, "eta": e},
                cb,
            )
        else:  # pragma: no cover - schedule is fixed above
            raise AssertionError(f"unknown op {op}")

    for cls in case.classes:
        cb = st.c_bounds[cls.delta]
        raw = cls.invert_c(cb)
        st.record(f"m-raw[{cls.label}]", "invert-c", {"c_bound": cb}, raw)
        m = m_bound_from_c(cls, cb)
        st.m_bounds[cls.label] = m
        st.record(f"m[{cls.label}]", "congruence-refine", {"raw": raw}, m)

    if expected is not None:
        _diff_against(st, expected)
    return st


def _diff_against(state: BoundState, expected: dict) -> None:
    got_steps = [(entry["step"], entry["value"]) for entry in state.log]
    want_steps = [tuple(pair) for pair in expected["steps"]]
    lines = []
    for i in range(max(len(got_steps), len(want_steps))):
        g = got_steps[i] if i < len(got_steps) else None
        w = want_steps[i] if i < len(want_steps) else None
        if g != w:
            lines.append(f"  step {i}: derived {g}, recorded {w}")
    got_c = {str(d): c for d, c in state.c_bounds.items()}
    if got_c != expected["c_bounds"]:
        lines.append(f"  c bounds: derived {got_c}, recorded {expected['c_bounds']}")
    if state.m_bounds != expected["m_bounds"]:
        lines.append(
            f"  m bounds: derived {state.m_bounds}, "
            f"recorded {expected['m_bounds']}"
        )
    if lines:
        raise ReplayMismatch(
            f"case {state.case_id} derivation differs from the recorded log:\n"
            + "\n".join(lines)
        )


def replay_all(expected: Optional[dict] = None) -> Dict[int, BoundState]:
    """Replay all four cases; `expected` maps str(case_id) to a case log."""
    out = {}
    for cid, case in CASES.items():
        exp = expected[str(cid)] if expected is not None else None
        out[cid] = replay_case(case, exp)
    return out


def theorem_bounds() -> Dict[str, int]:
    """The six m bounds, one per congruence family."""
    bounds: Dict[str, int] = {}
    for state in replay_all().values():
        bounds.update(state.m_bounds)
    return bounds
