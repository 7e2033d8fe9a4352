"""Constructive local lemmas and the mechanical replay of the four-case
bound derivation for ternary shifted forms.

Setting: a ternary shifted form sum a_i (c x_i + alpha_i)^2 with conductor
c >= 36, coefficients a_1 <= a_2 <= a_3, and T = {p_1 < ... < p_t} the odd
primes prime to 2c at which the lattice <a_1,a_2,a_3> is anisotropic.  All
p_i >= 5, so p_i >= r_i (the i-th prime >= 5).  Each congruence case of m
fixes kappa (the step of the arithmetic progression of represented targets)
and the largest correction terms nu_1, nu_2; the derivation then
alternates three moves:

  * eta-window counts bound a_1 (two-representations argument) and a_2
    (N-option ladder argument);
  * a product inequality r_l ... r_t > a_1 a_2 * (k-bound shape) turns the
    pair of coefficient bounds into a smaller bound on t;
  * once t is small, one more eta window bounds a_1 (c + 2) and hence c,
    and inverting c(m) per congruence class bounds m.

The bounds are recomputed from the eta table, the product-inequality
clauses and the bound lemmas; the golden log shipped under data/ is used
only to cross-check the derivation, never as an input to it.  A case's
schedule records only the paper's free choices: each eta window n, each
ladder size N and `tight_window`.  The replay derives the rest: every
window's s is the running bound on t, and every product clause is the
one `CLAUSES` row that fits the case and the running a_1 a_2.  The maxima
of the correction terms, `CaseParams.nu1_max` and `nu2_max`, are fixed
inputs of each case, not derived here (ROADMAP.md, item 5, plans a
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
    which always lands below W(s + 1) = (s+4) 2^{s-2} when s >= 2, the
    W(t) of the k-bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .density import eta
from .localrep import (_lattice_key, _order_and_class, _stable_pair, is_stable,
                       represents_over_zp)
from .numth import _check_prime, ord_p
from .polygonal import delta_of
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
    Raises ValueError unless u is prime to 2 (also_3: to 6) and the lattice
    is 2-stable (also_3: and 3-stable).
    """
    coeffs = tuple(coeffs)
    primes = (2, 3) if also_3 else (2,)
    if any(u % q == 0 for q in primes):
        raise ValueError(f"u must be prime to {6 if also_3 else 2}, got {u}")
    for q in primes:
        if not is_stable(coeffs, q):
            raise ValueError(f"nu-selection needs a {q}-stable lattice, "
                             f"got {coeffs}")
    mult = 12 if also_3 else 4
    for nu in range(5 if also_3 else 3):
        w = u * nu + l
        if not _coset_covered_z2(coeffs, w):
            continue
        if also_3 and not _coset_covered_z3(coeffs, w):
            continue
        for n in range(8):  # direct spot check of the first members
            val = u * (mult * n + nu) + l
            for q in primes:
                _require(represents_over_zp(coeffs, val, q),
                         f"nu = {nu} leaves {val} unrepresented over Z_{q}")
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

    For s >= 2 the result is guaranteed (and checked) to lie below
    W(s + 1) = (s+4) 2^{s-2}.  The s = 1 case falls outside that bound's
    statement; there a direct scan below p_1 always succeeds (u is a unit
    mod p_1, so u n + v meets every residue class), and the same scan code
    handles it.
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
    limit = primes[0] if s == 1 else w_factor(s + 1)
    for n in range(limit):
        if gcd(u * n + v, prod) == 1:
            return n
    raise LemmaViolation(
        f"no coprime shift below {limit} for primes={primes}, u={u}, v={v}"
    )


# ---------------------------------------------------------------------------
# case parameters


# delta names the class of m mod 4 (`polygonal.delta_of`)
_CLASS_OF_DELTA = {4: "odd", 2: "2mod4", 1: "0mod4"}


@dataclass(frozen=True)
class CongruenceClass:
    """One congruence family of m sharing a single delta value."""

    delta: int  # 4, 2, 1 for m odd, 2 mod 4, 0 mod 4
    three: bool  # is m = 2 (mod 3)?

    def __post_init__(self):
        if self.delta not in _CLASS_OF_DELTA:
            raise ValueError(f"delta is 4, 2 or 1 (m odd, 2 mod 4, 0 mod 4), "
                             f"got {self.delta}")

    @property
    def label(self) -> str:
        return (f"{_CLASS_OF_DELTA[self.delta]},"
                f"{'2mod3' if self.three else 'not2mod3'}")

    def contains(self, m: int) -> bool:
        return delta_of(m) == self.delta and (m % 3 == 2) == self.three

    def invert_c(self, c_bound: int) -> int:
        # c = delta (m - 2) / 2, so m = 2 c / delta + 2.
        return 2 * c_bound // self.delta + 2


@dataclass(frozen=True)
class CaseParams:
    """Fixed data of one of the four congruence cases of the derivation."""

    case_id: int
    description: str
    kappa: int
    nu1_max: int
    nu2_max: int
    classes: Tuple[CongruenceClass, ...]
    schedule: Tuple[Tuple[str, dict], ...]

    def __post_init__(self):
        if self.case_id not in (1, 2, 3, 4) or self.kappa not in (1, 3, 4, 12):
            raise ValueError(f"need case 1..4 and kappa in (1, 3, 4, 12), got "
                             f"case {self.case_id}, kappa {self.kappa}")

    @property
    def delta_max(self) -> int:
        return max(cls.delta for cls in self.classes)

    @property
    def s_shift(self) -> int:
        # k <= p1^2 (kappa W + s_shift): the additive part of the k-bound
        # shape, matching the product-inequality clauses' (a, b).
        return self.nu1_max + 1 - self.kappa

    def reach(self, window: int) -> int:
        """kappa * window + nu_2: how far apart two represented targets
        can lie over u in a window of that length."""
        return self.kappa * window + self.nu2_max


CASES: Dict[int, CaseParams] = {
    1: CaseParams(
        case_id=1,
        description="m != 0 (mod 4), m = 2 (mod 3)",
        kappa=1,
        nu1_max=0,
        nu2_max=0,
        classes=(
            CongruenceClass(4, True),
            CongruenceClass(2, True),
        ),
        schedule=(
            ("open", {}),
            ("a1_two_reps", {"n": 49}),
            ("a2_eta", {"n": 50, "N": 3}),
            ("tighten_t", {}),
            ("a1_eta", {"n": 25}),
            ("a2_eta", {"n": 19, "N": 2}),
            ("tighten_t", {}),
            ("c_eta", {"n": 20}),
        ),
    ),
    2: CaseParams(
        case_id=2,
        description="m != 0 (mod 4), m != 2 (mod 3)",
        kappa=3,
        nu1_max=1,
        nu2_max=1,
        classes=(
            CongruenceClass(4, False),
            CongruenceClass(2, False),
        ),
        schedule=(
            ("open", {}),
            ("a1_two_reps", {"n": 49}),
            ("a2_eta", {"n": 102, "N": 8}),
            ("tighten_t", {}),
            ("a1_two_reps", {"n": 17}),
            ("a2_eta", {"n": 48, "N": 6}),
            ("tighten_t", {}),
            ("a1_eta", {"n": 30}),
            ("a2_eta", {"n": 30, "N": 4}),
            ("tighten_t", {}),
            ("c_eta", {"n": 25}),
        ),
    ),
    3: CaseParams(
        case_id=3,
        description="m = 0 (mod 4), m = 2 (mod 3)",
        kappa=4,
        nu1_max=2,
        nu2_max=2,
        classes=(CongruenceClass(1, True),),
        schedule=(
            ("open", {}),
            ("a1_two_reps", {"n": 49}),
            ("a2_eta", {"n": 74, "N": 3}),
            ("tighten_t", {}),
            ("a1_two_reps", {"n": 17}),
            ("a2_eta", {"n": 28, "N": 3}),
            ("tighten_t", {}),
            ("a1_eta", {"n": 30}),
            ("a2_eta", {"n": 25, "N": 2, "tight_window": True}),
            ("tighten_t", {}),
            ("c_eta", {"n": 25}),
        ),
    ),
    4: CaseParams(
        case_id=4,
        description="m = 0 (mod 4), m != 2 (mod 3)",
        kappa=12,
        nu1_max=4,
        nu2_max=4,
        classes=(CongruenceClass(1, False),),
        schedule=(
            ("open", {}),
            ("a1_two_reps", {"n": 50}),
            ("a2_eta", {"n": 125, "N": 9}),
            ("tighten_t", {}),
            ("c_case4", {"n": 60}),
        ),
    ),
}


# ---------------------------------------------------------------------------
# individual bound moves


def k_bound(case: CaseParams, t: int) -> int:
    """The cofactor S(t) of the closed-form bound p1^2 S(t) on
    k = p1^2 (kappa w + nu_1) + v.

    With w < W(t) = (t+3) 2^{t-3}, nu_1 <= nu1_max and 0 <= v < p1^2,
    k < p1^2 (kappa (W-1) + nu1_max + 1) = p1^2 (kappa W + s_shift).
    """
    return case.kappa * w_factor(t) + case.s_shift


def bound_a1_two_reps(case: CaseParams, window: int) -> int:
    """a_1 bound when at least two u in [0, window] have their target value
    represented: two represented values at most case.reach(window) apart
    force the smallest coefficient under that gap.  Raises ValueError for
    window < 1."""
    if window < 1:
        raise ValueError(f"the two-representations bound needs a window "
                         f">= 1, got {window}")
    return case.reach(window)


def bound_a1_from_eta(case: CaseParams, n: int, e: int, N: int) -> int:
    """a_1 bound from the window count e = eta(n, s) > 8 N^3: then
    a_1 (N^2 c + 2N) is at most delta reach(n - 1), delta the case's
    largest, evaluated at c = C_MIN (larger c only tightens it)."""
    if e <= 8 * N**3:
        raise LemmaViolation(
            f"eta at n = {n} is {e} <= 8N^3 = {8 * N ** 3}: window too thin"
        )
    return case.delta_max * case.reach(n - 1) // (N * N * C_MIN + 2 * N)


def bound_a2_from_eta(case: CaseParams, n: int, e: int, N: int,
                      tight_window: bool = False) -> int:
    """a_2 bound from the N-option ladder argument, given the window count
    e = eta(n, s).

    Standard form: e > 2N and N^2 c + 2N > delta reach(n - 1) give
    a_2 <= reach(n - 1), delta the case's largest.  With tight_window the
    count of represented values is pushed into the smallest window still
    holding 2N + 1 of them -- top = 2N + (n - e) -- which sharpens the
    bound to reach(top) under the same c-side condition, at c = C_MIN.
    """
    if tight_window:
        window = 2 * N + (n - e)
        _require(window <= n - 1, f"tight window {window} is wider than "
                                  f"n - 1 = {n - 1}")
    else:
        if e <= 2 * N:
            raise LemmaViolation(f"eta at n = {n} is {e} <= 2N = {2 * N}")
        window = n - 1
    bound = case.reach(window)
    if N * N * C_MIN + 2 * N <= case.delta_max * bound:
        raise LemmaViolation(
            f"ladder needs N^2 c + 2N > delta * bound at c = {C_MIN}: "
            f"{N * N * C_MIN + 2 * N} <= {case.delta_max * bound}"
        )
    return bound


def t_bound_step(
    case: CaseParams, a1_bound: int, a2_bound: int, power: int
) -> Tuple[int, int]:
    """Turn coefficient bounds into a bound on t via a product inequality;
    returns (clause number, bound on t).

    The clause is the one `CLAUSES` row with the case's k-bound shape
    (a, b) = (kappa, s_shift), the given power k (3 for the cubic opening
    clauses, where a1 = a2 = 1, and 1 otherwise) and the constant
    a1_bound * a2_bound; no two rows share these four values.  Since the
    inequality holds for every t >= t0 (base case plus certified ratio
    induction) while p_1 ... p_t <= a1 a2 p1^2 S(t) must hold for a real
    form, t <= t0 - 1.  Sharpness at t0 - 1 is checked as well.  No
    matching row or a failed check raises LemmaViolation.
    """
    want = (case.kappa, case.s_shift, power, a1_bound * a2_bound)
    spec = next((c for c in CLAUSES.values()
                 if (c.a, c.b, c.k, c.const) == want), None)
    _require(spec is not None,
             f"no product clause has case {case.case_id}'s k-bound shape "
             f"({case.kappa}, {case.s_shift}), power {power} and constant "
             f"{a1_bound} * {a2_bound}")
    ineq_index = spec.index
    _, _, base = verify_inequality(ineq_index, spec.t0)
    _require(base, f"clause {ineq_index} fails at its own base case")
    _, _, ok = certify_all_t(ineq_index)
    _require(ok, f"clause {ineq_index} ratio induction not certified")
    if spec.t0 - 1 >= spec.lower:
        _, _, above = verify_inequality(ineq_index, spec.t0 - 1)
        _require(not above, f"clause {ineq_index} already holds at t0 - 1")
    return ineq_index, spec.t0 - 1


def case4_step3_check(case: CaseParams, c_candidate: int, eta_60_9: int) -> bool:
    """Replay of the bespoke conductor argument closing case 4 at t <= 9.

    At conductor c the chain reads: (1) 2c + 2 > reach(59) confines y_1 and
    y_2 to three rungs each over the window u <= 59; (2) eta(60, 9) = 19
    represented values exceed the 3*3*2 = 18 slots available if y_3 had
    only two rungs, so some representation has y_3 >= c + alpha_3, giving
    a_3 (c + 2 alpha_3) <= reach(59); (3) that cap divided by c + 2 drops
    below 2, forcing a_3 = 1 and hence a_1 = a_2 = a_3 = 1; (4) all nine
    u <= 8 represented then put some c + 2 alpha_j <= reach(8), impossible
    once c + 2 exceeds it.  Returns True when every link fires (the
    candidate c is contradictory).  Each link is monotone in c, so the set
    of contradictory c is an upward-closed ray.

    Link (2) does not depend on c: the caller computes eta(60, 9) once and
    passes it as `eta_60_9`.
    """
    cap = case.reach(59)  # 712
    forces_ladder = 2 * c_candidate + 2 > cap
    counting = eta_60_9 > 2 * 3 * 3
    forces_unit_a3 = cap // (c_candidate + 2) < 2
    final = c_candidate + 2 > case.reach(8)
    return forces_ladder and counting and forces_unit_a3 and final


def m_bound_from_c(cls: CongruenceClass, c_bound: int) -> int:
    """Largest m in the congruence class compatible with c <= c_bound.
    Raises ValueError when no m >= 3 of the class is."""
    m = cls.invert_c(c_bound)
    while m >= 3 and not cls.contains(m):
        m -= 1
    if m < 3:
        raise ValueError(f"no m >= 3 in class {cls.label} has c <= {c_bound}")
    return m


# ---------------------------------------------------------------------------
# the replay


# the bound each tightening step lowers, by the step's name in the log
_BOUND_OF_STEP = {"t": "t_bound", "k": "k_cofactor", "a1": "a1_bound",
                  "a2": "a2_bound"}


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

    def tighten(self, step: str, value: int, lemma: str, inputs: dict) -> None:
        """Lower the bound that `step` names to value and log the step."""
        attr = _BOUND_OF_STEP[step]
        old = getattr(self, attr)
        assert old is None or value <= old, (attr, old, value)
        setattr(self, attr, value)
        self.record(step, lemma, inputs, value)

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

    def transcript(self) -> List[str]:
        """The log as text: one line per step, then the case's result."""
        case = CASES[self.case_id]
        lines = [f"case {self.case_id}: {case.description}"]
        for entry in self.log:
            step, value = entry["step"], entry["value"]
            detail = ", ".join(f"{k}={v}" for k, v in entry["inputs"].items())
            why = f"   [{entry['lemma']}: {detail}]"
            if step == "hypothesis":
                lines.append(f"  standing hypothesis: c >= {value}")
            elif step in _BOUND_OF_STEP:  # t, k, a1, a2
                bound = f"p1^2 * {value}" if step == "k" else value
                lines.append(f"  {step} <= {bound}{why}")
            elif step.startswith("c["):
                lines.append(f"  c <= {value} for {step[2:-1]}{why}")
            elif step.startswith("m-raw"):
                lines.append(f"  m <= {value} before congruence refinement"
                             f"   [{detail}]")
            else:
                lines.append(f"  m <= {value} in class {step[2:-1]}")
        bounds = [(self.m_bounds[cls.label], cls.label) for cls in case.classes]
        if len(bounds) == 1:  # single-class cases end with the bare bound
            summary = f"m <= {bounds[0][0]}"
        else:
            summary = ", ".join(f"m <= {m} ({label})" for m, label in bounds)
        lines.append(f"result: {summary}")
        return lines


def replay_case(case: CaseParams, expected: Optional[dict] = None) -> BoundState:
    """Run one case's derivation; optionally diff it against a recorded log.

    `expected` carries {"steps": [[step, value], ...], "c_bounds": {...},
    "m_bounds": {...}}; any disagreement raises ReplayMismatch with the
    full diff.  The derivation itself never reads `expected`.
    """
    st = BoundState(case_id=case.case_id)
    st.record("hypothesis", "standing-assumption", {"c_min": C_MIN}, C_MIN)
    for op, kw in case.schedule:
        # Window counts use s = current bound on t: one psi subtraction
        # per anisotropic prime.
        s = st.t_bound
        if op in ("open", "tighten_t"):
            # the opening clauses are cubic, with a_1 = a_2 = 1
            a1, a2, power = ((1, 1, 3) if op == "open"
                             else (st.a1_bound, st.a2_bound, 1))
            clause, t = t_bound_step(case, a1, a2, power)
            _require(s is None or t < s,
                     f"clause {clause} gives t <= {t}, not below t <= {s}")
            st.tighten("t", t, f"product-clause-{clause}",
                       {"clause": clause, "product_cap": a1 * a2})
            st.tighten("k", k_bound(case, t), "k-closed-form", {"t": t})
            continue

        _require(s is not None, f"{op} comes before any bound on t")
        n = kw["n"]
        e = eta(n, s)

        if op == "a1_two_reps":
            _require(e >= 2, "two-representations argument needs two hits")
            window = n - e + 1  # every length-window slice holds >= 2
            st.tighten("a1", bound_a1_two_reps(case, window), "two-reps",
                       {"n": n, "s": s, "eta": e, "window": window})
        elif op == "a1_eta":
            st.tighten("a1", bound_a1_from_eta(case, n, e, 1), "eta-floor",
                       {"n": n, "s": s, "eta": e, "N": 1, "delta": case.delta_max})
        elif op == "a2_eta":
            N = kw["N"]
            tight = kw.get("tight_window", False)
            val = bound_a2_from_eta(case, n, e, N, tight_window=tight)
            st.tighten("a2", val, "ladder-count" if tight else "ladder",
                       {"n": n, "s": s, "eta": e, "N": N, "delta": case.delta_max})
        elif op == "c_eta":
            # a_1 (c + 2) <= delta reach(n - 1) with a_1 >= 1 caps c at
            # delta reach(n - 1) - 2, separately per delta.
            _require(e > 8, f"eta({n},{s}) = {e} <= 8")
            for cls in case.classes:
                cb = cls.delta * case.reach(n - 1) - 2
                st.c_bounds[cls.delta] = cb
                st.record(f"c[delta={cls.delta}]", "eta-floor-solved-for-c",
                          {"n": n, "s": s, "eta": e, "delta": cls.delta}, cb)
        elif op == "c_case4":
            _require((n, s) == (60, 9),
                     f"the case 4 conductor step reads eta(60, 9), got "
                     f"eta({n}, {s})")
            first_true = next(
                c for c in range(C_MIN, 10**4) if case4_step3_check(case, c, e)
            )
            # each link is monotone in c; spot-check far out
            _require(not case4_step3_check(case, first_true - 1, e)
                     and case4_step3_check(case, 10**6, e),
                     f"contradictory conductors are not the ray c >= "
                     f"{first_true}")
            cb = first_true - 1
            (cls,) = case.classes
            st.c_bounds[cls.delta] = cb
            st.record(f"c[delta={cls.delta}]", "three-rung-contradiction",
                      {"n": n, "s": s, "eta": e}, cb)
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
