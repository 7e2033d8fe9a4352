"""The mechanical replay of the four-case bound derivation for ternary
shifted forms.

Setting: a ternary shifted form sum a_i (c x_i + alpha_i)^2 with conductor
c >= 36, coefficients a_1 <= a_2 <= a_3, and T = {p_1 < ... < p_t} the odd
primes prime to 2c at which the lattice <a_1,a_2,a_3> is anisotropic.  All
p_i >= 5, so p_i >= r_i (the i-th prime >= 5).  Each congruence case of m
fixes kappa (the step of the arithmetic progression of represented targets)
and the largest correction terms nu_1, nu_2.  Every case's derivation
has one shape: a cubic product clause opens with a bound on t; each
`Round` bounds a_1 and a_2 over two eta windows, and the product
inequality r_l ... r_t > a_1 a_2 * (k-bound shape) lowers t; then a
closing eta window bounds a_1 (c + 2) and hence c (case 4 closes with
its three-rung argument), and inverting c(m) per congruence class
bounds m.

The bounds are recomputed from the eta table, the product-inequality
clauses and the bound lemmas; the golden log shipped under data/ is used
only to cross-check the derivation, never as an input to it.  A case
holds only the paper's free choices: each round's windows n, ladder
size N and flags, and the closing window.  The replay derives the rest:
every window's s is the running bound on t, and every product clause is
the one `CLAUSES` row that fits the case and the running a_1 a_2.  The
maxima of the correction terms, `CaseParams.nu1_max` and `nu2_max`, are
fixed inputs of each case, not derived here (ROADMAP.md, item 5, plans a
certificate for them).

Of the constructive lemmas behind the derivation, only
`find_coprime_shift` is implemented here; `replay_case` does not call it,
the tests check it.  It finds the smallest n with
gcd(un + v, p_1...p_s) = 1, which always lands below
W(s + 1) = (s+4) 2^{s-2} when s >= 2, the W(t) of the k-bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .density import eta
from .numth import _check_prime
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
class Round:
    """One round of a case's derivation: bound a_1 over the eta window
    a1_n, by the eta floor or else by two representations, bound a_2 over
    the window a2_n by the N-rung ladder (`tight_window` as in
    `bound_a2_from_eta`), then lower t by the product clause of the two."""

    a1_n: int
    a2_n: int
    N: int
    a1_eta_floor: bool = False
    tight_window: bool = False


@dataclass(frozen=True)
class CaseParams:
    """Fixed data of one of the four congruence cases of the derivation:
    its rounds and the eta window close_n of its conductor step, the eta
    floor or, with three_rung_close, case 4's three-rung argument."""

    case_id: int
    description: str
    kappa: int
    nu1_max: int
    nu2_max: int
    classes: Tuple[CongruenceClass, ...]
    rounds: Tuple[Round, ...]
    close_n: int
    three_rung_close: bool = False

    def __post_init__(self):
        if self.case_id not in (1, 2, 3, 4) or self.kappa not in (1, 3, 4, 12):
            raise ValueError(f"need case 1..4 and kappa in (1, 3, 4, 12), got "
                             f"case {self.case_id}, kappa {self.kappa}")
        for rnd in self.rounds:
            if not isinstance(rnd, Round):
                raise ValueError(f"round {rnd!r} is not a Round")
            if None in (rnd.a1_n, rnd.a2_n, rnd.N):
                raise ValueError(f"{rnd} lacks a window or N")
        if self.close_n is None:
            raise ValueError(f"case {self.case_id} lacks its closing window")

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
        rounds=(
            Round(49, 50, N=3),
            Round(25, 19, N=2, a1_eta_floor=True),
        ),
        close_n=20,
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
        rounds=(
            Round(49, 102, N=8),
            Round(17, 48, N=6),
            Round(30, 30, N=4, a1_eta_floor=True),
        ),
        close_n=25,
    ),
    3: CaseParams(
        case_id=3,
        description="m = 0 (mod 4), m = 2 (mod 3)",
        kappa=4,
        nu1_max=2,
        nu2_max=2,
        classes=(CongruenceClass(1, True),),
        rounds=(
            Round(49, 74, N=3),
            Round(17, 28, N=3),
            Round(30, 25, N=2, a1_eta_floor=True, tight_window=True),
        ),
        close_n=25,
    ),
    4: CaseParams(
        case_id=4,
        description="m = 0 (mod 4), m != 2 (mod 3)",
        kappa=12,
        nu1_max=4,
        nu2_max=4,
        classes=(CongruenceClass(1, False),),
        rounds=(Round(50, 125, N=9),),
        close_n=60,
        three_rung_close=True,
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


def eta_floor_cap(case: CaseParams, delta: int, n: int, s: int, e: int) -> int:
    """The eta floor: a window count e = eta(n, s) > 8 gives
    a_1 (c + 2) <= delta reach(n - 1).  Returns that right-hand side;
    e <= 8 raises LemmaViolation."""
    _require(e > 8, f"eta({n},{s}) = {e} <= 8")
    return delta * case.reach(n - 1)


def bound_a1_from_eta(case: CaseParams, n: int, s: int, e: int) -> int:
    """a_1 bound from the eta floor of e = eta(n, s), delta the case's
    largest, evaluated at c = C_MIN (larger c only tightens it)."""
    return eta_floor_cap(case, case.delta_max, n, s, e) // (C_MIN + 2)


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


def case4_step3_check(case: CaseParams, n: int, c_candidate: int,
                      e: int) -> bool:
    """Replay of the bespoke conductor argument closing case 4 at t <= 9,
    over the window u <= n - 1 with e = eta(n, 9).

    At conductor c the chain reads: (1) 2c + 2 > reach(n - 1) confines y_1
    and y_2 to three rungs each over the window; (2) e represented values
    exceed the 3*3*2 = 18 slots available if y_3 had only two rungs, so
    some representation has y_3 >= c + alpha_3, giving
    a_3 (c + 2 alpha_3) <= reach(n - 1); (3) that cap divided by c + 2
    drops below 2, forcing a_3 = 1 and hence a_1 = a_2 = a_3 = 1; (4) all
    nine u <= 8 represented then put some c + 2 alpha_j <= reach(8),
    impossible once c + 2 exceeds it.  Returns True when every link fires
    (the candidate c is contradictory).  Each link is monotone in c, so
    the set of contradictory c is an upward-closed ray.  The slot count
    and link (4) are the paper's for its window n = 60, which the replay
    checks.

    Link (2) does not depend on c: the caller computes e once.  Raises
    ValueError for a conductor below 1.
    """
    if c_candidate < 1:
        raise ValueError(f"a conductor is at least 1, got {c_candidate}")
    cap = case.reach(n - 1)  # 712 at n = 60
    forces_ladder = 2 * c_candidate + 2 > cap
    counting = e > 2 * 3 * 3
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

    def lower_t(a1: int, a2: int, power: int) -> None:
        clause, t = t_bound_step(case, a1, a2, power)
        _require(st.t_bound is None or t < st.t_bound,
                 f"clause {clause} gives t <= {t}, not below t <= {st.t_bound}")
        st.tighten("t", t, f"product-clause-{clause}",
                   {"clause": clause, "product_cap": a1 * a2})
        st.tighten("k", k_bound(case, t), "k-closed-form", {"t": t})

    lower_t(1, 1, 3)  # the opening clauses are cubic, with a_1 = a_2 = 1
    # Window counts use s = current bound on t: one psi subtraction per
    # anisotropic prime.
    for rnd in case.rounds:
        s, n = st.t_bound, rnd.a1_n
        e = eta(n, s)
        if rnd.a1_eta_floor:
            st.tighten("a1", bound_a1_from_eta(case, n, s, e), "eta-floor",
                       {"n": n, "s": s, "eta": e, "N": 1, "delta": case.delta_max})
        else:
            _require(e >= 2, "two-representations argument needs two hits")
            window = n - e + 1  # every length-window slice holds >= 2
            st.tighten("a1", bound_a1_two_reps(case, window), "two-reps",
                       {"n": n, "s": s, "eta": e, "window": window})
        n, N = rnd.a2_n, rnd.N
        e = eta(n, s)
        val = bound_a2_from_eta(case, n, e, N, tight_window=rnd.tight_window)
        st.tighten("a2", val, "ladder-count" if rnd.tight_window else "ladder",
                   {"n": n, "s": s, "eta": e, "N": N, "delta": case.delta_max})
        lower_t(st.a1_bound, st.a2_bound, 1)

    s, n = st.t_bound, case.close_n
    e = eta(n, s)
    if not case.three_rung_close:
        # a_1 >= 1 caps c at delta reach(n - 1) - 2, separately per delta
        for cls in case.classes:
            cb = eta_floor_cap(case, cls.delta, n, s, e) - 2
            st.c_bounds[cls.delta] = cb
            st.record(f"c[delta={cls.delta}]", "eta-floor-solved-for-c",
                      {"n": n, "s": s, "eta": e, "delta": cls.delta}, cb)
    else:
        _require((n, s) == (60, 9),
                 f"the case 4 conductor step reads eta(60, 9), got "
                 f"eta({n}, {s})")
        first_true = next(
            c for c in range(C_MIN, 10**4)
            if case4_step3_check(case, n, c, e)
        )
        # each link is monotone in c; spot-check far out
        _require(not case4_step3_check(case, n, first_true - 1, e)
                 and case4_step3_check(case, n, 10**6, e),
                 f"contradictory conductors are not the ray c >= "
                 f"{first_true}")
        cb = first_true - 1
        (cls,) = case.classes
        st.c_bounds[cls.delta] = cb
        st.record(f"c[delta={cls.delta}]", "three-rung-contradiction",
                  {"n": n, "s": s, "eta": e}, cb)

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
