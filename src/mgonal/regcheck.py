"""Global representation search and regularity scanning for m-gonal forms.

Regularity here is always the computational verdict "regular up to N": every
0 <= n <= N that passes the local tests (over R and every Z_p) is actually
represented over Z.  A genuine counterexample (locally represented, globally
missed) proves non-regularity with a concrete witness n; the converse claim,
true regularity, is never asserted by a finite scan.

Scans are batched: `candidate_scan` decides every coefficient triple of
one m together (`_scan_rows`), and `regularity_scan` is the one-row case.
Both sides of a scan are Python-integer bitsets over [0, N], bit n set
when n is represented.  The global side computes the generalized m-gonal
numbers <= N once and shares each (a_1, a_2) pair sumset across every
a_3; the local side makes one `locally_represented_bits` call per block of
at most `_BLOCK_TARGETS` targets, which gives one bitset per row.  A
row is then compared by integer AND/NOT: every n of every row is still
checked for soundness, and a report, with its counterexamples decoded
from the bitset, is built only for the rows a caller keeps.
`represented_set` and `eureka_check` read the same global bitsets, so
no path here builds an array, and the module imports no numpy.

The module also packages the two small motivating examples: the quaternary
triangular form with coefficients (1,1,3,6), which represents -1 over every
Z_p (checked via the two exact rational witness vectors, whose denominators
are units in the respective rings), and the ternary (1,3,27), which
represents -3 over every Z_p but cannot represent any negative integer over
Z since generalized polygonal numbers are nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .localrep import locally_represented, locally_represented_bits
from .numth import prime_divisors
from .polygonal import MGonalForm, polygonal_number, shifted_target

# Most targets (rows times n) one block of a batched scan holds: the bits
# of its rows' local verdicts, and of the class bitsets and exclusions
# that the local engine keeps per prime for the block.
_BLOCK_TARGETS = 2 ** 18
# The binary digits '0' and '1' as the bytes 0 and 1 (`_report`).
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of comparing local and global representation on [0, N]."""

    form: MGonalForm
    bound: int
    locally_count: int
    counterexamples: Tuple[int, ...]
    verdict: str

    def as_dict(self) -> dict:
        return {
            "m": self.form.m,
            "coeffs": list(self.form.coeffs),
            "bound": self.bound,
            "locally_represented": self.locally_count,
            "counterexamples": list(self.counterexamples),
            "verdict": self.verdict,
        }


def _coordinate_values(m: int, a: int, bound: int) -> List[Tuple[int, int]]:
    """All (a * P_m(x), x) with value <= bound; every generalized m-gonal
    number is nonnegative, so the enumeration is finite in both directions."""
    out: List[Tuple[int, int]] = []
    x = 0
    while True:
        pair = [(a * polygonal_number(m, s), s) for s in ((0,) if x == 0 else (x, -x))]
        if x > 0 and all(v > bound for v, _ in pair):
            break
        out.extend((v, s) for v, s in pair if v <= bound)
        x += 1
    return out


def represents_globally(f: MGonalForm, n: int) -> Optional[Tuple[int, ...]]:
    """Witness x with f(x) = n, or None.  Exhaustive over the finite box
    {x : a_i P_m(x_i) <= n for every i}."""
    if n < 0:
        raise ValueError(f"n must be >= 0 (every value of an m-gonal form "
                         f"is), got {n}")
    coords = [_coordinate_values(f.m, a, n) for a in f.coeffs]
    first: Dict[int, int] = {}
    for v, x in coords[0]:
        first.setdefault(v, x)

    def rec(i: int, remaining: int, tail: Tuple[int, ...]):
        if i == 0:
            x = first.get(remaining)
            return None if x is None else (x,) + tail
        for v, x in coords[i]:
            if v <= remaining:
                got = rec(i - 1, remaining - v, (x,) + tail)
                if got is not None:
                    return got
        return None

    witness = rec(f.rank - 1, n, ())
    if witness is not None:
        assert f.value(witness) == n
    return witness


def _sumset_builder(m: int, N: int):
    """represented(coeffs) -> the bitset of [0, N] with bit n set when
    sum a_i P_m(x_i) = n has a solution over Z, for any coefficient row of
    Python ints at this m (`MGonalForm` keeps its coefficients so).

    The generalized m-gonal numbers <= N are computed once.  A sumset is a
    Python integer used as a bitset, so adding a coordinate is one shift
    and OR per value a P_m(x) <= N, in the interpreter's big-integer
    arithmetic.  The sumset of each proper prefix of a row is kept until a
    row with another prefix of that length comes; so consecutive rows
    sharing (a_1, a_2), as `candidate_scan` lists them, build that pair
    sumset once, and memory stays linear in N.
    """
    top = 1
    while polygonal_number(m, -top) <= N or polygonal_number(m, top) <= N:
        top += 1
    gen = sorted({polygonal_number(m, x) for x in range(-top, top + 1)})
    below = (1 << N + 1) - 1  # the bits of 0..N
    # prefix length -> (prefix, its sumset)
    last: Dict[int, Tuple[Tuple[int, ...], int]] = {0: ((), 1)}

    def add(bits: int, a: int) -> int:
        out = 0
        for g in gen:  # ascending, from 0
            if a * g > N:
                break
            out |= bits << a * g
        return out & below

    def reached(prefix: Tuple[int, ...]) -> int:
        k = len(prefix)
        if last.get(k, (None,))[0] != prefix:
            last[k] = (prefix, add(reached(prefix[:-1]), prefix[-1]))
        return last[k][1]

    def represented(coeffs: Tuple[int, ...]) -> int:
        return add(reached(coeffs[:-1]), coeffs[-1])

    return represented


def represented_set(f: MGonalForm, N: int) -> int:
    """The bitset of [0, N] with bit n set when f represents n: the
    one-row case of the sumsets built by `_sumset_builder`."""
    if N < 0:
        raise ValueError(f"bound N must be >= 0, got {N}")
    return _sumset_builder(f.m, N)(f.coeffs)


def _scan_rows(m: int, coeff_rows: Sequence[Tuple[int, ...]],
               N: int) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    """(row, local, missed) per coefficient row at this m, in row order:
    `local` is the bitset of the n in [0, N] that pass the local tests and
    `missed` the bitset of those the form does not represent over Z (its
    counterexamples).

    The rows are scanned in blocks of at most `_BLOCK_TARGETS` targets
    (rows times N + 1, at least one row per block): each block makes one
    `locally_represented_bits` call, which also checks every row and
    gives one bitset per row; the global sumsets share pair sumsets
    across the whole call.  Soundness -- everything globally represented
    must be locally represented -- is asserted on every row and every n,
    before the row is yielded; the error names the first violating row in
    row order and its first n.  Rows are yielded as bitsets, not reports:
    a caller builds a `RegularityReport` (`_report`) only for the rows it
    keeps.
    """
    if N < 1:
        raise ValueError(f"scan bound N must be >= 1, got {N}")
    represented = _sumset_builder(m, N)
    step = max(1, _BLOCK_TARGETS // (N + 1))
    for lo in range(0, len(coeff_rows), step):
        block = coeff_rows[lo:lo + step]
        for row, local in zip(block, locally_represented_bits(m, block, 0, N)):
            glob = represented(row)
            unsound = glob & ~local
            if unsound:
                n = (unsound & -unsound).bit_length() - 1
                raise AssertionError(
                    f"soundness violation: {MGonalForm(m, row)} "
                    f"represents {n} globally but fails a local test"
                )
            yield row, local, local & ~glob


def _report(f: MGonalForm, N: int, local: int, missed: int) -> RegularityReport:
    """The report of one row of `_scan_rows`.  The counterexamples are the
    set bits of `missed`, lowest first: its binary digits, reversed so
    that bit n sits at index n and turned into the bytes 0 and 1, select
    them in `itertools.compress`, with no Python step per n."""
    digits = bin(missed)[:1:-1].encode().translate(_BIT_BYTES)
    counterexamples = tuple(compress(range(len(digits)), digits))
    if counterexamples:
        verdict = f"not-regular(witness n={counterexamples[0]})"
    else:
        verdict = f"regular-up-to-{N}"
    return RegularityReport(form=f, bound=N, locally_count=local.bit_count(),
                            counterexamples=counterexamples, verdict=verdict)


def regularity_scan(f: MGonalForm, N: int) -> RegularityReport:
    """Compare the local verdicts with the global sumset on [0, N]: the
    one-row case of `_scan_rows`."""
    _, local, missed = next(_scan_rows(f.m, [f.coeffs], N))
    return _report(f, N, local, missed)


def eureka_check(N: int = 10**4) -> bool:
    """Does P_3(x) + P_3(y) + P_3(z) represent every 0 <= n <= N?"""
    return represented_set(MGonalForm(3, (1, 1, 1)), N) == (1 << N + 1) - 1


def _fraction_is_unit_outside(x: Fraction, allowed: Tuple[int, ...]) -> bool:
    """Denominator of x uses only the allowed primes (so x lies in Z_p for
    every p outside them)."""
    return all(q in allowed for q in prime_divisors(x.denominator))


def first_sense_examples() -> dict:
    """The two motivating examples of representation over every Z_p.

    (a) sum of P_3 with coefficients (1,1,3,6) takes the value -1 at the
    rational points (-1/2,-1/2,0,-1/2) (denominators prime to 3, a Z_3
    point) and (0,0,-1/3,-1/3) (denominators powers of 3, a Z_p point for
    every p != 3) -- evaluated exactly over Fractions.

    (b) the ternary (1,3,27) represents -3 over every Z_p: the shifted
    target 8*(-3) + 31 = 7 passes the local tests; globally no m-gonal
    form represents a negative integer, all its values being >= 0.
    """
    quat = MGonalForm(3, (1, 1, 3, 6))
    half = Fraction(-1, 2)
    third = Fraction(-1, 3)
    w3 = (half, half, Fraction(0), half)
    wp = (Fraction(0), Fraction(0), third, third)
    v3 = sum(a * polygonal_number(3, x) for a, x in zip(quat.coeffs, w3))
    vp = sum(a * polygonal_number(3, x) for a, x in zip(quat.coeffs, wp))
    assert v3 == -1 and vp == -1
    assert all(_fraction_is_unit_outside(x, (2,)) for x in w3)  # 2 a Z_3 unit
    assert all(_fraction_is_unit_outside(x, (3,)) for x in wp)  # 3 a unit, p != 3

    tern = MGonalForm(3, (1, 3, 27))
    target = shifted_target(tern, -3)
    assert target == 7
    locally = locally_represented(tern, -3)
    assert locally
    # global impossibility is structural: every value of the form is >= 0

    return {
        "quaternary": {
            "form": str(quat),
            "target": -1,
            "z3_witness": [str(x) for x in w3],
            "z3_value": int(v3),
            "zp_witness": [str(x) for x in wp],
            "zp_value": int(vp),
            "ok": True,
        },
        "ternary": {
            "form": str(tern),
            "target": -3,
            "shifted_target": target,
            "locally_represented": bool(locally),
            "globally_represented": False,
            "ok": bool(locally),
        },
        "ok": bool(locally),
    }


def candidate_scan(m: int, coeff_bound: int, N: int) -> List[RegularityReport]:
    """Reports for every primitive ascending ternary coefficient triple with
    a_3 <= coeff_bound that survives the scan (verdict regular-up-to-N).
    All triples are scanned as one batch by `_scan_rows`; a form and a
    report are built only for the survivors."""
    if coeff_bound < 1:
        raise ValueError(f"coefficient bound must be >= 1, got {coeff_bound}")
    rows = [(a1, a2, a3)
            for a1 in range(1, coeff_bound + 1)
            for a2 in range(a1, coeff_bound + 1)
            for a3 in range(a2, coeff_bound + 1)
            if gcd(gcd(a1, a2), a3) == 1]
    return [_report(MGonalForm(m, row), N, local, missed)
            for row, local, missed in _scan_rows(m, rows, N) if not missed]


def case_bound_for(m: int):
    """The bound on m of the congruence class containing m, from a replay
    of the one case of the derivation that holds that class, or None when
    m < 3 is not a polygon."""
    from .pipeline import CASES, replay_case

    if m < 3:
        return None
    case, cls = next((case, cls) for case in CASES.values()
                     for cls in case.classes if cls.contains(m))
    return replay_case(case).m_bounds[cls.label]


def candidate_note(m: int) -> Optional[str]:
    """Caveat attached to scans beyond the derivation's reach: survivors of
    a finite scan are candidates only, and for m above its class bound the
    nonexistence statement says a candidate cannot be regular."""
    bound = case_bound_for(m)
    if bound is not None and m > bound:
        return (
            "candidate only: the nonexistence statement covers regular "
            f"forms, and m = {m} exceeds its congruence-class bound {bound}"
        )
    return None

