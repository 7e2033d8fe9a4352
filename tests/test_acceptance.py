"""End-to-end acceptance suite.

Ten independent checks, one per shipped guarantee: golden-table
reproduction (eta, psi, the proposition base cases, the six case bounds),
the two motivating example verifications, and four exhaustive property
sweeps (exception counts, coprime shifts, local-engine modulus stability,
coset descent value sets).  Each test prints a single PASS line with its
coverage numbers; a failure anywhere is a build failure, and the replay
check aborts on any drift from the recorded derivation.

Runtime budgets are asserted where a check is supposed to be cheap; the
heavyweight sweeps report their own timings instead.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from importlib import resources

from mgonal.density import eta, exception_count_check, psi_values_desc
from mgonal.localrep import (_convolve_presence, _coord_indicator,
                             _lattice_key, is_stable, represents_over_zp)
from mgonal.numth import ord_p
from mgonal.pipeline import find_coprime_shift, replay_all, theorem_bounds
from mgonal.polygonal import ShiftedForm
from mgonal.prodineq import (CLAUSES, certify_all_t, check_implications,
                             min_slack, verify_induction_step,
                             verify_inequality)
from mgonal.regcheck import eureka_check, first_sense_examples
from mgonal.watson import coset_watson_step


def _golden(name):
    path = resources.files("mgonal") / "data" / name
    return json.loads(path.read_text())


# --------------------------------------------------------------------------
# 1. the 16 golden eta entries


def test_criterion_01_table_entries():
    golden = _golden("table1.json")["entries"]
    assert len(golden) == 16
    t0 = time.perf_counter()
    for n, s, expected in golden:
        assert eta(n, s) == expected, f"eta({n},{s}) != {expected}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"eta table took {elapsed:.2f} s"
    # spot-check the two entries quoted everywhere
    assert eta(48, 8) == 13 and eta(125, 19) == 25
    print(f"criterion  1 PASS: 16/16 eta entries exact in {elapsed:.3f} s")


# --------------------------------------------------------------------------
# 2. the psi sample at n = 48


def test_criterion_02_psi_sample():
    expected = (8, 7, 5, 4, 3, 3, 3, 2)
    got = psi_values_desc(48, 8)
    assert tuple(got) == tuple(Fraction(x) for x in expected), got
    golden = _golden("psi48.json")
    assert golden["n"] == 48 and golden["count"] == 8
    assert [int(x) for x in got] == golden["values"]
    print("criterion  2 PASS: psi sample at 48 = (8,7,5,4,3,3,3,2) exact")


# --------------------------------------------------------------------------
# 3. the thirteen prime-product inequalities


def test_criterion_03_prime_product_inequalities():
    t0 = time.perf_counter()
    # clause 1 base case: both printed constants, digit for digit
    lhs, rhs, ok = verify_inequality(1, 16)
    assert lhs == 12091972151626183
    assert rhs == 3770775127457792 == ((16 + 3) * 2 ** (16 - 3)) ** 3
    assert ok

    checks = 0
    for index, spec in sorted(CLAUSES.items()):
        for t in range(spec.t0, 41):
            _, _, holds = verify_inequality(index, t)
            assert holds, f"clause {index} fails at t = {t}"
            checks += 1
        assert verify_induction_step(index, 40), f"induction, clause {index}"
        _, _, certified = certify_all_t(index)
        assert certified, f"certificate, clause {index}"
        assert min_slack(index, 40) > 1
    assert check_implications(40)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"inequality suite took {elapsed:.2f} s"
    print(f"criterion  3 PASS: 13 clauses, {checks} exact evaluations, "
          f"induction + certificates in {elapsed:.3f} s")


# --------------------------------------------------------------------------
# 4. the four-case bound replay


def test_criterion_04_bound_replay():
    golden = _golden("theorem.json")
    # replay_all raises ReplayMismatch on any drift from the recorded
    # derivation, so reaching the asserts below already certifies the replay
    states = replay_all(expected=golden["cases"])
    assert sorted(states) == [1, 2, 3, 4]

    logged = set()
    c_bounds = set()
    merged = {}
    for state in states.values():
        d = state.as_dict()
        logged |= {e["value"] for e in d["log"] if isinstance(e["value"], int)}
        c_bounds |= set(d["c_bounds"].values())
        merged.update(d["m_bounds"])

    named = {45, 49, 2, 18, 142, 304, 9, 88, 190, 294, 66, 110, 3, 90,
             580, 1492}
    assert named <= logged, f"missing intermediates: {named - logged}"
    # the 49 * 142 product feeds the next descent round in case 2
    steps2 = [(e["step"], e["value"])
              for e in states[2].as_dict()["log"]]
    assert (("a1", 49), ("a2", 142)) in zip(steps2, steps2[1:])
    assert c_bounds == {74, 36, 290, 144, 96, 355}

    bounds = {"odd,2mod3": 35, "odd,not2mod3": 147,
              "2mod4,2mod3": 38, "2mod4,not2mod3": 142,
              "0mod4,2mod3": 188, "0mod4,not2mod3": 712}
    assert merged == bounds == golden["bounds"] == theorem_bounds()
    print("criterion  4 PASS: replay reproduces all 16 intermediates, "
          "6 c-bounds and the final bounds 35/147/38/142/188/712")


# --------------------------------------------------------------------------
# 5. triangular universality by brute force


def test_criterion_05_triangular_universality():
    t0 = time.perf_counter()
    assert eureka_check(10 ** 4) is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"universality sweep took {elapsed:.2f} s"
    print(f"criterion  5 PASS: x(x+1)/2 sums cover 0..10^4 "
          f"in {elapsed:.3f} s")


# --------------------------------------------------------------------------
# 6. the two motivating examples


def test_criterion_06_motivating_examples():
    report = first_sense_examples()
    assert report["ok"] is True

    quat = report["quaternary"]
    assert quat["target"] == quat["z3_value"] == quat["zp_value"] == -1
    assert quat["ok"] is True
    # the witness over Z_3 may only use denominators prime to 3, and the
    # one covering the remaining completions may only use powers of 3
    for entry in quat["z3_witness"]:
        assert Fraction(entry).denominator % 3 != 0
    for entry in quat["zp_witness"]:
        den = Fraction(entry).denominator
        while den % 3 == 0:
            den //= 3
        assert den == 1

    tern = report["ternary"]
    assert tern["target"] == -3 and tern["shifted_target"] == 7
    assert tern["locally_represented"] is True
    assert tern["globally_represented"] is False
    assert tern["ok"] is True
    print("criterion  6 PASS: quaternary witness identity at -1 and the "
          "locally-but-not-globally ternary at -3 both verified")


# --------------------------------------------------------------------------
# 7. exception-count bound sweep


def test_criterion_07_exception_count_sweep():
    t0 = time.perf_counter()
    checks = 0
    for p in (5, 7, 11):
        triples = [
            c for c in
            itertools.combinations_with_replacement(range(1, 13), 3)
            if is_stable(c, p)
        ]
        for coeffs in triples:
            for s in (1, 2):
                for u in (1, 2, 3):
                    for v in (0, 1, 2):
                        count, bound, ok = exception_count_check(
                            p, s, coeffs, u, v)
                        assert ok, (p, s, coeffs, u, v, count, bound)
                        checks += 1
    elapsed = time.perf_counter() - t0
    assert checks == 18612
    assert elapsed < 60.0, f"exception sweep took {elapsed:.1f} s"
    print(f"criterion  7 PASS: {checks} exception-count instances, "
          f"zero violations in {elapsed:.1f} s")


# --------------------------------------------------------------------------
# 8. coprime-shift bound sweep


def test_criterion_08_coprime_shift_sweep():
    t0 = time.perf_counter()
    primes_pool = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    checks = 0
    worst = -1
    for s in (2, 3, 4):
        limit = (s + 4) << (s - 2)
        for primes in itertools.combinations(primes_pool, s):
            prod = math.prod(primes)
            for u in range(41):
                if math.gcd(u, prod) != 1:
                    continue
                for v in range(41):
                    n = find_coprime_shift(primes, u, v)
                    assert n < limit, (primes, u, v, n)
                    worst = max(worst, n)
                    checks += 1
    elapsed = time.perf_counter() - t0
    assert checks == 473714
    print(f"criterion  8 PASS: {checks} coprime-shift instances, "
          f"worst shift {worst}, all below (s+4)2^(s-2), "
          f"in {elapsed:.1f} s")


# --------------------------------------------------------------------------
# 9. local-engine modulus stability


def test_criterion_09_modulus_stability():
    # Verdicts only depend on the ordered (ord_p, square-class) profile of
    # the coefficients and the target: scaling a coefficient or the target
    # by a unit square rescales every solution coordinate by a unit.  So
    # the sweep over all 22100 ascending triples with entries <= 50 and
    # all n <= 200 reduces to one representative per profile class, each
    # checked at its Hensel exponent K and again at K + 2, against the
    # recursion engine's verdict.  A coordinate's indicator depends only
    # on (a, p, K), so each is built once per prime.
    t0 = time.perf_counter()
    n_max, a_max = 200, 50
    triples = list(
        itertools.combinations_with_replacement(range(1, a_max + 1), 3))
    combos = 0
    classes = 0
    for p in (2, 3, 5, 7):
        indicators = {}

        def indicator(a, KK):
            if (a, KK) not in indicators:
                indicators[a, KK] = _coord_indicator(a, p, KK)
            return indicators[a, KK]

        reps = {}
        for coeffs in triples:
            reps.setdefault(_lattice_key(coeffs, p), coeffs)
        combos += len(triples) * (n_max + 1)
        cap = 0
        while p ** (cap + 1) <= n_max:
            cap += 1
        for rep in reps.values():
            K = cap + max(ord_p(a, p) for a in rep) + 2 * ord_p(2, p) + 1
            arrays = {}
            for KK in (K, K + 2):
                acc = indicator(rep[0], KK)
                for a in rep[1:]:
                    acc = _convolve_presence(acc, indicator(a, KK))
                arrays[KK] = acc
            for n in range(n_max + 1):
                at_k = bool(arrays[K][n % p ** K] > 0.5)
                at_k2 = bool(arrays[K + 2][n % p ** (K + 2)] > 0.5)
                engine = represents_over_zp(rep, n, p).represented
                assert at_k == at_k2 == engine, (p, rep, n)
            classes += 1
    elapsed = time.perf_counter() - t0
    assert classes == 1315 and combos == 4 * 22100 * 201
    print(f"criterion  9 PASS: verdicts stable under K -> K+2 on "
          f"{classes} profile classes covering {combos} "
          f"(lattice, n, p) combinations in {elapsed:.1f} s")


# --------------------------------------------------------------------------
# 10. coset descent value sets


def test_criterion_10_coset_step_value_sets():
    # deterministic generation: conductors cycle through 6, 10, 12 and the
    # designated unstable prime avoids the conductor (5 for 6 and 12,
    # 3 for 10); both unstable shapes occur (a deep p^2-entry next to an
    # anisotropic unit pair, and two entries sharing one factor of p)
    rng = random.Random(20260816)
    unstable_p = {6: 5, 10: 3, 12: 5}
    forms = []
    conductors = itertools.cycle((6, 10, 12))
    while len(forms) < 100:
        c = next(conductors)
        p = unstable_p[c]
        if rng.random() < 0.5:
            units = [rng.randrange(1, 31) for _ in range(2)]
            deep = p * p * rng.randrange(1, 30 // (p * p) + 1)
            coeffs = units + [deep]
        else:
            coeffs = [p * rng.randrange(1, 30 // p + 1),
                      p * rng.randrange(1, 30 // p + 1),
                      rng.randrange(1, 31)]
        rng.shuffle(coeffs)
        coeffs = tuple(coeffs)
        if max(coeffs) > 30 or math.gcd(math.gcd(*coeffs[:2]), coeffs[2]) != 1:
            continue
        if is_stable(coeffs, p):
            continue
        window = [r for r in range(1, c)
                  if math.gcd(r, c) == 1 and 2 * r < c]
        shifts = tuple(rng.choice(window) for _ in range(3))
        forms.append((ShiftedForm(conductor=c, coeffs=coeffs,
                                  shifts=shifts), p))

    values_checked = 0
    for g, p in forms:
        stepped, step = coset_watson_step(g, p)
        assert stepped.conductor == g.conductor
        s = step.s
        # a 300-wide window above the stepped minimum is never empty (the
        # minimum itself is attained at the zero coordinate), so every
        # form contributes to the inclusion check
        cap = stepped.minimum() + 300
        scaled = {p ** s * w for w in stepped.values_upto(cap)}
        assert scaled and scaled <= set(g.values_upto(p ** s * cap)), \
            (g, p, stepped)
        values_checked += len(scaled)
    assert values_checked > 400
    print(f"criterion 10 PASS: 100 coset steps, conductor preserved, "
          f"{values_checked} scaled values all inside the original "
          f"value sets")
