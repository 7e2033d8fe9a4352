"""Global-representation search, the local/global comparison scan, and the
bookkeeping around candidate regularity verdicts."""

import hashlib
import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from mgonal.localrep import (locally_represented, locally_represented_bits,
                             locally_represented_rows,
                             shifted_represents_over_zp)
from mgonal.numth import prime_divisors
from mgonal.polygonal import (MGonalForm, constants, form_to_shifted,
                              polygonal_number, shifted_target)
from mgonal.regcheck import (
    _BLOCK_TARGETS,
    _scan_rows,
    _sumset_builder,
    candidate_note,
    candidate_scan,
    case_bound_for,
    eureka_check,
    first_sense_examples,
    regularity_scan,
    represented_set,
    represents_globally,
)


def _brute_values(f: MGonalForm, bound: int) -> set:
    """Every value of f on [0, bound] by a plain nested loop."""
    per_coord = []
    for a in f.coeffs:
        vals = {0}
        x = 1
        while True:
            lo = a * polygonal_number(f.m, -x)
            hi = a * polygonal_number(f.m, x)
            if min(lo, hi) > bound:
                break
            vals.update(v for v in (lo, hi) if v <= bound)
            x += 1
        per_coord.append(sorted(vals))
    out = {0}
    for vals in per_coord:
        out = {s + v for s in out for v in vals if s + v <= bound}
    return out


@pytest.mark.parametrize("m,coeffs", [(3, (1, 1, 2)), (5, (1, 2, 3)),
                                      (8, (1, 1, 2)), (7, (1, 1, 3))])
def test_represents_globally_matches_brute_force(m, coeffs):
    f = MGonalForm(m, coeffs)
    truth = _brute_values(f, 60)
    for n in range(61):
        witness = represents_globally(f, n)
        assert (witness is not None) == (n in truth), (f, n)
        if witness is not None:
            assert f.value(witness) == n


@pytest.mark.parametrize("m,coeffs", [(3, (1, 1, 1)), (5, (1, 1, 2)),
                                      (3, (1, 2, 5)), (5, (2, 3, 7)),
                                      (8, (1, 2, 3)), (8, (1, 1, 4))])
def test_represented_set_matches_pointwise_search(m, coeffs):
    f = MGonalForm(m, coeffs)
    bits = represented_set(f, 300)
    assert type(bits) is int and bits >> 301 == 0
    assert represented_set(f, 0) == 1
    for n in range(301):
        assert (bits >> n & 1 == 1) == (represents_globally(f, n) is not None)


def test_scan_matches_pointwise_verdicts():
    for m, coeffs in [(7, (1, 2, 5)), (4, (1, 1, 1)), (8, (1, 2, 3))]:
        f = MGonalForm(m, coeffs)
        report = regularity_scan(f, 120)
        local = [n for n in range(121) if locally_represented(f, n)]
        assert report.locally_count == len(local)
        assert report.counterexamples == tuple(
            n for n in local if represents_globally(f, n) is None)


def _primitive_triples(cap):
    return [(a, b, c) for a in range(1, cap + 1) for b in range(a, cap + 1)
            for c in range(b, cap + 1) if math.gcd(math.gcd(a, b), c) == 1]


def test_scan_reports_first_soundness_violation(monkeypatch):
    import mgonal.regcheck as regcheck

    # n = lo + j < 5 for the scan's lo = 0
    monkeypatch.setattr(regcheck, "locally_represented_bits",
                        lambda m, rows, lo, hi: [0b11111] * len(rows))
    with pytest.raises(AssertionError,
                       match="represents 5 globally but fails a local test"):
        regcheck.regularity_scan(MGonalForm(3, (1, 1, 1)), 20)


def test_batch_names_the_first_violating_form(monkeypatch):
    """Rows 3 and 7 of the batch fail a (faked) local test from n = 5 on:
    the error names row 3 and its first globally represented n >= 5, as a
    form-by-form loop would."""
    import mgonal.regcheck as regcheck

    rows = _primitive_triples(4)

    def fake(m, block, lo, hi):
        # every n = lo + j, or n < 5 for the scan's lo = 0
        return [0b11111 if row in (rows[3], rows[7]) else (1 << hi - lo + 1) - 1
                for row in block]

    monkeypatch.setattr(regcheck, "locally_represented_bits", fake)
    form = MGonalForm(5, rows[3])
    late = represented_set(form, 40) >> 5
    n = 5 + (late & -late).bit_length() - 1
    with pytest.raises(AssertionError) as exc:
        regcheck.candidate_scan(5, 4, 40)
    assert str(exc.value) == (f"soundness violation: {form} represents {n} "
                              "globally but fails a local test")


def test_soundness_is_checked_past_a_rows_first_counterexample(monkeypatch):
    """<1,2,3> at m = 8 already misses n = 9; a (faked) local verdict that
    fails only at n = N must still raise for it, so no scan stops checking
    a row once the row is known not to be regular."""
    import mgonal.regcheck as regcheck

    N, bad = 301, (1, 2, 3)
    form = MGonalForm(8, bad)
    assert regularity_scan(form, N).counterexamples[0] == 9
    assert represented_set(form, N) >> N == 1
    real = regcheck.locally_represented_bits

    def fake(m, block, lo, hi):
        return [local & ~(1 << hi - lo) if tuple(row) == bad else local
                for row, local in zip(block, real(m, block, lo, hi))]

    monkeypatch.setattr(regcheck, "locally_represented_bits", fake)
    with pytest.raises(AssertionError) as exc:
        regcheck.candidate_scan(8, 5, N)
    assert str(exc.value) == (f"soundness violation: {form} represents {N} "
                              "globally but fails a local test")


def test_census_checks_each_row_once_and_builds_forms_for_survivors(
        monkeypatch):
    """candidate_scan(8, 5, 500) scans 29 rows and keeps 6: the local
    engine checks each row's coefficients once, and an MGonalForm (whose
    own check is the one other call) is built only for each survivor's
    report."""
    import mgonal.polygonal as polygonal
    import mgonal.regcheck as regcheck

    checks, forms = [], []
    check, form = polygonal._check_coefficients, regcheck.MGonalForm
    monkeypatch.setattr(polygonal, "_check_coefficients",
                        lambda coeffs: checks.append(tuple(coeffs))
                        or check(coeffs))
    monkeypatch.setattr(regcheck, "MGonalForm",
                        lambda m, coeffs: forms.append(coeffs)
                        or form(m, coeffs))
    reports = regcheck.candidate_scan(8, 5, 500)
    rows = _primitive_triples(5)
    survivors = [r.form.coeffs for r in reports]
    assert len(rows) == 29 and len(survivors) == 6
    assert forms == survivors
    assert sorted(checks) == sorted(rows + survivors)


@pytest.mark.parametrize("m", [8, 13, 711])
def test_census_op_reads_each_prime_once(m, monkeypatch):
    """A census op (29 rows x 501 n, one block) builds the class bitsets
    of its targets at most once per prime (`_exclusions`) and builds no
    lattice key from coefficients: each key is sorted from the labels of
    the entries."""
    import mgonal.localrep as localrep

    primes, keys = [], []
    exclusions, key = localrep._exclusions, localrep._lattice_key
    monkeypatch.setattr(localrep, "_exclusions",
                        lambda p, *args: primes.append(p) or exclusions(p, *args))
    monkeypatch.setattr(localrep, "_lattice_key",
                        lambda *args: keys.append(args) or key(*args))
    candidate_scan(m, 5, 500)
    assert keys == []
    assert primes and len(primes) == len(set(primes)), primes


def test_census_op_does_not_import_numpy_ma():
    """A census op runs in a process where numpy, and so numpy.ma, cannot
    be imported, and finds the survivors of an unblocked run."""
    script = ("import json, sys\n"
              "sys.modules['numpy'] = None\n"
              "from mgonal.regcheck import candidate_scan\n"
              "print(json.dumps([r.as_dict() for r in candidate_scan(8, 5, 500)]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        r.as_dict() for r in candidate_scan(8, 5, 500)]


def _bitset(flags) -> int:
    return sum(1 << n for n, ok in enumerate(flags) if ok)


@pytest.mark.parametrize("m", [3, 8])
def test_batched_scan_matches_form_by_form_loop(m):
    """cap 12 and N = 2000 make 3 blocks of at most _BLOCK_TARGETS targets.
    Each row's bitsets equal the ones read off that form's own local and
    global sets (the reference's array and `represented_set`), and the
    reports decoded from them (every row's by regularity_scan, the
    survivors' by candidate_scan) agree."""
    rows = _primitive_triples(12)
    assert len(rows) * 2001 > 2 * _BLOCK_TARGETS
    loop, reports = [], []
    for row in rows:
        f = MGonalForm(m, row)
        (flags,) = locally_represented_rows(f.m, [f.coeffs], range(2001))
        local = _bitset(flags)
        missed = local & ~represented_set(f, 2000)
        loop.append((row, local, missed))
        report = regularity_scan(f, 2000)
        assert report.locally_count == local.bit_count()
        assert report.counterexamples == tuple(
            n for n in range(2001) if missed >> n & 1)
        reports.append(report)
    assert list(_scan_rows(m, rows, 2000)) == loop
    assert candidate_scan(m, 12, 2000) == [r for r in reports
                                           if not r.counterexamples]


def test_batched_sumsets_match_pointwise_search():
    """Rows in candidate_scan order share pair sumsets; a row whose a_1 or
    a_2 changes must not reuse its neighbour's.  A sumset is a bitset, bit
    n set when n is represented."""
    for m in (3, 5, 8):
        represented = _sumset_builder(m, 40)
        rows = [(1, 2, 3), (2, 2, 3), (1, 2, 2), (1, 3, 2), (1, 1), (3,),
                (1, 1, 1, 2), (1, 2, 1, 2), (1, 2, 2**70)]
        for row in rows + _primitive_triples(3):
            f = MGonalForm(m, tuple(sorted(row)))
            assert represented(row) == sum(
                1 << n for n in range(41)
                if represents_globally(f, n) is not None), (m, row)


def test_mgonal_form_keeps_exact_python_ints():
    """A float m or coefficient raised only deep in a scan, and numpy
    coefficients stayed np.int64 in a scan report, which json could not
    write.  The form reads both through operator.index."""
    for m, coeffs in ((8, (1.0, 2.0, 3.5)), (8.0, (1, 2, 3)), (8, (1, 2, 3.0))):
        with pytest.raises(TypeError):
            MGonalForm(m, coeffs)
    f = MGonalForm(np.int64(8), tuple(np.array([1, 2, 3])))
    assert f == MGonalForm(8, [1, 2, 3]) == MGonalForm(8, (1, 2, 3))
    assert [type(x) for x in (f.m, *f.coeffs)] == [int] * 4
    assert str(f) == "<1*P8 + 2*P8 + 3*P8: 1,2,3>"
    report = regularity_scan(f, 20).as_dict()
    assert json.dumps(report) == json.dumps(
        regularity_scan(MGonalForm(8, (1, 2, 3)), 20).as_dict())


def test_local_verdicts_past_int64_match_the_scalar_definition():
    """Past int64 the range engine answers, as the scalar definition does:
    n is represented over R and every Z_p when N = mu n + d^2 sum a_i >= 0
    and the shifted form represents N at every p | 2 c lcm(a_i).  Seeded
    rows with smooth entries (their factorization is trial division) at
    nine m, on windows of 41 n around 2^62, 2^63, 10^20, 3^50 and -2^63:
    at least 10,000 (row, n) past 2^62.  A scan of a coefficient past
    int64 gives a report."""
    rng = random.Random(2 ** 63)
    smooth = [2 ** i * 3 ** j * 5 ** k * 7 ** l for i in range(5)
              for j in range(4) for k in range(3) for l in range(2)]
    centres = (2 ** 62, 2 ** 63, 10 ** 20, 3 ** 50, -2 ** 63)
    past = 0
    for m in (3, 4, 5, 7, 8, 9, 12, 44, 711):
        c = constants(m).c
        rows = [tuple(sorted(rng.choice(smooth) for _ in range(3)))
                for _ in range(14)]
        for centre in centres:
            lo, hi = centre - 20, centre + 20
            bits = locally_represented_bits(m, rows, lo, hi)
            for row, got in zip(rows, bits):
                f = MGonalForm(m, row)
                g = form_to_shifted(f)
                primes = prime_divisors(2 * c * math.lcm(*row))
                for j, n in enumerate(range(lo, hi + 1)):
                    N = shifted_target(f, n)
                    want = N >= 0 and all(
                        shifted_represents_over_zp(g, N, p) for p in primes)
                    assert got >> j & 1 == want, (m, row, n)
                    past += n > 2 ** 62
    assert past >= 10_000
    f = MGonalForm(3, (1, 1, 2**70))
    report = regularity_scan(f, 10)
    assert report.locally_count == 11
    assert report.counterexamples == tuple(
        n for n in range(11) if represents_globally(f, n) is None) == (5, 8)


@pytest.mark.parametrize("call,arg", [
    (lambda v: regularity_scan(MGonalForm(3, (1, 1, 1)), v), 0),
    (lambda v: regularity_scan(MGonalForm(3, (1, 1, 1)), v), -1),
    (lambda v: represented_set(MGonalForm(3, (1, 1, 1)), v), -1),
    (lambda v: candidate_scan(3, v, 10), 0),
    (lambda v: candidate_scan(3, 2, v), 0),
    (lambda v: represents_globally(MGonalForm(3, (1, 1, 1)), v), -1),
], ids=["scan-N0", "scan-N-1", "set-N-1", "cap0", "candidate-N0",
        "global-n-1"])
def test_bad_bounds_raise_named_errors(call, arg):
    with pytest.raises(ValueError, match=f"got {arg}$"):
        call(arg)


def test_scan_flags_failures_of_regularity():
    # a small family known to contain failures: the scan must find one and
    # its first counterexample must check out on both sides independently
    flagged = []
    for m, coeffs in [(3, (1, 1, 8)), (7, (1, 1, 3)), (7, (2, 3, 4))]:
        f = MGonalForm(m, coeffs)
        report = regularity_scan(f, 150)
        if report.counterexamples:
            flagged.append((f, report))
    assert flagged
    for f, report in flagged:
        n0 = report.counterexamples[0]
        assert report.verdict == f"not-regular(witness n={n0})"
        assert locally_represented(f, n0)
        assert represents_globally(f, n0) is None


def test_scan_regular_survivor():
    report = regularity_scan(MGonalForm(3, (1, 1, 1)), 100)
    assert report.counterexamples == ()
    assert report.verdict == "regular-up-to-100"
    assert report.locally_count == 101


def test_scan_beyond_the_fft_limit():
    """m = 711 has conductor 2 * 709; its local test at 709 is one
    congruence, where a residue table would hold 709^3 entries."""
    report = regularity_scan(MGonalForm(711, (1, 2, 3)), 300)
    assert report.verdict == "not-regular(witness n=7)"


def test_eureka_scan():
    assert eureka_check(2000)
    assert eureka_check(10**5) is True


def test_candidate_scan_keeps_only_clean_reports():
    reports = candidate_scan(3, 2, 80)
    forms = {tuple(r.form.coeffs) for r in reports}
    assert (1, 1, 1) in forms and (1, 1, 2) in forms
    assert all(not r.counterexamples for r in reports)
    assert all(r.verdict.startswith("regular-up-to") for r in reports)


def test_census_survivors_are_pinned():
    """The survivors of candidate_scan(m, 5, 500) for m = 3, 8 and every m
    in [5, 46], hashed as the benchmark's census digest hashes them
    (sha256 of the JSON of the sorted (m, survivor triples) pairs)."""
    survivors = {m: [list(r.form.coeffs) for r in candidate_scan(m, 5, 500)]
                 for m in [3, 8] + list(range(5, 47))}
    blob = json.dumps(sorted(survivors.items())).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == "034ef86053cb7c9f"


def test_scan_verdicts_are_pinned():
    """Every (row, local, missed) bitset that _scan_rows yields at N = 600
    for the cap-6 primitive triples and a few imprimitive rows, over m of
    every congruence class of the conductor and the large prime c of
    m = 711, hashed: a change of local engine keeps each bit."""
    rows = _primitive_triples(6) + [(2, 2, 2), (2, 4, 6), (3, 3, 6),
                                    (3, 6, 9), (4, 4, 8), (5, 10, 25),
                                    (8, 8, 16), (9, 9, 27)]
    digest = hashlib.sha256()
    for m in (3, 4, 5, 6, 7, 8, 9, 12, 13, 44, 45, 711):
        for row, local, missed in _scan_rows(m, rows, 600):
            digest.update(json.dumps([m, row, local, missed]).encode())
    assert digest.hexdigest() == (
        "8ce622aff4d9de86ed00000b2c0659de6e79f2b21d4e39c2a785ec27e88883cf")


def test_case_bounds_and_notes():
    assert case_bound_for(35) == 35 and candidate_note(35) is None
    assert case_bound_for(36) == 712 and candidate_note(36) is None
    assert case_bound_for(149) == 35
    note = candidate_note(149)
    assert note is not None and "bound 35" in note
    assert case_bound_for(2) is None and candidate_note(2) is None


def test_first_sense_examples():
    out = first_sense_examples()
    assert out["ok"]
    quat = out["quaternary"]
    assert quat["z3_value"] == -1 and quat["zp_value"] == -1
    tern = out["ternary"]
    assert tern["shifted_target"] == 7
    assert tern["locally_represented"] and not tern["globally_represented"]
