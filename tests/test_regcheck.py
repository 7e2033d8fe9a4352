"""Global-representation search, the local/global comparison scan, and the
bookkeeping around candidate regularity verdicts."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mgonal.localrep import locally_represented, locally_represented_many
from mgonal.polygonal import MGonalForm, polygonal_number
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
    flags = represented_set(f, 300)
    assert flags.dtype == np.bool_ and flags.shape == (301,)
    assert represented_set(f, 0).tolist() == [True]
    for n in range(301):
        assert bool(flags[n]) == (represents_globally(f, n) is not None)


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

    monkeypatch.setattr(regcheck, "locally_represented_rows",
                        lambda m, rows, ns: np.tile(np.asarray(ns) < 5,
                                                    (len(rows), 1)))
    with pytest.raises(AssertionError,
                       match="represents 5 globally but fails a local test"):
        regcheck.regularity_scan(MGonalForm(3, (1, 1, 1)), 20)


def test_batch_names_the_first_violating_form(monkeypatch):
    """Rows 3 and 7 of the batch fail a (faked) local test from n = 5 on:
    the error names row 3 and its first globally represented n >= 5, as a
    form-by-form loop would."""
    import mgonal.regcheck as regcheck

    rows = _primitive_triples(4)

    def fake(m, block, ns):
        flags = np.ones((len(block), len(ns)), dtype=bool)
        for i, row in enumerate(block):
            if row in (rows[3], rows[7]):
                flags[i] = np.asarray(ns) < 5
        return flags

    monkeypatch.setattr(regcheck, "locally_represented_rows", fake)
    form = MGonalForm(5, rows[3])
    n = 5 + int(np.flatnonzero(represented_set(form, 40)[5:])[0])
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
    assert represented_set(form, N)[N]
    real = regcheck.locally_represented_rows

    def fake(m, block, ns):
        flags = real(m, block, ns)
        flags[[tuple(row) == bad for row in block], -1] = False
        return flags

    monkeypatch.setattr(regcheck, "locally_represented_rows", fake)
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
    """A census op (29 rows x 501 n, one block) reads the orders and classes
    of its targets at most once per prime, makes no per-group engine call
    and builds no lattice key from coefficients: each key is decoded from
    the sorted integer codes of its labels."""
    import mgonal.localrep as localrep

    primes, groups, keys = [], [], []
    orders, many = localrep._orders_and_classes, localrep.represents_over_zp_many
    key = localrep._lattice_key
    monkeypatch.setattr(localrep, "_orders_and_classes",
                        lambda N, p: primes.append(p) or orders(N, p))
    monkeypatch.setattr(localrep, "represents_over_zp_many",
                        lambda *args: groups.append(args[0]) or many(*args))
    monkeypatch.setattr(localrep, "_lattice_key",
                        lambda *args: keys.append(args) or key(*args))
    candidate_scan(m, 5, 500)
    assert groups == [] and keys == []
    assert primes and len(primes) == len(set(primes)), primes


def test_census_op_does_not_import_numpy_ma():
    """In numpy 2, the first np.unique of a process imports numpy.ma (about
    15 ms); a census op runs no such call.  Skipped where importing numpy
    loads numpy.ma anyway."""
    script = ("import sys\nimport numpy\n"
              "if 'numpy.ma' in sys.modules:\n    sys.exit(3)\n"
              "from mgonal.regcheck import candidate_scan\n"
              "candidate_scan(8, 5, 500)\n"
              "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode == 3:
        pytest.skip("importing numpy loads numpy.ma")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _bitset(flags) -> int:
    return sum(1 << int(n) for n in np.flatnonzero(flags))


@pytest.mark.parametrize("m", [3, 8])
def test_batched_scan_matches_form_by_form_loop(m):
    """cap 12 and N = 2000 make 3 blocks of at most _BLOCK_TARGETS targets.
    Each row's bitsets equal the ones read off that form's own local and
    global arrays, and the reports decoded from them (every row's by
    regularity_scan, the survivors' by candidate_scan) agree."""
    rows = _primitive_triples(12)
    assert len(rows) * 2001 > 2 * _BLOCK_TARGETS
    loop, reports = [], []
    for row in rows:
        f = MGonalForm(m, row)
        local = locally_represented_many(f, np.arange(2001))
        missed = local & ~represented_set(f, 2000)
        loop.append((row, _bitset(local), _bitset(missed)))
        report = regularity_scan(f, 2000)
        assert report.locally_count == local.sum()
        assert report.counterexamples == tuple(np.flatnonzero(missed).tolist())
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


def test_coefficient_past_int64_is_a_named_error():
    # the local side names the overflow before the sumset is built
    with pytest.raises(ValueError, match="overflows int64"):
        regularity_scan(MGonalForm(3, (1, 1, 2**70)), 10)


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
