"""Global-representation search, the local/global comparison scan, and the
bookkeeping around candidate regularity verdicts."""

import hashlib
import json

import numpy as np
import pytest

from mgonal.localrep import locally_represented
from mgonal.polygonal import MGonalForm, polygonal_number
from mgonal.regcheck import (
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


@pytest.mark.parametrize("m,coeffs", [(3, (1, 1, 1)), (5, (1, 1, 2))])
def test_represented_set_matches_pointwise_search(m, coeffs):
    f = MGonalForm(m, coeffs)
    flags = represented_set(f, 80)
    assert flags.dtype == np.bool_ and flags.shape == (81,)
    for n in range(81):
        assert bool(flags[n]) == (represents_globally(f, n) is not None)


def test_scan_matches_pointwise_verdicts():
    for m, coeffs in [(7, (1, 2, 5)), (4, (1, 1, 1)), (8, (1, 2, 3))]:
        f = MGonalForm(m, coeffs)
        report = regularity_scan(f, 120)
        local = [n for n in range(121) if locally_represented(f, n)]
        assert report.locally_count == len(local)
        assert report.counterexamples == tuple(
            n for n in local if represents_globally(f, n) is None)


def test_scan_reports_first_soundness_violation(monkeypatch):
    import mgonal.regcheck as regcheck

    monkeypatch.setattr(regcheck, "locally_represented_many",
                        lambda f, ns: np.asarray(ns) < 5)
    with pytest.raises(AssertionError,
                       match="represents 5 globally but fails a local test"):
        regcheck.regularity_scan(MGonalForm(3, (1, 1, 1)), 20)


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
