"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def first(stream, n):
    return [item for item, _ in zip(stream, range(n))]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_runs_tiny_with_default_seed(workload):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "# fail_share" in proc.stdout


@pytest.fixture(scope="module")
def traced_run():
    proc = bench("--workload", "local-queries", "--seed", "1", "--seconds", "2",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_reports_every_per_layer_metric(traced_run):
    stdout, result = traced_run
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert "trace.overhead_pct" in stdout


def test_traced_and_untraced_runs_do_the_same_ops(traced_run):
    stdout, result = traced_run
    (line,) = [x for x in stdout.splitlines() if x.startswith("# traced run:")]
    counts = re.match(r"# traced run: (\d+) ops \(untraced: (\d+)\)", line)
    assert counts and counts[1] == counts[2] == str(result["attempted"])
    assert result["attempted"] > 40
    assert result["metrics"]["localrep.represents_over_zp.calls"]["value"] > 0


def _local_outcomes(n):
    items = first(wl.local_stream(1), n)
    outcomes = []
    for q in items:
        try:
            outcomes.append(wl.local_run(q))
        except Exception as exc:  # same boundary as the op loop
            outcomes.append(wl.OpError(type(exc).__name__, str(exc)))
    return items, outcomes


def test_injected_wrong_verdict_is_counted_as_failed():
    items, outcomes = _local_outcomes(96)
    bad, correct, _, _ = wl.local_check(items, outcomes, 1)
    assert correct and not bad
    assert any(wl.failed_with(o, "ModulusTooLarge") for o in outcomes)
    target = next(i for i, (q, o) in enumerate(zip(items, outcomes))
                  if isinstance(o, bool) and wl._search_size(q) <= wl.GRID_LIMIT)
    wrong = list(outcomes)
    wrong[target] = not wrong[target]
    bad2, correct2, notes, _ = wl.local_check(items, wrong, 1)
    assert not correct2 and notes
    assert bad2 == {target}


def test_modulus_too_large_is_a_refusal_only_on_deep_queries():
    items, outcomes = _local_outcomes(96)
    refused = [i for i, o in enumerate(outcomes)
               if wl.failed_with(o, "ModulusTooLarge")]
    assert refused and all(wl.needs_large_array(items[i]) for i in refused)
    shallow = next(i for i, q in enumerate(items)
                   if not wl.needs_large_array(q))
    wrong = list(outcomes)
    wrong[shallow] = wl.OpError("ModulusTooLarge", "injected")
    bad, correct, notes, _ = wl.local_check(items, wrong, 1)
    assert bad == {shallow} and not correct and notes


def test_census_gates_catch_a_wrong_survivor_list():
    items = [3, 8]
    outcomes = [wl.census_run(3), wl.census_run(8)]
    bad, correct, _, props = wl.census_check(items, outcomes, 1, sample_ops=0)
    assert correct and not bad
    assert props["first_counterexample_n"]["max"] >= 9
    broken = [tuple(t for t in outcomes[0] if t != (1, 1, 1)), outcomes[1]]
    bad, correct, notes, _ = wl.census_check(items, broken, 1, sample_ops=0)
    assert not correct and 0 in bad
    assert any("Eureka" in n for n in notes)


def test_census_counts_a_raised_op_as_incorrect():
    gate3, gate8 = wl.census_run(3), wl.census_run(8)
    crash = wl.OpError("TypeError", "boom")
    for outcomes, failed in (([crash, gate8, gate8], 0),
                             ([gate3, gate8, crash], 2)):
        bad, correct, notes, _ = wl.census_check([3, 8, 5], outcomes, 1,
                                                 sample_ops=0)
        assert not correct and bad == {failed}
        assert any("TypeError" in n for n in notes)


def test_verify_counts_nonzero_exit_and_drifting_output():
    argv = wl.verify_pass_argv(1)
    good = wl.verify_run(argv)
    assert not any(good[0])
    exit1 = ((1,) + good[0][1:], good[1])
    drift = (good[0], good[1][:-1] + ("other\n",))
    bad, correct, _, _ = wl.verify_check([argv] * 3, [good, exit1, drift], 1)
    assert bad == {1, 2} and not correct


def test_streams_are_seeded():
    for stream in (wl.census_stream, wl.local_stream, wl.verify_stream):
        assert first(stream(1), 50) == first(stream(1), 50)
    assert first(wl.local_stream(1), 50) != first(wl.local_stream(2), 50)
    assert first(wl.census_stream(1), 20) != first(wl.census_stream(2), 20)
    assert first(wl.census_stream(5), 2) == [3, 8]
    census = list(wl.census_stream(1))
    assert len(census) == len(set(census))
    assert set(census) == {3} | set(range(5, wl.CENSUS_M_MAX + 1))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert wl.percentile_tail(range(1, 101)) == (90, 90, 10)
    assert wl.percentile_tail(range(1, 1001)) == (99, 990, 10)
    q, value, beyond = wl.percentile_tail(range(1, 41))
    assert (q, value, beyond) == (75, 30, 10)


def test_tracer_patches_callers_and_restores_them():
    from mgonal import localrep, regcheck
    from mgonal.polygonal import MGonalForm

    original = regcheck.locally_represented
    tracer = Tracer()
    tracer.install()
    try:
        assert regcheck.locally_represented is not original
        tracer.begin_op(0, "probe")
        regcheck.regularity_scan(MGonalForm(5, (1, 1, 2)), 30)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert regcheck.locally_represented is original
    assert localrep.locally_represented is original
    assert tracer.calls["localrep.locally_represented"] == 31
    assert tracer.edges[("regcheck.regularity_scan",
                         "localrep.locally_represented")] == 31
    assert tracer.calls["polygonal.form_to_shifted"] == 31
    (op,) = [s for s in tracer.spans if s[7] == 0]
    scan = [s for s in tracer.spans if s[3] == "regcheck.regularity_scan"]
    assert len(scan) == 1 and scan[0][1] == op[0]
    assert 0 <= scan[0][6] <= scan[0][5] - scan[0][4]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
