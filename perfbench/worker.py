"""One workload in one fresh process, or one set-up probe.

    python3 perfbench/worker.py --setup-probe
    python3 perfbench/worker.py --workload census --seed 1 --seconds 30 --trace 0

`run.py` starts this with `src` on PYTHONPATH and one thread per native
library.  The op loop is a closed loop with one caller; it stops once the
ops' own time, scaled to the reference speed (see `speed_kernel`), reaches
--seconds, when the workload's input stream ends, or after --max-ops ops
(`run.py` pins a traced run to the op count of the untraced one this way).
Input generation between ops is not counted.  Caches start empty: nothing
is warmed before the first op.  Checks run after the loop and outside its
clock.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
from time import perf_counter

GOLDEN = ("table1.json", "psi48.json", "ineq_base.json", "theorem.json")


# The machine's speed drifts by a third within minutes on a shared host, and
# every op slows with it.  A fixed pure-Python kernel timed between ops (at
# least every CAL_EVERY seconds of op time) measures that speed, and each op
# time is scaled by REF_KERNEL_S / (mean kernel time just before and just
# after the op): op times are reported at the reference speed at which the
# kernel takes REF_KERNEL_S.  The loop stops on scaled time, so a run does
# the same ops on a slow or a fast stretch.
# Numpy FFTs on arrays of a few hundred thousand entries follow the memory
# system as much as the interpreter, and their speed drifts apart from the
# pure-Python kernel's: timing six fixed cold local queries (p = 3, depth 5)
# against the kernels 456 times in a row, their time over the Python
# kernel's spread 0.134 (interquartile range over median) and over an FFT
# kernel's 0.06, while cache hits spread 0.095 over the Python kernel and
# 0.178 over the FFT kernel.  So workloads in `workloads.FFT_SCALED` also time `fft_kernel`,
# and their ops that build residue arrays are scaled by it to the speed at
# which it takes REF_FFT_S: 2.24 times REF_KERNEL_S, the median ratio of the
# two kernels over 300 interleaved pairs on a 2-core Xeon VM.
CAL_EVERY = 0.25
REF_KERNEL_S = 0.005
REF_FFT_S = 0.0112
MAX_RAW_FACTOR = 1.25  # stop anyway after this multiple of --seconds of raw time


def speed_kernel() -> float:
    """Seconds for a fixed mix of integer arithmetic and dict updates."""
    start = perf_counter()
    table = {}
    acc = 0
    for i in range(30000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc += k * k
    return perf_counter() - start


def fft_kernel() -> float:
    """Seconds for one cyclic convolution of two 0/1 arrays of 3^11 entries
    through numpy FFTs, the way the local engine convolves the residue
    arrays of its deepest decided queries in local-queries."""
    import numpy as np  # not at module level: set-up probes must import it

    start = perf_counter()
    n = 3 ** 11
    ind = np.zeros(n)
    ind[np.arange(n, dtype=np.int64) ** 2 % n] = 1.0
    raw = np.fft.irfft(np.fft.rfft(ind) * np.fft.rfft(ind), n=n)
    (np.rint(raw) > 0.5).astype(np.float64)
    return perf_counter() - start


def scale_to_reference(raw, cal, use_fft=None):
    """Op times at reference speed.  cal holds (ops done before, Python
    kernel s, FFT kernel s or None); op j is scaled by the FFT kernel when
    use_fft[j] is true, else by the Python kernel."""
    out, ci = [], 0
    for j, took in enumerate(raw):
        while ci + 1 < len(cal) and cal[ci + 1][0] <= j:
            ci += 1
        k, ref = (2, REF_FFT_S) if use_fft and use_fft[j] else (1, REF_KERNEL_S)
        after = cal[ci + 1][k] if ci + 1 < len(cal) else cal[ci][k]
        out.append(took * ref * 2 / (cal[ci][k] + after))
    return out


def setup_probe() -> float:
    """Seconds to import every mgonal layer and load the golden data, at the
    reference speed of `speed_kernel` (timed before and after)."""
    before = speed_kernel()
    start = perf_counter()
    import mgonal.cli  # noqa: F401  (imports every layer)
    from importlib import resources

    data = resources.files("mgonal").joinpath("data")
    for name in GOLDEN:
        json.loads(data.joinpath(name).read_text())
    took = perf_counter() - start
    return took * REF_KERNEL_S * 2 / (before + speed_kernel())


_END = object()


def run_loop(workload, seed, seconds, max_ops, tracer):
    import workloads as wl

    stream, run, _ = wl.WORKLOADS[workload]
    outcomes, raw = [], []
    fft = workload in wl.FFT_SCALED

    def calibrate():
        cal.append((len(raw), speed_kernel(), fft_kernel() if fft else None))

    cal = []
    calibrate()
    busy = scaled = since = 0.0
    inputs = stream(seed)
    while (scaled < seconds and busy < MAX_RAW_FACTOR * seconds
           and len(raw) < max_ops):
        item = next(inputs, _END)
        if item is _END:
            break
        if tracer is not None:
            tracer.begin_op(len(raw), wl.op_name(workload, item))
        start = perf_counter()
        try:
            out = run(item)
        except Exception as exc:  # op boundary: record and go on
            out = wl.OpError(type(exc).__name__, str(exc)[:200])
        took = perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        busy += took
        scaled += took * REF_KERNEL_S / cal[-1][1]
        since += took
        outcomes.append(out)
        raw.append(took)
        if since >= CAL_EVERY:
            calibrate()
            since = 0.0
    calibrate()
    return outcomes, raw, cal


def layer_metrics(tracer, workload, items, outcomes, raw):
    """Per-layer numbers of a traced run, in unscaled wall time (see
    perfbench/README.md).  Counts and summed times are per op, so they
    compare across runs that complete different numbers of ops."""
    import workloads as wl

    ops = len(raw)
    calls = {k: v / ops for k, v in tracer.calls.items()}
    total = {k: v / ops for k, v in tracer.total.items()}
    self_s = {k: v / ops for k, v in tracer.self_s.items()}
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    n_loc = tracer.calls["localrep.locally_represented"]
    t_loc = tracer.total["localrep.locally_represented"]
    t_set = tracer.total["regcheck.represented_set"]

    # First-sight vs repeat calls to represents_over_zp made directly by an
    # op, classified by the benchmark's own fingerprint of the query.
    first_us, repeat_us = [], []
    if workload == "local-queries":
        flags = wl.first_sight(items)
        for op_id, took in tracer.depth1("localrep.represents_over_zp"):
            (first_us if flags[op_id] else repeat_us).append(took * 1e6)
    first_tail = wl.percentile_tail([u / 1e3 for u in first_us])

    op_total = sum(raw)
    shares = {f"self_share.{mod}": (100.0 * secs / op_total if op_total else 0.0, "%")
              for mod, secs in tracer.module_self_seconds().items()}
    out = {
        "regcheck.candidate_scan.s": (total["regcheck.candidate_scan"], "s/op"),
        "regcheck.regularity_scan.calls": (calls["regcheck.regularity_scan"], "count/op"),
        "regcheck.regularity_scan.ms_p50": (
            med(tracer.durations("regcheck.regularity_scan")) * 1e3, "ms"),
        "regcheck.n_scanned": (
            tracer.edges.get(("regcheck.regularity_scan",
                              "localrep.locally_represented"), 0) / ops, "count/op"),
        "regcheck.represented_set.s": (total["regcheck.represented_set"], "s/op"),
        "regcheck.local_to_global": (t_loc / t_set if t_set else 0.0, "x"),
        "localrep.locally_represented.calls": (
            calls["localrep.locally_represented"], "count/op"),
        "localrep.locally_represented.us_mean": (t_loc / n_loc * 1e6 if n_loc else 0.0, "us"),
        "localrep.shifted_represents_over_zp.calls": (
            calls["localrep.shifted_represents_over_zp"], "count/op"),
        "localrep.shifted_represents_over_zp.s": (
            total["localrep.shifted_represents_over_zp"], "s/op"),
        "polygonal.form_to_shifted.calls": (calls["polygonal.form_to_shifted"], "count/op"),
        "polygonal.form_to_shifted.s": (total["polygonal.form_to_shifted"], "s/op"),
        "polygonal.shifted_target.calls": (calls["polygonal.shifted_target"], "count/op"),
        "polygonal.shifted_target.s": (total["polygonal.shifted_target"], "s/op"),
        "numth.prime_divisors.calls": (calls["numth.prime_divisors"], "count/op"),
        "numth.prime_divisors.s": (total["numth.prime_divisors"], "s/op"),
        "localrep.represents_over_zp.calls": (calls["localrep.represents_over_zp"], "count/op"),
        "localrep.represents_over_zp.first_us_p50": (med(first_us), "us"),
        "localrep.represents_over_zp.first_ms_tail": (first_tail[1], "ms"),
        "localrep.represents_over_zp.repeat_us_p50": (med(repeat_us), "us"),
        "localrep.modulus_too_large": (
            sum(1 for o in outcomes if wl.failed_with(o, "ModulusTooLarge")) / ops,
            "count/op"),
        "density.eta.calls": (calls["density.eta"], "count/op"),
        "density.eta.s": (total["density.eta"], "s/op"),
        "density.psi.calls": (calls["density.psi"], "count/op"),
        "prodineq.verify_inequality.calls": (calls["prodineq.verify_inequality"], "count/op"),
        "prodineq.verify_inequality.s": (total["prodineq.verify_inequality"], "s/op"),
        "prodineq.certify_all_t.s": (total["prodineq.certify_all_t"], "s/op"),
        "pipeline.replay_case.ms_p50": (
            med(tracer.durations("pipeline.replay_case")) * 1e3, "ms"),
        "watson.stabilize.calls": (calls["watson.stabilize"], "count/op"),
        "watson.stabilize.us_p50": (med(tracer.durations("watson.stabilize")) * 1e6, "us"),
        "watson.coset_watson_step.calls": (calls["watson.coset_watson_step"], "count/op"),
        "cli.main.self_ms": (self_s["cli.main"] * 1e3, "ms/op"),
    }
    out.update(shares)
    notes = {"localrep.represents_over_zp.first_ms_tail":
             {"percentile": first_tail[0], "beyond": first_tail[2],
              "samples": len(first_us)}}
    return out, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=10 ** 9)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe()}))
        return 0

    import numpy
    import workloads as wl
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    outcomes, raw, cal = run_loop(args.workload, args.seed, args.seconds,
                                  args.max_ops, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The loop keeps no inputs, so that peak_rss_mb is the package's memory
    # and not the benchmark's; the checks get them again from the seed.
    items = list(itertools.islice(wl.WORKLOADS[args.workload][0](args.seed),
                                  len(outcomes)))
    if tracer is not None:
        tracer.uninstall()

    check_start = perf_counter()
    bad, correct, notes, props = wl.WORKLOADS[args.workload][2](
        items, outcomes, args.seed)
    check_s = perf_counter() - check_start
    lat = scale_to_reference(raw, cal, wl.fft_scaled(args.workload, items))
    tail = wl.percentile_tail([x * 1e3 for x in lat])
    kernel = [c[1] for c in cal]
    fft_ms = [c[2] * 1e3 for c in cal if c[2] is not None]
    result = {
        "workload": args.workload,
        "attempted": len(lat),
        "failed": len(bad),
        # ops that raised a refusal the check accepts (see workloads.py)
        "refused": sum(1 for i, o in enumerate(outcomes)
                       if isinstance(o, wl.OpError) and i not in bad),
        "correct": bool(correct),
        "notes": notes[:20],
        "lat_s": lat,
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_tail": tail[1],
        "tail": {"percentile": tail[0], "beyond": tail[2], "samples": len(lat)},
        "peak_rss_mb": peak_rss_mb,
        "raw": {"busy_s": sum(raw), "ops_per_s": len(raw) / sum(raw),
                "op_ms_p50": statistics.median(raw) * 1e3, "check_s": check_s},
        "speed": {"kernel_ms_median": statistics.median(kernel) * 1e3,
                  "kernel_ms_min": min(kernel) * 1e3,
                  "kernel_ms_max": max(kernel) * 1e3,
                  "samples": len(kernel), "reference_ms": REF_KERNEL_S * 1e3,
                  **({"fft_ms_median": statistics.median(fft_ms),
                      "fft_reference_ms": REF_FFT_S * 1e3} if fft_ms else {})},
        "properties": props,
        "env": {"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": sys.version.split()[0],
                "numpy": numpy.__version__},
    }
    if tracer is not None:
        result["layers"], result["layer_notes"] = layer_metrics(
            tracer, args.workload, items, outcomes, raw)
        if args.trace_out:
            tracer.write(args.trace_out, workload=args.workload, seed=args.seed)
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
