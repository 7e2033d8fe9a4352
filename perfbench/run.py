"""mgonal benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src`.  Each
run starts fresh single-threaded processes: SETUP_PROBES that only import
the package and load its golden data (their median is `setup_s`), then the
workload process.  With --trace 1 the workload runs twice on the same
seed: untraced, then traced for exactly the ops the untraced run did.  The
per-layer metrics come from the traced process and the tracing overhead
from comparing the two.  Human-readable
lines start with '#'; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from worker import MAX_RAW_FACTOR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 9
WORKLOADS = ("census", "local-queries", "verify")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mgonal" / "__init__.py").is_file():
        print(f"no mgonal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup = [run_worker(["--setup-probe"], 60)["setup_s"]
             for _ in range(SETUP_PROBES)]
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain = run_worker(base + ["--seconds", str(args.seconds), "--trace", "0"],
                       MAX_RAW_FACTOR * args.seconds + 40)
    traced = None
    if args.trace:
        # A fixed amount of work: the untraced run's ops, however long
        # tracing makes them take.
        trace_file = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.json"
        traced = run_worker(
            base + ["--seconds", "1e9", "--max-ops", str(plain["attempted"]),
                    "--trace", "1", "--trace-out", str(trace_file)],
            3 * plain["raw"]["busy_s"] + 2 * plain["raw"]["check_s"] + 40)
        if traced["attempted"] != plain["attempted"]:
            raise RuntimeError(f"traced run did {traced['attempted']} ops, "
                               f"untraced {plain['attempted']}")

    setup_s = statistics.median(setup)
    fail_share = (plain["failed"] + plain["refused"]) / plain["attempted"]
    env = dict(plain["env"], cpu=cpu_model(), platform=platform.platform(),
               seed=args.seed, seconds=args.seconds, workload=args.workload,
               setup_probes=SETUP_PROBES)
    e2e = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (plain["ops_per_s"], "1/s"),
        "op_ms_p50": (plain["op_ms_p50"], "ms"),
        "op_ms_tail": (plain["op_ms_tail"], "ms"),
        "ok_share": (1.0 - fail_share, "share"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
    }
    tail = plain["tail"]
    say = lambda text: print("# " + text)  # noqa: E731
    say(f"mgonal benchmark  workload={args.workload}  seed={args.seed}  "
        f"seconds={args.seconds:g}  trace={args.trace}")
    say("env " + json.dumps(env, sort_keys=True))
    say("op times are scaled to the reference speed; unscaled: "
        + json.dumps(plain["raw"], sort_keys=True))
    say("speed kernel " + json.dumps(plain["speed"], sort_keys=True))
    for name, (value, unit) in e2e.items():
        extra = ""
        if name == "op_ms_tail":
            extra = (f"  (p{tail['percentile']:g}: {tail['beyond']} of "
                     f"{tail['samples']} ops beyond it)")
        if name == "setup_s":
            extra = f"  (median of {SETUP_PROBES} fresh processes)"
        say(f"{name:<12} {value:14.6f} {unit}{extra}")
    say(f"{'fail_share':<12} {fail_share:14.6f} share  ({plain['failed']} "
        f"failed, {plain['refused']} refused by a named error, of "
        f"{plain['attempted']} ops)")
    say("properties " + json.dumps(plain["properties"], sort_keys=True))
    for note in plain["notes"]:
        say("check: " + note)

    result = plain
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    if traced is not None:
        result = traced
        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = (
            100.0 * (sum(traced["lat_s"]) / sum(plain["lat_s"]) - 1.0), "%")
        layers["trace.op_ms_p50_delta_pct"] = (
            100.0 * (traced["op_ms_p50"] / plain["op_ms_p50"] - 1.0), "%")
        layers["trace.ops_per_s_delta_pct"] = (
            100.0 * (traced["ops_per_s"] / plain["ops_per_s"] - 1.0), "%")
        say(f"traced run: {traced['attempted']} ops (untraced: "
            f"{plain['attempted']}), "
            f"{traced['ops_per_s']:.4f} ops/s, p50 {traced['op_ms_p50']:.4f} ms; "
            f"spans written to {trace_file.relative_to(ROOT)}")
        for name, (value, unit) in layers.items():
            say(f"{name:<46} {value:16.6f} {unit}" if isinstance(value, float)
                else f"{name:<46} {value:9d} {unit}")
        for name, note in traced["layer_notes"].items():
            say(f"{name}: {json.dumps(note, sort_keys=True)}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}

    print(json.dumps({
        "correct": bool(plain["correct"] and result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
