"""Command line frontend.

Deterministic, batch-oriented: every subcommand computes exact values and
emits text (default), canonical JSON (sorted keys, compact separators, one
trailing newline -- re-encoding the parsed output reproduces the bytes), or
CSV for the tabular commands.  `--verify` diffs the computed values against
the golden files shipped under data/ and exits 1 on any mismatch; usage
errors exit 2 (argparse's convention), and so do inputs the computation
rejects (`ValueError`, `ModulusTooLarge`), with a one-line message.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import resources
from typing import List, Optional, Sequence

from . import __version__
from .density import eta, psi, psi_values_desc
from .localrep import (ModulusTooLarge, represents_over_zp,
                       shifted_represents_over_zp)
from .numth import is_prime
from .pipeline import CASES, ReplayMismatch, replay_all, replay_case
from .polygonal import MGonalForm, ShiftedForm
from .prodineq import CLAUSES, certify_all_t, verify_induction_step, verify_inequality
from .regcheck import candidate_note, regularity_scan
from .watson import coset_watson_step, stabilize

# Largest prime a --p option takes: `numth.is_prime` is trial division up to
# sqrt(p), which takes minutes on primes near 10^18.  The local engine
# itself has no limit on p.
_P_LIMIT = 2 ** 22


class VerificationFailure(Exception):
    """Computed values disagree with a golden file."""


def _golden(name: str):
    path = resources.files("mgonal").joinpath(f"data/{name}")
    return json.loads(path.read_text())


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, payload: dict, text_lines: Sequence[str], rows=None, header=None):
    """Write one result in the requested format.

    JSON embeds the version as a field; text and CSV close with a comment
    line carrying it, keeping the value lines clean for pipes.
    """
    fmt = args.format
    if fmt == "json":
        body = dict(payload)
        body["tool"] = "mgonal"
        body["version"] = __version__
        body["command"] = args.command
        sys.stdout.write(_canonical(body))
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
        print(f"# mgonal {__version__}")
        return
    for line in text_lines:
        print(line)
    print(f"# mgonal {__version__}")


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _prime(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        p = 0
    if p > _P_LIMIT:  # checked before the primality test
        raise argparse.ArgumentTypeError(
            f"primes above 2^22 = {_P_LIMIT} are not supported, got {text!r}")
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"expected a prime, got {text!r}")
    return p


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_psi(args) -> int:
    if args.p is not None:
        value = str(psi(args.p, args.n))
        payload = {"p": args.p, "n": args.n, "psi": value}
        _emit(args, payload, [value],
              rows=[[args.p, args.n, value]], header=["p", "n", "psi"])
        return 0
    values = psi_values_desc(args.n, args.count)
    strs = [str(v) for v in values]
    if args.verify:
        golden = _golden("psi48.json")
        got = [str(v) for v in psi_values_desc(golden["n"], golden["count"])]
        want = [str(x) for x in golden["values"]]
        if got != want:
            raise VerificationFailure(
                f"psi top-{golden['count']} at n={golden['n']}: computed {got}, golden {want}"
            )
    payload = {"n": args.n, "count": args.count, "values": strs}
    _emit(args, payload, [", ".join(strs)],
          rows=[[args.n, i + 1, s] for i, s in enumerate(strs)],
          header=["n", "rank", "psi"])
    return 0


def _cmd_eta(args) -> int:
    value = eta(args.n, args.s)
    payload = {"n": args.n, "s": args.s, "eta": value}
    _emit(args, payload, [str(value)],
          rows=[[args.n, args.s, value]], header=["n", "s", "eta"])
    return 0


def _cmd_table1(args) -> int:
    golden = _golden("table1.json")
    entries = [(n, s) for n, s, _ in golden["entries"]]
    computed = [[n, s, eta(n, s)] for n, s in entries]
    if args.verify:
        mismatches = [
            (got, want)
            for got, want in zip(computed, golden["entries"])
            if got != list(want)
        ]
        if mismatches:
            lines = "; ".join(f"computed {g}, golden {w}" for g, w in mismatches)
            raise VerificationFailure(f"eta table mismatch: {lines}")
    payload = {"entries": computed}
    _emit(args, payload,
          [f"eta({n},{s}) = {e}" for n, s, e in computed],
          rows=computed, header=["n", "s", "eta"])
    return 0


def _cmd_ineq(args) -> int:
    spec = CLAUSES[args.clause]
    if args.t_max is not None:
        if args.t_max < spec.t0:
            raise ValueError(f"clause {args.clause}: --t-max {args.t_max} is below "
                             f"the threshold t0 = {spec.t0}")
        ts = range(spec.t0, args.t_max + 1)
    else:
        ts = [args.t if args.t is not None else spec.t0]
    rows = [[args.clause, t, *verify_inequality(args.clause, t)] for t in ts]
    lines = [f"clause {c} at t={t}: lhs = {lhs}, rhs = {rhs}, holds = {holds}"
             for c, t, lhs, rhs, holds in rows]
    if args.verify:
        # this clause's golden row only; one command per clause checks
        # the whole file
        idx = args.clause
        (rec,) = [r for r in _golden("ineq_base.json")["base_cases"]
                  if r["clause"] == idx]
        t0 = rec["t0"]
        lhs, rhs, holds = verify_inequality(idx, t0)
        diffs = []
        if t0 != spec.t0 or lhs != rec["lhs"] or rhs != rec["rhs"] or not holds:
            diffs.append(
                f"clause {idx}: computed (t0={spec.t0}, lhs={lhs}, "
                f"rhs={rhs}, holds={holds}), golden {rec}"
            )
        if not verify_induction_step(idx, t0 + 25):
            diffs.append(f"clause {idx}: induction ratio check failed")
        _, _, certified = certify_all_t(idx)
        if not certified:
            diffs.append(f"clause {idx}: all-t certificate failed")
        if diffs:
            raise VerificationFailure("\n".join(diffs))
    payload = {"clause": args.clause,
               "results": [{"t": r[1], "lhs": r[2], "rhs": r[3], "holds": r[4]}
                           for r in rows]}
    _emit(args, payload, lines, rows=rows, header=["clause", "t", "lhs", "rhs", "holds"])
    return 0


def _shifted_from_args(args) -> ShiftedForm:
    if args.shifts is not None:
        shifts = args.shifts
    else:
        shifts = (1 if args.conductor > 1 else 0,) * len(args.coeffs)
    return ShiftedForm(conductor=args.conductor, coeffs=args.coeffs, shifts=shifts)


def _form_lines(g: ShiftedForm) -> List[str]:
    return [f"conductor {g.conductor}, coeffs {list(g.coeffs)}, shifts {list(g.shifts)}"]


def _cmd_watson(args) -> int:
    g = _shifted_from_args(args)
    log: list = []
    stepped = coset_watson_step(g, args.p, log=log)
    step = log[-1]
    payload = {
        "input": {"conductor": g.conductor, "coeffs": list(g.coeffs),
                  "shifts": list(g.shifts)},
        "p": step.p, "q": step.q, "s": step.s, "j": step.j,
        "output": {"conductor": stepped.conductor, "coeffs": list(stepped.coeffs),
                   "shifts": list(stepped.shifts)},
    }
    lines = (
        [f"input:  {line}" for line in _form_lines(g)]
        + [f"step:   p={step.p}, q={step.q}, scale s={step.s}, order j={step.j}"]
        + [f"output: {line}" for line in _form_lines(stepped)]
    )
    _emit(args, payload, lines)
    return 0


def _cmd_stabilize(args) -> int:
    g = _shifted_from_args(args)
    log: list = []
    result = stabilize(g, log=log)
    payload = {
        "input": {"conductor": g.conductor, "coeffs": list(g.coeffs),
                  "shifts": list(g.shifts)},
        "steps": [{"p": w.p, "q": w.q, "s": w.s, "j": w.j} for w in log],
        "output": {"conductor": result.conductor, "coeffs": list(result.coeffs),
                   "shifts": list(result.shifts)},
    }
    lines = (
        [f"input:  {line}" for line in _form_lines(g)]
        + [f"step:   p={w.p}, q={w.q}, scale s={w.s}, order j={w.j}" for w in log]
        + [f"output: {line}" for line in _form_lines(result)]
    )
    _emit(args, payload, lines)
    return 0


def _cmd_localrep(args) -> int:
    if args.conductor is not None:
        g = _shifted_from_args(args)
        rep = shifted_represents_over_zp(g, args.n, args.p)
        payload = {"shifted": True, "conductor": g.conductor,
                   "coeffs": list(g.coeffs), "shifts": list(g.shifts),
                   "n": args.n, "p": args.p, "represented": bool(rep)}
        _emit(args, payload, [f"{args.n} over Z_{args.p}: {bool(rep)}"])
        return 0
    verdict = represents_over_zp(args.coeffs, args.n, args.p, want_witness=True)
    payload = {"shifted": False, "coeffs": list(args.coeffs), "n": args.n,
               "p": args.p, "represented": verdict.represented,
               "modulus_exponent": verdict.modulus_exponent,
               "witness": list(verdict.witness) if verdict.witness else None}
    lines = [f"{args.n} over Z_{args.p}: {verdict.represented}"]
    if verdict.witness:
        lines.append(
            f"witness {list(verdict.witness)} mod {args.p}^{verdict.modulus_exponent}"
        )
    _emit(args, payload, lines)
    return 0


def _cmd_regcheck(args) -> int:
    form = MGonalForm(args.m, tuple(sorted(args.coeffs)))
    report = regularity_scan(form, args.bound)
    body = report.as_dict()
    note = candidate_note(args.m)
    if note is not None:
        body["note"] = note
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_canonical(body))
    lines = [
        f"form {form}: {report.verdict}",
        f"locally represented on [0, {args.bound}]: {report.locally_count}",
        f"counterexamples: {list(report.counterexamples)}",
    ]
    if note is not None:
        lines.append(note)
    if args.out:
        lines.append(f"report written to {args.out}")
    _emit(args, body, lines)
    return 0


def _transcript(state) -> List[str]:
    case = CASES[state.case_id]
    lines = [f"case {state.case_id}: {case.description}"]
    for entry in state.log:
        step, lemma, inputs, value = (
            entry["step"], entry["lemma"], entry["inputs"], entry["value"],
        )
        detail = ", ".join(f"{k}={v}" for k, v in inputs.items())
        if step == "hypothesis":
            lines.append(f"  standing hypothesis: c >= {value}")
        elif step == "t":
            lines.append(f"  t <= {value}   [{lemma}: {detail}]")
        elif step == "k":
            lines.append(f"  k <= p1^2 * {value}   [{lemma}: {detail}]")
        elif step in ("a1", "a2"):
            lines.append(f"  {step} <= {value}   [{lemma}: {detail}]")
        elif step.startswith("c["):
            lines.append(f"  c <= {value} for {step[2:-1]}   [{lemma}: {detail}]")
        elif step.startswith("m-raw"):
            lines.append(f"  m <= {value} before congruence refinement   [{detail}]")
        else:
            lines.append(f"  m <= {value} in class {step[2:-1]}")
    summary = ", ".join(
        f"m <= {state.m_bounds[cls.label]} ({cls.label})" for cls in case.classes
    )
    # single-class cases end with the bare bound
    if len(case.classes) == 1:
        (cls,) = case.classes
        summary = f"m <= {state.m_bounds[cls.label]}"
    lines.append(f"result: {summary}")
    return lines


def _cmd_theorem(args) -> int:
    golden = _golden("theorem.json") if args.verify else None
    if args.case is not None:
        expected = golden["cases"][str(args.case)] if golden else None
        state = replay_case(CASES[args.case], expected)
        states = {args.case: state}
    else:
        states = replay_all(golden["cases"] if golden else None)
    if args.verify:
        bounds = {}
        for st in states.values():
            bounds.update(st.m_bounds)
        want = {
            k: v for k, v in golden["bounds"].items() if k in bounds
        }
        if bounds != want:
            raise VerificationFailure(
                f"theorem bounds: computed {bounds}, golden {want}"
            )
    payload = {"cases": {str(cid): st.as_dict() for cid, st in states.items()}}
    lines: List[str] = []
    for cid in sorted(states):
        lines.extend(_transcript(states[cid]))
    _emit(args, payload, lines)
    return 0


def _cmd_examples(args) -> int:
    from .regcheck import eureka_check, first_sense_examples

    report = first_sense_examples()
    if args.eureka is not None:
        report["eureka"] = {"bound": args.eureka, "universal": eureka_check(args.eureka)}
    quat, tern = report["quaternary"], report["ternary"]
    lines = [
        f"{quat['form']} takes {quat['target']} at {quat['z3_witness']} (Z_3 point)",
        f"  and at {quat['zp_witness']} (Z_p point for every p != 3)",
        f"{tern['form']} at {tern['target']}: locally represented = "
        f"{tern['locally_represented']}, globally represented = "
        f"{tern['globally_represented']}",
    ]
    if "eureka" in report:
        lines.append(
            f"three triangular numbers cover 0..{report['eureka']['bound']}: "
            f"{report['eureka']['universal']}"
        )
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgonal",
        description="exact computations around regular ternary m-gonal forms",
    )
    parser.add_argument("--version", action="version", version=f"mgonal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tabular=False, verify=False):
        formats = ("text", "json", "csv") if tabular else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
        if verify:
            p.add_argument("--verify", action="store_true",
                           help="diff against the in-repo golden values; exit 1 on mismatch")

    p = sub.add_parser("psi", help="local exception-count bound psi_p(n)")
    p.add_argument("--n", type=int, required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--p", type=_prime)
    which.add_argument("--count", type=int, help="emit the largest `count` psi values")
    common(p, tabular=True, verify=True)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("eta", help="guaranteed represented count eta(n, s)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    common(p, tabular=True)
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("table1", help="the full eta table used by the derivation")
    common(p, tabular=True, verify=True)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("ineq", help="prime-product inequality clauses")
    p.add_argument("--clause", type=int, choices=sorted(CLAUSES), required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--t", type=int)
    which.add_argument("--t-max", type=int, dest="t_max")
    common(p, tabular=True, verify=True)
    p.set_defaults(func=_cmd_ineq)

    def shifted_args(p, need_p=False):
        p.add_argument("--conductor", type=int, required=True)
        p.add_argument("--coeffs", type=_parse_ints, required=True)
        p.add_argument("--shifts", type=_parse_ints)
        if need_p:
            p.add_argument("--p", type=_prime, required=True)

    p = sub.add_parser("watson", help="one conductor-preserving descent step")
    shifted_args(p, need_p=True)
    common(p)
    p.set_defaults(func=_cmd_watson)

    p = sub.add_parser("stabilize", help="descend until stable at every coefficient prime")
    shifted_args(p)
    common(p)
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("localrep", help="exact representation test over Z_p")
    p.add_argument("--coeffs", type=_parse_ints, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--conductor", type=int)
    p.add_argument("--shifts", type=_parse_ints)
    common(p)
    p.set_defaults(func=_cmd_localrep)

    p = sub.add_parser("regcheck", help="local-vs-global regularity scan")
    p.add_argument("action", choices=("scan",))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coeffs", type=_parse_ints, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=_cmd_regcheck)

    p = sub.add_parser("theorem", help="replay the four-case bound derivation")
    p.add_argument("--case", type=int, choices=(1, 2, 3, 4))
    common(p, verify=True)
    p.set_defaults(func=_cmd_theorem)

    p = sub.add_parser("examples", help="the motivating local/global examples")
    p.add_argument("--eureka", type=int,
                   help="also check universality of three triangular numbers up to N")
    common(p)
    p.set_defaults(func=_cmd_examples)

    return parser


_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (VerificationFailure, ReplayMismatch) as exc:
        print(f"verification failed:\n{exc}", file=sys.stderr)
        return 1
    except (ValueError, ModulusTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
