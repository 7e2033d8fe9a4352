"""Command line frontend.

Deterministic, batch-oriented: every subcommand computes exact values and
emits text (default), canonical JSON (sorted keys, compact separators, one
trailing newline -- re-encoding the parsed output reproduces the bytes), or
CSV for the tabular commands.  `--verify` diffs the computed values against
the golden files shipped under data/ and exits 1 on any mismatch; usage
errors exit 2 (argparse's convention), and so do inputs the computation
rejects (`ValueError`) and an `--out` file that cannot be opened, with a
one-line message; `regcheck scan` reports such a file before it scans.
Each option whose cost grows with its value has a stated limit, and
argument parsing refuses a value above it with a message naming it
(`_at_most`), before anything is computed.

A process builds only the parser of the command it runs: the subparser of
a top-level parser that has that command alone, built on first use and kept
for the process (`_command_parser`), so its prog, usage lines and errors
are the full parser's.  Help, version, a missing or unknown command and an
argument the command does not take fall to the full top-level parser, so
their output and exit codes are argparse's as ever.  The golden files are
read once, at import, from the data/ directory next to this file (so a
package imported from a zip archive finds none; the distribution installs
it as files), and parsed into a fresh object on every call.

At import the module loads no other module of the package, nor `csv` or
`importlib.resources`.  The parser of a command and its handler import the
layers they run (`--p` loads `numth`, `ineq` `prodineq`), so a process
compiles no other layer, and no command loads numpy: the `localrep`
witness search is a loop over Python integers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import TYPE_CHECKING, Collection, List, Optional, Sequence

from . import __version__

if TYPE_CHECKING:  # for the annotations; the handlers import it
    from .polygonal import ShiftedForm

# Largest prime a --p option takes: `numth.is_prime` is trial division up to
# sqrt(p), which takes minutes on primes near 10^18.  The local engine
# itself has no limit on p.
_P_LIMIT = 2 ** 22
# The largest value of each option whose cost grows with it (`_at_most`),
# so that every accepted input answers within about two seconds (2-core
# Xeon VM, Python 3.11).
# psi and eta evaluate psi_p at the primes p <= sqrt(n) and at `count` (or
# s) primes above: 0.3 s at n = 2^32 and count 10^4, 1.6 s at 10^5.
_N_LIMIT = 2 ** 32
_COUNT_LIMIT = 10 ** 4
# ineq multiplies out r_lower ... r_t: about 3,400 digits at t = 1000, and
# Python refuses to print an int of more than 4,300.
_T_LIMIT = 1000
# watson and stabilize factor the conductor, phi of it and each coefficient
# by trial division up to its square root (--conductor and --coeffs).
_DESCENT_LIMIT = 2 ** 32
# regcheck scan factors 2 c lcm(a_i), c = m - 2 or (m - 2) / 2, by trial
# division, which runs up to its second largest prime (--m and --coeffs);
# a scan and `examples --eureka` build bitsets of bound + 1 bits: at 2^21,
# at most 0.9 s and 85 MB per process on the forms measured, `examples
# --eureka` 0.9 s and 20 MB.
_SCAN_LIMIT = 2 ** 16
_BOUND_LIMIT = 2 ** 21

# The golden files' directory of this package, under whatever name it was
# imported, and the text of each file in it, read once.
_DATA = os.path.join(os.path.dirname(__file__), "data")


def _read(name: str) -> str:
    with open(os.path.join(_DATA, name), encoding="utf-8") as fh:
        return fh.read()


_GOLDEN_TEXT = {name: _read(name) for name in os.listdir(_DATA)
                if name.endswith(".json")}


class VerificationFailure(Exception):
    """Computed values disagree with a golden file."""


def _golden(name: str):
    """The golden file `name`, parsed into a fresh object on every call, so
    a caller may mutate what it gets."""
    return json.loads(_GOLDEN_TEXT[name])


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, payload: dict, text_lines: Sequence[str], rows=None, header=None):
    """Write one result in the requested format.

    JSON embeds the version as a field; text and CSV close with a comment
    line carrying it, keeping the value lines clean for pipes.
    """
    if args.format == "json":
        sys.stdout.write(_canonical({**payload, "tool": "mgonal",
                                     "version": __version__,
                                     "command": args.command}))
        return
    if args.format == "csv":
        import csv

        csv.writer(sys.stdout).writerows([header, *rows])
    else:
        for line in text_lines:
            print(line)
    print(f"# mgonal {__version__}")


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _at_most(parse, limit: int):
    """An argparse type: the value of `parse`, or of each integer it
    returns in a tuple, refused above `limit` with a message naming it.  It
    keeps the name of `parse`, which argparse's "invalid int value" reads."""
    def bounded(text: str):
        value = parse(text)
        if max(value if isinstance(value, tuple) else (value,)) > limit:
            raise argparse.ArgumentTypeError(
                f"values above {limit} are not supported, got {text!r}")
        return value
    bounded.__name__ = parse.__name__
    return bounded


def _prime(text: str) -> int:
    from .numth import is_prime

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
    from .density import psi, psi_values_desc

    if args.verify:
        golden = _golden("psi48.json")
        got = [str(v) for v in psi_values_desc(golden["n"], golden["count"])]
        want = [str(x) for x in golden["values"]]
        if got != want:
            raise VerificationFailure(
                f"psi top-{golden['count']} at n={golden['n']}: computed {got}, golden {want}"
            )
    if args.p is not None:
        value = str(psi(args.p, args.n))
        payload = {"p": args.p, "n": args.n, "psi": value}
        _emit(args, payload, [value],
              rows=[[args.p, args.n, value]], header=["p", "n", "psi"])
        return 0
    values = psi_values_desc(args.n, args.count)
    strs = [str(v) for v in values]
    payload = {"n": args.n, "count": args.count, "values": strs}
    _emit(args, payload, [", ".join(strs)],
          rows=[[args.n, i + 1, s] for i, s in enumerate(strs)],
          header=["n", "rank", "psi"])
    return 0


def _cmd_eta(args) -> int:
    from .density import eta

    value = eta(args.n, args.s)
    payload = {"n": args.n, "s": args.s, "eta": value}
    _emit(args, payload, [str(value)],
          rows=[[args.n, args.s, value]], header=["n", "s", "eta"])
    return 0


def _cmd_table1(args) -> int:
    from .density import eta

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
    from .prodineq import (CLAUSES, certify_all_t, verify_induction_step,
                           verify_inequality)

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
        # the printed rows already hold the golden t0 unless --t moved them
        row = next((r for r in rows if r[1] == t0), None)
        lhs, rhs, holds = row[2:] if row else verify_inequality(idx, t0)
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
    from .polygonal import ShiftedForm

    if args.shifts is not None:
        shifts = args.shifts
    else:
        shifts = (1 if args.conductor > 1 else 0,) * len(args.coeffs)
    return ShiftedForm(conductor=args.conductor, coeffs=args.coeffs, shifts=shifts)


def _form_dict(g: ShiftedForm) -> dict:
    return {"conductor": g.conductor, "coeffs": list(g.coeffs),
            "shifts": list(g.shifts)}


def _descent_lines(g: ShiftedForm, steps, out: ShiftedForm) -> List[str]:
    """A descent as text: its input form, one line per step, its output."""
    def form(h):
        return (f"conductor {h.conductor}, coeffs {list(h.coeffs)}, "
                f"shifts {list(h.shifts)}")
    return ([f"input:  {form(g)}"]
            + [f"step:   p={w.p}, q={w.q}, scale s={w.s}, order j={w.j}"
               for w in steps]
            + [f"output: {form(out)}"])


def _cmd_watson(args) -> int:
    from .watson import coset_watson_step

    g = _shifted_from_args(args)
    out, step = coset_watson_step(g, args.p)  # vars(step): p, q, s, j
    payload = {"input": _form_dict(g), **vars(step), "output": _form_dict(out)}
    _emit(args, payload, _descent_lines(g, [step], out))
    return 0


def _cmd_stabilize(args) -> int:
    from .watson import stabilize

    g = _shifted_from_args(args)
    out, steps = stabilize(g)
    payload = {"input": _form_dict(g), "steps": [vars(w) for w in steps],
               "output": _form_dict(out)}
    _emit(args, payload, _descent_lines(g, steps, out))
    return 0


def _cmd_localrep(args) -> int:
    from .localrep import represents_over_zp, shifted_represents_over_zp

    if args.shifts is not None and args.conductor is None:
        raise ValueError("--shifts needs --conductor")
    if args.conductor is not None:
        g = _shifted_from_args(args)
        rep = shifted_represents_over_zp(g, args.n, args.p)
        payload = {"shifted": True, **_form_dict(g), "n": args.n, "p": args.p,
                   "represented": bool(rep)}
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


def _open_out(path: str, mode: str):
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_regcheck(args) -> int:
    from .polygonal import MGonalForm
    from .regcheck import candidate_note, regularity_scan

    form = MGonalForm(args.m, tuple(sorted(args.coeffs)))
    if args.out:
        # an unwritable path fails before the scan; appending keeps an
        # existing file's bytes, and a file made here is removed again, so
        # a scan that then fails leaves the path as it found it
        created = not os.path.exists(args.out)
        _open_out(args.out, "a").close()
        if created:
            os.remove(args.out)
    report = regularity_scan(form, args.bound)
    body = report.as_dict()
    note = candidate_note(args.m)
    if note is not None:
        body["note"] = note
    if args.out:
        with _open_out(args.out, "w") as fh:
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


def _cmd_theorem(args) -> int:
    from .pipeline import CASES, ReplayMismatch, replay_all, replay_case

    golden = _golden("theorem.json") if args.verify else None
    try:
        if args.case is not None:
            expected = golden["cases"][str(args.case)] if golden else None
            states = {args.case: replay_case(CASES[args.case], expected)}
        else:
            states = replay_all(golden["cases"] if golden else None)
    except ReplayMismatch as exc:
        raise VerificationFailure(str(exc)) from exc
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
        lines.extend(states[cid].transcript())
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


# every command, in the order of the help
_COMMAND_NAMES = ("psi", "eta", "table1", "ineq", "watson", "stabilize",
                  "localrep", "regcheck", "theorem", "examples")


def build_parser(names: Collection[str] = _COMMAND_NAMES) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of the commands `names`, in
    the order of _COMMAND_NAMES (every command by default)."""
    parser = argparse.ArgumentParser(
        prog="mgonal",
        description="exact computations around regular ternary m-gonal forms",
    )
    parser.add_argument("--version", action="version", version=f"mgonal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func):
        """The subparser of `name`, or None when `names` leaves it out."""
        if name not in names:
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, command=name)  # also when it parses on its own
        return p

    def common(p, tabular=False, verify=False):
        formats = ("text", "json", "csv") if tabular else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
        if verify:
            p.add_argument("--verify", action="store_true",
                           help="diff against the in-repo golden values; exit 1 on mismatch")

    n_type = _at_most(int, _N_LIMIT)
    count_type = _at_most(int, _COUNT_LIMIT)
    if p := command("psi", "local exception-count bound psi_p(n)", _cmd_psi):
        p.add_argument("--n", type=n_type, required=True)
        which = p.add_mutually_exclusive_group(required=True)
        which.add_argument("--p", type=_prime)
        which.add_argument("--count", type=count_type,
                           help="emit the largest `count` psi values")
        common(p, tabular=True, verify=True)

    if p := command("eta", "guaranteed represented count eta(n, s)", _cmd_eta):
        p.add_argument("--n", type=n_type, required=True)
        p.add_argument("--s", type=count_type, required=True)
        common(p, tabular=True)

    if p := command("table1", "the full eta table used by the derivation",
                    _cmd_table1):
        common(p, tabular=True, verify=True)

    if p := command("ineq", "prime-product inequality clauses", _cmd_ineq):
        from .prodineq import CLAUSES

        p.add_argument("--clause", type=int, choices=sorted(CLAUSES), required=True)
        which = p.add_mutually_exclusive_group()
        which.add_argument("--t", type=_at_most(int, _T_LIMIT))
        which.add_argument("--t-max", type=_at_most(int, _T_LIMIT), dest="t_max")
        common(p, tabular=True, verify=True)

    def shifted_args(p, need_p=False):
        p.add_argument("--conductor", type=_at_most(int, _DESCENT_LIMIT),
                       required=True)
        p.add_argument("--coeffs", type=_at_most(_parse_ints, _DESCENT_LIMIT),
                       required=True)
        p.add_argument("--shifts", type=_parse_ints)
        if need_p:
            p.add_argument("--p", type=_prime, required=True)

    if p := command("watson", "one conductor-preserving descent step", _cmd_watson):
        shifted_args(p, need_p=True)
        common(p)

    if p := command("stabilize", "descend until stable at every coefficient prime",
                    _cmd_stabilize):
        shifted_args(p)
        common(p)

    if p := command("localrep", "exact representation test over Z_p", _cmd_localrep):
        p.add_argument("--coeffs", type=_parse_ints, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--p", type=_prime, required=True)
        p.add_argument("--conductor", type=int)
        p.add_argument("--shifts", type=_parse_ints)
        common(p)

    if p := command("regcheck", "local-vs-global regularity scan", _cmd_regcheck):
        p.add_argument("action", choices=("scan",))
        p.add_argument("--m", type=_at_most(int, _SCAN_LIMIT), required=True)
        p.add_argument("--coeffs", type=_at_most(_parse_ints, _SCAN_LIMIT),
                       required=True)
        p.add_argument("--bound", type=_at_most(int, _BOUND_LIMIT), required=True)
        p.add_argument("--out")
        common(p)

    if p := command("theorem", "replay the four-case bound derivation", _cmd_theorem):
        p.add_argument("--case", type=int, choices=(1, 2, 3, 4))
        common(p, verify=True)

    if p := command("examples", "the motivating local/global examples",
                    _cmd_examples):
        p.add_argument("--eureka", type=_at_most(int, _BOUND_LIMIT),
                       help="also check universality of three triangular numbers up to N")
        common(p)
    return parser


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """Name -> subparser of a parser that `build_parser` made."""
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@functools.lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command `name`: the one subparser of a top-level parser
    built with that command alone, built on first use and kept for the
    process, since in-process callers run `main` many times."""
    return _subparsers(build_parser((name,)))[name]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the full top-level parser takes whatever the command's own parser
    # cannot (see the module docstring); each of those ends in argparse's exit
    args, rest = (_command_parser(argv[0]).parse_known_args(argv[1:])
                  if argv and argv[0] in _COMMAND_NAMES else (None, True))
    if rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed:\n{exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
