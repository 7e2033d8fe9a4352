"""The three benchmark workloads: seeded inputs, one op, and the checks.

Each workload is a closed loop with one caller.  `stream(seed)` yields op
inputs (the loop stops on time or when the stream ends), `run(item)` performs
one op through
the package's public API, looked up on the module at call time so that the
tracer's wrappers are seen, and `check(items, outcomes, seed)` runs outside
the timed region.  An outcome is the op's result or an `OpError`.  A check
returns the indices of failed ops (raised, or disagreed with an oracle),
whether every output was correct, and the workload properties that later
performance claims can name.  An op that raised is a failed op unless the
check finds the exception to be the package's documented refusal of that
input (local-queries: `ModulusTooLarge` on a query whose exact decision
needs a residue array above the engine's limit); the op loop reports such
refusals apart from failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
from math import gcd
from typing import NamedTuple

from mgonal import cli, localrep, regcheck
from mgonal.polygonal import MGonalForm, ShiftedForm


class OpError(NamedTuple):
    """An op that raised: exception type name and message."""

    kind: str
    message: str


def failed_with(outcome, kind: str) -> bool:
    return isinstance(outcome, OpError) and outcome.kind == kind


# --------------------------------------------------------------------------
# arithmetic of the benchmark's own (kept apart from the package's helpers)

def _ord(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _unit_class(u: int, p: int) -> int:
    """Square class of a p-adic unit: u mod 8 at 2, quadratic character at
    odd p."""
    if p == 2:
        return u % 8
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def _fingerprint_part(n: int, p: int):
    e = _ord(n, p)
    return e, _unit_class(n // p ** e, p)


def _prime_factors(n: int):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def _unit(rng: random.Random, p: int, hi: int) -> int:
    while True:
        u = rng.randrange(1, hi)
        if u % p:
            return u


def percentile_tail(values):
    """(percentile, value, samples beyond): the highest rung of a fixed
    ladder that keeps at least ten samples above it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for q in (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99):
        rank = -(-q * n // 100)  # ceil
        if n - rank >= 10:
            best = (q, xs[int(rank) - 1], n - int(rank))
    if best is None:  # fewer than 11 samples: report the median
        return (50, statistics.median(xs), n // 2) if xs else (50, 0.0, 0)
    return best


# --------------------------------------------------------------------------
# census: one op is regcheck.candidate_scan(m, CENSUS_CAP, CENSUS_N)

CENSUS_CAP = 5
CENSUS_N = 500
CENSUS_M_MAX = 46
GATES = (3, 8)


def m_class(m: int) -> str:
    parity = "odd" if m % 2 else ("2mod4" if m % 4 == 2 else "0mod4")
    return f"{parity},{'2mod3' if m % 3 == 2 else 'not2mod3'}"


def census_triples(cap: int):
    """Primitive ascending triples with a_3 <= cap, in candidate_scan order."""
    return [(a, b, c) for a in range(1, cap + 1) for b in range(a, cap + 1)
            for c in range(b, cap + 1) if gcd(gcd(a, b), c) == 1]


def residue_table_size(m: int) -> int:
    """Entries of the largest residue table the local test builds for one
    form at m: p^(2 ord_p(2c) + 1) over the primes p | c, where
    c = delta (m - 2) / 2 is the conductor."""
    delta = 4 if m % 2 else (2 if m % 4 == 2 else 1)
    c = delta * (m - 2) // 2
    return max((p ** (2 * _ord(2 * c, p) + 1) for p in _prime_factors(c)),
               default=1)


def census_stream(seed: int):
    """m = 3 and m = 8 first, then every other m in [5, CENSUS_M_MAX] once,
    in a seeded order; the stream then ends, so no m is scanned twice with
    warm caches.  The residue table size sets most of an op's cost (0.2 s
    to 3 s), so the order deals the four quartiles of table size evenly over
    its length: every prefix, and so a run cut short by time, holds cheap
    and costly m in proportion.  The list stops at 46 so that a 25 s run
    completes it even on a host at half the reference speed, and every run
    then does the same ops.  Above that, an odd m with m - 2 a large prime
    q needs about q^3 entries per form: m = 61 and 63 take 2 to 3 s, m = 99
    about 14 s."""
    rng = random.Random(seed)
    yield from GATES
    pool = sorted((m for m in range(5, CENSUS_M_MAX + 1) if m not in GATES),
                  key=residue_table_size)
    strata = [pool[k * len(pool) // 4:(k + 1) * len(pool) // 4] for k in range(4)]
    keyed = []
    for ms in strata:
        ms = rng.sample(ms, len(ms))
        keyed += [((i + rng.random()) / len(ms), m) for i, m in enumerate(ms)]
    for _, m in sorted(keyed):
        yield m


def census_run(m: int):
    reports = regcheck.candidate_scan(m, CENSUS_CAP, CENSUS_N)
    return tuple(r.form.coeffs for r in reports)


def census_digest(items, outcomes) -> dict:
    """Digest of (m, survivors) per distinct m, to compare two commits."""
    per_m = {}
    for m, out in zip(items, outcomes):
        if not isinstance(out, OpError):
            per_m.setdefault(m, out)
    blob = json.dumps(sorted(per_m.items())).encode()
    return {"all": hashlib.sha256(blob).hexdigest()[:16],
            "per_m": {m: hashlib.sha256(json.dumps(s).encode()).hexdigest()[:8]
                      for m, s in sorted(per_m.items())}}


def census_check(items, outcomes, seed: int, sample_ops: int = 4,
                 sample_forms: int = 6):
    # Every census m is at most 46, so no op may raise: a raised op is a
    # failure and makes the run incorrect.
    bad = {i for i, out in enumerate(outcomes) if isinstance(out, OpError)}
    correct = not bad
    notes = [f"m={items[i]}: {outcomes[i].kind}: {outcomes[i].message}"
             for i in sorted(bad)]
    triples = census_triples(CENSUS_CAP)
    rng = random.Random(seed + 7919)

    def fail(i, note):
        nonlocal correct
        bad.add(i)
        correct = False
        notes.append(note)

    for i, (m, out) in enumerate(zip(items, outcomes)):
        raised = isinstance(out, OpError)
        if m == 3 and (raised or (1, 1, 1) not in out):
            fail(i, "m=3: <1,1,1> is not a survivor (Eureka check)")
        if m == 8 and (raised or (1, 2, 3) in out):
            fail(i, "m=8: <1,2,3> survived or the scan raised")

    # Re-scan a seeded sample of ops form by form: the survivors must be the
    # forms without a counterexample, and each sampled first counterexample
    # must be locally represented yet missed by a brute-force search.
    done = [i for i, out in enumerate(outcomes) if not isinstance(out, OpError)]
    gate8 = [i for i, m in enumerate(items) if m == 8][:1]
    try:
        witness = regcheck.regularity_scan(MGonalForm(8, (1, 2, 3)),
                                           CENSUS_N).counterexamples[:1]
    except Exception as exc:  # any raise fails the gate
        witness = f"{type(exc).__name__}: {exc}"
    if witness != (9,):
        fail(gate8[0] if gate8 else 0, f"m=8 <1,2,3>: first counterexample "
             f"{witness}, want (9,)")
    sample = sorted(set(gate8) & set(done)
                    | set(rng.sample(done, min(sample_ops, len(done)))))
    first_ce = []
    for i in sample:
        m = items[i]
        try:
            reports = {t: regcheck.regularity_scan(MGonalForm(m, t), CENSUS_N)
                       for t in triples}
        except Exception as exc:  # any raise is a failure
            fail(i, f"m={m}: re-scan raised {type(exc).__name__}: {exc}")
            continue
        want = tuple(t for t in triples if not reports[t].counterexamples)
        if want != outcomes[i]:
            fail(i, f"m={m}: survivors {outcomes[i]}, re-scan gives {want}")
        misses = [(t, r.counterexamples[0]) for t, r in reports.items()
                  if r.counterexamples]
        first_ce += [n for _, n in misses]
        for t, n in rng.sample(misses, min(sample_forms, len(misses))):
            f = MGonalForm(m, t)
            if regcheck.represents_globally(f, n) is not None:
                fail(i, f"m={m} {t}: counterexample {n} is represented")
            if not localrep.locally_represented(f, n):
                fail(i, f"m={m} {t}: counterexample {n} is not local")

    ok = [out for out in outcomes if not isinstance(out, OpError)]
    props = {
        "ops": len(outcomes),
        "distinct_m": len({m for m, o in zip(items, outcomes)
                           if not isinstance(o, OpError)}),
        "ops_by_class": {c: sum(1 for m in items if m_class(m) == c)
                         for c in sorted({m_class(m) for m in items})},
        "survivor_share": (sum(len(o) for o in ok) / (len(ok) * len(triples))
                           if ok else 0.0),
        "first_counterexample_n": {
            "sampled_ops": len(sample),
            "median": statistics.median(first_ce) if first_ce else None,
            "max": max(first_ce) if first_ce else None,
        },
        "digest": census_digest(items, outcomes),
    }
    return bad, correct, notes, props


# --------------------------------------------------------------------------
# local-queries: one op is one represents_over_zp or
# shifted_represents_over_zp call

PRIMES = (2, 3, 5, 7)
MAX_DEPTH = 6
CONDUCTOR_DEPTH = 3
# The local engine declines, with `ModulusTooLarge`, to build a residue
# array of more than this many entries (`localrep._FFT_LIMIT`).
FFT_LIMIT = 2 ** 22
# Largest residue array a decided query of the stream may need (see
# `array_entries`); depths between this and FFT_LIMIT are left out.
ARRAY_BUDGET = 2 ** 18
REPEATS = 8
# Blocks of the stream: 57600 ops, about 14 s of op time at the reference
# speed (see worker.py), so a run ends with the stream and every run of a
# seed does the same ops; the tail percentile (see `percentile_tail`) is
# then p99.95 on every run.
LOCAL_BLOCKS = 1200
GRID_LIMIT = 3 * 10 ** 5


class Query(NamedTuple):
    kind: str           # "plain" or "shifted"
    p: int
    coeffs: tuple
    target: int
    conductor: int      # 1 for plain queries
    shifts: tuple       # () for plain queries
    fingerprint: tuple  # the benchmark's own cache-key model
    depth: int          # largest ord_p of a coefficient (conductor: of c)


def _plain_fingerprint(p, coeffs, n):
    return ("plain", p, tuple(sorted(_fingerprint_part(a, p) for a in coeffs)),
            _fingerprint_part(n, p))


def _query(kind, p, coeffs, target, conductor=1, shifts=()):
    if kind == "shifted" and conductor % p == 0:
        fp = ("table", p, conductor, coeffs, shifts)
        depth = _ord(conductor, p)
    else:
        fp = _plain_fingerprint(p, coeffs, target)
        depth = max(_ord(a, p) for a in coeffs)
    return Query(kind, p, coeffs, target, conductor, shifts, fp, depth)


def array_entries(p: int, depth: int) -> int:
    """Entries of the residue array for a coefficient of p-depth `depth`:
    p^(2 ord_p(2a) + 1).  The same count sizes the table of a shifted form
    whose conductor has that depth."""
    return p ** (2 * (depth + _ord(2, p)) + 1)


def stream_depths(p: int, top: int):
    """The depths 0..top whose residue arrays fit ARRAY_BUDGET or exceed
    FFT_LIMIT (the engine then refuses the query).  Between the two, at
    p = 3 depth 6, p = 5 depth 4 and p = 7 depth 3, one query builds arrays
    of 0.8 to 2 million entries and takes 0.25 to 1 s; about 125 of them took
    97% of the op time of a 25 s run, and whether each one short-circuits or
    recurses made a run's FFT work differ by 11% from seed to seed
    (interquartile range over median, six seeds)."""
    return [d for d in range(top + 1)
            if not ARRAY_BUDGET < array_entries(p, d) <= FFT_LIMIT]


def local_stream(seed: int):
    """Blocks of 48 queries, 12 per prime p in {2, 3, 5, 7}: three plain
    queries with a fresh deep coefficient, one shifted query, and eight
    repeats.  The deep coefficient's depth cycles through the depths
    0..MAX_DEPTH of `stream_depths` and the conductor's through those of
    0..CONDUCTOR_DEPTH, so every seed carries the
    same mix; the seed picks units, positions, targets and what repeats.
    With two thirds repeats the median op is a cache hit, away from the
    cold queries, so it does not jump with the seed.  A repeat re-draws an
    earlier query of the same prime with other units of the same square
    classes, so it has the same fingerprint and other integers; a shifted
    repeat with p | c keeps its form (the residue table is cached per form)
    and takes another target.  Deep coefficients at 5 and 7 raise
    ModulusTooLarge today.  The stream ends after LOCAL_BLOCKS blocks."""
    rng = random.Random(seed)
    offset = {p: rng.randrange(7) for p in PRIMES}
    deep_depths = {p: stream_depths(p, MAX_DEPTH) for p in PRIMES}
    cond_depths = {p: stream_depths(p, CONDUCTOR_DEPTH) for p in PRIMES}
    seen = {p: [] for p in PRIMES}
    for block in range(LOCAL_BLOCKS):
        out = []
        for p in PRIMES:
            hi = 8 * p
            fresh = []
            for j in range(3):
                deep = deep_depths[p][(offset[p] + 3 * block + j)
                                      % len(deep_depths[p])]
                depths = [deep, rng.choice((0, 0, 0, 1, 1, 2)),
                          rng.choice((0, 0, 1, 1, 2))]
                rng.shuffle(depths)
                units = [_unit(rng, p, hi) for _ in depths]
                f, v = rng.choice((0, 0, 1, 1, 2, 3)), _unit(rng, p, hi)
                fresh.append(("plain", p, depths, units, f, v, 1, ()))
            k = cond_depths[p][(offset[p] + block) % len(cond_depths[p])]
            c = p ** k * rng.choice([r for r in (3, 5, 7, 11) if r != p])
            shifts = tuple(rng.choice([s for s in range(1, c) if gcd(s, c) == 1])
                           for _ in range(3))
            depths = [0, rng.choice((0, 1, 2)), rng.choice(stream_depths(p, 3))]
            units = [_unit(rng, p, hi) for _ in depths]
            f, v = rng.choice((0, 1, 2)), _unit(rng, p, 40 * p)
            fresh.append(("shifted", p, depths, units, f, v, c, shifts))
            seen[p] += fresh
            repeats = []
            for _ in range(REPEATS):
                kind, _, depths, units, f, v, c, shifts = rng.choice(seen[p])
                sq = [_unit(rng, p, 8) ** 2 for _ in range(len(units) + 1)]
                if c % p:  # the fingerprint only sees unit classes
                    units = [u * s for u, s in zip(units, sq)]
                repeats.append((kind, p, depths, units, f, v * sq[-1], c, shifts))
            out += fresh + repeats
        rng.shuffle(out)
        for kind, p, depths, units, f, v, c, shifts in out:
            coeffs = tuple(p ** e * u for e, u in zip(depths, units))
            yield _query(kind, p, coeffs, p ** f * v, c, shifts)


def local_run(q: Query) -> bool:
    if q.kind == "plain":
        return localrep.represents_over_zp(q.coeffs, q.target, q.p).represented
    g = ShiftedForm(conductor=q.conductor, coeffs=q.coeffs, shifts=q.shifts)
    return localrep.shifted_represents_over_zp(g, q.target, q.p)


def _table_modulus(q: Query) -> int:
    """Modulus of the residue table of a shifted query with p | c."""
    return q.p ** (2 * _ord(2 * q.conductor, q.p) + 1)


def needs_large_array(q: Query) -> bool:
    """Would an exact decision of q by residue arrays need more than
    FFT_LIMIT entries?  A plain query (or a shifted one with p not dividing
    c) needs p^(2 ord_p(2a) + 1) entries for a coefficient a; a shifted query
    with p | c needs the table modulus."""
    if q.fingerprint[0] == "table":
        return _table_modulus(q) > FFT_LIMIT
    return any(array_entries(q.p, _ord(a, q.p)) > FFT_LIMIT for a in q.coeffs)


def _search_size(q: Query) -> int:
    """Points the oracle visits: residues squared for a table query, else
    the grid mod p^K in every coordinate, K the Hensel exponent
    ord n + max ord a + 2 ord 2 + 1."""
    if q.fingerprint[0] == "table":
        return _table_modulus(q) ** 2
    return q.p ** (_hensel_exponent(q) * len(q.coeffs))


def _hensel_exponent(q: Query) -> int:
    return (_ord(q.target, q.p) + max(_ord(a, q.p) for a in q.coeffs)
            + 2 * _ord(2, q.p) + 1)


def _oracle(q: Query) -> bool:
    """Independent verdict by literal search: `represents_mod_search` at the
    Hensel exponent, or for a shifted query with p | c the residues of
    sum a_i (c x_i + alpha_i)^2 modulo the table modulus, enumerated
    coordinate by coordinate."""
    if q.fingerprint[0] != "table":
        return localrep.represents_mod_search(
            q.coeffs, q.target, q.p, _hensel_exponent(q)).represented
    mod = _table_modulus(q)
    sums = {0}
    for a, al in zip(q.coeffs, q.shifts):
        vals = {a * (q.conductor * x + al) ** 2 % mod for x in range(mod)}
        sums = {(s + v) % mod for s in sums for v in vals}
    return q.target % mod in sums


def _verdict_key(q: Query):
    """The fingerprint, plus the target's residue modulo the table modulus
    for a shifted query with p | c (the table answers per residue)."""
    if q.fingerprint[0] != "table":
        return q.fingerprint
    return q.fingerprint + (q.target % _table_modulus(q),)


def local_check(items, outcomes, seed: int, oracle_cap: int = 64):
    # `ModulusTooLarge` on a query that needs an array above FFT_LIMIT is the
    # engine's documented refusal and is reported apart (`ok_share`,
    # `localrep.modulus_too_large`); any other raise is a failure.
    bad = {i for i, (q, out) in enumerate(zip(items, outcomes))
           if isinstance(out, OpError)
           and not (out.kind == "ModulusTooLarge" and needs_large_array(q))}
    correct = not bad
    notes = sorted({f"{outcomes[i].kind}: {outcomes[i].message} on {items[i]}"
                    for i in bad})
    groups = {}
    for i, (q, out) in enumerate(zip(items, outcomes)):
        if not isinstance(out, OpError):
            groups.setdefault(_verdict_key(q), []).append(i)

    # The key is a complete invariant of the verdict, so a group must agree;
    # where the literal search is small it decides the group.
    rng = random.Random(seed + 104729)
    feasible = [key for key, idx in groups.items()
                if _search_size(items[idx[0]]) <= GRID_LIMIT]
    rng.shuffle(feasible)
    checked = set(feasible[:oracle_cap])
    for key, idx in groups.items():
        verdicts = [outcomes[i] for i in idx]
        if key in checked:
            want = _oracle(items[idx[0]])
        else:
            want = max(set(verdicts), key=verdicts.count)
        wrong = [i for i in idx if outcomes[i] != want]
        if wrong:
            bad.update(wrong)
            correct = False
            notes.append(f"{len(wrong)} verdicts disagree on {items[idx[0]]}")

    first = first_sight(items)
    n = len(items)
    depth_hist = {}
    for q in items:
        depth_hist[q.depth] = depth_hist.get(q.depth, 0) + 1
    props = {
        "ops": n,
        "first_sight_share": sum(first) / n if n else 0.0,
        "depth_histogram": dict(sorted(depth_hist.items())),
        "share_by_prime": {p: sum(1 for q in items if q.p == p) / n if n else 0.0
                           for p in PRIMES},
        "shifted_share": sum(1 for q in items if q.kind == "shifted") / n if n else 0.0,
        "modulus_too_large": sum(1 for o in outcomes
                                 if failed_with(o, "ModulusTooLarge")),
        "oracle_checked_fingerprints": len(checked),
    }
    return bad, correct, notes, props


# Workloads whose ops that build residue arrays are timed against the FFT
# kernel of worker.py rather than its pure-Python one.
FFT_SCALED = ("local-queries",)


def fft_scaled(workload: str, items):
    """Per op, or None for a workload outside FFT_SCALED: does it build
    residue arrays?  In local-queries that is the first op of each
    fingerprint; every other op answers from the verdict cache, or is a
    refusal of a query seen before, and is interpreter work."""
    return first_sight(items) if workload in FFT_SCALED else None


def first_sight(items):
    """Per op: is this the first op of the run with its fingerprint?"""
    seen = set()
    out = []
    for q in items:
        out.append(q.fingerprint not in seen)
        seen.add(q.fingerprint)
    return out


# --------------------------------------------------------------------------
# verify: one op is one pass of in-process cli.main over the --verify
# commands, stabilize on seeded shifted forms and eta on a seeded grid

VERIFY_ARGV = (
    [["theorem", "--verify"], ["table1", "--verify"],
     ["psi", "--n", "48", "--count", "8", "--verify"]]
    + [["ineq", "--clause", str(k), "--verify"] for k in range(1, 14)]
)
STABILIZE_FORMS = 4
ETA_POINTS = 6
# Passes of a run: about 14 s of op time at the reference speed (see
# worker.py), so a run ends with the stream, and the tail percentile (see
# `percentile_tail`) is p90 on every run that does 100 to 199 passes.  An
# open-ended run did 180 to 250 passes on a slow stretch of a shared host
# and its tail flipped between p90 and p95.
VERIFY_PASSES = 150


def verify_pass_argv(seed: int):
    """The argv lists of one pass; the seed fixes the stabilize forms and
    the (n, s) grid, and every pass of a run repeats them."""
    rng = random.Random(seed)
    argv = [list(a) for a in VERIFY_ARGV]
    for _ in range(STABILIZE_FORMS):
        c = rng.choice((5, 6, 7, 10, 12, 14))
        while True:
            coeffs = sorted(3 ** rng.randrange(4) * 5 ** rng.randrange(3)
                            * 7 ** rng.randrange(2) * rng.choice((1, 1, 2, 4))
                            for _ in range(3))
            if gcd(gcd(coeffs[0], coeffs[1]), coeffs[2]) == 1:
                break
        shifts = [rng.choice([s for s in range(1, c) if gcd(s, c) == 1])
                  for _ in range(3)]
        argv.append(["stabilize", "--conductor", str(c),
                     "--coeffs", ",".join(map(str, coeffs)),
                     "--shifts", ",".join(map(str, shifts)), "--format", "json"])
    for _ in range(ETA_POINTS):
        argv.append(["eta", "--n", str(rng.randrange(20, 400)),
                     "--s", str(rng.randrange(1, 13)), "--format", "json"])
    return argv


def verify_stream(seed: int):
    argv = verify_pass_argv(seed)
    for _ in range(VERIFY_PASSES):
        yield argv


def verify_run(argv_list):
    """(exit codes, outputs of the stabilize and eta commands)."""
    codes, outputs = [], []
    for argv in argv_list:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(cli.main(argv))
        if argv[0] in ("stabilize", "eta"):
            outputs.append(out.getvalue())
    return tuple(codes), tuple(outputs)


def verify_check(items, outcomes, seed: int):
    bad = {i for i, out in enumerate(outcomes) if isinstance(out, OpError)}
    correct = not bad
    notes = sorted({f"{o.kind}: {o.message}" for o in outcomes
                    if isinstance(o, OpError)})
    done = [i for i, o in enumerate(outcomes) if not isinstance(o, OpError)]
    reference = None
    for i in done:
        codes, outputs = outcomes[i]
        if any(codes):
            bad.add(i)
            correct = False
            failing = [a[0] for a, c in zip(items[i], codes) if c]
            notes.append(f"op {i}: nonzero exit from {failing}")
        if reference is None:
            reference = outputs
            problems = _stabilize_problems(items[i], outputs)
            if problems:
                bad.add(i)
                correct = False
                notes += problems
        elif outputs != reference:
            bad.add(i)
            correct = False
            notes.append(f"op {i}: outputs differ from the first pass")
    props = {"ops": len(outcomes),
             "commands_per_op": len(items[0]) if items else 0,
             "stabilize_forms": STABILIZE_FORMS, "eta_points": ETA_POINTS}
    return bad, correct, notes, props


def _stabilize_problems(argv_list, outputs):
    """Each stabilize output keeps the conductor and is stable at every prime
    of its coefficients outside the conductor."""
    problems = []
    stab = [a for a in argv_list if a[0] == "stabilize"]
    for argv, text in zip(stab, outputs):
        body = json.loads(text)
        c_in, c_out = body["input"]["conductor"], body["output"]["conductor"]
        coeffs = tuple(body["output"]["coeffs"])
        if c_in != c_out:
            problems.append(f"{argv}: conductor {c_in} became {c_out}")
        for p in _prime_factors(coeffs[0] * coeffs[1] * coeffs[2]):
            if c_out % p and not localrep.is_stable(coeffs, p):
                problems.append(f"{argv}: output {coeffs} unstable at {p}")
    return problems


# --------------------------------------------------------------------------

WORKLOADS = {
    "census": (census_stream, census_run, census_check),
    "local-queries": (local_stream, local_run, local_check),
    "verify": (verify_stream, verify_run, verify_check),
}


def op_name(workload: str, item) -> str:
    if workload == "census":
        return f"census.m{item}"
    if workload == "local-queries":
        return f"local.{item.kind}"
    return "verify.pass"
