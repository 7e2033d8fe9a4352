"""Representation of integers by diagonal quadratic forms over Z_p.

The basic question: does a_1 x_1^2 + ... + a_k x_k^2 = n have a solution
with all x_i in Z_p?  Everything reduces to finite computations by Hensel's
lemma.  Write e_i = ord_p(a_i) and sigma_i = ord_p(2 a_i).  If x is a
solution of Q(x) = n (mod p^K) and some coordinate satisfies

    x_i a unit  and  2*sigma_i + 1 <= K                        (*)

then the single-variable Newton iteration in x_i converges to an exact
solution (the derivative 2 a_i x_i has order sigma_i, and the residual is
divisible by p^{2 sigma_i + 1}).  Conversely an exact solution reduces to a
witness mod any p^K.  The only solutions without a unit coordinate have all
x_i = 0 (mod p), and then n = Q(x) = p^2 Q(x/p), so

    Q represents n  <=>  n = 0, or some pivot query succeeds, or
                         p^2 | n and Q represents n / p^2,

where the pivot query at i asks for a witness mod p^{M_i},
M_i = 2 sigma_i + 1, having x_i a unit.  Unrolled over the deep steps,
this says that the values of Q over Z_p are

    {0}  u  union over j >= 0 of  p^{2j} (S_1 u ... u S_r),

with S_i the values Q(x) having x_i a unit (the pivot sets).  Scaling x
by a unit scales Q(x) by its square, so each S_i is a union of classes
(k, c): the elements of order k whose unit part lies in the square class
c.  The label (k, c) of an element, computed by `_order_and_class`, holds
c as a class index: the unit part is 2 c + 1 mod 8 at p = 2, and c is 0
for a square and 1 for a nonsquare at odd p.  By (*), membership in S_i
depends only on n mod p^{M_i}, so S_i is its classes at orders k < M_i
plus, when it meets residue 0 mod p^{M_i}, every element of order >= M_i.
These classes depend on the lattice only through its key, the sorted
multiset of the labels (e_i, c_i) of its entries: scaling an entry by a
unit square permutes the solutions and keeps the units.

So the value set is one bitmask T[k] over the unit classes per order k,
the descriptor, a tuple of ints, that `_value_set` builds once per
(p, key) by summing the coordinates' classes in closed form (rule and
proof in its docstring).
Write V[k] for the classes of S_1 u ... u S_r at order k and K = max M_i.
Every S_i is all or nothing at orders >= M_i, so V[k] is one constant for
k >= K; and T[k] = V[k] | T[k - 2].  Hence T[K + 2] = T[K] and
T[K + 3] = T[K + 1]: T has period 2 from order K on, and K + 2 entries
describe it.  A verdict is the label of n and one lookup in T, at any
depth and any p, with no residue array.  The key is the one description
of a diagonal lattice at p in the package: `is_stable` and
`stable_value_set_check` read it too, and the tests hold the latter
against the descriptor.

A scalar query is one private helper, `_verdict`, which both
`represents_over_zp` and `shifted_represents_over_zp` (at p not dividing
c) call: one pass over the entries gives their labels, the key and the sum
of their orders (`_key_and_depth`; the sum gives the conservative
exponent), and the verdict is the label of n and one lookup in the
cached descriptor, a tuple of Python ints.  It builds no verdict object;
`represents_over_zp` wraps its pair in a `LocalVerdict`.

Scans ask the same question for many targets at once.  An m-gonal scan
asks it for a range of n, and `locally_represented_bits` answers with one
Python-int bitset per form.  A form's targets then run through an
arithmetic progression, so at a prime p not dividing the conductor the
targets of one label (k, c) are a union of residue classes: one periodic
bitset, shifted per form (`_exclusions`).  `locally_represented_rows`
is the reference the tests hold the bitsets to: the literal definition,
one form, prime and target at a time, into lists of bools.  Both work in
Python integers and answer at any size.

A shifted form sum a_i (c x_i + alpha_i)^2 needs no descriptor at a prime
p | c: each alpha_i is a p-unit (the shifts are coprime to c), so
(c x + alpha_i)^2 sweeps alpha_i^2 + p^e Z_p, e = `_progression_exponent`,
and the sum of the coordinates' balls gives the exact congruence

    N is represented  <=>  N = sum a_i alpha_i^2 (mod p^(e + min ord_p a_i))

(`_shifted_congruence`).

The range entry combines the two for the m-gonal forms of one m (a
census decides all its coefficient triples at once), over the primes
p | 2 c prod(a_i).  No other prime needs a test when the rank is at
least 3: at an odd p not dividing c prod(a_i), z = c x + alpha is a
bijection of Z_p, every entry is a p-unit, and a unimodular lattice of
rank >= 3 at odd p is isotropic (Chevalley-Warning), hence splits a
hyperbolic plane and represents all of Z_p.  Below rank 3 this fails
(<1,1> misses 77 over Z_7), so lower ranks raise ValueError.  Per prime,
the range entry reads each lattice key's descriptor once, and only at
the places it misses, and labels the few deep targets of each offset
once (details in `_exclusions`).  The scalar `locally_represented` is
the one-row, one-target case of the range entry.

A literal reference procedure (`represents_mod_search`: grid search mod p^K
plus the lifting criterion (*), which also gives the witness of
`represents_over_zp`) and a single-shot FFT reference
(`represents_reference_fft`: plain witness existence mod p^K for
K >= hensel_exponent) are kept alongside as independent oracles.  Only the
FFT oracle's two helpers import numpy, inside the functions, and only the
tests call them.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, product
from operator import index, mul
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .numth import _check_prime, ord_p, prime_divisors

if TYPE_CHECKING:  # for the annotations; the FFT helpers import it
    import numpy as np

# Largest indicator array the FFT oracle writes (p^K entries).
_FFT_LIMIT = 2 ** 22


class ModulusTooLarge(Exception):
    """A reference oracle would need an infeasible search box or array."""


# --------------------------------------------------------------------------
# verdicts

class LocalVerdict(NamedTuple):
    """Outcome of a local representation query at p.

    When `represented` and a feasible search box exists, `witness` is a
    solution vector mod p^modulus_exponent passing the lifting criterion;
    otherwise witness is None (the verdict itself is exact either way).
    A named tuple (immutable, equal to a verdict with equal fields, cheap
    to build); bool() reads `represented`.
    """

    p: int
    represented: bool
    witness: Optional[Tuple[int, ...]] = None
    modulus_exponent: Optional[int] = None

    def __bool__(self):
        return self.represented


# --------------------------------------------------------------------------
# lattice keys and value-set descriptors

def _order_and_class(a: int, p: int) -> Tuple[int, int]:
    """The label (ord_p a, i) of a nonzero integer a at a prime p: i indexes
    the square class of the unit part u = a / p^ord_p(a), with u = 2 i + 1
    (mod 8) at p = 2; at odd p, 0 for a square and 1 for a nonsquare
    (Euler's criterion, so (u | p) = (-1)^i).  At 2 the order is the
    position of the lowest set bit of a; at odd p, a is divided in place.
    Raises `ord_p`'s ValueError for a = 0 and for p < 2."""
    if p < 2 or not a:
        ord_p(a, p)  # raises
    if p == 2:
        e = (a & -a).bit_length() - 1
        return e, (a >> e) % 8 >> 1
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return e, int(pow(a, (p - 1) // 2, p) != 1)


def _key_and_depth(coeffs: Sequence[int], p: int) -> Tuple[Tuple, int]:
    """The lattice key of the entries (their sorted labels,
    `_order_and_class`) and the sum of their orders, read in one pass over
    the entries, each taken through `operator.index` (a numpy integer
    becomes a Python int).  Raises ValueError on an empty sequence or a
    zero entry."""
    if not coeffs or 0 in coeffs:
        raise ValueError(f"coefficients must be a nonempty list of nonzero "
                         f"integers, got {tuple(coeffs)}")
    labels, depth = [], 0
    for a in coeffs:
        label = _order_and_class(index(a), p)
        labels.append(label)
        depth += label[0]
    labels.sort()
    return tuple(labels), depth


def _lattice_key(coeffs: Sequence[int], p: int) -> Tuple:
    """The sorted labels (`_order_and_class`) of the entries."""
    return _key_and_depth(coeffs, p)[0]


def _stable_pair(i1: int, i2: int, p: int) -> bool:
    """Whether the unimodular binary <u1, u2> of unit classes i1, i2 makes a
    ternary lattice p-stable at any depth of its third entry (`is_stable`):
    -u1 u2 is a square at odd p, which holds iff i1 xor i2 = [p = 3 mod 4]
    since (-1 | p) = -1 iff p = 3 (mod 4); u1 u2 = 3 (mod 4) at p = 2, which
    holds iff i1 xor i2 is odd since 2 i + 1 = 3 (mod 4) iff i is odd."""
    if p == 2:
        return (i1 ^ i2) & 1 == 1
    return i1 ^ i2 == (p % 4 == 3)


def _coord_indicator(a: int, p: int, M: int) -> np.ndarray:
    """0/1 array ind[r] = 1 iff r = a x^2 (mod p^M) for some x in Z_p."""
    import numpy as np

    mod = p ** M
    if mod > _FFT_LIMIT:
        raise ModulusTooLarge(f"p^M = {p}^{M} exceeds the FFT limit")
    xs = np.arange(mod, dtype=np.int64)
    vals = (int(a) % mod) * (xs * xs % mod) % mod  # < mod^2 <= 2^44
    ind = np.zeros(mod, dtype=np.float64)
    ind[vals] = 1.0
    return ind

def _convolve_presence(ind1: np.ndarray, ind2: np.ndarray) -> np.ndarray:
    """Circular convolution of two 0/1 arrays, squashed back to 0/1.
    Raises FloatingPointError when a count is not within 0.25 of an
    integer."""
    import numpy as np

    mod = len(ind1)
    raw = np.fft.irfft(np.fft.rfft(ind1) * np.fft.rfft(ind2), n=mod)
    counts = np.rint(raw)
    if np.max(np.abs(raw - counts)) >= 0.25:
        raise FloatingPointError("FFT roundoff out of tolerance")
    return (counts > 0.5).astype(np.float64)


# Class sums of `_value_set`.  A class set is a list of bitmasks, one per
# order k < M, of class indices i (`_order_and_class`), plus a flag for
# residue 0 mod p^M.  For two classes d < rho orders apart, rho =
# len(near), near[d][i][j] = (off, mask, tail) says that p^k (U_i + p^d U_j)
# meets the classes of mask at order k + off and, when tail, every element
# of order >= k + rho, and 0.

def _near_sums_2():
    table = []
    for d in range(3):
        table.append([])
        for c1 in (1, 3, 5, 7):
            row = []
            for c2 in (1, 3, 5, 7):
                t = (c1 + (c2 << d)) % 8
                if t % 2:  # a unit: its own class
                    row.append((0, 1 << (t >> 1), False))
                elif t % 4:  # 2 (w + 4 Z_2): the classes w and w + 4
                    w = t // 2
                    row.append((1, 1 << (w >> 1) | 1 << ((w + 4) >> 1), False))
                elif t:  # 4 (1 + 2 Z_2): every class
                    row.append((2, 0b1111, False))
                else:
                    row.append((0, 0, True))
            table[-1].append(row)
    return table

_NEAR_SUMS_2 = _near_sums_2()
_BITS = [[i for i in range(4) if m >> i & 1] for m in range(16)]


def _near_sums_odd(p: int):
    """near[0] at an odd prime p, from the count of unit pairs (x, y) mod p
    with s_i x^2 + s_j y^2 = t, s_0 = 1 and s_1 = -1 standing for the
    Legendre symbols (proof in `_value_set`)."""
    chi = 1 if p % 4 == 1 else -1  # (-1 | p)
    signs = (1, -1)
    return [[[(0, sum(1 << i for i, s in enumerate(signs)
                      if p - 2 - chi * si * sj - s * (si + sj) > 0),
               chi * si == sj)
              for sj in signs] for si in signs]]


def _add_coordinate(acc: List[int], zero: bool, e: int, i: int,
                    near) -> Tuple[List[int], bool]:
    """The class set (acc, zero) plus {p^e u x^2 : x in Z_p}, u of class i:
    the classes (e + 2t, i), t >= 0, and 0."""
    M, rho = len(acc), len(near)
    out, out_zero = acc[:], zero  # x = 0
    deepest = max((k for k in range(M) if acc[k]), default=-M)
    tail = M + 1
    for k2 in range(e, M, 2):
        if zero or deepest >= k2 + rho:
            out[k2] |= 1 << i
        for k1 in range(max(k2 - rho + 1, 0), min(k2 + rho, M)):
            for j in _BITS[acc[k1]]:
                if k1 < k2:
                    k, (off, mask, t_tail) = k1, near[k2 - k1][j][i]
                else:
                    k, (off, mask, t_tail) = k2, near[k1 - k2][i][j]
                if k + off < M:
                    out[k + off] |= mask
                elif mask:
                    out_zero = True
                if t_tail and k + rho < tail:
                    tail = k + rho
    if tail <= M:
        out[tail:] = [(1 << len(near[0])) - 1] * (M - tail)  # every class
        out_zero = True
    return out, out_zero


@functools.lru_cache(maxsize=None)
def _value_set(p: int, lattice_key: Tuple) -> Tuple[int, ...]:
    """The descriptor of the lattice key, a tuple of ints: T[k] for
    k < K + 2, K = 2 ord_p(2 a) + 1 of the deepest entry a, is the bitmask
    of the class indices c (`_order_and_class`) such that the lattice
    represents the elements p^k u, u a unit of class c; T[k] = T[k - 2] for
    larger k (period argument in the module docstring).  A tuple, so the
    cache can hand the same descriptor to every caller.

    T is folded from the pivot sets S_i, the values Q(x) with x_i a unit,
    which are found in closed form.  S_i is closed under multiplication by
    unit squares (scale every x_j by one unit), so it is a union of classes
    (k, c), with c read mod p^rho, rho = 1 at odd p and rho = 3 at p = 2.
    Membership in S_i is decided mod p^M, M = 2 ord_p(2 a_i) + 1, so only
    the classes of order k < M matter, and whether S_i meets residue 0:
    an element of order >= M is 0 mod p^M.

    Per coordinate, x_i a unit gives the one class (e_i, [u_i]); any other
    coordinate gives the classes (e_j + 2t, [u_j]) (x of order t) and 0.
    S_i is their sum, folded one coordinate at a time (`_add_coordinate`),
    and a sum of two sets is the union of the sums of their classes.  Two
    classes (k1, c1) and (k2, c2), k1 <= k2, d = k2 - k1, sum to
    p^k1 (U1 + p^d U2), U1 and U2 the units of the classes:
      - d >= rho: u1 + p^d u2 = u1 (mod p^rho), so the sum lies in (k1, c1)
        and fills it (u1 = w - p^d u2 meets every w of the class).  A value
        of order >= M acts the same way mod p^M.
      - d < rho: a class is closed under adding p^rho Z_p, so U1 + p^d U2
        is the union of the sets t + p^rho Z_p over its residues t mod
        p^rho.  For a unit t, p^k1 (t + p^rho Z_p) is the class (k1, [t]).
        At p = 2 and t = 2^s w, s in {1, 2}, it holds the classes = w
        (mod 2^(3 - s)) at order k1 + s.  For t = 0 it holds every element
        of order >= k1 + rho, and 0.  At p = 2, t is the one residue
        c1 + 2^d c2 mod 8 (`_near_sums_2`).  At odd p (d = 0), t = 0 is
        met iff -u1 u2 is a square, and t != 0 of Legendre symbol s is met
        iff some units x, y mod p have u1 x^2 + u2 y^2 = t: their count is
        p - 2 - (-1|p) s1 s2 - s (s1 + s2), the p - (-u1 u2 | p) points of
        a smooth conic less the 2 + s s1 + s s2 on its axes
        (`_near_sums_odd`).
    An element p^k v of order k < M is in S_i iff v mod p^(M - k) agrees
    with a class of S_i at order k.  At p = 2 with M - k < 3 that reads
    a class mod less than 8, yet S_i already holds every class agreeing
    with one of its own: a_i x_i^2 sweeps a_i x_i^2 (1 + 8 Z_2) as the
    unit x_i varies, so S_i is closed under adding 2^(e_i + 3) Z_2, which
    moves the unit part at order k by 2^(e_i + 3 - k) Z_2, and
    e_i + 3 <= M.  Every element of order >= M is in S_i iff S_i meets
    residue 0 mod p^M.  The tests check the verdicts against the FFT
    convolutions of `_coord_indicator`.

    Unbounded: descriptors are a few integers, and a bounded cache kept
    missing on workloads that return to lattices seen long before."""
    near = _NEAR_SUMS_2 if p == 2 else _near_sums_odd(p)
    every = (1 << len(near[0])) - 1
    K = 2 * (lattice_key[-1][0] + (p == 2)) + 1  # the key is sorted
    V = [0] * (K + 2)  # the classes of S_1 u ... u S_r per order
    for i, (e, c) in enumerate(lattice_key):
        if i and lattice_key[i] == lattice_key[i - 1]:
            continue  # equal entries have equal pivot sets
        M = 2 * (e + (p == 2)) + 1
        acc, zero = [0] * M, False
        acc[e] = 1 << c
        for j, (ej, cj) in enumerate(lattice_key):
            if j != i:
                acc, zero = _add_coordinate(acc, zero, ej, cj, near)
        for k, mask in enumerate(acc):
            V[k] |= mask
        if zero:
            V[M:] = [every] * (K + 2 - M)
    for k in range(2, K + 2):  # T[k] = V[k] | T[k - 2]
        V[k] |= V[k - 2]
    return tuple(V)


# --------------------------------------------------------------------------
# public decision procedures

def hensel_exponent(coeffs: Sequence[int], n: int, p: int) -> int:
    """Smallest K this module guarantees: a witness mod p^K exists iff n is
    represented, and every witness then has a liftable coordinate.  Raises
    ValueError unless p is a prime, and as the lattice key does."""
    _check_prime(p)
    wn = 0 if n == 0 else ord_p(n, p)
    # the key is sorted: its last label is the deepest entry's
    return wn + _lattice_key(coeffs, p)[-1][0] + 2 * ord_p(2, p) + 1

def conservative_exponent(coeffs: Sequence[int], n: int, p: int) -> int:
    """The simpler, larger exponent used by the reference search:
    ord_p(n) + 2 ord_p(2 prod a_i) + 3.  Always >= hensel_exponent.
    Raises ValueError unless p is a prime, and as the lattice key does."""
    _check_prime(p)
    _lattice_key(coeffs, p)  # raises on no entries or a zero entry
    wn = 0 if n == 0 else ord_p(n, p)
    prod = 2 * math.prod(abs(a) for a in coeffs)
    return wn + 2 * ord_p(prod, p) + 3


def _verdict(coeffs: Sequence[int], n: int, p: int) -> Tuple[bool, int]:
    """(represented, conservative_exponent) for n and the entries at a
    prime p that the caller has checked: the labels, the key and the sum
    of the orders come from one pass (`_key_and_depth`), and the verdict
    is the label of n and one lookup in the key's descriptor."""
    key, depth = _key_and_depth(coeffs, p)
    K = 2 * (depth + (p == 2)) + 3  # conservative_exponent at ord_p n = 0
    if not n:
        return True, K
    wn, c = _order_and_class(n, p)
    T = _value_set(p, key)
    top = len(T) - 2  # T has period 2 from this order on
    return T[min(wn, top + (wn - top) % 2)] >> c & 1 == 1, wn + K


def represents_over_zp(coeffs: Sequence[int], n: int, p: int,
                       want_witness: bool = False) -> LocalVerdict:
    """Does <a_1,...,a_k> represent n over Z_p?  Exact verdict.

    `coeffs` is the sequence of nonzero entries a_i (negative entries
    allowed; Z_p has no signs); numpy integers are accepted throughout.
    The witness, when requested and the search box is feasible, is a vector
    mod p^hensel_exponent passing the lifting criterion, the first of the
    box in lexicographic order (one `represents_mod_search`, complete
    there, in Python integers; a larger exponent only widens a refused
    box); else the exponent is conservative.
    """
    n, p = index(n), index(p)
    _check_prime(p)
    coeffs = tuple(coeffs)
    rep, K = _verdict(coeffs, n, p)
    if not (rep and want_witness):
        return LocalVerdict(p, rep, None, K)
    try:
        found = represents_mod_search(coeffs, n, p,
                                      hensel_exponent(coeffs, n, p))
    except ModulusTooLarge:
        return LocalVerdict(p, rep, None, K)
    assert found.witness is not None, "search complete yet witnessless"
    return found


def represents_mod_search(coeffs: Sequence[int], n: int, p: int,
                          K: Optional[int] = None) -> LocalVerdict:
    """Literal reference: exhaustive grid search mod p^K with the explicit
    lifting criterion, some coordinate with 2 ord_p(2 a_i x_i) + 1 <= K
    (2 a_i x_i = 0 mod p^K counts as order K).  Sound for every K; complete
    for K >= hensel_exponent (the default conservative K qualifies).  Only
    for boxes of at most 4 10^6 points.

    The witness is the first hit of the box in lexicographic order.  The
    last coordinate is one table, residue a_k x^2 mod p^K -> (least x,
    least x passing the criterion), and the other coordinates run in
    lexicographic order: a head that passes the criterion takes the least
    x_k, any other head the least x_k that passes it.
    """
    coeffs = tuple(map(index, coeffs))
    n, p = index(n), index(p)
    if K is None:
        K = conservative_exponent(coeffs, n, p)
    if n == 0:
        return LocalVerdict(p=p, represented=True, witness=(0,) * len(coeffs),
                            modulus_exponent=K)
    mod = p ** K
    if mod ** len(coeffs) > 4 * 10 ** 6:
        raise ModulusTooLarge(f"grid p^(K*rank) = {p}^{K * len(coeffs)} too large")

    def lifts(a: int, x: int) -> bool:
        t, s = 2 * a * x % mod, 0
        while t and t % p == 0:
            t //= p
            s += 1
        return t != 0 and 2 * s + 1 <= K

    *heads, last = coeffs
    if not heads:  # the table alone: its first hit, without the rest of it
        x = next((x for x in range(mod // 2 + 1)
                  if (last * x * x - n) % mod == 0 and lifts(last, x)), None)
        return LocalVerdict(p=p, represented=x is not None,
                            witness=None if x is None else (x,),
                            modulus_exponent=K)
    table = {}
    # x and mod - x have one residue and one criterion, so the least x of
    # each kind lies in [0, mod / 2]
    for x in range(mod // 2 + 1):
        entry = table.setdefault(last * x * x % mod, [x, None])
        if entry[1] is None and lifts(last, x):
            entry[1] = x
    squares = [[a * x * x % mod for x in range(mod)] for a in heads]
    lifting = [[lifts(a, x) for x in range(mod)] for a in heads]
    for head in product(range(mod), repeat=len(heads)):
        rest = (n - sum(sq[x] for sq, x in zip(squares, head))) % mod
        if rest in table:
            least, least_lifting = table[rest]
            if not any(ok[x] for ok, x in zip(lifting, head)):
                least = least_lifting
            if least is not None:
                return LocalVerdict(p=p, represented=True,
                                    witness=(*head, least), modulus_exponent=K)
    return LocalVerdict(p=p, represented=False, modulus_exponent=K)


def represents_reference_fft(coeffs: Sequence[int], n: int, p: int,
                             K: Optional[int] = None) -> bool:
    """Second reference: plain witness existence mod p^K (no lifting logic),
    valid because K >= hensel_exponent is enforced: a smaller K raises
    ValueError."""
    coeffs = tuple(coeffs)
    if n == 0:
        return True
    if K is None:
        K = conservative_exponent(coeffs, n, p)
    least = hensel_exponent(coeffs, n, p)
    if K < least:
        raise ValueError(f"the FFT reference needs K >= {least}, got K = {K}")
    acc = _coord_indicator(coeffs[0], p, K)
    for a in coeffs[1:]:
        acc = _convolve_presence(acc, _coord_indicator(a, p, K))
    return bool(acc[n % (p ** K)] > 0.5)


# --------------------------------------------------------------------------
# stability and anisotropy

def is_stable(coeffs: Sequence[int], p: int) -> bool:
    """p-stability of a ternary diagonal lattice, read from its lattice key.

    Odd p: stable means <1,-1> embeds (the hyperbolic case, with value set
    all of Z_p), or the Jordan shape is exactly (unimodular rank-2
    anisotropic) perp <p*unit>.  p = 2: stable means K_2 is unimodular or
    represents <1,3> or <1,7>.  For a diagonal lattice both are decided by
    the unimodular rank r0 and, at r0 = 2, by the two units u1, u2 and the
    order of the third entry:
      - r0 = 3: stable (at odd p isotropic by counting points mod p);
      - r0 <= 1: no unimodular binary sublattice, not stable;
      - r0 = 2: stable iff the third entry has ord_p exactly 1, or else
        -u1 u2 is a square (the hyperbolic case) at odd p, and
        u1 u2 = 3 (mod 4) at p = 2.  (When u1 u2 = 3 mod 4 the binary
        <u1,u2> takes every odd class mod 8, so it contains <1,w> with w in
        {3,7}; when the third entry has ord_2 = 1 the lattice is <1> perp M
        with M of determinant order 1, and M takes a value in {3,7} at odd
        coordinates.  When u1 u2 = 1 mod 4 and the third entry has
        ord_2 >= 2 every odd value is = u1 mod 4, so 3 or 7 mod 8 cannot
        both appear.)
    The key holds the class indices of u1 and u2, and `_stable_pair` reads
    the r0 = 2 condition from them.
    Raises ValueError unless the rank is 3 and p is a prime.
    """
    coeffs, p = tuple(coeffs), index(p)
    if len(coeffs) != 3:
        raise ValueError(f"stability is defined for ternary lattices, got {coeffs}")
    _check_prime(p)
    (_, i1), (e2, i2), (e3, _) = _lattice_key(coeffs, p)
    if e2 > 0:
        return False
    return e3 <= 1 or _stable_pair(i1, i2, p)


def stable_value_set_check(coeffs: Sequence[int], p: int, gamma: int) -> bool:
    """Membership of gamma in the closed-form value-set description of a
    stable lattice.

    Odd p, hyperbolic case: Q(K_p) = Z_p, everything is in.  Odd p,
    anisotropic case <u1,u2> perp <p u3>: exactly the class
    p * u3 * (-u1 u2) * squares is excluded, i.e. gamma is out iff
    ord_p(gamma) is odd and its unit part lies in the square class of
    -u1 u2 u3.

    For p = 2 there are three shapes.  A unimodular isotropic completion
    splits a hyperbolic plane and represents everything.  A unimodular
    anisotropic completion is isometric to the even block A perp <eps>
    (A = (2,1;1,2), 3*eps = det modulo squares) whose value set excludes
    exactly the class (eps+4) * squares; the diagonal lattice <1,1,1> with
    its missing 4^a(8b+7) is the familiar instance.  In the remaining
    2-stable shapes (a non-unimodular Jordan piece is present) only the
    one-sided guarantee "every gamma of even order is represented" is
    available, so a False there means "no claim", not "excluded".

    On class indices (`_order_and_class`): at odd p the class of
    -u1 u2 u3 is i1 xor i2 xor i3 xor [p = 3 mod 4], as (u | p) = (-1)^i;
    at p = 2, eps = 3 (2 i1 + 1)(2 i2 + 1)(2 i3 + 1) mod 8.
    Raises ValueError on a lattice that is not p-stable.
    """
    coeffs, p, gamma = tuple(coeffs), index(p), index(gamma)
    if not is_stable(coeffs, p):
        raise ValueError(f"{p}-stable lattices only, got {coeffs}")
    if gamma == 0:
        return True
    (_, i1), (_, i2), (e3, i3) = _lattice_key(coeffs, p)
    g_ord, g_class = _order_and_class(gamma, p)
    if p == 2:
        if e3 > 0:
            return g_ord % 2 == 0
        if not is_anisotropic_ternary(coeffs, 2):
            return True
        eps = 3 * (2 * i1 + 1) * (2 * i2 + 1) * (2 * i3 + 1) % 8
        return not (g_ord % 2 == 0 and g_class == _order_and_class(eps + 4, 2)[1])
    if e3 == 0 or _stable_pair(i1, i2, p):
        return True  # hyperbolic plane inside: value set is all of Z_p
    return not (g_ord % 2 == 1 and g_class == i1 ^ i2 ^ i3 ^ (p % 4 == 3))


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p over Q_p, via the standard closed forms in
    the labels (alpha, i) of a and (beta, j) of b (`_order_and_class`), with
    u, v the unit parts.  At p = 2, (u - 1) / 2 = i and (u^2 - 1) / 8 =
    [i in {1, 2}] (mod 2), as u = 2 i + 1 (mod 8); at odd p,
    (u | p) = (-1)^i.  Raises ValueError for a zero argument or a non-prime
    p."""
    a, b, p = index(a), index(b), index(p)
    if a == 0 or b == 0:
        raise ValueError(f"the Hilbert symbol needs nonzero a, b, got {a}, {b}")
    _check_prime(p)
    (alpha, i), (beta, j) = _order_and_class(a, p), _order_and_class(b, p)
    if p == 2:
        e = i * j + alpha * (j in (1, 2)) + beta * (i in (1, 2))
    else:
        e = alpha * beta * (p - 1) // 2 + beta * i + alpha * j
    return -1 if e % 2 else 1


def is_anisotropic_ternary(coeffs: Sequence[int], p: int) -> bool:
    """No nontrivial zero of a_1 x^2 + a_2 y^2 + a_3 z^2 over Q_p.

    Closed form: a ternary form of determinant d is isotropic over Q_p iff
    its Hasse invariant (a_1, a_2)_p (a_1, a_3)_p (a_2, a_3)_p equals
    (-1, -d)_p.  (Equivalently, by the primitive-zero characterization,
    iff for some i the complementary binary form represents -a_i over
    Z_p; the tests check the two agree.)
    Raises ValueError unless there are three nonzero entries and p is a
    prime.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) != 3 or 0 in coeffs:
        raise ValueError(f"anisotropy needs three nonzero entries, got {coeffs}")
    a1, a2, a3 = coeffs
    hasse = (hilbert_symbol(a1, a2, p) * hilbert_symbol(a1, a3, p)
             * hilbert_symbol(a2, a3, p))
    return hasse != hilbert_symbol(-1, -a1 * a2 * a3, p)


# --------------------------------------------------------------------------
# shifted forms: local representation with the congruence constraint

def _progression_exponent(c: int, p: int) -> int:
    """e with { (c x + alpha)^2 : x in Z_p } = alpha^2 + p^e Z_p for any
    alpha coprime to c, at a prime p | c that the caller has checked:
    e = ord_p c at odd p; at 2, ord_2 c + 2 when c = 2 (mod 4), else
    ord_2 c + 1."""
    w = ord_p(c, p)
    if p != 2:
        return w
    return w + 2 if w == 1 else w + 1


def _shifted_congruence(g, p: int) -> Tuple[int, int]:
    """(mod, base) with: sum a_i (c x_i + alpha_i)^2 = N is solvable over
    Z_p iff N = base (mod mod), for a prime p | c that the caller has
    checked.

    Each alpha_i is a p-unit (`ShiftedForm` requires gcd(alpha_i, c) = 1),
    so {(c x + alpha_i)^2 : x in Z_p} = alpha_i^2 + p^e Z_p with
    e = `_progression_exponent(c, p)`, and coordinate i sweeps
    a_i alpha_i^2 + p^(e + ord_p a_i) Z_p.  The sum of these balls is
    base + p^(e + min ord_p a_i) Z_p with base = sum a_i alpha_i^2, and
    min ord_p a_i is the order of gcd(a_i) (the entries of a `ShiftedForm`
    are positive, so the gcd is nonzero).
    """
    mod = p ** (_progression_exponent(g.conductor, p)
                + ord_p(math.gcd(*g.coeffs), p))
    return mod, sum(map(mul, g.coeffs, map(mul, g.shifts, g.shifts))) % mod


def shifted_represents_over_zp(g, N: int, p: int) -> bool:
    """Does sum a_i (c x_i + alpha_i)^2 = N have a solution over Z_p?

    For p not dividing c the substitution z = c x + alpha is a bijection of
    Z_p, so this is the plain lattice verdict (`_verdict`); for p | c the
    congruence constraint is kept and decided by `_shifted_congruence`.
    Raises ValueError unless p is a prime, whether or not it divides c.
    """
    N, p = index(N), index(p)
    _check_prime(p)
    if g.conductor % p:
        return _verdict(g.coeffs, N, p)[0]
    mod, base = _shifted_congruence(g, p)
    return (N - base) % mod == 0


# --------------------------------------------------------------------------
# the reference of the range verdicts

def locally_represented_rows(m: int, coeff_rows: Sequence[Sequence[int]],
                             ns: Sequence[int]) -> List[List[bool]]:
    """ok[i][j]: is ns[j] represented by the m-gonal form with coefficients
    coeff_rows[i] over R and over every Z_p?

    Via the coset translation this is: N = mu n + d^2 sum a_i >= 0 (which is
    exactly representability over R) and N is represented by the shifted
    form at every prime p | 2 c prod(a_i).  No other prime can exclude N
    at rank >= 3 (proof in the module docstring), so a row of lower rank
    raises ValueError; rows of different ranks may share a call.

    The literal definition, row by row, prime by prime and target by
    target: at p | c the `_shifted_congruence` of the row's shifted form,
    at other p the label of each target read in the row's descriptor along
    its period 2, as `_verdict` reads it.  It is the reference the tests
    hold `locally_represented_bits` to, and calls nothing of that engine.
    Entries and targets are read as Python ints (`operator.index`), so a
    float or string target raises TypeError, and any size is answered.
    """
    from .polygonal import MGonalForm, constants, form_to_shifted

    k = constants(m)
    forms = [MGonalForm(m, row) for row in coeff_rows]
    for f in forms:
        if f.rank < 3:
            raise ValueError(f"local verdicts need rank >= 3, got rank "
                             f"{f.rank} in {f.coeffs}")
    targets = [index(n) for n in ns]
    d2 = k.d * k.d
    ok = []
    for f in forms:
        off = d2 * sum(f.coeffs)
        Ns = [k.mu * n + off for n in targets]
        flags = [N >= 0 for N in Ns]
        for p in prime_divisors(2 * k.c * math.lcm(*f.coeffs)):
            if k.c % p == 0:
                mod, base = _shifted_congruence(form_to_shifted(f), p)
                flags = [flag and (N - base) % mod == 0
                         for flag, N in zip(flags, Ns)]
                continue
            T = _value_set(p, _lattice_key(f.coeffs, p))
            if T.count(15 if p == 2 else 3) == len(T):
                continue  # every class at every order: Z_p is covered
            top = len(T) - 2  # T has period 2 from this order on
            for j, N in enumerate(Ns):
                if flags[j] and N:
                    wn, c = _order_and_class(N, p)
                    flags[j] = T[min(wn, top + (wn - top) % 2)] >> c & 1 == 1
        ok.append(flags)
    return ok


# --------------------------------------------------------------------------
# range verdicts as bitsets

def _periodic(pattern: int, period: int, width: int) -> int:
    """The bits of `pattern`, all below `period`, repeated with that period
    and cut to `width` bits."""
    while period < width:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << width) - 1)


def _exclusions(p: int, mu: int, width: int):
    """excluded(key, off) -> the bitset of the j in [0, width) whose target
    t = mu j + off the lattice key misses at p, for a prime p not dividing
    mu.  Made once per prime of a call, and shared by its rows.

    Mod P = p^(k + rho), rho = 3 at p = 2 and 1 at odd p, t has the label
    (k, i) iff mu j + off = p^k r for a unit r mod p^rho of class i, so
    the j of one label are a union of classes mod P.  Below `top`, the
    least order whose P passes the window, every such P divides one
    `period`, so a descriptor's missing places at those orders are one
    periodic bitset: built once per descriptor for off = 0, and shifted
    right by off mu^-1 mod `period` for each offset.  From `top` on, at
    most p^rho targets per offset have p^top | t; they are listed and
    labelled exactly (`_order_and_class`) once per offset.  The missing
    places come from the key's descriptor, read along its period 2, and a
    place is looked at only where the descriptor misses a class; t = 0 is
    always represented.  Rows with equal descriptors and offsets share
    one answer."""
    rho, every = (3, 15) if p == 2 else (1, 3)
    top = 0
    while p ** (top + rho) <= width:
        top += 1
    period, step = p ** (top + rho - 1) if top else 1, p ** top
    inv = pow(mu, -1, p ** (top + rho))
    full = (1 << width) - 1
    units, classes, reads, deep, done = {}, {}, {}, {}, {}

    def class_bits(k: int, i: int) -> int:
        """The j of label (k, i) for off = 0, over one `period`."""
        if (k, i) in classes:
            return classes[k, i]
        if i not in units:  # the units mod p^rho of class i
            squares = {x * x % p for x in range(1, p // 2 + 1)}
            units[i] = ([2 * i + 1] if p == 2 else
                        [r for r in range(1, p) if (r in squares) != i])
        P, q = p ** (k + rho), p ** k
        place = bytearray(P // 8 + 1)
        for r in units[i]:
            j = inv * q * r % P
            place[j >> 3] |= 1 << (j & 7)
        classes[k, i] = _periodic(int.from_bytes(place, "little"), P, period)
        return classes[k, i]

    def read(T: Tuple[int, ...]):
        """(missed, at, last, beyond) of a descriptor T: its missing
        places below `top` as one periodic bitset over width + period,
        T per order up to where its period 2 has begun (from `last` on)
        and past `top`, and whether it misses a class past `top`."""
        last = len(T) - 2  # T has period 2 from this order on
        at = [T[k] if k < len(T) else T[last + (k - last) % 2]
              for k in range(max(top, last) + 2)]
        missed = 0
        for k in range(top):
            for i in _BITS[every & ~at[k]]:
                missed |= class_bits(k, i)
        return (_periodic(missed, period, width + period) if missed else 0,
                at, last, any(T_k != every for T_k in at[top:]))

    def excluded(key: Tuple, off: int) -> int:
        T = _value_set(p, key)
        if (T, off) in done:
            return done[T, off]
        if T not in reads:
            reads[T] = read(T)
        missed, at, last, beyond = reads[T]
        out = missed >> off * inv % period & full
        if beyond:
            if off not in deep:
                deep[off] = [(j, *_order_and_class(mu * j + off, p))
                             for j in range(-off * inv % step, width, step)
                             if mu * j + off]
            for j, k, i in deep[off]:
                if not at[min(k, last + (k - last) % 2)] >> i & 1:
                    out |= 1 << j
        done[T, off] = out
        return out

    return excluded


def locally_represented_bits(m: int, coeff_rows: Sequence[Sequence[int]],
                             lo: int, hi: int) -> List[int]:
    """One bitset per coefficient row: bit j is set when n = lo + j,
    lo <= n <= hi, is represented by the m-gonal form of that row over R
    and over every Z_p: N >= 0 and `shifted_represents_over_zp` at every
    p | 2 c lcm(row), which the reference `locally_represented_rows`
    writes out target by target.  Both work in Python integers and answer
    at any size.  The cost is the factorization of 2 c lcm(rows), by
    trial division, and bitsets of hi - lo + 1 bits.

    Row i's target is N = mu j + off_i, off_i = d^2 sum a_i + mu lo.
    Over R, N >= 0 is a run of the high bits.  At p | c the shift is
    alpha = |d|, so the `_shifted_congruence` of a row reads mu n = 0
    (mod p^(e + v)), e = `_progression_exponent(c, p)` and
    v = ord_p gcd(row).  p^e exactly divides mu for every m: at odd p,
    e = ord_p c = ord_p mu; at 2, delta = 4 gives e = 3 = ord_2 mu, and
    delta = 2 forces ord_2 c >= 2, so e = ord_2 c + 1 = ord_2 mu.  So the
    congruence reads p^v | n: a progression, and no constraint on a row
    that p does not divide whole.  At other p, mu is a p-unit, and the
    rows that p can exclude (an entry divisible by p, or p = 2) read
    `_exclusions`, made once per prime.  Entries are read as Python
    ints, numpy rows too.  Raises ValueError for a row of rank below 3."""
    from .polygonal import _check_coefficients, constants

    k = constants(m)
    rows = [tuple(map(index, row)) for row in coeff_rows]
    for row in rows:
        _check_coefficients(row)
        if len(row) < 3:
            raise ValueError(f"local verdicts need rank >= 3, got rank "
                             f"{len(row)} in {row}")
    lo, hi = index(lo), index(hi)
    width = hi - lo + 1
    if not rows or width < 1:
        return [0] * len(rows)
    d2, mu = k.d * k.d, k.mu
    full = (1 << width) - 1
    offs = [d2 * sum(row) + mu * lo for row in rows]
    # N >= 0 from j = ceil(-off / mu) on
    out = [full >> j << j for j in (min(width, max(0, -(off // mu)))
                                     for off in offs)]
    vals = sorted({a for row in rows for a in row})
    primes = prime_divisors(2 * k.c * math.lcm(*vals))
    divisors = {a: [p for p in primes if a % p == 0] for a in vals}
    hit = {p: [] for p in primes}  # the rows with an entry p divides
    for i, row in enumerate(rows):
        for p in set(chain.from_iterable(map(divisors.__getitem__, row))):
            hit[p].append(i)
    for p in primes:
        if k.c % p == 0:
            for i in hit[p]:
                g = math.gcd(*rows[i])
                if g % p == 0:  # p divides the whole row
                    q = p ** ord_p(g, p)
                    j = -lo % q  # the first n = lo + j that q divides
                    out[i] &= _periodic(1 << j, q, width) if j < width else 0
            continue
        need = range(len(rows)) if p == 2 else hit[p]
        labels = {a: _order_and_class(a, p)
                  for a in {a for i in need for a in rows[i]}}
        excluded = _exclusions(p, mu, width)
        for i in need:
            key = tuple(sorted(map(labels.__getitem__, rows[i])))
            out[i] &= ~excluded(key, offs[i])
    return out


def locally_represented(f, n: int) -> bool:
    """Is n represented by the m-gonal form f over R and over every Z_p?
    The one-row, one-target case of `locally_represented_bits`."""
    return locally_represented_bits(f.m, [f.coeffs], n, n)[0] == 1
