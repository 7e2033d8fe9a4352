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
the descriptor that `_value_set` builds once per (p, key) by summing the
coordinates' classes in closed form (rule and proof in its docstring).
Write V[k] for the classes of S_1 u ... u S_r at order k and K = max M_i.
Every S_i is all or nothing at orders >= M_i, so V[k] is one constant for
k >= K; and T[k] = V[k] | T[k - 2].  Hence T[K + 2] = T[K] and
T[K + 3] = T[K + 1]: T has period 2 from order K on, and K + 2 entries
describe it.  A verdict is the label of n and one lookup in T, at any
depth and any p, with no residue array.  The key is the one description
of a diagonal lattice at p in the package: `is_stable` and
`stable_value_set_check` read it too, and the tests hold the latter
against the descriptor.

Scans ask the same question for many targets at once.
`represents_over_zp_many` reads the same descriptor with numpy over an
array of targets, without a Python call per target.

A shifted form sum a_i (c x_i + alpha_i)^2 needs no descriptor at a prime
p | c: each alpha_i is a p-unit (the shifts are coprime to c), so
(c x + alpha_i)^2 sweeps alpha_i^2 + p^e Z_p, e = `progression_exponent`,
and the sum of the coordinates' balls gives the exact congruence

    N is represented  <=>  N = sum a_i alpha_i^2 (mod p^(e + min ord_p a_i))

(`_shifted_congruence`).

`locally_represented_rows` combines the two for a batch of m-gonal forms
of one m (a census decides all its coefficient triples at once), over the
primes p | 2 c prod(a_i).  No other prime needs a test when the rank is at
least 3: at an odd p not dividing c prod(a_i), z = c x + alpha is a
bijection of Z_p, every entry is a p-unit, and a unimodular lattice of
rank >= 3 at odd p is isotropic (Chevalley-Warning), hence splits a
hyperbolic plane and represents all of Z_p.  Below rank 3 this fails
(<1,1> misses 77 over Z_7), so lower ranks raise ValueError.  The batch is
array arithmetic over all rows at once: per prime, the targets are labelled
once per distinct sum a_i (at an odd p below 2^12 from a table of the
labels of the residues mod a power of p, built per call), the descriptors
are fetched once per distinct lattice key and stacked as one bit table,
and the verdicts of every row are one flat gather from it (details in its
docstring).  `locally_represented_many` is the one-row case, and the
scalar `locally_represented` its one-element case.

A literal reference procedure (`represents_mod_search`: grid search mod p^K
plus the lifting criterion (*), following the count of the search space) and
a single-shot FFT reference (`represents_reference_fft`: plain witness
existence mod p^K for K >= hensel_exponent) are kept alongside as
independent oracles for the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .numth import _check_prime, ord_p, prime_divisors

# Largest indicator array the FFT oracle writes (p^K entries).
_FFT_LIMIT = 2 ** 22


class ModulusTooLarge(Exception):
    """A reference oracle would need an infeasible search box or array."""


# --------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class LocalVerdict:
    """Outcome of a local representation query at p.

    When `represented` and a feasible search box exists, `witness` is a
    solution vector mod p^modulus_exponent passing the lifting criterion;
    otherwise witness is None (the verdict itself is exact either way).
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
    (Euler's criterion, so (u | p) = (-1)^i)."""
    e = ord_p(a, p)
    u = a // p ** e
    if p == 2:
        return e, u % 8 >> 1
    return e, int(pow(u, (p - 1) // 2, p) != 1)


def _lattice_key(coeffs: Sequence[int], p: int) -> Tuple:
    """The sorted labels (`_order_and_class`) of the entries."""
    if not coeffs or 0 in coeffs:
        raise ValueError(f"coefficients must be a nonempty list of nonzero "
                         f"integers, got {tuple(coeffs)}")
    return tuple(sorted(_order_and_class(a, p) for a in coeffs))


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


# The residue table of `_orders_and_classes` takes at least O(p) steps to
# build, Euler's criterion about 2 log2 p passes over the array: from
# about here on, the criterion costs less on arrays of a hundred targets.
_SQUARE_TABLE_LIMIT = 2 ** 12


def _orders_and_classes(N: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """`_order_and_class` per entry of a nonzero int64 array, as the arrays
    (ord_p N, class index).

    At p = 2 the order is read off the lowest set bit and the class off the
    next two bits of the unit part.  At an odd p < `_SQUARE_TABLE_LIMIT` =
    2^12 the labels are read from a residue table: for P = p^J, the largest
    power of p at most 2^12 and at most the number of targets (at least p),
    tc[r] = 2 ord_p r + i holds the label of every nonzero residue r mod
    P, since the order of N is below J exactly when N mod P != 0, and then
    N mod P fixes it and the unit part mod p.  The table starts as the
    classes of the residues mod p, repeated; the strided copy
    tc[p::p] = tc[1:P/p] + 2, done J - 1 times, gives the multiples of p
    one order more than their quotients.  Only the targets = 0 (mod P) are
    divided further, and the class of their unit part u is tc[u mod P].
    At larger p the same division gives the unit parts, and their classes
    come from Euler's criterion.  N mod P is read as N - N // P * P, which
    numpy computes faster than `%` on int64."""
    if p == 2:
        k = np.frexp(N & -N)[1] - 1  # N & -N is 2^k, or -2^63 for N = -2^63
        return k, N >> k + 1 & 3  # the unit part is 2 i + 1 (mod 8)
    J, P = 1, p  # P = p past the table limit: no table
    while P * p <= min(_SQUARE_TABLE_LIMIT, N.size):
        J, P = J + 1, P * p
    r = N - N // P * P
    deep = np.flatnonzero(r == 0)  # ord_p N >= J
    u, kd = N[deep] // P, np.full(deep.size, J)
    more = np.flatnonzero(u % p == 0)
    while more.size:
        u[more] //= p
        kd[more] += 1
        more = more[u[more] % p == 0]
    if p < _SQUARE_TABLE_LIMIT:
        squares = np.ones(p, dtype=np.int64)  # the class index per residue
        squares[np.arange(1, p) ** 2 % p] = 0
        tc = np.tile(squares, P // p)
        for _ in range(J - 1):
            tc[p::p] = tc[1:P // p] + 2
        label = tc[r]
        label[deep] = 2 * kd + tc[u % P]
        return label >> 1, label & 1
    k = np.zeros_like(N)
    k[deep] = kd
    r[deep] = u % p
    # Euler's criterion by square and multiply; past 2^31.5 a product of
    # two residues leaves int64, so the entries become Python integers
    base = r if p * p < 2 ** 63 else r.astype(object)
    power, e = np.ones_like(base), (p - 1) // 2
    while e:
        if e & 1:
            power = power * base % p
        base = base * base % p
        e >>= 1
    return k, (power != 1).astype(np.int64)


@functools.lru_cache(maxsize=None)
def _value_set(p: int, lattice_key: Tuple) -> np.ndarray:
    """The descriptor of the lattice key: T[k] for k < K + 2, K =
    2 ord_p(2 a) + 1 of the deepest entry a, is the bitmask of the class
    indices c (`_order_and_class`) such that the lattice represents the
    elements p^k u, u a unit of class c; T[k] = T[k - 2] for larger k
    (period argument in the module docstring).  Read-only, since the cache
    hands the same array to every caller.

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
    T = np.array(V, dtype=np.int64)
    T.flags.writeable = False
    return T


# --------------------------------------------------------------------------
# public decision procedures

def hensel_exponent(coeffs: Sequence[int], n: int, p: int) -> int:
    """Smallest K this module guarantees: a witness mod p^K exists iff n is
    represented, and every witness then has a liftable coordinate."""
    wn = 0 if n == 0 else ord_p(n, p)
    return wn + max(ord_p(a, p) for a in coeffs) + 2 * ord_p(2, p) + 1

def conservative_exponent(coeffs: Sequence[int], n: int, p: int) -> int:
    """The simpler, larger exponent used by the reference search:
    ord_p(n) + 2 ord_p(2 prod a_i) + 3.  Always >= hensel_exponent."""
    wn = 0 if n == 0 else ord_p(n, p)
    prod = 2 * math.prod(abs(a) for a in coeffs)
    return wn + 2 * ord_p(prod, p) + 3


def represents_over_zp(coeffs: Sequence[int], n: int, p: int,
                       want_witness: bool = False) -> LocalVerdict:
    """Does <a_1,...,a_k> represent n over Z_p?  Exact verdict.

    `coeffs` is the sequence of nonzero entries a_i (negative entries
    allowed; Z_p has no signs).  The witness, when requested and the search
    box is feasible, is a vector mod p^conservative_exponent passing the
    lifting criterion.
    """
    _check_prime(p)
    coeffs = tuple(coeffs)
    key = _lattice_key(coeffs, p)
    rep, wn = True, 0
    if n:
        wn, c = _order_and_class(n, p)
        T = _value_set(p, key)
        top = len(T) - 2  # T has period 2 from this order on
        rep = bool(T[min(wn, top + (wn - top) % 2)] >> c & 1)
    witness = None
    # conservative_exponent, read from the key's orders
    K = wn + 2 * (sum(e for e, _ in key) + (p == 2)) + 3
    if rep and want_witness:
        # the tight exponent usually gives a feasible box; both are complete
        for K_w in sorted({hensel_exponent(coeffs, n, p), K}):
            try:
                found = represents_mod_search(coeffs, n, p, K_w)
            except ModulusTooLarge:
                continue
            assert found.witness is not None, "search complete yet witnessless"
            witness, K = found.witness, K_w
            break
    return LocalVerdict(p=p, represented=rep, witness=witness,
                        modulus_exponent=K)


def represents_mod_search(coeffs: Sequence[int], n: int, p: int,
                          K: Optional[int] = None) -> LocalVerdict:
    """Literal reference: exhaustive grid search mod p^K with the explicit
    lifting criterion.  Sound for every K; complete for K >= hensel_exponent
    (the default conservative K qualifies).  Only for small search boxes.
    """
    coeffs = tuple(coeffs)
    if K is None:
        K = conservative_exponent(coeffs, n, p)
    if n == 0:
        return LocalVerdict(p=p, represented=True, witness=(0,) * len(coeffs),
                            modulus_exponent=K)
    mod = p ** K
    if mod ** len(coeffs) > 4 * 10 ** 6:
        raise ModulusTooLarge(f"grid p^(K*rank) = {p}^{K * len(coeffs)} too large")
    grids = np.meshgrid(*[np.arange(mod, dtype=np.int64)] * len(coeffs),
                        indexing="ij")
    total = np.zeros_like(grids[0])
    for a, g in zip(coeffs, grids):
        total = (total + (int(a) % mod) * (g * g % mod)) % mod
    ok = total == (n % mod)
    # lifting criterion: some coordinate with 2 ord_p(2 a_i x_i) + 1 <= K
    liftable = np.zeros_like(ok)
    for a, g in zip(coeffs, grids):
        t = (2 * int(a) % mod) * g % mod
        sig = np.full(g.shape, K, dtype=np.int64)  # residue 0 -> ord >= K
        cur = t.copy()
        for s in range(K):
            nz = cur % p != 0
            sig = np.where((sig == K) & nz, s, sig)
            cur //= p
        liftable |= 2 * sig + 1 <= K
    hits = ok & liftable
    if not hits.any():
        return LocalVerdict(p=p, represented=False, modulus_exponent=K)
    idx = np.unravel_index(np.argmax(hits), hits.shape)
    witness = tuple(int(g[idx]) for g in grids)
    return LocalVerdict(p=p, represented=True, witness=witness,
                        modulus_exponent=K)


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
    coeffs = tuple(coeffs)
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
    coeffs = tuple(coeffs)
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
        return not (g_ord % 2 == 0 and g_class == (eps + 4) % 8 >> 1)
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
    if a == 0 or b == 0:
        raise ValueError(f"the Hilbert symbol needs nonzero a, b, got {a}, {b}")
    _check_prime(p)
    (alpha, i), (beta, j) = _order_and_class(a, p), _order_and_class(b, p)
    if p == 2:
        e = i * j + alpha * (j in (1, 2)) + beta * (i in (1, 2))
    else:
        e = alpha * beta * (p - 1) // 2 + beta * i + alpha * j
    return -1 if e % 2 else 1


def hasse_invariant(coeffs: Sequence[int], p: int) -> int:
    """prod_{i<j} (a_i, a_j)_p."""
    eps = 1
    for i in range(len(coeffs)):
        for j in range(i + 1, len(coeffs)):
            eps *= hilbert_symbol(coeffs[i], coeffs[j], p)
    return eps


def is_anisotropic_ternary(coeffs: Sequence[int], p: int) -> bool:
    """No nontrivial zero of a_1 x^2 + a_2 y^2 + a_3 z^2 over Q_p.

    Closed form: a ternary form of determinant d is isotropic over Q_p iff
    its Hasse invariant equals (-1, -d)_p.  (Equivalently, by the
    primitive-zero characterization, iff for some i the complementary
    binary form represents -a_i over Z_p; the tests check the two agree.)
    Raises ValueError unless there are three nonzero entries and p is a
    prime.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) != 3 or 0 in coeffs:
        raise ValueError(f"anisotropy needs three nonzero entries, got {coeffs}")
    d = coeffs[0] * coeffs[1] * coeffs[2]
    return hasse_invariant(coeffs, p) != hilbert_symbol(-1, -d, p)


# --------------------------------------------------------------------------
# shifted forms: local representation with the congruence constraint

def progression_exponent(c: int, p: int) -> int:
    """e with { (c x + alpha)^2 : x in Z_p } = alpha^2 + p^e Z_p for any
    alpha coprime to c, where p | c.  For odd p, e = ord_p(c); for p = 2,
    e = ord_2(c) + 2 when c = 2 (mod 4) and ord_2(c) + 1 when 4 | c.
    Raises ValueError when p does not divide c."""
    if c % p:
        raise ValueError(f"progression_exponent needs p | c, got c = {c}, p = {p}")
    w = ord_p(c, p)
    if p != 2:
        return w
    return w + 2 if w == 1 else w + 1


def _shifted_congruence(g, p: int) -> Tuple[int, int]:
    """(mod, base) with: sum a_i (c x_i + alpha_i)^2 = N is solvable over
    Z_p iff N = base (mod mod), for a prime p | c.

    Each alpha_i is a p-unit (`ShiftedForm` requires gcd(alpha_i, c) = 1),
    so {(c x + alpha_i)^2 : x in Z_p} = alpha_i^2 + p^e Z_p with
    e = `progression_exponent(c, p)`, and coordinate i sweeps
    a_i alpha_i^2 + p^(e + ord_p a_i) Z_p.  The sum of these balls is
    base + p^(e + min ord_p a_i) Z_p with base = sum a_i alpha_i^2.
    """
    mod = p ** (progression_exponent(g.conductor, p)
                + min(ord_p(a, p) for a in g.coeffs))
    base = sum(a * al * al for a, al in zip(g.coeffs, g.shifts)) % mod
    return mod, base


def shifted_represents_over_zp(g, N: int, p: int) -> bool:
    """Does sum a_i (c x_i + alpha_i)^2 = N have a solution over Z_p?

    For p not dividing c the substitution z = c x + alpha is a bijection of
    Z_p, so this delegates to the plain lattice engine; for p | c the
    congruence constraint is kept and decided by `_shifted_congruence`.
    """
    if g.conductor % p != 0:
        return represents_over_zp(g.coeffs, N, p).represented
    _check_prime(p)
    mod, base = _shifted_congruence(g, p)
    return (N - base) % mod == 0


# --------------------------------------------------------------------------
# array verdicts

def represents_over_zp_many(coeffs: Sequence[int], Ns, p: int) -> np.ndarray:
    """Boolean array: does <a_1,...,a_k> represent N over Z_p, per N in Ns?
    The lookup of `represents_over_zp` in the same descriptor, with numpy
    over all targets at once."""
    _check_prime(p)
    T = _value_set(p, _lattice_key(coeffs, p))
    Ns = np.asarray(Ns, dtype=np.int64)
    out = Ns == 0
    nonzero = ~out
    k, c = _orders_and_classes(Ns[nonzero], p)
    top = len(T) - 2  # T has period 2 from this order on
    out[nonzero] = T[np.minimum(k, top + (k - top) % 2)] >> c & 1 != 0
    return out


def locally_represented_rows(m: int, coeff_rows: Sequence[Sequence[int]],
                             ns) -> np.ndarray:
    """Boolean array ok[i, j]: is ns[j] represented by the m-gonal form with
    coefficients coeff_rows[i] over R and over every Z_p?

    Via the coset translation this is: N = mu n + d^2 sum a_i >= 0 (which is
    exactly representability over R) and N is represented by the shifted
    form at every prime p | 2 c prod(a_i).  No other prime can exclude N
    at rank >= 3 (proof in the module docstring), so a row of lower rank
    raises ValueError; rows of different ranks may share a call.

    Rows with equal sum a_i have equal targets, so each prime computes
    `_orders_and_classes` once, over the distinct targets (from a residue
    table at odd p < 2^12, see there).  At p | c the shift is
    alpha = |d|, so N - sum a_i alpha^2 = mu n and the
    `_shifted_congruence` of a row reads mu n = 0 (mod p^(e + min ord_p
    a_i)): one test per distinct min ord_p a_i.  At other p each label
    (e, i) of an entry is coded as e W + 1 + i, W the number of unit
    classes, and 0 pads a shorter row; a row's sorted codes are its
    lattice key.  Each distinct key is decoded by divmod(code - 1, W) and
    its `_value_set` read once.  The descriptors are stacked as one bit
    table with S = L W + 1 bits per key: bit k W + i says whether the
    class (k, i) is represented, each descriptor extended along its
    period 2 up to the deepest target's order L - 1, and a last bit, set,
    says that N = 0 is.  A target of label (k, i) reads place k W + i
    (place L W for N = 0) in every key, so each row's verdicts are one
    flat gather from the raveled table, at its targets' places plus
    S times its key's index.  Raises ValueError when some N does not fit
    in int64.
    """
    from .polygonal import _check_coefficients, constants

    k = constants(m)
    rows = [tuple(row) for row in coeff_rows]
    for row in rows:
        _check_coefficients(row)
        if len(row) < 3:
            raise ValueError(f"local verdicts need rank >= 3, got rank "
                             f"{len(row)} in {row}")
    try:
        ns = np.asarray(ns, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError("n does not fit in int64") from exc
    if not rows or not ns.size:
        return np.zeros((len(rows), ns.size), dtype=bool)
    sums = [sum(row) for row in rows]
    d2 = k.d * k.d
    if k.mu * max(-int(ns.min()), int(ns.max())) + d2 * max(sums) >= 2 ** 63:
        raise ValueError("shifted target mu n + d^2 sum a_i overflows int64")
    offsets = sorted({d2 * s for s in sums})
    where = {s: i for i, s in enumerate(offsets)}
    off = np.array([where[d2 * s] for s in sums])
    # one row per distinct offset d^2 sum a_i
    N = k.mu * ns + np.array(offsets, dtype=np.int64).reshape(-1, 1)
    ok = (N >= 0)[off]
    # the entries as 1 + their index into the distinct values; 0 pads
    vals = sorted({a for row in rows for a in row})
    col = {a: i for i, a in enumerate([0] + vals)}
    width = max(map(len, rows))
    padded = chain.from_iterable(row + (0,) * (width - len(row)) for row in rows)
    idx = np.fromiter(map(col.__getitem__, padded), np.intp).reshape(-1, width)
    zeros = np.flatnonzero(N == 0)  # N = 0 is read as 1 and takes its own bit
    N1 = N.ravel().copy()
    N1[zeros] = 1
    for p in prime_divisors(2 * k.c * math.lcm(*vals)):
        e, cls = np.array([_order_and_class(a, p) for a in vals]).T
        if k.c % p == 0:
            depth = np.append(e.max(), e)[idx].min(axis=1)
            # a set: np.unique imports numpy.ma on its first call
            for v in sorted(set(depth.tolist())):
                mod = p ** (progression_exponent(k.c, p) + v)
                # |mu n| < 2^63 <= mod leaves n = 0 as the only solution
                hit = ns == 0 if mod >= 2 ** 63 else k.mu * ns % mod == 0
                ok[depth == v] &= hit
            continue
        W = 4 if p == 2 else 2  # unit square classes
        code = np.sort(np.append(0, e * W + cls + 1)[idx], axis=1)
        # all entries p-units: universal at odd p (see above); p divides
        # some entry, so some row is left
        need = np.flatnonzero((code[:, -1] > W) | (p == 2))
        if need.size == len(rows):
            need = slice(None)  # every row, read without a copy
        # a row's sorted codes stand for its lattice key
        ids = {}
        key_id = np.array([ids.setdefault(tuple(row), len(ids))
                           for row in code[need].tolist()])
        label = [divmod(c - 1, W) for c in range(int(code.max()) + 1)]
        Ts = [_value_set(p, tuple([label[c] for c in row if c])) for row in ids]
        kk, cc = _orders_and_classes(N1, p)
        # each T extended to the orders k < L along its period 2: with
        # t = k - len(T), T[k] is the entry min(t, t % 2 - 2) from the end
        lens = np.array([len(T) for T in Ts])
        L = max(int(lens.max()), int(kk.max()) + 1)
        ts = np.arange(L) - lens.reshape(-1, 1)
        D = np.concatenate(Ts)[np.cumsum(lens).reshape(-1, 1)
                               + np.minimum(ts, (ts & 1) - 2)]
        S = L * W + 1
        bits = np.ones((len(Ts), S), dtype=bool)
        bits[:, :-1] = (D[:, :, None] >> np.arange(W) & 1).reshape(len(Ts), -1)
        at = kk * W + cc
        at[zeros] = L * W
        at = at.reshape(N.shape)
        # one flat gather: row i reads bits[key_id[i]] at its targets' places
        ok[need] &= bits.ravel().take(at[off[need]]
                                      + (key_id * S).reshape(-1, 1))
    return ok


def locally_represented_many(f, ns) -> np.ndarray:
    """Boolean array: is n represented by the m-gonal form f over R and over
    every Z_p, per n in ns?  The one-row case of `locally_represented_rows`."""
    return locally_represented_rows(f.m, [f.coeffs], ns)[0]


def locally_represented(f, n: int) -> bool:
    """Scalar form of `locally_represented_many`."""
    return bool(locally_represented_many(f, [n])[0])
