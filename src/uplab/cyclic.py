"""Cyclic codes of length n over F_q: the ideals of F_q[x]/(x^n - 1).

Provides enumeration of every code of a given length, the BCH and
Hartmann-Tzeng designed-distance bounds, exact minimum distance, and the
invariant

    mu(q, n) = min over nonzero codes of (minimum distance + dimension).

Distances come from information-set deepening over messages of weight
1, 2, ..., one suffix-table scan a weight for every q; only a code over F_q,
q > 2, whose q^dim messages fit one table of 2^16 (and the budget) runs an
exhaustive kernel instead.  Both enumerate messages in the systematic basis
on columns 0..k-1, read off the remainders x^(n-k+i) mod g with no
elimination.  Two facts about cyclic codes keep the deepening cheap.  Every
k cyclically consecutive coordinates form an information set, so one
systematic basis certifies a bound over all n windows at once.  And a unit
u mod n maps the code with zero set Z onto the code with zero set uZ
(x -> x^u permutes coordinates), so mu takes one bch bound per multiplier
orbit and shares one distance among its codes.  The orbits are found on
coset masks: a unit permutes the q-cyclotomic cosets, and with them the bits
of every code's mask.  Over F_2 a third fact lifts the deepening's lower
bound: by McEliece's theorem every weight is 0 or r mod a power of 2 read
off the zero set, so a bound rounds up to the next such weight.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field as datafield, replace
from functools import cached_property, lru_cache, reduce

import numpy as np

from .gf import DomainError, InternalError, PrimePower, _scalar_tables, from_digits
from .polyring import _INT64, FPoly, cyclotomic_cosets, factor_xn_minus_1, xn_minus_1

DEFAULT_BUDGET = 1 << 28
_TABLE = 1 << 16  # messages the q-ary exhaustive kernel tables: its codes have q^dim within it
_WORD = 0xFFFFFFFFFFFFFFFF
_BLOCK = 1 << 20  # array entries per vectorised pass in the deepening scans
_PASS = 1 << 14  # array entries per vectorised pass in the designed-distance bounds and lattice
_ENUM_CAP_T = 20  # refuse 2^t divisor lattices beyond this: mu takes 210 B a divisor, 1.6 KiB read out


@dataclass(frozen=True)
class CyclicCode:
    """A nonzero ideal of F_q[x]/(x^n - 1), held by its monic generator."""

    field: PrimePower
    n: int
    gen: FPoly
    # exponents i with gen(zeta^i) = 0 for a root zeta of factor_xn_minus_1's
    # default m1, a union of cosets; the canonical root's set is u*zeros for
    # one unit u, with the same bch, ht and multiplier orbit
    zeros: tuple

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def dim(self) -> int:
        return self.n - self.gen.degree

    def gen_string(self) -> str:
        return self.gen.to_string()

    @classmethod
    def from_gen(cls, n: int, q, gen) -> "CyclicCode":
        field = PrimePower.of(q)
        if isinstance(gen, str):
            gen = FPoly.from_string(field, gen)
        gen = gen.monic()
        if gen.is_zero():
            raise DomainError("the zero polynomial generates no code")
        if gen.degree >= n:
            raise DomainError("generator must be a proper divisor of x^n - 1")
        if not (xn_minus_1(field, n) % gen).is_zero():
            raise DomainError("generator does not divide x^n - 1")
        mask = sum(1 << i for i, f in enumerate(factor_xn_minus_1(n, field)) if (gen % f).is_zero())
        code = cls(field, n, gen, _zero_sets(cyclotomic_cosets(n, field.q), np.array([mask], object))[0])
        if len(code.zeros) != gen.degree:
            raise InternalError("zero count disagrees with generator degree")
        return code

    @cached_property
    def _bch(self) -> int:
        """bch_bound of the zero set, computed once per code object; mu and
        min_distance both need it."""
        return bch_bound(self.zeros, self.n)

    def __repr__(self):
        return f"CyclicCode([{self.n},{self.dim}] over F_{self.q}, gen={self.gen._label()!r})"


@dataclass(frozen=True)
class DistanceResult:
    """Exact distance (lower == upper) or a bracket, plus how it was obtained."""

    lower: int
    upper: int
    exact: bool
    method: str  # exhaustive (q > 2, q^dim <= 2^16 only) | bz | bch_only
    work: int

    @property
    def d(self) -> int:
        if not self.exact:
            raise DomainError("distance is only a bracket; no exact value")
        return self.lower

    def json_dict(self, code: CyclicCode) -> dict:
        return {
            "q": code.q,
            "n": code.n,
            "gen": code.gen_string(),
            "dim": code.dim,
            "d_lower": self.lower,
            "d_upper": self.upper,
            "exact": self.exact,
            "method": self.method,
            "work": self.work,
        }


@dataclass(frozen=True)
class MuRecord:
    """min(distance + dimension) over all nonzero cyclic codes of length n.

    per_divisor, built on first read, pairs each divisor with the result mu
    used: a bch_only bracket if pruned, the orbit's result with work 0 if an
    equivalent code came first, else min_distance's (work 0 on a cache hit)."""

    q: int
    n: int
    mu_lower: int
    mu_upper: int
    exact: bool
    witness: CyclicCode
    # (_codes's arguments, each divisor's index into results, results): one
    # bch_only bracket per bound, one result per orbit computed and its work-0 copy
    divisors: tuple = datafield(repr=False, compare=False)

    @cached_property
    def per_divisor(self) -> tuple:
        """((CyclicCode, DistanceResult), ...) in enumeration order."""
        lattice, slots, results = self.divisors
        return tuple(zip(_codes(*lattice), map(results.__getitem__, slots.tolist())))

    @property
    def mu(self) -> int:
        if not self.exact:
            raise DomainError("mu is only a bracket under this budget")
        return self.mu_lower

    def json_dict(self, include_divisors: bool = False) -> dict:
        out = {
            "q": self.q,
            "n": self.n,
            "mu": self.mu_lower if self.exact else None,
            "mu_lower": self.mu_lower,
            "mu_upper": self.mu_upper,
            "exact": self.exact,
            "witness": self.witness.gen_string(),
            "witness_dim": self.witness.dim,
        }
        if include_divisors:
            out["per_divisor"] = [r.json_dict(c) for c, r in self.per_divisor]
        return out


# ---------------------------------------------------------------------------
# enumeration


def enumerate_codes(n: int, q) -> list:
    """All 2^t - 1 nonzero cyclic codes of length n, ascending generator
    degree, then generator coefficients (lowest degree first).

    t is the number of irreducible factors of x^n - 1, one per q-cyclotomic
    coset; the full product (the zero code) is excluded, the trivial
    generator 1 (the whole space) is kept.
    """
    field = PrimePower.of(q)
    return _codes(field, cyclotomic_cosets(n, field.q), *_lattice(n, field))


def _lattice(n: int, field: PrimePower) -> tuple:
    """(gens, degree, masks): row m of gens is the generator, lowest degree
    first, of the code whose zero cosets are the bits of mask m (bit i: coset
    i of cyclotomic_cosets(n, q)); rows 2^i..2^(i+1) - 1 are rows 0..2^i - 1
    times factor i, and the last, x^n - 1, is the zero code.  masks lists the
    others by one lexsort on (degree, coefficients), for q <= 36 the order of
    (degree, generator string)."""
    part = cyclotomic_cosets(n, field.q)
    t = len(part.cosets)
    if t > _ENUM_CAP_T:
        raise DomainError(f"{t} irreducible factors: 2^{t} divisors is not enumerable")
    gens = np.zeros((1 << t, n + 1), np.min_scalar_type(field.q - 1))
    degree = np.zeros(1 << t, np.int64)
    gens[0, 0], top = 1, 0  # top: the largest degree among the rows built so far
    for i, f in enumerate(factor_xn_minus_1(n, field)):
        s = 1 << i
        gens[s:2 * s, :top + f.degree + 1] = _times(gens[:s, :top + 1], f)
        degree[s:2 * s] = degree[:s] + f.degree
        top += f.degree
    return gens, degree, np.lexsort([*gens[:-1].T[::-1], degree[:-1]])


def _codes(field: PrimePower, part, gens, degree, masks) -> list:
    """The CyclicCode of each mask of a _lattice; rows become tuples a block
    at a time, never the whole matrix.  The rows are products of monic
    factors, codes of the field with a lead of 1, so they skip validation."""
    codes, zeros, step = [], iter(_zero_sets(part, masks)), max(1, _PASS // (part.n + 1))
    for s in range(0, len(masks), step):
        block = masks[s:s + step]
        codes += [CyclicCode(field, part.n, FPoly._trusted(field, row[:deg + 1]), next(zeros))
                  for row, deg in zip(gens[block].tolist(), degree[block].tolist())]
    return codes


def _zero_sets(part, masks) -> list:
    """The zero set of each coset mask, a sorted tuple: the union of the
    cosets whose bits are set, read off a membership matrix a block at a time."""
    coset_of, out, step = _coset_of(part), [], max(1, _PASS // part.n)
    for s in range(0, len(masks), step):
        member = (masks[s:s + step, None] >> coset_of & 1).astype(bool)  # row j: the zeros of mask j
        ends = np.cumsum(member.sum(axis=1)).tolist()
        zeros = np.nonzero(member)[1].tolist()
        out += [tuple(zeros[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    return out


def _coset_of(part):
    """The index of the coset that holds each z in 0..n-1."""
    out = np.empty(part.n, np.int64)
    out[np.concatenate(part.cosets)] = np.repeat(np.arange(len(part)), [len(c) for c in part.cosets])
    return out


def _times(rows, f: FPoly):
    """Each row of a matrix, a polynomial lowest degree first, times f.

    Coefficient j of a product is the window of d + 1 entries of the row
    (padded by d zeros each side) that starts at j, dotted with f reversed;
    the windows go through _scalar_ops a block of rows at a time.  The dot
    runs in int64 while a sum of d + 1 products of two codes fits it, else in
    Python integers, as in _systematic_rows."""
    _, _, dot = _scalar_ops(f.field)
    d, (b, width) = f.degree, rows.shape
    dtype = np.int64 if (d + 1) * (f.field.q - 1) ** 2 < _INT64 else object
    reverse = np.array(f.coeffs[::-1], dtype)[:, None]
    windows = np.arange(width + d)[:, None] + np.arange(d + 1)
    out = np.empty((b, width + d), rows.dtype)
    step = max(1, _PASS // windows.size)
    for s in range(0, b, step):
        padded = np.zeros((min(step, b - s), width + 2 * d), rows.dtype)
        padded[:, d:d + width] = rows[s:s + step]
        out[s:s + step] = dot(padded[:, windows], reverse)[..., 0]
    return out


# ---------------------------------------------------------------------------
# designed-distance bounds


def bch_bound(zeros, n: int) -> int:
    """Largest delta with delta-1 zeros in arithmetic progression, any stride
    coprime to n.  Empty zero sets give 1."""
    return _grid_bound(zeros, n, 1)


def ht_bound(zeros, n: int) -> int:
    """Hartmann-Tzeng bound: the best delta+s over zero patterns
    {a + k*b + r*c : k < delta-1, r <= s} with b, c coprime to n."""
    return _grid_bound(zeros, n, n)


@lru_cache(maxsize=2)
def _strides(n: int) -> tuple:
    """The units b <= n/2, the steps 0..2n-1 and the walks b*s mod n of one
    pass of strides; mu and the census ask for many codes of one length."""
    units = np.array([b for b in range(1, n // 2 + 1) if math.gcd(b, n) == 1])
    steps = np.arange(2 * n)
    return units, steps, units[:max(1, _PASS // (2 * n)), None] * steps % n


def _grid_bound(zeros, n: int, height: int) -> int:
    """The best m + h, capped at n, over m x h grids of zeros
    {a + k*b + r*c : k < m, r < h} with b, c coprime to n and h <= height: the
    stride-b runs of m in I_h = {x : x + r*c is a zero for all r < h}, walked
    twice round Z/n so that wrapping runs count.  b, c <= n/2 suffice: -b walks
    the runs of b backwards, and I_h for -c is a translate of I_h for c."""
    if n < 1:
        raise DomainError(f"length {n} is not positive")
    zs = set(zeros)
    if not zs:
        return 1
    if not 0 <= min(zs) <= max(zs) < n:
        raise DomainError(f"zero {min(zs) if min(zs) < 0 else max(zs)} is not in 0..{n - 1}")
    if len(zs) >= n:
        return n + 1
    member = np.zeros(n, bool)
    member[list(zs)] = True
    units, steps, first = _strides(n)
    row_pass = max(1, _PASS // first.size)

    def longest(stack, heights):  # max(run + h) over the stacked rows and every stride
        rows, tops = np.concatenate(stack), steps + np.array(heights)[:, None, None]
        best = 0
        for s in range(0, len(units), len(first)):
            walk = units[s:s + len(first), None] * steps % n if s else first
            # the run length at a step is the number of steps since the last non-zero
            gaps = np.maximum.accumulate(np.where(rows.take(walk, axis=1), -1, steps), axis=2)
            best = max(best, int((tops - gaps).max()))
        return best

    # rows I_h, built for row_pass directions at once, wait under I_1 for a pass
    best, stack, heights = 0, [member[None]], [1]
    for d in range(0, len(units) if height > 1 else 0, row_pass):
        rows, c, h = member[None], units[d:d + row_pass, None], 2
        while len(c) and h <= height:
            rows = rows & member[(steps[:n] + (h - 1) * c) % n]
            keep = rows.any(axis=1)
            rows, c = rows[keep], c[keep]
            if len(heights) + len(c) > row_pass:
                best, stack, heights = max(best, longest(stack, heights)), [], []
            stack.append(rows)
            heights += [h] * len(c)
            h += 1
    return min(max(best, longest(stack, heights)), n)


# ---------------------------------------------------------------------------
# generator matrices


def _systematic_rows(code: CyclicCode):
    """The basis in systematic form on columns 0..k-1, with no elimination,
    in the word form of _scan_weight_w.

    With m = n - k = deg g and r_i = x^(m+i) mod g, row i is x^i - x^k r_i: g
    divides it, since x^k r_i = x^(n+i) = x^i mod g.  r_0 = x^m - g, and each
    r_(i+1) is x r_i less its x^m coefficient times g.  For q = 2 each row is
    packed into ceil(n/64) uint64 words; for q > 2 it is n scalar codes,
    int64 while a sum of k products of two codes fits it, else Python
    integers, so that every _scalar_ops dot with these rows is exact."""
    n, k = code.n, code.dim
    m = n - k
    if code.q == 2:
        g, r, rows = from_digits(code.gen.coeffs, 2), 1 << m, []
        for i in range(k):
            if r >> m & 1:
                r ^= g
            rows.append(1 << i | r << k)
            r <<= 1
        return np.array([[r >> 64 * s & _WORD for s in range((n + 63) // 64)] for r in rows], np.uint64)
    add, neg, dot = _scalar_ops(code.field)
    dtype = np.int64 if k * (code.q - 1) ** 2 < _INT64 else object
    g, r = np.array(code.gen.coeffs, dtype), np.zeros(m + 1, dtype)
    rows = np.zeros((k, n), dtype)
    r[m] = 1
    for i in range(k):
        r = add(r, neg(dot(r[m:], g[None])))
        rows[i, i] = 1
        rows[i, k:] = neg(r[:m])
        r[1:], r[0] = r[:m], 0  # times x: r[m] is 0 after the reduction, so nothing wraps
    return rows


@lru_cache(maxsize=None)
def _scalar_ops(field: PrimePower) -> tuple:
    """add(a, b), neg(a) and dot(c, rows) = c @ rows on numpy arrays of the
    scalar codes of F_q: residues mod q on a prime field, and off it the
    entries of the field's add and mul tables, where neg(a) reads the row of
    -1 = p - 1 in the mul table."""
    q = field.q
    if field.e == 1:
        return (lambda a, b: (a + b) % q, lambda a: -a % q, lambda c, rows: c @ rows % q)
    add_t, mul_t = (np.array(t, np.min_scalar_type(q - 1))
                    for t in _scalar_tables(field.p, field.e)[:2])
    neg_t = mul_t[field.p - 1]

    def dot(c, rows):
        acc = np.zeros(c.shape[:-1] + rows.shape[1:], add_t.dtype)
        for i in range(len(rows)):
            acc = add_t[acc, mul_t[c[..., i, None], rows[i]]]
        return acc

    return (lambda a, b: add_t[a, b], lambda a: neg_t[a], dot)


# ---------------------------------------------------------------------------
# the exhaustive kernel over F_q, q > 2


def _min_weight_qp(rows, field: PrimePower, stop_at):
    """Exhaustive minimum weight over F_q, q > 2, of a code with q^k within
    _TABLE messages; returns (best, messages compared), stopping once best
    reaches stop_at.

    The table of all q^k messages is built one digit at a time: row
    d * q^j + i is row i plus d * rows[j], and each new slab is checked as it
    is built, so a code that meets stop_at early never fills the table.  The
    table holds scalar codes in the smallest unsigned type (one byte up to
    q = 256), each sum of two codes formed in a type wide enough for it;
    products are formed in int64.
    """
    k, n = rows.shape
    q = field.q
    add, _, dot = _scalar_ops(field)
    residue, wide = np.min_scalar_type(q - 1), np.min_scalar_type(2 * (q - 1))
    table = np.zeros((q**k, n), residue)
    best = n + 1
    work = 0
    for j in range(k):
        s = q**j
        multiples = dot(np.arange(1, q)[:, None], rows[j][None]).astype(wide)
        slab = table[s:q * s]
        slab[:] = add(table[:s].astype(wide), multiples[:, None, :]).reshape(-1, n)
        best = min(best, n - int((slab == 0).sum(axis=1, dtype=np.int16).max()))
        work += (q - 1) * s
        if best <= stop_at:
            break
    return best, work


# ---------------------------------------------------------------------------
# information-set deepening (every code but the q-ary ones of one table)


@lru_cache(maxsize=None)
def _word_ops(field: PrimePower) -> tuple:
    """(dtype, plus(a, b), combine(c, rows) = c @ rows, weights(t, h, acc)):
    the field's part of the scan; weights counts in acc the weight of t + h
    for each column of t, positions on axis 0.  Over F_2 a sum is an XOR,
    every coefficient 1 and a weight a popcount; over F_q, q > 2, sums go via
    _scalar_ops in a dtype that holds two codes' sum, and t + h is 0 where t = -h."""
    if field.q == 2:
        return (np.uint64, np.bitwise_xor, lambda c, rows: np.bitwise_xor.reduce(rows, axis=0),
                lambda t, h, acc: np.bitwise_count(t ^ h[:, None]).sum(axis=0, dtype=acc))
    add, neg, dot = _scalar_ops(field)
    wide = np.min_scalar_type(2 * (field.q - 1))
    return wide, add, dot, lambda t, h, acc: (t != neg(h).astype(wide)[:, None]).sum(axis=0, dtype=acc)


@lru_cache(maxsize=None)
def _subsets(k: int, m: int) -> tuple:
    """The m-subsets of range(k) in lexicographic order, one a row, and for
    i = 0..k the row where those whose least element is at least i start."""
    subsets = np.array(list(itertools.combinations(range(k), m)), np.min_scalar_type(k)).reshape(-1, m)
    return subsets, tuple(math.comb(k, m) - math.comb(k - i, m) for i in range(k + 1))


def _sums(words, field: PrimePower, subsets, leads):
    """(table, span): column s * span + v of table is the sum of subset s's
    words times coefficient vector v, lead in leads and the others 1..q-1,
    lead outermost; positions run down axis 0."""
    dtype, plus, combine, _ = _word_ops(field)
    width, table = words.shape[1], None
    for j in range(subsets.shape[1]):
        c, rows = np.arange(1, field.q) if j else leads, words[subsets[:, j]]
        part = combine(c[:, None], rows.reshape(1, -1)).astype(dtype).reshape(len(c), -1, width).swapaxes(0, 1)
        table = part if table is None else plus(table[:, :, None], part[:, None]).reshape(len(rows), -1, width)
    return np.ascontiguousarray(table.reshape(-1, width).T), table.shape[1]


def _scan_weight_w(words, field: PrimePower, n: int, w: int) -> int:
    """Min weight over the messages of weight exactly w, lead coefficient 1
    (one per scalar class), of rows in _systematic_rows form.

    The _sums of every m-subset of rows are tabled in lexicographic order, so
    the subsets past row i form a suffix, and each outer (w-m)-subset, lead
    coefficient 1, is added onto the suffix past its last row; at w = m there
    is no outer row, and only lead 1 is tabled.  m = min(w, 3), lowered while
    the table would pass _BLOCK entries; where even the q - 1 multiples of
    the rows would, the lead coefficients are tabled a slice at a time."""
    (k, width), q = words.shape, field.q
    _, _, combine, weights = _word_ops(field)
    m = min(w, 3)
    leads = 1 if m == w else q - 1
    while m > 1 and math.comb(k, m) * leads * (q - 1) ** (m - 1) * width > _BLOCK:
        m, leads = m - 1, q - 1
    subsets, suffix = _subsets(k, m)
    step = max(1, _BLOCK // (len(subsets) * (q - 1) ** (m - 1) * width))
    acc, best = np.min_scalar_type(n), n + 1
    heads = [range(1, q if i else 2) for i in range(w - m)]  # the outer coefficients, lead 1
    for lo in range(1, leads + 1, step):
        table, span = _sums(words, field, subsets, np.arange(lo, min(lo + step, leads + 1)))
        for outer in itertools.combinations(range(k - m), w - m):
            tail, rows = table[:, suffix[max(outer, default=-1) + 1] * span:], words[list(outer)]
            for head in itertools.product(*heads):
                best = min(best, int(weights(tail, combine(np.array(head, np.int64), rows), acc).min()))
    return best


def _weight_congruence(code: CyclicCode) -> tuple:
    """(M, r): every weight of a binary cyclic code is 0 or r mod M.

    McEliece's theorem (R. J. McEliece, "Weight congruences for p-ary cyclic
    codes", Discrete Math. 3, 1972): the even-like subcode E, with zeros
    Z | {0}, has every weight divisible by M = 2^(l-1), where l is the least
    number of nonzeros of E, repeats allowed, that sum to 0 mod n.  l comes
    from a breadth-first search on n-bit masks: the sums of j + 1 nonzeros
    are the sums of j, each shifted by every nonzero.  A code with 0 in Z is
    E, and r = 0; any other is E + <all-ones>, whose other weights are
    n - w(E), and r = n mod M.  A unit relabelling uZ keeps l, so the zeros
    of any root serve.  With no nonzero (E = 0), M = 1."""
    n, zeros = code.n, set(code.zeros)
    nonzeros = [a for a in range(1, n) if a not in zeros]
    if not nonzeros:
        return 1, 0
    full, reach, ell = (1 << n) - 1, sum(1 << a for a in nonzeros), 1
    while not reach & 1:  # bit x of reach: some ell nonzeros sum to x
        reach = reduce(operator.or_, (reach << a | reach >> n - a for a in nonzeros)) & full
        ell += 1
    modulus = 1 << ell - 1
    return modulus, 0 if 0 in zeros else n % modulus


def _bz_distance(code: CyclicCode, bch_lower: int, budget: int,
                 target: int | None = None) -> DistanceResult:
    """Deepen over the messages of weight w = 1, 2, ... in the systematic
    basis on columns 0..k-1, counting one message per scalar class: every
    round, w = 1 too, is one _scan_weight_w on rows built once per code.

    Every k cyclically consecutive columns of a cyclic code form an
    information set, and the code is closed under shifts.  Once all messages
    of weight <= w are covered, a minimum-weight codeword not yet seen has
    more than w nonzeros in each of its n cyclic windows; each coordinate
    lies in k windows, so its weight is at least ceil(n(w+1)/k).  The
    certified lower bound is max(bch, that), and the bracket closes once it
    reaches the lightest codeword seen; a codeword lighter than bch is an
    error.  Run to w = k, the rounds cover all q^k - 1 messages up to scalars.

    Over F_2 every weight is 0 or r mod M (_weight_congruence), so while the
    bracket stays open after a round the lower bound rounds up to the next
    such weight; the congruence is computed once, at the first such round,
    and a lightest codeword that breaks it is an error too.

    A target stops the deepening once the certified lower bound reaches it
    (the caller has established the code cannot matter past that point)."""
    n, k, q = code.n, code.dim, code.q
    words = _systematic_rows(code)
    upper = _scan_weight_w(words, code.field, n, 1)
    work = k
    w = 1  # every message of weight <= w has been seen
    congruence = None
    while True:
        if upper < bch_lower:
            raise InternalError(f"designed-distance bound {bch_lower} exceeds true distance {upper}")
        lower = max(bch_lower, -(-n * (w + 1) // k))
        if q == 2 and lower < upper and w < k:
            modulus, r = congruence = congruence or _weight_congruence(code)
            if upper % modulus not in (0, r):
                raise InternalError(f"a codeword of weight {upper} breaks the weight congruence mod {modulus}")
            lower = min(lower + -lower % modulus, lower + (r - lower) % modulus)
        if lower >= upper or w >= k:
            return DistanceResult(upper, upper, True, "bz", work)
        if target is not None and lower >= target:
            return DistanceResult(lower, upper, False, "bz", work)
        w += 1
        round_cost = math.comb(k, w) * (q - 1) ** (w - 1)
        if work + round_cost > budget:
            return DistanceResult(lower, upper, False, "bz", work)
        upper = min(upper, _scan_weight_w(words, code.field, n, w))
        work += round_cost


# ---------------------------------------------------------------------------
# public distance + invariant


def min_distance(code: CyclicCode, budget: int = DEFAULT_BUDGET, *,
                 lower_target: int | None = None, cache=None) -> DistanceResult:
    """Exact minimum distance, or a certified bracket under the budget.

    A code over F_q, q > 2, with q^dim within min(budget, _TABLE) runs the
    exhaustive kernel; every other code the deepening tier, one weight-w
    scan a round for every q, exact if its bracket closes, else a bracket.
    Over F_2 the tier's lower bound is rounded up by the weight congruence
    of the code, so a bracket may close, or narrow, a round early.
    Its rounds sum to (q^dim - 1)/(q - 1) messages, one per scalar class, so
    a code with q^dim within the budget is exact unless lower_target, any
    certified bound the caller accepts, stops it early.

    The budget bounds the enumeration only: the deepening tier charges its k
    basis rows as work before it checks the budget, so a small budget can
    report work above it ([7,4] Hamming code, budget 1: exact, work 4).

    A cache (cache.get(code) -> exact result with work 0, or None;
    cache.put(code, result)) answers before any work and receives every exact
    result computed here."""
    k, q = code.dim, code.q
    lower = code._bch
    if k == 0:
        raise DomainError("zero code has no distance")
    if cache is not None:
        hit = cache.get(code)
        if hit is not None:
            return hit
    if q == 2 or q**k > min(budget, _TABLE):
        res = _bz_distance(code, lower, budget, lower_target)
    else:
        best, work = _min_weight_qp(_systematic_rows(code), code.field, lower)
        if best < lower:
            raise InternalError(f"designed-distance bound {lower} exceeds true distance {best}")
        res = DistanceResult(best, best, True, "exhaustive", work)
    if cache is not None and res.exact:
        cache.put(code, res)
    return res


def _multiplier_reps(n: int, q: int) -> list:
    """The least member of each coset of <q> in (Z/n)*: the q-cyclotomic
    cosets of units, smallest first."""
    return [c[0] for c in cyclotomic_cosets(n, q).cosets if math.gcd(c[0], n) == 1]


def _orbit_keys(part, masks):
    """The orbit key of each coset mask: its least image over the multiplier
    reps u, where u moves coset i onto the coset that holds u*c_i.  Codes
    with one key are equivalent under the coordinate permutation x -> x^u,
    and share d and the bch and ht bounds (u maps a stride-b progression of
    zeros onto one of stride ub, also coprime to n).  The images of all 2^t
    masks are built a coset at a time, as _lattice builds the generators."""
    n, t = part.n, len(part.cosets)
    leaders, coset_of = np.array([coset[0] for coset in part.cosets]), _coset_of(part)
    keys = np.arange(1 << t)  # the image under u = 1
    for u in _multiplier_reps(n, part.q):
        image = np.zeros(1 << t, np.int64)
        for i, j in enumerate(coset_of[u * leaders % n].tolist()):
            image[1 << i:2 << i] = image[:1 << i] | 1 << j
        np.minimum(keys, image, out=keys)
    return keys[masks]


def mu(n: int, q, budget: int = DEFAULT_BUDGET, *, cache=None) -> MuRecord:
    """min(d + dim) over all nonzero cyclic codes of length n over F_q.

    The walk runs on the lattice arrays, smallest dimension first, with a
    best-so-far bound B; a code whose dim + bch bound already reaches B is
    recorded with its bch bracket and skipped, which cannot change the
    minimum.  The bch bound is computed once per multiplier orbit, and a code
    equivalent to one already computed reuses that result with work 0, exact
    or a bracket alike (the codes share d).  Only the one code per orbit that
    is neither pruned nor reused is built and reaches min_distance, and with
    it the cache.  The result equals the unpruned computation; it degrades to
    a bracket only if some needed distance came back inexact under the budget.
    """
    field = PrimePower.of(q)
    part = cyclotomic_cosets(n, field.q)
    gens, degree, masks = _lattice(n, field)
    keys, orbit = np.unique(_orbit_keys(part, masks), return_inverse=True)
    bch = [bch_bound(zeros, n) for zeros in _zero_sets(part, keys)]
    dims = n - degree[masks]
    # codes come by (degree, generator); a stable sort on dim keeps the generator order
    order = np.argsort(dims, kind="stable")
    slots = np.empty(len(masks), np.int32)
    # slot b <= n + 1 holds the bch_only bracket of bound b, shared by every code it prunes
    results = [DistanceResult(b, n, False, "bch_only", 0) for b in range(n + 2)]
    computed = {}  # orbit -> slot of the work-0 copy of its result
    best, inexact = None, []  # best: (sum, code) of the first exact minimiser
    for s in range(0, len(order), _PASS):  # Python ints a block at a time: 2^19 would take 40 MiB
        block = order[s:s + _PASS]
        for i, dim, o in zip(block.tolist(), dims[block].tolist(), orbit[block].tolist()):
            b = bch[o]
            if best is not None and dim + b >= best[0]:
                slots[i] = b
            elif o in computed:
                slots[i] = computed[o]
            else:
                code = _codes(field, part, gens, degree, masks[i:i + 1])[0]
                code.__dict__["_bch"] = b  # the orbit's bound, where code._bch would compute it
                # past the running minimum a certified bound is as good as exact
                target = best[0] - dim if best is not None else None
                res = min_distance(code, budget, lower_target=target, cache=cache)
                slots[i], computed[o] = len(results), len(results) + 1
                results += [res, replace(res, work=0)]
                if not res.exact:
                    inexact.append(dim + res.lower)
                elif best is None or dim + res.lower < best[0]:
                    best = (dim + res.lower, code)
    if best is None:
        raise InternalError("no exact distance among divisors; budget too small to start")
    mu_lower = min([best[0]] + inexact)
    return MuRecord(field.q, n, mu_lower, best[0], mu_lower == best[0], best[1],
                    ((field, part, gens, degree, masks), slots, tuple(results)))


@dataclass(frozen=True)
class StrongUPReport:
    """Instance check of the distance+dimension collapse at prime length."""

    p: int
    q: int
    branch: str  # primitive | bounded | unconditioned
    record: MuRecord
    witness: CyclicCode | None

    def json_dict(self):
        out = {"p": self.p, "q": self.q, "branch": self.branch,
               "mu": self.record.mu_lower if self.record.exact else None}
        if self.witness is not None:
            out["witness"] = self.witness.gen_string()
            out["witness_dim"] = self.witness.dim
        return out


def strong_up_witness(p: int, q: int, budget: int = DEFAULT_BUDGET) -> StrongUPReport:
    """At prime length p: if q generates (Z/p)* the invariant must equal p+1
    (only the three trivial codes exist); otherwise, for p > 2q-2, some
    divisor must have d + dim <= p and is returned as a witness."""
    from .gf import is_prime, is_primitive

    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if math.gcd(p, q) != 1:
        raise DomainError("q must be invertible modulo p")
    rec = mu(p, q, budget)
    if is_primitive(q, p):
        if not rec.exact or rec.mu != p + 1:
            raise InternalError(
                f"primitive case must give mu = p+1 = {p + 1}, got {rec.mu_lower}..{rec.mu_upper}"
            )
        return StrongUPReport(p, q, "primitive", rec, None)
    if p > 2 * q - 2:
        if rec.exact and rec.mu > p:
            raise InternalError(
                f"non-primitive q with p > 2q-2 must give mu <= p, got {rec.mu}"
            )
        return StrongUPReport(p, q, "bounded", rec, rec.witness)
    return StrongUPReport(p, q, "unconditioned", rec, rec.witness if rec.mu_upper <= p else None)
