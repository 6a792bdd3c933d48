"""Cyclic codes of length n over F_q: the ideals of F_q[x]/(x^n - 1).

Provides enumeration of every code of a given length, the BCH and
Hartmann-Tzeng designed-distance bounds, exact minimum distance, and the
invariant

    mu(q, n) = min over nonzero codes of (minimum distance + dimension).

Distances come from information-set deepening over messages of weight
1, 2, ...; only a code over F_q, q > 2, whose q^dim messages fit one table
of 2^16 (and the budget) runs an exhaustive kernel instead.  Both enumerate
messages in the systematic basis on columns 0..k-1, read off the remainders
x^(n-k+i) mod g with no elimination.  Two facts about cyclic codes keep the
deepening cheap.  Every k cyclically consecutive coordinates form an
information set, so one systematic basis certifies a bound over all n
windows at once.  And a unit u mod n maps the code with zero set Z onto the
code with zero set uZ (x -> x^u permutes coordinates), so mu takes one bch
bound per multiplier orbit and shares one distance among its codes.  The
orbits are found on coset masks: a unit permutes the q-cyclotomic cosets,
and with them the bits of every code's mask.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .gf import DomainError, InternalError, PrimePower, _scalar_tables, from_digits
from .polyring import _INT64, FPoly, cyclotomic_cosets, factor_xn_minus_1, xn_minus_1

DEFAULT_BUDGET = 1 << 28
_TABLE = 1 << 16  # messages the q-ary exhaustive kernel tables: its codes have q^dim within it
_WORD = 0xFFFFFFFFFFFFFFFF
_BLOCK = 1 << 20  # array entries per vectorised pass in the deepening scans
_PASS = 1 << 14  # array entries per vectorised pass in the designed-distance bounds and lattice
_ENUM_CAP_T = 20  # refuse 2^t divisor lattices beyond this: mu holds about 1.6 KiB a divisor


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
    def _from_cosets(cls, field: PrimePower, part, chosen, gen: FPoly) -> "CyclicCode":
        """The code generated by gen, the product of the factors of x^n - 1
        at the coset indices chosen; its zeros are the union of those cosets."""
        return cls(field, part.n, gen, tuple(sorted(z for i in chosen for z in part.cosets[i])))

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
        part = cyclotomic_cosets(n, field.q)
        factors = factor_xn_minus_1(n, field)
        code = cls._from_cosets(field, part, [i for i, f in enumerate(factors)
                                              if (gen % f).is_zero()], gen)
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
    """min(distance + dimension) over all nonzero cyclic codes of length n."""

    q: int
    n: int
    mu_lower: int
    mu_upper: int
    exact: bool
    witness: CyclicCode
    per_divisor: tuple  # ((CyclicCode, DistanceResult), ...) in enumeration order

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
    return _lattice(n, PrimePower.of(q))[0]


def _lattice(n: int, field: PrimePower) -> tuple:
    """(codes, masks): enumerate_codes(n, q), and the coset mask of each code
    as a numpy array, bit i set when coset i of cyclotomic_cosets(n, q) is a
    zero coset.

    The 2^t generators are the rows of one matrix, built a factor at a time:
    rows 2^i..2^(i+1) - 1 are rows 0..2^i - 1 times factor i, so row m is
    the generator of mask m.  The last row is x^n - 1, the zero code, and is
    dropped.  One lexsort on (degree, coefficients) orders the rest; for
    q <= 36 this is the order of (degree, generator string), since
    same-degree strings have equal length over an alphabet sorted by digit
    value.  Rows become tuples a block at a time, never the whole matrix.
    """
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
    gens, degree = gens[:-1], degree[:-1]
    masks = np.lexsort([*gens.T[::-1], degree])
    coset_of = _coset_of(part)
    codes, step = [], max(1, _PASS // (n + 1))
    for s in range(0, len(masks), step):
        block = masks[s:s + step]
        member = (block[:, None] >> coset_of & 1).astype(bool)  # row j: the zeros of block[j]
        ends = np.cumsum(member.sum(axis=1)).tolist()
        zeros = np.nonzero(member)[1].tolist()
        for row, lo, hi, deg in zip(gens[block].tolist(), [0] + ends, ends,
                                    degree[block].tolist()):
            codes.append(CyclicCode(field, n, FPoly(field, tuple(row[:deg + 1])),
                                    tuple(zeros[lo:hi])))
    return codes, masks


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
    """The basis in systematic form on columns 0..k-1, with no elimination.

    With m = n - k = deg g and r_i = x^(m+i) mod g, row i is x^i - x^k r_i: g
    divides it, since x^k r_i = x^(n+i) = x^i mod g.  r_0 = x^m - g, and each
    r_(i+1) is x r_i less its x^m coefficient times g.  Bitmask ints for q = 2,
    a numpy matrix of scalar codes for q > 2: int64 while a sum of k
    products of two codes fits it, else Python integers, so that every
    _scalar_ops dot with these rows is exact."""
    n, k = code.n, code.dim
    m = n - k
    if code.q == 2:
        g, r, rows = from_digits(code.gen.coeffs, 2), 1 << m, []
        for i in range(k):
            if r >> m & 1:
                r ^= g
            rows.append(1 << i | r << k)
            r <<= 1
        return rows
    add, neg, dot = _scalar_ops(code.field)
    dtype = np.int64 if k * (code.q - 1) ** 2 < _INT64 else object
    g, r = np.array(code.gen.coeffs, dtype), np.zeros(m + 1, dtype)
    rows = np.zeros((k, n), dtype)
    r[m] = 1
    for i in range(k):
        r = add(r, neg(dot(r[m:], g[None])))
        rows[i, i] = 1
        rows[i, k:] = neg(r[:m])
        r = np.roll(r, 1)
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


def _block_min_weight(tables, hi_cw):
    """Min weight of hi_cw XOR each tabled codeword (one table per 64-bit word)."""
    acc = None
    for s, tab in enumerate(tables):
        part = tab if hi_cw == 0 else tab ^ np.uint64((hi_cw >> (64 * s)) & _WORD)
        cnt = np.bitwise_count(part)
        if acc is None:  # one byte per count holds weights below 256, so up to 3 words
            acc = cnt if len(tables) <= 3 else cnt.astype(np.uint16)
        else:
            acc += cnt
    return int(acc.min())


def _scan_weight_w_q2(rows, n, w):
    """Min codeword weight over the messages of weight exactly w (binary rows).

    The XORs of all m-subsets of rows are tabled once, in lexicographic
    order, so those starting past a given row form a suffix; each outer
    (w-m)-subset is XORed onto the suffix after its last row.  m = min(w, 3),
    lowered while the table would exceed _BLOCK words.
    """
    k = len(rows)
    nwords = (n + 63) // 64
    m = min(w, 3)
    while m > 1 and math.comb(k, m) * nwords > _BLOCK:
        m -= 1
    subsets = np.array(list(itertools.combinations(range(k), m)))
    tables = [np.bitwise_xor.reduce(np.array([(r >> (64 * s)) & _WORD for r in rows],
                                             np.uint64)[subsets], axis=1)
              for s in range(nwords)]
    suffix = np.searchsorted(subsets[:, 0], np.arange(k + 1))
    best = n + 1
    for outer in itertools.combinations(range(k - m), w - m):
        lo = suffix[outer[-1] + 1] if outer else 0
        hi_cw = 0
        for i in outer:
            hi_cw ^= rows[i]
        best = min(best, _block_min_weight([t[lo:] for t in tables], hi_cw))
    return best


def _scan_weight_w_qp(rows, field: PrimePower, w):
    """Same over F_q, q > 2: the first coefficient is fixed to 1, since a
    scalar multiple of a codeword has its weight.  The last t coefficients
    are tabled, t as large as keeps the table within _BLOCK entries; the
    others are looped over, and a position vanishes where the tabled word
    equals the negated looped part."""
    k, n = rows.shape
    q = field.q
    add, neg, dot = _scalar_ops(field)
    t = w - 1
    while t and (q - 1) ** t * n > _BLOCK:
        t -= 1
    tails = list(itertools.product(range(1, q), repeat=t))
    tail = np.array(tails, np.int64).reshape(len(tails), t)
    best = n + 1
    for combo in itertools.combinations(range(k), w):
        sub = rows[list(combo)]
        tail_words = dot(tail, sub[w - t:])
        for head in itertools.product(range(1, q), repeat=w - 1 - t):
            lead = add(sub[0], dot(np.asarray(head, np.int64), sub[1:w - t]))
            best = min(best, n - int((tail_words == neg(lead)).sum(axis=1).max()))
    return best


def _bz_distance(code: CyclicCode, bch_lower: int, budget: int,
                 target: int | None = None) -> DistanceResult:
    """Deepen over the messages of weight w = 1, 2, ... in the systematic
    basis on columns 0..k-1, counting one message per scalar class.

    Every k cyclically consecutive columns of a cyclic code form an
    information set, and the code is closed under shifts.  Once all messages
    of weight <= w are covered, a minimum-weight codeword not yet seen has
    more than w nonzeros in each of its n cyclic windows; each coordinate
    lies in k windows, so its weight is at least ceil(n(w+1)/k).  The
    certified lower bound is max(bch, that), and the bracket closes once it
    reaches the lightest codeword seen; a codeword lighter than bch is an
    error.  Run to w = k, the rounds cover all q^k - 1 messages up to scalars.

    A target stops the deepening once the certified lower bound reaches it
    (the caller has established the code cannot matter past that point)."""
    n, k, q = code.n, code.dim, code.q
    rows = _systematic_rows(code)
    upper = min(r.bit_count() for r in rows) if q == 2 else int(np.count_nonzero(rows, axis=1).min())
    work = k
    w = 1  # every message of weight <= w has been seen
    while True:
        if upper < bch_lower:
            raise InternalError(f"designed-distance bound {bch_lower} exceeds true distance {upper}")
        lower = max(bch_lower, -(-n * (w + 1) // k))
        if lower >= upper or w >= k:
            return DistanceResult(upper, upper, True, "bz", work)
        if target is not None and lower >= target:
            return DistanceResult(lower, upper, False, "bz", work)
        w += 1
        round_cost = math.comb(k, w) * (q - 1) ** (w - 1)
        if work + round_cost > budget:
            return DistanceResult(lower, upper, False, "bz", work)
        if q == 2:
            upper = min(upper, _scan_weight_w_q2(rows, n, w))
        else:
            upper = min(upper, _scan_weight_w_qp(rows, code.field, w))
        work += round_cost


# ---------------------------------------------------------------------------
# public distance + invariant


def min_distance(code: CyclicCode, budget: int = DEFAULT_BUDGET, *,
                 lower_target: int | None = None, cache=None) -> DistanceResult:
    """Exact minimum distance, or a certified bracket under the budget.

    A code over F_q, q > 2, with q^dim within min(budget, _TABLE) runs the
    exhaustive kernel.  Every other code goes to the deepening tier, which
    returns exact if its bracket closes and a bracket otherwise; its rounds
    sum to (q^dim - 1)/(q - 1) messages, one per scalar class, so a code
    with q^dim within the budget is exact unless lower_target stops it
    early.  lower_target lets a caller accept any certified bound reaching it.

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

    Divisors are processed smallest dimension first with a best-so-far bound
    B; a code whose dim + bch bound already reaches B is recorded with its
    bch bracket and skipped, which cannot change the minimum.  The bch bound
    is computed once per multiplier orbit, on its first code.  A code
    equivalent to one already computed (same multiplier orbit) reuses that
    result, with work 0, when it is exact or its lower bound reaches the
    current target.  Only a code that is neither pruned nor reused reaches
    min_distance, and with it the cache.  The result equals the unpruned
    computation; it degrades to a bracket only if some needed distance came
    back inexact under the budget.
    """
    field = PrimePower.of(q)
    codes, masks = _lattice(n, field)
    keys = _orbit_keys(cyclotomic_cosets(n, field.q), masks).tolist()
    # codes come by (degree, generator); a stable sort on dim keeps the generator order
    order = np.argsort([code.dim for code in codes], kind="stable").tolist()
    results = [None] * len(codes)
    orbit_bch, orbit_results = {}, {}
    pruned = {}  # one bch_only bracket per bound: most divisors of a large lattice take one
    best = None  # (sum, code index) of the first exact minimiser
    inexact = []
    for i in order:
        code, orbit = codes[i], keys[i]
        b = orbit_bch.get(orbit)
        if b is None:
            b = orbit_bch[orbit] = code._bch
        else:  # the orbit's bound, where code._bch would cache it
            code.__dict__["_bch"] = b
        if best is not None and code.dim + b >= best[0]:
            if b not in pruned:
                pruned[b] = DistanceResult(b, n, False, "bch_only", 0)
            results[i] = pruned[b]
            continue
        # past the running minimum a certified bound is as good as exact
        target = best[0] - code.dim if best is not None else None
        prior = orbit_results.get(orbit)
        if prior is not None and (prior.exact or (target is not None and prior.lower >= target)):
            res = replace(prior, work=0)
        else:
            res = min_distance(code, budget, lower_target=target, cache=cache)
            orbit_results[orbit] = res
        results[i] = res
        if res.exact:
            s = code.dim + res.lower
            if best is None or s < best[0]:
                best = (s, i)
        else:
            inexact.append(code.dim + res.lower)
    if best is None:
        raise InternalError("no exact distance among divisors; budget too small to start")
    mu_upper = best[0]
    mu_lower = min([mu_upper] + inexact)
    exact = mu_lower == mu_upper
    witness = codes[best[1]]
    return MuRecord(field.q, n, mu_lower, mu_upper, exact, witness,
                    tuple(zip(codes, results)))


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
