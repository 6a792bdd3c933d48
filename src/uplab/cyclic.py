"""Cyclic codes of length n over F_q: the ideals of F_q[x]/(x^n - 1).

Provides enumeration of every code of a given length, the BCH and
Hartmann-Tzeng designed-distance bounds, exact minimum distance (packed
Gray-code enumeration, with an information-set deepening fallback for
dimensions beyond the budget), and the invariant

    mu(q, n) = min over nonzero codes of (minimum distance + dimension).

Two facts about cyclic codes keep the fallback cheap.  Every k cyclically
consecutive coordinates form an information set, so one systematic basis
certifies a bound over all n windows at once.  And a unit u mod n maps the
code with zero set Z onto the code with zero set uZ (x -> x^u permutes
coordinates), so mu computes one distance per multiplier orbit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .gf import DomainError, InternalError, PrimePower, from_digits, to_digits
from .polyring import FPoly, cyclotomic_cosets, factor_xn_minus_1, xn_minus_1

DEFAULT_BUDGET = 1 << 28
_WORD = 0xFFFFFFFFFFFFFFFF
_BLOCK = 1 << 20  # array entries per vectorised pass in the bounds and the deepening scans
_ENUM_CAP_T = 30  # refuse enumerating 2^t divisor lattices beyond this


@dataclass(frozen=True)
class CyclicCode:
    """A nonzero ideal of F_q[x]/(x^n - 1), held by its monic generator."""

    field: PrimePower
    n: int
    gen: FPoly
    zeros: tuple  # exponents i with gen(zeta^i) = 0, a union of cosets
    dim: int

    @property
    def q(self) -> int:
        return self.field.q

    def gen_string(self) -> str:
        return self.gen.to_string()

    @classmethod
    def from_gen(cls, n: int, q, gen) -> "CyclicCode":
        field = q if isinstance(q, PrimePower) else PrimePower.from_int(q)
        if isinstance(gen, str):
            gen = FPoly.from_string(field, gen)
        gen = gen.monic()
        if gen.degree >= n:
            raise DomainError("generator must be a proper divisor of x^n - 1")
        if not (xn_minus_1(field, n) % gen).is_zero():
            raise DomainError("generator does not divide x^n - 1")
        part = cyclotomic_cosets(n, field.q)
        factors = factor_xn_minus_1(n, field)
        zeros = []
        for coset, f in zip(part.cosets, factors):
            if (gen % f).is_zero():
                zeros.extend(coset)
        if len(zeros) != gen.degree:
            raise InternalError("zero count disagrees with generator degree")
        return cls(field, n, gen, tuple(sorted(zeros)), n - gen.degree)

    @cached_property
    def _bch(self) -> int:
        """bch_bound of the zero set, computed once per code object; mu and
        min_distance both need it."""
        return bch_bound(self.zeros, self.n)

    def __repr__(self):
        return f"CyclicCode([{self.n},{self.dim}] over F_{self.q}, gen={self.gen_string()!r})"


@dataclass(frozen=True)
class DistanceResult:
    """Exact distance (lower == upper) or a bracket, plus how it was obtained."""

    lower: int
    upper: int
    exact: bool
    method: str  # exhaustive | bz | bch_only
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
    """All 2^t - 1 nonzero cyclic codes of length n, ascending generator degree.

    t is the number of irreducible factors of x^n - 1; the full product (the
    zero code) is excluded, the trivial generator 1 (the whole space) is kept.
    """
    field = q if isinstance(q, PrimePower) else PrimePower.from_int(q)
    part = cyclotomic_cosets(n, field.q)
    t = len(part.cosets)
    if t > _ENUM_CAP_T:
        raise DomainError(f"{t} irreducible factors: 2^{t} divisors is not enumerable")
    factors = factor_xn_minus_1(n, field)
    codes = []
    for mask in range((1 << t) - 1):  # all proper subsets
        gen = FPoly.one(field)
        zeros = []
        for i in range(t):
            if mask >> i & 1:
                gen = gen * factors[i]
                zeros.extend(part.cosets[i])
        codes.append(CyclicCode(field, n, gen, tuple(sorted(zeros)), n - gen.degree))
    # for q <= 36 this is the order of (degree, generator string): same-degree
    # strings have equal length over an alphabet sorted by digit value
    codes.sort(key=lambda c: (c.gen.degree, c.gen.coeffs))
    return codes


# ---------------------------------------------------------------------------
# designed-distance bounds


def bch_bound(zeros, n: int) -> int:
    """Largest delta with delta-1 zeros in arithmetic progression, any stride
    coprime to n.  Empty zero sets give 1.

    Stride -b walks the runs of stride b backwards, so only b <= n/2 is
    scanned, all strides in one numpy pass; each walk covers Z/n twice so
    that runs wrapping around are caught."""
    zs = set(zeros)
    if not zs:
        return 1
    if len(zs) >= n:
        return n + 1
    member = np.zeros(n, bool)
    member[list(zs)] = True
    strides = np.array([b for b in range(1, n // 2 + 1) if math.gcd(b, n) == 1])
    steps = np.arange(2 * n)
    chunk = max(1, _BLOCK // (2 * n))  # strides per pass, to bound memory at large n
    longest = 0
    for lo in range(0, len(strides), chunk):
        walks = member[np.outer(strides[lo:lo + chunk], steps) % n]
        # run length at each step: steps since the last non-zero (-1 before any)
        last_gap = np.maximum.accumulate(np.where(walks, -1, steps), axis=1)
        longest = max(longest, int((steps - last_gap).max()))
    return min(longest, n - 1) + 1


def ht_bound(zeros, n: int) -> int:
    """Hartmann-Tzeng bound: the best delta+s over zero patterns
    {a + k*b + r*c : k < delta-1, r <= s} with b, c coprime to n.

    For a direction c and a height h let I_h be the set of x with x + r*c a
    zero for every r < h.  A stride-b run of m elements of I_h is an m x h
    grid of zeros, worth m + h, and bch_bound(I_h) is the longest such run
    plus one; so the bound is the largest bch_bound(I_h) - 1 + h over c and
    h = 1, 2, ... until I_h is empty.  h = 1 is the BCH value, the same for
    every c.  Only c <= n/2 is scanned: I_h for -c is a translate of I_h for c.
    """
    zs = set(zeros)
    if not zs:
        return 1
    if len(zs) >= n:
        return n + 1
    best = bch_bound(zs, n)
    for c in range(1, n // 2 + 1):
        if math.gcd(c, n) != 1:
            continue
        rows, h = {x for x in zs if (x + c) % n in zs}, 2
        while rows:
            best = max(best, bch_bound(rows, n) - 1 + h)
            rows = {x for x in rows if (x + h * c) % n in zs}
            h += 1
    return min(best, n)


# ---------------------------------------------------------------------------
# generator matrices


def _systematic_rows_q2(code: CyclicCode):
    """Row basis (bitmask ints) in systematic form on columns 0..k-1."""
    k = code.dim
    g_int = from_digits(code.gen.coeffs, 2)
    rows = [g_int << i for i in range(k)]  # deg g = n-k, so no shift wraps
    for j in range(k):
        piv = next((r for r in range(j, k) if rows[r] >> j & 1), None)
        if piv is None:
            raise InternalError("columns 0..k-1 are not an information set")
        rows[j], rows[piv] = rows[piv], rows[j]
        for r in range(k):
            if r != j and rows[r] >> j & 1:
                rows[r] ^= rows[j]
    return rows


def _systematic_rows_qp(code: CyclicCode):
    """Same as above for prime q > 2, as a numpy int64 matrix (entries below
    q, products below q^2, so no intermediate overflows)."""
    n, k, p = code.n, code.dim, code.field.p
    base = np.zeros(n, np.int64)
    base[: len(code.gen.coeffs)] = code.gen.coeffs
    rows = np.stack([np.roll(base, i) for i in range(k)])
    for j in range(k):
        piv = next((r for r in range(j, k) if rows[r, j]), None)
        if piv is None:
            raise InternalError("columns 0..k-1 are not an information set")
        rows[[j, piv]] = rows[[piv, j]]
        rows[j] = rows[j] * pow(int(rows[j, j]), p - 2, p) % p
        for r in range(k):
            if r != j and rows[r, j]:
                rows[r] = (rows[r] - rows[r, j] * rows[j]) % p
    return rows


# ---------------------------------------------------------------------------
# exhaustive kernels


def _gray_low_tables(rows, n, klo):
    """Per-64-bit-slot cumulative-XOR tables of the low 2^klo Gray codewords."""
    nslots = (n + 63) // 64
    tables = []
    for s in range(nslots):
        f = np.zeros(1 << klo, np.uint64)
        for b in range(klo):
            f[(1 << b):: (1 << (b + 1))] = (rows[b] >> (64 * s)) & _WORD
        tables.append(np.bitwise_xor.accumulate(f))
    return tables


def _block_min_weight(tables, hi_cw, skip_first):
    """Min weight of hi_cw XOR each tabled codeword (one table per 64-bit word)."""
    acc = None
    for s, tab in enumerate(tables):
        part = tab if hi_cw == 0 else tab ^ np.uint64((hi_cw >> (64 * s)) & _WORD)
        cnt = np.bitwise_count(part)
        if acc is None:  # one byte per count holds weights below 256, so up to 3 words
            acc = cnt if len(tables) <= 3 else cnt.astype(np.uint16)
        else:
            acc += cnt
    if skip_first:
        acc = acc[1:]
    return int(acc.min())


def _min_weight_q2(rows, n, stop_at):
    """Minimum weight over all nonzero messages of the binary rows, stopping
    once it reaches stop_at; returns (best, messages done).  The codewords of
    the low min(k, 16) rows are tabled, and a Gray walk over the high rows
    XORs one row per step onto the whole table."""
    k = len(rows)
    klo = min(k, 16)
    tables = _gray_low_tables(rows, n, klo)
    block = 1 << klo
    best = _block_min_weight(tables, 0, True)
    work = block - 1
    hi_cw = 0
    for h in range(1, 1 << (k - klo)):
        if best <= stop_at:
            break
        hi_cw ^= rows[klo + ((h & -h).bit_length() - 1)]
        best = min(best, _block_min_weight(tables, hi_cw, False))
        work += block
    return best, work


def _min_weight_qp(rows, q, stop_at, budget):
    """Exhaustive minimum weight over prime fields q > 2, blocked low tables.

    A position of the shifted block vanishes iff the low-table entry equals
    the negation of the high-part codeword there, so weights come from one
    equality comparison instead of an add-and-reduce pass.  The table holds
    residues in the smallest unsigned type (one byte up to q = 256) and is
    built one message digit at a time, each sum of two residues in a type
    wide enough for it; products are formed in int64.
    """
    k, n = rows.shape
    klo = 1
    while q ** (klo + 1) <= (1 << 16) and klo < k:
        klo += 1
    nlo = q**klo
    residue, wide = np.min_scalar_type(q - 1), np.min_scalar_type(2 * (q - 1))
    lowtab = np.zeros((1, n), residue)
    for j in range(klo):  # row d * q^j + i of the next table is row i plus d * rows[j]
        multiples = (np.arange(q)[:, None] * rows[j] % q).astype(wide)
        lowtab = ((lowtab.astype(wide) + multiples[:, None, :]) % q).astype(residue).reshape(-1, n)
    best = n + 1
    work = 0
    for hi in range(q ** (k - klo)):
        if hi == 0:
            zmax = int((lowtab[1:] == 0).sum(axis=1, dtype=np.int16).max())
            work += nlo - 1
        else:
            hi_cw = (np.asarray(to_digits(hi, q, k - klo), np.int64) @ rows[klo:]) % q
            neg = ((q - hi_cw) % q).astype(residue)
            zmax = int((lowtab == neg).sum(axis=1, dtype=np.int16).max())
            work += nlo
        w = n - zmax
        if w < best:
            best = w
            if best <= stop_at:
                break
        if work > budget:
            raise InternalError("q-ary kernel exceeded its prechecked budget")
    return best, work


def _min_weight_generic(code: CyclicCode, stop_at):
    """Plain enumeration for prime-power base fields; only for small q^k."""
    field, n, k = code.field, code.n, code.dim
    gen = code.gen.padded(n)
    rows = []
    for i in range(k):
        row = [0] * n
        for j, c in enumerate(gen):
            row[(i + j) % n] = c
        rows.append(row)
    best = n + 1
    work = 0
    for v in range(1, field.q**k):
        msg = to_digits(v, field.q, k)
        cw = [0] * n
        for r, m in zip(rows, msg):
            if m:
                for j in range(n):
                    if r[j]:
                        cw[j] = field.sadd(cw[j], field.smul(m, r[j]))
        w = sum(1 for c in cw if c)
        work += 1
        if w < best:
            best = w
            if best <= stop_at:
                break
    return best, work


# ---------------------------------------------------------------------------
# information-set deepening (dimension beyond the exhaustive budget)


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
        best = min(best, _block_min_weight([t[lo:] for t in tables], hi_cw, False))
    return best


def _scan_weight_w_qp(rows, p, w):
    """Same over a prime field: the first coefficient is fixed to 1, since a
    scalar multiple of a codeword has its weight.  The last t coefficients
    are tabled, t as large as keeps the table within _BLOCK entries; the
    others are looped over."""
    k, n = rows.shape
    t = w - 1
    while t and (p - 1) ** t * n > _BLOCK:
        t -= 1
    tails = list(itertools.product(range(1, p), repeat=t))
    tail = np.array(tails, np.int64).reshape(len(tails), t)
    best = n + 1
    for combo in itertools.combinations(range(k), w):
        sub = rows[list(combo)]
        tail_words = tail @ sub[w - t:]
        for head in itertools.product(range(1, p), repeat=w - 1 - t):
            lead = sub[0] + np.asarray(head, np.int64) @ sub[1:w - t]
            words = (lead + tail_words) % p
            best = min(best, int(np.count_nonzero(words, axis=1).min()))
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
    certified lower bound is min(upper, max(bch, that)).

    A target stops the deepening once the certified lower bound reaches it
    (the caller has established the code cannot matter past that point)."""
    n, k, q = code.n, code.dim, code.q
    if q == 2:
        rows = _systematic_rows_q2(code)
        upper = min(r.bit_count() for r in rows)
    else:
        rows = _systematic_rows_qp(code)
        upper = int(np.count_nonzero(rows, axis=1).min())
    work = k
    w = 1  # every message of weight <= w has been seen
    while True:
        lower = min(upper, max(bch_lower, -(-n * (w + 1) // k)))
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
            upper = min(upper, _scan_weight_w_qp(rows, q, w))
        work += round_cost


# ---------------------------------------------------------------------------
# public distance + invariant


def min_distance(code: CyclicCode, budget: int = DEFAULT_BUDGET, *,
                 lower_target: int | None = None, cache=None) -> DistanceResult:
    """Exact minimum distance when q^dim fits the budget, else the deepening
    tier, which returns exact if its bracket closes and a bracket otherwise.
    lower_target lets a caller accept any certified bound reaching it.

    A cache (cache.get(code) -> exact result with work 0, or None;
    cache.put(code, result)) answers before any work and receives every exact
    result computed here."""
    k, n, q = code.dim, code.n, code.q
    lower = code._bch
    if k == 0:
        raise DomainError("zero code has no distance")
    if cache is not None:
        hit = cache.get(code)
        if hit is not None:
            return hit
    if q**k <= budget:
        if q == 2:
            rows = _systematic_rows_q2(code)
            best, work = _min_weight_q2(rows, n, lower)
        elif code.field.e == 1:
            rows = _systematic_rows_qp(code)
            best, work = _min_weight_qp(rows, q, lower, budget)
        else:
            best, work = _min_weight_generic(code, lower)
        if best < lower:
            raise InternalError(f"designed-distance bound {lower} exceeds true distance {best}")
        res = DistanceResult(best, best, True, "exhaustive", work)
    elif code.field.e > 1:
        # the deepening tier reduces mod p, which is wrong off prime fields
        return DistanceResult(lower, n, False, "bch_only", 0)
    else:
        res = _bz_distance(code, lower, budget, lower_target)
    if cache is not None and res.exact:
        cache.put(code, res)
    return res


def _multiplier_reps(n: int, q: int) -> list:
    """One unit u from each coset of <q> in (Z/n)*, smallest first."""
    reps, seen = [], set()
    for u in range(1, max(n, 2)):
        if math.gcd(u, n) != 1 or u in seen:
            continue
        reps.append(u)
        while u not in seen:
            seen.add(u)
            u = u * q % n
    return reps


def _orbit_key(zeros, n: int, reps) -> tuple:
    """The least sorted u*Z mod n over the multipliers: codes with the same key
    are equivalent under a coordinate permutation x -> x^u and share d."""
    return min(tuple(sorted(u * z % n for z in zeros)) for u in reps)


def mu(n: int, q, budget: int = DEFAULT_BUDGET, *, cache=None) -> MuRecord:
    """min(d + dim) over all nonzero cyclic codes of length n over F_q.

    Divisors are processed smallest dimension first with a best-so-far bound
    B; a code whose dim + bch bound already reaches B is recorded with its
    bch bracket and skipped, which cannot change the minimum.  A code
    equivalent to one already computed (same multiplier orbit) reuses that
    result, with work 0, when it is exact or its lower bound reaches the
    current target.  Only a code that is neither pruned nor reused reaches
    min_distance, and with it the cache.  The result equals the unpruned
    computation; it degrades to a bracket only if some needed distance came
    back inexact under the budget.
    """
    field = q if isinstance(q, PrimePower) else PrimePower.from_int(q)
    codes = enumerate_codes(n, field)
    order = sorted(range(len(codes)), key=lambda i: (codes[i].dim, codes[i].gen.coeffs))
    reps = _multiplier_reps(n, field.q)
    results = [None] * len(codes)
    orbit_results = {}
    best = None  # (sum, position in processing order)
    inexact = []
    for pos, i in enumerate(order):
        code = codes[i]
        b = code._bch
        if best is not None and code.dim + b >= best[0]:
            results[i] = DistanceResult(b, n, False, "bch_only", 0)
            continue
        # past the running minimum a certified bound is as good as exact
        target = best[0] - code.dim if best is not None else None
        orbit = _orbit_key(code.zeros, n, reps)
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
                best = (s, pos, i)
        else:
            inexact.append((code.dim + res.lower, i))
    if best is None:
        raise InternalError("no exact distance among divisors; budget too small to start")
    mu_upper = best[0]
    mu_lower = min([mu_upper] + [s for s, _ in inexact])
    exact = mu_lower == mu_upper
    witness = codes[best[2]]
    return MuRecord(field.q, n, mu_lower, mu_upper, exact, witness,
                    tuple((codes[i], results[i]) for i in range(len(codes))))


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
