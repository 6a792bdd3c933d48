"""The finite-field Fourier (Mattson-Solomon) transform and the support
inequality w(f) * w(f-hat) >= n that every nonzero word satisfies.

A length-n word f over F_q maps to the evaluation vector
(f(zeta), f(zeta^2), ..., f(zeta^n)) in the canonical splitting field;
position n holds f(1), which always lies in the base field.  Values are
indexed 1..n to keep that convention visible.

ms_forward and ms_inverse build the vector itself with F_p matrices.  With
d the degree of the splitting field over F_p, y -> y * zeta is F_p-linear on
the d base-p digits of y, so the d x d matrices of zeta^0, ..., zeta^n sit
side by side in one stack, built once per (context, zeta, n) and kept for
the next call.  One numpy product takes the digits of every f_j times every
matrix, and value i is the sum over j of the product with the matrix of
zeta^(i*j mod n).  The inverse reads the powers of zeta^-1 off the same
stack.  The stack also checks zeta: its first identity matrix past zeta^0
must be that of zeta^n.

The weight of the transform needs no splitting field.  Since gcd(n, q) = 1,
x^n - 1 is squarefree, so f(zeta^i) = 0 exactly when x - zeta^i divides
g = gcd(f, x^n - 1), and w(f-hat) = n - deg g: the dimension of the cyclic
code that f generates.  Over F_2 transform_weight takes that gcd on
bitmasks, which needs no factoring.  Over every other F_q, deg g is the sum
of |C| over the cyclotomic cosets C whose factor m_C divides f, and
f mod m_C is F_p-linear in the base-p digits of the word: the remainder map,
built once per (n, q) from the recurrence x^(i+1) mod m_C =
x * (x^i mod m_C) mod m_C and kept for the next call.  A word's weight is
one product of its digits with the map and a test of each factor's
remainder for zero; the random scan sends its words through the map a block
at a time.  The factors come from factor_xn_minus_1 in F_q[x], so lengths
past its cap are refused over F_q, q > 2; deg g needs no coset labels, so
the weights build no splitting field.  The exhaustive scan reads the same
map: the remainders of a block of words are those of its low symbols, tabled
once, plus one remainder for its high symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import (DomainError, FFElem, FieldCtx, PrimePower, _scalar_tables, from_digits,
                 nth_root_of_unity, splitting_ctx, to_digits)
from .polyring import _ALPHABET, _INT64, _matmul_dtype, factor_xn_minus_1
_EXHAUSTIVE_CAP = 1 << 24
_SCAN_BLOCK = 1 << 10  # words per block; 2^12 left ~0.1 MiB more peak RSS
_STACK_PASS = 1 << 18  # int64 entries of the power stack or the remainder map per product


@dataclass(frozen=True)
class MSVector:
    """Evaluation vector; values[i-1] = f(zeta^i), i = 1..n."""

    n: int
    field: PrimePower
    ctx: FieldCtx
    values: tuple

    @property
    def weight(self) -> int:
        return sum(1 for v in self.values if v)

    def value(self, i: int) -> FFElem:
        if not 1 <= i <= self.n:
            raise DomainError(f"index {i} outside 1..{self.n}")
        return self.values[i - 1]

    def conjugacy_ok(self) -> bool:
        """Frobenius consistency: value(q*i) == value(i)^q, and value(n) in F_q."""
        q, n = self.field.q, self.n
        for i in range(1, n + 1):
            j = (q * i) % n or n
            if self.values[j - 1] != self.ctx.frob_q(self.values[i - 1]):
                return False
        return self.ctx.scalar_code(self.values[n - 1]) is not None

    def digit_rows(self) -> list:
        """Values as base-p coefficient vectors of the canonical modulus."""
        return [list(v.digits) for v in self.values]


def _check_length(n: int, field: PrimePower):
    if n < 1:
        raise DomainError(f"word length {n} < 1")
    if math.gcd(n, field.q) != 1:
        raise DomainError(f"gcd(n={n}, q={field.q}) != 1")


@lru_cache(maxsize=2)  # a round trip reads one stack twice
def _power_stack(ctx: FieldCtx, zeta_digits: tuple, n: int) -> np.ndarray:
    """The F_p matrices of y -> y * zeta^k for k = 0..n side by side, a
    read-only d x (n+1)*d array: columns k*d..(k+1)*d - 1 hold the matrix of
    zeta^k.

    Row r of each matrix holds the digits of x^r * zeta^k, so a row of digits
    times the matrix is the digits of the product.  zeta must be a primitive
    n-th root of unity: the first k >= 1 whose matrix is the identity is its
    order.  The refusal raises, so it is never cached.
    """
    p, d = ctx.char, ctx.deg
    zeta = FFElem(zeta_digits, ctx)
    step = np.array([ctx.mul(ctx.from_code(p**r), zeta).digits for r in range(d)], np.int64)
    maps = np.empty((n + 1, d, d), np.int64)
    maps[0] = np.eye(d, dtype=np.int64)
    for k in range(n):
        maps[k + 1] = maps[k] @ step % p
    ones = (maps[1:] == maps[0]).all(axis=(1, 2))
    if not ones[n - 1] or ones[:n - 1].any():
        raise DomainError(f"zeta is not a primitive {n}-th root of unity")
    stack = maps.transpose(1, 0, 2).reshape(d, (n + 1) * d)
    stack.flags.writeable = False
    return stack


def _at_powers(ctx: FieldCtx, coeffs, zeta: FFElem, sign: int) -> np.ndarray:
    """Digit rows of the polynomial with these coefficients (lowest degree
    first) at zeta^(sign*i), i = 1..n.

    One product digits @ stack gives digits(c_j) times the matrix of every
    zeta^k, and value i is the sum over j of entry (j, sign*i*j mod n).  Each
    product is reduced mod p after its d-term sum, before the n terms are
    added: d*(p-1)^2 < 2^63 is the field's own cap, and n such sums need not
    be, while n residues below p do.  Rows j go through the product a block
    at a time, so the products never take more than about _STACK_PASS
    entries."""
    ctx._check(zeta)
    p, d, n = ctx.char, ctx.deg, len(coeffs)
    stack = _power_stack(ctx, zeta.digits, n)
    digits = np.array([c.digits for c in coeffs], np.int64)
    at = sign * np.arange(1, n + 1)[:, None] * np.arange(n) % n  # row i - 1: the k of each j
    values = np.zeros((n, d), np.int64)
    step = max(1, _STACK_PASS // ((n + 1) * d))
    for s in range(0, n, step):
        terms = (digits[s:s + step] @ stack % p).reshape(-1, n + 1, d)
        values += terms[np.arange(len(terms)), at[:, s:s + step]].sum(axis=1)
    return values % p


def ms_forward(word, q, zeta: FFElem | None = None) -> MSVector:
    """Evaluate the word's polynomial at zeta^1..zeta^n.

    zeta must be a primitive n-th root of unity in the splitting field and
    defaults to the canonical one; passing zeta^b for gcd(b, n) = 1 permutes
    the values and is how weight invariance is exercised.  Any other zeta is
    refused with DomainError.
    """
    field = PrimePower.of(q)
    word = tuple(word)
    n = len(word)
    _check_length(n, field)
    ctx = splitting_ctx(field, n)
    if zeta is None:
        zeta = nth_root_of_unity(ctx, n)
    values = _at_powers(ctx, [ctx.embed_scalar(c) for c in word], zeta, 1)
    return MSVector(n, field, ctx, tuple(FFElem(tuple(v), ctx) for v in values.tolist()))


def ms_inverse(msv: MSVector, zeta: FFElem | None = None) -> tuple:
    """Recover the word: f_j = n^{-1} * sum_i F_i zeta^{-ij}.
    The sum is F_n + F_1 y + ... + F_{n-1} y^{n-1} at y = zeta^-j, so the
    values at zeta^-1, ..., zeta^-n are f_1, ..., f_{n-1}, f_0.  zeta must be
    the primitive n-th root of unity the forward transform used; any other
    zeta is refused with DomainError.

    The transform is a bijection of F_{q^m}^n onto itself that maps F_q^n
    onto the vectors satisfying conjugacy, so the inverse lies in F_q^n
    exactly when msv satisfies conjugacy: a result outside F_q is refused as
    a conjugacy violation.  Values from another field context are refused."""
    ctx, n, p = msv.ctx, msv.n, msv.ctx.char
    for v in msv.values:
        ctx._check(v)
    if zeta is None:
        zeta = nth_root_of_unity(ctx, n)
    sums = _at_powers(ctx, msv.values[-1:] + msv.values[:-1], zeta, -1)
    sums = sums * pow(n % p, p - 2, p) % p
    word = []
    for acc in sums[-1:].tolist() + sums[:-1].tolist():
        code = ctx.scalar_code(FFElem(tuple(acc), ctx))
        if code is None:
            raise DomainError("conjugacy constraint violated: not the transform of a base-field word")
        word.append(code)
    return tuple(word)


@dataclass(frozen=True)
class UPCheck:
    weight: int
    transform_weight: int
    product: int
    n: int
    holds: bool

    def json_dict(self):
        return {"n": self.n, "weight": self.weight, "transform_weight": self.transform_weight,
                "product": self.product, "holds": self.holds}


def naive_up_check(word, q) -> UPCheck:
    """Both weights and whether their product reaches n (it always must)."""
    word = tuple(word)
    w = sum(1 for c in word if c)
    if w == 0:
        raise DomainError("the inequality is stated for nonzero words")
    wh = transform_weight(word, q)
    return UPCheck(w, wh, w * wh, len(word), w * wh >= len(word))


def transform_weight(word, q) -> int:
    """Weight of the transform, n - deg gcd(f, x^n - 1), computed over F_q:
    a bitmask gcd over F_2, the remainder map over any other F_q, which
    refuses n past the factoring cap."""
    field = PrimePower.of(q)
    word = tuple(word)
    _check_length(len(word), field)
    return int(_transform_weights(np.array([word]), field)[0])


def _transform_weights(words: np.ndarray, field: PrimePower) -> np.ndarray:
    """The transform weights of the rows of a 2-D array of scalar codes.

    Over F_2 each row takes a bitmask gcd with x^n - 1, which needs no
    factoring.  Over any other F_q the weight is the sum of |C| over the
    cosets C whose factor m_C leaves a nonzero remainder, read off the
    remainder map: the rows' base-p digits times the map, in passes of about
    _STACK_PASS entries of the map, the products exact in _matmul_dtype."""
    q, p, e = field.q, field.p, field.e
    bad = words[(words < 0) | (words >= q)]
    if bad.size:
        raise DomainError(f"scalar code {bad[0]} outside F_{q}")
    count, n = words.shape
    if q == 2:
        out = []
        for word in words.tolist():  # F_2[x] as bitmasks: gcd by shifted XOR
            a, b = (1 << n) | 1, from_digits(word, 2)
            while b:
                while a.bit_length() >= b.bit_length():
                    a ^= b << (a.bit_length() - b.bit_length())
                a, b = b, a
            out.append(n - (a.bit_length() - 1))
        return np.array(out)
    rmap, sizes, starts = _remainder_map(n, field)
    dtype = _matmul_dtype(n * e, p)
    if e > 1:
        words = (words[:, :, None] // p ** np.arange(e) % p).reshape(count, n * e)
    digits = words.astype(dtype)
    nonzero = np.empty((count, n * e), bool)
    step = max(1, _STACK_PASS // (n * e))
    for s in range(0, n * e, step):
        nonzero[:, s:s + step] = digits @ rmap[:, s:s + step].astype(dtype) % p != 0
    return np.logical_or.reduceat(nonzero, starts, axis=1) @ sizes


@dataclass(frozen=True)
class UPScanReport:
    n: int
    q: int
    mode: str
    words_checked: int
    min_product: int
    argmin_word: str
    equality_count: int
    violations: int

    def json_dict(self):
        return {"n": self.n, "q": self.q, "mode": self.mode,
                "words_checked": self.words_checked, "min_product": self.min_product,
                "argmin_word": self.argmin_word, "equality_count": self.equality_count,
                "violations": self.violations}


def _word_string(word) -> str:
    return "".join(_ALPHABET[c] for c in word)


@lru_cache(maxsize=2)  # a random scan and the words of one length share one map
def _remainder_map(n: int, field: PrimePower):
    """The F_p-linear map from a word's base-p digits to its remainders mod
    the coset factors; the factor degrees, which are the coset sizes; and the
    first column of each factor.

    Row i*e + j holds the base-p digits of p^j * x^i mod m_C for every coset
    factor m_C side by side, m_C taking deg m_C * e columns; the scalar code
    p^j has the single digit 1 at place j.  The remainders x^i mod m_C come by
    the recurrence x^(i+1) mod m = x * (x^i mod m) mod m: a shift, less the
    dropped top coefficient times m, for all factors at once.  The map is
    read-only and holds (n*e)^2 digits in the narrowest dtype that holds p - 1.
    """
    p, e = field.p, field.e
    factors = factor_xn_minus_1(n, field)
    sizes = np.array([m.degree for m in factors])
    starts = np.cumsum(sizes) - sizes
    tops = np.repeat(starts + sizes - 1, sizes)  # column t: the top place of its factor
    wide = np.int64 if (p - 1) ** 2 + p < _INT64 else object
    neg = np.array([field.sneg(c) for m in factors for c in m.coeffs[:-1]], wide)  # monic m_C
    if e > 1:
        add, mul = (np.array(t) for t in _scalar_tables(p, e)[:2])
    rmap = np.empty((n, e, n, e), np.min_scalar_type(p - 1))
    places = p ** np.arange(e)
    row = np.zeros(n, wide)
    row[starts] = 1
    for i in range(n):
        if i:
            lead = row[tops]
            row = np.roll(row, 1)
            row[starts] = 0
            row = (row + lead * neg) % p if e == 1 else add[row, mul[lead, neg]]
        for j in range(e):
            rmap[i, j] = (row if e == 1 else mul[p**j, row])[:, None] // places % p
    rmap, starts = rmap.reshape(n * e, n * e), starts * e
    for a in (rmap, sizes, starts):
        a.flags.writeable = False
    return rmap, sizes, starts


def _exhaustive_products(n: int, field: PrimePower):
    """min, first argmin v, equality and violation counts of w * w-hat over
    the words v = 1..q^n - 1, whose symbol i is v // q^i % q.

    A block holds the q^k words v = hi * q^k + lo that share their high
    symbols.  Such a word is f_lo + x^k f_hi, so it vanishes on the coset C
    when the remainder of f_lo mod m_C is minus that of x^k f_hi: the codes
    of the low remainders are tabled once, and a block compares them with
    the one code its high symbols give.  int32 is exact here: a digit sum is
    at most n*e*(p-1)^2 and a code below p^(n*e) = q^n <= 2^24.
    """
    q, p, e = field.q, field.p, field.e
    rmap, sizes, starts = _remainder_map(n, field)
    remainders = rmap.astype(np.int32)
    places = np.zeros((n * e, len(sizes)), dtype=np.int32)  # a remainder's digits read in base p
    for c, (start, size) in enumerate(zip(starts, sizes)):
        places[start:start + size * e, c] = p ** np.arange(size * e)
    k = 1
    while k < n and q ** (k + 1) <= _SCAN_BLOCK:
        k += 1
    low = np.arange(q**k, dtype=np.int32)[:, None] // p ** np.arange(k * e, dtype=np.int32) % p
    low_codes = (low @ remainders[:k * e] % p) @ places
    low_weight = np.count_nonzero(low.reshape(-1, k, e).any(axis=2), axis=1)
    best = best_v = None
    equality = violations = 0
    for hi in range(q ** (n - k)):
        high = np.array(to_digits(hi, p, (n - k) * e), dtype=np.int32)
        target = (-(high @ remainders[k * e:]) % p) @ places
        w_hat = n - (low_codes == target) @ sizes
        prod = (low_weight + sum(1 for c in to_digits(hi, q, n - k) if c)) * w_hat
        first = int(hi == 0)  # v = 0 is the zero word, which the scan skips
        prod = prod[first:]
        least = int(prod.min())
        if best is None or least < best:
            best, best_v = least, hi * q**k + first + int(prod.argmin())
        equality += int(np.count_nonzero(prod == n))
        violations += int(np.count_nonzero(prod < n))
    return best, best_v, equality, violations


def naive_up_scan(n: int, q, mode: str = "exhaustive", trials: int = 10000,
                  seed: int = 0) -> UPScanReport:
    """Sweep nonzero words and report the smallest weight product observed.

    Exhaustive mode covers all q^n - 1 words (q^n <= 2^24), in blocks of
    words whose vanishing on each coset is read off the remainder map;
    random mode samples `trials` words and weighs them _SCAN_BLOCK at a time
    as transform_weight does, with no splitting field, so over F_q, q > 2,
    it takes n up to the factoring cap.  The minimum is reported with its
    first word in the order v = 1, 2, ..., symbol i of v being v // q^i % q
    (random mode: the order drawn).
    """
    field = PrimePower.of(q)
    if field.q > len(_ALPHABET):
        raise DomainError(f"digit serialization supports q <= {len(_ALPHABET)}")
    _check_length(n, field)
    if mode == "exhaustive":
        if field.q**n > _EXHAUSTIVE_CAP:
            raise DomainError(f"q^n = {field.q**n} beyond exhaustive cap {_EXHAUSTIVE_CAP}")
        best, best_v, equality, violations = _exhaustive_products(n, field)
        return UPScanReport(n, field.q, mode, field.q**n - 1, best,
                            _word_string(to_digits(best_v, field.q, n)), equality, violations)
    if mode != "random":
        raise DomainError(f"unknown mode {mode!r}")
    import random

    if trials < 1:
        raise DomainError(f"random mode needs trials >= 1, got {trials}")
    if field.q > 2:
        _remainder_map(n, field)  # refuses n past the factoring cap before a word is drawn
    rng = random.Random(seed)
    best = best_word = None
    equality = violations = 0
    for start in range(0, trials, _SCAN_BLOCK):
        words = np.array([to_digits(rng.randrange(1, field.q**n), field.q, n)
                          for _ in range(min(_SCAN_BLOCK, trials - start))])
        prod = np.count_nonzero(words, axis=1) * _transform_weights(words, field)
        least = int(prod.min())
        if best is None or least < best:
            best, best_word = least, words[prod.argmin()].tolist()
        equality += int(np.count_nonzero(prod == n))
        violations += int(np.count_nonzero(prod < n))
    return UPScanReport(n, field.q, mode, trials, best, _word_string(best_word),
                        equality, violations)
