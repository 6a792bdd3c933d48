"""The finite-field Fourier (Mattson-Solomon) transform and the support
inequality w(f) * w(f-hat) >= n that every nonzero word satisfies.

A length-n word f over F_q maps to the evaluation vector
(f(zeta), f(zeta^2), ..., f(zeta^n)) in the canonical splitting field;
position n holds f(1), which always lies in the base field.  Values are
indexed 1..n to keep that convention visible.

The weight of the transform needs no splitting field.  Since gcd(n, q) = 1,
x^n - 1 is squarefree, so f(zeta^i) = 0 exactly when x - zeta^i divides
g = gcd(f, x^n - 1), and w(f-hat) = n - deg g: the dimension of the cyclic
code that f generates.  transform_weight and the scans compute it that way,
over F_q; ms_forward and ms_inverse build the vector itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gf import (DomainError, FFElem, FieldCtx, InternalError, PrimePower, from_digits,
                 nth_root_of_unity, splitting_ctx, to_digits)
from .polyring import _ALPHABET, poly_gcd, word_to_poly, xn_minus_1
_EXHAUSTIVE_CAP = 1 << 24


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


def _at_powers(ctx: FieldCtx, coeffs, z: FFElem) -> list:
    """The polynomial with these coefficients (lowest degree first) at
    z^1, ..., z^n, Horner per point."""
    values = []
    point = ctx.one()
    for _ in range(len(coeffs)):
        point = ctx.mul(point, z)
        acc = ctx.zero()
        for c in reversed(coeffs):
            acc = ctx.add(ctx.mul(acc, point), c)
        values.append(acc)
    return values


def ms_forward(word, q, zeta: FFElem | None = None) -> MSVector:
    """Evaluate the word's polynomial at zeta^1..zeta^n.

    zeta defaults to the canonical root; passing zeta^b for gcd(b, n) = 1
    permutes the values and is how weight invariance is exercised.
    """
    field = PrimePower.of(q)
    word = tuple(word)
    n = len(word)
    _check_length(n, field)
    ctx = splitting_ctx(field, n)
    if zeta is None:
        zeta = nth_root_of_unity(ctx, n)
    values = _at_powers(ctx, [ctx.embed_scalar(c) for c in word], zeta)
    return MSVector(n, field, ctx, tuple(values))


def ms_inverse(msv: MSVector, zeta: FFElem | None = None) -> tuple:
    """Recover the word: f_j = n^{-1} * sum_i F_i zeta^{-ij}; the conjugacy
    invariant is checked first since it characterizes transforms of F_q words.
    The sum is F_n + F_1 y + ... + F_{n-1} y^{n-1} at y = zeta^-j, so the
    values at zeta^-1, ..., zeta^-n are f_1, ..., f_{n-1}, f_0."""
    if not msv.conjugacy_ok():
        raise DomainError("conjugacy constraint violated: not the transform of a base-field word")
    ctx, n = msv.ctx, msv.n
    if zeta is None:
        zeta = nth_root_of_unity(ctx, n)
    n_inv = ctx.embed_prime(pow(n % ctx.char, ctx.char - 2, ctx.char))
    sums = _at_powers(ctx, msv.values[-1:] + msv.values[:-1], ctx.inv(zeta))
    word = []
    for acc in sums[-1:] + sums[:-1]:
        code = ctx.scalar_code(ctx.mul(acc, n_inv))
        if code is None:
            raise InternalError("inverse transform left the base field despite conjugacy")
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
    """Weight of the transform, n - deg gcd(f, x^n - 1), computed over F_q."""
    field = PrimePower.of(q)
    word = tuple(word)
    n = len(word)
    _check_length(n, field)
    if field.q == 2:
        # F_2[x] as bitmasks: gcd by shifted XOR
        bad = set(word) - {0, 1}
        if bad:
            raise DomainError(f"scalar code {bad.pop()} outside F_2")
        a, b = (1 << n) | 1, from_digits(word, 2)
        while b:
            while a.bit_length() >= b.bit_length():
                a ^= b << (a.bit_length() - b.bit_length())
            a, b = b, a
        return n - (a.bit_length() - 1)
    return n - poly_gcd(word_to_poly(field, word), xn_minus_1(field, n)).degree


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


def naive_up_scan(n: int, q, mode: str = "exhaustive", trials: int = 10000,
                  seed: int = 0) -> UPScanReport:
    """Sweep nonzero words and report the smallest weight product observed.

    Exhaustive mode covers all q^n - 1 words (capped); random mode samples.
    """
    field = PrimePower.of(q)
    _check_length(n, field)
    if mode == "exhaustive":
        if field.q**n > _EXHAUSTIVE_CAP:
            raise DomainError(f"q^n = {field.q**n} beyond exhaustive cap {_EXHAUSTIVE_CAP}")
        gen = (to_digits(v, field.q, n) for v in range(1, field.q**n))
    elif mode == "random":
        import random

        if trials < 1:
            raise DomainError(f"random mode needs trials >= 1, got {trials}")
        rng = random.Random(seed)
        gen = (to_digits(rng.randrange(1, field.q**n), field.q, n) for _ in range(trials))
    else:
        raise DomainError(f"unknown mode {mode!r}")

    best = None
    best_word = None
    equality = 0
    violations = 0
    checked = 0
    for word in gen:
        checked += 1
        w = sum(1 for c in word if c)
        prod = w * transform_weight(word, field)
        if prod < n:
            violations += 1
        if prod == n:
            equality += 1
        if best is None or prod < best:
            best = prod
            best_word = word
    return UPScanReport(n, field.q, mode, checked, best, _word_string(best_word),
                        equality, violations)
