"""Dense polynomials over F_q, cyclotomic cosets, and the splitting of x^n - 1.

Coefficients are integer codes 0..q-1 (see gf.PrimePower), lowest degree
first, with no trailing zeros; a length-n word and a polynomial of degree
below n convert back and forth losslessly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gf import DomainError, InternalError, PrimePower, nth_root_of_unity, splitting_ctx

_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class FPoly:
    """Polynomial over F_q; zero polynomial has an empty coeff tuple."""

    field: PrimePower
    coeffs: tuple

    def __post_init__(self):
        c = tuple(self.coeffs)
        i = len(c)
        while i and c[i - 1] == 0:
            i -= 1
        c = c[:i]
        if c and (min(c) < 0 or max(c) >= self.field.q):
            raise DomainError("coefficient outside field")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def from_string(cls, field, s: str) -> "FPoly":
        """Parse the digit serialization, lowest degree first ("1101" = 1+x+x^3)."""
        try:
            codes = tuple(_ALPHABET.index(ch) for ch in s.strip().lower())
        except ValueError:
            raise DomainError(f"bad polynomial string {s!r}") from None
        return cls(field, codes)

    def to_string(self) -> str:
        if self.field.q > len(_ALPHABET):
            raise DomainError("digit serialization supports q <= 36")
        if not self.coeffs:
            return "0"
        return "".join(_ALPHABET[c] for c in self.coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def weight(self) -> int:
        return sum(1 for c in self.coeffs if c)

    def is_zero(self) -> bool:
        return not self.coeffs

    def padded(self, n: int) -> tuple:
        if self.degree >= n:
            raise DomainError(f"degree {self.degree} does not fit in length {n}")
        return self.coeffs + (0,) * (n - len(self.coeffs))

    def _same(self, other):
        if not isinstance(other, FPoly) or other.field != self.field:
            raise DomainError("mixed or non-polynomial operands")

    def __add__(self, other):
        self._same(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return FPoly(f, tuple(f.sadd(a[i] if i < len(a) else 0,
                                     b[i] if i < len(b) else 0) for i in range(n)))

    def __sub__(self, other):
        self._same(other)
        return self + other * (self.field.p - 1)

    def __mul__(self, other):
        f = self.field
        if isinstance(other, int):
            return FPoly(f, tuple(f.smul(c, other % f.q) for c in self.coeffs))
        self._same(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FPoly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        if f.e == 1:
            # prime field: accumulate integer products, reduce once
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            return FPoly(f, tuple(c % f.p for c in out))
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = f.sadd(out[i + j], f.smul(ai, bj))
        return FPoly(f, tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other):
        self._same(other)
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        inv = f.sinv(b[-1])
        quot = [0] * max(0, len(a) - db)
        if f.e == 1:
            p = f.p
            for i in range(len(a) - 1, db - 1, -1):
                c = a[i] % p
                if c:
                    c = c * inv % p
                    quot[i - db] = c
                    for j in range(db + 1):
                        a[i - db + j] -= c * b[j]
            return FPoly(f, tuple(quot)), FPoly(f, tuple(c % p for c in a[:db]))
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c:
                c = f.smul(c, inv)
                quot[i - db] = c
                c = f.sneg(c)
                for j in range(db + 1):
                    a[i - db + j] = f.sadd(a[i - db + j], f.smul(c, b[j]))
        return FPoly(f, tuple(quot)), FPoly(f, tuple(a[:db] if db else ()))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "FPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self * self.field.sinv(lead)

    def _label(self):
        """The digit string, or past q = 36 the coefficient tuple, so that a
        repr never raises."""
        return self.to_string() if self.field.q <= len(_ALPHABET) else self.coeffs

    def __repr__(self):
        return f"FPoly(q={self.field.q}, {self._label()!r})"


def poly_gcd(a: FPoly, b: FPoly) -> FPoly:
    """Monic greatest common divisor."""
    a._same(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def word_to_poly(field: PrimePower, word) -> FPoly:
    """The length-n word (f_0, ..., f_{n-1}) as f_0 + f_1 x + ... ."""
    return FPoly(field, tuple(word))


def poly_to_word(f: FPoly, n: int) -> tuple:
    """Inverse of word_to_poly at a fixed length."""
    return f.padded(n)


def xn_minus_1(field: PrimePower, n: int) -> FPoly:
    return FPoly(field, (field.sneg(1),) + (0,) * (n - 1) + (1,))


@dataclass(frozen=True)
class CosetPartition:
    """The orbits of multiplication by q on Z/nZ, sorted by smallest member."""

    n: int
    q: int
    cosets: tuple

    def __len__(self):
        return len(self.cosets)


def cyclotomic_cosets(n: int, q: int) -> CosetPartition:
    """Partition of Z/nZ into q-cyclotomic cosets; needs gcd(n, q) = 1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if math.gcd(n, q) != 1:
        raise DomainError(f"gcd({n},{q}) != 1: x^n-1 is not squarefree, out of scope")
    seen = [False] * n
    cosets = []
    for r in range(n):
        if seen[r]:
            continue
        orbit = []
        x = r
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = x * q % n
        cosets.append(tuple(sorted(orbit)))
    return CosetPartition(n, q, tuple(cosets))


def factor_xn_minus_1(n: int, q):
    """Irreducible factors of x^n - 1 over F_q, one per cyclotomic coset.

    Factor i is the product of (x - zeta^j) over coset i, with zeta the
    canonical n-th root of unity; the returned list is aligned with
    cyclotomic_cosets(n, q).cosets.
    """
    field = PrimePower.of(q)
    part = cyclotomic_cosets(n, field.q)
    ctx = splitting_ctx(field, n)
    zeta = nth_root_of_unity(ctx, n)
    factors = []
    for coset in part.cosets:
        # product of linear terms over the extension
        prod = [ctx.one()]
        for j in coset:
            root = ctx.pow(zeta, j)
            nxt = [ctx.zero()] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i + 1] = ctx.add(nxt[i + 1], c)
                nxt[i] = ctx.add(nxt[i], ctx.neg(ctx.mul(c, root)))
            prod = nxt
        codes = []
        for c in prod:
            sc = ctx.scalar_code(c)
            if sc is None:
                raise InternalError(
                    f"coset factor coefficient left the base field F_{field.q} (broken ctx)"
                )
            codes.append(sc)
        factors.append(FPoly(field, tuple(codes)))
    check = FPoly.one(field)
    for f in factors:
        check = check * f
    if check != xn_minus_1(field, n):
        raise InternalError("coset factors do not multiply back to x^n - 1")
    return factors


def is_irreducible(f: FPoly) -> bool:
    """Standard x^(q^k) gcd test over F_q; constants are rejected as input.

    f of degree d is irreducible exactly when gcd(x^(q^k) - x, f) = 1 for
    every k <= d/2, since a reducible f has a factor of degree at most d/2.
    """
    d = f.degree
    if d < 1:
        raise DomainError("irreducibility is asked of non-constant polynomials")
    if d == 1:
        return True
    field = f.field
    if f.coeffs[0] == 0:
        return False
    f = f.monic()
    x = FPoly.x(field)
    t = x
    for _ in range(d // 2):
        t = _pow_mod(t, field.q, f)  # x^(q^k) mod f, one q-th power per step
        if poly_gcd(t - x, f).degree != 0:
            return False
    return True


def _pow_mod(base: FPoly, e: int, m: FPoly) -> FPoly:
    """base^e mod m by square and multiply."""
    result = FPoly.one(m.field)
    base = base % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
        e >>= 1
    return result
