"""Deterministic finite fields: F_p, F_{p^e}, and flat extensions of degree m.

Every context is a function of (p, e, m) alone.  The modulus is the first
monic irreducible polynomial of degree e*m over F_p in integer-code order
(a polynomial's code reads its coefficients as base-p digits, constant term
least significant), and the primitive element is the first element of full
multiplicative order in the same code order.  Two builds with the same
parameters are therefore bit-identical, here and in any reimplementation
that follows the same two rules.

Products: an element is its deg base-p digits, and every product convolves
the two digit vectors and folds the high half back with a fixed matrix whose
row i holds the digits of x^(deg+i) mod the modulus; every power is
square-and-multiply on the digit arrays, and powers of one base share its
squarings.  Those digit products are int64, so a field needs
deg*(p-1)^2 < 2^63 and is refused otherwise.

Elements of F_{p^e} with e >= 2 appearing as *scalars* (e.g. polynomial
coefficients) are also integer codes 0..q-1 under the same digit convention.
Their sums, products and inverses are tabled once per field, straight from
the canonical degree-e modulus, which is also the modulus of F_{p^e} as a
context of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

FIELD_ORDER_CAP = 1 << 64  # contexts with p^(e*m) beyond this are refused
_DIGIT_PRODUCT_CAP = 1 << 63  # deg*(p-1)^2 must stay below, as in int64
_SCALAR_CAP = 1 << 9       # prime-power scalar fields get full op tables


class DomainError(ValueError):
    """Caller violated a precondition."""


class InternalError(RuntimeError):
    """A structural invariant failed; signals a bug, not bad input."""


# ---------------------------------------------------------------------------
# integer number theory


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for anything this package accepts."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    # Brent's variant; n odd composite, no factor below the trial bound.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise InternalError(f"rho splitting failed for {n}")


def factorize(n: int) -> dict:
    """Prime factorization as {prime: exponent}; trial division then rho."""
    if n < 1:
        raise DomainError("factorize wants n >= 1")
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d < 10**6:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def ord_mod(q: int, n: int) -> int:
    """Multiplicative order of q modulo n."""
    if n < 2:
        raise DomainError("ord_mod wants n >= 2")
    if math.gcd(q, n) != 1:
        raise DomainError(f"gcd({q},{n}) != 1, no multiplicative order")
    t = euler_phi(n)
    for p in factorize(t):
        while t % p == 0 and pow(q, t // p, n) == 1:
            t //= p
    return t


def is_primitive(q: int, n: int) -> bool:
    """True when q generates the full unit group modulo n."""
    return ord_mod(q, n) == euler_phi(n)


# ---------------------------------------------------------------------------
# integer codes: base-p digits, least significant first


def to_digits(v: int, base: int, length: int) -> tuple:
    """The low `length` base-`base` digits of v, least significant first."""
    out = []
    for _ in range(length):
        v, d = divmod(v, base)
        out.append(d)
    return tuple(out)


def from_digits(digits, base: int) -> int:
    """The integer whose base-`base` digits, least significant first, are
    `digits`; the inverse of to_digits."""
    v = 0
    for d in reversed(digits):
        v = v * base + d
    return v


# ---------------------------------------------------------------------------
# the canonical modulus


def _find_irreducible(p, d):
    """First monic irreducible of degree d over F_p in integer-code order."""
    from .polyring import FPoly, is_irreducible

    field = PrimePower.make(p)
    for low in range(p**d):
        f = to_digits(low, p, d) + (1,)
        if d > 1 and f[0] == 0:
            continue
        if is_irreducible(FPoly(field, f)):
            return f
    raise InternalError(f"no irreducible of degree {d} over F_{p}")


# ---------------------------------------------------------------------------
# prime powers and base-field scalars


@dataclass(frozen=True)
class PrimePower:
    """A base field size q = p^e; scalars are integer codes 0..q-1."""

    p: int
    e: int
    q: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.e < 1 or self.p**self.e != self.q:
            raise DomainError(f"{self.q} != {self.p}^{self.e}")

    @classmethod
    def make(cls, p: int, e: int = 1) -> "PrimePower":
        return cls(p, e, p**e)

    @classmethod
    def from_int(cls, q: int) -> "PrimePower":
        f = factorize(q) if q >= 2 else {}
        if len(f) != 1:
            raise DomainError(f"{q} is not a prime power")
        ((p, e),) = f.items()
        return cls(p, e, q)

    @classmethod
    def of(cls, q) -> "PrimePower":
        """q itself if it is a PrimePower, else the prime power of the integer q."""
        return q if isinstance(q, cls) else cls.from_int(q)

    # scalar arithmetic on codes
    def sadd(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return _scalar_tables(self.p, self.e)[0][a][b]

    def sneg(self, a):
        return self.smul(a, self.p - 1)  # -1 is the scalar p - 1 in every F_{p^e}

    def smul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        return _scalar_tables(self.p, self.e)[1][a][b]

    def sinv(self, a):
        if a == 0:
            raise DomainError("no inverse of 0")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return _scalar_tables(self.p, self.e)[2][a]


@lru_cache(maxsize=None)
def _scalar_tables(p, e):
    """The add, mul and inv tables of F_{p^e} on the codes 0..q-1, from the
    canonical degree-e modulus.

    Row r of the F_p matrix of a holds the digits of a*x^r, so a*b is the
    sum of b_r times row r.  The columns of mul are filled a block at a
    time: b = d*p^r + c with c < p^r gives a*b = a*((d-1)*p^r + c) + a*x^r,
    one gather from the add table per entry."""
    q = p**e
    if q > _SCALAR_CAP:
        raise DomainError(f"prime-power scalar field F_{q} beyond table cap {_SCALAR_CAP}")
    dtype = np.min_scalar_type(q * p)  # above every code, and (p-1)^2 plus a digit
    weights = p ** np.arange(e, dtype=dtype)
    digits = np.arange(q, dtype=dtype)[:, None] // weights % p
    add = sum((d[:, None] + d) % p * w for d, w in zip(digits.T, weights))
    x_e = (-np.array(_find_irreducible(p, e)[:e]) % p).astype(dtype)  # x^e mod the modulus
    mul = np.zeros((q, q), dtype)
    shifted = digits  # row a: the digits of a*x^r, row r of the matrix of a
    for r in range(e):
        s, a_xr = p**r, shifted @ weights
        for d in range(1, p):
            mul[:, d * s:(d + 1) * s] = add[mul[:, (d - 1) * s:d * s], a_xr[:, None]]
        shifted = (np.pad(shifted[:, :-1], ((0, 0), (1, 0))) + shifted[:, -1:] * x_e) % p
    inv = np.argmax(mul == 1, axis=1)  # 0 for a = 0, whose row holds no 1
    return (tuple(map(tuple, add.tolist())), tuple(map(tuple, mul.tolist())), tuple(inv.tolist()))


# ---------------------------------------------------------------------------
# field contexts and elements


@dataclass(frozen=True)
class FFElem:
    """Element of a FieldCtx: its deg base-p digits, constant term first."""

    digits: tuple
    ctx: "FieldCtx"

    def __add__(self, other):
        return self.ctx.add(self, other)

    def __sub__(self, other):
        return self.ctx.add(self, self.ctx.neg(other))

    def __neg__(self):
        return self.ctx.neg(self)

    def __mul__(self, other):
        return self.ctx.mul(self, other)

    def __truediv__(self, other):
        return self.ctx.mul(self, self.ctx.inv(other))

    def __pow__(self, k):
        return self.ctx.pow(self, k)

    def __bool__(self):
        return any(self.digits)

    @property
    def code(self) -> int:
        """Integer code: digits base p, constant term least significant."""
        return from_digits(self.digits, self.ctx.char)

    def __repr__(self):
        return f"FFElem({self.code} in GF({self.ctx.base.q}^{self.ctx.ext_degree}))"


class FieldCtx:
    """Concrete field F_{q^m} realized as F_p[x]/(modulus), deg = e*m.

    Immutable after construction.  Use field_ctx() to obtain one (cached,
    canonical).
    """

    def __init__(self, base: PrimePower, ext_degree: int):
        p = base.p
        deg = base.e * ext_degree
        order = p**deg
        if order >= FIELD_ORDER_CAP:
            raise DomainError(f"field order {base.q}^{ext_degree} exceeds cap 2^64")
        if deg * (p - 1) ** 2 >= _DIGIT_PRODUCT_CAP:
            # a digit convolution sums deg products of two digits below p
            raise DomainError(f"p = {p}, degree {deg}: deg*(p-1)^2 reaches 2^63, "
                              "beyond the int64 digit products")
        self.base = base
        self.ext_degree = ext_degree
        self.char = p
        self.deg = deg
        self.order = order
        self.group_order = order - 1
        self.group_factors = tuple(sorted(factorize(order - 1)))
        mod = _find_irreducible(p, deg)
        self._mod_digits = mod
        # row i: the digits of x^(deg+i) mod the modulus
        fold = np.empty((deg - 1, deg), np.int64)
        row = x_deg = -np.array(mod[:deg], np.int64) % p
        for i in range(deg - 1):
            fold[i] = row
            row = (np.concatenate(([0], row[:-1])) + row[-1] * x_deg) % p
        self._fold = fold
        self._embed_map = None
        self._unembed_map = None

        # _find_primitive certifies the full order: a^(N/l) != 1 for each prime l | N
        self.primitive_elt = self._find_primitive()
        if base.e >= 2:
            self._build_embedding()

    # -- representation helpers --

    def zero(self) -> FFElem:
        return FFElem((0,) * self.deg, self)

    def one(self) -> FFElem:
        return self.from_code(1)

    def from_code(self, code: int) -> FFElem:
        if not 0 <= code < self.order:
            raise DomainError(f"code {code} outside field of order {self.order}")
        return FFElem(to_digits(code, self.char, self.deg), self)

    def elements(self):
        for c in range(self.order):
            yield self.from_code(c)

    @property
    def modulus(self):
        from .polyring import FPoly

        return FPoly(PrimePower.make(self.char), self._mod_digits)

    # -- arithmetic --

    def _check(self, a):
        if a.ctx is not self:
            raise DomainError("elements from different field contexts")

    def add(self, a: FFElem, b: FFElem) -> FFElem:
        self._check(a), self._check(b)
        p = self.char
        return FFElem(tuple((x + y) % p for x, y in zip(a.digits, b.digits)), self)

    def neg(self, a: FFElem) -> FFElem:
        self._check(a)
        p = self.char
        return FFElem(tuple(-x % p for x in a.digits), self)

    def _product(self, x, y):
        """The product of two digit vectors: convolve, then fold the high half."""
        p, deg = self.char, self.deg
        c = np.convolve(x, y) % p
        return (c[:deg] + c[deg:] @ self._fold) % p

    def mul(self, a: FFElem, b: FFElem) -> FFElem:
        self._check(a), self._check(b)
        return FFElem(tuple(self._product(a.digits, b.digits).tolist()), self)

    def pow(self, a: FFElem, k: int) -> FFElem:
        """a^k for any integer k, by square-and-multiply (_pows); 0 to a
        negative power is refused."""
        return self._pows(a, [k])[0]

    def _pows(self, a: FFElem, ks) -> list:
        """[a^k for k in ks] by square-and-multiply on int64 digit arrays: the
        squarings a^(2^i) are shared by every exponent, and each result becomes
        an FFElem only at the end."""
        self._check(a)
        if not a:
            if any(k < 0 for k in ks):
                raise DomainError("0 has no negative powers")
            return [self.zero() if k else self.one() for k in ks]
        ks = [k % self.group_order for k in ks]
        acc = [None] * len(ks)  # None stands for 1
        sq = np.array(a.digits, np.int64)
        for i in range(max(ks, default=0).bit_length()):
            sq = self._product(sq, sq) if i else sq
            for j, k in enumerate(ks):
                if k >> i & 1:
                    acc[j] = sq if acc[j] is None else self._product(acc[j], sq)
        return [self.one() if r is None else FFElem(tuple(r.tolist()), self) for r in acc]

    def inv(self, a: FFElem) -> FFElem:
        if not a:
            raise DomainError("no inverse of 0")
        return self.pow(a, self.group_order - 1)

    def frob_q(self, a: FFElem) -> FFElem:
        """Frobenius with respect to the base field: a -> a^q."""
        return self.pow(a, self.base.q)

    # -- base-field scalars inside the extension --

    def embed_scalar(self, c: int) -> FFElem:
        if not 0 <= c < self.base.q:
            raise DomainError(f"scalar code {c} outside F_{self.base.q}")
        if self.base.e == 1:
            return self.from_code(c)
        return self._embed_map[c]

    def scalar_code(self, a: FFElem):
        """Code of a in F_q if a lies in the embedded base field, else None."""
        self._check(a)
        if self.base.e == 1:
            return a.code if a.code < self.char else None
        return self._unembed_map.get(a.code)

    # -- construction internals --

    def _order_is_full(self, a):
        """a^(N/l) != 1 for every prime l | N = q^m - 1, all in one _pows."""
        n = self.group_order
        return all(r.code != 1 for r in self._pows(a, [n // ell for ell in self.group_factors]))

    def _find_primitive(self):
        # the constants 1..p-1 have order dividing p - 1: none is primitive in an extension
        for code in range(1 if self.deg == 1 else self.char, self.order):
            a = self.from_code(code)
            if self._order_is_full(a):
                return a
        raise InternalError("no primitive element found; field construction is broken")

    def _build_embedding(self):
        # image of the canonical F_q generator: the smallest root (by code)
        # of the base modulus among the subfield generated by the right power
        q = self.base.q
        base_mod = _find_irreducible(self.char, self.base.e)
        w = self.pow(self.primitive_elt, self.group_order // (q - 1))
        roots = []
        cand = self.one()
        for _ in range(q - 1):
            acc = self.zero()
            for c in reversed(base_mod):
                acc = self.add(self.mul(acc, cand), self.embed_prime(c))
            if not acc:
                roots.append(cand)
            cand = self.mul(cand, w)
        if not roots:
            raise InternalError("base modulus has no root in the extension")
        root = min(roots, key=lambda e: e.code)
        emb = {}
        for c in range(q):
            acc = self.zero()
            for d in reversed(to_digits(c, self.char, self.base.e)):
                acc = self.add(self.mul(acc, root), self.embed_prime(d))
            emb[c] = acc
        self._embed_map = emb
        self._unembed_map = {e.code: c for c, e in emb.items()}
        if len(self._unembed_map) != q:
            raise InternalError("scalar embedding is not injective")

    def embed_prime(self, c: int) -> FFElem:
        """Embed a prime-field scalar 0..p-1 (constant polynomial)."""
        return self.from_code(c % self.char)

    def __repr__(self):
        return f"FieldCtx(q={self.base.q}, m={self.ext_degree}, modulus_code={from_digits(self._mod_digits, self.char)})"


@lru_cache(maxsize=None)
def field_ctx(p: int, e: int, m: int) -> FieldCtx:
    """The canonical context for F_{(p^e)^m}; cached and deterministic."""
    if m < 1 or e < 1:
        raise DomainError("extension degrees must be >= 1")
    return FieldCtx(PrimePower.make(p, e), m)


def splitting_ctx(q, n: int) -> FieldCtx:
    """Smallest canonical extension of F_q containing the n-th roots of unity."""
    base = PrimePower.of(q)
    if n == 1:
        return field_ctx(base.p, base.e, 1)
    if math.gcd(n, base.q) != 1:
        raise DomainError(f"gcd(n={n}, q={base.q}) != 1; no separable root of unity")
    return field_ctx(base.p, base.e, ord_mod(base.q, n))


def mult_order(a: FFElem) -> int:
    """Least t >= 1 with a^t = 1."""
    if not a:
        raise DomainError("0 has no multiplicative order")
    ctx = a.ctx
    t = ctx.group_order
    if t == 0:
        raise InternalError("trivial group")
    for ell in ctx.group_factors:
        while t % ell == 0 and ctx.pow(a, t // ell).code == 1:
            t //= ell
    return t


@lru_cache(maxsize=None)
def nth_root_of_unity(ctx: FieldCtx, n: int) -> FFElem:
    """Canonical primitive n-th root of unity: primitive_elt^((q^m-1)/n).

    Cached per (context, n), so every transform and label of one length
    shares one root; a refused n raises on every call, since lru_cache keeps
    no exception."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if n == 1:
        return ctx.one()
    if ctx.group_order % n != 0:
        q = ctx.base.q
        if math.gcd(n, q) != 1:
            raise DomainError(f"no order-{n} root: gcd(n, q={q}) != 1")
        need = ord_mod(q, n)
        raise DomainError(
            f"no order-{n} root in F_{q}^{ctx.ext_degree}; smallest valid extension degree is m={need}"
        )
    return ctx.pow(ctx.primitive_elt, ctx.group_order // n)
