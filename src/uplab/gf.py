"""Deterministic finite fields: F_p, F_{p^e}, and flat extensions of degree m.

Every context is a function of (p, e, m) alone.  The modulus is the first
monic irreducible polynomial of degree e*m over F_p in integer-code order
(a polynomial's code reads its coefficients as base-p digits, constant term
least significant), and the primitive element is the first element of full
multiplicative order in the same code order.  Two builds with the same
parameters are therefore bit-identical, here and in any reimplementation
that follows the same two rules.

Products: a field of order up to 2^16 multiplies through exp/log tables of
the primitive element.  The tables are built by doubling: with S the F_p
matrix of y -> y*prim, the digit rows of prim^(2^k..2^(k+1)-1) are the rows
of prim^(0..2^k-1) times S^(2^k).  A larger field multiplies bitmasks by
shift and XOR for p = 2; for odd p it convolves the two digit vectors and
folds the high half back with a fixed matrix whose row i holds the digits
of x^(deg+i) mod the modulus.  Those digit products are int64, so an odd-p
field needs deg*(p-1)^2 < 2^63 and is refused otherwise.

Elements of F_{p^e} with e >= 2 appearing as *scalars* (e.g. polynomial
coefficients) are also integer codes 0..q-1 under the same digit convention.
Their products and inverses are read off the exp/log tables of the context
F_{p^e} itself, whose modulus is the same canonical degree-e polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

FIELD_ORDER_CAP = 1 << 64  # contexts with p^(e*m) beyond this are refused
_DIGIT_PRODUCT_CAP = 1 << 63  # odd p: deg*(p-1)^2 must stay below, as in int64
_TABLE_CAP = 1 << 16       # exp/log tables built for fields up to this order
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

    # scalar arithmetic on codes
    def sadd(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return _scalar_tables(self.p, self.e)[0][a][b]

    def ssub(self, a, b):
        return self.sadd(a, self.sneg(b))

    def sneg(self, a):
        if self.e == 1:
            return -a % self.p
        return from_digits([-d % self.p for d in to_digits(a, self.p, self.e)], self.p)

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
    q = p**e
    if q > _SCALAR_CAP:
        raise DomainError(f"prime-power scalar field F_{q} beyond table cap {_SCALAR_CAP}")
    # F_{p^e} as a field of its own has the same canonical modulus, so its
    # exp/log tables give the products and inverses
    ctx = field_ctx(p, 1, e)
    exp, log = np.array(ctx._exp), np.array(ctx._log)
    mul = exp[log[:, None] + log[None, :]]
    mul[0, :] = mul[:, 0] = 0
    inv = [0] + exp[q - 1 - log[1:]].tolist()
    digits = [np.arange(q) // p**j % p for j in range(e)]
    add = sum((d[:, None] + d) % p * p**j for j, d in enumerate(digits))
    return (tuple(map(tuple, add.tolist())), tuple(map(tuple, mul.tolist())), tuple(inv))


# ---------------------------------------------------------------------------
# field contexts and elements


@dataclass(frozen=True)
class FFElem:
    """Element of a FieldCtx; val is a bitmask (p=2) or digit tuple (p odd)."""

    val: object
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
        return bool(self.val) if isinstance(self.val, int) else any(self.val)

    @property
    def code(self) -> int:
        """Integer code: digits base p, constant term least significant."""
        if isinstance(self.val, int):
            return self.val
        return from_digits(self.val, self.ctx.char)

    @property
    def digits(self) -> tuple:
        if isinstance(self.val, int):
            return to_digits(self.val, 2, self.ctx.deg)
        return self.val

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
        if p != 2 and deg * (p - 1) ** 2 >= _DIGIT_PRODUCT_CAP:
            # a digit convolution sums deg products of two digits below p
            raise DomainError(f"p = {p}, degree {deg}: deg*(p-1)^2 reaches 2^63, "
                              "beyond the int64 digit products of odd characteristic")
        self.base = base
        self.ext_degree = ext_degree
        self.char = p
        self.deg = deg
        self.order = order
        self.group_order = order - 1
        self.group_factors = tuple(sorted(factorize(order - 1)))
        mod = _find_irreducible(p, deg)
        self._mod_digits = mod
        self._mod_int = from_digits(mod, 2) if p == 2 else None
        if p != 2:
            # row i: the digits of x^(deg+i) mod the modulus
            fold = np.empty((deg - 1, deg), np.int64)
            row = x_deg = -np.array(mod[:deg], np.int64) % p
            for i in range(deg - 1):
                fold[i] = row
                row = (np.concatenate(([0], row[:-1])) + row[-1] * x_deg) % p
            self._fold = fold
        self._exp = None
        self._log = None
        self._embed_map = None
        self._unembed_map = None

        prim = self._find_primitive()
        self.primitive_elt = prim
        if order <= _TABLE_CAP:
            self._build_tables(prim)
        if base.e >= 2:
            self._build_embedding()
        if mult_order(prim) != self.group_order:
            raise InternalError("primitive element lost its order")

    # -- representation helpers --

    def zero(self) -> FFElem:
        return FFElem(0 if self.char == 2 else (0,) * self.deg, self)

    def one(self) -> FFElem:
        return self.from_code(1)

    def from_code(self, code: int) -> FFElem:
        if not 0 <= code < self.order:
            raise DomainError(f"code {code} outside field of order {self.order}")
        if self.char == 2:
            return FFElem(code, self)
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
        if self.char == 2:
            return FFElem(a.val ^ b.val, self)
        p = self.char
        return FFElem(tuple((x + y) % p for x, y in zip(a.val, b.val)), self)

    def neg(self, a: FFElem) -> FFElem:
        if self.char == 2:
            return a
        p = self.char
        return FFElem(tuple(-x % p for x in a.val), self)

    def mul(self, a: FFElem, b: FFElem) -> FFElem:
        self._check(a), self._check(b)
        if self._exp is not None:
            ca, cb = a.code, b.code
            if ca == 0 or cb == 0:
                return self.zero()
            return self.from_code(self._exp[self._log[ca] + self._log[cb]])
        if self.char == 2:
            r = 0
            x, y = a.val, b.val
            while x:
                r ^= y << ((x & -x).bit_length() - 1)
                x &= x - 1
            return FFElem(self._reduce2(r), self)
        p, deg = self.char, self.deg
        c = np.convolve(a.val, b.val) % p
        return FFElem(tuple(((c[:deg] + c[deg:] @ self._fold) % p).tolist()), self)

    def _reduce2(self, r):
        m, d = self._mod_int, self.deg
        while r.bit_length() > d:
            r ^= m << (r.bit_length() - 1 - d)
        return r

    def pow(self, a: FFElem, k: int) -> FFElem:
        if not a:
            if k == 0:
                return self.one()
            if k < 0:
                raise DomainError("0 has no negative powers")
            return self.zero()
        k %= self.group_order
        if k == 0:
            return self.one()
        if self._exp is not None:
            return self.from_code(self._exp[self._log[a.code] * k % self.group_order])
        r = self.one()
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

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
        if self.base.e == 1:
            return a.code if a.code < self.char else None
        return self._unembed_map.get(a.code)

    # -- construction internals --

    def _order_is_full(self, a):
        for ell in self.group_factors:
            if self.pow(a, self.group_order // ell).code == 1:
                return False
        return True

    def _find_primitive(self):
        for code in range(1, self.order):
            a = self.from_code(code)
            if self._order_is_full(a):
                return a
        raise InternalError("no primitive element found; field construction is broken")

    def _build_tables(self, prim):
        # Row i of `powers` holds the digits of prim^i.  y -> y*prim is the
        # F_p-linear map `step`, so the rows 2^k..2^(k+1)-1 are the rows
        # 0..2^k-1 times step^(2^k).  The dtype is the narrowest that holds a
        # row times a matrix before the reduction mod p.
        p, d, g = self.char, self.deg, self.group_order
        dtype = np.min_scalar_type(d * (p - 1) ** 2)
        step = np.array([self.mul(self.from_code(p**j), prim).digits for j in range(d)], dtype)
        powers = np.zeros((g, d), dtype)
        powers[0, 0] = 1
        done, jump = 1, step
        while done < g:
            k = min(done, g - done)
            powers[done:done + k] = powers[:k] @ jump % p
            done += k
            jump = jump @ jump % p
        if (powers[-1] @ step % p).tolist() != [1] + [0] * (d - 1):
            raise InternalError("primitive element order mismatch while building tables")
        codes = np.einsum("ij,j->i", powers, p ** np.arange(d))  # no int64 copy of powers
        log = np.zeros(self.order, np.int64)
        log[codes] = np.arange(g)
        self._exp = codes.tolist() * 2
        self._log = log.tolist()

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
    base = q if isinstance(q, PrimePower) else PrimePower.from_int(q)
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


def nth_root_of_unity(ctx: FieldCtx, n: int) -> FFElem:
    """Canonical primitive n-th root of unity: primitive_elt^((q^m-1)/n)."""
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
    z = ctx.pow(ctx.primitive_elt, ctx.group_order // n)
    return z
