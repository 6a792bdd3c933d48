"""Dense polynomials over F_q, cyclotomic cosets, and the splitting of x^n - 1.

Coefficients are integer codes 0..q-1 (see gf.PrimePower), lowest degree
first, with no trailing zeros; a length-n word and a polynomial of degree
below n convert back and forth losslessly.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .gf import (DomainError, InternalError, PrimePower, _scalar_tables, factorize,
                 from_digits, nth_root_of_unity, ord_mod, splitting_ctx, to_digits)

_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
_NUMPY_LEN = 64  # prime-field products and divisions this long run their rows in numpy
_INT64 = 1 << 63
_FACTOR_CAP = 1 << 12  # longest x^n - 1 factored: splitting Phi_n takes about n^2 scalar steps


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
    def _trusted(cls, field, coeffs) -> "FPoly":
        """A polynomial whose coefficients are known to be codes of the field,
        as the results of this class's arithmetic are: trailing zeros are
        trimmed and nothing is checked.  Every input takes the constructor."""
        i = len(coeffs)
        while i and coeffs[i - 1] == 0:
            i -= 1
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "coeffs", tuple(coeffs[:i]))
        return out

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
        return FPoly._trusted(f, [f.sadd(a[i] if i < len(a) else 0,
                                         b[i] if i < len(b) else 0) for i in range(n)])

    def __sub__(self, other):
        self._same(other)
        return self + other * (self.field.p - 1)

    def __mul__(self, other):
        f = self.field
        if isinstance(other, int):
            return FPoly._trusted(f, [f.smul(c, other % f.q) for c in self.coeffs])
        self._same(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FPoly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        if f.e == 1:
            if len(a) * len(b) >= _NUMPY_LEN**2 and min(len(a), len(b)) * (f.p - 1) ** 2 < _INT64:
                out = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
                return FPoly._trusted(f, (out % f.p).tolist())
            # prime field: accumulate integer products, reduce once
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            return FPoly._trusted(f, [c % f.p for c in out])
        add, mul, _ = _scalar_tables(f.p, f.e)
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = mul[ai]
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add[out[i + j]][row[bj]]
        return FPoly._trusted(f, out)

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
        if f.e == 1 and db >= _NUMPY_LEN and f.p * f.p < _INT64:
            # one numpy row update per quotient term, the remainder kept reduced
            p, a = f.p, np.array(a, dtype=np.int64)
            neg = -np.array(b, dtype=np.int64) % p
            for i in range(len(a) - 1, db - 1, -1):
                c = int(a[i])
                if c:
                    c = c * inv % p
                    quot[i - db] = c
                    row = a[i - db:i + 1]
                    row += c * neg
                    row %= p
            return FPoly._trusted(f, quot), FPoly._trusted(f, a[:db].tolist())
        if f.e == 1:
            p = f.p
            for i in range(len(a) - 1, db - 1, -1):
                c = a[i] % p
                if c:
                    c = c * inv % p
                    quot[i - db] = c
                    for j in range(db + 1):
                        a[i - db + j] -= c * b[j]
            return FPoly._trusted(f, quot), FPoly._trusted(f, [c % p for c in a[:db]])
        add, mul, _ = _scalar_tables(f.p, f.e)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c:
                c = mul[c][inv]
                quot[i - db] = c
                row = mul[mul[c][f.p - 1]]  # times -c
                for j in range(db + 1):
                    a[i - db + j] = add[a[i - db + j]][row[b[j]]]
        return FPoly._trusted(f, quot), FPoly._trusted(f, a[:db])

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


def factor_xn_minus_1(n: int, q, m1: FPoly | None = None) -> list:
    """Irreducible factors of x^n - 1 over F_q, one per cyclotomic coset,
    found in F_q[x] with no extension field.

    Factor i is the minimal polynomial of zeta^c, c in coset i, for a root
    zeta of m1; the list is aligned with cyclotomic_cosets(n, q).cosets.  m1
    is a factor whose roots have order exactly n, by default the first such
    factor in coefficient order.  Another m1 relabels coset c as u*c for one
    unit u; canonical_m1(n, q) gives the labels of the canonical root of
    unity, at the price of its splitting field.

    x^n - 1 is the product of the cyclotomic polynomials Phi_d over d | n,
    and Phi_d is the product of the factors whose roots have order d, each
    of degree ord_d(q).  A coset sum e_C = sum of x^i over a q-cyclotomic
    coset C of Z/d is fixed by Frobenius, so mod each factor f of Phi_d it
    is the scalar e_C(root of f).  The coset sums span the Berlekamp algebra
    of F_q[x]/(x^d - 1), so splitting Phi_d by those scalars (_split)
    separates every factor (Berlekamp 1967).  The scalars v_f[C] = e_C mod f
    over the cosets of Z/n then label f: the factor of the coset of c has
    v[C] = (|C|/|cC|) * v_m1[cC], cC the image coset.

    Lengths past _FACTOR_CAP are refused: the gcds on Phi_n, of degree
    about n, and the recurrences behind v_f take about n^2 scalar steps.
    """
    field = PrimePower.of(q)
    if n > _FACTOR_CAP:
        raise DomainError(f"n = {n} is past the factoring cap {_FACTOR_CAP}: splitting x^n - 1 "
                          "in F_q[x] takes about n^2 scalar steps")
    part = cyclotomic_cosets(n, field.q)
    phi, found = {}, []
    for d in (d for d in range(1, n + 1) if n % d == 0):
        below = FPoly.one(field)
        for e, f in phi.items():
            if d % e == 0:
                below = below * f
        phi[d] = xn_minus_1(field, d) // below
        deg = ord_mod(field.q, d) if d > 1 else 1
        pieces = [phi[d]]
        for coset in cyclotomic_cosets(d, field.q).cosets[1:]:  # e_{0} = 1 splits nothing
            if len(pieces) * deg == phi[d].degree:
                break
            e_c = [0] * (coset[-1] + 1)
            for i in coset:
                e_c[i] = 1
            e_c = FPoly(field, tuple(e_c)) % phi[d]
            pieces = [g for f in pieces for g in (_split(f, e_c % f) if f.degree > deg else [f])]
        if len(pieces) * deg != phi[d].degree:
            raise InternalError(f"the coset sums do not separate the factors of Phi_{d}")
        found += pieces
    primitive = pieces  # the factors of Phi_n: d = n came last
    if m1 is None:
        m1 = min(primitive, key=lambda f: f.coeffs)
    elif m1 not in primitive:
        raise DomainError(f"m1 = {m1!r} is no factor of x^n - 1 whose roots have order {n}")
    # the factor of the coset of c takes e_C to (|C|/|cC|) * v_m1[cC]; the
    # first few cosets C already tell every c apart, and only those are read
    cosets = part.cosets
    (v1,) = _coset_values([m1], cosets, n)
    where = {z: j for j, coset in enumerate(cosets) for z in coset}
    keys, probes = [()] * len(cosets), []
    for other in cosets[1:]:  # e_{0} = 1 tells nothing apart
        if len(set(keys)) == len(keys):
            break
        probes.append(other)
        images = (where[c[0] * other[0] % n] for c in cosets)
        keys = [key + (field.smul(len(other) // len(cosets[j]) % field.p, v1[j]),)
                for key, j in zip(keys, images)]
    label = {key: i for i, key in enumerate(keys)}
    if len(label) != len(keys):
        raise InternalError("the coset sums do not separate the factors of x^n - 1")
    factors = [None] * len(cosets)
    for f, key in zip(found, _coset_values(found, probes, n)):
        i = label.get(key)
        if i is None or factors[i] is not None or f.degree != len(cosets[i]):
            raise InternalError(f"factor {f!r} carries no coset of its degree")
        factors[i] = f
    check = FPoly.one(field)
    for f in factors:
        check = check * f
    if check != xn_minus_1(field, n):
        raise InternalError("coset factors do not multiply back to x^n - 1")
    return factors


def _split(f: FPoly, r: FPoly, start: int = 0) -> list:
    """The factors of f that r, reduced mod f, separates, where r is a
    scalar mod every irreducible factor of f: one piece per value.  The
    splitters before start are known not to separate them."""
    if r.degree <= 0:
        return [f]
    for j, s in _splitters(f, r, start):
        g = poly_gcd(f, s)
        if 0 < g.degree < f.degree:
            h = f // g  # splitter j is constant on each side, as are those before it
            return _split(g, r % g, j + 1) + _split(h, r % h, j + 1)
    raise InternalError("no splitter separates the values of a coset sum")


def _splitters(f: FPoly, r: FPoly, start: int):
    """Numbered polynomials whose gcd with f splits f along the values of
    r, by equal-degree splitting, so the cost does not grow with q.

    Over odd q, (r + b)^((q-1)/2) - 1 vanishes where r + b is a nonzero
    square; some b in F_q separates any two values, since the (q-1)/2
    nonzero squares are no union of additive cosets of F_p.  Over q = 2^e,
    Tr(beta * r) vanishes where the absolute trace of beta times the value
    is 0; the trace form is nondegenerate, so some beta in the basis 1, x,
    ..., x^(e-1) of F_q over F_2 separates any two values."""
    field = f.field
    if field.p == 2:
        for j in range(start, field.e):
            power = trace = r * (1 << j)
            for _ in range(field.e - 1):
                power = power * power % f
                trace = trace + power
            yield j, trace
        return
    one = FPoly.one(field)
    for b in range(start, field.q):
        yield b, _pow_mod(r + FPoly(field, (b,)), (field.q - 1) // 2, f) - one


def _coset_values(fs: list, cosets, n: int) -> list:
    """The scalars e_C mod f over the given cosets C of Z/n, one tuple per
    irreducible factor f of x^n - 1: the sums over C of the constant terms
    s_i of x^i mod f, which obey the linear recurrence with characteristic
    polynomial f.  Many long recurrences run side by side in numpy, each
    padded with leading zeros to the largest degree and started from zeros
    and s_0 = 1.  That gives other s_1 .. s_(deg f - 1), but the same sums:
    every sequence of the recurrence is s_i = Tr(theta * zeta^i) for a root
    zeta of f, and e_C(zeta) lies in F_q, so its sum over C is
    e_C(zeta) * Tr(theta) = e_C(zeta) * s_0."""
    if len(fs) * n < _NUMPY_LEN**2:
        return [_recurrence_values(f, cosets, n) for f in fs]
    field = fs[0].field
    p, top = field.p, max(f.degree for f in fs)
    dtype = np.int64 if (p - 1) ** 2 < _INT64 else object
    tail = np.zeros((len(fs), top), dtype=dtype)  # x^d = sum_j tail_j x^j mod f
    for row, f in zip(tail, fs):
        row[top - f.degree:] = [field.sneg(c) for c in f.monic().coeffs[:f.degree]]
    # s_i goes to column top + i % top; the block before stays in the first
    # top columns, so s_(i-top) .. s_(i-1) is one slice, zero before s_0
    seq = np.zeros((len(fs), 2 * top), dtype=dtype)
    seq[:, top] = 1
    sums = np.zeros((len(fs), len(cosets)), dtype=dtype)
    slot = {i: k for k, coset in enumerate(cosets) for i in coset}
    if field.e > 1:
        add, mul = (np.array(t) for t in _scalar_tables(p, field.e)[:2])
    for i in range(n):
        at = top + i % top
        if i:
            window = seq[:, at - top:at]
            if field.e == 1:
                s = (tail * window % p).sum(axis=1) % p
            else:
                terms = mul[tail, window]
                s = terms[:, 0]
                for j in range(1, top):
                    s = add[s, terms[:, j]]
            seq[:, at] = s
        k = slot.get(i)
        if k is not None:
            s = seq[:, at]
            sums[:, k] = (sums[:, k] + s) % p if field.e == 1 else add[sums[:, k], s]
        if at == 2 * top - 1:
            seq[:, :top] = seq[:, top:]
    return [tuple(row) for row in sums.tolist()]


def _recurrence_values(f: FPoly, cosets, n: int) -> tuple:
    """_coset_values of one factor, in plain Python."""
    field, d = f.field, f.degree
    tail = [field.sneg(c) for c in f.monic().coeffs[:d]]  # x^d = sum_j tail_j x^j mod f
    s = [1] + [0] * (d - 1)
    if field.e == 1:
        p = field.p
        for i in range(d, n):
            s.append(sum(map(operator.mul, tail, s[i - d:])) % p)
        return tuple(sum(s[i] for i in coset) % p for coset in cosets)
    add, mul, _ = _scalar_tables(field.p, field.e)
    for i in range(d, n):
        acc = 0
        for a, b in zip(tail, s[i - d:]):
            acc = add[acc][mul[a][b]]
        s.append(acc)
    return tuple(functools.reduce(lambda acc, i: add[acc][s[i]], coset, 0) for coset in cosets)


def canonical_m1(n: int, q) -> FPoly:
    """The minimal polynomial of the canonical primitive n-th root of unity,
    nth_root_of_unity(splitting_ctx(q, n), n): the m1 that gives
    factor_xn_minus_1 that root's labels.  It builds the splitting field
    F_{q^m}, m = ord_n(q), so it is refused where that field passes the
    field-order cap."""
    field = PrimePower.of(q)
    coset = next(c for c in cyclotomic_cosets(n, field.q).cosets if 1 % n in c)
    ctx = splitting_ctx(field, n)
    zeta = nth_root_of_unity(ctx, n)
    prod = [ctx.one()]  # product of linear terms over the extension
    for j in coset:
        root = ctx.pow(zeta, j)
        nxt = [ctx.zero()] * (len(prod) + 1)
        for i, c in enumerate(prod):
            nxt[i + 1] = ctx.add(nxt[i + 1], c)
            nxt[i] = ctx.add(nxt[i], ctx.neg(ctx.mul(c, root)))
        prod = nxt
    codes = [ctx.scalar_code(c) for c in prod]
    if None in codes:
        raise InternalError(f"minimal polynomial coefficient left the base field F_{field.q} (broken ctx)")
    return FPoly(field, tuple(codes))


def is_irreducible(f: FPoly) -> bool:
    """Rabin's test over F_q (M. O. Rabin, "Probabilistic algorithms in
    finite fields", SIAM J. Comput. 9, 1980); constants are rejected as input.

    f of degree d is irreducible exactly when x^(q^d) = x mod f and
    gcd(x^(q^(d/r)) - x, f) = 1 for every prime r dividing d: the first says
    every irreducible factor has a degree dividing d, the second that none
    has a degree dividing d/r.  The powers x^(q^k) mod f are the iterates of
    one F_p matrix, _frobenius(f), on the digits of x, so the test takes one
    gcd per prime factor of d.
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
    p, e = field.p, field.e
    frob = _frobenius(f)
    x = np.zeros(d * e, frob.dtype)
    x[e] = 1  # digit 0 of the coefficient of x
    powers = [x]  # the digits of x^(q^k) mod f, k = 0..d
    for _ in range(d):
        powers.append(powers[-1] @ frob % p)
    if not np.array_equal(powers[d], x):
        return False
    for r in factorize(d):
        digits = ((powers[d // r] - x) % p).tolist()
        t = FPoly._trusted(field, [from_digits(digits[i:i + e], p) for i in range(0, d * e, e)])
        if poly_gcd(t, f).degree != 0:
            return False
    return True


def _matmul_dtype(terms: int, p: int):
    """The dtype in which numpy matrix products of residues mod p are exact
    when every entry sums `terms` products: int64 while such sums stay below
    2^63, and Python ints past it."""
    return np.int64 if terms * (p - 1) ** 2 < _INT64 else object


def _frobenius(f: FPoly) -> np.ndarray:
    """The F_p matrix of t -> t^q on F_q[x]/(f), f monic of degree d and
    q = p^e, on the d*e base-p digits of t, digit j of coefficient r at place
    r*e + j.

    (sum of t_r x^r)^q = sum of t_r x^(rq), since a^q = a on F_q, so row
    r*e + j holds the digits of p^j x^(rq) mod f, the scalar code p^j having
    the single digit 1 at place j.  Those are the first e rows of C^(rq), C
    the companion matrix of y -> x*y, so each block of e rows is the one
    before times C^q, and C^q comes by repeated squaring."""
    field, d = f.field, f.degree
    p, e = field.p, field.e
    size = d * e
    dtype = _matmul_dtype(size, p)
    comp = np.zeros((size, size), dtype)
    comp[:size - e, e:] = np.eye(size - e, dtype=dtype)  # p^j x^r -> p^j x^(r+1)
    tail = [field.sneg(c) for c in f.coeffs[:d]]  # x^d = -(f_0 + ... + f_(d-1) x^(d-1)) mod f
    for j in range(e):
        comp[size - e + j] = [c for t in tail for c in to_digits(field.smul(t, p**j), p, e)]
    step, k = None, field.q
    while True:
        if k & 1:
            step = comp if step is None else step @ comp % p
        k >>= 1
        if not k:
            break
        comp = comp @ comp % p
    frob = np.empty((size, size), dtype)
    rows = np.eye(e, size, dtype=dtype)  # the digits of p^j, j < e
    for r in range(d):
        frob[r * e:(r + 1) * e] = rows
        rows = rows @ step % p
    return frob


def _pow_mod(base: FPoly, e: int, m: FPoly) -> FPoly:
    """base^e mod m by square and multiply."""
    result = FPoly.one(m.field) % m  # 0 when m is a constant
    base = base % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
        e >>= 1
    return result
