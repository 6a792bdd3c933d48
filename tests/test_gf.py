import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from uplab.gf import (DomainError, FieldCtx, PrimePower, _find_irreducible, _scalar_tables,
                      factorize, field_ctx, from_digits, is_prime, is_primitive, mult_order,
                      nth_root_of_unity, ord_mod, splitting_ctx, to_digits)
from uplab.polyring import FPoly


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 10**12)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_ord_mod_examples():
    assert ord_mod(2, 7) == 3
    assert ord_mod(2, 31) == 5
    assert ord_mod(2, 5) == 4
    assert is_primitive(2, 5)
    assert not is_primitive(2, 7)
    with pytest.raises(DomainError):
        ord_mod(3, 9)


def test_trivial_prime_contexts():
    c = field_ctx(2, 1, 1)
    assert c.order == 2
    assert c.primitive_elt.code == 1
    assert mult_order(c.primitive_elt) == 1
    c3 = field_ctx(3, 1, 1)
    assert c3.primitive_elt.code == 2


def _brute_irreducible_cubics_f2():
    # oracle: all monic cubics over F_2 without a root and not a unit product
    out = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            for c2 in (0, 1):
                coeffs = (c0, c1, c2, 1)
                has_root = any(
                    (c0 + c1 * x + c2 * x * x + x * x * x) % 2 == 0 for x in (0, 1)
                )
                if not has_root:
                    out.append(coeffs)
    return out


def test_f8_modulus_is_first_irreducible_in_code_order():
    cubics = _brute_irreducible_cubics_f2()
    codes = sorted(sum(b << i for i, b in enumerate(f)) for f in cubics)
    c8 = field_ctx(2, 1, 3)
    mod_code = sum(b << i for i, b in enumerate(c8.modulus.coeffs))
    assert mod_code == codes[0]
    assert c8.modulus.to_string() == "1101"  # x^3 + x + 1
    assert c8.primitive_elt.code == 2
    assert mult_order(c8.primitive_elt) == 7


@pytest.mark.parametrize("p,max_deg", [(2, 10), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2)])
def test_canonical_modulus_is_first_irreducible_by_sympy(p, max_deg):
    x = sympy.Symbol("x")
    for d in range(1, max_deg + 1):
        for low in range(p**d):
            f = tuple(low // p**i % p for i in range(d)) + (1,)
            if sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible:
                break
        assert _find_irreducible(p, d) == f


def test_mult_order_examples():
    c7 = field_ctx(7, 1, 1)
    assert mult_order(c7.from_code(2)) == 3
    assert mult_order(c7.from_code(1)) == 1
    with pytest.raises(DomainError):
        mult_order(c7.zero())


def test_nth_root_examples():
    c8 = field_ctx(2, 1, 3)
    z = nth_root_of_unity(c8, 7)
    assert mult_order(z) == 7
    assert nth_root_of_unity(c8, 1).code == 1
    with pytest.raises(DomainError) as err:
        nth_root_of_unity(field_ctx(2, 1, 1), 7)
    assert "m=3" in str(err.value)


@pytest.mark.parametrize("p,e,m", [(2, 1, 4), (2, 1, 6), (3, 1, 3), (5, 1, 2), (2, 2, 2)])
def test_unit_group_order(p, e, m):
    ctx = field_ctx(p, e, m)
    rng = random.Random(p * 100 + m)
    for _ in range(25):
        a = ctx.from_code(rng.randrange(1, ctx.order))
        assert ctx.pow(a, ctx.group_order).code == 1
        assert ctx.group_order % mult_order(a) == 0


def test_frobenius_fixes_exactly_the_base_field():
    # F_4 inside F_16, and F_2 inside F_16
    c = field_ctx(2, 2, 2)
    fixed = [e for e in c.elements() if c.frob_q(e) == e]
    assert len(fixed) == 4
    assert sorted(e.code for e in fixed) == sorted(
        c.embed_scalar(s).code for s in range(4)
    )
    c2 = field_ctx(2, 1, 4)
    fixed2 = [e for e in c2.elements() if c2.pow(e, 2) == e]
    assert len(fixed2) == 2


def test_ctx_determinism_fresh_builds():
    a = FieldCtx(PrimePower.make(2), 5)
    b = FieldCtx(PrimePower.make(2), 5)
    assert a._mod_digits == b._mod_digits
    assert a.primitive_elt.code == b.primitive_elt.code
    c = FieldCtx(PrimePower.make(3), 4)
    d = FieldCtx(PrimePower.make(3), 4)
    assert c._mod_digits == d._mod_digits
    assert c.primitive_elt.code == d.primitive_elt.code


def test_root_powers_exhaustive():
    for q, m, ns in [(2, 6, (3, 7, 9, 21, 63)), (3, 4, (5, 8, 16, 40)), (5, 2, (3, 6, 8, 24))]:
        ctx = field_ctx(q, 1, m)
        for n in ns:
            assert ctx.group_order % n == 0
            z = nth_root_of_unity(ctx, n)
            acc = ctx.one()
            for k in range(1, n):
                acc = ctx.mul(acc, z)
                assert acc.code != 1, (q, m, n, k)
            assert ctx.mul(acc, z).code == 1


def test_splitting_ctx_degree():
    assert splitting_ctx(2, 7).ext_degree == 3
    assert splitting_ctx(2, 17).ext_degree == 8
    assert splitting_ctx(3, 13).ext_degree == 3
    assert splitting_ctx(2, 1).ext_degree == 1
    with pytest.raises(DomainError):
        splitting_ctx(2, 8)


def test_prime_power_scalars():
    f4 = PrimePower.make(2, 2)
    # y^2 = y + 1 under the canonical quadratic modulus
    y = 2
    assert f4.smul(y, y) == 3
    assert f4.smul(3, 2) == 1  # y^2 * y = y^3 = 1
    for a in range(1, 4):
        assert f4.smul(a, f4.sinv(a)) == 1
    assert f4.sadd(2, 3) == 1
    with pytest.raises(DomainError):
        PrimePower.from_int(12)


def test_field_arithmetic_axioms_random():
    rng = random.Random(11)
    for (p, e, m) in [(2, 1, 5), (3, 1, 3), (2, 2, 2)]:
        ctx = field_ctx(p, e, m)
        for _ in range(50):
            a = ctx.from_code(rng.randrange(ctx.order))
            b = ctx.from_code(rng.randrange(ctx.order))
            c = ctx.from_code(rng.randrange(ctx.order))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            if b:
                assert (a / b) * b == a


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 251).flatmap(
    lambda b: st.integers(0, 12).flatmap(
        lambda length: st.tuples(st.just(b), st.just(length), st.integers(0, b**length - 1)))))
def test_digit_codec_round_trip(case):
    base, length, v = case
    digits = to_digits(v, base, length)
    assert len(digits) == length and all(0 <= d < base for d in digits)
    assert from_digits(digits, base) == v
    assert to_digits(v, base, length + 2) == digits + (0, 0)


def test_digit_codec_order():
    # least significant digit first: the integer-code convention of the module
    assert to_digits(11, 3, 4) == (2, 0, 1, 0)
    assert from_digits((2, 0, 1), 3) == 11
    assert from_digits((), 5) == 0


# Canonical contexts, pinned so that no change to the products or the tables
# can move them: (p, e, m) -> modulus code, primitive code, repr; and for
# e >= 2 the embedded code of each base-field scalar 0..q-1.  Tabled and
# untabled fields, p = 2 and odd p.
CANONICAL_CONTEXTS = {
    (2, 1, 4): (19, 2, "FieldCtx(q=2, m=4, modulus_code=19)"),
    (2, 1, 8): (283, 3, "FieldCtx(q=2, m=8, modulus_code=283)"),
    (2, 1, 14): (16417, 7, "FieldCtx(q=2, m=14, modulus_code=16417)"),
    (2, 1, 20): (1048585, 2, "FieldCtx(q=2, m=20, modulus_code=1048585)"),
    (2, 1, 33): (8589934667, 3, "FieldCtx(q=2, m=33, modulus_code=8589934667)"),
    (3, 1, 6): (734, 3, "FieldCtx(q=3, m=6, modulus_code=734)"),
    (3, 1, 10): (59068, 34, "FieldCtx(q=3, m=10, modulus_code=59068)"),
    (3, 1, 16): (43046758, 4, "FieldCtx(q=3, m=16, modulus_code=43046758)"),
    (3, 1, 30): (205891132094654, 3, "FieldCtx(q=3, m=30, modulus_code=205891132094654)"),
    (5, 1, 6): (15632, 5, "FieldCtx(q=5, m=6, modulus_code=15632)"),
    (5, 1, 16): (152587890627, 6, "FieldCtx(q=5, m=16, modulus_code=152587890627)"),
    (7, 1, 3): (345, 22, "FieldCtx(q=7, m=3, modulus_code=345)"),
    (7, 1, 12): (13841287259, 8, "FieldCtx(q=7, m=12, modulus_code=13841287259)"),
    (11, 1, 2): (122, 15, "FieldCtx(q=11, m=2, modulus_code=122)"),
    (13, 1, 4): (28563, 17, "FieldCtx(q=13, m=4, modulus_code=28563)"),
    (13, 1, 10): (137858492040, 23, "FieldCtx(q=13, m=10, modulus_code=137858492040)"),
    (2, 2, 3): (67, 2, "FieldCtx(q=4, m=3, modulus_code=67)"),
    (2, 2, 9): (262153, 10, "FieldCtx(q=4, m=9, modulus_code=262153)"),
    (3, 2, 2): (86, 3, "FieldCtx(q=9, m=2, modulus_code=86)"),
    (3, 2, 9): (387420523, 4, "FieldCtx(q=9, m=9, modulus_code=387420523)"),
    (5, 2, 3): (15632, 5, "FieldCtx(q=25, m=3, modulus_code=15632)"),
    (5, 2, 8): (152587890627, 6, "FieldCtx(q=25, m=8, modulus_code=152587890627)"),
    (3, 3, 2): (734, 3, "FieldCtx(q=27, m=2, modulus_code=734)"),
    (3, 3, 5): (14348918, 5, "FieldCtx(q=27, m=5, modulus_code=14348918)"),
}

CANONICAL_EMBEDDINGS = {
    (2, 2, 3):
        (0, 1, 58, 59),
    (2, 2, 9):
        (0, 1, 37384, 37385),
    (3, 2, 2):
        (0, 1, 2, 42, 43, 44, 75, 76, 77),
    (3, 2, 9):
        (0, 1, 2, 2799995, 2799993, 2799994, 3821146, 3821147, 3821145),
    (5, 2, 3):
        (0, 1, 2, 3, 4, 8840, 8841, 8842, 8843, 8844, 14405, 14406, 14407, 14408, 14409, 4495,
         4496, 4497, 4498, 4499, 10060, 10061, 10062, 10063, 10064),
    (5, 2, 8):
        (0, 1, 2, 3, 4, 390625, 390626, 390627, 390628, 390629, 781250, 781251, 781252, 781253,
         781254, 1171875, 1171876, 1171877, 1171878, 1171879, 1562500, 1562501, 1562502,
         1562503, 1562504),
    (3, 3, 2):
        (0, 1, 2, 144, 145, 146, 207, 208, 209, 381, 382, 383, 444, 445, 446, 264, 265, 266,
         681, 682, 683, 501, 502, 503, 645, 646, 647),
    (3, 3, 5):
        (0, 1, 2, 365778, 365779, 365780, 192744, 192745, 192746, 4564990, 4564991, 4564989,
         4372246, 4372247, 4372245, 4730653, 4730654, 4730652, 2548217, 2548215, 2548216,
         2375183, 2375181, 2375182, 2189810, 2189808, 2189809),
}


@pytest.mark.parametrize("pem", list(CANONICAL_CONTEXTS))
def test_canonical_context_pins(pem):
    ctx = field_ctx(*pem)
    mod, prim, text = CANONICAL_CONTEXTS[pem]
    assert from_digits(ctx._mod_digits, pem[0]) == mod
    assert ctx.primitive_elt.code == prim
    assert repr(ctx) == text
    if pem in CANONICAL_EMBEDDINGS:
        q = pem[0] ** pem[1]
        assert tuple(ctx.embed_scalar(c).code for c in range(q)) == CANONICAL_EMBEDDINGS[pem]


# Oracles for the field products: FPoly multiplication and remainder over F_p.


def _fpoly_product(p, a, b, mod):
    """a*b mod `mod` over F_p through FPoly, as deg(mod) digits, lowest first."""
    field = PrimePower.make(p)
    return ((FPoly(field, a) * FPoly(field, b)) % FPoly(field, mod)).padded(len(mod) - 1)


_UNTABLED_ODD = ((3, 16), (5, 16), (3, 30), (7, 12), (13, 10))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_UNTABLED_ODD).flatmap(
    lambda pm: st.tuples(st.just(pm), st.integers(0, pm[0] ** pm[1] - 1),
                         st.integers(0, pm[0] ** pm[1] - 1))))
@example(((13, 10), 13**10 - 1, 13**10 - 1))
@example(((3, 30), 3**30 - 1, 3**29))
def test_untabled_odd_product_is_the_fpoly_product(case):
    (p, m), a, b = case
    ctx = field_ctx(p, 1, m)
    assert ctx._exp is None
    x, y = ctx.from_code(a), ctx.from_code(b)
    mod = ctx.modulus
    want = (FPoly(mod.field, x.digits) * FPoly(mod.field, y.digits)) % mod
    assert ctx.mul(x, y).digits == want.padded(ctx.deg)


def test_field_past_int64_digit_products_is_refused():
    # 2^32 + 15 is prime and (p - 1)^2 > 2^63: the product of p - 1 with
    # itself overflowed int64 and came out 4294967087 instead of 1
    with pytest.raises(DomainError, match="2\\^63"):
        field_ctx(4294967311, 1, 1)
    # the first prime past isqrt(2^63), and degree 2 at the first prime past 2^31
    for p, m in ((3037000507, 1), (2147483659, 2)):
        with pytest.raises(DomainError, match="2\\^63"):
            field_ctx(p, 1, m)


def test_largest_admitted_prime_squares_minus_one_to_one():
    p = 3037000493  # the largest prime with (p - 1)^2 < 2^63
    assert is_prime(p) and (p - 1) ** 2 < 1 << 63 <= (3037000507 - 1) ** 2
    assert all(not is_prime(x) for x in range(p + 1, 3037000507))
    ctx = field_ctx(p, 1, 1)
    minus_one = ctx.from_code(p - 1)
    assert ctx.mul(minus_one, minus_one) == ctx.one()
    assert ctx.mul(minus_one, ctx.from_code(2)).code == p - 2


_TABLED =[(p, d) for p in (2, 3, 5, 7, 11, 13) for d in range(1, 17) if p**d <= 1 << 16]


@pytest.mark.parametrize("p,d", _TABLED)
def test_exp_table_steps_by_the_primitive_element(p, d):
    ctx = field_ctx(p, 1, d)
    g, exp, log = ctx.group_order, ctx._exp, ctx._log
    assert len(exp) == 2 * g and exp[:g] == exp[g:] and exp[0] == 1
    assert all(log[c] == i for i, c in enumerate(exp[:g]))
    mod, prim = ctx._mod_digits, ctx.primitive_elt.digits
    # y -> y*prim is F_p-linear; its rows x^j*prim are FPoly products
    step = np.array([_fpoly_product(p, (0,) * j + (1,), prim, mod) for j in range(d)])
    weights = p ** np.arange(d)
    digits = np.array(exp[:g])[:, None] // weights % p
    assert (digits @ step % p @ weights).tolist() == exp[1:g + 1]
    for i in random.Random(g).sample(range(g), min(g, 40)):
        assert exp[i + 1] == from_digits(_fpoly_product(p, to_digits(exp[i], p, d), prim, mod), p)


_SCALAR_FIELDS = [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19) for e in range(2, 10)
                  if p**e <= 512]


@pytest.mark.parametrize("p,e", _SCALAR_FIELDS)
def test_scalar_tables_are_fpoly_products(p, e):
    q = p**e
    add, mul, inv = _scalar_tables(p, e)
    mod = _find_irreducible(p, e)
    digits = [to_digits(c, p, e) for c in range(q)]
    rows = range(q) if q <= 128 else [0, 1, q - 1] + random.Random(q).sample(range(2, q - 1), 16)
    for a in rows:
        assert list(mul[a]) == [from_digits(_fpoly_product(p, digits[a], db, mod), p)
                                for db in digits]
    for a in range(1, q):
        assert _fpoly_product(p, digits[a], digits[inv[a]], mod) == digits[1]
    for a in range(q):
        assert list(add[a]) == [from_digits([(x + y) % p for x, y in zip(digits[a], db)], p)
                                for db in digits]
