import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from uplab.gf import (DomainError, FieldCtx, PrimePower, _find_irreducible, factorize,
                      field_ctx, from_digits, is_prime, is_primitive, mult_order,
                      nth_root_of_unity, ord_mod, splitting_ctx, to_digits)


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
