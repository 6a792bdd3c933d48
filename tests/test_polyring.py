import itertools
import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from uplab.gf import FIELD_ORDER_CAP, DomainError, PrimePower, ord_mod
from uplab.polyring import (FPoly, cyclotomic_cosets, factor_xn_minus_1,
                            is_irreducible, poly_gcd, poly_to_word,
                            word_to_poly, xn_minus_1)

F2 = PrimePower.make(2)
F3 = PrimePower.make(3)


def test_arith_examples():
    assert poly_gcd(FPoly(F2, (1, 0, 1)), FPoly(F2, (1, 1))).to_string() == "11"
    assert (FPoly(F2, (1, 1)) * FPoly(F2, (1, 1))).to_string() == "101"
    x7 = FPoly(F2, (0,) * 7 + (1,))
    assert (x7 % xn_minus_1(F2, 7)).to_string() == "1"


def test_mixed_field_error():
    with pytest.raises(DomainError):
        FPoly(F2, (1, 1)) + FPoly(F3, (1, 1))


def test_divmod_reconstruction():
    rng = random.Random(3)
    for field in (F2, F3, PrimePower.make(5)):
        for _ in range(30):
            a = FPoly(field, tuple(rng.randrange(field.q) for _ in range(rng.randrange(1, 12))))
            b = FPoly(field, tuple(rng.randrange(field.q) for _ in range(rng.randrange(1, 8))))
            if b.is_zero():
                continue
            qt, rm = divmod(a, b)
            assert qt * b + rm == a
            assert rm.degree < b.degree or rm.is_zero()


def test_cosets_examples():
    assert cyclotomic_cosets(7, 2).cosets == ((0,), (1, 2, 4), (3, 5, 6))
    c17 = cyclotomic_cosets(17, 2).cosets
    assert c17[0] == (0,)
    assert sorted(len(c) for c in c17) == [1, 8, 8]
    assert c17[1] == (1, 2, 4, 8, 9, 13, 15, 16)
    # q = 1 mod n: multiplication by q is the identity, all singletons
    assert cyclotomic_cosets(5, 11).cosets == ((0,), (1,), (2,), (3,), (4,))
    with pytest.raises(DomainError):
        cyclotomic_cosets(9, 3)


def test_factor_x7_minus_1():
    fs = factor_xn_minus_1(7, 2)
    assert sorted(f.to_string() for f in fs) == ["1011", "11", "1101"]
    prod = FPoly.one(F2)
    for f in fs:
        assert is_irreducible(f)
        prod = prod * f
    assert prod == xn_minus_1(F2, 7)
    # census for n = q^p - 1 with q=2, p=3: one linear factor, two of degree 3
    assert sorted(f.degree for f in fs) == [1, 3, 3]


def test_factor_x3_minus_1():
    fs = factor_xn_minus_1(3, 2)
    assert sorted(f.to_string() for f in fs) == ["11", "111"]


def test_is_irreducible_examples():
    assert is_irreducible(FPoly(F2, (1, 1, 1)))
    assert not is_irreducible(FPoly(F2, (1, 0, 1)))
    assert is_irreducible(FPoly(F2, (1, 1, 0, 1)))
    with pytest.raises(DomainError):
        is_irreducible(FPoly(F2, (1,)))


@pytest.mark.parametrize("n,q", [(7, 2), (9, 2), (15, 2), (17, 2), (21, 2), (23, 2),
                                 (31, 2), (63, 2), (127, 2), (4, 3), (8, 3), (11, 3),
                                 (13, 3), (26, 3), (6, 5), (12, 7), (5, 4)])
def test_factorization_properties(n, q):
    field = PrimePower.from_int(q)
    part = cyclotomic_cosets(n, q)
    fs = factor_xn_minus_1(n, field)
    assert len(fs) == len(part.cosets)
    prod = FPoly.one(field)
    for coset, f in zip(part.cosets, fs):
        assert f.degree == len(coset)
        prod = prod * f
    assert prod == xn_minus_1(field, n)
    assert sum(len(c) for c in part.cosets) == n


@pytest.mark.parametrize("n,q", [(7, 2), (17, 2), (23, 2), (31, 2), (13, 3), (11, 3)])
def test_factor_count_prime_length(n, q):
    assert len(cyclotomic_cosets(n, q)) == 1 + (n - 1) // ord_mod(q, n)


def test_word_poly_roundtrip():
    rng = random.Random(5)
    for field in (F2, F3):
        for n in (1, 2, 5, 9, 16):
            w = tuple(rng.randrange(field.q) for _ in range(n))
            assert poly_to_word(word_to_poly(field, w), n) == w


def test_string_roundtrip():
    rng = random.Random(9)
    for field in (F2, F3, PrimePower.make(5)):
        for _ in range(20):
            f = FPoly(field, tuple(rng.randrange(field.q) for _ in range(rng.randrange(1, 10))))
            assert FPoly.from_string(field, f.to_string()) == f


def test_irreducible_factors_over_f4():
    # prime-power base field: coefficients must come back into F_4
    f4 = PrimePower.make(2, 2)
    fs = factor_xn_minus_1(5, f4)
    prod = FPoly.one(f4)
    for f in fs:
        prod = prod * f
        if f.degree > 1:
            assert is_irreducible(f)
    assert prod == xn_minus_1(f4, 5)
    assert sorted(f.degree for f in fs) == [1, 2, 2]  # ord_5(4) = 2


X = sympy.Symbol("x")


def _sympy_poly(coeffs, p):
    return sympy.Poly(list(reversed(coeffs)), X, modulus=p)


def _from_sympy(f, p):
    # sympy keeps symmetric residues, highest degree first, and [0] for zero
    return FPoly(PrimePower.make(p), tuple(c % p for c in reversed(f.all_coeffs()))).coeffs


@pytest.mark.parametrize("p,max_deg", [(2, 8), (3, 6), (5, 4), (7, 3)])
def test_is_irreducible_matches_sympy(p, max_deg):
    field = PrimePower.make(p)
    for d in range(1, max_deg + 1):
        for low in itertools.product(range(p), repeat=d):
            f = low + (1,)
            assert is_irreducible(FPoly(field, f)) == _sympy_poly(f, p).is_irreducible, f


_SPLITTABLE = [(n, p) for p in (2, 3, 5, 7) for n in range(1, 40)
               if math.gcd(n, p) == 1 and (n == 1 or p ** ord_mod(p, n) < FIELD_ORDER_CAP)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_xn_minus_1_matches_sympy(p):
    field = PrimePower.make(p)
    for n, _ in (case for case in _SPLITTABLE if case[1] == p):
        ours = sorted(f.coeffs for f in factor_xn_minus_1(n, field))
        _, theirs = sympy.Poly(X**n - 1, X, modulus=p).factor_list()
        assert all(mult == 1 for _, mult in theirs)
        assert ours == sorted(_from_sympy(f, p) for f, _ in theirs)


_PRIME_POLYS = st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(
    lambda p: st.tuples(st.just(p),
                        st.lists(st.integers(0, p - 1), max_size=12),
                        st.lists(st.integers(0, p - 1), max_size=8)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_PRIME_POLYS)
def test_prime_field_mul_divmod_match_sympy(case):
    p, a, b = case
    field = PrimePower.make(p)
    fa, fb = FPoly(field, tuple(a)), FPoly(field, tuple(b))
    sa, sb = _sympy_poly(fa.coeffs, p), _sympy_poly(fb.coeffs, p)
    assert (fa * fb).coeffs == _from_sympy(sa * sb, p)
    if fb.is_zero():
        return
    qt, rm = divmod(fa, fb)
    sq, sr = sympy.div(sa, sb)
    assert (qt.coeffs, rm.coeffs) == (_from_sympy(sq, p), _from_sympy(sr, p))

