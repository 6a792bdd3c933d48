import itertools
import math
import random
import time

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from uplab.cyclic import CyclicCode, _codes, _lattice, _orbit_keys, bch_bound, ht_bound
from uplab.gf import (FIELD_ORDER_CAP, DomainError, InternalError, PrimePower, nth_root_of_unity,
                      ord_mod, splitting_ctx)
from uplab.mstransform import transform_weight
from uplab.polyring import (_FACTOR_CAP, _NUMPY_LEN, FPoly, _coset_values, _pow_mod,
                            _recurrence_values, canonical_m1, cyclotomic_cosets, factor_xn_minus_1,
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
    # the default m1 is the first factor with roots of order 7 in coefficient order
    assert [f.to_string() for f in fs] == ["11", "1011", "1101"]
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


_GRID = [(7, 2), (9, 2), (15, 2), (17, 2), (21, 2), (23, 2), (31, 2), (63, 2), (127, 2),
         (4, 3), (8, 3), (11, 3), (13, 3), (26, 3), (6, 5), (12, 7), (5, 4)]


def _reference_factors(n: int, q):
    """The factors as products of linear terms over the canonical splitting
    field, coset by coset: the factoring that F_q[x] splitting replaced."""
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


@pytest.mark.parametrize("n,q", _GRID)
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


@pytest.mark.parametrize("n,q", _GRID + [(7, 8), (9, 8), (21, 8), (8, 9), (10, 9), (13, 9),
                                          (5, 16), (15, 16), (17, 16)])
def test_canonical_labels_match_the_splitting_field(n, q):
    assert factor_xn_minus_1(n, q, canonical_m1(n, q)) == _reference_factors(n, q)


_LABEL_CASES = [(n, q) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(1, 61)
                if math.gcd(n, q) == 1 and (n == 1 or q ** ord_mod(q, n) < FIELD_ORDER_CAP)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_LABEL_CASES))
def test_default_labels_are_a_unit_multiple_of_the_canonical(case):
    n, q = case
    field = PrimePower.of(q)
    part = cyclotomic_cosets(n, q)
    reference = _reference_factors(n, field)
    factors = factor_xn_minus_1(n, field)
    assert factor_xn_minus_1(n, field, canonical_m1(n, field)) == reference
    assert sorted(f.coeffs for f in factors) == sorted(f.coeffs for f in reference)
    if field.e == 1:
        _, theirs = sympy.Poly(X**n - 1, X, modulus=q).factor_list()
        assert sorted(f.coeffs for f in factors) == sorted(_from_sympy(f, q) for f, _ in theirs)
    # the default m1 is the minimal polynomial of zeta^u, zeta the canonical
    # root, so its zero sets are the canonical ones divided by u
    m1 = factors[next(i for i, c in enumerate(part.cosets) if 1 % n in c)]
    u = part.cosets[reference.index(m1)][0]
    assert math.gcd(u, n) == 1
    if len(part.cosets) > 6:
        return
    gens, degree, masks = _lattice(n, field)
    codes = _codes(field, part, gens, degree, masks)
    for code, mask in zip(codes, masks.tolist()):
        chosen = [(code.gen % f).is_zero() for f in reference]
        zeros = tuple(sorted(z for c, hit in zip(part.cosets, chosen) if hit for z in c))
        assert tuple(sorted(u * z % n for z in code.zeros)) == zeros
        assert bch_bound(code.zeros, n) == bch_bound(zeros, n)
        assert ht_bound(code.zeros, n) == ht_bound(zeros, n)
        canonical = sum(1 << i for i, hit in enumerate(chosen) if hit)
        assert len(set(_orbit_keys(part, np.array([mask, canonical])).tolist())) == 1


@pytest.mark.parametrize("n,q", [(6, 1000003), (3, 65537), (4, 10007)])
def test_large_q_splits_without_a_scalar_loop(n, q):
    # a split that tried every a in F_q took seconds here
    m1 = canonical_m1(n, q)
    start = time.perf_counter()
    factors = factor_xn_minus_1(n, q, m1)
    assert time.perf_counter() - start < 0.1
    assert factors == _reference_factors(n, q)


@pytest.mark.parametrize("n,q", [(255, 2), (255, 4), (300, 7), (310, 311)])
def test_long_lengths_match_the_splitting_field(n, q):
    # long enough for the numpy rows and the side-by-side recurrences; over
    # F_311 all 310 factors are linear and the splitters run deep
    assert factor_xn_minus_1(n, q, canonical_m1(n, q)) == _reference_factors(n, q)


def test_factoring_cap():
    with pytest.raises(DomainError, match="factoring cap"):
        factor_xn_minus_1(_FACTOR_CAP + 1, 2)


@pytest.mark.parametrize("n,q", [(21, 2), (15, 4), (20, 9), (5, (1 << 61) - 1)])
def test_side_by_side_recurrences_match_one_at_a_time(n, q):
    # 2^61 - 1 squares past int64, so its rows hold Python integers
    field = PrimePower.of(q)
    factors = factor_xn_minus_1(n, field)
    many = factors * (_NUMPY_LEN**2 // (n * len(factors)) + 1)
    cosets = cyclotomic_cosets(n, field.q).cosets
    for probes in (cosets, cosets[1::2]):
        assert _coset_values(many, probes, n) == [_recurrence_values(f, probes, n) for f in many]


@pytest.mark.parametrize("p", [2, 3, 1000003, (1 << 61) - 1])
def test_long_prime_field_mul_divmod_match_sympy(p):
    # past _NUMPY_LEN the rows run in numpy, unless p^2 overflows int64
    field, rng = PrimePower.make(p), random.Random(p)
    for la, lb in ((300, 70), (400, 13), (90, 80)):
        fa = FPoly(field, tuple(rng.randrange(p) for _ in range(la - 1)) + (1 + rng.randrange(p - 1),))
        fb = FPoly(field, tuple(rng.randrange(p) for _ in range(lb - 1)) + (1 + rng.randrange(p - 1),))
        sa, sb = _sympy_poly(fa.coeffs, p), _sympy_poly(fb.coeffs, p)
        assert (fa * fb).coeffs == _from_sympy(sa * sb, p)
        qt, rm = divmod(fa, fb)
        sq, sr = sympy.div(sa, sb)
        assert (qt.coeffs, rm.coeffs) == (_from_sympy(sq, p), _from_sympy(sr, p))


@pytest.mark.parametrize("n,degrees", [(67, [1, 66]), (83, [1, 82]), (101, [1, 100]),
                                       (199, [1, 99, 99])])
def test_lengths_past_the_splitting_field_cap(n, degrees):
    # F_2^ord_n(2) is past 2^64 at each: the split needs no field, the labels do
    with pytest.raises(DomainError, match="exceeds cap 2\\^64"):
        canonical_m1(n, 2)
    factors = factor_xn_minus_1(n, 2)
    assert [f.degree for f in factors] == degrees
    assert all(is_irreducible(f) for f in factors)


def test_m1_relabels_by_a_unit():
    n = 21
    part = cyclotomic_cosets(n, 2)
    where = {z: i for i, c in enumerate(part.cosets) for z in c}
    factors = factor_xn_minus_1(n, 2)
    for coset, f in zip(part.cosets, factors):
        u = coset[0]
        if math.gcd(u, n) != 1:
            with pytest.raises(DomainError, match="order 21"):
                factor_xn_minus_1(n, 2, f)
            continue
        # f is the minimal polynomial of zeta^u: its coset of c is the default one of u*c
        assert factor_xn_minus_1(n, 2, f) == [factors[where[u * c[0] % n]] for c in part.cosets]
    with pytest.raises(DomainError, match="order 21"):
        factor_xn_minus_1(n, 2, FPoly.x(F2))


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


@pytest.mark.parametrize("p,degrees", [(5, (5, 6)),
                                       pytest.param(7, (4, 5, 6), marks=pytest.mark.slow)])
def test_is_irreducible_matches_sympy_through_degree_6(p, degrees):
    # the degrees up to 6 that test_is_irreducible_matches_sympy leaves out; sympy's
    # dense F_p routine, since building a sympy Poly per polynomial costs more than both
    field = PrimePower.make(p)
    for d in degrees:
        for low in itertools.product(range(p), repeat=d):
            f = low + (1,)
            assert is_irreducible(FPoly(field, f)) == gf_irreducible_p(f[::-1], p, ZZ), f


def _irreducible_by_gcds(f: FPoly) -> bool:
    """The test is_irreducible ran before Rabin's: gcd(x^(q^k) - x, f) = 1
    for every k <= d/2, since a reducible f has a factor of degree at most d/2."""
    x, f = FPoly.x(f.field), f.monic()
    t = x
    for _ in range(f.degree // 2):
        t = _pow_mod(t, f.field.q, f)
        if poly_gcd(t - x, f).degree != 0:
            return False
    return True


@pytest.mark.parametrize("q", [4, 8, 9])
def test_is_irreducible_matches_the_gcd_loop_over_prime_powers(q):
    field = PrimePower.of(q)
    for d in range(1, 5):
        for low in itertools.product(range(q), repeat=d):
            f = FPoly(field, low + (1,))
            assert is_irreducible(f) == _irreducible_by_gcds(f), f
    # a non-monic leading coefficient is scaled away first
    f = FPoly(field, (1, 1, q - 1))
    assert is_irreducible(f) == _irreducible_by_gcds(f)


@pytest.mark.parametrize("n", [101, 199])
def test_is_irreducible_matches_the_gcd_loop_at_high_degree(n):
    # Phi_101 is irreducible over F_2 (degree 100, ord_101(2) = 100) and Phi_199
    # splits into two factors of degree 99 = 9 * 11, so both prime divisors of
    # the degree are tested; so are those factors with one coefficient changed
    rng = random.Random(n)
    for f in factor_xn_minus_1(n, 2)[1:]:
        assert f.degree in (99, 100) and is_irreducible(f) and _irreducible_by_gcds(f)
        for _ in range(3):
            i = rng.randrange(1, f.degree)
            g = FPoly(F2, f.coeffs[:i] + (1 - f.coeffs[i],) + f.coeffs[i + 1:])
            assert is_irreducible(g) == _irreducible_by_gcds(g), g


def test_is_irreducible_past_the_int64_products():
    # d * (p-1)^2 >= 2^63: the Frobenius matrix takes Python-int products
    p = 2**61 - 1
    field = PrimePower.make(p)
    for coeffs in [(3, 0, 1), (p - 3, 0, 1), (1, 1, 1), (2, 1, 0, 1), (5, 0, 0, 0, 1)]:
        f = FPoly(field, coeffs)
        assert is_irreducible(f) == _irreducible_by_gcds(f), coeffs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_xn_minus_1_matches_sympy(p):
    field = PrimePower.make(p)
    for n in (n for n in range(1, 40) if math.gcd(n, p) == 1):
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


def _validated(f):
    """f, checked to be what the public constructor would build: trimmed,
    with Python int coefficients in range."""
    assert all(type(c) is int and 0 <= c < f.field.q for c in f.coeffs), f
    assert not f.coeffs or f.coeffs[-1] != 0, f
    assert f == FPoly(f.field, f.coeffs)
    return f


def _poly_lists(q):
    # short operands, and some long enough for the numpy rows of prime fields
    size = st.sampled_from([(0, 8), (0, 8), (0, 8), (_NUMPY_LEN, _NUMPY_LEN + 8)])
    return size.flatmap(lambda s: st.lists(st.integers(0, q - 1), min_size=s[0], max_size=s[1]))


_TRUSTED_FIELDS = [2, 3, 4, 5, 8, 9, 262147]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_TRUSTED_FIELDS).flatmap(
    lambda q: st.tuples(st.just(q), _poly_lists(q), _poly_lists(q), st.integers(0, 20))))
def test_arithmetic_results_are_validated_polynomials(case):
    # +, *, divmod, %, poly_gcd and _pow_mod build their results unchecked;
    # each must equal the checked construction, and over a prime field sympy
    q, a, b, e = case
    field = PrimePower.of(q)
    fa, fb = FPoly(field, tuple(a)), FPoly(field, tuple(b))
    total, prod = _validated(fa + fb), _validated(fa * fb)
    scaled = _validated(fa * (q - 1))
    g = _validated(poly_gcd(fa, fb))
    results = [total, prod, scaled, g]
    if not fb.is_zero():
        qt, rm = divmod(fa, fb)
        results += [_validated(qt), _validated(rm), _validated(fa % fb)]
    if not fb.is_zero():
        results.append(_validated(_pow_mod(fa, e, fb)))
    if field.e > 1:
        return
    sa, sb = _sympy_poly(fa.coeffs, q), _sympy_poly(fb.coeffs, q)
    expect = [sa + sb, sa * sb, sa * (q - 1), sympy.gcd(sa, sb)]
    if not fb.is_zero():
        sq, sr = sympy.div(sa, sb)
        expect += [sq, sr, sr]
    if not fb.is_zero():
        power = _sympy_poly((1,), q)
        for _ in range(e):  # reduced at each step: sa**e itself is slow at degree 70
            power = sympy.rem(power * sa, sb)
        expect.append(sympy.rem(power, sb))
    assert [f.coeffs for f in results] == [_from_sympy(f, q) for f in expect]


def test_pow_mod_reduces_the_empty_product():
    # x^0 is 1, which a constant modulus reduces to 0 like every other power
    two, x = FPoly(F3, (2,)), FPoly.x(F3)
    assert [_pow_mod(x, k, two).coeffs for k in (0, 1, 5)] == [(), (), ()]
    assert _pow_mod(x, 0, FPoly(F3, (1, 1))).coeffs == (1,)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_inputs_are_still_validated(q):
    field = PrimePower.of(q)
    with pytest.raises(DomainError):
        FPoly(field, (q,))
    with pytest.raises(DomainError):
        FPoly(field, (1, -1))
    with pytest.raises(DomainError):
        FPoly.from_string(field, "1" + "0123456789"[q])
    with pytest.raises(DomainError):
        transform_weight((1, q, 0, 0, 0), q)
    with pytest.raises(DomainError):
        CyclicCode.from_gen(5, q, "1" + "0123456789"[q])
