import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from uplab.cli import Cache
from uplab.asymptotics import construction_demo
from uplab.gf import DomainError, PrimePower, to_digits
from uplab.polyring import FPoly, cyclotomic_cosets, factor_xn_minus_1, xn_minus_1
from uplab.cyclic import (DEFAULT_BUDGET, CyclicCode, _bz_distance, _orbit_key,
                          _multiplier_reps, _systematic_rows, bch_bound, enumerate_codes,
                          ht_bound, min_distance, mu, strong_up_witness)

# deterministic property tests that leave no example database behind
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# oracles


def bch_oracle(zeros, n):
    """Exhaustive stride/offset search for the longest progression of zeros."""
    zs = set(zeros)
    if not zs:
        return 1
    best = 1
    for b in range(1, n):
        if math.gcd(b, n) != 1:
            continue
        for a in range(n):
            d = 0
            while d < n and (a + d * b) % n in zs:
                d += 1
            best = max(best, d + 1)
    return best


def ht_oracle(zeros, n):
    """Exhaustive (a, b, c, delta, s) grid search."""
    zs = set(zeros)
    if not zs:
        return 1
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    best = 2
    for b in units:
        for c in units:
            for a in range(n):
                # grow delta, then s greedily for each delta
                for delta in range(2, n + 1):
                    pts = {(a + k * b) % n for k in range(delta - 1)}
                    if not pts <= zs:
                        break
                    s = 0
                    while s + delta <= n:
                        # rows 0..s are zeros already; test row s + 1
                        layer = {(p + (s + 1) * c) % n for p in pts}
                        if not layer <= zs:
                            break
                        s += 1
                    best = max(best, delta + s)
    return best


def distance_oracle(code):
    """Re-encode every nonzero message against the shifted-generator rows."""
    n, k, field = code.n, code.dim, code.field
    gen = code.gen.padded(n)
    rows = []
    for i in range(k):
        rows.append(tuple(gen[(j - i) % n] for j in range(n)))
    best = n + 1
    for msg in itertools.product(range(field.q), repeat=k):
        if not any(msg):
            continue
        cw = [0] * n
        for m, row in zip(msg, rows):
            if m:
                for j in range(n):
                    if row[j]:
                        cw[j] = field.sadd(cw[j], field.smul(m, row[j]))
        best = min(best, sum(1 for c in cw if c))
    return best


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_7_2():
    codes = enumerate_codes(7, 2)
    assert len(codes) == 7
    assert sorted(c.dim for c in codes) == [1, 3, 3, 4, 4, 6, 7]
    for c in codes:
        assert (xn_minus_1(c.field, 7) % c.gen).is_zero()
        assert len(c.zeros) == c.gen.degree
        assert c.dim == 7 - c.gen.degree


def test_enumerate_17_2():
    codes = enumerate_codes(17, 2)
    assert sorted(c.dim for c in codes) == [1, 8, 8, 9, 9, 16, 17]


@pytest.mark.parametrize("p", [3, 5, 11, 13, 19, 29])
def test_primitive_prime_has_three_codes(p):
    assert len(enumerate_codes(p, 2)) == 3


def test_enumeration_order():
    codes = enumerate_codes(21, 2)
    keys = [(c.gen.degree, c.gen_string()) for c in codes]
    assert keys == sorted(keys)
    assert len(codes) == 2 ** 6 - 1


def test_enumeration_order_with_letter_digits():
    # q = 29, 31 need digits past 9; coefficient order is string order
    for n, q in [(7, 29), (5, 31)]:
        codes = enumerate_codes(n, q)
        keys = [(c.gen.degree, c.gen_string()) for c in codes]
        assert keys == sorted(keys)
        assert len(codes) == 2 ** n - 1


def test_enumeration_and_mu_beyond_digit_strings():
    # q = 211 has no digit serialization; enumeration and mu still work
    codes = enumerate_codes(5, 211)
    assert len(codes) == 2 ** 5 - 1
    keys = [(c.gen.degree, c.gen.coeffs) for c in codes]
    assert keys == sorted(keys)
    rec = mu(5, 211)
    assert rec.exact
    assert rec.mu == min(c.dim + min_distance(c).d for c in codes) == 6


def test_from_gen_roundtrip():
    for c in enumerate_codes(15, 2):
        again = CyclicCode.from_gen(15, 2, c.gen_string())
        assert again.zeros == c.zeros and again.dim == c.dim
    with pytest.raises(DomainError):
        CyclicCode.from_gen(7, 2, "111")  # x^2+x+1 does not divide x^7-1


def test_enumeration_matches_per_mask_products():
    # oracle: each mask's generator as the full product of its factors
    for n, q in [(7, 2), (21, 2), (31, 2), (26, 3), (12, 5), (8, 9)]:
        field = PrimePower.from_int(q)
        part, factors = cyclotomic_cosets(n, q), factor_xn_minus_1(n, field)
        t = len(factors)
        expected = []
        for mask in range((1 << t) - 1):
            gen, zeros = FPoly.one(field), []
            for i in range(t):
                if mask >> i & 1:
                    gen = gen * factors[i]
                    zeros.extend(part.cosets[i])
            expected.append((gen.degree, gen.coeffs, tuple(sorted(zeros))))
        got = [(c.gen.degree, c.gen.coeffs, c.zeros) for c in enumerate_codes(n, q)]
        assert got == sorted(expected)


def test_from_gen_refuses_the_zero_polynomial():
    for gen in ("0", "00"):
        with pytest.raises(DomainError, match="zero polynomial"):
            CyclicCode.from_gen(7, 2, gen)
    with pytest.raises(DomainError, match="zero polynomial"):
        CyclicCode.from_gen(8, 3, FPoly.zero(PrimePower.from_int(3)))


def test_construction_code_is_its_generator_code():
    for q, p, seed in [(2, 3, 0), (2, 5, 1), (3, 3, 0), (2, 7, 4)]:
        rep = construction_demo(q, p, 0.5, seed=seed, budget=0)
        code = CyclicCode.from_gen(rep.n, q, rep.gen)
        assert code.dim == rep.dim == rep.n - p * rep.s_prime
        # budget 0 is a budget, not the default: no exhaustive enumeration
        assert rep.distance == min_distance(code, 0) and rep.distance.method == "bz"


def test_enumeration_refuses_huge_lattices():
    # q = 32 is 1 mod 31: all singleton cosets, 2^31 divisors
    with pytest.raises(DomainError):
        enumerate_codes(31, 32)


# ---------------------------------------------------------------------------
# designed-distance bounds


def test_bch_examples():
    assert bch_bound({1, 2, 4}, 7) == 3
    assert bch_bound(set(), 7) == 1
    assert bch_bound(set(range(1, 7)), 7) == 7
    assert bch_bound(set(range(1, 17)), 17) == 17


def test_bch_against_oracle():
    rng = random.Random(2)
    for n in (7, 9, 11, 12, 15):
        for _ in range(12):
            zeros = {i for i in range(n) if rng.random() < 0.45}
            assert bch_bound(zeros, n) == bch_oracle(zeros, n), (n, sorted(zeros))
    for n, q in [(7, 2), (15, 2), (13, 3)]:
        for c in enumerate_codes(n, q):
            assert bch_bound(c.zeros, n) == bch_oracle(c.zeros, n)


@st.composite
def _zero_sets(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    return n, draw(st.sets(st.integers(0, n - 1)))


@PROPERTY
@given(_zero_sets())
def test_bch_property_arbitrary_subsets(case):
    # subsets need not be unions of cyclotomic cosets
    n, zeros = case
    assert bch_bound(zeros, n) == bch_oracle(zeros, n)


def test_ht_examples_and_oracle():
    coset = (1, 2, 4, 8, 9, 13, 15, 16)
    assert ht_bound(coset, 17) == 5  # regression pin, matches the oracle below
    assert ht_oracle(set(coset), 17) == 5
    assert ht_bound((), 17) == 1
    rng = random.Random(4)
    for n in (7, 9, 10, 11, 13):
        for _ in range(6):
            zeros = {i for i in range(n) if rng.random() < 0.5}
            assert ht_bound(zeros, n) == ht_oracle(zeros, n), (n, sorted(zeros))


@PROPERTY
@given(_zero_sets(max_n=30))
@example((16, {1, 3, 7, 8, 12, 14}))  # the best grid needs a direction c in (n/4, n/2]
@example((25, {7, 8, 16, 19, 21}))
def test_ht_property_arbitrary_subsets(case):
    # n up to 30 includes even and composite lengths, where ht_bound's
    # directions c <= n/2 are checked against the oracle's every unit c
    n, zeros = case
    assert ht_bound(zeros, n) == ht_oracle(zeros, n)


def test_ht_at_least_bch():
    for n, q in [(7, 2), (15, 2), (17, 2), (13, 3)]:
        for c in enumerate_codes(n, q):
            assert ht_bound(c.zeros, n) >= bch_bound(c.zeros, n)


# ---------------------------------------------------------------------------
# generator matrices

_BASIS_CASES = ([(n, 2) for n in range(1, 32, 2)]
                + [(n, q) for q in (3, 5, 7) for n in range(1, 21) if n % q])


@functools.lru_cache(maxsize=None)
def _codes(n, q):
    return enumerate_codes(n, q)


@PROPERTY
@given(st.sampled_from(_BASIS_CASES), st.integers(0, 10**6))
def test_systematic_rows_are_the_systematic_basis(case, pick):
    # identity on columns 0..k-1 and every row a multiple of g: together
    # these fix the unique systematic basis, so no elimination oracle is needed
    n, q = case
    codes = _codes(n, q)
    code = codes[pick % len(codes)]
    k = code.dim
    rows = _systematic_rows(code)
    if q == 2:
        rows = [list(to_digits(r, 2, n)) for r in rows]
    else:
        assert rows.shape == (k, n)
        rows = [[int(c) for c in r] for r in rows]
    assert len(rows) == k
    for i, row in enumerate(rows):
        assert row[:k] == [int(j == i) for j in range(k)]
        assert (FPoly(code.field, row) % code.gen).is_zero()


def _multiplier_reps_oracle(n, q):
    """The first unit met in each coset of <q> in (Z/n)*, scanning upwards."""
    reps, seen = [], set()
    for u in range(1, max(n, 2)):
        if math.gcd(u, n) != 1 or u in seen:
            continue
        reps.append(u)
        while u not in seen:
            seen.add(u)
            u = u * q % n
    return reps


def test_multiplier_reps_against_the_scan():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        for n in range(2, 200):
            if math.gcd(n, q) == 1:
                assert _multiplier_reps(n, q) == _multiplier_reps_oracle(n, q), (n, q)
    # n = 1: the one coset is {0}; every multiplier gives the same key
    assert _multiplier_reps(1, 2) == [0]
    assert _orbit_key((0,), 1, [0]) == _orbit_key((0,), 1, [1])


# ---------------------------------------------------------------------------
# minimum distance


def test_hamming_code():
    code = CyclicCode.from_gen(7, 2, "1101")
    r = min_distance(code)
    assert (r.lower, r.upper, r.exact) == (3, 3, True)
    assert r.method == "exhaustive"


def test_repetition_code():
    rep = [c for c in enumerate_codes(7, 2) if c.dim == 1][0]
    assert min_distance(rep).d == 7


def test_qr17():
    qr = [c for c in enumerate_codes(17, 2) if c.dim == 9][0]
    r = min_distance(qr)
    assert r.d == 5
    # [17,9,5]: the bound chain closes, ht equals the distance
    assert ht_bound(qr.zeros, 17) == 5


@pytest.mark.parametrize("n,q", [(7, 2), (15, 2), (17, 2), (8, 3), (13, 3)])
def test_kernel_matches_reencoding_oracle(n, q):
    for code in enumerate_codes(n, q):
        if code.q**code.dim > 1 << 16:
            continue
        assert min_distance(code).d == distance_oracle(code), code


def test_generic_kernel_prime_power_base():
    # base field F_4: the generic enumeration path
    codes = enumerate_codes(5, 4)
    got = {(c.dim, min_distance(c).d) for c in codes}
    assert (1, 5) in got  # repetition
    assert (5, 1) in got  # whole space
    for c in codes:
        if c.q**c.dim <= 1 << 12:
            assert min_distance(c).d == distance_oracle(c)


def test_bz_bracket_and_convergence():
    qr = [c for c in enumerate_codes(17, 2) if c.dim == 9][0]
    # 9 weight-1 messages, then C(9, 2) = 36 at weight 2: 40 starves that round
    r = min_distance(qr, budget=40)
    assert not r.exact and r.method == "bz"
    assert r.lower <= 5 <= r.upper
    r = min_distance(qr, budget=100)  # ceil(17 * 3 / 9) = 6 closes it at weight 2
    assert r.exact and r.method == "bz" and r.d == 5
    c29 = [c for c in enumerate_codes(43, 2) if c.dim == 29][0]
    r = min_distance(c29)  # 2^29 exceeds the default budget; deepening closes it
    assert r.exact and r.method == "bz"
    # dual route: the exhaustive kernel at a raised budget must agree
    full = min_distance(c29, budget=1 << 30)
    assert full.method == "exhaustive" and full.d == r.d


@pytest.mark.parametrize("n,q", [(n, 2) for n in range(1, 32, 2)]
                         + [(n, 3) for n in range(1, 17) if n % 3])
def test_bz_matches_exhaustive(n, q):
    # the deepening tier run to completion against the exhaustive kernel
    for code in enumerate_codes(n, q):
        full = min_distance(code, budget=1 << 40)
        assert full.method == "exhaustive"
        r = _bz_distance(code, bch_bound(code.zeros, n), budget=1 << 40)
        assert r.exact and r.method == "bz" and r.d == full.d, code


@pytest.mark.parametrize("q,n", [(127, 7), (211, 7), (241, 8), (251, 5)])
def test_reed_solomon_codes_are_mds(q, n):
    # n | q - 1, so every zero set is a union of singletons; a zero set in
    # arithmetic progression gives a (generalised) Reed-Solomon code
    rs = [c for c in enumerate_codes(n, q) if bch_bound(c.zeros, n) == len(c.zeros) + 1]
    assert len(rs) >= 2 * n
    for code in rs:
        r = min_distance(code)
        assert r.exact and r.d == n - code.dim + 1, code


_EQUIVALENCE_CASES = [(15, 2), (17, 2), (21, 2), (23, 2), (31, 2), (13, 3), (11, 3), (16, 3)]


@PROPERTY
@given(st.sampled_from(_EQUIVALENCE_CASES), st.integers(0, 10**6), st.integers(0, 10**6))
def test_distance_invariant_under_multipliers(case, pick, unit):
    # x -> x^u permutes coordinates and maps the code with zeros Z to uZ
    n, q = case
    codes = enumerate_codes(n, q)
    code = codes[pick % len(codes)]
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    u = units[unit % len(units)]
    image = tuple(sorted(u * z % n for z in code.zeros))
    twin = next(c for c in codes if c.zeros == image)
    reps = _multiplier_reps(n, q)
    assert _orbit_key(code.zeros, n, reps) == _orbit_key(twin.zeros, n, reps)
    assert twin.dim == code.dim
    assert min_distance(twin).d == min_distance(code).d


def test_gray_kernel_weights_past_one_byte():
    # five 64-bit words; the per-word counts must not wrap at 256
    rep = CyclicCode.from_gen(257, 2, "1" * 257)
    assert rep.dim == 1 and min_distance(rep).d == 257


def test_budget_never_aborts():
    big = [c for c in enumerate_codes(31, 2) if c.dim == 21][0]
    r = min_distance(big, budget=10)
    assert r.lower <= r.upper
    assert not r.exact or r.lower == r.upper


@pytest.mark.parametrize("gen,dim,d,work", [
    ("10001110001", 21, 5, 2**21 - 1),  # the whole walk: every nonzero message
    ("100101", 26, 3, 2**16 - 1),       # the low table alone reaches bch = 3
])
def test_gray_walk_past_the_low_table(gen, dim, d, work):
    # k > 16: the high rows are walked serially, and the work is exact
    code = CyclicCode.from_gen(31, 2, gen)
    r = min_distance(code)
    assert (code.dim, r.d, r.method, r.work) == (dim, d, "exhaustive", work)


def test_no_positional_workers():
    # the removed workers argument must not bind to a later parameter
    code = CyclicCode.from_gen(7, 2, "1101")
    with pytest.raises(TypeError):
        mu(7, 2, 1 << 28, 1)
    with pytest.raises(TypeError):
        min_distance(code, 1 << 28, 1)
    with pytest.raises(TypeError):
        strong_up_witness(7, 2, 1 << 28, 1)


def test_distance_monotone_under_divisibility():
    for n, q in [(7, 2), (9, 2), (15, 2), (13, 3)]:
        codes = enumerate_codes(n, q)
        dist = {c.gen_string(): min_distance(c).d for c in codes}
        for a in codes:
            for b in codes:
                if a is not b and (b.gen % a.gen).is_zero():
                    # a.gen | b.gen means C(b) inside C(a)
                    assert dist[a.gen_string()] <= dist[b.gen_string()]


def test_bounds_below_distance():
    for n, q in [(7, 2), (15, 2), (17, 2), (13, 3)]:
        for c in enumerate_codes(n, q):
            d = min_distance(c).d
            b = bch_bound(c.zeros, n)
            h = ht_bound(c.zeros, n)
            assert b <= h <= d


# ---------------------------------------------------------------------------
# the invariant


@pytest.mark.parametrize("n,q,expected", [(7, 2, 7), (17, 2, 14), (9, 2, 6),
                                          (11, 2, 12), (13, 3, 11)])
def test_mu_values(n, q, expected):
    rec = mu(n, q)
    assert rec.exact and rec.mu == expected
    wd = min_distance(rec.witness).d
    assert wd + rec.witness.dim == rec.mu


def test_mu_13_3_against_full_scan():
    # independent of the pruning: brute-force the minimum over all divisors
    best = min(c.dim + distance_oracle(c) for c in enumerate_codes(13, 3)
               if c.q**c.dim <= 1 << 16)
    assert mu(13, 3).mu == best


def test_mu_singleton_cap():
    for n, q in [(7, 2), (9, 2), (11, 2), (15, 2), (17, 2), (13, 3), (8, 3)]:
        rec = mu(n, q)
        assert rec.mu <= n + 1


def test_mu_bracket_under_tiny_budget():
    rec = mu(17, 2, budget=40)
    assert not rec.exact
    assert rec.mu_lower <= 14 <= rec.mu_upper
    # a budget that lets the window rounds finish recovers exactness
    assert mu(17, 2, budget=200).mu == 14


def test_mu_cache_reuse():
    cache = Cache(None)  # in memory only
    first = mu(17, 2)
    for code, res in first.per_divisor:
        if res.exact and res.work > 0:
            cache.put(code, res)
    again = mu(17, 2, cache=cache)
    assert again.mu == first.mu
    reused = [r for c, r in again.per_divisor if cache.get(c) is not None]
    assert reused and all(r.work == 0 for r in reused)


# q^n <= DEFAULT_BUDGET at each of these lengths, so every code, whatever its
# dimension, gets the exhaustive kernel and an exact distance: a cached
# result is the one a fresh computation gives, with work 0
_CACHE_CASES = [(7, 2), (9, 2), (15, 2), (17, 2), (21, 2), (23, 2),
                (8, 3), (10, 3), (11, 3), (13, 3), (6, 5), (5, 4)]


def _mu_summary(rec):
    return (rec.mu_lower, rec.mu_upper, rec.exact, rec.witness.gen_string(),
            [(c.gen_string(), r.lower, r.upper, r.method) for c, r in rec.per_divisor])


@functools.lru_cache(maxsize=None)
def _cacheless_mu(n, q):
    return _mu_summary(mu(n, q))


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(_CACHE_CASES), st.none() | st.integers(0, 10**6)),
                max_size=6),
       st.sampled_from(_CACHE_CASES))
def test_mu_records_do_not_depend_on_cache_history(earlier, case):
    assert all(q**n <= DEFAULT_BUDGET for n, q in _CACHE_CASES)
    cache = Cache(None)  # in memory only
    for (n, q), pick in earlier:
        if pick is None:
            mu(n, q, cache=cache)
        else:
            codes = enumerate_codes(n, q)
            min_distance(codes[pick % len(codes)], cache=cache)
    n, q = case
    cached = set(cache.entries)
    rec = mu(n, q, cache=cache)
    assert _mu_summary(rec) == _cacheless_mu(n, q)
    for code, res in rec.per_divisor:
        if (q, n, code.gen_string()) in cached:
            assert res.work == 0


@pytest.mark.slow
def test_mu_103_exact_at_raised_budget():
    # Pins that need more than the default budget live here.  This one runs
    # about 7 minutes on one core, as `uplab mu --n 103 --q 2 --budget 8589934592`.
    # The [103, 52, 19] quadratic-residue code (MacWilliams-Sloane, ch. 16) and
    # its [103, 51, 20] even-weight subcode both give 71; the subcode comes
    # first in (dim, generator) order.
    rec = mu(103, 2, budget=1 << 33)
    assert rec.exact and rec.mu == 71
    assert rec.witness.dim == 51


@pytest.mark.parametrize("n", [23, 71])
def test_mu_reuses_equivalent_codes(n):
    rec = mu(n, 2)
    reps = _multiplier_reps(n, 2)
    by_orbit = {}
    for code, res in rec.per_divisor:
        if res.method != "bch_only":
            by_orbit.setdefault(_orbit_key(code.zeros, n, reps), []).append(res)
    assert any(len(group) > 1 for group in by_orbit.values())
    for group in by_orbit.values():
        # one computation per orbit; its equivalents copy it with work 0
        assert sum(r.work > 0 for r in group) == 1
        assert len({(r.lower, r.upper, r.exact, r.method) for r in group}) == 1


def test_mu_deterministic():
    a = mu(23, 2)
    b = mu(23, 2)
    assert a.mu == b.mu and a.witness.gen_string() == b.witness.gen_string()


# ---------------------------------------------------------------------------
# prime-length collapse witnesses


def test_strong_up_bounded():
    rep = strong_up_witness(7, 2)
    assert rep.branch == "bounded"
    assert rep.record.mu <= 7
    assert rep.witness is not None
    rep23 = strong_up_witness(23, 2)
    assert rep23.record.mu == 19 and rep23.witness.dim + min_distance(rep23.witness).d == 19


def test_strong_up_primitive():
    rep = strong_up_witness(5, 2)
    assert rep.branch == "primitive"
    assert rep.record.mu == 6
    assert rep.witness is None


def test_strong_up_rejects_composite():
    with pytest.raises(DomainError):
        strong_up_witness(9, 2)


@pytest.mark.parametrize("p,expected", [(71, 47), (73, 37), (79, 55), (89, 45)])
def test_mu_beyond_the_exhaustive_budget(p, expected):
    # 2^35+ dimensions force the deepening tier end to end
    rec = mu(p, 2)
    assert rec.exact and rec.mu == expected
