import functools
import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uplab.cli import Cache
from uplab.asymptotics import construction_demo
from uplab.gf import DomainError, InternalError, PrimePower, from_digits, to_digits
from uplab.polyring import FPoly, cyclotomic_cosets, factor_xn_minus_1, xn_minus_1
from uplab.cyclic import (DEFAULT_BUDGET, _ENUM_CAP_T, _PASS, CyclicCode, _bz_distance,
                          _min_weight_qp, _orbit_key, _multiplier_reps, _scan_weight_w_q2,
                          _strides, _systematic_rows, bch_bound, enumerate_codes, ht_bound,
                          min_distance, mu, strong_up_witness)

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


def binary_distance_oracle(code):
    """Tabulate all 2^k codewords of a binary code by doubling over the
    shifted-generator rows x^i g, then take the least nonzero popcount."""
    g = from_digits(code.gen.coeffs, 2)
    table = np.zeros(1, np.uint64)
    for i in range(code.dim):
        table = np.concatenate([table, table ^ np.uint64(g << i)])
    return int(np.bitwise_count(table[1:]).min())


def parity_check_oracle(code):
    """The fewest positions j whose syndromes x^j mod g sum to 0, for binary
    codes of small codimension, where 2^k codewords are too many to table."""
    g, m = from_digits(code.gen.coeffs, 2), code.gen.degree
    cols, r = [], 1
    for _ in range(code.n):
        if r >> m & 1:
            r ^= g
        cols.append(r)
        r <<= 1
    return next(w for w in range(1, code.n + 1) for s in itertools.combinations(cols, w)
                if functools.reduce(operator.xor, s) == 0)


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


def test_enumeration_cap_refuses_f9_length_40_at_once():
    # 24 cosets: 2^24 codes at about 1 KB each would not fit in memory
    assert len(cyclotomic_cosets(40, 9).cosets) == 24
    with pytest.raises(DomainError, match=r"2\^24"):
        enumerate_codes(40, 9)
    # the cap still admits mu(127, 2), whose 19 cosets the table pins
    assert len(cyclotomic_cosets(127, 2).cosets) == 19 <= _ENUM_CAP_T


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
# the reference engine: bch_bound and ht_bound before they became one stacked
# scan, kept verbatim (ht_bound called bch_bound once per direction and
# height).  The bounds must return its values on every input below.

_REFERENCE_BLOCK = 1 << 20


def _reference_bch_bound(zeros, n: int) -> int:
    """Largest delta with delta-1 zeros in arithmetic progression, any stride
    coprime to n.  Empty zero sets give 1.

    Stride -b walks the runs of stride b backwards, so only b <= n/2 is
    scanned, all strides in one numpy pass; each walk covers Z/n twice so
    that runs wrapping around are caught."""
    zs = set(zeros)
    if not zs:
        return 1
    if len(zs) >= n:
        return n + 1
    member = np.zeros(n, bool)
    member[list(zs)] = True
    strides = np.array([b for b in range(1, n // 2 + 1) if math.gcd(b, n) == 1])
    steps = np.arange(2 * n)
    chunk = max(1, _REFERENCE_BLOCK // (2 * n))  # strides per pass, to bound memory at large n
    longest = 0
    for lo in range(0, len(strides), chunk):
        walks = member[np.outer(strides[lo:lo + chunk], steps) % n]
        # run length at each step: steps since the last non-zero (-1 before any)
        last_gap = np.maximum.accumulate(np.where(walks, -1, steps), axis=1)
        longest = max(longest, int((steps - last_gap).max()))
    return min(longest, n - 1) + 1


def _reference_ht_bound(zeros, n: int) -> int:
    """Hartmann-Tzeng bound: the best delta+s over zero patterns
    {a + k*b + r*c : k < delta-1, r <= s} with b, c coprime to n.

    For a direction c and a height h let I_h be the set of x with x + r*c a
    zero for every r < h.  A stride-b run of m elements of I_h is an m x h
    grid of zeros, worth m + h, and bch_bound(I_h) is the longest such run
    plus one; so the bound is the largest bch_bound(I_h) - 1 + h over c and
    h = 1, 2, ... until I_h is empty.  h = 1 is the BCH value, the same for
    every c.  Only c <= n/2 is scanned: I_h for -c is a translate of I_h for c.
    """
    zs = set(zeros)
    if not zs:
        return 1
    if len(zs) >= n:
        return n + 1
    best = _reference_bch_bound(zs, n)
    for c in range(1, n // 2 + 1):
        if math.gcd(c, n) != 1:
            continue
        rows, h = {x for x in zs if (x + c) % n in zs}, 2
        while rows:
            best = max(best, _reference_bch_bound(rows, n) - 1 + h)
            rows = {x for x in rows if (x + h * c) % n in zs}
            h += 1
    return min(best, n)


_REFERENCE_CASES = ([(n, 2) for n in range(1, 32, 2)]
                    + [(n, 3) for n in range(1, 21) if n % 3])


@pytest.mark.parametrize("n,q", _REFERENCE_CASES)
def test_bounds_match_the_reference_on_every_code(n, q):
    for c in enumerate_codes(n, q):
        assert bch_bound(c.zeros, n) == _reference_bch_bound(c.zeros, n), c
        assert ht_bound(c.zeros, n) == _reference_ht_bound(c.zeros, n), c


def test_bounds_match_the_reference_past_one_pass():
    rng = random.Random(9)
    units, _, first = _strides(255)
    assert _PASS // first.size < len(units)  # the rows I_h need several passes
    for _ in range(3):
        zeros = {i for i in range(255) if rng.random() < 0.3}
        assert bch_bound(zeros, 255) == _reference_bch_bound(zeros, 255)
        assert ht_bound(zeros, 255) == _reference_ht_bound(zeros, 255), sorted(zeros)
    units, _, first = _strides(511)
    assert len(first) < len(units)  # so do the strides
    for _ in range(3):
        zeros = {i for i in range(511) if rng.random() < 0.5}
        assert bch_bound(zeros, 511) == _reference_bch_bound(zeros, 511), sorted(zeros)
    zeros = rng.choice(cyclotomic_cosets(511, 2).cosets)  # ht is slow at 511: one coset
    assert ht_bound(zeros, 511) == _reference_ht_bound(zeros, 511), sorted(zeros)


@pytest.mark.parametrize("zeros,n,message", [({7}, 7, "zero 7 "), ({0, 8, 9}, 7, "zero 9 "),
                                             ({-1, 2}, 5, "zero -1 "),
                                             ({1, 2, 3}, 0, "length 0 "), (set(), 0, "length 0 ")])
def test_bounds_refuse_zeros_that_are_not_residues(zeros, n, message):
    for bound in (bch_bound, ht_bound):
        with pytest.raises(DomainError, match=message):
            bound(zeros, n)


# ---------------------------------------------------------------------------
# generator matrices

_BASIS_CASES = ([(n, 2) for n in range(1, 32, 2)]
                + [(n, q) for q in (3, 4, 5, 7, 8, 9) for n in range(1, 21) if math.gcd(n, q) == 1])


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
    assert r.method == "bz"


def test_repetition_code():
    rep = [c for c in enumerate_codes(7, 2) if c.dim == 1][0]
    assert min_distance(rep).d == 7


def test_qr17():
    qr = [c for c in enumerate_codes(17, 2) if c.dim == 9][0]
    r = min_distance(qr)
    assert r.d == 5
    # [17,9,5]: the bound chain closes, ht equals the distance
    assert ht_bound(qr.zeros, 17) == 5


_KERNEL_GRID = [(7, 2), (15, 2), (17, 2), (8, 3), (13, 3), (5, 4), (7, 8), (8, 9), (5, 16)]


@pytest.mark.parametrize("n,q", _KERNEL_GRID)
def test_kernel_matches_reencoding_oracle(n, q):
    # the oracle's scalar products off a prime field are table lookups in
    # pure Python, so there it re-encodes at most 2^12 messages per code
    cap = 1 << 16 if PrimePower.of(q).e == 1 else 1 << 12
    for code in enumerate_codes(n, q):
        if code.q**code.dim > cap:
            continue
        assert min_distance(code).d == distance_oracle(code), code


def test_bz_bracket_and_convergence():
    qr = [c for c in enumerate_codes(17, 2) if c.dim == 9][0]
    # 9 weight-1 messages, then C(9, 2) = 36 at weight 2: 40 starves that round
    r = min_distance(qr, budget=40)
    assert not r.exact and r.method == "bz"
    assert r.lower <= 5 <= r.upper
    r = min_distance(qr, budget=100)  # ceil(17 * 3 / 9) = 6 closes it at weight 2
    assert r.exact and r.method == "bz" and r.d == 5
    codes = enumerate_codes(43, 2)
    c29 = [c for c in codes if c.dim == 29][0]
    r = min_distance(c29)
    assert r.exact and r.method == "bz"
    # dual route: 2^29 codewords are too many to tabulate, so deepen on an
    # equivalent code uZ, whose systematic basis differs
    twin = next(c for c in codes if c.dim == 29 and c.zeros != c29.zeros)
    assert _orbit_key(twin.zeros, 43, _multiplier_reps(43, 2)) == \
        _orbit_key(c29.zeros, 43, _multiplier_reps(43, 2))
    assert _systematic_rows(twin) != _systematic_rows(c29)
    again = min_distance(twin)
    assert again.exact and again.d == r.d


@pytest.mark.parametrize("n,q", [(n, 2) for n in range(1, 32, 2)]
                         + [(n, 3) for n in range(1, 17) if n % 3]
                         + [(n, 4) for n in range(1, 16, 2)] + [(7, 8), (9, 8), (8, 9), (10, 9)])
def test_bz_matches_exhaustive(n, q):
    # binary: every code is exact from min_distance at the default budget and
    # matches the tabulated codewords, or, past 2^22 of them, the deepening
    # on an equivalent code uZ and the fewest dependent parity-check columns
    if q == 2:
        codes = enumerate_codes(n, q)
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for code in codes:
            r = min_distance(code)
            assert r.exact and r.method == "bz", code
            if code.dim <= 22:
                assert r.d == binary_distance_oracle(code), code
                continue
            images = {tuple(sorted(u * z % n for z in code.zeros)) for u in units}
            twin = next(c for c in codes if c.zeros == max(images - {code.zeros}, default=code.zeros))
            assert min_distance(twin).d == r.d == parity_check_oracle(code), code
        return
    # q > 2: the deepening tier run to completion against the exhaustive kernel
    for code in enumerate_codes(n, q):
        full = min_distance(code, budget=1 << 40)
        assert full.method == "exhaustive"
        r = _bz_distance(code, bch_bound(code.zeros, n), budget=1 << 40)
        assert r.exact and r.method == "bz" and r.d == full.d, code


def test_bz_deepens_off_prime_fields():
    # 4^9 exceeds the budget, so the deepening tier must certify d over F_4;
    # the bch bound alone gives only [3, 15]
    code = [c for c in enumerate_codes(15, 4) if c.dim == 9][0]
    r = min_distance(code, budget=1000)
    assert (r.method, r.exact, r.d) == ("bz", True, 3)
    full = min_distance(code)
    assert (full.method, full.d) == ("exhaustive", 3)


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


@PROPERTY
@given(st.integers(1, 9), st.sampled_from([5, 64, 65, 130]), st.integers(0, 2**64))
def test_scan_weight_w_q2_is_the_least_weight_w_combination(k, n, seed):
    # any rows, not only a cyclic basis, so no weight-w message can hide
    # behind a shift of another codeword
    rng = random.Random(seed)
    rows = [rng.getrandbits(n) for _ in range(k)]
    for w in range(1, k + 1):
        expected = min(functools.reduce(operator.xor, c).bit_count()
                       for c in itertools.combinations(rows, w))
        assert _scan_weight_w_q2(rows, n, w) == expected, (w, rows)


def test_block_min_weight_past_one_byte():
    # rows of 604 bits (ten 64-bit words) over disjoint blocks of 150 ones, so
    # every weight-w message weighs 151 w > 255: the per-word counts must
    # accumulate in uint16, not wrap at 256
    k, block = 4, 150
    n = k * (block + 1)
    rows = [1 << i | ((1 << block) - 1) << (k + i * block) for i in range(k)]
    for w in range(2, k + 1):  # w = 4 XORs one outer row onto the table
        expected = min(functools.reduce(operator.xor, c).bit_count()
                       for c in itertools.combinations(rows, w))
        assert _scan_weight_w_q2(rows, n, w) == expected == (block + 1) * w
    rep = CyclicCode.from_gen(257, 2, "1" * 257)
    assert rep.dim == 1 and min_distance(rep).d == 257


def test_budget_never_aborts():
    big = [c for c in enumerate_codes(31, 2) if c.dim == 21][0]
    r = min_distance(big, budget=10)
    assert r.lower <= r.upper
    assert not r.exact or r.lower == r.upper


@pytest.mark.parametrize("gen,dim,bch,d", [
    ("10001110001", 21, 4, 5),
    ("100101", 26, 3, 3),
    ("1000000010001011", 16, 5, 5),
    ("1001000011000111", 16, 5, 7),
])
def test_binary_distance_pins(gen, dim, bch, d):
    code = CyclicCode.from_gen(31, 2, gen)
    r = min_distance(code)
    assert (code.dim, code._bch, r.d, r.method) == (dim, bch, d, "bz")


def test_bz_refuses_a_codeword_below_the_bch_bound():
    # the Hamming code has weight-3 rows: a claimed bound of 4 is a fault
    code = CyclicCode.from_gen(7, 2, "1101")
    assert _bz_distance(code, 3, DEFAULT_BUDGET).d == 3
    with pytest.raises(InternalError, match="bound 4 exceeds true distance 3"):
        _bz_distance(code, 4, DEFAULT_BUDGET)
    # over F_3 too, where every row of the [13, 10] code weighs at most 4
    code = CyclicCode.from_gen(13, 3, "2111")
    with pytest.raises(InternalError, match="exceeds true distance"):
        _bz_distance(code, 5, DEFAULT_BUDGET)


@pytest.mark.parametrize("n,q,gen,dim,bch,d,work", [
    (16, 3, "1000101", 10, 3, 3, 2),                  # the second row of the first slab
    (16, 3, "10021121", 9, 4, 5, 3**9 - 1),           # d > bch: every message
])
def test_kernels_stop_inside_the_low_table(n, q, gen, dim, bch, d, work):
    # the low table is checked as it is built, so a code meeting its bch
    # bound stops at the first message that does; work counts the messages
    code = CyclicCode.from_gen(n, q, gen)
    rows = _systematic_rows(code)
    assert (code.dim, bch_bound(code.zeros, n)) == (dim, bch)
    assert _min_weight_qp(rows, code.field, bch, DEFAULT_BUDGET) == (d, work)
    assert min_distance(code).work == work


def test_kernels_stop_inside_the_high_walk():
    # rows of weight 2 (a unit vector plus a shared last position) make every
    # low-table codeword weigh at least 2; the weight-1 row is the first high
    # digit, so stop_at 1 ends the walk after one block past the low table
    n = 40
    field = PrimePower.of(3)  # 3^10 low messages, then the high digits
    rows = np.zeros((12, n), np.int64)
    rows[np.arange(12), np.arange(12)] = 1
    rows[:, n - 1] = 1
    rows[10] = 0
    rows[10, 20] = 2
    assert _min_weight_qp(rows, field, 1, DEFAULT_BUDGET) == (1, 2 * 3**10 - 1)
    assert _min_weight_qp(rows, field, 0, DEFAULT_BUDGET) == (1, 3**12 - 1)


@pytest.mark.parametrize("n,q", [(n, q) for n, q in _KERNEL_GRID if q > 2])
def test_kernel_work_is_every_message_past_bch(n, q):
    # a code whose distance exceeds its bch bound can stop nowhere early
    cap = 1 << 16 if PrimePower.of(q).e == 1 else 1 << 12
    for code in enumerate_codes(n, q):
        if code.q**code.dim > cap:
            continue
        r = min_distance(code)
        assert 1 <= r.work <= code.q**code.dim - 1, code
        if r.d > bch_bound(code.zeros, n):
            assert r.work == code.q**code.dim - 1, code


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
                                          (11, 2, 12), (13, 3, 11), (17, 4, 14), (19, 4, 17)])
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


# at each of these lengths every divisor mu computes comes back exact, with
# or without the target mu passes (the test asserts it), so a cached result
# is the one a fresh computation gives, with work 0; mu(31, 2) below has
# target brackets
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
    assert not any(method == "bz" and lower < upper
                   for n, q in _CACHE_CASES for _, lower, upper, method in _cacheless_mu(n, q)[4])
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


def test_mu_31_with_exact_results_cached_where_it_brackets():
    # a fresh run stops nine dim-11 divisors at a target bracket; a cache
    # primed with every exact distance answers them instead.  mu, its bracket
    # and the witness stay; each differing record was a bracket that cannot
    # lower mu and is now exact with work 0
    fresh = mu(31, 2)
    cache = Cache(None)  # in memory only
    for code in enumerate_codes(31, 2):
        min_distance(code, cache=cache)
    cached = mu(31, 2, cache=cache)
    assert _mu_summary(cached)[:4] == _mu_summary(fresh)[:4] == (20, 20, True, fresh.witness.gen_string())
    # compare results, not work: a cache hit sets work to 0 on any record
    differ = [(code, a, b) for (code, a), (_, b) in zip(fresh.per_divisor, cached.per_divisor)
              if (a.lower, a.upper, a.exact) != (b.lower, b.upper, b.exact)]
    assert len(differ) == 9 and {code.dim for code, _, _ in differ} == {11}
    for code, a, b in differ:
        assert (a.method, a.exact) == ("bz", False) and code.dim + a.lower >= fresh.mu
        assert b.exact and b.work == 0 and a.lower <= b.d <= a.upper
        assert b.d == binary_distance_oracle(code)


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
