import functools
import itertools
import math
import operator
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from uplab import cyclic
from uplab.cli import Cache
from uplab.asymptotics import construction_demo
from uplab.gf import DomainError, InternalError, PrimePower, from_digits, to_digits
from uplab.polyring import FPoly, cyclotomic_cosets, factor_xn_minus_1, xn_minus_1
from uplab.cyclic import (DEFAULT_BUDGET, _ENUM_CAP_T, _PASS, _TABLE, _WORD, CyclicCode,
                          DistanceResult, _bz_distance, _lattice, _min_weight_qp, _multiplier_reps,
                          _orbit_keys, _scalar_ops, _scan_weight_w, _strides, _subsets,
                          _systematic_rows, _weight_congruence,
                          bch_bound, enumerate_codes, ht_bound, min_distance, mu, strong_up_witness)

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


def binary_weights_oracle(code):
    """The sorted nonzero weights of a binary code of length <= 64: tabulate
    all 2^k codewords by doubling over the shifted-generator rows x^i g."""
    g = from_digits(code.gen.coeffs, 2)
    table = np.zeros(1, np.uint64)
    for i in range(code.dim):
        table = np.concatenate([table, table ^ np.uint64(g << i)])
    return np.unique(np.bitwise_count(table[1:])).tolist()


def binary_distance_oracle(code):
    """The least nonzero popcount over all 2^k codewords."""
    return binary_weights_oracle(code)[0]


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


def macwilliams_distance_oracle(code):
    """d from the MacWilliams identity (MacWilliams-Sloane, ch. 5), for q-ary
    codes of small codimension, with neither distance tier: tabulate the
    q^(n-k) words of the dual, generated by the reciprocal of
    h = (x^n - 1)/g, one digit at a time; then
    A_w = q^-(n-k) sum_i B_i K_w(i) in exact integers, with the dual's weight
    distribution B and the Krawtchouk polynomials K_w."""
    n, k, field = code.n, code.dim, code.field
    q, m = field.q, n - k
    h_rec = (xn_minus_1(field, n) // code.gen).coeffs[::-1]
    add = np.array([[field.sadd(a, b) for b in range(q)] for a in range(q)])
    words = np.zeros((1, n), np.int64)
    for i in range(m):
        row = (0,) * i + h_rec + (0,) * (m - 1 - i)
        multiples = np.array([[field.smul(c, x) for x in row] for c in range(q)])
        words = add[words[None], multiples[:, None]].reshape(-1, n)
    dual = np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
    weights = []
    for w in range(n + 1):
        total = sum(int(b) * sum((-1)**j * (q - 1)**(w - j) * math.comb(i, j) * math.comb(n - i, w - j)
                                 for j in range(w + 1))
                    for i, b in enumerate(dual) if b)
        a_w, rest = divmod(total, q**m)
        assert rest == 0 and a_w >= 0, (code, w)
        weights.append(a_w)
    assert weights[0] == 1 and sum(weights) == q**k, code
    return next(w for w in range(1, n + 1) if weights[w])


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


def test_repr_past_digit_strings():
    # a failing assertion that names a code over F_211 must still format;
    # the digit string, and with it JSON, stays refused
    code = enumerate_codes(5, 211)[1]
    assert repr(code) == f"CyclicCode([5,4] over F_211, gen={code.gen.coeffs!r})"
    assert repr(code.gen) == f"FPoly(q=211, {code.gen.coeffs!r})"
    with pytest.raises(DomainError):
        code.gen_string()
    assert repr(CyclicCode.from_gen(7, 2, "1101")) == "CyclicCode([7,4] over F_2, gen='1101')"
    assert repr(FPoly.from_string(PrimePower.of(32), "v1")) == "FPoly(q=32, 'v1')"
    assert repr(FPoly(PrimePower.of(37), (36, 1))) == "FPoly(q=37, (36, 1))"


def test_from_gen_roundtrip():
    for c in enumerate_codes(15, 2):
        again = CyclicCode.from_gen(15, 2, c.gen_string())
        assert again.zeros == c.zeros and again.dim == c.dim
    with pytest.raises(DomainError):
        CyclicCode.from_gen(7, 2, "111")  # x^2+x+1 does not divide x^7-1


def test_enumeration_matches_per_mask_products():
    # oracle: each mask's generator as the full product of its factors
    # and each code's mask; F_4 and F_8 multiply through their tables, and the
    # two primes past 2^32 make the batched products pass int64
    for n, q in [(7, 2), (21, 2), (31, 2), (26, 3), (12, 5), (8, 9), (21, 4), (15, 8),
                 (6, 2**32 + 15), (6, 2**61 - 1)]:
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
            expected.append((gen.degree, gen.coeffs, tuple(sorted(zeros)), mask))
        gens, degree, masks = _lattice(n, field)
        codes = cyclic._codes(field, part, gens, degree, masks)
        got = [(c.gen.degree, c.gen.coeffs, c.zeros, m) for c, m in zip(codes, masks.tolist())]
        assert got == sorted(expected), (n, q)
        assert [c.gen for c in enumerate_codes(n, q)] == [c.gen for c in codes]


def test_from_gen_refuses_the_zero_polynomial():
    for gen in ("0", "00"):
        with pytest.raises(DomainError, match="zero polynomial"):
            CyclicCode.from_gen(7, 2, gen)
    with pytest.raises(DomainError, match="zero polynomial"):
        CyclicCode.from_gen(8, 3, FPoly.zero(PrimePower.from_int(3)))


def test_from_gen_reads_zeros_off_masks_past_64_bits():
    # 128 = 1 mod 127: x^127 - 1 splits into 127 linear factors over F_128,
    # so a code's coset mask runs past a 64-bit integer
    field = PrimePower.of(128)
    factors = factor_xn_minus_1(127, field)
    for chosen in ([0, 100], range(60, 70), [126]):
        gen = functools.reduce(operator.mul, [factors[i] for i in chosen])
        assert CyclicCode.from_gen(127, 128, gen).zeros == tuple(chosen)


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
    # 24 cosets: 2^24 divisors would not fit in memory; mu(127, 2) peaks at
    # 133 MiB over 2^19 of them, and at 845 MiB, about 1.6 KiB each, once
    # its per-divisor records are read
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
    # a random set at 511 takes seconds even with the prune (the slow test below): one coset here
    zeros = rng.choice(cyclotomic_cosets(511, 2).cosets)
    assert ht_bound(zeros, 511) == _reference_ht_bound(zeros, 511), sorted(zeros)


@pytest.mark.slow
def test_ht_matches_the_reference_on_a_half_density_set_at_511():
    # about 3 s for ht_bound and 10 s for the reference engine; directions run
    # one at a time, and most drop out at heights 3 to 5
    rng = random.Random(511)
    zeros = {i for i in range(511) if rng.random() < 0.5}
    assert ht_bound(zeros, 511) == _reference_ht_bound(zeros, 511) == 17


# ---------------------------------------------------------------------------
# the prune of _grid_bound: a direction drops out once |I_h| + h <= best


@st.composite
def _dense_zero_sets(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    density, rng = draw(st.floats(0.5, 0.95)), random.Random(draw(st.integers(0, 2**32)))
    return n, {x for x in range(n) if rng.random() < density}


@PROPERTY
@given(_dense_zero_sets())
@example((36, set(range(36)) - {0, 13}))  # composite n, long chains I_h in every direction
def test_bounds_match_the_reference_on_dense_sets(case):
    n, zeros = case
    assert bch_bound(zeros, n) == _reference_bch_bound(zeros, n)
    assert ht_bound(zeros, n) == _reference_ht_bound(zeros, n)


@PROPERTY
@given(_dense_zero_sets())
def test_grid_rows_shrink_strictly_along_every_direction(case):
    # I_(h+1) and I_(h+1) + c lie in I_h: equal sizes would make I_h closed
    # under the unit c, so all of Z/n, which Z is not
    n, zeros = case
    assume(len(zeros) < n)
    for c in (u for u in range(1, n) if math.gcd(u, n) == 1):
        rows, h = set(zeros), 1  # I_1 = Z
        while rows:
            shorter = {x for x in rows if (x + h * c) % n in zeros}
            assert len(shorter) < len(rows), (c, h)
            rows, h = shorter, h + 1


class _Directions(np.ndarray):
    """The units of _strides, counting every read: up to n = 31 the scan of
    I_1 reads the strides through first alone, so a read is a direction pass."""
    reads = 0

    def __getitem__(self, key):
        _Directions.reads += 1
        return np.asarray(self)[key]


def _counted_strides(n):
    units, steps, first = _strides(n)
    return units.view(_Directions), steps, first


@pytest.mark.parametrize("zeros,n", [(range(1, 15), 15), (range(14), 15), (range(1, 31), 31),
                                     ((1, 3, 5, 7, 9), 21), ((2, 7, 20, 25), 28)])
def test_a_bch_value_of_all_zeros_plus_one_reads_no_direction(zeros, n):
    # no grid is worth more than |I_h| + h <= |Z| + 1
    _Directions.reads = 0
    with mock.patch.object(cyclic, "_strides", _counted_strides):
        assert ht_bound(zeros, n) == bch_bound(zeros, n) == len(zeros) + 1
    assert _Directions.reads == 0
    with mock.patch.object(cyclic, "_strides", _counted_strides):
        assert ht_bound((1, 2, 4), 7) == 3  # bch 3 <= |Z|: the directions are read
    assert _Directions.reads > 0


# (n, q, generator, bch, ht): the census codes (F_2, odd n <= 29; F_3, n <= 16)
# whose best grid has height h > 1, so that its direction must survive the prune
_HT_ABOVE_BCH = [(15, 2, "1011101", 3, 4), (15, 2, "11100111", 3, 4), (17, 2, "100111001", 4, 5),
                 (17, 2, "111010111", 4, 5), (21, 2, "101111101", 3, 4), (21, 2, "1110000111", 3, 4),
                 (21, 2, "100111011100011", 5, 6), (21, 2, "110001110111001", 5, 6),
                 (8, 3, "11121", 3, 4), (8, 3, "12111", 3, 4), (16, 3, "12001221", 3, 4),
                 (16, 3, "12210021", 3, 4), (16, 3, "22002211", 3, 4), (16, 3, "22110011", 3, 4),
                 (16, 3, "101010201", 3, 4), (16, 3, "102010101", 3, 4)]


def test_census_codes_with_ht_above_bch():
    found = [(n, q, c.gen_string(), bch_bound(c.zeros, n), ht_bound(c.zeros, n))
             for n, q in [(n, 2) for n in range(1, 30, 2)] + [(n, 3) for n in range(1, 17) if n % 3]
             for c in _codes(n, q) if ht_bound(c.zeros, n) > bch_bound(c.zeros, n)]
    assert found == _HT_ABOVE_BCH


@pytest.mark.parametrize("n,q,gen,bch,ht", _HT_ABOVE_BCH)
def test_ht_above_bch_against_the_oracle(n, q, gen, bch, ht):
    zeros = CyclicCode.from_gen(n, q, gen).zeros
    assert (bch_oracle(zeros, n), ht_oracle(zeros, n)) == (bch, ht)


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
    if q == 2:  # packed into 64-bit words, lowest first
        assert rows.shape == (k, (n + 63) // 64) and rows.dtype == np.uint64
        rows = [list(to_digits(sum(x << 64 * s for s, x in enumerate(r)), 2, n)) for r in rows.tolist()]
    else:
        assert rows.shape == (k, n)
        rows = [[int(c) for c in r] for r in rows]
    assert len(rows) == k
    for i, row in enumerate(rows):
        assert row[:k] == [int(j == i) for j in range(k)]
        assert (FPoly(code.field, row) % code.gen).is_zero()


def _rank_mod(rows, p):
    """Rank over F_p of integer rows, by elimination in Python integers."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * pow(rows[rank][col], -1, p)
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_distance_oracle(code):
    """n less the most positions S on which a nonzero codeword vanishes, that
    is, on which the shifted-generator rows x^i g have rank below k; over a
    prime field, in Python integers, with no message enumerated."""
    n, k, p = code.n, code.dim, code.q
    gen = code.gen.padded(n)
    rows = [[gen[(j - i) % n] for j in range(n)] for i in range(k)]
    return next(n - size for size in range(n - 1, k - 2, -1)
                for cols in itertools.combinations(range(n), size)
                if _rank_mod([[row[j] for j in cols] for row in rows], p) < k)


@pytest.mark.parametrize("p", [3037000493, 3037000507, 2**32 + 15, 2**61 - 1])
def test_distances_past_int64_products_match_a_rank_oracle(p):
    # the largest prime with (p - 1)^2 < 2^63, then three past it, where an
    # int64 product wraps: basis rows and distances must still be exact
    for code in enumerate_codes(6, p):
        for row in _systematic_rows(code):
            assert (FPoly(code.field, [int(c) for c in row]) % code.gen).is_zero(), code
        r, d = min_distance(code), rank_distance_oracle(code)
        assert r.lower <= d <= r.upper and (d == r.lower or not r.exact), (code, r, d)


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
    # n = 1: the one coset is {0}; its multiplier fixes every mask
    assert _multiplier_reps(1, 2) == [0]
    assert _orbit_keys(cyclotomic_cosets(1, 2), np.array([0, 1])).tolist() == [0, 1]


def _orbit_key_oracle(zeros, n, reps):
    """The least sorted u*Z mod n over the multipliers: the orbit key as a
    tuple of zeros, one sort per multiplier and code."""
    return min(tuple(sorted(u * z % n for z in zeros)) for u in reps)


def _keyed_codes(n, q):
    """enumerate_codes(n, q) and the mask orbit key of each code."""
    field, part = PrimePower.of(q), cyclotomic_cosets(n, q)
    gens, degree, masks = _lattice(n, field)
    return cyclic._codes(field, part, gens, degree, masks), _orbit_keys(part, masks).tolist()


def _mask_of(zeros, part):
    """The coset mask of a zero set that is a union of cosets."""
    return sum(1 << i for i, coset in enumerate(part.cosets) if coset[0] in zeros)


@pytest.mark.parametrize("n,q", [(31, 2), (63, 2), (21, 4), (26, 3), (13, 9)])
def test_mask_orbit_keys_partition_as_the_zero_set_keys(n, q):
    codes, keys = _keyed_codes(n, q)
    reps = _multiplier_reps(n, q)
    by_mask, by_zeros = {}, {}
    for i, (code, key) in enumerate(zip(codes, keys)):
        by_mask.setdefault(key, set()).add(i)
        by_zeros.setdefault(_orbit_key_oracle(code.zeros, n, reps), set()).add(i)
    assert sorted(map(sorted, by_mask.values())) == sorted(map(sorted, by_zeros.values()))
    # the key is the least mask of the orbit, over every unit (a sample of codes)
    part = cyclotomic_cosets(n, q)
    step = max(1, len(codes) // 300)
    for code, key in zip(codes[::step], keys[::step]):
        images = {_mask_of({u * z % n for z in code.zeros}, part) for u in range(n)
                  if math.gcd(u, n) == 1}
        assert key == min(images), code


@PROPERTY
@given(st.sampled_from([2, 3, 4]), st.integers(1, 45), st.integers(0, 2**45))
def test_bounds_are_multiplier_invariant(q, n, bits):
    # the facts that let mu take one bch bound per orbit: x -> x^u maps the
    # code with zeros Z onto the code with zeros uZ, and u maps a stride-b
    # progression onto a stride-ub one, ub also coprime to n
    assume(math.gcd(n, q) == 1)
    part = cyclotomic_cosets(n, q)
    zeros = [z for i, coset in enumerate(part.cosets) if bits >> i & 1 for z in coset]
    images = {tuple(sorted(u * z % n for z in zeros)) for u in range(1, n + 1)
              if math.gcd(u, n) == 1}
    assert {bch_bound(z, n) for z in images} == {bch_bound(zeros, n)}
    assert {ht_bound(z, n) for z in images} == {ht_bound(zeros, n)}


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


def test_mu_255_from_the_naive_up():
    # mu refuses length 255 (35 cosets), but one code settles it.  g = (x^255 - 1)/(x^17 - 1)
    # generates the 15-fold repetition of F_2^17, a [255, 17, 15] code; its zeros are the
    # exponents that are not multiples of 15.  The naive UP d * dim >= n gives
    # d + dim >= 2 sqrt(255), which this code meets: mu(255, 2) = 32
    field = PrimePower.of(2)
    code = CyclicCode.from_gen(255, 2, xn_minus_1(field, 255) // xn_minus_1(field, 17))
    assert code.zeros == tuple(z for z in range(255) if z % 15)
    res = min_distance(code)
    assert (code.dim, res.d, res.d * code.dim) == (17, 15, 255)
    assert res.d + code.dim == 32 == math.ceil(2 * math.sqrt(255))
    assert len(cyclotomic_cosets(255, 2).cosets) == 35 > _ENUM_CAP_T
    with pytest.raises(DomainError, match=r"2\^35"):
        mu(255, 2)


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
    codes, keys = _keyed_codes(43, 2)
    c29 = [c for c in codes if c.dim == 29][0]
    r = min_distance(c29)
    assert r.exact and r.method == "bz"
    # dual route: 2^29 codewords are too many to tabulate, so deepen on an
    # equivalent code uZ, whose systematic basis differs
    twin = next(c for c in codes if c.dim == 29 and c.zeros != c29.zeros)
    assert keys[codes.index(twin)] == keys[codes.index(c29)]
    assert not np.array_equal(_systematic_rows(twin), _systematic_rows(c29))
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
    # q > 2: the deepening tier run to completion against the exhaustive
    # kernel within one table, and past it against the MacWilliams identity
    for code in enumerate_codes(n, q):
        r = _bz_distance(code, bch_bound(code.zeros, n), budget=1 << 40)
        if code.q**code.dim <= _TABLE:
            full = min_distance(code, budget=1 << 40)
            assert full.method == "exhaustive"
            expected = full.d
        else:
            expected = macwilliams_distance_oracle(code)
            assert min_distance(code) == r, code
        assert r.exact and r.method == "bz" and r.d == expected, code


def test_bz_deepens_off_prime_fields():
    # 4^9 exceeds the budget, so the deepening tier must certify d over F_4;
    # the bch bound alone gives only [3, 15]
    code = [c for c in enumerate_codes(15, 4) if c.dim == 9][0]
    r = min_distance(code, budget=1000)
    assert (r.method, r.exact, r.d) == ("bz", True, 3)
    # 4^9 is past one table too, so the default budget deepens as well
    full = min_distance(code)
    assert (full.method, full.d) == ("bz", 3) == ("bz", macwilliams_distance_oracle(code))


def test_dim_4_codes_over_f127_deepen():
    # 127^4 messages are past one table: every dim-4 code closes on its k
    # basis rows, since the window bound ceil(7 * 2 / 4) = 4 meets the
    # lightest row.  Oracle: Singleton gives d <= 4, and every 3 of the 7
    # syndromes x^j mod g are independent over F_127, so d >= 4
    codes = [c for c in enumerate_codes(7, 127) if c.dim == 4]
    assert len(codes) == 35
    for code in codes:
        g, cols, r = code.gen.coeffs, [], (1, 0, 0)
        for _ in range(7):  # x r mod g, with x^3 = -(g_0 + g_1 x + g_2 x^2)
            cols.append(r)
            r = tuple((low - r[2] * gi) % 127 for low, gi in zip((0, r[0], r[1]), g))
        for a, b, c in itertools.combinations(cols, 3):
            det = (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                   + a[2] * (b[0] * c[1] - b[1] * c[0]))
            assert det % 127, code
        assert min_distance(code) == DistanceResult(4, 4, True, "bz", 4), code


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
    codes, keys = _keyed_codes(n, q)
    i = pick % len(codes)
    code = codes[i]
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    u = units[unit % len(units)]
    image = tuple(sorted(u * z % n for z in code.zeros))
    j = next(j for j, c in enumerate(codes) if c.zeros == image)
    twin = codes[j]
    assert keys[i] == keys[j]
    assert twin.dim == code.dim
    assert min_distance(twin).d == min_distance(code).d


def _packed(rows, n):
    """Bitmask rows in the scan's F_2 word form: ceil(n/64) uint64 words each."""
    return np.array([[r >> 64 * s & _WORD for s in range((n + 63) // 64)] for r in rows], np.uint64)


def scan_weight_w_oracle(rows, field, w):
    """Min weight over the messages of weight exactly w, lead coefficient 1,
    of scalar-code rows: every w-subset in turn, its last t coefficients
    tabled and the others looped over, where a position vanishes if the
    tabled word equals the negated looped part."""
    k, n = rows.shape
    q = field.q
    add, neg, dot = _scalar_ops(field)
    t = w - 1
    while t and (q - 1) ** t * n > 1 << 20:
        t -= 1
    tails = list(itertools.product(range(1, q), repeat=t))
    tail = np.array(tails, np.int64).reshape(len(tails), t)
    best = n + 1
    for combo in itertools.combinations(range(k), w):
        sub = rows[list(combo)]
        tail_words = dot(tail, sub[w - t:])
        for head in itertools.product(range(1, q), repeat=w - 1 - t):
            lead = add(sub[0], dot(np.asarray(head, np.int64), sub[1:w - t]))
            best = min(best, n - int((tail_words == neg(lead)).sum(axis=1).max()))
    return best


def test_subsets_are_the_combinations_in_order():
    for k in range(13):
        for m in range(1, 5):
            subsets, suffix = _subsets.__wrapped__(k, m)
            rows = np.array(list(itertools.combinations(range(k), m)), np.min_scalar_type(k)).reshape(-1, m)
            assert subsets.dtype == rows.dtype and subsets.shape == rows.shape, (k, m)
            assert (subsets == rows).all(), (k, m)
            for i in range(k + 1):  # rows from suffix[i] on: least element at least i
                assert (subsets[suffix[i]:, 0] >= i).all() and (subsets[:suffix[i], 0] < i).all()


@PROPERTY
@given(st.integers(1, 9), st.sampled_from([5, 64, 65, 130]), st.integers(0, 2**64))
def test_scan_weight_w_is_the_least_weight_w_combination(k, n, seed):
    # any rows, not only a cyclic basis, so no weight-w message can hide
    # behind a shift of another codeword
    rng = random.Random(seed)
    rows = [rng.getrandbits(n) for _ in range(k)]
    for w in range(1, k + 1):
        expected = min(functools.reduce(operator.xor, c).bit_count()
                       for c in itertools.combinations(rows, w))
        assert _scan_weight_w(_packed(rows, n), PrimePower.of(2), n, w) == expected, (w, rows)


@PROPERTY
@given(st.sampled_from([2, 3, 4, 5, 8, 9]), st.integers(1, 6), st.integers(1, 40),
       st.sampled_from([cyclic._BLOCK, 64]), st.integers(0, 2**64))
def test_scan_weight_w_matches_the_subset_loop(q, k, n, block, seed):
    # every round of random scalar-code rows against the loop over w-subsets;
    # a block of 64 entries lowers m and tables the lead coefficients in slices
    field, rng = PrimePower.of(q), random.Random(seed)
    rows = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(k)], np.int64)
    words = _packed([from_digits(r, 2) for r in rows.tolist()], n) if q == 2 else rows
    with mock.patch.object(cyclic, "_BLOCK", block):
        for w in range(1, k + 1):
            assert _scan_weight_w(words, field, n, w) == scan_weight_w_oracle(rows, field, w), (w, rows)


def test_scan_weight_w_past_one_byte():
    # rows of 604 bits (ten 64-bit words) over disjoint blocks of 150 ones, so
    # every weight-w message weighs 151 w > 255: the per-word counts must
    # accumulate in uint16, not wrap at 256
    k, block = 4, 150
    n = k * (block + 1)
    rows = [1 << i | ((1 << block) - 1) << (k + i * block) for i in range(k)]
    for w in range(2, k + 1):  # w = 4 adds one outer row onto the table
        expected = min(functools.reduce(operator.xor, c).bit_count()
                       for c in itertools.combinations(rows, w))
        assert _scan_weight_w(_packed(rows, n), PrimePower.of(2), n, w) == expected == (block + 1) * w
    rep = CyclicCode.from_gen(257, 2, "1" * 257)
    assert rep.dim == 1 and min_distance(rep).d == 257


def test_large_prime_field_rounds_stay_within_the_block():
    # the 5 x 262,146 multiples of the rows, 10 positions each, pass _BLOCK,
    # so the w = 2 round tables its lead coefficients a slice at a time: the
    # traced peak stays below the 50 MiB the whole table would take in uint32
    code = CyclicCode.from_gen(10, 262147, FPoly(PrimePower.of(262147), (1, 2, 2, 2, 2, 1)))
    assert code.dim == 5
    tracemalloc.start()
    try:
        r = min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.exact, r.d, r.method, r.work) == (True, 4, "bz", 2_621_465)
    assert r.d == rank_distance_oracle(code)
    assert peak < 32 << 20, peak


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


def _check_weight_congruence(code):
    # every weight is 0 or r mod M; for an even-like code (0 a zero) the
    # power of 2 in the gcd of its weights is M = 2^(l-1) exactly, which
    # checks l itself and not only the bound; and the deepening, which
    # rounds its lower bound by the congruence, still finds the lightest word
    weights = binary_weights_oracle(code)
    modulus, r = _weight_congruence(code)
    assert all(w % modulus in (0, r) for w in weights), (code, modulus, r, weights)
    if 0 in code.zeros:
        g = math.gcd(*weights)
        assert (r, g & -g) == (0, modulus), (code, modulus, weights)
    assert min_distance(code).d == weights[0], code


def test_weight_congruence_against_every_weight():
    # every binary cyclic code of odd n <= 31 and dim <= 16: 218 from n = 3
    # on, and the [1, 1] code
    codes = [c for n in range(1, 32, 2) for c in _codes(n, 2) if c.dim <= 16]
    assert len(codes) == 219
    for code in codes:
        _check_weight_congruence(code)


@st.composite
def _binary_codes(draw, max_n=45, max_dim=14):
    """A binary cyclic code of odd length whose nonzeros, a random union of
    cosets, number at most max_dim; its generator is the product of the
    other factors."""
    n = draw(st.sampled_from(range(1, max_n + 1, 2)))
    cosets = cyclotomic_cosets(n, 2).cosets
    order = draw(st.permutations(range(len(cosets))))
    nonzero, dim = set(), 0
    for i in order[:draw(st.integers(1, len(order)))]:
        if dim + len(cosets[i]) <= max_dim:
            nonzero.add(i)
            dim += len(cosets[i])
    assume(dim)
    field = PrimePower.of(2)
    gen = functools.reduce(operator.mul, (f for i, f in enumerate(factor_xn_minus_1(n, field))
                                          if i not in nonzero), FPoly(field, (1,)))
    return CyclicCode.from_gen(n, 2, gen)


@PROPERTY
@given(_binary_codes())
def test_weight_congruence_property(code):
    _check_weight_congruence(code)


def test_weight_congruence_is_computed_lazily_and_guards_the_upper_bound():
    hamming, qr = CyclicCode.from_gen(7, 2, "1101"), CyclicCode.from_gen(17, 2, "111010111")
    with mock.patch.object(cyclic, "_weight_congruence", wraps=_weight_congruence) as spy:
        assert _bz_distance(hamming, 3, DEFAULT_BUDGET).d == 3  # closed at w = 1: never asked
        assert spy.call_count == 0
        assert _bz_distance(qr, qr._bch, DEFAULT_BUDGET).d == 5  # open after w = 1: asked once
        assert spy.call_count == 1
    # the [17, 9] quadratic-residue code has odd weights 5, 9, ...: a claimed
    # modulus of 4 with residue 0 is a fault the first open round reports
    assert _weight_congruence(qr) == (2, 1)
    with mock.patch.object(cyclic, "_weight_congruence", return_value=(4, 0)):
        with pytest.raises(InternalError, match="weight 5 breaks the weight congruence mod 4"):
            _bz_distance(qr, qr._bch, DEFAULT_BUDGET)


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
    assert _min_weight_qp(rows, code.field, bch) == (d, work)
    assert min_distance(code).work == work


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


@pytest.mark.parametrize("p", [67, 83, 101])
def test_mu_past_the_splitting_field_cap(p):
    # 2 is primitive mod p, so x^p - 1 = (x - 1) * Phi_p and mu = p + 1 needs
    # no distance beyond the repetition code; F_2^(p-1) is past 2^64
    rec = mu(p, 2)
    assert rec.exact and rec.mu == p + 1
    assert strong_up_witness(p, 2).branch == "primitive"


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
    # a fresh run stops three dim-11 divisors, one orbit, at a target bracket
    # [9, 10]; a cache primed with every exact distance answers them instead.
    # mu, its bracket and the witness stay; each differing record was a
    # bracket that cannot lower mu and is now exact with work 0.  (Six more
    # dim-11 divisors close at the target since their weights are 0 mod 4.)
    fresh = mu(31, 2)
    cache = Cache(None)  # in memory only
    for code in enumerate_codes(31, 2):
        min_distance(code, cache=cache)
    cached = mu(31, 2, cache=cache)
    assert _mu_summary(cached)[:4] == _mu_summary(fresh)[:4] == (20, 20, True, fresh.witness.gen_string())
    # compare results, not work: a cache hit sets work to 0 on any record
    differ = [(code, a, b) for (code, a), (_, b) in zip(fresh.per_divisor, cached.per_divisor)
              if (a.lower, a.upper, a.exact) != (b.lower, b.upper, b.exact)]
    assert len(differ) == 3 and {code.dim for code, _, _ in differ} == {11}
    for code, a, b in differ:
        assert (a.method, a.exact) == ("bz", False) and code.dim + a.lower >= fresh.mu
        assert b.exact and b.work == 0 and a.lower <= b.d <= a.upper
        assert b.d == binary_distance_oracle(code)


def test_mu_103_brackets_at_the_default_budget():
    # 5-8 s.  The weight congruences close the [103, 51, 20] even-weight
    # subcode of the quadratic-residue code (weights 0 mod 4) at the default
    # budget; the [103, 52, 19] code itself (weights 0 or 3 mod 4) stops at a
    # budget bracket whose lower bound gives 68
    rec = mu(103, 2)
    assert (rec.mu_lower, rec.mu_upper, rec.exact) == (68, 71, False)
    assert rec.witness.dim == 51


@pytest.mark.slow
@pytest.mark.parametrize("budget", [1 << 30, 1 << 33])
def test_mu_103_exact_at_raised_budget(budget):
    # Pins that need more than the default budget live here.  At 2^30 the
    # [103, 52] code closes after its w = 8 round, since its lower bound 18
    # rounds up to 19 (weights 0 or 3 mod 4); about 28 s on one core, as
    # `uplab mu --n 103 --q 2 --budget 1073741824`.  2^33 stops at the same
    # round.  The [103, 52, 19] quadratic-residue code (MacWilliams-Sloane,
    # ch. 16) and its [103, 51, 20] even-weight subcode both give 71; the
    # subcode comes first in (dim, generator) order.
    rec = mu(103, 2, budget=budget)
    assert rec.exact and rec.mu == 71
    assert rec.witness.dim == 51


# at budget 40 the two [17, 9] quadratic-residue codes, one orbit, stop at a
# budget bracket: the second reuses the first's with work 0
@pytest.mark.parametrize("n,budget", [(23, DEFAULT_BUDGET), (71, DEFAULT_BUDGET), (17, 40)],
                         ids=["23", "71", "17-40"])
def test_mu_reuses_equivalent_codes(n, budget):
    rec = mu(n, 2, budget)
    _, keys = _keyed_codes(n, 2)
    by_orbit = {}
    for (code, res), key in zip(rec.per_divisor, keys):
        if res.method != "bch_only":
            by_orbit.setdefault(key, []).append(res)
    assert any(len(group) > 1 for group in by_orbit.values())
    for group in by_orbit.values():
        # one computation per orbit; its equivalents copy it with work 0
        assert sum(r.work > 0 for r in group) == 1
        assert len({(r.lower, r.upper, r.exact, r.method) for r in group}) == 1


def _spy(monkeypatch, name):
    """Record the first argument of each call to the cyclic module function name."""
    seen, fn = [], getattr(cyclic, name)
    monkeypatch.setattr(cyclic, name, lambda first, *a, **k: seen.append(first) or fn(first, *a, **k))
    return seen


@pytest.mark.parametrize("n,q", [(31, 2), (21, 4)])
def test_mu_bounds_each_orbit_once(n, q, monkeypatch):
    calls, handed = _spy(monkeypatch, "bch_bound"), _spy(monkeypatch, "min_distance")
    rec = mu(n, q)
    _, keys = _keyed_codes(n, q)
    part = cyclotomic_cosets(n, q)
    bound = {_orbit_keys(part, np.array([_mask_of(set(zeros), part)]))[0]: bch_oracle(zeros, n)
             for zeros in calls}
    assert len(bound) == len(calls) == len(set(keys)) < len(keys)
    # every code's bound is its orbit's: pruned codes record it, and each code
    # handed to min_distance holds it in its cache
    for (code, res), key in zip(rec.per_divisor, keys):
        assert bound[key] == bch_oracle(code.zeros, n), code
        if res.method == "bch_only":
            assert res.lower == bound[key], code
    assert handed and all(code.__dict__["_bch"] == bch_oracle(code.zeros, n) for code in handed)
    assert len(calls) == len(bound)  # the expansion computes no bound


@pytest.mark.parametrize("n,q", [(63, 2), (45, 8)])
def test_mu_builds_codes_only_for_distances(n, q, monkeypatch):
    # mu walks the lattice as arrays: of its 8,191 and 16,383 divisors it
    # builds the codes min_distance sees, the witness among them, and
    # per_divisor expands the rest on first read
    built, init = [], CyclicCode.__init__
    monkeypatch.setattr(CyclicCode, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    handed = _spy(monkeypatch, "min_distance")
    rec = mu(n, q)
    assert len(built) <= len(handed) + 1 and rec.witness in handed
    monkeypatch.undo()
    assert len(rec.per_divisor) == 2 ** len(cyclotomic_cosets(n, q).cosets) - 1
    assert [code for code, _ in rec.per_divisor] == enumerate_codes(n, q)


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
