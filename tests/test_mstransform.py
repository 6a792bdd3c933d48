import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from uplab import mstransform
from uplab.gf import (FIELD_ORDER_CAP, DomainError, FFElem, PrimePower, field_ctx, from_digits,
                      nth_root_of_unity, ord_mod, splitting_ctx, to_digits)
from uplab.polyring import factor_xn_minus_1, poly_gcd, word_to_poly, xn_minus_1
from uplab.mstransform import (_EXHAUSTIVE_CAP, MSVector, UPScanReport, _check_length,
                               _remainder_map, _word_string, ms_forward, ms_inverse,
                               naive_up_check, naive_up_scan, transform_weight)


def test_constant_word():
    v = ms_forward((1,) + (0,) * 6, 2)
    assert all(e.code == 1 for e in v.values)
    assert v.weight == 7


def test_all_one_word_weight_one():
    for n in (3, 5, 7, 9, 15):
        v = ms_forward((1,) * n, 2)
        assert v.weight == 1
        assert v.values[n - 1].code == 1  # the f(1) slot carries the sum
        assert all(not e for e in v.values[: n - 1])


def test_x_word_never_vanishes():
    v = ms_forward((0, 1) + (0,) * 5, 2)
    assert v.weight == 7
    assert v.conjugacy_ok()


GRID = [(n, q) for n in (3, 5, 7, 9, 15, 17, 21, 31) for q in (2, 3, 5)
        if math.gcd(n, q) == 1]


@pytest.mark.parametrize("n,q", GRID)
def test_roundtrip_random_words(n, q):
    rng = random.Random(n * 100 + q)
    for _ in range(8):
        w = tuple(rng.randrange(q) for _ in range(n))
        if not any(w):
            continue
        msv = ms_forward(w, q)
        assert msv.conjugacy_ok()
        assert ms_inverse(msv) == w


def _inverse_by_sums(msv, zeta):
    """f_j = n^-1 * sum_i F_i zeta^(-ij), one power per term."""
    ctx, n = msv.ctx, msv.n
    zinv = ctx.inv(zeta)
    n_inv = ctx.embed_prime(pow(n % ctx.char, ctx.char - 2, ctx.char))
    word = []
    for j in range(n):
        acc = ctx.zero()
        for i in range(1, n + 1):
            acc = ctx.add(acc, ctx.mul(msv.value(i), ctx.pow(zinv, i * j)))
        word.append(ctx.scalar_code(ctx.mul(acc, n_inv)))
    return tuple(word)


@pytest.mark.parametrize("n,q", [(7, 2), (15, 2), (8, 3), (5, 4), (8, 9)])
def test_inverse_matches_the_defining_sums(n, q):
    # the inverse evaluates the reindexed vector at the powers of zeta^-1
    rng = random.Random(n * 10 + q)
    ctx = splitting_ctx(q, n)
    root = nth_root_of_unity(ctx, n)
    for b in [u for u in range(1, n) if math.gcd(u, n) == 1][:3]:
        zeta = ctx.pow(root, b)
        w = tuple(rng.randrange(q) for _ in range(n))
        msv = ms_forward(w, q, zeta)
        assert ms_inverse(msv, zeta) == _inverse_by_sums(msv, zeta) == w


def _horner_at_powers(ctx, coeffs, z):
    """The polynomial with these coefficients (lowest degree first) at
    z^1, ..., z^n, Horner per point."""
    values = []
    point = ctx.one()
    for _ in range(len(coeffs)):
        point = ctx.mul(point, z)
        acc = ctx.zero()
        for c in reversed(coeffs):
            acc = ctx.add(ctx.mul(acc, point), c)
        values.append(acc)
    return values


# (n, q): F_2 tabled; odd p tabled, F_{5^3} and F_{5^6}; untabled F_{3^16},
# F_{3^30} and F_{5^16}; prime-power bases; degree-1 contexts; n = 1; and
# p = 2^31 - 1, where d*(p-1)^2 is near 2^62 and a sum of n such products
# would wrap int64
ORACLE_GRID = [(7, 2), (15, 2), (31, 2), (31, 5), (21, 5), (17, 3), (31, 3), (17, 5),
               (5, 4), (13, 4), (7, 8), (8, 9), (10, 9), (4, 5), (6, 7), (1, 2), (1, 3),
               (1, 9), (6, 2**31 - 1)]


@pytest.mark.parametrize("n,q", ORACLE_GRID)
def test_transform_matches_horner_oracle(n, q):
    ctx = splitting_ctx(q, n)
    root = nth_root_of_unity(ctx, n)
    rng = random.Random(f"oracle/{n}/{q}")
    units = [b for b in range(1, n + 1) if math.gcd(b, n) == 1]
    for b in units[:1] + units[-1:]:  # the canonical root and its inverse
        zeta = ctx.pow(root, b)
        for w in [(q - 1,) * n, tuple(rng.randrange(q) for _ in range(n))]:
            msv = ms_forward(w, q, zeta)
            assert msv.values == tuple(_horner_at_powers(ctx, [ctx.embed_scalar(c) for c in w],
                                                         zeta))
            assert ms_inverse(msv, zeta) == _inverse_by_sums(msv, zeta) == w


def test_zeta_must_be_a_primitive_root_of_the_length():
    w = (1, 0, 1, 1, 0, 0, 0)
    ctx = splitting_ctx(2, 7)
    root15 = nth_root_of_unity(splitting_ctx(2, 15), 15)
    cases = [(w, ctx.one()), (w, ctx.zero()),
             ((1, 1) + (0,) * 13, root15 ** 3),  # order 5, not 15
             (w, root15)]                         # another context
    for word, zeta in cases:
        with pytest.raises(DomainError):
            ms_forward(word, 2, zeta)
        with pytest.raises(DomainError):
            ms_inverse(ms_forward(word, 2), zeta)


def test_cached_stacks_alternate_between_roots():
    # the canonical root and its power by turns on one context: every call
    # must still match the per-point oracle, whichever stack it reads
    n, q = 15, 2
    ctx = splitting_ctx(q, n)
    root = nth_root_of_unity(ctx, n)
    rng = random.Random("alternate")
    for zeta in [root, root ** 7, root, root ** 7, root ** 2, root]:
        w = tuple(rng.randrange(q) for _ in range(n))
        msv = ms_forward(w, q, zeta)
        assert msv.values == tuple(_horner_at_powers(ctx, [ctx.embed_scalar(c) for c in w], zeta))
        assert ms_inverse(msv, zeta) == w


@pytest.mark.parametrize("q,word,bad", [(2, (1, 0, 1, 1, 0, 0, 2), 2), (4, (3, 0, 1, 5, 4, 5, 1), 5),
                                        (3, (1, -1, 0, 3, 1, 0, 2), -1), (4, (4,), 4)])
def test_ms_forward_embeds_each_symbol_once_and_checks_it(q, word, bad):
    ctx = splitting_ctx(q, len(word))
    with pytest.raises(DomainError, match=f"scalar code {bad} outside F_{q}"):  # the first bad symbol
        ms_forward(word, q)
    good = tuple(c % q for c in word)
    with mock.patch.object(type(ctx), "embed_scalar", autospec=True,
                           side_effect=type(ctx).embed_scalar) as embed:
        msv = ms_forward(good, q)
    assert [c for _, c in (call.args for call in embed.call_args_list)] == list(dict.fromkeys(good))
    assert msv.values == tuple(_horner_at_powers(ctx, [ctx.embed_scalar(c) for c in good],
                                                 nth_root_of_unity(ctx, len(word))))


def test_refusals_are_not_cached():
    w = (1, 0, 1, 1, 0, 0, 0)
    ctx = splitting_ctx(2, 7)
    for _ in range(2):  # a refusal raises inside the cached builder, so it is never stored
        with pytest.raises(DomainError, match="primitive"):
            ms_forward(w, 2, ctx.one())
    # the same digits as the cached canonical root, from another context of degree 4
    msv = ms_forward((1, 1) + (0,) * 13, 2)
    root = nth_root_of_unity(msv.ctx, 15)
    other = FFElem(root.digits, field_ctx(2, 2, 2))
    with pytest.raises(DomainError, match="different field contexts"):
        ms_forward((1, 1) + (0,) * 13, 2, other)
    with pytest.raises(DomainError, match="different field contexts"):
        ms_inverse(msv, other)


def test_cached_stack_is_read_only():
    ctx = splitting_ctx(3, 8)
    root = nth_root_of_unity(ctx, 8)
    stack = mstransform._power_stack(ctx, root.digits, 8)
    assert stack.shape == (ctx.deg, 9 * ctx.deg)
    with pytest.raises(ValueError):
        stack[0, 0] = 1
    assert mstransform._power_stack(ctx, root.digits, 8) is stack


@pytest.mark.parametrize("n,q", [(4, 2**31 - 1), (4, 3037000493)])
def test_roundtrip_near_the_digit_product_cap(n, q):
    # d*(p-1)^2 just below 2^63 (d = 2, then d = 1): a sum of two unreduced
    # products would wrap int64
    ctx = splitting_ctx(q, n)
    assert ctx.deg * (q - 1) ** 2 < 1 << 63 <= 2 * ctx.deg * (q - 1) ** 2
    w = (q - 1, q - 2, 1, q - 1)
    msv = ms_forward(w, q)
    root = nth_root_of_unity(ctx, n)
    assert msv.values == tuple(_horner_at_powers(ctx, [ctx.embed_scalar(c) for c in w], root))
    assert ms_inverse(msv) == w


def test_products_in_blocks_match_one_product(monkeypatch):
    # rows of digits go through the stack, and columns of the remainder map
    # go through the weights, a block at a time past _STACK_PASS
    rng = random.Random("blocks")
    cases = [(31, 3), (21, 5), (10, 9)]
    words = [tuple(rng.randrange(q) for _ in range(n)) for n, q in cases]
    whole = [ms_forward(w, q) for w, (_, q) in zip(words, cases)]
    weights = [transform_weight(w, q) for w, (_, q) in zip(words, cases)]
    monkeypatch.setattr(mstransform, "_STACK_PASS", 1)
    for w, (_, q), msv, wh in zip(words, cases, whole, weights):
        assert ms_forward(w, q) == msv
        assert ms_inverse(msv) == w
        assert transform_weight(w, q) == wh == msv.weight


def test_inverse_rejects_tampered_vector():
    msv = ms_forward((1, 0, 1, 1, 0, 0, 0), 2)
    ctx = msv.ctx
    bad_last = MSVector(msv.n, msv.field, ctx, msv.values[:-1] + (ctx.primitive_elt,))
    with pytest.raises(DomainError):
        ms_inverse(bad_last)


@pytest.mark.parametrize("n,q", [(7, 3), (21, 5), (17, 3), (7, 4)])
def test_inverse_refuses_values_off_conjugacy_or_from_another_context(n, q):
    # F_{3^6}, F_{5^6}, F_{3^16} and F_{4^3}: prime and prime-power q
    msv = ms_forward(tuple((i * i + 1) % q for i in range(n)), q)
    ctx = msv.ctx
    p, d = ctx.char, ctx.deg
    shifted = (msv.values[0] + ctx.one(),) + msv.values[1:]  # value(q) != value(1)^q now
    with pytest.raises(DomainError, match="conjugacy"):
        ms_inverse(MSVector(n, msv.field, ctx, shifted))
    # the same digits in another context of degree d over F_p
    other = field_ctx(p, 1, d) if ctx.base.e > 1 else field_ctx(p, 2, d // 2)
    rebuilt = tuple(FFElem(v.digits, other) for v in msv.values)
    with pytest.raises(DomainError, match="different field contexts"):
        ms_inverse(MSVector(n, msv.field, ctx, rebuilt))


def test_naive_up_check_examples():
    chk = naive_up_check((1,) * 7, 2)
    assert (chk.weight, chk.transform_weight, chk.product, chk.holds) == (7, 1, 7, True)
    chk = naive_up_check((1,) + (0,) * 6, 2)
    assert (chk.weight, chk.transform_weight, chk.product, chk.holds) == (1, 7, 7, True)
    chk = naive_up_check((1, 1, 0, 1, 0, 0, 0), 2)  # x^3 + x + 1 as a word
    assert chk.weight == 3 and chk.product >= 7 and chk.holds
    with pytest.raises(DomainError):
        naive_up_check((0,) * 7, 2)


def test_scan_exhaustive_small():
    rep = naive_up_scan(7, 2)
    assert rep.min_product == 7
    assert rep.violations == 0
    assert rep.words_checked == 127
    rep9 = naive_up_scan(9, 2)
    assert rep9.min_product >= 9 and rep9.violations == 0


def test_scan_agrees_with_per_word_checks():
    # the gcd weight must match naive_up_check and the evaluated transform
    rng = random.Random(17)
    for _ in range(30):
        w = tuple(rng.randrange(2) for _ in range(9))
        if not any(w):
            continue
        chk = naive_up_check(w, 2)
        assert chk.transform_weight == transform_weight(w, 2) == ms_forward(w, 2).weight
    rep = naive_up_scan(9, 2)
    # min over the scan equals min over an explicit sweep
    best = min(naive_up_check(_bits(v, 9), 2).product for v in range(1, 2**9))
    assert rep.min_product == best


@pytest.mark.parametrize("n,q", [(7, 2), (9, 2), (7, 3), (5, 4)])
def test_scan_report_matches_evaluated_sweep(n, q):
    # the whole report, rebuilt from ms_forward over the scan's word order
    best, argmin, equality = None, None, 0
    for v in range(1, q**n):
        w = tuple(v // q**i % q for i in range(n))
        prod = sum(1 for c in w if c) * ms_forward(w, q).weight
        equality += prod == n
        if best is None or prod < best:
            best, argmin = prod, "".join(map(str, w))
    rep = naive_up_scan(n, q)
    assert rep.json_dict() == {"n": n, "q": q, "mode": "exhaustive",
                               "words_checked": q**n - 1, "min_product": best,
                               "argmin_word": argmin, "equality_count": equality,
                               "violations": 0}


# The scan as it was before the remainder-map kernel: one gcd per word, taken
# over F_q as transform_weight took it before the remainder map.  Both modes
# must equal its reports.


def _gcd_weight(word, q) -> int:
    field = PrimePower.of(q)
    n = len(word)
    return n - poly_gcd(word_to_poly(field, word), xn_minus_1(field, n)).degree


def _reference_scan(n: int, q, mode: str = "exhaustive", trials: int = 10000,
                    seed: int = 0) -> UPScanReport:
    field = PrimePower.of(q)
    _check_length(n, field)
    if mode == "exhaustive":
        if field.q**n > _EXHAUSTIVE_CAP:
            raise DomainError(f"q^n = {field.q**n} beyond exhaustive cap {_EXHAUSTIVE_CAP}")
        gen = (to_digits(v, field.q, n) for v in range(1, field.q**n))
    elif mode == "random":
        import random

        if trials < 1:
            raise DomainError(f"random mode needs trials >= 1, got {trials}")
        rng = random.Random(seed)
        gen = (to_digits(rng.randrange(1, field.q**n), field.q, n) for _ in range(trials))
    else:
        raise DomainError(f"unknown mode {mode!r}")

    best = None
    best_word = None
    equality = 0
    violations = 0
    checked = 0
    for word in gen:
        checked += 1
        w = sum(1 for c in word if c)
        prod = w * _gcd_weight(word, field)
        if prod < n:
            violations += 1
        if prod == n:
            equality += 1
        if best is None or prod < best:
            best = prod
            best_word = word
    return UPScanReport(n, field.q, mode, checked, best, _word_string(best_word),
                        equality, violations)


# every length with q^n <= 2^11, n = 1 included, and two scans of several blocks
REFERENCE_GRID = [(n, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32)
                  for n in range(1, 12) if math.gcd(n, q) == 1 and q**n <= 1 << 11]
REFERENCE_GRID += [(13, 2), (8, 3)]


@pytest.mark.parametrize("n,q", REFERENCE_GRID)
def test_scan_matches_reference_engine(n, q):
    assert naive_up_scan(n, q).json_dict() == _reference_scan(n, q).json_dict()


@pytest.mark.parametrize("n,q,trials,seed", [(15, 2, 40, 3), (7, 4, 30, 8), (29, 8, 3, 1),
                                              (15, 2, 300, 3), (13, 3, 100, 5)])
def test_random_scan_matches_reference_engine(n, q, trials, seed):
    # (29, 8) lies past the exhaustive cap and its splitting field past
    # FIELD_ORDER_CAP; the last two are the random scans of the golden transcript
    assert (naive_up_scan(n, q, "random", trials, seed).json_dict()
            == _reference_scan(n, q, "random", trials, seed).json_dict())


@pytest.mark.parametrize("n,q,trials,seed", [(7, 2, 50, 1), (13, 3, 100, 5), (8, 9, 40, 2)])
def test_random_scan_blocks_match_one_block(monkeypatch, n, q, trials, seed):
    # blocks of 7 words: the first argmin must survive later blocks that tie it
    whole = naive_up_scan(n, q, "random", trials, seed)
    monkeypatch.setattr(mstransform, "_SCAN_BLOCK", 7)
    assert naive_up_scan(n, q, "random", trials, seed) == whole


def test_random_scan_past_the_factoring_cap():
    # over F_q, q > 2, a weight reads the factors of x^n - 1, which are refused
    # past _FACTOR_CAP before any word is drawn; F_2 keeps its bitmask gcd
    for q in (3, 4):
        with pytest.raises(DomainError, match="factoring cap 4096"):
            naive_up_scan(4097, q, "random", 10**9)
        with pytest.raises(DomainError, match="factoring cap 4096"):
            transform_weight((1,) + (0,) * 4096, q)
    rep = naive_up_scan(4097, 2, "random", 2, 1)
    assert rep.words_checked == 2 and rep.violations == 0


@pytest.mark.parametrize("n,q", [(7, 2), (4, 5), (5, 4), (3, 8), (4, 9), (13, 3), (6, 262147)])
def test_remainder_map_gives_the_remainders(n, q):
    # Rows that permuted the digits within each symbol would make the scan weigh
    # a bijective image of each word, of the same weight, so every scan report
    # would stay as it is; only the remainders show such an error.  Each
    # factor's block of columns holds the base-p digits of its remainder.
    field = PrimePower.of(q)
    rmap, sizes, starts = _remainder_map(n, field)
    p, e = field.p, field.e
    factors = factor_xn_minus_1(n, q)
    assert sizes.tolist() == [m.degree for m in factors]
    assert starts.tolist() == [e * sum(sizes[:i]) for i in range(len(sizes))]
    assert rmap.dtype == np.min_scalar_type(p - 1) and not rmap.flags.writeable
    rng = random.Random(n * q)
    for v in [1, q**n - 1] + [rng.randrange(q**n) for _ in range(20)]:
        f = word_to_poly(field, to_digits(v, q, n))
        digits = np.array(to_digits(v, p, n * e), dtype=object) @ rmap.astype(object) % p
        expect = [d for m in factors for c in (f % m).padded(m.degree) for d in to_digits(c, p, e)]
        assert digits.tolist() == expect


def test_exhaustive_scan_takes_no_gcd(monkeypatch):
    def refuse(word, q):
        raise AssertionError("exhaustive scan called transform_weight")

    monkeypatch.setattr(mstransform, "transform_weight", refuse)
    assert naive_up_scan(9, 4).min_product == 9


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_scan_refuses_fields_past_the_alphabet(mode):
    # the argmin word is written with one of 36 digits per symbol
    with pytest.raises(DomainError, match="q <= 36"):
        naive_up_scan(3, 37, mode=mode, trials=5, seed=27)


@st.composite
def _words_in_cap(draw):
    # lengths whose splitting field ms_forward can build
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(1, 31))
    assume(math.gcd(n, q) == 1 and (n == 1 or q ** ord_mod(q, n) < FIELD_ORDER_CAP))
    return q, tuple(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_words_in_cap())
def test_transform_weight_matches_evaluation(case):
    q, w = case
    assert transform_weight(w, q) == ms_forward(w, q).weight


@st.composite
def _words_any_length(draw):
    # lengths past the field-order cap too, and a p whose digit sums are large
    q = draw(st.sampled_from([3, 4, 5, 7, 8, 9, 262147]))
    n = draw(st.integers(1, 40))
    assume(math.gcd(n, q) == 1)
    word = draw(st.lists(st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1),
                         min_size=n, max_size=n))
    return q, tuple(word)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_words_any_length())
def test_transform_weight_matches_the_gcd(case):
    # the remainder map against the gcd over F_q it replaced
    q, w = case
    assert transform_weight(w, q) == _gcd_weight(w, q)


@pytest.mark.parametrize("q", [2**31 - 1, 2**61 - 1])
def test_transform_weight_past_the_int64_products(q):
    # n * (p-1)^2 >= 2^63: the products run on Python ints; at n = 2 and
    # p = 2^31 - 1 they are int64 sums just below 2^63
    rng = random.Random(q)
    for n in (2, 3, 6):
        for w in [(1,) * n, (1, q - 1) + (0,) * (n - 2)] + [
                tuple(rng.randrange(q) for _ in range(n)) for _ in range(4)]:
            assert transform_weight(w, q) == _gcd_weight(w, q)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_transform_weight_refusals(q):
    with pytest.raises(DomainError):
        transform_weight((), q)
    with pytest.raises(DomainError):
        transform_weight((1,) + (0,) * (2 * q - 1), q)  # gcd(2q, q) != 1
    for bad in (q, q + 1, -1):  # at q = 2 the bitmask gcd must not read a 2 as a 1
        with pytest.raises(DomainError):
            transform_weight((1, bad) + (0,) * 5, q)
        with pytest.raises(DomainError):
            naive_up_check((1, bad) + (0,) * 5, q)


def _bits(v, n):
    return tuple((v >> i) & 1 for i in range(n))


def test_scan_random_mode():
    rep = naive_up_scan(15, 2, mode="random", trials=300, seed=5)
    assert rep.min_product >= 15
    assert rep.violations == 0
    again = naive_up_scan(15, 2, mode="random", trials=300, seed=5)
    assert again.min_product == rep.min_product and again.argmin_word == rep.argmin_word


def test_scan_ternary():
    rep = naive_up_scan(7, 3)
    assert rep.violations == 0
    assert rep.min_product >= 7


def test_weight_invariant_under_root_choice():
    rng = random.Random(23)
    for n in (7, 15, 17):
        ctx = splitting_ctx(2, n)
        z = nth_root_of_unity(ctx, n)
        for _ in range(5):
            w = tuple(rng.randrange(2) for _ in range(n))
            if not any(w):
                continue
            base = ms_forward(w, 2)
            for b in range(2, n):
                if math.gcd(b, n) != 1:
                    continue
                other = ms_forward(w, 2, zeta=ctx.pow(z, b))
                assert other.weight == base.weight
                assert sorted(e.code for e in other.values) == sorted(
                    e.code for e in base.values)


def test_support_zeros_duality():
    # n - weight(transform) = deg gcd(f, x^n - 1)
    rng = random.Random(31)
    for n, q in [(7, 2), (15, 2), (9, 2), (13, 3)]:
        field = PrimePower.make(q)
        for _ in range(10):
            w = tuple(rng.randrange(q) for _ in range(n))
            if not any(w):
                continue
            f = word_to_poly(field, w)
            g = poly_gcd(f, xn_minus_1(field, n))
            assert n - transform_weight(w, q) == g.degree == n - ms_forward(w, q).weight


def test_scan_caps():
    with pytest.raises(DomainError):
        naive_up_scan(30, 2)  # 2^30 over the exhaustive cap
    with pytest.raises(DomainError):
        naive_up_scan(9, 3)  # gcd != 1
    for n in (0, -3):
        with pytest.raises(DomainError):
            naive_up_scan(n, 2)


def test_forward_rejects_degenerate_input():
    with pytest.raises(DomainError):
        ms_forward((), 2)
    with pytest.raises(DomainError):
        ms_forward((1, 0, 1), 3)  # gcd(3, 3) != 1
