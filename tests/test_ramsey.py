import math

import numpy as np
import pytest

from uplab.gf import DomainError
from uplab.ramsey import (_ap_masks, _grid_masks, _interval_r, ap_scan_bound, contains_ap,
                          prop_ram_grid_lower, prop_ram_lower, szemeredi_grid, szemeredi_r)
from uplab.cyclic import mu


# ---------------------------------------------------------------------------
# oracles: plain 2^n sweeps


def _ap_free_oracle(m, n):
    best, witness = 0, ()
    for mask in range(1 << n):
        s = {i for i in range(n) if mask >> i & 1}
        if len(s) <= best:
            continue
        if not contains_ap(s, m, n)[0]:
            best, witness = len(s), tuple(sorted(s))
    return best, witness


def _grid_free_oracle(delta, s, n):
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    masks = set()
    for b in units:
        for c in units:
            for a in range(n):
                pts = {(a + k * b + r * c) % n
                       for k in range(delta - 1) for r in range(s + 1)}
                masks.add(sum(1 << p for p in pts))
    best = 0
    for smask in range(1 << n):
        if smask.bit_count() <= best:
            continue
        if not any(mk & ~smask == 0 for mk in masks):
            best = smask.bit_count()
    return best


# ---------------------------------------------------------------------------
# pattern detection


def test_contains_ap_examples():
    assert contains_ap({0, 1, 2}, 3, 7) == (True, (0, 1))
    found, _ = contains_ap({2, 5}, 2, 7)
    assert found
    assert contains_ap({0}, 2, 7)[0] is False
    # collapsed progression: b of additive order 3 in Z/9, length 4 reads as a coset
    assert contains_ap({0, 3, 6}, 4, 9)[0]


def test_witness_is_pattern_free():
    for m, n in [(3, 9), (4, 11), (3, 13)]:
        res = szemeredi_r(m, n)
        assert contains_ap(set(res.witness), m, n)[0] is False
        assert len(res.witness) == res.value


# ---------------------------------------------------------------------------
# extremal values


def test_r2_is_one():
    for n in (2, 5, 9, 17):
        assert szemeredi_r(2, n).value == 1
    for n in (3, 8):
        assert szemeredi_r(1, n).value == 0


@pytest.mark.parametrize("n", [5, 7, 9, 11, 12])
def test_branch_and_bound_matches_sweep(n):
    for m in range(1, n + 1):
        assert szemeredi_r(m, n).value == _ap_free_oracle(m, n)[0], (m, n)


def _mask_sweep_oracle(m, n):
    # literal transcription of the definition, checked over every subset
    masks = set()
    for b in range(1, n):
        for a in range(n):
            pts = {(a + k * b) % n for k in range(m)}
            masks.add(sum(1 << p for p in pts))
    masks = sorted(masks)
    best = 0
    for s in range(1 << n):
        if s.bit_count() <= best:
            continue
        if not any(mk & ~s == 0 for mk in masks):
            best = s.bit_count()
    return best


@pytest.mark.parametrize("n,m", [(13, 3), (13, 6), (14, 3), (14, 5), (14, 9)])
def test_branch_and_bound_matches_mask_sweep_larger(n, m):
    assert szemeredi_r(m, n).value == _mask_sweep_oracle(m, n)


def test_monotone_in_m():
    for n in (9, 13, 17):
        prev = 0
        for m in range(1, n + 1):
            v = szemeredi_r(m, n).value
            assert v >= prev
            prev = v


def test_r_m_9_table_and_formula():
    bound, rows = ap_scan_bound(9, with_rows=True)
    assert bound == 8
    values = {m: r for m, r, _ in rows}
    assert values[3] == 4 and values[9] == 6


def test_collapsed_flag():
    assert szemeredi_r(9, 9).collapsed  # order-3 strides fold 9 points onto 3
    assert not szemeredi_r(3, 7).collapsed
    # prime modulus: every stride has full additive order, nothing folds
    assert not szemeredi_r(7, 7).collapsed
    assert szemeredi_r(7, 7).value == 6  # only the full line is forbidden


def test_optimality_spot_check():
    # adding any absent element to the witness creates a pattern or the
    # witness was not maximal for its size
    for m, n in [(3, 11), (4, 9)]:
        res = szemeredi_r(m, n)
        oracle_best, _ = _ap_free_oracle(m, n)
        assert res.value == oracle_best


# ---------------------------------------------------------------------------
# the reference engine: _max_free before the top-point index, the dilation at
# prime n, the interval bound and the cap, kept verbatim.  The engine must
# reproduce its value, witness and collapsed flag; only `nodes` may differ.


def _reference_max_free(n, masks, seed_witness=()):
    """Branch and bound for the largest subset containing no mask.

    Extends residues in increasing order, prunes on pattern completion and
    on |S| + remaining <= best.  By translation invariance the search fixes
    0 in the set; a prior witness may seed the initial bound.
    """
    full = (1 << n) - 1
    by_v = [[] for _ in range(n)]
    for mk in masks:
        m = mk
        while m:
            v = (m & -m).bit_length() - 1
            by_v[v].append(mk)
            m &= m - 1
    if any(mk.bit_count() <= 1 for mk in masks):
        # single points are patterns; only the empty set avoids them
        return 0, (), 1

    best = 0
    best_mask = 0
    if seed_witness:
        shift = min(seed_witness) % n
        cand = 0
        for x in seed_witness:
            cand |= 1 << ((x - shift) % n)
        if not any(mk & ~cand == 0 for mk in masks):
            best = cand.bit_count()
            best_mask = cand
    nodes = 0

    def extend(smask, size, v):
        nonlocal best, best_mask, nodes
        nodes += 1
        if size > best:
            best, best_mask = size, smask
        if v == n or size + (n - v) <= best:
            return
        nxt = smask | (1 << v)
        ok = True
        for mk in by_v[v]:
            if mk & ~nxt == 0:
                ok = False
                break
        if ok:
            extend(nxt, size + 1, v + 1)
        extend(smask, size, v + 1)

    # 0 is forced into the set: any nonempty pattern-free set translates to one
    extend(1, 1, 1)
    witness = tuple(i for i in range(n) if best_mask >> i & 1)
    return best, witness, nodes


def _reference_ap(m, n, seed_witness=()):
    masks, collapsed = _ap_masks(m, n)
    value, witness, _ = _reference_max_free(n, masks, seed_witness)
    return value, witness, collapsed


def _reference_grid(delta, s, n):
    masks, collapsed = _grid_masks(delta, s, n)
    value, witness, _ = _reference_max_free(n, masks)
    return value, witness, collapsed


def _reference_scan(n):
    # every m solved, each seeded by the witness of the one before
    rows, best, witness = [], None, ()
    for m in range(1, n + 1):
        value, witness, _ = _reference_ap(m, n, witness)
        bound = m + n - value
        rows.append((m, value, bound))
        best = bound if best is None else min(best, bound)
    return best, rows


def _check_floors(search, expected):
    # a floored search decides whether the answer exceeds its floor: above
    # it, the reference's value and witness; at or below it, the size of its
    # witness and never more than the answer
    value = expected[0]
    for floor in range(max(0, value - 3), value + 2):
        res = search(floor)
        if value > floor:
            assert (res.value, res.witness, res.collapsed) == expected, floor
        else:
            assert res.value == len(res.witness) <= value, floor


def _check_ap_against_reference(n):
    for m in range(1, n + 1):
        res = szemeredi_r(m, n)
        expected = _reference_ap(m, n)
        assert (res.value, res.witness, res.collapsed) == expected, (m, n)
        _check_floors(lambda f: szemeredi_r(m, n, floor=f), expected)
    best, rows = _reference_scan(n)
    assert ap_scan_bound(n, with_rows=True) == (best, rows)
    assert ap_scan_bound(n) == best


def _check_grid_against_reference(n):
    for delta in range(2, n + 1):
        for s in range(0, n - delta + 1):
            res = szemeredi_grid(delta, s, n)
            expected = _reference_grid(delta, s, n)
            assert (res.value, res.witness, res.collapsed) == expected, (delta, s, n)
            _check_floors(lambda f: szemeredi_grid(delta, s, n, floor=f), expected)


@pytest.mark.parametrize("n", range(1, 20))
def test_ap_and_scan_match_reference_engine(n):
    _check_ap_against_reference(n)


@pytest.mark.parametrize("n", range(2, 12))
def test_grid_matches_reference_engine(n):
    _check_grid_against_reference(n)


@pytest.mark.slow
def test_reference_engine_to_23():
    # about 20 s, most of it in the reference engine at n = 22 and 23
    for n in range(20, 24):
        _check_ap_against_reference(n)
    for n in (12, 13):
        _check_grid_against_reference(n)


def test_scan_bound_23():
    # computed by the reference engine (ap_scan_bound(23) before the pruning)
    assert ap_scan_bound(23) == 15


@pytest.mark.parametrize("n", [0, -3])
def test_scan_refuses_lengths_below_one(n):
    with pytest.raises(DomainError, match="n >= 1"):
        ap_scan_bound(n)
    with pytest.raises(DomainError, match="n >= 1"):
        ap_scan_bound(n, with_rows=True)


# the node counts are machine-independent: a weaker node bound shows in them.
# At composite n only 0 follows the undecided residues cyclically (room
# r_m([L + 1]) - 1); at prime n with m >= 3, 0 and 1 do (r_m([L + 2]) - 2).
@pytest.mark.parametrize("m,n,nodes", [(4, 13, 214), (3, 17, 190), (5, 19, 9424),
                                       (3, 14, 249), (4, 15, 1274), (5, 18, 3997)])
def test_cyclic_interval_room_nodes(m, n, nodes):
    assert szemeredi_r(m, n).nodes == nodes


# ---------------------------------------------------------------------------
# pattern masks: the former builders, one point set per translate


def _ap_masks_per_translate(m, n):
    masks, collapsed = set(), False
    for b in range(1, n):
        for a in range(n):
            pts = {(a + k * b) % n for k in range(m)}
            collapsed |= len(pts) < m
            masks.add(sum(1 << p for p in pts))
    return sorted(masks), collapsed


def _grid_masks_per_translate(delta, s, n):
    masks, collapsed = set(), False
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    for b in units:
        for c in units:
            for a in range(n):
                pts = {(a + k * b + r * c) % n for k in range(delta - 1) for r in range(s + 1)}
                collapsed |= len(pts) < (delta - 1) * (s + 1)
                masks.add(sum(1 << p for p in pts))
    return sorted(masks), collapsed


def _check_masks(ap_ns, grid_ns):
    for n in ap_ns:
        for m in range(1, n + 1):
            assert _ap_masks(m, n) == _ap_masks_per_translate(m, n), (m, n)
    for n in grid_ns:
        for delta in range(2, n + 1):
            for s in range(n - delta + 1):
                assert _grid_masks(delta, s, n) == _grid_masks_per_translate(delta, s, n)


def test_masks_are_rotations_of_one_base_pattern():
    _check_masks(range(1, 30), range(2, 14))


@pytest.mark.slow
def test_masks_are_rotations_of_one_base_pattern_to_40():
    # about 4 s: the progressions up to R_CAP = 40 and the grids up to 16
    _check_masks(range(30, 41), range(14, 17))


def _interval_sweep(length):
    """{m: [r_m([L]) for L <= length]} for m <= length + 1, from the longest
    integer progression in every subset of {0, ..., length - 1}."""
    subsets = np.arange(1 << length)
    longest = (subsets > 0).astype(np.int64)  # one point is a 1-term progression
    for b in range(1, length):
        for a in range(length - b):
            mask = 1 << a
            for k, x in enumerate(range(a + b, length, b), start=2):
                mask |= 1 << x
                longest = np.where(subsets & mask == mask, np.maximum(longest, k), longest)
    sizes = np.bitwise_count(subsets)
    return {m: [int(sizes[:1 << L][longest[:1 << L] < m].max()) for L in range(length + 1)]
            for m in range(1, length + 2)}


def test_interval_table_matches_subset_sweep():
    for m, values in _interval_sweep(14).items():
        assert [_interval_r(m, L)[0] for L in range(15)] == values, m


# ---------------------------------------------------------------------------
# grids


def test_grid_single_point():
    assert szemeredi_grid(2, 0, 7).value == 0
    assert szemeredi_grid(2, 0, 11).value == 0


@pytest.mark.parametrize("n", [5, 7, 11])
def test_grid_s0_matches_plain_on_primes(n):
    for delta in range(3, n + 1):
        assert szemeredi_grid(delta, 0, n).value == szemeredi_r(delta - 1, n).value


@pytest.mark.parametrize("delta,s,n", [(3, 1, 7), (3, 2, 7), (4, 1, 9), (3, 1, 11)])
def test_grid_matches_sweep(delta, s, n):
    assert szemeredi_grid(delta, s, n).value == _grid_free_oracle(delta, s, n)


def test_grid_cap():
    with pytest.raises(DomainError):
        szemeredi_grid(3, 1, 30)
    with pytest.raises(DomainError):
        szemeredi_r(3, 60)


# ---------------------------------------------------------------------------
# the lower bounds against the invariant


@pytest.mark.parametrize("p,q", [(7, 2), (11, 2), (13, 2), (7, 3), (13, 3)])
def test_prop_ram_bound_below_mu(p, q):
    bound = prop_ram_lower(p, q)
    assert bound <= mu(p, q).mu


def test_prop_ram_rejects_composite():
    with pytest.raises(DomainError):
        prop_ram_lower(9, 2)
    # the composite formula value itself is still computable and exceeds mu
    assert ap_scan_bound(9) == 8
    assert mu(9, 2).mu == 6


def _grid_bound_unfloored(p):
    # prop_ram_grid_lower's loop as it was before the floor: every r_{delta,s}(p) solved
    best = None
    for delta in range(2, p + 1):
        witness = ()
        for s in range(0, p - delta + 1):
            res = szemeredi_grid(delta, s, p, seed_witness=witness)
            witness = res.witness
            bound = delta + s - 1 + p - res.value
            best = bound if best is None else min(best, bound)
    return best


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
def test_floored_grid_bound_matches_unfloored(p):
    assert prop_ram_grid_lower(p, 3 if p == 2 else 2).bound_grid == _grid_bound_unfloored(p)


def test_grid_bound_report():
    rep = prop_ram_grid_lower(7, 2)
    assert rep.bound_grid <= rep.mu
    assert rep.bound_ap <= rep.mu
    rep11 = prop_ram_grid_lower(11, 2)
    assert rep11.bound_grid <= rep11.mu and rep11.bound_ap <= rep11.mu


def test_nodes_counted():
    assert szemeredi_r(3, 9).nodes > 0
