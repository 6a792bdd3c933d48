"""Extremal progression-free subsets of Z/nZ and the lower bounds they put
on the distance+dimension invariant at prime length.

Patterns are read literally as sets: an arithmetic progression of length m
is {a + k*b : 0 <= k < m} with b != 0, so for composite n the points may
coincide and the collapsed (smaller) set still counts as a progression.
The grid patterns {a + k*b + r*c : k <= delta-2, r <= s} require both b and
c coprime to n.  Results carry a `collapsed` flag when some pattern in the
search had fewer distinct points than its nominal size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclic import DEFAULT_BUDGET, mu
from .gf import DomainError, InternalError, is_prime

R_CAP = 40     # branch-and-bound cap for plain progressions
GRID_CAP = 24  # heavier pattern detection


@dataclass(frozen=True)
class RamseyResult:
    kind: str  # "ap" or "grid"
    n: int
    params: tuple  # (m,) or (delta, s)
    value: int
    witness: tuple
    nodes: int
    collapsed: bool

    def json_dict(self):
        out = {"kind": self.kind, "n": self.n, "value": self.value,
               "witness": list(self.witness), "nodes": self.nodes,
               "collapsed": self.collapsed}
        if self.kind == "ap":
            out["m"] = self.params[0]
        else:
            out["delta"], out["s"] = self.params
        return out


def contains_ap(S, m: int, n: int):
    """Whether S holds some {a + k*b : k < m}, b != 0; returns (flag, (a, b))."""
    if m < 1:
        raise DomainError("progression length must be >= 1")
    sset = {x % n for x in S}
    for b in range(1, n):
        for a in range(n):
            if all((a + k * b) % n in sset for k in range(m)):
                return True, (a, b)
    return False, None


def _translates(n, bases, size):
    """The sorted masks of every translate of the point sets `bases`, and
    whether some base has fewer than `size` points.

    A translate by r is the rotation of a base's mask by r bits.
    """
    full = (1 << n) - 1
    masks = set()
    collapsed = False
    for pts in bases:
        collapsed |= len(pts) < size
        mk = sum(1 << p for p in pts)
        if mk not in masks:  # else all its rotations are in already
            masks.update((mk << r | mk >> (n - r)) & full for r in range(n))
    return sorted(masks), collapsed


def _ap_masks(m, n):
    return _translates(n, ({k * b % n for k in range(m)} for b in range(1, n)), m)


def _grid_masks(delta, s, n):
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    bases = ({(k * b + r * c) % n for k in range(delta - 1) for r in range(s + 1)}
             for b in units for c in units)
    return _translates(n, bases, (delta - 1) * (s + 1))


class _Capped(Exception):
    """The search found a set as large as its cap: nothing larger exists."""


def _max_free(n, masks, seed_witness=(), *, room=None, cap=None, dilate=False, floor=0):
    """Branch and bound for the largest subset containing no mask.

    Extends residues in increasing order, each one taken into the set before
    it is left out, and keeps a set when it beats the best so far: the
    witness is the first largest set in that order.  A prior witness may seed
    the initial best.

    - Symmetry.  By translation invariance the search fixes 0 in the set.
      With `dilate` (n prime and the patterns closed under x -> ux, as both
      kinds are), a dilation by x^-1 maps a second element x to 1, so unless
      {0, 1} is itself a pattern the search starts from {0, 1} at v = 2.
      Those sets come first in the order above, so the witness is the same.
    - Node bound.  The undecided residues v..n-1 form an interval, and at
      most room[n - v] of them can join the set; `room` defaults to the
      interval's length.
    - Cap.  The search stops once the best set reaches `cap`, a proven
      upper bound on the answer.
    - Floor.  The best starts at `floor`, so only sets larger than it are
      searched for.  The value returned is the size of the witness, which is
      the answer when it exceeds `floor`; otherwise the answer is at most
      `floor` and the witness is the seed, or {0}.
    """
    if any(mk.bit_count() <= 1 for mk in masks):
        # single points are patterns; only the empty set avoids them
        return 0, (), 1
    # adding v can only complete a pattern whose highest point is v
    by_top = [[] for _ in range(n)]
    for mk in masks:
        by_top[mk.bit_length() - 1].append(mk)
    if room is None:
        room = range(n + 1)
    if cap is None:
        cap = n

    best, best_mask = 1, 1
    if seed_witness:
        shift = min(seed_witness) % n
        cand = 0
        for x in seed_witness:
            cand |= 1 << ((x - shift) % n)
        if not any(mk & ~cand == 0 for mk in masks):
            best, best_mask = cand.bit_count(), cand
    best = max(best, floor)
    nodes = 0

    def extend(smask, size, v):
        # one node per pass; leaving v out is the next pass
        nonlocal best, best_mask, nodes
        if size > best:
            best, best_mask = size, smask
            if size >= cap:
                nodes += 1
                raise _Capped
        while True:
            nodes += 1
            if v == n or size + room[n - v] <= best:
                return
            nxt = smask | (1 << v)
            outside = ~nxt
            for mk in by_top[v]:
                if not mk & outside:
                    break
            else:
                extend(nxt, size + 1, v + 1)
            v += 1

    if best < cap:
        try:
            if dilate and not any(mk & ~3 == 0 for mk in masks):
                extend(3, 2, 2)
            else:
                # 0 is forced into the set: any nonempty pattern-free set translates to one
                extend(1, 1, 1)
        except _Capped:
            pass
    witness = tuple(i for i in range(n) if best_mask >> i & 1)
    return len(witness), witness, nodes


@lru_cache(maxsize=None)
def _interval_r(m, length):
    """(r_m([length]), a witness): the largest subset of {0, ..., length - 1}
    holding no m-term progression of integers.

    _max_free runs on the integer progressions, seeded by the witness at
    length - 1, capped at r_m([length - 1]) + 1 and pruned on the shorter
    lengths, since its undecided residues are again an interval.
    """
    if length == 0:
        return 0, ()
    prev, seed = _interval_r(m, length - 1)
    room = [_interval_r(m, L)[0] for L in range(length)]
    masks = {sum(1 << (a + k * b) for k in range(m))
             for b in range(1, length + 1) for a in range(length - (m - 1) * b)}
    value, witness, _ = _max_free(length, masks, seed, room=room, cap=prev + 1)
    return value, witness


def _prime_cap(m, n):
    """min over L of n*r_m([L])//L, an upper bound on r_m(n) at prime n.

    Each of the n(n - 1) progressions of length L meets a progression-free
    set in at most r_m([L]) points, and every point lies on L(n - 1) of them.
    """
    return min(n * _interval_r(m, L)[0] // L for L in range(1, n + 1))


def szemeredi_r(m: int, n: int, *, seed_witness=(), floor: int = 0) -> RamseyResult:
    """Largest size of a subset of Z/nZ without a length-m progression.

    `floor` asks only whether the answer exceeds it: the value is r_m(n)
    when it is above `floor`, and otherwise only the size of a
    progression-free set (the seed, or {0}) with r_m(n) <= `floor`.

    An integer progression inside an interval of residues is one mod n, so
    at most r_m([L]) of L undecided residues join the set.  The set holds 0,
    which follows n - 1 cyclically; so the L residues and 0 form an interval
    of L + 1, of which at most r_m([L + 1]) lie in the set.  At prime n with
    m >= 3 the search starts from {0, 1}, and the L residues, 0 and 1 form
    one of L + 2.  At prime n the answer is capped at _prime_cap.
    """
    if not 1 <= m <= n:
        raise DomainError("need 1 <= m <= n")
    if n > R_CAP:
        raise DomainError(f"n = {n} beyond the search cap {R_CAP}")
    masks, collapsed = _ap_masks(m, n)
    r = [_interval_r(m, L)[0] for L in range(n + 1)]
    prime = is_prime(n)
    wrap = 2 if prime and m >= 3 else 1  # the residues the search starts from
    room = [min(r[L + j] - j for j in range(min(wrap, n - L) + 1)) for L in range(n + 1)]
    cap = _prime_cap(m, n) if prime else None
    value, witness, nodes = _max_free(n, masks, seed_witness, room=room,
                                      cap=cap, dilate=prime, floor=floor)
    return RamseyResult("ap", n, (m,), value, witness, nodes, collapsed)


def szemeredi_grid(delta: int, s: int, n: int, *, seed_witness=(),
                   floor: int = 0) -> RamseyResult:
    """Largest size of a subset of Z/nZ without an A(delta, s) grid pattern;
    `floor` as in szemeredi_r."""
    if delta < 2 or s < 0 or s > n - delta:
        raise DomainError("need delta >= 2 and 0 <= s <= n - delta")
    if n > GRID_CAP:
        raise DomainError(f"n = {n} beyond the grid search cap {GRID_CAP}")
    masks, collapsed = _grid_masks(delta, s, n)
    value, witness, nodes = _max_free(n, masks, seed_witness, dilate=is_prime(n), floor=floor)
    return RamseyResult("grid", n, (delta, s), value, witness, nodes, collapsed)


def ap_scan_bound(n: int, *, with_rows: bool = False):
    """min over 1 <= m <= n of m + n - r_m(n); no primality assumed.

    Witnesses from one m seed the next search (r_m is nondecreasing in m).
    Every bound m + n - r_m(n) is at least m, so without rows the scan stops
    once m reaches the best bound so far.  Without rows it also decides each
    m instead of solving it: m lowers the best bound B only if r_m(n) >
    m + n - B, which is the floor of its search, and at prime n it is skipped
    when the floor reaches _prime_cap.  With rows it solves every m.
    """
    if n < 1:
        raise DomainError(f"n = {n}: the scan needs n >= 1")
    prime = is_prime(n)
    rows = []
    best = None
    witness = ()
    for m in range(1, n + 1):
        floor = 0
        if not with_rows and best is not None:
            if m >= best:
                break
            floor = m + n - best
            if prime and floor >= _prime_cap(m, n):
                continue
        res = szemeredi_r(m, n, seed_witness=witness, floor=floor)
        witness = res.witness
        bound = m + n - res.value
        rows.append((m, res.value, bound))
        if best is None or bound < best:
            best = bound
    return (best, rows) if with_rows else best


def prop_ram_lower(p: int, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """The progression-scan lower bound on mu at prime p, verified against it."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime; the bound can fail off primes")
    if math.gcd(p, q) != 1:
        raise DomainError("gcd(p, q) must be 1")
    bound = ap_scan_bound(p)
    rec = mu(p, q, budget)
    if rec.exact and rec.mu < bound:
        raise InternalError(f"mu({q},{p}) = {rec.mu} below the proven bound {bound}")
    return bound


@dataclass(frozen=True)
class GridBoundReport:
    p: int
    q: int
    bound_grid: int
    bound_ap: int
    mu: int

    def json_dict(self):
        return {"p": self.p, "q": self.q, "bound_grid": self.bound_grid,
                "bound_ap": self.bound_ap, "mu": self.mu}


def prop_ram_grid_lower(p: int, q: int, budget: int = DEFAULT_BUDGET) -> GridBoundReport:
    """The grid-pattern lower bound min(delta + s - 1 + p - r_{delta,s}(p));
    incomparable a priori with the plain scan bound, so both are reported."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime; the bound can fail off primes")
    if math.gcd(p, q) != 1:
        raise DomainError("gcd(p, q) must be 1")
    if p > GRID_CAP:
        raise DomainError(f"p = {p} beyond the grid search cap {GRID_CAP}")
    best = None
    for delta in range(2, p + 1):
        witness = ()
        for s in range(0, p - delta + 1):
            # only r > delta + s - 1 + p - best lowers the best bound
            floor = 0 if best is None else delta + s - 1 + p - best
            res = szemeredi_grid(delta, s, p, seed_witness=witness, floor=floor)
            witness = res.witness
            bound = delta + s - 1 + p - res.value
            if best is None or bound < best:
                best = bound
    bound_ap = ap_scan_bound(p)
    rec = mu(p, q, budget)
    if rec.exact and rec.mu < best:
        raise InternalError(f"mu({q},{p}) = {rec.mu} below the proven grid bound {best}")
    return GridBoundReport(p, q, best, bound_ap, rec.mu_lower)
