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

from .cyclic import DEFAULT_BUDGET, mu
from .gf import DomainError, InternalError

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


def _ap_masks(m, n):
    masks = set()
    collapsed = False
    for b in range(1, n):
        for a in range(n):
            pts = {(a + k * b) % n for k in range(m)}
            if len(pts) < m:
                collapsed = True
            masks.add(sum(1 << p for p in pts))
    return sorted(masks), collapsed


def _grid_masks(delta, s, n):
    masks = set()
    collapsed = False
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    size = (delta - 1) * (s + 1)
    for b in units:
        for c in units:
            for a in range(n):
                pts = {(a + k * b + r * c) % n
                       for k in range(delta - 1) for r in range(s + 1)}
                if len(pts) < size:
                    collapsed = True
                masks.add(sum(1 << p for p in pts))
    return sorted(masks), collapsed


def _max_free(n, masks, seed_witness=()):
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


def szemeredi_r(m: int, n: int, *, seed_witness=()) -> RamseyResult:
    """Largest size of a subset of Z/nZ without a length-m progression."""
    if not 1 <= m <= n:
        raise DomainError("need 1 <= m <= n")
    if n > R_CAP:
        raise DomainError(f"n = {n} beyond the search cap {R_CAP}")
    masks, collapsed = _ap_masks(m, n)
    value, witness, nodes = _max_free(n, masks, seed_witness)
    return RamseyResult("ap", n, (m,), value, witness, nodes, collapsed)


def szemeredi_grid(delta: int, s: int, n: int, *, seed_witness=()) -> RamseyResult:
    """Largest size of a subset of Z/nZ without an A(delta, s) grid pattern."""
    if delta < 2 or s < 0 or s > n - delta:
        raise DomainError("need delta >= 2 and 0 <= s <= n - delta")
    if n > GRID_CAP:
        raise DomainError(f"n = {n} beyond the grid search cap {GRID_CAP}")
    masks, collapsed = _grid_masks(delta, s, n)
    value, witness, nodes = _max_free(n, masks, seed_witness)
    return RamseyResult("grid", n, (delta, s), value, witness, nodes, collapsed)


def ap_scan_bound(n: int, *, with_rows: bool = False):
    """min over 1 <= m <= n of m + n - r_m(n); no primality assumed.

    Witnesses from one m seed the next search (r_m is nondecreasing in m).
    """
    rows = []
    best = None
    witness = ()
    for m in range(1, n + 1):
        res = szemeredi_r(m, n, seed_witness=witness)
        witness = res.witness
        bound = m + n - res.value
        rows.append((m, res.value, bound))
        if best is None or bound < best:
            best = bound
    return (best, rows) if with_rows else best


def prop_ram_lower(p: int, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """The progression-scan lower bound on mu at prime p, verified against it."""
    from .gf import is_prime

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
    from .gf import is_prime

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
            res = szemeredi_grid(delta, s, p, seed_witness=witness)
            witness = res.witness
            bound = delta + s - 1 + p - res.value
            if best is None or bound < best:
                best = bound
    bound_ap = ap_scan_bound(p)
    rec = mu(p, q, budget)
    if rec.exact and rec.mu < best:
        raise InternalError(f"mu({q},{p}) = {rec.mu} below the proven grid bound {best}")
    return GridBoundReport(p, q, best, bound_ap, rec.mu_lower)
