"""The benchmark's three workloads as task lists, with the output check of
every task.

A task is a (task_id, run) pair.  run(up, rng) gets the imported `uplab`
package and a random generator seeded from the workload seed and the task
id, and returns (output, counts):

- output is canonical JSON data.  The sorted outputs of all tasks make the
  workload digest, so it holds results only, never work counts, which a
  faster algorithm may legitimately change.
- counts holds the program's own work counters as far as the outputs show
  them (DistanceResult.work, UPScanReport.words_checked).

A task raises CheckFailed when an output breaks its check.  The seed orders
the tasks and draws the random words of `transform`; it never changes which
tasks run.  The sizes are chosen so that one repetition takes a few seconds
on one core; RATIONALE.md gives the reasons.
"""

from __future__ import annotations

import math
import random

# mu(F_2, p) reference values: the table of acceptance criterion 01 and the
# README, extended by the pins at 71 and 73.  They are copied here rather
# than read from the program so that the check stays independent of it.
MU_F2 = {7: 7, 17: 14, 23: 19, 31: 20, 41: 30, 43: 28, 47: 35, 71: 47, 73: 37}

# bounds: every binary code of odd length <= 29, every ternary code of length
# <= 16 whose 3^k codewords stay within the exact q-ary kernel's reach
BOUNDS_F2_MAX_N = 29
BOUNDS_F3_MAX_N = 16
BOUNDS_F3_MAX_WORDS = 1 << 18
AP_PRIMES = (17, 19)

# transform: exhaustive scans, random words in tabled and untabled fields,
# and ms round trips over the criterion-08 grid
SCANS = ((15, 2), (7, 3))
RANDOM_WORDS = ((13, 3, 150), (11, 3, 150), (17, 3, 15))
ROUNDTRIP_GRID = tuple((n, q) for n in (3, 5, 7, 9, 15, 17, 21, 31) for q in (2, 3, 5)
                       if math.gcd(n, q) == 1)
ROUNDTRIPS_PER_CELL = 2


class CheckFailed(Exception):
    """A task's output broke its check."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _nonzero_word(rng: random.Random, n: int, q: int) -> tuple:
    while True:
        w = tuple(rng.randrange(q) for _ in range(n))
        if any(w):
            return w


def _weight(word) -> int:
    return sum(1 for c in word if c)


# ---------------------------------------------------------------------------
# table


def _table_task(p):
    def run(up, rng):
        rec = up.mu(p, 2)
        _check(rec.exact and rec.mu_lower == MU_F2[p],
               f"mu(2, {p}) = {rec.mu_lower}..{rec.mu_upper}, pinned {MU_F2[p]}")
        out = {"p": p, "mu": rec.mu_lower, "witness": rec.witness.gen_string(),
               "witness_dim": rec.witness.dim}
        return out, {"work": sum(r.work for _, r in rec.per_divisor)}
    return run


# ---------------------------------------------------------------------------
# bounds


def _bounds_task(n, q):
    def run(up, rng):
        rows = []
        work = 0
        for code in up.enumerate_codes(n, q):
            if q != 2 and q ** code.dim > BOUNDS_F3_MAX_WORDS:
                continue
            b = up.bch_bound(code.zeros, n)
            h = up.ht_bound(code.zeros, n)
            res = up.min_distance(code)
            _check(res.exact, f"[{n},{code.dim}] over F_{q}: distance not exact")
            _check(b <= h <= res.lower,
                   f"[{n},{code.dim}] over F_{q} {code.gen_string()}: bch {b} ht {h} d {res.lower}")
            rows.append([code.gen_string(), code.dim, b, h, res.lower])
            work += res.work
        return rows, {"work": work}
    return run


def _pin17(up, rng):
    qr = [c for c in up.enumerate_codes(17, 2) if c.dim == 9][0]
    h = up.ht_bound(qr.zeros, 17)
    res = up.min_distance(qr)
    _check(res.exact and h == 5 == res.lower, f"[17,9] pin: ht {h} d {res.lower}, want 5 and 5")
    return {"gen": qr.gen_string(), "ht": h, "d": res.lower}, {"work": res.work}


def _ap_task(p):
    def run(up, rng):
        bound = up.ap_scan_bound(p)
        rec = up.mu(p, 2)
        _check(rec.exact and bound <= rec.mu_lower,
               f"progression bound {bound} above mu(2, {p}) = {rec.mu_lower}")
        return ({"p": p, "bound": bound, "mu": rec.mu_lower},
                {"work": sum(r.work for _, r in rec.per_divisor)})
    return run


# ---------------------------------------------------------------------------
# transform


def _scan_task(n, q):
    def run(up, rng):
        rep = up.naive_up_scan(n, q)
        _check(rep.violations == 0 and rep.min_product == n,
               f"up-scan ({n},{q}): {rep.violations} violations, min product {rep.min_product}")
        return rep.json_dict(), {"words": rep.words_checked}
    return run


def _random_weights_task(n, q, count):
    def run(up, rng):
        rows = []
        for _ in range(count):
            w = _nonzero_word(rng, n, q)
            wh = up.transform_weight(w, q)
            _check(_weight(w) * wh >= n, f"({n},{q}) word {w}: w * w_hat = {_weight(w) * wh} < {n}")
            rows.append(["".join(map(str, w)), wh])
        return rows, {"words": count}
    return run


def _roundtrip_task(n, q):
    def run(up, rng):
        rows = []
        for _ in range(ROUNDTRIPS_PER_CELL):
            w = _nonzero_word(rng, n, q)
            msv = up.ms_forward(w, q)
            _check(up.ms_inverse(msv) == w, f"({n},{q}) word {w}: ms_inverse(ms_forward(w)) != w")
            _check(_weight(w) * msv.weight >= n, f"({n},{q}) word {w}: weight product below {n}")
            rows.append(["".join(map(str, w)), msv.weight])
        return rows, {"words": ROUNDTRIPS_PER_CELL}
    return run


# ---------------------------------------------------------------------------


def tasks(workload: str) -> list:
    """The task list of a workload, in canonical order."""
    if workload == "table":
        return [(f"mu/2/{p}", _table_task(p)) for p in MU_F2]
    if workload == "bounds":
        out = [(f"census/2/{n}", _bounds_task(n, 2)) for n in range(1, BOUNDS_F2_MAX_N + 1, 2)]
        out += [(f"census/3/{n}", _bounds_task(n, 3)) for n in range(1, BOUNDS_F3_MAX_N + 1)
                if n % 3]
        out.append(("pin/2/17/9", _pin17))
        out += [(f"ap/{p}", _ap_task(p)) for p in AP_PRIMES]
        return out
    if workload == "transform":
        out = [(f"scan/{n}/{q}", _scan_task(n, q)) for n, q in SCANS]
        out += [(f"weights/{n}/{q}", _random_weights_task(n, q, c)) for n, q, c in RANDOM_WORDS]
        out += [(f"roundtrip/{n}/{q}", _roundtrip_task(n, q)) for n, q in ROUNDTRIP_GRID]
        return out
    raise KeyError(workload)


WORKLOADS = ("table", "bounds", "transform")


def ordered_tasks(workload: str, seed: int) -> list:
    """The task list in the order the seed picks."""
    out = tasks(workload)
    random.Random(f"order/{workload}/{seed}").shuffle(out)
    return out


def task_rng(seed: int, task_id: str) -> random.Random:
    """Per-task generator, so a task's random inputs do not depend on the order."""
    return random.Random(f"inputs/{seed}/{task_id}")
