"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Run:  pytest tests/test_acceptance.py -v -s
"""

import math
import os
import subprocess
import sys
import time

from uplab.cyclic import (bch_bound, enumerate_codes, ht_bound, min_distance,
                          mu, strong_up_witness)
from uplab.gf import is_primitive
from uplab.mstransform import ms_forward, ms_inverse, naive_up_scan
from uplab.ramsey import ap_scan_bound, prop_ram_grid_lower, prop_ram_lower
from uplab.asymptotics import construction_demo, eventual_trend, f_alpha_sweep

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

MU_TABLE = {7: 7, 17: 14, 23: 19, 31: 20, 41: 30, 43: 28, 47: 35}
PRIMITIVE_PRIMES = [5, 11, 13, 19, 29, 37]


def _report(num, name, ok, extra=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, line


def test_criterion_01_mu_table():
    t0 = time.time()
    got = {}
    for p, expected in MU_TABLE.items():
        rec = mu(p, 2)
        assert rec.exact, f"p={p} came back as a bracket"
        got[p] = rec.mu
    elapsed = time.time() - t0
    ok = got == MU_TABLE and elapsed <= 600
    _report(1, "invariant table over F_2", ok, f"{got}, {elapsed:.1f}s")


def test_criterion_02_length_nine_pair():
    t0 = time.time()
    m9 = mu(9, 2)
    bound = ap_scan_bound(9)
    elapsed = time.time() - t0
    ok = m9.exact and m9.mu == 6 and bound == 8 and elapsed < 1.0
    _report(2, "length-9 invariant and progression formula", ok,
            f"mu={m9.mu_lower}, formula={bound}, {elapsed:.2f}s")


def test_criterion_03_weight_product_exhaustive():
    t0 = time.time()
    ok = True
    details = []
    for n, q in [(7, 2), (9, 2), (15, 2), (7, 3)]:
        rep = naive_up_scan(n, q)
        details.append(f"({n},{q}):min={rep.min_product}")
        ok &= rep.violations == 0 and rep.min_product >= n
        if q == 2 and n % 2 == 1:
            all_one = ms_forward((1,) * n, q)
            ok &= all_one.weight == 1  # product n attained by the all-one word
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(3, "weight product >= n, exhaustive", ok,
            "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_04_code_form_product():
    t0 = time.time()
    checked = violations = exact_checked = 0
    for q in (2, 3):
        for n in range(1, 32):
            if math.gcd(n, q) != 1:
                continue
            for code in enumerate_codes(n, q):
                checked += 1
                # certified route: designed distance alone settles every code
                # (a union of n-k zeros leaves a stride-1 run of length
                # >= ceil((n-k)/k), so bch >= ceil(n/k))
                b = bch_bound(code.zeros, n)
                if b * code.dim < n:
                    violations += 1
                # exact confirmation wherever the kernel is in easy reach
                if q**code.dim <= (1 << 18) or (q == 2 and code.dim <= 26):
                    exact_checked += 1
                    if min_distance(code).d * code.dim < n:
                        violations += 1
    elapsed = time.time() - t0
    _report(4, "distance * dimension >= n for all codes n <= 31", violations == 0,
            f"{checked} codes ({exact_checked} with exact d), {violations} violations, {elapsed:.1f}s")


def test_criterion_05_prime_length_collapse():
    ok = True
    details = []
    for p in [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        rep = strong_up_witness(p, 2)
        if is_primitive(2, p):
            ok &= rep.branch == "primitive" and rep.record.mu == p + 1
        else:
            ok &= rep.branch == "bounded"
            wd = min_distance(rep.witness).d
            ok &= wd + rep.witness.dim <= p
            details.append(f"p={p}:{wd + rep.witness.dim}")
    rep5 = strong_up_witness(5, 2)
    ok &= rep5.branch == "primitive" and rep5.record.mu == 6
    _report(5, "collapse witnesses at prime length", ok, "; ".join(details))


def test_criterion_06_progression_bounds():
    ok = True
    details = []
    for p in (7, 11, 13, 17):
        bound = ap_scan_bound(p)
        for q in (2, 3):
            m = mu(p, q).mu
            ok &= bound <= m
            details.append(f"p={p},q={q}:{bound}<={m}")
        # prop_ram_lower re-verifies internally and must not raise
        prop_ram_lower(p, 2)
    for p in (7, 11):
        rep = prop_ram_grid_lower(p, 2)
        ok &= rep.bound_grid <= rep.mu
        rep3 = prop_ram_grid_lower(p, 3)
        ok &= rep3.bound_grid <= rep3.mu
    _report(6, "progression-scan bounds below the invariant", ok, "; ".join(details[:4]) + "...")


def test_criterion_07_bound_ordering():
    t0 = time.time()
    checked = violations = 0
    for n in range(1, 32):
        if n % 2 == 0:
            continue
        for code in enumerate_codes(n, 2):
            d = min_distance(code).d
            b = bch_bound(code.zeros, n)
            h = ht_bound(code.zeros, n)
            checked += 1
            if not b <= h <= d:
                violations += 1
    # ternary codes, wherever the exact kernel is in reach
    for n in range(1, 32):
        if math.gcd(n, 3) != 1:
            continue
        for code in enumerate_codes(n, 3):
            if 3**code.dim > (1 << 18):
                continue
            d = min_distance(code).d
            b = bch_bound(code.zeros, n)
            h = ht_bound(code.zeros, n)
            checked += 1
            if not b <= h <= d:
                violations += 1
    qr = [c for c in enumerate_codes(17, 2) if c.dim == 9][0]
    pin = ht_bound(qr.zeros, 17) == 5 == min_distance(qr).d
    elapsed = time.time() - t0
    _report(7, "bch <= ht <= d with the [17,9] pin", violations == 0 and pin,
            f"{checked} codes, {elapsed:.1f}s")


def test_criterion_08_transform_properties():
    import random

    rng = random.Random(88)
    grid = [(n, q) for n in (3, 5, 7, 9, 15, 17, 21, 31) for q in (2, 3, 5)
            if math.gcd(n, q) == 1]
    words = 0
    ok = True
    for n, q in grid:
        for _ in range(70):
            w = tuple(rng.randrange(q) for _ in range(n))
            if not any(w):
                continue
            msv = ms_forward(w, q)
            ok &= msv.conjugacy_ok()
            ok &= ms_inverse(msv) == w
            words += 1
    from uplab.gf import nth_root_of_unity, splitting_ctx

    for n in (7, 15, 17):
        ctx = splitting_ctx(2, n)
        z = nth_root_of_unity(ctx, n)
        for _ in range(8):
            w = tuple(rng.randrange(2) for _ in range(n))
            if not any(w):
                continue
            base = ms_forward(w, 2).weight
            for b in range(2, n):
                if math.gcd(b, n) == 1:
                    ok &= ms_forward(w, 2, zeta=ctx.pow(z, b)).weight == base
    _report(8, "transform round trips, conjugacy, root-choice invariance", ok,
            f"{words} round-tripped words")


def test_criterion_09_asymptotic_behavior():
    primes = [11, 17, 23, 31, 41, 53, 61, 67, 71, 73, 79]
    low = [r.value for r in f_alpha_sweep(primes, 0.4, 2, 0.5)]
    high = [r.value for r in f_alpha_sweep(primes, 0.6, 2, 0.5)]
    rep = construction_demo(2, 3, 0.5)
    # eventual_trend reads only the last step; the tails are checked whole
    tail_low, tail_high = low[-5:], high[-5:]
    ok = (eventual_trend(low) == "decrease" and eventual_trend(high) == "increase"
          and all(a > b for a, b in zip(tail_low, tail_low[1:])) and tail_low[0] < 0
          and all(a < b for a, b in zip(tail_high, tail_high[1:])) and tail_high[0] > 0
          and rep.n == 7 and rep.s == 2 and rep.n == 2 - 1 + rep.s * 3
          and rep.dim == 4 and rep.distance.exact and rep.distance.lower == 3)
    _report(9, "rate-balance sign dichotomy and the [7,4,3] construction", ok,
            f"tail(0.4)={low[-1]:.3g}, tail(0.6)={high[-1]:.3g}")


def test_criterion_10_byte_identical_reruns():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("UPLAB_CACHE_DIR", None)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "uplab", *args],
                              capture_output=True, text=True, env=env).stdout

    ok = True
    for args in (("mu", "--n", "23", "--q", "2", "--divisors"),
                 ("table", "--q", "2", "--primes", "7,17"),
                 ("ramsey", "--kind", "ap", "--m", "4", "--n", "11"),
                 ("up-scan", "--n", "9", "--q", "2"),
                 ("asym", "--what", "construction", "--q", "2", "--p", "5", "--seed", "3")):
        ok &= run(*args) == run(*args)
    _report(10, "byte-identical reruns", ok)
