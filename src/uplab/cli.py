"""Command-line frontend: one subcommand per capability, JSON/CSV/table
output, a line-delimited JSON result cache, and a fixed exit-code contract:

    0  success (or brackets consistent with expectations)
    2  usage error
    3  budget exhausted somewhere, output partial or bracketed
    4  internal invariant violated (a computed value contradicts a pinned one)

Every command is deterministic for fixed flags.  The cache
(enabled via --cache or UPLAB_CACHE_DIR) receives each exact distance as it
is computed, and min_distance reads it only for a code mu neither pruned nor
reused, so the per-divisor records are the same with and without it, except
that a hit reports work=0 and is exact where the cacheless run stopped at a
bracket that could no longer lower mu.  A command registers only the shared flags it
uses, and a command with modes (asym --what, ramsey --kind, up-scan --mode)
refuses a flag the chosen mode does not read, so an unused flag is a usage
error, not ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import __version__
from .cyclic import (DEFAULT_BUDGET, CyclicCode, DistanceResult, min_distance,
                     mu, strong_up_witness)
from .gf import DomainError, InternalError, PrimePower
from .mstransform import ms_forward, naive_up_check, naive_up_scan
from .polyring import _ALPHABET, canonical_m1, cyclotomic_cosets, factor_xn_minus_1
from .ramsey import (ap_scan_bound, prop_ram_grid_lower, prop_ram_lower,
                     szemeredi_grid, szemeredi_r)
from .asymptotics import (ball_volume_upper, construction_demo, entropy, f_alpha,
                          plotkin_lambda_cap, weak_up_scan)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_INVARIANT = 4

# reference values for the small-prime invariant table over F_2 (regression pins)
MU_TABLE_F2 = {7: 7, 17: 14, 23: 19, 31: 20, 41: 30, 43: 28, 47: 35,
               71: 47, 73: 37, 79: 55, 89: 45, 97: 64}


class Cache:
    """Line-delimited JSON store keyed by (q, n, generator string)."""

    def __init__(self, path):
        self.path = path
        self.entries = {}
        self.writable = True
        if path and os.path.exists(path):
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                        self.entries[(rec["q"], rec["n"], rec["gen"])] = DistanceResult(
                            rec["d_lower"], rec["d_upper"], rec["exact"], rec["method"], 0)
                    except (ValueError, KeyError, TypeError):
                        print(f"cache: skipping corrupt line in {path}", file=sys.stderr)

    def get(self, code: CyclicCode):
        """The cached exact distance of the code, with work 0, or None."""
        res = self.entries.get((code.q, code.n, code.gen_string()))
        return res if res is not None and res.exact else None

    def put(self, code: CyclicCode, res: DistanceResult):
        """Record a result; min_distance calls this only after get missed."""
        self.entries[(code.q, code.n, code.gen_string())] = replace(res, work=0)
        if not (self.path and self.writable):
            return
        rec = res.json_dict(code)
        rec["version"] = __version__
        rec["ts"] = int(time.time())
        try:
            with open(self.path, "a") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        except OSError as e:
            print(f"cache: cannot write {self.path} ({e}); continuing without", file=sys.stderr)
            self.writable = False


def _emit(obj, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
        return
    rows = obj if isinstance(obj, list) else [obj]
    rows = [r if isinstance(r, dict) else {"value": r} for r in rows]
    cols = []
    for r in rows:
        for k in r:
            if k not in cols:
                cols.append(k)
    if fmt == "csv":
        sys.stdout.write(",".join(cols) + "\n")
        for r in rows:
            sys.stdout.write(",".join(_cell(r.get(c)) for c in cols) + "\n")
        return
    widths = {c: max(len(c), *(len(_cell(r.get(c))) for r in rows)) for c in cols}
    sys.stdout.write("  ".join(c.ljust(widths[c]) for c in cols).rstrip() + "\n")
    for r in rows:
        sys.stdout.write("  ".join(_cell(r.get(c)).ljust(widths[c]) for c in cols).rstrip() + "\n")


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, list):
        return ";".join(str(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _cache_path(args):
    if not hasattr(args, "cache"):
        return None
    return args.cache or os.environ.get("UPLAB_CACHE_DIR")


def _cache_from(args):
    path = _cache_path(args)
    if not path:
        return None
    if os.path.isdir(path):
        path = os.path.join(path, "uplab-cache.jsonl")
    return Cache(path)


def cmd_factor(args):
    part = cyclotomic_cosets(args.n, PrimePower.of(args.q).q)
    try:  # the field and the length are valid, so only the splitting field is refused here
        m1 = canonical_m1(args.n, args.q)
    except DomainError as e:
        raise DomainError(f"factor labels the cosets by the canonical root of unity, "
                          f"whose field is refused: {e}") from None
    factors = factor_xn_minus_1(args.n, args.q, m1)
    out = {"n": args.n, "q": args.q,
           "cosets": [list(c) for c in part.cosets],
           "factors": [f.to_string() for f in factors],
           "degrees": [f.degree for f in factors]}
    _emit(out, args.format)
    return EXIT_OK


def cmd_mu(args):
    rec = mu(args.n, args.q, args.budget, cache=_cache_from(args))
    _emit(rec.json_dict(include_divisors=args.divisors), args.format)
    return EXIT_OK if rec.exact else EXIT_PARTIAL


def cmd_mindist(args):
    code = CyclicCode.from_gen(args.n, args.q, args.gen)
    res = min_distance(code, args.budget, cache=_cache_from(args))
    _emit(res.json_dict(code), args.format)
    return EXIT_OK if res.exact else EXIT_PARTIAL


def cmd_ms(args):
    try:
        word = tuple(_ALPHABET.index(ch) for ch in args.word.strip().lower())
    except ValueError:
        raise DomainError(f"bad word {args.word!r}") from None
    n = len(word) if args.n is None else args.n
    if n != len(word):
        raise DomainError(f"word length {len(word)} != n = {n}")
    chk = naive_up_check(word, args.q)
    msv = ms_forward(word, args.q)
    out = chk.json_dict()
    out["q"] = args.q
    out["values"] = msv.digit_rows()
    _emit(out, args.format)
    return EXIT_OK


def cmd_up_scan(args):
    _refuse_unread(args, f"--mode {args.mode}", _UP_SCAN_READS[args.mode], _UP_SCAN_FLAGS)
    rep = naive_up_scan(args.n, args.q, args.mode, args.trials, args.seed)
    _emit(rep.json_dict(), args.format)
    return EXIT_OK if rep.violations == 0 else EXIT_INVARIANT


def cmd_ramsey(args):
    _refuse_unread(args, f"--kind {args.kind}", _RAMSEY_READS[args.kind], _RAMSEY_FLAGS)
    if args.kind == "ap":
        res = szemeredi_r(args.m, args.n)
    else:
        res = szemeredi_grid(args.delta, args.s, args.n)
    _emit(res.json_dict(), args.format)
    return EXIT_OK


def cmd_weak_up(args):
    rows = weak_up_scan(args.q, args.eps, args.lam, args.pmax, args.budget, _cache_from(args))
    _emit([r.json_dict() for r in rows], args.format)
    if any(not r.mu_exact for r in rows):
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_asym(args):
    what = args.what
    mode = f"--what {what}"
    if what == "ram-bound" and args.composite_ok:
        mode += " --composite-ok"
    _refuse_unread(args, mode, _ASYM_READS[mode], _ASYM_FLAGS)
    if what == "entropy":
        out = {"x": args.x, "entropy": entropy(args.x)}
    elif what == "plotkin":
        cap = plotkin_lambda_cap(args.q)
        out = {"q": args.q, "cap": str(cap), "cap_float": float(cap)}
    elif what == "ball":
        exact, log2 = ball_volume_upper(args.n, args.alpha, args.q)
        out = {"n": args.n, "alpha": args.alpha, "q": args.q,
               "exact": str(exact), "log2": log2}
    elif what == "lambda-n":
        from .asymptotics import lambda_n_bound

        out = {"n": args.n, "p": args.p, "alpha": args.alpha, "R": args.R,
               "exponent": lambda_n_bound(args.n, args.p, args.alpha, args.R)}
    elif what == "f-alpha":
        out = f_alpha(args.p, args.alpha, args.q, args.R).json_dict()
    elif what == "construction":
        out = construction_demo(args.q, args.p, args.R, args.seed,
                                args.budget, args.alpha).json_dict()
    elif what == "ram-bound":
        if args.composite_ok:
            bound, rows = ap_scan_bound(args.p, with_rows=True)
            out = {"p": args.p, "bound": bound,
                   "rows": [list(r) for r in rows]}
        else:
            out = {"p": args.p, "q": args.q, "bound": prop_ram_lower(args.p, args.q, args.budget)}
    elif what == "ram-grid-bound":
        out = prop_ram_grid_lower(args.p, args.q, args.budget).json_dict()
    else:
        raise DomainError(f"unknown asym target {what!r}")
    _emit(out, args.format)
    return EXIT_OK


def cmd_table(args):
    cache = _cache_from(args)
    primes = args.primes or [7, 17, 23, 31, 41, 43, 47]
    rows = []
    worst = EXIT_OK
    for p in primes:
        expected = MU_TABLE_F2.get(p) if args.q == 2 else None
        rec = mu(p, args.q, args.budget, cache=cache)
        if rec.exact:
            if expected is None:
                status = "computed"
            elif rec.mu == expected:
                status = "match"
            else:
                status = "MISMATCH"
                worst = EXIT_INVARIANT
        else:
            if expected is not None and rec.mu_lower <= expected <= rec.mu_upper:
                status = "bracket-consistent"
            elif expected is None:
                status = "bracket"
            else:
                status = "BRACKET-EXCLUDES"
                worst = EXIT_INVARIANT
            if worst == EXIT_OK:
                worst = EXIT_PARTIAL if args.strict_exact else EXIT_OK
        rows.append({"p": p, "mu_lower": rec.mu_lower, "mu_upper": rec.mu_upper,
                     "exact": rec.exact, "expected": expected, "status": status,
                     "witness": rec.witness.gen_string(), "witness_dim": rec.witness.dim})
    _emit(rows, args.format)
    return worst


def cmd_strong_up(args):
    rep = strong_up_witness(args.p, args.q, args.budget)
    _emit(rep.json_dict(), args.format)
    return EXIT_OK


def _nonneg_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} < 0")
    return value


# the shared flags; each command registers the ones it reads
_COMMON = {
    "budget": dict(type=_nonneg_int, default=DEFAULT_BUDGET,
                   help="max codeword evaluations per distance computation (>= 0)"),
    "seed": dict(type=int, default=0),
    "cache": dict(default=None, help="cache file or directory (UPLAB_CACHE_DIR is the fallback)"),
}

# commands whose input or output holds generator or word digit strings
_DIGIT_COMMANDS = {"factor", "mu", "mindist", "ms", "up-scan", "table", "strong-up"}


# the optional flags of a command with modes, with their defaults, and the
# flags each mode reads; the parser registers them with default None, so a
# flag the mode does not read is told apart from one left at its default
_ASYM_FLAGS = dict(x=0.5, q=2, n=7, p=3, alpha=0.5, R=0.5, composite_ok=False,
                   budget=DEFAULT_BUDGET, seed=0)
_ASYM_READS = {
    "--what entropy": "x",
    "--what plotkin": "q",
    "--what ball": "n alpha q",
    "--what lambda-n": "n p alpha R",
    "--what f-alpha": "p alpha q R",
    "--what construction": "q p R seed budget alpha",
    "--what ram-bound --composite-ok": "p composite_ok",
    "--what ram-bound": "p q budget",
    "--what ram-grid-bound": "p q budget",
}
_RAMSEY_FLAGS = dict(m=3, delta=3, s=0)
_RAMSEY_READS = {"ap": "m", "grid": "delta s"}
_UP_SCAN_FLAGS = dict(trials=10000, seed=0)
_UP_SCAN_READS = {"exhaustive": "", "random": "trials seed"}


def _refuse_unread(args, mode: str, reads: str, flags: dict):
    """Refuse any of the flags that was passed but is not in reads, then set
    the others to their defaults."""
    unread = [f for f in flags if getattr(args, f) is not None and f not in reads.split()]
    if unread:
        names = ", ".join("--" + f.replace("_", "-") for f in unread)
        raise DomainError(f"{args.command} {mode} does not read {names}")
    for f, default in flags.items():
        if getattr(args, f) is None:
            setattr(args, f, default)


def _int_list(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def _add_common(sp, *flags):
    sp.add_argument("--format", choices=["json", "csv", "table"], default="json")
    for flag in flags:
        sp.add_argument(f"--{flag}", **_COMMON[flag])


def _refuse_wide_q(args):
    """Digit strings (generators, words, cache keys) use 0-9a-z, so a command
    that reads or writes one refuses q > 36 before it computes anything."""
    q = getattr(args, "q", None)
    if q is None or q <= len(_ALPHABET):
        return
    if (args.command in _DIGIT_COMMANDS or _cache_path(args)
            or (args.command == "asym" and args.what == "construction")):
        raise DomainError(f"q = {q}: generator and word strings use the digits 0-9a-z, "
                          f"so this command needs q <= {len(_ALPHABET)}")


def build_parser():
    ap = argparse.ArgumentParser(prog="uplab",
                                 description="cyclic-code invariants, finite-field transforms, "
                                             "and progression bounds")
    ap.add_argument("--version", action="version", version=f"uplab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor x^n - 1 over F_q by cyclotomic cosets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("mu", help="min(distance + dimension) over all cyclic codes of length n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--divisors", action="store_true", help="include per-divisor records")
    _add_common(p, "budget", "cache")
    p.set_defaults(fn=cmd_mu)

    p = sub.add_parser("mindist", help="minimum distance of the code generated by --gen")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gen", required=True, help="generator, digits lowest degree first")
    _add_common(p, "budget", "cache")
    p.set_defaults(fn=cmd_mindist)

    p = sub.add_parser("ms", help="transform a word and check the weight-product inequality")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--word", required=True, help="digits, lowest index first")
    _add_common(p)
    p.set_defaults(fn=cmd_ms)

    p = sub.add_parser("up-scan", help="sweep words for the minimum weight product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--trials", type=int)
    _add_common(p, "seed")
    p.set_defaults(fn=cmd_up_scan, **dict.fromkeys(_UP_SCAN_FLAGS))

    p = sub.add_parser("ramsey", help="largest pattern-free subset of Z/nZ")
    p.add_argument("--kind", choices=["ap", "grid"], default="ap")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="progression length (kind=ap, default 3)")
    p.add_argument("--delta", type=int, help="grid width parameter (kind=grid, default 3)")
    p.add_argument("--s", type=int, help="grid height parameter (kind=grid, default 0)")
    _add_common(p)
    p.set_defaults(fn=cmd_ramsey, **dict.fromkeys(_RAMSEY_FLAGS))

    p = sub.add_parser("weak-up", help="scan primes for small order and large invariant")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("--pmax", type=int, required=True)
    _add_common(p, "budget", "cache")
    p.set_defaults(fn=cmd_weak_up)

    p = sub.add_parser("asym", help="closed-form evaluators")
    p.add_argument("--what", required=True,
                   choices=["entropy", "plotkin", "ball", "lambda-n", "f-alpha",
                            "construction", "ram-bound", "ram-grid-bound"])
    p.add_argument("--x", type=float)
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--composite-ok", action="store_true",
                   help="ram-bound without the primality requirement (no invariant check)")
    _add_common(p, "budget", "seed")
    p.set_defaults(fn=cmd_asym, **dict.fromkeys(_ASYM_FLAGS))

    p = sub.add_parser("table", help="recompute the F_2 invariant table and diff")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--primes", type=_int_list, help="comma list; default 7,17,23,31,41,43,47")
    p.add_argument("--strict-exact", action="store_true",
                   help="exit 3 when any row is only a bracket")
    _add_common(p, "budget", "cache")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("strong-up", help="witness that distance+dimension collapses at prime length")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_common(p, "budget")
    p.set_defaults(fn=cmd_strong_up)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        _refuse_wide_q(args)
        return args.fn(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
