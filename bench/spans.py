"""Spans recorded from the benchmark's side of the program boundary.

install() wraps every public function of the layer modules (gf, polyring,
cyclic, mstransform, ramsey) and rebinds each module attribute that holds
it, in every loaded `uplab` module: `cyclic` and `polyring` import names
from the modules below them, and a call through such a binding must be
recorded too.  Nothing inside `src/` changes.

A span is [name, start, end, parent index, attrs].  Spans stay in memory;
the caller writes them out once the workload has ended.  A layer's self
time is its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYER_MODULES = ("gf", "polyring", "cyclic", "mstransform", "ramsey")


def _distance_attrs(args, kwargs, res):
    code = args[0] if args else kwargs["code"]
    if res.method == "exhaustive":
        kind = "q2" if code.q == 2 else ("qp" if code.field.e == 1 else "generic")
    else:
        kind = res.method
    return {"kind": kind, "work": res.work, "exact": res.exact}


# per-span attributes taken from the program's own results
_ATTRS = {
    "cyclic.min_distance": _distance_attrs,
    "cyclic.mu": lambda a, k, rec: {"divisors": len(rec.per_divisor)},
    "cyclic.enumerate_codes": lambda a, k, codes: {"codes": len(codes)},
    "mstransform.naive_up_scan": lambda a, k, rep: {"words": rep.words_checked},
    "ramsey.szemeredi_r": lambda a, k, res: {"nodes": res.nodes},
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        attrs_of = _ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, result)
            return result

        return traced

    def dump(self) -> list:
        """Spans as JSON data, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "attrs": a}
                for n, s, e, p, a in self.spans]


def install(tracer: Tracer) -> int:
    """Wrap the layer functions and rebind every binding of them; returns the
    number of functions wrapped.  A module or function that no longer exists
    is skipped, so its layer later reports zero calls."""
    wrapped = {}
    for short in LAYER_MODULES:
        try:
            mod = importlib.import_module(f"uplab.{short}")
        except ImportError:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for name, mod in list(sys.modules.items()):
        if name != "uplab" and not name.startswith("uplab."):
            continue
        for attr, obj in list(vars(mod).items()):
            pair = wrapped.get(id(obj))
            if pair is not None and pair[0] is obj:
                setattr(mod, attr, pair[1])
    return len(wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics

_DISTANCE_KINDS = (("bz", "messages_per_s"), ("q2", "codewords_per_s"),
                   ("qp", "codewords_per_s"))
_CALL_LAYERS = ("cyclic.ht_bound", "cyclic.bch_bound", "polyring.factor_xn_minus_1",
                "mstransform.transform_weight", "mstransform.ms_forward",
                "mstransform.ms_inverse")


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_s"):
        return "s"
    return "count"


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order; every
    workload reports all of them, 0 where a layer is not called."""
    names = list(layer_metrics([], misses=0))
    return {name: _unit(name) for name in names + ["trace.wall_s", "trace.overhead_frac"]}


def _self_times(spans: list) -> list:
    out = [s[2] - s[1] for s in spans]
    for span in spans:
        if span[3] >= 0:
            out[span[3]] -= span[2] - span[1]
    return out


def _ratio(num, den, empty=0.0):
    return num / den if den else empty


def layer_metrics(spans: list, misses: int) -> dict:
    """Per-layer counts and self seconds from one process's raw spans.

    A layer that is never called reports 0 calls and 0 s.  Rates are the
    program's work count over the layer's self seconds.  The trace.* metrics
    need the untraced runs and are the caller's.
    """
    own = _self_times(spans)
    children = [0] * len(spans)  # direct min_distance children, for mu
    for span in spans:
        if span[3] >= 0 and span[0] == "cyclic.min_distance":
            children[span[3]] += 1
    calls, time_, work = {}, {}, {}
    exact = 0
    mu_computed = 0
    for i, (name, _, _, _, attrs) in enumerate(spans):
        key = name
        if name == "cyclic.min_distance" and attrs is not None:
            key = f"{name}.{attrs['kind']}"
            exact += attrs["exact"]
        if name == "cyclic.mu":
            mu_computed += children[i]
        calls[key] = calls.get(key, 0) + 1
        time_[key] = time_.get(key, 0.0) + own[i]
        if attrs:
            for field, value in attrs.items():
                if field not in ("kind", "exact"):
                    work[(key, field)] = work.get((key, field), 0) + value

    def secs(key):
        return time_.get(key, 0.0)

    def per_s(key, field):
        return _ratio(work.get((key, field), 0), secs(key))

    out = {}
    for kind, rate in _DISTANCE_KINDS:
        key = f"cyclic.min_distance.{kind}"
        out.update({f"{key}.calls": calls.get(key, 0), f"{key}.work": work.get((key, "work"), 0),
                    f"{key}.self_s": secs(key), f"{key}.{rate}": per_s(key, "work")})
    distance_calls = sum(v for k, v in calls.items() if k.startswith("cyclic.min_distance"))
    # no distance calls means nothing came back inexact
    out["cyclic.min_distance.exact_frac"] = _ratio(exact, distance_calls, 1.0)
    for layer in _CALL_LAYERS:
        out.update({f"{layer}.calls": calls.get(layer, 0), f"{layer}.self_s": secs(layer)})
    divisors = work.get(("cyclic.mu", "divisors"), 0)
    out.update({"cyclic.mu.divisors": divisors, "cyclic.mu.computed": mu_computed,
                "cyclic.mu.computed_frac": _ratio(mu_computed, divisors),
                "cyclic.mu.self_s": secs("cyclic.mu"),
                "cyclic.enumerate_codes.codes": work.get(("cyclic.enumerate_codes", "codes"), 0),
                "cyclic.enumerate_codes.self_s": secs("cyclic.enumerate_codes"),
                "gf.field_ctx.misses": misses,
                "gf.field_ctx.self_s": secs("gf.field_ctx")})
    key = "mstransform.naive_up_scan"
    out.update({f"{key}.words": work.get((key, "words"), 0), f"{key}.self_s": secs(key),
                f"{key}.words_per_s": per_s(key, "words")})
    key = "ramsey.szemeredi_r"
    out.update({f"{key}.calls": calls.get(key, 0), f"{key}.nodes": work.get((key, "nodes"), 0),
                f"{key}.self_s": secs(key), f"{key}.nodes_per_s": per_s(key, "nodes")})
    return out

