"""uplab benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload table|bounds|transform --seed N \\
        --seconds S --trace 0|1

Closed loop, one client: the parent starts one fresh child process per
repetition (`child.py`, no threads, workers=1) and waits for it before it
starts the next, while another repetition is expected to end within S
seconds.  Cold caches in every child are deliberate: every `uplab` command
pays them.

Times are reported at a fixed reference speed of the shared machine: each
child times a small pure-Python loop between its tasks, and a time measured
while that loop took c seconds is multiplied by (CALIBRATION_REF_S / c) **
SPEED_EXPONENT (RATIONALE.md, Noise).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced children and reports the per-layer metrics of the traced ones, so the
traced run never touches the end-to-end numbers.  The last stdout line is the
JSON result; the full record (environment, calibration, every sample, the
output digest) goes to bench/results/.  See RATIONALE.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
STARTED = time.monotonic()

MIN_REPS = 3           # workload repetitions per run, even past the deadline
MIN_TRACE_REPS = 2     # untraced and traced repetitions each, with --trace 1
SETUP_SAMPLES = 15     # set-up times per run; import-only children fill up
HARD_LIMIT_S = 170     # a run must end within 180 s, whatever its children do
CALIBRATION_REF_S = 0.015  # child.calibrate() at the reference speed
# The task lists slow down more than the loop when the machine slows: in two
# sets of ten 40-second runs per workload, log(task time) rose 1.0-1.2 times as
# fast as log(loop time) across repetitions, a slope that noise in the loop
# samples biases low.  RATIONALE.md, Noise, has the spreads for 1 and 1.25.
SPEED_EXPONENT = 1.25

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "ok_frac": "frac"}


class ChildFailed(RuntimeError):
    pass


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uplab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_sha": _git_sha(),
            "src_sha256": src.hexdigest()}


def run_child(workload=None, seed=0, trace=0, spans_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py")]
    if workload is not None:
        cmd += ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, HARD_LIMIT_S - (start - STARTED)))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise ChildFailed(f"child printed no result: {lines[-1][:200]!r}") from exc
    result["setup_s"] = result["ready"] - start
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def at_reference_speed(seconds: float, calibration: list) -> float:
    """`seconds` measured while child.calibrate() took the `calibration`
    times, scaled to the speed at which it takes CALIBRATION_REF_S."""
    return seconds * (CALIBRATION_REF_S / _median(calibration)) ** SPEED_EXPONENT


def _another_fits(round_s: list, least: int, deadline: float) -> bool:
    """Below `least` rounds always; past it, only a round expected to end
    before the deadline, so that a run lasts about its set time whatever the
    length of one round."""
    return len(round_s) < least or time.monotonic() + _median(round_s) <= deadline


class Run:
    """The samples of one benchmark run and the checks across them."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.samples = []   # workload children, in start order
        self.setup = []     # set-up seconds of every child
        self.problems = []  # failed tasks and mismatches across repetitions

    def child(self, trace=0, spans_out=None) -> dict:
        res = run_child(self.workload, self.seed, trace, spans_out)
        res["trace"] = trace
        res["wall_ref_s"] = at_reference_speed(res["wall_s"], res["calibration_s"])
        self.setup.append(res["setup_s"])
        self.problems += res["failures"]
        first = self.samples[0] if self.samples else res
        if res["digest"] != first["digest"]:
            self.problems.append(f"output digest differs between repetitions (trace={trace})")
        if res["counts"] != first["counts"]:
            self.problems.append(f"work counts differ between repetitions (trace={trace})")
        self.samples.append(res)
        return res

    def top_up_setup(self) -> None:
        while len(self.setup) < SETUP_SAMPLES:
            self.setup.append(run_child()["setup_s"])

    def clean_walls(self, trace: int) -> list:
        return [s["wall_ref_s"] for s in self.samples if s["trace"] == trace and not s["failed"]]

    def calibration(self) -> list:
        return [c for s in self.samples for c in s["calibration_s"]]

    def totals(self):
        return (sum(s["attempted"] for s in self.samples),
                sum(s["failed"] for s in self.samples))


def end_to_end(run: Run, deadline: float) -> dict:
    round_s = []
    while _another_fits(round_s, MIN_REPS, deadline):
        t0 = time.monotonic()
        run.child()
        run.setup.append(run_child()["setup_s"])  # spreads set-up samples over the run
        round_s.append(time.monotonic() - t0)
    run.top_up_setup()
    attempted, failed = run.totals()
    rss = [s["rss_kib"] / 1024 for s in run.samples]
    setup = at_reference_speed(_median(run.setup), run.calibration())
    return {"wall_s": _median(run.clean_walls(0)), "setup_s": setup,
            "peak_rss_mib": _median(rss), "ok_frac": (attempted - failed) / attempted}


def per_layer(run: Run, deadline: float, spans_out: Path) -> dict:
    traced, round_s = [], []
    while _another_fits(round_s, MIN_TRACE_REPS, deadline):
        t0 = time.monotonic()
        run.child(trace=0)
        traced.append(run.child(trace=1, spans_out=spans_out))
        round_s.append(time.monotonic() - t0)
    units = metric_units()
    layers = []
    for t in traced:  # seconds and rates at the reference speed, as wall_s
        scale = at_reference_speed(1.0, t["calibration_s"])
        layers.append({name: value * scale if units[name] == "s" else
                       value / scale if units[name] == "1/s" else value
                       for name, value in t["layers"].items()})
    out = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if units[name] == "count":
            if len(set(values)) != 1:
                run.problems.append(f"per-layer count {name} differs between traced runs: {values}")
            out[name] = values[0]
        else:
            out[name] = _median(values)
    traced_wall, untraced_wall = _median(run.clean_walls(1)), _median(run.clean_walls(0))
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1 if untraced_wall else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "uplab" / "__init__.py").is_file():
        print(f"bench: no uplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    run = Run(args.workload, args.seed)
    try:
        run_child()  # writes the bytecode caches; not measured
        deadline = time.monotonic() + args.seconds
        if args.trace:
            metrics = per_layer(run, deadline, RESULTS / f"spans-{tag}.json")
            units = metric_units()
        else:
            metrics = end_to_end(run, deadline)
            units = E2E_UNITS
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if not run.clean_walls(args.trace):
        print("bench: no repetition passed its output checks", file=sys.stderr)
        for problem in run.problems[:20]:
            print(f"  {problem}", file=sys.stderr)
        return 1

    attempted, failed = run.totals()
    correct = not run.problems
    record.update({"correct": correct, "problems": run.problems,
                   "digest": run.samples[0]["digest"], "counts": run.samples[0]["counts"],
                   "samples": [{k: s[k] for k in ("trace", "wall_s", "wall_ref_s", "calibration_s",
                                                  "setup_s", "rss_kib", "attempted", "failed")}
                               for s in run.samples],
                   "setup_samples_s": run.setup, "metrics": metrics})
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in run.problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    calibration = _median(run.calibration())
    print(f"{tag}: {len(run.samples)} repetitions, digest {record['digest'][:16]}, "
          f"median calibration loop {calibration:.4f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
