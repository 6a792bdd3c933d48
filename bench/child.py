"""One repetition of a benchmark workload, in a fresh process started by run.py.

Prints one JSON object on stdout.  `ready` is the monotonic clock right
after `import uplab`; run.py subtracts its own clock reading from just
before the start to get the set-up time.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import uplab  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


CALIBRATION_N = 100_000
CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that does not touch `uplab`.

    It is timed before the first task, after the last, and between tasks at
    most every CALIBRATE_EVERY_S, so its samples follow the shared machine's
    speed through the repetition; run.py scales the task time by them.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _field_ctx_misses(field_ctx) -> int:
    info = getattr(field_ctx, "cache_info", None)
    return info().misses if info is not None else 0


def run_workload(name: str, seed: int, tracer) -> dict:
    # the unwrapped function: it keeps the lru_cache statistics
    field_ctx = getattr(uplab.gf, "field_ctx", None)
    if tracer is not None:
        spans.install(tracer)
    order = workloads.ordered_tasks(name, seed)
    outputs, counts, failures = {}, {}, []
    calibration = [calibrate()]
    calibrated = wall = 0.0
    for task_id, run in order:
        t0 = time.perf_counter()
        try:
            out, task_counts = run(uplab, workloads.task_rng(seed, task_id))
        except workloads.CheckFailed as exc:
            failures.append(f"{task_id}: {exc}")
            out = task_counts = None
        except Exception:  # a task that raises counts as failed; the others still run
            failures.append(f"{task_id}: {traceback.format_exc(limit=-1).strip()}")
            out = task_counts = None
        wall += time.perf_counter() - t0
        if wall - calibrated >= CALIBRATE_EVERY_S:
            calibration.append(calibrate())
            calibrated = wall
        if task_counts is None:
            continue
        outputs[task_id] = out
        for key, value in task_counts.items():
            counts[key] = counts.get(key, 0) + value
    calibration.append(calibrate())
    counts["field_ctx_misses"] = _field_ctx_misses(field_ctx)
    blob = json.dumps(sorted(outputs.items()), sort_keys=True, separators=(",", ":"))
    return {"wall_s": wall, "calibration_s": calibration, "attempted": len(order),
            "failed": len(failures), "failures": failures,
            "digest": hashlib.sha256(blob.encode()).hexdigest(), "counts": counts}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="file for the raw spans of a traced run")
    args = ap.parse_args()
    result = {"ready": READY}
    if args.workload is not None:
        tracer = spans.Tracer() if args.trace else None
        result.update(run_workload(args.workload, args.seed, tracer))
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer.spans,
                                                   result["counts"]["field_ctx_misses"])
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump(tracer.dump(), fh)
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
