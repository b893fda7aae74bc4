"""Run one workload in this fresh interpreter and print one JSON line.

Modes:
  setup    import firesim and build the workload's inputs, then stop;
  measure  set up, then run rounds untraced until --seconds have passed
           (at least MIN_ROUNDS), or exactly --rounds rounds when given;
  trace    set up, wrap the package's public functions, run --rounds rounds.

Set-up time runs from just before `import firesim` to the first timed call.
Run it as `python3 perfbench/worker.py --workload NAME --seed N --mode MODE`
from the root of a firesim checkout.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

MIN_ROUNDS = 3
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import firesim
    if not os.path.abspath(firesim.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"firesim imported from {firesim.__file__}, not this checkout")
    from workloads import WORKLOADS, derive_seed
    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        inputs = workload.setup(firesim, workdir)
        result = {"workload": workload.name, "seed": args.seed, "mode": args.mode,
                  "setup_s": time.perf_counter() - start}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(firesim)
        rounds, error = [], None
        began = time.perf_counter()
        while True:
            i = len(rounds)
            if args.rounds is not None:
                if i >= args.rounds:
                    break
            elif i >= MIN_ROUNDS and time.perf_counter() - began >= args.seconds:
                break
            seed = derive_seed(args.seed, i)
            before = tracer.snapshot() if tracer else None
            t = time.perf_counter()
            try:
                verdict = workload.round(firesim, inputs, seed)
            except Exception:   # a raising round is a failed operation: report it
                error = traceback.format_exc()
                break
            wall = time.perf_counter() - t
            row = {"index": i, "seed": seed, "wall_s": wall, "verdict": verdict.as_dict(),
                   "peak_rss_mb": _peak_rss_mb()}
            if tracer:
                after = tracer.snapshot()
                row["counts"] = {k: after[k] - before[k] for k in after}
            rounds.append(row)
            if not verdict.passed:
                break
        if tracer:
            result["layers"] = tracer.layer_metrics()
            result["spans"] = tracer.span_count
        result.update(rounds=rounds, error=error, peak_rss_mb=_peak_rss_mb(),
                      versions=_versions(firesim))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _versions(firesim) -> dict:
    import numpy
    import platform
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "firesim": firesim.__version__}


if __name__ == "__main__":
    sys.exit(main())
