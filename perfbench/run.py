"""firesim benchmark: one workload per invocation, each in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a firesim checkout.  With `--trace 0` it samples the
set-up time in SETUP_SAMPLES extra fresh interpreters, then runs the
workload untraced for S seconds and prints the end-to-end metrics.  With
`--trace 1` it runs a workload's `trace_rounds` rounds untraced and the same rounds traced,
prints the per-layer metrics and the tracing overhead, and repeats round 0
traced in a third process to check that the exact counts and output digests
repeat.  Detail (provenance, per-round verdicts and digests, failures by
reason) is printed as one JSON line before the result, which is the last
line of standard output.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 2        # extra set-up-only interpreters per untraced run
TIME_LIMIT_S = 170.0     # the whole invocation must end within this

END_TO_END = {"setup_s": "s", "wall_s": "s", "reps_per_s": "1/s",
              "peak_rss_mb": "MB", "completed_share": "ratio"}
PER_LAYER = {
    "rng.calls": "count", "rng.draws": "count", "rng.self_s": "s", "rng.draws_per_s": "1/s",
    "model.calls": "count", "model.self_s": "s", "model.cells_generated": "count",
    "green.calls": "count", "green.self_s": "s",
    "fire.calls": "count", "fire.self_s": "s", "fire.sites_materialised": "count",
    "fire.draws": "count", "fire.builds_per_run": "ratio", "fire.replay_s": "s",
    "fire.burn_events": "count", "fire.censored_reaches": "count",
    "fire.span_p50_ms": "ms", "fire.span_max_ms": "ms",
    "analytic.calls": "count", "analytic.self_s": "s",
    "experiments.calls": "count", "experiments.self_s": "s",
    "experiments.reps_attempted": "count", "experiments.reps_failed": "count",
    "experiments.failed_cap_exceeded": "count",
    "experiments.failed_incomplete_trace": "count",
    "experiments.failed_doubly_censored": "count", "experiments.nan_rows": "count",
    "cli.calls": "count", "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, workdir: str, deadline: float, *,
          seconds: float = 0.0, rounds: int | None = None, hash_seed: str = "0") -> dict:
    """Run perfbench/worker.py in a fresh interpreter and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--workdir", workdir]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int, workload) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = out.stdout.strip() or None
    src = os.path.join(ROOT, "src", "firesim")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "source_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "seed": seed, "sizes": workload.sizes}


def failure_totals(rounds: list[dict]) -> tuple[int, int, dict]:
    attempted = sum(r["verdict"]["attempted"] for r in rounds)
    by_estimator: dict[str, int] = {}
    for r in rounds:
        for key, n in r["verdict"]["failed"].items():
            by_estimator[key] = by_estimator.get(key, 0) + n
    return attempted, sum(by_estimator.values()), by_estimator


def round_problems(result: dict) -> tuple[int, int, list[str]]:
    """(rounds attempted, rounds failed, problems) of one worker: a round
    fails when it raises or any of its gates fails."""
    problems = []
    for r in result["rounds"]:
        failed = [g for g, ok in r["verdict"]["gates"].items() if not ok]
        if failed:
            problems.append(f"round {r['index']} failed gates {failed}")
    if result.get("error"):
        problems.append(f"round {len(result['rounds'])} raised:\n{result['error']}")
    return len(result["rounds"]) + bool(result.get("error")), len(problems), problems


def untraced(workload, seed: int, seconds: float, workdir: str, deadline: float):
    setups = [spawn(workload.name, seed, "setup", workdir, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    res = spawn(workload.name, seed, "measure", workdir, deadline, seconds=seconds)
    setups.append(res["setup_s"])
    rounds = res["rounds"]
    ops, ops_failed, problems = round_problems(res)
    if not rounds:
        raise BenchError("no round completed:\n" + "\n".join(problems))
    wall = statistics.median(r["wall_s"] for r in rounds)
    attempted, failed, by_estimator = failure_totals(rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "reps_per_s": rounds[0]["verdict"]["reps_requested"] / wall,
        # through set-up and the first round: the whole run's peak is a maximum
        # over rare window and horizon doublings and varies too much by seed
        "peak_rss_mb": rounds[0]["peak_rss_mb"],
        "completed_share": 1.0 - failed / attempted,
    }
    walls = sorted(r["wall_s"] for r in rounds)
    detail = {
        "rounds": len(rounds), "round_wall_s": [r["wall_s"] for r in rounds],
        "round_wall_max_s": walls[-1], "setup_samples_s": setups,
        "run_peak_rss_mb": res["peak_rss_mb"],
        # the highest percentile with ten rounds beyond it, when there is one
        "round_wall_tail": {"percentile": 1 - 10 / len(walls), "wall_s": walls[-11]}
        if len(walls) > 10 else None,
        "failed_share": failed / attempted, "reps_attempted": attempted,
        "reps_failed_by_estimator": by_estimator,
        "nan_rows": sum(r["verdict"]["nan_rows"] for r in rounds),
        "first_stage_misses": [m for r in rounds for m in r["verdict"]["first_stage_misses"]],
        "digests": {r["seed"]: r["verdict"]["digests"] for r in rounds},
        "versions": res["versions"],
    }
    return metrics, detail, (ops, ops_failed), problems


def traced(workload, seed: int, workdir: str, deadline: float):
    n = workload.trace_rounds
    base = spawn(workload.name, seed, "measure", workdir, deadline, rounds=n)
    tr = spawn(workload.name, seed, "trace", workdir, deadline, rounds=n)
    again = spawn(workload.name, seed, "trace", workdir, deadline, rounds=1, hash_seed="1")
    ops, ops_failed, problems = 0, 0, []
    for res in (base, tr, again):
        done, bad, found = round_problems(res)
        ops, ops_failed, problems = ops + done, ops_failed + bad, problems + found
    if len(tr["rounds"]) != n or len(base["rounds"]) != n:
        raise BenchError("traced rounds did not complete:\n" + "\n".join(problems))

    # tracing must not change any output, and a second process must repeat
    # round 0's outputs and every exact count
    for a, b in zip(base["rounds"], tr["rounds"]):
        if a["verdict"]["digests"] != b["verdict"]["digests"]:
            problems.append(f"round {a['index']}: traced outputs differ from untraced")
    r0, r0_again = tr["rounds"][0], again["rounds"][0]
    if r0["verdict"]["digests"] != r0_again["verdict"]["digests"]:
        problems.append("round 0 outputs differ between two traced processes")
    count_diff = {k: (r0["counts"][k], r0_again["counts"][k]) for k in r0["counts"]
                  if r0["counts"][k] != r0_again["counts"][k]}
    if count_diff:
        problems.append(f"exact counts differ between runs at one seed: {count_diff}")

    counts = {k: sum(r["counts"][k] for r in tr["rounds"]) for k in tr["rounds"][0]["counts"]}
    attempted, failed, by_estimator = failure_totals(tr["rounds"])
    cycles_per_rep = workload.sizes.get("lemma1_cycles_per_rep", 0)
    by_reason = {
        "cap_exceeded": counts["fail.cap_exceeded"]
        + cycles_per_rep * counts["fail.cap_exceeded_lemma1"],
        "incomplete_trace": counts["fail.incomplete_trace"],
        "doubly_censored": counts["fail.doubly_censored"],
    }
    # failures the program reported must be exactly those seen by reason,
    # except in rounds where a statistical gate re-ran on a confirming seed
    confirmed = any(r["verdict"]["first_stage_misses"] for r in tr["rounds"])
    if not confirmed and sum(by_reason.values()) != failed:
        problems.append(f"failures by reason {by_reason} do not add up to the "
                        f"{failed} the estimators reported ({by_estimator})")
    layers = tr["layers"]
    base_wall = sum(r["wall_s"] for r in base["rounds"])
    metrics = {
        **{k: layers[k] for k in PER_LAYER if k in layers},
        "rng.draws": counts["rng.draws"],
        "model.cells_generated": counts["model.cells_generated"],
        "fire.sites_materialised": counts["fire.sites_materialised"],
        "fire.draws": counts["fire.draws"],
        "fire.burn_events": counts["fire.burn_events"],
        "fire.censored_reaches": counts["fire.censored_reaches"],
        "experiments.reps_attempted": attempted,
        "experiments.reps_failed": failed,
        "experiments.failed_cap_exceeded": by_reason["cap_exceeded"],
        "experiments.failed_incomplete_trace": by_reason["incomplete_trace"],
        "experiments.failed_doubly_censored": by_reason["doubly_censored"],
        "experiments.nan_rows": sum(r["verdict"]["nan_rows"] for r in tr["rounds"]),
        "trace.overhead_share": sum(r["wall_s"] for r in tr["rounds"]) / base_wall - 1.0,
    }
    detail = {
        "rounds": n, "spans": tr["spans"],
        "untraced_round_wall_s": [r["wall_s"] for r in base["rounds"]],
        "traced_round_wall_s": [r["wall_s"] for r in tr["rounds"]],
        "exact_counts_round0": r0["counts"],
        "failed_share_by_reason": {k: c / attempted for k, c in by_reason.items()},
        "digests": {r["seed"]: r["verdict"]["digests"] for r in tr["rounds"]},
        "versions": tr["versions"],
    }
    return metrics, detail, (ops, ops_failed), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "firesim", "__init__.py")):
        print(f"no firesim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_parent, exist_ok=True)
    work_root = tempfile.mkdtemp(dir=work_parent)
    try:
        if args.trace:
            metrics, detail, ops, problems = traced(workload, args.seed, work_root, deadline)
            units = PER_LAYER
        else:
            metrics, detail, ops, problems = untraced(workload, args.seed, args.seconds,
                                                      work_root, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            os.rmdir(work_parent)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {detail['rounds']}")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")
    if "failed_share" in detail:
        print(f"  {'failed_share':<36} {detail['failed_share']:>16.6g} ratio")
    for p in problems:
        print(f"  PROBLEM: {p}")
    detail["provenance"] = provenance(args.seed, workload)
    detail["problems"] = problems
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems, "attempted": ops[0], "failed": ops[1],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
