"""framefuse benchmark: one workload per run, each in its own fresh process.

    python3 perfbench/run.py --workload vit-merge --seed 1 --seconds 25 --trace 0

Run from the root of a framefuse checkout. Generates (or reuses) the
workload's synthetic inputs under .perfbench-work/, measures set-up in
several fresh processes, runs the workload's fixed job list in one more,
and prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# Seconds one job takes on the reference box (README); the job count of a
# run is --seconds divided by this, so a run's length follows --seconds
# while its job list stays a fixed function of (workload, seconds, seed).
NOMINAL_JOB_S = {"vit-merge": 2.0, "long-select": 1.7, "caption-synth": 0.9}
MIN_JOBS = 5
SETUP_PROBES = 4          # set-up-only processes, besides the measured one
BLAS_THREADS = 1          # fixed, not inherited; at most nproc (2 on the reference box)
CHILD_TIMEOUT_S = 170


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], env: dict) -> dict:
    """Run a worker process to its end and parse its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + argv + [
        "--t0", repr(time.perf_counter())], env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(NOMINAL_JOB_S), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; sets the job count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy runs 96x16x32 tensors (selftest.py)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "framefuse" / "__init__.py").is_file():
        print(f"error: {root} is not a framefuse checkout (no src/framefuse)", file=sys.stderr)
        return 2
    env = child_env(root)

    from inputs import WORK_DIR, input_dir
    from worker import WARMUP_JOBS, jobs_per_s
    subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
                    "--scale", args.scale, "--seed", str(args.seed)],
                   env=env, check=True, timeout=CHILD_TIMEOUT_S)
    work = root / WORK_DIR
    tag = f"{args.workload}-{args.scale}-s{args.seed}"
    jobs = max(MIN_JOBS, round(args.seconds / NOMINAL_JOB_S[args.workload]))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--inputs", str(input_dir(root, args.workload, args.scale, args.seed)),
              "--out", str(work / "out" / tag), "--scale", args.scale]

    setups: list[float] = []
    if args.trace:
        trace_path = work / f"trace-{tag}.json"
        res = run_child(common + ["--jobs", str(jobs), "--trace", str(trace_path)], env)
        from tracing import unit_of
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in res["layers"].items()}
        over = res["trace_overhead"]
        print(f"trace: {trace_path}; tracing costs {over['overhead_pct']:.1f}% of jobs_per_s "
              f"({over['traced_jobs_per_s']:.4g} traced vs {over['untraced_jobs_per_s']:.4g} "
              f"untraced, tracemalloc {'on' if over['tracemalloc'] else 'off'})", file=sys.stderr)
    else:
        setups = [run_child(common + ["--setup-only"], env)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = run_child(common + ["--jobs", str(jobs)], env)
        setups.append(res["setup_s"])
        times = res["job_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s(times), "unit": "1/s"},
            "job_p50_ms": {"value": 1e3 * statistics.median(times) if times else 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for failure in res["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not res["errors"], "attempted": res["attempted"],
              "failed": len(res["failures"]), "metrics": metrics}
    summary = dict(result, workload=args.workload, seed=args.seed, jobs=jobs,
                   warmup=WARMUP_JOBS, blas_threads=BLAS_THREADS, seconds=args.seconds,
                   setup_s_each=setups, job_ms=[t * 1e3 for t in res["job_s"]])
    (work / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
