"""One workload in its own fresh process, driven by run.py.

The process imports framefuse and loads the workload's inputs with the
program's own loaders (that is the set-up), runs untimed warm-up jobs, then
the timed jobs one after another (a closed loop with one client), and
checks every job's outputs between jobs with the clock stopped. It prints
one JSON object on its last stdout line.

With ``--setup-only`` it stops after set-up and reports only that time.
With ``--trace`` it runs the timed jobs twice, untraced and then traced,
and reports per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

STRATEGIES = ("tavg", "fusion", "attnpool", "bsm")
WARMUP_JOBS = 1   # untimed; the first attnpool compress of a process is 1.5x slower


def _quiet_cli(argv: list[str]) -> int:
    import framefuse.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return framefuse.cli.main(argv)


class Workload:
    track_memory = False

    def prepare(self) -> None:
        """Untimed work after set-up: what the checks need."""

    def hook(self) -> None:
        """Install result hooks that the checks need."""

    def unhook(self) -> None:
        pass


class VitMerge(Workload):
    """In-memory API: the uniform/<strategy> sweep over one ViT-scale clip."""

    track_memory = True

    def __init__(self, inputs: Path, out: Path, shape: dict, seed: int):
        self.inputs, self.shape, self.seed = inputs, shape, seed

    def setup(self, ff) -> None:
        self.ff = ff
        self.clips = [ff.load_features(p) for p in sorted(self.inputs.glob("clip*.fvt"))]

    def job(self, j: int) -> int:
        return (self.seed + j) % len(self.clips)

    def run(self, clip: int) -> dict:
        sh = self.shape
        outs = {}
        for strategy in STRATEGIES:
            cfg = self.ff.CompressConfig(sh["input_frames"], sh["k"], sh["r"],
                                         "uniform", strategy, self.seed)
            outs[strategy] = self.ff.compress(self.clips[clip], cfg).data
        return outs

    def prepare(self) -> None:
        proj = self.ff.attn_projections(self.clips[0].dim, self.seed)
        self.qk = proj.wq @ proj.wk.T

    def check(self, clip: int, outs: dict) -> None:
        from checks import check_vit_sweep
        check_vit_sweep(outs, self.clips[clip].data, self.shape, self.qk)


class LongSelect(Workload):
    """In-process CLI: kmeans/fusion then bsm/fusion compress of a long video."""

    track_memory = True

    def __init__(self, inputs: Path, out: Path, shape: dict, seed: int):
        self.path = inputs / "video.fvt"
        self.out, self.shape, self.seed = out, shape, seed
        self.captured: dict = {}

    def setup(self, ff) -> None:
        self.ff = ff
        self.video = ff.load_features(self.path)

    def prepare(self) -> None:
        """The sampled frames that the checks need."""
        import numpy as np
        from checks import sample_indices
        idx = sample_indices(self.video.n_frames, self.shape["input_frames"])
        self.sub = self.video.data[idx]
        self.sub_ts = [self.video.frame_timestamps[i] for i in idx]
        self.reps = self.sub.mean(axis=1, dtype=np.float64)
        del self.video

    def hook(self) -> None:
        """Keep the scene sets and the clustering each compress computes, so
        that the checks can test them against the output."""
        self._hooked = []
        for module, name in ((self.ff.pipeline, "select_scenes_kmeans"),
                             (self.ff.pipeline, "select_scenes_bsm"),
                             (self.ff.select, "kmeans")):
            fn = getattr(module, name)
            self._hooked.append((module, name, fn))
            setattr(module, name, self._keep(name, fn))

    def unhook(self) -> None:
        for module, name, fn in self._hooked:
            setattr(module, name, fn)

    def _keep(self, name, fn):
        def wrapper(*args, **kwargs):
            self.captured[name] = result = fn(*args, **kwargs)
            return result
        return wrapper

    def job(self, j: int) -> int:
        return self.seed * 1000 + j

    def run(self, kmeans_seed: int) -> dict:
        sh = self.shape
        self.captured.clear()
        outs = {}
        for select in ("kmeans", "bsm"):
            path = self.out / f"long-{select}.fvt"
            code = _quiet_cli([
                "compress", str(self.path), "--k", str(sh["k"]), "--r", str(sh["r"]),
                "--frames", str(sh["input_frames"]), "--select", select,
                "--merge", "fusion", "--seed", str(kmeans_seed), "-o", str(path)])
            if code != 0:
                raise RuntimeError(f"compress --select {select} exited with {code}")
            outs[select] = path
        return {"files": outs, **self.captured}

    def check(self, kmeans_seed: int, outs: dict) -> None:
        from checks import check_compressed_file, check_nearest_center
        check_nearest_center(self.reps, outs["kmeans"])
        for select in ("kmeans", "bsm"):
            check_compressed_file(outs["files"][select], self.sub, self.sub_ts,
                                  outs[f"select_scenes_{select}"], self.shape)


class CaptionSynth(Workload):
    """In-process CLI: synth, then synth --stats, each job with its own seed."""

    def __init__(self, inputs: Path, out: Path, shape: dict, seed: int):
        self.path = inputs / "clips.json"
        self.out, self.seed = out, seed

    def setup(self, ff) -> None:
        self.pool = ff.load_clip_manifest(self.path)

    def prepare(self) -> None:
        """Each job's CLI call loads its own pool; the checks read the
        manifest with the benchmark's own JSON parse."""
        del self.pool
        self.manifest = {c["id"]: c for c in json.loads(self.path.read_text())}

    def job(self, j: int) -> int:
        return self.seed * 1000 + j

    def run(self, synth_seed: int) -> dict:
        outs = {"records": self.out / "records.json", "stats": self.out / "stats.json"}
        for extra, path in (([], outs["records"]), (["--stats"], outs["stats"])):
            code = _quiet_cli(["synth", str(self.path), "--seed", str(synth_seed),
                               "-o", str(path)] + extra)
            if code != 0:
                raise RuntimeError(f"synth {' '.join(extra)} exited with {code}")
        return outs

    def check(self, synth_seed: int, outs: dict) -> None:
        from checks import check_records
        check_records(outs["records"], outs["stats"], self.manifest)


WORKLOADS = {"vit-merge": VitMerge, "long-select": LongSelect, "caption-synth": CaptionSynth}


def jobs_per_s(times: list[float]) -> float:
    """Jobs completed per second of the timed phase (checks excluded)."""
    return len(times) / sum(times) if times else 0.0


def run_jobs(workload, jobs: list[int], tracer=None) -> dict:
    """Run and check each job; the clock runs only while a job runs."""
    times, errors, failures = [], [], []
    for j, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = j
        try:
            start = time.perf_counter()
            outs = workload.run(job)
            times.append(time.perf_counter() - start)
        except Exception:
            failures.append(f"job {job}: {traceback.format_exc(limit=3)}")
            continue
        try:
            workload.check(job, outs)
        except Exception as exc:  # a wrong output, not a failed operation
            errors.append(f"job {job}: {type(exc).__name__}: {exc}")
        del outs
    return {"times": times, "failures": failures, "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", choices=("full", "toy"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter() of the parent just before it started this process")
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path, help="write spans here and report per-layer figures")
    args = parser.parse_args(argv)

    from inputs import SHAPES
    shape = SHAPES[args.workload][args.scale]
    workload = WORKLOADS[args.workload](args.inputs, args.out, shape, args.seed)
    import framefuse
    workload.setup(framefuse)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    workload.prepare()
    workload.hook()
    jobs = [workload.job(j) for j in range(WARMUP_JOBS + args.jobs)]
    warm = run_jobs(workload, jobs[:WARMUP_JOBS])
    timed = run_jobs(workload, jobs[WARMUP_JOBS:])
    result = {
        "setup_s": setup_s,
        "job_s": timed["times"],
        "attempted": args.jobs,
        "failures": timed["failures"],
        "errors": warm["errors"] + warm["failures"] + timed["errors"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(track_memory=workload.track_memory)
        workload.unhook()
        tracer.install()
        workload.hook()
        traced = run_jobs(workload, jobs[WARMUP_JOBS:], tracer)
        tracer.job = "setup"  # the set-up loads too, which vit-merge does only there
        workload.setup(framefuse)
        untraced_jps, traced_jps = jobs_per_s(timed["times"]), jobs_per_s(traced["times"])
        result["errors"] += traced["errors"]
        result["failures"] += traced["failures"]
        result["attempted"] += args.jobs
        result["layers"] = tracer.layer_metrics()
        result["trace_overhead"] = {
            "untraced_jobs_per_s": untraced_jps, "traced_jobs_per_s": traced_jps,
            "overhead_pct": 100.0 * (1.0 - traced_jps / untraced_jps) if untraced_jps else None,
            "tracemalloc": workload.track_memory}
        tracer.dump(args.trace, {"workload": args.workload, "seed": args.seed,
                                 "layers": result["layers"],
                                 "trace_overhead": result["trace_overhead"],
                                 "job_ms_untraced": [t * 1e3 for t in timed["times"]],
                                 "job_ms_traced": [t * 1e3 for t in traced["times"]]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
