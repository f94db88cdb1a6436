"""Fast self-test of the benchmark at toy shapes (96x16x32 tensors).

    python3 perfbench/selftest.py        # from the root of the checkout

Runs every workload end to end, untraced and traced, through run.py, and
shows that the output checks reject an output with one element or one
record corrupted on purpose. Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import framefuse as ff  # noqa: E402
import framefuse.cli  # noqa: E402
from checks import (CheckError, check_compressed_file, check_nearest_center,  # noqa: E402
                    check_records, check_vit_sweep, sample_indices)
from inputs import SHAPES, WORK_DIR, generate, read_fvt, write_fvt  # noqa: E402

OUT = ROOT / WORK_DIR / "selftest"


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return ff.cli.main(argv)


class EndToEnd(unittest.TestCase):
    def test_every_workload_runs_and_reports_every_metric(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for w in bench["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    res = run_bench(w["name"], trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in bench[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_fails_without_the_program(self):
        empty = OUT / "empty-checkout"
        empty.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "vit-merge",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=empty, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class ChecksRejectCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        OUT.mkdir(parents=True, exist_ok=True)

    def test_vit_merge(self):
        shape = SHAPES["vit-merge"]["toy"]
        clip = ff.load_features(generate(ROOT, "vit-merge", "toy", 0) / "clip0.fvt")
        proj = ff.attn_projections(clip.dim, 0)
        qk = proj.wq @ proj.wk.T
        outs = {s: ff.compress(clip, ff.CompressConfig(
                    shape["input_frames"], shape["k"], shape["r"], "uniform", s, 0)).data
                for s in ("tavg", "fusion", "attnpool", "bsm")}
        check_vit_sweep(outs, clip.data, shape, qk)
        for strategy in outs:
            with self.subTest(strategy=strategy):
                bad = dict(outs)
                bad[strategy] = outs[strategy].copy()
                bad[strategy][5, 3, 7] += 1e-3
                with self.assertRaises(CheckError):
                    check_vit_sweep(bad, clip.data, shape, qk)
        # a merge rewritten as plain averaging must not pass as attention or matching
        for strategy in ("attnpool", "bsm"):
            with self.subTest(averaged=strategy):
                with self.assertRaises(CheckError):
                    check_vit_sweep(dict(outs, **{strategy: outs["tavg"]}), clip.data, shape, qk)
        other = ff.attn_projections(clip.dim, 1)
        with self.assertRaises(CheckError):
            check_vit_sweep(outs, clip.data, shape, other.wq @ other.wk.T)

    def test_long_select(self):
        shape = SHAPES["long-select"]["toy"]
        video_path = generate(ROOT, "long-select", "toy", 0) / "video.fvt"
        video, ts = read_fvt(video_path)
        idx = sample_indices(video.shape[0], shape["input_frames"])
        sub, sub_ts = video[idx], [ts[i] for i in idx]
        reps = sub.mean(axis=1, dtype=np.float64)
        out = OUT / "long.fvt"
        self.assertEqual(quiet_cli([
            "compress", str(video_path), "--k", str(shape["k"]), "--r", str(shape["r"]),
            "--frames", str(shape["input_frames"]), "--select", "kmeans", "--merge", "fusion",
            "--seed", "3", "-o", str(out)]), 0)
        sub_ff = ff.FrameFeatures(sub, tuple(sub_ts))
        scenes = ff.select_scenes_kmeans(sub_ff, shape["k"], shape["r"], seed=3)
        clustering = ff.kmeans(reps, shape["k"], seed=3)
        check_compressed_file(out, sub, sub_ts, scenes, shape)
        check_nearest_center(reps, clustering)

        data, out_ts = read_fvt(out)
        corrupt = data.copy()
        corrupt[2, 1, 4] += 1.0
        write_fvt(out, corrupt, out_ts)
        with self.assertRaises(CheckError):
            check_compressed_file(out, sub, sub_ts, scenes, shape)
        write_fvt(out, data, out_ts[:1] + [out_ts[0] + 0.5] + out_ts[2:])
        with self.assertRaises(CheckError):
            check_compressed_file(out, sub, sub_ts, scenes, shape)
        wrong = ff.Clustering(clustering.centers, (clustering.assignments + 1) % shape["k"],
                              clustering.inertia, clustering.iterations_run)
        with self.assertRaises(CheckError):
            check_nearest_center(reps, wrong)

    def test_caption_synth(self):
        manifest_path = generate(ROOT, "caption-synth", "toy", 0) / "clips.json"
        manifest = {c["id"]: c for c in json.loads(manifest_path.read_text())}
        records, stats = OUT / "records.json", OUT / "stats.json"
        self.assertEqual(quiet_cli(["synth", str(manifest_path), "--seed", "4", "-o", str(records)]), 0)
        self.assertEqual(quiet_cli(["synth", str(manifest_path), "--stats", "--seed", "4",
                                    "-o", str(stats)]), 0)
        check_records(records, stats, manifest)
        good = json.loads(records.read_text())

        def corrupted(edit):
            docs = json.loads(json.dumps(good))
            edit(docs)
            records.write_text(json.dumps(docs))
            with self.assertRaises(CheckError):
                check_records(records, stats, manifest)

        def shift_segment(d):
            d[1]["segments"][2]["start_s"] += 0.5

        def reuse_clip(d):
            d[1]["clip_ids"][0] = d[0]["clip_ids"][0]

        def instruction(d):
            d[0]["instruction"] = d[0]["instruction"].replace(".0,", ".1,", 1)

        def drop_record(d):
            d.pop()

        for edit in (shift_segment, reuse_clip, instruction, drop_record):
            with self.subTest(edit=edit.__name__):
                corrupted(edit)


if __name__ == "__main__":
    unittest.main()
