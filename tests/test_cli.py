"""CLI tests: subcommands, exit codes, determinism, output schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference
from framefuse import CompressConfig, ParameterError, compress, load_features
import framefuse.cli as cli
from framefuse.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_args(path, frames=48, seed=7):
    return [
        "gen", "--frames", str(frames), "--patches", "8", "--dim", "16",
        "--scenes", "4", "--seed", str(seed), "-o", str(path),
    ]


def test_gen_writes_loadable_tensor(tmp_path, capsys):
    out = tmp_path / "f.fvt"
    code, stdout, _ = run(gen_args(out, frames=96), capsys)
    assert code == 0
    assert "96x8x16" in stdout
    f = load_features(out)
    assert (f.n_frames, f.n_patches, f.dim) == (96, 8, 16)


def test_gen_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "-o", str(tmp_path / "f.fvt")])
    assert exc.value.code == 2


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.fvt", tmp_path / "b.fvt"
    assert run(gen_args(a), capsys)[0] == 0
    assert run(gen_args(b), capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_select_kmeans_json_schema(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=96), capsys)
    out = tmp_path / "scenes.json"
    code, _, _ = run(["select", str(src), "--method", "kmeans", "--k", "8",
                      "--r", "3", "-o", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 8 and doc["r"] == 3
    assert len(doc["scenes"]) == 8
    assert all(len(s["members"]) == 4 for s in doc["scenes"])


def test_select_bsm_same_retained_count(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=96), capsys)
    counts = {}
    for method in ("kmeans", "bsm"):
        code, stdout, _ = run(["select", str(src), "--method", method,
                               "--k", "8", "--r", "3"], capsys)
        assert code == 0
        doc = json.loads(stdout)
        counts[method] = sum(len(s["members"]) for s in doc["scenes"])
    assert counts["kmeans"] == counts["bsm"] == 32


def test_select_table_format(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=24), capsys)
    code, stdout, _ = run(["select", str(src), "--k", "4", "--r", "1",
                           "--format", "table"], capsys)
    assert code == 0
    assert stdout.splitlines()[0].startswith("scene")


def test_select_infeasible_exits_1(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=10), capsys)
    code, _, stderr = run(["select", str(src), "--k", "4", "--r", "3"], capsys)
    assert code == 1
    assert "cannot form" in stderr


def test_compress_96_to_32(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=96), capsys)
    out = tmp_path / "c.fvt"
    code, _, _ = run(["compress", str(src), "--k", "32", "--r", "2",
                      "--merge", "fusion", "-o", str(out)], capsys)
    assert code == 0
    f = load_features(out)
    assert f.n_frames == 32


def test_compress_tavg_equals_fusion_at_init(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=48), capsys)
    a, b = tmp_path / "a.fvt", tmp_path / "b.fvt"
    run(["compress", str(src), "--k", "16", "--r", "2", "--merge", "tavg",
         "-o", str(a)], capsys)
    run(["compress", str(src), "--k", "16", "--r", "2", "--merge", "fusion",
         "-o", str(b)], capsys)
    fa, fb = load_features(a), load_features(b)
    assert np.max(np.abs(fa.data.astype(np.float64) - fb.data.astype(np.float64))) <= 1e-6


def test_compress_bad_merge_name_exits_2(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src), capsys)
    with pytest.raises(SystemExit) as exc:
        main(["compress", str(src), "--k", "4", "--r", "2",
              "--merge", "maxpool", "-o", str(tmp_path / "x.fvt")])
    assert exc.value.code == 2


def test_compress_uses_a_fusion_weights_file(tmp_path, capsys):
    src, weights = tmp_path / "f.fvt", tmp_path / "w.fvt"
    run(gen_args(src, frames=24), capsys)
    run(["gen", "--frames", "3", "--patches", "8", "--dim", "16", "--scenes", "1",
         "--seed", "5", "-o", str(weights)], capsys)
    out = tmp_path / "c.fvt"
    argv = ["compress", str(src), "--k", "8", "--r", "2", "--merge", "fusion", "-o", str(out)]
    assert run(argv + ["--weights", str(weights)], capsys)[0] == 0
    w = load_features(weights).data.astype(np.float64)
    want = compress(load_features(src), CompressConfig(24, 8, 2, merging="fusion"), w)
    assert load_features(out).data.tobytes() == want.data.tobytes()
    # a weights file of the wrong shape is rejected, not ignored
    code, stdout, stderr = run(argv[:-1] + [str(tmp_path / "bad.fvt"), "--weights", str(src)],
                               capsys)
    assert (code, stdout) == (1, "")
    assert stderr == "error: weights shape (24, 8, 16) does not match scene shape (3, 8, 16)\n"
    assert not (tmp_path / "bad.fvt").exists()


@pytest.mark.parametrize("merge", ["tavg", "attnpool", "bsm"])
def test_compress_weights_without_fusion_exit_2_before_reading(tmp_path, capsys, merge):
    # neither file exists: the flags are rejected before any file is read
    out = tmp_path / "c.fvt"
    extra = [] if merge == "tavg" else ["--merge", merge]
    code, stdout, stderr = run(["compress", str(tmp_path / "missing.fvt"), "--k", "8", "--r",
                                "2", *extra, "--weights", str(tmp_path / "w.fvt"),
                                "-o", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == f"usage error: --merge {merge} does not use --weights\n"
    assert not out.exists()


# No frame too small for threads, so that at one BLAS thread every compress
# merges on as many workers as there are CPUs (one, and no thread, on a
# 1-CPU box); the first line names that count. The probe runs at two unit
# sizes: at 4 KiB every stage cuts units of one scene or at most two frames
# of both files; at 128 KiB large.fvt's 36 KiB frames are read three a unit
# and still merged a scene a unit. Its third argument is the BLAS threads the
# variables set, or "set": then it sets one through OpenBLAS's own setter.
_BLAS_PROBE = """
import contextlib, hashlib, io, sys
from framefuse import merge, parallel
from framefuse.cli import main
if sys.argv[3] == "set":
    parallel._blas_set(1)
parallel.UNIT_BYTES, merge.THREAD_MIN_FRAME_BYTES = int(sys.argv[2]), 0
print("workers", parallel._workers(8))
out = sys.argv[1] + "/c.fvt"
for path, frames in (("small.fvt", "48"), ("large.fvt", "96")):
    for select in ("uniform", "kmeans", "bsm"):
        for merge in ("tavg", "fusion", "attnpool", "bsm"):
            sample = [] if select == "uniform" else ["--frames", frames]
            argv = ["compress", sys.argv[1] + "/" + path, "--k", "8", "--r", "2",
                    "--select", select, "--merge", merge, "--seed", "3", *sample, "-o", out]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            print(path, select, merge, hashlib.sha256(open(out, "rb").read()).hexdigest())
"""


def test_compress_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    for name, shape in (("small.fvt", ("96", "16", "32")), ("large.fvt", ("120", "36", "256"))):
        frames, patches, dim = shape
        assert run(["gen", "--frames", frames, "--patches", patches, "--dim", dim,
                    "--seed", "11", "-o", str(tmp_path / name)], capsys)[0] == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    digests = []
    # one BLAS thread by the variables, two, and one set at run time with no
    # variable set
    for threads in ("1", "2", "set"):
        env = {var: value for var, value in os.environ.items()
               if var not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads != "set":
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        for unit_bytes in (2**12, 2**17):
            proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(tmp_path),
                                   str(unit_bytes), threads], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            workers, *lines = proc.stdout.splitlines()
            assert workers == f"workers {1 if threads == '2' else min(8, cpus)}"
            digests.append(lines)
    assert len(digests) == 6 and len(digests[0]) == 24
    assert all(lines == digests[0] for lines in digests)


def test_compress_deterministic(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=48), capsys)
    a, b = tmp_path / "a.fvt", tmp_path / "b.fvt"
    argv = ["compress", str(src), "--k", "6", "--r", "1", "--select", "kmeans",
            "--merge", "attnpool", "--frames", "48", "--seed", "3"]
    run(argv + ["-o", str(a)], capsys)
    run(argv + ["-o", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_bench_from_config_file(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=48), capsys)
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps([
        {"input_frames": 48, "scenes_k": 8, "supplements_r": 1,
         "selection": "kmeans", "merging": "tavg", "seed": 1},
        {"input_frames": 16, "scenes_k": 8, "supplements_r": 1},
    ]))
    out = tmp_path / "report.json"
    code, _, _ = run(["bench", str(src), "--configs", str(configs),
                      "-o", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report) == 2
    for entry in report:
        assert set(entry) == {"config", "out_frames", "wall_ms", "recon_mse"}
        assert entry["out_frames"] == 8


def test_bench_empty_config_list_exits_2(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src), capsys)
    configs = tmp_path / "configs.json"
    configs.write_text("[]")
    code, _, stderr = run(["bench", str(src), "--configs", str(configs)], capsys)
    assert code == 2
    assert "empty" in stderr


def test_bench_rejects_unknown_config_keys_exits_1(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=96), capsys)
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps([
        {"merge": "bsm", "selction": "kmeans", "input_frames": 96.9,
         "scenes_k": 32, "supplements_r": 2},
    ]))
    code, stdout, stderr = run(["bench", str(src), "--configs", str(configs)], capsys)
    assert code == 1
    assert stdout == ""
    assert "selction" in stderr


def test_bench_table_format(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=48), capsys)
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps([
        {"input_frames": 12, "scenes_k": 4, "supplements_r": 2},
    ]))
    code, stdout, _ = run(["bench", str(src), "--configs", str(configs),
                           "--format", "table"], capsys)
    assert code == 0
    assert "recon_mse" in stdout.splitlines()[0]


def write_manifest(path, n=40, duration=60.0):
    path.write_text(json.dumps([
        {"id": f"c{i}", "duration": duration, "caption": f"scene text {i}"}
        for i in range(n)
    ]))


def test_synth_records_within_window(tmp_path, capsys):
    manifest = tmp_path / "clips.json"
    write_manifest(manifest)
    out = tmp_path / "records.json"
    code, _, _ = run(["synth", str(manifest), "-o", str(out)], capsys)
    assert code == 0
    records = json.loads(out.read_text())
    assert records
    for rec in records:
        assert 300 <= rec["total_duration_s"] <= 1800
        assert rec["instruction"].startswith("This video samples 32 frames")


def test_synth_stats_counts_match(tmp_path, capsys):
    manifest = tmp_path / "clips.json"
    write_manifest(manifest, n=80)
    code, stdout, _ = run(["synth", str(manifest), "--stats"], capsys)
    assert code == 0
    stats = json.loads(stdout)
    assert sum(b["count"] for b in stats["duration_hist"]) == stats["count"]


def test_synth_malformed_manifest_exits_1(tmp_path, capsys):
    manifest = tmp_path / "bad.json"
    manifest.write_text('[{"id": "a", }]')
    code, _, stderr = run(["synth", str(manifest)], capsys)
    assert code == 1
    assert "byte offset" in stderr


def test_json_inputs_are_read_as_utf8_whatever_the_locale(tmp_path, capsys):
    manifest = tmp_path / "clips.json"
    manifest.write_bytes(json.dumps([{"id": "a", "duration": 400.0, "caption": "café"}],
                                    ensure_ascii=False).encode())
    expected = tmp_path / "expected.json"
    assert run(["synth", str(manifest), "-o", str(expected)], capsys)[0] == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    # an ASCII locale, with neither locale coercion nor UTF-8 mode to rescue it
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "records.json"
    proc = subprocess.run([sys.executable, "-m", "framefuse.cli", "synth", str(manifest),
                           "-o", str(out)], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == expected.read_bytes()


def test_outputs_follow_the_umask(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_manifest(Path("clips.json"))
    Path("configs.json").write_text(json.dumps([{"input_frames": 12, "scenes_k": 4,
                                                 "supplements_r": 2}]))
    old = os.umask(0o027)
    try:
        for argv in (gen_args("f.fvt"),
                     ["compress", "f.fvt", "--k", "4", "--r", "1", "-o", "c.fvt"],
                     ["select", "f.fvt", "--k", "4", "--r", "1", "-o", "s.json"],
                     ["bench", "f.fvt", "--configs", "configs.json", "-o", "b.json"],
                     ["synth", "clips.json", "-o", "r.json"]):
            assert run(argv, capsys)[0] == 0, argv
    finally:
        os.umask(old)
    outputs = {"f.fvt", "c.fvt", "s.json", "b.json", "r.json"}
    assert outputs <= {p.name for p in tmp_path.iterdir()}
    for name in sorted(outputs):
        assert oct((tmp_path / name).stat().st_mode & 0o777) == oct(0o640), name


def test_synth_deterministic(tmp_path, capsys):
    manifest = tmp_path / "clips.json"
    write_manifest(manifest, n=60, duration=47.0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["synth", str(manifest), "--seed", "5", "-o", str(a)], capsys)
    run(["synth", str(manifest), "--seed", "5", "-o", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_json_outputs_strictly_parseable(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=24), capsys)
    code, stdout, _ = run(["select", str(src), "--k", "4", "--r", "1"], capsys)
    assert code == 0
    json.loads(stdout)  # strict parser


def test_console_entry_point_subprocess(tmp_path):
    out = tmp_path / "f.fvt"
    proc = subprocess.run(
        [sys.executable, "-m", "framefuse.cli", "gen", "--frames", "12",
         "--patches", "2", "--dim", "4", "-o", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert load_features(out).n_frames == 12


def test_main_builds_its_parser_once_and_answers_as_separate_processes(tmp_path, capsys,
                                                                       monkeypatch):
    # compress, synth, compress in one process give what each gives in a
    # process of its own: exit codes, stdout, stderr and output bytes
    assert run(gen_args(tmp_path / "f.fvt", frames=48), capsys)[0] == 0
    write_manifest(tmp_path / "clips.json")
    calls = [
        ["compress", "../f.fvt", "--k", "6", "--r", "1", "--merge", "bsm", "-o", "a.fvt"],
        ["synth", "../clips.json", "-o", "records.json"],
        ["compress", "../f.fvt", "--k", "4", "--r", "2", "--select", "kmeans",
         "--merge", "attnpool", "--frames", "24", "-o", "b.fvt"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    apart, together = tmp_path / "apart", tmp_path / "together"
    apart.mkdir()
    together.mkdir()
    want = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "framefuse.cli", *argv], cwd=apart,
                              env=env, capture_output=True, text=True, timeout=120)
        want.append((proc.returncode, proc.stdout, proc.stderr))
    monkeypatch.chdir(together)
    cli.build_parser.cache_clear()
    assert [run(argv, capsys) for argv in calls] == want
    assert want[0][0] == 0 and "packed 40 clips" in want[1][2]
    assert cli.build_parser.cache_info().misses == 1
    for name in ("a.fvt", "records.json", "b.fvt"):
        assert (together / name).read_bytes() == (apart / name).read_bytes(), name


def test_missing_input_file_exits_1(tmp_path, capsys):
    code, _, stderr = run(["select", str(tmp_path / "missing.fvt"),
                           "--k", "2", "--r", "1"], capsys)
    assert code == 1
    assert "error" in stderr


def _synth_oracle(manifest, seed):
    pool = reference.clip_pool(json.loads(manifest.read_text()))
    return json.dumps(reference.pack_clips(pool, seed=seed), indent=2, sort_keys=True) + "\n"


def test_synth_records_equal_json_dumps_oracle(tmp_path, capsys):
    manifest = tmp_path / "clips.json"
    manifest.write_text(json.dumps([
        {"id": f'c"{i}\\é', "duration": 20 + 1 / 3 + i,
         "caption": f"scene\n{i}\t\x00 😀 \ud800 \"quoted\""}
        for i in range(90)
    ]))
    out = tmp_path / "records.json"
    code, _, _ = run(["synth", str(manifest), "--seed", "3", "-o", str(out)], capsys)
    assert code == 0
    expected = _synth_oracle(manifest, 3)
    assert json.loads(expected)
    assert out.read_bytes() == expected.encode()
    code, stdout, _ = run(["synth", str(manifest), "--seed", "3"], capsys)
    assert code == 0
    assert stdout == expected


def test_synth_empty_records_are_an_empty_array(tmp_path, capsys):
    manifest = tmp_path / "clips.json"
    write_manifest(manifest, n=2)
    code, stdout, _ = run(["synth", str(manifest)], capsys)
    assert code == 0
    assert stdout == "[]\n" == _synth_oracle(manifest, 0)


def test_synth_records_skip_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    # json.dumps with indent falls back to json.encoder._make_iterencode;
    # synth's records must not, whatever their size
    manifest = tmp_path / "clips.json"
    write_manifest(manifest, n=60, duration=47.0)
    expected = _synth_oracle(manifest, 0)

    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("synth reached json's pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    out = tmp_path / "records.json"
    code, _, stderr = run(["synth", str(manifest), "-o", str(out)], capsys)
    assert code == 0, stderr
    assert out.read_text() == expected


def test_synth_rejects_manifest_it_used_to_coerce(tmp_path, capsys):
    manifest = tmp_path / "clips.json"
    manifest.write_text('[{"id": "1", "duration": 60.0, "caption": "x"},'
                        ' {"id": "1", "duration": 60.0, "caption": "y"}]')
    code, stdout, stderr = run(["synth", str(manifest)], capsys)
    assert code == 1
    assert "entries 0 and 1 share the id '1'" in stderr
    assert stdout == ""


# -- compress reads only its sample -------------------------------------------

def test_compress_of_a_long_file_holds_its_sample_not_the_file(tmp_path, capsys):
    _assert_compress_holds_its_sample(tmp_path, capsys)


@pytest.mark.parametrize("workers", [2, 3])
def test_compress_of_a_long_file_on_several_workers_holds_its_sample_not_the_file(
        tmp_path, capsys, set_workers, workers):
    set_workers(workers)
    _assert_compress_holds_its_sample(tmp_path, capsys)


def _assert_compress_holds_its_sample(tmp_path, capsys):
    import tracemalloc

    from framefuse import FrameFeatures, save_features
    from framefuse.parallel import UNIT_BYTES

    n_frames, n_patches, dim, sample = 3000, 16, 256, 96
    data = np.random.default_rng(9).standard_normal((n_frames, n_patches, dim), dtype=np.float32)
    src = tmp_path / "long.fvt"
    save_features(FrameFeatures(data, tuple(float(i) for i in range(n_frames))), src)
    del data
    out = tmp_path / "c.fvt"
    tracemalloc.start()
    try:
        code = main(["compress", str(src), "--k", "32", "--r", "2", "--frames", str(sample),
                     "--select", "kmeans", "--merge", "fusion", "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    sampled = sample * n_patches * dim * 4
    bound = sampled + UNIT_BYTES + 4 * 2**20
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
    # loading the whole file would break the bound several times over
    assert n_frames * n_patches * dim * 4 > 4 * bound
    from framefuse.features import uniform_sample_indices

    ts = load_features(out).frame_timestamps
    assert len(ts) == 32
    assert set(ts) <= {float(i) for i in uniform_sample_indices(n_frames, sample)}


@pytest.mark.parametrize("config, message", [
    (["--frames", "5000"], "config wants 5000 input frames but tensor has 3000"),
    (["--frames", "-3"], "input_frames must be >= 1, got -3"),
    (["--k", "0"], "input_frames must be >= 1, got 0"),
    (["--frames", "0"], "input_frames must be >= 1, got 0"),
])
def test_compress_out_of_range_frames_holds_no_frames(tmp_path, capsys, config, message):
    import tracemalloc

    from framefuse import FrameFeatures, save_features
    from framefuse.parallel import UNIT_BYTES

    n_frames, n_patches, dim = 3000, 16, 256
    data = np.random.default_rng(10).standard_normal((n_frames, n_patches, dim),
                                                     dtype=np.float32)
    src = tmp_path / "long.fvt"
    save_features(FrameFeatures(data, tuple(float(i) for i in range(n_frames))), src)
    del data
    argv = ["compress", str(src), "--k", "32", "--r", "2", "-o", str(tmp_path / "c.fvt")]
    tracemalloc.start()
    try:
        code = main(argv + config)  # the later flag wins
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))
    bound = UNIT_BYTES + 4 * 2**20
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
    assert n_frames * n_patches * dim * 4 > 4 * bound  # a full load would break it


def test_compress_more_frames_than_the_file_keeps_its_message(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=48), capsys)
    code, stdout, stderr = run(["compress", str(src), "--k", "8", "--r", "2",
                                "--frames", "5000", "-o", str(tmp_path / "c.fvt")], capsys)
    assert code == 1
    assert stderr == "error: config wants 5000 input frames but tensor has 48\n"
    assert not (tmp_path / "c.fvt").exists()


@pytest.mark.parametrize("frames, k, code, stderr", [
    (24, 8, 0, ""),
    (48, 16, 0, ""),  # every frame of the file
    (49, 8, 1, "error: config wants 49 input frames but tensor has 48\n"),
    (0, 8, 1, "error: input_frames must be >= 1, got 0\n"),
], ids=["sample", "every frame", "past the file", "none"])
def test_compress_reads_the_header_once(tmp_path, capsys, monkeypatch, frames, k, code, stderr):
    # one read of the file decides which frames are kept, in range or not
    from framefuse import features

    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=48), capsys)
    reads = []
    real_read_header = features._read_header

    def spy(*args):
        reads.append(args)
        return real_read_header(*args)
    monkeypatch.setattr(features, "_read_header", spy)
    out = tmp_path / "c.fvt"
    got = run(["compress", str(src), "--k", str(k), "--r", "2", "--frames", str(frames),
               "-o", str(out)], capsys)
    assert (got[0], got[2]) == (code, stderr)
    assert len(reads) == 1
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("corrupt, message", [
    ("magic", "bad magic b'XXXX'"),
    ("nan_unsampled", "frame features contain non-finite values"),
    ("sidecar", "meta.json: invalid JSON at byte offset 1"),
    ("timestamps", "timestamps must be strictly increasing"),
])
@pytest.mark.parametrize("config", [
    ["--k", "0", "--r", "2"],                      # no input frames
    ["--k", "8", "--r", "2", "--frames", "5000"],  # more frames than the file
    ["--k", "8", "--r", "2", "--frames", "-3"],
    ["--k", "8", "--r", "2", "--frames", "0"],
])
def test_compress_reports_a_corrupt_file_before_a_bad_config(tmp_path, capsys, corrupt, message,
                                                             config):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=48), capsys)
    raw = bytearray(src.read_bytes())
    if corrupt == "magic":
        raw[:4] = b"XXXX"
    elif corrupt == "nan_unsampled":
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # the last frame
    elif corrupt == "sidecar":
        (tmp_path / "f.fvt.meta.json").write_text("{bad")
    else:
        (tmp_path / "f.fvt.meta.json").write_text(
            json.dumps({"frame_timestamps": [float(47 - i) for i in range(48)]}))
    src.write_bytes(bytes(raw))
    code, stdout, stderr = run(["compress", str(src), *config, "-o", str(tmp_path / "c.fvt")],
                               capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ") and message in stderr


def test_bench_config_integer_past_the_digit_limit_exits_1(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=24), capsys)
    configs = tmp_path / "configs.json"
    configs.write_text('[{"input_frames": 1' + "0" * 5000 + ', "scenes_k": 4, "supplements_r": 1}]')
    code, stdout, stderr = run(["bench", str(src), "--configs", str(configs)], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {configs}: ") and "digits" in stderr


def test_compress_sidecar_integer_past_the_digit_limit_exits_1(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=24), capsys)
    (tmp_path / "f.fvt.meta.json").write_text('{"frame_timestamps": [1' + "0" * 5000 + "]}")
    code, _, stderr = run(["compress", str(src), "--k", "4", "--r", "1", "--frames", "12",
                           "-o", str(tmp_path / "c.fvt")], capsys)
    assert code == 1
    assert stderr.startswith("error: ") and "meta.json" in stderr and "digits" in stderr


@pytest.mark.parametrize("flags", [
    ["--seed", "0"], ["--seed", "3"], ["--mode", "dissimilar"], ["--max-iters", "5"],
    ["--tol", "0.1"], ["--mode", "similar", "--tol", "1e-6"],
])
def test_select_bsm_rejects_kmeans_flags(tmp_path, capsys, flags):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=24), capsys)
    code, stdout, stderr = run(["select", str(src), "--method", "bsm", "--k", "4", "--r", "1",
                                *flags], capsys)
    assert code == 2
    assert stdout == ""
    assert "usage error: --method bsm does not use" in stderr
    assert all(flag in stderr for flag in flags[::2])


def test_select_table_with_output_exits_2(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=24), capsys)
    out = tmp_path / "scenes.txt"
    code, stdout, stderr = run(["select", str(src), "--k", "4", "--r", "1",
                                "--format", "table", "-o", str(out)], capsys)
    assert code == 2
    assert stdout == "" and "--format table" in stderr
    assert not out.exists()


def test_bench_table_with_output_exits_2(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=24), capsys)
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps([{"input_frames": 12, "scenes_k": 4, "supplements_r": 2}]))
    out = tmp_path / "report.json"
    code, stdout, stderr = run(["bench", str(src), "--configs", str(configs),
                                "--format", "table", "-o", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == "usage error: --format table prints to stdout; it cannot be written with -o\n"
    assert not out.exists()


def test_select_explicit_kmeans_defaults_match_omitted_flags(tmp_path, capsys):
    src = tmp_path / "f.fvt"
    run(gen_args(src, frames=48), capsys)
    base = ["select", str(src), "--k", "6", "--r", "2"]
    for fmt in ("json", "table"):
        code, omitted, _ = run(base + ["--format", fmt], capsys)
        assert code == 0
        code, explicit, _ = run(base + ["--format", fmt, "--seed", "0", "--mode", "similar",
                                        "--max-iters", "100", "--tol", "1e-6"], capsys)
        assert code == 0
        assert explicit == omitted
    code, bsm, _ = run(base + ["--method", "bsm"], capsys)
    assert code == 0 and json.loads(bsm)["k"] == 6


# -- synth --stats summarizes the packed groups without building records ------

def _stats_oracle(manifest, min_s, max_s, seed):
    """(exit code, stdout, stderr) of `synth --stats`, from the records of
    the clip-by-clip oracle."""
    pool = reference.clip_pool(json.loads(manifest.read_text()))
    try:
        stats = reference.dataset_stats(reference.pack_clips(pool, min_s, max_s, seed))
    except ParameterError as exc:
        return 1, "", f"error: {exc}\n"
    return 0, json.dumps(stats, indent=2, sort_keys=True) + "\n", ""


# str.split() whitespace that is neither the space nor the newline the merged
# caption joins with
_WHITESPACE = ["\t", "\r", "\x0b", "\x1c", "\x85", "\xa0", "\u3000", " ", "\n"]
_WINDOWS = [(300.0, 1800.0), (300.0, 600.0), (450.5, 700.25), (900.0, 1000.0), (1500.0, 1800.0)]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    clips=st.lists(st.tuples(
        # clips of max_s or longer are skipped; a third of a second never
        # sums exactly
        st.one_of(st.floats(5.0, 400.0), st.floats(5.0, 400.0),
                  st.sampled_from([600.0, 1800.0, 2500.0, 20 + 1 / 3])),
        st.text(alphabet=st.one_of(st.sampled_from(_WHITESPACE), st.sampled_from("ab"),
                                   st.characters()), min_size=1, max_size=10),
    ), min_size=1, max_size=60),
    # a clip too short to move a running total: its record has an empty segment
    tiny=st.booleans(),
    window=st.sampled_from(_WINDOWS),
    seed=st.integers(0, 2**16),
)
def test_synth_stats_equal_the_stats_of_the_records(tmp_path, capsys, clips, tiny, window,
                                                   seed):
    if tiny:
        clips = clips + [(1e-300, "tiny")]
    manifest = tmp_path / "clips.json"
    manifest.write_text(json.dumps([
        {"id": f"c{i}", "duration": duration, "caption": caption}
        for i, (duration, caption) in enumerate(clips)
    ]))
    min_s, max_s = window
    expected = _stats_oracle(manifest, min_s, max_s, seed)
    got = run(["synth", str(manifest), "--stats", "--seed", str(seed),
               "--min-s", repr(min_s), "--max-s", repr(max_s)], capsys)
    assert got == expected


def test_synth_stats_does_not_build_records(tmp_path, capsys, monkeypatch):
    import framefuse.captions as captions

    manifest = tmp_path / "clips.json"
    write_manifest(manifest, n=300, duration=47.0)
    expected = _stats_oracle(manifest, 300.0, 1800.0, 2)
    assert expected[0] == 0

    def no_records(*args, **kwargs):
        raise AssertionError("synth --stats built a record")

    monkeypatch.setattr(captions, "build_record", no_records)
    assert run(["synth", str(manifest), "--stats", "--seed", "2"], capsys) == expected
    out = tmp_path / "stats.json"
    code, _, stderr = run(["synth", str(manifest), "--stats", "--seed", "2", "-o", str(out)],
                          capsys)
    assert code == 0, stderr
    assert out.read_text() == expected[1]


def test_synth_stats_keeps_the_records_empty_segment_error(tmp_path, capsys):
    manifest = tmp_path / "clips.json"
    manifest.write_text(json.dumps([{"id": "a", "duration": 400.0, "caption": "x"},
                                    {"id": "b", "duration": 1e-300, "caption": "y"}]))
    for extra in ([], ["--stats"]):
        code, stdout, stderr = run(["synth", str(manifest), *extra], capsys)
        assert (code, stdout) == (1, "")
        assert stderr == "error: segment [400.0, 400.0) is empty\n"


def test_synth_stats_rejects_frames(tmp_path, capsys):
    out = tmp_path / "stats.json"
    code, stdout, stderr = run(["synth", str(tmp_path / "missing.json"), "--stats",
                                "--frames", "32", "-o", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == "usage error: --stats does not use --frames\n"
    assert not out.exists()


def test_synth_unset_frames_means_the_default(tmp_path, capsys):
    manifest = tmp_path / "clips.json"
    write_manifest(manifest, n=60, duration=47.0)
    omitted = run(["synth", str(manifest), "--seed", "1"], capsys)
    assert omitted[0] == 0
    assert run(["synth", str(manifest), "--seed", "1", "--frames", "32"], capsys) == omitted


@pytest.mark.parametrize("n_clips, frames", [(3, "0"), (40, "0"), (40, "-2")])
def test_synth_rejects_frames_below_1_before_packing(tmp_path, capsys, caplog, n_clips, frames):
    # 3 clips of 60 s pack into no record and 40 into two; both are
    # rejected before a clip is packed or a warning logged
    manifest = tmp_path / "clips.json"
    write_manifest(manifest, n=n_clips)
    with caplog.at_level("WARNING", logger="framefuse.captions"):
        code, stdout, stderr = run(["synth", str(manifest), "--frames", frames], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: sample count must be >= 1, got {frames}\n"
    assert caplog.records == []


@pytest.mark.parametrize("argv, ignored", [
    (["gen", "--frames", "12", "-o", "f.fvt"], ["--format", "json"]),
    (["compress", "f.fvt", "--k", "2", "--r", "1", "-o", "c.fvt"], ["--format", "table"]),
    (["synth", "clips.json"], ["--format", "json"]),
    (["bench", "f.fvt", "--configs", "configs.json"], ["--seed", "1"]),
], ids=["gen", "compress", "synth", "bench"])
def test_flags_a_command_would_ignore_exit_2(tmp_path, capsys, monkeypatch, argv, ignored):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ignored)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(ignored)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
