"""One byte digest of the framefuse CLI over a fixed command list.

    PYTHONPATH=src python tests/cli_digest.py [--verbose]

Each command below runs as ``python -m framefuse.cli`` in one temporary
directory, with relative paths, so the framefuse on PYTHONPATH is the one
that runs: one copy of this script digests any checkout. A command's digest
covers its arguments, exit code, stdout and stderr, and every file that it
created or changed in the directory; ``bench``'s JSON is parsed and its
``wall_ms`` dropped, since it is a wall time. The script prints one hex
digest of all commands; ``--verbose`` also prints one line per command, its
digest and its arguments, so that two runs' lines can be diffed to name the
command that differs. Run it once per tree and BLAS setting (for example
under ``OPENBLAS_NUM_THREADS=1``, ``=2`` and unset) to check that a change
keeps every output byte. It is not a test file, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, frames, patches, dim, k, r, sampled frames): every compress pair
# runs on each shape; uniform selection needs k * (r + 1) sampled frames
SHAPES = (
    ("small", 96, 16, 32, 32, 2, 96),
    ("wide", 120, 144, 256, 20, 2, 60),
    ("long", 600, 16, 1024, 48, 3, 192),
)
SELECTIONS = ("uniform", "kmeans", "bsm")
MERGES = ("tavg", "fusion", "attnpool", "bsm")
MANIFEST_CLIPS = 3000
WORDS = ("a", "person", "walks", "through", "the", "kitchen", "dog", "runs", "red",
         "car", "slowly", "turns", "left", "on", "street", "then", "stops")


def _bench_configs() -> list[dict]:
    # on the wide shape: the 12 pairs at the exact uniform budget, then
    # kmeans and bsm with each merge on every frame
    _, _, _, _, k, r, frames = SHAPES[1]
    configs = [{"input_frames": frames, "scenes_k": k, "supplements_r": r,
                "selection": sel, "merging": mg, "seed": 3}
               for sel in SELECTIONS for mg in MERGES]
    configs += [{"input_frames": SHAPES[1][1], "scenes_k": 10, "supplements_r": 3,
                 "selection": sel, "merging": mg, "seed": 4}
                for sel in ("kmeans", "bsm") for mg in MERGES]
    return configs


def _manifest() -> list[dict]:
    rng = random.Random(0)
    return [{"id": f"clip{i:04d}", "duration": round(rng.uniform(1.0, 60.0), 3),
             "caption": " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 12)))}
            for i in range(MANIFEST_CLIPS)]


def _compress(shape: tuple, frames: int, *extra: str) -> list[str]:
    name, _, _, _, k, r, _ = shape
    return ["compress", f"{name}.fvt", "--k", str(k), "--r", str(r), "--frames", str(frames),
            "--seed", "5", *extra]


def commands() -> list[list[str]]:
    cmds = []
    for name, n, patches, dim, *_ in SHAPES:
        cmds.append(["gen", "--frames", str(n), "--patches", str(patches), "--dim", str(dim),
                     "--scenes", "4", "--seed", "1", "-o", f"{name}.fvt"])
    for name, _, _, _, k, r, _ in SHAPES:
        for method in ("kmeans", "bsm"):
            sel = ["select", f"{name}.fvt", "--method", method, "--k", str(k), "--r", str(r)]
            cmds.append(sel + ["-o", f"{name}-{method}.json"])
            cmds.append(sel + ["--format", "table"])
    for shape in SHAPES:
        name, n, patches, dim, _, r, frames = shape
        for sel in SELECTIONS:
            for mg in MERGES:
                cmds.append(_compress(shape, frames, "--select", sel, "--merge", mg,
                                      "-o", f"{name}-{sel}-{mg}.fvt"))
        cmds.append(_compress(shape, n + 1, "-o", f"{name}-over.fvt"))
        cmds.append(["gen", "--frames", str(r + 1), "--patches", str(patches), "--dim", str(dim),
                     "--scenes", "1", "--seed", "2", "-o", f"{name}-w.fvt"])
        for sel in SELECTIONS:
            cmds.append(_compress(shape, frames, "--select", sel, "--merge", "fusion",
                                  "--weights", f"{name}-w.fvt", "-o", f"{name}-{sel}-w.fvt"))
    # each shape with the next shape's weights, which do not fit its scenes
    for shape, (other, *_) in zip(SHAPES, SHAPES[1:] + SHAPES[:1]):
        cmds.append(_compress(shape, shape[-1], "--select", "kmeans", "--merge", "fusion",
                              "--weights", f"{other}-w.fvt", "-o", f"{shape[0]}-misfit.fvt"))
    cmds.append(["bench", "wide.fvt", "--configs", "configs.json"])
    cmds.append(["synth", "manifest.json"])
    cmds.append(["synth", "manifest.json", "--seed", "3"])
    cmds.append(["synth", "manifest.json", "--stats"])
    return cmds


def _files(root: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in root.iterdir()}


def _digest(args: list[str], proc: subprocess.CompletedProcess, root: Path,
            changed: list[str]) -> str:
    h = hashlib.blake2b(digest_size=8)
    stdout = proc.stdout
    if args[0] == "bench" and proc.returncode == 0:
        report = json.loads(stdout)
        for entry in report:
            del entry["wall_ms"]
        stdout = json.dumps(report, sort_keys=True).encode()
    parts = [json.dumps(args).encode(), str(proc.returncode).encode(), stdout, proc.stderr]
    for name in changed:
        parts += [name.encode(), (root / name).read_bytes()]
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    verbose = "--verbose" in argv
    # the commands run in a temporary directory: keep PYTHONPATH's entries
    # pointing where they pointed here
    path = [str(Path(p).resolve()) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    total = hashlib.blake2b(digest_size=8)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "configs.json").write_text(json.dumps(_bench_configs()))
        (root / "manifest.json").write_text(json.dumps(_manifest()))
        for args in commands():
            before = _files(root)
            proc = subprocess.run([sys.executable, "-m", "framefuse.cli", *args], cwd=root,
                                  env=env, capture_output=True)
            after = _files(root)
            changed = sorted(name for name in after if before.get(name) != after[name])
            digest = _digest(args, proc, root, changed)
            total.update(bytes.fromhex(digest))
            if verbose:
                print(digest, " ".join(args), flush=True)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
