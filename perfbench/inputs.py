"""Synthetic inputs of the three workloads, their shapes, and an FVT1 reader
and writer of the benchmark's own (independent of framefuse).

Inputs are a pure function of (workload, scale, seed). They are generated
once per checkout and seed by ``python3 perfbench/inputs.py`` (which
run.py calls in a child process) and cached under ``.perfbench-work/``, so
generating them never counts toward a run's set-up time.
"""

from __future__ import annotations

import argparse
import json
import shutil
import struct
import sys
from pathlib import Path

import numpy as np

# One entry per workload and scale. "full" is what BENCHMARK.json runs;
# "toy" (96x16x32 tensors) is what selftest.py runs.
SHAPES = {
    "vit-merge": {
        # two ViT-scale clips, each sampled to 96 frames -> 32 scenes of 3
        "full": {"clips": 2, "frames": 384, "patches": 144, "dim": 1024, "scenes": 32,
                 "input_frames": 96, "k": 32, "r": 2},
        "toy": {"clips": 2, "frames": 96, "patches": 16, "dim": 32, "scenes": 8,
                "input_frames": 96, "k": 32, "r": 2},
    },
    "long-select": {
        # a 30-minute video at 1 fps (72 scenes, 25 s on average), sampled
        # to 512 frames -> 48 scenes of 3
        "full": {"frames": 1800, "patches": 16, "dim": 1024, "scenes": 72,
                 "input_frames": 512, "k": 48, "r": 2},
        "toy": {"frames": 96, "patches": 16, "dim": 32, "scenes": 12,
                "input_frames": 48, "k": 8, "r": 2},
    },
    "caption-synth": {
        "full": {"clips": 20000},
        "toy": {"clips": 400},
    },
}

WORK_DIR = ".perfbench-work"

_MAGIC = b"FVT1"
_HEAD = struct.Struct("<4sBI3I")


def write_fvt(path: Path, data: np.ndarray, timestamps=None) -> None:
    """Write an (N, L, D) float32 tensor in the FVT1 layout (see README)."""
    data = np.ascontiguousarray(data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(_MAGIC, 1, 3, *data.shape))
        fh.write(data.tobytes())
    if timestamps is not None:
        meta = path.with_name(path.name + ".meta.json")
        meta.write_text(json.dumps({"frame_timestamps": list(timestamps)}))


def read_fvt(path: Path) -> tuple[np.ndarray, list[float] | None]:
    """Parse an FVT1 file and its optional timestamp sidecar."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEAD.size:
        raise ValueError(f"{path}: {len(raw)} bytes is shorter than the FVT1 header")
    magic, version, rank, n, l, d = _HEAD.unpack_from(raw)
    if (magic, version, rank) != (_MAGIC, 1, 3):
        raise ValueError(f"{path}: bad header {(magic, version, rank)}")
    if len(raw) != _HEAD.size + 4 * n * l * d:
        raise ValueError(f"{path}: payload is not {n}x{l}x{d} float32")
    data = np.frombuffer(raw, dtype="<f4", offset=_HEAD.size).reshape(n, l, d)
    meta = Path(path).with_name(Path(path).name + ".meta.json")
    ts = json.loads(meta.read_text())["frame_timestamps"] if meta.exists() else None
    return data, ts


def video_frames(rng: np.random.Generator, n: int, patches: int, dim: int,
                 n_scenes: int) -> np.ndarray:
    """Frames that look like video: ``n_scenes`` scenes cut at random frames,
    each a random base pattern drifting slowly along a random direction,
    plus per-element noise. Lloyd needs several iterations on such input,
    unlike on axis-aligned planted blocks. The scene count is fixed because
    it sets how many iterations Lloyd needs; a random count made whole runs
    differ by 15%."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_scenes - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    out = np.empty((n, patches, dim), dtype=np.float32)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        length = int(stop - start)
        base = rng.standard_normal((patches, dim), dtype=np.float32)
        drift = rng.standard_normal((patches, dim), dtype=np.float32) / np.float32(length)
        steps = np.arange(length, dtype=np.float32)[:, None, None]
        noise = rng.standard_normal((length, patches, dim), dtype=np.float32)
        out[start:stop] = base + steps * drift + np.float32(0.5) * noise
    return out


_WORDS = (
    "a the person dog cat car street kitchen table walks runs opens closes "
    "picks up puts down looks at camera slowly quickly red blue green small "
    "large old young man woman child ball door window light dark outside "
    "inside near far while then after before holds throws catches sits stands"
).split()


def caption_manifest(rng: np.random.Generator, n: int) -> list[dict]:
    """Clips of 5 to 120 s (one decimal) with 5 to 60 word captions."""
    clips = []
    for i in range(n):
        words = rng.choice(len(_WORDS), size=int(rng.integers(5, 61)))
        clips.append({
            "id": f"clip-{i:06d}",
            "duration": round(float(rng.uniform(5.0, 120.0)), 1),
            "caption": " ".join(_WORDS[w] for w in words),
        })
    return clips


def input_dir(root: Path, workload: str, scale: str, seed: int) -> Path:
    return root / WORK_DIR / "cache" / f"{workload}-{scale}-s{seed}"


def generate(root: Path, workload: str, scale: str, seed: int) -> Path:
    """Create the cached inputs of one (workload, scale, seed) unless present.

    Only the newest seed of each workload and scale is kept, which bounds
    the cache at about 0.6 GB.
    """
    dest = input_dir(root, workload, scale, seed)
    if (dest / "done").exists():
        return dest
    for old in dest.parent.glob(f"{workload}-{scale}-s*"):
        shutil.rmtree(old)
    dest.mkdir(parents=True)
    shape = SHAPES[workload][scale]
    rng = np.random.default_rng([seed, sorted(SHAPES).index(workload)])
    if workload == "vit-merge":
        for c in range(shape["clips"]):
            frames = video_frames(rng, shape["frames"], shape["patches"], shape["dim"],
                                  shape["scenes"])
            write_fvt(dest / f"clip{c}.fvt", frames)
            del frames
    elif workload == "long-select":
        frames = video_frames(rng, shape["frames"], shape["patches"], shape["dim"],
                              shape["scenes"])
        write_fvt(dest / "video.fvt", frames, [float(i) for i in range(shape["frames"])])
    else:
        clips = caption_manifest(rng, shape["clips"])
        (dest / "clips.json").write_text(json.dumps(clips))
    (dest / "done").write_text("")
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    generate(Path.cwd(), args.workload, args.scale, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
