"""Output checks. Each one recomputes what the output must be with the
benchmark's own numpy or Python, or tests a property the method must have;
none compares against a stored copy of an earlier output. A failed check
raises ``CheckError``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from inputs import read_fvt


class CheckError(AssertionError):
    pass


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    # outputs are float32 roundings of float64 results
    err = np.abs(got.astype(np.float64) - want)
    bad = err > 1e-5 + 1e-5 * np.abs(want)
    _require(not bad.any(), f"{what}: {int(bad.sum())} elements differ, max error {err.max():.3g}")


def sample_indices(total: int, n: int) -> list[int]:
    """Uniform sampling as the README states it: index j is floor(j*total/n)."""
    return [(j * total) // n for j in range(n)]


# -- vit-merge ----------------------------------------------------------------

def attention_pool_reference(scene: np.ndarray, qk: np.ndarray) -> np.ndarray:
    """Attention pooling as documented: per patch, softmax over frames of
    (scene[s//2] @ wq) . (scene[m] @ wk) / sqrt(D), then the weighted sum of
    the frames. ``qk`` is wq @ wk.T, so the score is scene[m] . (scene[s//2]
    @ qk): one (L, D) x (D, D) product per scene instead of s + 1."""
    scene = scene.astype(np.float64)
    s, _, d = scene.shape
    z = scene[s // 2] @ qk                               # (L, D)
    logits = np.einsum("mld,ld->ml", scene, z) / math.sqrt(d)
    w = np.exp(logits - logits.max(axis=0))
    w /= w.sum(axis=0)
    return np.einsum("ml,mld->ld", w, scene)


def pair_merge_reference(tokens: np.ndarray, target: int) -> np.ndarray:
    """Bipartite soft matching as documented, down to ``target`` tokens.

    Each round the current tokens alternate between partitions A (even
    positions) and B (odd). Every A token picks its most cosine-similar B
    token (the lowest B position on a tie). The ``min(remaining,
    max(1, t // 2))`` best-scoring A tokens (the lowest A position on a
    tie) merge into their picks as size-weighted means. The unmerged A
    tokens, in order, followed by the B tokens form the next round. The
    result is ordered by the lowest original index each token absorbed.
    """
    toks = [(row.astype(np.float64), 1, i) for i, row in enumerate(tokens)]
    while len(toks) > target:
        a, b = toks[0::2], toks[1::2]
        vecs = np.array([t[0] for t in toks])
        unit = vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        scores = unit[0::2] @ unit[1::2].T
        pick = scores.argmax(axis=1)
        best = scores[np.arange(len(a)), pick]
        step = min(len(toks) - target, max(1, len(toks) // 2))
        merging = sorted(range(len(a)), key=lambda i: (-best[i], i))[:step]
        groups: dict[int, list] = {}
        for i in merging:
            groups.setdefault(int(pick[i]), []).append(a[i])
        merged = []
        for j, tb in enumerate(b):
            members = [tb] + groups.get(j, [])
            size = sum(m[1] for m in members)
            vec = sum(m[0] * m[1] for m in members) / size
            merged.append((vec, size, min(m[2] for m in members)))
        chosen = set(merging)
        toks = [t for i, t in enumerate(a) if i not in chosen] + merged
    toks.sort(key=lambda t: t[2])
    return np.array([t[0] for t in toks])


def check_vit_sweep(outputs: dict[str, np.ndarray], clip: np.ndarray, shape: dict,
                    qk: np.ndarray) -> None:
    """One uniform/<strategy> compress per strategy of one clip; ``qk`` is
    wq @ wk.T of the attention projections the compress used."""
    k, s = shape["k"], shape["r"] + 1
    idx = sample_indices(clip.shape[0], shape["input_frames"])
    want_shape = (k,) + clip.shape[1:]
    for name, out in outputs.items():
        _require(out.shape == want_shape, f"{name}: shape {out.shape}, expected {want_shape}")
        _require(out.dtype == np.float32, f"{name}: dtype {out.dtype}")
        _require(bool(np.isfinite(out).all()), f"{name}: non-finite values")
    for j in range(k):
        scene = clip[idx[j * s:(j + 1) * s]]            # (s, L, D)
        mean = scene.mean(axis=0, dtype=np.float64)
        _close(outputs["tavg"][j], mean, f"tavg scene {j}")
        _close(outputs["fusion"][j], mean, f"fusion scene {j}")
        _close(outputs["attnpool"][j], attention_pool_reference(scene, qk),
               f"attnpool scene {j}")
        # bsm flattens the scene patch-major: token l*s + m is frame m, patch l
        tokens = scene.transpose(1, 0, 2).reshape(-1, scene.shape[-1])
        _close(outputs["bsm"][j], pair_merge_reference(tokens, scene.shape[1]), f"bsm scene {j}")


# -- long-select --------------------------------------------------------------

def check_compressed_file(path: Path, sub: np.ndarray, sub_ts: list[float],
                          scene_set, shape: dict) -> None:
    """A compress output file against the scene set that produced it.

    ``sub`` holds the sampled frames, ``sub_ts`` their timestamps, and
    ``scene_set`` the scenes selected from them (indices into ``sub``).
    """
    k, r = shape["k"], shape["r"]
    data, ts = read_fvt(path)
    want_shape = (k,) + sub.shape[1:]
    _require(data.shape == want_shape, f"{path}: shape {data.shape}, expected {want_shape}")
    _require(bool(np.isfinite(data).all()), f"{path}: non-finite values")
    _require(ts is not None and len(ts) == k, f"{path}: expected {k} timestamps")
    sampled = set(sub_ts)
    _require(all(t in sampled for t in ts), f"{path}: a timestamp was never sampled")
    _require(all(b > a for a, b in zip(ts, ts[1:])), f"{path}: timestamps not increasing")

    scenes = scene_set.scenes
    _require(len(scenes) == k, f"{len(scenes)} scenes, expected {k}")
    seen: set[int] = set()
    for j, scene in enumerate(scenes):
        members = list(scene.members)
        _require(len(members) == r + 1, f"scene {j} has {len(members)} frames")
        _require(all(0 <= m < sub.shape[0] for m in members), f"scene {j}: index out of range")
        _require(seen.isdisjoint(members), f"scene {j} shares frames with another scene")
        seen.update(members)
        _require(ts[j] == sub_ts[scene.representative], f"{path}: timestamp {j} is not its scene's")
        _close(data[j], sub[members].mean(axis=0, dtype=np.float64), f"{path}: frame {j}")


def check_nearest_center(reps: np.ndarray, clustering) -> None:
    """Every assignment is a nearest center, by the benchmark's own distances."""
    centers = np.asarray(clustering.centers, dtype=np.float64)
    d2 = np.empty((reps.shape[0], centers.shape[0]))
    for j, c in enumerate(centers):
        diff = reps - c
        d2[:, j] = np.einsum("nd,nd->n", diff, diff)
    assign = np.asarray(clustering.assignments)
    _require(assign.shape == (reps.shape[0],), "one assignment per frame expected")
    own = d2[np.arange(reps.shape[0]), assign]
    best = d2.min(axis=1)
    _require(bool((own <= best * (1 + 1e-9) + 1e-9).all()), "a frame is not assigned to its nearest center")


# -- caption-synth ------------------------------------------------------------

def render_instruction(n_frames: int, total_s: float) -> str:
    """The instruction sentence as the README specifies it: t_j = j*T/N at
    one decimal, and T rounded half-up to an integer."""
    listed = ", ".join(f"{j * total_s / n_frames:.1f}" for j in range(n_frames))
    return (f"This video samples {n_frames} frames of a {math.floor(total_s + 0.5)}"
            f"-second video at {listed} seconds.")


def check_records(records_path: Path, stats_path: Path, manifest: dict[str, dict],
                  n_frames: int = 32) -> int:
    """Synth records and their --stats summary; returns the record count."""
    records = json.loads(Path(records_path).read_text())
    stats = json.loads(Path(stats_path).read_text())
    _require(isinstance(records, list) and records, "no records")
    used: set[str] = set()
    for i, rec in enumerate(records):
        total = rec["total_duration_s"]
        _require(300.0 <= total <= 1800.0, f"record {i}: {total} s outside [300, 1800]")
        ids, segs = rec["clip_ids"], rec["segments"]
        _require(len(ids) == len(segs) > 0, f"record {i}: one segment per clip expected")
        cursor = 0.0
        for cid, seg in zip(ids, segs):
            _require(cid not in used, f"record {i}: clip {cid} used twice")
            used.add(cid)
            clip = manifest.get(cid)
            _require(clip is not None, f"record {i}: clip {cid} not in the manifest")
            _require(seg["caption"] == clip["caption"], f"record {i}: caption of {cid} differs")
            _require(abs(seg["start_s"] - cursor) <= 1e-6, f"record {i}: gap before {cid}")
            _require(abs(seg["end_s"] - seg["start_s"] - clip["duration"]) <= 1e-6,
                     f"record {i}: segment of {cid} does not last its clip's duration")
            cursor = seg["end_s"]
        _require(abs(cursor - total) <= 1e-6, f"record {i}: segments end at {cursor}, not {total}")
        _require(rec["instruction"] == render_instruction(n_frames, total),
                 f"record {i}: instruction string differs")
    _require(stats["count"] == len(records), "stats count differs from the record count")
    for hist in ("duration_hist", "caption_words_hist"):
        _require(sum(b["count"] for b in stats[hist]) == len(records),
                 f"{hist} counts do not sum to the record count")
    return len(records)
