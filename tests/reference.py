"""Reference implementations that the optimised code is tested against.

These are the original per-scene forms: every scene is validated and
upcast to float64 on its own, merged in its own call, and the merged maps
are stacked; the fusion fitter that re-checks and merges every scene in
every step; and Lloyd clustering with every distance in the direct
form sum((p - c)**2). They are kept here, unoptimised, as the oracle for
the merge engine, the batched fusion fitter, the chunked distance
helper, the nearest-center search, the bounded k-means++ seeding and the
choice of one distinct frame per center. Beside them are forms that only
tests need: the planted block of each synthetic frame, the frames a scene
set retains, and bench's reconstruction proxy in the direct form. The
plain FVT1 reader is the oracle for the unit reader of sampled loads. The
caption section keeps the clip-by-clip packer and record builder: every
clip an (id, duration_s, caption) tuple, every record a dict of the
written schema, every boundary labelled by arithmetic, and every
instruction and segment validated. The summary of ``synth --stats`` is
binned by README's rule, not by the library's loop.
"""

import bisect
import json
import logging
import math
import struct
from itertools import accumulate
from pathlib import Path

import numpy as np

from framefuse import (
    Clustering,
    FrameFeatures,
    ParameterError,
    Scene,
    SceneSet,
    attn_projections,
    representative_features,
    select_scenes_bsm,
    select_scenes_kmeans,
)
from framefuse.captions import MAX_DURATION_S, MIN_DURATION_S
from framefuse.features import uniform_sample_indices


def as_scene(scene):
    scene = np.asarray(scene, dtype=np.float64)
    if scene.ndim != 3:
        raise ParameterError(f"scene tensor must be rank 3, got rank {scene.ndim}")
    if min(scene.shape) < 1:
        raise ParameterError(f"scene dims must be >= 1, got {scene.shape}")
    if not np.all(np.isfinite(scene)):
        raise ParameterError("scene tensor contains non-finite values")
    return scene


def temporal_average(scene):
    return as_scene(scene).mean(axis=0)


def fusion(scene, weights):
    scene = as_scene(scene)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != scene.shape:
        raise ParameterError(
            f"weights shape {weights.shape} does not match scene shape {scene.shape}"
        )
    return (scene * weights).sum(axis=0)


def fusion_gradient(scene, upstream):
    """Gradient of the fused output w.r.t. the weights, contracted with
    *upstream* (the loss gradient at the output): grad[i] = upstream * F_i."""
    return np.asarray(upstream, dtype=np.float64)[None, :, :] * as_scene(scene)


def fusion_loss(scenes, targets, weights):
    """Mean over scenes of the half squared error of fusion vs target."""
    total = 0.0
    for scene, target in zip(scenes, targets):
        resid = fusion(scene, weights) - np.asarray(target, dtype=np.float64)
        total += 0.5 * float((resid * resid).sum())
    return total / len(scenes)


def fit_fusion_weights(scenes, targets, lr, steps):
    """Gradient descent scene by scene from the uniform init; returns the
    best iterate and the per-step losses."""
    scenes = [as_scene(sc) for sc in scenes]
    targets = [np.asarray(t, dtype=np.float64) for t in targets]
    s, n_patches, dim = scenes[0].shape
    w = np.full((s, n_patches, dim), 1.0 / s, dtype=np.float64)
    best_w = w.copy()
    best_loss = fusion_loss(scenes, targets, w)
    history = [best_loss]
    n = len(scenes)
    for _ in range(steps):
        grad = np.zeros_like(w)
        for scene, target in zip(scenes, targets):
            grad += fusion_gradient(scene, fusion(scene, w) - target)
        w = w - (lr / n) * grad
        loss = fusion_loss(scenes, targets, w)
        history.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_w = w.copy()
    return best_w, history


def attention_weights(scene, proj):
    scene = as_scene(scene)
    s, _, dim = scene.shape
    query = scene[s // 2] @ proj.wq
    keys = scene @ proj.wk
    logits = np.einsum("ld,mld->ml", query, keys) / math.sqrt(dim)
    logits -= logits.max(axis=0, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=0, keepdims=True)
    return w


def attention_pool(scene, proj):
    scene = as_scene(scene)
    return np.einsum("ml,mld->ld", attention_weights(scene, proj), scene)


def bsm_merge(tokens, target):
    """Returns (tokens, sizes) ordered by the earliest absorbed index."""
    tokens = np.asarray(tokens, dtype=np.float64)
    t0 = tokens.shape[0]
    tok = tokens.copy()
    sizes = np.ones(t0, dtype=np.int64)
    first = np.arange(t0)
    remaining = t0 - target
    while remaining > 0:
        t_cur = tok.shape[0]
        step = min(remaining, max(1, t_cur // 2))
        a_idx = np.arange(0, t_cur, 2)
        b_idx = np.arange(1, t_cur, 2)
        unit = tok / np.maximum(np.linalg.norm(tok, axis=1, keepdims=True), 1e-12)
        scores = unit[a_idx] @ unit[b_idx].T
        best_b = scores.argmax(axis=1)
        best_score = scores[np.arange(a_idx.size), best_b]
        order = np.argsort(-best_score, kind="stable")
        merged_a = order[:step]
        kept_a = np.sort(order[step:])

        weighted = tok[b_idx] * sizes[b_idx, None]
        new_sizes = sizes[b_idx].copy()
        new_first = first[b_idx].copy()
        src = a_idx[merged_a]
        dst = best_b[merged_a]
        np.add.at(weighted, dst, tok[src] * sizes[src, None])
        np.add.at(new_sizes, dst, sizes[src])
        np.minimum.at(new_first, dst, first[src])
        new_tok = tok[b_idx].copy()
        touched = np.unique(dst)
        new_tok[touched] = weighted[touched] / new_sizes[touched, None]

        keep = a_idx[kept_a]
        tok = np.concatenate([tok[keep], new_tok])
        sizes = np.concatenate([sizes[keep], new_sizes])
        first = np.concatenate([first[keep], new_first])
        remaining -= step

    order = np.argsort(first, kind="stable")
    return tok[order], sizes[order]


def merge_scene(scene, strategy, weights=None, seed=0):
    scene = as_scene(scene)
    s, n_patches, dim = scene.shape
    if strategy == "tavg":
        return temporal_average(scene)
    if strategy == "fusion":
        if weights is None:
            weights = np.full((s, n_patches, dim), 1.0 / s, dtype=np.float64)
        return fusion(scene, weights)
    if strategy == "attnpool":
        return attention_pool(scene, attn_projections(dim, seed))
    if strategy == "bsm":
        tokens = scene.transpose(1, 0, 2).reshape(s * n_patches, dim)
        return bsm_merge(tokens, n_patches)[0].reshape(n_patches, dim)
    raise ParameterError(f"unknown merge strategy {strategy!r}")


def compress(features, cfg, weights=None):
    """Sample, build a second FrameFeatures of the sampled frames, select,
    then merge scene by scene and stack."""
    if cfg.input_frames > features.n_frames:
        raise ParameterError(
            f"config wants {cfg.input_frames} input frames but tensor has {features.n_frames}"
        )
    idx = uniform_sample_indices(features.n_frames, cfg.input_frames)
    ts = None
    if features.frame_timestamps is not None:
        ts = tuple(features.frame_timestamps[i] for i in idx)
    sub = FrameFeatures(features.data[np.asarray(idx)], ts)
    if cfg.selection == "uniform":
        if cfg.input_frames != cfg.scenes_k * (cfg.supplements_r + 1):
            raise ParameterError("uniform selection requires an exact budget")
        s = cfg.supplements_r + 1
        scene_set = SceneSet(tuple(Scene(start + s // 2, tuple(range(start, start + s)))
                                   for start in range(0, cfg.input_frames, s)), s - 1)
    elif cfg.selection == "kmeans":
        scene_set = select_scenes_kmeans(sub, cfg.scenes_k, cfg.supplements_r, seed=cfg.seed)
    else:
        scene_set = select_scenes_bsm(sub, cfg.scenes_k, cfg.supplements_r)
    merged = [
        merge_scene(sub.data[np.asarray(scene.members)], cfg.merging,
                    weights=weights, seed=cfg.seed)
        for scene in scene_set.scenes
    ]
    out_ts = None
    if ts is not None:
        out_ts = tuple(ts[s.representative] for s in scene_set.scenes)
    return FrameFeatures(np.stack(merged).astype(np.float32), out_ts)


def sqdist(points, centers):
    """(n, m) squared distances through one (n, m, dim) temporary."""
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)


def init_center_indices(reps, m, rng):
    n = reps.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((reps - reps[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < m:
        total = float(d2.sum())
        if total <= 0.0:
            used = set(chosen)
            chosen.extend(i for i in range(n) if i not in used)
            return chosen[:m]
        nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((reps - reps[nxt]) ** 2).sum(axis=1))
    return chosen


def kmeans(reps, m, max_iters=100, tol=1e-6, seed=0):
    """Lloyd clustering with a full direct-form distance matrix each step."""
    reps = np.asarray(reps, dtype=np.float64)
    n = reps.shape[0]
    rng = np.random.default_rng(seed)
    centers = reps[init_center_indices(reps, m, rng)].copy()
    iterations = 0
    for _ in range(max_iters):
        d2 = sqdist(reps, centers)
        assign = d2.argmin(axis=1)
        new_centers = centers.copy()
        counts = np.bincount(assign, minlength=m)
        for j in range(m):
            if counts[j]:
                new_centers[j] = reps[assign == j].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            point_d2 = d2[np.arange(n), assign].copy()
            for j in empties:
                far = int(point_d2.argmax())
                new_centers[j] = reps[far]
                point_d2[far] = -1.0
        iterations += 1
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < tol:
            break
    d2 = sqdist(reps, centers)
    assign = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), assign].sum())
    return Clustering(centers=centers, assignments=assign, inertia=inertia,
                      iterations_run=iterations, converged=bool(shift < tol))


def representative_indices(reps, clustering):
    d2 = sqdist(np.asarray(reps, dtype=np.float64), clustering.centers)
    return sorted({int(i) for i in d2.argmin(axis=0)})


def distinct_representatives(reps, centers):
    """One distinct frame per center from the full (n, m) direct-form
    matrix: each center in turn takes the first unused frame of its
    stably sorted column."""
    d2 = sqdist(reps, centers)
    used = set()
    out = []
    for j in range(centers.shape[0]):
        for i in np.argsort(d2[:, j], kind="stable"):
            if int(i) not in used:
                used.add(int(i))
                out.append(int(i))
                break
    return sorted(out)


def read_frames(path, keep):
    """The frames *keep* of an FVT1 file and their sidecar timestamps (None
    without a sidecar), read the plain way: the whole payload at once,
    every value checked for finiteness, then the kept frames indexed."""
    raw = Path(path).read_bytes()
    dims = struct.unpack_from("<3I", raw, 9)  # after magic, version and rank
    data = np.frombuffer(raw, dtype="<f4", offset=21).reshape(dims)
    if not np.isfinite(data).all():
        raise ParameterError("frame features contain non-finite values")
    meta = Path(f"{path}.meta.json")
    timestamps = None
    if meta.exists():
        timestamps = [float(json.loads(meta.read_bytes())["frame_timestamps"][i]) for i in keep]
    return data[list(keep)], timestamps


def planted_block_labels(n_frames, n_scenes):
    """Block label per frame of ``generate_synthetic(n_frames, ..., n_scenes)``,
    whose blocks are the ``np.array_split`` of the frames into *n_scenes*
    pieces."""
    labels = np.empty(n_frames, dtype=np.int64)
    for b, block in enumerate(np.array_split(np.arange(n_frames), n_scenes)):
        labels[block] = b
    return labels


def retained_indices(scene_set):
    """Every frame of every scene, in frame order."""
    return sorted(m for s in scene_set.scenes for m in s.members)


def reconstruction_proxy(original, compressed):
    """Mean over the original frames of the squared distance from each
    representative feature to the nearest merged frame's, in the direct form."""
    d2 = sqdist(representative_features(original), representative_features(compressed))
    return float(d2.min(axis=1).mean())


# -- caption synthesis ----------------------------------------------------------

logger = logging.getLogger("framefuse.captions")


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def format_mmss(seconds):
    total = _round_half_up(seconds)
    return f"{total // 60:02d}:{total % 60:02d}"


def sample_timestamps(total_s, n):
    """n evenly spaced timestamps starting at 0: t_j = j * total_s / n."""
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    if not (math.isfinite(total_s) and total_s > 0):
        raise ParameterError(f"total duration must be > 0, got {total_s}")
    return [j * total_s / n for j in range(n)]


def render_frame_instruction(n_frames, total_s, timestamps):
    """The prompt sentence for these timestamps, after checking them."""
    if n_frames < 1:
        raise ParameterError(f"n_frames must be >= 1, got {n_frames}")
    if len(timestamps) != n_frames:
        raise ParameterError(f"expected {n_frames} timestamps, got {len(timestamps)}")
    prev = None
    for t in timestamps:
        if not (math.isfinite(t) and 0 <= t <= total_s):
            raise ParameterError(f"timestamp {t} outside [0, {total_s}]")
        if prev is not None and t <= prev:
            raise ParameterError("timestamps must be strictly increasing")
        prev = t
    listed = ", ".join(f"{t:.1f}" for t in timestamps)
    return (
        f"This video samples {n_frames} frames of a "
        f"{_round_half_up(total_s)}-second video at {listed} seconds."
    )


def build_record(clips, n_frames=32):
    """The record dict of (id, duration_s, caption) clips, in order."""
    if not clips:
        raise ParameterError("cannot build a record from zero clips")
    bounds = list(accumulate([duration for _, duration, _ in clips], initial=0.0))
    total = bounds[-1]
    if not MIN_DURATION_S <= total <= MAX_DURATION_S:
        raise ParameterError(
            f"total duration {total:.1f}s outside [{MIN_DURATION_S:.0f}, {MAX_DURATION_S:.0f}]"
        )
    labels = [format_mmss(b) for b in bounds]
    captions = [caption for _, _, caption in clips]
    instruction = render_frame_instruction(n_frames, total, sample_timestamps(total, n_frames))
    segments = []
    for start, end, caption in zip(bounds, bounds[1:], captions):
        if end <= start:
            raise ParameterError(f"segment [{start}, {end}) is empty")
        segments.append({"start_s": start, "end_s": end, "caption": caption})
    return {
        "clip_ids": [clip_id for clip_id, _, _ in clips],
        "total_duration_s": total,
        "segments": segments,
        "merged_caption": "\n".join(
            [f"[{a} - {b}] {cap}" for a, b, cap in zip(labels, labels[1:], captions)]
        ),
        "instruction": instruction,
    }


def pack_clips(pool, min_s=MIN_DURATION_S, max_s=MAX_DURATION_S, seed=0, n_frames=32):
    """Greedy packing of a seeded shuffle of (id, duration_s, caption)
    clips, each record built as its group closes."""
    if n_frames < 1:
        raise ParameterError(f"sample count must be >= 1, got {n_frames}")
    if not pool:
        raise ParameterError("clip pool is empty")
    if not (MIN_DURATION_S <= min_s <= max_s <= MAX_DURATION_S):
        raise ParameterError(
            f"packing window [{min_s}, {max_s}] must lie within "
            f"[{MIN_DURATION_S:.0f}, {MAX_DURATION_S:.0f}]"
        )
    rng = np.random.default_rng(seed)
    shuffled = [pool[i] for i in rng.permutation(len(pool))]
    records = []

    def close(group, total):
        if total >= min_s:
            records.append(build_record(group, n_frames=n_frames))
        elif group:
            logger.warning("dropping group of %d clips (%.1fs < %.0fs minimum)",
                           len(group), total, min_s)

    group, total = [], 0.0
    for clip in shuffled:
        clip_id, duration, _ = clip
        if duration >= max_s:
            logger.warning("skipping clip %r: %.1fs is not below max %.1fs",
                           clip_id, duration, max_s)
            continue
        if total + duration > max_s:
            close(group, total)
            group, total = [], 0.0
        group.append(clip)
        total += duration
    close(group, total)
    return records


def dataset_stats(records):
    """The summary of record dicts, each word count taken by str.split()."""
    if not records:
        raise ParameterError("no records produced; nothing to summarize")
    return summarize([r["total_duration_s"] for r in records],
                     [len(r["merged_caption"].split()) for r in records])


def summarize(durations, words):
    """The summary by README's rule: 25 bins of 60 s from 300 to 1,800 s,
    and bins of 200 words from 0 up to the first multiple of 200 at or
    above the largest count (one bin when it is 0). A value counts in the
    bin with lo <= value < hi; one equal to the last bin's hi counts in it."""
    edges = range(300, 1801, 60)
    duration_counts = [0] * 25
    for d in durations:
        if 300 <= d <= 1800:
            duration_counts[min(24, bisect.bisect_right(edges, d) - 1)] += 1
    n_bins = max(1, math.ceil(max(words) / 200))
    word_counts = [0] * n_bins
    for w in words:
        word_counts[min(n_bins - 1, w // 200)] += 1
    return {
        "count": len(durations),
        "mean_duration_s": sum(durations) / len(durations),
        "mean_caption_words": sum(words) / len(words),
        "duration_hist": [{"lo": float(lo), "hi": float(lo + 60), "count": count}
                          for lo, count in zip(edges, duration_counts)],
        "caption_words_hist": [{"lo": 200 * b, "hi": 200 * (b + 1), "count": count}
                               for b, count in enumerate(word_counts)],
    }


def clip_pool(manifest_entries):
    """The (id, duration_s, caption) clips of parsed manifest entries."""
    return [(e["id"], float(e["duration"]), e["caption"]) for e in manifest_entries]

