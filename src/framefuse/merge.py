"""Strategies for collapsing a scene's frames into a single feature map.

A scene tensor has shape (s, n_patches, dim): the stacked feature maps of
one scene's s frames. Every strategy returns an (n_patches, dim) map.

Each strategy has one implementation, called through :func:`merge_scenes`,
which merges k scenes given as a frame tensor and a (k, s) table of member
indices and trusts its input to be finite. :func:`merge_scene` checks one
scene from outside and calls it with the members arange(s). A seed is
the one source of attnpool's projections, ``attn_projections(dim, seed)``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import parallel
from .errors import ParameterError, _check_array, _check_count, _check_real, _check_seed
from .parallel import _run_units

STRATEGIES = ("tavg", "fusion", "attnpool", "bsm")

# Bytes of a float64 frame below which a merge runs on one worker. Each
# numpy call on a small frame takes a few microseconds, and handing the
# interpreter lock between workers costs more than a second CPU gives back:
# at 48 scenes of 3 frames of 16x1024 (128 KiB) two workers took bsm from
# 25 to 36 ms, while from 32x1024 (256 KiB) up every strategy ran faster
# (1.13-1.42x; 1.7-2.1x at 144x1024).
THREAD_MIN_FRAME_BYTES = 256 * 2**10


def _as_scene(scene) -> np.ndarray:
    return _check_array("scene", scene, None, 3)


def fusion_weights_for(strategy: str, weights: np.ndarray | None,
                       scene_shape: tuple[int, ...]) -> np.ndarray | None:
    """*weights* as float64 for merging (s, n_patches, dim) scenes with
    *strategy*, or None. Only fusion reads weights, so weights given for
    another strategy are rejected rather than ignored."""
    if weights is None:
        return None
    if strategy != "fusion":
        raise ParameterError(f"weights apply only to fusion merging, not {strategy!r}")
    weights = _check_array("weights", weights, np.float64, len(scene_shape))
    if weights.shape != tuple(scene_shape):
        raise ParameterError(
            f"weights shape {weights.shape} does not match scene shape {tuple(scene_shape)}"
        )
    return weights


def fit_fusion_weights(
    scenes: list[np.ndarray],
    targets: list[np.ndarray],
    lr: float,
    steps: int,
) -> tuple[np.ndarray, list[float]]:
    """Fit fusion weights to (scene, target) pairs by gradient descent.

    The loss is the mean over scenes of the half squared error
    0.5 * ||merge_scene(scene, "fusion", w) - target||^2. Starts from the
    uniform weights 1/s, at which fusion is temporal averaging, and returns
    the best iterate seen with the loss before the first step and after
    each one; with a stable learning rate (at most 1 over the largest
    per-coordinate sum of squared frame values) the loss is non-increasing
    and the best iterate is the last.

    *scenes* (c, s, n_patches, dim) and *targets* (c, n_patches, dim) may
    each be a list, a nested list or one array. Each is checked once, as
    one stack, by the array rule (integer or float values, every one
    finite), kept in its own dtype (float64 if wider) and read as float64
    as it is used. Each step takes the float64 residuals from one
    :func:`merge_scenes` call and the gradient residual * frame a scene at
    a time, summed in scene order: no stack-sized temporary.
    """
    lr = _check_real("learning rate", lr, 0, strict=True)
    steps = _check_count("steps", steps, 0)
    x = _check_array("scenes", scenes, None, 4)
    t = _check_array("targets", targets, None, 3)
    n, s, n_patches, dim = x.shape
    if t.shape != (n, n_patches, dim):
        raise ParameterError(f"targets shape {t.shape} does not match scenes shape {x.shape}")

    frames, members = x.reshape(-1, n_patches, dim), np.arange(n * s).reshape(n, s)
    resid = np.empty(t.shape)  # float64; each step's residuals overwrite the last step's

    def loss_at(w):
        merge_scenes(frames, members, "fusion", resid, w)
        np.subtract(resid, t, out=resid)
        # each scene's error is summed on its own, then added in scene order
        return sum(0.5 * float((r * r).sum()) for r in resid) / n

    def gradient():
        # n * dloss/dw: the sum of each scene's (L, D) residual times its frames
        grad = resid[0] * x[0]
        for i in range(1, n):
            grad += resid[i] * x[i]
        return grad

    w = np.full((s, n_patches, dim), 1.0 / s)
    best_loss = loss_at(w)
    best_w = w
    history = [best_loss]
    for _ in range(steps):
        w = w - (lr / n) * gradient()
        loss = loss_at(w)
        history.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_w = w
    return best_w, history


class AttnProjections(NamedTuple):
    """Read-only query/key projection matrices for attention pooling."""

    wq: np.ndarray
    wk: np.ndarray


def attn_projections(dim: int, seed: int = 0) -> AttnProjections:
    """Xavier-uniform (dim, dim) projections, deterministic given the seed.

    Each call builds fresh matrices, read-only, and keeps none of them.
    """
    dim = _check_count("dim", dim, 1)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    bound = math.sqrt(6.0 / (dim + dim))
    wq = rng.uniform(-bound, bound, size=(dim, dim))
    wk = rng.uniform(-bound, bound, size=(dim, dim))
    wq.flags.writeable = False
    wk.flags.writeable = False
    return AttnProjections(wq, wk)


# The product of one (dim, seed) is reused across merges; at dim 1024 it is
# 8 MiB, so keep only the last, and not the wq and wk it came from. Only
# seeds that passed the seed rule reach it.
@functools.lru_cache(maxsize=1)
def _attn_qk(dim: int, seed: int) -> np.ndarray:
    """The read-only wq @ wk.T of ``attn_projections(dim, seed)``: the score
    of frame x against query q, (q @ wq) . (x @ wk), regrouped as
    (q @ qk) . x."""
    wq, wk = attn_projections(dim, seed)
    qk = wq @ wk.T
    qk.flags.writeable = False
    return qk


# Each strategy allocates one worker's buffers and returns that worker's
# merge(scene, row): it merges the frames of one scene, a row of member
# indices, into its output row, reading frames by index and writing
# nothing else.
def _tavg(frames, s):
    acc = np.empty(frames.shape[1:])

    def merge(scene, row):
        # the first frame plus +0.0, as numpy's mean starts from +0.0: a
        # column of -0.0 frames averages to +0.0
        np.add(frames[scene[0]], 0.0, out=acc)
        for f in scene[1:]:
            np.add(acc, frames[f], out=acc)
        np.divide(acc, s, out=row)
    return merge


def _fusion(frames, s, weights):
    w = [np.float64(1.0 / s)] * s if weights is None else weights
    acc, prod = np.empty((2, *frames.shape[1:]))

    def merge(scene, row):
        np.multiply(frames[scene[0]], w[0], out=acc)
        np.add(acc, 0.0, out=acc)  # as numpy's sum adds to a +0.0 start
        for f, w_f in zip(scene[1:], w[1:]):
            np.multiply(frames[f], w_f, out=prod)
            np.add(acc, prod, out=acc)
        row[...] = acc
    return merge


def _attnpool(frames, s, qk):
    # The middle frame's projected features, z, score every frame of the
    # scene buffer x; once the scores are taken, z is free and holds the
    # pooled map until it is cast into its row.
    _, n_patches, dim = frames.shape
    x = np.empty((s, n_patches, dim))
    z = np.empty((n_patches, dim))
    scale = math.sqrt(dim)

    def merge(scene, row):
        for j, f in enumerate(scene):
            x[j] = frames[f]
        np.matmul(x[s // 2], qk, out=z)
        w = np.einsum("sld,ld->sl", x, z) / scale
        w -= w.max(axis=0)
        np.exp(w, out=w)
        w /= w.sum(axis=0)
        row[...] = np.einsum("sl,sld->ld", w, x, out=z)
    return merge


def _bsm(frames, s):
    _, n_patches, dim = frames.shape
    unit = np.empty((s * n_patches, dim))
    spare = np.empty((-(-s * n_patches // 2), dim))
    return functools.partial(_pair_merge, frames, unit, spare)


def _pair_merge(frames: np.ndarray, unit: np.ndarray, spare: np.ndarray, scene: np.ndarray,
                out: np.ndarray) -> None:
    # bsm rounds on the t0 = s * L tokens of the trusted frames[scene],
    # patch-major so that each patch's temporal copies alternate partitions:
    # token i is row i // s of frame scene[i % s]. They merge down to the
    # rows of out, in the order of the earliest original index each absorbed.
    # unit (t0, dim) and spare (ceil(t0 / 2), dim) are float64 work buffers.
    # A round's first t rows of unit hold its unit rows (round 1's tokens
    # before them), then the merged A tokens and the B tokens they touch.
    # Round 1 gathers from the frames, later rounds from the last round's
    # tokens, which alternate between spare and the upper floor(t0 / 2) rows
    # of unit: only round 2 has as many as ceil(t0 / 2), read from spare.
    s = len(scene)
    if s == 1:  # no round
        out[...] = frames[scene[0]]
        return
    t_cur = s * frames.shape[1]
    sizes = np.ones(t_cur)
    first = np.arange(t_cur)  # earliest original index absorbed by each token
    tok, other, cur = unit[spare.shape[0]:], spare, None  # cur is None in round 1

    def take(idx, dst):
        # the tokens idx of this round into dst; round 1 casts them from the
        # frames. mode="clip" because every index is in range and the
        # default mode buffers out
        if cur is None:
            dst[...] = frames[scene[idx % s], idx // s]
        else:
            np.take(cur, idx, axis=0, out=dst, mode="clip")
        return dst

    while t_cur > out.shape[0]:
        step = min(t_cur - out.shape[0], max(1, t_cur // 2))
        u = unit[:t_cur]
        if cur is None:  # frame j's tokens are the rows j::s
            for j, f in enumerate(scene):
                u[j::s] = frames[f]
        x = u if cur is None else cur
        # the same values as x / max(np.linalg.norm(x, axis=1), 1e-12); the
        # squares pass through other, which is free until the next round's
        # tokens are written, a block that stays in cache at a time
        sums = np.empty(t_cur)
        block = max(1, min(other.shape[0], parallel.CACHE_BYTES // unit[0].nbytes))
        for b0 in range(0, t_cur, block):
            rows = x[b0:b0 + block]
            sums[b0:b0 + block] = np.multiply(rows, rows, out=other[:len(rows)]).sum(axis=1)
        np.divide(x, np.maximum(np.sqrt(sums), 1e-12)[:, None], out=u)
        scores = u[0::2] @ u[1::2].T  # A rows (even) against B rows (odd)
        best_b = scores.argmax(axis=1)  # ties break to the lowest B position
        order = np.argsort(-scores[np.arange(best_b.size), best_b], kind="stable")
        merged, kept = order[:step], np.sort(order[step:])

        # Each touched B token becomes the size-weighted mean of itself and
        # the A tokens merged into it, summed in a fixed order: the B token,
        # then its A tokens best score first. The touched B tokens are
        # gathered into acc, those with the most A tokens first, and the A
        # tokens into contrib sorted by their rank within their B token, so
        # pass j adds one contiguous slice of contrib, the j-th A token of
        # every B token that has one, to a prefix of acc.
        dst = best_b[merged]
        counts = np.bincount(dst, minlength=t_cur // 2)
        touched = np.flatnonzero(counts)
        touched = touched[np.argsort(-counts[touched], kind="stable")]
        slot = np.empty(t_cur // 2, dtype=np.intp)
        slot[touched] = np.arange(touched.size)
        by_dst = np.argsort(dst, kind="stable")
        rank = np.empty(step, dtype=np.intp)
        rank[by_dst] = np.arange(step) - (np.cumsum(counts) - counts)[dst[by_dst]]
        src = 2 * merged[np.lexsort((slot[dst], rank))]
        b_rows = 2 * touched + 1
        contrib, acc = take(src, u[:step]), take(b_rows, u[step:step + touched.size])
        if cur is not None:  # every size is 1 in round 1
            acc *= sizes[b_rows, None]
            contrib *= sizes[src, None]
        lo = 0
        for m in np.bincount(rank):
            acc[:m] += contrib[lo:lo + m]
            lo += m
        new_sizes = sizes[1::2].copy()
        np.add.at(new_sizes, dst, sizes[2 * merged])
        acc /= new_sizes[touched, None]
        new_first = first[1::2].copy()
        np.minimum.at(new_first, dst, first[2 * merged])

        # the next round's tokens: the kept A tokens in order, then every B
        nxt = other[:kept.size + t_cur // 2]
        take(2 * kept, nxt[:kept.size])
        new_b = take(np.arange(1, t_cur, 2), nxt[kept.size:])
        new_b[touched] = acc
        sizes = np.concatenate([sizes[2 * kept], new_sizes])
        first = np.concatenate([first[2 * kept], new_first])
        tok, other = other, tok
        t_cur = nxt.shape[0]
        cur = tok[:t_cur]
    # reordered into the free first rows of unit, then cast into out
    out[...] = np.take(cur, np.argsort(first, kind="stable"), axis=0, out=unit[:t_cur],
                       mode="clip")


def merge_scenes(
    frames: np.ndarray,
    members: np.ndarray,
    strategy: str,
    out: np.ndarray,
    weights: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Merge scene i, the frames ``frames[members[i]]`` in member order,
    into ``out[i]`` with the named strategy, and return *out*.

    *frames* is (n, n_patches, dim), *members* a (k, s) table of frame
    indices and *out* a (k, n_patches, dim) float array.

    - ``tavg``: the unweighted mean over the scene's frames.
    - ``fusion``: the per-frame, per-patch, per-dim weighted sum over the
      frames, with *weights* or the uniform init 1/s.
    - ``attnpool``: the per-patch attention-weighted sum of the frames,
      scored through ``attn_projections(dim, seed)`` as their product
      wq @ wk.T, which stays cached, read-only, until another (dim, seed)
      merges. The middle frame's projected features act as the query and
      each frame's projected features as keys; the scaled per-patch scores
      are softmax-normalized over the frame axis, so each patch gets a
      convex combination.
    - ``bsm``: bipartite soft matching, after ToMe (Bolya et al., "Token
      Merging: Your ViT But Faster", ICLR 2023). The scene is flattened
      patch-major, so each patch's temporal copies land in alternating
      partitions, and its s*n_patches tokens are pair-merged down to
      n_patches. Each round splits the current tokens alternately into
      partitions A and B, matches every A token to its most similar B
      token (cosine on normalized tokens), and merges the highest-scoring
      matches as size-weighted averages, summing the sizes; at most half
      the current tokens merge per round. The tokens left are ordered by
      the earliest original index each absorbed and reshaped.

    Trusts its input: a strategy of STRATEGIES, finite frames of any
    integer or float dtype up to 8 bytes, indices in range, for ``fusion``
    float64 *weights* of shape (s, n_patches, dim) or None, and for
    ``attnpool`` an int *seed* that passed the seed rule.

    Each scene is a unit of work. W workers, the calling thread and W - 1
    threads, each take scenes in turn from one shared counter and write
    only those scenes' rows of *out*, so the output does not depend on W.
    Each worker reads its scenes' member frames by index into float64 work
    buffers of its own, allocated once per call, so memory grows with W but
    not with k. A worker's buffers hold one frame for ``tavg``, two for
    ``fusion``, and s + 1 for ``attnpool``: the scene, and its middle
    frame's projection, which then holds the pooled map. For ``bsm`` they
    are an (s*n_patches, dim) and a (ceil(s*n_patches / 2), dim) array,
    and a merge holds besides them its round-1 scores and at most
    s*n_patches // 2 tokens at a time, gathered in the frames' dtype.

    W is worked out, never set, by ``parallel._run_units`` (README
    "Workers"), and is 1 for a frame under THREAD_MIN_FRAME_BYTES of
    float64. A failure in any scene is raised here, after every worker has
    stopped: the first failure in scene order.
    """
    s = members.shape[1]
    _, n_patches, dim = frames.shape
    if strategy == "tavg":
        worker = functools.partial(_tavg, frames, s)
    elif strategy == "fusion":
        worker = functools.partial(_fusion, frames, s, weights)
    elif strategy == "attnpool":
        # built here, so that no two workers build it at once
        worker = functools.partial(_attnpool, frames, s, _attn_qk(dim, seed))
    else:
        worker = functools.partial(_bsm, frames, s)
    _run_units(worker, list(zip(members, out)),
               parallel=n_patches * dim * 8 >= THREAD_MIN_FRAME_BYTES)
    return out


def merge_scene(
    scene: np.ndarray,
    strategy: str,
    weights: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Collapse a scene (s, n_patches, dim) to one (n_patches, dim) float64
    map with a strategy of :func:`merge_scenes`.

    Every argument is checked once, here, whatever the strategy: the
    strategy must be one of STRATEGIES, *seed* must pass the seed rule, and
    the scene must hold integer or float values, rank 3, every dim at least
    1, every value finite. *weights* apply only to ``fusion``, are checked
    the same way and must have the scene's shape; given for another
    strategy they would be ignored, so they are rejected.
    """
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown merge strategy {strategy!r}, expected one of {STRATEGIES}")
    seed = _check_seed(seed)
    scene = _as_scene(scene)
    s, n_patches, dim = scene.shape
    weights = fusion_weights_for(strategy, weights, scene.shape)
    out = np.empty((1, n_patches, dim))
    return merge_scenes(scene, np.arange(s)[None], strategy, out, weights, seed)[0]
