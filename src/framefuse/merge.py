"""Strategies for collapsing a scene's frames into a single feature map.

A scene tensor has shape (s, n_patches, dim): the stacked feature maps of
one scene's s frames. Every strategy returns an (n_patches, dim) map.

Each strategy has one implementation, :func:`merge_scenes`, which runs over
a batch of scenes of shape (c, s, n_patches, dim) and trusts its input to be
finite. :func:`merge_scene` checks one scene from outside and calls it on a
batch of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

STRATEGIES = ("tavg", "fusion", "attnpool", "bsm")


def _as_scene(scene: np.ndarray) -> np.ndarray:
    scene = np.asarray(scene, dtype=np.float64)
    if scene.ndim != 3:
        raise ParameterError(f"scene tensor must be rank 3, got rank {scene.ndim}")
    if min(scene.shape) < 1:
        raise ParameterError(f"scene dims must be >= 1, got {scene.shape}")
    if not np.all(np.isfinite(scene)):
        raise ParameterError("scene tensor contains non-finite values")
    return scene


def fusion_weights_for(strategy: str, weights: np.ndarray | None,
                       scene_shape: tuple[int, ...]) -> np.ndarray | None:
    """*weights* as float64 for merging (s, n_patches, dim) scenes with
    *strategy*, or None. Only fusion reads weights, so weights given for
    another strategy are rejected rather than ignored."""
    if weights is None:
        return None
    if strategy != "fusion":
        raise ParameterError(f"weights apply only to fusion merging, not {strategy!r}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != tuple(scene_shape):
        raise ParameterError(
            f"weights shape {weights.shape} does not match scene shape {tuple(scene_shape)}"
        )
    return weights


def _weight_gradient(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    # the gradient of the fused output w.r.t. the weights, contracted with
    # the loss gradient at the output: x (..., s, L, D) and upstream
    # (..., L, D) give upstream times every frame
    return upstream[..., None, :, :] * x


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

    The scenes are checked once and copied into a (c, s, L, D) batch.
    Each step takes every residual from :func:`merge_scenes` and the
    gradient upstream * frame, both a scene at a time, the gradient summed
    in scene order, so that no temporary of the batch's size is built.
    """
    if not scenes or len(scenes) != len(targets):
        raise ParameterError("scenes and targets must be nonempty lists of equal length")
    if lr <= 0:
        raise ParameterError(f"learning rate must be > 0, got {lr}")
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")
    # check every input, holding one float64 copy of one of them at a time
    scene_shapes = [_as_scene(sc).shape for sc in scenes]
    target_shapes = [np.asarray(t, dtype=np.float64).shape for t in targets]
    shape = scene_shapes[0]
    for sc_shape, t_shape in zip(scene_shapes, target_shapes):
        if sc_shape != shape:
            raise ParameterError(f"scene shape {sc_shape} differs from {shape}")
        if t_shape != shape[1:]:
            raise ParameterError(f"target shape {t_shape} does not match {shape[1:]}")
    n = len(scenes)
    x, t = np.empty((n, *shape)), np.empty((n, *shape[1:]))
    for i in range(n):
        x[i], t[i] = scenes[i], targets[i]

    resid = np.empty_like(t)  # each step's residuals overwrite the last step's

    def loss_at(w):
        for i in range(n):
            resid[i] = merge_scenes(x[i:i + 1], "fusion", w)[0]
        np.subtract(resid, t, out=resid)
        # each scene's error is summed on its own, then added in scene order
        return sum(0.5 * float((r * r).sum()) for r in resid) / n

    def gradient():
        grad = _weight_gradient(x[0], resid[0])
        for i in range(1, n):
            grad += _weight_gradient(x[i], resid[i])
        return grad

    w = np.full(shape, 1.0 / shape[0])
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


@dataclass(frozen=True, eq=False)
class AttnProjections:
    """Query/key projection matrices for attention pooling.

    ``qk`` is computed from wq and wk on first use and kept, so the
    matrices must not change afterwards.
    """

    wq: np.ndarray
    wk: np.ndarray
    seed: int

    @functools.cached_property
    def qk(self) -> np.ndarray:
        """wq @ wk.T, read-only: the score of frame x against query q,
        (q @ wq) . (x @ wk), regrouped as (q @ qk) . x."""
        qk = self.wq @ self.wk.T
        qk.flags.writeable = False
        return qk


# Projections of one (dim, seed) are reused across calls; at dim 1024 one
# set holds three 8 MiB matrices (wq, wk and qk), so keep only the last.
@functools.lru_cache(maxsize=1)
def attn_projections(dim: int, seed: int = 0) -> AttnProjections:
    """Xavier-uniform (dim, dim) projections, deterministic given the seed.

    Repeated calls with the same arguments return the same object, whose
    matrices are read-only.
    """
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    bound = math.sqrt(6.0 / (dim + dim))
    wq = rng.uniform(-bound, bound, size=(dim, dim))
    wk = rng.uniform(-bound, bound, size=(dim, dim))
    wq.flags.writeable = False
    wk.flags.writeable = False
    return AttnProjections(wq=wq, wk=wk, seed=seed)


def _attention_weights(x: np.ndarray, qk: np.ndarray) -> np.ndarray:
    # x: (c, s, L, D) float64; returns (c, s, L) softmax weights over s
    c, s, n_patches, dim = x.shape
    z = np.ascontiguousarray(x[:, s // 2]).reshape(c * n_patches, dim) @ qk
    logits = np.einsum("csld,cld->csl", x, z.reshape(c, n_patches, dim)) / math.sqrt(dim)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _pair_merge(tok: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray]:
    # bsm rounds on trusted float64 tokens; returns (tokens, sizes)
    t0 = tok.shape[0]
    sizes = np.ones(t0, dtype=np.int64)
    first = np.arange(t0)  # earliest original index absorbed by each token
    remaining = t0 - target
    while remaining > 0:
        t_cur = tok.shape[0]
        step = min(remaining, max(1, t_cur // 2))
        a_idx = np.arange(0, t_cur, 2)
        b_idx = np.arange(1, t_cur, 2)
        # the same values as np.linalg.norm(tok, axis=1), without its copy
        norms = np.sqrt((tok * tok).sum(axis=1, keepdims=True))
        unit = tok / np.maximum(norms, 1e-12)
        scores = unit[0::2] @ unit[1::2].T  # rows a_idx against rows b_idx
        best_b = scores.argmax(axis=1)  # ties break to the lowest B position
        best_score = scores[np.arange(a_idx.size), best_b]
        order = np.argsort(-best_score, kind="stable")
        merged_a = order[:step]
        kept_a = np.sort(order[step:])

        # Each touched B token becomes the size-weighted mean of itself and
        # the A tokens merged into it, summed in a fixed order: the B token,
        # then its A tokens best score first. Pass j adds the j-th A token of
        # every group at once, so no pass has a repeated destination.
        by_dst = np.argsort(best_b[merged_a], kind="stable")
        src = a_idx[merged_a[by_dst]]
        dst = best_b[merged_a[by_dst]]
        touched, starts = np.unique(dst, return_index=True)
        group = np.searchsorted(touched, dst)
        rank = np.arange(dst.size) - starts[group]
        b_rows = b_idx[touched]
        weighted = tok[b_rows] * sizes[b_rows, None]
        contrib = tok[src] * sizes[src, None]
        for j in range(int(rank.max()) + 1):
            sel = rank == j
            weighted[group[sel]] += contrib[sel]
        new_sizes = sizes[b_idx]
        np.add.at(new_sizes, dst, sizes[src])
        new_first = first[b_idx]
        np.minimum.at(new_first, dst, first[src])
        new_tok = tok[b_idx]
        new_tok[touched] = weighted / new_sizes[touched, None]

        keep = a_idx[kept_a]
        tok = np.concatenate([tok[keep], new_tok])
        sizes = np.concatenate([sizes[keep], new_sizes])
        first = np.concatenate([first[keep], new_first])
        remaining -= step

    order = np.argsort(first, kind="stable")
    return tok[order], sizes[order]


def merge_scenes(
    batch: np.ndarray,
    strategy: str,
    weights: np.ndarray | None = None,
    proj: AttnProjections | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Merge a batch of scenes, shape (c, s, n_patches, dim), to (c,
    n_patches, dim) float64 with the named strategy.

    - ``tavg``: the unweighted mean over the scene's frames.
    - ``fusion``: the per-frame, per-patch, per-dim weighted sum over the
      frames, with *weights* or the uniform init 1/s.
    - ``attnpool``: the per-patch attention-weighted sum of the frames,
      with *proj* or seed-derived projections. The middle frame's projected
      features act as the query and each frame's projected features as
      keys; the scaled per-patch scores are softmax-normalized over the
      frame axis, so each patch gets a convex combination.
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

    Trusts its input: finite values of any float dtype and, for
    ``fusion``, float64 *weights* of shape (s, n_patches, dim) or None.
    ``tavg``, ``fusion`` and ``attnpool`` each run as one vectorised pass
    over the batch; ``bsm`` runs its matching rounds scene by scene.
    """
    c, s, n_patches, dim = batch.shape
    if strategy == "tavg":
        return batch.mean(axis=1, dtype=np.float64)
    if strategy == "fusion":
        w = np.float64(1.0 / s) if weights is None else weights
        return np.multiply(batch, w, dtype=np.float64).sum(axis=1)
    if strategy == "attnpool":
        if proj is None:
            proj = attn_projections(dim, seed)
        x = batch.astype(np.float64, copy=False)
        return np.einsum("csl,csld->cld", _attention_weights(x, proj.qk), x)
    if strategy == "bsm":
        out = np.empty((c, n_patches, dim))
        for i in range(c):
            # patch-major: each patch's temporal copies alternate partitions
            tokens = batch[i].transpose(1, 0, 2).astype(np.float64, order="C")
            out[i] = _pair_merge(tokens.reshape(s * n_patches, dim), n_patches)[0]
        return out
    raise ParameterError(f"unknown merge strategy {strategy!r}, expected one of {STRATEGIES}")


def merge_scene(
    scene: np.ndarray,
    strategy: str,
    weights: np.ndarray | None = None,
    proj: AttnProjections | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Collapse a scene (s, n_patches, dim) to one (n_patches, dim) float64
    map with a strategy of :func:`merge_scenes`.

    The scene is checked once: rank 3, every dim at least 1, every value
    finite. *weights* apply only to ``fusion`` and must have the scene's
    shape; *proj* applies only to ``attnpool``. Either one given for
    another strategy would be ignored, so it is rejected.
    """
    scene = _as_scene(scene)
    weights = fusion_weights_for(strategy, weights, scene.shape)
    if proj is not None and strategy != "attnpool":
        raise ParameterError(f"proj applies only to attnpool merging, not {strategy!r}")
    return merge_scenes(scene[None], strategy, weights, proj, seed)[0]
