"""Scene selection over representative frame features.

Two routes to k scenes of r+1 frames each: Lloyd clustering with
similarity-ranked historical supplements, and a bipartite-matching
alternative over evenly split segments. Both retain exactly k*(r+1)
frames on feasible inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import ParameterError, _check_array, _check_count, _check_real, _check_seed
from .features import FrameFeatures
from .parallel import _run_units

SUPPLEMENT_MODES = ("similar", "dissimilar")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Scene:
    """One scene: a representative frame plus its supplement frames."""

    representative: int
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(_check_count("scene member", m, 0) for m in self.members)
        representative = _check_count("representative", self.representative, 0)
        if any(b <= a for a, b in zip(members, members[1:])):
            raise ParameterError(f"scene members must be strictly increasing: {members}")
        if representative not in members:
            raise ParameterError(f"representative {representative} not among members {members}")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "representative", representative)


@dataclass(frozen=True)
class SceneSet:
    """k disjoint scenes ordered chronologically by representative frame."""

    scenes: tuple[Scene, ...]
    r: int
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "r", _check_count("r", self.r, 0))
        scenes = tuple(self.scenes)
        reps = [s.representative for s in scenes]
        if any(b <= a for a, b in zip(reps, reps[1:])):
            raise ParameterError("scenes must be ordered by representative index")
        seen: set[int] = set()
        for scene in scenes:
            if len(scene.members) != self.r + 1:
                raise ParameterError(
                    f"scene at {scene.representative} has {len(scene.members)} members, "
                    f"expected {self.r + 1}"
                )
            overlap = seen.intersection(scene.members)
            if overlap:
                raise ParameterError(f"frames {sorted(overlap)} appear in two scenes")
            seen.update(scene.members)
        object.__setattr__(self, "scenes", scenes)
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def k(self) -> int:
        return len(self.scenes)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "r": self.r,
            "scenes": [
                {"representative": s.representative, "members": list(s.members)}
                for s in self.scenes
            ],
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True, eq=False)
class Clustering:
    """Result of Lloyd iterations: centers, assignments, the objective, and
    whether the last iteration moved every center by less than tol."""

    centers: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations_run: int
    converged: bool = False


def representative_features(features: FrameFeatures) -> np.ndarray:
    """Mean of each frame's patch tokens, shape (n_frames, dim), float64.

    The frames are averaged in units of ``parallel.UNIT_BYTES`` (at least
    one frame) on the W workers that ``parallel._run_units`` works out
    (README "Workers").
    Each frame's mean is taken on its own, so the result does not depend on
    the units or the workers.
    """
    data = features.data
    n_frames, n_patches, dim = data.shape
    out = np.empty((n_frames, dim))
    rows = max(1, parallel.UNIT_BYTES // (n_patches * dim * data.itemsize))
    units = [(data[start:start + rows], out[start:start + rows])
             for start in range(0, n_frames, rows)]
    _run_units(lambda: _frame_means, units)
    return out


def _frame_means(frames: np.ndarray, out: np.ndarray) -> None:
    np.mean(frames, axis=1, dtype=np.float64, out=out)


def pairwise_sqdist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances between float64 rows.

    Uses the direct form sum((p - c)**2), which cannot round below zero,
    a block of rows at a time so that its (rows, m, dim) temporary, at
    least one row, stays within the L2 block ``parallel.CACHE_BYTES``
    however large n, m and dim grow. Each row's result does not depend on
    the blocking.
    """
    n, dim = points.shape
    m = centers.shape[0]
    out = np.empty((n, m))
    rows = max(1, parallel.CACHE_BYTES // (m * dim * 8))
    for start in range(0, n, rows):
        diff = points[start:start + rows, None, :] - centers[None, :, :]
        np.square(diff, out=diff)
        diff.sum(axis=-1, out=out[start:start + rows])
    return out


def _expanded_bounds(points: np.ndarray, pp: np.ndarray,
                     centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each (n, m): bounds on every direct-form squared distance.

    *pp* holds the points' squared norms. The expanded form
    ||p||^2 - 2 p.c + ||c||^2 costs one matrix product, and each entry lies
    within ``err = 2 gamma_(dim+8) (||p|| + ||c||)^2 + 8 (dim+8) eta`` of
    the direct form sum((p - c)**2), with gamma_n = n u / (1 - n u), u the
    unit roundoff and eta the smallest subnormal: each form is within
    gamma_(dim+2) (||p|| + ||c||)^2 of the exact distance (the standard
    dot-product forward bound, Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1), the larger gamma index covers the rounding
    of err and of the callers' comparisons, and the eta term covers
    products that underflow. So ``lo <= direct <= hi`` wherever both
    bounds are finite; entries that overflow are infinite or NaN.
    """
    dim = points.shape[1]
    u = np.finfo(np.float64).eps / 2
    gamma = (dim + 8) * u / (1 - (dim + 8) * u)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        cc = np.einsum("ij,ij->i", centers, centers)
        lo = points @ centers.T
        lo *= -2.0
        lo += pp[:, None]
        lo += cc[None, :]
        err = np.sqrt(pp)[:, None] + np.sqrt(cc)[None, :]
        np.square(err, out=err)
        err *= 2 * gamma
        err += 8 * (dim + 8) * np.finfo(np.float64).smallest_subnormal
        hi = lo + err
        lo -= err
    return lo, hi


def _nearest(points: np.ndarray, centers: np.ndarray,
             pp: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Each point's nearest center (ties to the lowest index), and how many
    rows the bound left to the direct form. *pp* holds the points' squared
    norms, computed here when the caller does not pass them.

    A row is settled when one center alone satisfies ``lo <= min(hi)``.
    Every other row, including any whose bounds overflow or are NaN, is
    recomputed in the direct form against the union of the ambiguous rows'
    candidate columns (those with ``lo <= min(hi)``), or against every
    center when a bound is not finite. A column outside a row's candidates
    is strictly farther than that row's nearest center, so the argmin and
    its ties are those of the full direct-form matrix.
    """
    if pp is None:
        pp = np.einsum("ij,ij->i", points, points)
    lo, hi = _expanded_bounds(points, pp, centers)
    with np.errstate(invalid="ignore"):
        candidates = lo <= hi.min(axis=1, keepdims=True)
    finite = np.isfinite(hi).all(axis=1)
    assign = hi.argmin(axis=1)
    rows = np.flatnonzero((candidates.sum(axis=1) != 1) | ~finite)
    if rows.size:
        if finite[rows].all():
            cols = np.flatnonzero(candidates[rows].any(axis=0))
        else:
            cols = np.arange(centers.shape[0])
        assign[rows] = cols[pairwise_sqdist(points[rows], centers[cols]).argmin(axis=1)]
    return assign, int(rows.size)


def _own_sqdist(points: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    # direct-form distance of each point to its assigned center, a block of
    # rows at a time like pairwise_sqdist
    n, dim = points.shape
    own_d2 = np.empty(n)
    step = max(1, parallel.CACHE_BYTES // (dim * 8))
    for start in range(0, n, step):
        diff = points[start:start + step] - centers[assign[start:start + step]]
        np.square(diff, out=diff)
        diff.sum(axis=1, out=own_d2[start:start + step])
    return own_d2


def nearest_centers(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float64 point's nearest center and its squared distance to it.

    Returns ``(assign, own_d2)``, bit-identical to
    ``d2 = pairwise_sqdist(points, centers)``, ``d2.argmin(axis=1)`` (ties
    to the lowest center index) and ``d2[i, assign[i]]``, without the
    n*m*dim direct-form sweep. Centers are ranked by the expanded form,
    one matrix product, whose rounding bound (see _expanded_bounds)
    settles most rows; the others are recomputed in the direct form
    against their candidate centers only. The own distances are
    recomputed in the direct form a block of rows at a time, like
    pairwise_sqdist.
    """
    assign, _ = _nearest(points, centers)
    return assign, _own_sqdist(points, centers, assign)


def _init_center_indices(reps: np.ndarray, m: int, rng: np.random.Generator,
                         pp: np.ndarray | None = None) -> tuple[list[int], int]:
    """k-means++ seeding over data rows (Arthur and Vassilvitskii, SODA
    2007): always m distinct rows. Also returns how many row-center pairs
    were recomputed in the direct form. *pp* holds the rows' squared norms,
    computed here when the caller does not pass them.

    Each row's d2 stays bit-identical to the minimum of its direct-form
    distances to the chosen rows, so the sampling probabilities are too: a
    new center changes d2 only where the expanded-form bound cannot show
    it is farther (``lo > d2``, both bounds finite), and only those rows
    are recomputed in the direct form.
    """
    n = reps.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = pairwise_sqdist(reps, reps[chosen[0]:chosen[0] + 1])[:, 0]
    if pp is None:
        pp = np.einsum("ij,ij->i", reps, reps)
    rechecked = 0
    while len(chosen) < m:
        total = float(d2.sum())
        if total <= 0.0:
            # remaining rows duplicate chosen centers; take unused rows in order
            used = set(chosen)
            chosen.extend(i for i in range(n) if i not in used)
            return chosen[:m], rechecked
        nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        lo, hi = _expanded_bounds(reps, pp, reps[nxt:nxt + 1])
        rows = np.flatnonzero(~((lo[:, 0] > d2) & np.isfinite(hi[:, 0])))
        rechecked += rows.size
        diff = reps[rows]
        diff -= reps[nxt]
        np.square(diff, out=diff)
        d2[rows] = np.minimum(d2[rows], diff.sum(axis=1))
        del diff  # free it before the next center copies its rows
    return chosen, rechecked


def kmeans(
    reps: np.ndarray,
    m: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
) -> Clustering:
    """Lloyd clustering of representative features into *m* clusters.

    Deterministic given *seed*. Iterates assignment and mean-update steps
    until the largest center displacement drops below *tol* or *max_iters*
    is reached; a cluster that empties is re-seeded at the point farthest
    from its assigned center. Returned assignments are consistent with the
    returned centers (ties break to the lowest center index). Rows whose
    sums or squared distances could overflow float64 are rejected. Logs
    one DEBUG line to ``framefuse.select``: m, iterations, convergence,
    inertia and the rows that seeding and the nearest-center searches
    recomputed in the direct form.
    """
    reps = _check_array("representative features", reps, np.float64, 2)
    n = reps.shape[0]
    m = _check_count("cluster count", m)
    if not 1 <= m <= n:
        raise ParameterError(f"cluster count {m} outside [1, {n}]")
    max_iters = _check_count("max_iters", max_iters, 1)
    tol = _check_real("tol", tol, 0)
    _check_seed(seed)

    rng = np.random.default_rng(seed)
    pp = np.einsum("ij,ij->i", reps, reps)  # the rows' squared norms, for every search
    # k-means sums rows, and squared distances from rows to centers: means,
    # in the rows' box give or take n * eps * max|value| a coordinate. So
    # reject rows for which n * max|value| or n times that box's squared
    # diagonal (or 4n times the largest squared norm, the cheap bound tried
    # first) passes half the float64 range: every such sum stays finite.
    limit = np.finfo(np.float64).max / 2
    with np.errstate(over="ignore"):
        if not 4 * n * pp.max() <= limit:
            hi, lo = reps.max(axis=0), reps.min(axis=0)
            size = n * max(hi.max(), -lo.min())
            if not max(size, n * np.square(hi - lo + np.finfo(float).eps * size).sum()) <= limit:
                raise ParameterError("representative features too large for k-means: sums of "
                                     "their values or squared distances could overflow float64")
    chosen, seed_rechecked = _init_center_indices(reps, m, rng, pp)
    centers = reps[chosen].copy()
    iterations = 0
    converged = False
    search_rechecked = 0
    for _ in range(max_iters):
        assign, rechecked = _nearest(reps, centers, pp)
        search_rechecked += rechecked
        new_centers = centers.copy()
        counts = np.bincount(assign, minlength=m)
        for j in range(m):
            if counts[j]:
                new_centers[j] = reps[assign == j].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            own_d2 = _own_sqdist(reps, centers, assign)
            for j in empties:
                far = int(own_d2.argmax())
                new_centers[j] = reps[far]
                own_d2[far] = -1.0
        iterations += 1
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < tol:
            converged = True
            break

    assign, rechecked = _nearest(reps, centers, pp)
    search_rechecked += rechecked
    inertia = float(_own_sqdist(reps, centers, assign).sum())
    logger.debug(
        "kmeans n=%d m=%d iterations=%d converged=%s inertia=%r "
        "seeding_rechecked=%d search_rechecked=%d",
        n, m, iterations, converged, inertia, seed_rechecked, search_rechecked,
    )
    return Clustering(centers=centers, assignments=assign, inertia=inertia,
                      iterations_run=iterations, converged=converged)


def _distinct_representatives(reps: np.ndarray, centers: np.ndarray) -> list[int]:
    """One distinct frame per center, sorted ascending.

    Each center in turn takes its nearest frame. A center whose nearest
    frame an earlier center already took computes its own direct-form
    column and takes the nearest unused frame (ties to the lowest index).
    """
    nearest, _ = _nearest(centers, reps)
    taken = np.zeros(reps.shape[0], dtype=bool)
    out = []
    for j, i in enumerate(nearest):
        if taken[i]:
            free = np.flatnonzero(~taken)
            i = free[pairwise_sqdist(reps[free], centers[j:j + 1]).argmin()]
        taken[i] = True
        out.append(int(i))
    return sorted(out)


def _similarity_ranked(reps: np.ndarray, anchor: int, candidates: list[int],
                       mode: str) -> list[int]:
    """Candidates ranked by cosine similarity to the anchor frame.

    ``similar`` ranks best-first, ``dissimilar`` worst-first; ties break to
    the earlier frame index. Norms are clamped at 1e-12, as in bsm
    selection, so a zero vector has similarity 0 to every frame; the
    ranking of vectors with larger norms does not change.
    """
    if not candidates:
        return []
    anchor_vec = reps[anchor]
    na = max(np.linalg.norm(anchor_vec), 1e-12)
    cand = np.asarray(candidates)
    vecs = reps[cand]
    norms = np.maximum(np.linalg.norm(vecs, axis=1), 1e-12)
    sims = (vecs @ anchor_vec) / (norms * na)
    key = -sims if mode == "similar" else sims
    order = np.lexsort((cand, key))
    return [int(cand[t]) for t in order]


def select_supplements(
    reps: np.ndarray,
    rep_indices: list[int],
    r: int,
    mode: str = "similar",
) -> SceneSet:
    """Grow each representative into a scene of r+1 frames.

    Candidates come from the history window between consecutive
    representatives, ranked by cosine similarity to the scene's
    representative. When a window runs short the scene is padded, first
    from the span up to the next representative, then from any remaining
    unused frames; padded scenes are reported in the warnings.

    Trusts what :func:`select_scenes_kmeans` checks: float64 *reps*, sorted
    unique *rep_indices* in range, room for their scenes, a known *mode*.
    """
    n = reps.shape[0]
    rep_list = [int(i) for i in rep_indices]
    taken = set(rep_list)
    warnings: list[str] = []
    scenes = []
    for i, rep in enumerate(rep_list):
        lo = rep_list[i - 1] if i > 0 else -1
        hi = rep_list[i + 1] if i + 1 < len(rep_list) else n
        history = [j for j in range(lo + 1, rep) if j not in taken]
        chosen = _similarity_ranked(reps, rep, history, mode)[:r]
        if len(chosen) < r:
            forward = [j for j in range(rep + 1, hi) if j not in taken]
            chosen += _similarity_ranked(reps, rep, forward, mode)[: r - len(chosen)]
            warnings.append(
                f"scene at frame {rep}: history window has only {len(history)} "
                f"candidates for r={r}; padded from nearby frames"
            )
        if len(chosen) < r:
            pool = [j for j in range(n) if j not in taken and j not in chosen]
            chosen += _similarity_ranked(reps, rep, pool, mode)[: r - len(chosen)]
        taken.update(chosen)
        scenes.append(Scene(representative=rep, members=tuple(sorted(chosen + [rep]))))
    return SceneSet(scenes=tuple(scenes), r=r, warnings=tuple(warnings))


def _check_scene_budget(n: int, k: int, r: int) -> None:
    """Reject a k, r pair that cannot give k disjoint scenes of r+1 of n frames."""
    _check_count("scene count k", k, 1)
    _check_count("supplement count r", r, 0)
    if k * (r + 1) > n:
        raise ParameterError(
            f"cannot form {k} disjoint scenes of {r + 1} frames from {n} frames"
        )


def select_scenes_kmeans(
    features: FrameFeatures,
    k: int,
    r: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
    mode: str = "similar",
) -> SceneSet:
    """Cluster representative features and grow each center into a scene.
    *k*, *r* and *mode* are checked before any work, the rest by :func:`kmeans`."""
    _check_scene_budget(features.n_frames, k, r)
    if mode not in SUPPLEMENT_MODES:
        raise ParameterError(f"unknown supplement mode {mode!r}, expected {SUPPLEMENT_MODES}")
    reps = representative_features(features)
    clustering = kmeans(reps, k, max_iters=max_iters, tol=tol, seed=seed)
    rep_idx = _distinct_representatives(reps, clustering.centers)
    return select_supplements(reps, rep_idx, r, mode=mode)


def _segment_members(reps: np.ndarray, segment: np.ndarray, want: int) -> list[int]:
    """Pick *want* frames of one segment by ranked cross-partition similarity."""
    frames_a = segment[0::2]
    frames_b = segment[1::2]
    picked: list[int] = []
    if frames_b.size:
        vecs = reps[segment]
        unit = vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        unit_a = unit[0::2]
        unit_b = unit[1::2]
        scores = unit_a @ unit_b.T
        ai, bi = np.unravel_index(np.arange(scores.size), scores.shape)
        order = np.lexsort((bi, ai, -scores.ravel()))
        seen: set[int] = set()
        for t in order:
            for frame in (int(frames_a[ai[t]]), int(frames_b[bi[t]])):
                if frame not in seen:
                    seen.add(frame)
                    picked.append(frame)
            if len(picked) >= want:
                break
    if len(picked) > want:
        picked = picked[:want]
    if len(picked) < want:
        have = set(picked)
        for frame in segment:
            if int(frame) not in have:
                picked.append(int(frame))
                if len(picked) == want:
                    break
    return sorted(picked)


def select_scenes_bsm(features: FrameFeatures, k: int, r: int) -> SceneSet:
    """Alternative selection: split frames into k even segments and keep,
    per segment, the r+1 frames touched by the most similar cross-partition
    pairs (segment frames alternate between the two partitions)."""
    n = features.n_frames
    _check_scene_budget(n, k, r)
    reps = representative_features(features)
    scenes = []
    for segment in np.array_split(np.arange(n), k):
        members = _segment_members(reps, segment, r + 1)
        scenes.append(
            Scene(representative=members[len(members) // 2], members=tuple(members))
        )
    return SceneSet(scenes=tuple(scenes), r=r, warnings=())
