"""Scene-selection tests: representative features, clustering, supplements,
and the bipartite-matching alternative."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from framefuse import (
    FrameFeatures,
    ParameterError,
    SceneSet,
    SyntheticSpec,
    generate_synthetic,
    kmeans,
    representative_features,
    select_scenes_bsm,
    select_scenes_kmeans,
)
from framefuse import parallel, select
from framefuse.select import Scene, nearest_centers, pairwise_sqdist, select_supplements


def scene_sizes(scene_set):
    return [len(s.members) for s in scene_set.scenes]


def test_representative_features_small():
    f = FrameFeatures(np.array([[[1.0, 3.0], [3.0, 5.0]]]))
    assert np.allclose(representative_features(f), [[2.0, 4.0]])


def test_representative_features_identical_patches():
    p = np.array([2.0, -1.0, 0.5], dtype=np.float32)
    f = FrameFeatures(np.stack([np.tile(p, (5, 1))]))
    assert np.allclose(representative_features(f)[0], p)


def test_representative_features_vs_float64_oracle():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((4, 8, 16)).astype(np.float32)
    f = FrameFeatures(data)
    got = representative_features(f)
    # independent mean with explicit 64-bit accumulation
    want = np.zeros((4, 16))
    for i in range(4):
        acc = np.zeros(16, dtype=np.float64)
        for j in range(8):
            acc += data[i, j].astype(np.float64)
        want[i] = acc / 8
    assert np.max(np.abs(got - want)) <= 1e-5


def test_kmeans_single_cluster_is_global_mean():
    rng = np.random.default_rng(0)
    reps = rng.standard_normal((10, 4))
    c = kmeans(reps, 1, seed=1)
    assert np.allclose(c.centers[0], reps.mean(axis=0))
    assert set(c.assignments) == {0}


def test_kmeans_two_planted_clouds():
    rng = np.random.default_rng(3)
    base = np.zeros(6), np.full(6, 5.0)
    pts = np.concatenate([
        base[0] + 0.05 * rng.standard_normal((20, 6)),
        base[1] + 0.05 * rng.standard_normal((20, 6)),
    ])
    c = kmeans(pts, 2, seed=4)
    cloud_means = pts[:20].mean(axis=0), pts[20:].mean(axis=0)
    # match centers to clouds by proximity, then check the planted labels
    order = np.argsort([np.linalg.norm(ctr) for ctr in c.centers])
    assert np.max(np.abs(c.centers[order[0]] - cloud_means[0])) <= 1e-3
    assert np.max(np.abs(c.centers[order[1]] - cloud_means[1])) <= 1e-3
    assert len(set(c.assignments[:20])) == 1
    assert len(set(c.assignments[20:])) == 1
    assert c.assignments[0] != c.assignments[-1]


def test_kmeans_m_equals_n_distinct_rows():
    rng = np.random.default_rng(5)
    reps = rng.standard_normal((7, 3))
    c = kmeans(reps, 7, seed=6)
    assert c.inertia == 0.0
    assert sorted(c.assignments) == list(range(7))


def test_kmeans_parameter_errors():
    reps = np.zeros((3, 2))
    with pytest.raises(ParameterError):
        kmeans(reps, 4)
    with pytest.raises(ParameterError):
        kmeans(reps, 0)


def test_kmeans_inertia_matches_recomputed_objective():
    rng = np.random.default_rng(8)
    reps = rng.standard_normal((40, 5))
    c = kmeans(reps, 4, seed=9)
    recomputed = sum(
        float(((reps[i] - c.centers[c.assignments[i]]) ** 2).sum()) for i in range(40)
    )
    assert abs(c.inertia - recomputed) <= 1e-5 * max(1.0, recomputed)


def test_kmeans_inertia_non_increasing_over_iterations():
    rng = np.random.default_rng(10)
    reps = rng.standard_normal((60, 4))
    inertias = [kmeans(reps, 5, max_iters=i, seed=11).inertia for i in range(1, 12)]
    assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))


def test_kmeans_dim_permutation_equivariance():
    rng = np.random.default_rng(12)
    reps = rng.standard_normal((30, 6))
    perm = rng.permutation(6)
    a = kmeans(reps, 3, seed=13)
    b = kmeans(reps[:, perm], 3, seed=13)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.allclose(a.centers[:, perm], b.centers, atol=1e-10)


def test_kmeans_uniform_scaling_invariance():
    rng = np.random.default_rng(14)
    reps = rng.standard_normal((25, 4))
    a = kmeans(reps, 3, seed=15)
    b = kmeans(reps * 4.0, 3, seed=15)  # power-of-two scale keeps floats exact
    assert np.array_equal(a.assignments, b.assignments)
    assert np.allclose(a.centers * 4.0, b.centers)


def test_representative_indices_zero_noise_blocks():
    spec = SyntheticSpec(n_frames=10, n_patches=3, dim=6, n_scenes=2, noise_sigma=0.0, seed=2)
    f = generate_synthetic(spec)
    reps = representative_features(f)
    labels = reference.planted_block_labels(spec)
    idx = select._distinct_representatives(reps, kmeans(reps, 2, seed=3).centers)
    assert len(idx) == 2
    assert {labels[i] for i in idx} == {0, 1}


def test_representative_indices_m1_exhaustive_scan():
    rng = np.random.default_rng(16)
    reps = rng.standard_normal((15, 5))
    c = kmeans(reps, 1, seed=17)
    idx = select._distinct_representatives(reps, c.centers)
    dists = ((reps - c.centers[0]) ** 2).sum(axis=1)
    assert idx == [int(dists.argmin())]


def test_representative_indices_tie_breaks_to_lowest():
    reps = np.ones((4, 3))
    c = kmeans(reps, 1, seed=18)
    assert select._distinct_representatives(reps, c.centers) == [0]


def test_supplements_r0():
    rng = np.random.default_rng(19)
    reps = rng.standard_normal((12, 4))
    ss = select_supplements(reps, [2, 7, 11], 0)
    assert scene_sizes(ss) == [1, 1, 1]
    assert [s.representative for s in ss.scenes] == [2, 7, 11]


def test_supplements_pick_identical_history_frame():
    rng = np.random.default_rng(20)
    reps = rng.standard_normal((8, 5))
    reps[3] = reps[5]  # frame 3 equals the representative at 5
    ss = select_supplements(reps, [5], 1)
    assert ss.scenes[0].members == (3, 5)


def test_supplements_full_scenes_with_ample_history():
    rng = np.random.default_rng(21)
    reps = rng.standard_normal((40, 6))
    ss = select_supplements(reps, [9, 19, 29, 39], 3)
    assert scene_sizes(ss) == [4, 4, 4, 4]
    assert ss.warnings == ()


def test_supplements_dissimilar_mode_picks_bottom():
    reps = np.array([
        [1.0, 0.0],
        [0.9, 0.1],
        [0.0, 1.0],
        [1.0, 0.05],
    ])
    top = select_supplements(reps, [3], 1, mode="similar")
    bottom = select_supplements(reps, [3], 1, mode="dissimilar")
    assert top.scenes[0].members == (0, 3)  # frame 0 is most similar to frame 3
    assert bottom.scenes[0].members == (2, 3)  # frame 2 is least similar


def test_supplements_break_similarity_ties_to_the_earlier_frame():
    # frames 1 and 3 are one vector, the most similar to the representative
    # at 5, and frames 0 and 4 another, the least similar; integer values
    # keep every dot product exact, so their scores tie
    reps = np.array([[-1, 0], [4, 2], [0, 1], [4, 2], [-1, 0], [2, 1]], dtype=np.float64)
    assert select_supplements(reps, [5], 1, mode="similar").scenes[0].members == (1, 5)
    assert select_supplements(reps, [5], 1, mode="dissimilar").scenes[0].members == (0, 5)


def test_supplements_pad_the_last_scene_forward_through_the_last_frame():
    # the scene at 4 has one free history frame, 3, and pads from 5 and 6,
    # the frames after it up to the end; frame 6 is the one like frame 4
    reps = np.array([[0, 1], [1, 1], [1, 2], [0, 1], [1, 0], [-1, 0], [1, 0]], dtype=np.float64)
    ss = select_supplements(reps, [2, 4], 2)
    assert [scene.members for scene in ss.scenes] == [(0, 1, 2), (3, 4, 6)]
    assert len(ss.warnings) == 1 and ss.warnings[0].startswith("scene at frame 4:")


def test_supplements_padding_warns():
    rng = np.random.default_rng(22)
    reps = rng.standard_normal((10, 4))
    # representative at 0 has no history; padding must reach forward
    ss = select_supplements(reps, [0], 3)
    assert scene_sizes(ss) == [4]
    assert len(ss.warnings) == 1


def test_select_scenes_kmeans_planted_blocks():
    spec = SyntheticSpec(n_frames=30, n_patches=4, dim=8, n_scenes=3, noise_sigma=0.1, seed=23)
    f = generate_synthetic(spec)
    labels = reference.planted_block_labels(spec)
    ss = select_scenes_kmeans(f, 3, 1, seed=24)
    for scene in ss.scenes:
        assert len({labels[m] for m in scene.members}) == 1


def test_select_scenes_kmeans_infeasible():
    f = FrameFeatures(np.random.default_rng(25).standard_normal((6, 2, 3)))
    with pytest.raises(ParameterError):
        select_scenes_kmeans(f, 3, 2)  # 3*3 > 6


def test_select_scenes_kmeans_k1_r_full_padded():
    # boundary case: k=1, r=N-1 is feasible but history is short; the scene
    # pads to all frames and reports a warning
    f = FrameFeatures(np.random.default_rng(26).standard_normal((6, 2, 3)))
    ss = select_scenes_kmeans(f, 1, 5, seed=27)
    assert scene_sizes(ss) == [6]
    assert ss.scenes[0].members == (0, 1, 2, 3, 4, 5)
    assert ss.warnings


def test_select_scenes_kmeans_96_8_3_counts():
    f = generate_synthetic(SyntheticSpec(96, 8, 16, 4, 0.1, seed=28))
    ss = select_scenes_kmeans(f, 8, 3, seed=29)
    assert ss.k == 8
    assert scene_sizes(ss) == [4] * 8
    assert len(reference.retained_indices(ss)) == 32


def test_bsm_identical_segment():
    f = FrameFeatures(np.ones((4, 2, 3)))
    ss = select_scenes_bsm(f, 1, 1)
    # all similarities equal; dedup keeps the top-ranked edge's endpoints
    assert ss.scenes[0].members == (0, 1)


def test_bsm_xxyy_hand_enumerated():
    # frames [x, x, y, y]: partition A holds frames 0,2 and B holds 1,3.
    # edges ranked by cosine: (0,1)=1.0, (2,3)=1.0, rest < 1; the top edge
    # gives the identical pair {0, 1}
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.6, 0.8, 0.0])
    data = np.stack([np.tile(v, (2, 1)) for v in (x, x, y, y)])
    ss = select_scenes_bsm(FrameFeatures(data), 1, 1)
    assert ss.scenes[0].members == (0, 1)


def test_bsm_96_8_3_counts():
    f = generate_synthetic(SyntheticSpec(96, 8, 16, 4, 0.1, seed=30))
    ss = select_scenes_bsm(f, 8, 3)
    assert ss.k == 8
    assert len(reference.retained_indices(ss)) == 32
    # members stay inside their contiguous segment
    for i, scene in enumerate(ss.scenes):
        assert all(12 * i <= m < 12 * (i + 1) for m in scene.members)


def test_both_methods_retain_same_count():
    f = generate_synthetic(SyntheticSpec(60, 4, 8, 5, 0.1, seed=31))
    a = select_scenes_kmeans(f, 6, 4, seed=32)
    b = select_scenes_bsm(f, 6, 4)
    assert len(reference.retained_indices(a)) == len(reference.retained_indices(b)) == 30


def test_scene_set_validation():
    with pytest.raises(ParameterError):
        Scene(representative=5, members=(1, 2))  # rep not a member
    with pytest.raises(ParameterError):
        Scene(representative=2, members=(2, 1))  # not increasing
    ok = Scene(representative=1, members=(1, 2))
    with pytest.raises(ParameterError):
        SceneSet(scenes=(ok, Scene(representative=2, members=(2, 3))), r=1)
    with pytest.raises(ParameterError):  # duplicated frame across scenes
        SceneSet(
            scenes=(ok, Scene(representative=3, members=(2, 3))), r=1
        )


def test_scene_set_json_schema_roundtrip():
    f = generate_synthetic(SyntheticSpec(20, 3, 6, 2, 0.1, seed=33))
    ss = select_scenes_kmeans(f, 2, 2, seed=34)
    doc = ss.to_dict()
    assert set(doc) == {"k", "r", "scenes", "warnings"}
    assert doc["k"] == 2 and doc["r"] == 2


def test_selection_scaling_invariance():
    f = generate_synthetic(SyntheticSpec(24, 3, 6, 3, 0.1, seed=35))
    scaled = FrameFeatures(f.data * 4.0)
    a = select_scenes_kmeans(f, 3, 2, seed=36)
    b = select_scenes_kmeans(scaled, 3, 2, seed=36)
    assert a.to_dict() == b.to_dict()
    assert select_scenes_bsm(f, 3, 2).to_dict() == select_scenes_bsm(scaled, 3, 2).to_dict()


def test_pairwise_sqdist_equals_direct_form():
    from reference import sqdist

    rng = np.random.default_rng(31)
    for n, m, dim in ((1, 1, 1), (7, 3, 5), (50, 8, 33), (200, 48, 64)):
        points = rng.standard_normal((n, dim))
        centers = rng.standard_normal((m, dim))
        want = sqdist(points, centers)
        assert pairwise_sqdist(points, centers).tobytes() == want.tobytes()
        # blocks of one row and blocks that do not divide n; the own
        # distances of nearest_centers take blocks of block_rows * m rows
        for block_rows in (1, 3):
            saved = parallel.CACHE_BYTES
            parallel.CACHE_BYTES = block_rows * m * dim * 8
            try:
                assert pairwise_sqdist(points, centers).tobytes() == want.tobytes()
                assign, own_d2 = nearest_centers(points, centers)
                assert own_d2.tobytes() == want[np.arange(n), assign].tobytes()
            finally:
                parallel.CACHE_BYTES = saved


def test_pairwise_sqdist_memory_bounded():
    import tracemalloc

    # the direct form's (n, m, dim) float64 temporary would be 1 GiB here
    n, m, dim = 2048, 64, 1024
    assert n * m * dim * 8 == 2**30
    rng = np.random.default_rng(32)
    points = rng.standard_normal((n, dim))
    centers = rng.standard_normal((m, dim))
    tracemalloc.start()
    try:
        d2 = pairwise_sqdist(points, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert d2.shape == (n, m)
    j = int(rng.integers(m))
    assert np.array_equal(d2[:, j], ((points - centers[j]) ** 2).sum(axis=1))


def test_kmeans_holds_less_than_its_input():
    import tracemalloc

    # the seeding's first distances are taken in L2 blocks, so no (n, dim)
    # float64 temporary, as large as the input, is built
    reps = representative_features(generate_synthetic(SyntheticSpec(1800, 4, 1024, 72, seed=1)))
    tracemalloc.start()
    try:
        kmeans(reps, 64, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * reps.nbytes, f"peak {peak / reps.nbytes:.3f} of the input"


def _rows(rng, n, dim, kind):
    """n float64 rows of one kind of input the distance code must get right."""
    if kind == "random":
        return rng.uniform(-4.0, 4.0, (n, dim))
    if kind == "duplicates":
        return rng.uniform(-4.0, 4.0, (max(1, n // 3), dim))[rng.integers(0, max(1, n // 3), n)]
    if kind == "ties":
        # small integers: many pairs of centers sit at exactly equal distances
        return rng.integers(-1, 2, (n, dim)).astype(np.float64)
    if kind == "all-zero":
        return np.zeros((n, dim))
    # a large common offset with tiny separations: the expanded form cancels
    return 1e4 + 1e-6 * rng.standard_normal((n, dim))


@st.composite
def nearest_cases(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return {
        "n": n, "m": m, "dim": draw(st.integers(1, 9)),
        "kind": draw(st.sampled_from(["random", "duplicates", "ties", "all-zero", "offset"])),
        "centers_from_points": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _direct_nearest(points, centers):
    d2 = reference.sqdist(points, centers)
    assign = d2.argmin(axis=1)
    return assign, d2[np.arange(points.shape[0]), assign]


@settings(max_examples=200, deadline=None)
@given(case=nearest_cases())
@example(case={"n": 6, "m": 6, "dim": 3, "kind": "ties", "centers_from_points": True, "seed": 1})
@example(case={"n": 9, "m": 1, "dim": 4, "kind": "offset", "centers_from_points": False,
               "seed": 2})
def test_nearest_centers_equals_direct_form(case):
    rng = np.random.default_rng(case["seed"])
    points = _rows(rng, case["n"], case["dim"], case["kind"])
    if case["centers_from_points"]:
        centers = points[rng.integers(0, case["n"], case["m"])]
    else:
        centers = _rows(rng, case["m"], case["dim"], case["kind"])
    want_assign, want_d2 = _direct_nearest(points, centers)
    assign, own_d2 = nearest_centers(points, centers)
    assert np.array_equal(assign, want_assign)
    assert own_d2.tobytes() == want_d2.tobytes()


def _assert_same_clustering(got, want):
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.assignments.tobytes() == want.assignments.tobytes()
    assert got.inertia == want.inertia
    assert got.iterations_run == want.iterations_run
    assert got.converged == want.converged


@settings(max_examples=120, deadline=None)
@given(case=nearest_cases(), max_iters=st.integers(1, 12))
@example(case={"n": 7, "m": 7, "dim": 2, "kind": "duplicates", "centers_from_points": False,
               "seed": 3}, max_iters=100)
@example(case={"n": 12, "m": 3, "dim": 5, "kind": "offset", "centers_from_points": False,
               "seed": 4}, max_iters=100)
def test_kmeans_equals_direct_form_oracle(case, max_iters):
    rng = np.random.default_rng(case["seed"])
    reps = _rows(rng, case["n"], case["dim"], case["kind"])
    got = kmeans(reps, case["m"], max_iters=max_iters, seed=case["seed"])
    want = reference.kmeans(reps, case["m"], max_iters=max_iters, seed=case["seed"])
    _assert_same_clustering(got, want)
    assert (select._distinct_representatives(reps, got.centers)
            == reference.distinct_representatives(reps, want.centers))


def test_nearest_centers_keeps_a_direct_form_tie_the_expanded_form_splits():
    # two centers an ulp apart: the point's direct-form distances to them
    # round equal, so the lower index is nearest, while the expanded form
    # errs by about 0.4 gamma (|p| + |c|)^2 and tells them apart; a bound of
    # a quarter gamma (|p| + |c|)^2 would settle the row on the other one
    points = np.array([[-0.19065013892763072]])
    centers = np.array([[0.3739698731595847], [0.3739698731595846]])
    d2 = pairwise_sqdist(points, centers)
    assert d2[0, 0] == d2[0, 1] and centers[0, 0] != centers[1, 0]
    assert nearest_centers(points, centers)[0].tolist() == [0]


def test_kmeans_stops_only_once_the_shift_is_below_tol():
    # one center seeded at 0 or 2 moves by exactly 1 to their mean, then by
    # 0: a shift equal to tol is not below it, so tol 1 stops after the
    # second step and tol 0 never stops early
    reps = np.array([[0.0], [2.0]])
    for tol, iterations, converged in ((1.0, 2, True), (0.0, 4, False)):
        got = kmeans(reps, 1, max_iters=4, tol=tol, seed=44)
        _assert_same_clustering(got, reference.kmeans(reps, 1, max_iters=4, tol=tol, seed=44))
        assert (got.iterations_run, got.converged) == (iterations, converged)


def test_nearest_centers_overflowing_expanded_form():
    # ||p||^2 overflows near 1e160, and the expanded form turns into
    # inf - inf = NaN; the direct form's differences stay finite
    rng = np.random.default_rng(40)
    steps = rng.integers(-8, 9, (30, 6)).astype(np.float64)
    points = 1e160 * (1.0 + steps * 2.0**-40)
    points[::3] = rng.standard_normal((10, 6))  # ordinary rows among them
    centers = points[[1, 4, 7, 10]].copy()
    with np.errstate(over="ignore"):
        assert np.isinf((points * points).sum(axis=1)).any()
        want_assign, want_d2 = _direct_nearest(points, centers)
        assign, own_d2 = nearest_centers(points, centers)
    assert np.array_equal(assign, want_assign)
    assert own_d2.tobytes() == want_d2.tobytes()
    huge = points[np.abs(points).max(axis=1) > 1e100]
    _assert_same_clustering(kmeans(huge, 3, seed=41), reference.kmeans(huge, 3, seed=41))


@pytest.mark.parametrize("scale", [1e152, 1e153, 1e154, 1e155])
def test_kmeans_rejects_rows_whose_squared_distances_overflow(scale):
    # at 1e153 the seeding's sum of squared distances overflows, from 1e154
    # each of them: numpy's rng.choice used to raise a ValueError
    reps = scale * np.random.default_rng(42).standard_normal((40, 8))
    if scale == 1e152:
        _assert_same_clustering(kmeans(reps, 3, seed=43), reference.kmeans(reps, 3, seed=43))
    else:
        with pytest.raises(ParameterError, match="could overflow float64"):
            kmeans(reps, 3, seed=43)


@pytest.mark.parametrize("n", [8, 100])
def test_kmeans_rejects_rows_whose_sums_overflow(n):
    # equal rows, 0 apart: a cluster's mean sums 100 * 1e307, which
    # overflows, and the mean of 8 is an ulp off the rows, 1e291, whose
    # square overflows
    with pytest.raises(ParameterError, match="could overflow float64"):
        kmeans(np.full((n, 4), 1e307), 2)


def _drifting_scenes(seed, n=512, dim=1024, n_scenes=72, patches=16):
    """Representative features of a video whose scenes each drift slowly
    along a random direction, plus per-patch noise averaged over patches."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_scenes - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    reps = np.empty((n, dim))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        base = rng.standard_normal(dim) / np.sqrt(patches)
        drift = rng.standard_normal(dim) / np.sqrt(patches) / (stop - start)
        steps = np.arange(stop - start)[:, None]
        noise = rng.standard_normal((stop - start, dim)) * 0.5 / np.sqrt(patches)
        reps[start:stop] = base + steps * drift + noise
    return reps


def test_kmeans_never_falls_back_to_direct_form(monkeypatch):
    # deterministic guard against a silent return to the n*m*dim sweep:
    # in kmeans, pairwise_sqdist runs once for the seeding's first center,
    # one center against every row, and otherwise only for rows the
    # expanded form cannot settle, and on drifting-scene features there
    # are none
    calls = []
    original = select.pairwise_sqdist

    def recording(points, centers):
        calls.append((points.shape[0], centers.shape[0]))
        return original(points, centers)

    monkeypatch.setattr(select, "pairwise_sqdist", recording)
    reps = _drifting_scenes(42)
    clustering = kmeans(reps, 48, seed=42)
    assert clustering.iterations_run > 1
    assert calls == [(len(reps), 1)]
    # the recorder sees the fallback when it does run: all-zero rows tie
    nearest_centers(np.zeros((5, 4)), np.zeros((2, 4)))
    assert calls == [(len(reps), 1), (5, 2)]


def _seeding_rows(rng, n, dim, kind):
    if kind == "huge":
        # ||p||^2 overflows, so every expanded-form bound is inf or NaN
        return 1e160 * (1.0 + rng.integers(-8, 9, (n, dim)) * 2.0**-40)
    return _rows(rng, n, dim, kind)


@st.composite
def seeding_cases(draw):
    n = draw(st.integers(1, 24))
    return {
        "n": n, "m": draw(st.one_of(st.just(1), st.just(n), st.integers(1, n))),
        "dim": draw(st.integers(1, 9)),
        "kind": draw(st.sampled_from(["random", "duplicates", "all-zero", "offset", "huge"])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=200, deadline=None)
@given(case=seeding_cases())
@example(case={"n": 6, "m": 6, "dim": 3, "kind": "all-zero", "seed": 5})
@example(case={"n": 9, "m": 9, "dim": 4, "kind": "duplicates", "seed": 6})
@example(case={"n": 12, "m": 5, "dim": 7, "kind": "huge", "seed": 7})
@example(case={"n": 10, "m": 4, "dim": 5, "kind": "offset", "seed": 8})
def test_init_center_indices_equals_direct_form_oracle(case):
    reps = _seeding_rows(np.random.default_rng(case["seed"]), case["n"], case["dim"],
                         case["kind"])
    with np.errstate(over="ignore"):
        chosen, _ = select._init_center_indices(reps, case["m"],
                                                np.random.default_rng(case["seed"]),
                                                np.einsum("ij,ij->i", reps, reps))
        want = reference.init_center_indices(reps, case["m"],
                                             np.random.default_rng(case["seed"]))
    assert chosen == want
    assert len(set(chosen)) == case["m"]


def test_seeding_rechecks_few_pairs():
    # deterministic guard against a silent return to a direct-form pass
    # per center: on drifting-scene features the bound settles most pairs
    reps = _drifting_scenes(42)
    chosen, rechecked = select._init_center_indices(reps, 48, np.random.default_rng(42),
                                                    np.einsum("ij,ij->i", reps, reps))
    assert chosen == reference.init_center_indices(reps, 48, np.random.default_rng(42))
    assert rechecked < 0.25 * 512 * 47, rechecked


def test_nearest_centers_rechecks_candidate_columns_only(monkeypatch):
    # the first point ties exactly between centers 1 and 3; the other
    # centers are strictly farther, so only those two are recomputed
    shapes = []
    original = select.pairwise_sqdist

    def recording(points, centers):
        shapes.append((points.shape[0], centers.shape[0]))
        return original(points, centers)

    monkeypatch.setattr(select, "pairwise_sqdist", recording)
    points = np.array([[0.0, 0.0], [9.0, 9.0], [-9.0, 9.0]])
    centers = np.array([[10.0, 10.0], [1.0, 0.0], [-10.0, 10.0], [-1.0, 0.0],
                        [10.0, -10.0], [0.0, 20.0]])
    assign, own_d2 = nearest_centers(points, centers)
    want_assign, want_d2 = _direct_nearest(points, centers)
    assert np.array_equal(assign, want_assign)
    assert own_d2.tobytes() == want_d2.tobytes()
    assert assign[0] == 1
    assert shapes == [(1, 2)]


def test_distinct_representatives_collapsed_centers():
    rng = np.random.default_rng(50)
    reps = rng.standard_normal((12, 4))
    # centers 0, 2 and 3 share nearest frame 5; center 1 sits on frame 9
    centers = np.stack([reps[5], reps[9], reps[5] + 1e-3, reps[5]])
    clustering = select.Clustering(centers, np.zeros(12, dtype=int), 0.0, 1)
    assert reference.representative_indices(reps, clustering) == [5, 9]
    got = select._distinct_representatives(reps, centers)
    assert got == reference.distinct_representatives(reps, centers)
    assert len(got) == 4 and {5, 9} <= set(got)


@settings(max_examples=150, deadline=None)
@given(case=nearest_cases())
def test_distinct_representatives_equal_oracle(case):
    rng = np.random.default_rng(case["seed"])
    reps = _rows(rng, case["n"], case["dim"], case["kind"])
    if case["centers_from_points"]:
        centers = reps[rng.integers(0, case["n"], case["m"])]
    else:
        centers = _rows(rng, case["m"], case["dim"], case["kind"])
    got = select._distinct_representatives(reps, centers)
    assert got == reference.distinct_representatives(reps, centers)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 16), dim=st.integers(1, 6), r=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
@example(n=6, dim=2, r=0, seed=1)
def test_select_scenes_kmeans_with_duplicate_frames_equals_oracle(n, dim, r, seed):
    # duplicate frames make centers collapse onto one nearest frame
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((max(1, n // 3), 2, dim))[rng.integers(0, max(1, n // 3), n)]
    features = FrameFeatures(frames.astype(np.float32))
    k = n // (r + 1)
    got = select_scenes_kmeans(features, k, r, seed=seed)
    reps = representative_features(features)
    clustering = reference.kmeans(reps, k, seed=seed)
    rep_idx = reference.representative_indices(reps, clustering)
    if len(rep_idx) < k:
        rep_idx = reference.distinct_representatives(reps, clustering.centers)
    assert got == select_supplements(reps, rep_idx, r)


def _kmeans_debug_fields(caplog, *args, **kwargs):
    with caplog.at_level("DEBUG", logger="framefuse.select"):
        clustering = kmeans(*args, **kwargs)
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "framefuse.select"]
    assert len(lines) == 1 and lines[0].startswith("kmeans ")
    return clustering, dict(field.split("=", 1) for field in lines[0].split()[1:])


def test_kmeans_debug_line_sizes(caplog):
    _, fields = _kmeans_debug_fields(caplog, np.arange(40.0).reshape(20, 2), 3, seed=1)
    assert fields["n"] == "20"
    assert fields["m"] == "3"


def test_kmeans_debug_line_iterations_and_convergence(caplog):
    reps = _drifting_scenes(3, n=96, dim=16, n_scenes=6)
    clustering, fields = _kmeans_debug_fields(caplog, reps, 6, seed=3)
    assert fields["iterations"] == str(clustering.iterations_run)
    assert clustering.iterations_run < 100 and fields["converged"] == "True"
    assert clustering.converged is True
    caplog.clear()
    # tol 0 never stops early: the last step still moved a center
    clustering, fields = _kmeans_debug_fields(caplog, reps, 6, max_iters=1, tol=0.0, seed=3)
    assert fields["iterations"] == "1" and fields["converged"] == "False"
    assert clustering.converged is False
    caplog.clear()
    # a run that converges on its last allowed step is reported as converged
    clustering, fields = _kmeans_debug_fields(caplog, np.ones((5, 2)), 1, max_iters=1, seed=3)
    assert clustering.iterations_run == 1 and fields["converged"] == "True"
    assert clustering.converged is True


def test_kmeans_debug_line_inertia(caplog):
    reps = _drifting_scenes(4, n=64, dim=8, n_scenes=5)
    clustering, fields = _kmeans_debug_fields(caplog, reps, 5, seed=4)
    assert float(fields["inertia"]) == clustering.inertia
    assert fields["inertia"] == repr(clustering.inertia)


def test_kmeans_debug_line_seeding_rechecked(caplog):
    reps = _drifting_scenes(5, n=128, dim=32, n_scenes=8)
    _, fields = _kmeans_debug_fields(caplog, reps, 8, seed=5)
    _, rechecked = select._init_center_indices(reps, 8, np.random.default_rng(5),
                                               np.einsum("ij,ij->i", reps, reps))
    assert fields["seeding_rechecked"] == str(rechecked)
    caplog.clear()
    # two groups of three equal rows: the second center can only lower d2
    # on its own group, so the bound settles the first center's group
    reps = np.repeat([[0.0, 0.0], [1.0, 0.0]], 3, axis=0)
    _, fields = _kmeans_debug_fields(caplog, reps, 2, seed=5)
    assert fields["seeding_rechecked"] == "3"


def test_kmeans_debug_line_search_rechecked(caplog, monkeypatch):
    counts = []
    original = select._nearest

    def recording(points, centers, *norms):
        assign, rechecked = original(points, centers, *norms)
        counts.append(rechecked)
        return assign, rechecked

    monkeypatch.setattr(select, "_nearest", recording)
    # small integer rows: many rows tie between centers
    reps = np.random.default_rng(6).integers(-1, 2, (30, 3)).astype(np.float64)
    clustering, fields = _kmeans_debug_fields(caplog, reps, 4, seed=6)
    assert len(counts) == clustering.iterations_run + 1
    assert sum(counts) > 0
    assert fields["search_rechecked"] == str(sum(counts))
