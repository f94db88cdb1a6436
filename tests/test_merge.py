"""Merge-strategy tests: averaging, weighted fusion and its gradient,
attention pooling, and bipartite token merging, through ``merge_scene``.
Properties the merged map does not show (attention weights, bsm token
sizes, the gradient formula) are checked on the oracle in ``reference.py``,
which ``test_merge_engine.py`` holds the engine to."""

import numpy as np
import pytest

import reference
from framefuse import ParameterError, attn_projections, fit_fusion_weights, merge_scene
from framefuse.merge import STRATEGIES, AttnProjections


def random_scene(rng, s=3, n_patches=4, dim=6):
    return rng.standard_normal((s, n_patches, dim))


def fusion(scene, weights):
    return merge_scene(scene, "fusion", weights=weights)


def uniform_weights(s, n_patches, dim):
    return np.full((s, n_patches, dim), 1.0 / s)


def scene_of_tokens(tokens, n_patches):
    """The scene whose bsm token order, patch-major, is *tokens*."""
    t0, dim = tokens.shape
    return tokens.reshape(n_patches, t0 // n_patches, dim).transpose(1, 0, 2)


def test_temporal_average_identical_frames():
    frame = np.random.default_rng(0).standard_normal((5, 7))
    scene = np.stack([frame] * 4)
    assert np.allclose(merge_scene(scene, "tavg"), frame)


def test_temporal_average_midpoint():
    scene = np.stack([np.zeros((3, 3)), np.full((3, 3), 2.0)])
    assert np.array_equal(merge_scene(scene, "tavg"), np.ones((3, 3)))


def test_temporal_average_float64_oracle():
    rng = np.random.default_rng(1)
    scene = rng.standard_normal((4, 8, 16)).astype(np.float32)
    got = merge_scene(scene, "tavg")
    acc = np.zeros((8, 16), dtype=np.float64)
    for i in range(4):
        acc += scene[i].astype(np.float64)
    assert np.max(np.abs(got - acc / 4)) <= 1e-5


def test_fusion_init_values():
    # the fitter starts from the uniform weights 1/s; zero steps return them
    for s, want in ((4, 0.25), (1, 1.0)):
        w, _ = fit_fusion_weights([np.zeros((s, 2, 3))], [np.zeros((2, 3))], lr=0.1, steps=0)
        assert w.shape == (s, 2, 3) and np.all(w == want)


def test_fusion_init_equals_temporal_average():
    rng = np.random.default_rng(2)
    for _ in range(10):
        scene = random_scene(rng, s=int(rng.integers(2, 5)))
        tavg = merge_scene(scene, "tavg")
        assert np.max(np.abs(fusion(scene, uniform_weights(*scene.shape)) - tavg)) <= 1e-6
        assert np.max(np.abs(merge_scene(scene, "fusion") - tavg)) <= 1e-6


def test_fusion_one_hot_selects_frame():
    rng = np.random.default_rng(3)
    scene = random_scene(rng, s=4)
    for j in range(4):
        w = np.zeros_like(scene)
        w[j] = 1.0
        assert np.array_equal(fusion(scene, w), scene[j])


def test_fusion_triple_loop_oracle():
    rng = np.random.default_rng(4)
    scene = random_scene(rng, s=3, n_patches=4, dim=5)
    w = rng.standard_normal(scene.shape)
    got = fusion(scene, w)
    want = np.zeros((4, 5))
    for i in range(3):
        for j in range(4):
            for d in range(5):
                want[j, d] += scene[i, j, d] * w[i, j, d]
    assert np.max(np.abs(got - want)) <= 1e-5


def test_fusion_shape_mismatch():
    with pytest.raises(ParameterError):
        fusion(np.zeros((2, 3, 4)), np.zeros((2, 3, 5)))


def test_fusion_gradient_trivials():
    ones = np.ones((2, 3, 4))
    assert np.all(reference.fusion_gradient(ones, np.ones((3, 4))) == 1.0)
    assert np.all(reference.fusion_gradient(ones, np.zeros((3, 4))) == 0.0)


def test_fusion_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    for _ in range(5):
        scene = random_scene(rng, s=3, n_patches=3, dim=4)
        target = rng.standard_normal((3, 4))
        w = rng.standard_normal(scene.shape)

        def loss(weights):
            resid = fusion(scene, weights) - target
            return 0.5 * float((resid * resid).sum())

        analytic = reference.fusion_gradient(scene, fusion(scene, w) - target)
        h = 1e-3
        numeric = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            numeric[idx] = (loss(wp) - loss(wm)) / (2 * h)
        rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert rel <= 1e-4


def test_fit_already_optimal_at_init():
    rng = np.random.default_rng(6)
    scenes = [random_scene(rng) for _ in range(3)]
    targets = [merge_scene(sc, "tavg") for sc in scenes]
    w, hist = fit_fusion_weights(scenes, targets, lr=0.05, steps=20)
    assert hist[0] <= 1e-20
    assert np.max(np.abs(w - uniform_weights(*scenes[0].shape))) <= 1e-12


def test_fit_loss_decreases_90_percent():
    rng = np.random.default_rng(7)
    scenes = [random_scene(rng, s=3, n_patches=4, dim=5) for _ in range(32)]
    targets = [sc[0] for sc in scenes]
    w, hist = fit_fusion_weights(scenes, targets, lr=0.01, steps=500)
    assert hist[-1] <= 0.1 * hist[0]
    assert hist[-1] == min(hist)  # stable lr: best iterate is the last


def test_fit_loss_non_increasing_at_stable_lr():
    rng = np.random.default_rng(8)
    scenes = [random_scene(rng, s=2, n_patches=3, dim=3) for _ in range(4)]
    targets = [rng.standard_normal((3, 3)) for _ in range(4)]
    bound = max(float((sc * sc).sum(axis=0).max()) for sc in scenes)
    _, hist = fit_fusion_weights(scenes, targets, lr=1.0 / bound, steps=100)
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_fit_single_coordinate_matches_closed_form():
    rng = np.random.default_rng(9)
    f = rng.standard_normal(4)
    scene = f.reshape(4, 1, 1)
    target = np.array([[1.7]])
    lr = 0.5 / float(f @ f)
    w, _ = fit_fusion_weights([scene], [target], lr=lr, steps=1000)
    # gradient descent moves only along f, so the fixed point is the
    # projection of the init onto the solution hyperplane
    w0 = np.full(4, 0.25)
    w_star = w0 + f * (1.7 - f @ w0) / (f @ f)
    assert np.max(np.abs(w[:, 0, 0] - w_star)) <= 1e-3
    assert abs(float(f @ w[:, 0, 0]) - 1.7) <= 1e-6


def test_fit_parameter_errors():
    with pytest.raises(ParameterError):
        fit_fusion_weights([], [], lr=0.1, steps=1)
    sc = np.zeros((2, 2, 2))
    with pytest.raises(ParameterError):
        fit_fusion_weights([sc], [np.zeros((2, 2))], lr=-1.0, steps=1)
    # nan fails lr <= 0 as well as lr > 0, and inf made every loss nan
    for lr in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError, match="learning rate must be finite"):
            fit_fusion_weights([sc], [np.zeros((2, 2))], lr=lr, steps=1)
    for bad in (np.nan, np.inf):
        target = np.zeros((2, 2))
        target[1, 0] = bad
        with pytest.raises(ParameterError, match="target contains non-finite values"):
            fit_fusion_weights([sc, sc], [np.zeros((2, 2)), target], lr=0.1, steps=1)


def test_attention_pool_identical_frames():
    rng = np.random.default_rng(10)
    frame = rng.standard_normal((5, 8))
    scene = np.stack([frame] * 3)
    out = merge_scene(scene, "attnpool", seed=11)
    assert np.max(np.abs(out - frame)) <= 1e-12


def test_attention_pool_single_frame():
    rng = np.random.default_rng(12)
    scene = rng.standard_normal((1, 4, 6))
    out = merge_scene(scene, "attnpool", seed=13)
    assert np.array_equal(out, scene[0])


def test_attention_pool_loop_oracle():
    rng = np.random.default_rng(14)
    scene = rng.standard_normal((3, 4, 8))
    proj = attn_projections(8, seed=15)
    got = merge_scene(scene, "attnpool", seed=15)

    q = scene[1] @ proj.wq  # middle frame of 3 is index 1
    want = np.zeros((4, 8))
    for j in range(4):
        logits = []
        for m in range(3):
            k_m = scene[m] @ proj.wk
            logits.append(float(q[j] @ k_m[j]) / np.sqrt(8))
        e = np.exp(np.array(logits) - max(logits))
        a = e / e.sum()
        for m in range(3):
            want[j] += a[m] * scene[m, j]
    assert np.max(np.abs(got - want)) <= 1e-5


def test_attention_weights_convex():
    rng = np.random.default_rng(16)
    for s in (2, 3, 4, 5):
        scene = rng.standard_normal((s, 6, 10))
        w = reference.attention_weights(scene, attn_projections(10, seed=s))
        assert np.all(w >= 0)
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-6
        out = merge_scene(scene, "attnpool", seed=s)
        assert np.all(out <= scene.max(axis=0) + 1e-9)
        assert np.all(out >= scene.min(axis=0) - 1e-9)


def test_attn_projections_xavier_bounds_and_determinism():
    proj1 = attn_projections(16, seed=21)
    proj2 = attn_projections(16, seed=21)
    bound = np.sqrt(6.0 / 32.0)
    for w in (proj1.wq, proj1.wk):
        assert np.all(np.abs(w) <= bound)
    assert np.array_equal(proj1.wq, proj2.wq)
    assert np.array_equal(proj1.wk, proj2.wk)
    assert not np.array_equal(proj1.wq, proj1.wk)


def test_bsm_merge_identity():
    # one frame a scene: its tokens are already down to n_patches
    rng = np.random.default_rng(17)
    tokens = rng.standard_normal((6, 4))
    assert np.array_equal(merge_scene(tokens[None], "bsm"), tokens)
    want_tokens, want_sizes = reference.bsm_merge(tokens, 6)
    assert np.array_equal(want_tokens, tokens) and np.all(want_sizes == 1)


def test_bsm_merge_uuvv_hand_enumerated():
    # the tokens u, u, v, v: round 1 splits to A=(u, v), B=(u, v); both best
    # edges score 1.0 and both merge, leaving u and v with size 2 each
    u = np.array([1.0, 0.0, 2.0])
    v = np.array([0.0, 1.0, -1.0])
    tokens = np.stack([u, u, v, v])
    assert np.allclose(merge_scene(scene_of_tokens(tokens, 2), "bsm"), np.stack([u, v]))
    assert reference.bsm_merge(tokens, 2)[1].tolist() == [2, 2]


def test_bsm_merge_counts_and_mass():
    rng = np.random.default_rng(18)
    tokens = rng.standard_normal((64, 32))
    out = merge_scene(scene_of_tokens(tokens, 16), "bsm")
    want_tokens, sizes = reference.bsm_merge(tokens, 16)
    assert out.shape == (16, 32) and out.tobytes() == want_tokens.tobytes()
    assert sizes.sum() == 64
    mass_in = tokens.sum(axis=0)
    mass_out = (out * sizes[:, None]).sum(axis=0)
    rel = np.abs(mass_out - mass_in) / np.maximum(np.abs(mass_in), 1e-12)
    assert rel.max() <= 1e-4


def test_bsm_merge_parameter_errors():
    # bsm merges a scene down to its patch count, so a scene with no
    # patches, or no frames, is rejected
    for shape in ((2, 0, 2), (0, 2, 2)):
        with pytest.raises(ParameterError, match="scene dims"):
            merge_scene(np.zeros(shape), "bsm")


def test_bsm_merge_down_to_one():
    rng = np.random.default_rng(19)
    tokens = rng.standard_normal((5, 3))
    out = merge_scene(tokens[:, None, :], "bsm")
    assert out.shape == (1, 3)
    assert reference.bsm_merge(tokens, 1)[1].tolist() == [5]
    assert np.allclose(out[0], tokens.mean(axis=0))


def test_merge_scene_identical_frames_all_strategies():
    rng = np.random.default_rng(20)
    frame = rng.standard_normal((8, 16))
    scene = np.stack([frame] * 3)
    for strategy in STRATEGIES:
        out = merge_scene(scene, strategy, seed=21)
        assert np.max(np.abs(out - frame)) <= 1e-12, strategy


def test_merge_scene_shapes_finite():
    rng = np.random.default_rng(22)
    scene = rng.standard_normal((3, 8, 16))
    for strategy in STRATEGIES:
        out = merge_scene(scene, strategy, seed=23)
        assert out.shape == (8, 16)
        assert np.all(np.isfinite(out))


def test_merge_scene_unknown_strategy():
    # weights beside an unknown strategy do not change the message
    for weights in (None, np.ones((2, 2, 2))):
        with pytest.raises(ParameterError, match="^unknown merge strategy 'pool', expected"):
            merge_scene(np.zeros((2, 2, 2)), "pool", weights)


def test_merge_scene_rejects_arguments_its_strategy_ignores():
    scene = np.random.default_rng(28).standard_normal((3, 2, 4))
    weights = uniform_weights(*scene.shape)
    for strategy in ("tavg", "attnpool", "bsm"):
        with pytest.raises(ParameterError, match="weights apply only to fusion"):
            merge_scene(scene, strategy, weights=weights)
    # wrongly shaped weights with tavg were ignored; they are rejected too
    with pytest.raises(ParameterError, match="weights apply only to fusion"):
        merge_scene(scene, "tavg", weights=np.ones((9, 9)))


def test_merge_scene_rejects_weights_it_cannot_use():
    scene = np.random.default_rng(29).standard_normal((3, 2, 4))
    for bad in (np.nan, np.inf, -np.inf):
        weights = uniform_weights(*scene.shape)
        weights[2, 1, 3] = bad
        with pytest.raises(ParameterError, match="weights contain non-finite values"):
            merge_scene(scene, "fusion", weights=weights)
    with pytest.raises(ParameterError, match="weights contain non-finite values"):
        merge_scene(scene, "fusion", weights=np.full(scene.shape, np.nan))


def test_fusion_linearity_in_scene():
    rng = np.random.default_rng(24)
    f = random_scene(rng)
    g = random_scene(rng)
    w = rng.standard_normal(f.shape)
    lhs = fusion(2.5 * f + 0.75 * g, w)
    rhs = 2.5 * fusion(f, w) + 0.75 * fusion(g, w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-5


def test_merge_strategies_dim_permutation_equivariance():
    rng = np.random.default_rng(25)
    scene = rng.standard_normal((3, 4, 8))
    perm = rng.permutation(8)

    out = merge_scene(scene, "tavg")
    assert np.allclose(merge_scene(scene[:, :, perm], "tavg"), out[:, perm])

    w = rng.standard_normal(scene.shape)
    assert np.allclose(
        fusion(scene[:, :, perm], w[:, :, perm]), fusion(scene, w)[:, perm]
    )

    st = merge_scene(scene, "bsm")
    assert np.allclose(merge_scene(scene[:, :, perm], "bsm"), st[:, perm], atol=1e-10)

    # permuting inputs means conjugating the projections by the permutation
    wq, wk = attn_projections(8, seed=26)
    proj_p = AttnProjections(wq[perm][:, perm], wk[perm][:, perm])
    a = merge_scene(scene, "attnpool", seed=26)
    b = reference.attention_pool(scene[:, :, perm], proj_p)
    assert np.allclose(b, a[:, perm], atol=1e-10)


def test_fit_history_matches_loss_definition():
    # history[0] is the loss at the uniform init: the mean over scenes of
    # the half squared error of fusion vs target
    rng = np.random.default_rng(27)
    scenes = [random_scene(rng) for _ in range(2)]
    targets = [rng.standard_normal(scenes[0].shape[1:]) for _ in range(2)]
    w0 = uniform_weights(*scenes[0].shape)
    want = np.mean(
        [0.5 * float(((fusion(sc, w0) - t) ** 2).sum()) for sc, t in zip(scenes, targets)]
    )
    w, hist = fit_fusion_weights(scenes, targets, lr=0.01, steps=0)
    assert hist == [pytest.approx(want)]
    assert w.tobytes() == w0.tobytes()
