import numpy as np
import pytest

from threadcurve import curvature as cv
from threadcurve.optim import grad_check
from conftest import toy_config, toy_instance, toy_split


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_forward(store, inst, cfg):
    """Straight-numpy reimplementation of the forward pass."""
    P = {n: store.get(n) for n in store.names()}
    x1, x2, centers = inst["x1"], inst["x2"], inst["centers"]
    N = centers.shape[0]
    enc = [np.maximum(0.0, P["W1"] @ x1 + P["B1"])]
    for k in range(N - 1):
        enc.append(np.maximum(0.0, P["W2"] @ x2[k] + P["B1"]))
    omegas = np.exp(P["W3"])
    y1s, y2s, rps = [], [], []
    for i in range(N):
        w = omegas[:i + 1]
        ctx = sum(w[j] * enc[j] for j in range(i + 1)) / w.sum()
        z = np.stack([np.concatenate([ctx, centers[i][l]])
                      for l in range(centers.shape[1])])
        hidden = np_sigmoid(z @ P["W5"].T + P["B4"])
        M = np_sigmoid(hidden @ P["W4"].T + P["B3"])
        h = np_sigmoid(centers[i] @ P["W7"].T + P["B6"])
        g = np_sigmoid(h @ P["W6"].T + P["B5"])
        rp = (M * g).sum(axis=1)
        rt = float(P["W8"] @ rp)
        y1s.append(np_sigmoid(rp - cv.neutral_point(cfg.d)))
        y2s.append(max(0.0, rt))
        rps.append(rp)
    return np.stack(y1s), np.array(y2s), np.stack(rps)


def _zeroed(store):
    for name in store.names():
        store.set(name, np.zeros_like(store.get(name)))
    return store


def test_forward_matches_numpy_oracle():
    cfg = toy_config()
    rng = np.random.default_rng(11)
    store = cv.init_model(cfg, seed=3)
    inst = toy_instance(rng, cfg)
    trace, _ = cv.forward(store, inst["x1"], inst["x2"], inst["centers"])
    y1o, y2o, rpo = oracle_forward(store, inst, cfg)
    np.testing.assert_allclose(trace.y1_array(), y1o, atol=1e-12)
    np.testing.assert_allclose(trace.y2_array(), y2o, atol=1e-12)
    np.testing.assert_allclose(trace.r_prime, rpo, atol=1e-12)


def test_zero_parameters_sit_at_the_neutral_point():
    cfg = toy_config()
    store = _zeroed(cv.init_model(cfg, seed=0))
    rng = np.random.default_rng(0)
    inst = toy_instance(rng, cfg)
    trace, _ = cv.forward(store, inst["x1"], inst["x2"], inst["centers"])
    np.testing.assert_allclose(trace.m_array(), 0.5, atol=1e-15)
    np.testing.assert_allclose(trace.g_inv_array(), 0.5, atol=1e-15)
    np.testing.assert_allclose(trace.r_prime, cv.neutral_point(cfg.d),
                               atol=1e-14)
    # engagement probabilities land exactly on the decision boundary
    np.testing.assert_allclose(trace.y1_array(), 0.5, atol=1e-14)
    assert np.all(trace.y2_array() == 0.0)


def test_neutral_point_value():
    assert cv.neutral_point(4) == pytest.approx(1.25)
    assert cv.neutral_point(128) == pytest.approx(129 / 4)


def test_heads_default_frozen_values():
    y1, y2 = cv.heads(np.array([1.0, -1.0]), np.array(-2.0))
    np.testing.assert_allclose(y1, [0.7310585786300049,
                                    0.2689414213699951], atol=1e-12)
    assert float(y2) == 0.0
    _, y2b = cv.heads(np.array([0.0]), np.array(1.5))
    assert float(y2b) == 1.5


def test_cumulative_context_weighted_prefix_mean():
    cfg = toy_config()
    store = _zeroed(cv.init_model(cfg, seed=0))
    store.set("W3", np.array([0.0, np.log(3.0), 0.0, 0.0]))
    ctx, _ = cv.cumulative_context(dict(store.items()), np.eye(2))
    # row 0 is the post alone; row 1 weighs it 1:3 against window 1
    np.testing.assert_allclose(ctx, [[1.0, 0.0], [0.25, 0.75]],
                               atol=1e-14)


def test_bce_at_half_is_log_two():
    p = np.full(8, 0.5)
    t = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=float)
    loss, grad = cv.bce(p, t)
    assert float(loss) == pytest.approx(np.log(2.0), abs=1e-12)
    # d/dp at one half: -2/8 for a positive label, +2/8 for a negative
    np.testing.assert_allclose(grad, np.where(t == 1, -0.25, 0.25),
                               atol=1e-15)
    # clipping keeps extreme probabilities finite and stops their gradient
    loss, grad = cv.bce(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.isfinite(float(loss))
    assert np.all(grad == 0.0)


def test_outputs_in_valid_ranges():
    cfg = toy_config()
    rng = np.random.default_rng(3)
    store = cv.init_model(cfg, seed=9)
    for _ in range(5):
        inst = toy_instance(rng, cfg)
        trace, _ = cv.forward(store, inst["x1"], inst["x2"], inst["centers"])
        y1 = trace.y1_array()
        assert np.all((y1 > 0) & (y1 < 1))
        assert np.all(trace.y2_array() >= 0)
        assert np.all(trace.m_array() > 0) and np.all(trace.m_array() < 1)
        assert np.all(trace.g_inv_array() > 0) and np.all(trace.g_inv_array() < 1)
        assert np.all(trace.r_prime > 0)


def test_causality_future_windows_do_not_leak():
    cfg = toy_config()
    rng = np.random.default_rng(4)
    store = cv.init_model(cfg, seed=1)
    inst = toy_instance(rng, cfg)
    base, _ = cv.forward(store, inst["x1"], inst["x2"], inst["centers"])
    for k in range(cfg.N - 1):
        x2 = inst["x2"].copy()
        x2[k:] = rng.normal(size=x2[k:].shape)  # corrupt windows k+1..N
        mutated, _ = cv.forward(store, inst["x1"], x2, inst["centers"])
        for i in range(k + 1):  # steps 0..k observe only windows 1..k
            np.testing.assert_array_equal(mutated.steps[i].y1.data,
                                          base.steps[i].y1.data)
            assert float(mutated.steps[i].y2.data) == float(base.steps[i].y2.data)


def test_engagement_monotone_in_stress_energy_bias():
    cfg = toy_config()
    rng = np.random.default_rng(6)
    inst = toy_instance(rng, cfg)
    previous = None
    for b in (-2.0, 0.0, 2.0, 5.0):
        store = _zeroed(cv.init_model(cfg, seed=0))
        store.set("B3", np.full(cfg.d + 1, b))
        trace, _ = cv.forward(store, inst["x1"], inst["x2"], inst["centers"])
        y1 = trace.y1_array()
        if previous is not None:
            assert np.all(y1 > previous)
        previous = y1


def test_discussion_loss_gradients_pass_finite_difference_check():
    cfg = toy_config()
    rng = np.random.default_rng(8)
    inst = toy_instance(rng, cfg)
    store = cv.init_model(cfg, seed=2)
    report = grad_check(lambda s: cv.discussion_loss(s, inst, lam=1.0),
                        store, max_coords=60, seed=0)
    assert report["passed"], report


def test_zero_growth_weight_detaches_curvature_head():
    cfg = toy_config()
    rng = np.random.default_rng(9)
    inst = toy_instance(rng, cfg)
    store = cv.init_model(cfg, seed=5)
    cv.discussion_loss(store, inst, lam=0.0)
    np.testing.assert_array_equal(store.grad("W8"),
                                  np.zeros_like(store.get("W8")))
    cv.discussion_loss(store, inst, lam=1.0)
    assert np.any(store.grad("W8") != 0.0)


def test_loss_requires_a_valid_step():
    cfg = toy_config()
    rng = np.random.default_rng(10)
    inst = toy_instance(rng, cfg, valid=[False] * cfg.N)
    store = cv.init_model(cfg, seed=0)
    with pytest.raises(ValueError):
        cv.discussion_loss(store, inst)


def test_training_reduces_loss():
    cfg = toy_config()
    rng = np.random.default_rng(12)
    data = [toy_instance(rng, cfg) for _ in range(3)]
    _, losses = cv.train_temporal(data, cfg, seed=0, epochs=15, lr=1e-2)
    assert losses[-1] < losses[0]


def test_predict_decisions_match_threshold():
    cfg = toy_config()
    rng = np.random.default_rng(13)
    inst = toy_instance(rng, cfg)
    store = cv.init_model(cfg, seed=4)
    out = cv.predict_temporal(store, inst["x1"], inst["x2"], inst["centers"])
    np.testing.assert_array_equal(out["decisions"],
                                  (out["y1"] > 0.5).astype(int))


def test_stacked_pass_equals_per_discussion_passes():
    cfg = toy_config()
    store = cv.init_model(cfg, seed=5)
    rows, stacked = toy_split(np.random.default_rng(24), cfg)
    out = cv.predict_temporal(store, stacked["x1"], stacked["x2"],
                              stacked["centers"])
    assert out["y1"].shape == (len(rows), cfg.N, cfg.n)
    for r, row in enumerate(rows):
        one = cv.predict_temporal(store, row["x1"], row["x2"], row["centers"])
        for key in ("y1", "y2", "decisions"):
            assert np.array_equal(out[key][r], one[key]), key
        assert np.array_equal(out["trace"].g_inv_array()[r],
                              one["trace"].g_inv_array())


def test_nontemporal_zero_parameters_give_half():
    cfg = toy_config()
    store = _zeroed(cv.init_model(cfg, seed=0))
    rng = np.random.default_rng(14)
    inst = toy_instance(rng, cfg)
    prob, label = cv.predict_nontemporal(store, inst["x1"], inst["centers"][0])
    assert prob == pytest.approx(0.5, abs=1e-14)
    assert label == "no-attract"


def _one_shot_batch(rng, cfg, size):
    return {"x1": rng.normal(size=(size, cfg.post_width)),
            "centers0": rng.normal(size=(cfg.n, cfg.d + 1)),
            "label": np.arange(size) % 2.0}


def test_nontemporal_batch_matches_per_post_pass():
    cfg = toy_config()
    rng = np.random.default_rng(17)
    batch = _one_shot_batch(rng, cfg, 7)
    store = cv.init_model(cfg, seed=7)
    y3, cls = cv.predict_nontemporal(store, batch["x1"], batch["centers0"])
    single = np.array([float(cv.nontemporal_forward(store, x1,
                                                    batch["centers0"])[0].data)
                       for x1 in batch["x1"]])
    np.testing.assert_allclose(y3, single, rtol=0, atol=1e-12)
    assert y3.shape == cls.shape == (7,)
    assert list(cls) == ["attract" if p > 0.5 else "no-attract" for p in y3]
    p = np.clip(single, cv.PROB_CLIP, 1.0 - cv.PROB_CLIP)
    t = batch["label"]
    expected = -np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    assert cv.nontemporal_batch_loss(store, batch) == pytest.approx(
        expected, rel=0, abs=1e-12)


def test_nontemporal_loss_on_many_posts_is_finite():
    cfg = toy_config()
    batch = _one_shot_batch(np.random.default_rng(18), cfg, 1200)
    store = cv.init_model(cfg, seed=8)
    assert np.isfinite(cv.nontemporal_batch_loss(store, batch))
    assert all(np.all(np.isfinite(store.grad(n))) for n in store.names())


def test_nontemporal_gradients_pass_finite_difference_check():
    cfg = toy_config()
    rng = np.random.default_rng(15)
    batch = _one_shot_batch(rng, cfg, 4)
    store = cv.init_model(cfg, seed=6)
    report = grad_check(lambda s: cv.nontemporal_batch_loss(s, batch),
                        store, max_coords=60, seed=1)
    assert report["passed"], report

