import numpy as np
import pytest

from threadcurve import newton as nw
from threadcurve.autodiff import Var
from threadcurve.optim import grad_check
from conftest import toy_config, toy_instance, toy_split


def _zeroed(store):
    for name in store.names():
        store.set(name, np.zeros_like(store.get(name)))
    return store


def test_zero_parameters_give_half_mass():
    cfg = toy_config()
    store = _zeroed(nw.init_model(cfg, w=2, seed=0))
    pv = nw._as_vars(store)
    ctx = Var(np.random.default_rng(0).normal(size=(cfg.N, cfg.h1)))
    mass = nw.newton_mass(pv, ctx)
    assert mass.shape == (cfg.N,)
    np.testing.assert_allclose(mass.data, 0.5, atol=1e-15)


def test_position_single_and_weighted_average():
    cfg = toy_config()
    store = _zeroed(nw.init_model(cfg, w=2, seed=0))
    pv = nw._as_vars(store)
    vecs = np.array([[2.0, 0.0], [0.0, 4.0], [9.0, 9.0]])
    # w = 2: step 0 sees no comment, step 1 sees comments 0 and 1
    # single commenter: their own vector
    pos = nw.newton_position(pv, vecs, np.array([True, False, False]), 2, 2)
    np.testing.assert_allclose(pos.data, [[0.0, 0.0], [2.0, 0.0]])
    # two commenters, equal weights (Wp3 = 0): midpoint
    pos = nw.newton_position(pv, vecs, np.array([True, True, False]), 2, 2)
    np.testing.assert_allclose(pos.data, [[0.0, 0.0], [1.0, 2.0]])
    # omega = [1, 3]: weighted average (2,0)/4 + 3*(0,4)/4
    store.set("Wp3", np.array([0.0, np.log(3.0)] + [0.0] * (store.get("Wp3").size - 2)))
    pv = nw._as_vars(store)
    pos = nw.newton_position(pv, vecs, np.array([True, True, False]), 2, 2)
    np.testing.assert_allclose(pos.data, [[0.0, 0.0], [0.5, 3.0]], atol=1e-14)
    # nobody embedded yet: the origin
    pos = nw.newton_position(pv, vecs, np.array([False, False, False]), 1, 4)
    np.testing.assert_allclose(pos.data, np.zeros((4, 2)))
    # the prefix bound is respected: w = 1, comment 2 shows from step 3
    pos = nw.newton_position(pv, vecs, np.array([False, False, True]), 1, 4)
    np.testing.assert_allclose(pos.data, [[0, 0], [0, 0], [0, 0], [9, 9]])


def test_position_matches_per_step_loop():
    cfg = toy_config()
    rng = np.random.default_rng(20)
    store = nw.init_model(cfg, w=2, seed=2)
    inst = toy_instance(rng, cfg, w=2)
    vecs, mask, wp3 = inst["user_vectors"], inst["user_mask"], store.get("Wp3")
    pos = nw.newton_position(nw._as_vars(store), vecs, mask, 2, cfg.N)
    for i in range(cfg.N):
        seen = [j for j in range(2 * i) if mask[j]]
        omega = np.exp(wp3[seen])
        expected = (omega @ vecs[seen] / omega.sum() if seen
                    else np.zeros(cfg.d))
        np.testing.assert_allclose(pos.data[i], expected, rtol=1e-12)


def test_heads_frozen_values_and_symmetries():
    cfg = toy_config()
    store = _zeroed(nw.init_model(cfg, w=2, seed=0))
    pv = nw._as_vars(store)
    # two steps: mass 1 at the origin, then mass 2 at (1, 0)
    mass = Var(np.array([1.0, 2.0]))
    position = Var(np.array([[0.0, 0.0], [1.0, 0.0]]))
    # |r - C| = 1 -> argument ~ 1 -> sigmoid ~ 0.73106
    centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    y1, y2, arg = nw.newton_heads(pv, mass, position, centers)
    assert y1.shape == (2, 3) and y2.shape == (2,)
    np.testing.assert_allclose(y1.data[0], 0.73106, atol=1e-4)
    # equidistant clusters attract identically
    assert float(np.ptp(y1.data[0])) < 1e-12
    # squared distances from (1, 0) are 0, 2 and 4
    np.testing.assert_allclose(arg.data[1],
                               2.0 / (np.array([0.0, 2.0, 4.0]) + nw.DIST_EPS))
    assert np.all(y2.data == 0.0)  # Wp4 is zero
    # sitting on a center saturates the attraction
    y1_on, _, _ = nw.newton_heads(pv, mass, position, np.zeros((3, 2)))
    assert float(y1_on.data[0, 0]) == pytest.approx(1.0, abs=1e-9)


def test_attraction_decays_with_distance():
    cfg = toy_config()
    store = _zeroed(nw.init_model(cfg, w=2, seed=0))
    pv = nw._as_vars(store)
    centers = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    y1, _, _ = nw.newton_heads(pv, Var(np.array(1.0)),
                               Var(np.zeros(2)), centers)
    assert y1.data[0] > y1.data[1] > y1.data[2]


def test_forward_rotational_symmetry():
    cfg = toy_config()
    rng = np.random.default_rng(21)
    store = nw.init_model(cfg, w=2, seed=3)
    inst = toy_instance(rng, cfg, w=2)
    base, _ = nw.forward(store, inst["x1"], inst["x2"], inst["flat_centers"],
                         inst["user_vectors"], inst["user_mask"], 2)
    theta = 1.1
    R = np.eye(cfg.d)
    R[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                 [np.sin(theta), np.cos(theta)]]
    rotated, _ = nw.forward(store, inst["x1"], inst["x2"],
                            inst["flat_centers"] @ R.T,
                            inst["user_vectors"] @ R.T,
                            inst["user_mask"], 2)
    np.testing.assert_allclose(rotated.y1_array(), base.y1_array(), atol=1e-9)
    np.testing.assert_allclose(rotated.y2_array(), base.y2_array(), atol=1e-9)


def test_baseline_engagement_probabilities_exceed_half():
    # sigmoid of a strictly positive mass/distance ratio: the structural
    # weakness the curvature model's centered head avoids
    cfg = toy_config()
    rng = np.random.default_rng(22)
    store = nw.init_model(cfg, w=2, seed=5)
    inst = toy_instance(rng, cfg, w=2)
    out = nw.predict_temporal(store, inst, w=2)
    assert np.all(out["y1"] > 0.5)
    assert np.all(out["decisions"] == 1)


def test_stacked_pass_equals_per_discussion_passes():
    cfg = toy_config()
    store = nw.init_model(cfg, w=2, seed=6)
    rows, stacked = toy_split(np.random.default_rng(25), cfg, w=2)
    out = nw.predict_temporal(store, stacked, w=2)
    assert out["y1"].shape == (len(rows), cfg.N, cfg.n)
    for r, row in enumerate(rows):
        one = nw.predict_temporal(store, row, w=2)
        for key in ("y1", "y2", "decisions"):
            assert np.array_equal(out[key][r], one[key]), key
    # no embedded commenter: the discussion stays at the origin
    position = nw.newton_position(nw._as_vars(store), stacked["user_vectors"],
                                  stacked["user_mask"], 2, cfg.N)
    assert position.shape == (len(rows), cfg.N, cfg.d)
    assert np.all(position.data[-1] == 0.0)


def test_discussion_loss_gradients_pass_finite_difference_check():
    cfg = toy_config()
    rng = np.random.default_rng(23)
    inst = toy_instance(rng, cfg, w=2)
    store = nw.init_model(cfg, w=2, seed=1)
    report = grad_check(lambda s: nw.discussion_loss(s, inst, 2, lam=1.0),
                        store, max_coords=60, seed=0)
    assert report["passed"], report


def test_training_reduces_loss():
    cfg = toy_config()
    rng = np.random.default_rng(24)
    data = [toy_instance(rng, cfg, w=2) for _ in range(3)]
    _, losses = nw.train_temporal(data, cfg, w=2, seed=0, epochs=15, lr=1e-2)
    assert losses[-1] < losses[0]
