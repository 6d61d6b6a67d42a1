import numpy as np
import pytest

from threadcurve import newton as nw
from threadcurve.optim import bound, grad_check, with_transposes
from conftest import toy_config, toy_instance, toy_split


def _zeroed(store):
    for name in store.names():
        store.set(name, np.zeros_like(store.get(name)))
    return store


def test_zero_parameters_give_half_mass():
    cfg = toy_config()
    store = _zeroed(nw.init_model(cfg, w=2, seed=0))
    ctx = np.random.default_rng(0).normal(size=(cfg.N, cfg.h1))
    hidden, mass = nw.newton_mass(bound(store, with_transposes)[0], ctx)
    assert hidden.shape == (cfg.N, cfg.h2) and mass.shape == (cfg.N,)
    np.testing.assert_allclose(mass, 0.5, atol=1e-15)


def _position(store, vecs, mask, w, steps):
    constants = nw.position_constants(np.array(mask), w, steps, vecs.shape[-1])
    return nw.newton_position(dict(store.items()), vecs, constants)[0]


def test_position_single_and_weighted_average():
    cfg = toy_config()
    store = _zeroed(nw.init_model(cfg, w=2, seed=0))
    vecs = np.array([[2.0, 0.0], [0.0, 4.0], [9.0, 9.0]])
    # w = 2: step 0 sees no comment, step 1 sees comments 0 and 1
    # single commenter: their own vector
    pos = _position(store, vecs, [True, False, False], 2, 2)
    np.testing.assert_allclose(pos, [[0.0, 0.0], [2.0, 0.0]])
    # two commenters, equal weights (Wp3 = 0): midpoint
    pos = _position(store, vecs, [True, True, False], 2, 2)
    np.testing.assert_allclose(pos, [[0.0, 0.0], [1.0, 2.0]])
    # omega = [1, 3]: weighted average (2,0)/4 + 3*(0,4)/4
    store.set("Wp3", np.array([0.0, np.log(3.0)] + [0.0] * (store.get("Wp3").size - 2)))
    pos = _position(store, vecs, [True, True, False], 2, 2)
    np.testing.assert_allclose(pos, [[0.0, 0.0], [0.5, 3.0]], atol=1e-14)
    # nobody embedded yet: the origin
    pos = _position(store, vecs, [False, False, False], 1, 4)
    np.testing.assert_allclose(pos, np.zeros((4, 2)))
    # the prefix bound is respected: w = 1, comment 2 shows from step 3
    pos = _position(store, vecs, [False, False, True], 1, 4)
    np.testing.assert_allclose(pos, [[0, 0], [0, 0], [0, 0], [9, 9]])


def test_position_matches_per_step_loop():
    cfg = toy_config()
    rng = np.random.default_rng(20)
    store = nw.init_model(cfg, w=2, seed=2)
    inst = toy_instance(rng, cfg, w=2)
    vecs, mask, wp3 = inst["user_vectors"], inst["user_mask"], store.get("Wp3")
    pos = _position(store, vecs, mask, 2, cfg.N)
    for i in range(cfg.N):
        seen = [j for j in range(2 * i) if mask[j]]
        omega = np.exp(wp3[seen])
        expected = (omega @ vecs[seen] / omega.sum() if seen
                    else np.zeros(cfg.d))
        np.testing.assert_allclose(pos[i], expected, rtol=1e-12)


def test_heads_frozen_values_and_symmetries():
    cfg = toy_config()
    store = _zeroed(nw.init_model(cfg, w=2, seed=0))
    pv = dict(store.items())
    # two steps: mass 1 at the origin, then mass 2 at (1, 0)
    mass = np.array([1.0, 2.0])
    position = np.array([[0.0, 0.0], [1.0, 0.0]])
    # |r - C| = 1 -> argument ~ 1 -> sigmoid ~ 0.73106
    centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    y1, y2, arg, _ = nw.newton_heads(pv, mass, position, centers)
    assert y1.shape == (2, 3) and y2.shape == (2,)
    np.testing.assert_allclose(y1[0], 0.73106, atol=1e-4)
    # equidistant clusters attract identically
    assert float(np.ptp(y1[0])) < 1e-12
    # squared distances from (1, 0) are 0, 2 and 4
    np.testing.assert_allclose(arg[1],
                               2.0 / (np.array([0.0, 2.0, 4.0]) + nw.DIST_EPS))
    assert np.all(y2 == 0.0)  # Wp4 is zero
    # sitting on a center saturates the attraction
    y1_on, _, _, _ = nw.newton_heads(pv, mass, position, np.zeros((3, 2)))
    assert float(y1_on[0, 0]) == pytest.approx(1.0, abs=1e-9)


def test_attraction_decays_with_distance():
    cfg = toy_config()
    store = _zeroed(nw.init_model(cfg, w=2, seed=0))
    pv = dict(store.items())
    centers = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    y1, _, _, _ = nw.newton_heads(pv, np.array(1.0), np.zeros(2), centers)
    assert y1[0] > y1[1] > y1[2]


def test_forward_rotational_symmetry():
    cfg = toy_config()
    rng = np.random.default_rng(21)
    store = nw.init_model(cfg, w=2, seed=3)
    inst = toy_instance(rng, cfg, w=2)
    centers = inst["centers"][..., 1:]
    constants = nw.position_constants(inst["user_mask"], 2, cfg.N, cfg.d)
    base, _ = nw.forward(store, inst["x1"], inst["x2"], centers,
                         inst["user_vectors"], constants)
    theta = 1.1
    R = np.eye(cfg.d)
    R[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                 [np.sin(theta), np.cos(theta)]]
    rotated, _ = nw.forward(store, inst["x1"], inst["x2"],
                            centers @ R.T,
                            inst["user_vectors"] @ R.T, constants)
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
    position = _position(store, stacked["user_vectors"],
                         stacked["user_mask"], 2, cfg.N)
    assert position.shape == (len(rows), cfg.N, cfg.d)
    assert np.all(position[-1] == 0.0)


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


def test_flat_and_per_step_centers_give_the_same_bits():
    """The model reads the spacetime centres less their time coordinate,
    one copy per step; flat (n, d) centres give the same outputs, loss and
    gradients, bit for bit."""
    cfg = toy_config()
    rng = np.random.default_rng(26)
    inst = toy_instance(rng, cfg, w=2, valid=[True, True, False])
    flat = rng.normal(size=(cfg.n, cfg.d))
    inst["centers"][..., 1:] = flat
    store = nw.init_model(cfg, w=2, seed=7)
    rest = (inst["user_vectors"],
            nw.position_constants(inst["user_mask"], 2, cfg.N, cfg.d))
    per_step, _ = nw.forward(store, inst["x1"], inst["x2"],
                             inst["centers"][..., 1:], *rest)
    shared, _ = nw.forward(store, inst["x1"], inst["x2"], flat, *rest)
    for key in ("y1", "y2", "r_prime"):
        assert np.array_equal(getattr(per_step, key), getattr(shared, key))
    # centres (n, d+1) without a step axis: centers[..., 1:] is `flat`
    runs = []
    for centers in (inst["centers"], np.pad(flat, ((0, 0), (1, 0)))):
        loss = nw.discussion_loss(store, dict(inst, centers=centers), 2)
        runs.append((loss, store.grads.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.any(runs[0][1] != 0.0)
