import numpy as np
import pytest

from threadcurve.autodiff import Var, wrap
from threadcurve.optim import (Adam, OptimError, ParameterStore, fit,
                               grad_check, init_params)


def test_init_params_bias_zero_and_glorot_bound():
    store = init_params([("W", (8, 4)), ("B1", (8,)), ("b_out", (3,))], seed=1)
    assert np.all(store.get("B1") == 0.0)
    assert np.all(store.get("b_out") == 0.0)
    bound = np.sqrt(6.0 / (4 + 8))
    W = store.get("W")
    assert np.all(np.abs(W) <= bound)
    assert W.std() > 0  # actually random, not degenerate


def test_init_params_deterministic_in_seed():
    a = init_params([("W", (5, 5))], seed=3).get("W")
    b = init_params([("W", (5, 5))], seed=3).get("W")
    c = init_params([("W", (5, 5))], seed=4).get("W")
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_duplicate_and_bad_shape_rejected():
    with pytest.raises(OptimError):
        init_params([("W", (2,)), ("W", (2,))], seed=0)
    with pytest.raises(OptimError):
        init_params([("W", (0, 3))], seed=0)
    store = ParameterStore()
    store.register("x", np.zeros(3))
    with pytest.raises(OptimError):
        store.set("x", np.zeros(4))


def test_adam_minimizes_quadratic():
    store = ParameterStore()
    store.register("x", np.array([4.0, -3.0]))
    opt = Adam(store, lr=0.1)
    for _ in range(300):
        x = store.get("x")
        store.set_grad("x", 2 * (x - np.array([1.0, 2.0])))
        opt.step()
    np.testing.assert_allclose(store.get("x"), [1.0, 2.0], atol=1e-3)


def test_fit_makes_one_update_per_batch_and_averages_each_pass():
    store = ParameterStore()
    store.register("x", np.array([4.0]))
    visited = []

    def loss(s, target):
        x = s.get("x")
        visited.append(float(x[0]))
        s.set_grad("x", 2 * (x - target))
        return float((x[0] - target) ** 2)

    losses = fit(store, [1.0, 3.0], loss, epochs=3, lr=0.1)
    assert len(visited) == 6 and len(losses) == 3
    assert visited[1] != visited[0]  # an update between the two batches
    assert losses[0] == pytest.approx((9.0 + (visited[1] - 3.0) ** 2) / 2)
    with pytest.raises(OptimError):
        fit(store, [], loss, epochs=1, lr=0.1)


class ReferenceAdam:
    """Adam one tensor at a time, as the optimizer was first written."""

    def __init__(self, tensors, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.p = {n: np.array(v, dtype=float) for n, v in tensors.items()}
        self.m = {n: np.zeros_like(v) for n, v in self.p.items()}
        self.v = {n: np.zeros_like(v) for n, v in self.p.items()}
        self.lr, self.beta1, self.beta2, self.eps, self.t = (
            lr, beta1, beta2, eps, 0)

    def step(self, grads):
        self.t += 1
        for name, g in grads.items():
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = (self.beta2 * self.v[name]
                            + (1 - self.beta2) * g ** 2)
            m_hat = self.m[name] / (1 - self.beta1 ** self.t)
            v_hat = self.v[name] / (1 - self.beta2 ** self.t)
            self.p[name] = self.p[name] - self.lr * m_hat / (
                np.sqrt(v_hat) + self.eps)


SHAPES = {"W": (3, 4), "s": (), "empty": (2, 0), "b": (5,), "T": (2, 1, 3)}


def _store_and_reference(seed=0, lr=0.05):
    rng = np.random.default_rng(seed)
    tensors = {n: rng.normal(size=shape) for n, shape in SHAPES.items()}
    store = ParameterStore()
    for name, value in tensors.items():
        store.register(name, value)
    return store, ReferenceAdam(tensors, lr), rng


def test_flat_adam_matches_per_tensor_adam_bit_for_bit():
    store, ref, rng = _store_and_reference()
    opt = Adam(store, lr=0.05)
    for _ in range(500):
        # gradients that depend on the values, spread over many scales
        grads = {n: np.sin(3 * store.get(n)) * 10.0 ** rng.uniform(-6, 2)
                 + rng.normal(size=SHAPES[n]) for n in SHAPES}
        for name, g in grads.items():
            store.set_grad(name, g)
        opt.step()
        ref.step(grads)
    for name in SHAPES:
        assert store.get(name).shape == SHAPES[name]
        assert np.array_equal(store.get(name), ref.p[name]), name
    assert store.get("s").ndim == 0 and store.get("empty").size == 0


def test_non_finite_gradient_names_its_tensor_and_changes_nothing():
    store, ref, rng = _store_and_reference(seed=1)
    opt = Adam(store, lr=0.05)
    grads = {n: rng.normal(size=SHAPES[n]) for n in SHAPES}
    for name, g in grads.items():
        store.set_grad(name, g)
    opt.step()
    ref.step(grads)
    values = store.values.copy()
    bad = dict(grads, s=np.array(np.nan))  # "s" is the second tensor
    for name, g in bad.items():
        store.set_grad(name, g)
    with pytest.raises(OptimError, match="non-finite gradient for 's'"):
        opt.step()
    assert np.array_equal(store.values, values)
    # moments and step count are untouched: the next step is the one the
    # reference takes after its first
    for name, g in grads.items():
        store.set_grad(name, g)
    opt.step()
    ref.step(grads)
    for name in SHAPES:
        assert np.array_equal(store.get(name), ref.p[name]), name


def test_non_finite_update_names_its_tensor():
    big = np.finfo(float).max
    store = ParameterStore()
    store.register("a", np.zeros(2))
    store.register("big", np.array([1.0, big]))
    store.set_grad("big", np.array([0.0, -1.0]))
    opt = Adam(store, lr=big)
    with np.errstate(over="ignore"), pytest.raises(
            OptimError, match="non-finite update for 'big'"):
        opt.step()
    assert store.get("big")[1] == big
    # the moments and the step count, kept in reused buffers, are untouched:
    # the next step is the reference's first
    ref = ReferenceAdam({"a": np.zeros(2), "big": np.array([1.0, big])},
                        lr=big)
    grads = {"a": np.array([0.5, -0.25]), "big": np.zeros(2)}
    for name, g in grads.items():
        store.set_grad(name, g)
    opt.step()
    ref.step(grads)
    for name in grads:
        assert np.array_equal(store.get(name), ref.p[name]), name
    assert np.all(np.abs(store.get("a")) > 1e307)


def test_finite_step_whose_sums_overflow_matches_the_reference():
    """Two gradient entries (first step) and two values at the largest
    float: the sums of the gradient and of the update overflow, but every
    element is finite, so each step is taken, bit for bit as the reference
    takes it."""
    big = np.finfo(float).max
    rng = np.random.default_rng(2)
    tensors = {n: rng.normal(size=shape) for n, shape in SHAPES.items()}
    tensors["b"][:2] = big
    store = ParameterStore()
    for name, value in tensors.items():
        store.register(name, value)
    ref, opt = ReferenceAdam(tensors, lr=0.05), Adam(store, lr=0.05)
    for step in range(3):
        grads = {n: rng.normal(size=SHAPES[n]) for n in SHAPES}
        if step == 0:
            grads["W"][0, :2] = big
        for name, g in grads.items():
            store.set_grad(name, g)
        with np.errstate(over="ignore"):
            assert np.isfinite(store.grads.sum()) == (step > 0)
            opt.step()
            ref.step(grads)
            assert not np.isfinite(store.values.sum())
    for name in SHAPES:
        assert np.array_equal(store.get(name), ref.p[name]), name
    assert opt.t == 3 and np.all(np.isfinite(store.values))


def test_store_views_share_the_flat_buffers():
    store = ParameterStore()
    store.register("a", np.ones((2, 2)))
    store.register("b", np.array(3.0))
    view = store.get("a")
    store.set("a", np.full((2, 2), 5.0))
    assert np.all(view == 5.0) and store.values.tolist() == [5.0] * 4 + [3.0]
    store.set_grad("b", 2.0)
    assert store.grads.tolist() == [0.0] * 4 + [2.0]
    assert store.grad("b").shape == () and store.grad("b") == 2.0
    store.zero_grad()
    assert not store.grads.any()
    assert [name for name, _ in store.items()] == store.names() == ["a", "b"]
    assert store.locate(4) == ("b", 0) and store.locate(1) == ("a", 1)


def test_store_views_are_built_once_per_buffer():
    store = ParameterStore()
    store.register("a", np.ones(3))
    first = dict(store.items())
    assert store.get("a") is first["a"] and store.get("a") is store.get("a")
    assert store.grad("a") is store.grad("a")
    # an in-place write, as Adam and grad_check make, shows in every view
    store.values[1] = 7.0
    assert first["a"][1] == 7.0 and store.get("a")[1] == 7.0
    # register makes new buffers and new views; the old view keeps its own
    store.register("b", np.zeros((2, 2)))
    assert store.get("a") is not first["a"]
    store.values[:] = np.arange(7.0)
    assert store.get("a").tolist() == [0.0, 1.0, 2.0]
    assert first["a"].tolist() == [1.0, 7.0, 1.0]
    assert store.get("b").tolist() == [[3.0, 4.0], [5.0, 6.0]]
    store.set_grad("b", np.ones((2, 2)))
    assert store.grads.tolist() == [0.0] * 3 + [1.0] * 4
    assert [(n, v.shape) for n, v in store.items()] == [("a", (3,)),
                                                        ("b", (2, 2))]


def test_set_grad_rejects_a_wrong_shape():
    store = ParameterStore()
    store.register("x", np.zeros((2, 3)))
    for wrong in (np.zeros(6), np.zeros((3, 2)), np.zeros((1, 2, 3)), 0.0):
        with pytest.raises(OptimError, match="'x'"):
            store.set_grad("x", wrong)
    assert not store.grads.any()


def test_adam_rejects_non_finite_gradient():
    store = ParameterStore()
    store.register("x", np.zeros(2))
    store.set_grad("x", np.array([np.nan, 0.0]))
    with pytest.raises(OptimError):
        Adam(store).step()


def test_grad_check_passes_correct_gradient():
    store = ParameterStore()
    store.register("w", np.array([0.3, -0.7, 1.2]))

    def loss(s):
        w = Var(s.get("w"))
        out = (w.sigmoid() * wrap(np.array([1.0, 2.0, 3.0]))).sum()
        out.backward()
        s.set_grad("w", w.grad)
        return float(out.data)

    report = grad_check(loss, store, tol=1e-4)
    assert report["passed"]
    assert report["checked"] == 3
    assert report["max_rel_error"] <= 1e-4


def test_grad_check_negative_control_catches_wrong_gradient():
    store = ParameterStore()
    store.register("w", np.array([0.5, 1.5]))

    def bad_loss(s):
        w = s.get("w")
        s.set_grad("w", 3.0 * w)  # true gradient is 2w
        return float(np.sum(w ** 2))

    report = grad_check(bad_loss, store, tol=1e-4)
    assert not report["passed"]
    assert report["worst"] is not None


def test_grad_check_fails_a_nan_gradient():
    store = ParameterStore()
    store.register("w", np.array([0.5, 1.5]))

    def nan_loss(s):
        w = s.get("w")
        s.set_grad("w", np.array([2 * w[0], np.nan]))
        return float(np.sum(w ** 2))

    report = grad_check(nan_loss, store, tol=1e-4)
    assert not report["passed"]
