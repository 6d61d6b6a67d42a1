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
