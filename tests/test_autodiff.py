import gc

import numpy as np
import pytest

from threadcurve.autodiff import Var, concat, wrap


def numeric_grad(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        plus = f(x)
        flat[k] = orig - h
        minus = f(x)
        flat[k] = orig
        g.ravel()[k] = (plus - minus) / (2 * h)
    return g


def check(build, x, atol=1e-6):
    """build(Var) -> scalar Var; compares backward() to central differences."""
    v = Var(np.array(x, dtype=float))
    out = build(v)
    out.backward()
    num = numeric_grad(lambda arr: float(build(Var(arr)).data), x)
    np.testing.assert_allclose(v.grad, num, atol=atol)


def test_add_mul_broadcasting():
    check(lambda v: ((v + np.array([1.0, 2.0, 3.0])) * 2.0).sum(),
          np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]]))
    check(lambda v: (v * v + 3.0 * v - 1.0).sum(), np.array([1.0, -2.0, 0.5]))


def test_sub_div_neg():
    check(lambda v: ((1.0 - v) / (v + 3.0)).sum(), np.array([0.5, -1.0, 2.0]))
    check(lambda v: (-v / 2.0).sum(), np.array([4.0, -3.0]))
    check(lambda v: (2.0 / v).sum(), np.array([1.0, 4.0, -2.0]))


def test_array_on_the_left_stays_on_the_tape():
    a = np.array([2.0, 4.0])
    for op, grad in ((lambda v: a * v, a), (lambda v: a + v, [1.0, 1.0]),
                     (lambda v: a - v, [-1.0, -1.0]),
                     (lambda v: a / v, -a / np.array([1.0, 2.0]) ** 2)):
        v = Var(np.array([1.0, 2.0]))
        out = op(v)
        assert isinstance(out, Var)
        out.sum().backward()
        np.testing.assert_allclose(v.grad, grad)


def test_matmul_all_rank_combinations():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 4))
    b = rng.normal(size=4)
    c = rng.normal(size=3)
    check(lambda v: (wrap(A) @ v).sum(), b)             # 2d @ 1d (rhs grad)
    check(lambda v: (v @ wrap(b)).sum(), A)             # 2d @ 1d (lhs grad)
    check(lambda v: (wrap(c) @ v).sum(), A)             # 1d @ 2d
    d = rng.normal(size=4)
    check(lambda v: (v @ wrap(d)), b)                   # 1d @ 1d -> scalar
    B = rng.normal(size=(4, 2))
    check(lambda v: (v @ wrap(B)).sum(), A)             # 2d @ 2d
    T = rng.normal(size=(2, 3, 4))
    check(lambda v: (v @ wrap(B)).square().sum(), T)   # stacked rows @ 2d
    check(lambda v: (wrap(T) @ v).square().sum(), B)   # (rhs grad)


def test_elementwise_ops():
    x = np.array([-1.5, -0.1, 0.2, 2.0])
    check(lambda v: v.relu().sum(), x)
    check(lambda v: v.sigmoid().sum(), x)
    check(lambda v: v.exp().sum(), x)
    check(lambda v: v.square().sum(), x)
    check(lambda v: v.log().sum(), np.array([0.5, 1.0, 3.0]))


def test_clip_blocks_gradient_outside_range():
    v = Var(np.array([-2.0, 0.5, 3.0]))
    out = v.clip(-1.0, 1.0).sum()
    out.backward()
    np.testing.assert_allclose(v.grad, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(out.data, -1.0 + 0.5 + 1.0)


def test_sum_mean_axes():
    x = np.arange(6.0).reshape(2, 3)
    check(lambda v: v.sum(axis=0).square().sum(), x)
    check(lambda v: v.mean(axis=1).square().sum(), x)
    check(lambda v: v.mean().square(), x)


def test_indexing_accumulates():
    v = Var(np.array([1.0, 2.0, 3.0]))
    out = (v[0] * 2.0 + v[0] + v[2]).sum()
    out.backward()
    np.testing.assert_allclose(v.grad, [3.0, 0.0, 1.0])


def test_concat():
    a = Var(np.array([1.0, 2.0]))
    b = Var(np.array([3.0]))
    out = (concat([a, b]) * np.array([1.0, 2.0, 3.0])).sum()
    out.backward()
    np.testing.assert_allclose(a.grad, [1.0, 2.0])
    np.testing.assert_allclose(b.grad, [3.0])


def test_cumsum_and_reshape():
    x = np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]])
    weights = np.arange(6.0).reshape(2, 3)
    check(lambda v: (v.cumsum(axis=0) * weights).sum(), x)
    check(lambda v: (v.cumsum(axis=1).square() * weights).sum(), x)
    check(lambda v: (v.reshape(3, 2) * weights.T).square().sum(), x)
    np.testing.assert_array_equal(Var(x).cumsum(axis=1).data,
                                  np.cumsum(x, axis=1))


def test_transpose():
    A = np.arange(6.0).reshape(2, 3)
    check(lambda v: (v.T @ wrap(np.array([1.0, 2.0]))).sum(), A)


def test_reused_node_accumulates_gradient():
    v = Var(np.array(2.0))
    y = v * v + v.exp() * v  # v appears on several paths
    y.backward()
    expected = 2 * 2.0 + np.exp(2.0) * (1 + 2.0)
    assert v.grad == pytest.approx(expected, rel=1e-12)


def test_backward_handles_a_deep_chain():
    v = Var(np.array(1.0))
    out = v
    for _ in range(5000):  # far beyond the recursion limit
        out = out + v
    out.backward()
    assert float(v.grad) == 5001.0


def _backward_once():
    v = Var(np.arange(4.0))
    out = ((v * 2.0).sigmoid() + v.exp()).sum()
    out.backward()
    return v.grad


def test_backward_leaves_no_garbage_cycle():
    gc.collect()
    gc.disable()
    try:
        _backward_once()
        # the whole graph was freed by reference counting
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_backward_requires_scalar():
    v = Var(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        (v * 2.0).backward()


def test_sigmoid_saturation_is_finite():
    v = Var(np.array([-1000.0, 1000.0]))
    out = v.sigmoid()
    out.sum().backward()
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)
    assert np.all(np.isfinite(v.grad))
