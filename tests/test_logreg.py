import numpy as np
import pytest

from threadcurve import logreg as lr
from threadcurve.optim import OptimError


def _separable(seed=0, n=40):
    rng = np.random.default_rng(seed)
    X = np.concatenate([rng.normal(-2.0, 0.5, size=(n, 3)),
                        rng.normal(2.0, 0.5, size=(n, 3))])
    y = np.concatenate([np.zeros(n), np.ones(n)])
    return X, y


def test_fits_separable_data():
    X, y = _separable()
    w, b, _ = lr.fit_binary(X, y, l2=1e-4)
    p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
    assert np.mean((p > 0.5) == (y == 1)) == 1.0


def test_huge_l2_collapses_to_chance():
    X, y = _separable()
    w, b, _ = lr.fit_binary(X, y, l2=1e6)
    p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
    np.testing.assert_allclose(p, 0.5, atol=1e-2)


def test_deterministic_and_empty_rejected():
    X, y = _separable()
    w1, b1, _ = lr.fit_binary(X, y)
    w2, b2, _ = lr.fit_binary(X, y)
    np.testing.assert_array_equal(w1, w2)
    assert b1 == b2
    with pytest.raises(OptimError):
        lr.fit_binary(np.empty((0, 3)), np.empty(0))


def test_loss_gradients_match_finite_differences():
    from threadcurve.optim import ParameterStore, grad_check
    X, y = _separable(seed=5, n=10)
    store = ParameterStore()
    rng = np.random.default_rng(6)
    store.register("w", rng.normal(size=3))
    store.register("b", rng.normal(size=1))
    report = grad_check(lambda s: lr.logreg_loss(s, X, y, l2=0.01), store)
    assert report["passed"], report


def test_model_prediction_monotone_in_positive_weight_direction():
    X, y = _separable()
    w, b, _ = lr.fit_binary(X, y)
    model = {"weights": w[None], "Biases": np.array([b])}
    x = np.zeros(3)
    base, stepped = lr.predict_proba(
        model, np.stack([x, x + 0.5 * np.sign(w)])[:, None, :])[:, 0]
    assert stepped > base
    assert 0.0 < base < 1.0


def test_train_temporal_one_unit_per_cluster():
    Xa, ya = _separable(seed=1)
    Xb, yb = _separable(seed=2)
    # rows by step, then cluster, as the pipeline holds them
    model, losses = lr.train_temporal(np.stack([Xa, Xb], axis=1),
                                      np.stack([ya, yb], axis=1))
    assert list(model) == ["weights", "Biases"]  # the checkpoint's keys
    assert model["weights"].shape == (2, 3)
    assert model["Biases"].shape == (2,)
    p = lr.predict_proba(model, np.stack([Xa[-1], Xb[-1]]))
    assert p.shape == (2,) and p[1] > 0.5
    # each epoch's loss is the mean of the clusters' losses
    per_cluster = [lr.fit_binary(X, y)[2]
                   for X, y in ((Xa, ya), (Xb, yb))]
    assert losses == np.mean(per_cluster, axis=0).tolist()
    assert len(losses) == 300 and losses[-1] < losses[0]


def test_predict_proba_scores_every_step_and_cluster_at_once():
    rng = np.random.default_rng(9)
    model = {"weights": rng.normal(size=(3, 4)), "Biases": rng.normal(size=3)}
    X = rng.normal(size=(5, 3, 4))  # (steps, clusters, features)
    expected = [[1.0 / (1.0 + np.exp(-(model["weights"][c] @ X[s, c]
                                       + model["Biases"][c])))
                 for c in range(3)] for s in range(5)]
    np.testing.assert_allclose(lr.predict_proba(model, X), expected,
                               rtol=1e-14, atol=0)
