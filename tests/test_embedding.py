import math

import numpy as np
import pytest

from threadcurve.cooccur import CooccurrenceMatrix
from threadcurve.embedding import (EmbeddingModel, _pair_arrays,
                                   guvec_loss_and_grad, train_guvec)


def _pair_matrix(entries, dim):
    A = CooccurrenceMatrix(dim)
    for i, j, v in entries:
        A.add(i, j, v)
    return A


def _loss_and_grad(vectors, biases, A):
    return guvec_loss_and_grad(np.asarray(vectors, dtype=float),
                               np.asarray(biases, dtype=float),
                               *_pair_arrays(A))


def test_zero_residual_gives_zero_loss():
    # log(1 + A_01) = 1; biases 0.5 + 0.5 cancel it exactly
    A = _pair_matrix([(0, 1, math.e - 1.0)], 2)
    loss, gv, gb = _loss_and_grad(np.zeros((2, 2)), [0.5, 0.5], A)
    assert loss == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(gv, 0.0, atol=1e-15)
    np.testing.assert_allclose(gb, 0.0, atol=1e-15)


def test_loss_value_single_pair():
    # residual = v0.v1 + b0 + b1 - log(1+A) with A=1 -> log 2
    A = _pair_matrix([(0, 1, 1.0)], 2)
    loss, _, _ = _loss_and_grad([[1.0, 0.0], [1.0, 0.0]], np.zeros(2), A)
    lw = math.log(2.0)
    assert loss == pytest.approx(lw * (1.0 - lw) ** 2, abs=1e-12)


def test_rotation_invariance_of_loss():
    rng = np.random.default_rng(5)
    A = _pair_matrix([(0, 1, 2.0), (0, 2, 0.5), (1, 3, 1.5), (2, 3, 3.0)], 4)
    V = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    theta = 0.7
    R = np.array([[math.cos(theta), -math.sin(theta), 0],
                  [math.sin(theta), math.cos(theta), 0],
                  [0, 0, 1.0]])
    loss0, _, _ = _loss_and_grad(V, b, A)
    loss1, _, _ = _loss_and_grad(V @ R.T, b, A)
    assert loss1 == pytest.approx(loss0, abs=1e-9)


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    A = _pair_matrix([(0, 1, 1.0), (1, 2, 2.5), (0, 2, 0.3)], 3)
    ii = np.array([0, 0, 1])
    jj = np.array([1, 2, 2])
    logw = np.log1p(np.array([1.0, 0.3, 2.5]))
    V = rng.normal(size=(3, 2))
    b = rng.normal(size=3)
    _, gv, gb = guvec_loss_and_grad(V, b, ii, jj, logw)
    h = 1e-6
    for (arr, grad) in ((V, gv), (b, gb)):
        flat = arr.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            plus = guvec_loss_and_grad(V, b, ii, jj, logw)[0]
            flat[k] = orig - h
            minus = guvec_loss_and_grad(V, b, ii, jj, logw)[0]
            flat[k] = orig
            assert grad.ravel()[k] == pytest.approx(
                (plus - minus) / (2 * h), abs=1e-5)


def test_training_losses_strictly_decrease_early():
    A = _pair_matrix([(0, 1, 3.0), (2, 3, 3.0), (0, 2, 0.1)], 4)
    _, losses = train_guvec(A, ["a", "b", "c", "d"], d=2, seed=0, epochs=10,
                            return_losses=True)
    assert losses[0] > losses[1] > losses[2]
    assert losses[-1] < losses[0]


def test_two_clique_structure_recovered():
    # two tight cliques joined by nothing: within-clique dot products should
    # exceed cross-clique ones after training
    entries = [(0, 1, 6.0), (0, 2, 6.0), (1, 2, 6.0),
               (3, 4, 6.0), (3, 5, 6.0), (4, 5, 6.0)]
    A = _pair_matrix(entries, 6)
    model = train_guvec(A, list("abcdef"), d=2, seed=1, epochs=400, lr=0.05)
    V = model.vectors
    within = [V[i] @ V[j] for i, j, _ in entries]
    cross = [V[i] @ V[j] for i in range(3) for j in range(3, 6)]
    assert min(within) > max(cross)


def test_dimension_must_be_positive():
    A = _pair_matrix([(0, 1, 1.0)], 2)
    with pytest.raises(ValueError):
        train_guvec(A, ["a", "b"], d=0)


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        train_guvec(CooccurrenceMatrix(2), ["a", "b"], d=2)


def test_determinism_and_save_load(tmp_path):
    A = _pair_matrix([(0, 1, 2.0), (1, 2, 1.0)], 3)
    m1 = train_guvec(A, ["a", "b", "c"], d=2, seed=7, epochs=20)
    m2 = train_guvec(A, ["a", "b", "c"], d=2, seed=7, epochs=20)
    np.testing.assert_array_equal(m1.vectors, m2.vectors)
    np.testing.assert_array_equal(m1.biases, m2.biases)

    path = tmp_path / "emb.txt"
    m1.save(str(path))
    m3 = EmbeddingModel.load(str(path))
    assert m3.user_ids == m1.user_ids
    np.testing.assert_array_equal(m3.vectors, m1.vectors)
    np.testing.assert_array_equal(m3.biases, m1.biases)
    np.testing.assert_array_equal(m3.vector("b"), m1.vectors[1])
    assert m3.dim == 2
