import math

import numpy as np
import pytest

from threadcurve.clustering import (T_CAP_SECONDS, ClusterModel,
                                    homogeneity_entropy, kmeans,
                                    spacetime_centers, time_coordinate)
from threadcurve.embedding import EmbeddingModel


def test_time_coordinate_frozen_values():
    assert time_coordinate(0) == 0.0
    assert time_coordinate(-5) == 0.0
    assert time_coordinate(3599) == pytest.approx(
        math.log(3600) / math.log(T_CAP_SECONDS + 1), abs=1e-12)
    assert time_coordinate(T_CAP_SECONDS) == pytest.approx(1.0, abs=1e-12)
    assert time_coordinate(10 * T_CAP_SECONDS) == 1.0


def test_homogeneity_entropy_values():
    # engaged users per cluster
    assert homogeneity_entropy(np.ones(8)) == pytest.approx(math.log(8))
    assert homogeneity_entropy([2, 2, 0, 0]) == pytest.approx(math.log(2))
    assert homogeneity_entropy([0, 0, 0, 3, 0]) == 0.0
    with pytest.raises(ValueError):
        homogeneity_entropy(np.zeros(4))


def _blob_model(seed=0, per=10, sep=10.0):
    rng = np.random.default_rng(seed)
    X = np.concatenate([
        rng.normal(0.0, 0.1, size=(per, 2)),
        rng.normal(sep, 0.1, size=(per, 2)),
        rng.normal([-sep, sep], 0.1, size=(per, 2)),
    ])
    ids = ["u%02d" % k for k in range(3 * per)]
    return EmbeddingModel(ids, X, np.zeros(len(ids))), per


def _inertia(model, cm):
    """Squared distance of each embedded user to its assigned centre,
    summed."""
    centers = cm.centers[[cm.assignment[u] for u in model.user_ids]]
    return float(((model.vectors - centers) ** 2).sum())


def test_kmeans_recovers_separated_blobs():
    model, per = _blob_model()
    cm = kmeans(model, n=3, seed=1)
    labels = [cm.assignment["u%02d" % k] for k in range(3 * per)]
    for blob in range(3):
        block = labels[blob * per:(blob + 1) * per]
        assert len(set(block)) == 1  # each blob kept intact
    assert len({block[0] for block in
                [labels[b * per:(b + 1) * per] for b in range(3)]}) == 3
    assert _inertia(model, cm) < 3 * per * 0.1  # tight clusters, tiny inertia


def test_kmeans_deterministic_per_seed():
    model, _ = _blob_model()
    a = kmeans(model, n=3, seed=5)
    b = kmeans(model, n=3, seed=5)
    np.testing.assert_array_equal(a.centers, b.centers)
    assert a.assignment == b.assignment


def test_kmeans_rejects_too_many_clusters():
    model = EmbeddingModel(["a", "b"], np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        kmeans(model, n=3)


def test_kmeans_handles_duplicate_points():
    X = np.zeros((5, 2))
    model = EmbeddingModel(["u%d" % k for k in range(5)], X, np.zeros(5))
    cm = kmeans(model, n=2, seed=0)
    assert _inertia(model, cm) == 0.0


def test_cluster_model_save_load(tmp_path):
    cm = ClusterModel(np.array([[0.0, 1.0], [2.0, 3.0]]),
                      {"a": 1, "b": 0})
    cm.save(str(tmp_path / "assign.txt"), str(tmp_path / "centers.txt"))
    back = ClusterModel.load(str(tmp_path / "assign.txt"),
                             str(tmp_path / "centers.txt"))
    np.testing.assert_array_equal(back.centers, cm.centers)
    assert back.assignment == cm.assignment


def test_spacetime_centers_shape_and_values():
    # the seconds each step has seen: a post whose first window ends at
    # t=3599 and whose second is empty, then a post with no comment
    elapsed = np.array([[0, 3599, 3599], [0, 0, 0]])
    cm = ClusterModel(np.array([[1.0, 2.0], [3.0, 4.0]]), {})
    out = spacetime_centers(cm, elapsed)
    assert out.shape == (2, 3, 2, 3)
    # step 0 observes only the post
    assert np.all(out[:, 0, :, 0] == 0.0) and np.all(out[1, :, :, 0] == 0.0)
    tau1 = math.log(3600) / math.log(T_CAP_SECONDS + 1)
    np.testing.assert_allclose(out[0, 1, :, 0], tau1, atol=1e-12)
    # the empty trailing window leaves the clock unchanged
    np.testing.assert_allclose(out[0, 2, :, 0], tau1, atol=1e-12)
    # spatial block is the raw centers at every step
    for i in range(3):
        np.testing.assert_array_equal(out[:, i, :, 1:],
                                      np.broadcast_to(cm.centers, (2, 2, 2)))
    # tau never decreases across steps
    taus = out[0, :, 0, 0]
    assert np.all(np.diff(taus) >= 0)
