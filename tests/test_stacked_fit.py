"""The stacked logistic fit (`logreg.fit_binary` on (n, m, f) units)
against the fit one unit at a time (`logreg_reference`)."""

import numpy as np
import pytest

from threadcurve import logreg as lr
from threadcurve.optim import OptimError

import logreg_reference as ref


def _shapes(count=44, seed=0):
    """(m, n, f): steps, clusters and features, with every f in {1, 2, 3}
    often, and one step, one cluster and both at once among them."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 3, 2), (57, 1, 1), (1, 1, 3), (1, 1, 21)]
    while len(shapes) < count:
        shapes.append((int(rng.integers(1, 150)), int(rng.integers(1, 5)),
                       [1, 2, 3, 4, 7, 13, 21][len(shapes) % 7]))
    return shapes


def test_stacked_fit_matches_the_unit_loop():
    rng = np.random.default_rng(1)
    shapes = _shapes()
    assert {f for _, _, f in shapes} >= {1, 2, 3}
    for m, n, f in shapes:
        # the pipeline's layout: rows by step, then cluster
        X = rng.normal(size=(m, n, f)) * rng.uniform(0.1, 3.0)
        y = (rng.random((m, n)) < rng.uniform(0.0, 1.0)).astype(float)
        w, b, losses = lr.fit_binary(X.transpose(1, 0, 2), y.T)
        assert w.shape == (n, f) and b.shape == (n,)
        assert losses.shape == (n, lr.EPOCHS)
        for c in range(n):
            w_c, b_c, losses_c = ref.fit_unit(X[:, c], y[:, c])
            assert np.array_equal(w[c], w_c), (m, n, f, c)
            assert b[c] == b_c, (m, n, f, c)
            assert losses[c].tolist() == losses_c, (m, n, f, c)


def test_one_unit_fits_as_in_the_loop():
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(30, 4)), (rng.random(30) < 0.5).astype(float)
    w, b, losses = lr.fit_binary(X, y)
    w_ref, b_ref, losses_ref = ref.fit_unit(X, y)
    assert np.array_equal(w, w_ref) and b == b_ref
    assert losses.tolist() == losses_ref


@pytest.mark.parametrize("labels", [[0, 1, 2], [0.5, 1, 0], [0, np.nan, 1]])
def test_labels_other_than_0_and_1_are_refused(labels):
    X = np.ones((3, 2))
    with pytest.raises(OptimError, match="labels must be 0 or 1"):
        lr.fit_binary(X, np.array(labels, dtype=float))
