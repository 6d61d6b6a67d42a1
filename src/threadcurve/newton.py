"""Inverse-square gravity baseline over flat embedding space.

Shares the post/window encoder and cumulative context with the curvature
model, but reduces the discussion to a scalar mass and a weighted-average
position, attracting each cluster by inverse squared distance.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Var, concat
from .curvature import (_as_vars, _loss_into_store, cumulative_context,
                        encode_steps, temporal_loss, ForwardTrace)
from .optim import fit, init_params

DIST_EPS = 1e-6


def param_spec(cfg, w):
    return [
        ("W1", (cfg.h1, cfg.post_width)),
        ("W2", (cfg.h1, cfg.comment_width)),
        ("B1", (cfg.h1,)),
        ("W3", (cfg.N + 1,)),
        ("Wp2", (cfg.h2, cfg.h1)),
        ("Bp1", (cfg.h2,)),
        ("Wp1", (1, cfg.h2)),
        ("Bp2", (1,)),
        ("Wp3", (cfg.N * w,)),
        ("Wp4", (cfg.n,)),
    ]


def init_model(cfg, w, seed):
    return init_params(param_spec(cfg, w), seed)


def newton_mass(pv, ctx):
    """Scalar mass per step from the (..., S, h1) contexts: (..., S) in
    (0, 1)."""
    hidden = (ctx @ pv["Wp2"].T + pv["Bp1"]).sigmoid()
    return (hidden @ pv["Wp1"].T + pv["Bp2"]).sigmoid()[..., 0]


def newton_position(pv, user_vectors, mask, w, steps):
    """(..., steps, d) positions. Row i is the exp(Wp3)-weighted mean of
    the embedded commenters' vectors among comments 0..i·w-1, read from
    masked prefix sums at comment i·w-1; the zero vector at step 0 and
    while no commenter is embedded. user_vectors (..., N·w, d) and mask
    (..., N·w)."""
    prefix = (steps - 1) * w  # the comments the last step sees
    mask = np.asarray(mask[..., :prefix], dtype=float)
    omega = pv["Wp3"][:prefix].exp() * mask
    numer = (omega.reshape(omega.shape + (1,))
             * Var(user_vectors[..., :prefix, :])).cumsum(axis=-2)
    read = np.arange(1, steps) * w - 1
    # nobody embedded yet: numer is zero, and 0/1 keeps it so
    empty = np.cumsum(mask, axis=-1)[..., read] == 0
    total = omega.cumsum(axis=-1)[..., read] + empty
    later = numer[..., read, :] / total.reshape(total.shape + (1,))
    origin = np.zeros(later.shape[:-2] + (1, later.shape[-1]))
    return concat([Var(origin), later], axis=-2)


def newton_heads(pv, mass, position, centers):
    """y1[l] = sigmoid(M / (|r - C_l|^2 + eps)); y2 = relu of the weighted
    sum. mass (...), position (..., d), centers (n, d); y1 is (..., n)."""
    diff = position.reshape(position.shape[:-1] + (1, position.shape[-1]))
    d2 = (diff - Var(centers)).square().sum(axis=-1) + DIST_EPS
    arg = mass.reshape(mass.shape + (1,)) / d2
    return arg.sigmoid(), (arg @ pv["Wp4"]).relu(), arg


def forward(store, x1, x2, centers, user_vectors, mask, w):
    """centers here are flat d-dimensional cluster centers (no time),
    shared by every discussion; any leading axes of x1, x2, user_vectors
    and mask are discussions."""
    pv = _as_vars(store)
    steps = x2.shape[-2]
    ctx = cumulative_context(pv, encode_steps(pv, x1, x2, steps))
    position = newton_position(pv, user_vectors, mask, w, steps)
    y1, y2, arg = newton_heads(pv, newton_mass(pv, ctx), position, centers)
    return ForwardTrace(y1=y1, y2=y2, r_prime=arg), pv


def discussion_loss(store, instance, w, lam=1.0):
    trace, pv = forward(store, instance["x1"], instance["x2"],
                        instance["flat_centers"], instance["user_vectors"],
                        instance["user_mask"], w)
    loss = temporal_loss(trace, instance["labels"], instance["growth"],
                         instance["mask"], lam=lam)
    return _loss_into_store(store, pv, loss)


def train_temporal(dataset, cfg, w, seed=0, epochs=30, lr=1e-3):
    """Adam over discussions, one update per discussion per epoch; returns
    the store and the epoch losses."""
    store = init_model(cfg, w, seed)
    return store, fit(store, dataset,
                      lambda s, inst: discussion_loss(s, inst, w, lam=cfg.lam),
                      epochs, lr)


def predict_temporal(store, instance, w):
    trace, _ = forward(store, instance["x1"], instance["x2"],
                       instance["flat_centers"], instance["user_vectors"],
                       instance["user_mask"], w)
    return trace.prediction()
