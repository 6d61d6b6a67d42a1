"""Inverse-square gravity baseline over flat embedding space.

Shares the post/window encoder and cumulative context with the curvature
model, but reduces the discussion to a scalar mass and a weighted-average
position, attracting each cluster by inverse squared distance. Like the
curvature model, its pass is plain numpy over bound views
(`optim.with_transposes`) with a hand-written reverse pass.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from . import curvature
from .curvature import (ONE, ZERO, ForwardTrace, context_backward,
                        cumulative_context, encode_steps, relu,
                        reverse_cumsum, sigmoid, temporal_loss)
from .optim import bound, fit, init_params, with_transposes

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


def newton_mass(P, ctx):
    """Hidden layer (..., S, h2) and scalar mass per step (..., S) in
    (0, 1), from the (..., S, h1) contexts."""
    hidden = sigmoid(ctx @ P["Wp2T"] + P["Bp1"])
    return hidden, sigmoid(hidden @ P["Wp1T"] + P["Bp2"])[..., 0]


def position_constants(mask, w, steps, d):
    """The data-only values `newton_position` reads, from the commenter
    mask (..., N·w): the mask as floats over the comments the last step
    sees, the comment index i·w-1 that step i >= 1 reads, whether no
    commenter is embedded by then, and the zero row of step 0."""
    prefix = (steps - 1) * w
    mask = np.asarray(mask[..., :prefix], dtype=float)
    read = np.arange(1, steps) * w - 1
    empty = np.add.accumulate(mask, axis=-1)[..., read] == 0
    return mask, read, empty, np.zeros(mask.shape[:-1] + (1, d))


def newton_position(P, user_vectors, constants):
    """(..., steps, d) positions, and the (numerators, weights, totals,
    read indices) that the reverse pass reads. Row i is the exp(Wp3)-
    weighted mean of the embedded commenters' vectors among comments
    0..i·w-1, read from masked prefix sums at comment i·w-1; the zero
    vector at step 0 and while no commenter is embedded. user_vectors
    (..., N·w, d); `constants` come from `position_constants`."""
    mask, read, empty, origin = constants
    prefix = mask.shape[-1]  # the comments the last step sees
    omega = np.exp(P["Wp3"][:prefix]) * mask
    numer = np.add.accumulate(omega.reshape(omega.shape + (1,))
                              * user_vectors[..., :prefix, :], axis=-2)
    # nobody embedded yet: numer is zero, and 0/1 keeps it so
    total = np.add.accumulate(omega, axis=-1)[..., read] + empty
    numer = numer[..., read, :]
    later = numer / total.reshape(total.shape + (1,))
    return (np.concatenate([origin, later], axis=-2),
            (numer, omega, total, read))


def newton_heads(P, mass, position, centers):
    """y1[l] = sigmoid(M / (|r - C_l|^2 + eps)); y2 = relu of the weighted
    sum. mass (...), position (..., d), centers (n, d) or one set per step
    (..., n, d); y1 is (..., n). Also returns the argument M / d2 and the
    (r - C, d2) that the reverse pass reads."""
    delta = (position.reshape(position.shape[:-1] + (1, position.shape[-1]))
             - centers)
    d2 = np.add.reduce(delta ** 2, -1) + DIST_EPS
    arg = mass.reshape(mass.shape + (1,)) / d2
    return sigmoid(arg), relu(arg @ P["Wp4"]), arg, (delta, d2)


def forward(store, x1, x2, centers, user_vectors, constants):
    """centers are the cluster centers in embedding space (no time), (n, d)
    or per step; any leading axes of x1, x2, user_vectors and the
    `position_constants` are discussions. Returns the ForwardTrace and the
    values the reverse pass reads."""
    P, _ = bound(store, with_transposes)
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    user_vectors = np.asarray(user_vectors, dtype=float)
    centers = np.asarray(centers, dtype=float)
    steps = x2.shape[-2]
    encodings = encode_steps(P, x1, x2, steps)
    ctx, context = cumulative_context(P, encodings)
    hidden, mass = newton_mass(P, ctx)
    position, weighted = newton_position(P, user_vectors, constants)
    y1, y2, arg, (delta, d2) = newton_heads(P, mass, position, centers)
    kept = SimpleNamespace(encodings=encodings, context=context, ctx=ctx,
                           hidden=hidden, mass=mass, weighted=weighted,
                           delta=delta, d2=d2, user_vectors=user_vectors)
    return ForwardTrace(y1=y1, y2=y2, r_prime=arg), kept


def position_backward(G, kept, d_later):
    """dL/dposition (S-1, d) of one discussion's rows 1.. back into Wp3."""
    numer, omega, total, read = kept.weighted
    prefix, total = len(omega), total.reshape(-1, 1)
    d_numer = np.zeros((prefix, d_later.shape[-1]))
    d_numer[read] = d_later / total
    d_total = np.zeros(prefix)
    d_total[read] = np.add.reduce(-d_later * numer / total ** 2, 1)
    d_omega = (reverse_cumsum(d_total)
               + np.add.reduce(reverse_cumsum(d_numer)
                               * kept.user_vectors[:prefix], 1))
    G["Wp3"][:prefix] = d_omega * omega  # omega is 0 where the mask is
    G["Wp3"][prefix:] = 0.0


def prepare(instance, w):
    """`curvature.prepare`, plus the `position_constants` of the instance,
    derived once per fit; a prepared instance passes through."""
    if isinstance(instance, SimpleNamespace):
        return instance
    inst = curvature.prepare(instance)
    inst.position = position_constants(inst.user_mask, w, inst.x2.shape[-2],
                                       np.shape(inst.user_vectors)[-1])
    return inst


def discussion_loss(store, instance, w, lam=1.0):
    inst = prepare(instance, w)
    trace, kept = forward(store, inst.x1, inst.x2, inst.centers[..., 1:],
                          inst.user_vectors, inst.position)
    loss, d_y1, d_y2 = temporal_loss(trace, inst, lam=lam)
    P, G = bound(store, with_transposes)
    arg, mass, y1, d2 = trace.r_prime, kept.mass[:, None], trace.y1, kept.d2
    d_total = d_y2 * (trace.y2 > ZERO)
    G["Wp4"][...] = arg.T @ d_total
    d_arg = d_y1 * y1 * (ONE - y1) + d_total[:, None] * P["Wp4"]
    d_delta = (-d_arg * mass / d2 ** 2)[..., None] * 2.0 * kept.delta
    position_backward(G, kept, np.add.reduce(d_delta, 1)[1:])
    hidden = kept.hidden
    dz = np.add.reduce(d_arg / d2, 1)[:, None] * mass * (ONE - mass)
    G["Wp1T"][...] = hidden.T @ dz
    G["Bp2"][...] = np.add.reduce(dz, 0)
    dz = (dz @ P["Wp1"]) * hidden * (ONE - hidden)
    G["Wp2T"][...] = kept.ctx.T @ dz
    G["Bp1"][...] = np.add.reduce(dz, 0)
    context_backward(G, kept.encodings, kept.context, dz @ P["Wp2"], inst)
    return loss


def train_temporal(dataset, cfg, w, seed=0, epochs=30, lr=1e-3):
    """Adam over discussions, one update per discussion per epoch; returns
    the store and the epoch losses. Each discussion is prepared once."""
    store = init_model(cfg, w, seed)
    return store, fit(store, [prepare(inst, w) for inst in dataset],
                      lambda s, inst: discussion_loss(s, inst, w, lam=cfg.lam),
                      epochs, lr)


def predict_temporal(store, instance, w):
    x2, user_vectors = instance["x2"], instance["user_vectors"]
    constants = position_constants(instance["user_mask"], w,
                                   np.shape(x2)[-2],
                                   np.shape(user_vectors)[-1])
    trace, _ = forward(store, instance["x1"], x2, instance["centers"][..., 1:],
                       user_vectors, constants)
    return trace.prediction()
