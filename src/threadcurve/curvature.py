"""Curvature-based engagement model.

A discussion loads a learned diagonal "stress-energy" vector at each
cluster of the user spacetime; contracting it with a learned diagonal
inverse metric gives a per-cluster scalar curvature that drives the
engagement and growth heads.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .autodiff import Var, concat
from .optim import fit, init_params

PROB_CLIP = 1e-7


@dataclass
class ModelConfig:
    comment_width: int      # per-comment feature width f
    post_width: int         # f + d_w (title block appended)
    d: int                  # user embedding dimension
    n: int                  # number of user clusters
    N: int                  # windows / prediction steps per discussion
    h1: int = 128
    h2: int = 64
    h3: int = 64
    lam: float = 1.0        # growth-loss weight


def param_spec(cfg):
    return [
        ("W1", (cfg.h1, cfg.post_width)),
        ("W2", (cfg.h1, cfg.comment_width)),
        ("B1", (cfg.h1,)),
        ("W3", (cfg.N + 1,)),
        ("W5", (cfg.h2, cfg.h1 + cfg.d + 1)),
        ("B4", (cfg.h2,)),
        ("W4", (cfg.d + 1, cfg.h2)),
        ("B3", (cfg.d + 1,)),
        ("W7", (cfg.h3, cfg.d + 1)),
        ("B6", (cfg.h3,)),
        ("W6", (cfg.d + 1, cfg.h3)),
        ("B5", (cfg.d + 1,)),
        ("W8", (cfg.n,)),
    ]


def init_model(cfg, seed):
    store = init_params(param_spec(cfg), seed)
    # positive head weights keep relu(R_total) alive at the start of
    # training (R' is positive, so negative W8 would zero the growth head
    # and its gradient permanently)
    store.set("W8", np.abs(store.get("W8")))
    return store


def _as_vars(store):
    return {name: Var(store.get(name)) for name in store.names()}


@dataclass
class ForwardTrace:
    """Whole-pass values over S steps, after any leading discussion axes:
    y1 and r_prime (..., S, n), y2 and r_total (..., S), m_diag and g_inv
    (..., S, n, d+1)."""
    y1: Var
    y2: Var
    r_prime: Var = None
    r_total: Var = None
    m_diag: Var = None
    g_inv: Var = None

    @property
    def steps(self):
        """Step i's values as views: steps[i].y1.data is y1.data[i]."""
        return [SimpleNamespace(**{k: Var(v.data[i])
                                   for k, v in vars(self).items()
                                   if v is not None})
                for i in range(len(self.y2.data))]

    def y1_array(self):
        return self.y1.data

    def y2_array(self):
        return self.y2.data

    def g_inv_array(self):
        return self.g_inv.data

    def m_array(self):
        return self.m_diag.data

    def prediction(self):
        """Per-step probabilities, decisions (y1 > 0.5) and growth estimates."""
        return {"y1": self.y1.data,
                "decisions": (self.y1.data > 0.5).astype(int),
                "y2": self.y2.data, "trace": self}


def encode_post(pv, x1):
    """relu(W1·x1 + B1) for post rows (..., f+d_w)."""
    return (Var(x1) @ pv["W1"].T + pv["B1"]).relu()


def encode_steps(pv, x1, x2, steps):
    """(..., steps, h1) encodings: the post, then windows 1..steps-1.

    The post stays a (..., 1, f+d_w) operand: a 2-D (B, f) @ W1.T is not
    bit-identical to one (1, f) row at a time, a stacked (B, 1, f) is.
    """
    window = (Var(x2[..., :steps - 1, :]) @ pv["W2"].T + pv["B1"]).relu()
    return concat([encode_post(pv, x1[..., None, :]), window], axis=-2)


def cumulative_context(pv, encodings):
    """Row i: the exp(W3)-weighted mean of encodings[..., 0..i, :], from
    prefix sums along the step axis."""
    steps = encodings.shape[-2]
    omega = pv["W3"][:steps].exp()
    numer = (omega.reshape(steps, 1) * encodings).cumsum(axis=-2)
    return numer / omega.cumsum().reshape(steps, 1)


def stress_energy(pv, ctx, centers):
    """Diagonal stress-energy vectors of every cluster, in (0, 1).

    ctx (..., h1) pairs with centers (..., n, d+1); W5 acts on the
    concatenation [ctx, centre], split here into its ctx and centre blocks.
    """
    h1 = ctx.shape[-1]
    from_ctx = ctx @ pv["W5"][:, :h1].T
    from_ctx = from_ctx.reshape(from_ctx.shape[:-1] + (1, from_ctx.shape[-1]))
    hidden = (from_ctx + Var(centers) @ pv["W5"][:, h1:].T + pv["B4"]).sigmoid()
    return (hidden @ pv["W4"].T + pv["B3"]).sigmoid()


def inverse_metric(pv, centers):
    """Diagonal inverse metric per cluster; a pure function of the
    time-prepended cluster centers (..., n, d+1)."""
    hidden = (Var(centers) @ pv["W7"].T + pv["B6"]).sigmoid()
    return (hidden @ pv["W6"].T + pv["B5"]).sigmoid()


def curvature(pv, m_diag, g_inv):
    """Per-cluster R' (..., n) and its W8-weighted total (...)."""
    r_prime = (m_diag * g_inv).sum(axis=-1)
    return r_prime, r_prime @ pv["W8"]


def neutral_point(d):
    """Value of R' when every weight and bias is zero: Σ 0.5·0.5 over d+1.

    R' = Σ M·g_inv is strictly positive (both factors are sigmoid outputs),
    so σ2(R') alone could never cross the fixed 0.5 decision threshold.
    Centering the engagement head at this operating point lets y1 swing to
    either side of the threshold, mirroring the shifted growth target used
    for the (equally sign-limited) regression head.
    """
    return (d + 1) / 4.0


def heads(r_prime, r_total, neutral=0.0):
    return (r_prime - neutral).sigmoid(), r_total.relu()


def forward(store, x1, x2, centers):
    """Run the model over every prediction step in one pass.

    x2 rows are mean feature vectors of windows 1..N (row k = window k+1);
    step i consumes the post encoding plus windows 1..i and the step-i
    spacetime centers (..., N, n, d+1). Any leading axes are discussions:
    x1 (..., f+d_w) and x2 (..., N, f). Returns (ForwardTrace, parameter
    Vars).
    """
    centers = np.asarray(centers, dtype=float)
    pv = _as_vars(store)
    ctx = cumulative_context(pv, encode_steps(pv, x1, x2, centers.shape[-3]))
    m_diag = stress_energy(pv, ctx, centers)
    g_inv = inverse_metric(pv, centers)
    r_prime, r_total = curvature(pv, m_diag, g_inv)
    y1, y2 = heads(r_prime, r_total, neutral=neutral_point(centers.shape[-1] - 1))
    return ForwardTrace(y1=y1, y2=y2, r_prime=r_prime, r_total=r_total,
                        m_diag=m_diag, g_inv=g_inv), pv


def bce(p, target, axis=None):
    """Mean binary cross-entropy with clipped probabilities."""
    p = p.clip(PROB_CLIP, 1.0 - PROB_CLIP)
    t = Var(np.asarray(target, dtype=float))
    return -(t * p.log() + (1.0 - t) * (1.0 - p).log()).mean(axis=axis)


def temporal_loss(trace, labels, growth, mask, lam=1.0):
    """Mean over valid steps of BCE(y1, Y) + lam * (y2 - g)^2."""
    valid = np.flatnonzero(mask)
    if not valid.size:
        raise ValueError("no valid prediction steps")
    per_step = bce(trace.y1[valid], np.asarray(labels)[valid], axis=1)
    if lam != 0.0:
        diff = trace.y2[valid] - np.asarray(growth, dtype=float)[valid]
        per_step = per_step + lam * diff.square()
    return per_step.mean()


def _loss_into_store(store, pv, loss):
    loss.backward()
    for name in store.names():
        g = pv[name].grad
        if g is None:  # parameter not on this graph (e.g. no window path)
            g = np.zeros_like(store.get(name))
        store.set_grad(name, g)
    return float(loss.data)


def discussion_loss(store, instance, lam=1.0):
    """Forward + loss for one discussion instance; fills gradients."""
    trace, pv = forward(store, instance["x1"], instance["x2"], instance["centers"])
    loss = temporal_loss(trace, instance["labels"], instance["growth"],
                         instance["mask"], lam=lam)
    return _loss_into_store(store, pv, loss)


def train_temporal(dataset, cfg, seed=0, epochs=30, lr=1e-3):
    """Adam over discussions, one update per discussion per epoch; returns
    the store and the epoch losses."""
    store = init_model(cfg, seed)
    return store, fit(store, dataset,
                      lambda s, inst: discussion_loss(s, inst, lam=cfg.lam),
                      epochs, lr)


def predict_temporal(store, x1, x2, centers):
    trace, _ = forward(store, x1, x2, centers)
    return trace.prediction()


def nontemporal_forward(store, x1, centers0):
    """Step-0 pass from the post features alone; y3 = sigmoid(R_total).

    One post, x1 (f+d_w,), or a batch, x1 (B, f+d_w); centers0 (n, d+1)
    is shared by every post, so the inverse metric is computed once.
    """
    pv = _as_vars(store)
    ctx = encode_post(pv, x1)  # single-term cumulative context
    m_diag = stress_energy(pv, ctx, centers0)
    g_inv = inverse_metric(pv, centers0)
    _, r_total = curvature(pv, m_diag, g_inv)
    return r_total.sigmoid(), pv


def predict_nontemporal(store, x1, centers0):
    """y3 of one post or of every post of x1 in one pass, and its class:
    "attract" where y3 > 0.5."""
    y3, _ = nontemporal_forward(store, x1, centers0)
    return y3.data, np.where(y3.data > 0.5, "attract", "no-attract")


def nontemporal_batch_loss(store, batch):
    """Mean BCE of y3 over a stacked batch, x1 (B, f+d_w), label (B,) and
    the shared centers0 (n, d+1); fills grads."""
    y3, pv = nontemporal_forward(store, batch["x1"], batch["centers0"])
    return _loss_into_store(store, pv, bce(y3, batch["label"]))


def train_nontemporal(dataset, cfg, seed=0, epochs=100, lr=5e-3):
    """Full-batch Adam over the stacked `dataset`, one update per epoch;
    returns the store and the epoch losses."""
    store = init_model(cfg, seed)
    return store, fit(store, [dataset] if len(dataset["label"]) else [],
                      nontemporal_batch_loss, epochs, lr)

