"""Curvature-based engagement model.

A discussion loads a learned diagonal "stress-energy" vector at each
cluster of the user spacetime; contracting it with a learned diagonal
inverse metric gives a per-cluster scalar curvature that drives the
engagement and growth heads.

The passes are plain numpy over views bound once per store (`bind`): each
weight matrix also transposed, each gradient as the view the reverse pass
writes it into. `forward` serves training and prediction, over any leading
discussion axes; the one-shot pass shares its `curvature_layers`. Every
reverse step sums in the order reverse-mode autodiff over the same ops sums
(bias gradients one leading axis at a time, weight gradients as x.T @ dz),
so the gradients, and the models trained on them, are bit-identical to the
tape's in `autodiff`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .optim import bound, fit, init_params, with_transposes

PROB_CLIP = 1e-7

# constant operands as 0-d arrays: numpy dispatches them faster than
# Python floats, to the same bits
ZERO, ONE, EXP_CAP = np.array(0.0), np.array(1.0), np.array(500.0)
CLIP_LO, CLIP_HI = np.array(PROB_CLIP), np.array(1.0 - PROB_CLIP)


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


def bind(views):
    """`with_transposes` of a name -> view dict, plus W5's blocks: W5 acts
    on [ctx, centre], its ctx block is W5c and its centre block W5z."""
    P = with_transposes(views)
    h1 = P["W1"].shape[0]
    P.update(W5c=P["W5"][:, :h1], W5cT=P["W5"][:, :h1].T,
             W5zT=P["W5"][:, h1:].T)
    return P


def sigmoid(x):
    """Logistic function; exp sees only -|x|, capped at 500."""
    e = np.exp(-np.minimum(np.abs(x), EXP_CAP))
    return np.where(x >= ZERO, ONE, e) / (ONE + e)


def relu(x):
    return x * (x > ZERO)


def reverse_cumsum(g):
    """Gradient of a prefix sum along the first axis: suffix sums of g."""
    return np.add.accumulate(g[::-1])[::-1]


def sum_leading(g, ndim):
    """g summed over its leading axes, one at a time, down to `ndim` axes:
    the gradient of an operand that broadcast over them."""
    while g.ndim > ndim:
        g = np.add.reduce(g, 0)
    return g


def rows_t(x):
    """x (..., i) as (i, rows): x.T @ dz is dL/dW.T of z = x @ W.T."""
    return x.reshape(-1, x.shape[-1]).T


@dataclass
class ForwardTrace:
    """Whole-pass values over S steps, after any leading discussion axes:
    y1 and r_prime (..., S, n), y2 and r_total (..., S), m_diag and g_inv
    (..., S, n, d+1)."""
    y1: np.ndarray
    y2: np.ndarray
    r_prime: np.ndarray = None
    r_total: np.ndarray = None
    m_diag: np.ndarray = None
    g_inv: np.ndarray = None

    @property
    def steps(self):
        """Step i's values, each under `.data`: steps[i].y1.data is y1[i]."""
        return [SimpleNamespace(**{k: SimpleNamespace(data=v[i])
                                   for k, v in vars(self).items()
                                   if v is not None})
                for i in range(len(self.y2))]

    def y1_array(self):
        return self.y1

    def y2_array(self):
        return self.y2

    def g_inv_array(self):
        return self.g_inv

    def m_array(self):
        return self.m_diag

    def prediction(self):
        """Per-step probabilities, decisions (y1 > 0.5) and growth estimates."""
        return {"y1": self.y1, "decisions": (self.y1 > 0.5).astype(int),
                "y2": self.y2, "trace": self}


def encode_steps(P, x1, x2, steps):
    """(..., steps, h1) encodings relu(x @ W.T + B1): the post through W1,
    then windows 1..steps-1 through W2; P is a model's bound views.

    The post stays a (..., 1, f+d_w) operand: a 2-D (B, f) @ W1.T is not
    bit-identical to one (1, f) row at a time, a stacked (B, 1, f) is.
    """
    post = x1[..., None, :] @ P["W1T"] + P["B1"]
    window = x2[..., :steps - 1, :] @ P["W2T"] + P["B1"]
    return np.concatenate([relu(post), relu(window)], axis=-2)


def cumulative_context(P, encodings):
    """Row i: the exp(W3)-weighted mean of encodings[..., 0..i, :], from
    prefix sums along the step axis; returns it and the (numerator,
    weights, denominator) that the reverse pass reads."""
    steps = encodings.shape[-2]
    omega = np.exp(P["W3"][:steps])
    numer = np.add.accumulate(omega.reshape(steps, 1) * encodings, axis=-2)
    denom = np.add.accumulate(omega).reshape(steps, 1)
    return numer / denom, (numer, omega, denom)


def context_backward(G, encodings, context, d_ctx, inst):
    """dL/dctx (S, h1) of one discussion back through the cumulative
    context and the post and window encoders, into the gradient views G of
    W1, W2, B1 and W3; the encoders' input rows come from `inst`, as
    `prepare` made it."""
    numer, omega, denom = context
    steps = len(encodings)
    d_weighted = reverse_cumsum(d_ctx / denom)
    d_denom = np.add.reduce(-d_ctx * numer / denom ** 2, 1)
    d_omega = (np.add.reduce(d_weighted * encodings, 1)
               + reverse_cumsum(d_denom))
    G["W3"][:steps] = d_omega * omega
    G["W3"][steps:] = 0.0
    d_pre = d_weighted * omega.reshape(steps, 1) * (encodings > ZERO)
    G["W1T"][...] = inst.post_t @ d_pre[:1]
    G["W2T"][...] = inst.windows_t @ d_pre[1:]
    G["B1"][...] = d_pre[0] + np.add.reduce(d_pre[1:], 0)


def curvature_layers(P, ctx, centers):
    """Stress-energy, inverse metric and curvature on contexts ctx
    (..., h1) and time-prepended centres (..., n, d+1): the hidden layer
    and diagonal stress-energy vectors of every cluster, the hidden layer
    and diagonal inverse metric (a pure function of the centres), and the
    per-cluster R' (..., n) and its W8-weighted total (...)."""
    from_ctx = (ctx @ P["W5cT"])[..., None, :]  # the same for every cluster
    se_hidden = sigmoid(from_ctx + centers @ P["W5zT"] + P["B4"])
    m_diag = sigmoid(se_hidden @ P["W4T"] + P["B3"])
    im_hidden = sigmoid(centers @ P["W7T"] + P["B6"])
    g_inv = sigmoid(im_hidden @ P["W6T"] + P["B5"])
    r_prime = np.add.reduce(m_diag * g_inv, -1)
    return se_hidden, m_diag, im_hidden, g_inv, r_prime, r_prime @ P["W8"]


def curvature_backward(P, G, ctx, centers_t, kept, d_r_prime, d_r_total):
    """dL/dR' and dL/dR_total back through `curvature_layers`, whose
    values are `kept`, into the gradient views G; centers_t is
    rows_t(centres). Returns dL/dctx. One-shot posts share the centres, so
    the gradients that reach them sum over the batch axis first."""
    se_hidden, m_diag, im_hidden, g_inv, r_prime, _ = kept
    G["W8"][...] = r_prime.T @ d_r_total
    d_r = (d_r_prime + d_r_total[:, None] * P["W8"])[..., None]
    dz = sum_leading(d_r * m_diag, g_inv.ndim) * g_inv * (ONE - g_inv)
    G["W6T"][...] = rows_t(im_hidden) @ dz.reshape(-1, dz.shape[-1])
    G["B5"][...] = sum_leading(dz, 1)
    dz = (dz @ P["W6"]) * im_hidden * (ONE - im_hidden)
    G["W7T"][...] = centers_t @ dz.reshape(-1, dz.shape[-1])
    G["B6"][...] = sum_leading(dz, 1)
    dz = d_r * g_inv * m_diag * (ONE - m_diag)
    G["W4T"][...] = rows_t(se_hidden) @ dz.reshape(-1, dz.shape[-1])
    G["B3"][...] = sum_leading(dz, 1)
    dz = (dz @ P["W4"]) * se_hidden * (ONE - se_hidden)
    d_from_ctx = np.add.reduce(dz, -2)
    G["W5cT"][...] = ctx.T @ d_from_ctx
    G["W5zT"][...] = centers_t @ sum_leading(dz, g_inv.ndim).reshape(
        -1, dz.shape[-1])
    G["B4"][...] = sum_leading(dz, 1)
    return d_from_ctx @ P["W5c"]


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
    return sigmoid(r_prime - neutral), relu(r_total)


def forward(store, x1, x2, centers):
    """Run the model over every prediction step in one pass.

    x2 rows are mean feature vectors of windows 1..N (row k = window k+1);
    step i consumes the post encoding plus windows 1..i and the step-i
    spacetime centers (..., N, n, d+1). Any leading axes are discussions:
    x1 (..., f+d_w) and x2 (..., N, f). Returns the ForwardTrace and the
    values the reverse pass reads.
    """
    P, _ = bound(store, bind)
    centers = np.asarray(centers, dtype=float)
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    encodings = encode_steps(P, x1, x2, centers.shape[-3])
    ctx, context = cumulative_context(P, encodings)
    kept = curvature_layers(P, ctx, centers)
    _, m_diag, _, g_inv, r_prime, r_total = kept
    y1, y2 = heads(r_prime, r_total, neutral_point(centers.shape[-1] - 1))
    return (ForwardTrace(y1, y2, r_prime, r_total, m_diag, g_inv),
            (encodings, context, ctx, kept))


def clipped_bce(p, t, not_t, g_t, g_not_t, axis):
    """Cross-entropy of p against t (1 - t is not_t) summed along `axis`,
    and g times its gradient from g·t and g·not_t; zero where p is clipped."""
    q = np.minimum(np.maximum(p, CLIP_LO), CLIP_HI)
    not_q = ONE - q
    loss = np.add.reduce(-(t * np.log(q) + not_t * np.log(not_q)), axis)
    return loss, (g_t / q - g_not_t / not_q) * (q == p)


def bce(p, target):
    """Mean binary cross-entropy with clipped probabilities, and its
    gradient with respect to p (zero where p is clipped)."""
    t = np.asarray(target, dtype=float)
    share, not_t = 1.0 / p.size, 1.0 - t
    loss, grad = clipped_bce(p, t, not_t, -share * t, -share * not_t, None)
    return loss * share, grad


def prepare(instance):
    """The instance's arrays, with the data-only values its loss reads
    derived once per fit (x2 holds a row per step); a prepared instance
    passes through."""
    if isinstance(instance, SimpleNamespace):
        return instance
    x1, x2, centers = (np.asarray(instance[key], dtype=float)
                       for key in ("x1", "x2", "centers"))
    valid = np.flatnonzero(instance["mask"])
    if not valid.size:
        raise ValueError("no valid prediction steps")
    t = np.asarray(np.asarray(instance["labels"])[valid], dtype=float)
    share, label_share = 1.0 / valid.size, 1.0 / t.shape[1]
    g, not_t = -(share * label_share), 1.0 - t  # mean over labels, then steps
    return SimpleNamespace(**dict(
        instance, x1=x1, x2=x2, centers=centers, centers_t=rows_t(centers),
        t=t, not_t=not_t, g_t=g * t, g_not_t=g * not_t, share=share,
        label_share=label_share, post_t=rows_t(x1[None, :]),
        windows_t=rows_t(x2[:-1]),
        growth_valid=np.asarray(instance["growth"], dtype=float)[valid],
        valid=None if valid.size == len(instance["mask"]) else valid))


def temporal_loss(trace, inst, lam=1.0):
    """Mean over valid steps of BCE(y1, Y) + lam * (y2 - g)^2, from the
    values of `prepare` (`valid` is None when every step is); returns the
    loss and its gradients with respect to trace.y1 and trace.y2."""
    y1, y2, valid = trace.y1, trace.y2, inst.valid
    if valid is not None:
        y1, y2 = y1[valid], y2[valid]
    per_step, d_y1 = clipped_bce(y1, inst.t, inst.not_t, inst.g_t,
                                 inst.g_not_t, 1)
    per_step, d_y2 = per_step * inst.label_share, np.zeros(y2.shape)
    if lam != 0.0:
        diff = y2 - inst.growth_valid
        per_step = per_step + lam * diff ** 2
        d_y2 = inst.share * lam * 2.0 * diff
    if valid is not None:
        full = np.zeros_like(trace.y1), np.zeros_like(trace.y2)
        full[0][valid], full[1][valid] = d_y1, d_y2
        d_y1, d_y2 = full
    return np.add.reduce(per_step) * inst.share, d_y1, d_y2


def discussion_loss(store, instance, lam=1.0):
    """Forward + loss for one discussion instance, raw or prepared; fills
    gradients."""
    inst = prepare(instance)
    trace, (encodings, context, ctx, kept) = forward(
        store, inst.x1, inst.x2, inst.centers)
    loss, d_y1, d_y2 = temporal_loss(trace, inst, lam=lam)
    P, G = bound(store, bind)
    y1 = trace.y1
    d_ctx = curvature_backward(P, G, ctx, inst.centers_t, kept,
                               d_y1 * y1 * (ONE - y1),
                               d_y2 * (trace.y2 > ZERO))
    context_backward(G, encodings, context, d_ctx, inst)
    return loss


def train_temporal(dataset, cfg, seed=0, epochs=30, lr=1e-3):
    """Adam over discussions, one update per discussion per epoch; returns
    the store and the epoch losses. Each discussion is prepared once."""
    store = init_model(cfg, seed)
    return store, fit(store, [prepare(inst) for inst in dataset],
                      lambda s, inst: discussion_loss(s, inst, lam=cfg.lam),
                      epochs, lr)


def predict_temporal(store, x1, x2, centers):
    trace, _ = forward(store, x1, x2, centers)
    return trace.prediction()


def nontemporal_forward(store, x1, centers0):
    """Step-0 pass from the post features alone; y3 = sigmoid(R_total).

    One post, x1 (f+d_w,), or a batch, x1 (B, f+d_w); centers0 (n, d+1)
    is shared by every post, so the inverse metric is computed once.
    Returns y3 under `.data` and the values the reverse pass reads.
    """
    P, _ = bound(store, bind)
    x1 = np.asarray(x1, dtype=float)
    centers0 = np.asarray(centers0, dtype=float)
    ctx = relu(x1 @ P["W1T"] + P["B1"])  # single-term cumulative context
    kept = curvature_layers(P, ctx, centers0)
    return SimpleNamespace(data=sigmoid(kept[-1])), (x1, ctx, centers0, kept)


def predict_nontemporal(store, x1, centers0):
    """y3 of one post or of every post of x1 in one pass, and its class:
    "attract" where y3 > 0.5."""
    y3, _ = nontemporal_forward(store, x1, centers0)
    return y3.data, np.where(y3.data > 0.5, "attract", "no-attract")


def nontemporal_batch_loss(store, batch):
    """Mean BCE of y3 over a stacked batch, x1 (B, f+d_w), label (B,) and
    the shared centers0 (n, d+1); fills grads."""
    y3, (x1, ctx, centers0, kept) = nontemporal_forward(
        store, batch["x1"], batch["centers0"])
    y3 = y3.data
    loss, d_y3 = bce(y3, batch["label"])
    P, G = bound(store, bind)
    d_ctx = curvature_backward(P, G, ctx, rows_t(centers0), kept, 0.0,
                               d_y3 * y3 * (ONE - y3))
    d_pre = d_ctx * (ctx > ZERO)
    G["W1T"][...] = rows_t(x1) @ d_pre
    G["B1"][...] = sum_leading(d_pre, 1)
    G["W2"][...] = 0.0  # the one-shot pass reads no window
    G["W3"][...] = 0.0
    return float(loss)


def train_nontemporal(dataset, cfg, seed=0, epochs=100, lr=5e-3):
    """Full-batch Adam over the stacked `dataset`, one update per epoch;
    returns the store and the epoch losses."""
    store = init_model(cfg, seed)
    return store, fit(store, [dataset] if len(dataset["label"]) else [],
                      nontemporal_batch_loss, epochs, lr)
