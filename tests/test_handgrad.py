"""The hand-written reverse passes against the autodiff tape.

Each of the three training losses is rebuilt here on `autodiff.Var`, op
for op in the order the numpy forward runs them, so the tape gives the
same loss bit for bit and its gradients are the oracle for the hand
ones.
"""

from dataclasses import replace

import numpy as np
import pytest

from threadcurve import curvature as cv
from threadcurve import newton as nw
from threadcurve.autodiff import Var, concat
from threadcurve.optim import Adam
from threadcurve.pipeline import DESK_WIDTHS
from conftest import toy_config, toy_instance, toy_split

REL_TOL = 1e-10


def _vars(store):
    return {name: Var(value) for name, value in store.items()}


def _encode_post(pv, x1):
    return (Var(x1) @ pv["W1"].T + pv["B1"]).relu()


def _context(pv, x1, x2, steps):
    window = (Var(x2[..., :steps - 1, :]) @ pv["W2"].T + pv["B1"]).relu()
    enc = concat([_encode_post(pv, x1[..., None, :]), window], axis=-2)
    omega = pv["W3"][:steps].exp()
    numer = (omega.reshape(steps, 1) * enc).cumsum(axis=-2)
    return numer / omega.cumsum().reshape(steps, 1)


def _r_total(pv, ctx, centers):
    h1 = ctx.shape[-1]
    from_ctx = ctx @ pv["W5"][:, :h1].T
    from_ctx = from_ctx.reshape(from_ctx.shape[:-1] + (1, from_ctx.shape[-1]))
    hidden = (from_ctx + Var(centers) @ pv["W5"][:, h1:].T + pv["B4"]).sigmoid()
    m_diag = (hidden @ pv["W4"].T + pv["B3"]).sigmoid()
    hidden = (Var(centers) @ pv["W7"].T + pv["B6"]).sigmoid()
    g_inv = (hidden @ pv["W6"].T + pv["B5"]).sigmoid()
    r_prime = (m_diag * g_inv).sum(axis=-1)
    return r_prime, r_prime @ pv["W8"]


def _bce(p, target, axis=None):
    p = p.clip(cv.PROB_CLIP, 1.0 - cv.PROB_CLIP)
    t = Var(np.asarray(target, dtype=float))
    return -(t * p.log() + (1.0 - t) * (1.0 - p).log()).mean(axis=axis)


def _temporal_loss(y1, y2, inst, lam):
    valid = np.flatnonzero(inst["mask"])
    per_step = _bce(y1[valid], inst["labels"][valid], axis=1)
    if lam != 0.0:
        diff = y2[valid] - np.asarray(inst["growth"], dtype=float)[valid]
        per_step = per_step + lam * diff.square()
    return per_step.mean()


def tape_rgnet(pv, inst, lam):
    centers = inst["centers"]
    ctx = _context(pv, inst["x1"], inst["x2"], centers.shape[-3])
    r_prime, r_total = _r_total(pv, ctx, centers)
    y1 = (r_prime - cv.neutral_point(centers.shape[-1] - 1)).sigmoid()
    return _temporal_loss(y1, r_total.relu(), inst, lam)


def tape_one_shot(pv, batch):
    _, r_total = _r_total(pv, _encode_post(pv, batch["x1"]), batch["centers0"])
    return _bce(r_total.sigmoid(), batch["label"])


def tape_newton(pv, inst, w, lam):
    steps = inst["x2"].shape[-2]
    ctx = _context(pv, inst["x1"], inst["x2"], steps)
    hidden = (ctx @ pv["Wp2"].T + pv["Bp1"]).sigmoid()
    mass = (hidden @ pv["Wp1"].T + pv["Bp2"]).sigmoid()[..., 0]
    prefix = (steps - 1) * w
    mask = np.asarray(inst["user_mask"][:prefix], dtype=float)
    omega = pv["Wp3"][:prefix].exp() * mask
    numer = (omega.reshape(omega.shape + (1,))
             * Var(inst["user_vectors"][:prefix])).cumsum(axis=-2)
    read = np.arange(1, steps) * w - 1
    empty = np.cumsum(mask)[read] == 0
    total = omega.cumsum()[read] + empty
    later = numer[read] / total.reshape(total.shape + (1,))
    position = concat([Var(np.zeros((1, later.shape[-1]))), later], axis=0)
    diff = position.reshape(position.shape[:-1] + (1, position.shape[-1]))
    d2 = ((diff - Var(inst["centers"][..., 1:])).square().sum(axis=-1)
          + nw.DIST_EPS)
    arg = mass.reshape(mass.shape + (1,)) / d2
    return _temporal_loss(arg.sigmoid(), (arg @ pv["Wp4"]).relu(), inst, lam)


def _run(case):
    """The case's hand loss and flat gradients, and the tape's."""
    store, hand_loss, tape_loss = CASES[case]()
    store.grads.fill(np.nan)  # a gradient the hand pass skips shows
    loss = hand_loss(store)
    pv = _vars(store)
    tape = tape_loss(pv)
    tape.backward()
    expected = np.concatenate([
        (pv[name].grad if pv[name].grad is not None
         else np.zeros_like(value)).ravel()
        for name, value in store.items()])
    return store, loss, float(tape.data), expected


def _rgnet(inst, store, lam=1.0):
    return (store, lambda s: cv.discussion_loss(s, inst, lam=lam),
            lambda pv: tape_rgnet(pv, inst, lam))


def _one_shot(batch, store):
    return (store, lambda s: cv.nontemporal_batch_loss(s, batch),
            lambda pv: tape_one_shot(pv, batch))


def _newton(inst, store, lam=1.0):
    return (store, lambda s: nw.discussion_loss(s, inst, 2, lam=lam),
            lambda pv: tape_newton(pv, inst, 2, lam))


def _split(w=2, seed=40):
    """toy_split's rows valid at every step and valid at step 0 only."""
    rows, _ = toy_split(np.random.default_rng(seed), toy_config(), w)
    return rows[:2]


def _batch(size, seed):
    cfg, rng = toy_config(), np.random.default_rng(seed)
    return {"x1": rng.normal(size=(size, cfg.post_width)),
            "centers0": rng.normal(size=(cfg.n, cfg.d + 1)),
            "label": np.arange(size) % 2.0}


def rgnet_clipped_step():
    """y1 = sigmoid(R' - (d+1)/4) with R' < d+1 reaches the clip only
    for a wide d. Step 0's first cluster sits where every stress-energy
    and metric unit saturates, so its y1 is clipped and the rest not."""
    cfg = toy_config(d=24)
    inst = toy_instance(np.random.default_rng(46), cfg)
    inst["centers"][..., 0] = -100.0
    inst["centers"][0, 0, 0] = 100.0
    store = cv.init_model(cfg, seed=1)
    w5 = store.get("W5")
    w5[:, cfg.h1:] = 0.0
    w5[:, cfg.h1] = 1.0
    store.set("W4", np.full(store.get("W4").shape, 10.0))
    store.set("B3", np.full(cfg.d + 1, -5.0))
    store.set("W6", np.zeros(store.get("W6").shape))
    store.set("B5", np.full(cfg.d + 1, 40.0))
    trace, _ = cv.forward(store, inst["x1"], inst["x2"], inst["centers"])
    clipped = trace.y1_array() > 1.0 - cv.PROB_CLIP
    assert clipped[0, 0] and clipped.sum() == 1
    return _rgnet(inst, store)


def rgnet_dead_growth_head():
    inst = _split()[0]
    store = cv.init_model(toy_config(), seed=2)
    store.set("W8", -np.abs(store.get("W8")))
    trace, _ = cv.forward(store, inst["x1"], inst["x2"], inst["centers"])
    assert np.all(trace.r_total <= 0)
    return _rgnet(inst, store)


def one_shot_clipped():
    cfg = toy_config()
    batch = _batch(6, 42)
    store = cv.init_model(cfg, seed=0)
    store.set("W8", np.full(cfg.n, 3.5))
    y3, _ = cv.predict_nontemporal(store, batch["x1"], batch["centers0"])
    clipped = y3 > 1.0 - cv.PROB_CLIP
    assert clipped.any() and not clipped.all()
    return _one_shot(batch, store)


def newton_nobody_embedded():
    cfg = toy_config()
    inst = toy_instance(np.random.default_rng(43), cfg, w=2)
    inst["user_mask"][:] = False
    return _newton(inst, nw.init_model(cfg, w=2, seed=3))


def newton_dead_growth_head():
    cfg = toy_config()
    store = nw.init_model(cfg, w=2, seed=4)
    store.set("Wp4", -np.abs(store.get("Wp4")))
    return _newton(_split()[0], store)


CASES = {
    "rgnet": lambda: _rgnet(_split()[0], cv.init_model(toy_config(), 0)),
    "rgnet_masked_step": lambda: _rgnet(_split()[1],
                                        cv.init_model(toy_config(), 1)),
    "rgnet_no_growth_loss": lambda: _rgnet(_split()[0],
                                           cv.init_model(toy_config(), 2),
                                           lam=0.0),
    "rgnet_growth_weight": lambda: _rgnet(_split()[1],
                                          cv.init_model(toy_config(), 3),
                                          lam=0.3),
    "rgnet_clipped_step": rgnet_clipped_step,
    "rgnet_dead_growth_head": rgnet_dead_growth_head,
    "one_shot_single_post": lambda: _one_shot(
        _batch(1, 41), cv.init_model(toy_config(), 0)),
    "one_shot_batch": lambda: _one_shot(_batch(32, 41),
                                        cv.init_model(toy_config(), 1)),
    "one_shot_clipped": one_shot_clipped,
    "newton": lambda: _newton(_split(2)[0], nw.init_model(toy_config(), 2, 0)),
    "newton_masked_step": lambda: _newton(_split(2)[1],
                                          nw.init_model(toy_config(), 2, 1)),
    "newton_no_growth_loss": lambda: _newton(
        _split(2)[0], nw.init_model(toy_config(), 2, 2), lam=0.0),
    "newton_nobody_embedded": newton_nobody_embedded,
    "newton_dead_growth_head": newton_dead_growth_head,
}


@pytest.mark.parametrize("case", list(CASES))
def test_handgrad_matches_tape(case):
    store, loss, tape_loss, expected = _run(case)
    assert loss == tape_loss
    scale = np.abs(expected).max()
    assert scale > 0
    np.testing.assert_allclose(store.grads, expected, rtol=0,
                               atol=REL_TOL * scale)
    # each reverse step also sums in the tape's order, so training on the
    # hand gradients reproduces the tape's checkpoints byte for byte
    np.testing.assert_array_equal(store.grads, expected)
    if case.endswith("dead_growth_head") or case.endswith("no_growth_loss"):
        head = "W8" if case.startswith("rgnet") else "Wp4"
        np.testing.assert_array_equal(store.grad(head), 0.0)
    if case.startswith("one_shot"):  # no window is read
        assert not store.grad("W2").any() and not store.grad("W3").any()


def test_sigmoid_is_bitwise_the_tapes():
    x = np.random.default_rng(45).normal(scale=30.0, size=100_000)
    x[:7] = [0.0, -0.0, 700.0, -700.0, np.inf, -np.inf, np.nan]
    np.testing.assert_array_equal(cv.sigmoid(x), Var(x).sigmoid().data)


def _tape_fit(store, rows, tape_loss, epochs, lr):
    """`optim.fit`'s loop, one Adam step per discussion, on the tape's
    losses and gradients."""
    opt, losses = Adam(store, lr=lr), []
    for _ in range(epochs):
        total = 0.0
        for inst in rows:
            pv = _vars(store)
            loss = tape_loss(pv, inst)
            loss.backward()
            for name, var in pv.items():
                store.set_grad(name, np.zeros_like(var.data)
                               if var.grad is None else var.grad)
            opt.step()
            total += float(loss.data)
        losses.append(total / len(rows))
    return losses


@pytest.mark.parametrize("model", ["rgnet", "newton"])
@pytest.mark.parametrize("lam", [1.0, 0.0, 0.3])
def test_training_matches_adam_on_the_tape_epoch_by_epoch(model, lam):
    """Three epochs over the valid-every-step and the valid-at-step-0-only
    rows: the checkpoint's bytes and every epoch loss equal Adam stepped on
    the tape's gradients, so no prepared constant or optimizer buffer goes
    stale after the first update."""
    cfg, rows = replace(toy_config(), lam=lam), _split()

    def tape(pv, inst):
        if model == "rgnet":
            return tape_rgnet(pv, inst, lam)
        return tape_newton(pv, inst, 2, lam)

    if model == "rgnet":
        store, losses = cv.train_temporal(rows, cfg, seed=5, epochs=3,
                                          lr=1e-2)
        tape_store = cv.init_model(cfg, 5)
    else:
        store, losses = nw.train_temporal(rows, cfg, 2, seed=5, epochs=3,
                                          lr=1e-2)
        tape_store = nw.init_model(cfg, 2, 5)
    start = tape_store.values.copy()
    assert losses == _tape_fit(tape_store, rows, tape, epochs=3, lr=1e-2)
    assert store.values.tobytes() == tape_store.values.tobytes()
    assert not np.array_equal(store.values, start)


def desk_config(task="temporal"):
    """The widths the benchmark and CI train at (`pipeline.DESK_WIDTHS`),
    with the desk packs' feature widths; and the window size w."""
    widths = dict(DESK_WIDTHS)
    w = widths.pop("w")
    f = 26 if task == "temporal" else 32
    return cv.ModelConfig(comment_width=f, post_width=32, **widths), w


@pytest.mark.parametrize("model", ["rgnet", "newton"])
def test_training_at_desk_widths_matches_adam_on_the_tape(model):
    """Three epochs at the widths the benchmark trains at, over a row valid
    at every step and one valid at step 0 only: the gradient views written
    through transposes and the matmul kernels numpy picks depend on the
    shapes, so the toy widths above do not cover these."""
    cfg, w = desk_config()
    rows = toy_split(np.random.default_rng(48), cfg, w)[0][:2]

    def tape(pv, inst):
        if model == "rgnet":
            return tape_rgnet(pv, inst, cfg.lam)
        return tape_newton(pv, inst, w, cfg.lam)

    if model == "rgnet":
        store, losses = cv.train_temporal(rows, cfg, seed=6, epochs=3,
                                          lr=1e-2)
        tape_store = cv.init_model(cfg, 6)
    else:
        store, losses = nw.train_temporal(rows, cfg, w, seed=6, epochs=3,
                                          lr=1e-2)
        tape_store = nw.init_model(cfg, w, 6)
    start = tape_store.values.copy()
    assert losses == _tape_fit(tape_store, rows, tape, epochs=3, lr=1e-2)
    assert store.values.tobytes() == tape_store.values.tobytes()
    assert not np.array_equal(store.values, start)


@pytest.mark.parametrize("widths", ["toy", "desk"])
def test_one_shot_training_matches_adam_on_the_tape(widths):
    """Full-batch one-shot training over several epochs equals Adam stepped
    on the tape's gradients, checkpoint bytes and epoch losses alike."""
    cfg = toy_config() if widths == "toy" else desk_config("nontemporal")[0]
    rng = np.random.default_rng(49)
    batch = {"x1": rng.normal(size=(24, cfg.post_width)),
             "centers0": rng.normal(size=(cfg.n, cfg.d + 1)),
             "label": np.arange(24) % 2.0}
    store, losses = cv.train_nontemporal(batch, cfg, seed=7, epochs=4,
                                         lr=1e-2)
    tape_store = cv.init_model(cfg, 7)
    start = tape_store.values.copy()
    assert losses == _tape_fit(tape_store, [batch], tape_one_shot, epochs=4,
                               lr=1e-2)
    assert store.values.tobytes() == tape_store.values.tobytes()
    assert not np.array_equal(store.values, start)
