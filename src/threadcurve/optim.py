"""Parameter store, glorot init, Adam and its training loop, and a
finite-difference gradient check."""

from __future__ import annotations

import math

import numpy as np


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and its floor
# Adam's constant operands as 0-d arrays: numpy dispatches them faster than
# Python floats, to the same bits
_BETA1, _BETA2, _EPS = np.array(BETA1), np.array(BETA2), np.array(EPS)
_STEP1, _STEP2 = np.array(1 - BETA1), np.array(1 - BETA2)


class OptimError(Exception):
    pass


class ParameterStore:
    """Named tensors as views into one flat float64 vector of values and
    one of gradients; `layout` maps each name to its (slice, shape).

    The views are built once per buffer, in `register`, and stay valid
    because everything else writes the buffers in place.
    """

    def __init__(self):
        self.values = np.zeros(0)
        self.grads = np.zeros(0)
        self.layout = {}
        self._views, self._grad_views, self._bound = {}, {}, {}

    def register(self, name, value):
        """Append a tensor; views taken earlier keep the old buffers."""
        if name in self.layout:
            raise OptimError("duplicate parameter %r" % name)
        value = np.asarray(value, dtype=float)
        start = self.values.size
        self.layout[name] = (slice(start, start + value.size), value.shape)
        self.values = np.append(self.values, value)
        self.grads = np.append(self.grads, np.zeros(value.size))
        self._views = self._views_of(self.values)
        self._grad_views = self._views_of(self.grads)
        self._bound = {}

    def _views_of(self, flat):
        return {name: flat[where].reshape(shape)
                for name, (where, shape) in self.layout.items()}

    def names(self):
        return list(self.layout)

    def items(self):
        return self._views.items()

    def _checked(self, views, name, value):
        view = views[name]
        shape = value.shape if type(value) is np.ndarray else np.shape(value)
        if shape != view.shape:
            raise OptimError("shape %r for %r, expected %r"
                             % (shape, name, view.shape))
        return view

    def get(self, name):
        return self._views[name]

    def set(self, name, value):
        self._checked(self._views, name, value)[...] = value

    def grad(self, name):
        return self._grad_views[name]

    def set_grad(self, name, grad):
        self._checked(self._grad_views, name, grad)[...] = grad

    def zero_grad(self):
        self.grads.fill(0.0)

    def locate(self, index):
        """(name, index within that tensor) of a flat index."""
        return next((name, index - where.start)
                    for name, (where, _) in self.layout.items()
                    if where.start <= index < where.stop)


def with_transposes(views):
    """The name -> array dict `views`, with each matrix also under its name
    + "T" as its transpose: x @ P["W1T"] is x @ W1.T, transposed once."""
    return dict(views, **{name + "T": value.T for name, value in views.items()
                          if np.ndim(value) == 2})


def bound(params, bind):
    """(bind(views), bind(gradient views)), each a dict by name: what a
    model's passes read and write. A ParameterStore makes them on the first
    call with `bind` and keeps them; a loaded checkpoint's dict has weights
    only, (bind(params), None)."""
    if not isinstance(params, ParameterStore):
        return bind(params), None
    made = params._bound.get(bind)
    if made is None:
        made = params._bound[bind] = (bind(dict(params._views)),
                                      bind(dict(params._grad_views)))
    return made


def init_params(spec, seed):
    """Build a store from (name, shape) pairs.

    Names starting with 'B' or 'b' are biases and start at zero; everything
    else draws glorot-uniform values.
    """
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    for name, shape in spec:
        shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise OptimError("non-positive shape for %r: %r" % (name, shape))
        if name[:1].lower() == "b":
            store.register(name, np.zeros(shape))
        else:
            if len(shape) >= 2:
                fan_in, fan_out = shape[-1], shape[0]
            else:
                fan_in, fan_out = shape[0], 1
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            store.register(name, rng.uniform(-bound, bound, size=shape))
    return store


class Adam:
    """Adam (Kingma & Ba, ICLR 2015) over a store's whole flat vector, in
    buffers allocated once: the moments (m, v), their next values, and the
    update with a scratch row."""

    def __init__(self, store, lr=1e-3):
        self.store = store
        self.lr = np.array(float(lr))  # a 0-d operand, as the constants
        self.t = 0
        self._mv, self._next, (self._update, self._tmp) = np.zeros(
            (3, 2, store.values.size))

    def _check(self, what, flat):
        finite = np.isfinite(flat)
        if not finite.all():  # name the tensor of the first bad element
            name = self.store.locate(int(np.argmin(finite)))[0]
            raise OptimError("non-finite %s for %r" % (what, name))

    def step(self):
        """One update; a non-finite gradient or update raises unapplied.

        A non-finite gradient makes its update element non-finite, so one
        sum tests both; the scans that name the tensor run only when that
        sum is not finite (a sum of finite values can overflow too)."""
        g, values, update, tmp = (self.store.grads, self.store.values,
                                  self._update, self._tmp)
        (m, v), t = self._next, self.t + 1
        # m = BETA1 * m + (1 - BETA1) * g, and v likewise from g ** 2
        np.add(np.multiply(self._mv[0], _BETA1, out=m),
               np.multiply(g, _STEP1, out=tmp), out=m)
        np.add(np.multiply(self._mv[1], _BETA2, out=v),
               np.multiply(np.square(g, out=tmp), _STEP2, out=tmp), out=v)
        # update = values - lr * m_hat / (sqrt(v_hat) + EPS)
        np.multiply(np.divide(m, 1 - BETA1 ** t, out=update), self.lr,
                    out=update)
        np.add(np.sqrt(np.divide(v, 1 - BETA2 ** t, out=tmp), out=tmp), _EPS,
               out=tmp)
        np.subtract(values, np.divide(update, tmp, out=update), out=update)
        if not math.isfinite(np.add.reduce(update)):
            self._check("gradient", g)
            self._check("update", update)
        self.t, self._mv, self._next = t, self._next, self._mv
        values[:] = update


def fit(store, batches, loss, epochs, lr):
    """Adam over `batches` for `epochs` passes, one update per batch.

    loss(store, batch) fills the store's gradients and returns the loss.
    Returns the mean loss of each pass.
    """
    if not batches:
        raise OptimError("nothing to train on")
    opt = Adam(store, lr=lr)
    losses = []
    # a diverging model overflows numpy here: each non-finite value it
    # leaves in a gradient, an update or a loss is raised as an OptimError
    # that names it, with no warning printed above that
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            total = 0.0
            for batch in batches:
                store.zero_grad()
                value = loss(store, batch)
                opt.step()
                if not math.isfinite(value):
                    raise OptimError("non-finite loss")
                total += value
            losses.append(total / len(batches))
    return losses


def grad_check(loss_fn, store, h=1e-5, tol=1e-4, max_coords=200, seed=0):
    """Compare analytic gradients to central differences.

    loss_fn(store) must populate store gradients and return the scalar loss.
    Checks up to max_coords sampled flat coordinates (all, when fewer
    exist). Returns a report dict with max relative error and pass flag.
    """
    loss_fn(store)
    coords = np.arange(store.values.size)
    if coords.size > max_coords:
        rng = np.random.default_rng(seed)
        coords = np.sort(rng.choice(coords.size, size=max_coords,
                                    replace=False))
    analytic = store.grads[coords]
    numeric = np.zeros(coords.size)
    for j, k in enumerate(coords.tolist()):
        base = store.values[k]
        store.values[k] = base + h
        plus = loss_fn(store)
        store.values[k] = base - h
        numeric[j] = (plus - loss_fn(store)) / (2 * h)
        store.values[k] = base
    loss_fn(store)  # restore gradients for the unperturbed point
    # floor keeps finite-difference roundoff on near-zero coordinates
    # from masquerading as relative error
    rel = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    max_rel = float(rel.max(initial=0.0))
    worst = None
    if max_rel > 0:
        j = int(np.argmax(rel))
        worst = store.locate(int(coords[j])) + (analytic[j], numeric[j])
    return {"max_rel_error": max_rel, "passed": max_rel <= tol,
            "checked": len(coords), "worst": worst}
