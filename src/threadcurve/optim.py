"""Parameter store, glorot init, Adam and its training loop, and a
finite-difference gradient check."""

from __future__ import annotations

import numpy as np


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and its floor


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
        self._views, self._grad_views = {}, {}

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

    def _views_of(self, flat):
        return {name: flat[where].reshape(shape)
                for name, (where, shape) in self.layout.items()}

    def names(self):
        return list(self.layout)

    def items(self):
        return self._views.items()

    def _checked(self, views, name, shape):
        view = views[name]
        if shape != view.shape:
            raise OptimError("shape %r for %r, expected %r"
                             % (shape, name, view.shape))
        return view

    def get(self, name):
        return self._views[name]

    def set(self, name, value):
        self._checked(self._views, name, np.shape(value))[...] = value

    def grad(self, name):
        return self._grad_views[name]

    def set_grad(self, name, grad):
        self._checked(self._grad_views, name, np.shape(grad))[...] = grad

    def zero_grad(self):
        self.grads.fill(0.0)

    def locate(self, index):
        """(name, index within that tensor) of a flat index."""
        return next((name, index - where.start)
                    for name, (where, _) in self.layout.items()
                    if where.start <= index < where.stop)


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
    """Adam (Kingma & Ba, ICLR 2015) over a store's whole flat vector."""

    def __init__(self, store, lr=1e-3):
        self.store = store
        self.lr = lr
        self.t = 0
        self._m = np.zeros_like(store.values)
        self._v = np.zeros_like(store.values)

    def _check(self, what, flat):
        finite = np.isfinite(flat)
        if not finite.all():  # name the tensor of the first bad element
            name = self.store.locate(int(np.argmin(finite)))[0]
            raise OptimError("non-finite %s for %r" % (what, name))

    def step(self):
        """One update; a non-finite gradient or update raises unapplied."""
        g = self.store.grads
        self._check("gradient", g)
        t = self.t + 1
        m = BETA1 * self._m + (1 - BETA1) * g
        v = BETA2 * self._v + (1 - BETA2) * g ** 2
        m_hat = m / (1 - BETA1 ** t)
        v_hat = v / (1 - BETA2 ** t)
        update = self.store.values - self.lr * m_hat / (np.sqrt(v_hat) + EPS)
        self._check("update", update)
        self.t, self._m, self._v = t, m, v
        self.store.values[:] = update


def fit(store, batches, loss, epochs, lr):
    """Adam over `batches` for `epochs` passes, one update per batch.

    loss(store, batch) fills the store's gradients and returns the loss.
    Returns the mean loss of each pass.
    """
    if not batches:
        raise OptimError("nothing to train on")
    opt = Adam(store, lr=lr)
    losses = []
    for _ in range(epochs):
        total = 0.0
        for batch in batches:
            store.zero_grad()
            total += loss(store, batch)
            opt.step()
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
