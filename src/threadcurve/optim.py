"""Parameter store, glorot init, Adam and its training loop, and a
finite-difference gradient check."""

from __future__ import annotations

import numpy as np


class OptimError(Exception):
    pass


class ParameterStore:
    """Named tensors plus mirrored gradient buffers."""

    def __init__(self):
        self._params = {}
        self._grads = {}

    def register(self, name, value):
        if name in self._params:
            raise OptimError("duplicate parameter %r" % name)
        value = np.asarray(value, dtype=float)
        self._params[name] = value
        self._grads[name] = np.zeros_like(value)

    def names(self):
        return list(self._params)

    def get(self, name):
        return self._params[name]

    def set(self, name, value):
        value = np.asarray(value, dtype=float)
        if value.shape != self._params[name].shape:
            raise OptimError("shape change for %r" % name)
        self._params[name] = value

    def grad(self, name):
        return self._grads[name]

    def set_grad(self, name, grad):
        self._grads[name] = np.asarray(grad, dtype=float)

    def zero_grad(self):
        for name in self._grads:
            self._grads[name] = np.zeros_like(self._params[name])


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
    def __init__(self, store, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {n: np.zeros_like(store.get(n)) for n in store.names()}
        self._v = {n: np.zeros_like(store.get(n)) for n in store.names()}

    def step(self):
        self.t += 1
        for name in self.store.names():
            g = self.store.grad(name)
            if not np.all(np.isfinite(g)):
                raise OptimError("non-finite gradient for %r" % name)
            self._m[name] = self.beta1 * self._m[name] + (1 - self.beta1) * g
            self._v[name] = self.beta2 * self._v[name] + (1 - self.beta2) * g ** 2
            m_hat = self._m[name] / (1 - self.beta1 ** self.t)
            v_hat = self._v[name] / (1 - self.beta2 ** self.t)
            update = self.store.get(name) - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if not np.all(np.isfinite(update)):
                raise OptimError("non-finite update for %r" % name)
            self.store.set(name, update)


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
    Checks up to max_coords sampled coordinates (all, when fewer exist).
    Returns a report dict with max relative error and pass flag.
    """
    loss_fn(store)
    analytic = {n: store.grad(n).copy() for n in store.names()}

    coords = []
    for name in store.names():
        for flat_idx in range(store.get(name).size):
            coords.append((name, flat_idx))
    rng = np.random.default_rng(seed)
    if len(coords) > max_coords:
        picked = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in sorted(picked)]

    max_rel = 0.0
    worst = None
    for name, flat_idx in coords:
        base = store.get(name).copy()
        flat = base.ravel().copy()
        flat[flat_idx] = base.ravel()[flat_idx] + h
        store.set(name, flat.reshape(base.shape))
        plus = loss_fn(store)
        flat[flat_idx] = base.ravel()[flat_idx] - h
        store.set(name, flat.reshape(base.shape))
        minus = loss_fn(store)
        store.set(name, base)
        numeric = (plus - minus) / (2 * h)
        a = analytic[name].ravel()[flat_idx]
        # floor keeps finite-difference roundoff on near-zero coordinates
        # from masquerading as relative error
        denom = max(abs(a), abs(numeric), 1e-3)
        rel = abs(a - numeric) / denom
        if rel > max_rel:
            max_rel = rel
            worst = (name, flat_idx, a, numeric)
    loss_fn(store)  # restore gradients for the unperturbed point
    return {"max_rel_error": max_rel, "passed": max_rel <= tol,
            "checked": len(coords), "worst": worst}
