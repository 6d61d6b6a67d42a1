"""Minimal reverse-mode autodiff over numpy arrays.

Just enough ops for the models in this package: matmul, broadcasting
arithmetic, relu/sigmoid/log/exp, reductions, prefix sums, reshape, concat
and clipping.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Var:
    """A node in the tape; wraps a float ndarray."""

    __slots__ = ("data", "grad", "_parents", "_backward")
    __array_ufunc__ = None  # so `ndarray * Var` calls Var.__rmul__

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other):
        other = wrap(other)
        out = Var(self.data + other.data, (self, other))

        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))
        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Var(-self.data, (self,))
        out._backward = lambda g: (-g,)
        return out

    def __sub__(self, other):
        return self + (-wrap(other))

    def __rsub__(self, other):
        return wrap(other) + (-self)

    def __mul__(self, other):
        other = wrap(other)
        out = Var(self.data * other.data, (self, other))

        def backward(g):
            return (_unbroadcast(g * other.data, self.shape),
                    _unbroadcast(g * self.data, other.shape))
        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = wrap(other)
        out = Var(self.data / other.data, (self, other))

        def backward(g):
            return (_unbroadcast(g / other.data, self.shape),
                    _unbroadcast(-g * self.data / other.data ** 2, other.shape))
        out._backward = backward
        return out

    def __rtruediv__(self, other):
        return wrap(other) / self

    def __matmul__(self, other):
        other = wrap(other)
        a, b = self.data, other.data
        out = Var(a @ b, (self, other))

        def backward(g):
            if a.ndim == 1 and b.ndim == 1:
                return (g * b, g * a)
            if a.ndim == 2 and b.ndim == 1:
                return (np.outer(g, b), a.T @ g)
            if a.ndim == 1 and b.ndim == 2:
                return (b @ g, np.outer(a, g))
            # (..., k) @ (k, m): the stacked rows all meet the same b
            return (g @ b.T,
                    a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        out._backward = backward
        return out

    @property
    def T(self):
        out = Var(self.data.T, (self,))
        out._backward = lambda g: (g.T,)
        return out

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None):
        out = Var(self.data.sum(axis=axis), (self,))

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), self.shape).copy(),)
        out._backward = backward
        return out

    def cumsum(self, axis=0):
        out = Var(np.cumsum(self.data, axis=axis), (self,))
        out._backward = lambda g: (
            np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis),)
        return out

    def reshape(self, *shape):
        out = Var(self.data.reshape(*shape), (self,))
        out._backward = lambda g: (g.reshape(self.shape),)
        return out

    def mean(self, axis=None):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)

    # ------------------------------------------------------------ elementwise
    def relu(self):
        mask = self.data > 0
        out = Var(self.data * mask, (self,))
        out._backward = lambda g: (g * mask,)
        return out

    def sigmoid(self):
        s = np.where(self.data >= 0,
                     1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500))),
                     np.exp(np.clip(self.data, -500, 500))
                     / (1.0 + np.exp(np.clip(self.data, -500, 500))))
        out = Var(s, (self,))
        out._backward = lambda g: (g * s * (1.0 - s),)
        return out

    def exp(self):
        e = np.exp(self.data)
        out = Var(e, (self,))
        out._backward = lambda g: (g * e,)
        return out

    def log(self):
        out = Var(np.log(self.data), (self,))
        out._backward = lambda g: (g / self.data,)
        return out

    def square(self):
        out = Var(self.data ** 2, (self,))
        out._backward = lambda g: (g * 2.0 * self.data,)
        return out

    def clip(self, lo, hi):
        """Clamp values; gradient passes only where unclamped."""
        mask = (self.data >= lo) & (self.data <= hi)
        out = Var(np.clip(self.data, lo, hi), (self,))
        out._backward = lambda g: (g * mask,)
        return out

    def __getitem__(self, idx):
        out = Var(self.data[idx], (self,))

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            return (full,)
        out._backward = backward
        return out

    # --------------------------------------------------------------- backward
    def backward(self):
        if self.data.ndim != 0:
            raise ValueError("backward() starts from a scalar")
        # depth-first post-order, parents in turn, kept on an explicit
        # stack: a deep graph needs no recursion, and no closure cycle
        # keeps the graph alive after the pass
        order = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                order.append(node)
        for node in order:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                parent.grad = parent.grad + g


def wrap(x):
    return x if isinstance(x, Var) else Var(x)


def concat(vars_, axis=0):
    arrays = [v.data for v in vars_]
    out = Var(np.concatenate(arrays, axis=axis), tuple(vars_))
    sizes = [a.shape[axis] for a in arrays]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(np.take(g, range(offsets[k], offsets[k + 1]), axis=axis)
                     for k in range(len(arrays)))
    out._backward = backward
    return out

