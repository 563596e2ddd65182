"""Minimal reverse-mode automatic differentiation over numpy float64 arrays:
the reference engine of the tests.

No package module builds a Tensor. The model's training forward returns its
own backward, and training.supcon_loss returns its gradient, both as plain
arrays. tests/oracles.py builds the model and the contrastive loss from
Tensor operations as the reference they are checked against; it adds its
other operations on Tensor._result. The benchmark's tracer
(bench/tracing.py) also looks up Tensor.backward by name.

Elementwise arithmetic, (batched) matmul, exp/log, axis reductions,
basic-slice indexing, reshape/swapaxes/concatenate. Gradients accumulate
into .grad on tensors created with requires_grad=True.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to shape, inverting numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- graph plumbing -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accum(self, grad: np.ndarray) -> None:
        # Accumulation rebinds (never writes in place), so aliasing the
        # incoming array is safe.
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this tensor; accumulates into leaf .grad."""
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a, b = self, as_tensor(other)

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.data.shape))

        return Tensor._result(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(-g)

        return Tensor._result(-a.data, (a,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        a, b = self, as_tensor(other)

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._result(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        a, b = self, as_tensor(other)

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g * a.data / (b.data**2), b.data.shape))

        return Tensor._result(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __matmul__(self, other) -> "Tensor":
        a, b = self, as_tensor(other)

        def backward(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accum(_unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accum(_unbroadcast(gb, b.data.shape))

        return Tensor._result(a.data @ b.data, (a, b), backward)

    # -- elementwise nonlinearities ---------------------------------------

    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)

        def backward(g):
            if a.requires_grad:
                a._accum(g * out_data)

        return Tensor._result(out_data, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(g / a.data)

        return Tensor._result(np.log(a.data), (a,), backward)

    # -- reductions and shape ops -----------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self

        def backward(g):
            if not a.requires_grad:
                return
            if axis is None:
                a._accum(np.broadcast_to(g, a.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.data.shape).copy())

        return Tensor._result(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape) -> "Tensor":
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(g.reshape(a.data.shape))

        return Tensor._result(a.data.reshape(*shape), (a,), backward)

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(np.swapaxes(g, ax1, ax2))

        return Tensor._result(np.swapaxes(a.data, ax1, ax2), (a,), backward)

    @property
    def T(self) -> "Tensor":
        return self.swapaxes(-1, -2)

    def __getitem__(self, key) -> "Tensor":
        """Basic (slice/int/tuple) indexing only; no repeated fancy indices."""
        a = self

        def backward(g):
            if a.requires_grad:
                full = np.zeros_like(a.data)
                full[key] += g
                a._accum(full)

        return Tensor._result(a.data[key], (a,), backward)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, a, b in zip(parts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(a, b)
                t._accum(g[tuple(sl)])

    return Tensor._result(
        np.concatenate([t.data for t in parts], axis=axis), tuple(parts), backward
    )

