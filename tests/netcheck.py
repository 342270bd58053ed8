"""Test-side ops, networks and gradient checks for the autodiff engine.

add, sub, mul, matmul, concat2d, mean and tensor_sum are elementwise,
matrix, joining and reduction ops that no pipeline path needs, built on
the engine's `tensor._result` for toy losses; DenseVelocityNet is a tiny
MLP velocity field for low-dimensional flow tests; finite_difference_check
compares the engine's analytic gradients against central differences.
"""

from __future__ import annotations

import numpy as np

from tabflow.neuralnet import tensor as T
from tabflow.neuralnet.unet import _kaiming_uniform


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad back down to shape after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))
    return T._result(a.data + b.data, "add", (a, b), backward)


def sub(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))
    return T._result(a.data - b.data, "sub", (a, b), backward)


def mul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    def backward(g):
        return ((a, _unbroadcast(g * b.data, a.shape)),
                (b, _unbroadcast(g * a.data, b.shape)))
    return T._result(a.data * b.data, "mul", (a, b), backward)


def matmul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    def backward(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))
    return T._result(a.data @ b.data, "matmul", (a, b), backward)


def concat2d(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """[B, Da] and [B, Db] -> [B, Da + Db]."""
    def backward(g):
        return ((a, g[:, :a.shape[1]]), (b, g[:, a.shape[1]:]))
    return T._result(np.concatenate([a.data, b.data], axis=1), "concat", (a, b), backward)


def mean(a: T.Tensor) -> T.Tensor:
    def backward(g):
        return ((a, np.full_like(a.data, float(g) / a.data.size)),)
    return T._result(np.asarray(a.data.mean()), "mean", (a,), backward)


def tensor_sum(a: T.Tensor) -> T.Tensor:
    def backward(g):
        return ((a, np.full_like(a.data, float(g))),)
    return T._result(np.asarray(a.data.sum()), "sum", (a,), backward)


class DenseVelocityNet:
    """Tiny MLP velocity field for low-dimensional sanity checks.

    Input [B, D] plus t appended as one feature; two hidden ReLU layers.
    """

    def __init__(self, dims: int, hidden: int = 64, seed: int = 0, dtype=np.float64):
        self.dims = dims
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        sizes = [dims + 1, hidden, hidden, dims]
        self.params: dict[str, T.Tensor] = {}
        for i, (a, b) in enumerate(zip(sizes, sizes[1:])):
            last = i == len(sizes) - 2
            w = (np.zeros((a, b), dtype=self.dtype) if last
                 else _kaiming_uniform(rng, (a, b), a, self.dtype))
            self.params[f"fc{i}.w"] = T.Tensor(w, requires_grad=True)
            self.params[f"fc{i}.b"] = T.Tensor(np.zeros(b, dtype=self.dtype),
                                               requires_grad=True)

    def __call__(self, x: T.Tensor, t: T.Tensor) -> T.Tensor:
        t_col = T.Tensor(np.asarray(t.data, dtype=x.dtype).reshape(-1, 1))
        h = concat2d(x, t_col)
        n_layers = len(self.params) // 2
        for i in range(n_layers):
            h = add(matmul(h, self.params[f"fc{i}.w"]), self.params[f"fc{i}.b"])
            if i < n_layers - 1:
                h = T.relu(h)
        return h


def finite_difference_check(loss_fn, params: dict[str, T.Tensor], n_coords: int = 50,
                            h: float = 1e-3, seed: int = 0) -> float:
    """Compare analytic gradients against central differences.

    loss_fn() must rebuild the loss from the current parameter values. Samples
    n_coords random parameter coordinates and returns the worst relative error
    max(|analytic - numeric|) / max(|numeric|, 1e-8). Run the parameters at
    float64 for meaningful results.
    """
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}

    rng = np.random.default_rng(seed)
    names = sorted(params)
    worst = 0.0
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        p = params[name]
        flat = p.data.reshape(-1)
        j = int(rng.integers(flat.size))
        orig = flat[j]
        flat[j] = orig + h
        up = loss_fn().item()
        flat[j] = orig - h
        down = loss_fn().item()
        flat[j] = orig
        numeric = (up - down) / (2.0 * h)
        a = analytic[name].reshape(-1)[j]
        err = abs(a - numeric) / max(abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
