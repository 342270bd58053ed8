"""Test-side ops and gradient checks for the autodiff engine.

add, sub, mul, matmul, mean and tensor_sum are elementwise, matrix and
reduction ops that no pipeline path needs, built on the engine's
`tensor._result` for toy losses. Like the engine's ops, each closure captures
its parents' handles and the arrays its gradient reads, never a parent
Tensor. finite_difference_check compares the engine's analytic gradients
against central differences.
"""

from __future__ import annotations

import numpy as np

from tabflow.neuralnet import tensor as T


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
    ha, hb, sa, sb = a._handle, b._handle, a.shape, b.shape

    def backward(g):
        return ((ha, _unbroadcast(g, sa)), (hb, _unbroadcast(g, sb)))
    return T._result(a.data + b.data, "add", (a, b), backward)


def sub(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    ha, hb, sa, sb = a._handle, b._handle, a.shape, b.shape

    def backward(g):
        return ((ha, _unbroadcast(g, sa)), (hb, _unbroadcast(-g, sb)))
    return T._result(a.data - b.data, "sub", (a, b), backward)


def mul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    ha, hb, da, db = a._handle, b._handle, a.data, b.data

    def backward(g):
        return ((ha, _unbroadcast(g * db, da.shape)),
                (hb, _unbroadcast(g * da, db.shape)))
    return T._result(da * db, "mul", (a, b), backward)


def matmul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    ha, hb, da, db = a._handle, b._handle, a.data, b.data

    def backward(g):
        return ((ha, g @ db.T), (hb, da.T @ g))
    return T._result(da @ db, "matmul", (a, b), backward)


def mean(a: T.Tensor) -> T.Tensor:
    ha, da = a._handle, a.data

    def backward(g):
        return ((ha, np.full_like(da, float(g) / da.size)),)
    return T._result(np.asarray(da.mean()), "mean", (a,), backward)


def tensor_sum(a: T.Tensor) -> T.Tensor:
    ha, da = a._handle, a.data

    def backward(g):
        return ((ha, np.full_like(da, float(g))),)
    return T._result(np.asarray(da.sum()), "sum", (a,), backward)


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
