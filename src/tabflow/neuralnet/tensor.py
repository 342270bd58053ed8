"""Small reverse-mode autodiff engine over numpy arrays.

The UNet velocity field needs 1-D convolution, ReLU, scaling, channel
concatenation, stride-2 down/upsampling and the MSE loss; the remaining ops
(elementwise add/sub/mul, matmul, mean, sum) serve the tests' toy networks
and gradient checks. Every op output is checked for NaN/Inf and aborts
naming the op when one appears.

The convolution lays its input out channel-major, [Cin, B*(L+2p)] with each
sample between its own 2p zero columns, and sums K shifted GEMMs over that
one buffer; the zeros keep every shift inside its sample. backward() frees
the graph it walks, so a loss can be differentiated once.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from ..errors import NumericError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference / ODE right-hand sides)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _check_finite(data: np.ndarray, op: str) -> None:
    # one reduction; a finite array whose sum overflows falls to the full test
    if not np.isfinite(data.sum()) and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by op '{op}'")


class Tensor:
    """A numpy array plus optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        _check_finite(self.data, "leaf")
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self) -> None:
        """Populate grads of every tracked leaf reachable from this scalar."""
        if self.data.size != 1:
            raise NumericError("backward requires a scalar loss")
        if not self.requires_grad:
            raise NumericError("backward on an untracked graph")
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
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        # walk in reverse topological order, dropping each op node's links
        # once its closure has run, so activations and saved buffers are
        # freed as the walk goes; a second backward() finds an untracked loss
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            backward = node._backward
            if backward is None:
                if g is not None:
                    node.grad += g
                continue
            node._parents, node._backward, node.requires_grad = (), None, False
            if g is None:
                continue
            for parent, pg in backward(g):
                if not parent.requires_grad:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] += pg
                else:
                    grads[id(parent)] = pg

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self.op})"


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
            backward) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.op = op
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = track
    out.grad = None
    if track:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad back down to shape after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))
    return _result(a.data + b.data, "add", (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))
    return _result(a.data - b.data, "sub", (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return ((a, _unbroadcast(g * b.data, a.shape)),
                (b, _unbroadcast(g * a.data, b.shape)))
    return _result(a.data * b.data, "mul", (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        return ((a, g * s),)
    return _result(a.data * s, "scale", (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        return ((a, g * mask),)
    return _result(np.where(mask, a.data, 0.0), "relu", (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))
    return _result(a.data @ b.data, "matmul", (a, b), backward)


def _pad_channel_major(arr: np.ndarray, pad: int) -> np.ndarray:
    """[B, C, L] -> [C, B*(L+2*pad)]: each sample's columns between its own zeros."""
    batch, c, length = arr.shape
    buf = np.zeros((c, batch, length + 2 * pad), dtype=arr.dtype)
    buf[:, :, pad:pad + length] = arr.transpose(1, 0, 2)
    return buf.reshape(c, -1)


def _shifted_gemm(wk: np.ndarray, buf: np.ndarray, batch: int, length: int) -> np.ndarray:
    """[B, Cout, L] with y[b, :, l] = sum_k wk[k] @ buf[:, b*span + l + k].

    wk is [K, Cout, Cin] and buf a `_pad_channel_major` buffer of span
    L + K - 1 per sample. The last K - 1 columns of the padded output are
    never written and never read.
    """
    k, c_out, _ = wk.shape
    n = buf.shape[1] - (k - 1)
    full = np.empty((c_out, buf.shape[1]), dtype=np.result_type(wk, buf))
    acc = full[:, :n]
    np.matmul(wk[0], buf[:, :n], out=acc)
    for i in range(1, k):
        acc += wk[i] @ buf[:, i:i + n]
    cropped = full.reshape(c_out, batch, -1)[:, :, :length]
    return np.ascontiguousarray(cropped.transpose(1, 0, 2))


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Same-length 1-D convolution, stride 1, odd kernel, zero padding.

    x: [B, Cin, L]; w: [Cout, Cin, K]; b: [Cout]. The input is laid out
    channel-major as [Cin, B*(L+2p)], p = K//2, each sample between its own
    2p zeros, and the output is the sum of K GEMMs W[:, :, k] @ (buffer
    shifted by k). An output column reads at most 2p columns past its
    sample's start, all inside that sample's span, so samples never mix.
    Backward pads the upstream gradient the same way: the input gradient is
    the same shifted sum with the flipped, transposed kernel (skipped when x
    is untracked), and each weight tap is one GEMM of the gradient with the
    shifted input.
    """
    batch, _, length = x.data.shape
    k = w.data.shape[2]
    pad = k // 2
    xf = _pad_channel_major(x.data, pad)                    # [Cin, B*(L+2p)]
    out = _shifted_gemm(np.ascontiguousarray(w.data.transpose(2, 0, 1)), xf,
                        batch, length)
    if b is not None:
        out += b.data[None, :, None]

    def backward(g):
        gf = _pad_channel_major(g, pad)                     # [Cout, B*(L+2p)]
        n = xf.shape[1] - 2 * pad
        g_valid = gf[:, pad:pad + n]
        gw = np.stack([g_valid @ xf[:, i:i + n].T for i in range(k)], axis=2)
        grads = [(w, gw)]
        if x.requires_grad:
            wt = np.ascontiguousarray(w.data[:, :, ::-1].transpose(2, 1, 0))
            grads.append((x, _shifted_gemm(wt, gf, batch, length)))
        if b is not None:
            grads.append((b, g.sum(axis=(0, 2))))
        return grads

    parents = (x, w) if b is None else (x, w, b)
    return _result(out, "conv1d", parents, backward)


def downsample2(x: Tensor) -> Tensor:
    """Keep every second sample along the last axis."""
    def backward(g):
        gx = np.zeros_like(x.data)
        gx[..., ::2] = g
        return ((x, gx),)
    return _result(np.ascontiguousarray(x.data[..., ::2]), "downsample2", (x,), backward)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsample along the last axis."""
    def backward(g):
        return ((x, g.reshape(*x.data.shape, 2).sum(axis=-1)),)
    return _result(np.repeat(x.data, 2, axis=-1), "upsample2", (x,), backward)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(zip(tensors, np.split(g, splits, axis=axis)))
    return _result(np.concatenate([t.data for t in tensors], axis=axis),
                   "concat", tuple(tensors), backward)


def mean(a: Tensor) -> Tensor:
    def backward(g):
        return ((a, np.full_like(a.data, float(g) / a.data.size)),)
    return _result(np.asarray(a.data.mean()), "mean", (a,), backward)


def tensor_sum(a: Tensor) -> Tensor:
    def backward(g):
        return ((a, np.full_like(a.data, float(g))),)
    return _result(np.asarray(a.data.sum()), "sum", (a,), backward)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of the squared difference."""
    diff = a.data - b.data

    def backward(g):
        gd = (2.0 * float(g) / diff.size) * diff
        return ((a, gd), (b, -gd))
    return _result(np.asarray(np.mean(diff * diff)), "mse", (a, b), backward)
