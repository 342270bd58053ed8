"""Small reverse-mode autodiff engine over numpy arrays.

The ops are the ones the UNet velocity field needs: 1-D convolution, ReLU,
scaling, channel concatenation, stride-2 down/upsampling and the MSE loss.
Leaves and the outputs of the ops that compute new values (conv1d, scale,
mse) are checked for NaN/Inf, aborting with the op's name when one appears;
relu, concat and the resampling ops only copy or select values that were
checked when made, so they skip the check.

The convolution lays its input out channel-major, [Cin, B*(L+2p)] with each
sample between its own 2p zero columns; the zeros keep every shift inside its
sample. `_tap_sum` is its one tap loop. It fills an output array the caller
passes in, one group of whole samples at a time: one GEMM of the K taps
stacked as [K*Cout, Cin] over the group's columns, K-1 in-place adds of the
shifted tap rows in tap order, then the group's crop written out. The forward
runs it on the padded input, adding the bias as it writes, and the input
gradient on the padded upstream gradient with the flipped, transposed kernel.
A group's stacked product fits _GROUP_BYTES; over the whole batch it would be
K times the result (18 MB for the input gradient at Cin = 512 and B = 64).
`concat` writes its parts straight into a padded buffer with p = 1 and
returns the [B, C, L] interior view, which the k=3 conv after it takes as its
padded input without a copy; any other input is copied.

One rule decides tracking: a leaf is tracked when made with
requires_grad=True, and an op result is tracked iff one of its parents is.
The training net's parameters are tracked leaves; a net loaded for transfer
is built from untracked ones, so its forward pass builds no graph.

The graph holds only what backward reads. Each node in it is a handle: a
tracked leaf is its own handle, and a tracked op result gets a data-free
`_Node` with its tracked parents' handles and its backward closure. A
closure captures handles and the arrays its gradient reads, never a parent
Tensor: conv1d keeps its padded input and whether x is tracked, relu its
mask, mse the difference, downsample2 the input's shape and dtype, and
scale, upsample2 and concat nothing but handles. So an activation that no
backward reads (a conv output before its ReLU, a skip once concat has copied
it, a resampled or scaled copy, the head's output) is freed during the
forward pass as soon as the caller drops it. A closure returns (handle,
gradient) pairs; the walker skips a None handle, an untracked parent.
backward() drops each node's links once it has run, so a loss can be
differentiated once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import NumericError

# the most bytes one `_tap_sum` group's stacked product may take, so that a
# conv's transient stays this size whatever the batch (a whole-batch product
# was 18 MB at B = 64); on a 2-core Xeon, 4 MB cut `train`'s peak RSS by a
# tenth with its wall time unchanged
_GROUP_BYTES = 4 << 20


def _check_finite(data: np.ndarray, op: str) -> None:
    # one reduction; a finite array whose sum overflows falls to the full test
    if not np.isfinite(data.sum()) and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by op '{op}'")


class _Node:
    """A tracked op result's place in the graph: its parents' handles and its
    backward closure, which maps the upstream gradient to (parent, gradient)
    pairs. It holds no array of its own."""

    __slots__ = ("parents", "backward")

    def __init__(self, parents: tuple, backward: Callable):
        self.parents = parents
        self.backward = backward


class Tensor:
    """A numpy array plus optional gradient tracking.

    A tracked leaf has a `grad` buffer and is its own handle in the graph; a
    tracked op result holds a `_Node`. A result's requires_grad turns False
    once backward() has run its node.
    """

    __slots__ = ("data", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        _check_finite(self.data, "leaf")
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._node: _Node | None = None

    @property
    def _handle(self) -> Tensor | _Node | None:
        """What the graph links to: a tracked leaf itself, an op result its
        node while that has not run, None when untracked."""
        node = self._node
        if node is None:
            return self if self.grad is not None else None
        return node if node.backward is not None else None

    @property
    def requires_grad(self) -> bool:
        return self._handle is not None

    @property
    def _backward(self) -> Callable | None:
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, backward: Callable) -> None:
        self._node.backward = backward

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
        root = self._handle
        if root is None:
            raise NumericError("backward on an untracked graph")
        topo: list[Tensor | _Node] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor | _Node, bool]] = [(root, False)]
        while stack:
            handle, done = stack.pop()
            if done:
                topo.append(handle)
                continue
            if id(handle) in seen:
                continue
            seen.add(id(handle))
            stack.append((handle, True))
            if isinstance(handle, _Node):
                stack.extend((p, False) for p in handle.parents if id(p) not in seen)
        grads: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        # walk in reverse topological order, dropping each node's links once
        # its closure has run, so the arrays it captured are freed as the walk
        # goes; a second backward() finds an untracked loss
        while topo:
            handle = topo.pop()
            g = grads.pop(id(handle), None)
            if isinstance(handle, Tensor):
                if g is not None:
                    handle.grad += g
                continue
            backward = handle.backward
            handle.parents, handle.backward = (), None
            if g is None:
                continue
            for parent, pg in backward(g):
                if parent is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] += pg
                else:
                    grads[id(parent)] = pg


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
            backward, check: bool = True) -> Tensor:
    """The op's output Tensor; tracked, with a node over its parents' handles,
    iff a parent is tracked. Keeps no parent Tensor."""
    if check:
        _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    handles = tuple(h for h in (p._handle for p in parents) if h is not None)
    out._node = _Node(handles, backward) if handles else None
    return out


def scale(a: Tensor, s: float) -> Tensor:
    ha = a._handle

    def backward(g):
        return ((ha, g * s),)
    return _result(a.data * s, "scale", (a,), backward)


def relu(a: Tensor) -> Tensor:
    ha = a._handle
    mask = a.data > 0 if ha is not None else None

    def backward(g):
        return ((ha, g * mask),)
    # max(x, +0.0) gives the bytes of where(x > 0, x, 0.0), -0.0 included,
    # in one vectorized pass where np.where takes a slow path
    return _result(np.maximum(a.data, np.zeros((), a.data.dtype)), "relu", (a,),
                   backward, check=False)


def _channel_major_interior(batch: int, c: int, length: int, pad: int,
                            dtype) -> np.ndarray:
    """The [B, C, L] interior view of a new [C, B, L+2*pad] buffer (its .base)
    whose margins are zeroed."""
    buf = np.empty((c, batch, length + 2 * pad), dtype=dtype)
    buf[:, :, :pad] = 0.0
    buf[:, :, pad + length:] = 0.0
    return buf[:, :, pad:pad + length].transpose(1, 0, 2)


def _pad_channel_major(arr: np.ndarray, pad: int) -> np.ndarray:
    """[B, C, L] -> [C, B*(L+2*pad)]: each sample's columns between its own zeros.

    A `_channel_major_interior` view with this pad whose margins are still
    zero, as `concat` returns, hands back its buffer without a copy.
    """
    batch, c, length = arr.shape
    base = arr.base
    if (isinstance(base, np.ndarray) and base.shape == (c, batch, length + 2 * pad)
            and base.dtype == arr.dtype
            and arr.strides == (base.strides[1], base.strides[0], base.strides[2])
            and arr.ctypes.data == base.ctypes.data + pad * base.strides[2]
            and not base[:, :, :pad].any() and not base[:, :, pad + length:].any()):
        return base.reshape(c, -1)
    interior = _channel_major_interior(batch, c, length, pad, arr.dtype)
    interior[...] = arr
    return interior.base.reshape(c, -1)


def _tap_sum(w: np.ndarray, buf: np.ndarray, out: np.ndarray,
             bias: np.ndarray | None = None) -> None:
    """Fill out [B, Cout, L] with y[b, :, l] = sum_k w[:, :, k] @ buf[:, b*span + l + k],
    plus bias (broadcast over [g, Cout, L]) when given.

    w is [Cout, Cin, K] and buf a `_pad_channel_major` buffer of span L + K - 1
    per sample. A group is the most whole samples whose stacked product fits
    _GROUP_BYTES, and at least one; all groups share one product buffer, so
    no two are alive at once. In each, one GEMM of the stacked taps
    [K*Cout, Cin] over the group's columns gives every tap's product; tap k's
    rows, shifted left by k columns, are added into tap 0's rows in tap order,
    (t0 + t1) + t2, the sum the per-tap GEMMs give. A kept column reads at
    most K - 1 columns past its sample's start, all inside that sample's span,
    so samples never mix; the group's crop is written to out[b0:b1].
    """
    c_out, c_in, k = w.shape
    batch, _, length = out.shape
    span = length + k - 1
    stacked = w.transpose(2, 0, 1).reshape(k * c_out, c_in)
    group = min(batch, max(1, _GROUP_BYTES // (k * c_out * span * out.itemsize)))
    product = np.empty((k * c_out, group * span), dtype=out.dtype)
    for b0 in range(0, batch, group):
        b1 = min(b0 + group, batch)
        taps = product[:, :(b1 - b0) * span]
        np.matmul(stacked, buf[:, b0 * span:b1 * span], out=taps)
        n = taps.shape[1] - (k - 1)
        acc = taps[:c_out, :n]
        for i in range(1, k):
            acc += taps[i * c_out:(i + 1) * c_out, i:i + n]
        crop = taps[:c_out].reshape(c_out, b1 - b0, span)[:, :, :length].transpose(1, 0, 2)
        if bias is None:
            out[b0:b1] = crop
        else:
            np.add(crop, bias, out=out[b0:b1])


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-length 1-D convolution, stride 1, odd kernel, zero padding.

    x: [B, Cin, L]; w: [Cout, Cin, K]; b: [Cout]. The input is laid out
    channel-major as [Cin, B*(L+2p)], p = K//2, each sample between its own
    2p zeros, and `_tap_sum` convolves it into the [B, Cout, L] output, adding
    the bias as it writes each group's crop. Backward pads the upstream
    gradient the same way: the input gradient is `_tap_sum` of it with the
    flipped, transposed kernel into a new [B, Cin, L] array (skipped when x is
    untracked), and each weight tap is one GEMM of the gradient with the
    shifted input.
    """
    batch, c_in, length = x.data.shape
    w_data = w.data
    c_out, _, k = w_data.shape
    pad = k // 2
    hx, hw, hb = x._handle, w._handle, b._handle
    xf = _pad_channel_major(x.data, pad)                    # [Cin, B*(L+2p)]
    n = xf.shape[1] - 2 * pad
    out = np.empty((batch, c_out, length), dtype=np.result_type(w_data, xf))
    _tap_sum(w_data, xf, out, b.data[:, None])

    def backward(g):
        gf = _pad_channel_major(g, pad)                     # [Cout, B*(L+2p)]
        g_valid = gf[:, pad:pad + n]
        gw = np.stack([g_valid @ xf[:, i:i + n].T for i in range(k)], axis=2)
        grads = [(hw, gw)]
        if hx is not None:
            wt = w_data[:, :, ::-1].transpose(1, 0, 2)      # [Cin, Cout, K]
            gx = np.empty((batch, c_in, length), dtype=np.result_type(wt, gf))
            _tap_sum(wt, gf, gx)
            grads.append((hx, gx))
        grads.append((hb, g.sum(axis=(0, 2))))
        return grads

    return _result(out, "conv1d", (x, w, b), backward)


def downsample2(x: Tensor) -> Tensor:
    """Keep every second sample along the last axis."""
    hx, shape, dtype = x._handle, x.data.shape, x.data.dtype

    def backward(g):
        gx = np.zeros(shape, dtype)
        gx[..., ::2] = g
        return ((hx, gx),)
    return _result(np.ascontiguousarray(x.data[..., ::2]), "downsample2", (x,), backward,
                   check=False)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsample along the last axis."""
    hx = x._handle

    def backward(g):
        gx = g[..., 0::2] + g[..., 1::2]
        # the pairs' sum as g.reshape(..., 2).sum(-1) gives it: that reduction
        # starts from +0.0, so two -0.0 halves sum to +0.0
        gx += 0.0
        return ((hx, gx),)
    return _result(np.repeat(x.data, 2, axis=-1), "upsample2", (x,), backward,
                   check=False)


def concat(tensors: list[Tensor]) -> Tensor:
    """[B, Ci, L] parts -> [B, sum Ci, L], joined along the channel axis.

    The parts are written into a `_channel_major_interior` with the margin of
    a k=3 conv (every conv after a UNet concat), so that conv pads the result
    without a copy.
    """
    batch, _, length = tensors[0].data.shape
    splits = np.cumsum([t.data.shape[1] for t in tensors])
    dtype = np.result_type(*[t.data for t in tensors])
    out = _channel_major_interior(batch, int(splits[-1]), length, 1, dtype)
    for t, lo, hi in zip(tensors, [0, *splits[:-1]], splits):
        out[:, lo:hi] = t.data
    handles = [t._handle for t in tensors]

    def backward(g):
        return tuple(zip(handles, np.split(g, splits[:-1], axis=1)))
    return _result(out, "concat", tuple(tensors), backward, check=False)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of the squared difference."""
    ha, hb = a._handle, b._handle
    diff = a.data - b.data

    def backward(g):
        gd = (2.0 * float(g) / diff.size) * diff
        return ((ha, gd),) if hb is None else ((ha, gd), (hb, -gd))
    return _result(np.asarray(np.mean(diff * diff)), "mse", (a, b), backward)
