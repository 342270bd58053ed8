import struct
import tracemalloc
import types
import warnings
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import tabflow.neuralnet as nn
from tabflow import flowmatch
from tabflow.errors import DataError, NumericError, TabflowError
from tabflow.neuralnet import tensor as T

from netcheck import add, finite_difference_check, matmul, mean, mul, sub, tensor_sum


def test_sum_of_squares_gradient():
    w = T.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    loss = tensor_sum(mul(w, w))
    loss.backward()
    np.testing.assert_allclose(w.grad, [2.0, 4.0, 6.0])


def test_unused_parameter_gets_zero_gradient():
    w = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    unused = T.Tensor(np.array([5.0]), requires_grad=True)
    tensor_sum(mul(w, w)).backward()
    np.testing.assert_array_equal(unused.grad, [0.0])


def test_backward_on_untracked_graph_raises():
    a = T.Tensor(np.array([1.0]))
    out = tensor_sum(mul(a, a))
    with pytest.raises(NumericError, match="untracked"):
        out.backward()


def test_backward_requires_scalar():
    a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(NumericError, match="scalar"):
        mul(a, a).backward()


def test_nan_aborts_naming_op():
    a = T.Tensor(np.array([700.0]))
    with pytest.raises(NumericError, match="leaf"):
        T.Tensor(np.array([np.nan]))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="mul"):
        mul(T.Tensor(np.array([1e300])), T.Tensor(np.array([1e300])))  # overflows to inf


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_leaf_and_conv_weight_are_named(bad):
    """relu, concat and the resampling ops copy checked values unchecked; a
    non-finite value is still reported by the leaf or the conv it enters."""
    with pytest.raises(NumericError, match="'leaf'"):
        T.Tensor(np.full((1, 2, 4), bad))
    x = T.Tensor(np.ones((1, 2, 4)))
    w = T.Tensor(np.ones((3, 4, 3)), requires_grad=True)
    w.data[1, 0, 2] = bad  # as a diverged optimizer step would leave it
    joined = T.concat([T.relu(x), T.upsample2(T.downsample2(x))])
    with pytest.raises(NumericError, match="'conv1d'"):
        T.conv1d(joined, w, T.Tensor(np.zeros(3)))


def test_finite_output_whose_sum_overflows_passes():
    # the sum is inf, so the check must fall back to the elementwise test
    out = add(T.Tensor(np.array([1e308, 1e308])), T.Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, [1e308, 1e308])


def test_finite_check_does_not_warn_on_large_finite_values():
    """The check's sum of a large finite float32 leaf overflows; that is not
    the data's fault, so nothing warns, and an inf leaf is still named."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        leaf = T.Tensor(np.full(10, 3e38, np.float32))
        assert leaf.data.dtype == np.float32 and np.all(leaf.data == np.float32(3e38))
        with pytest.raises(NumericError, match="'leaf'"):
            T.Tensor(np.full(10, np.inf, np.float32))


def test_gradient_accumulates_for_shared_input():
    a = T.Tensor(np.array([3.0]), requires_grad=True)
    out = tensor_sum(add(mul(a, a), mul(a, a)))
    out.backward()
    np.testing.assert_allclose(a.grad, [12.0])


@pytest.mark.parametrize("op_name", ["conv1d", "relu", "downsample2", "upsample2",
                                     "concat", "mse", "matmul"])
def test_per_op_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))  # stable across processes
    x_data = rng.standard_normal((2, 3, 8))
    params = {"x": T.Tensor(x_data, requires_grad=True)}
    if op_name == "conv1d":
        params["w"] = T.Tensor(rng.standard_normal((4, 3, 3)) * 0.3, requires_grad=True)
        params["b"] = T.Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)

        def loss_fn():
            return mean(mul(T.conv1d(params["x"], params["w"], params["b"]),
                                T.conv1d(params["x"], params["w"], params["b"])))
    elif op_name == "relu":
        def loss_fn():
            return mean(mul(T.relu(params["x"]), T.relu(params["x"])))
    elif op_name == "downsample2":
        def loss_fn():
            y = T.downsample2(params["x"])
            return mean(mul(y, y))
    elif op_name == "upsample2":
        def loss_fn():
            y = T.upsample2(params["x"])
            return mean(mul(y, y))
    elif op_name == "concat":
        params["y"] = T.Tensor(rng.standard_normal((2, 2, 8)), requires_grad=True)

        def loss_fn():
            z = T.concat([params["x"], params["y"]])
            return mean(mul(z, z))
    elif op_name == "mse":
        params["y"] = T.Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)

        def loss_fn():
            return T.mse(params["x"], params["y"])
    else:
        params = {"a": T.Tensor(rng.standard_normal((4, 3)), requires_grad=True),
                  "b": T.Tensor(rng.standard_normal((3, 5)), requires_grad=True)}

        def loss_fn():
            z = matmul(params["a"], params["b"])
            return mean(mul(z, z))

    worst = finite_difference_check(loss_fn, params, n_coords=25, seed=1)
    assert worst < 1e-4


def _im2col(arr, k, pad):
    """[B, C, L] -> contiguous [B*L, C*K] patch matrix."""
    b, c, _ = arr.shape
    padded = np.pad(arr, ((0, 0), (0, 0), (pad, pad)))
    cols = sliding_window_view(padded, k, axis=2)  # [B, C, L', K]
    return np.ascontiguousarray(cols.transpose(0, 2, 1, 3)).reshape(
        b * cols.shape[2], c * k)


def _im2col_conv1d(x, w, b, g):
    """Reference im2col convolution: output, gx, gw, gb for upstream g."""
    batch, c_in, length = x.shape
    c_out, _, k = w.shape
    pad = k // 2
    cols = _im2col(x, k, pad)
    out = (cols @ w.reshape(c_out, c_in * k).T).reshape(batch, length, c_out)
    out = out.transpose(0, 2, 1) + b[None, :, None]
    g2d = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(batch * length, c_out)
    gw = (g2d.T @ cols).reshape(c_out, c_in, k)
    gcols = _im2col(g, k, k - 1 - pad)
    wf = np.ascontiguousarray(w[:, :, ::-1].transpose(0, 2, 1)).reshape(c_out * k, c_in)
    gx = (gcols @ wf).reshape(batch, length, c_in).transpose(0, 2, 1)
    return out, gx, gw, g.sum(axis=(0, 2))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 5), c_in=st.integers(1, 8),
       c_out=st.integers(1, 8), k=st.sampled_from([1, 3, 5]), length=st.integers(1, 40),
       dtype=st.sampled_from([np.float64, np.float32]))
@example(seed=0, batch=3, c_in=2, c_out=4, k=5, length=2, dtype=np.float64)
@example(seed=1, batch=1, c_in=1, c_out=1, k=5, length=1, dtype=np.float32)
def test_conv1d_matches_im2col_oracle(seed, batch, c_in, c_out, k, length, dtype):
    """Shifted-GEMM conv1d equals the im2col oracle in forward and all three
    gradients, for L below K too and whichever samples share the buffer."""
    rng = np.random.default_rng(seed)
    x, g = (rng.standard_normal(s).astype(dtype)
            for s in ((batch, c_in, length), (batch, c_out, length)))
    w = rng.standard_normal((c_out, c_in, k)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    xt, wt, bt = (T.Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.conv1d(xt, wt, bt)
    grads = {id(p): pg for p, pg in out._backward(g)}
    rtol = 1e-10 if dtype == np.float64 else 1e-5
    for got, want in zip((out.data, grads[id(xt)], grads[id(wt)], grads[id(bt)]),
                         _im2col_conv1d(x, w, b, g)):
        assert got.shape == want.shape and got.dtype == dtype
        # entries that cancel to near zero get the scale of the terms summed
        np.testing.assert_allclose(got, want, rtol=rtol,
                                   atol=rtol * max(1.0, np.abs(want).max()))


def test_conv1d_skips_input_gradient_of_untracked_input():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((2, 3, 8)))
    w = T.Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
    out = T.conv1d(x, w, T.Tensor(np.zeros(4), requires_grad=True))
    parents = [p for p, _ in out._backward(np.ones((2, 4, 8)))]
    assert all(p is not x for p in parents) and any(p is w for p in parents)


@pytest.mark.parametrize("track_t", [True, False])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv1d_of_concat_equals_conv1d_of_contiguous_copy(k, track_t):
    """A k = 3 conv reads the concat's own buffer and k = 1 or 5 a padded
    copy; the output and every gradient are the bytes of the conv of a
    contiguous copy of the concat, the t channel tracked or not."""
    rng = np.random.default_rng(k)
    a, t, w, b, target = (rng.standard_normal(s).astype(np.float32) for s in
                          ((8, 5, 16), (8, 1, 16), (4, 6, k), (4,), (8, 4, 16)))
    parts = [T.Tensor(a, requires_grad=True), T.Tensor(t, requires_grad=track_t)]
    joined = T.concat(parts)
    copy = T.Tensor(np.ascontiguousarray(joined.data), requires_grad=True)
    results = []
    for x in (joined, copy):
        wt, bt = T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)
        out = T.conv1d(x, wt, bt)
        T.mse(out, T.Tensor(target)).backward()
        results.append([out.data.tobytes(), wt.grad.tobytes(), bt.grad.tobytes()])
    assert results[0] == results[1]
    assert parts[0].grad.tobytes() == np.ascontiguousarray(copy.grad[:, :5]).tobytes()
    if track_t:
        assert parts[1].grad.tobytes() == np.ascontiguousarray(copy.grad[:, 5:]).tobytes()
    else:
        assert parts[1].grad is None


@pytest.mark.parametrize("margin", [0, -1])
def test_conv_pads_a_concat_without_copy_only_when_it_fits(margin):
    rng = np.random.default_rng(0)
    x = T.concat([T.Tensor(rng.standard_normal((3, 4, 10))),
                  T.Tensor(rng.standard_normal((3, 2, 10)))]).data
    want = T._pad_channel_major(np.ascontiguousarray(x), 1)
    got = T._pad_channel_major(x, 1)
    assert np.shares_memory(got, x) and got.tobytes() == want.tobytes()
    for pad in (0, 2):  # the pads of k = 1 and k = 5
        assert not np.shares_memory(T._pad_channel_major(x, pad), x)
    x.base[:, :, margin] = 1.0
    got = T._pad_channel_major(x, 1)
    assert not np.shares_memory(got, x) and got.tobytes() == want.tobytes()


# (Cin, Cout, L, K) of the default VelocityNet's nine convs: 64 latent dims,
# base_channels 32, 4-s chunks of 343 frames padded to 352
UNET_CONV_SHAPES = [(65, 32, 352, 3), (32, 64, 176, 3), (64, 128, 88, 3),
                    (128, 256, 44, 3), (512, 128, 44, 3), (256, 64, 88, 3),
                    (128, 32, 176, 3), (64, 32, 352, 3), (32, 64, 352, 1)]


def _per_tap_conv1d(x, w, b=None):
    """conv1d's forward as one GEMM per tap: tap 0 written into a fresh
    [Cout, B*(L+2p)] buffer, each further tap's product added in tap order,
    the crop copied out to [B, Cout, L], then the bias added. On an upstream
    gradient with the flipped, transposed kernel it is the input gradient."""
    batch, c_in, length = x.shape
    c_out, _, k = w.shape
    pad = k // 2
    buf = np.zeros((c_in, batch, length + 2 * pad), dtype=x.dtype)
    buf[:, :, pad:pad + length] = x.transpose(1, 0, 2)
    buf = buf.reshape(c_in, -1)
    wk = np.ascontiguousarray(w.transpose(2, 0, 1))
    n = buf.shape[1] - (k - 1)
    full = np.empty((c_out, buf.shape[1]), dtype=np.result_type(wk, buf))
    acc = full[:, :n]
    np.matmul(wk[0], buf[:, :n], out=acc)
    for i in range(1, k):
        acc += wk[i] @ buf[:, i:i + n]
    out = np.ascontiguousarray(full.reshape(c_out, batch, -1)[:, :, :length].transpose(1, 0, 2))
    if b is not None:
        out += b[None, :, None]
    return out


@pytest.mark.parametrize("c_in, c_out, length, k", UNET_CONV_SHAPES)
def test_conv1d_forward_equals_per_tap_gemms(c_in, c_out, length, k):
    """The stacked-tap forward is the per-tap sum bit for bit at the training
    batch, bias included. At B = 64 `_tap_sum` runs its GEMMs over groups of
    samples and the oracle over the whole buffer, so this also pins that the
    group split moves no bit. OpenBLAS picks its sgemm kernel by the
    product's size, so at B = 1 or 2 a per-tap product can take another kernel
    than the stacked one and round differently (OpenBLAS 0.3.31 on an AVX-512
    Xeon: 64-128-88 at B = 1, 32-64-176 at B = 2); there the two agree within
    the rounding bound of two orders of summing K * Cin products."""
    rng = np.random.default_rng(c_in * 1000 + c_out)
    x = rng.standard_normal((64, c_in, length)).astype(np.float32)
    w = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
    b = rng.standard_normal(c_out).astype(np.float32)
    got = T.conv1d(T.Tensor(x), T.Tensor(w), T.Tensor(b))
    want = _per_tap_conv1d(x, w, b)
    assert got.data.flags.c_contiguous and got.dtype == want.dtype
    assert got.data.tobytes() == want.tobytes()
    zero_bias = T.Tensor(np.zeros(c_out, dtype=np.float32))
    terms = k * c_in
    eps = np.finfo(np.float32).eps / 2  # unit roundoff
    gamma = terms * eps / (1 - terms * eps)
    for batch in (1, 2):
        got = T.conv1d(T.Tensor(x[:batch]), T.Tensor(w), zero_bias).data
        want = _per_tap_conv1d(x[:batch], w)
        scale = _per_tap_conv1d(np.abs(x[:batch]).astype(np.float64), np.abs(w).astype(np.float64))
        assert np.all(np.abs(got.astype(np.float64) - want) <= 2 * gamma * scale)


@pytest.mark.parametrize("c_in, c_out, length, k", UNET_CONV_SHAPES)
def test_conv1d_input_gradient_equals_per_tap_gemms(c_in, c_out, length, k):
    """The input gradient is the per-tap sum over the upstream gradient with
    the flipped, transposed kernel, bit for bit at the training batch, whose
    grouped GEMMs the oracle runs over the whole buffer; at B = 1 and 2
    within the forward test's rounding bound of K * Cout terms."""
    rng = np.random.default_rng(c_in * 1000 + c_out + 1)
    x = rng.standard_normal((64, c_in, length)).astype(np.float32)
    w = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
    g = rng.standard_normal((64, c_out, length)).astype(np.float32)
    wt = w[:, :, ::-1].transpose(1, 0, 2)  # [Cin, Cout, K]

    def input_grad(batch):
        xt = T.Tensor(x[:batch], requires_grad=True)
        grads = T.conv1d(xt, T.Tensor(w, requires_grad=True),
                         T.Tensor(np.zeros(c_out, dtype=np.float32)))._backward(g[:batch])
        (gx,) = [gp for p, gp in grads if p is xt]
        return gx

    got, want = input_grad(64), _per_tap_conv1d(g, wt)
    assert got.flags.c_contiguous and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    terms = k * c_out
    eps = np.finfo(np.float32).eps / 2  # unit roundoff
    gamma = terms * eps / (1 - terms * eps)
    for batch in (1, 2):
        got = input_grad(batch)
        want = _per_tap_conv1d(g[:batch], wt)
        scale = _per_tap_conv1d(np.abs(g[:batch]).astype(np.float64),
                                np.abs(wt).astype(np.float64))
        assert np.all(np.abs(got.astype(np.float64) - want) <= 2 * gamma * scale)


@pytest.mark.parametrize("c_in, c_out, length", [(512, 128, 44), (64, 32, 352)],
                         ids=["dec3", "dec0"])
def test_conv1d_transient_memory_is_bounded(c_in, c_out, length):
    """One conv1d forward and one backward at a B = 64 training shape each
    allocate at most the group budget beyond the arrays the op must hold: its
    padded operand, its stacked kernel and what it returns (the output, or the
    three gradients), plus 1 MiB for ufunc buffers and Python objects. A
    stacked product over the whole batch breaks the bound: 18.1 MB in dec3's
    input gradient, 8.7 MB in dec0's forward."""
    batch, k = 64, 3
    rng = np.random.default_rng(c_in)
    x, g = (rng.standard_normal((batch, c, length)).astype(np.float32) for c in (c_in, c_out))
    w = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
    xt, wt, bt = (T.Tensor(a, requires_grad=True)
                  for a in (x, w, np.zeros(c_out, dtype=np.float32)))
    channel_bytes = batch * (length + k - 1) * 4  # one channel of a padded operand
    slack = 1 << 20
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = T.conv1d(xt, wt, bt)
        forward = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        grads = out._backward(g)
        backward = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert forward <= T._GROUP_BYTES + c_in * channel_bytes + w.nbytes + out.data.nbytes + slack
    returned = sum(gp.nbytes for _, gp in grads)
    assert backward <= T._GROUP_BYTES + c_out * channel_bytes + w.nbytes + returned + slack


def _signed_specials(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    normal = np.finfo(dtype).tiny
    return np.array([-0.0, 0.0, tiny, -tiny, 7 * tiny, -3 * tiny, normal, -normal, 2.25, -1.5],
                    dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_forward_bytes_match_where(dtype):
    """-0.0 -> +0.0, subnormals of both signs, every vector-loop tail length
    and strided input: the same bytes as where(x > 0, x, 0.0)."""
    rng = np.random.default_rng(2)
    for n in (1, 7, 16, 33, 100):
        x = rng.choice(_signed_specials(dtype), size=(2, 3, n))
        for arr in (x, x[:, :, ::2], x.transpose(2, 1, 0)):
            got = T.relu(T.Tensor(arr)).data
            want = np.where(arr > 0, arr, 0.0)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_upsample2_backward_bytes_match_reshape_sum(dtype):
    """Including pairs of two -0.0 halves, which the reshape-sum makes +0.0."""
    rng = np.random.default_rng(3)
    x = T.Tensor(np.zeros((2, 3, 11), dtype=dtype), requires_grad=True)
    up = T.upsample2(x)
    g = rng.choice(_signed_specials(dtype), size=up.shape)
    g[0, 0, :4] = [-0.0, -0.0, -0.0, 0.0]
    g[1] = rng.standard_normal(g[1].shape)
    ((parent, gx),) = up._backward(g)
    want = g.reshape(2, 3, 11, 2).sum(axis=-1)
    assert parent is x and gx.dtype == want.dtype and gx.tobytes() == want.tobytes()


def test_backward_releases_graph_and_runs_once():
    w = T.Tensor(np.random.default_rng(0).standard_normal((4, 3, 3)), requires_grad=True)
    hidden = T.relu(T.conv1d(T.Tensor(np.ones((2, 3, 8))), w, T.Tensor(np.zeros(4))))
    activation = weakref.ref(hidden.data)
    loss = mean(mul(hidden, hidden))
    del hidden
    assert activation() is not None  # the graph holds it until backward
    loss.backward()
    assert activation() is None
    assert np.any(w.grad != 0)
    with pytest.raises(NumericError, match="untracked"):
        loss.backward()


def test_conv_output_is_freed_before_backward():
    """The graph keeps only what backward reads (relu its mask, conv1d its
    padded input), so the conv output is freed as soon as the forward drops
    it. Integer data makes every sum exact, so the gradients are the bytes
    of the im2col oracle whatever the summation order."""
    rng = np.random.default_rng(8)
    x, w = (rng.integers(-3, 4, s).astype(np.float64) for s in ((2, 3, 8), (4, 3, 3)))
    b = np.arange(-2.0, 2.0)
    xt, wt, bt = (T.Tensor(a, requires_grad=True) for a in (x, w, b))
    pre = T.conv1d(xt, wt, bt)
    conv_out = weakref.ref(pre.data)
    hidden = T.relu(pre)
    del pre
    assert conv_out() is None
    mean(mul(hidden, hidden)).backward()
    out, gx, gw, gb = _im2col_conv1d(x, w, b, (2.0 / hidden.data.size) * hidden.data)
    assert hidden.data.tobytes() == np.maximum(out, 0.0).tobytes()
    for got, want in ((xt.grad, gx), (wt.grad, gw), (bt.grad, gb)):
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_small_unet_gradcheck_against_finite_differences():
    """The float32 net's parameters and a sample, both cast to float64, so
    the central differences resolve the gradient."""
    net = nn.VelocityNet(dims=8, base_channels=4, seed=3)
    net.params = {name: T.Tensor(p.data.astype(np.float64), requires_grad=True)
                  for name, p in net.params.items()}
    rng = np.random.default_rng(5)
    x0, x1 = rng.standard_normal((2, 2, 8, 32))
    t = np.array([0.25, 0.75])
    tb = t[:, None, None]
    sample = flowmatch.FlowSample(t=t, x_t=(1.0 - tb) * x0 + tb * x1, u=x1 - x0)

    def loss_fn():
        return flowmatch.cfm_loss(net, sample)

    worst = finite_difference_check(loss_fn, net.params, n_coords=50, h=1e-3, seed=0)
    assert worst < 1e-4


def test_unet_preserves_shape():
    net = nn.VelocityNet(dims=64, base_channels=8, seed=0)
    x = T.Tensor(np.zeros((1, 64, 352), dtype=np.float32))
    t = T.Tensor(np.array([0.5], dtype=np.float32))
    assert net(x, t).shape == (1, 64, 352)


@pytest.mark.parametrize("frames", [16, 32, 352, 160])
def test_unet_shape_for_all_multiples_of_16(frames):
    net = nn.VelocityNet(dims=4, base_channels=4, seed=0)
    x = T.Tensor(np.random.default_rng(1).standard_normal((2, 4, frames)).astype(np.float32))
    t = T.Tensor(np.array([0.1, 0.9], dtype=np.float32))
    assert net(x, t).shape == (2, 4, frames)


def test_zero_initialized_head_gives_zero_output():
    net = nn.VelocityNet(dims=8, base_channels=4, seed=11)
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.standard_normal((3, 8, 48)).astype(np.float32))
    t = T.Tensor(rng.uniform(size=3).astype(np.float32))
    assert np.array_equal(net(x, t).data, np.zeros((3, 8, 48), dtype=np.float32))


def test_unet_forward_deterministic_across_instances():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 8, 32)).astype(np.float32)
    t = rng.uniform(size=2).astype(np.float32)
    outs = []
    for _ in range(2):
        net = nn.VelocityNet(dims=8, base_channels=4, seed=7)
        # give the zero head nonzero weights so the comparison is meaningful
        w = np.random.default_rng(0).standard_normal(net.params["out.w"].shape)
        net.params["out.w"].data[...] = w.astype(np.float32)
        outs.append(net(T.Tensor(x), T.Tensor(t)).data)
    assert np.array_equal(outs[0], outs[1])


def test_adam_zero_gradient_leaves_parameters_unchanged():
    p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = nn.AdamState(lr=0.1)
    nn.adam_step({"p": p}, state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    p = T.Tensor(np.array([0.0, 0.0]), requires_grad=True)
    p.grad[...] = np.array([0.5, -3.0])
    state = nn.AdamState(lr=1e-3)
    nn.adam_step({"p": p}, state)
    np.testing.assert_allclose(p.data, [-1e-3, 1e-3], rtol=1e-6)


def test_adam_optimizes_scalar_quadratic():
    w = T.Tensor(np.array([0.0]), requires_grad=True)
    state = nn.AdamState(lr=0.1)
    for _ in range(500):
        w.zero_grad()
        target = T.Tensor(np.array([3.0]))
        diff = sub(w, target)
        tensor_sum(mul(diff, diff)).backward()
        nn.adam_step({"w": w}, state)
    assert abs(float(w.data[0]) - 3.0) < 1e-2


def test_checkpoint_round_trip(tmp_path):
    net = nn.VelocityNet(dims=8, base_channels=4, seed=1)
    state = nn.AdamState(lr=2e-4)
    state.step = 12
    for name, p in net.params.items():
        state.m[name] = np.full_like(p.data, 0.25)
        state.v[name] = np.full_like(p.data, 0.5)
    config = {"dims": 8, "note": "test"}
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, net.params, state, config)

    params, loaded_state, echo = nn.load_checkpoint(path)
    assert echo == config
    assert loaded_state.step == 12 and loaded_state.lr == pytest.approx(2e-4)
    assert set(params) == set(net.params)
    for name in params:
        np.testing.assert_array_equal(params[name], net.params[name].data)
        np.testing.assert_array_equal(loaded_state.m[name], state.m[name])


def test_checkpoint_magic_validated(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(DataError, match="magic"):
        nn.load_checkpoint(path)


def test_truncated_or_garbled_checkpoint_names_path(tmp_path):
    net = nn.VelocityNet(dims=4, base_channels=4, seed=0)
    good = tmp_path / "good.ckpt"
    nn.save_checkpoint(good, net.params, nn.AdamState(lr=1e-3), {"dims": 4})
    blob = good.read_bytes()
    cases = {"head.ckpt": blob[:20], "body.ckpt": blob[:len(blob) // 2],
             "json.ckpt": blob[:11] + b"\xff" * (len(blob) - 11),
             "list.ckpt": nn.checkpoint.MAGIC + b"\x02\x00\x00\x00[]"}
    for name, data in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(DataError, match="truncated or corrupt") as info:
            nn.load_checkpoint(path)
        assert str(path) in str(info.value)


def test_checkpoint_declaring_more_data_than_file_holds(tmp_path):
    """A 44-byte checkpoint whose one parameter declares shape (2**31, 2**10),
    8 TiB of float32: refused from the file size, before any read."""
    path = tmp_path / "huge.ckpt"
    path.write_bytes(nn.checkpoint.MAGIC + struct.pack("<I", 2) + b"{}"
                     + struct.pack("<IH", 1, 1) + b"w"
                     + struct.pack("<B2I", 2, 2**31, 2**10) + bytes(15))
    assert path.stat().st_size == 44
    with pytest.raises(DataError, match="truncated or corrupt") as info:
        nn.load_checkpoint(path)
    assert str(path) in str(info.value)
    assert "needs 8796093022208 bytes, 15 left" in str(info.value)


# the body of a valid checkpoint after its magic: config echo, one [2, 3]
# parameter, Adam state with its two moments
_BODY = (struct.pack("<I", 11) + b'{"dims": 4}' + struct.pack("<IH", 1, 1) + b"w"
         + struct.pack("<B2I", 2, 2, 3) + np.arange(6, dtype="<f4").tobytes()
         + struct.pack("<BQ4d", 1, 3, 1e-3, 0.9, 0.999, 1e-8)
         + 2 * (struct.pack("<B2I", 2, 2, 3) + bytes(24)))


@settings(max_examples=300, deadline=None)
@given(tail=st.binary(max_size=200)
       | st.builds(lambda cut, junk: _BODY[:cut] + junk,
                   st.integers(0, len(_BODY)), st.binary(max_size=40)))
@example(tail=_BODY)
# a config echo nested past the recursion limit
@example(tail=struct.pack("<I", 200000) + b"[" * 100000 + b"]" * 100000)
def test_load_checkpoint_of_arbitrary_bytes(tmp_path_factory, tail):
    """Any bytes after the magic load as a checkpoint or raise a TabflowError."""
    path = tmp_path_factory.getbasetemp() / "arbitrary.ckpt"
    path.write_bytes(nn.checkpoint.MAGIC + tail)
    try:
        params, state, config = nn.load_checkpoint(path)
    except TabflowError:
        return
    assert isinstance(config, dict)
    assert all(p.dtype == np.float32 for p in params.values())
    assert state is None or set(state.m) == set(state.v) == set(params)
    if tail == _BODY:
        np.testing.assert_array_equal(params["w"], np.arange(6).reshape(2, 3))
        assert state.step == 3 and config == {"dims": 4}


def test_checkpoint_repeating_a_parameter_name_is_corrupt(tmp_path):
    """A second enc0.w would replace the first as it loads."""
    net = nn.VelocityNet(dims=4, base_channels=4, seed=0)
    path = tmp_path / "twice.ckpt"
    params = dict(net.params)
    nn.save_checkpoint(path, params, None, {})
    blob = path.read_bytes()
    n_params = struct.pack("<I", len(params))
    at = blob.index(n_params, len(nn.checkpoint.MAGIC) + 6)
    record = blob[at + 4:blob.index(b"enc0.b", at) - 2]  # enc0.w's name and array
    assert record.startswith(struct.pack("<H", 6) + b"enc0.w")
    path.write_bytes(blob[:at] + struct.pack("<I", len(params) + 1) + record
                     + blob[at + 4:])
    with pytest.raises(DataError, match="parameter enc0.w named twice") as info:
        nn.load_checkpoint(path)
    assert str(path) in str(info.value)


def test_checkpoint_with_bytes_after_its_adam_state_is_corrupt(tmp_path):
    net = nn.VelocityNet(dims=4, base_channels=4, seed=0)
    path = tmp_path / "junk.ckpt"
    nn.save_checkpoint(path, net.params, nn.AdamState(lr=1e-3), {"dims": 4})
    nn.load_checkpoint(path)
    path.write_bytes(path.read_bytes() + b"\x00junk\xff\x01\x02")
    with pytest.raises(DataError, match="8 bytes after its end") as info:
        nn.load_checkpoint(path)
    assert str(path) in str(info.value)


def test_package_exports_only_its_listed_names():
    """The engine has no global mode to switch: tracking follows the leaves."""
    public = {name for name, value in vars(nn).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {
        "Tensor", "VelocityNet", "param_shapes", "AdamState", "adam_step",
        "save_checkpoint", "load_checkpoint"}
    assert not any(isinstance(value, bool) for value in vars(T).values())


def test_training_net_backward_fills_every_parameter_gradient():
    net = nn.VelocityNet(dims=4, base_channels=4, seed=0)
    rng = np.random.default_rng(0)
    # a nonzero head, so the gradient reaches every layer
    net.params["out.w"].data[...] = rng.standard_normal(net.params["out.w"].shape)
    assert all(p.requires_grad for p in net.params.values())
    x0, x1 = rng.standard_normal((2, 3, 4, 32)).astype(np.float32)
    t = np.array([0.2, 0.5, 0.9], dtype=np.float32)
    tb = t[:, None, None]
    sample = flowmatch.FlowSample(t=t, x_t=(1 - tb) * x0 + tb * x1, u=x1 - x0)
    loss = flowmatch.cfm_loss(net, sample)
    assert loss.requires_grad
    loss.backward()
    for name, p in net.params.items():
        assert p.grad.shape == p.shape and np.any(p.grad != 0), name
