import weakref
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import tabflow.neuralnet as nn
from tabflow import flowmatch
from tabflow.errors import DataError, NumericError
from tabflow.neuralnet import tensor as T

from netcheck import finite_difference_check


def test_sum_of_squares_gradient():
    w = T.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    loss = T.tensor_sum(T.mul(w, w))
    loss.backward()
    np.testing.assert_allclose(w.grad, [2.0, 4.0, 6.0])


def test_unused_parameter_gets_zero_gradient():
    w = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    unused = T.Tensor(np.array([5.0]), requires_grad=True)
    T.tensor_sum(T.mul(w, w)).backward()
    np.testing.assert_array_equal(unused.grad, [0.0])


def test_backward_on_untracked_graph_raises():
    a = T.Tensor(np.array([1.0]))
    out = T.tensor_sum(T.mul(a, a))
    with pytest.raises(NumericError, match="untracked"):
        out.backward()


def test_backward_requires_scalar():
    a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(NumericError, match="scalar"):
        T.mul(a, a).backward()


def test_nan_aborts_naming_op():
    a = T.Tensor(np.array([700.0]))
    with pytest.raises(NumericError, match="leaf"):
        T.Tensor(np.array([np.nan]))
    with pytest.raises(NumericError, match="mul"):
        T.mul(T.Tensor(np.array([1e300])), T.Tensor(np.array([1e300])))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_finite_output_whose_sum_overflows_passes():
    # the sum is inf, so the check must fall back to the elementwise test
    out = T.add(T.Tensor(np.array([1e308, 1e308])), T.Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, [1e308, 1e308])


def test_gradient_accumulates_for_shared_input():
    a = T.Tensor(np.array([3.0]), requires_grad=True)
    out = T.tensor_sum(T.add(T.mul(a, a), T.mul(a, a)))
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
            return T.mean(T.mul(T.conv1d(params["x"], params["w"], params["b"]),
                                T.conv1d(params["x"], params["w"], params["b"])))
    elif op_name == "relu":
        def loss_fn():
            return T.mean(T.mul(T.relu(params["x"]), T.relu(params["x"])))
    elif op_name == "downsample2":
        def loss_fn():
            y = T.downsample2(params["x"])
            return T.mean(T.mul(y, y))
    elif op_name == "upsample2":
        def loss_fn():
            y = T.upsample2(params["x"])
            return T.mean(T.mul(y, y))
    elif op_name == "concat":
        params["y"] = T.Tensor(rng.standard_normal((2, 2, 8)), requires_grad=True)

        def loss_fn():
            z = T.concat([params["x"], params["y"]], axis=1)
            return T.mean(T.mul(z, z))
    elif op_name == "mse":
        params["y"] = T.Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)

        def loss_fn():
            return T.mse(params["x"], params["y"])
    else:
        params = {"a": T.Tensor(rng.standard_normal((4, 3)), requires_grad=True),
                  "b": T.Tensor(rng.standard_normal((3, 5)), requires_grad=True)}

        def loss_fn():
            z = T.matmul(params["a"], params["b"])
            return T.mean(T.mul(z, z))

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
    out = T.conv1d(x, w)
    parents = [p for p, _ in out._backward(np.ones((2, 4, 8)))]
    assert all(p is not x for p in parents) and any(p is w for p in parents)


def test_backward_releases_graph_and_runs_once():
    w = T.Tensor(np.random.default_rng(0).standard_normal((4, 3, 3)), requires_grad=True)
    hidden = T.relu(T.conv1d(T.Tensor(np.ones((2, 3, 8))), w))
    activation = weakref.ref(hidden.data)
    loss = T.mean(T.mul(hidden, hidden))
    del hidden
    assert activation() is not None  # the graph holds it until backward
    loss.backward()
    assert activation() is None
    assert np.any(w.grad != 0)
    with pytest.raises(NumericError, match="untracked"):
        loss.backward()


def test_small_unet_gradcheck_against_finite_differences():
    net = nn.VelocityNet(dims=8, base_channels=4, seed=3, dtype=np.float64)
    rng = np.random.default_rng(5)
    sample = flowmatch.make_sample(rng.standard_normal((2, 8, 32)),
                                   rng.standard_normal((2, 8, 32)), [0.25, 0.75])

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


def test_unet_rejects_bad_frame_length():
    net = nn.VelocityNet(dims=4, base_channels=4, seed=0)
    x = T.Tensor(np.zeros((1, 4, 20), dtype=np.float32))
    with pytest.raises(DataError, match="not divisible"):
        net(x, T.Tensor(np.array([0.5], dtype=np.float32)))


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
        diff = T.sub(w, target)
        T.tensor_sum(T.mul(diff, diff)).backward()
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
    nn.save_checkpoint(good, net.params, nn.AdamState(), {"dims": 4})
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


def test_no_grad_disables_graph():
    p = T.Tensor(np.array([2.0]), requires_grad=True)
    with nn.no_grad():
        out = T.mul(p, p)
    assert not out.requires_grad
