import inspect
import tracemalloc

import numpy as np
import pytest

import tabflow.neuralnet as nn
from tabflow import flowmatch, odesolve
from tabflow.config import load_config
from tabflow.errors import DataError
from tabflow.flowmatch import cfm_loss, make_sample, train, transfer_batch
from tabflow.neuralnet import tensor as T

from oracles import gaussian_2d_pairs


def _cfg(batch_size, lr, epochs, seed, base_channels=8):
    """Pipeline settings with the given training values and a narrow UNet."""
    return load_config(None, {
        "flowmatch": {"batch_size": str(batch_size), "lr": str(lr), "epochs": str(epochs),
                      "base_channels": str(base_channels)},
        "cli": {"seed": str(seed)}})


def _frames(points):
    """[N, 2] points as [N / 16, 2, 16] latents: each frame is one point."""
    return points.reshape(-1, 16, 2).transpose(0, 2, 1)


def _points(latents):
    """The inverse of _frames."""
    return latents.transpose(0, 2, 1).reshape(-1, 2)


class OracleNet:
    """Velocity stub returning the batch's exact target velocities."""

    def __init__(self, u):
        self.u = np.asarray(u)

    def __call__(self, x, t):
        return T.Tensor(self.u.astype(x.dtype))


class ConstantNet:
    def __init__(self, c):
        self.c = c

    def __call__(self, x, t):
        return T.Tensor(np.full(x.data.shape, self.c, dtype=x.dtype))


def _f32(*arrays):
    """The arrays in float32, the dtype of train's batches."""
    return [np.asarray(a, dtype=np.float32) for a in arrays]


def test_interpolant_endpoints():
    x0, x1 = _f32([[[1.0, -2.0]]], [[[3.0, 4.0]]])
    for t, want in ((0.0, x0), (1.0, x1)):
        assert np.array_equal(make_sample(x0, x1, *_f32([t])).x_t, want)


def test_midpoint_arithmetic():
    s = make_sample(*_f32([[[0.0]]], [[[2.0]]], [0.5]))
    assert s.x_t[0, 0, 0] == 1.0 and s.u[0, 0, 0] == 2.0


def test_interpolant_invariants_exact():
    """The sample is float32, t included, and row i is interpolated at t[i]."""
    # B == D == F, so a t broadcast along the wrong axis gives wrong values
    # instead of a shape error
    rng = np.random.default_rng(0)
    for _ in range(10):
        x0, x1 = _f32(rng.standard_normal((5, 5, 5)), rng.standard_normal((5, 5, 5)))
        t, = _f32(rng.uniform(size=5))
        s = make_sample(x0, x1, t)
        assert s.t.dtype == s.x_t.dtype == s.u.dtype == np.float32
        np.testing.assert_array_equal(s.t, t)
        for i in range(5):
            np.testing.assert_array_equal(s.x_t[i], (1 - t[i]) * x0[i] + t[i] * x1[i])
        np.testing.assert_array_equal(s.u, x1 - x0)


def test_cfm_loss_zero_at_oracle():
    rng = np.random.default_rng(1)
    sample = make_sample(*_f32(rng.standard_normal((6, 4, 16)),
                               rng.standard_normal((6, 4, 16)), rng.uniform(size=6)))
    loss = cfm_loss(OracleNet(sample.u), sample)
    assert loss.item() < 1e-12


def test_cfm_loss_zero_net_unit_velocities():
    sample = make_sample(*_f32(np.zeros((3, 2, 8)), np.ones((3, 2, 8)), np.full(3, 0.3)))
    assert cfm_loss(ConstantNet(0.0), sample).item() == pytest.approx(1.0)


def test_cfm_loss_invariant_to_batch_order():
    rng = np.random.default_rng(2)
    x0, x1, t = _f32(rng.standard_normal((8, 6, 4)), rng.standard_normal((8, 6, 4)),
                     rng.uniform(size=8))
    net = ConstantNet(0.25)
    a = cfm_loss(net, make_sample(x0, x1, t)).item()
    b = cfm_loss(net, make_sample(x0[::-1], x1[::-1], t[::-1])).item()
    assert a == pytest.approx(b, abs=1e-6)


def test_cfm_loss_nonnegative():
    rng = np.random.default_rng(3)
    sample = make_sample(*_f32(rng.standard_normal((4, 4, 4)),
                               rng.standard_normal((4, 4, 4)), np.full(4, 0.5)))
    assert cfm_loss(ConstantNet(1.3), sample).item() >= 0.0


def test_step_arithmetic_single_pair():
    cfg = _cfg(64, 1e-4, 50, 0)
    _, state, hist = train(np.zeros((1, 2, 16)), np.ones((1, 2, 16)), cfg)
    assert len(hist) == 50 and state.step == 50


def test_step_arithmetic_ceil_batches():
    cfg = _cfg(4, 1e-4, 3, 0)
    _, _, hist = train(np.zeros((10, 2, 16)), np.ones((10, 2, 16)), cfg)
    assert len(hist) == 3 * 3  # ceil(10 / 4) = 3 steps per epoch


def test_paper_step_budget_consistency():
    # 50 epochs at batch 64 reach 3,900 steps for a 4,992-chunk corpus
    assert 50 * -(-4992 // 64) == 3900


def test_training_is_deterministic():
    x0, x1 = map(_frames, gaussian_2d_pairs(64, seed=5))
    cfg = _cfg(2, 1e-3, 3, 9)
    runs = [train(x0, x1, cfg)[2] for _ in range(2)]
    assert len(runs[0]) == 3 * 2 and runs[0] == runs[1]


def test_train_takes_endpoints_and_config_only():
    assert list(inspect.signature(train).parameters) == ["x0", "x1", "cfg"]


def test_train_gives_the_net_float32_batches_without_copies(monkeypatch):
    """float64 endpoints are cast to the net's float32 once, when padded, so
    every batch is built in float32 and reaches the net train builds as the
    sample's own array."""
    samples, inputs = [], []

    def spy_loss(net_, sample):
        samples.append(sample)
        return cfm_loss(net_, sample)

    class SpyNet(nn.VelocityNet):
        def forward(self, x, t):
            inputs.append((x.data, t.data))
            return super().forward(x, t)

    monkeypatch.setattr(flowmatch, "cfm_loss", spy_loss)
    monkeypatch.setattr(nn, "VelocityNet", SpyNet)
    rng = np.random.default_rng(4)
    x0, x1 = rng.standard_normal((2, 6, 4, 20))
    net, _, _ = train(x0, x1, _cfg(4, 1e-3, 1, 0, base_channels=2))
    assert type(net) is SpyNet
    assert len(samples) == len(inputs) == 2
    for sample, (x, t) in zip(samples, inputs):
        assert sample.x_t.dtype == sample.u.dtype == sample.t.dtype == np.float32
        assert sample.x_t.shape[1:] == (4, 32)
        assert x is sample.x_t and t is sample.t


def test_loss_and_backward_peak_memory_bound():
    """One cfm_loss + backward holds little beyond the arrays backward reads:
    each conv's padded input, each ReLU's mask and the loss's difference.
    The peak comes at the loss, which adds the head's output and the
    squared difference; one more array of that size is slack. A graph that
    keeps activations no backward reads, or a batch cast from float64 each
    step, exceeds it."""
    dims, batch, frames = 64, 8, 64
    net = nn.VelocityNet(dims, base_channels=8, seed=0)
    rng = np.random.default_rng(0)
    x0, x1 = rng.standard_normal((2, batch, dims, frames)).astype(np.float32)
    sample = make_sample(x0, x1, rng.uniform(size=batch).astype(np.float32))
    item = net.dtype.itemsize
    out_bytes = batch * dims * frames * item
    saved = out_bytes                                       # the loss's difference
    for name, p in net.params.items():
        if name.endswith(".w"):
            c_out, c_in, k = p.shape
            level = 0 if name == "out.w" else int(name[3])  # enc<i>, dec<i>: frames / 2**i
            length = frames >> level
            saved += c_in * batch * (length + k - 1) * item  # padded conv input
            if name != "out.w":
                saved += c_out * batch * length             # relu mask
    tracemalloc.start()
    try:
        cfm_loss(net, sample).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < saved + 3 * out_bytes


def test_train_requires_consistent_pairs():
    """Pairs of one [N, D, F] shape with N >= 1; other ranks stop here too,
    not in the net."""
    cfg = load_config()
    for shape0, shape1 in (((0, 64, 4), (0, 64, 4)), ((2, 64, 4), (2, 64, 6)),
                           ((4, 2), (4, 2)), ((2, 1, 4, 16), (2, 1, 4, 16))):
        with pytest.raises(DataError, match="bad endpoint arrays"):
            train(np.zeros(shape0), np.ones(shape1), cfg)


def test_transfer_identity_with_zero_net():
    net = nn.VelocityNet(dims=64, base_channels=4, seed=0)
    rng = np.random.default_rng(6)
    states = rng.standard_normal((1, 64, 40))
    for solver, nfe in ((odesolve.Euler(10), 10), (load_config().solver(), None)):
        out, trace = transfer_batch(net, states, solver)
        assert out.shape == states.shape
        np.testing.assert_array_equal(out, states)
        if nfe is not None:
            assert (trace.f_evals, trace.accepted_steps, trace.rejected_steps) == (nfe, nfe, 0)


def test_transfer_constant_velocity_closed_form():
    class ConstField:
        dtype = np.float64

        def __call__(self, x, t):
            return T.Tensor(np.full(x.data.shape, 0.75, dtype=x.dtype))

    rng = np.random.default_rng(7)
    states = rng.standard_normal((2, 3, 8))
    for solver in (odesolve.Euler(100), odesolve.RK4(10), load_config().solver()):
        out, trace = transfer_batch(ConstField(), states, solver)
        assert trace.final_state.size == states.size * 2  # F = 8 padded to 16
        np.testing.assert_allclose(out, states + 0.75, atol=1e-6)


def test_transfer_solver_agreement_on_trained_toy_net():
    x0, x1 = map(_frames, gaussian_2d_pairs(256, seed=10))
    net, _, _ = train(x0, x1, _cfg(4, 5e-3, 40, 3))
    states = x0[:2]
    euler, _ = transfer_batch(net, states, odesolve.Euler(100))
    dopri, _ = transfer_batch(net, states, load_config().solver())
    assert np.abs(euler - dopri).max() < 0.05


def test_loss_history_decreases_on_learnable_problem():
    x0, x1 = map(_frames, gaussian_2d_pairs(512, seed=11))
    _, _, hist = train(x0, x1, _cfg(8, 3e-3, 20, 5))
    first = np.mean([h[2] for h in hist[:5]])
    last = np.mean([h[2] for h in hist[-5:]])
    assert last < first


def test_two_dimensional_transport_sanity():
    """N(0, I) to N((3, 3), 0.25 I): the transported points have the
    target's mean and, within a factor of 2, its variance."""
    x0, x1 = map(_frames, gaussian_2d_pairs(2048, seed=42))
    net, _, hist = train(x0, x1, _cfg(32, 3e-3, 150, 1))
    assert len(hist) <= 2000
    out, _ = transfer_batch(net, x0, load_config().solver())
    moved = _points(out)
    assert np.linalg.norm(moved.mean(axis=0) - 3.0) < 0.3
    assert np.all(moved.var(axis=0) > 0.25 / 2) and np.all(moved.var(axis=0) < 0.25 * 2)
