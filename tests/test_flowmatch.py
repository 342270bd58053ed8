import numpy as np
import pytest

import tabflow.neuralnet as nn
from tabflow import flowmatch, odesolve
from tabflow.config import load_config
from tabflow.errors import DataError
from tabflow.fixtures import gaussian_2d_pairs
from tabflow.flowmatch import cfm_loss, make_sample, train, transfer_batch
from tabflow.neuralnet import tensor as T

from netcheck import DenseVelocityNet


def _cfg(batch_size, lr, epochs, seed):
    """Pipeline settings with the given training values."""
    return load_config(None, {
        "flowmatch": {"batch_size": str(batch_size), "lr": str(lr), "epochs": str(epochs)},
        "cli": {"seed": str(seed)}})


class OracleNet:
    """Velocity stub returning the batch's exact target velocities."""

    dtype = np.float64

    def __init__(self, u):
        self.u = np.asarray(u)

    def parameters(self):
        return {}

    def __call__(self, x, t):
        return T.Tensor(self.u.astype(x.dtype))


class ConstantNet:
    dtype = np.float64

    def __init__(self, c):
        self.c = c

    def __call__(self, x, t):
        return T.Tensor(np.full(x.data.shape, self.c, dtype=x.dtype))


def test_interpolant_endpoints():
    x0 = np.array([[1.0, -2.0]])
    x1 = np.array([[3.0, 4.0]])
    assert np.array_equal(make_sample(x0, x1, [0.0]).x_t, x0)
    assert np.array_equal(make_sample(x0, x1, [1.0]).x_t, x1)


def test_midpoint_arithmetic():
    s = make_sample(np.array([[0.0]]), np.array([[2.0]]), [0.5])
    assert s.x_t[0, 0] == 1.0 and s.u[0, 0] == 2.0


def test_interpolant_invariants_exact():
    # B == D == F, so a t broadcast along the wrong axis gives wrong values
    # instead of a shape error
    rng = np.random.default_rng(0)
    for _ in range(20):
        x0 = rng.standard_normal((5, 5, 5))
        x1 = rng.standard_normal((5, 5, 5))
        t = rng.uniform(size=5)
        s = make_sample(x0, x1, t)
        np.testing.assert_array_equal(s.t, t)
        for i in range(5):
            ti = float(t[i])
            np.testing.assert_array_equal(s.x_t[i], (1 - ti) * x0[i] + ti * x1[i])
        np.testing.assert_array_equal(s.u, x1 - x0)


def test_make_sample_rejects_shape_mismatch_and_bad_t():
    with pytest.raises(DataError, match="shapes"):
        make_sample(np.zeros((1, 2)), np.zeros((1, 3)), [0.5])
    with pytest.raises(DataError, match="t must be"):
        make_sample(np.zeros((1, 2)), np.zeros((1, 2)), [1.5])
    for t in ([0.5], [0.5, 0.5, 0.5], 0.5, [[0.5, 0.5]]):
        with pytest.raises(DataError, match="one t per pair"):
            make_sample(np.zeros((2, 3)), np.zeros((2, 3)), t)


def test_cfm_loss_zero_at_oracle():
    rng = np.random.default_rng(1)
    sample = make_sample(rng.standard_normal((6, 4, 16)), rng.standard_normal((6, 4, 16)),
                         rng.uniform(size=6))
    loss = cfm_loss(OracleNet(sample.u), sample)
    assert loss.item() < 1e-12


def test_cfm_loss_zero_net_unit_velocities():
    sample = make_sample(np.zeros((3, 2, 8)), np.ones((3, 2, 8)), np.full(3, 0.3))
    assert cfm_loss(ConstantNet(0.0), sample).item() == pytest.approx(1.0)


def test_cfm_loss_invariant_to_batch_order():
    rng = np.random.default_rng(2)
    x0, x1 = rng.standard_normal((8, 6)), rng.standard_normal((8, 6))
    t = rng.uniform(size=8)
    net = ConstantNet(0.25)
    a = cfm_loss(net, make_sample(x0, x1, t)).item()
    b = cfm_loss(net, make_sample(x0[::-1], x1[::-1], t[::-1])).item()
    assert a == pytest.approx(b, abs=1e-6)


def test_cfm_loss_nonnegative():
    rng = np.random.default_rng(3)
    sample = make_sample(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)),
                         np.full(4, 0.5))
    assert cfm_loss(ConstantNet(1.3), sample).item() >= 0.0


def test_cfm_loss_rejects_empty_batch():
    with pytest.raises(DataError, match="empty"):
        cfm_loss(ConstantNet(0.0), make_sample(np.zeros((0, 2)), np.zeros((0, 2)), []))


def test_step_arithmetic_single_pair():
    net = DenseVelocityNet(2, hidden=4, seed=0)
    cfg = _cfg(64, 1e-4, 50, 0)
    _, state, hist = train(np.zeros((1, 2)), np.ones((1, 2)), cfg, net=net)
    assert len(hist) == 50 and state.step == 50


def test_step_arithmetic_ceil_batches():
    net = DenseVelocityNet(2, hidden=4, seed=0)
    cfg = _cfg(4, 1e-4, 3, 0)
    _, _, hist = train(np.zeros((10, 2)), np.ones((10, 2)), cfg, net=net)
    assert len(hist) == 3 * 3  # ceil(10 / 4) = 3 steps per epoch


def test_paper_step_budget_consistency():
    # 50 epochs at batch 64 reach 3,900 steps for a 4,992-chunk corpus
    assert 50 * -(-4992 // 64) == 3900


def test_training_is_deterministic():
    x0, x1 = gaussian_2d_pairs(64, seed=5)
    cfg = _cfg(32, 1e-3, 3, 9)
    runs = []
    for _ in range(2):
        net = DenseVelocityNet(2, hidden=8, seed=1)
        runs.append(train(x0, x1, cfg, net=net)[2])
    assert runs[0] == runs[1]


def test_train_requires_consistent_pairs():
    cfg = load_config()
    with pytest.raises(DataError, match="bad endpoint arrays"):
        train(np.zeros((0, 64, 4)), np.zeros((0, 64, 4)), cfg)
    with pytest.raises(DataError, match="bad endpoint arrays"):
        train(np.zeros((2, 64, 4)), np.zeros((2, 64, 6)), cfg)


def test_transfer_identity_with_zero_net():
    net = nn.VelocityNet(dims=64, base_channels=4, seed=0)
    rng = np.random.default_rng(6)
    states = rng.standard_normal((1, 64, 40))
    for solver in (odesolve.Euler(10), odesolve.Dopri5()):
        out = transfer_batch(net, states, solver)
        assert out.shape == states.shape
        np.testing.assert_array_equal(out, states)


def test_transfer_constant_velocity_closed_form():
    class ConstField:
        dtype = np.float64

        def __call__(self, x, t):
            return T.Tensor(np.full(x.data.shape, 0.75, dtype=x.dtype))

    rng = np.random.default_rng(7)
    states = rng.standard_normal((2, 3, 8))
    for solver in (odesolve.Euler(100), odesolve.RK4(10), odesolve.Dopri5()):
        out = transfer_batch(ConstField(), states, solver)
        np.testing.assert_allclose(out, states + 0.75, atol=1e-6)


def test_transfer_solver_agreement_on_trained_toy_net():
    x0, x1 = gaussian_2d_pairs(256, seed=10)
    cfg = _cfg(64, 5e-3, 40, 3)
    net, _, _ = train(x0, x1, cfg, net=DenseVelocityNet(2, hidden=16, seed=2))

    def velocity(t, y):
        with nn.no_grad():
            x = T.Tensor(y.reshape(-1, 2))
            tt = T.Tensor(np.full(len(x.data), t))
            return net(x, tt).data.reshape(-1)

    y0 = x0[:32].reshape(-1)
    euler = odesolve.integrate(velocity, y0, (0, 1), odesolve.Euler(100)).final_state
    dopri = odesolve.integrate(velocity, y0, (0, 1), odesolve.Dopri5(1e-4, 1e-4)).final_state
    assert np.abs(euler - dopri).max() < 0.05


def test_loss_history_decreases_on_learnable_problem():
    x0, x1 = gaussian_2d_pairs(512, seed=11)
    cfg = _cfg(128, 3e-3, 60, 5)
    _, _, hist = train(x0, x1, cfg, net=DenseVelocityNet(2, hidden=32, seed=4))
    first = np.mean([h[2] for h in hist[:5]])
    last = np.mean([h[2] for h in hist[-5:]])
    assert last < first


def test_two_dimensional_transport_sanity():
    x0, x1 = gaussian_2d_pairs(2000, seed=42)
    cfg = _cfg(256, 3e-3, 250, 1)
    net, _, hist = train(x0, x1, cfg, net=DenseVelocityNet(2, hidden=64, seed=0))
    assert len(hist) <= 2000

    def velocity(t, y):
        with nn.no_grad():
            x = T.Tensor(y.reshape(-1, 2))
            tt = T.Tensor(np.full(len(x.data), t))
            return net(x, tt).data.reshape(-1)

    trace = odesolve.integrate(velocity, x0.reshape(-1), (0, 1), odesolve.Dopri5())
    moved = trace.final_state.reshape(-1, 2)
    assert np.linalg.norm(moved.mean(axis=0) - 3.0) < 0.3
    assert np.all(moved.var(axis=0) > 0.25 / 2) and np.all(moved.var(axis=0) < 0.25 * 2)
