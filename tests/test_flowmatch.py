import numpy as np
import pytest

import tabflow.neuralnet as nn
from tabflow import flowmatch, odesolve
from tabflow.config import load_config
from tabflow.errors import DataError
from tabflow.fixtures import gaussian_2d_pairs
from tabflow.flowmatch import cfm_loss, make_sample, train, train_arrays, transfer_batch
from tabflow.latentcodec import ChunkPair, LatentSeq
from tabflow.neuralnet import tensor as T


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

    def __init__(self, c, shape):
        self.c = c
        self.shape = shape

    def __call__(self, x, t):
        return T.Tensor(np.full(x.data.shape, self.c, dtype=x.dtype))


def test_interpolant_endpoints():
    x0 = np.array([1.0, -2.0])
    x1 = np.array([3.0, 4.0])
    assert np.array_equal(make_sample(x0, x1, 0.0).x_t, x0)
    assert np.array_equal(make_sample(x0, x1, 1.0).x_t, x1)


def test_midpoint_arithmetic():
    s = make_sample(np.array([0.0]), np.array([2.0]), 0.5)
    assert s.x_t[0] == 1.0 and s.u[0] == 2.0


def test_interpolant_invariants_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x0 = rng.standard_normal(5)
        x1 = rng.standard_normal(5)
        t = float(rng.uniform())
        s = make_sample(x0, x1, t)
        np.testing.assert_allclose(s.x_t, (1 - t) * x0 + t * x1, rtol=0, atol=0)
        np.testing.assert_array_equal(s.u, x1 - x0)


def test_make_sample_draws_t_from_rng():
    rng = np.random.default_rng(7)
    s = make_sample(np.zeros(2), np.ones(2), rng=rng)
    assert 0.0 <= s.t <= 1.0
    with pytest.raises(DataError, match="rng"):
        make_sample(np.zeros(2), np.ones(2))


def test_make_sample_rejects_shape_mismatch_and_bad_t():
    with pytest.raises(DataError, match="shapes"):
        make_sample(np.zeros(2), np.zeros(3), 0.5)
    with pytest.raises(DataError, match="t must be"):
        make_sample(np.zeros(2), np.zeros(2), 1.5)


def test_cfm_loss_zero_at_oracle():
    rng = np.random.default_rng(1)
    samples = [make_sample(rng.standard_normal((4, 16)), rng.standard_normal((4, 16)),
                           float(t)) for t in rng.uniform(size=6)]
    net = OracleNet(np.stack([s.u for s in samples]))
    loss = cfm_loss(net, samples, dtype=np.float64)
    assert loss.item() < 1e-12


def test_cfm_loss_zero_net_unit_velocities():
    samples = [make_sample(np.zeros((2, 8)), np.ones((2, 8)), 0.3) for _ in range(3)]
    net = ConstantNet(0.0, (2, 8))
    assert cfm_loss(net, samples, dtype=np.float64).item() == pytest.approx(1.0)


def test_cfm_loss_invariant_to_batch_order():
    rng = np.random.default_rng(2)
    samples = [make_sample(rng.standard_normal(6), rng.standard_normal(6), float(t))
               for t in rng.uniform(size=8)]
    net = ConstantNet(0.25, (6,))
    a = cfm_loss(net, samples, dtype=np.float64).item()
    b = cfm_loss(net, samples[::-1], dtype=np.float64).item()
    assert a == pytest.approx(b, abs=1e-6)


def test_cfm_loss_nonnegative():
    rng = np.random.default_rng(3)
    samples = [make_sample(rng.standard_normal(4), rng.standard_normal(4), 0.5)
               for _ in range(4)]
    assert cfm_loss(ConstantNet(1.3, (4,)), samples, dtype=np.float64).item() >= 0.0


def test_cfm_loss_rejects_empty_batch():
    with pytest.raises(DataError, match="empty"):
        cfm_loss(ConstantNet(0.0, (2,)), [])


def test_step_arithmetic_single_pair():
    net = nn.DenseVelocityNet(2, hidden=4, seed=0)
    cfg = _cfg(64, 1e-4, 50, 0)
    hist = train_arrays(net, np.zeros((1, 2)), np.ones((1, 2)), cfg)
    assert len(hist) == 50


def test_step_arithmetic_ceil_batches():
    net = nn.DenseVelocityNet(2, hidden=4, seed=0)
    cfg = _cfg(4, 1e-4, 3, 0)
    hist = train_arrays(net, np.zeros((10, 2)), np.ones((10, 2)), cfg)
    assert len(hist) == 3 * 3  # ceil(10 / 4) = 3 steps per epoch


def test_paper_step_budget_consistency():
    # 50 epochs at batch 64 reach 3,900 steps for a 4,992-chunk corpus
    assert 50 * -(-4992 // 64) == 3900


def test_training_is_deterministic():
    x0, x1 = gaussian_2d_pairs(64, seed=5)
    cfg = _cfg(32, 1e-3, 3, 9)
    runs = []
    for _ in range(2):
        net = nn.DenseVelocityNet(2, hidden=8, seed=1)
        runs.append(train_arrays(net, x0, x1, cfg))
    assert runs[0] == runs[1]


def test_train_requires_consistent_pairs():
    cfg = load_config()
    with pytest.raises(DataError, match="no training pairs"):
        train([], cfg)
    a = LatentSeq(np.zeros((4, 64)))
    b = LatentSeq(np.zeros((6, 64)))
    with pytest.raises(DataError, match="one latent shape"):
        train([ChunkPair(a, a), ChunkPair(b, b)], cfg)


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
    net = nn.DenseVelocityNet(2, hidden=16, seed=2)
    cfg = _cfg(64, 5e-3, 40, 3)
    train_arrays(net, x0, x1, cfg)

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
    net = nn.DenseVelocityNet(2, hidden=32, seed=4)
    cfg = _cfg(128, 3e-3, 60, 5)
    hist = train_arrays(net, x0, x1, cfg)
    first = np.mean([h[2] for h in hist[:5]])
    last = np.mean([h[2] for h in hist[-5:]])
    assert last < first


def test_two_dimensional_transport_sanity():
    x0, x1 = gaussian_2d_pairs(2000, seed=42)
    net = nn.DenseVelocityNet(2, hidden=64, seed=0)
    cfg = _cfg(256, 3e-3, 250, 1)
    hist = train_arrays(net, x0, x1, cfg)
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
