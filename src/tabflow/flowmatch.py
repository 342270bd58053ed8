"""Rectified-flow training and transport over paired latent chunks.

Training regresses a velocity field v(t, x_t) onto the constant target
velocity x1 - x0 along the straight interpolant x_t = (1-t) x0 + t x1, built
for a whole [B, D, F] batch in one broadcast; the loss is the mean squared
error over batch and elements. Transport solves dx/dt = v(t, x) from t=0 to
t=1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neuralnet as nn
from . import odesolve
from .config import PipelineConfig
from .errors import DataError, NumericError
from .neuralnet import tensor as T


@dataclass(frozen=True)
class FlowSample:
    """One training batch: times [B], interpolants and target velocities [B, ...]."""

    t: np.ndarray
    x_t: np.ndarray
    u: np.ndarray


def make_sample(x0, x1, t) -> FlowSample:
    """Build the interpolants x_t and target velocities u = x1 - x0 of a batch.

    x0 and x1 are [B, ...] endpoints and t is [B] times in [0, 1]; row i gets
    x_t[i] = (1 - t[i]) x0[i] + t[i] x1[i].
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if x0.shape != x1.shape:
        raise DataError(f"endpoint shapes differ: {x0.shape} vs {x1.shape}")
    if t.shape != x0.shape[:1]:
        raise DataError(f"need one t per pair, got t {t.shape} for endpoints {x0.shape}")
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise DataError(f"t must be in [0, 1], got {t}")
    tb = t.reshape((-1,) + (1,) * (x0.ndim - 1))
    return FlowSample(t=t, x_t=(1.0 - tb) * x0 + tb * x1, u=x1 - x0)


def cfm_loss(net, sample: FlowSample) -> T.Tensor:
    """Mean over batch and elements of ||v(t, x_t) - (x1 - x0)||^2.

    net may be any callable taking (states, times) Tensors and returning a
    Tensor of matching shape; the sample is cast to its dtype.
    """
    if len(sample.t) == 0:
        raise DataError("empty batch")
    x_t = T.Tensor(sample.x_t.astype(net.dtype))
    u = T.Tensor(sample.u.astype(net.dtype))
    t = T.Tensor(sample.t.astype(net.dtype))
    return T.mse(net(x_t, t), u)


def _pad_frame_axis(x: np.ndarray) -> np.ndarray:
    """Zero-pad the frame axis of an [N, D, F] array to the next multiple of
    the UNet's DOWN_FACTOR. Arrays of any other rank have no frame axis and
    pass through unchanged."""
    if x.ndim != 3:
        return x
    f = x.shape[-1]
    target = -(-f // nn.unet.DOWN_FACTOR) * nn.unet.DOWN_FACTOR
    return np.pad(x, ((0, 0), (0, 0), (0, target - f)))


def train(x0: np.ndarray, x1: np.ndarray, cfg: PipelineConfig, net=None):
    """Fit a velocity field to paired endpoints by rectified flow matching.

    x0 and x1 are [N, ...] source and target arrays; [N, D, F] latents are
    zero-padded on the frame axis by _pad_frame_axis. With no net, builds a
    VelocityNet from cfg (dims, base_channels, seed) whose input_gain comes
    from the unpadded endpoints. Reads batch_size, lr, epochs and seed from
    cfg: batches are reshuffled every epoch, and an epoch runs ceil(N / batch)
    steps with a ragged final batch (the batch is clamped to N).
    Deterministic for a fixed cfg.seed. Returns (net, AdamState, history),
    with history rows (step, epoch, loss).
    """
    if min(cfg.batch_size, cfg.epochs) < 1 or cfg.lr <= 0:
        raise DataError("train config values must be positive")
    if x0.shape != x1.shape or len(x0) < 1:
        raise DataError(f"bad endpoint arrays: {x0.shape} vs {x1.shape}")
    if net is None:
        net = nn.VelocityNet(cfg.dims, base_channels=cfg.base_channels, seed=cfg.seed,
                             input_gain=input_gain_for(x0, x1))
    n = len(x0)
    batch = min(cfg.batch_size, n)
    steps_per_epoch = -(-n // batch)
    rng = np.random.default_rng(cfg.seed)
    state = nn.AdamState(lr=cfg.lr)
    params = net.parameters()

    x0, x1 = _pad_frame_axis(x0), _pad_frame_axis(x1)

    history: list[tuple[int, int, float]] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for b in range(steps_per_epoch):
            idx = order[b * batch:(b + 1) * batch]
            sample = make_sample(x0[idx], x1[idx], rng.uniform(size=len(idx)))
            for p in params.values():
                p.zero_grad()
            try:
                loss = cfm_loss(net, sample)
            except NumericError as exc:
                raise NumericError(f"{exc} (epoch {epoch}, batch {b})") from exc
            loss.backward()
            nn.adam_step(params, state)
            history.append((len(history), epoch, loss.item()))
    return net, state, history


def input_gain_for(x0: np.ndarray, x1: np.ndarray) -> float:
    """Standardization gain: 1 / pooled RMS of the endpoint latents."""
    rms = float(np.sqrt((np.square(x0).mean() + np.square(x1).mean()) / 2.0))
    return 1.0 / rms if rms > 0 else 1.0


def transfer_batch(net, states: np.ndarray, solver: odesolve.SolverKind) -> np.ndarray:
    """Transport a [B, D, F] batch jointly; returns the same shape.

    The ODE state keeps the input dtype; casts happen only at the network
    boundary, so a zero velocity field transports exactly.
    """
    b, d, f = states.shape
    padded = _pad_frame_axis(states)
    target = padded.shape[-1]

    def velocity(t: float, y: np.ndarray) -> np.ndarray:
        with nn.no_grad():
            x = T.Tensor(y.reshape(b, d, target).astype(net.dtype))
            tt = T.Tensor(np.full(b, t, dtype=net.dtype))
            return net(x, tt).data.astype(y.dtype).reshape(-1)

    trace = odesolve.integrate(velocity, padded.reshape(-1), (0.0, 1.0), solver)
    return trace.final_state.reshape(b, d, target)[:, :, :f]
