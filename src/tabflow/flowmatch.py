"""Rectified-flow training and transport over paired latent chunks.

Training fits the float32 UNet to [N, D, F] latent endpoints, regressing
v(t, x_t) onto the constant target velocity x1 - x0 along the straight
interpolant x_t = (1-t) x0 + t x1, one float32 [B, D, F] batch per step; the
loss is the mean squared error over batch and elements. Transport solves
dx/dt = v(t, x) from t=0 to t=1.
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
    """One training batch: times [B], interpolants and target velocities [B, D, F]."""

    t: np.ndarray
    x_t: np.ndarray
    u: np.ndarray


def make_sample(x0: np.ndarray, x1: np.ndarray, t: np.ndarray) -> FlowSample:
    """Build the interpolants x_t and target velocities u = x1 - x0 of a batch.

    x0 and x1 are float32 [B, D, F] endpoints and t is float32 [B] times in
    [0, 1], as `train` draws them; row i gets x_t[i] = (1 - t[i]) x0[i] +
    t[i] x1[i], all in float32.
    """
    tb = t[:, None, None]
    return FlowSample(t=t, x_t=(1.0 - tb) * x0 + tb * x1, u=x1 - x0)


def cfm_loss(net, sample: FlowSample) -> T.Tensor:
    """Mean over batch and elements of ||v(t, x_t) - (x1 - x0)||^2.

    net may be any callable taking (states, times) Tensors and returning a
    Tensor of matching shape. The sample's arrays reach it as they are, not
    copied.
    """
    return T.mse(net(T.Tensor(sample.x_t), T.Tensor(sample.t)), T.Tensor(sample.u))


def _pad_frame_axis(x: np.ndarray, dtype) -> np.ndarray:
    """x in dtype, with the frame axis of the [N, D, F] array zero-padded to
    the next multiple of the UNet's DOWN_FACTOR in one new array."""
    n, d, f = x.shape
    out = np.zeros((n, d, -(-f // nn.unet.DOWN_FACTOR) * nn.unet.DOWN_FACTOR), dtype)
    out[:, :, :f] = x
    return out


def train(x0: np.ndarray, x1: np.ndarray, cfg: PipelineConfig):
    """Fit a VelocityNet to paired [N, D, F] endpoints by rectified flow matching.

    x0 and x1 are the source and target latents, of one shape with N >= 1;
    any other pair is a DataError, checked here once. The net has D =
    x0.shape[1] channels, cfg's base_channels and seed, and an input_gain
    from the endpoints as given. Each endpoint array is cast once to the
    net's float32, its frame axis zero-padded by _pad_frame_axis in the same
    copy, so every batch is gathered and interpolated in float32 and reaches
    the net without a cast. Reads batch_size, lr, epochs and seed from cfg:
    batches are reshuffled every epoch, and an epoch runs ceil(N / batch)
    steps with a ragged final batch (the batch is clamped to N).
    Deterministic for a fixed cfg.seed and BLAS thread count: OpenBLAS picks
    its sgemm kernel by size and by thread count, so the bytes can differ
    between thread counts. For the same reason the sample groups conv1d's
    GEMMs run over (tensor._GROUP_BYTES) can move the last bits on another
    BLAS kernel; under the AVX-512 SkylakeX kernel they give the bytes of one
    GEMM over the whole batch. A fit that leaves a parameter NaN or infinite
    is a NumericError. Returns (net, AdamState, history), with history rows
    (step, epoch, loss).
    """
    if x0.ndim != 3 or x0.shape != x1.shape or len(x0) < 1:
        raise DataError(f"bad endpoint arrays: {x0.shape} vs {x1.shape}")
    net = nn.VelocityNet(x0.shape[1], base_channels=cfg.base_channels, seed=cfg.seed,
                         input_gain=input_gain_for(x0, x1))
    n = len(x0)
    batch = min(cfg.batch_size, n)
    steps_per_epoch = -(-n // batch)
    rng = np.random.default_rng(cfg.seed)
    state = nn.AdamState(lr=cfg.lr)
    params = net.params

    x0, x1 = _pad_frame_axis(x0, net.dtype), _pad_frame_axis(x1, net.dtype)

    history: list[tuple[int, int, float]] = []
    # an overflow leaves inf or NaN for the checks to name, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for b in range(steps_per_epoch):
                idx = order[b * batch:(b + 1) * batch]
                t = rng.uniform(size=len(idx)).astype(net.dtype)
                sample = make_sample(x0[idx], x1[idx], t)
                for p in params.values():
                    p.zero_grad()
                try:
                    loss = cfm_loss(net, sample)
                except NumericError as exc:
                    raise NumericError(f"{exc} (epoch {epoch}, batch {b})") from exc
                loss.backward()
                nn.adam_step(params, state)
                history.append((len(history), epoch, loss.item()))
    # the last step's update is read by no forward pass
    for name, p in params.items():
        if not np.isfinite(p.data).all():
            raise NumericError(f"parameter {name} holds NaN or Inf values after training")
    return net, state, history


def input_gain_for(x0: np.ndarray, x1: np.ndarray) -> float:
    """Standardization gain: 1 / pooled RMS of the endpoint latents."""
    rms = float(np.sqrt((np.square(x0).mean() + np.square(x1).mean()) / 2.0))
    return 1.0 / rms if rms > 0 else 1.0


def transfer_batch(net, states: np.ndarray, solver: str, steps: int
                   ) -> tuple[np.ndarray, odesolve.OdeTrace]:
    """Transport a [B, D, F] batch jointly with the named solver of
    odesolve.SOLVERS (steps sets euler's and rk4's step count).

    Returns the transported batch, of the input's shape, and the solver's
    OdeTrace with its network-call and step counts (its final_state is the
    [B, D, F'] state, its frame axis padded). The ODE state keeps the input
    dtype; casts happen only at the network boundary, so a zero velocity
    field transports exactly. A net from `VelocityNet.from_arrays` is
    untracked, so the network calls record no graph.
    """
    b, _, f = states.shape

    def velocity(t: float, y: np.ndarray) -> np.ndarray:
        # an overflow leaves inf or NaN, which the engine's checks name: no warning
        with np.errstate(over="ignore", invalid="ignore"):
            tt = T.Tensor(np.full(b, t, dtype=net.dtype))
            return net(T.Tensor(y.astype(net.dtype)), tt).data.astype(y.dtype)

    trace = odesolve.integrate(velocity, _pad_frame_axis(states, states.dtype),
                               solver, steps)
    return trace.final_state[:, :, :f], trace
