"""Rectified-flow training and transport over paired latent chunks.

Training regresses a velocity field v(t, x_t) onto the constant target
velocity x1 - x0 along the straight interpolant x_t = (1-t) x0 + t x1; the
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
from .latentcodec import ChunkPair
from .neuralnet import tensor as T


@dataclass(frozen=True)
class FlowSample:
    """One training draw: endpoints, time, interpolant, target velocity."""

    x0: np.ndarray
    x1: np.ndarray
    t: float
    x_t: np.ndarray
    u: np.ndarray


def make_sample(x0, x1, t: float | None = None,
                rng: np.random.Generator | None = None) -> FlowSample:
    """Build the interpolant x_t and target velocity u = x1 - x0.

    t is drawn uniformly from [0, 1] when omitted and an rng is given.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise DataError(f"endpoint shapes differ: {x0.shape} vs {x1.shape}")
    if t is None:
        if rng is None:
            raise DataError("need an explicit t or an rng to draw one")
        t = float(rng.uniform())
    if not 0.0 <= t <= 1.0:
        raise DataError(f"t must be in [0, 1], got {t}")
    return FlowSample(x0=x0, x1=x1, t=t, x_t=(1.0 - t) * x0 + t * x1, u=x1 - x0)


def cfm_loss(net, samples: list[FlowSample], dtype=np.float32) -> T.Tensor:
    """Mean over batch and elements of ||v(t, x_t) - (x1 - x0)||^2.

    net may be any callable taking (states, times) Tensors and returning a
    Tensor of matching shape.
    """
    if not samples:
        raise DataError("empty batch")
    x_t = T.Tensor(np.stack([s.x_t for s in samples]).astype(dtype))
    u = T.Tensor(np.stack([s.u for s in samples]).astype(dtype))
    t = T.Tensor(np.array([s.t for s in samples], dtype=dtype))
    v = net(x_t, t)
    return T.mse(v, u)


def _stack_pairs(pairs: list[ChunkPair]) -> tuple[np.ndarray, np.ndarray]:
    """ChunkPairs to [N, D, F] arrays (net layout: channels = latent dims)."""
    x0 = np.stack([p.source.frames.T for p in pairs])
    x1 = np.stack([p.target.frames.T for p in pairs])
    return x0, x1


def _pad_frame_axis(x: np.ndarray) -> np.ndarray:
    """Zero-pad the frame axis of an [N, D, F] array to the next multiple of
    the UNet's DOWN_FACTOR. Arrays of any other rank have no frame axis and
    pass through unchanged."""
    if x.ndim != 3:
        return x
    f = x.shape[-1]
    target = -(-f // nn.unet.DOWN_FACTOR) * nn.unet.DOWN_FACTOR
    return np.pad(x, ((0, 0), (0, 0), (0, target - f)))


def train_arrays(net, x0: np.ndarray, x1: np.ndarray, cfg: PipelineConfig,
                 state: nn.AdamState | None = None) -> list[tuple[int, int, float]]:
    """Core loop over endpoint arrays [N, ...]; returns (step, epoch, loss) rows.

    Reads batch_size, lr, epochs and seed from cfg. Batches are reshuffled
    every epoch; an epoch runs ceil(n / batch) steps with a ragged final
    batch (batch size is clamped when the dataset is smaller than one batch).
    [N, D, F] arrays are padded by _pad_frame_axis.
    """
    if min(cfg.batch_size, cfg.epochs) < 1 or cfg.lr <= 0:
        raise DataError("train config values must be positive")
    if x0.shape != x1.shape or len(x0) < 1:
        raise DataError(f"bad endpoint arrays: {x0.shape} vs {x1.shape}")
    n = len(x0)
    batch = min(cfg.batch_size, n)
    steps_per_epoch = -(-n // batch)
    rng = np.random.default_rng(cfg.seed)
    if state is None:
        state = nn.AdamState(lr=cfg.lr)
    params = net.parameters()
    dtype = net.dtype if hasattr(net, "dtype") else np.float32

    x0, x1 = _pad_frame_axis(x0), _pad_frame_axis(x1)

    history: list[tuple[int, int, float]] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for b in range(steps_per_epoch):
            idx = order[b * batch:(b + 1) * batch]
            ts = rng.uniform(size=len(idx))
            samples = [make_sample(x0[i], x1[i], float(t)) for i, t in zip(idx, ts)]
            for p in params.values():
                p.zero_grad()
            try:
                loss = cfm_loss(net, samples, dtype=dtype)
            except NumericError as exc:
                raise NumericError(f"{exc} (epoch {epoch}, batch {b})") from exc
            loss.backward()
            nn.adam_step(params, state)
            history.append((step, epoch, loss.item()))
            step += 1
    return history


def train(pairs: list[ChunkPair], cfg: PipelineConfig,
          net: nn.VelocityNet | None = None, state: nn.AdamState | None = None):
    """Train a UNet velocity field on content-aligned chunk pairs.

    Reads dims and base_channels from cfg, and train_arrays reads the rest.
    Returns (net, history). Deterministic for a fixed cfg.seed. Pass an
    AdamState to keep the optimizer state after training (checkpointing).
    """
    if not pairs:
        raise DataError("no training pairs")
    dims = pairs[0].source.dims
    if any(p.source.dims != dims or p.source.n_frames != pairs[0].source.n_frames
           for p in pairs):
        raise DataError("training pairs must share one latent shape")
    if dims != cfg.dims:
        raise DataError(f"latent dims {dims} do not match config dims {cfg.dims}")
    x0, x1 = _stack_pairs(pairs)
    if net is None:
        net = nn.VelocityNet(dims, base_channels=cfg.base_channels, seed=cfg.seed,
                             input_gain=input_gain_for(x0, x1))
    history = train_arrays(net, x0, x1, cfg, state=state)
    return net, history


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
    net_dtype = net.dtype if hasattr(net, "dtype") else np.float32

    def velocity(t: float, y: np.ndarray) -> np.ndarray:
        with nn.no_grad():
            x = T.Tensor(y.reshape(b, d, target).astype(net_dtype))
            tt = T.Tensor(np.full(b, t, dtype=net_dtype))
            return net(x, tt).data.astype(y.dtype).reshape(-1)

    trace = odesolve.integrate(velocity, padded.reshape(-1), (0.0, 1.0), solver)
    return trace.final_state.reshape(b, d, target)[:, :, :f]
