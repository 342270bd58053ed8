"""1-D UNet velocity field with four encoder/decoder levels.

The integration time t enters as one extra constant channel concatenated to
the state, so the network maps [B, D+1, F] -> [B, D, F]. The final 1x1
convolution starts at zero, which makes the untrained field the zero velocity
and the untrained transport the identity.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from . import tensor as T

DOWN_FACTOR = 16  # 2**4 resolution levels


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class VelocityNet:
    """UNet over latent frame sequences.

    Encoder level: conv(k=3) -> ReLU -> stride-2 downsample, widths C..8C.
    Decoder level: 2x nearest upsample -> concat skip -> conv(k=3) -> ReLU.
    Output head: zero-initialized 1x1 conv back to D channels.

    input_gain standardizes the state channels before the first conv (set it
    to 1/RMS of the training latents); it balances them against the constant
    t channel and keeps the zero-initialized head within reach of small
    learning rates. The output is NOT rescaled, so the field's units always
    match the state's.
    """

    def __init__(self, dims: int, base_channels: int = 32, seed: int = 0,
                 dtype=np.float32, input_gain: float = 1.0):
        self.dims = dims
        self.base_channels = base_channels
        self.seed = seed
        self.input_gain = float(input_gain)
        self.dtype = np.dtype(dtype)
        widths = [base_channels * (2 ** i) for i in range(4)]
        self.widths = widths
        rng = np.random.default_rng(seed)
        self.params: dict[str, T.Tensor] = {}

        def conv_param(name: str, c_out: int, c_in: int, k: int, zero: bool = False):
            if zero:
                w = np.zeros((c_out, c_in, k), dtype=self.dtype)
            else:
                w = _kaiming_uniform(rng, (c_out, c_in, k), c_in * k, self.dtype)
            self.params[f"{name}.w"] = T.Tensor(w, requires_grad=True)
            self.params[f"{name}.b"] = T.Tensor(np.zeros(c_out, dtype=self.dtype),
                                                requires_grad=True)

        c_in = dims + 1
        for i, c_out in enumerate(widths):
            conv_param(f"enc{i}", c_out, c_in, 3)
            c_in = c_out
        for i in reversed(range(4)):
            c_out = widths[i - 1] if i > 0 else widths[0]
            conv_param(f"dec{i}", c_out, 2 * widths[i], 3)
        conv_param("out", dims, widths[0], 1, zero=True)

    def parameters(self) -> dict[str, T.Tensor]:
        return self.params

    def __call__(self, x: T.Tensor, t: T.Tensor) -> T.Tensor:
        return self.forward(x, t)

    def forward(self, x: T.Tensor, t: T.Tensor) -> T.Tensor:
        b, d, f = x.shape
        if d != self.dims:
            raise DataError(f"expected {self.dims} channels, got {d}")
        if f % DOWN_FACTOR:
            raise DataError(f"frame length {f} not divisible by {DOWN_FACTOR}")
        t_arr = np.asarray(t.data, dtype=x.dtype).reshape(b, 1, 1)
        t_chan = T.Tensor(np.broadcast_to(t_arr, (b, 1, f)).copy())
        if self.input_gain != 1.0:
            x = T.scale(x, self.input_gain)
        h = T.concat([x, t_chan], axis=1)

        skips = []
        for i in range(4):
            h = T.relu(T.conv1d(h, self.params[f"enc{i}.w"], self.params[f"enc{i}.b"]))
            skips.append(h)
            h = T.downsample2(h)
        for i in reversed(range(4)):
            h = T.upsample2(h)
            h = T.concat([h, skips[i]], axis=1)
            h = T.relu(T.conv1d(h, self.params[f"dec{i}.w"], self.params[f"dec{i}.b"]))
        return T.conv1d(h, self.params["out.w"], self.params["out.b"])

