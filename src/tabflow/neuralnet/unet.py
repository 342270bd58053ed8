"""1-D UNet velocity field with four encoder/decoder levels.

The net is float32: its parameters, and the [B, D, F] states and [B] times
that flowmatch gives it. The integration time t enters as one extra constant
channel concatenated to the state, so the network maps [B, D+1, F] ->
[B, D, F]. The final 1x1 convolution starts at zero, which makes the
untrained field the zero velocity and the untrained transport the identity.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T

DOWN_FACTOR = 16  # 2**4 resolution levels


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def param_shapes(dims: int, base_channels: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every VelocityNet parameter, in creation order.

    Pure arithmetic on the two ints, so a checkpoint's arrays can be checked
    against it before any parameter is allocated.
    """
    widths = [base_channels * (2 ** i) for i in range(4)]
    convs = []  # (name, c_out, c_in, k)
    c_in = dims + 1
    for i, c_out in enumerate(widths):
        convs.append((f"enc{i}", c_out, c_in, 3))
        c_in = c_out
    for i in reversed(range(4)):
        convs.append((f"dec{i}", widths[i - 1] if i > 0 else widths[0], 2 * widths[i], 3))
    convs.append(("out", dims, widths[0], 1))
    shapes = {}
    for name, c_out, c_in, k in convs:
        shapes[f"{name}.w"] = (c_out, c_in, k)
        shapes[f"{name}.b"] = (c_out,)
    return shapes


class VelocityNet:
    """UNet over float32 [B, D, F] latent frame sequences.

    Encoder level: conv(k=3) -> ReLU -> stride-2 downsample, widths C..8C.
    Decoder level: 2x nearest upsample -> concat skip -> conv(k=3) -> ReLU.
    Output head: zero-initialized 1x1 conv back to D channels.

    input_gain standardizes the state channels before the first conv (set it
    to 1/RMS of the training latents); it balances them against the constant
    t channel and keeps the zero-initialized head within reach of small
    learning rates. The output is NOT rescaled, so the field's units always
    match the state's.
    """

    dtype = np.dtype(np.float32)

    def __init__(self, dims: int, base_channels: int, seed: int, input_gain: float = 1.0):
        self.input_gain = float(input_gain)
        rng = np.random.default_rng(seed)
        self.params: dict[str, T.Tensor] = {}
        for name, shape in param_shapes(dims, base_channels).items():
            if name.endswith(".b") or name == "out.w":  # biases and the head start at zero
                data = np.zeros(shape, dtype=self.dtype)
            else:
                data = _kaiming_uniform(rng, shape, shape[1] * shape[2], self.dtype)
            self.params[name] = T.Tensor(data, requires_grad=True)

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], input_gain: float) -> VelocityNet:
        """A float32 net for inference whose parameters are arrays, in their
        order, as untracked leaves: no weights are drawn, no gradient buffers
        allocated, and its forward pass builds no graph. The caller has
        checked their names and shapes against param_shapes."""
        net = cls.__new__(cls)
        net.input_gain = float(input_gain)
        net.params = {name: T.Tensor(np.asarray(arr, dtype=net.dtype))
                      for name, arr in arrays.items()}
        return net

    def __call__(self, x: T.Tensor, t: T.Tensor) -> T.Tensor:
        return self.forward(x, t)

    def forward(self, x: T.Tensor, t: T.Tensor) -> T.Tensor:
        b, _, f = x.shape
        t_arr = np.asarray(t.data, dtype=x.dtype).reshape(b, 1, 1)
        t_chan = T.Tensor(np.broadcast_to(t_arr, (b, 1, f)))  # concat copies it
        if self.input_gain != 1.0:
            x = T.scale(x, self.input_gain)
        h = T.concat([x, t_chan])

        skips = []
        for i in range(4):
            h = T.relu(T.conv1d(h, self.params[f"enc{i}.w"], self.params[f"enc{i}.b"]))
            skips.append(h)
            h = T.downsample2(h)
        for i in reversed(range(4)):
            h = T.upsample2(h)
            # concat copies the skip, so it need not outlive this level
            h = T.concat([h, skips.pop()])
            h = T.relu(T.conv1d(h, self.params[f"dec{i}.w"], self.params[f"dec{i}.b"]))
        return T.conv1d(h, self.params["out.w"], self.params["out.b"])

