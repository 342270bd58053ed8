"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One in-place update from the gradients currently stored on params,
    which must be tracked leaves; the moments are allocated on first use."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
