"""Tensor engine, UNet velocity network, Adam, checkpoints."""

from .tensor import Tensor, no_grad
from .unet import VelocityNet, param_shapes
from .optim import AdamState, adam_step
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Tensor", "no_grad", "VelocityNet", "param_shapes", "AdamState", "adam_step",
    "save_checkpoint", "load_checkpoint",
]
