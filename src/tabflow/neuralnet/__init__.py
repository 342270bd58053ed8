"""Tensor engine, UNet velocity network, Adam, checkpoints."""

from .tensor import Tensor, no_grad
from .unet import VelocityNet
from .optim import AdamState, adam_step
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Tensor", "no_grad", "VelocityNet", "AdamState", "adam_step",
    "save_checkpoint", "load_checkpoint",
]
