"""Tensor engine, velocity networks, Adam, checkpoints."""

from .tensor import Tensor, no_grad
from .unet import VelocityNet, DenseVelocityNet
from .optim import AdamState, adam_step
from .checkpoint import save_checkpoint, load_checkpoint
from .gradcheck import finite_difference_check

__all__ = [
    "Tensor", "no_grad", "VelocityNet", "DenseVelocityNet", "AdamState",
    "adam_step", "save_checkpoint", "load_checkpoint", "finite_difference_check",
]
