"""Tensor engine, UNet velocity network, Adam, checkpoints."""

from .tensor import Tensor
from .unet import VelocityNet, param_shapes
from .optim import AdamState, adam_step
from .checkpoint import save_checkpoint, load_checkpoint
