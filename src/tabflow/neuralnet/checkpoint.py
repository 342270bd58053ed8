"""Checkpoint archive: named float32 parameter blobs, Adam state, config echo.

Layout (all little-endian): 7-byte magic ``GFCKPT1``; uint32 JSON length and
the UTF-8 config JSON; uint32 parameter count, then per parameter a
length-prefixed name, uint8 ndim, uint32 dims, and raw float32 data; uint8
flag for Adam state followed by step/lr/betas/eps and per-parameter moment
arrays in the same order.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from ..errors import DataError
from .optim import AdamState
from .tensor import Tensor

MAGIC = b"GFCKPT1"


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(struct.pack("<B", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype("<f4").tobytes())


def _read_array(fh, size: int) -> np.ndarray:
    """The next array of a file of size bytes; ValueError if it runs past the end."""
    (ndim,) = struct.unpack("<B", fh.read(1))
    shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
    nbytes = 4 * math.prod(shape)
    left = size - fh.tell()
    if nbytes > left:  # checked before reading, so a huge shape allocates nothing
        raise ValueError(f"array of shape {shape} needs {nbytes} bytes, {left} left")
    return np.frombuffer(fh.read(nbytes), dtype="<f4").reshape(shape).copy()


def save_checkpoint(path, params: dict[str, Tensor], state: AdamState | None,
                    config: dict) -> None:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params)))
        for name, p in params.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            _write_array(fh, p.data)
        if state is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(struct.pack("<Q", state.step))
            fh.write(struct.pack("<4d", state.lr, state.beta1, state.beta2, state.eps))
            for name in params:
                _write_array(fh, state.m.get(name, np.zeros_like(params[name].data)))
                _write_array(fh, state.v.get(name, np.zeros_like(params[name].data)))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], AdamState | None, dict]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path}: bad checkpoint magic (expected {MAGIC!r})")
        try:
            (json_len,) = struct.unpack("<I", fh.read(4))
            config = json.loads(fh.read(json_len).decode("utf-8"))
            if not isinstance(config, dict):
                raise ValueError("config echo is not a JSON object")
            (n_params,) = struct.unpack("<I", fh.read(4))
            params: dict[str, np.ndarray] = {}
            for _ in range(n_params):
                (name_len,) = struct.unpack("<H", fh.read(2))
                name = fh.read(name_len).decode("utf-8")
                params[name] = _read_array(fh, size)
            (has_state,) = struct.unpack("<B", fh.read(1))
            state = None
            if has_state:
                (step,) = struct.unpack("<Q", fh.read(8))
                lr, b1, b2, eps = struct.unpack("<4d", fh.read(32))
                state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps, step=step)
                for name in params:
                    state.m[name] = _read_array(fh, size)
                    state.v[name] = _read_array(fh, size)
        except (struct.error, ValueError) as exc:  # ValueError covers bad JSON and UTF-8
            raise DataError(f"{path}: truncated or corrupt checkpoint ({exc})") from None
    return params, state, config
