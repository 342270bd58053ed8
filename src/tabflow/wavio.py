"""Minimal RIFF/WAVE reader and writer.

Mono only. The writer writes IEEE 32-bit float samples, which round-trip bit
exactly; the reader reads those and PCM 16-bit integer samples. The writer
stores a comment string in a LIST/INFO ICMT chunk (the pipeline config
hash). The reader reads only the fmt and data chunks and skips every other
chunk, the comment's too.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError

_FMT_PCM = 1
_FMT_FLOAT = 3


def write_wav(path, samples: np.ndarray, sample_rate: int, comment: str) -> None:
    """Write a mono WAV file of float32 samples with an ICMT comment.

    The samples go to the file straight from their array, so the file is
    never built in memory.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise DataError(f"expected mono 1-D samples, got shape {samples.shape}")
    data = np.ascontiguousarray(samples, dtype="<f4")
    fmt_chunk = struct.pack("<HHIIHH", _FMT_FLOAT, 1, sample_rate, sample_rate * 4, 4, 32)
    text = comment.encode("utf-8") + b"\x00"
    info = b"INFO" + b"ICMT" + struct.pack("<I", len(text)) + text
    if len(text) % 2:
        info += b"\x00"
    # every chunk has an even size, so none takes a pad byte
    head = (b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
            + b"LIST" + struct.pack("<I", len(info)) + info
            + b"data" + struct.pack("<I", data.nbytes))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(head) + data.nbytes) + b"WAVE" + head)
        fh.write(data)


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a mono WAV file; returns (samples, sample_rate).

    float32 data is returned untouched; int16 is scaled by 1/32767.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())  # chunks are slices of it, not copies
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")

    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(blob):
        tag = bytes(blob[pos:pos + 4])
        size = struct.unpack_from("<I", blob, pos + 4)[0]
        if pos + 8 + size > len(blob):
            raise DataError(f"{path}: {tag!r} chunk declares {size} bytes, but only "
                            f"{len(blob) - pos - 8} remain (truncated file?)")
        payload = blob[pos + 8:pos + 8 + size]
        if tag == b"fmt ":
            if len(payload) < 16:
                raise DataError(f"{path}: fmt chunk has {len(payload)} bytes, need 16")
            fmt = struct.unpack_from("<HHIIHH", payload)
        elif tag == b"data":
            data = payload
        pos += 8 + size + (size % 2)

    if fmt is None or data is None:
        raise DataError(f"{path}: missing fmt or data chunk")
    fmt_tag, channels, rate, _, _, bits = fmt
    if channels != 1:
        raise DataError(f"{path}: expected mono, got {channels} channels")
    dtype = {(_FMT_FLOAT, 32): "<f4", (_FMT_PCM, 16): "<i2"}.get((fmt_tag, bits))
    if dtype is None:
        raise DataError(f"{path}: unsupported format tag {fmt_tag} / {bits} bits")
    if len(data) % (bits // 8):
        raise DataError(f"{path}: data chunk of {len(data)} bytes is not a whole "
                        f"number of {bits}-bit samples")
    samples = np.frombuffer(data, dtype=dtype)
    if fmt_tag == _FMT_PCM:
        return samples.astype(np.float32) / 32767.0, rate
    return samples.copy(), rate
