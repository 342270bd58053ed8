"""Invertible frame codec standing in for a learned latent autoencoder.

Frames of 1024 samples at hop 512 are Hann windowed (periodic window, so the
50% overlap-add sums to one) and transformed with an orthonormal DCT-II.
Keeping all 1024 coefficients gives perfect interior reconstruction; keeping
the first 64 gives the compact space the flow model trains in. The codec also
owns fixed-length chunking of long audio, and the analysis framing:
windowed_frames slices and windows the frames for both encode and
audiodist.embed, so the latent and embedding frame grids always match.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, idct

from .errors import DataError
from .stringsynth import AudioBuffer

FRAME_LEN = 1024
FRAME_HOP = 512
LATENT_DIMS = (64, 1024)


def hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


_WINDOW = hann_periodic(FRAME_LEN)


@dataclass(frozen=True)
class LatentSeq:
    """F x D matrix of per-frame transform coefficients.

    The framing is fixed: row k holds the frame of FRAME_LEN samples that
    starts at sample k * FRAME_HOP.
    """

    frames: np.ndarray
    sample_rate: int = 44100

    def __post_init__(self):
        frames = np.asarray(self.frames)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise DataError(f"latent frames must be a non-empty F x D matrix, got {frames.shape}")
        if frames.shape[1] not in LATENT_DIMS:
            raise DataError(f"latent dims must be one of {LATENT_DIMS}, got {frames.shape[1]}")
        if not np.all(np.isfinite(frames)):
            raise DataError("latent contains non-finite values")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dims(self) -> int:
        return self.frames.shape[1]


def frame_count(n_samples: int) -> int:
    """Number of full analysis frames in n_samples."""
    if n_samples < FRAME_LEN:
        raise DataError(f"audio shorter than one frame ({n_samples} < {FRAME_LEN})")
    return (n_samples - FRAME_LEN) // FRAME_HOP + 1


def windowed_frames(audio: AudioBuffer) -> np.ndarray:
    """[F, FRAME_LEN] float64 frames at FRAME_HOP, each times the Hann window;
    raises for audio shorter than one frame."""
    x = np.asarray(audio.samples, dtype=np.float64)
    n_frames = frame_count(len(x))
    idx = np.arange(FRAME_LEN)[None, :] + FRAME_HOP * np.arange(n_frames)[:, None]
    return x[idx] * _WINDOW[None, :]


def encode(audio: AudioBuffer, dims: int = 64) -> LatentSeq:
    """Windowed orthonormal DCT-II per frame, truncated to the first dims."""
    if dims not in LATENT_DIMS:
        raise DataError(f"dims must be one of {LATENT_DIMS}, got {dims}")
    coeffs = dct(windowed_frames(audio), type=2, norm="ortho", axis=1)
    # an owned copy, so a 64-dim latent does not keep the full DCT alive
    return LatentSeq(coeffs[:, :dims].copy(), sample_rate=audio.sample_rate)


def decode(latent: LatentSeq) -> AudioBuffer:
    """Synthesis-windowed overlap-add, normalized by the squared-window sum.

    Interior samples (half a frame in from each edge) reconstruct exactly in
    full 1024-dim mode. The synthesis window matters once coefficients have
    been modified: it tapers frame edges instead of letting the edge
    normalization amplify content the analysis window never produced.
    """
    coeffs = np.zeros((latent.n_frames, FRAME_LEN))
    coeffs[:, :latent.dims] = latent.frames
    frames = idct(coeffs, type=2, norm="ortho", axis=1) * _WINDOW[None, :]
    out = _overlap_add(frames)
    weight = _overlap_add(np.broadcast_to(_WINDOW * _WINDOW, frames.shape))
    # interior double coverage keeps sum(w^2) >= 0.5; the floor only tapers
    # the half-frame chunk edges
    out /= np.maximum(weight, 0.25)
    return AudioBuffer(out.astype(np.float32), latent.sample_rate)


def _overlap_add(frames: np.ndarray) -> np.ndarray:
    """Sum [F, FRAME_LEN] frames at FRAME_HOP into (F + 1) * FRAME_HOP samples:
    every hop-long segment is the second half of one frame plus the first
    half of the next."""
    halves = frames.reshape(len(frames), 2, FRAME_HOP)
    out = np.zeros((len(frames) + 1, FRAME_HOP))
    out[1:] += halves[:, 1]
    out[:-1] += halves[:, 0]
    return out.reshape(-1)


def chunk(audio: AudioBuffer, seconds: float = 4.0) -> list[AudioBuffer]:
    """Consecutive non-overlapping chunks; the last is zero-padded to size."""
    if seconds <= 0:
        raise DataError(f"chunk length must be > 0, got {seconds}")
    size = int(round(seconds * audio.sample_rate))
    x = np.asarray(audio.samples)
    n_chunks = max(1, -(-len(x) // size))
    padded = np.zeros(n_chunks * size, dtype=x.dtype)
    padded[:len(x)] = x
    return [AudioBuffer(padded[k * size:(k + 1) * size], audio.sample_rate)
            for k in range(n_chunks)]


def dechunk(chunks: list[AudioBuffer], original_samples: int) -> AudioBuffer:
    """Concatenate chunks and drop the final padding."""
    if not chunks:
        raise DataError("no chunks to concatenate")
    joined = np.concatenate([c.samples for c in chunks])
    if original_samples > len(joined):
        raise DataError(f"original length {original_samples} exceeds chunked {len(joined)}")
    return AudioBuffer(joined[:original_samples], chunks[0].sample_rate)


def save_latent(path, latent: LatentSeq) -> None:
    """Binary latent record: 5 uint32 LE header, then float32 LE coefficients."""
    header = struct.pack("<5I", latent.n_frames, latent.dims, FRAME_HOP, FRAME_LEN,
                         latent.sample_rate)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(latent.frames.astype("<f4").tobytes())


def load_latent(path) -> LatentSeq:
    with open(path, "rb") as fh:
        header = fh.read(20)
        if len(header) != 20:
            raise DataError(f"{path}: truncated latent header")
        f, d, hop, flen, rate = struct.unpack("<5I", header)
        data = np.frombuffer(fh.read(), dtype="<f4")
    if (hop, flen) != (FRAME_HOP, FRAME_LEN):
        raise DataError(f"{path}: framing hop {hop}, length {flen}; "
                        f"the codec uses hop {FRAME_HOP}, length {FRAME_LEN}")
    if data.size != f * d:
        raise DataError(f"{path}: expected {f * d} coefficients, found {data.size}")
    return LatentSeq(data.reshape(f, d).astype(np.float64), sample_rate=rate)
