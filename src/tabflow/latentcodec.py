"""Invertible frame codec standing in for a learned latent autoencoder.

Frames of 1024 samples at hop 512 are Hann windowed (periodic window, so the
50% overlap-add sums to one) and transformed with an orthonormal DCT-II.
The first DIMS = 64 coefficients of each frame are the compact space the
flow model trains in.

The codec works on plain arrays, in the layout the velocity net reads:
chunk cuts audio into an [N, size] sample array, encode maps [..., n]
samples to [..., DIMS, F] latents (coefficient d of frame k in row d,
column k; frame k starts at sample k * FRAME_HOP), and decode maps a
[..., DIMS, F] latent change and its [..., n] source samples back to
[..., n] samples. windowed_frames slices and windows the same frames for
audiodist.embed, so the latent and embedding frame grids always match.

encode skips the frame copy and the full DCT: frame k is the hop-long
segments k and k + 1, so one GEMM of the [..., F + 1, FRAME_HOP] segment
view with the windowed basis, its first and second halves side by side,
gives both halves' products, and coefficient row f is the first-half
product of segment f plus the second-half product of segment f + 1.

decode never transforms the band it leaves alone. Analysis and synthesis
windows are both Hann, so resynthesizing all 1024 coefficients of the
source gives x times the overlap-added squared window W; decode adds the
synthesis of the change alone and divides by max(W, 0.25). That synthesis
mirrors the encode: one GEMM of each frame's coefficients beside the
previous frame's with the transposed half-frame basis gives every hop-long
segment at once.
"""

from __future__ import annotations

import functools
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .stringsynth import MAX_RENDER_SECONDS, AudioBuffer

FRAME_LEN = 1024
FRAME_HOP = 512
DIMS = 64


def hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


_WINDOW = hann_periodic(FRAME_LEN)


def frame_count(n_samples: int) -> int:
    """Number of full analysis frames in n_samples."""
    if n_samples < FRAME_LEN:
        raise DataError(f"audio shorter than one frame ({n_samples} < {FRAME_LEN})")
    return (n_samples - FRAME_LEN) // FRAME_HOP + 1


def windowed_frames(x: np.ndarray) -> np.ndarray:
    """[..., F, FRAME_LEN] float64 frames of [..., n] samples at FRAME_HOP,
    each times the Hann window; raises for n shorter than one frame."""
    frame_count(np.shape(x)[-1])
    return sliding_window_view(x, FRAME_LEN, axis=-1)[..., ::FRAME_HOP, :] * _WINDOW


@functools.cache
def _half_frame_basis() -> np.ndarray:
    """[FRAME_HOP, 2 * DIMS] read-only windowed orthonormal DCT-II basis,
    coefficients 0..DIMS-1: rows are a frame's first half of samples beside
    its second half; built once."""
    n = np.arange(FRAME_LEN)[:, None]
    # the angle pi * (2n + 1) * c / (2 * FRAME_LEN) reduced to one period in
    # exact integers first: cos of the unreduced angle is 50x further off
    turns = (2 * n + 1) * np.arange(DIMS) % (4 * FRAME_LEN)
    basis = np.cos(np.pi * turns / (2 * FRAME_LEN)) * np.sqrt(2.0 / FRAME_LEN)
    basis[:, 0] = np.sqrt(1.0 / FRAME_LEN)
    basis *= _WINDOW[:, None]
    out = np.concatenate([basis[:FRAME_HOP], basis[FRAME_HOP:]], axis=1)
    out.flags.writeable = False
    return out


def encode(x: np.ndarray) -> np.ndarray:
    """[..., n] samples -> owned [..., DIMS, F] float64 latents: the first
    DIMS coefficients of the windowed orthonormal DCT-II of each frame, by
    one GEMM of the hop-long segments with the half-frame basis."""
    x = np.asarray(x)
    *lead, n = x.shape
    n_frames = frame_count(n)
    segments = x[..., :(n_frames + 1) * FRAME_HOP].reshape(*lead, n_frames + 1, FRAME_HOP)
    halves = segments @ _half_frame_basis()        # [..., F + 1, 2 * DIMS]
    z = np.empty((*lead, DIMS, n_frames))
    np.add(halves[..., :-1, :DIMS], halves[..., 1:, DIMS:], out=z.swapaxes(-1, -2))
    return z


def decode(dz: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[..., DIMS, F] latent change dz of the [..., n] source samples x ->
    [..., n] float32 samples: x with the first DIMS coefficients of each
    frame moved by dz, summed in float64 and rounded once.

    This is (x * W + OLA(synth(dz))) / max(W, 0.25), W being the overlap-added
    squared window: the full 1024-coefficient DCT of x with its first DIMS
    rows moved, decoded by IDCT and synthesis-windowed overlap-add, without
    either 1024-point transform. Where dz is zero, interior samples (half a
    frame in from each edge) come back exactly; samples past the last frame,
    less than a hop, are zero. The synthesis window tapers frame edges
    instead of letting the edge normalization amplify content the analysis
    window never produced.
    """
    *lead, dims, n_frames = np.shape(dz)
    if dims != DIMS:
        raise DataError(f"latent change has {dims} dims; the codec keeps {DIMS}")
    x = np.asarray(x)
    if frame_count(x.shape[-1]) != n_frames:
        raise DataError(f"latent change has {n_frames} frames but its source "
                        f"has {frame_count(x.shape[-1])}")
    span = (n_frames + 1) * FRAME_HOP
    moved = _synthesize(dz)
    # W: each hop-long segment is the second half of one frame's squared
    # window plus the first half of the next frame's
    first, second = (_WINDOW * _WINDOW).reshape(2, FRAME_HOP)
    weight = np.tile(second + first, n_frames + 1)
    weight[:FRAME_HOP], weight[-FRAME_HOP:] = first, second
    moved += x[..., :span] * weight
    # interior double coverage keeps W >= 0.5; the floor only tapers the
    # half-frame chunk edges
    moved /= np.maximum(weight, 0.25)
    out = np.zeros((*lead, x.shape[-1]), dtype=np.float32)
    out[..., :span] = moved
    return out


def _synthesize(dz: np.ndarray) -> np.ndarray:
    """[..., DIMS, F] coefficients -> [..., (F + 1) * FRAME_HOP] overlap-add
    of their synthesis-windowed inverse-DCT frames, mirroring encode:
    hop-long segment s is frame s's first half plus frame s - 1's second
    half, so one GEMM of the [..., F + 1, 2 * DIMS] pairs (frame s's
    coefficients beside frame s - 1's) with the transposed half-frame basis
    gives the segments.
    """
    *lead, _, n_frames = np.shape(dz)
    pairs = np.zeros((*lead, n_frames + 1, 2 * DIMS))
    pairs[..., :-1, :DIMS] = np.swapaxes(dz, -1, -2)
    pairs[..., 1:, DIMS:] = np.swapaxes(dz, -1, -2)
    segments = pairs.reshape(-1, 2 * DIMS) @ _half_frame_basis().T
    return segments.reshape(*lead, -1)


def chunk(audio: AudioBuffer, seconds: float) -> np.ndarray:
    """[N, size] consecutive non-overlapping chunks of the samples, size being
    seconds at the audio's rate; the last row is zero-padded."""
    # no render is longer than MAX_RENDER_SECONDS, so a longer chunk would only
    # hold padding; the bound keeps the [N, size] array from asking for TiBs
    ok = 0 < seconds <= MAX_RENDER_SECONDS  # NaN fails too
    size = int(round(seconds * audio.sample_rate)) if ok else 0
    if size < 1:
        raise DataError(f"[latentcodec] chunk_seconds must span at least one sample "
                        f"and at most {MAX_RENDER_SECONDS:g} s, got {seconds}")
    x = audio.samples
    out = np.zeros((max(1, -(-len(x) // size)), size), dtype=x.dtype)
    out.reshape(-1)[:len(x)] = x
    return out


def save_latent(path, z: np.ndarray, sample_rate: int) -> None:
    """Binary latent record of a [D, F] latent: 5 uint32 LE header (F, D, hop,
    frame length, rate), then float32 LE coefficients frame by frame."""
    dims, n_frames = z.shape
    header = struct.pack("<5I", n_frames, dims, FRAME_HOP, FRAME_LEN, sample_rate)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(z.T.astype("<f4").tobytes())

