"""Invertible frame codec standing in for a learned latent autoencoder.

Frames of 1024 samples at hop 512 are Hann windowed (periodic window, so the
50% overlap-add sums to one) and transformed with an orthonormal DCT-II.
Keeping all 1024 coefficients gives perfect interior reconstruction; keeping
the first 64 gives the compact space the flow model trains in.

The codec works on plain arrays, in the layout the velocity net reads:
chunk cuts audio into an [N, size] sample array, encode maps [..., n]
samples to [..., D, F] latents (D coefficients by F frames; row d holds
coefficient d of every frame, and frame k starts at sample k * FRAME_HOP),
and decode maps a [..., D, F] latent change and its [..., n] source samples
back to [..., n] samples. windowed_frames slices and windows the frames for
the 1024-dim encode and audiodist.embed, so the latent and embedding frame
grids always match.

The 64-dim encode skips the frame copy and the full DCT: frame k is the
hop-long segments k and k + 1, so one GEMM of the [..., F + 1, FRAME_HOP]
segment view with the windowed basis, its first and second halves side by
side, gives both halves' products, and coefficient row f is the first-half
product of segment f plus the second-half product of segment f + 1.

decode never transforms the band it leaves alone. Analysis and synthesis
windows are both Hann, so resynthesizing all 1024 coefficients of the
source gives x times the overlap-added squared window W; decode adds the
synthesis of the change alone and divides by max(W, 0.25). At 64 dims that
synthesis mirrors the encode: one GEMM of each frame's coefficients beside
the previous frame's with the transposed half-frame basis gives every
hop-long segment at once.
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
LATENT_DIMS = (64, 1024)


def hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


_WINDOW = hann_periodic(FRAME_LEN)


def _check_dims(dims: int) -> None:
    if dims not in LATENT_DIMS:
        raise DataError(f"latent dims must be one of {LATENT_DIMS}, got {dims}")


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
def _half_frame_basis(dims: int) -> np.ndarray:
    """[FRAME_HOP, 2 * dims] read-only windowed orthonormal DCT-II basis,
    coefficients 0..dims-1: rows are a frame's first half of samples beside
    its second half; built once per dims."""
    n = np.arange(FRAME_LEN)[:, None]
    # the angle pi * (2n + 1) * c / (2 * FRAME_LEN) reduced to one period in
    # exact integers first: cos of the unreduced angle is 50x further off
    turns = (2 * n + 1) * np.arange(dims) % (4 * FRAME_LEN)
    basis = np.cos(np.pi * turns / (2 * FRAME_LEN)) * np.sqrt(2.0 / FRAME_LEN)
    basis[:, 0] = np.sqrt(1.0 / FRAME_LEN)
    basis *= _WINDOW[:, None]
    out = np.concatenate([basis[:FRAME_HOP], basis[FRAME_HOP:]], axis=1)
    out.flags.writeable = False
    return out


def encode(x: np.ndarray, dims: int) -> np.ndarray:
    """[..., n] samples -> owned [..., dims, F] float64 latents: the windowed
    orthonormal DCT-II of each frame, truncated to the first dims.

    64 dims run one GEMM of the hop-long segments with the half-frame basis.
    1024 dims run the FFT DCT of the windowed frames: there the basis GEMM
    would cost 2.9 GFLOP per stack of four 4-s chunks, more than the FFT.
    """
    _check_dims(dims)
    if dims == FRAME_LEN:
        from scipy.fft import dct  # loaded on first use: 64 dims need no scipy
        coeffs = dct(windowed_frames(x), type=2, norm="ortho", axis=-1, overwrite_x=True)
        return coeffs.swapaxes(-1, -2).copy()
    x = np.asarray(x)
    *lead, n = x.shape
    n_frames = frame_count(n)
    segments = x[..., :(n_frames + 1) * FRAME_HOP].reshape(*lead, n_frames + 1, FRAME_HOP)
    halves = segments @ _half_frame_basis(dims)        # [..., F + 1, 2 * dims]
    z = np.empty((*lead, dims, n_frames))
    np.add(halves[..., :-1, :dims], halves[..., 1:, dims:], out=z.swapaxes(-1, -2))
    return z


def decode(dz: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[..., D, F] latent change dz of the [..., n] source samples x ->
    [..., n] float32 samples: x with the first D coefficients of each frame
    moved by dz, summed in float64 and rounded once.

    This is (x * W + OLA(synth(dz))) / max(W, 0.25), W being the overlap-added
    squared window: the 1024-dim encode of x with its first D rows moved,
    decoded by IDCT and synthesis-windowed overlap-add, without either
    1024-point transform. Where dz is zero, interior samples (half a frame in
    from each edge) come back exactly; samples past the last frame, less than
    a hop, are zero. The synthesis window tapers frame edges instead of
    letting the edge normalization amplify content the analysis window never
    produced.
    """
    *lead, dims, n_frames = np.shape(dz)
    _check_dims(dims)
    x = np.asarray(x)
    if frame_count(x.shape[-1]) != n_frames:
        raise DataError(f"latent change has {n_frames} frames but its source "
                        f"has {frame_count(x.shape[-1])}")
    span = (n_frames + 1) * FRAME_HOP
    moved = _synthesize(dz)
    weight = _overlap_add(np.broadcast_to(_WINDOW * _WINDOW, (n_frames, FRAME_LEN)))
    moved += x[..., :span] * weight
    # interior double coverage keeps W >= 0.5; the floor only tapers the
    # half-frame chunk edges
    moved /= np.maximum(weight, 0.25)
    out = np.zeros((*lead, x.shape[-1]), dtype=np.float32)
    out[..., :span] = moved
    return out


def _synthesize(dz: np.ndarray) -> np.ndarray:
    """[..., D, F] coefficients -> [..., (F + 1) * FRAME_HOP] overlap-add of
    their synthesis-windowed inverse-DCT frames.

    64 dims mirror encode: hop-long segment s is frame s's first half plus
    frame s - 1's second half, so one GEMM of the [..., F + 1, 2 * D] pairs
    (frame s's coefficients beside frame s - 1's) with the transposed
    half-frame basis gives the segments. 1024 dims run the FFT IDCT.
    """
    *lead, dims, n_frames = np.shape(dz)
    if dims == FRAME_LEN:
        from scipy.fft import idct  # loaded on first use: 64 dims need no scipy
        # transformed and windowed in place: a stack's temporaries are large
        frames = idct(np.swapaxes(dz, -1, -2).copy(), type=2, norm="ortho", axis=-1,
                      overwrite_x=True)
        frames *= _WINDOW
        return _overlap_add(frames)
    pairs = np.zeros((*lead, n_frames + 1, 2 * dims))
    pairs[..., :-1, :dims] = np.swapaxes(dz, -1, -2)
    pairs[..., 1:, dims:] = np.swapaxes(dz, -1, -2)
    segments = pairs.reshape(-1, 2 * dims) @ _half_frame_basis(dims).T
    return segments.reshape(*lead, -1)


def _overlap_add(frames: np.ndarray) -> np.ndarray:
    """Sum [..., F, FRAME_LEN] frames at FRAME_HOP into [..., (F + 1) * FRAME_HOP]
    samples: every hop-long segment is the second half of one frame plus the
    first half of the next."""
    *lead, n_frames, _ = frames.shape
    halves = frames.reshape(*lead, n_frames, 2, FRAME_HOP)
    out = np.zeros((*lead, n_frames + 1, FRAME_HOP))
    out[..., 1:, :] += halves[..., 1, :]
    out[..., :-1, :] += halves[..., 0, :]
    return out.reshape(*lead, -1)


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


def load_latent(path) -> tuple[np.ndarray, int]:
    """The [D, F] float64 latent and the sample rate of a save_latent record."""
    with open(path, "rb") as fh:
        header = fh.read(20)
        if len(header) != 20:
            raise DataError(f"{path}: truncated latent header")
        f, d, hop, flen, rate = struct.unpack("<5I", header)
        data = np.frombuffer(fh.read(), dtype="<f4")
    if (hop, flen) != (FRAME_HOP, FRAME_LEN):
        raise DataError(f"{path}: framing hop {hop}, length {flen}; "
                        f"the codec uses hop {FRAME_HOP}, length {FRAME_LEN}")
    if f < 1:
        raise DataError(f"{path}: latent has no frames")
    if d not in LATENT_DIMS:
        raise DataError(f"{path}: latent dims must be one of {LATENT_DIMS}, got {d}")
    if data.size != f * d:
        raise DataError(f"{path}: expected {f * d} coefficients, found {data.size}")
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: latent contains non-finite values")
    return data.reshape(f, d).T.astype(np.float64), rate
