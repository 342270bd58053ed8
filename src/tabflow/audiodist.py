"""Distribution and reconstruction distances over filterbank embeddings.

Each audio frame (1024 samples, hop 512, Hann) maps to a 64-band triangular
log-magnitude filterbank vector on a mel-spaced grid between 60 and 8000 Hz;
embed returns them as one float64 [F, EMBED_DIMS] array, and the distances
compare two [M, E] arrays, such as corpora pooled with np.vstack. FAD is the
Frechet (2-Wasserstein) distance between Gaussians fitted to the two sets;
KAD is the unbiased squared MMD with a Gaussian RBF kernel and the
median-distance bandwidth heuristic; the reconstruction distance is the
per-frame embedding difference norm averaged over time.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericError
from .latentcodec import FRAME_LEN, windowed_frames
from .stringsynth import AudioBuffer

EMBED_DIMS = 64
FMIN_HZ = 60.0
FMAX_HZ = 8000.0
COV_JITTER = 1e-6
LOG_FLOOR = 1e-8


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def band_edges(n_bands: int = EMBED_DIMS, fmin: float = FMIN_HZ,
               fmax: float = FMAX_HZ) -> np.ndarray:
    """n_bands + 2 triangle edge frequencies, mel spaced."""
    return _mel_inv(np.linspace(_mel(fmin), _mel(fmax), n_bands + 2))


def band_of(freq: float, n_bands: int = EMBED_DIMS) -> int:
    """Index of the band with the strongest triangle response at freq."""
    edges = band_edges(n_bands)
    lo, mid, hi = edges[:-2], edges[1:-1], edges[2:]
    up = (freq - lo) / (mid - lo)
    down = (hi - freq) / (hi - mid)
    return int(np.argmax(np.clip(np.minimum(up, down), 0.0, None)))


def _filterbank(sample_rate: int) -> np.ndarray:
    """[n_bands, n_bins] triangular weights over the rFFT bin grid."""
    freqs = np.fft.rfftfreq(FRAME_LEN, d=1.0 / sample_rate)
    edges = band_edges()
    bank = np.zeros((EMBED_DIMS, len(freqs)))
    for i in range(EMBED_DIMS):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        bank[i] = np.clip(np.minimum(up, down), 0.0, None)
    return bank


def embed(audio: AudioBuffer) -> np.ndarray:
    """[F, EMBED_DIMS] float64 log filterbank rows over the latent codec's frames."""
    frames = windowed_frames(np.asarray(audio.samples, dtype=np.float64))
    mags = np.abs(np.fft.rfft(frames, axis=1))
    return np.log(mags @ _filterbank(audio.sample_rate).T + LOG_FLOOR)


def _checked(a, b, min_rows: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Both sets as float64 [M, E] arrays of one width, finite, with min_rows rows."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for v in (a, b):
        if v.ndim != 2:
            raise DataError(f"embeddings must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("embeddings contain non-finite values")
        if len(v) < min_rows:
            raise DataError(f"need at least {min_rows} vectors per set, got {len(v)}")
    if a.shape[1] != b.shape[1]:
        raise DataError(f"embedding dims differ: {a.shape[1]} vs {b.shape[1]}")
    return a, b


def _gaussian(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and jittered sample covariance of the rows of v."""
    cov = np.atleast_2d(np.cov(v, rowvar=False, ddof=1)) + COV_JITTER * np.eye(v.shape[1])
    return v.mean(axis=0), cov


def _psd_sqrt(mat: np.ndarray, what: str) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -1e-8:
        raise NumericError(f"{what}: eigenvalue {vals.min():.3e} below tolerance")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_gaussian(mean_a: np.ndarray, cov_a: np.ndarray,
                     mean_b: np.ndarray, cov_b: np.ndarray) -> float:
    """|mu_a - mu_b|^2 + Tr(Ca + Cb - 2 (Ca Cb)^(1/2)).

    The cross term uses the symmetric product sqrt(Ca) Cb sqrt(Ca), whose
    eigenvalues match those of Ca Cb but stay real.
    """
    diff = np.asarray(mean_a) - np.asarray(mean_b)
    root_a = _psd_sqrt(np.asarray(cov_a), "covariance sqrt")
    inner = root_a @ np.asarray(cov_b) @ root_a
    inner = (inner + inner.T) / 2.0
    vals = np.linalg.eigvalsh(inner)
    if vals.min() < -1e-8:
        raise NumericError(f"cross-covariance sqrt failed: eigenvalue {vals.min():.3e}")
    tr_cross = np.sqrt(np.clip(vals, 0.0, None)).sum()
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * tr_cross)


def fad(a: np.ndarray, b: np.ndarray) -> float:
    """Frechet distance between Gaussian fits of the two [M, E] sets."""
    a, b = _checked(a, b)
    return frechet_gaussian(*_gaussian(a), *_gaussian(b))


def _pooled_sq_dists(pooled: np.ndarray) -> np.ndarray:
    """[N, N] squared Euclidean distances, sq_i + sq_j - 2 <p_i, p_j>.

    Built in place on the Gram matrix; the sum is commutative, so the values
    are those of the three-term formula bit for bit.
    """
    sq = np.sum(pooled ** 2, axis=1)
    d2 = pooled @ pooled.T
    d2 *= -2.0
    for r in range(0, len(d2), 256):
        d2[r:r + 256] += sq[r:r + 256, None] + sq[None, :]
    return d2


def _median_upper(d2: np.ndarray) -> float:
    """Median of sqrt(max(d2, 0)) over the strict upper triangle; 1.0 if 0."""
    # gathered row by row, in np.triu_indices order, so nothing but the
    # triangle itself is allocated next to the matrix
    dist = np.concatenate([d2[r, r + 1:] for r in range(len(d2))])
    np.sqrt(np.clip(dist, 0.0, None, out=dist), out=dist)
    med = float(np.median(dist, overwrite_input=True))
    return med if med > 0.0 else 1.0


def median_bandwidth(a: np.ndarray, b: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sets (self pairs excluded)."""
    a, b = _checked(a, b, min_rows=0)
    return _median_upper(_pooled_sq_dists(np.vstack([a, b])))


def kad(a: np.ndarray, b: np.ndarray, bandwidth: float | None = None) -> float:
    """Unbiased squared MMD with Gaussian RBF kernel exp(-d^2 / (2 sigma^2)).

    May be slightly negative near zero; that is the unbiased estimator, not a
    bug. sigma defaults to the median heuristic, taken from the same pooled
    distance matrix whose blocks become the kernel values.
    """
    a, b = _checked(a, b)
    d2 = _pooled_sq_dists(np.vstack([a, b]))
    sigma = _median_upper(d2) if bandwidth is None else float(bandwidth)
    gamma = 1.0 / (2.0 * sigma * sigma)
    m, n = len(a), len(b)
    kaa, kbb, kab = d2[:m, :m], d2[m:, m:], d2[:m, m:]
    for block in (kaa, kbb, kab):
        np.clip(block, 0.0, None, out=block)
        block *= -gamma
        np.exp(block, out=block)
    term_a = (kaa.sum() - np.trace(kaa)) / (m * (m - 1))
    term_b = (kbb.sum() - np.trace(kbb)) / (n * (n - 1))
    return float(term_a + term_b - 2.0 * kab.mean())


def recon_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over frames of the per-frame embedding difference norm.

    Requires frame alignment: both sets must come from content-paired audio.
    """
    a, b = _checked(a, b, min_rows=1)
    if a.shape != b.shape:
        raise DataError(f"reconstruction distance needs aligned frames: "
                        f"{a.shape} vs {b.shape}")
    return float(np.mean(np.linalg.norm(a - b, axis=1)))
