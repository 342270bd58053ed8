"""Distribution and reconstruction distances over filterbank embeddings.

Each audio frame (1024 samples, hop 512, Hann) maps to a 64-band triangular
log-magnitude filterbank vector on a mel-spaced grid between 60 and 8000 Hz;
embed returns them as one float64 [F, EMBED_DIMS] array, and the distances
compare two [M, E] arrays, such as corpora pooled with np.vstack. FAD is the
Frechet (2-Wasserstein) distance between Gaussians fitted to the two sets;
KAD is the unbiased squared MMD with a Gaussian RBF kernel and the
median-distance bandwidth heuristic; the reconstruction distance is the
per-frame embedding difference norm averaged over time.

embed takes the magnitude spectrum and the filterbank product only up to the
bank's last nonzero bin (186 of 513 at 44.1 kHz): the bins above 8000 Hz
carry zero weights, and the rows keep the full product's bytes.

KAD never holds the pooled N x N distance matrix. Its distances are streamed
in row tiles of the upper triangle, recomputed on each pass: sigma is the
exact median of those tiled distances, found by a bracketed gather (of every
distance when the bracket misses), and one more pass turns each tile into
kernel values and sums them. Each tile is one GEMM of [N, E + 2] operands
that carry the squared norms, so the GEMM gives the squared distances
whole; a tile is sized to stay in one core's L2 cache while its clip and
kernel values are applied.
"""

from __future__ import annotations

import functools
import math

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


# OpenBLAS's Haswell dgemm sums a 513-bin inner product in a leading panel of
# 256 bins, then the rest. A cut inside that panel drops only trailing zero
# terms of its sums, so the cut product has the full product's bytes; a cut
# beyond it would regroup the sums (as at 22050 Hz, 372 bins).
_PANEL_BINS = 256


@functools.cache
def _band_limited_bank(sample_rate: int) -> np.ndarray:
    """[n_bands, bins] weights: the filterbank cut after its last nonzero
    column (no columns if it has none), or whole when that column lies past
    _PANEL_BINS; built once per sample rate."""
    bank = _filterbank(sample_rate)
    used = np.flatnonzero(bank.any(axis=0))
    bins = int(used[-1]) + 1 if len(used) else 0
    if bins > _PANEL_BINS:
        bins = bank.shape[1]
    bank = bank[:, :bins].copy()
    bank.flags.writeable = False
    return bank


def embed(audio: AudioBuffer) -> np.ndarray:
    """[F, EMBED_DIMS] float64 log filterbank rows over the latent codec's frames."""
    samples = audio.samples
    if samples.dtype != np.float32:
        samples = np.asarray(samples, dtype=np.float64)
    # float32 samples times the float64 window are the bytes of a cast first
    frames = windowed_frames(samples)
    bank = _band_limited_bank(audio.sample_rate)
    mags = np.abs(np.fft.rfft(frames, axis=1)[:, :bank.shape[1]])
    return np.log(mags @ bank.T + LOG_FLOOR)


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


# The pooled distance matrix is streamed in tiles of BLOCK_ROWS rows, each
# against the columns from its own first row on: at most 64 x 4096 float64
# (2 MB) at the default kad_max_frames, where the whole matrix would be
# 134 MB. Each tile is one GEMM of the [N, E + 2] augmented operands, and its
# 2 MB fit one core's L2 cache, so the clip and the kernel values of a tile
# are applied in cache rather than streamed from memory. The kernel sums are
# taken per tile, so the tile height also fixes the order of summation and
# with it the last bits of KAD.
BLOCK_ROWS = 64
_LOWER = np.tri(BLOCK_ROWS, dtype=bool)  # the diagonal and below of a square

# The median's bracket comes from this many random pairs, at quantiles
# 0.5 -+ _BRACKET: 6.4 standard errors of a sample median, so it misses a
# middle rank with a chance below 1e-9, and a miss only costs time.
_SAMPLE_PAIRS = 16384
_BRACKET = 0.025

# The bracket that holds every finite entry: it gathers every pair.
_EVERY_PAIR = (0.0, np.finfo(np.float64).max)


def _pooled(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a then b as one [N, E] array, and their squared norms."""
    pooled = np.vstack([a, b])
    with np.errstate(over="ignore"):
        sq = np.sum(pooled ** 2, axis=1)
        # no partial sum of a tile's GEMM exceeds 4 max(sq) (_sq_dist_blocks)
        if not np.isfinite(4.0 * sq.max(initial=0.0)):
            raise NumericError("embedding norms overflow the squared distances")
    return pooled, sq


def _sq_dist_blocks(pooled: np.ndarray, sq: np.ndarray):
    """Yield (r0, r1, d2) over tiles of BLOCK_ROWS pooled rows.

    d2[i, j] is max(<left_i, right_j>, 0) for rows r0 + i and r0 + j, with
    the augmented rows left_i = [-2 p_i | sq_i | 1] and right_j =
    [p_j | 1 | sq_j], so the tile's one GEMM gives -2 <p_i, p_j> + sq_i +
    sq_j; the leading (r1 - r0) square is +inf on and below its diagonal:
    the finite entries over all tiles are the strict upper triangle of the
    pooled matrix. No partial sum of that GEMM exceeds 2 |p_i| |p_j| + sq_i
    + sq_j <= 4 max(sq), which _pooled's overflow guard keeps finite.
    The left operand is never the right one's buffer, so every tile is one
    GEMM (numpy would send a symmetric product to SYRK). Every tile is built
    in the same buffer, sized for the first (largest) tile, so a tile lives
    only until the next one is yielded.
    """
    n = len(pooled)
    col, ones = sq[:, None], np.ones((n, 1))
    left = np.hstack([-2.0 * pooled, col, ones])
    right = np.hstack([pooled, ones, col])
    tile = np.empty(min(BLOCK_ROWS, n) * n)
    for r0 in range(0, n, BLOCK_ROWS):
        r1 = min(r0 + BLOCK_ROWS, n)
        d2 = tile[:(r1 - r0) * (n - r0)].reshape(r1 - r0, n - r0)
        np.matmul(left[r0:r1], right[r0:].T, out=d2)
        np.clip(d2, 0.0, None, out=d2)
        np.copyto(d2[:, :r1 - r0], np.inf, where=_LOWER[:r1 - r0, :r1 - r0])
        yield r0, r1, d2


def _gather_ranks(arrays, lo: float, hi: float, ranks: np.ndarray) -> np.ndarray | None:
    """The values of the given ranks among the finite entries of arrays, or
    None if one of them lies outside [lo, hi]."""
    below, inside = 0, []
    for d2 in arrays:
        under = d2 < lo
        below += np.count_nonzero(under)
        keep = d2 <= hi
        keep ^= under  # lo <= hi, so under is a subset of keep
        inside.append(d2[keep])
    vals = np.concatenate(inside)
    k = ranks - below
    if k[0] < 0 or k[-1] >= len(vals):
        return None
    vals.partition(k)
    return vals[k]


def _median_sqrt(passes, count: int, bracket: tuple[float, float]) -> float:
    """Median of sqrt over the finite entries of one pass, exactly as
    np.median gives it; 1.0 if it is 0 or there are no entries.

    Each passes() call yields the C-contiguous float64 arrays of one pass
    anew, and they may be overwritten. Their finite entries, count in all,
    are >= 0; +inf marks an entry to skip. sqrt is monotone, so the middle
    order statistics of the entries give the median. A bracket (lo, hi)
    that holds them costs one gather pass; when it misses, a second pass
    gathers every finite entry.
    """
    if count == 0:
        return 1.0
    ranks = np.array([(count - 1) // 2, count // 2])
    mid = _gather_ranks(passes(), *bracket, ranks)
    if mid is None:
        mid = _gather_ranks(passes(), *_EVERY_PAIR, ranks)
    # np.median takes the mean of the middle pair (of one entry twice if odd)
    med = float(np.mean(np.sqrt(mid)))
    return med if med > 0.0 else 1.0


def _median_distance(pooled: np.ndarray, sq: np.ndarray) -> float:
    """Median of the tiled distances over the strict upper triangle."""
    n = len(pooled)
    count = n * (n - 1) // 2
    if count <= _SAMPLE_PAIRS:
        bracket = _EVERY_PAIR
    else:
        rng = np.random.default_rng(0)
        i = rng.integers(0, n, _SAMPLE_PAIRS)
        j = rng.integers(0, n - 1, _SAMPLE_PAIRS)
        j += j >= i
        sample = sq[i] + sq[j] - 2.0 * np.einsum("ij,ij->i", pooled[i], pooled[j])
        bracket = np.quantile(sample, [0.5 - _BRACKET, 0.5 + _BRACKET])
    return _median_sqrt(lambda: (d2 for _, _, d2 in _sq_dist_blocks(pooled, sq)),
                        count, bracket)


def median_bandwidth(a: np.ndarray, b: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sets (self pairs excluded)."""
    a, b = _checked(a, b, min_rows=0)
    return _median_distance(*_pooled(a, b))


def kad(a: np.ndarray, b: np.ndarray, bandwidth: float | None = None) -> float:
    """Unbiased squared MMD with Gaussian RBF kernel exp(-d^2 / (2 sigma^2)).

    May be slightly negative near zero; that is the unbiased estimator, not a
    bug. The pooled distances are streamed in row tiles of the upper
    triangle and never held whole. sigma defaults to the median heuristic,
    the exact median of those same tiled distances; one more pass turns
    each tile into kernel values and sums them by position into the aa, ab
    and bb parts.
    """
    a, b = _checked(a, b)
    pooled, sq = _pooled(a, b)
    sigma = _median_distance(pooled, sq) if bandwidth is None else float(bandwidth)
    twice_var = 2.0 * sigma * sigma
    # NaN fails every comparison; a tiny sigma's square underflows to 0 or
    # its inverse overflows
    if not (0.0 < sigma < math.inf and twice_var > 0.0 and 1.0 / twice_var < math.inf):
        raise DataError(f"kad bandwidth must be finite and > 0 with a finite "
                        f"1 / (2 sigma^2), got {sigma!r}")
    gamma = 1.0 / twice_var
    m, n = len(a), len(b)
    sum_aa = sum_ab = sum_bb = 0.0
    for r0, r1, k in _sq_dist_blocks(pooled, sq):
        k *= -gamma
        np.exp(k, out=k)
        np.copyto(k[:, :r1 - r0], 0.0, where=_LOWER[:r1 - r0, :r1 - r0])
        col = max(m - r0, 0)  # the first b column of the tile
        row = min(col, r1 - r0)  # the first b row
        sum_aa += k[:row, :col].sum()
        sum_ab += k[:row, col:].sum()
        sum_bb += k[row:, col:].sum()
    # the aa and bb kernel blocks are symmetric: twice their upper sums
    term_a = 2.0 * sum_aa / (m * (m - 1))
    term_b = 2.0 * sum_bb / (n * (n - 1))
    return float(term_a + term_b - 2.0 * (sum_ab / (m * n)))


def recon_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over frames of the per-frame embedding difference norm.

    Requires frame alignment: both sets must come from content-paired audio.
    """
    a, b = _checked(a, b, min_rows=1)
    if a.shape != b.shape:
        raise DataError(f"reconstruction distance needs aligned frames: "
                        f"{a.shape} vs {b.shape}")
    return float(np.mean(np.linalg.norm(a - b, axis=1)))
