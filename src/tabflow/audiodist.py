"""Distribution and reconstruction distances over filterbank embeddings.

Each audio frame (1024 samples, hop 512, Hann) maps to a 64-band triangular
log-magnitude filterbank vector on a mel-spaced grid between 60 and 8000 Hz;
embed returns them as one float64 [F, EMBED_DIMS] array, and the distances
compare two [M, E] arrays, such as corpora pooled with np.vstack. FAD is the
Frechet (2-Wasserstein) distance between Gaussians fitted to the two sets;
KAD is the unbiased squared MMD with a Gaussian RBF kernel of the bandwidth
sigma its caller passes, and median_bandwidth computes the median-distance
heuristic for it; the reconstruction distance is the per-frame embedding
difference norm averaged over time.

embed streams its frames in blocks of about EMBED_BLOCK frames into the
one output array, so its temporary memory does not grow with the file's
length. It takes the magnitude spectrum and the filterbank product only up
to the bank's last nonzero bin (186 of 513 at stringsynth.SAMPLE_RATE):
the bins above 8000 Hz carry zero weights, and the rows keep the full
product's bytes.

Neither median_bandwidth nor kad holds the pooled N x N distance matrix.
The distances are streamed in row tiles of the upper triangle, rebuilt on
each pass: median_bandwidth's sigma is the exact median of those tiled
distances, found by a bracketed gather (of every distance when the bracket
misses) whose bracket comes from a sample of pairs built in chunks, and
kad's one pass turns each tile into kernel values and sums them. Each tile
is one GEMM of [N, E + 2] operands that carry the squared norms, so the
GEMM gives the squared distances whole; a tile is sized to stay in one
core's L2 cache while its clip and kernel values are applied.

Both passes run in float32. The pooled rows are centred on their column
mean in float64 and only then rounded to float32, so a distance keeps
float32's relative precision whatever offset the two sets share; the tiles,
their clip, the kernel values and the sum of each tile row are float32, and
the row sums add up in float64. Against float64 tiles this moves sigma by
about 1e-8 and KAD by about 4e-8 relative on 2048 + 2048 filterbank rows.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DataError, NumericError
from .latentcodec import FRAME_HOP, FRAME_LEN, frame_count, windowed_frames
from .stringsynth import SAMPLE_RATE, AudioBuffer

EMBED_DIMS = 64
# embed's frames per block: about 4 MB of windowed frames and spectrum at a
# time, whatever the file's length. The blocks start at multiples of
# EMBED_BLOCK, where the BLAS kernels' row tiles start in the whole product
# too, and a tail shorter than half a block joins the block before it (so a
# block holds up to 1.5 EMBED_BLOCK frames): an OpenBLAS dgemm of fewer than
# 19 rows takes another path, whose sums differ in the last bits. So each
# row keeps the bytes of one product over all frames.
EMBED_BLOCK = 256
FMIN_HZ = 60.0
FMAX_HZ = 8000.0
COV_JITTER = 1e-6
LOG_FLOOR = 1e-8


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def band_edges() -> np.ndarray:
    """EMBED_DIMS + 2 triangle edge frequencies, mel spaced."""
    return _mel_inv(np.linspace(_mel(FMIN_HZ), _mel(FMAX_HZ), EMBED_DIMS + 2))


def _filterbank() -> np.ndarray:
    """[EMBED_DIMS, n_bins] triangular weights over the rFFT bin grid."""
    freqs = np.fft.rfftfreq(FRAME_LEN, d=1.0 / SAMPLE_RATE)
    edges = band_edges()
    bank = np.zeros((EMBED_DIMS, len(freqs)))
    for i in range(EMBED_DIMS):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        bank[i] = np.clip(np.minimum(up, down), 0.0, None)
    return bank


# OpenBLAS's Haswell dgemm sums a 513-bin inner product in a leading panel of
# 256 bins, then the rest. The cut at 186 bins lies inside that panel and
# drops only trailing zero terms of its sums, so the cut product has the full
# product's bytes; a cut beyond the panel would regroup the sums.
@functools.cache
def _band_limited_bank() -> np.ndarray:
    """[EMBED_DIMS, 186] weights: the filterbank cut after its last nonzero
    column, the last bin below FMAX_HZ; built once."""
    bank = _filterbank()
    bins = int(np.flatnonzero(bank.any(axis=0))[-1]) + 1
    bank = bank[:, :bins].copy()
    bank.flags.writeable = False
    return bank


def embed(audio: AudioBuffer) -> np.ndarray:
    """[F, EMBED_DIMS] float64 log filterbank rows over the latent codec's
    frames, computed in blocks of EMBED_BLOCK frames."""
    samples = audio.samples
    if samples.dtype != np.float32:
        samples = np.asarray(samples, dtype=np.float64)
    bank = _band_limited_bank()
    out = np.empty((frame_count(len(samples)), EMBED_DIMS))
    cuts = list(range(0, len(out) - EMBED_BLOCK // 2, EMBED_BLOCK)) or [0]
    cuts.append(len(out))
    for f0, f1 in zip(cuts[:-1], cuts[1:]):
        # float32 samples times the float64 window are the bytes of a cast first
        frames = windowed_frames(samples[f0 * FRAME_HOP:(f1 - 1) * FRAME_HOP + FRAME_LEN])
        mags = np.abs(np.fft.rfft(frames, axis=1)[:, :bank.shape[1]])
        np.matmul(mags, bank.T, out=out[f0:f1])
    out += LOG_FLOOR
    return np.log(out, out=out)


def _checked(a, b, min_rows: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Both sets as float64 arrays of at least min_rows rows each, the one rule
    kept (short files pool few frames); embed fixes rank, width and finiteness."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    for v in (a, b):
        if len(v) < min_rows:
            raise DataError(f"need at least {min_rows} vectors per set, got {len(v)}")
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
# against the columns from its own first row on: at most 64 x 4096 float32
# (1 MB) at cli.KAD_MAX_FRAMES per set, where the whole matrix would be
# 67 MB. Each tile is one GEMM of the [N, E + 2] augmented operands, and its
# 1 MB fits one core's L2 cache, so the clip and the kernel values of a tile
# are applied in cache rather than streamed from memory (tiles of 128 and 256
# rows were no faster). The kernel sums are taken per tile, so the tile height
# also fixes the order of summation and with it the last bits of KAD.
BLOCK_ROWS = 64
_LOWER = np.tri(BLOCK_ROWS, dtype=bool)  # the diagonal and below of a square

# The median's bracket comes from this many random pairs, at quantiles
# 0.5 -+ _BRACKET: 6.4 standard errors of a sample median, so it misses a
# middle rank with a chance below 1e-9, and a miss only costs time.
_SAMPLE_PAIRS = 16384
_BRACKET = 0.025
# The sampled pairs' rows are gathered this many pairs at a time (two 512 kB
# gathers at 64 dims, where all pairs at once take 8 MB each).
_SAMPLE_CHUNK = 1024

_F32 = np.finfo(np.float32)
# The bracket that holds every finite entry: it gathers every pair.
_EVERY_PAIR = (np.float32(0.0), _F32.max)


def _pooled(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a then b less their column mean, as one float32 [N, E]
    array, and their float32 squared norms.

    The mean is subtracted in float64, before the rows are rounded: a common
    offset would otherwise set the squared norms' scale, and float32
    rounding at that scale would swamp the distances between the rows.
    """
    pooled = np.vstack([a, b])
    with np.errstate(over="ignore", invalid="ignore"):
        pooled -= pooled.sum(axis=0) / max(len(pooled), 1)
        sq = np.sum(pooled ** 2, axis=1)
        # no partial sum of a tile's GEMM exceeds 4 max(sq) (_sq_dist_blocks);
        # NaN, from an overflowing mean, fails the comparison too
        if not 4.0 * sq.max(initial=0.0) <= _F32.max:
            raise NumericError("embedding norms overflow the squared distances")
    return pooled.astype(np.float32), sq.astype(np.float32)


def _sq_dist_blocks(pooled: np.ndarray, sq: np.ndarray, clip: bool = True):
    """Yield (r0, r1, d2) over float32 tiles of BLOCK_ROWS pooled rows.

    pooled and sq are _pooled's float32 rows and squared norms.
    d2[i, j] is max(<left_i, right_j>, 0) for rows r0 + i and r0 + j (the
    product itself, which may be below 0, when clip is False), with
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
    col, ones = sq[:, None], np.ones((n, 1), dtype=np.float32)
    left = np.hstack([-2.0 * pooled, col, ones])
    right = np.hstack([pooled, ones, col])
    tile = np.empty(min(BLOCK_ROWS, n) * n, dtype=np.float32)
    for r0 in range(0, n, BLOCK_ROWS):
        r1 = min(r0 + BLOCK_ROWS, n)
        d2 = tile[:(r1 - r0) * (n - r0)].reshape(r1 - r0, n - r0)
        np.matmul(left[r0:r1], right[r0:].T, out=d2)
        if clip:
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
    np.median gives it over the entries cast to float64; 1.0 if it is 0 or
    there are no entries.

    Each passes(clip) call yields the C-contiguous float32 arrays of one
    pass anew, and they may be overwritten. Their finite entries, count in
    all, are >= 0; +inf marks an entry to skip. clip is False only for a
    bracket with lo > 0: the pass may then leave an entry that is 0 below
    0, where it counts below lo either way, and the entries inside the
    bracket are the same. sqrt is monotone, so the middle order statistics
    of the entries give the median. A bracket (lo, hi) that holds them costs
    one gather pass; when it misses, a second pass gathers every finite
    entry.
    """
    if count == 0:
        return 1.0
    ranks = np.array([(count - 1) // 2, count // 2])
    mid = _gather_ranks(passes(not bracket[0] > 0.0), *bracket, ranks)
    if mid is None:
        mid = _gather_ranks(passes(True), *_EVERY_PAIR, ranks)
    # np.median takes the mean of the middle pair (of one entry twice if odd)
    med = float(np.mean(np.sqrt(mid, dtype=np.float64)))
    return med if med > 0.0 else 1.0


def _median_distance(pooled: np.ndarray, sq: np.ndarray) -> float:
    """Median of the tiled distances over the strict upper triangle; 1.0 if
    it is 0 to within the tiles' rounding."""
    n = len(pooled)
    count = n * (n - 1) // 2
    if count <= _SAMPLE_PAIRS:
        bracket = _EVERY_PAIR
    else:
        rng = np.random.default_rng(0)
        i = rng.integers(0, n, _SAMPLE_PAIRS)
        j = rng.integers(0, n - 1, _SAMPLE_PAIRS)
        j += j >= i
        sample = np.empty(_SAMPLE_PAIRS, dtype=np.float32)
        for c in range(0, _SAMPLE_PAIRS, _SAMPLE_CHUNK):
            ic, jc = i[c:c + _SAMPLE_CHUNK], j[c:c + _SAMPLE_CHUNK]
            sample[c:c + _SAMPLE_CHUNK] = sq[ic] + sq[jc] - 2.0 * np.einsum(
                "ij,ij->i", pooled[ic], pooled[jc])
        # float32 bounds, so that the gather compares the tiles in float32
        bracket = np.quantile(sample, [0.5 - _BRACKET, 0.5 + _BRACKET]).astype(np.float32)
    med = _median_sqrt(lambda clip: (d2 for _, _, d2 in _sq_dist_blocks(pooled, sq, clip)),
                       count, bracket)
    # A tile's GEMM sums E + 2 products of up to 4 max(sq) each, so it may
    # leave a copy's distance 0 as a square up to this rounding bound: such
    # a median is 0, and falls back to 1.0 as in _median_sqrt.
    noise = (pooled.shape[1] + 2) * 4.0 * float(_F32.eps) * float(sq.max(initial=0.0))
    return med if med > math.sqrt(noise) else 1.0


def median_bandwidth(a: np.ndarray, b: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sets (self pairs excluded).

    The distances are float32 tiles (1 MB each at 2048 + 2048 rows) over the
    pooled rows centred in float64, and sigma is the exact median of their
    square roots taken in float64; 1.0 when that median is 0 to within the
    tiles' float32 rounding.
    """
    a, b = _checked(a, b, min_rows=0)
    return _median_distance(*_pooled(a, b))


def kad(a: np.ndarray, b: np.ndarray, sigma: float) -> float:
    """Unbiased squared MMD with Gaussian RBF kernel exp(-d^2 / (2 sigma^2)).

    May be slightly negative near zero; that is the unbiased estimator, not a
    bug. The bandwidth sigma is the caller's choice; median_bandwidth gives
    the median heuristic over the same pooled sets. The pooled distances are
    streamed in row tiles of the upper triangle and never held whole; one
    pass turns each tile into kernel values and sums them by position into
    the aa, ab and bb parts.

    The tiles are float32 (1 MB each at 2048 + 2048 rows) over the pooled
    rows centred in float64; the kernel values and each tile row's sum are
    float32, and the row sums add up in float64. So 1 / (2 sigma^2) must be
    a normal float32.
    """
    a, b = _checked(a, b)
    pooled, sq = _pooled(a, b)
    sigma = float(sigma)
    twice_var = 2.0 * sigma * sigma
    # NaN fails every comparison; a tiny sigma's square underflows to 0, and
    # a gamma outside float32's normal range would turn the tiles' 0 and +inf
    # into NaN
    if not (sigma > 0.0 and twice_var > 0.0
            and float(_F32.tiny) <= 1.0 / twice_var <= float(_F32.max)):
        raise DataError(f"kad bandwidth must be finite and > 0 with 1 / (2 sigma^2) "
                        f"a normal float32, got {sigma!r}")
    gamma = 1.0 / twice_var
    m, n = len(a), len(b)
    sum_aa = sum_ab = sum_bb = 0.0
    for r0, r1, k in _sq_dist_blocks(pooled, sq):
        # the +inf on and below the leading square's diagonal becomes 0.0, as
        # does a product past float32's range
        with np.errstate(over="ignore"):
            k *= -gamma
        np.exp(k, out=k)
        col = max(m - r0, 0)  # the first b column of the tile
        row = min(col, r1 - r0)  # the first b row
        # each row sums pairwise in float32, and the row sums add up in float64
        sum_aa += k[:row, :col].sum(axis=1).sum(dtype=np.float64)
        sum_ab += k[:row, col:].sum(axis=1).sum(dtype=np.float64)
        sum_bb += k[row:, col:].sum(axis=1).sum(dtype=np.float64)
    # the aa and bb kernel blocks are symmetric: twice their upper sums
    term_a = 2.0 * sum_aa / (m * (m - 1))
    term_b = 2.0 * sum_bb / (n * (n - 1))
    return float(term_a + term_b - 2.0 * (sum_ab / (m * n)))


def recon_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over frames of the per-frame embedding difference norm.

    Requires frame alignment: both sets must come from content-paired audio.
    """
    a, b = _checked(a, b, min_rows=1)
    return float(np.mean(np.linalg.norm(a - b, axis=1)))
