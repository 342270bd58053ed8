import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist, pdist

from tabflow.audiodist import (BLOCK_ROWS, EMBED_BLOCK, EMBED_DIMS, _median_sqrt,
                               _pooled, _sq_dist_blocks, band_edges, embed, fad,
                               frechet_gaussian, kad, median_bandwidth, recon_distance,
                               LOG_FLOOR)
from tabflow.errors import DataError, NumericError
from tabflow.latentcodec import FRAME_HOP, FRAME_LEN, encode, windowed_frames
from tabflow.stringsynth import AudioBuffer

FS = 44100
EPS32 = float(np.finfo(np.float32).eps)
# The KAD tiles are float32. Against a float64 formula, a KAD value of the
# small sets below moved by at most 6e-8, a few float32 eps of the kernel
# values, so this bound leaves a margin of over 15.
KAD_ATOL = 1e-6


def _set(arr):
    return np.asarray(arr, dtype=np.float64)


def _traced_peak(f):
    """f() and the traced peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def band_of(freq: float) -> int:
    """Index of the band with the strongest triangle response at freq."""
    edges = band_edges()
    lo, mid, hi = edges[:-2], edges[1:-1], edges[2:]
    up = (freq - lo) / (mid - lo)
    down = (hi - freq) / (hi - mid)
    return int(np.argmax(np.clip(np.minimum(up, down), 0.0, None)))


# --- embedding ----------------------------------------------------------------

def _full_bin_oracle(samples, rate):
    """The embedding of a float64 cast over all frames at once, all 513
    bins and a triangular bank built here on the bin grid at rate."""
    frames = windowed_frames(np.asarray(samples, dtype=np.float64))
    mags = np.abs(np.fft.rfft(frames, axis=1))
    freqs = np.fft.rfftfreq(FRAME_LEN, d=1.0 / rate)
    edges = band_edges()
    lo, mid, hi = (e[:, None] for e in (edges[:-2], edges[1:-1], edges[2:]))
    bank = np.clip(np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)), 0.0, None)
    return np.log(mags @ bank.T + LOG_FLOOR)


@pytest.mark.parametrize("rate", [FS])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_bytes_match_full_bin_oracle(rate, dtype):
    """embed frames the samples as given and stops the spectrum at the bank's
    last nonzero bin; its rows are still the bytes of the full-bin oracle."""
    samples = (0.3 * np.random.default_rng(rate).standard_normal(30000)).astype(dtype)
    assert np.array_equal(embed(AudioBuffer(samples)), _full_bin_oracle(samples, rate))


@pytest.mark.parametrize("rate", [FS])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("frames", [1, EMBED_BLOCK - 1, EMBED_BLOCK, EMBED_BLOCK + 1,
                                    2 * EMBED_BLOCK + 3])
def test_embed_blocks_match_full_bin_oracle(frames, dtype, rate):
    """On either side of embed's block edges, with samples left over past
    the last frame, the rows keep the bytes of the whole-array oracle."""
    n = FRAME_LEN + (frames - 1) * FRAME_HOP + FRAME_HOP // 3
    samples = (0.3 * np.random.default_rng(frames).standard_normal(n)).astype(dtype)
    e = embed(AudioBuffer(samples))
    assert e.shape == (frames, EMBED_DIMS)
    assert np.array_equal(e, _full_bin_oracle(samples, rate))


def test_embed_peak_memory_does_not_grow_with_length():
    """embed holds its output and one block of frames and spectrum, a few
    MB at any length: whole-file frames and spectrum of these 30 s would
    take over 40 MB."""
    audio = AudioBuffer((0.3 * np.random.default_rng(5).standard_normal(30 * FS))
                        .astype(np.float32))
    e, peak = _traced_peak(lambda: embed(audio))
    assert peak - e.nbytes < 8e6


def test_silence_embeds_to_constant_log_floor():
    e = embed(AudioBuffer(np.zeros(8192)))
    assert np.allclose(e, np.log(LOG_FLOOR))


def test_sine_activates_band_containing_440():
    t = np.arange(2 * FS) / FS
    e = embed(AudioBuffer(0.5 * np.sin(2 * np.pi * 440.0 * t)))
    expected = band_of(440.0)
    assert np.all(np.argmax(e, axis=1) == expected)


def test_frame_count_matches_codec():
    rng = np.random.default_rng(0)
    audio = AudioBuffer(rng.uniform(-0.3, 0.3, 50000))
    assert len(embed(audio)) == encode(audio.samples).shape[-1]


def test_embed_rejects_short_audio():
    with pytest.raises(DataError):
        embed(AudioBuffer(np.zeros(512)))


def test_embedding_is_deterministic():
    rng = np.random.default_rng(1)
    audio = AudioBuffer(rng.uniform(-0.3, 0.3, 20000))
    assert np.array_equal(embed(audio), embed(audio))


# --- FAD ----------------------------------------------------------------------

def test_fad_of_identical_sets_is_zero():
    rng = np.random.default_rng(2)
    x = _set(rng.standard_normal((400, 8)))
    assert fad(x, x) < 1e-6


def test_fad_mean_shift_matches_closed_form():
    rng = np.random.default_rng(3)
    a = _set(rng.standard_normal((100_000, 1)))
    b = _set(rng.standard_normal((100_000, 1)) + 1.0)
    assert fad(a, b) == pytest.approx(1.0, abs=0.05)


def test_frechet_trace_term_diagonal_fixture():
    # Tr(I + 4I - 2*sqrt(4)*I) over E=2 dims = 2 exactly
    val = frechet_gaussian(np.zeros(2), np.eye(2), np.zeros(2), 4.0 * np.eye(2))
    assert val == pytest.approx(2.0, abs=1e-9)


def test_fad_symmetry():
    rng = np.random.default_rng(4)
    a = _set(rng.standard_normal((300, 5)))
    b = _set(rng.standard_normal((300, 5)) * 1.5 + 0.3)
    assert fad(a, b) == pytest.approx(fad(b, a), abs=1e-9)


def test_fad_invariant_under_joint_rotation():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2000, 6))
    b = rng.standard_normal((2000, 6)) * 0.7 + 0.5
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    base = fad(_set(a), _set(b))
    rotated = fad(_set(a @ q), _set(b @ q))
    assert rotated == pytest.approx(base, abs=1e-6)


def test_fad_monotone_in_mean_separation():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((10_000, 1))
    values = [fad(_set(base), _set(rng.standard_normal((10_000, 1)) + d))
              for d in (0.5, 1.0, 2.0)]
    assert values[0] < values[1] < values[2]


def test_fad_needs_two_vectors():
    with pytest.raises(DataError):
        fad(_set(np.zeros((1, 3))), _set(np.zeros((10, 3))))


# --- KAD ----------------------------------------------------------------------

def _kad_median(a, b):
    """kad at the median-heuristic bandwidth, as `tabflow eval` scores."""
    return kad(a, b, median_bandwidth(a, b))


def test_kad_same_distribution_magnitude_small():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((2000, 1))
    assert abs(_kad_median(_set(z[:1000]), _set(z[1000:]))) < 0.01


def test_kad_separation_exceeds_10x_baseline():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((2000, 1))
    baseline = abs(_kad_median(_set(z[:1000]), _set(z[1000:])))
    shifted = _kad_median(_set(rng.standard_normal((1000, 1))),
                          _set(rng.standard_normal((1000, 1)) + 5.0))
    assert shifted > 10 * max(baseline, 1e-6)


def test_kad_hand_computed_two_point_sets():
    a = _set(np.zeros((2, 1)))
    b = _set(np.ones((2, 1)))
    expected = 1.0 + 1.0 - 2.0 * np.exp(-0.5)  # k(0,0)=k(1,1)=1, k(0,1)=e^-1/2
    # centred, the points are -+0.5 and every distance is exact in float32;
    # only the float32 exp(-0.5), weighted 2, rounds: its ulp is eps / 2, so
    # up to 4 ulp stay within 4 eps
    assert kad(a, b, 1.0) == pytest.approx(expected, abs=4 * EPS32)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, 1e-200, 1e-160, 1e-20, 1e19, 1e155,
                                       float("nan"), float("inf"), float("-inf")])
def test_kad_rejects_bad_bandwidth(bandwidth):
    """Not finite and > 0, or 1 / (2 sigma^2) not a normal float32: sigma^2
    underflows to 0 at 1e-200, 1 / (2 sigma^2) overflows float64 at 1e-160
    and float32 at 1e-20, and is below float32's normal range at 1e19 and 0
    in float64 at 1e155 (a gamma of 0 would turn the tiles' +inf into NaN)."""
    with pytest.raises(DataError, match="kad bandwidth must be finite and > 0"):
        kad(_set(np.zeros((3, 2))), _set(np.ones((3, 2))), bandwidth)


def test_kad_symmetry():
    rng = np.random.default_rng(9)
    a = _set(rng.standard_normal((200, 3)))
    b = _set(rng.standard_normal((200, 3)) + 0.4)
    # swapped, the pooled rows and so the float32 tiles' roundings differ
    assert _kad_median(a, b) == pytest.approx(_kad_median(b, a), abs=KAD_ATOL)


def test_median_bandwidth_positive():
    rng = np.random.default_rng(10)
    a = _set(rng.standard_normal((50, 2)))
    b = _set(rng.standard_normal((50, 2)))
    assert median_bandwidth(a, b) > 0


def _augmented(rows, sq):
    """The operands [-2P | sq | 1] and [P | 1 | sq] whose product is the
    squared-distance matrix of the rows, built apart from audiodist."""
    sq = sq[:, None]
    ones = np.ones_like(sq)
    return np.hstack([-2.0 * rows, sq, ones]), np.hstack([rows, ones, sq])


def _centred32(pooled):
    """The rows less their column mean, taken in float64, and their squared
    norms, both rounded to float32: the tiles' operands, built apart from
    audiodist."""
    centred = pooled - pooled.mean(axis=0)
    return centred.astype(np.float32), np.sum(centred ** 2, axis=1).astype(np.float32)


def _triu_median(a, b):
    """np.median of the distances over the strict upper triangle of the
    whole float64 augmented product of the rows as given."""
    pooled = np.vstack([a, b])
    left, right = _augmented(pooled, np.sum(pooled ** 2, axis=1))
    d2 = left @ right.T
    iu = np.triu_indices(len(d2), k=1)
    return float(np.median(np.sqrt(np.clip(d2[iu], 0.0, None))))


def _triu_median32(a, b):
    """The same over the float32 product of the centred operands, each
    distance taken in float64 from its float32 square."""
    left, right = _augmented(*_centred32(np.vstack([a, b])))
    d2 = np.clip(left @ right.T, 0.0, None)
    iu = np.triu_indices(len(d2), k=1)
    return float(np.median(np.sqrt(d2[iu].astype(np.float64))))


def test_tile_distances_are_the_three_term_formula():
    """Each tile's finite entries are its rows of the float32 GEMM of the
    centred operands clipped at 0, bit for bit, and +inf marks exactly the
    diagonal and below of its leading square."""
    pooled = 3.0 * np.random.default_rng(0).standard_normal((300, 64)) + 5.0
    left, right = _augmented(*_centred32(pooled))
    spans = []
    for r0, r1, d2 in _sq_dist_blocks(*_pooled(pooled[:120], pooled[120:])):
        assert d2.dtype == np.float32
        spans.append((r0, r1))
        want = np.clip(left[r0:r1] @ right[r0:].T, 0.0, None)
        lower = np.zeros(d2.shape, dtype=bool)
        lower[:, :r1 - r0] = np.tri(r1 - r0, dtype=bool)
        assert np.array_equal(np.isinf(d2), lower)
        assert np.array_equal(d2[~lower], want[~lower])
    bounds = list(range(0, 300, BLOCK_ROWS)) + [300]
    assert spans == list(zip(bounds[:-1], bounds[1:]))


@pytest.mark.parametrize("seed", range(4))
def test_median_bandwidth_matches_triu_index_formula(seed):
    rng = np.random.default_rng(seed)
    m, n, dims = rng.integers(2, 120, size=2).tolist() + [int(rng.integers(1, 9))]
    scale = 10.0 ** rng.uniform(-3, 3)
    a = _set(scale * rng.standard_normal((m, dims)))
    b = _set(scale * rng.standard_normal((n, dims)) + 0.3)
    sigma = median_bandwidth(a, b)
    assert sigma == _triu_median32(a, b)
    # Against float64: rounding the centred rows and the float32 GEMM move
    # each squared distance by at most this bound, and so the middle ones;
    # sigma then moves by about bound / (2 sigma).
    centred = np.vstack([a, b]) - np.vstack([a, b]).mean(axis=0)
    bound = 4 * (dims + 4) * EPS32 * np.max(np.sum(centred ** 2, axis=1))
    assert abs(sigma - _triu_median(a, b)) * sigma <= bound


@pytest.mark.parametrize("m, n, dims", [(150, 190, 8), (300, 260, 64)])
def test_offset_sets_keep_bandwidth_and_kad(m, n, dims):
    """Points near +1e3 with unit spread: the squared norms are ~1e6 times
    the distances, yet sigma and KAD stay within 1e-9 relative of the same
    sets centred (the offset is subtracted exactly)."""
    rng = np.random.default_rng(m)
    a = _set(rng.standard_normal((m, dims)) + 1e3)
    b = _set(rng.standard_normal((n, dims)) + 1e3 + 0.5)
    centred = (a - 1e3, b - 1e3)
    assert median_bandwidth(a, b) == pytest.approx(median_bandwidth(*centred), rel=1e-9)
    assert _kad_median(a, b) == pytest.approx(_kad_median(*centred), rel=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_kad_matches_three_gram_formula(seed):
    """kad takes its three kernel blocks from one pooled distance matrix; it
    equals three separate Gram matrices under the same sigma."""
    rng = np.random.default_rng(seed)
    m, n, dims = rng.integers(2, 300, size=2).tolist() + [int(rng.integers(1, 9))]
    a = _set(rng.standard_normal((m, dims)))
    b = _set(rng.standard_normal((n, dims)) + 0.3)
    sigma = median_bandwidth(a, b)

    def gram(x, y):
        d2 = (np.sum(x ** 2, axis=1)[:, None] + np.sum(y ** 2, axis=1)[None, :]
              - 2.0 * (x @ y.T))
        return np.exp(-np.clip(d2, 0.0, None) / (2.0 * sigma * sigma))

    kaa, kbb = gram(a, a), gram(b, b)
    expected = ((kaa.sum() - np.trace(kaa)) / (m * (m - 1))
                + (kbb.sum() - np.trace(kbb)) / (n * (n - 1))
                - 2.0 * gram(a, b).mean())
    assert kad(a, b, sigma) == pytest.approx(expected, rel=0, abs=KAD_ATOL)


@pytest.mark.parametrize("seed", range(6))
def test_median_bandwidth_exact_over_many_blocks(seed):
    """Small-integer points tie many distances; pooled over more than one
    block, the streamed median is exactly np.median of the square roots
    over the finite entries of every float32 tile, and within the tiles'
    rounding bound of the float64 triu_indices formula. (The centred rows
    leave some of these distances an ulp or so off their integer, so the
    float64 formula is not matched exactly.)"""
    rng = np.random.default_rng(100 + seed)
    m, n = rng.integers(300, 900, size=2).tolist()
    dims = int(rng.integers(1, 9))
    a = _set(rng.integers(-3, 4, size=(m, dims)))
    b = _set(rng.integers(-2, 5, size=(n, dims)))
    assert m + n > BLOCK_ROWS
    sigma = median_bandwidth(a, b)
    # each tile is overwritten by the next, so its entries are copied out
    d2 = np.concatenate([d2[np.isfinite(d2)] for _, _, d2 in _sq_dist_blocks(*_pooled(a, b))])
    assert len(d2) == (m + n) * (m + n - 1) // 2
    assert sigma == float(np.median(np.sqrt(d2.astype(np.float64))))
    centred = np.vstack([a, b]) - np.vstack([a, b]).mean(axis=0)
    bound = 4 * (dims + 4) * EPS32 * np.max(np.sum(centred ** 2, axis=1))
    assert abs(sigma - _triu_median(a, b)) * sigma <= bound


@pytest.mark.parametrize("m, n", [(300, 700), (700, 300), (8 * BLOCK_ROWS + 37, 260),
                                  (BLOCK_ROWS - 24, 300)])
def test_kad_split_off_block_boundary(m, n):
    """The a/b split falls inside a tile (no m here is a multiple of
    BLOCK_ROWS, and the last is below it with n above); the aa, ab and bb
    sums still match three Gram matrices."""
    assert m % BLOCK_ROWS
    rng = np.random.default_rng(m)
    dims = 5
    a = _set(rng.standard_normal((m, dims)))
    b = _set(rng.standard_normal((n, dims)) + 0.3)
    sigma = median_bandwidth(a, b)

    def gram(x, y):
        d2 = (np.sum(x ** 2, axis=1)[:, None] + np.sum(y ** 2, axis=1)[None, :]
              - 2.0 * (x @ y.T))
        return np.exp(-np.clip(d2, 0.0, None) / (2.0 * sigma * sigma))

    kaa, kbb = gram(a, a), gram(b, b)
    expected = ((kaa.sum() - np.trace(kaa)) / (m * (m - 1))
                + (kbb.sum() - np.trace(kbb)) / (n * (n - 1))
                - 2.0 * gram(a, b).mean())
    assert kad(a, b, sigma) == pytest.approx(expected, rel=0, abs=KAD_ATOL)


# float32 values: the tiles' dtype, with its smallest subnormal and a value
# near its largest finite
_TIED = st.sampled_from([0.0, 0.0, 1.0, 2.25, 2.25, 4.0, 1e-45, 3e38])


@settings(max_examples=150, deadline=None)
@given(values=st.lists(_TIED | st.floats(0.0, 1e6, width=32), min_size=1, max_size=400),
       width=st.integers(1, 64), data=st.data())
@example(values=[0.0] * 10, width=3, data=None)     # all equal: sigma 1.0
@example(values=[3.0], width=1, data=None)          # a single pair
@example(values=[0.0, 0.0, 9.0, 9.0], width=3, data=None)
def test_median_selector_matches_np_median(values, width, data):
    """Over float32 entries, the streamed selector gives np.median of sqrt
    of the entries cast to float64 exactly, through the every-pair bracket,
    through a bracket that holds the middle, and through brackets that miss
    it, which fall back to gathering every entry."""
    vals = np.array(values, dtype=np.float32)
    med = float(np.median(np.sqrt(vals.astype(np.float64))))
    expected = med if med > 0.0 else 1.0
    # rows of `width` entries, the last one padded with skipped (+inf) entries
    rows = np.full((-(-len(vals) // width), width), np.inf, dtype=np.float32)
    rows.reshape(-1)[:len(vals)] = vals

    def passes(clip):  # the values are >= 0: clipping would change nothing
        return (rows[r:r + 2].copy() for r in range(0, len(rows), 2))

    brackets = [(0.0, float(np.finfo(np.float32).max)), (1.0, 2.25), (7.0, 5e5)]
    if data is not None:
        lo, hi = sorted(data.draw(st.sampled_from(values)) for _ in range(2))
        brackets.append((lo, hi))
    for bracket in brackets:
        assert _median_sqrt(passes, len(vals), bracket) == expected


def test_median_selector_no_entries():
    assert _median_sqrt(lambda clip: iter(()), 0, (0.0, 1.0)) == 1.0


def test_median_bandwidth_of_identical_points_is_one():
    x = _set(np.full((400, 3), 2.5))
    assert median_bandwidth(x, x) == 1.0


def test_median_bandwidth_clips_copies_rounded_below_zero():
    """75 copies of one point pooled with 10 copies of another: centring
    leaves the copies away from 0, and the float32 tiles round most of their
    distance-0 entries below 0 unclipped (2820 of 3570 pairs are copies, and
    every pair is gathered). Clipped, they are distance 0, and the median
    heuristic gives 1.0."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = _set(np.tile(rng.standard_normal(64), (75, 1)))
        y = _set(np.tile(rng.standard_normal(64), (10, 1)))
        unclipped = np.concatenate([d2[np.isfinite(d2)] for _, _, d2
                                    in _sq_dist_blocks(*_pooled(x, y), clip=False)])
        if np.median(unclipped) < 0.0:
            break
    else:
        raise AssertionError("no pair of points of the 50 rounds most copy distances below 0")
    assert median_bandwidth(x, y) == 1.0


@pytest.mark.parametrize("seed", range(8))
def test_median_bandwidth_of_copies_is_one_whatever_their_rounding(seed):
    """75 copies of one point: every pairwise distance is 0, and sigma is
    the fallback 1.0. Centring makes every row 0, so the tiles are exactly 0;
    copies left away from 0 (as in the test above) would leave some squares
    at the GEMM's rounding scale, and a median within that bound is the
    distance 0 too."""
    x = _set(np.tile(np.random.default_rng(seed).standard_normal(64), (75, 1)))
    assert median_bandwidth(x, x) == 1.0


def test_median_bandwidth_peak_memory_bound():
    """At the default cap (2048 + 2048 frames of 64 dims) the bracket's
    16384 sampled pairs gather their rows in chunks: gathering both rows of
    every pair at once takes 8 MB each, and would exceed this bound."""
    rng = np.random.default_rng(21)
    a = _set(rng.standard_normal((2048, 64)))
    b = _set(rng.standard_normal((2048, 64)) + 0.1)
    _, peak = _traced_peak(lambda: median_bandwidth(a, b))
    assert peak < 16e6


def test_kad_peak_memory_bound():
    """The median bandwidth and one kad at the default cap (2048 + 2048
    frames of 64 dims) stream their distances in 64 x 4096 float32 tiles
    (1 MB each): the pooled 4096 x 4096 matrix alone would be 67 MB."""
    rng = np.random.default_rng(21)
    a = _set(rng.standard_normal((2048, 64)))
    b = _set(rng.standard_normal((2048, 64)) + 0.1)
    _, peak = _traced_peak(lambda: _kad_median(a, b))
    assert peak < 30e6


def test_kad_norm_overflow_is_numeric_error():
    """Centred rows whose squared distances overflow float64 (1e154) or
    float32 (1e19: squares of 1e38), or whose mean overflows (1e308)."""
    for value in (1e154, 1e19, 1e308):
        a = _set(np.full((3, 2), value))
        with pytest.raises(NumericError, match="overflow"):
            kad(a, -a, 1.0)
        with pytest.raises(NumericError, match="overflow"):
            median_bandwidth(a, -a)


def _float64_kad(a, b):
    """sigma and KAD from scipy's float64 distances: the median of every
    pooled pair's distance, and the unbiased MMD over three Gram matrices."""
    sigma = float(np.median(pdist(np.vstack([a, b]))))
    m, n = len(a), len(b)
    parts = []
    for x, y in ((a, a), (b, b), (a, b)):
        parts.append(np.exp(-cdist(x, y, "sqeuclidean") / (2.0 * sigma * sigma)).sum())
    value = ((parts[0] - m) / (m * (m - 1)) + (parts[1] - n) / (n * (n - 1))
             - 2.0 * parts[2] / (m * n))
    return sigma, value


def _near_duplicates(rng, rows, dims):
    """rows / 4 distinct points, each repeated 4 times with a jitter of 1e-4."""
    base = np.repeat(rng.standard_normal((rows // 4, dims)), 4, axis=0)
    return base + 1e-4 * rng.standard_normal((rows, dims))


@pytest.mark.parametrize("case", ["2048x2", "offset", "near_duplicates"])
def test_float32_tiles_match_float64_oracle(case):
    """sigma within rel 1e-6 and KAD within rel 1e-5 of scipy's float64
    distances: at the default cap (2048 + 2048 rows of 64 dims), for a
    cloud offset by 1e3, whose squared norms are 1e6 times its distances
    until it is centred, and for near-duplicate rows, whose distances of
    about 1e-3 sit beside ones of about 10."""
    rng = np.random.default_rng(31)
    m, n = (2048, 2048) if case == "2048x2" else (700, 500)
    if case == "near_duplicates":
        a, b = _near_duplicates(rng, m, 64), _near_duplicates(rng, n, 64) + 0.3
    else:
        a = rng.standard_normal((m, 64))
        b = 1.2 * rng.standard_normal((n, 64)) + 0.3
        if case == "offset":
            a, b = a + 1e3, b + 1e3
    sigma, value = _float64_kad(a, b)
    assert median_bandwidth(a, b) == pytest.approx(sigma, rel=1e-6)
    assert kad(a, b, median_bandwidth(a, b)) == pytest.approx(value, rel=1e-5)


# --- reconstruction distance ---------------------------------------------------

def test_recon_identical_is_zero():
    rng = np.random.default_rng(11)
    x = _set(rng.standard_normal((20, 4)))
    assert recon_distance(x, x) == 0.0


def test_recon_single_frame_pythagorean():
    a = np.zeros((1, 8))
    b = np.zeros((1, 8))
    b[0, :2] = (3.0, 4.0)
    assert recon_distance(_set(a), _set(b)) == pytest.approx(5.0)


def test_recon_homogeneity():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((30, 4))
    d = rng.standard_normal((30, 4))
    one = recon_distance(_set(a), _set(a + d))
    two = recon_distance(_set(a), _set(a + 2 * d))
    assert two == pytest.approx(2 * one, rel=1e-9)


def test_recon_triangle_inequality():
    rng = np.random.default_rng(13)
    a, b, c = (rng.standard_normal((40, 5)) for _ in range(3))
    assert recon_distance(_set(a), _set(c)) <= (
        recon_distance(_set(a), _set(b)) + recon_distance(_set(b), _set(c)) + 1e-12)

