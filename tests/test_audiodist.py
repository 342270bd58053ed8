import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tabflow.audiodist import (BLOCK_ROWS, EMBED_DIMS, _filterbank, _median_sqrt,
                               _sq_dist_blocks, band_edges, embed, fad, frechet_gaussian,
                               kad, median_bandwidth, recon_distance, LOG_FLOOR)
from tabflow.errors import DataError, NumericError
from tabflow.latentcodec import encode, windowed_frames
from tabflow.stringsynth import AudioBuffer

FS = 44100


def _set(arr):
    return np.asarray(arr, dtype=np.float64)


def band_of(freq: float, n_bands: int = EMBED_DIMS) -> int:
    """Index of the band with the strongest triangle response at freq."""
    edges = band_edges(n_bands)
    lo, mid, hi = edges[:-2], edges[1:-1], edges[2:]
    up = (freq - lo) / (mid - lo)
    down = (hi - freq) / (hi - mid)
    return int(np.argmax(np.clip(np.minimum(up, down), 0.0, None)))


# --- embedding ----------------------------------------------------------------

@pytest.mark.parametrize("rate", [16000, 22050, 44100, 48000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_bytes_match_full_bin_oracle(rate, dtype):
    """embed frames the samples as given and stops the spectrum at the bank's
    last nonzero bin; its rows are still the bytes of a float64 cast, all 513
    bins and a freshly built bank."""
    samples = (0.3 * np.random.default_rng(rate).standard_normal(30000)).astype(dtype)
    frames = windowed_frames(np.asarray(samples, dtype=np.float64))
    mags = np.abs(np.fft.rfft(frames, axis=1))
    want = np.log(mags @ _filterbank(rate).T + LOG_FLOOR)
    assert np.array_equal(embed(AudioBuffer(samples, rate)), want)


def test_embed_with_no_band_below_nyquist_is_log_floor():
    """At 100 Hz every bin lies below the lowest band, so the bank has no
    nonzero column and every row is the floor."""
    assert not _filterbank(100).any()
    e = embed(AudioBuffer(np.ones(4096, dtype=np.float32), 100))
    assert e.shape == (7, EMBED_DIMS) and np.all(e == np.log(LOG_FLOOR))


def test_silence_embeds_to_constant_log_floor():
    e = embed(AudioBuffer(np.zeros(8192), FS))
    assert np.allclose(e, np.log(LOG_FLOOR))


def test_sine_activates_band_containing_440():
    t = np.arange(2 * FS) / FS
    e = embed(AudioBuffer(0.5 * np.sin(2 * np.pi * 440.0 * t), FS))
    expected = band_of(440.0)
    assert np.all(np.argmax(e, axis=1) == expected)


def test_frame_count_matches_codec():
    rng = np.random.default_rng(0)
    audio = AudioBuffer(rng.uniform(-0.3, 0.3, 50000), FS)
    assert len(embed(audio)) == encode(audio.samples, 64).shape[-1]


def test_embed_rejects_short_audio():
    with pytest.raises(DataError):
        embed(AudioBuffer(np.zeros(512), FS))


def test_embedding_is_deterministic():
    rng = np.random.default_rng(1)
    audio = AudioBuffer(rng.uniform(-0.3, 0.3, 20000), FS)
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


def test_fad_dim_mismatch_rejected():
    with pytest.raises(DataError):
        fad(_set(np.zeros((10, 3))), _set(np.zeros((10, 4))))


def test_fad_needs_two_vectors():
    with pytest.raises(DataError):
        fad(_set(np.zeros((1, 3))), _set(np.zeros((10, 3))))


# --- KAD ----------------------------------------------------------------------

def test_kad_same_distribution_magnitude_small():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((2000, 1))
    assert abs(kad(_set(z[:1000]), _set(z[1000:]))) < 0.01


def test_kad_separation_exceeds_10x_baseline():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((2000, 1))
    baseline = abs(kad(_set(z[:1000]), _set(z[1000:])))
    shifted = kad(_set(rng.standard_normal((1000, 1))),
                  _set(rng.standard_normal((1000, 1)) + 5.0))
    assert shifted > 10 * max(baseline, 1e-6)


def test_kad_hand_computed_two_point_sets():
    a = _set(np.zeros((2, 1)))
    b = _set(np.ones((2, 1)))
    expected = 1.0 + 1.0 - 2.0 * np.exp(-0.5)  # k(0,0)=k(1,1)=1, k(0,1)=e^-1/2
    assert kad(a, b, bandwidth=1.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, 1e-200, 1e-160, float("nan"),
                                       float("inf"), float("-inf")])
def test_kad_rejects_bad_bandwidth(bandwidth):
    """Not finite and > 0, or 1 / (2 sigma^2) not finite (sigma^2 underflows to
    0 at 1e-200, 1 / (2 sigma^2) overflows at 1e-160)."""
    with pytest.raises(DataError, match="kad bandwidth must be finite and > 0"):
        kad(_set(np.zeros((3, 2))), _set(np.ones((3, 2))), bandwidth=bandwidth)


def test_kad_symmetry():
    rng = np.random.default_rng(9)
    a = _set(rng.standard_normal((200, 3)))
    b = _set(rng.standard_normal((200, 3)) + 0.4)
    assert kad(a, b) == pytest.approx(kad(b, a), abs=1e-9)


def test_median_bandwidth_positive():
    rng = np.random.default_rng(10)
    a = _set(rng.standard_normal((50, 2)))
    b = _set(rng.standard_normal((50, 2)))
    assert median_bandwidth(a, b) > 0


def _augmented(pooled):
    """The operands [-2P | sq | 1] and [P | 1 | sq] whose product is the
    pooled squared-distance matrix, built apart from audiodist."""
    sq = np.sum(pooled ** 2, axis=1)[:, None]
    ones = np.ones_like(sq)
    return np.hstack([-2.0 * pooled, sq, ones]), np.hstack([pooled, ones, sq])


def _triu_median(a, b):
    """np.median of the distances over the strict upper triangle of the
    whole augmented product."""
    left, right = _augmented(np.vstack([a, b]))
    d2 = left @ right.T
    iu = np.triu_indices(len(d2), k=1)
    return float(np.median(np.sqrt(np.clip(d2[iu], 0.0, None))))


def test_tile_distances_are_the_three_term_formula():
    """Each tile's finite entries are its rows of the augmented GEMM clipped
    at 0, bit for bit, and +inf marks exactly the diagonal and below of its
    leading square."""
    pooled = 3.0 * np.random.default_rng(0).standard_normal((300, 64))
    sq = np.sum(pooled ** 2, axis=1)
    left, right = _augmented(pooled)
    spans = []
    for r0, r1, d2 in _sq_dist_blocks(pooled, sq):
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
    assert median_bandwidth(a, b) == _triu_median(a, b)


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
    assert kad(a, b) == pytest.approx(kad(*centred), rel=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_kad_matches_three_gram_formula(seed):
    """kad takes sigma and its three kernel blocks from one pooled distance
    matrix; it equals three separate Gram matrices under the same sigma, and
    its default sigma is median_bandwidth's exactly."""
    rng = np.random.default_rng(seed)
    m, n, dims = rng.integers(2, 300, size=2).tolist() + [int(rng.integers(1, 9))]
    a = _set(rng.standard_normal((m, dims)))
    b = _set(rng.standard_normal((n, dims)) + 0.3)
    sigma = median_bandwidth(a, b)
    assert kad(a, b) == kad(a, b, bandwidth=sigma)

    def gram(x, y):
        d2 = (np.sum(x ** 2, axis=1)[:, None] + np.sum(y ** 2, axis=1)[None, :]
              - 2.0 * (x @ y.T))
        return np.exp(-np.clip(d2, 0.0, None) / (2.0 * sigma * sigma))

    kaa, kbb = gram(a, a), gram(b, b)
    expected = ((kaa.sum() - np.trace(kaa)) / (m * (m - 1))
                + (kbb.sum() - np.trace(kbb)) / (n * (n - 1))
                - 2.0 * gram(a, b).mean())
    assert kad(a, b) == pytest.approx(expected, rel=0, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_median_bandwidth_exact_over_many_blocks(seed):
    """Small-integer points make every distance exact in float64 and tie
    many of them; pooled over more than one block, the streamed median is
    still the triu_indices formula's exactly."""
    rng = np.random.default_rng(100 + seed)
    m, n = rng.integers(300, 900, size=2).tolist()
    dims = int(rng.integers(1, 9))
    a = _set(rng.integers(-3, 4, size=(m, dims)))
    b = _set(rng.integers(-2, 5, size=(n, dims)))
    assert m + n > BLOCK_ROWS
    assert median_bandwidth(a, b) == _triu_median(a, b)


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
    assert kad(a, b) == kad(a, b, bandwidth=sigma)

    def gram(x, y):
        d2 = (np.sum(x ** 2, axis=1)[:, None] + np.sum(y ** 2, axis=1)[None, :]
              - 2.0 * (x @ y.T))
        return np.exp(-np.clip(d2, 0.0, None) / (2.0 * sigma * sigma))

    kaa, kbb = gram(a, a), gram(b, b)
    expected = ((kaa.sum() - np.trace(kaa)) / (m * (m - 1))
                + (kbb.sum() - np.trace(kbb)) / (n * (n - 1))
                - 2.0 * gram(a, b).mean())
    assert kad(a, b) == pytest.approx(expected, rel=0, abs=1e-12)


_TIED = st.sampled_from([0.0, 0.0, 1.0, 2.25, 2.25, 4.0, 1e-300, 1e300])


@settings(max_examples=150, deadline=None)
@given(values=st.lists(_TIED | st.floats(0.0, 1e6), min_size=1, max_size=400),
       width=st.integers(1, 64), data=st.data())
@example(values=[0.0] * 10, width=3, data=None)     # all equal: sigma 1.0
@example(values=[3.0], width=1, data=None)          # a single pair
@example(values=[0.0, 0.0, 9.0, 9.0], width=3, data=None)
def test_median_selector_matches_np_median(values, width, data):
    """The streamed selector gives np.median of sqrt exactly, through the
    every-pair bracket, through a bracket that holds the middle, and through
    brackets that miss it, which fall back to gathering every entry."""
    vals = np.array(values)
    med = float(np.median(np.sqrt(vals)))
    expected = med if med > 0.0 else 1.0
    # rows of `width` entries, the last one padded with skipped (+inf) entries
    rows = np.full((-(-len(vals) // width), width), np.inf)
    rows.reshape(-1)[:len(vals)] = vals

    def passes():
        return (rows[r:r + 2].copy() for r in range(0, len(rows), 2))

    brackets = [(0.0, np.finfo(np.float64).max), (1.0, 2.25), (7.0, 5e5)]
    if data is not None:
        lo, hi = sorted(data.draw(st.sampled_from(values)) for _ in range(2))
        brackets.append((lo, hi))
    for bracket in brackets:
        assert _median_sqrt(passes, len(vals), bracket) == expected


def test_median_selector_no_entries():
    assert _median_sqrt(lambda: iter(()), 0, (0.0, 1.0)) == 1.0


def test_median_bandwidth_of_identical_points_is_one():
    x = _set(np.full((400, 3), 2.5))
    assert median_bandwidth(x, x) == 1.0


def test_kad_peak_memory_bound():
    """One kad at the default cap (2048 + 2048 frames of 64 dims) streams its
    distances in 64 x 4096 tiles (2 MB each): the pooled 4096 x 4096 matrix
    alone would be 134 MB."""
    rng = np.random.default_rng(21)
    a = _set(rng.standard_normal((2048, 64)))
    b = _set(rng.standard_normal((2048, 64)) + 0.1)
    tracemalloc.start()
    try:
        kad(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_kad_norm_overflow_is_numeric_error():
    a = _set(np.full((3, 2), 1e154))
    with pytest.raises(NumericError, match="overflow"):
        kad(a, -a)
    with pytest.raises(NumericError, match="overflow"):
        median_bandwidth(a, -a)


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


def test_recon_frame_mismatch_rejected():
    with pytest.raises(DataError, match="aligned"):
        recon_distance(_set(np.zeros((3, 4))), _set(np.zeros((4, 4))))


# --- input checks ----------------------------------------------------------------

_GOOD = np.zeros((4, 3))


def _nan_rows():
    x = np.zeros((4, 3))
    x[2, 1] = np.nan
    return x


@pytest.mark.parametrize("metric", [fad, kad, recon_distance])
@pytest.mark.parametrize("bad, match", [(np.zeros(12), "2-D"),
                                        (_nan_rows(), "non-finite"),
                                        (np.zeros((4, 5)), "dims differ")])
def test_distances_reject_malformed_embeddings(metric, bad, match):
    with pytest.raises(DataError, match=match):
        metric(_GOOD, bad)
    with pytest.raises(DataError, match=match):
        metric(bad, _GOOD)
