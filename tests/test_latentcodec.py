import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.fft import dct, idct

from tabflow.errors import DataError
from tabflow.latentcodec import (chunk, decode, encode, frame_count, save_latent,
                                 windowed_frames,
                                 DIMS, FRAME_HOP, FRAME_LEN, _WINDOW, hann_periodic)
from tabflow.stringsynth import AudioBuffer

from oracles import cents_between, oracle_dct, oracle_pitch

FS = 44100


def _noise(n, seed=0, amp=0.5):
    return np.random.default_rng(seed).uniform(-amp, amp, n)


def test_four_second_chunk_has_343_frames():
    z = encode(_noise(4 * FS))
    assert z.shape == (64, 343)
    assert z.shape[-1] == (176400 - 1024) // 512 + 1


def test_frame_count_formula_property():
    for n in (1024, 1025, 4096, 44100, 176400, 176401):
        assert frame_count(n) == (n - 1024) // 512 + 1


def test_encode_rejects_short_audio():
    with pytest.raises(DataError, match="shorter than one frame"):
        encode(_noise(1023))


def test_all_zero_audio_encodes_to_zero_latent():
    assert np.array_equal(encode(np.zeros(4096)), np.zeros((64, 7)))


def test_all_zero_latent_decodes_to_silence():
    assert np.array_equal(decode(np.zeros((64, 7)), np.zeros(4096)), np.zeros(4096, dtype=np.float32))


@pytest.mark.parametrize("size", [1024, 5000, 4 * FS])
@pytest.mark.parametrize("dims", [DIMS])
def test_zero_change_returns_source_interior_bit_for_bit(size, dims):
    x = _noise(size, seed=size).astype(np.float32)
    n_frames = frame_count(size)
    y = decode(np.zeros((dims, n_frames)), x)
    assert y.dtype == np.float32 and y.shape == x.shape
    span = (n_frames + 1) * FRAME_HOP
    assert y[512:span - 512].tobytes() == x[512:span - 512].tobytes()
    assert not y[span:].any()  # past the last frame


def gather_frames(x):
    """Reference oracle: frame through a [F, FRAME_LEN] index array."""
    x = np.asarray(x, dtype=np.float64)
    n_frames = (len(x) - FRAME_LEN) // FRAME_HOP + 1
    idx = np.arange(FRAME_LEN)[None, :] + FRAME_HOP * np.arange(n_frames)[:, None]
    return x[idx] * _WINDOW[None, :]


@pytest.mark.parametrize("n", [1024, 1500, 176400, 176401])
def test_windowed_frames_match_index_gather(n):
    x = _noise(n, seed=n)
    assert windowed_frames(x).tobytes() == gather_frames(x).tobytes()
    # float32 samples widen exactly, so they frame to the same bytes
    x32 = x.astype(np.float32)
    assert windowed_frames(x32).tobytes() == gather_frames(x32).tobytes()


def loop_decode(z):
    """Reference oracle: decode a [D, F] latent with the frame-by-frame
    overlap-add loop, [(F + 1) * FRAME_HOP] samples."""
    dims, n_frames = z.shape
    coeffs = np.zeros((n_frames, FRAME_LEN))
    coeffs[:, :dims] = z.T
    frames = idct(coeffs, type=2, norm="ortho", axis=1) * _WINDOW[None, :]
    n = (n_frames - 1) * FRAME_HOP + FRAME_LEN
    out = np.zeros(n)
    weight = np.zeros(n)
    for k in range(n_frames):
        s = k * FRAME_HOP
        out[s:s + FRAME_LEN] += frames[k]
        weight[s:s + FRAME_LEN] += _WINDOW * _WINDOW
    out /= np.maximum(weight, 0.25)
    return out.astype(np.float32)


def assert_within_one_ulp(got, want):
    """float32 samples at most one float32 ulp apart. Near zero the floor is
    the float64 sums' own rounding, about 1e-16 of their unit-scale terms,
    which can exceed the ulp of a sample that cancels to almost nothing."""
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    ulp = np.spacing(np.maximum(np.maximum(np.abs(got), np.abs(want)), np.float32(2.0 ** -30)))
    assert np.all(np.abs(got - want) <= ulp)


@pytest.mark.parametrize("n_frames", [1, 2, 3, 40])
@pytest.mark.parametrize("dims", [DIMS])
def test_decode_matches_frame_loop(n_frames, dims):
    """Silent source: decode is the synthesis of z alone. It synthesizes by
    GEMM, whose float64 sums may round to the neighbouring float32."""
    z = np.random.default_rng(n_frames + dims).standard_normal((n_frames, dims)).T
    got = decode(z, np.zeros((n_frames + 1) * FRAME_HOP))
    assert_within_one_ulp(got, loop_decode(z))


@given(size=st.integers(1024, 6000), seed=st.integers(0, 2 ** 16))
@example(size=1024, seed=0)  # one frame
@example(size=5000, seed=1)  # not a whole number of hops
@settings(max_examples=25, deadline=None)
def test_decode_matches_full_band_round_trip(size, seed):
    """decode(dz, x) is the full 1024-coefficient DCT of x with its first
    DIMS rows moved by dz, decoded by IDCT, and zeros past the last frame."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size).astype(np.float32)
    full = dct(windowed_frames(x), type=2, norm="ortho", axis=-1).T
    dz = 0.1 * rng.standard_normal((DIMS, full.shape[-1]))
    full[:DIMS] += dz
    want = np.zeros(size, dtype=np.float32)
    decoded = loop_decode(full)
    want[:len(decoded)] = decoded
    assert_within_one_ulp(decode(dz, x), want)


@given(n_chunks=st.integers(1, 4), size=st.integers(1024, 6000),
       seed=st.integers(0, 2 ** 16), f32=st.booleans())
@settings(max_examples=25, deadline=None)
def test_stack_codec_matches_per_row_calls(n_chunks, size, seed, f32):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_chunks, size))
    x = x.astype(np.float32) if f32 else x
    z = encode(x)
    assert z.shape == (n_chunks, DIMS, frame_count(size)) and z.flags.owndata
    rows = [encode(row) for row in x]
    assert z.tobytes() == np.stack(rows).tobytes()
    assert decode(z, x).tobytes() == np.stack([decode(r, row) for r, row in zip(rows, x)]).tobytes()


@given(n_chunks=st.integers(1, 4), size=st.integers(1024, 6000),
       seed=st.integers(0, 2 ** 16), f32=st.booleans())
@example(n_chunks=1, size=1024, seed=0, f32=False)  # one frame
@example(n_chunks=3, size=5000, seed=1, f32=True)  # not a whole number of hops
@settings(max_examples=25, deadline=None)
def test_64_dim_encode_matches_dct_of_windowed_frames(n_chunks, size, seed, f32):
    """The half-frame GEMM gives the FFT DCT's leading 64 coefficients."""
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_chunks, size))
    x = x.astype(np.float32) if f32 else x
    z = encode(x)
    want = dct(windowed_frames(x), type=2, norm="ortho", axis=-1)[..., :DIMS].swapaxes(-1, -2)
    assert z.shape == want.shape and z.dtype == np.float64
    assert np.abs(z - want).max() <= 1e-12 * np.abs(want).max()


def test_impulse_frame_zero_matches_windowed_dct():
    x = np.zeros(4096)
    x[0] = 1.0
    z = encode(x)
    windowed = np.zeros(FRAME_LEN)
    windowed[0] = hann_periodic(FRAME_LEN)[0]
    np.testing.assert_allclose(z[:, 0], oracle_dct(windowed)[:DIMS], atol=1e-12)
    # frames 2+ never see sample 0
    assert np.abs(z[:, 2:]).max() == 0.0


def test_codec_matches_direct_sum_dct_oracle():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2048)
    z = encode(x)
    frame0 = x[:FRAME_LEN] * hann_periodic(FRAME_LEN)
    expected = oracle_dct(frame0)[:DIMS]
    worst = np.max(np.abs(z[:, 0] - expected)) / np.max(np.abs(expected))
    assert worst < 1e-9


def test_lossy_mode_preserves_fundamental():
    t = np.arange(4 * FS) / FS
    x = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    out = decode(encode(x), np.zeros_like(x))
    f = oracle_pitch(out[FS:2 * FS], FS)
    assert abs(cents_between(f, 440.0)) < 5.0


def test_encode_linearity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(8192)
    y = rng.standard_normal(8192)
    np.testing.assert_allclose(encode(2.0 * x - 0.5 * y),
                               2.0 * encode(x) - 0.5 * encode(y), atol=1e-12)


def test_chunk_arithmetic():
    ten_sec = AudioBuffer(_noise(10 * FS))
    chunks = chunk(ten_sec)
    assert chunks.shape == (3, 4 * FS)
    assert np.array_equal(chunks.reshape(-1)[:10 * FS], ten_sec.samples)
    assert np.array_equal(chunks[2, 2 * FS:], np.zeros(2 * FS))


def test_exact_multiple_needs_no_padding():
    four = AudioBuffer(_noise(4 * FS, seed=1))
    chunks = chunk(four)
    assert chunks.shape == (1, 4 * FS)
    assert np.array_equal(chunks[0], four.samples)


@given(st.integers(1024, 20000))
@settings(max_examples=30, deadline=None)
def test_frame_count_matches_closed_form(n):
    z = encode(_noise(n, seed=n % 7))
    assert z.shape[-1] == (n - 1024) // 512 + 1


def test_encode_returns_owned_frames():
    # a view would keep the [F + 1, 2 * DIMS] half-frame products alive
    assert encode(_noise(8192)).flags.owndata
    assert encode(_noise(1024)).flags.owndata  # one frame


def test_latent_cache_round_trip(tmp_path):
    z = encode(_noise(8192, seed=8))
    path = tmp_path / "x.chunk0.lat"
    save_latent(path, z, FS)
    data = path.read_bytes()
    # header (F, D, hop, frame length, rate), then the coefficients frame by frame
    assert data[:20] == struct.pack("<5I", 15, 64, FRAME_HOP, FRAME_LEN, FS)
    assert data[20:] == z.T.astype("<f4").tobytes()
