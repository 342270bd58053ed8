import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import idct

from tabflow.errors import DataError
from tabflow.latentcodec import (ChunkPair, LatentSeq, chunk, dechunk, decode,
                                 encode, frame_count, load_latent, save_latent,
                                 FRAME_HOP, FRAME_LEN, _WINDOW, hann_periodic)
from tabflow.stringsynth import AudioBuffer
from tabflow.fixtures import oracle_dct, oracle_pitch, cents_between, rms_db

FS = 44100


def _noise(n, seed=0, amp=0.5):
    return AudioBuffer(np.random.default_rng(seed).uniform(-amp, amp, n), FS)


def test_four_second_chunk_has_343_frames():
    lat = encode(_noise(4 * FS), 64)
    assert lat.n_frames == 343
    assert lat.n_frames == (176400 - 1024) // 512 + 1


def test_frame_count_formula_property():
    for n in (1024, 1025, 4096, 44100, 176400, 176401):
        assert frame_count(n) == (n - 1024) // 512 + 1


def test_encode_rejects_short_audio():
    with pytest.raises(DataError, match="shorter than one frame"):
        encode(_noise(1023), 64)


def test_all_zero_audio_encodes_to_zero_latent():
    lat = encode(AudioBuffer(np.zeros(4096), FS), 64)
    assert np.array_equal(lat.frames, np.zeros((7, 64)))


def test_all_zero_latent_decodes_to_silence():
    lat = LatentSeq(np.zeros((7, 64)))
    assert np.array_equal(decode(lat).samples, np.zeros(7 * 512 + 512, dtype=np.float32))


def loop_decode(latent):
    """Reference oracle: decode with the frame-by-frame overlap-add loop."""
    coeffs = np.zeros((latent.n_frames, FRAME_LEN))
    coeffs[:, :latent.dims] = latent.frames
    frames = idct(coeffs, type=2, norm="ortho", axis=1) * _WINDOW[None, :]
    n = (latent.n_frames - 1) * FRAME_HOP + FRAME_LEN
    out = np.zeros(n)
    weight = np.zeros(n)
    for k in range(latent.n_frames):
        s = k * FRAME_HOP
        out[s:s + FRAME_LEN] += frames[k]
        weight[s:s + FRAME_LEN] += _WINDOW * _WINDOW
    out /= np.maximum(weight, 0.25)
    return out.astype(np.float32)


@pytest.mark.parametrize("n_frames", [1, 2, 3, 40])
@pytest.mark.parametrize("dims", [64, 1024])
def test_decode_matches_frame_loop(n_frames, dims):
    frames = np.random.default_rng(n_frames + dims).standard_normal((n_frames, dims))
    latent = LatentSeq(frames)
    assert decode(latent).samples.tobytes() == loop_decode(latent).tobytes()


def test_impulse_frame_zero_matches_windowed_dct():
    x = np.zeros(4096)
    x[0] = 1.0
    lat = encode(AudioBuffer(x, FS), 1024)
    windowed = np.zeros(FRAME_LEN)
    windowed[0] = hann_periodic(FRAME_LEN)[0]
    np.testing.assert_allclose(lat.frames[0], oracle_dct(windowed), atol=1e-12)
    # frames 2+ never see sample 0
    assert np.abs(lat.frames[2:]).max() == 0.0


def test_codec_matches_direct_sum_dct_oracle():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2048)
    lat = encode(AudioBuffer(x, FS), 1024)
    frame0 = x[:FRAME_LEN] * hann_periodic(FRAME_LEN)
    expected = oracle_dct(frame0)
    worst = np.max(np.abs(lat.frames[0] - expected)) / np.max(np.abs(expected))
    assert worst < 1e-9


def test_full_mode_round_trip_below_minus_80_dbfs():
    audio = _noise(4 * FS, seed=3)
    out = decode(encode(audio, 1024)).samples.astype(np.float64)
    n = len(out)
    err = out[512:n - 512] - audio.samples[512:n - 512]
    assert rms_db(err) < -80.0


def test_lossy_mode_preserves_fundamental():
    t = np.arange(4 * FS) / FS
    sine = AudioBuffer(0.5 * np.sin(2 * np.pi * 440.0 * t), FS)
    out = decode(encode(sine, 64)).samples
    f = oracle_pitch(out[FS:2 * FS], FS)
    assert abs(cents_between(f, 440.0)) < 5.0


def test_encode_linearity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(8192)
    y = rng.standard_normal(8192)
    lx = encode(AudioBuffer(x, FS), 64).frames
    ly = encode(AudioBuffer(y, FS), 64).frames
    lxy = encode(AudioBuffer(2.0 * x - 0.5 * y, FS), 64).frames
    np.testing.assert_allclose(lxy, 2.0 * lx - 0.5 * ly, atol=1e-12)


def test_orthonormal_energy_per_frame():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4096)
    lat = encode(AudioBuffer(x, FS), 1024)
    w = hann_periodic(FRAME_LEN)
    for k in range(lat.n_frames):
        frame = x[k * 512:k * 512 + FRAME_LEN] * w
        rel = abs(np.linalg.norm(lat.frames[k]) - np.linalg.norm(frame))
        assert rel / np.linalg.norm(frame) < 1e-9


def test_chunk_arithmetic():
    ten_sec = _noise(10 * FS)
    chunks = chunk(ten_sec, 4.0)
    assert len(chunks) == 3
    assert all(len(c.samples) == 4 * FS for c in chunks)
    assert np.array_equal(chunks[2].samples[2 * FS:], np.zeros(2 * FS))


def test_exact_multiple_needs_no_padding():
    four = _noise(4 * FS, seed=1)
    chunks = chunk(four, 4.0)
    assert len(chunks) == 1
    assert np.array_equal(chunks[0].samples, four.samples)


def test_chunk_dechunk_round_trip():
    audio = _noise(int(9.7 * FS), seed=2)
    chunks = chunk(audio, 4.0)
    back = dechunk(chunks, len(audio.samples))
    assert np.array_equal(back.samples, audio.samples)


@given(st.integers(1024, 20000))
@settings(max_examples=30, deadline=None)
def test_frame_count_matches_closed_form(n):
    lat = encode(_noise(n, seed=n % 7), 64)
    assert lat.n_frames == (n - 1024) // 512 + 1


def test_latent_dims_validated():
    with pytest.raises(DataError, match="dims"):
        encode(_noise(4096), 100)
    with pytest.raises(DataError, match="dims"):
        LatentSeq(np.zeros((3, 10)))


def test_chunk_pair_shape_validated():
    a = LatentSeq(np.zeros((4, 64)))
    b = LatentSeq(np.zeros((5, 64)))
    with pytest.raises(DataError, match="pair"):
        ChunkPair(a, b)
    ChunkPair(a, LatentSeq(np.ones((4, 64))))


def test_latent_cache_round_trip(tmp_path):
    lat = encode(_noise(8192, seed=8), 64)
    path = tmp_path / "x.chunk0.lat"
    save_latent(path, lat)
    back = load_latent(path)
    assert back.n_frames == lat.n_frames and back.dims == 64
    assert back.sample_rate == FS
    np.testing.assert_allclose(back.frames, lat.frames.astype(np.float32), rtol=0, atol=0)


def test_latent_file_with_other_framing_rejected(tmp_path):
    path = tmp_path / "x.chunk0.lat"
    save_latent(path, encode(_noise(8192), 64))
    data = bytearray(path.read_bytes())
    data[8:12] = struct.pack("<I", 256)  # header hop field
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="hop 256"):
        load_latent(path)


def test_latent_cache_rejects_truncation(tmp_path):
    lat = encode(_noise(8192), 64)
    path = tmp_path / "x.chunk0.lat"
    save_latent(path, lat)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(DataError, match="coefficients"):
        load_latent(path)
