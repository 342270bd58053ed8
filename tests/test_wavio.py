import struct

import numpy as np
import pytest

from tabflow.errors import DataError
from tabflow.wavio import read_wav, read_wav_with_comment, write_wav


def test_float32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.2, 1.2, 10000).astype(np.float32)  # out-of-range legal
    path = tmp_path / "f.wav"
    write_wav(path, x, 44100, encoding="float32")
    y, rate = read_wav(path)
    assert rate == 44100
    assert y.dtype == np.float32
    assert np.array_equal(x, y)


def test_int16_round_trip_quantized(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 5000).astype(np.float32)
    path = tmp_path / "i.wav"
    write_wav(path, x, 22050, encoding="int16")
    y, rate = read_wav(path)
    assert rate == 22050
    assert np.abs(x - y).max() < 1.0 / 32000


def test_comment_chunk_round_trip(tmp_path):
    path = tmp_path / "c.wav"
    write_wav(path, np.zeros(100, dtype=np.float32), 44100, comment="cfg=abc123")
    samples, rate, comment = read_wav_with_comment(path)
    assert comment == "cfg=abc123"
    assert len(samples) == 100


def test_comment_chunk_invisible_to_plain_reader(tmp_path):
    path = tmp_path / "c2.wav"
    x = np.arange(64, dtype=np.float32) / 64
    write_wav(path, x, 8000, comment="hello")
    y, rate = read_wav(path)
    assert np.array_equal(x, y)


def test_scipy_can_read_our_float_wav(tmp_path):
    from scipy.io import wavfile
    x = np.linspace(-1, 1, 777, dtype=np.float32)
    path = tmp_path / "s.wav"
    write_wav(path, x, 44100, comment="cfg=zzz")
    rate, y = wavfile.read(path)
    assert rate == 44100
    assert np.array_equal(x, y)


def test_rejects_stereo_and_garbage(tmp_path):
    with pytest.raises(DataError, match="mono"):
        write_wav(tmp_path / "x.wav", np.zeros((10, 2)), 44100)
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav file at all")
    with pytest.raises(DataError, match="RIFF"):
        read_wav(bad)


def test_unknown_encoding_rejected(tmp_path):
    with pytest.raises(DataError, match="encoding"):
        write_wav(tmp_path / "x.wav", np.zeros(4), 44100, encoding="mp3")


def _riff(*chunks: tuple[bytes, bytes]) -> bytes:
    body = b"WAVE" + b"".join(tag + struct.pack("<I", len(p)) + p for tag, p in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_short_fmt_chunk_is_data_error(tmp_path):
    path = tmp_path / "short.wav"
    path.write_bytes(_riff((b"fmt ", b"\x03\x00\x01\x00"), (b"data", b"\x00" * 8)))
    with pytest.raises(DataError, match="fmt chunk"):
        read_wav_with_comment(path)


def test_non_utf8_comment_is_data_error(tmp_path):
    path = tmp_path / "latin1.wav"
    write_wav(path, np.zeros(8, dtype=np.float32), 44100, comment="cfg=caf")
    path.write_bytes(path.read_bytes().replace(b"cfg=caf", b"cfg=ca\xe9"))
    with pytest.raises(DataError, match="ICMT comment is not UTF-8"):
        read_wav_with_comment(path)
