import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tabflow.errors import DataError, TabflowError
from tabflow.wavio import read_wav, write_wav


def test_float32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.2, 1.2, 10000).astype(np.float32)  # out-of-range legal
    path = tmp_path / "f.wav"
    write_wav(path, x, 44100, comment="")
    y, rate = read_wav(path)
    assert rate == 44100
    assert y.dtype == np.float32
    assert np.array_equal(x, y)


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
        write_wav(tmp_path / "x.wav", np.zeros((10, 2)), 44100, comment="")
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav file at all")
    with pytest.raises(DataError, match="RIFF"):
        read_wav(bad)


def _old_write_wav_bytes(samples, sample_rate, comment):
    """The file write_wav wrote when it built the whole file as one bytes
    object."""
    data = np.asarray(samples).astype("<f4", copy=False).tobytes()
    fmt_chunk = struct.pack("<HHIIHH", 3, 1, sample_rate, sample_rate * 4, 4, 32)
    text = comment.encode("utf-8") + b"\x00"
    info = b"INFO" + b"ICMT" + struct.pack("<I", len(text)) + text
    if len(text) % 2:
        info += b"\x00"
    body = b"WAVE"
    for tag, payload in [(b"fmt ", fmt_chunk), (b"LIST", info), (b"data", data)]:
        body += tag + struct.pack("<I", len(payload)) + payload
        if len(payload) % 2:
            body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("comment", ["", "a", "cfg=abc123", "cfg=abc1234", "caf\u00e9"])
@pytest.mark.parametrize("n", [0, 1, 4099])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_writer_bytes_match_whole_file_reference(tmp_path, comment, n, dtype):
    """Odd and even comment lengths (with the NUL), 0, 1 and many samples,
    from float32 and float64 arrays and from a strided view."""
    samples = np.random.default_rng(n).uniform(-1.0, 1.0, 2 * n).astype(dtype)
    for x in (samples[:n], samples[::2]):
        path = tmp_path / "w.wav"
        write_wav(path, x, 22050, comment=comment)
        assert path.read_bytes() == _old_write_wav_bytes(x, 22050, comment)


def test_writer_and_reader_peak_memory(tmp_path):
    """The writer sends float32 samples to the file without copying them;
    the reader holds the file once and the samples once."""
    x = np.random.default_rng(3).uniform(-1.0, 1.0, 1 << 20).astype(np.float32)
    path = tmp_path / "big.wav"
    tracemalloc.start()
    try:
        write_wav(path, x, 44100, comment="cfg=abc")
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        y, _ = read_wav(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(x, y)
    assert write_peak < 0.1 * x.nbytes
    assert read_peak < 2.2 * x.nbytes


def _riff(*chunks: tuple[bytes, bytes]) -> bytes:
    body = b"WAVE" + b"".join(tag + struct.pack("<I", len(p)) + p for tag, p in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_int16_file_is_read_scaled(tmp_path):
    """PCM 16-bit input, as other tools write it: each sample over 32767."""
    pcm = np.array([0, 1, -1, 32767, -32768, 12345], dtype="<i2")
    path = tmp_path / "i.wav"
    path.write_bytes(_riff((b"fmt ", struct.pack("<HHIIHH", 1, 1, 22050, 44100, 2, 16)),
                           (b"data", pcm.tobytes())))
    y, rate = read_wav(path)
    assert rate == 22050
    assert y.dtype == np.float32
    assert np.array_equal(y, pcm.astype(np.float32) / 32767.0)


def test_short_fmt_chunk_is_data_error(tmp_path):
    path = tmp_path / "short.wav"
    path.write_bytes(_riff((b"fmt ", b"\x03\x00\x01\x00"), (b"data", b"\x00" * 8)))
    with pytest.raises(DataError, match="fmt chunk"):
        read_wav(path)


def test_non_utf8_comment_reads_samples(tmp_path):
    """The reader skips the comment chunk, so a comment that is not UTF-8
    does not stop the samples being read."""
    path = tmp_path / "latin1.wav"
    x = np.arange(8, dtype=np.float32)
    write_wav(path, x, 44100, comment="cfg=caf")
    path.write_bytes(path.read_bytes().replace(b"cfg=caf", b"cfg=ca\xe9"))
    y, rate = read_wav(path)
    assert np.array_equal(x, y) and rate == 44100


def test_truncated_data_chunk_is_data_error(tmp_path):
    path = tmp_path / "cut.wav"
    write_wav(path, np.zeros(1000, dtype=np.float32), 44100, comment="")
    path.write_bytes(path.read_bytes()[:-400])
    with pytest.raises(DataError, match=r"cut\.wav: b'data' chunk declares 4000 bytes, "
                                        r"but only 3600 remain"):
        read_wav(path)


def test_comment_overrunning_its_list_chunk_reads_samples(tmp_path):
    """A comment that claims more bytes than its LIST chunk holds is inside
    a chunk the reader skips; the LIST chunk itself fits the file."""
    path = tmp_path / "long_comment.wav"
    x = np.arange(8, dtype=np.float32)
    write_wav(path, x, 8000, comment="cfg=abcdef")
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, blob.index(b"ICMT") + 4, 200)
    path.write_bytes(bytes(blob))
    y, rate = read_wav(path)
    assert np.array_equal(x, y) and rate == 8000


def test_missing_final_pad_byte_is_accepted(tmp_path):
    """A last chunk of odd size may end the file without its pad byte."""
    path = tmp_path / "nopad.wav"
    path.write_bytes(_riff((b"fmt ", struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)),
                           (b"data", np.arange(3, dtype="<f4").tobytes()),
                           (b"junk", b"odd")))
    samples, rate = read_wav(path)
    assert samples.tolist() == [0.0, 1.0, 2.0] and rate == 8000


_FMT = st.builds(lambda tag, channels, rate, bits: struct.pack(
    "<HHIIHH", tag, channels, rate, rate * max(bits, 8) // 8 % 2 ** 32, max(bits, 8) // 8,
    bits), st.sampled_from([1, 3, 0xFFFE]), st.integers(0, 2), st.integers(0, 2 ** 32 - 1),
    st.sampled_from([0, 8, 16, 24, 32, 64]))
_INFO = st.builds(lambda sub, text: b"INFO" + sub + struct.pack("<I", len(text)) + text,
                  st.sampled_from([b"ICMT", b"INAM"]), st.binary(max_size=12))
_CHUNK = st.tuples(st.sampled_from([b"fmt ", b"data", b"LIST", b"junk"]),
                   _FMT | _INFO | st.binary(max_size=24))
_VALID = _riff((b"fmt ", struct.pack("<HHIIHH", 3, 1, 44100, 176400, 4, 32)),
               (b"LIST", b"INFO" + b"ICMT" + struct.pack("<I", 6) + b"cfg=a\x00"),
               (b"data", np.arange(3, dtype="<f4").tobytes()))


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=120)
       | st.lists(_CHUNK, max_size=4).map(lambda chunks: _riff(*chunks))
       | st.builds(lambda cut, junk: _VALID[:cut] + junk,
                   st.integers(0, len(_VALID)), st.binary(max_size=16)))
@example(blob=_VALID)
def test_read_wav_of_arbitrary_bytes(tmp_path_factory, blob):
    """Any bytes read as mono float32 samples and a rate, or raise a
    TabflowError."""
    path = tmp_path_factory.getbasetemp() / "arbitrary.wav"
    path.write_bytes(blob)
    try:
        samples, rate = read_wav(path)
    except TabflowError:
        return
    assert samples.ndim == 1 and samples.dtype == np.float32
    assert isinstance(rate, int)
    if blob == _VALID:
        assert (samples.tolist(), rate) == ([0.0, 1.0, 2.0], 44100)
