import numpy as np
import pytest
from scipy.fft import dct

from tabflow.errors import DataError
from tabflow.fixtures import random_score, toy_corpus
from tabflow.tabscore import parse_score, serialize_score

from oracles import (cents_between, count_onsets, gaussian_2d_pairs, oracle_dct,
                     oracle_pitch, rms_db)


def test_gaussian_pairs_seeded_and_sized():
    x0, x1 = gaussian_2d_pairs(500, seed=3)
    assert x0.shape == x1.shape == (500, 2)
    y0, y1 = gaussian_2d_pairs(500, seed=3)
    assert np.array_equal(x0, y0) and np.array_equal(x1, y1)


def test_gaussian_pairs_single():
    x0, x1 = gaussian_2d_pairs(1, seed=0)
    assert x0.shape == (1, 2)


def test_gaussian_pairs_clt_bound():
    n = 4000
    x0, x1 = gaussian_2d_pairs(n, seed=1)
    assert np.linalg.norm(x0.mean(axis=0)) < 3.0 / np.sqrt(n) * 2
    assert np.linalg.norm(x1.mean(axis=0) - 3.0) < 3.0 / np.sqrt(n) * 2
    assert np.allclose(x1.var(axis=0), 0.25, atol=0.05)


def test_gaussian_pairs_rejects_zero():
    with pytest.raises(DataError):
        gaussian_2d_pairs(0)


def test_oracle_dct_constant_frame_is_dc_only():
    out = oracle_dct(np.full(64, 2.0))
    assert abs(out[0] - 2.0 * np.sqrt(64)) < 1e-9
    assert np.abs(out[1:]).max() < 1e-9


def test_oracle_dct_impulse_gives_sampled_basis():
    n = 32
    frame = np.zeros(n)
    frame[3] = 1.0
    out = oracle_dct(frame)
    k = np.arange(n)
    scale = np.where(k == 0, np.sqrt(1 / n), np.sqrt(2 / n))
    expected = scale * np.cos(np.pi * (2 * 3 + 1) * k / (2 * n))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_oracle_dct_matches_library_transform():
    rng = np.random.default_rng(2)
    frame = rng.standard_normal(1024)
    mine = oracle_dct(frame)
    lib = dct(frame, type=2, norm="ortho")
    assert np.max(np.abs(mine - lib)) / np.max(np.abs(lib)) < 1e-9


def test_oracle_pitch_on_pure_tone():
    fs = 44100
    t = np.arange(fs) / fs
    for f0 in (82.41, 220.0, 659.26):
        x = np.sin(2 * np.pi * f0 * t)
        f = oracle_pitch(x, fs)
        assert abs(cents_between(f, f0)) < 3.0


def test_rms_db_known_values():
    assert rms_db(np.ones(100)) == pytest.approx(0.0)
    assert rms_db(0.1 * np.ones(100)) == pytest.approx(-20.0)
    assert rms_db(np.zeros(10)) == -np.inf


def test_count_onsets_counts_bursts():
    fs = 44100
    x = np.zeros(fs * 2)
    rng = np.random.default_rng(0)
    for start in (0.1, 0.7, 1.4):
        k = int(start * fs)
        x[k:k + 2000] = rng.uniform(-0.5, 0.5, 2000) * np.exp(-np.arange(2000) / 600)
    assert count_onsets(x, fs) == 3


def test_random_score_valid_and_parsable():
    rng = np.random.default_rng(4)
    for _ in range(5):
        score = random_score(rng, target_seconds=10.0)
        assert parse_score(serialize_score(score)) == score
        assert score.events


def test_toy_corpus_deterministic():
    a = toy_corpus(4, seed=7, target_seconds=6.0)
    b = toy_corpus(4, seed=7, target_seconds=6.0)
    assert a == b
    c = toy_corpus(4, seed=8, target_seconds=6.0)
    assert a != c
