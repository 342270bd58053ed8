"""Implementation-independent oracles for the tests.

Nothing here shares code with the modules under test beyond primitive
arithmetic: the DCT oracle is the literal O(N^2) double sum, the pitch oracle
is plain autocorrelation, and the onset counter thresholds a sample-domain
energy envelope. gaussian_2d_pairs draws the seeded endpoints of the
low-dimensional flow tests.
"""

from __future__ import annotations

import numpy as np

from tabflow.errors import DataError


def gaussian_2d_pairs(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Paired draws from N(0, I) and N((3,3), 0.25 I), both [n, 2]."""
    if n < 1:
        raise DataError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n, 2))
    x1 = 3.0 + 0.5 * rng.standard_normal((n, 2))
    return x0, x1


def oracle_dct(frame: np.ndarray) -> np.ndarray:
    """Direct-sum orthonormal DCT-II: X_k = s_k sum_n x_n cos(pi(2n+1)k / 2N)."""
    x = np.asarray(frame, dtype=np.float64)
    n = len(x)
    out = np.empty(n)
    idx = np.arange(n)
    for k in range(n):
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * np.sum(x * np.cos(np.pi * (2 * idx + 1) * k / (2 * n)))
    return out


def oracle_pitch(samples: np.ndarray, sample_rate: int, fmin: float = 50.0,
                 fmax: float = 2000.0) -> float:
    """Autocorrelation fundamental estimate with parabolic peak refinement."""
    x = np.asarray(samples, dtype=np.float64)
    x = x - x.mean()
    if np.max(np.abs(x)) < 1e-9:
        raise DataError("cannot estimate pitch of silence")
    ac = np.correlate(x, x, mode="full")[len(x) - 1:]
    lag_min = max(2, int(sample_rate / fmax))
    lag_max = min(len(ac) - 2, int(sample_rate / fmin))
    if lag_max <= lag_min:
        raise DataError("segment too short for pitch estimation")
    seg = ac[lag_min:lag_max]
    k = int(np.argmax(seg)) + lag_min
    y0, y1, y2 = ac[k - 1], ac[k], ac[k + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    return sample_rate / (k + shift)


def cents_between(f_measured: float, f_reference: float) -> float:
    return 1200.0 * np.log2(f_measured / f_reference)


def rms_db(samples: np.ndarray) -> float:
    """RMS level in dB re full scale."""
    rms = np.sqrt(np.mean(np.square(np.asarray(samples, dtype=np.float64))))
    if rms == 0.0:
        return -np.inf
    return 20.0 * np.log10(rms)


def count_onsets(samples: np.ndarray, sample_rate: int,
                 threshold_ratio: float = 4.0, window_ms: float = 10.0,
                 min_gap_ms: float = 40.0) -> int:
    """Count upward jumps of a short-window energy envelope."""
    x = np.asarray(samples, dtype=np.float64)
    win = max(1, int(sample_rate * window_ms / 1000.0))
    n_win = len(x) // win
    env = np.sqrt(np.mean(x[:n_win * win].reshape(n_win, win) ** 2, axis=1))
    floor = max(env.max() * 1e-3, 1e-9)
    env = np.concatenate([[floor], env])  # a leading note counts as an onset
    onsets = 0
    last = -10 ** 9
    gap = int(min_gap_ms / window_ms)
    for i in range(1, n_win + 1):
        if env[i] > threshold_ratio * max(env[i - 1], floor) and i - last >= gap:
            onsets += 1
            last = i
    return onsets
