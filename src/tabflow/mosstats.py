"""Rating-table statistics: Friedman, Wilcoxon signed-rank, Bonferroni, MOS.

Ranks are mid-ranks: a stable argsort puts tied values next to each other,
and each tie group at sorted positions e0..e1 - 1 takes the average rank
(e0 + e1 + 1) / 2, a half-integer, the value scipy.stats.rankdata gives.
Friedman's p-value is the chi-square survival at its integer df = k - 1 in
closed form: exp(-x/2) times the Poisson sum of (x/2)^i / i! over i < df/2
for even df, erfc(sqrt(x/2)) plus the matching finite sum for odd df. The
Wilcoxon test is exact for at most EXACT_LIMIT nonzero differences: it walks
the null distribution of the positive-rank sum by dynamic programming over
doubled ranks (mid-ranks stay integral after doubling). Above that it uses
the normal approximation with tie and continuity corrections, whose normal
tail is 0.5 erfc(z / sqrt(2)). Quartiles use the inclusive (Tukey) method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError

EXACT_LIMIT = 15  # full enumeration bound for the signed-rank null


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str
    df: int | None = None
    zeros_dropped: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise NumericError(f"p-value {self.p_value} outside [0, 1]")


class RatingTable:
    """Complete block design: one row per (rater, item), one column per
    system; from_rows builds the [blocks, systems] grid."""

    def __init__(self, systems: list[str], values: np.ndarray):
        self.systems = list(systems)
        self.values = np.asarray(values, dtype=np.float64)

    @classmethod
    def from_rows(cls, rows: list[tuple[str, str, str, float]]) -> "RatingTable":
        """rows of (rater, item, system, score); every block must be complete."""
        if not rows:
            raise DataError("empty rating table")
        systems = sorted({r[2] for r in rows})
        cells: dict[tuple[str, str], dict[str, float]] = {}
        for rater, item, system, score in rows:
            cell = cells.setdefault((rater, item), {})
            if system in cell:
                raise DataError(f"duplicate rating of rater {rater!r}, item {item!r}, "
                                f"system {system!r}")
            cell[system] = float(score)
        blocks = sorted(cells)
        incomplete = [b for b in blocks if set(cells[b]) != set(systems)]
        if incomplete:
            names = ", ".join(f"{r}/{i}" for r, i in incomplete[:5])
            raise DataError(f"incomplete blocks (rater/item): {names}")
        values = np.array([[cells[b][s] for s in systems] for b in blocks])
        return cls(systems, values)

    def column(self, system: str) -> np.ndarray:
        return self.values[:, self.systems.index(system)]


def _mid_ranks(v: np.ndarray) -> tuple[np.ndarray, float]:
    """1-based mid-ranks of the vector v, and the sum of t^3 - t over the
    sizes t of its tie groups, in ascending order of value."""
    order = np.argsort(v, kind="stable")
    s = v[order]
    # edges[g]:edges[g + 1] are the sorted positions of tie group g
    edges = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1], [True]]))
    sizes = np.diff(edges)
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((edges[:-1] + edges[1:] + 1) / 2.0, sizes)
    return ranks, np.sum(sizes.astype(np.float64) ** 3 - sizes)


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with the integer df >= 1, in closed form.

    With h = x / 2 and s = (df mod 2) / 2 it is the sum over i < df // 2 of
    h^(i + s) e^-h / Gamma(i + s + 1), plus erfc(sqrt(h)) for odd df. Each
    term is taken in logs, so e^-h may underflow where the sum does not."""
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    s = 0.5 * (df % 2)
    p = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    log_h = math.log(h)
    for i in range(df // 2):
        p += math.exp((i + s) * log_h - h - math.lgamma(i + s + 1.0))
    return min(p, 1.0)


def friedman(table: RatingTable) -> TestResult:
    """Friedman chi-square over within-block mid-ranks, tie corrected."""
    n, k = table.values.shape
    if k < 2 or n < 2:
        raise DataError(f"need >= 2 systems and >= 2 blocks, got {k} x {n}")
    ranks, ties = zip(*(_mid_ranks(row) for row in table.values))
    mean_ranks = np.array(ranks).mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * np.sum(mean_ranks ** 2) - 3.0 * n * (k + 1)

    correction = 1.0 - sum(ties) / (n * k * (k * k - 1))
    if correction <= 0.0:
        return TestResult(0.0, 1.0, "friedman (all tied)", df=k - 1)
    stat = float(max(0.0, stat / correction))
    return TestResult(stat, _chi2_sf(stat, k - 1), "friedman", df=k - 1)


def _exact_signed_rank_p(double_ranks: np.ndarray, w_plus_doubled: int) -> float:
    """Two-sided p over all 2^n sign assignments via DP on the doubled-rank sum."""
    total = int(double_ranks.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in double_ranks.astype(int):
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:total + 1 - r]
        counts = counts + shifted
    counts /= counts.sum()
    p_low = counts[:w_plus_doubled + 1].sum()
    p_high = counts[w_plus_doubled:].sum()
    return float(min(1.0, 2.0 * min(p_low, p_high)))


def wilcoxon_signed_rank(x, y) -> TestResult:
    """Two-sided paired signed-rank test; zero differences are dropped.

    Exact for at most EXACT_LIMIT nonzero differences, the normal
    approximation above."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    zeros = int(np.sum(d == 0.0))
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        raise NumericError("degenerate sample: all differences are zero")
    ranks, tie_sum = _mid_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= EXACT_LIMIT:
        double_ranks = np.round(2.0 * ranks).astype(int)
        p = _exact_signed_rank_p(double_ranks, int(round(2.0 * w_plus)))
        return TestResult(w_plus, p, "wilcoxon signed-rank (exact)",
                          zeros_dropped=zeros)

    mean_w = n * (n + 1) / 4.0
    # > 0: its least value, n (n + 1)^2 / 16, is where all n differences tie
    var_w = n * (n + 1) * (2 * n + 1) / 24.0 - tie_sum / 48.0
    z = (abs(w_plus - mean_w) - 0.5) / np.sqrt(var_w)  # continuity corrected
    # twice the normal tail 0.5 erfc(z / sqrt(2))
    p = min(1.0, math.erfc(max(z, 0.0) / math.sqrt(2.0)))
    return TestResult(w_plus, p, "wilcoxon signed-rank (normal approx)",
                      zeros_dropped=zeros)


def bonferroni(alpha: float, m: int) -> float:
    """Corrected per-comparison threshold alpha / m."""
    if not (0.0 < alpha < 1.0):
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    if m < 1:
        raise DataError(f"m must be >= 1, got {m}")
    return alpha / m


def _inclusive_quartiles(sorted_vals: np.ndarray) -> tuple[float, float]:
    """Tukey hinges: medians of the lower/upper halves, median included when odd."""
    n = len(sorted_vals)
    half = (n + 1) // 2
    return float(np.median(sorted_vals[:half])), float(np.median(sorted_vals[-half:]))


def mos_summary(table: RatingTable) -> dict[str, dict[str, float]]:
    """Per-system mean, median, Tukey quartiles, extrema, and count."""
    out: dict[str, dict[str, float]] = {}
    for s in table.systems:
        col = np.sort(table.column(s))
        q1, q3 = _inclusive_quartiles(col)
        out[s] = {
            "mean": float(col.mean()),
            "median": float(np.median(col)),
            "q1": q1,
            "q3": q3,
            "min": float(col[0]),
            "max": float(col[-1]),
            "n": float(len(col)),
        }
    return out
