"""Rating-table statistics: Friedman, Wilcoxon signed-rank, Bonferroni, MOS.

Ranks use mid-ranks for ties throughout. The Wilcoxon exact mode walks the
null distribution of the positive-rank sum by dynamic programming over
doubled ranks (mid-ranks stay integral after doubling); the approximate mode
uses the normal approximation with tie and continuity corrections. Quartiles
use the inclusive (Tukey) method.
"""

from __future__ import annotations

import csv
import io
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
    """Complete block design: one row per (rater, item), one column per system."""

    def __init__(self, systems: list[str], blocks: list[tuple[str, str]],
                 values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(blocks), len(systems)):
            raise DataError(f"values shape {values.shape} does not match "
                            f"{len(blocks)} blocks x {len(systems)} systems")
        self.systems = list(systems)
        self.blocks = list(blocks)
        self.values = values

    @classmethod
    def from_rows(cls, rows: list[tuple[str, str, str, float]]) -> "RatingTable":
        """rows of (rater, item, system, score); every block must be complete."""
        if not rows:
            raise DataError("empty rating table")
        systems = sorted({r[2] for r in rows})
        cells: dict[tuple[str, str], dict[str, float]] = {}
        for rater, item, system, score in rows:
            cells.setdefault((rater, item), {})[system] = float(score)
        blocks = sorted(cells)
        incomplete = [b for b in blocks if set(cells[b]) != set(systems)]
        if incomplete:
            names = ", ".join(f"{r}/{i}" for r, i in incomplete[:5])
            raise DataError(f"incomplete blocks (rater/item): {names}")
        values = np.array([[cells[b][s] for s in systems] for b in blocks])
        return cls(systems, blocks, values)

    def column(self, system: str) -> np.ndarray:
        return self.values[:, self.systems.index(system)]


def friedman(table: RatingTable) -> TestResult:
    """Friedman chi-square over within-block mid-ranks, tie corrected."""
    from scipy.stats import chi2, rankdata  # loaded on first use: only stats needs it
    n, k = table.values.shape
    if k < 2 or n < 2:
        raise DataError(f"need >= 2 systems and >= 2 blocks, got {k} x {n}")
    ranks = rankdata(table.values, axis=1)
    mean_ranks = ranks.mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * np.sum(mean_ranks ** 2) - 3.0 * n * (k + 1)

    tie_sum = 0.0
    for row in table.values:
        _, counts = np.unique(row, return_counts=True)
        tie_sum += np.sum(counts.astype(np.float64) ** 3 - counts)
    correction = 1.0 - tie_sum / (n * k * (k * k - 1))
    if correction <= 0.0:
        return TestResult(0.0, 1.0, "friedman (all tied)", df=k - 1)
    stat = max(0.0, stat / correction)
    p = float(chi2.sf(stat, df=k - 1))
    return TestResult(float(stat), p, "friedman", df=k - 1)


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


def wilcoxon_signed_rank(x, y, mode: str = "auto") -> TestResult:
    """Two-sided paired signed-rank test; zero differences are dropped."""
    from scipy.stats import norm, rankdata  # loaded on first use: only stats needs it
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"paired samples must be equal-length vectors: "
                        f"{x.shape} vs {y.shape}")
    d = x - y
    zeros = int(np.sum(d == 0.0))
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        raise NumericError("degenerate sample: all differences are zero")
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if mode == "auto":
        mode = "exact" if n <= EXACT_LIMIT else "approx"
    if mode == "exact":
        if n > EXACT_LIMIT:
            raise DataError(f"exact mode limited to n <= {EXACT_LIMIT}, got {n}")
        double_ranks = np.round(2.0 * ranks).astype(int)
        p = _exact_signed_rank_p(double_ranks, int(round(2.0 * w_plus)))
        return TestResult(w_plus, p, "wilcoxon signed-rank (exact)",
                          zeros_dropped=zeros)
    if mode != "approx":
        raise DataError(f"mode must be exact, approx or auto, got {mode!r}")

    mean_w = n * (n + 1) / 4.0
    _, counts = np.unique(np.abs(d), return_counts=True)
    tie_term = np.sum(counts.astype(np.float64) ** 3 - counts) / 48.0
    var_w = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var_w <= 0.0:
        raise NumericError("degenerate sample: zero variance after ties")
    z = (abs(w_plus - mean_w) - 0.5) / np.sqrt(var_w)  # continuity corrected
    p = float(min(1.0, 2.0 * norm.sf(max(z, 0.0))))
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


def mos_summary_csv(tables: dict[str, RatingTable]) -> str:
    """CSV export for boxplot rendering: one row per condition and system, in
    the order of tables; quartile convention in the header."""
    buf = io.StringIO()
    buf.write("# quartiles: inclusive (Tukey hinges)\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["condition", "system", "mean", "median", "q1", "q3", "min", "max", "n"])
    for cond, table in tables.items():
        for s, row in mos_summary(table).items():
            writer.writerow([cond, s, row["mean"], row["median"], row["q1"], row["q3"],
                             row["min"], row["max"], int(row["n"])])
    return buf.getvalue()
