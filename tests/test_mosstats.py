from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2, friedmanchisquare, rankdata, wilcoxon

from tabflow import mosstats
from tabflow.errors import DataError, NumericError
# TestResult is reached through the module: a Test* name imported here
# would be collected by pytest as a test class
from tabflow.mosstats import (RatingTable, bonferroni, friedman,
                              mos_summary, wilcoxon_signed_rank)


def _table(values, systems=None):
    values = np.asarray(values, dtype=float)
    systems = systems or [f"s{j}" for j in range(values.shape[1])]
    return RatingTable(systems, values)


def _oracle_friedman_stat(values):
    """Independent rank-sum computation: sort-based mid-ranks, textbook formula."""
    n, k = values.shape
    rank_sum = np.zeros(k)
    for row in values:
        pairs = sorted(range(k), key=lambda j: row[j])
        ranks = np.empty(k)
        i = 0
        while i < k:
            tied = [j for j in range(k) if row[j] == row[pairs[i]]]
            avg = np.mean([pos + 1 for pos, j in enumerate(pairs) if j in tied])
            for j in tied:
                ranks[j] = avg
            i += len(tied)
        rank_sum += ranks
    mean_ranks = rank_sum / n
    return 12.0 * n / (k * (k + 1)) * np.sum(mean_ranks ** 2) - 3.0 * n * (k + 1)


def test_friedman_identical_scores():
    res = friedman(_table(np.full((5, 3), 4.0)))
    assert res.statistic == 0.0 and res.p_value == 1.0
    assert res.df == 2


def test_friedman_matches_rank_sum_oracle_without_ties():
    rng = np.random.default_rng(0)
    values = rng.permuted(np.tile(np.arange(1.0, 5.0), (6, 1)), axis=1)
    res = friedman(_table(values))
    assert res.statistic == pytest.approx(_oracle_friedman_stat(values), abs=1e-9)
    ref = friedmanchisquare(*values.T)
    assert res.statistic == pytest.approx(ref.statistic, abs=1e-9)
    assert res.p_value == pytest.approx(ref.pvalue, abs=1e-9)


@pytest.mark.parametrize("k", range(3, 12))
def test_friedman_p_matches_scipy(k):
    """Tied integer ratings over k systems: the closed-form chi-square
    survival at df = k - 1 gives scipy's p within rel 1e-12."""
    rng = np.random.default_rng(k)
    for n in (2, 7, 30):
        values = rng.integers(1, 6, size=(n, k)).astype(float)
        values[:, -1] += rng.integers(0, 3)  # a shifted system: small p too
        res = friedman(_table(values))
        if res.method != "friedman":
            continue
        ref = friedmanchisquare(*values.T)
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0)


@pytest.mark.parametrize("df", range(1, 11))
def test_chi2_survival_matches_scipy(df):
    xs = np.geomspace(1e-6, 300.0, 400)
    got = np.array([mosstats._chi2_sf(float(x), df) for x in xs])
    np.testing.assert_allclose(got, chi2.sf(xs, df), rtol=1e-12, atol=0)
    assert mosstats._chi2_sf(0.0, df) == 1.0


@pytest.mark.parametrize("df", [99, 999, 2001])
def test_chi2_survival_of_many_systems_matches_scipy(df):
    """Near x = df with df above 1490, e^(-x/2) underflows to 0, yet the
    survival is near 1/2: the terms are summed in logs."""
    xs = np.linspace(0.5 * df, 2.0 * df, 50)
    got = np.array([mosstats._chi2_sf(float(x), df) for x in xs])
    np.testing.assert_allclose(got, chi2.sf(xs, df), rtol=1e-11, atol=1e-300)


def test_mid_ranks_match_rankdata_on_tied_data():
    rng = np.random.default_rng(7)
    for _ in range(300):
        v = rng.integers(0, rng.integers(1, 12), rng.integers(1, 40)).astype(float)
        ranks, tie_sum = mosstats._mid_ranks(v)
        assert np.array_equal(ranks, rankdata(v))
        counts = np.unique(v, return_counts=True)[1].astype(float)
        assert tie_sum == np.sum(counts ** 3 - counts)


def test_friedman_dominant_system_significant():
    rng = np.random.default_rng(1)
    base = rng.integers(1, 4, size=(12, 3)).astype(float)
    base[:, 2] = 5.0  # strictly dominant
    res = friedman(_table(base))
    assert res.p_value < 0.01


def test_friedman_df_is_systems_minus_one():
    values = np.arange(16.0).reshape(4, 4)
    assert friedman(_table(values)).df == 3


def test_friedman_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    values = rng.uniform(1, 5, size=(8, 3))
    a = friedman(_table(values)).statistic
    b = friedman(_table(np.exp(values))).statistic
    assert a == pytest.approx(b, abs=1e-9)


def test_friedman_needs_enough_data():
    with pytest.raises(DataError):
        friedman(_table(np.zeros((1, 3))))


def test_rating_table_rejects_incomplete_blocks():
    rows = [("r1", "i1", "a", 3), ("r1", "i1", "b", 4), ("r2", "i1", "a", 2)]
    with pytest.raises(DataError, match="incomplete blocks.*r2"):
        RatingTable.from_rows(rows)


def test_rating_table_rejects_duplicate_rating():
    """A second score for one (rater, item, system) is refused, not kept in
    place of the first."""
    rows = [("r0", "i0", "A", 1), ("r0", "i0", "B", 2), ("r0", "i0", "A", 5)]
    with pytest.raises(DataError, match="duplicate rating of rater 'r0', item 'i0', "
                                        "system 'A'"):
        RatingTable.from_rows(rows)


def test_rating_table_from_rows_roundtrip():
    rows = [("r1", "i1", "b", 4.0), ("r1", "i1", "a", 3.0),
            ("r2", "i1", "a", 2.0), ("r2", "i1", "b", 5.0)]
    t = RatingTable.from_rows(rows)
    assert t.systems == ["a", "b"]
    np.testing.assert_array_equal(t.column("a"), [3.0, 2.0])
    np.testing.assert_array_equal(t.column("b"), [4.0, 5.0])


def test_wilcoxon_all_equal_degenerate():
    with pytest.raises(NumericError, match="degenerate"):
        wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_wilcoxon_n5_all_positive_exact():
    res = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 2, 3, 4, 5])
    assert "exact" in res.method
    assert res.p_value == pytest.approx(2 / 32)
    assert res.statistic == 15.0


def test_wilcoxon_exact_matches_brute_force_all_n_up_to_10():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 11))
        d = rng.integers(-4, 5, n).astype(float)
        if np.all(d == 0):
            continue
        res = wilcoxon_signed_rank(d, np.zeros(n))
        nz = d[d != 0]
        ranks = rankdata(np.abs(nz))
        w_obs = ranks[nz > 0].sum()
        ws = np.array([sum(r for r, s in zip(ranks, signs) if s)
                       for signs in product([0, 1], repeat=len(nz))])
        p_low = np.mean(ws <= w_obs + 1e-9)
        p_high = np.mean(ws >= w_obs - 1e-9)
        expected = min(1.0, 2 * min(p_low, p_high))
        assert res.p_value == pytest.approx(expected, abs=1e-12)


def test_wilcoxon_reports_dropped_zeros():
    res = wilcoxon_signed_rank([1, 2, 2, 5], [1, 1, 2, 1])
    assert res.zeros_dropped == 2


def test_wilcoxon_exact_and_approx_agree_at_n16():
    """Just above EXACT_LIMIT the public test is the normal approximation;
    the exact null of the same ranks gives nearly the same p."""
    rng = np.random.default_rng(4)
    x = rng.normal(0.8, 1.0, 16)
    res = wilcoxon_signed_rank(x, np.zeros(16))
    assert "approx" in res.method
    ranks = rankdata(np.abs(x))
    pe = mosstats._exact_signed_rank_p(np.round(2.0 * ranks).astype(int),
                                       int(round(2.0 * ranks[x > 0].sum())))
    assert abs(pe - res.p_value) < 0.02


def test_wilcoxon_exact_up_to_limit_then_approx():
    """The switch counts nonzero differences: n = EXACT_LIMIT is exact,
    one more is approximate, and a zero difference does not count."""
    limit = mosstats.EXACT_LIMIT
    x = np.arange(1.0, limit + 2.0)
    y = np.zeros(limit + 1)
    assert "exact" in wilcoxon_signed_rank(x[:limit], y[:limit]).method
    assert "approx" in wilcoxon_signed_rank(x, y).method
    y[0] = x[0]
    res = wilcoxon_signed_rank(x, y)
    assert "exact" in res.method and res.zeros_dropped == 1


@pytest.mark.parametrize("seed", range(4))
def test_wilcoxon_approx_p_matches_scipy(seed):
    """Tied differences above EXACT_LIMIT: the tie- and continuity-corrected
    normal approximation gives scipy's p within rel 1e-12."""
    rng = np.random.default_rng(seed)
    for n in (30, 45, 60):
        x = rng.integers(1, 6, n).astype(float) + seed * 0.25
        y = rng.integers(1, 6, n).astype(float)
        res = wilcoxon_signed_rank(x, y)
        assert "approx" in res.method
        ref = wilcoxon(x, y, zero_method="wilcox", correction=True, method="approx")
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0)


def test_bonferroni_values():
    assert f"{bonferroni(0.05, 3):.4f}" == "0.0167"
    assert bonferroni(0.05, 1) == 0.05
    assert bonferroni(0.05, 10) == pytest.approx(0.005)
    with pytest.raises(DataError):
        bonferroni(1.5, 3)
    with pytest.raises(DataError):
        bonferroni(0.05, 0)


def test_p_values_always_valid():
    rng = np.random.default_rng(5)
    for _ in range(20):
        for n in (12, 24):  # exact, then approximate
            x = rng.normal(0, 1, n)
            y = rng.normal(0, 1, n)
            p = wilcoxon_signed_rank(x, y).p_value
            assert 0.0 <= p <= 1.0


def test_test_result_validates_p():
    with pytest.raises(NumericError):
        mosstats.TestResult(1.0, 1.5, "bad")


def test_mos_summary_constant():
    rows = [(f"r{i}", "i", "sys", 4.0) for i in range(6)]
    s = mos_summary(RatingTable.from_rows(rows))["sys"]
    assert s["mean"] == s["median"] == 4.0
    assert s["q3"] - s["q1"] == 0.0


def test_mos_summary_one_to_five():
    t = _table(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]), systems=["sys"])
    s = mos_summary(t)["sys"]
    assert (s["mean"], s["median"], s["q1"], s["q3"]) == (3.0, 3.0, 2.0, 4.0)
    assert s["n"] == 5


def test_mos_summary_invariant_to_rater_permutation():
    rng = np.random.default_rng(6)
    values = rng.uniform(1, 5, size=(10, 2))
    t1 = _table(values)
    t2 = _table(values[::-1])
    assert mos_summary(t1) == mos_summary(t2)
