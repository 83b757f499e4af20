"""Tests for forecasting and ranking metrics, incl. hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics import (
    ForecastScores,
    corr,
    evaluate_forecast,
    mae,
    mape,
    pairwise_accuracy,
    rmse,
    rrse,
    spearman,
    top_k_regret,
)

finite_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestPointMetrics:
    def test_perfect_prediction_zero_error(self):
        target = np.random.default_rng(0).normal(10, 2, size=(5, 3))
        scores = evaluate_forecast(target.copy(), target)
        assert scores.mae == 0.0
        assert scores.rmse == 0.0
        assert scores.rrse == 0.0

    def test_mae_known_value(self):
        assert mae(np.array([1.0, 3.0]), np.array([2.0, 1.0])) == pytest.approx(1.5)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(0)
        pred, targ = rng.normal(size=50), rng.normal(size=50)
        assert rmse(pred, targ) >= mae(pred, targ)

    def test_mape_masks_small_targets(self):
        pred = np.array([1.0, 5.0])
        targ = np.array([0.0, 4.0])  # zero target masked
        assert mape(pred, targ) == pytest.approx(0.25)

    def test_mape_all_masked_returns_zero(self):
        assert mape(np.ones(3), np.zeros(3)) == 0.0

    def test_rrse_of_mean_predictor_is_one(self):
        targ = np.random.default_rng(0).normal(size=100)
        pred = np.full_like(targ, targ.mean())
        assert rrse(pred, targ) == pytest.approx(1.0, rel=1e-6)

    def test_corr_perfect(self):
        targ = np.random.default_rng(0).normal(size=(40, 3))
        assert corr(2 * targ + 1, targ) == pytest.approx(1.0, abs=1e-6)

    def test_corr_anti(self):
        targ = np.random.default_rng(0).normal(size=(40, 2))
        assert corr(-targ, targ) == pytest.approx(-1.0, abs=1e-6)

    def test_evaluate_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_forecast(np.zeros(3), np.zeros(4))

    def test_primary_metric_selection(self):
        scores = ForecastScores(1.0, 2.0, 3.0, 4.0, 5.0)
        assert scores.primary() == 1.0
        assert scores.primary(single_step=True) == 4.0

    @given(hnp.arrays(np.float64, st.integers(2, 30), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_mae_nonnegative_and_symmetric(self, values):
        other = np.zeros_like(values)
        assert mae(values, other) >= 0.0
        assert mae(values, other) == pytest.approx(mae(other, values))

    @given(hnp.arrays(np.float64, st.integers(2, 30), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_rmse_triangle_with_scaling(self, values):
        assert rmse(2 * values, values) == pytest.approx(
            rmse(values, np.zeros_like(values)), rel=1e-9, abs=1e-12
        )


class TestRankMetrics:
    def test_spearman_monotone_transform_invariant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=20)
        assert spearman(a, np.exp(a)) == pytest.approx(1.0)

    def test_spearman_reversed_is_minus_one(self):
        a = np.arange(10.0)
        assert spearman(a, -a) == pytest.approx(-1.0)

    def test_spearman_matches_scipy(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(3)
        a, b = rng.normal(size=30), rng.normal(size=30)
        assert spearman(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-9)

    def test_spearman_handles_ties_like_scipy(self):
        from scipy.stats import spearmanr

        a = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
        b = np.array([2.0, 1.0, 1.0, 5.0, 4.0, 4.0])
        assert spearman(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-9)

    def test_spearman_rejects_short_input(self):
        with pytest.raises(ValueError):
            spearman(np.array([1.0]), np.array([2.0]))

    @given(
        hnp.arrays(
            np.float64,
            st.integers(3, 20),
            elements=finite_floats,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_spearman_self_correlation_is_one(self, values):
        assert spearman(values, values) == pytest.approx(1.0)

    @given(
        hnp.arrays(np.float64, st.integers(3, 15), elements=finite_floats, unique=True)
    )
    @settings(max_examples=50, deadline=None)
    def test_spearman_bounded(self, values):
        shuffled = values.copy()
        np.random.default_rng(0).shuffle(shuffled)
        assert -1.0 - 1e-9 <= spearman(values, shuffled) <= 1.0 + 1e-9

    def test_pairwise_accuracy_perfect_comparator(self):
        scores = np.array([0.3, 0.1, 0.5])
        wins = (scores[:, None] < scores[None, :]).astype(int)
        assert pairwise_accuracy(wins, scores) == 1.0

    def test_pairwise_accuracy_inverted_comparator(self):
        scores = np.array([0.3, 0.1, 0.5])
        wins = (scores[:, None] > scores[None, :]).astype(int)
        assert pairwise_accuracy(wins, scores) == 0.0

    def test_top_k_regret_zero_when_best_included(self):
        scores = np.array([0.5, 0.2, 0.9])
        assert top_k_regret([1, 2], scores) == 0.0

    def test_top_k_regret_positive_otherwise(self):
        scores = np.array([0.5, 0.2, 0.9])
        assert top_k_regret([0, 2], scores) == pytest.approx(0.3)
