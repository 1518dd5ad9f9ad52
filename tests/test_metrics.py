import numpy as np
import pytest

from mdp_tcm import metrics


class TestAccuracy:
    def test_perfect(self):
        assert metrics.accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_fully_mismatched(self):
        assert metrics.accuracy([0, 0, 0], [1, 1, 1]) == 0.0

    def test_three_of_four(self):
        assert metrics.accuracy([0, 1, 2, 3], [0, 1, 2, 0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.accuracy([], [])


class TestConfusion:
    def test_perfect_has_no_errors(self):
        c = metrics.confusion([0, 1, 2], [0, 1, 2], 3)
        assert np.all(c.fp == 0) and np.all(c.fn == 0)

    def test_hand_tabulated_binary(self):
        c = metrics.confusion([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert c.tp[1] == 2 and c.fp[1] == 1 and c.fn[1] == 0 and c.tn[1] == 1

    def test_counts_partition_n(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 4, 200)
        yhat = rng.integers(0, 4, 200)
        c = metrics.confusion(y, yhat, 4)
        for k in range(4):
            assert c.tp[k] + c.fp[k] + c.fn[k] + c.tn[k] == 200

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            metrics.confusion([0, 5], [0, 1], 4)

    def test_counts_equal_per_class_tally(self):
        # the reference: one-vs-rest tallies class by class; class 4 never occurs
        rng = np.random.default_rng(2)
        for n in (1, 7, 500):
            y, yhat = rng.integers(0, 4, n), rng.integers(0, 4, n)
            c = metrics.confusion(y, yhat, 5)
            for k in range(5):
                pos, pred = y == k, yhat == k
                want = (np.sum(pos & pred), np.sum(~pos & pred), np.sum(pos & ~pred),
                        np.sum(~pos & ~pred), np.sum(pos))
                assert (c.tp[k], c.fp[k], c.fn[k], c.tn[k], c.support[k]) == want
            for counts in (c.tp, c.fp, c.fn, c.tn, c.support):
                assert counts.dtype == np.int64


class TestClassificationMetrics:
    def test_gmean_hand_value(self):
        # binary one-vs-rest: TP=50, FN=50, TN=100, FP=0
        y = [1] * 100 + [0] * 100
        yhat = [1] * 50 + [0] * 50 + [0] * 100
        c = metrics.confusion(y, yhat, 2)
        g1 = metrics.per_class_gmean(c)[1]
        assert g1 == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_perfect_classifier_all_ones(self):
        c = metrics.confusion([0, 1, 2, 2], [0, 1, 2, 2], 3)
        for fn in (metrics.gmean, metrics.precision, metrics.recall, metrics.f1):
            assert fn(c) == 1.0

    def test_never_predicts_positive(self):
        c = metrics.confusion([0, 1, 0, 1], [0, 0, 0, 0], 2)
        assert metrics.per_class_recall(c)[1] == 0.0
        assert metrics.per_class_gmean(c)[1] == 0.0

    def test_single_class_reduces_to_per_class(self):
        y = [1] * 10
        yhat = [1] * 8 + [0] * 2
        c = metrics.confusion(y, yhat, 2)
        assert metrics.recall(c) == pytest.approx(metrics.per_class_recall(c)[1], abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 3, 60)
        yhat = rng.integers(0, 3, 60)
        perm = rng.permutation(60)
        c1 = metrics.confusion(y, yhat, 3)
        c2 = metrics.confusion(y[perm], yhat[perm], 3)
        for fn in (metrics.gmean, metrics.precision, metrics.recall, metrics.f1):
            assert fn(c1) == pytest.approx(fn(c2), abs=1e-15)


class TestRegressionMetrics:
    def test_rmse_identical(self):
        assert metrics.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_rmse_hand_value(self):
        assert metrics.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_rmse_constant_offset(self):
        y = np.linspace(0, 10, 7)
        assert metrics.rmse(y, y + 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_r2_perfect(self):
        y = [1.0, 2.0, 3.0]
        assert metrics.r2score(y, y) == 1.0

    def test_r2_mean_predictor_zero(self):
        y = np.array([1.0, 2.0, 3.0, 7.0])
        yhat = np.full(4, y.mean())
        assert metrics.r2score(y, yhat) == pytest.approx(0.0, abs=1e-12)

    def test_r2_worse_than_mean_negative(self):
        y = [1.0, 2.0, 3.0]
        assert metrics.r2score(y, [3.0, 1.0, 0.0]) < 0.0

    def test_r2_constant_targets_rejected(self):
        with pytest.raises(ValueError):
            metrics.r2score([2.0, 2.0], [1.0, 3.0])

    def test_mape_perfect(self):
        assert metrics.mape([10.0], [10.0]) == 0.0

    def test_mape_hand_value(self):
        assert metrics.mape([100.0], [90.0]) == pytest.approx(0.1, abs=1e-12)

    def test_mape_zero_target_rejected(self):
        with pytest.raises(ValueError):
            metrics.mape([0.0, 1.0], [1.0, 1.0])


class TestReport:
    def test_report_keys_exact(self):
        report = metrics.MetricsReport()
        assert tuple(report.as_dict()) == metrics.REPORT_KEYS

    def test_kv_roundtrip_keys(self):
        text = metrics.MetricsReport(accuracy=0.5).to_kv_text()
        keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
        assert keys == list(metrics.REPORT_KEYS)

    def test_regression_report_mape_floor(self):
        y = np.array([0.5, 100.0, 200.0])
        yhat = np.array([0.0, 90.0, 210.0])
        rep = metrics.regression_report(y, yhat)
        assert rep.mape == pytest.approx((0.1 + 0.05) / 2, abs=1e-12)
