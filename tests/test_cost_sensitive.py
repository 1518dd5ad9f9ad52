import numpy as np
import pytest

from mdp_tcm.cost_sensitive import CostVector, cost_adjusted_scores, predict_cs


def random_simplex(rng, n, k):
    p = rng.random((n, k))
    return p / p.sum(axis=1, keepdims=True)


class TestCostTypes:
    def test_vector_range_enforced(self):
        with pytest.raises(ValueError):
            CostVector(np.array([0.5, 1.2]))


class TestCostAdjustedScores:
    def test_unit_costs_identity(self):
        p = np.array([0.25, 0.75])
        scores = cost_adjusted_scores(p, CostVector.uniform(2))
        assert np.all(scores == p)

    def test_single_nonzero_cost(self):
        scores = cost_adjusted_scores(np.array([0.2, 0.8]), CostVector(np.array([1.0, 0.0])))
        assert scores[1] == 0.0 and scores[0] > 0.0

    def test_hand_worked(self):
        scores = cost_adjusted_scores(np.array([0.6, 0.4]), CostVector(np.array([0.5, 0.9])))
        assert scores == pytest.approx([0.30, 0.36], abs=1e-15)


class TestPredictCs:
    def test_flips_argmax_when_costs_skew(self):
        assert predict_cs(np.array([0.6, 0.4]), CostVector(np.array([0.5, 0.9]))) == 1

    def test_uniform_costs_match_argmax_exactly(self):
        rng = np.random.default_rng(42)
        p = random_simplex(rng, 10_000, 4)
        for value in (1.0, 0.5):
            preds = predict_cs(p, CostVector.uniform(4, value))
            assert np.array_equal(preds, np.argmax(p, axis=1))

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(7)
        p = random_simplex(rng, 2000, 4)
        base = rng.uniform(0.05, 0.45, 4)
        reference = predict_cs(p, CostVector(base))
        for scale in (2.0, 0.5, 0.25):
            scaled = predict_cs(p, CostVector(base * scale))
            assert np.array_equal(reference, scaled)

    def test_tie_breaks_to_lowest_index(self):
        assert predict_cs(np.array([0.5, 0.5]), CostVector.uniform(2)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_cs(np.array([0.5, 0.5, 0.0]), CostVector.uniform(2))
