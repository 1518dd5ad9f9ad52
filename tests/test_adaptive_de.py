import numpy as np
import pytest

from mdp_tcm import dbn
from mdp_tcm.adaptive_de import (DeConfig, evolve, init_population,
                                 make_gmean_objective, optimize, step)
from mdp_tcm.seeding import substream


def l1_objective(target):
    target = np.asarray(target)

    def objective(c):
        return 1.0 - np.abs(c - target).sum() / len(target)

    return objective


class TestInit:
    def test_population_in_unit_cube(self):
        state = init_population(4, DeConfig(), substream(0, "de"))
        assert state.population.shape == (30, 4)
        assert np.all(state.population >= 0.0) and np.all(state.population <= 1.0)

    def test_deterministic(self):
        a = init_population(4, DeConfig(), substream(5, "de"))
        b = init_population(4, DeConfig(), substream(5, "de"))
        assert np.array_equal(a.population, b.population)

    def test_adaptation_means_start_at_half(self):
        state = init_population(3, DeConfig(), substream(1, "de"))
        assert state.mu_f == 0.5 and state.mu_cr == 0.5

    def test_minimum_population(self):
        with pytest.raises(ValueError):
            DeConfig(population_size=3)


class TestStep:
    def test_no_improvement_keeps_everything(self):
        config = DeConfig(population_size=6)
        rng = substream(2, "de")
        state = init_population(2, config, rng)
        state.fitness = np.full(6, 2.0)  # children (fitness <= 1) can never win
        out = step(state, lambda c: 0.0, config, rng)
        assert np.array_equal(out.population, state.population)
        assert out.mu_f == 0.5 and out.mu_cr == 0.5
        assert out.archive == []

    def test_minimum_population_feasible(self):
        config = DeConfig(population_size=4)
        rng = substream(3, "de")
        state = init_population(3, config, rng)
        out = step(state, l1_objective([0.5, 0.5, 0.5]), config, rng)
        assert out.population.shape == (4, 3)

    def test_children_stay_in_unit_cube(self):
        config = DeConfig(population_size=10)
        rng = substream(4, "de")
        state = init_population(5, config, rng)
        for _ in range(20):
            state = step(state, l1_objective(np.full(5, 0.9)), config, rng)
            assert np.all(state.population >= 0.0)
            assert np.all(state.population <= 1.0)

    def test_zero_adaptation_rate_freezes_means(self):
        config = DeConfig(population_size=8, adaptation_rate=0.0)
        rng = substream(5, "de")
        state = init_population(3, config, rng)
        for _ in range(10):
            state = step(state, l1_objective([0.2, 0.8, 0.5]), config, rng)
        assert state.mu_f == 0.5 and state.mu_cr == 0.5


class TestOptimize:
    def test_zero_generations_returns_initial_best(self):
        config = DeConfig(max_generations=0)
        objective = l1_objective([0.3, 0.6])
        best, history = optimize(objective, 2, config, substream(6, "de"))
        state = init_population(2, config, substream(6, "de"))
        fits = [objective(x) for x in state.population]
        assert objective(best) == pytest.approx(max(fits), abs=1e-15)
        assert len(history["best_fitness"]) == 1

    def test_history_monotone(self):
        _, history = optimize(l1_objective([0.9, 0.1, 0.5, 0.5]), 4, DeConfig(),
                              substream(7, "de"))
        assert np.all(np.diff(history["best_fitness"]) >= 0.0)

    def test_deterministic_for_seed(self):
        a, _ = optimize(l1_objective([0.7, 0.2, 0.4, 0.9]), 4, DeConfig(), substream(8, "de"))
        b, _ = optimize(l1_objective([0.7, 0.2, 0.4, 0.9]), 4, DeConfig(), substream(8, "de"))
        assert np.array_equal(a, b)

    def test_converges_near_analytic_optimum(self):
        target = np.array([0.9, 0.1, 0.5, 0.5])
        hits = 0
        for seed in range(10):
            best, _ = optimize(l1_objective(target), 4, DeConfig(), substream(seed, "de"))
            if 1.0 - l1_objective(target)(best) <= 0.05:
                hits += 1
        assert hits >= 9


class TestFitness:
    def test_one_class_predictor_fitness_zero(self):
        posteriors = np.tile([0.9, 0.1], (20, 1))
        labels = np.array([0, 1] * 10)
        objective = make_gmean_objective(posteriors, labels, 2)
        assert objective(np.array([1.0, 1.0])) == 0.0

    def test_cached_objective_ranking_matches_grid(self):
        # toy posteriors where boosting class 1 is clearly optimal
        rng = np.random.default_rng(9)
        labels = np.array([0] * 80 + [1] * 20)
        posteriors = np.zeros((100, 2))
        posteriors[:, 0] = np.clip(rng.normal(0.7, 0.15, 100), 0.01, 0.99)
        posteriors[labels == 1, 0] -= 0.25
        posteriors[:, 1] = 1.0 - posteriors[:, 0]
        objective = make_gmean_objective(posteriors, labels, 2)
        grid = [(objective(np.array([a, b])), a, b)
                for a in np.linspace(0.01, 1, 34) for b in np.linspace(0.01, 1, 34)]
        best_grid = max(g[0] for g in grid)
        best_de, _ = optimize(objective, 2, DeConfig(), substream(10, "de"))
        assert objective(best_de) >= best_grid - 1e-9


class TestEvolve:
    def test_costs_beat_or_match_uniform_on_train(self):
        rng = np.random.default_rng(11)
        frames = rng.random((120, 4))
        labels = (frames[:, 0] > 0.75).astype(int)  # imbalanced
        config = dbn.TrainConfig(pretrain_epochs=0, finetune_epochs=40,
                                 learning_rate=0.05, batch_size=16)
        model, _ = dbn.train_classifier(frames, labels, (4, 5, 2), config, seed=12)
        costs, history = evolve(model, frames, labels, DeConfig(), substream(12, "de"))
        objective = make_gmean_objective(dbn.predict_proba(model, frames), labels, 2)
        assert objective(costs.costs) >= objective(np.ones(2)) - 1e-12
        assert np.all(np.diff(history["best_fitness"]) >= 0.0)
