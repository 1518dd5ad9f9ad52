"""Adaptive differential evolution (current-to-pbest/1 with archive and
self-adapted F/CR) for tuning per-class misclassification costs.

Each individual is a cost vector in [0, 1]^K. Per generation, every parent
draws F from Cauchy(mu_f, 0.1) (redrawn while <= 0, clipped at 1) and CR
from Normal(mu_cr, 0.1) clipped to [0, 1]; the location parameters adapt
toward the Lehmer mean of successful F and the arithmetic mean of
successful CR. Fitness is maximized; the usual objective is the weighted
training G-mean of the cost-sensitive decision rule, evaluated on cached
posteriors so the evolution adds negligible cost on top of network training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost_sensitive import CostVector
from .dbn import DbnModel, predict_proba
from .metrics import confusion, gmean

# share of the population, by fitness, that each mutation draws its pbest from
P_BEST_FRACTION = 0.1
# weight of each generation's successful F and CR in the moves of mu_f and mu_cr
ADAPTATION_RATE = 0.1


@dataclass(frozen=True)
class DeConfig:
    population_size: int = 30
    max_generations: int = 50

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.max_generations < 0:
            raise ValueError("max_generations must be nonnegative")


@dataclass
class DeState:
    population: np.ndarray          # (NP, K) in [0, 1]
    fitness: np.ndarray             # (NP,), -inf until evaluated
    mu_f: float = 0.5
    mu_cr: float = 0.5
    archive: list = field(default_factory=list)


def init_population(n_classes: int, config: DeConfig,
                    rng: np.random.Generator) -> DeState:
    """Uniform population over [0, 1]^K with mu_f = mu_cr = 0.5."""
    if n_classes < 2:
        raise ValueError("need at least two classes")
    pop = rng.random((config.population_size, n_classes))
    return DeState(population=pop,
                   fitness=np.full(config.population_size, -np.inf))


def _draw_f(rng: np.random.Generator, mu_f: float) -> float:
    f = 0.0
    while f <= 0.0:
        f = mu_f + 0.1 * rng.standard_cauchy()
    return min(f, 1.0)


def step(state: DeState, objective, config: DeConfig,
         rng: np.random.Generator) -> DeState:
    """One generation: mutate, crossover, greedily select, adapt mu_f/mu_cr."""
    pop = state.population
    np_, k = pop.shape
    fitness = state.fitness.copy()
    unevaluated = ~np.isfinite(fitness)
    for i in np.nonzero(unevaluated)[0]:
        fitness[i] = objective(pop[i])

    n_pbest = max(1, int(round(P_BEST_FRACTION * np_)))
    top = np.argsort(fitness)[::-1][:n_pbest]
    archive = list(state.archive)
    new_pop = pop.copy()
    new_fit = fitness.copy()
    s_f, s_cr = [], []

    for i in range(np_):
        f_i = _draw_f(rng, state.mu_f)
        cr_i = float(np.clip(rng.normal(state.mu_cr, 0.1), 0.0, 1.0))
        pbest = pop[top[rng.integers(n_pbest)]]
        r1 = i
        while r1 == i:
            r1 = int(rng.integers(np_))
        pool = len(archive)
        r2 = i
        while r2 == i or r2 == r1:
            r2 = int(rng.integers(np_ + pool))
        x_r2 = pop[r2] if r2 < np_ else archive[r2 - np_]
        mutant = pop[i] + f_i * (pbest - pop[i]) + f_i * (pop[r1] - x_r2)
        cross = rng.random(k) < cr_i
        cross[rng.integers(k)] = True
        child = np.where(cross, mutant, pop[i])
        np.clip(child, 0.0, 1.0, out=child)
        child_fit = objective(child)
        if child_fit > fitness[i]:
            archive.append(pop[i].copy())
            new_pop[i] = child
            new_fit[i] = child_fit
            s_f.append(f_i)
            s_cr.append(cr_i)

    while len(archive) > np_:
        archive.pop(int(rng.integers(len(archive))))

    mu_f, mu_cr = state.mu_f, state.mu_cr
    if s_f:
        c = ADAPTATION_RATE
        s_f = np.asarray(s_f)
        mu_f = (1.0 - c) * mu_f + c * float(np.sum(s_f ** 2) / np.sum(s_f))
        mu_cr = (1.0 - c) * mu_cr + c * float(np.mean(s_cr))
    return DeState(population=new_pop, fitness=new_fit, mu_f=mu_f, mu_cr=mu_cr,
                   archive=archive)


def optimize(objective, n_classes: int, config: DeConfig, rng: np.random.Generator):
    """Run the full loop; returns (best vector, history).

    history has per-generation columns best_fitness (monotone, tracked
    elitist over everything evaluated), mu_f and mu_cr; row 0 describes the
    initial population.
    """
    state = init_population(n_classes, config, rng)
    state.fitness = np.array([objective(x) for x in state.population])
    best_i = int(np.argmax(state.fitness))
    best_x = state.population[best_i].copy()
    best_fit = float(state.fitness[best_i])
    history = {"best_fitness": [best_fit], "mu_f": [state.mu_f], "mu_cr": [state.mu_cr]}
    for _ in range(config.max_generations):
        state = step(state, objective, config, rng)
        gen_best = int(np.argmax(state.fitness))
        if state.fitness[gen_best] > best_fit:
            best_fit = float(state.fitness[gen_best])
            best_x = state.population[gen_best].copy()
        history["best_fitness"].append(best_fit)
        history["mu_f"].append(state.mu_f)
        history["mu_cr"].append(state.mu_cr)
    return best_x, {k: np.asarray(v) for k, v in history.items()}


def make_gmean_objective(posteriors: np.ndarray, labels: np.ndarray, n_classes: int):
    """Objective over cost vectors from cached posteriors: weighted G-mean."""
    posteriors = np.asarray(posteriors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)

    def objective(costs: np.ndarray) -> float:
        preds = np.argmax(posteriors * costs, axis=1)
        return gmean(confusion(labels, preds, n_classes))

    return objective


def evolve(model: DbnModel, frames, labels, config: DeConfig, rng: np.random.Generator):
    """Evolve misclassification costs for a trained classifier, one per
    model output.

    Posteriors are computed once, in the frames' dtype, and cached;
    candidates only reweight the decision rule, in float64. Returns (best
    CostVector, history).
    """
    k = model.n_outputs
    posteriors = predict_proba(model, frames)
    objective = make_gmean_objective(posteriors, np.asarray(labels), k)
    best, history = optimize(objective, k, config, rng)
    return CostVector(best), history
