"""Cost-sensitive decision layer on top of classifier posteriors.

Misclassification cost is a per-class cost vector (one weight per class,
each in [0, 1]) that the evolutionary loop tunes. Predictions reweight
posteriors by the per-class costs and take the argmax; with uniform costs
this reduces exactly to the plain argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostVector:
    """Per-class cost weights in [0, 1]."""

    costs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.costs, dtype=np.float64)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("cost vector must be 1-D with at least 2 classes")
        if np.any(c < 0.0) or np.any(c > 1.0):
            raise ValueError("cost entries must lie in [0, 1]")
        object.__setattr__(self, "costs", c)

    def __len__(self) -> int:
        return len(self.costs)

    @classmethod
    def uniform(cls, n_classes: int, value: float = 1.0) -> "CostVector":
        return cls(np.full(n_classes, value))


def cost_adjusted_scores(posteriors, costs: CostVector) -> np.ndarray:
    """Per-class scores P(j) * c_j."""
    p = np.asarray(posteriors, dtype=np.float64)
    if p.shape[-1] != len(costs):
        raise ValueError(f"posterior dimension {p.shape[-1]} != class count {len(costs)}")
    return p * costs.costs


def predict_cs(posteriors, costs: CostVector):
    """Cost-sensitive prediction: argmax of cost-adjusted scores.

    Ties break toward the lowest class index. Accepts a single posterior
    vector or a batch (one row per sample).
    """
    scores = cost_adjusted_scores(posteriors, costs)
    if scores.ndim == 1:
        return int(np.argmax(scores))
    return np.argmax(scores, axis=1)
