"""Min-max allocation of sampling weight over the arm simplex.

The objective is a max over arms of sums of ratio terms: each term contributes
(numerator value)^2 divided by (weight-averaged values + offset). Every term is
convex in the weights, so the max is convex and is minimized over the simplex
with exponentiated-gradient steps on the active arm's subgradient. Feasible
iterates are tracked, so the reported value is always an upper bound on the
true optimum; a linearization bound gives the gap certificate.

Each iteration makes one pass over the `(terms, arms)` arrays for the
denominators (`values @ w`) and two vector-matrix products: the per-arm row
sums `(1 / denom) @ numerators` and the active arm's subgradient
`coef @ values`. It builds no `(terms, arms)` temporaries.

`allocation_complexity` is the offset-free version built from an instance's
true parent probabilities; its optimum is the instance's intrinsic difficulty
constant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllPosedObjectiveError, ParameterError
from .inference import parent_probabilities
from .model import FREE, Instance

NUMERATOR_CUTOFF = 1e-15
STEP_SCALE = 1.0  # exponentiated-gradient step size STEP_SCALE / sqrt(iteration)


@dataclass
class SolverConfig:
    max_iters: int = 2000
    tolerance: float = 1e-4       # relative duality-gap target

    def __post_init__(self):
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be at least 1, got {self.max_iters}")
        if not np.isfinite(self.tolerance) or self.tolerance < 0:
            raise ParameterError(
                f"tolerance must be finite and nonnegative, got {self.tolerance}")


class RatioObjective:
    """Terms laid out as rows: values[i] over arms, offset[i], and a mask of
    which arms' inner sums the row belongs to."""

    def __init__(self, values, include, offset):
        self.values = np.asarray(values, dtype=np.float64)
        self.include = np.asarray(include, dtype=bool)
        self.offset = np.asarray(offset, dtype=np.float64)
        if self.values.ndim != 2 or self.include.shape != self.values.shape:
            raise ParameterError("values and include must be matching 2-d arrays")
        if self.values.shape[1] == 0:
            raise ParameterError("an objective needs at least one arm")
        if self.offset.shape != (self.values.shape[0],):
            raise ParameterError("offset must have one entry per term row")
        # numerators below the cutoff are dropped: they contribute nothing but
        # can make a zero denominator look ill-posed
        self.include = self.include & (self.values ** 2 >= NUMERATOR_CUTOFF)
        self._numer = self.values ** 2 * self.include
        self._live = self.include.any(axis=1)

    @property
    def n_arms(self) -> int:
        return self.values.shape[1]

    @property
    def n_terms(self) -> int:
        return self.values.shape[0]


@dataclass
class MinimizeResult:
    weights: np.ndarray
    value: float
    gap: float
    converged: bool
    iterations: int


def _row_sums(objective: RatioObjective, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm sums of numerator / denominator at the given weights, and the
    denominators, with 1 in place of a dead row's nonpositive one."""
    denom = objective.values @ weights + objective.offset
    if np.any(objective._live & (denom <= 0.0)):
        raise IllPosedObjectiveError("zero denominator on a term with a nonzero numerator")
    denom = np.where(denom > 0.0, denom, 1.0)
    return (1.0 / denom) @ objective._numer, denom


def evaluate(objective: RatioObjective, weights) -> tuple[float, int]:
    """Max over arms of the row sums at the given weights, with the smallest
    maximizing arm index."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (objective.n_arms,):
        raise ParameterError(f"weights must have shape ({objective.n_arms},)")
    vals, _ = _row_sums(objective, w)
    arg = int(np.argmax(vals))
    return float(vals[arg]), arg


def _subgradient(objective: RatioObjective, denom: np.ndarray, active: int) -> np.ndarray:
    coef = objective._numer[:, active] / denom ** 2
    return -(coef @ objective.values)


def _simplex_point(cand, k_arms: int) -> np.ndarray:
    cand = np.asarray(cand, dtype=np.float64)
    if (cand.shape != (k_arms,) or not np.all(np.isfinite(cand)) or np.any(cand < 0.0)
            or abs(cand.sum() - 1.0) > 1e-9):
        raise ParameterError(f"an extra start must be {k_arms} finite nonnegative "
                             "weights that sum to 1")
    return cand


def minimize(objective: RatioObjective, config: SolverConfig | None = None,
             extra_starts=()) -> MinimizeResult:
    """Exponentiated-gradient descent from uniform weights; every candidate in
    `extra_starts`, each a point of the simplex, is also evaluated, and the
    best feasible point wins."""
    config = config or SolverConfig()
    k_arms = objective.n_arms
    starts = [_simplex_point(cand, k_arms) for cand in extra_starts]
    w = np.full(k_arms, 1.0 / k_arms)
    best_w, best_val = w.copy(), np.inf
    best_lb = -np.inf
    converged = False
    iters = 0
    for it in range(1, config.max_iters + 1):
        iters = it
        vals, denom = _row_sums(objective, w)
        active = int(np.argmax(vals))
        val = float(vals[active])
        if val < best_val:
            best_val, best_w = val, w.copy()
        g = _subgradient(objective, denom, active)
        best_lb = max(best_lb, val + float(np.min(g)) - float(g @ w))
        gap = best_val - best_lb
        if gap <= config.tolerance * max(abs(best_val), 1e-12):
            converged = True
            break
        scale = np.max(np.abs(g))
        if scale > 0:
            w = w * np.exp(-(STEP_SCALE / np.sqrt(it)) * (g / scale))
            w = w / w.sum()
    for cand in starts:
        val, _ = evaluate(objective, cand)
        if val < best_val:
            best_val, best_w = val, cand.copy()
    gap = best_val - best_lb
    return MinimizeResult(best_w, float(best_val), float(max(gap, 0.0)), converged, iters)


@dataclass
class AllocationResult:
    value: float
    weights: np.ndarray
    gap: float
    converged: bool
    n_terms: int


def vote_share(best_arms, n_arms: int) -> np.ndarray:
    """Share of (node, parent-row) pairs whose best arm is each arm, given one
    vector of best-arm indices per node; zero everywhere when nothing votes."""
    votes = np.concatenate([np.zeros(0, dtype=np.int64), *best_arms])
    return np.bincount(votes, minlength=n_arms) / max(len(votes), 1)


def build_exact_objective(instance: Instance) -> tuple[RatioObjective, np.ndarray]:
    """Offset-free objective from the instance's true parent probabilities.

    Also returns the counting-based candidate weights, the `vote_share` of
    every pair's highest-probability arm. That point's value never exceeds
    (node count) x (row count), which pins the upper end of the achievable
    range.
    """
    dag, arms = instance.dag, instance.arms
    free = arms.matrix.T == FREE  # (nodes, arms)
    rows = []
    masks = []
    best = []
    for n in instance.uncertain_nodes:
        reach = parent_probabilities(instance.table, dag, n, arms)
        best.append(reach.argmax(axis=0))
        for vec in reach.T:
            keep = free[n] & (vec ** 2 >= NUMERATOR_CUTOFF)
            if keep.any():
                rows.append(vec)
                masks.append(keep)
    shape = (len(rows), len(arms))  # holds when no term survives, too
    objective = RatioObjective(np.reshape(rows, shape), np.reshape(masks, shape),
                               np.zeros(len(rows)))
    return objective, vote_share(best, len(arms))


def allocation_complexity(instance: Instance,
                          config: SolverConfig | None = None) -> AllocationResult:
    """Minimize the instance's exact allocation objective over the arm simplex."""
    objective, counting = build_exact_objective(instance)
    # an arm set that frees no uncertain node casts no votes: no start then
    res = minimize(objective, config, extra_starts=[counting] if counting.any() else [])
    return AllocationResult(res.value, res.weights, res.gap, res.converged,
                            objective.n_terms)
