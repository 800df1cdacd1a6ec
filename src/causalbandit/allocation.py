"""Min-max allocation of sampling weight over the arm simplex.

The objective is a max over arms of sums of ratio terms: each term contributes
to arm a (its value at a)^2 divided by (weight-averaged values + offset). An
arm that clamps node n has value zero in n's terms (`parent_probabilities`),
so it neither scores nor informs them. Every term is convex in the weights, so
the max is convex and is minimized over the simplex with
exponentiated-gradient steps on the active arm's subgradient. Feasible
iterates are tracked, so the reported value is always an upper bound on the
true optimum; a linearization bound gives the gap certificate.

A solve makes its term-length and arm-length buffers once, none sized by the
iteration cap. Each iteration makes three BLAS products into them, the
denominators `values @ w`, the per-arm row sums `(1 / denom) @ numerators`
and the active arm's negated subgradient `coef @ values`; the rest is the dot
h.w, five ufunc reductions and eight elementwise passes, nine with an offset.
It allocates no array data, except in the branch for a nonpositive denominator.

`allocation_complexity` is the offset-free version built from an instance's
true parent probabilities; its optimum is the instance's intrinsic difficulty
constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllPosedObjectiveError, ParameterError
from .inference import parent_probabilities
from .model import Instance

NUMERATOR_CUTOFF = 1e-15
STEP_SCALE = 1.0  # exponentiated-gradient step size STEP_SCALE / sqrt(iteration)


@dataclass
class SolverConfig:
    max_iters: int = 2000
    tolerance: float = 1e-4       # relative duality-gap target

    def __post_init__(self):
        if (not isinstance(self.max_iters, (int, np.integer)) or isinstance(self.max_iters, bool)
                or self.max_iters < 1):
            raise ParameterError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not np.isfinite(self.tolerance) or self.tolerance < 0:
            raise ParameterError(f"tolerance must be finite and nonnegative, got {self.tolerance}")


class RatioObjective:
    """Terms laid out as rows: values[i] over arms and offset[i]. A term
    counts for an arm only where its squared value there reaches
    NUMERATOR_CUTOFF: a smaller one contributes nothing but can make a zero
    denominator look ill-posed."""

    def __init__(self, values, offset):
        values = np.asarray(values, dtype=np.float64)
        self.values = values if values.flags.forc else values.copy()  # BLAS-ready
        self.offset = np.asarray(offset, dtype=np.float64)
        if self.values.ndim != 2:
            raise ParameterError("values must be a 2-d array")
        if self.values.shape[1] == 0:
            raise ParameterError("an objective needs at least one arm")
        if self.offset.shape != (self.values.shape[0],):
            raise ParameterError("offset must have one entry per term row")
        if not (np.isfinite(self.values).all() and np.isfinite(self.offset).all()):
            raise ParameterError("values and offset must be finite")
        self._numer = self.values ** 2
        self._numer[self._numer < NUMERATOR_CUTOFF] = 0.0
        self._live = self._numer.any(axis=1)
        self._shifted = bool(self.offset.any())  # x + 0.0 is x, but for -0.0

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
    n_terms: int


def _row_sums(objective: RatioObjective, weights: np.ndarray, denom: np.ndarray,
              inv: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Per-arm sums of numerator / denominator at the given weights, written
    to `sums` and returned. Leaves the denominators in `denom`, with 1 in
    place of a dead row's nonpositive one, and their reciprocals in `inv`."""
    np.dot(objective.values, weights, out=denom)
    if objective._shifted:  # a -0.0 left by the skip takes the next branch
        denom += objective.offset
    if denom.size and not np.minimum.reduce(denom) > 0.0:  # NaN weights too
        if np.any(objective._live & (denom <= 0.0)):
            raise IllPosedObjectiveError("zero denominator on a term with a nonzero numerator")
        denom[~(denom > 0.0)] = 1.0
    np.divide(1.0, denom, out=inv)
    return np.dot(inv, objective._numer, out=sums)


def evaluate(objective: RatioObjective, weights) -> tuple[float, int]:
    """Max over arms of the row sums at the given weights, with the smallest
    maximizing arm index."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (objective.n_arms,):
        raise ParameterError(f"weights must have shape ({objective.n_arms},)")
    t = objective.n_terms
    vals = _row_sums(objective, w, np.empty(t), np.empty(t), np.empty(objective.n_arms))
    arg = int(vals.argmax())
    return float(vals[arg]), arg


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
    best feasible point wins.

    The loop works on h = coef @ values, the negated subgradient g of the
    active arm: min g = -max h, g.w = -(h.w), max|g| = max(max h, -min h) and
    the step -eta g / max|g| = eta h / max|g|, each an exact sign flip.
    """
    config = config or SolverConfig()
    k_arms, n_terms = objective.n_arms, objective.n_terms
    starts = [_simplex_point(cand, k_arms) for cand in extra_starts]
    numer, values = objective._numer, objective.values
    denom, inv, coef = np.empty(n_terms), np.empty(n_terms), np.empty(n_terms)
    vals, h, step = np.empty(k_arms), np.empty(k_arms), np.empty(k_arms)
    w = np.full(k_arms, 1.0 / k_arms)
    best_w, best_val, best_lb = w.copy(), np.inf, -np.inf
    converged = False
    for it in range(1, config.max_iters + 1):  # max_iters >= 1, so `it` ends bound
        _row_sums(objective, w, denom, inv, vals)
        active = int(vals.argmax())
        val = float(vals[active])
        if val < best_val:
            best_val = val
            np.copyto(best_w, w)
        np.square(denom, out=coef)
        np.divide(numer[:, active], coef, out=coef)
        np.dot(coef, values, out=h)
        h_max = float(np.maximum.reduce(h))
        best_lb = max(best_lb, val - h_max + float(np.dot(h, w)))
        if best_val - best_lb <= config.tolerance * max(abs(best_val), 1e-12):
            converged = True
            break
        scale = max(h_max, -float(np.minimum.reduce(h)))
        if scale > 0:
            np.divide(h, scale, out=step)
            step *= STEP_SCALE / math.sqrt(it)
            np.exp(step, out=step)
            w *= step
            w /= np.add.reduce(w)
    for cand in starts:
        val, _ = evaluate(objective, cand)
        if val < best_val:
            best_val, best_w = val, cand.copy()
    return MinimizeResult(best_w, float(best_val), float(max(best_val - best_lb, 0.0)),
                          converged, it, n_terms)


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
    rows = []
    best = []
    for n in arms.uncertain_nodes:
        # zero where the arm fixes n, so the objective's cutoff leaves
        # exactly the arms that free n
        reach = parent_probabilities(instance.table, dag, n, arms)
        best.append(reach.argmax(axis=0))
        rows.extend(vec for vec in reach.T if (vec ** 2 >= NUMERATOR_CUTOFF).any())
    shape = (len(rows), len(arms))  # holds when no term survives, too
    objective = RatioObjective(np.reshape(rows, shape), np.zeros(len(rows)))
    return objective, vote_share(best, len(arms))


def allocation_complexity(instance: Instance,
                          config: SolverConfig | None = None) -> MinimizeResult:
    """Minimize the instance's exact allocation objective over the arm simplex."""
    objective, counting = build_exact_objective(instance)
    # an arm set that frees no uncertain node casts no votes: no start then
    return minimize(objective, config, extra_starts=[counting] if counting.any() else [])
