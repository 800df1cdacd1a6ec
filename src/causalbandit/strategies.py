"""End-to-end arm-selection strategies and the regret metric.

Each strategy consumes a sampling environment and a horizon and returns the
arm it would commit to plus its per-arm value estimates. The two-phase
strategy estimates the conditional table and scores arms by exact inference on
the estimate; the baselines score arms by direct reward averages.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
# target_probability is unused here; perfbench/tracer.py's TRACE_POINTS looks it up
from .inference import (  # noqa: F401
    Environment,
    even_split,
    target_probabilities,
    target_probability,
)
from .model import CausalDag, Instance, Intervention, InterventionSet, uncertain_rows
from .phase1 import run_phase1
from .phase2 import run_phase2


@dataclass(frozen=True)
class StrategyResult:
    chosen_index: int
    chosen: Intervention
    mu_hat: np.ndarray
    experiments_used: int


def default_trunc_scale(dag: CausalDag, arms: InterventionSet, mode: str) -> float:
    """Truncation scale used by the two-phase strategy: rows^3 / nodes in paper
    mode, disabled entirely in practical mode."""
    if mode == "practical":
        return 0.0
    return uncertain_rows(dag, arms) ** 3 / dag.node_count


def run_causal_bandit(env: Environment, dag: CausalDag, arms: InterventionSet,
                      horizon: int, mode: str, rng,
                      trunc_scale: float | None = None) -> StrategyResult:
    """Two-phase strategy: estimate the conditional table, then pick the arm
    whose inferred reward probability is highest (lowest index on ties)."""
    if mode not in ("paper", "practical"):
        raise ParameterError(f"mode must be 'paper' or 'practical', got {mode!r}")
    if trunc_scale is None:
        trunc_scale = default_trunc_scale(dag, arms, mode)
    before = env.experiments_used
    phase1 = run_phase1(env, dag, arms, trunc_scale, horizon)
    phase2 = run_phase2(env, phase1, mode, rng)
    mu_hat = target_probabilities(phase2.estimate, dag, arms)
    chosen = int(np.argmax(mu_hat))
    return StrategyResult(chosen, arms[chosen], mu_hat, env.experiments_used - before)


def run_uniform_baseline(env: Environment, dag: CausalDag, arms: InterventionSet,
                         horizon: int) -> StrategyResult:
    """Draw the horizon in one call, split over the arms by `even_split` (see
    the `inference` module docstring); never-pulled arms keep estimate zero."""
    if horizon < 0:
        raise ParameterError("horizon must be nonnegative")
    k = len(arms)
    pulls = even_split(horizon, k)  # the split `intervene_many` makes
    before = env.experiments_used
    omega = env.intervene_many(arms.matrix, horizon)
    mu_hat = np.bincount(np.repeat(np.arange(k), pulls), weights=omega[:, -1],
                         minlength=k) / np.maximum(pulls, 1)
    chosen = int(np.argmax(mu_hat))
    return StrategyResult(chosen, arms[chosen], mu_hat, env.experiments_used - before)


def run_successive_rejects(env: Environment, dag: CausalDag, arms: InterventionSet,
                           horizon: int) -> StrategyResult:
    """Round-based elimination: each round tops every survivor up to a shared
    pull count, then retires the lowest empirical mean (lowest index on ties).
    One call draws a round's pulls. Rounds whose schedule entry is not yet
    positive pull nothing; with a horizon of at most one pull per arm none is,
    and elimination by index alone leaves the last arm, returned at once.
    The estimates returned are the last round's empirical means."""
    k = len(arms)
    if k < 2:
        raise ParameterError("need at least two arms")
    if horizon < 1:
        raise ParameterError("horizon must be positive")
    if horizon <= k:
        return StrategyResult(k - 1, arms[k - 1], np.zeros(k), 0)
    log_bar = 0.5 + sum(1.0 / i for i in range(2, k + 1))
    sums = np.zeros(k)
    pulls = np.zeros(k, dtype=np.int64)
    active = np.ones(k, dtype=bool)
    before = env.experiments_used
    level = 0
    for stage in range(1, k):
        target = int(np.ceil((horizon - k) / (log_bar * (k + 1 - stage))))
        add = max(0, target - level)
        level = max(level, target)
        live = np.flatnonzero(active)
        if add > 0:
            omega = env.intervene_many(arms.matrix[live], add * len(live))
            sums[live] += omega[:, -1].reshape(len(live), add).sum(axis=1)
            pulls[live] += add
        means = np.where(pulls > 0, sums / np.maximum(pulls, 1), 0.0)
        worst = live[int(np.argmin(means[live]))]
        active[worst] = False
    survivor = int(np.flatnonzero(active)[0])
    return StrategyResult(survivor, arms[survivor], means, env.experiments_used - before)


def simple_regret(instance: Instance, chosen) -> float:
    """Best achievable reward probability minus the mean over chosen arms.
    One sweep scores the arm set and the chosen arms together: the plan of a
    sweep depends on the arms it is given, so a chosen arm scored on its own
    could differ from its entry in the set in the last bit, and the regret
    of the best arm could come out below zero."""
    if isinstance(chosen, Intervention):
        chosen = [chosen]
    chosen = [arm.values for arm in chosen]
    if not chosen:
        raise ParameterError("need at least one chosen intervention")
    k = len(instance.arms)
    mus = target_probabilities(instance.table, instance.dag,
                               np.vstack([instance.arms.matrix, chosen]))
    return float(np.max(mus[:k])) - float(np.mean(mus[k:]))
