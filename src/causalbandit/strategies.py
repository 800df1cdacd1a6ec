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
from .inference import SimulatedEnvironment, even_split, target_probabilities
# unused here; perfbench/tracer.py's TRACE_POINTS looks it up
from .inference import target_probability  # noqa: F401
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


def run_causal_bandit(env: SimulatedEnvironment, dag: CausalDag, arms: InterventionSet,
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


def run_uniform_baseline(env: SimulatedEnvironment, dag: CausalDag, arms: InterventionSet,
                         horizon: int) -> StrategyResult:
    """Draw the horizon in one call, split over the arms by the sampler's
    default, `even_split`; never-pulled arms keep estimate zero."""
    k = len(arms)
    pulls = even_split(horizon, k)  # refuses a negative horizon and an empty arm set
    before = env.experiments_used
    omega = env.intervene_many(arms, horizon)
    mu_hat = np.bincount(np.repeat(np.arange(k), pulls), weights=omega[:, -1],
                         minlength=k) / np.maximum(pulls, 1)
    chosen = int(np.argmax(mu_hat))
    return StrategyResult(chosen, arms[chosen], mu_hat, env.experiments_used - before)


def run_successive_rejects(env: SimulatedEnvironment, dag: CausalDag, arms: InterventionSet,
                           horizon: int) -> StrategyResult:
    """Round-based elimination (Audibert & Bubeck 2010): each stage tops every
    survivor up to a shared pull count, then retires the lowest empirical
    mean (lowest index on ties). One call draws a stage's pulls. A stage
    whose schedule entry does not rise pulls nothing and leaves the means as
    they were, so a pulling stage and the pull-free stages after it retire
    their arms together, lowest mean first in a stable sort of the live
    means. With a horizon of at most one pull per arm no stage pulls, and
    elimination by index alone leaves the last arm, returned at once. The
    estimates returned are the last pulling stage's empirical means."""
    k = len(arms)
    if k < 2:
        raise ParameterError("need at least two arms")
    if horizon < 1:
        raise ParameterError("horizon must be positive")
    if horizon <= k:
        return StrategyResult(k - 1, arms[k - 1], np.zeros(k), 0)
    log_bar = 0.5 + sum(1.0 / i for i in range(2, k + 1))
    # per-arm pull count after stages 1..k-1; nondecreasing, and at least 1
    levels = np.ceil((horizon - k) / (log_bar * np.arange(k, 1, -1))).astype(np.int64)
    adds = np.diff(levels, prepend=0)
    pulling = np.flatnonzero(adds > 0)  # the first stage always pulls
    retire = np.diff(pulling, append=k - 1)  # a pulling stage and its pull-free ones
    sums = np.zeros(k)
    pulls = np.zeros(k, dtype=np.int64)
    active = np.ones(k, dtype=bool)
    before = env.experiments_used
    for add, run in zip(adds[pulling].tolist(), retire.tolist()):
        live = np.flatnonzero(active)
        omega = env.intervene_many(arms.take(live), add * len(live))
        sums[live] += omega[:, -1].reshape(len(live), add).sum(axis=1)
        pulls[live] += add
        means = np.where(pulls > 0, sums / np.maximum(pulls, 1), 0.0)
        active[live[np.argsort(means[live], kind="stable")[:run]]] = False
    survivor = int(np.flatnonzero(active)[0])
    return StrategyResult(survivor, arms[survivor], means, env.experiments_used - before)


def simple_regret(instance: Instance, chosen) -> float:
    """Best reward probability over the arm set minus the mean over the
    chosen arms, all read off `instance.rewards`, which one sweep over the
    arm set computes once per instance. Every chosen arm must be in the arm
    set, so the regret is never below zero."""
    chosen = [chosen] if isinstance(chosen, Intervention) else list(chosen)
    if not chosen:
        raise ParameterError("need at least one chosen intervention")
    matrix = instance.arms.matrix
    rows = []
    for arm in chosen:
        hits = np.flatnonzero((matrix == arm.values).all(axis=1)) \
            if len(arm) == matrix.shape[1] else []
        if len(hits) == 0:
            raise ParameterError(f"chosen arm {arm} is not in the instance's arm set")
        rows.append(hits[0])
    rewards = instance.rewards
    return float(np.max(rewards)) - float(np.mean(rewards[rows]))
