"""Second estimation phase: shared-count refinement of the phase-1 estimates.

The horizon, the per-pair batch and C are read from the phase-1 result. Part
one replays each pair's recorded best arm for one batch, every batch in one
sampler call. Part two spends a third of the horizon on arms drawn from a
weight vector: either the minimizer of the allocation objective built from
phase 1's stored reach ("paper"; phase 2 runs no inference of its own) or
`allocation.vote_share` of phase 1's best arms ("practical"), each picked arm
for its pick count. One sampler call draws both parts and one `fold_counts`
folds them, so every node the applied arm leaves free absorbs every sample.
Practical mode starts from phase 1's shared counts, paper mode from zero.
Final rates follow `phase1.rate_estimates` and are zeroed wherever phase 1
dropped the entry. Everything is read in phase 1's flat row layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import MinimizeResult, RatioObjective, minimize, vote_share
from .errors import ParameterError
from .inference import SimulatedEnvironment
# unused here; perfbench/tracer.py's TRACE_POINTS looks it up
from .inference import parent_probabilities  # noqa: F401
from .model import ConditionalTable
from .phase1 import Phase1Result, fold_counts, rate_estimates

WEIGHT_CLIP = 1e-12


def build_allocation_objective(phase1: Phase1Result) -> RatioObjective:
    """Ratio objective over the surviving pairs, the rows of phase 1's reach
    with offsets best reach / row count. A pair survives when its node is
    uncertain and at least one of its two conditional values escaped
    truncation. Reach is zero wherever an arm fixes the node, so such an arm
    neither scores nor informs its terms."""
    kept = (phase1.best_arm >= 0) & ~(phase1.unreliable | phase1.rare).all(axis=1)
    return RatioObjective(phase1.reach[kept], phase1.best_value[kept] / phase1.uncertain_rows)


@dataclass(frozen=True)
class Phase2Result:
    estimate: ConditionalTable
    seen: tuple[np.ndarray, ...]
    seen_one: tuple[np.ndarray, ...]
    weights: np.ndarray
    draws: int
    solver: MinimizeResult | None


def run_phase2(env: SimulatedEnvironment, phase1: Phase1Result, mode: str, rng) -> Phase2Result:
    """Spend the last two thirds of phase 1's horizon; return the final estimate."""
    if mode not in ("paper", "practical"):
        raise ParameterError(f"mode must be 'paper' or 'practical', got {mode!r}")
    dag, arms = phase1.dag, phase1.arms
    rng = np.random.default_rng(rng)

    # each pair's best arm: the replay's batches and practical mode's votes
    best_arms = phase1.best_arm[phase1.best_arm >= 0]
    solver = None
    if mode == "paper":
        solver = minimize(build_allocation_objective(phase1))
        weights = solver.weights.copy()
    else:
        weights = vote_share(best_arms, len(arms))
    weights[weights < WEIGHT_CLIP] = 0.0
    total = weights.sum()
    weights = weights / total if total > 0 else np.full(len(arms), 1.0 / len(arms))

    draws = phase1.horizon // 3
    picks = np.searchsorted(np.cumsum(weights), rng.random(draws), side="right")
    pick_counts = np.bincount(np.clip(picks, 0, len(arms) - 1), minlength=len(arms))
    counts = phase1.shared.copy() if mode == "practical" else np.zeros_like(phase1.shared)
    picked = np.flatnonzero(pick_counts)
    batches = arms.take(np.concatenate([best_arms, picked]))  # the stream's batch order
    sizes = np.concatenate([np.full(len(best_arms), phase1.per_pair), pick_counts[picked]])
    counts += fold_counts(dag, np.repeat(batches.matrix, sizes, axis=0),
                          env.intervene_many(batches, int(sizes.sum()), sizes))

    seen = counts.sum(axis=1)
    rates = rate_estimates(seen, counts[:, 1])  # zero on nodes no arm frees
    return Phase2Result(
        estimate=ConditionalTable._from_flat(dag, np.where(phase1.unreliable | phase1.rare,
                                                           0.0, rates)),
        seen=dag.split_rows(seen),
        seen_one=dag.split_rows(counts[:, 1]),
        weights=weights,
        draws=draws,
        solver=solver,
    )
