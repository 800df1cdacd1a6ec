"""Phase 2's resample in one sampler call against a frozen copy of the loop it
replaced (the replay in one call, then one call per picked arm), bit for bit:
the estimate, the counts, the weights, the ledger and the environment's next
draws, on random networks and on bundled ones where arms are picked zero
times, once and many times."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalbandit.allocation import minimize, vote_share
from causalbandit.inference import SimulatedEnvironment
from causalbandit.model import ConditionalTable, Instance
from causalbandit.phase1 import fold_counts, rate_estimates, run_phase1
from causalbandit.phase2 import WEIGHT_CLIP, build_allocation_objective, run_phase2
from test_parent_marginals import networks
from test_phase1_skip import instance


def reference_run_phase2(env, phase1, mode, rng):
    """`run_phase2` as it was with one sampler call per picked arm; returns
    the result's fields and the pick counts."""
    dag, arms = phase1.dag, phase1.arms
    rng = np.random.default_rng(rng)
    if mode == "paper":
        weights = minimize(build_allocation_objective(phase1)).weights.copy()
    else:
        weights = vote_share([phase1.best_arm[n] for n in phase1.uncertain_nodes], len(arms))
    weights[weights < WEIGHT_CLIP] = 0.0
    total = weights.sum()
    weights = weights / total if total > 0 else np.full(len(arms), 1.0 / len(arms))

    draws = phase1.horizon // 3
    picks = np.searchsorted(np.cumsum(weights), rng.random(draws), side="right")
    pick_counts = np.bincount(np.clip(picks, 0, len(arms) - 1), minlength=len(arms))
    counts = phase1.shared.copy() if mode == "practical" else np.zeros_like(phase1.shared)
    replay = arms.take(np.concatenate([phase1.best_arm[n] for n in phase1.uncertain_nodes]))
    counts += fold_counts(dag, np.repeat(replay.matrix, phase1.per_pair, axis=0),
                          env.intervene_many(replay, len(replay) * phase1.per_pair))
    for arm_idx in np.flatnonzero(pick_counts):
        arm = arms.take(arm_idx)
        counts += fold_counts(dag, arm.matrix,
                              env.intervene_many(arm, int(pick_counts[arm_idx])))

    seen = counts.sum(axis=1)
    rates = dag.split_rows(rate_estimates(seen, counts[:, 1]))
    estimate = ConditionalTable(tuple(np.where(phase1.truncation.dropped(n), 0.0, r)
                                      for n, r in enumerate(rates)))
    return (estimate, dag.split_rows(seen), dag.split_rows(counts[:, 1]), weights,
            draws), pick_counts


class CountedEnvironment(SimulatedEnvironment):
    """A simulated environment that counts its sampler calls."""

    def __init__(self, instance, rng):
        super().__init__(instance, rng)
        self.calls = 0

    def intervene_many(self, arm, count, sizes=None):
        self.calls += 1
        return super().intervene_many(arm, count, sizes)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_matches_the_loop(inst, horizon, mode, seed):
    """Phase 2 and the frozen loop on one phase-1 result, each on its own
    environment of one seed; returns the pick counts."""
    p1 = run_phase1(SimulatedEnvironment(inst, seed), inst.dag, inst.arms, 0.0, horizon)
    env, reference_env = CountedEnvironment(inst, seed + 1), SimulatedEnvironment(inst, seed + 1)
    got = run_phase2(env, p1, mode, rng=seed + 2)
    (estimate, seen, seen_one, weights, draws), pick_counts = reference_run_phase2(
        reference_env, p1, mode, rng=seed + 2)
    assert env.calls == 1
    assert env.experiments_used == reference_env.experiments_used
    assert same(got.weights, weights) and got.draws == draws
    for field, want in ((got.estimate.rows, estimate.rows), (got.seen, seen),
                        (got.seen_one, seen_one)):
        assert len(field) == len(want) and all(map(same, field, want))
    after = [e.intervene_many(inst.arms, 2 * len(inst.arms)) for e in (env, reference_env)]
    assert same(*after)
    return pick_counts


@settings(max_examples=60, deadline=None)
@given(networks(), st.sampled_from(["paper", "practical"]), st.sampled_from([3, 9]),
       st.integers(0, 2 ** 16))
def test_one_call_matches_the_loop_on_random_networks(net, mode, multiplier, seed):
    table, dag, arms = net
    assume(arms.uncertain_nodes)
    inst = Instance(dag, table, arms)
    assert_matches_the_loop(inst, multiplier * inst.uncertain_rows, mode, seed)


@pytest.mark.parametrize("mode", ["paper", "practical"])
@pytest.mark.parametrize("source, budget", [("alarm", 4), ("tree-h3", 2), ("water", 2)])
def test_one_call_matches_the_loop_with_arms_picked_zero_one_and_many_times(source, budget,
                                                                            mode):
    inst = instance(source, budget, 3)
    pick_counts = assert_matches_the_loop(inst, 3 * inst.uncertain_rows, mode, 4)
    assert (pick_counts == 0).any() and (pick_counts == 1).any() and (pick_counts > 1).any()
