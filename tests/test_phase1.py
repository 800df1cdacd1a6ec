import math

import numpy as np
import pytest

from causalbandit.errors import BudgetError, ParameterError
from causalbandit.inference import SimulatedEnvironment
from causalbandit.model import (
    FREE,
    CausalDag,
    Instance,
    InterventionSet,
    enumerate_budget_interventions,
    random_conditional_table,
)
from causalbandit.phase1 import rate_estimates, run_phase1, truncation_threshold

from conftest import random_instance, success_table


def copy_chain_instance():
    """Three-node chain where each node copies its parent and the root is 1."""
    dag = CausalDag(((), (0,), (1,)))
    table = success_table([
        np.array([1.0]),
        np.array([0.0, 1.0]),
        np.array([0.0, 1.0]),
    ])
    arms = InterventionSet(np.array([[FREE, FREE, FREE]]))
    return Instance(dag, table, arms)


def test_rate_estimate_values():
    rates = rate_estimates(np.array([0, 4]), np.array([0, 3]))
    assert rates.shape == (2, 2)
    assert rates[0, 0] == 0.0
    assert rates[0, 1] == 0.0
    assert rates[1, 1] == pytest.approx(0.75)
    assert rates[1, 0] == pytest.approx(0.25)


def test_threshold_formula():
    expect = 12.0 * 0.5 * 9 * 5 * math.log(100) / 100
    assert truncation_threshold(0.5, 3, 5, 100) == pytest.approx(expect)


@pytest.mark.parametrize("args", [
    (0.0, 3, 5, 100),
    (-1.0, 3, 5, 100),
    (1.0, 0, 5, 100),
    (1.0, 3, 0, 100),
    (1.0, 3, 5, 1),
    (math.nan, 3, 5, 100),
    (math.inf, 3, 5, 100),
])
def test_threshold_rejects_bad_inputs(args):
    with pytest.raises(ParameterError):
        truncation_threshold(*args)


@pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
def test_phase1_rejects_a_negative_or_non_finite_scale(scale):
    inst = copy_chain_instance()
    env = SimulatedEnvironment(inst, 0)
    with pytest.raises(ParameterError):
        run_phase1(env, inst.dag, inst.arms, scale, 3000)
    assert env.experiments_used == 0


def test_budget_too_small_raises():
    inst = copy_chain_instance()
    env = SimulatedEnvironment(inst, 0)
    with pytest.raises(BudgetError):
        run_phase1(env, inst.dag, inst.arms, 0.0, 3 * inst.uncertain_rows - 1)


def test_experiment_ledger_is_rows_times_batch():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, n_nodes=5, n_arms=3)
    env = SimulatedEnvironment(inst, 1)
    horizon = 3 * inst.uncertain_rows * 17 + 5
    res = run_phase1(env, inst.dag, inst.arms, 0.0, horizon)
    assert res.per_pair == horizon // (3 * inst.uncertain_rows)
    assert env.experiments_used == inst.uncertain_rows * res.per_pair


def test_deterministic_chain_estimates_reachable_rows_exactly():
    inst = copy_chain_instance()
    env = SimulatedEnvironment(inst, 0)
    res = run_phase1(env, inst.dag, inst.arms, 0.0, 150)
    # root is always 1, so the zero-parent rows of the copies are never seen
    assert np.array_equal(res.trimmed.rows[0], [[0.0, 1.0]])
    assert np.array_equal(res.trimmed.rows[1], [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(res.trimmed.rows[2], [[0.0, 0.0], [0.0, 1.0]])
    assert res.seen[1][0] == 0
    assert res.seen[1][1] == res.per_pair


def test_draws_of_a_node_its_chosen_arm_clamps_are_not_counted():
    """Row 1 of node 1 (parent 0 equal to 1) has zero reach under both arms:
    the first clamps node 1 and the second clamps node 0 to 0. The tie goes
    to the first arm, whose draws all hold node 1 at 1; they say nothing of
    the row's rates and must leave it unseen."""
    dag = CausalDag(((), (0,), (1,)))
    table = success_table([
        np.array([0.45]), np.array([0.17, 0.3]), np.array([0.5, 0.5])])
    arms = InterventionSet(np.array([[FREE, 1, FREE], [0, FREE, FREE]]))
    inst = Instance(dag, table, arms)
    res = run_phase1(SimulatedEnvironment(inst, 3), dag, arms, 0.0, 3000)
    assert res.per_pair == 200
    assert dag.split_rows(res.best_arm)[1].tolist() == [1, 0]
    assert res.seen[1].tolist() == [200, 0]
    assert res.seen_one[1][1] == 0
    assert np.array_equal(res.trimmed.rows[1][1], [0.0, 0.0])
    assert res.trimmed.rows[1][0, 1] == res.seen_one[1][0] / 200


def test_zero_scale_disables_truncation():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, n_nodes=5, n_arms=3)
    env = SimulatedEnvironment(inst, 1)
    res = run_phase1(env, inst.dag, inst.arms, 0.0, 3 * inst.uncertain_rows * 10)
    assert res.threshold == 0.0
    assert not (res.unreliable.any() or res.rare.any())


def test_huge_scale_truncates_everything():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, n_nodes=5, n_arms=3)
    env = SimulatedEnvironment(inst, 1)
    res = run_phase1(env, inst.dag, inst.arms, 1e9, 3 * inst.uncertain_rows * 10)
    unreliable, rare = inst.dag.split_rows(res.unreliable), inst.dag.split_rows(res.rare)
    for n in res.uncertain_nodes:
        assert unreliable[n].all()
        assert rare[n].all()
        assert np.all(res.trimmed.rows[n] == 0.0)
        assert (unreliable[n] | rare[n]).all(axis=1).all()


@pytest.mark.parametrize("max_parents,trunc_scale", [(3, 1e-3), (1, 1e-2)])
def test_partial_truncation_matches_scalar_verdicts(max_parents, trunc_scale):
    """At these scales some entries are truncated and some are kept; every
    verdict is recomputed here, one entry at a time, from the counts. With at
    most one parent every node has 2 rows or fewer, so a (rows, 2) array
    broadcast the wrong way round gives wrong verdicts instead of an error."""
    rng = np.random.default_rng(10)
    inst = random_instance(rng, n_nodes=6, n_arms=4, max_parents=max_parents)
    env = SimulatedEnvironment(inst, 1)
    res = run_phase1(env, inst.dag, inst.arms, trunc_scale,
                     3 * inst.uncertain_rows * 200)
    cut = 2.0 * math.e * res.threshold
    dag = inst.dag
    best_value, unreliable = dag.split_rows(res.best_value), dag.split_rows(res.unreliable)
    verdicts = []
    for n in res.uncertain_nodes:
        for row in range(inst.dag.row_count(n)):
            t, t1 = int(res.seen[n][row]), int(res.seen_one[n][row])
            rate_one = t1 / t if t else 0.0
            for value, est in ((0, 1.0 - rate_one if t else 0.0), (1, rate_one)):
                drop = est * float(best_value[n][row]) <= cut
                assert unreliable[n][row, value] == drop
                assert (res.trimmed.rows[n][row, value] == 0.0) == drop
                verdicts.append(drop)
    assert any(verdicts) and not all(verdicts)


def test_counts_bounded_by_batch_size():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, n_nodes=6, n_arms=4)
    env = SimulatedEnvironment(inst, 2)
    res = run_phase1(env, inst.dag, inst.arms, 0.0, 3 * inst.uncertain_rows * 25)
    best_arm, best_value = inst.dag.split_rows(res.best_arm), inst.dag.split_rows(res.best_value)
    for n in res.uncertain_nodes:
        assert np.all(res.seen[n] <= res.per_pair)
        assert np.all(res.seen_one[n] <= res.seen[n])
        assert np.all(best_arm[n] >= 0)
        assert np.all(best_arm[n] < len(inst.arms))
        assert np.all(best_value[n] >= 0.0)
        assert np.all(best_value[n] <= 1.0 + 1e-12)


def test_shared_counts_cover_every_batch_for_single_free_arm():
    rng = np.random.default_rng(6)
    dag = CausalDag(((), (0,), (0, 1), (1, 2)))
    table = random_conditional_table(dag, 7)
    arms = InterventionSet(np.full((1, 4), FREE, dtype=np.int8))
    inst = Instance(dag, table, arms)
    env = SimulatedEnvironment(inst, 8)
    res = run_phase1(env, dag, arms, 0.0, 3 * inst.uncertain_rows * 12)
    # the lone arm frees every node, so each batch lands in every node's counts
    total_batches = inst.uncertain_rows * res.per_pair
    shared = dag.split_rows(res.shared)
    for n in res.uncertain_nodes:
        assert shared[n].sum() == total_batches


def test_estimates_close_to_truth_on_most_seeds():
    rng = np.random.default_rng(70)
    dag = CausalDag(((), (0,), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    table = random_conditional_table(dag, 71)
    arms = enumerate_budget_interventions(7, [0, 1], 1)
    inst = Instance(dag, table, arms)
    passes = 0
    checked = 0
    for trial in range(10):
        env = SimulatedEnvironment(inst, 100 + trial)
        res = run_phase1(env, dag, arms, 0.0, 30000)
        ok = True
        for n in res.uncertain_nodes:
            well_seen = res.seen[n] >= 300
            checked += int(well_seen.sum())
            diff = np.abs(res.trimmed.rows[n][well_seen, 1]
                          - inst.table.rows[n][well_seen, 1])
            ok = ok and bool(np.all(diff <= 0.1))
        passes += ok
    assert checked > 0
    assert passes >= 9
