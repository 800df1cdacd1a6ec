import numpy as np
import pytest

from causalbandit.bif import load_bundled, to_causal_dag
from causalbandit.errors import ParameterError
from causalbandit.inference import SimulatedEnvironment, target_probabilities
from causalbandit.model import (
    FREE,
    CausalDag,
    Instance,
    Intervention,
    InterventionSet,
    enumerate_budget_interventions,
    enumerate_root_interventions,
    make_binary_tree_dag,
    random_conditional_table,
)
from causalbandit.strategies import (
    default_trunc_scale,
    run_causal_bandit,
    run_successive_rejects,
    run_uniform_baseline,
    simple_regret,
)

from conftest import random_dag, random_instance, success_table


def two_arm_chain():
    """Each node copies its parent; intervening 1 on the root forces reward 1."""
    dag = CausalDag(((), (0,), (1,)))
    table = success_table([
        np.array([0.5]),
        np.array([0.0, 1.0]),
        np.array([0.0, 1.0]),
    ])
    arms = InterventionSet(np.array([
        [1, FREE, FREE],
        [0, FREE, FREE],
    ], dtype=np.int8))
    return Instance(dag, table, arms)


def test_default_trunc_scale():
    inst = two_arm_chain()
    rows = inst.uncertain_rows
    assert default_trunc_scale(inst.dag, inst.arms, "paper") == pytest.approx(rows ** 3 / 3)
    assert default_trunc_scale(inst.dag, inst.arms, "practical") == 0.0


@pytest.mark.parametrize("mode", ["paper", "practical"])
def test_bandit_ledger(mode):
    rng = np.random.default_rng(1)
    inst = random_instance(rng, n_nodes=5, n_arms=3)
    horizon = 3 * inst.uncertain_rows * 15 + 2
    env = SimulatedEnvironment(inst, 2)
    res = run_causal_bandit(env, inst.dag, inst.arms, horizon, mode, rng=3)
    per_pair = horizon // (3 * inst.uncertain_rows)
    assert res.experiments_used == 2 * inst.uncertain_rows * per_pair + horizon // 3
    assert res.experiments_used <= horizon


def test_bandit_mode_validation():
    inst = two_arm_chain()
    env = SimulatedEnvironment(inst, 0)
    with pytest.raises(ParameterError):
        run_causal_bandit(env, inst.dag, inst.arms, 300, "greedy", rng=0)


@pytest.mark.parametrize("mode", ["paper", "practical"])
def test_bandit_determinism(mode):
    rng = np.random.default_rng(4)
    inst = random_instance(rng, n_nodes=5, n_arms=3)
    horizon = 3 * inst.uncertain_rows * 12
    a = run_causal_bandit(SimulatedEnvironment(inst, 5), inst.dag, inst.arms,
                          horizon, mode, rng=7)
    b = run_causal_bandit(SimulatedEnvironment(inst, 5), inst.dag, inst.arms,
                          horizon, mode, rng=7)
    assert a.chosen_index == b.chosen_index
    assert np.array_equal(a.mu_hat, b.mu_hat)


def test_bandit_finds_deterministic_winner():
    inst = two_arm_chain()
    env = SimulatedEnvironment(inst, 6)
    res = run_causal_bandit(env, inst.dag, inst.arms, 300, "practical", rng=8)
    assert res.chosen_index == 0
    assert res.mu_hat[0] == pytest.approx(1.0)
    assert res.mu_hat[1] == pytest.approx(0.0)
    assert res.chosen_index == int(np.argmax(res.mu_hat))


def test_uniform_exact_allocation():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, n_nodes=4, n_arms=5)
    env = SimulatedEnvironment(inst, 10)
    res = run_uniform_baseline(env, inst.dag, inst.arms, 37)
    assert res.experiments_used == 37
    assert env.experiments_used == 37
    assert np.all(res.mu_hat >= 0.0)
    assert np.all(res.mu_hat <= 1.0)
    assert res.chosen_index == int(np.argmax(res.mu_hat))


def test_uniform_leaves_unpulled_arms_at_zero():
    rng = np.random.default_rng(11)
    inst = random_instance(rng, n_nodes=4, n_arms=5)
    env = SimulatedEnvironment(inst, 12)
    res = run_uniform_baseline(env, inst.dag, inst.arms, 3)
    assert res.experiments_used == 3
    assert np.all(res.mu_hat[3:] == 0.0)


def test_uniform_on_deterministic_chain():
    inst = two_arm_chain()
    env = SimulatedEnvironment(inst, 13)
    res = run_uniform_baseline(env, inst.dag, inst.arms, 200)
    assert res.chosen_index == 0
    assert res.mu_hat[0] == 1.0
    assert res.mu_hat[1] == 0.0


def test_rejects_two_arm_schedule():
    inst = two_arm_chain()
    env = SimulatedEnvironment(inst, 14)
    res = run_successive_rejects(env, inst.dag, inst.arms, 10)
    # one stage: both arms pulled ceil((10 - 2) / 2) = 4 times
    assert env.experiments_used == 8
    assert res.chosen_index == 0
    assert res.mu_hat[0] == 1.0


def test_rejects_tiny_horizon_eliminates_by_index():
    rng = np.random.default_rng(15)
    inst = random_instance(rng, n_nodes=4, n_arms=6)
    for horizon in (2, len(inst.arms)):
        env = SimulatedEnvironment(inst, 16)
        res = run_successive_rejects(env, inst.dag, inst.arms, horizon)
        assert env.experiments_used == 0
        assert res.experiments_used == 0
        assert res.chosen_index == len(inst.arms) - 1
        assert np.array_equal(res.mu_hat, np.zeros(len(inst.arms)))


@pytest.mark.parametrize("n_arms,horizon", [(2, 2), (3, 11), (7, 50), (5, 333)])
def test_rejects_never_overspends(n_arms, horizon):
    rng = np.random.default_rng(17)
    inst = random_instance(rng, n_nodes=4, n_arms=n_arms)
    env = SimulatedEnvironment(inst, 18)
    res = run_successive_rejects(env, inst.dag, inst.arms, horizon)
    assert res.experiments_used <= horizon
    assert 0 <= res.chosen_index < n_arms


def _reference_successive_rejects(env, arms, horizon):
    """The stage loop successive rejects ran before its pull-free stages
    were retired in one sort: one argmin over the live means per stage."""
    k = len(arms)
    if horizon <= k:
        return k - 1, np.zeros(k), 0
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
    return int(np.flatnonzero(active)[0]), means, env.experiments_used - before


def test_rejects_takes_the_reference_loops_steps():
    rng = np.random.default_rng(2024)
    for case in range(24):
        k = int(rng.integers(2, 41))
        inst = random_instance(rng, n_nodes=5, n_arms=k)
        if case % 2:
            # 0/1 rates make every reward deterministic, so the means tie
            dag = random_dag(rng, 5)
            table = success_table(
                [rng.integers(0, 2, dag.row_count(n)) for n in range(5)])
            inst = Instance(dag, table, inst.arms)
        for horizon in (k, k + 1, 2 * k, 9 * k):
            seed = int(rng.integers(1 << 31))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = run_successive_rejects(SimulatedEnvironment(inst, ours), inst.dag,
                                         inst.arms, horizon)
            want = _reference_successive_rejects(SimulatedEnvironment(inst, theirs),
                                                 inst.arms, horizon)
            where = f"case {case} k={k} horizon={horizon}"
            assert (got.chosen_index, got.experiments_used) == (want[0], want[2]), where
            assert got.mu_hat.tobytes() == want[1].tobytes(), where
            assert ours.bit_generator.state == theirs.bit_generator.state, where


def test_uniform_validation():
    inst = two_arm_chain()
    empty = InterventionSet(inst.arms.matrix[:0])
    for arms, horizon in ((empty, 10), (inst.arms, -1)):
        env = SimulatedEnvironment(inst, 0)
        with pytest.raises(ParameterError):
            run_uniform_baseline(env, inst.dag, arms, horizon)
        assert env.experiments_used == 0


def test_rejects_validation():
    inst = two_arm_chain()
    single = InterventionSet(inst.arms.matrix[:1])
    with pytest.raises(ParameterError):
        run_successive_rejects(SimulatedEnvironment(inst, 0), inst.dag, single, 10)
    with pytest.raises(ParameterError):
        run_successive_rejects(SimulatedEnvironment(inst, 0), inst.dag, inst.arms, 0)


def test_simple_regret_values():
    inst = two_arm_chain()
    mus = target_probabilities(inst.table, inst.dag, inst.arms)
    assert np.allclose(mus, [1.0, 0.0])
    assert simple_regret(inst, inst.arms[0]) == pytest.approx(0.0)
    assert simple_regret(inst, inst.arms[1]) == pytest.approx(1.0)
    assert simple_regret(inst, [inst.arms[0], inst.arms[1]]) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        simple_regret(inst, [])


def test_simple_regret_rejects_an_arm_outside_the_set():
    dag = make_binary_tree_dag(2)
    arms = enumerate_budget_interventions(dag.node_count, range(4), 1)
    inst = Instance(dag, random_conditional_table(dag, 0), arms)
    outside = Intervention((1, 1, 1, 1, FREE, FREE, FREE))
    with pytest.raises(ParameterError, match=r"1111\*\*\*"):
        simple_regret(inst, outside)
    with pytest.raises(ParameterError, match="not in the instance's arm set"):
        simple_regret(inst, [arms[0], Intervention((1, 0, 0))])
    assert simple_regret(inst, arms[int(np.argmax(inst.rewards))]) == 0.0


def test_regret_of_each_arm_is_its_gap_to_the_best():
    # on this table an arm scored alone differs from its entry in the arm set
    # in the last bit, and a near-best arm scored alone beats the set's best
    dag, _ = to_causal_dag(load_bundled("water"))
    arms = enumerate_root_interventions(dag.node_count, dag.roots, 2)
    inst = Instance(dag, random_conditional_table(dag, 6), arms)
    mus = target_probabilities(inst.table, dag, arms)
    for i in np.flatnonzero(mus >= mus.max() - 1e-12):
        assert simple_regret(inst, arms[int(i)]) == mus.max() - mus[i] >= 0.0
