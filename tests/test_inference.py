import numpy as np
import pytest

from causalbandit.errors import BudgetError, CapacityError, ParameterError
from causalbandit.inference import (
    SimulatedEnvironment,
    _sweep,
    brute_force_parent_probability,
    brute_force_target_probability,
    parent_probabilities,
    sample_batch,
    target_probabilities,
    target_probability,
)
from causalbandit.model import (
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    Intervention,
    InterventionSet,
    ParentRealization,
    make_binary_tree_instance,
    random_conditional_table,
)
from conftest import random_arm, random_dag, random_instance


def test_sample_all_intervened_is_deterministic():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 5, 1)
    arm = Intervention((1, 0, 1, 1, 0))
    for _ in range(5):
        out = sample_batch(inst.table, inst.dag, arm.values, 1, rng)
        assert np.array_equal(out[0], [1, 0, 1, 1, 0])


def test_sample_degenerate_row_always_one():
    dag = CausalDag(((), (0,), (1,)))
    table = ConditionalTable.from_success_probs([[0.5], [1.0, 1.0], [0.3, 0.6]])
    inst = Instance(dag, table, InterventionSet([[FREE, FREE, FREE]]))
    out = sample_batch(inst.table, inst.dag, inst.arms.matrix[0], 200,
                       np.random.default_rng(1))
    assert np.all(out[:, 1] == 1)


def test_sample_matches_exact_frequency_and_clamps():
    rng = np.random.default_rng(123)
    inst = random_instance(rng, 5, 1, free_prob=0.7)
    arm = inst.arms[0]
    mu = target_probability(inst.table, inst.dag, arm)
    n = 100000
    out = sample_batch(inst.table, inst.dag, arm.values, n, rng)
    for node, v in enumerate(arm.values):
        if v != FREE:
            assert np.all(out[:, node] == v)
    freq = out[:, -1].mean()
    sigma = np.sqrt(max(mu * (1 - mu), 1e-12) / n)
    assert abs(freq - mu) <= 3 * sigma + 1e-9


def test_target_prob_intervened_target():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 4, 1)
    n = inst.dag.node_count
    one = Intervention((FREE,) * (n - 1) + (1,))
    zero = Intervention((FREE,) * (n - 1) + (0,))
    assert target_probability(inst.table, inst.dag, one) == pytest.approx(1.0, abs=1e-12)
    assert target_probability(inst.table, inst.dag, zero) == pytest.approx(0.0, abs=1e-12)


def test_target_prob_two_node_chain_hand_value():
    dag = CausalDag(((), (0,)))
    table = ConditionalTable.from_success_probs([[0.3], [0.2, 0.9]])
    got = target_probability(table, dag, Intervention((FREE, FREE)))
    assert got == pytest.approx(0.3 * 0.9 + 0.7 * 0.2, abs=1e-12)


def test_target_value_normalization():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = random_instance(rng, 6, 3)
        # the reward node's parent-row mass, which the target weights by its
        # chance of 1 per row, is a distribution under every arm
        mass = _sweep(inst.table, inst.dag, inst.arms.matrix, inst.dag.node_count - 1)
        np.testing.assert_allclose(mass.sum(axis=1), 1.0, atol=1e-12)


def test_parent_prob_zero_when_node_fixed():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, 5, 1)
    dag = inst.dag
    node = 3
    vals = list(inst.arms.matrix[0])
    vals[node] = 0
    pi = ParentRealization.from_index(dag.parents[node], 0)
    arm = Intervention(tuple(vals))
    assert parent_probabilities(inst.table, dag, node, arm)[0, pi.index] == 0.0


def test_parent_prob_empty_scope_is_one():
    dag = CausalDag(((), (0,), (0, 1)))
    table = random_conditional_table(dag, 0)
    pi = ParentRealization((), ())
    arm = Intervention((FREE, 1, FREE))
    assert parent_probabilities(table, dag, 0, arm)[0, pi.index] == pytest.approx(1.0)


def test_parent_prob_parents_clamped():
    dag = CausalDag(((), (), (0, 1)))
    table = random_conditional_table(dag, 1)
    pi = ParentRealization((0, 1), (1, 0))
    match = Intervention((1, 0, FREE))
    mismatch = Intervention((1, 1, FREE))
    assert (parent_probabilities(table, dag, 2, match)[0, pi.index]
            == pytest.approx(1.0, abs=1e-12))
    assert (parent_probabilities(table, dag, 2, mismatch)[0, pi.index]
            == pytest.approx(0.0, abs=1e-12))


def test_parent_prob_marginal_normalization():
    rng = np.random.default_rng(5)
    for _ in range(10):
        inst = random_instance(rng, 7, 4)
        dag = inst.dag
        for node in range(dag.node_count):
            total = parent_probabilities(inst.table, dag, node, inst.arms).sum(axis=1)
            free = inst.arms.matrix[:, node] == FREE
            np.testing.assert_allclose(total[free], 1.0, atol=1e-12)


def test_sweep_matches_brute_force_target():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(3, 11))
        inst = random_instance(rng, n, 4, max_parents=4)
        for arm in inst.arms:
            want = brute_force_target_probability(inst.table, inst.dag, arm)
            got = target_probability(inst.table, inst.dag, arm)
            assert abs(got - want) <= 1e-12


def test_sweep_matches_brute_force_parents():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 11))
        inst = random_instance(rng, n, 3, max_parents=4)
        dag = inst.dag
        node = int(rng.integers(1, n))
        idx = int(rng.integers(0, dag.row_count(node)))
        pi = ParentRealization.from_index(dag.parents[node], idx)
        for arm in inst.arms:
            want = brute_force_parent_probability(inst.table, dag, node, pi, arm)
            got = parent_probabilities(inst.table, dag, node, arm)[0, pi.index]
            assert abs(got - want) <= 1e-12


def test_substochastic_tables_match_brute_force():
    # sweeps must keep sub-stochastic rows' lost mass, same as the raw sums
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(3, 9))
        inst = random_instance(rng, n, 3)
        rows = [r.copy() for r in inst.table.rows]
        for node in range(n):
            mask = rng.random(rows[node].shape) < 0.3
            rows[node][mask] = 0.0
        trunc = ConditionalTable(tuple(rows))
        for arm in inst.arms:
            want = brute_force_target_probability(trunc, inst.dag, arm)
            got = target_probability(trunc, inst.dag, arm)
            assert abs(got - want) <= 1e-12


def test_truncation_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        inst = random_instance(rng, n, 2)
        rows = [r.copy() for r in inst.table.rows]
        node = int(rng.integers(0, n))
        rows[node][int(rng.integers(0, rows[node].shape[0]))] = 0.0
        trunc = ConditionalTable(tuple(rows))
        for arm in inst.arms:
            assert (target_probability(trunc, inst.dag, arm)
                    <= target_probability(inst.table, inst.dag, arm) + 1e-12)
            m = int(rng.integers(1, n))
            pi = ParentRealization.from_index(
                inst.dag.parents[m], int(rng.integers(0, inst.dag.row_count(m))))
            assert (parent_probabilities(trunc, inst.dag, m, arm)[0, pi.index]
                    <= parent_probabilities(inst.table, inst.dag, m, arm)[0, pi.index] + 1e-12)


def test_capacity_guard_trips():
    wide = 22
    parents = tuple(() for _ in range(wide)) + (tuple(range(wide)),)
    dag = CausalDag(parents)
    table = ConditionalTable.from_success_probs(
        [np.full(dag.row_count(n), 0.5) for n in range(dag.node_count)])
    with pytest.raises(CapacityError):
        target_probability(table, dag, Intervention((FREE,) * dag.node_count))


BAD_QUERIES = {
    "short arm": lambda t, d: parent_probabilities(t, d, 2, [FREE, FREE]),
    "long arm": lambda t, d: parent_probabilities(t, d, 2, [FREE] * 4),
    "arm value 2": lambda t, d: parent_probabilities(t, d, 2, [FREE, 2, FREE]),
    "negative node": lambda t, d: parent_probabilities(t, d, -1, [FREE] * 3),
    "node past the end": lambda t, d: parent_probabilities(t, d, 5, [FREE] * 3),
    "node count": lambda t, d: parent_probabilities(t, d, 3, [FREE] * 3),
    "target arm value 2": lambda t, d: target_probabilities(t, d, [[FREE, FREE, 2]]),
    "target short arm": lambda t, d: target_probabilities(t, d, [[FREE, FREE]]),
}


@pytest.mark.parametrize("name", sorted(BAD_QUERIES))
def test_bad_queries_raise_parameter_error(name):
    dag = CausalDag(((), (0,), (0, 1)))
    with pytest.raises(ParameterError):
        BAD_QUERIES[name](random_conditional_table(dag, 0), dag)


def test_deep_chain_matches_transition_product():
    n = 2000
    dag = CausalDag(((),) + tuple((i,) for i in range(n - 1)))
    success = np.random.default_rng(12).uniform(0.05, 0.95, size=(n, 2))
    table = ConditionalTable.from_success_probs([success[0, :1]] + list(success[1:]))
    dist = np.array([1 - success[0, 0], success[0, 0]])
    for i in range(1, n):
        dist = dist @ np.array([[1 - success[i, 0], success[i, 0]],
                                [1 - success[i, 1], success[i, 1]]])
    got = target_probability(table, dag, Intervention((FREE,) * n))
    assert got == pytest.approx(dist[1], abs=1e-12)


def test_environment_ledger_and_budget():
    rng = np.random.default_rng(10)
    inst = random_instance(rng, 5, 2)
    env = SimulatedEnvironment(inst, rng, max_experiments=10)
    env.intervene_many(inst.arms[0], 1)
    env.intervene_many(inst.arms[1], 7)
    assert env.experiments_used == 8
    with pytest.raises(BudgetError):
        env.intervene_many(inst.arms[0], 3)
    env.intervene_many(inst.arms[0], 2)
    assert env.experiments_used == 10


def test_environment_respects_clamps():
    rng = np.random.default_rng(11)
    inst = random_instance(rng, 6, 3, free_prob=0.4)
    env = SimulatedEnvironment(inst, rng)
    for arm in inst.arms:
        out = env.intervene_many(arm, 50)
        for node, v in enumerate(arm.values):
            if v != FREE:
                assert np.all(out[:, node] == v)


def test_tree_instance_sweep_vs_brute_force():
    inst = make_binary_tree_instance(3, 2, rng_seed=3)
    mus = target_probabilities(inst.table, inst.dag, inst.arms)
    for i, arm in enumerate(inst.arms):
        want = brute_force_target_probability(inst.table, inst.dag, arm)
        assert abs(mus[i] - want) <= 1e-12
