"""Phase 1's skip of parent queries once every arm's prefix mass is exactly
zero, and its one sampler call for the nodes left after that: the results
against a frozen copy of the loop that runs every query and draws one node
at a time, bit for bit, and the skip both firing and held back by its
underflow bound."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalbandit import model, phase1
from causalbandit.errors import CapacityError
from causalbandit.inference import SimulatedEnvironment, parent_probabilities
from causalbandit.model import (
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    InterventionSet,
    random_conditional_table,
    uncertain_rows,
)
from causalbandit.phase1 import (
    Phase1Result,
    TruncationSets,
    fold_counts,
    rate_estimates,
    run_phase1,
    truncation_threshold,
)
from causalbandit.sweep import ExperimentConfig, build_arms, load_structure
from conftest import success_table
from test_parent_marginals import networks


def reference_run_phase1(env, dag, arms, trunc_scale, horizon):
    """`run_phase1` as it was before the skip: one parent query per
    uncertain node, whatever the prefix masses."""
    uncertain = arms.uncertain_nodes
    total_rows = uncertain_rows(dag, arms)
    per_pair = horizon // (3 * total_rows)
    threshold = (truncation_threshold(trunc_scale, dag.node_count, total_rows, horizon)
                 if trunc_scale > 0 else 0.0)

    rows = [dag.row_count(n) for n in range(dag.node_count)]
    table = ConditionalTable(tuple(np.zeros((r, 2)) for r in rows))
    unreliable = [np.zeros((r, 2), dtype=bool) for r in rows]
    rare = [np.zeros((r, 2), dtype=bool) for r in rows]
    own = np.zeros((dag.total_rows, 2), dtype=np.int64)
    shared = np.zeros_like(own)
    reach = [np.zeros((len(arms), r)) for r in rows]
    best_arm = [np.full(r, -1, dtype=np.int64) for r in rows]
    best_value = [np.zeros(r) for r in rows]

    matrix = arms.matrix
    for n in uncertain:
        reach[n] = parent_probabilities(table, dag, n, arms)
        best_arm[n] = np.argmax(reach[n], axis=0)
        best_value[n] = reach[n][best_arm[n], np.arange(rows[n])]
        pulled = matrix[best_arm[n]]
        omega = env.intervene_many(pulled, rows[n] * per_pair)
        draw_arms = np.repeat(pulled, per_pair, axis=0)
        shared += fold_counts(dag, draw_arms, omega)
        batch_row = np.repeat(np.arange(rows[n]), per_pair)
        hit = (omega @ dag.row_keys[:, n] == batch_row) & (draw_arms[:, n] == FREE)
        lo, hi = dag.row_offsets[n], dag.row_offsets[n + 1]
        own[lo:hi] = np.bincount(2 * batch_row[hit] + omega[hit, n],
                                 minlength=2 * rows[n]).reshape(-1, 2)
        est = rate_estimates(own[lo:hi].sum(axis=1), own[lo:hi, 1])
        if trunc_scale > 0:
            unreliable[n] = est * best_value[n][:, None] <= 2.0 * math.e * threshold
        table = ConditionalTable(table.rows[:n] + (np.where(unreliable[n], 0.0, est),)
                                 + table.rows[n + 1:])

    if trunc_scale > 0:
        rare_cut = 8.0 * math.e * total_rows ** 2 * threshold
        for n in uncertain:
            rare[n][best_value[n] <= rare_cut, :] = True

    return Phase1Result(
        dag=dag, arms=arms, trimmed=table,
        truncation=TruncationSets(tuple(unreliable), tuple(rare)),
        seen=dag.split_rows(own.sum(axis=1)), seen_one=dag.split_rows(own[:, 1]),
        reach=tuple(reach), best_arm=tuple(best_arm), best_value=tuple(best_value),
        shared=shared, trunc_scale=trunc_scale, horizon=horizon, per_pair=per_pair,
        threshold=threshold, uncertain_nodes=uncertain, uncertain_rows=total_rows)


def result_arrays(p1):
    return (p1.trimmed.rows + p1.truncation.unreliable + p1.truncation.rare + p1.seen
            + p1.seen_one + p1.reach + p1.best_arm + p1.best_value + (p1.shared,))


def assert_same_bits(got, want):
    assert (got.trunc_scale, got.horizon, got.per_pair, got.threshold,
            got.uncertain_nodes, got.uncertain_rows) == \
        (want.trunc_scale, want.horizon, want.per_pair, want.threshold,
         want.uncertain_nodes, want.uncertain_rows)
    for a, b in zip(result_arrays(got), result_arrays(want), strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def instance(source, budget, seed):
    config = (ExperimentConfig(source="tree", tree_height=3) if source == "tree-h3"
              else ExperimentConfig(source="bif", bif=source))
    _, dag, targets = load_structure(config)
    arms = build_arms(config, dag, targets, budget)
    return Instance(dag, random_conditional_table(dag, seed), arms)


def count_queries(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return parent_probabilities(*args)

    monkeypatch.setattr(phase1, "parent_probabilities", counted)
    return calls


@pytest.mark.parametrize("source", ["tree-h3", "alarm", "water"])
@pytest.mark.parametrize("budget", [2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_phase1_matches_the_loop_without_the_skip_bit_for_bit(source, budget, seed,
                                                               monkeypatch):
    inst = instance(source, budget, 40 + seed)
    calls = count_queries(monkeypatch)  # the reference's queries are not counted
    runs = 0
    for multiplier in (3, 9, 30):
        horizon = multiplier * inst.uncertain_rows
        for scale in (0.0, 1e-9):
            envs = [SimulatedEnvironment(inst, 10 * seed + multiplier) for _ in range(2)]
            got = run_phase1(envs[0], inst.dag, inst.arms, scale, horizon)
            want = reference_run_phase1(envs[1], inst.dag, inst.arms, scale, horizon)
            assert_same_bits(got, want)
            assert envs[0].experiments_used == envs[1].experiments_used
            after = [env.intervene_many(inst.arms.matrix[0], 4) for env in envs]
            assert np.array_equal(*after)  # the sampling stream is where it was
            runs += 1
    if source != "tree-h3":  # on tree-h3 some arm keeps its mass on these seeds
        assert len(calls) < runs * len(inst.arms.uncertain_nodes)  # the skip fired


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_alarm_at_multiplier_3_skips_queries(seed, monkeypatch):
    inst = instance("alarm", 2, seed)
    calls = count_queries(monkeypatch)
    p1 = run_phase1(SimulatedEnvironment(inst, seed), inst.dag, inst.arms, 0.0,
                    3 * inst.uncertain_rows)
    assert len(calls) < len(p1.uncertain_nodes)
    for n in p1.uncertain_nodes[len(calls):]:
        assert not p1.reach[n].any()
        assert not p1.best_arm[n].any() and not p1.best_value[n].any()


def chain_instance(n_nodes):
    """A chain of fair coins that copy their parent with chance 0.9, under
    one arm that leaves every node free."""
    dag = CausalDag(((),) + tuple((n - 1,) for n in range(1, n_nodes)))
    table = success_table(
        [np.array([0.5])] + [np.array([0.1, 0.9])] * (n_nodes - 1))
    return Instance(dag, table, InterventionSet(np.full((1, n_nodes), FREE)))


def test_long_chain_runs_every_query_past_the_underflow_bound(monkeypatch):
    """120 nodes at horizon 3C = 717: 120 log2(717) is above 1000, so the
    skip is held back although the arm's mass dies early on; 80 nodes at
    3C = 477 stay below it, and there the skip fires."""
    for n_nodes, held_back in ((120, True), (80, False)):
        inst = chain_instance(n_nodes)
        horizon = 3 * inst.uncertain_rows
        assert (n_nodes * math.log2(horizon) >= 1000) == held_back
        calls = count_queries(monkeypatch)
        p1 = run_phase1(SimulatedEnvironment(inst, 5), inst.dag, inst.arms, 0.0, horizon)
        dead = [n for n in p1.uncertain_nodes if not p1.reach[n].any()]
        assert dead and dead[0] < n_nodes // 2
        assert dead == list(range(dead[0], n_nodes))
        assert len(calls) == (n_nodes if held_back else dead[0] + 1)


def test_reach_over_the_arm_cell_limit_is_refused_before_sampling(monkeypatch):
    inst = chain_instance(3)  # one arm, 1 + 2 + 2 table rows
    monkeypatch.setattr(model, "ARM_CELL_LIMIT", 4)
    env = SimulatedEnvironment(inst, 0)
    with pytest.raises(CapacityError, match=r"^1 arms x 5 rows = 5 cells exceeds"):
        run_phase1(env, inst.dag, inst.arms, 0.0, 3 * inst.uncertain_rows)
    assert env.experiments_used == 0
    monkeypatch.setattr(model, "ARM_CELL_LIMIT", 5)
    run_phase1(env, inst.dag, inst.arms, 0.0, 3 * inst.uncertain_rows)


class CountedEnvironment(SimulatedEnvironment):
    """A simulated environment that counts its sampler calls."""

    def __init__(self, instance, rng):
        super().__init__(instance, rng)
        self.calls = 0

    def intervene_many(self, arm, count):
        self.calls += 1
        return super().intervene_many(arm, count)


def assert_matches_the_reference(inst, horizon, scale, seed):
    """Phase 1 and the frozen loop, each on its own environment of one seed:
    every result array, the ledger and the next draws agree bit for bit."""
    envs = [SimulatedEnvironment(inst, seed) for _ in range(2)]
    got = run_phase1(envs[0], inst.dag, inst.arms, scale, horizon)
    want = reference_run_phase1(envs[1], inst.dag, inst.arms, scale, horizon)
    assert_same_bits(got, want)
    assert envs[0].experiments_used == envs[1].experiments_used
    after = [env.intervene_many(inst.arms.matrix[-1], 5) for env in envs]
    assert np.array_equal(*after)
    return got


def tail(p1, queried):
    return p1.uncertain_nodes[len(queried):]


@pytest.mark.parametrize("scale", [0.0, 1e-9])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_tail_node_that_arm_0_clamps_keeps_no_own_counts(scale, seed, monkeypatch):
    """A 40-node chain under two arms, the first of which clamps node 30:
    the mass dies within a few nodes, so node 30 is drawn in the tail under
    arm 0 and its own counts stay zero."""
    inst = chain_instance(40)
    matrix = np.full((2, 40), FREE)
    matrix[0, 30] = 1
    inst = Instance(inst.dag, inst.table, InterventionSet(matrix))
    calls = count_queries(monkeypatch)
    p1 = assert_matches_the_reference(inst, 3 * inst.uncertain_rows, scale, seed)
    assert 30 in tail(p1, calls)
    assert not p1.seen[30].any() and not p1.seen_one[30].any()
    assert not p1.best_arm[30].any() and not p1.trimmed.rows[30].any()


@pytest.mark.parametrize("scale", [0.0, 1e-9])
def test_a_tail_with_several_draws_per_pair_and_unequal_rows(scale, monkeypatch):
    cases = 0
    for seed in (0, 2):
        inst = instance("alarm", 2, seed)
        for multiplier in (6, 9):
            calls = count_queries(monkeypatch)
            p1 = assert_matches_the_reference(inst, multiplier * inst.uncertain_rows,
                                              scale, seed)
            assert p1.per_pair == multiplier // 3 >= 2
            assert len({inst.dag.row_count(n) for n in tail(p1, calls)}) >= 3
            cases += 1
    assert cases == 4


@pytest.mark.parametrize("source", ["alarm", "water"])
@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6])
def test_a_tail_under_truncation(source, scale, monkeypatch):
    inst = instance(source, 2, 3)
    calls = count_queries(monkeypatch)
    p1 = assert_matches_the_reference(inst, 3 * inst.uncertain_rows, scale, 11)
    assert p1.threshold > 0 and tail(p1, calls)
    for n in tail(p1, calls):  # zero reach: every rate is dropped
        assert p1.truncation.unreliable[n].all() and p1.truncation.rare[n].all()


@settings(max_examples=40, deadline=None)
@given(networks(), st.sampled_from([3, 6, 9]), st.sampled_from([0.0, 1e-9]),
       st.integers(0, 2 ** 16))
def test_phase1_matches_the_reference_on_generated_networks(net, multiplier, scale, seed):
    table, dag, arms = net
    assume(uncertain_rows(dag, arms) > 0)
    inst = Instance(dag, table, arms)
    assert_matches_the_reference(inst, multiplier * inst.uncertain_rows, scale, seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_tail_takes_one_sampler_call(seed, monkeypatch):
    inst = instance("alarm", 2, seed)
    calls = count_queries(monkeypatch)
    env = CountedEnvironment(inst, seed)
    p1 = run_phase1(env, inst.dag, inst.arms, 0.0, 3 * inst.uncertain_rows)
    assert tail(p1, calls)
    assert env.calls == len(calls)


def test_a_chain_without_a_tail_takes_one_sampler_call_per_node(monkeypatch):
    inst = chain_instance(120)  # past the underflow bound, so every node is queried
    calls = count_queries(monkeypatch)
    env = CountedEnvironment(inst, 5)
    run_phase1(env, inst.dag, inst.arms, 0.0, 3 * inst.uncertain_rows)
    assert env.calls == len(calls) == 120
