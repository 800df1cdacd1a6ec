import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalbandit import inference
from causalbandit.allocation import evaluate, vote_share
from causalbandit.errors import ParameterError
from causalbandit.inference import SimulatedEnvironment, parent_probabilities
from causalbandit.model import (
    FREE,
    CausalDag,
    Instance,
    InterventionSet,
)
from causalbandit.phase1 import run_phase1
from causalbandit.phase2 import build_allocation_objective, run_phase2

from conftest import random_instance, success_table
from test_parent_marginals import networks
from test_phase1_skip import chain_instance


def copy_chain_instance():
    dag = CausalDag(((), (0,), (1,)))
    table = success_table([
        np.array([1.0]),
        np.array([0.0, 1.0]),
        np.array([0.0, 1.0]),
    ])
    arms = InterventionSet(np.array([[FREE, FREE, FREE]]))
    return Instance(dag, table, arms)


def prepared(rng_seed, n_nodes=5, n_arms=3, batch=20, trunc_scale=0.0):
    rng = np.random.default_rng(rng_seed)
    inst = random_instance(rng, n_nodes=n_nodes, n_arms=n_arms)
    horizon = 3 * inst.uncertain_rows * batch
    env = SimulatedEnvironment(inst, rng_seed + 1)
    p1 = run_phase1(env, inst.dag, inst.arms, trunc_scale, horizon)
    return inst, p1, horizon


@pytest.mark.parametrize("mode", ["paper", "practical"])
def test_experiment_ledger(mode):
    inst, p1, horizon = prepared(10)
    env = SimulatedEnvironment(inst, 99)
    res = run_phase2(env, p1, mode, rng=5)
    expect = inst.uncertain_rows * p1.per_pair + horizon // 3
    assert env.experiments_used == expect
    assert res.draws == horizon // 3


def test_mode_validation():
    inst, p1, horizon = prepared(11)
    env = SimulatedEnvironment(inst, 0)
    with pytest.raises(ParameterError):
        run_phase2(env, p1, "fast", rng=0)


def test_counts_and_estimates_are_consistent():
    inst, p1, horizon = prepared(12)
    env = SimulatedEnvironment(inst, 7)
    res = run_phase2(env, p1, "paper", rng=3)
    for n in p1.uncertain_nodes:
        assert np.all(res.seen_one[n] <= res.seen[n])
        assert np.all(res.estimate.rows[n] >= 0.0)
        assert np.all(res.estimate.rows[n] <= 1.0)


def test_dropped_entries_stay_zero():
    inst, p1, horizon = prepared(13, trunc_scale=1e9)
    env = SimulatedEnvironment(inst, 7)
    res = run_phase2(env, p1, "paper", rng=3)
    for n in p1.uncertain_nodes:
        assert np.all(res.estimate.rows[n] == 0.0)
        # samples were still collected, only the readout is suppressed
        assert res.seen[n].sum() > 0


def test_single_free_arm_shares_every_sample():
    inst = copy_chain_instance()
    horizon = 300
    env = SimulatedEnvironment(inst, 2)
    p1 = run_phase1(env, inst.dag, inst.arms, 0.0, horizon)
    env2 = SimulatedEnvironment(inst, 3)
    res = run_phase2(env2, p1, "paper", rng=4)
    total = inst.uncertain_rows * p1.per_pair + res.draws
    for n in p1.uncertain_nodes:
        assert res.seen[n].sum() == total


def test_practical_merges_phase1_counts():
    inst, p1, horizon = prepared(14)
    env = SimulatedEnvironment(inst, 8)
    res = run_phase2(env, p1, "practical", rng=9)
    shared = inst.dag.split_rows(p1.shared)
    for n in p1.uncertain_nodes:
        assert np.all(res.seen[n] >= shared[n].sum(axis=1))
        assert np.all(res.seen_one[n] >= shared[n][:, 1])


def test_practical_mode_skips_solver():
    inst, p1, horizon = prepared(15)
    res = run_phase2(SimulatedEnvironment(inst, 1), p1, "practical", rng=2)
    assert res.solver is None
    res2 = run_phase2(SimulatedEnvironment(inst, 1), p1, "paper", rng=2)
    assert res2.solver is not None


def test_weights_on_simplex():
    inst, p1, horizon = prepared(16)
    for mode in ("paper", "practical"):
        res = run_phase2(SimulatedEnvironment(inst, 4), p1, mode, rng=6)
        assert np.all(res.weights >= 0.0)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_vote_share_matches_vote_counts():
    inst, p1, _ = prepared(17)
    eta = vote_share([p1.best_arm[n] for n in p1.uncertain_nodes], len(inst.arms))
    counts = np.zeros(len(inst.arms))
    for n in p1.uncertain_nodes:
        for a in p1.best_arm[n]:
            counts[a] += 1
    assert np.allclose(eta, counts / inst.uncertain_rows)
    assert eta.sum() == pytest.approx(1.0)
    assert np.array_equal(vote_share([], 3), np.zeros(3))


def test_paper_mode_runs_no_inference(monkeypatch):
    # the objective reads phase 1's reach; it must not sweep again
    inst, p1, _ = prepared(22)
    calls = []
    sweep = inference._sweep

    def counting(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(inference, "_sweep", counting)
    res = run_phase2(SimulatedEnvironment(inst, 5), p1, "paper", rng=7)
    assert res.solver is not None and build_allocation_objective(p1).n_terms > 0
    assert calls == []


def test_objective_terms_and_offsets():
    inst, p1, _ = prepared(18)
    obj = build_allocation_objective(p1)
    assert obj.n_terms == inst.uncertain_rows  # nothing truncated
    offsets = []
    for n in p1.uncertain_nodes:
        offsets.extend(p1.best_value[n] / inst.uncertain_rows)
    assert np.allclose(obj.offset, offsets)


def test_objective_hand_value_on_chain():
    inst = copy_chain_instance()
    env = SimulatedEnvironment(inst, 0)
    p1 = run_phase1(env, inst.dag, inst.arms, 0.0, 150)
    obj = build_allocation_objective(p1)
    # three reachable pairs each contribute 1 / (1 + 1/5); the two unreachable
    # rows carry zero numerators
    assert obj.n_terms == 5
    value, _ = evaluate(obj, np.array([1.0]))
    assert value == pytest.approx(3.0 / (1.0 + 0.2), rel=1e-12)


def assert_terms_are_zero_where_the_arm_fixes_the_node(inst, horizon, scale, seed):
    """The clamp rule's one encoding, which `RatioObjective` relies on: a
    parent query's row is exactly zero where the arm fixes the node, and so
    is the objective's value, for a node phase 1 queried or drew in its
    zero-mass tail alike."""
    dag, arms = inst.dag, inst.arms
    fixed = arms.matrix != FREE
    for n in range(dag.node_count):
        assert not parent_probabilities(inst.table, dag, n, arms)[fixed[:, n]].any()
    p1 = run_phase1(SimulatedEnvironment(inst, seed), dag, arms, scale, horizon)
    node = np.repeat(p1.uncertain_nodes, [np.count_nonzero(~p1.truncation.dropped_rows(n))
                                          for n in p1.uncertain_nodes])
    values = build_allocation_objective(p1).values
    assert values.shape == (len(node), len(arms))
    assert not values[fixed[:, node].T].any()
    return p1


@settings(max_examples=60, deadline=None)
@given(networks(), st.sampled_from([3, 9]), st.sampled_from([0.0, 1e-9]),
       st.integers(0, 2 ** 16))
def test_terms_are_exactly_zero_where_the_arm_fixes_the_node(net, multiplier, scale, seed):
    table, dag, arms = net
    assume(arms.uncertain_nodes)
    inst = Instance(dag, table, arms)
    assert_terms_are_zero_where_the_arm_fixes_the_node(inst, multiplier * inst.uncertain_rows,
                                                       scale, seed)


def test_tail_terms_are_exactly_zero_where_the_arm_fixes_the_node():
    """The 40-node chain's mass dies within a few nodes, so node 30, which
    the first arm clamps, is drawn in phase 1's tail; without truncation its
    rows stay in the objective."""
    chain = chain_instance(40)
    matrix = np.full((2, 40), FREE)
    matrix[0, 30] = 1
    inst = Instance(chain.dag, chain.table, InterventionSet(matrix))
    p1 = assert_terms_are_zero_where_the_arm_fixes_the_node(
        inst, 3 * inst.uncertain_rows, 0.0, 0)
    assert not p1.reach[30].any() and not p1.truncation.dropped_rows(30).any()


def test_truncated_pairs_leave_objective():
    inst, p1, horizon = prepared(20, trunc_scale=1e9)
    obj = build_allocation_objective(p1)
    assert obj.n_terms == 0


@pytest.mark.parametrize("mode", ["paper", "practical"])
def test_determinism(mode):
    inst, p1, horizon = prepared(21)
    a = run_phase2(SimulatedEnvironment(inst, 5), p1, mode, rng=11)
    b = run_phase2(SimulatedEnvironment(inst, 5), p1, mode, rng=11)
    assert np.array_equal(a.weights, b.weights)
    for n in p1.uncertain_nodes:
        assert np.array_equal(a.seen[n], b.seen[n])
        assert np.array_equal(a.estimate.rows[n], b.estimate.rows[n])
