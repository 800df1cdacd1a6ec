"""Phase 2's allocation objective and the exact γ* objective, each built as
`RatioObjective(reach[kept], offsets)` over a flat reach matrix, against
frozen copies of the per-node stacking code they replaced: values, offsets
and the pair vote agree bit for bit, and the values are C-contiguous, on
bundled instances, generated networks, an arm set that frees no node and a
fully truncated phase 1."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalbandit.allocation import NUMERATOR_CUTOFF, build_exact_objective, vote_share
from causalbandit.inference import SimulatedEnvironment, parent_probabilities
from causalbandit.model import Instance, InterventionSet
from causalbandit.phase1 import run_phase1
from causalbandit.phase2 import build_allocation_objective
from test_parent_marginals import networks
from test_phase1_skip import instance


def reference_vote_share(best_arms, n_arms):
    """`vote_share` as it was, over one vector of best arms per node."""
    votes = np.concatenate([np.zeros(0, dtype=np.int64), *best_arms])
    return np.bincount(votes, minlength=n_arms) / max(len(votes), 1)


def reference_allocation_objective(p1):
    """`build_allocation_objective` as it was, stacking the kept reach columns
    node by node, with phase 2's vote over the per-node best arms."""
    dag = p1.dag
    reach = [r.T for r in dag.split_rows(p1.reach)]  # (arms, rows) per node
    best_arm, best_value = dag.split_rows(p1.best_arm), dag.split_rows(p1.best_value)
    dropped = dag.split_rows(p1.unreliable | p1.rare)
    rows, offsets = [], []
    for n in p1.uncertain_nodes:
        kept = np.flatnonzero(~dropped[n].all(axis=1))
        rows.extend(reach[n][:, kept].T)
        offsets.extend(best_value[n][kept] / p1.uncertain_rows)
    shape = (len(rows), len(p1.arms))
    return (np.reshape(rows, shape), np.array(offsets),
            reference_vote_share([best_arm[n] for n in p1.uncertain_nodes], len(p1.arms)))


def reference_exact_objective(inst):
    """`build_exact_objective` as it was, stacking the reach columns that
    reach the cutoff node by node."""
    dag, arms = inst.dag, inst.arms
    rows, best = [], []
    for n in arms.uncertain_nodes:
        reach = parent_probabilities(inst.table, dag, n, arms)
        best.append(reach.argmax(axis=0))
        rows.extend(vec for vec in reach.T if (vec ** 2 >= NUMERATOR_CUTOFF).any())
    shape = (len(rows), len(arms))
    return np.reshape(rows, shape), np.zeros(len(rows)), reference_vote_share(best, len(arms))


def assert_same(objective, votes, want):
    values, offsets, want_votes = want
    assert objective.values.flags.c_contiguous
    for got, ref in ((objective.values, values), (objective.offset, offsets),
                     (votes, want_votes)):
        assert np.array_equal(got, ref)
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


def assert_builders_match(inst, horizon, scale, seed):
    assert_same(*build_exact_objective(inst), reference_exact_objective(inst))
    p1 = run_phase1(SimulatedEnvironment(inst, seed), inst.dag, inst.arms, scale, horizon)
    votes = vote_share(p1.best_arm[p1.best_arm >= 0], len(inst.arms))  # as phase 2 takes it
    assert_same(build_allocation_objective(p1), votes, reference_allocation_objective(p1))
    return p1


@pytest.mark.parametrize("source", ["tree-h3", "alarm", "water"])
def test_builders_match_the_stacking_loops_on_bundled_instances(source):
    inst = instance(source, 2, 5)
    for multiplier in (3, 9):
        for scale in (0.0, 1e-9, 1e-6):
            assert_builders_match(inst, multiplier * inst.uncertain_rows, scale, multiplier)


@settings(max_examples=60, deadline=None)
@given(networks(), st.sampled_from([3, 9]), st.sampled_from([0.0, 1e-9, 1e-3]),
       st.integers(0, 2 ** 16))
def test_builders_match_the_stacking_loops_on_generated_networks(net, multiplier, scale,
                                                                 seed):
    table, dag, arms = net
    assume(arms.uncertain_nodes)
    inst = Instance(dag, table, arms)
    assert_builders_match(inst, multiplier * inst.uncertain_rows, scale, seed)


def test_an_arm_set_that_frees_no_node_gives_no_terms_and_no_votes():
    inst = instance("tree-h3", 2, 5)
    inst = Instance(inst.dag, inst.table, InterventionSet(np.ones((3, inst.dag.node_count))))
    objective, votes = build_exact_objective(inst)
    assert objective.n_terms == 0 and objective.values.shape == (0, 3)
    assert np.array_equal(votes, np.zeros(3))
    assert_same(objective, votes, reference_exact_objective(inst))


@pytest.mark.parametrize("source", ["tree-h3", "alarm"])
def test_a_fully_truncated_phase1_leaves_no_terms(source):
    inst = instance(source, 2, 5)
    p1 = assert_builders_match(inst, 9 * inst.uncertain_rows, 1e9, 0)
    assert (p1.unreliable | p1.rare)[p1.best_arm >= 0].all()
    assert build_allocation_objective(p1).n_terms == 0
