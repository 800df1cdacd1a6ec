"""The benchmark's references against the program's brute-force oracles.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import itertools

import numpy as np
import pytest

import reference as ref
from causalbandit.inference import (
    brute_force_parent_probability,
    brute_force_target_probability,
)
from causalbandit.model import (
    CausalDag,
    Instance,
    InterventionSet,
    ParentRealization,
    enumerate_budget_interventions,
    enumerate_root_interventions,
    make_binary_tree_dag,
    make_binary_tree_instance,
    random_conditional_table,
)


def random_arms(rng, n_arms, n_nodes):
    """Arms that clamp any node, internal ones too, to 0 or 1 or leave it free."""
    return InterventionSet(rng.choice([ref.FREE, ref.FREE, 0, 1], size=(n_arms, n_nodes)))


def tree_instances():
    for height, seed in itertools.product((2, 3), range(3)):
        rng = np.random.default_rng((height, seed))
        dag = make_binary_tree_dag(height)
        table = random_conditional_table(dag, rng)
        yield Instance(dag, table, random_arms(rng, 12, dag.node_count))
        yield make_binary_tree_instance(height, 2, rng_seed=seed)


@pytest.mark.parametrize("instance", list(tree_instances()))
def test_tree_recursion_matches_brute_force_target(instance):
    rewards = ref.tree_marginals(instance.dag.parents, instance.table.rows,
                                 instance.arms.matrix)[-1]
    for k, arm in enumerate(instance.arms):
        want = brute_force_target_probability(instance.table, instance.dag, arm)
        assert rewards[k] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("instance", list(tree_instances()))
def test_tree_recursion_matches_brute_force_parents(instance):
    dag, matrix = instance.dag, instance.arms.matrix
    p1 = ref.tree_marginals(dag.parents, instance.table.rows, matrix)
    for n in range(dag.node_count):
        marginals = ref.row_marginals(p1, dag.parents[n])
        for row in range(dag.row_count(n)):
            pi = ParentRealization.from_index(dag.parents[n], row)
            for k, arm in enumerate(instance.arms):
                if matrix[k, n] != ref.FREE:
                    continue
                want = brute_force_parent_probability(instance.table, dag, n, pi, arm)
                assert marginals[row, k] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("height", [2, 3])
def test_tree_gamma_matches_objective_from_brute_force(height):
    instance = make_binary_tree_instance(height, 2, rng_seed=height)
    dag, arms = instance.dag, instance.arms
    free = arms.matrix == ref.FREE
    terms = []
    for n in range(dag.node_count):
        if not free[:, n].any():
            continue
        for row in range(dag.row_count(n)):
            pi = ParentRealization.from_index(dag.parents[n], row)
            terms.append([brute_force_parent_probability(instance.table, dag, n, pi, arm)
                          for arm in arms])
    values = np.array(terms)
    keep = values ** 2 >= ref.NUMERATOR_CUTOFF  # zero wherever the arm clamps the node
    values, keep = values[keep.any(axis=1)], keep[keep.any(axis=1)]
    rng = np.random.default_rng(height)
    for weights in (np.full(len(arms), 1.0 / len(arms)), rng.dirichlet(np.ones(len(arms)))):
        want = (np.where(keep, values ** 2, 0.0) / (values @ weights)[:, None]).sum(axis=0).max()
        got = ref.tree_gamma(dag.parents, instance.table.rows, arms.matrix, weights)
        assert got == pytest.approx(want, rel=1e-12)


def test_forward_sampler_matches_brute_force_on_a_generated_dag():
    rng = np.random.default_rng(7)
    parents = []
    for n in range(9):
        k = int(rng.integers(0, min(n, 3) + 1))
        parents.append(tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
    dag = CausalDag(tuple(parents))
    table = random_conditional_table(dag, rng)
    arms = random_arms(rng, 6, dag.node_count)
    draws = 20000
    got = ref.sample_rewards(dag.parents, table.rows, arms.matrix, draws, rng)
    for k, arm in enumerate(arms):
        want = brute_force_target_probability(table, dag, arm)
        assert abs(got[k] - want) <= ref.sampler_tolerance(want, draws)


def test_sampler_tolerance_holds_at_the_edges():
    """The bound stays above a few stray draws when p is near 0, and tightens
    as the draws grow."""
    assert ref.sampler_tolerance(0.0, 8000) * 8000 > 5
    assert ref.sampler_tolerance(0.5, 32000) < ref.sampler_tolerance(0.5, 8000) / 1.9


def test_closed_form_counts_match_the_enumerators():
    dag = make_binary_tree_dag(4)
    for budget in (1, 2, 4):
        arms = enumerate_budget_interventions(dag.node_count, range(16), budget)
        assert len(arms) == ref.tree_arm_count(4, budget)
        instance = Instance(dag, random_conditional_table(dag, 0), arms)
        assert ref.uncertain_rows(dag.parents, arms.matrix) == instance.uncertain_rows
    for roots, budget in ((12, 2), (8, 4), (8, 8)):
        arms = enumerate_root_interventions(roots + 1, range(roots), budget)
        assert len(arms) == ref.root_arm_count(roots, budget)
