"""The sweeps against the brute-force oracles on random networks, phase 1's
stored reach against a fresh sweep, the chunking of the arm axis, and the
clique sizes of the elimination plans."""
import itertools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalbandit import inference
from causalbandit.bif import load_bundled, to_causal_dag
from causalbandit.errors import CapacityError
from causalbandit.inference import (
    FRONTIER_LIMIT,
    SimulatedEnvironment,
    brute_force_parent_probability,
    brute_force_target_probability,
    parent_probabilities,
    target_probabilities,
)
from causalbandit.model import (
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    Intervention,
    InterventionSet,
    ParentRealization,
    enumerate_root_interventions,
    random_conditional_table,
)
from causalbandit.phase1 import run_phase1
from conftest import brute_joint


@st.composite
def networks(draw, max_nodes=9, max_arms=3):
    """A random DAG with a sub-stochastic table (some entries zeroed, so the
    prefix mass differs by arm) and arms that clamp some nodes, parents
    included. Parent tuples are ascending or, in some networks, in the
    order drawn, which `CausalDag` accepts and the row index follows."""
    n_nodes = draw(st.integers(1, max_nodes))
    ascending = draw(st.booleans())
    parents = []
    for n in range(n_nodes):
        k = draw(st.integers(0, min(n, 3)))
        chosen = draw(st.permutations(range(n)))[:k]
        parents.append(tuple(sorted(chosen) if ascending else chosen))
    dag = CausalDag(tuple(parents))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rows = [r.copy() for r in random_conditional_table(dag, rng).rows]
    zero_share = draw(st.sampled_from([0.0, 0.2, 0.5]))
    for r in rows:
        r[rng.random(r.shape) < zero_share] = 0.0
    n_arms = draw(st.integers(1, max_arms))
    values = st.lists(st.sampled_from([FREE, FREE, 0, 1]), min_size=n_nodes,
                      max_size=n_nodes)
    arms = InterventionSet([draw(values) for _ in range(n_arms)])
    return ConditionalTable(tuple(rows)), dag, arms


def prefix_mass(table, dag, n, arm):
    """Total mass of the nodes before n under the arm, by enumeration."""
    sub_dag = CausalDag(dag.parents[:n])
    sub_table = ConditionalTable(table.rows[:n])
    return sum(brute_joint(sub_table, sub_dag, Intervention(arm.values[:n])).values())


@settings(max_examples=40, deadline=None)
@given(networks())
def test_sweeps_match_brute_force(net):
    table, dag, arms = net
    want = [brute_force_target_probability(table, dag, arm) for arm in arms]
    np.testing.assert_allclose(target_probabilities(table, dag, arms), want,
                               rtol=0, atol=1e-12)
    for n in range(dag.node_count):
        got = parent_probabilities(table, dag, n, arms)
        assert got.shape == (len(arms), dag.row_count(n))
        for a, arm in enumerate(arms):
            for r in range(dag.row_count(n)):
                pi = ParentRealization.from_index(dag.parents[n], r)
                want = brute_force_parent_probability(table, dag, n, pi, arm)
                assert abs(got[a, r] - want) <= 1e-12
            mass = prefix_mass(table, dag, n, arm) if arm.values[n] == FREE else 0.0
            assert abs(got[a].sum() - mass) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(networks(), st.integers(0, 2 ** 32 - 1))
def test_phase1_reach_is_the_parent_sweep_of_its_table(net, seed):
    """Phase 2 reads `reach` in place of sweeping the trimmed table again."""
    table, dag, arms = net
    assume(arms.uncertain_nodes)
    inst = Instance(dag, table, arms)
    for scale in (0.0, 1e-3, 1e9):
        p1 = run_phase1(SimulatedEnvironment(inst, seed), dag, arms, scale,
                        6 * inst.uncertain_rows)
        for n in range(dag.node_count):
            assert np.array_equal(p1.reach[n], parent_probabilities(p1.trimmed, dag, n, arms))
        for n in p1.uncertain_nodes:
            assert np.array_equal(p1.best_arm[n], p1.reach[n].argmax(axis=0))
            assert np.array_equal(p1.best_value[n], p1.reach[n].max(axis=0))


@contextmanager
def state_budget(cells):
    """Set the sweep's state budget for the block."""
    saved = inference.STATE_BUDGET
    inference.STATE_BUDGET = cells
    try:
        yield
    finally:
        inference.STATE_BUDGET = saved


def all_queries(table, dag, arms):
    out = [parent_probabilities(table, dag, n, arms) for n in range(dag.node_count)]
    return out + [target_probabilities(table, dag, arms)]


@settings(max_examples=25, deadline=None)
@given(networks(max_arms=6))
def test_one_arm_chunks_are_bitwise_equal(net):
    whole = all_queries(*net)
    with state_budget(1):
        single = all_queries(*net)
    for a, b in zip(whole, single):
        assert np.array_equal(a, b)


def alarm_case(budget):
    """Alarm with one unseen row of node 15, as phase 1 can leave it."""
    dag, _ = to_causal_dag(load_bundled("alarm"))
    arms = enumerate_root_interventions(dag.node_count, dag.roots, budget)
    rows = [r.copy() for r in random_conditional_table(dag, 4).rows]
    rows[15][1] = 0.0
    return ConditionalTable(tuple(rows)), dag, arms


def water_case(budget):
    """Water with the first row of every non-root node zeroed."""
    dag, _ = to_causal_dag(load_bundled("water"))
    arms = enumerate_root_interventions(dag.node_count, dag.roots, budget)
    rows = [r.copy() for r in random_conditional_table(dag, 4).rows]
    for n in range(dag.node_count):
        if dag.parents[n]:
            rows[n][0] = 0.0
    return ConditionalTable(tuple(rows)), dag, arms


# case, and the largest clique its plans may have
WIDTH_CASES = {
    "alarm-b2": (lambda: alarm_case(2), 5),
    "alarm-b4": (lambda: alarm_case(4), 5),
    "water-b2": (lambda: water_case(2), 10),
}


def query_plans(monkeypatch, table, dag, arms):
    """(plan, kept variables) of every parent query and of the target query."""
    plans = []
    make = inference._plan

    def recording(table, dag, free_any, n):
        plan = make(table, dag, free_any, n)
        plans.append((plan, dag.parents[n]))
        return plan

    monkeypatch.setattr(inference, "_plan", recording)
    all_queries(table, dag, arms)
    assert len(plans) == dag.node_count + 1
    return plans


@pytest.mark.parametrize("name", sorted(WIDTH_CASES))
def test_min_fill_cliques_stay_small(name, monkeypatch):
    build, bound = WIDTH_CASES[name]
    plans = query_plans(monkeypatch, *build())
    assert max(plan.width for plan, _ in plans) <= bound


@pytest.mark.parametrize("name", sorted(WIDTH_CASES))
def test_min_fill_width_against_networkx(name, monkeypatch):
    """networkx's min-fill heuristic on the same interaction graph, with the
    kept variables joined as the output factor. It may eliminate a kept
    variable early, which the plan never does, and breaks ties its own way,
    so a query may differ by one; the largest clique of each case agrees."""
    pytest.importorskip("networkx")
    import networkx as nx
    from networkx.algorithms.approximation import treewidth_min_fill_in

    build, _ = WIDTH_CASES[name]
    ours, theirs = [], []
    for plan, kept in query_plans(monkeypatch, *build()):
        graph = nx.Graph()
        for scope in [s for _, s, _ in plan.factors] + [kept]:
            graph.add_nodes_from(scope)
            graph.add_edges_from(itertools.combinations(scope, 2))
        ours.append(plan.width)
        theirs.append(treewidth_min_fill_in(graph)[0] + 1 if len(graph) else 0)
        assert theirs[-1] - 1 <= ours[-1] <= theirs[-1] + 1
    assert max(ours) == max(theirs)


def test_one_arm_chunks_on_alarm():
    net = alarm_case(2)
    whole = all_queries(*net)
    with state_budget(1):
        single = all_queries(*net)
    for a, b in zip(whole, single):
        assert np.array_equal(a, b)


def test_state_stays_within_budget(monkeypatch):
    table, dag, arms = alarm_case(4)
    seen = []
    execute = inference._execute

    def recording(plan, table, dag, chunk, n):
        seen.append((len(chunk), plan.width))
        return execute(plan, table, dag, chunk, n)

    monkeypatch.setattr(inference, "_execute", recording)
    for budget in (1 << 10, 1 << 16):
        monkeypatch.setattr(inference, "STATE_BUDGET", budget)
        seen.clear()
        parent_probabilities(table, dag, dag.node_count - 1, arms)
        target_probabilities(table, dag, arms)
        assert sum(rows for rows, _ in seen) == 2 * len(arms)
        for rows, width in seen:
            assert rows << width <= max(budget, 1 << width)


def test_wide_single_arm_raises_capacity_error():
    wide = FRONTIER_LIMIT + 1
    dag = CausalDag(tuple(() for _ in range(wide)) + (tuple(range(wide)),))
    table = ConditionalTable.from_success_probs(
        [np.full(dag.row_count(n), 0.5) for n in range(dag.node_count)])
    arm = Intervention((FREE,) * dag.node_count)
    with pytest.raises(CapacityError):
        parent_probabilities(table, dag, wide, arm)


def test_parentless_node_gets_a_prefix_mass_column():
    dag = CausalDag(((), (), (0,)))
    table = ConditionalTable((np.array([[0.3, 0.2]]), np.array([[0.4, 0.6]]),
                              np.array([[0.5, 0.5], [0.5, 0.5]])))
    arms = InterventionSet([[FREE, FREE, FREE], [1, FREE, FREE], [FREE, 0, FREE]])
    got = parent_probabilities(table, dag, 1, arms)
    assert got.shape == (3, 1)
    np.testing.assert_allclose(got[:, 0], [0.5, 1.0, 0.0])
