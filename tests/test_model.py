import itertools
import math
import tracemalloc

import numpy as np
import pytest

from causalbandit import model
from causalbandit.errors import CapacityError, ParameterError
from causalbandit.inference import target_probabilities, target_probability
from causalbandit.model import (
    ARM_CELL_LIMIT,
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    Intervention,
    InterventionSet,
    ParentRealization,
    enumerate_budget_interventions,
    enumerate_root_interventions,
    make_binary_tree_dag,
    make_binary_tree_instance,
    random_conditional_table,
    soft_to_hard_reduction,
    validate,
)
from conftest import brute_joint, random_dag


def chain_dag():
    return CausalDag(((), (0,), (1,)))


def test_validate_accepts_well_formed_chain():
    dag = chain_dag()
    table = ConditionalTable.from_success_probs([[0.5], [0.3, 0.7], [0.2, 0.9]])
    assert validate(dag, table).ok


def test_validate_flags_topological_order():
    dag = CausalDag(((), (2,), (1,)))
    report = validate(dag)
    assert not report.ok
    assert any("topological" in v for v in report.violations)


def test_validate_accepts_unsorted_parents_and_flags_duplicates():
    # the engine reads parents in any order, so only a repeated parent is flagged
    assert validate(CausalDag(((), (), (1, 0)))).ok
    report = validate(CausalDag(((), (0,), (1, 1))))
    assert report.violations == ["node 2: duplicate parent in (1, 1)"]


def test_with_node_matches_a_fresh_table():
    dag = random_dag(np.random.default_rng(3), 6)
    table = random_conditional_table(dag, 4)
    for n, rows in [(2, np.full((dag.row_count(2), 2), 0.25)),
                    (5, np.tile([0.3, 0.7], (dag.row_count(5), 1)))]:
        changed = table.with_nodes([n], rows)
        fresh = ConditionalTable(table.rows[:n] + (rows,) + table.rows[n + 1:])
        assert all(np.array_equal(a, b) for a, b in zip(changed.rows, fresh.rows))
        assert np.array_equal(changed.stochastic, fresh.stochastic)
        assert changed.stochastic is not table.stochastic
        assert not any(r.flags.writeable for r in changed.rows)
        rows[:] = 0.0  # the caller's array is copied, not shared
        assert changed.rows[n].sum() == fresh.rows[n].sum() > 0
        table = changed
    assert not table.stochastic[2] and table.stochastic[5]


def test_validate_flags_complement_sum():
    dag = chain_dag()
    rows = [np.array([[0.5, 0.5]]), np.array([[0.7, 0.3], [0.2, 0.8]]),
            np.array([[0.7, 0.3], [0.2, 0.8]])]
    rows[1] = np.array([[0.8, 0.3], [0.2, 0.8]])
    report = validate(dag, ConditionalTable(tuple(rows)))
    assert any("complement sum" in v for v in report.violations)


def test_validate_flags_tiny_graph():
    assert not validate(CausalDag(((), (0,)))).ok


def test_realization_index_roundtrip():
    for idx in range(8):
        pi = ParentRealization.from_index((2, 5, 7), idx)
        assert pi.index == idx
    # first scope entry is the most significant bit
    assert ParentRealization((2, 5), (1, 0)).index == 2


def test_tree_height4_structure():
    inst = make_binary_tree_instance(4, 2, rng_seed=0)
    assert inst.dag.node_count == 31
    assert inst.uncertain_rows == 60
    assert inst.dag.total_rows == 76
    assert len(inst.arms) == 120
    # leaves are fixed by every arm, internal nodes never are
    assert inst.uncertain_nodes == tuple(range(16, 31))


@pytest.mark.parametrize("budget,count", [(2, 120), (4, 1820), (8, 12870)])
def test_tree_height4_arm_counts(budget, count):
    inst = make_binary_tree_instance(4, budget, rng_seed=0)
    assert len(inst.arms) == math.comb(16, budget) == count


def test_tree_height1_row_counts():
    inst = make_binary_tree_instance(1, 1, rng_seed=0)
    assert inst.dag.node_count == 3
    assert inst.dag.parents == ((), (), (0, 1))
    assert inst.dag.total_rows == 6
    assert inst.uncertain_rows == 4


def test_tree_parents_point_down_a_level():
    dag = make_binary_tree_dag(3)
    assert dag.node_count == 15
    assert dag.parents[14] == (12, 13)
    assert dag.parents[8] == (0, 1)
    assert all(not dag.parents[n] for n in range(8))


def test_random_table_deterministic_and_complementary():
    dag = make_binary_tree_dag(2)
    t1 = random_conditional_table(dag, 123)
    t2 = random_conditional_table(dag, 123)
    for a, b in zip(t1.rows, t2.rows):
        assert np.array_equal(a, b)
    assert validate(dag, t1).ok


def test_random_table_seeds_differ():
    dag = make_binary_tree_dag(2)
    base = random_conditional_table(dag, 0)
    diff = 0
    for seed in range(1, 11):
        other = random_conditional_table(dag, seed)
        if any(not np.array_equal(a, b) for a, b in zip(base.rows, other.rows)):
            diff += 1
    assert diff == 10


def test_enumerate_budget_sizes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_targets = int(rng.integers(1, 9))
        budget = int(rng.integers(1, n_targets + 1))
        arms = enumerate_budget_interventions(10, range(n_targets), budget)
        assert len(arms) == math.comb(n_targets, budget)


def test_enumerate_budget_full_subset_single_arm():
    arms = enumerate_budget_interventions(31, range(16), 16)
    assert len(arms) == 1
    assert np.all(arms.matrix[0, :16] == 1)
    assert np.all(arms.matrix[0, 16:] == FREE)


def test_enumerate_budget_singletons():
    arms = enumerate_budget_interventions(5, (1, 2, 3), 1)
    assert [str(a) for a in arms] == ["*100*", "*010*", "*001*"]


def test_enumerate_budget_lexicographic():
    arms = enumerate_budget_interventions(4, (0, 1, 2), 2)
    chosen = [tuple(np.flatnonzero(a == 1)) for a in arms.matrix]
    assert chosen == [(0, 1), (0, 2), (1, 2)]


def test_enumerate_budget_bad_budget():
    with pytest.raises(ParameterError):
        enumerate_budget_interventions(5, (0, 1), 3)


def test_enumerate_root_interventions_counts_and_fill():
    arms = enumerate_root_interventions(6, (0, 1, 2, 3), 2)
    assert len(arms) == 4 + 6
    assert np.all((arms.matrix == 1) | (arms.matrix == FREE))
    sizes = [int((a == 1).sum()) for a in arms.matrix]
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]


def test_intervention_string_roundtrip():
    a = Intervention.from_string("*01*1")
    assert str(a) == "*01*1"
    assert a.free_nodes == (0, 3)
    assert a.fixed_count == 3


@pytest.mark.parametrize("text", ["x*1", "*2*", "0 1"])
def test_intervention_string_rejects_other_characters(text):
    with pytest.raises(ParameterError, match="characters"):
        Intervention.from_string(text)


def test_instance_validation_of_constructors():
    for seed in range(3):
        inst = make_binary_tree_instance(2, 2, rng_seed=seed)
        assert validate(inst.dag, inst.table, inst.arms).ok


def test_soft_reduction_counts():
    dag = chain_dag()
    table = random_conditional_table(dag, 5)
    inst = soft_to_hard_reduction(dag, table, 1, [np.array([0.9, 0.1])])
    assert inst.dag.node_count == 4
    assert len(inst.arms) == 1
    assert validate(inst.dag, inst.table, inst.arms).ok


def test_soft_reduction_preserves_joint():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(3, 8))
        dag = random_dag(rng, n)
        table = random_conditional_table(dag, rng)
        soft_node = int(rng.integers(0, n))
        n_labels = int(rng.integers(1, 4))
        rows_k = dag.row_count(soft_node)
        labels = [rng.random(rows_k) for _ in range(n_labels)]
        reduced = soft_to_hard_reduction(dag, table, soft_node, labels)
        for s in range(n_labels):
            # soft model: swap the node's conditional rows for label s
            soft_rows = [table.rows[m] for m in range(n)]
            soft_rows[soft_node] = np.stack([1.0 - labels[s], labels[s]], axis=1)
            soft_table = ConditionalTable(tuple(soft_rows))
            want = brute_joint(soft_table, dag, Intervention((FREE,) * n))
            got = brute_joint(reduced.table, reduced.dag, reduced.arms[s])
            assert set(want) == set(got)
            for bits, p in want.items():
                assert abs(got[bits] - p) <= 1e-12


def test_soft_reduction_identical_labels_same_value():
    dag = chain_dag()
    table = random_conditional_table(dag, 9)
    row = np.array([0.4, 0.8])
    inst = soft_to_hard_reduction(dag, table, 2, [row, row])
    v1 = target_probability(inst.table, inst.dag, inst.arms[0])
    v2 = target_probability(inst.table, inst.dag, inst.arms[1])
    assert abs(v1 - v2) <= 1e-15


def test_soft_reduction_needs_labels():
    dag = chain_dag()
    with pytest.raises(ParameterError):
        soft_to_hard_reduction(dag, random_conditional_table(dag, 0), 1, [])


def test_arm_cell_limit_leaves_room_for_tree_h6_at_budget_4():
    assert math.comb(64, 4) * 127 <= ARM_CELL_LIMIT


def test_arm_cell_limit_is_inclusive(monkeypatch):
    # a small limit, so that a missing guard builds a few rows and fails here;
    # the real limit is met from the command line, under a memory cap
    monkeypatch.setattr(model, "ARM_CELL_LIMIT", 9)
    assert len(enumerate_budget_interventions(3, [0, 1, 2], 1)) == 3   # 3 x 3 cells
    assert len(enumerate_root_interventions(3, [0, 1], 2)) == 3        # 3 x 3 cells
    with pytest.raises(CapacityError, match=r"^3 arms x 4 nodes = 12 cells exceeds"):
        enumerate_budget_interventions(4, [0, 1, 2], 1)
    with pytest.raises(CapacityError, match=r"^3 arms x 4 nodes = 12 cells exceeds"):
        enumerate_root_interventions(4, [0, 1], 2)


def test_tree_taller_than_the_arm_cell_limit_is_refused(monkeypatch):
    monkeypatch.setattr(model, "ARM_CELL_LIMIT", 7)
    assert make_binary_tree_dag(2).node_count == 7
    for height in (3, 5):
        with pytest.raises(CapacityError, match=rf"height {height} has 2\^{height + 1} - 1 nodes"):
            make_binary_tree_dag(height)


def test_tree_refuses_budgets_that_are_all_above_its_leaf_count():
    with pytest.raises(ParameterError, match=r"^budget 5 not in \[1, 4\]$"):
        make_binary_tree_dag(2, (5,))
    with pytest.raises(ParameterError, match=r"^budget 9 not in \[1, 4\]$"):
        make_binary_tree_dag(2, (9, 0, 6))
    with pytest.raises(ParameterError, match=r"^budget 5 not in \[1, 4\]$"):
        make_binary_tree_instance(2, 5, rng_seed=0)
    assert make_binary_tree_dag(2, (9, 3)).node_count == 7  # budget 3 fits
    assert make_binary_tree_dag(2).node_count == 7  # no budget, no check


def test_tree_is_refused_when_no_budget_fits(monkeypatch):
    with pytest.raises(CapacityError, match=r"^C\(1048576, 400000\) arms exceed"):
        make_binary_tree_dag(20, (400000,))  # refused without counting them exactly
    # height 2: 7 nodes, 4 leaves; C(4, b) arms at budget b
    monkeypatch.setattr(model, "ARM_CELL_LIMIT", 28)
    assert make_binary_tree_dag(2, (1, 2)).node_count == 7      # 4 x 7 fits
    assert make_binary_tree_dag(2, (2, 4, 0, 9)).node_count == 7  # 1 x 7 fits
    with pytest.raises(CapacityError, match=r"^6 arms x 7 nodes = 42 cells exceeds"):
        make_binary_tree_dag(2, (2,))
    with pytest.raises(CapacityError, match=r"^6 arms x 7 nodes"):
        make_binary_tree_instance(2, 2, rng_seed=0)


def reference_subset_arms(n_nodes, targets, sizes, others):
    """The enumerators as a list of rows built one at a time from `itertools`."""
    rows = []
    for size in sizes:
        for chosen in itertools.combinations(sorted(targets), size):
            row = np.full(n_nodes, FREE, dtype=np.int8)
            row[sorted(targets)] = others
            row[list(chosen)] = 1
            rows.append(row)
    return np.array(rows, dtype=np.int8).reshape(-1, n_nodes)


@pytest.mark.parametrize("n_nodes, targets", [(7, (0, 1, 2, 3)), (9, (8, 2, 5, 0, 6)),
                                              (12, range(12)), (4, (3,))])
def test_enumerators_match_an_itertools_reference_row_for_row(n_nodes, targets):
    for budget in range(1, len(targets) + 1):
        arms = enumerate_budget_interventions(n_nodes, targets, budget)
        want = reference_subset_arms(n_nodes, targets, [budget], 0)
        assert (arms.matrix.dtype, arms.matrix.shape) == (np.int8, want.shape)
        assert np.array_equal(arms.matrix, want)
        arms = enumerate_root_interventions(n_nodes, targets, budget)
        want = reference_subset_arms(n_nodes, targets, range(1, budget + 1), FREE)
        assert (arms.matrix.dtype, arms.matrix.shape) == (np.int8, want.shape)
        assert np.array_equal(arms.matrix, want)
        assert not arms.matrix.flags.writeable
        assert arms.uncertain_nodes == InterventionSet(want).uncertain_nodes


def test_enumeration_peaks_at_its_matrix():
    """tree-h5 at budget 4: 35,960 arms x 63 nodes, 2.27 MB of int8; building
    it row by row into the matrix keeps the peak near the matrix itself."""
    tracemalloc.start()
    try:
        arms = enumerate_budget_interventions(63, range(32), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arms.matrix.shape == (35960, 63)
    assert peak <= 2 * arms.matrix.nbytes


@pytest.mark.parametrize("bad", [
    pytest.param(255, id="255-cast-wrapped-to-free"),
    pytest.param(257, id="257-cast-wrapped-to-one"),
    pytest.param(0.5, id="0.5-cast-truncated-to-zero"),
    pytest.param(-1.5, id="-1.5"),
    pytest.param(np.nan, id="nan"),
    pytest.param("1", id="string-1"),
])
def test_arm_entries_are_compared_before_the_int8_cast(bad):
    """An entry must equal FREE, 0 or 1 as given. Casting first once let
    `InterventionSet` take 255 as FREE, 257 as 1 and 0.5 as 0, and
    `Intervention((0.5, 1, 0))` print as 010."""
    dag = chain_dag()
    table = ConditionalTable.from_success_probs([[0.5], [0.3, 0.7], [0.2, 0.9]])
    row = (bad, 0, 1)
    with pytest.raises(ParameterError, match="entries"):
        Intervention(row)
    with pytest.raises(ParameterError, match="entries"):
        InterventionSet(np.array([row]))
    with pytest.raises(ParameterError, match="entries"):
        target_probabilities(table, dag, np.array([row]))


def test_intervention_set_peaks_within_four_matrices_and_copies():
    """tree-h5 at budget 4 (2.27 MB of int8): the entry check and the cast's
    copy stay within a few matrices, and the set never shares the caller's."""
    matrix = enumerate_budget_interventions(63, range(32), 4).matrix
    tracemalloc.start()
    try:
        arms = InterventionSet(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(arms.matrix, matrix) and arms.matrix.dtype == np.int8
    assert not np.shares_memory(arms.matrix, matrix) and not arms.matrix.flags.writeable
    assert peak <= 4 * matrix.nbytes
