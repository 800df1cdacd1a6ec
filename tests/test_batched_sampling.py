"""One sampler call over a list of batches against one call per batch, on
random networks: the same draws from the same stream, the same counts, and the
same ledger. The level-at-a-time sampler against a reference copy of the
node-at-a-time loop it replaced, bit for bit, and its cached plans and
thresholds against stale data."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbandit.bif import load_bundled, to_causal_dag
from causalbandit.errors import BudgetError
from causalbandit.inference import SimulatedEnvironment, even_split, sample_batch
from causalbandit.model import (
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    InterventionSet,
    as_rng,
    make_binary_tree_dag,
    random_conditional_table,
)
from causalbandit.phase1 import fold_counts
from test_parent_marginals import networks


def reference_sample_batch(table, dag, arm_values, count, rng):
    """The sampler as it was before it drew a topological level per step: one
    node per step, by the same stream rule."""
    rng = as_rng(rng)
    values = np.asarray(arm_values, dtype=np.int8).reshape(-1, dag.node_count)
    sizes = even_split(count, values.shape[0])
    batch = np.repeat(np.arange(values.shape[0]), sizes)
    free = values == FREE
    spans = sizes * free.sum(axis=1)  # the variates each batch takes
    first_draw, first_variate = np.cumsum(sizes) - sizes, np.cumsum(spans) - spans
    pos = (first_variate - first_draw)[batch] + np.arange(count)  # each draw's next variate
    step = sizes[batch]  # a draw's variates lie one batch size apart, node after node
    u = rng.random(int(spans.sum()))
    keys = dag.row_keys.astype(np.float64)
    out = np.empty((dag.node_count, count))  # node-major while drawing
    drawn = free[sizes > 0]  # the arms that draw at all
    for n, (some, every) in enumerate(zip(drawn.any(axis=0).tolist(),
                                          drawn.all(axis=0).tolist())):
        if not some:
            out[n] = values[batch, n]
            continue
        idx = (keys[:n, n] @ out[:n]).astype(np.int64)  # parents precede n
        if every:
            out[n] = u[pos] < table.rows[n][idx, 1]
            pos += step
        else:
            clamp = values[batch, n]
            hit = clamp == FREE
            out[n] = np.where(hit, u[np.where(hit, pos, 0)] < table.rows[n][idx, 1], clamp)
            pos += step * hit
    return out.T.astype(np.uint8, order="C")


@st.composite
def batched(draw):
    """A random network, its arms with a fully clamped arm added on request,
    and a draw count that may leave some arms without a draw."""
    table, dag, arms = draw(networks(max_arms=4))
    matrix = arms.matrix
    if draw(st.booleans()):
        clamps = draw(st.lists(st.sampled_from([0, 1]), min_size=dag.node_count,
                               max_size=dag.node_count))
        matrix = np.vstack([matrix, clamps])
    return table, dag, matrix.astype(np.int8), draw(st.integers(0, 3 * len(matrix)))


def test_even_split_gives_the_remainder_to_the_first_parts():
    assert even_split(7, 3).tolist() == [3, 2, 2]
    assert even_split(2, 4).tolist() == [1, 1, 0, 0]
    assert even_split(0, 2).tolist() == [0, 0]


@settings(max_examples=80, deadline=None)
@given(batched(), st.integers(0, 2 ** 32 - 1))
def test_one_call_equals_one_call_per_arm(case, seed):
    table, dag, matrix, count = case
    batched_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_batch(table, dag, matrix, count, batched_rng)
    want = [sample_batch(table, dag, arm, int(size), single_rng)
            for arm, size in zip(matrix, even_split(count, len(matrix)))]
    assert got.dtype == np.uint8 and got.shape == (count, dag.node_count)
    assert np.array_equal(got, np.concatenate(want))
    assert batched_rng.random() == single_rng.random()  # the same variates were used
    one = sample_batch(table, dag, matrix[0], count, seed)
    assert np.array_equal(one, sample_batch(table, dag, matrix[:1], count, seed))


@settings(max_examples=60, deadline=None)
@given(batched(), st.integers(0, 2 ** 32 - 1))
def test_fold_of_a_mixed_batch_is_the_sum_of_the_batch_folds(case, seed):
    table, dag, matrix, count = case
    sizes = even_split(count, len(matrix))
    omega = sample_batch(table, dag, matrix, count, seed)
    got = fold_counts(dag, np.repeat(matrix, sizes, axis=0), omega)
    want = sum(fold_counts(dag, arm, part)
               for arm, part in zip(matrix, np.split(omega, np.cumsum(sizes)[:-1])))
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert got.sum() == np.sum(sizes * (matrix == FREE).sum(axis=1))


@settings(max_examples=40, deadline=None)
@given(batched(), st.integers(0, 2 ** 32 - 1))
def test_batched_environment_charges_the_total_before_drawing(case, seed):
    table, dag, matrix, count = case
    rng = np.random.default_rng(seed)
    env = SimulatedEnvironment(Instance(dag, table, InterventionSet(matrix)), rng,
                               max_experiments=count)
    out = env.intervene_many(matrix, count)
    assert out.shape == (count, dag.node_count)
    assert env.experiments_used == count
    state = rng.bit_generator.state
    with pytest.raises(BudgetError):
        env.intervene_many(matrix, len(matrix))
    assert env.experiments_used == count
    assert rng.bit_generator.state == state  # nothing was drawn


def assert_matches_the_reference(table, dag, arm_values, count, seed):
    """The same draws, dtype, shape and layout, and the same generator state after."""
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_batch(table, dag, arm_values, count, rng)
    want = reference_sample_batch(table, dag, arm_values, count, reference_rng)
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == want.shape == (count, dag.node_count)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@st.composite
def pinned(draw):
    """`batched`, and on request one node clamped in every arm, or only the
    first arm passed as a 1-D vector."""
    table, dag, matrix, count = draw(batched())
    if draw(st.booleans()):
        matrix[:, draw(st.integers(0, dag.node_count - 1))] = draw(st.sampled_from([0, 1]))
    return table, dag, matrix[0] if draw(st.booleans()) else matrix, count


@settings(max_examples=150, deadline=None)
@given(pinned(), st.integers(0, 2 ** 32 - 1))
def test_sampler_matches_the_node_at_a_time_reference(case, seed):
    assert_matches_the_reference(*case, seed)


@functools.lru_cache(maxsize=None)
def structure(name):
    if name == "tree-h4":
        return make_binary_tree_dag(4)
    return to_causal_dag(load_bundled(name))[0]


@st.composite
def on_structure(draw, name):
    """A random table on the structure, some entries zeroed, random arms,
    maybe a fully clamped one, and a draw count that may leave arms without a draw."""
    dag = structure(name)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = [r.copy() for r in random_conditional_table(dag, rng).rows]
    zero_share = draw(st.sampled_from([0.0, 0.3]))
    for r in rows:
        r[rng.random(r.shape) < zero_share] = 0.0
    n_arms = draw(st.integers(1, 6))
    matrix = rng.choice(np.array([FREE, FREE, FREE, 0, 1], dtype=np.int8),
                        size=(n_arms, dag.node_count))
    if draw(st.booleans()):
        matrix[-1] = rng.integers(0, 2, dag.node_count)
    return ConditionalTable(tuple(rows)), dag, matrix, draw(st.integers(0, 3 * n_arms))


@pytest.mark.parametrize("name", ["tree-h4", "alarm", "water"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_sampler_matches_the_reference_on_the_bundled_structures(name, data, seed):
    assert_matches_the_reference(*data.draw(on_structure(name)), seed)


@pytest.mark.parametrize("name", ["tree-h4", "alarm", "water"])
def test_sampler_matches_the_reference_at_the_edges(name):
    dag = structure(name)
    table = random_conditional_table(dag, 3)
    arms = np.random.default_rng(4).choice(np.array([FREE, FREE, 0, 1], dtype=np.int8),
                                           size=(5, dag.node_count))
    arms[2] = np.arange(dag.node_count) % 2  # a fully clamped arm
    clamped_everywhere = arms.copy()
    clamped_everywhere[:, dag.node_count // 2] = 1
    for arm_values, count in [(arms, 0), (arms, 3), (arms, 11), (arms[2], 4),
                              (arms[0], 7), (arms[0].tolist(), 2), (arms[1], 300),
                              (clamped_everywhere, 9), (clamped_everywhere[:2], 1)]:
        assert_matches_the_reference(table, dag, arm_values, count, count)


def test_a_table_made_by_with_node_gets_its_own_thresholds():
    dag = structure("alarm")
    table = random_conditional_table(dag, 5)
    arms = np.full((3, dag.node_count), FREE, dtype=np.int8)
    before = table.thresholds.copy()  # cached on the old table first
    n = dag.node_count - 1
    rows = np.column_stack([np.ones(dag.row_count(n)), np.zeros(dag.row_count(n))])
    changed = table.with_nodes([n], rows)
    fresh = ConditionalTable(table.rows[:n] + (rows,))
    assert changed.thresholds is not table.thresholds
    assert np.array_equal(changed.thresholds, fresh.thresholds)
    assert np.array_equal(table.thresholds, before)
    got = sample_batch(changed, dag, arms, 40, 6)
    assert np.array_equal(got, sample_batch(fresh, dag, arms, 40, 6))
    assert not got[:, n].any()  # the new rows never draw a 1
    assert np.array_equal(sample_batch(table, dag, arms, 40, 6),
                          reference_sample_batch(table, dag, arms, 40, 6))


def test_two_dags_never_share_a_level_plan():
    chain = CausalDag(((), (0,), (1,), (2,), (3,), (4,), (5,)))
    tree = make_binary_tree_dag(2)  # also seven nodes
    twin = make_binary_tree_dag(2)
    assert tree.levels is not twin.levels  # equal graphs, each its own plan
    assert len(chain.levels[2]) == 7 and len(tree.levels[2]) == 3
    arms = np.full((2, 7), FREE, dtype=np.int8)
    for dag in (chain, tree, twin):
        assert_matches_the_reference(random_conditional_table(dag, 8), dag, arms, 5, 9)
