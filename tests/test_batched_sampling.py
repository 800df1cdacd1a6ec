"""One sampler call over a list of batches against one call per batch, on
random networks: the same draws from the same stream, the same counts, and the
same ledger, with the default split or given sizes, and the sampler's
argument errors. The level-at-a-time sampler against a reference copy of the
node-at-a-time loop it replaced, bit for bit, also with the fill drawn in
chunks of any size, its cached plans and thresholds against stale data, and
the peak memory of one large call."""
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbandit import inference
from causalbandit.bif import load_bundled, to_causal_dag
from causalbandit.errors import BudgetError, ParameterError
from causalbandit.inference import SimulatedEnvironment, even_split, sample_batch
from causalbandit.model import (
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    InterventionSet,
    enumerate_budget_interventions,
    enumerate_root_interventions,
    make_binary_tree_dag,
    random_conditional_table,
)
from causalbandit.phase1 import fold_counts
from test_parent_marginals import networks


def reference_sample_batch(table, dag, arm_values, count, rng):
    """The sampler as it was before it drew a topological level per step: one
    node per step, by the same stream rule."""
    rng = np.random.default_rng(rng)
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


@pytest.mark.parametrize("count,k", [(5, 0), (-5, 2), (0, -1)])
def test_even_split_needs_a_nonnegative_count_and_a_part(count, k):
    with pytest.raises(ParameterError):
        even_split(count, k)


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


@st.composite
def sized(draw):
    """`batched` with a drawn size per arm, zeros and repeats among them, and
    the count their sum."""
    table, dag, matrix, _ = draw(batched())
    sizes = draw(st.lists(st.sampled_from([0, 0, 1, 2, 2, 5]), min_size=len(matrix),
                          max_size=len(matrix)))
    return table, dag, matrix, np.array(sizes)


@settings(max_examples=80, deadline=None)
@given(sized(), st.integers(0, 2 ** 32 - 1))
def test_one_call_with_sizes_equals_one_call_per_batch(case, seed):
    """Given sizes, as phase 2 passes them: the draws, the generator state
    afterwards and the fold are those of one call per batch."""
    table, dag, matrix, sizes = case
    count = int(sizes.sum())
    batched_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_batch(table, dag, matrix, count, batched_rng, sizes)
    parts = [sample_batch(table, dag, arm, int(size), single_rng)
             for arm, size in zip(matrix, sizes)]
    assert got.dtype == np.uint8 and got.shape == (count, dag.node_count)
    assert np.array_equal(got, np.concatenate(parts))
    assert batched_rng.bit_generator.state == single_rng.bit_generator.state
    fold = fold_counts(dag, np.repeat(matrix, sizes, axis=0), got)
    assert np.array_equal(fold, sum(fold_counts(dag, arm, part)
                                    for arm, part in zip(matrix, parts)))
    split = even_split(count, len(matrix))  # the default is these sizes
    assert np.array_equal(sample_batch(table, dag, matrix, count, seed, split),
                          sample_batch(table, dag, matrix, count, seed))


def test_bad_counts_arms_and_sizes_raise_before_anything_is_drawn():
    dag = structure("tree-h4")
    table = random_conditional_table(dag, 1)
    arms = InterventionSet(np.full((3, dag.node_count), FREE, dtype=np.int8))
    empty = np.empty((0, dag.node_count), dtype=np.int8)
    cases = [(arms, -3, None), (empty, 0, None), (empty, 4, None), (empty, 0, []),
             (arms, 4, [2, 2]), (arms, 4, [2, 2, 0, 0]), (arms, 4, [5, -1, 0]),
             (arms, 4, [1, 1, 1]), (arms, 4, [2.0, 2.0, 0.0]), (arms, 4, [[2, 2, 0]])]
    for arm_values, count, sizes in cases:
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError):
            sample_batch(table, dag, arm_values, count, rng, sizes)
        assert rng.bit_generator.state == state
        env = SimulatedEnvironment(Instance(dag, table, arms), rng, max_experiments=10)
        with pytest.raises(ParameterError):
            env.intervene_many(arm_values, count, sizes)
        assert env.experiments_used == 0 and rng.bit_generator.state == state


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


def test_a_table_over_a_flat_array_samples_as_a_checked_table():
    dag = structure("alarm")
    flat = np.concatenate(random_conditional_table(dag, 5).rows)  # a new, writable array
    n = dag.node_count - 1
    flat[dag.row_offsets[n]:] = [1.0, 0.0]
    flat[dag.row_offsets[3]] = 0.0  # a zeroed row
    flat[dag.row_offsets[4]] *= 0.5  # a sub-stochastic row
    checked = ConditionalTable(dag.split_rows(flat))
    table = ConditionalTable._from_flat(dag, flat)
    assert np.array_equal(table.thresholds, checked.thresholds)
    assert np.array_equal(table.stochastic, checked.stochastic)
    assert not table.stochastic[[3, 4]].any() and table.stochastic[n]
    assert not flat.flags.writeable and all(r.base is flat for r in table.rows)
    arms = np.full((3, dag.node_count), FREE, dtype=np.int8)
    got = sample_batch(table, dag, arms, 40, 6)
    assert np.array_equal(got, sample_batch(checked, dag, arms, 40, 6))
    assert np.array_equal(got, reference_sample_batch(checked, dag, arms, 40, 6))
    assert not got[:, n].any()  # the last node's rows never draw a 1


def test_two_dags_never_share_a_level_plan():
    chain = CausalDag(((), (0,), (1,), (2,), (3,), (4,), (5,)))
    tree = make_binary_tree_dag(2)  # also seven nodes
    twin = make_binary_tree_dag(2)
    assert tree.levels is not twin.levels  # equal graphs, each its own plan
    assert len(chain.levels[2]) == 7 and len(tree.levels[2]) == 3
    arms = np.full((2, 7), FREE, dtype=np.int8)
    for dag in (chain, tree, twin):
        assert_matches_the_reference(random_conditional_table(dag, 8), dag, arms, 5, 9)


@pytest.mark.parametrize("cells", [1, 7, 64])
@pytest.mark.parametrize("name", ["tree-h4", "alarm"])
def test_the_fill_reads_the_same_stream_in_chunks_of_any_size(name, cells, monkeypatch):
    """The fill draws at most `FILL_CELLS` uniforms at once, or one batch's
    draws of one node when those are more; at any bound the draws are the
    reference's, also where a chunk splits a run of batches."""
    monkeypatch.setattr(inference, "FILL_CELLS", cells)
    dag = structure(name)
    table = random_conditional_table(dag, 11)
    arms = np.random.default_rng(12).choice(np.array([FREE, FREE, 0, 1], dtype=np.int8),
                                            size=(7, dag.node_count))
    for arm_values, count in [(arms, 0), (arms, 5), (arms, 23), (arms, 70), (arms[3], 9)]:
        assert_matches_the_reference(table, dag, arm_values, count, count)


@pytest.mark.parametrize("name, factor", [("tree-h4", 1.79), ("alarm", 2.04)])
def test_a_large_call_peaks_within_a_bounded_factor_of_its_state(name, factor):
    """One call of 100,001 draws over the budget-2 arms peaks at no more than
    the factor of the float64 (nodes + 1) x count state that the sampler
    before the chunked fill reached (1.781 on tree-h4, 2.032 on alarm): the
    fill holds at most `FILL_CELLS` uniforms besides the state."""
    dag = structure(name)
    if name == "alarm":
        arms = enumerate_root_interventions(dag.node_count, dag.roots, 2)
    else:
        arms = enumerate_budget_interventions(dag.node_count, range(16), 2)
    table, count = random_conditional_table(dag, 1), 100_001
    sample_batch(table, dag, arms, 10, 0)  # the graph's plan and the table's thresholds
    tracemalloc.start()
    try:
        sample_batch(table, dag, arms, count, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= factor * (dag.node_count + 1) * count * 8


def test_the_fill_holds_a_bounded_number_of_uniforms():
    """On 31 independent roots the fill is the only step of the sampler that
    holds more than the state, so a fill that drew all of a call's 3.1
    million uniforms at once would peak at about 1.6 to 2 times the state,
    where drawing `FILL_CELLS` at a time keeps it at 1.25."""
    dag = CausalDag(((),) * 31)
    table, count = random_conditional_table(dag, 1), 100_001
    for arms in (np.full((1, 31), FREE, dtype=np.int8), np.full((120, 31), FREE, dtype=np.int8)):
        sample_batch(table, dag, arms, 10, 0)
        tracemalloc.start()
        try:
            sample_batch(table, dag, arms, count, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (dag.node_count + 1) * count * 8
