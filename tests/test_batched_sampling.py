"""One sampler call over a list of batches against one call per batch, on
random networks: the same draws from the same stream, the same counts, and the
same ledger."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbandit.errors import BudgetError
from causalbandit.inference import SimulatedEnvironment, even_split, sample_batch
from causalbandit.model import FREE, Instance, InterventionSet
from causalbandit.phase1 import fold_counts
from test_parent_marginals import networks


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
