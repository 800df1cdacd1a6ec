"""The count-folding kernel and the parent-row packing against pure-Python
recounts on random networks."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbandit.inference import sample_batch
from causalbandit.model import FREE
from causalbandit.phase1 import fold_counts
from test_parent_marginals import networks


def parent_row(dag, n, draw):
    """Node n's parent row in one draw, first parent most significant."""
    row = 0
    for p in dag.parents[n]:
        row = (row << 1) | int(draw[p])
    return row


def reference_sample(table, dag, values, count, seed):
    """Forward sampler, one draw and one node at a time, that takes the same
    uniform variates from the same stream as `sample_batch`."""
    rng = np.random.default_rng(seed)
    out = np.zeros((count, dag.node_count), dtype=np.uint8)
    for n in range(dag.node_count):
        if values[n] != FREE:
            out[:, n] = values[n]
            continue
        u = rng.random(count)
        for d in range(count):
            out[d, n] = u[d] < table.rows[n][parent_row(dag, n, out[d]), 1]
    return out


@settings(max_examples=60, deadline=None)
@given(networks(), st.integers(0, 2 ** 32 - 1), st.integers(0, 30))
def test_fold_matches_per_draw_recount(net, seed, count):
    table, dag, arms = net
    offsets = [sum(2 ** len(dag.parents[m]) for m in range(n)) for n in range(dag.node_count)]
    for a, values in enumerate(arms.matrix):
        omega = sample_batch(table, dag, values, count, seed + a)
        assert np.array_equal(omega, reference_sample(table, dag, values, count, seed + a))
        keys = omega @ dag.row_keys
        want = np.zeros((sum(dag.row_count(n) for n in range(dag.node_count)), 2), np.int64)
        for d in range(count):
            for n in range(dag.node_count):
                assert keys[d, n] == parent_row(dag, n, omega[d])
                if values[n] == FREE:
                    want[offsets[n] + parent_row(dag, n, omega[d]), omega[d, n]] += 1
        got = fold_counts(dag, values, omega)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        blocks = dag.split_rows(got)
        assert [b.shape for b in blocks] == [(dag.row_count(n), 2) for n in range(dag.node_count)]
        for n in range(dag.node_count):
            if values[n] != FREE:
                assert not blocks[n].any()
