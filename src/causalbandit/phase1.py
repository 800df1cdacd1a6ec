"""First estimation phase: one batched scan per uncertain (node, parent-row)
pair.

This is the one place the horizon T is split: each of the C uncertain pairs
(`model.uncertain_rows`) gets floor(T / 3C) samples, and phase 2 reads that
batch and T from the result. Pairs are visited in node order, so every
upstream estimate is final before it feeds a downstream node's reach: one
parent-marginal sweep per node gives the chance that each arm produces each
of its parent rows. That `reach` matrix is kept on the result, and phase 2's
allocation objective reads it instead of sweeping again. For each pair the
arm most likely to produce its parent row is pulled for the whole batch.
`fold_counts`, the one count-folding kernel of both phases, sums the draws
into the shared counts that practical-mode phase 2 starts from. Each pair
keeps the counts of its own row in its own batch, so a draw whose arm clamps
the pair's node counts for nothing there. `rate_estimates`, the rule both
phases use, reads the rates off the counts. Rates whose (rate x best reach)
product falls under the truncation threshold are marked unreliable and zeroed
in the returned table; pairs whose best reach itself is tiny are marked rare
and only excluded later, at final-estimate time. Every per-pair array but
`seen` and `seen_one` is kept in `fold_counts`' flat row layout, where row
`dag.row_offsets[n] + r` is node n's parent row r: `reach` is one (total
rows, arms) matrix. Each step writes its pairs' rows of the trimmed estimate,
each parent query reads a read-only copy of it, and the returned table is
built over that array itself.

Once every arm's prefix mass is exactly zero, the later nodes' queries are
skipped and their rows keep zero `reach` (argmax arm 0, max 0), as the
sweeps would give. An arm that leaves node n free and gets zero reach on
every row of n is dead: every factor is nonnegative, the sub-stochastic
nodes and free ancestors that zeroed its mass are in every later query's
relevant set, and the stochastic nodes a later query adds have positive row
sums, so every term of a later sweep holds an exact zero and it returns
+0.0. The zero must not be an underflow: a term multiplies at most N
factors, each an indicator or a count ratio of at least 1/T, so arms are
marked dead only while N log2(T) < 1000 (the least normal double is 2^-1022).

The node whose query leaves no arm alive is drawn with that tail, whose pairs
all pull arm 0, in one sampler call, one fold, one own-row count and one rate
estimate. The stream is the one a call per node would read (`sample_batch`'s
rule), since nothing else draws between these nodes. Counts are integers and
the rates and masks elementwise, so every bit is the same too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ParameterError
from .inference import SimulatedEnvironment, parent_probabilities
from .model import (FREE, CausalDag, ConditionalTable, InterventionSet, check_arm_cells,
                    uncertain_rows)


def truncation_threshold(trunc_scale: float, node_count: int, uncertain_rows: int,
                         horizon: int) -> float:
    """12 * scale * nodes^2 * uncertain rows * ln(horizon) / horizon."""
    if not 0 < trunc_scale < math.inf:
        raise ParameterError("trunc_scale must be positive and finite")
    if node_count <= 0 or uncertain_rows <= 0:
        raise ParameterError("node and row counts must be positive")
    if horizon < 2:
        raise ParameterError("horizon must be at least 2")
    return 12.0 * trunc_scale * node_count ** 2 * uncertain_rows \
        * math.log(horizon) / horizon


def rate_estimates(seen, seen_one) -> np.ndarray:
    """Empirical conditional rates, shape (rows, 2) indexed [row, value], from
    per-row sample counts; a row with no samples gives zero for both values."""
    seen = np.asarray(seen)
    rate_one = np.divide(seen_one, seen, out=np.zeros(seen.shape), where=seen > 0)
    return np.where((seen > 0)[:, None], np.stack([1.0 - rate_one, rate_one], axis=1), 0.0)


def fold_counts(dag: CausalDag, arm_values, omega: np.ndarray) -> np.ndarray:
    """Counts of a batch, flat shape (total rows, 2) indexed
    [`dag.row_offsets[n]` + parent row, value]. `arm_values` is the one arm
    the batch was drawn under or a (draws, nodes) matrix of each draw's arm;
    a draw counts nothing for the nodes its arm clamps."""
    free = np.broadcast_to(np.asarray(arm_values) == FREE, omega.shape)
    keys = 2 * (omega @ dag.row_keys + dag.row_offsets[:-1]) + omega
    return np.bincount(keys[free], minlength=2 * dag.total_rows).reshape(-1, 2)


@dataclass(frozen=True)
class Phase1Result:
    dag: CausalDag
    arms: InterventionSet
    trimmed: ConditionalTable
    unreliable: np.ndarray  # (total rows, 2) masks, indexed [row, value]
    rare: np.ndarray
    seen: tuple[np.ndarray, ...]  # per node
    seen_one: tuple[np.ndarray, ...]
    reach: np.ndarray  # (total rows, arms); zero on the rows of nodes no arm frees
    best_arm: np.ndarray  # per row; -1 on the rows of nodes no arm frees
    best_value: np.ndarray
    shared: np.ndarray  # the folds of every batch summed
    trunc_scale: float
    horizon: int
    per_pair: int
    threshold: float
    uncertain_nodes: tuple[int, ...]
    uncertain_rows: int


def run_phase1(env: SimulatedEnvironment, dag: CausalDag, arms: InterventionSet,
               trunc_scale: float, horizon: int) -> Phase1Result:
    """Scan every uncertain pair once; trunc_scale zero disables truncation."""
    if not 0 <= trunc_scale < math.inf:
        raise ParameterError("trunc_scale must be nonnegative and finite")
    uncertain = arms.uncertain_nodes
    pair_count = uncertain_rows(dag, arms)
    if pair_count == 0:
        raise ParameterError("no arm leaves any node free")
    if horizon < 3 * pair_count:
        raise BudgetError(
            f"horizon {horizon} is below 3x the {pair_count} uncertain rows")
    per_pair = horizon // (3 * pair_count)
    threshold = (truncation_threshold(trunc_scale, dag.node_count, pair_count, horizon)
                 if trunc_scale > 0 else 0.0)

    check_arm_cells(len(arms), dag.total_rows, "rows")  # the reach matrix
    # every per-pair array, the trimmed estimate among them, is laid out as `fold_counts`' rows
    trimmed = np.zeros((dag.total_rows, 2))
    own = np.zeros_like(trimmed, dtype=np.int64)  # each pair's row of its own batch
    shared = np.zeros_like(own)
    unreliable = np.zeros(own.shape, dtype=bool)
    row_node = np.repeat(np.arange(dag.node_count),
                         [dag.row_count(n) for n in range(dag.node_count)])
    # a skipped node keeps argmax 0 and max 0; -1 marks the rows of nodes no arm frees
    best_arm = np.where(arms.ever_free[row_node], 0, -1)
    best_value = np.zeros(dag.total_rows)
    reach = np.zeros((dag.total_rows, len(arms)))  # rows first, so reach[rows] is C-ordered

    exact_zeros = dag.node_count * math.log2(horizon) < 1000  # see the module docstring
    alive = np.ones(len(arms), dtype=bool)  # arms whose prefix mass may be nonzero
    for n in uncertain:
        lo, hi = dag.row_offsets[n], dag.row_offsets[n + 1]
        # the query reads only nodes before n, so one per node serves every row
        reach[lo:hi] = parent_probabilities(ConditionalTable._from_flat(dag, trimmed.copy()),
                                            dag, n, arms).T
        best_arm[lo:hi] = np.argmax(reach[lo:hi], axis=1)
        best_value[lo:hi] = reach[lo:hi].max(axis=1)
        if exact_zeros:
            alive &= (arms.matrix[:, n] != FREE) | reach[lo:hi].any(axis=0)
        tail = not alive.any()  # then n's pairs and every later one are drawn now
        pairs = lo + np.flatnonzero(best_arm[lo:dag.total_rows if tail else hi] >= 0)
        # pair i's batch is the per_pair draws from i * per_pair
        pulled = arms.take(best_arm[pairs])
        omega = env.intervene_many(pulled, len(pairs) * per_pair)
        draw_arms = pulled.matrix.repeat(per_pair, axis=0)
        shared += fold_counts(dag, draw_arms, omega)
        pair = pairs.repeat(per_pair)  # each draw's pair, and its node
        node, draws = row_node[pair], np.arange(len(pair))
        key = np.einsum("dn,dn->d", omega, dag.row_keys.T[node]) + dag.row_offsets[node]
        hit = (key == pair) & (draw_arms[draws, node] == FREE)
        own += np.bincount(2 * pair[hit] + omega[draws[hit], node[hit]],
                           minlength=2 * dag.total_rows).reshape(-1, 2)
        counts = own[pairs]
        est = rate_estimates(counts.sum(axis=1), counts[:, 1])
        if trunc_scale > 0:
            unreliable[pairs] = est * best_value[pairs][:, None] <= 2.0 * math.e * threshold
        trimmed[pairs] = np.where(unreliable[pairs], 0.0, est)
        if tail:
            break

    rare = np.zeros_like(unreliable)
    if trunc_scale > 0:
        rare_cut = 8.0 * math.e * pair_count ** 2 * threshold
        rare[(best_arm >= 0) & (best_value <= rare_cut)] = True  # uncertain nodes' rows

    return Phase1Result(
        dag=dag,
        arms=arms,
        trimmed=ConditionalTable._from_flat(dag, trimmed),
        unreliable=unreliable,
        rare=rare,
        seen=dag.split_rows(own.sum(axis=1)),
        seen_one=dag.split_rows(own[:, 1]),
        reach=reach,
        best_arm=best_arm,
        best_value=best_value,
        shared=shared,
        trunc_scale=trunc_scale,
        horizon=horizon,
        per_pair=per_pair,
        threshold=threshold,
        uncertain_nodes=uncertain,
        uncertain_rows=pair_count,
    )
