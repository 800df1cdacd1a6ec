"""Exact probabilities on intervened DAGs, plus the sampling environment.

Two independent engines compute the same quantities:

* a brute-force enumerator, written directly from the defining sums, used as
  the test oracle for everything else;
* variable elimination batched over an axis of interventions: one factor per
  node, with the variables summed out one at a time in a greedy min-fill
  order, so that the largest array is set by the width of that elimination.

The engine answers one query. The "parent probabilities" of node n form an
(arms, 2^k) matrix for its k parents: entry [a, r] is the mass of the nodes
before n, under arm a, with n's parents equal to parent row r (zero when arm
a fixes n). One sweep keeps the parents to the end and reads every row at
once. The mass is taken over the whole prefix, so sub-stochastic (partly
estimated) nodes that are not ancestors of n still scale it: each row of the
matrix sums to the arm's prefix mass, and a parentless node gets one column
equal to it, not 1.

A sweep for node n is planned once for the whole arm set, and only the plan
knows the layout. Its relevant nodes are n's parents, each node before n that
some arm leaves free and whose rows do not all sum to 1 (sub-stochastic
estimates contribute their mass), and, transitively, the parents of relevant
nodes that some arm leaves free; every other node marginalizes to exactly 1
and is skipped. The variables are n's parents and the relevant nodes free in
at least one arm, and each of those has a factor (`_factor`). A node fixed in
every arm is no variable but a per-arm constant, read off the arm matrix,
except n's parents: one of those fixed in every arm has its clamp's indicator
as a factor over itself. The plan eliminates every variable but n's parents in
greedy min-fill order (fewest added edges first, the lowest node on a tie).
Each step multiplies the factors that hold the variable into one clique array
and sums that variable's length-2 axis out; what is left is the output factor
over n's parents, axes ascending, which one transpose puts in `dag.parents[n]`
order. `width` is the largest clique, the output factor included. A plan reads
only the graph, n, the relevant nodes and which nodes some arm leaves free, so
it is kept in a bounded cache under exactly that key and made once for every
query that shares it (the relevant nodes are found on each call, since they
depend on which rows sum to 1). `_execute` then only multiplies and sums, on
chunks of arms each sized so that one clique array holds at most
max(STATE_BUDGET, 2^width) cells. Every factor, clique and message keeps the
arm axis last and contiguous, one length-2 axis per variable before it: the
arm axis is the long one, so each product and each sum over a variable's two
halves, x0 + x1, runs over contiguous arms instead of as 2-element inner
loops (4-5x faster on reward sweeps of 793 to 12,870 arms). One transpose
per chunk puts the output in the (arms, 2^k) layout. A message whose inputs
are all arm-free (`_factor`) is arm-free too, and so summed once per chunk.
Every arm's arithmetic is the same whatever the chunking, broadcasting and
layout, so results do not depend on them; the plan, and with it the last
bits of an arm's result, does depend on the arm set. `CapacityError` is
raised, before any array is built, on every query whose plan has one clique
spanning more than FRONTIER_LIMIT variables.

Sampling has one entry point, `sample_batch`, whose rules are stated here
only. One call draws a list of batches: under one arm, or under a (B, nodes)
matrix of arms, arm i's of `sizes[i]` draws or by default of `even_split`'s,
and returns them batch after batch. Its arms pass `_arm_matrix`, the check a
query's pass, and its count and sizes their own, before any uniform is drawn.
The stream is exactly the one that one call per batch would take: batch after
batch, and within a batch node-major over its arm's free nodes in topological
order. In the stream u, variate (batch i, free node of rank r, draw k) is u at
i's start plus r x size_i + k, and a clamp takes a sentinel instead, -1 for
clamp 1 and 2 for clamp 0, which no probability crosses. Each run of
equal-size batches (at most two in the default split; given sizes are cut
wherever the size changes) gets its sentinels in one write, then its free
(batch, node) cells in stream order, FILL_CELLS uniforms (or one cell) at a
time. Draws are made one `CausalDag.levels` depth at a time: one product packs
the depth's parent rows, as `CausalDag.row_keys` does, and variate <
`ConditionalTable.thresholds`[row] overwrites the depth's variates. Strategies
reach it only through `SimulatedEnvironment.intervene_many`.
"""
from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, CapacityError, ParameterError
from .model import (
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    Intervention,
    InterventionSet,
    ParentRealization,
    arm_matrix,
)

FRONTIER_LIMIT = 20
STATE_BUDGET = 1 << 16  # cells of one clique array; the arm axis is chunked to fit
BRUTE_FORCE_LIMIT = 20
PLAN_CACHE_SIZE = 512  # sweep plans kept; one is at most about 14 KB on alarm
CELL_CACHE_SIZE = 256  # cell-index tables of factors kept
FILL_CELLS = 1 << 13  # uniforms `sample_batch` draws at once, or one cell's if more: 64 KB


# ---------------------------------------------------------------------------
# brute-force oracles (pure Python, no shortcuts)

def _completions(table: ConditionalTable, dag: CausalDag, values, free: list[int]):
    """Each completion of `values` over the `free` nodes, in `itertools.product`
    order, with the product of the free nodes' conditional values in it."""
    if len(free) > BRUTE_FORCE_LIMIT:
        raise CapacityError(f"{len(free)} free nodes exceeds brute-force limit {BRUTE_FORCE_LIMIT}")
    for bits in itertools.product((0, 1), repeat=len(free)):
        omega = list(values)
        for n, b in zip(free, bits):
            omega[n] = b
        prod = 1.0
        for n in free:
            idx = 0
            for p in dag.parents[n]:
                idx = (idx << 1) | omega[p]
            prod *= table.rows[n][idx, omega[n]]
        yield omega, prod


def _brute_force(table: ConditionalTable, dag: CausalDag, values, free: list[int],
                 accept) -> float:
    """The sum, in order, of the products of the completions that pass `accept`."""
    total = 0.0
    for omega, prod in _completions(table, dag, values, free):
        if accept(omega):
            total += prod
    return total


def brute_force_target_probability(table: ConditionalTable, dag: CausalDag,
                                   arm: Intervention) -> float:
    """Enumerate every assignment of the free nodes; keep those with the last
    node equal to 1; sum the products of the free nodes' conditional values."""
    last = dag.node_count - 1
    free = [n for n in range(dag.node_count) if arm.values[n] == FREE]
    return _brute_force(table, dag, arm.values, free, lambda omega: omega[last] == 1)


def brute_force_parent_probability(table: ConditionalTable, dag: CausalDag, n: int,
                                   pi: ParentRealization, arm: Intervention) -> float:
    """Enumerate assignments of the nodes before n that agree with the
    intervention and realize pi on n's parents; zero if n is intervened."""
    if arm.values[n] != FREE:
        return 0.0
    free = [m for m in range(n) if arm.values[m] == FREE]
    want = list(zip(pi.scope, pi.bits))
    return _brute_force(table, dag, arm.values, free,
                        lambda omega: all(omega[p] == b for p, b in want))


# ---------------------------------------------------------------------------
# variable elimination

def _arm_matrix(arms, dag: CausalDag, n: int | None = None) -> np.ndarray:
    """The arms as an (arms, nodes) int8 matrix, checked against the graph
    and, for a parent query, the queried node n. An `InterventionSet`'s
    matrix was checked when the set was made and is read-only, and so is
    that of a subset `InterventionSet.take` makes, so a set is taken as it
    is. Callers pass rows of a set as `arms.take(rows)`: a slice of
    `arms.matrix` is raw values, and raw values go through `arm_matrix`,
    one arm's values as one row."""
    if isinstance(arms, InterventionSet):
        m = arms.matrix
    else:
        m = np.asarray(arms.values if isinstance(arms, Intervention) else arms)
        m = arm_matrix(m[None, :] if m.ndim == 1 else m)
    if m.shape[1] != dag.node_count:
        raise ParameterError("intervention length does not match the graph")
    if n is not None and not 0 <= n < dag.node_count:
        raise ParameterError(f"node {n} is not in the graph")
    return m


class _Plan(NamedTuple):
    """`factors`: (node, scope, sources) per factor, with each parent's
    position in the ascending scope or None when read off the arm matrix
    (sources None: a fixed parent's indicator); `steps`: (inputs, axis) per
    eliminated variable, whose message takes the next factor id; `final`:
    the output factor's inputs. An input is a factor id and its shape in
    the clique, 2 on the axes it spans and 1 elsewhere; `axis` counts among
    these variable axes. `_execute` puts the arm axis after them, last, so
    that the long axis is the contiguous one."""

    factors: tuple[tuple[int, tuple[int, ...], tuple[int | None, ...] | None], ...]
    steps: tuple[tuple[tuple[tuple[int, tuple[int, ...]], ...], int], ...]
    final: tuple[tuple[int, tuple[int, ...]], ...]
    width: int


def _plan(table: ConditionalTable, dag: CausalDag, free_any: np.ndarray, n: int) -> _Plan:
    relevant = set(dag.parents[n])
    relevant.update(np.flatnonzero(free_any[:n] & ~table.stochastic[:n]).tolist())
    for m in range(n - 1, -1, -1):  # parents precede children, so one pass closes the set
        if m in relevant and free_any[m]:
            relevant.update(dag.parents[m])
    plan = _min_fill(dag, free_any.tobytes(), n, sum(1 << m for m in relevant))
    if plan.width > FRONTIER_LIMIT:
        raise CapacityError(f"largest clique {plan.width} exceeds limit {FRONTIER_LIMIT}")
    return plan


def _nodes(mask: int) -> list[int]:
    """The nodes of a bitset, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _min_fill(dag: CausalDag, free_bytes: bytes, n: int, relevant: int) -> _Plan:
    """`free_bytes` is `free_any`'s bytes; node sets are bitsets, bit u for u."""
    free_any = np.frombuffer(free_bytes, dtype=bool)
    keep = dag.parents[n]
    nodes = _nodes(relevant)
    # the variables: n's parents and the relevant nodes free in some arm
    variables = {m for m in nodes if free_any[m]}.union(keep)
    factors = []
    for m in nodes:
        if free_any[m]:
            scope = tuple(sorted({p for p in dag.parents[m] if p in variables} | {m}))
            sources = tuple(scope.index(p) if p in variables else None
                            for p in dag.parents[m])
        elif m in keep:  # fixed in every arm: only its indicator is left
            scope, sources = (m,), None
        else:
            continue
        factors.append((m, scope, sources))

    def shape(scope, clique):
        return tuple(2 if scope >> u & 1 else 1 for u in clique)

    adj = dict.fromkeys(variables, 0)
    live = {}  # factor id -> scope, for the unconsumed ones, ids ascending
    for i, (_, span, _) in enumerate(factors):
        live[i] = scope = sum(1 << v for v in span)
        for v in span:
            adj[v] |= scope
    for v in variables:
        adj[v] &= ~(1 << v)

    def fill(v):  # edges that eliminating v would add between its neighbours
        nb = adj[v]
        d = nb.bit_count()
        return (d * (d - 1) - sum((adj[a] & nb).bit_count() for a in _nodes(nb))) // 2

    score = {v: fill(v) for v in variables.difference(keep)}
    steps, width = [], len(keep)
    while score:  # greedy min-fill; the lowest node breaks a tie
        v = min(score, key=lambda u: (score[u], u))
        del score[v]
        inputs = [i for i, s in live.items() if s >> v & 1]
        joined = 0
        for i in inputs:
            joined |= live[i]
        clique = _nodes(joined)
        width = max(width, len(clique))
        message = len(factors) + len(steps)
        steps.append((tuple((i, shape(live.pop(i), clique)) for i in inputs),
                      clique.index(v)))
        live[message] = joined & ~(1 << v)
        nb = adj.pop(v)
        touched = nb
        for a in _nodes(nb):
            adj[a] = (adj[a] | nb) & ~(1 << a | 1 << v)
            touched |= adj[a]
        for u in _nodes(touched):
            if u in score:
                score[u] = fill(u)
    output = sorted(keep)  # the output factor's axes
    final = tuple((i, shape(scope, output)) for i, scope in sorted(live.items()))
    return _Plan(tuple(factors), tuple(steps), final, width)


@functools.lru_cache(maxsize=CELL_CACHE_SIZE)
def _cells(width: int, sources: tuple[int | None, ...], pos: int) -> tuple[np.ndarray, np.ndarray]:
    """Two read-only tables of shape (2^width, 1), one entry per cell of a
    factor over `width` variables, so that they broadcast along the arm
    axis, which is last: the cell's place in the node's flattened (rows, 2)
    table, 2 x row + own bit, with the row counting only the parents that
    are variables (`sources` as in `_Plan`; `_factor` adds the bits of those
    read off the arm matrix); and the node's own bit, the variable at
    position `pos`."""
    cells = np.arange(1 << width)[:, None]

    def bit(j):
        return (cells >> (width - 1 - j)) & 1

    row = np.zeros_like(cells)
    for j in sources:
        row = (row << 1) + (0 if j is None else bit(j))
    v = bit(pos)
    flat = 2 * row + v
    flat.flags.writeable = v.flags.writeable = False
    return flat, v


def _factor(table: ConditionalTable, dag: CausalDag, fixed: np.ndarray, every_free: list[bool],
            m: int, scope: tuple[int, ...], sources: tuple[int | None, ...] | None) -> np.ndarray:
    """Node m's factor on one chunk of arms, shape (2^len(scope), arms), the
    arm axis last and contiguous; `fixed` is the chunk's clamps, one row per
    node. A cell holds m's conditional value where the arm leaves m free,
    else the indicator of the clamp. The factor is arm-free, shape
    (2^len(scope), 1), when every arm of the chunk leaves m free and all m's
    parents are variables."""
    clamp = fixed[m]
    if sources is None:  # scope is (m,)
        return (np.arange(2)[:, None] == clamp).astype(np.float64)
    flat, v = _cells(len(scope), sources, scope.index(m))
    values = table.rows[m].ravel()
    if every_free[m] and None not in sources:
        return values[flat]
    k = len(sources)
    for i, (p, j) in enumerate(zip(dag.parents[m], sources)):
        if j is None:  # p's clamp is row bit k-1-i, and flat counts the row twice
            flat = flat + (fixed[p] << (k - i))
    return np.where(clamp == FREE, values[flat], clamp == v)


def _execute(plan: _Plan, table: ConditionalTable, dag: CausalDag, arms: np.ndarray,
             n: int) -> np.ndarray:
    """Run the plan on one chunk of arms, the arm axis last; arm-free arrays
    broadcast. The result is an (arms, 2, ..., 2) view, n's parents in
    `dag.parents[n]` order, that `_sweep` copies into its output."""
    n_arms = arms.shape[0]
    fixed = arms.T.astype(np.int64, order="C")  # clamps by node, wide enough to pack rows
    every_free = (arms == FREE).all(axis=0).tolist()
    made = {}

    def take(i, shape):
        f = made.pop(i) if i in made else _factor(table, dag, fixed, every_free,
                                                  *plan.factors[i])
        return f.reshape(shape + (f.shape[-1],))

    next_id = len(plan.factors)
    for inputs, axis in plan.steps:
        clique = take(*inputs[0])
        for i, shape in inputs[1:]:
            clique = clique * take(i, shape)
        at = (slice(None),) * axis  # sum out the length-2 axis: x0 + x1
        made[next_id] = clique[at + (0,)] + clique[at + (1,)]
        next_id += 1

    # the output factor spans n's parents in ascending order; put them in
    # `dag.parents[n]` order, the first one most significant, arms first
    keep = dag.parents[n]
    state = np.ones((1,) * len(keep) + (n_arms,))
    for i, shape in plan.final:
        state = state * take(i, shape)
    order = sorted(keep)
    return state.transpose(len(keep), *(order.index(p) for p in keep))


def _sweep(table: ConditionalTable, dag: CausalDag, arms: np.ndarray, n: int) -> np.ndarray:
    """n's parent probabilities (module docstring), also for arms that fix n."""
    plan = _plan(table, dag, (arms == FREE).any(axis=0), n)
    chunk = max(1, STATE_BUDGET >> plan.width)
    out = np.empty((arms.shape[0], dag.row_count(n)))
    for lo in range(0, arms.shape[0], chunk):
        part = _execute(plan, table, dag, arms[lo:lo + chunk], n)
        out[lo:lo + chunk].reshape(part.shape)[...] = part  # the one transpose
    return out


# ---------------------------------------------------------------------------
# public operations

def target_probabilities(table: ConditionalTable, dag: CausalDag, arms) -> np.ndarray:
    """P(last node = 1) for each intervention, evaluated with the given table:
    the last node's parent-row mass times its chance of 1 in each row, its
    conditional rate where the arm leaves it free, else clamp 1's indicator."""
    m = _arm_matrix(arms, dag)
    last = dag.node_count - 1
    clamp = m[:, last, None]
    rate = np.where(clamp == FREE, table.rows[last][:, 1], clamp == 1)
    return (_sweep(table, dag, m, last) * rate).sum(axis=1)


def target_probability(table: ConditionalTable, dag: CausalDag, arm: Intervention) -> float:
    return float(target_probabilities(table, dag, arm)[0])


def parent_probabilities(table: ConditionalTable, dag: CausalDag, n: int,
                         arms) -> np.ndarray:
    """Chance that n's parents realize each parent row, per intervention: shape
    (arms, 2^k) for k parents, column r for `ParentRealization.from_index(
    dag.parents[n], r)`; rows are zero where n is fixed."""
    m = _arm_matrix(arms, dag, n)
    return np.where((m[:, n] == FREE)[:, None], _sweep(table, dag, m, n), 0.0)


# ---------------------------------------------------------------------------
# sampling

def even_split(count: int, k: int) -> np.ndarray:
    """`count` split over k parts, the remainder one each to the first."""
    if count < 0 or k < 1:
        raise ParameterError("need a nonnegative count and at least one part")
    base, extra = divmod(count, k)
    return base + (np.arange(k) < extra)


def sample_batch(table: ConditionalTable, dag: CausalDag, arm_values, count: int,
                 rng, sizes=None) -> np.ndarray:
    """Draw `count` realizations, shape (count, nodes), under one arm or a
    (B, nodes) matrix or set of arms, `sizes[i]` of them under arm i or, by
    default, `even_split`'s share, by the rules in the module docstring."""
    order, column, levels = dag.levels
    values = _arm_matrix(arm_values, dag)
    if count < 0 or not len(values):
        raise ParameterError("need a nonnegative count and at least one arm")
    if sizes is None:  # `even_split`'s runs, less the first when it is empty
        values = values[:max(count, 1)]  # arms past the count draw nothing
        base, extra = divmod(count, len(values))
        runs = ((0, extra, base + 1), (extra, len(values), base))[not extra:]
    else:  # a run wherever the size changes
        sizes = np.asarray(sizes)
        if sizes.shape != (len(values),) or sizes.dtype.kind not in "iu" \
                or (sizes < 0).any() or sizes.sum() != count:
            raise ParameterError("sizes must be one nonnegative int per arm, summing to count")
        cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(sizes)]
        runs = [(lo, hi, int(sizes[lo])) for lo, hi in zip(cuts, cuts[1:])]
    rng, n_nodes = np.random.default_rng(rng), dag.node_count
    clamps = np.where(values == 1, -1.0, 2.0).T[order]  # (row, arm) sentinels
    v, at = np.zeros((n_nodes + 1, count)), 0  # (row, draw); row N stays 0
    for lo, hi, size in runs:  # (row, batch, draw) views: only the draw axis is split
        run = v[:-1, at:at + (hi - lo) * size].reshape(n_nodes, hi - lo, size)
        run[...] = clamps[:, lo:hi, None]
        arm, node = np.nonzero(values[lo:hi] == FREE)  # the stream's (batch, rank) order
        row, step = column[node], max(1, FILL_CELLS // max(size, 1))
        for i in range(0, len(arm), step):
            run[row[i:i + step], arm[i:i + step]] = rng.random((len(arm[i:i + step]), size))
        at += (hi - lo) * size
    for start, end, cols, weights, offsets in levels:
        if len(weights):  # the rows, then their thresholds in their place
            p = (weights @ v.take(cols, axis=0).reshape(len(weights), (end - start) * count)
                 ).reshape(end - start, count)
            p += offsets
            table.thresholds.take(p.astype(np.intp), out=p, mode="clip")
        else:  # the roots
            p = table.thresholds[offsets]
        np.less(v[start:end], p, out=v[start:end])
    return np.ascontiguousarray(v.astype(np.uint8).take(column, axis=0).T)


class SimulatedEnvironment:
    """What a strategy is allowed to touch: a forward sampler over a known
    instance, with an experiment ledger; the true table stays hidden."""

    def __init__(self, instance: Instance, rng, max_experiments: int | None = None):
        self._instance = instance
        self._rng = np.random.default_rng(rng)
        self._used = 0
        self._max = max_experiments

    def intervene_many(self, arm, count: int, sizes=None) -> np.ndarray:
        """Charge `count` experiments and draw that many realizations, shape
        (count, nodes), under one arm or a (B, nodes) matrix or set of arms,
        split by `sizes` as `sample_batch` does. `BudgetError` is raised
        before anything is drawn; a draw that fails charges nothing."""
        if self._max is not None and self._used + count > self._max:
            raise BudgetError(
                f"experiment budget exhausted: {self._used}+{count} > {self._max}")
        omega = sample_batch(self._instance.table, self._instance.dag, arm, count, self._rng,
                             sizes)
        self._used += count
        return omega

    @property
    def experiments_used(self) -> int:
        return self._used
