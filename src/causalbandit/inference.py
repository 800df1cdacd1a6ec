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
equal to it, not 1. The "target probability" P(last node = 1 |
intervention) is the last node's parent-row mass times its chance of 1 in
each row: its conditional rate where the arm leaves it free, the indicator
of clamp 1 where the arm fixes it.

A sweep for node n is planned once for the whole arm set, and only the plan
knows the layout. Its relevant nodes are n's parents, each node before n that
some arm leaves free and whose rows do not all sum to 1 (sub-stochastic
estimates contribute their mass), and, transitively, the parents of relevant
nodes that some arm leaves free; every other node marginalizes to exactly 1
and is skipped. The variables are n's parents and the relevant nodes free
in at least one arm. Each relevant node that some arm leaves free has a
factor over itself and its parents that are variables: per arm, its
conditional values where the arm leaves it free and the indicator of its
clamp where the arm fixes it. Any other node fixed in every arm is no
variable but a per-arm constant, read off the arm matrix, except n's parents:
one of those fixed in every arm has its clamp's indicator as a factor over
itself. The plan eliminates every variable but n's parents in greedy min-fill
order (fewest added edges first, the lowest node on a tie). Each step
multiplies the factors that hold the variable into one clique array and sums
that variable's length-2 axis out; what is left is the output factor over n's
parents, axes ascending, which one transpose puts in `dag.parents[n]` order.
`width` is the largest clique, the output factor included. A plan reads
only the graph, n, the relevant nodes and which nodes some arm leaves free,
so it is kept in a bounded cache under exactly that key and made once for
every query that shares it (the relevant nodes are found on each call, since
they depend on which rows sum to 1). `_execute` then only multiplies and
sums, on chunks of arms each sized so that one clique array holds at most
max(STATE_BUDGET, 2^width) cells. A factor is arm-free, one row broadcast
over the chunk's arms, when every arm of the chunk leaves its node free and
all the node's parents are variables; a message whose inputs are all
arm-free is arm-free too, and so summed once per chunk. Every arm's
arithmetic is the same whatever the chunking and broadcasting, so results
do not depend on them; the plan, and with it the last bits of an arm's
result, does depend on the arm set. `CapacityError` is raised, before any
array is built, on every query whose plan has one clique spanning more than
FRONTIER_LIMIT variables.

Sampling has one entry point, `sample_batch`, whose rules are stated here
only. One call draws a list of batches: under one arm, or under a (B, nodes)
matrix of arms that the draws are split over by `even_split` (count // B
each, one more for the first count % B arms), and returns them batch after
batch. The stream is exactly the one that one call per batch would take:
batch after batch, and within a batch node-major over its arm's free nodes in
topological order. All uniforms are drawn at once; variate (batch i, free node
of rank r, draw k) is u at i's start plus r x size_i + k, and a clamp takes a
sentinel instead, -1 for clamp 1 and 2 for clamp 0, which no probability
crosses. Draws are made one `CausalDag.levels` depth at a time: one product
packs the depth's parent rows, as `CausalDag.row_keys` does, and variate <
`ConditionalTable.thresholds`[row] overwrites the depth's variates.
Strategies reach it only through an `Environment`, whose `intervene_many`
also charges the experiment ledger.
"""
from __future__ import annotations

import functools
import heapq
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
    as_rng,
)

FRONTIER_LIMIT = 20
STATE_BUDGET = 1 << 16  # cells of one clique array; the arm axis is chunked to fit
BRUTE_FORCE_LIMIT = 20
PLAN_CACHE_SIZE = 512  # sweep plans kept; one is at most about 14 KB on alarm
CELL_CACHE_SIZE = 256  # cell-index tables of factors kept
GATHER_CELLS = 1 << 11  # variate positions `sample_batch` holds at once: 16 KB


# ---------------------------------------------------------------------------
# brute-force oracles (pure Python, no shortcuts)

def brute_force_target_probability(table: ConditionalTable, dag: CausalDag,
                                   arm: Intervention) -> float:
    """Enumerate every assignment of the free nodes; keep those with the last
    node equal to 1; sum the products of the free nodes' conditional values."""
    values = list(arm.values)
    n_nodes = dag.node_count
    free = [n for n in range(n_nodes) if values[n] == FREE]
    if len(free) > BRUTE_FORCE_LIMIT:
        raise CapacityError(f"{len(free)} free nodes exceeds brute-force limit {BRUTE_FORCE_LIMIT}")
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(free)):
        omega = values[:]
        for n, b in zip(free, bits):
            omega[n] = b
        if omega[n_nodes - 1] != 1:
            continue
        prod = 1.0
        for n in free:
            idx = 0
            for p in dag.parents[n]:
                idx = (idx << 1) | omega[p]
            prod *= table.rows[n][idx, omega[n]]
        total += prod
    return total


def brute_force_parent_probability(table: ConditionalTable, dag: CausalDag, n: int,
                                   pi: ParentRealization, arm: Intervention) -> float:
    """Enumerate assignments of the nodes before n that agree with the
    intervention and realize pi on n's parents; zero if n is intervened."""
    values = list(arm.values)
    if values[n] != FREE:
        return 0.0
    free = [m for m in range(n) if values[m] == FREE]
    if len(free) > BRUTE_FORCE_LIMIT:
        raise CapacityError(f"{len(free)} free nodes exceeds brute-force limit {BRUTE_FORCE_LIMIT}")
    want = dict(zip(pi.scope, pi.bits))
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(free)):
        omega = values[:]
        for m, b in zip(free, bits):
            omega[m] = b
        if any(omega[p] != want[p] for p in pi.scope):
            continue
        prod = 1.0
        for m in free:
            idx = 0
            for p in dag.parents[m]:
                idx = (idx << 1) | omega[p]
            prod *= table.rows[m][idx, omega[m]]
        total += prod
    return total


# ---------------------------------------------------------------------------
# variable elimination

def _arm_matrix(arms, dag: CausalDag, n: int | None = None) -> np.ndarray:
    """The arms as an (arms, nodes) int8 matrix, checked against the graph
    and, for a parent query, the queried node n. An `InterventionSet`'s
    matrix was checked when it was made and is read-only; other arms go
    through `arm_matrix`, one arm's values as one row."""
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
    the clique, 2 on the axes it spans and 1 elsewhere."""

    factors: tuple[tuple[int, tuple[int, ...], tuple[int | None, ...] | None], ...]
    steps: tuple[tuple[tuple[tuple[int, tuple[int, ...]], ...], int], ...]
    final: tuple[tuple[int, tuple[int, ...]], ...]
    width: int


def _plan(table: ConditionalTable, dag: CausalDag, free_any: np.ndarray, n: int) -> _Plan:
    relevant = set(dag.parents[n])
    relevant.update(np.flatnonzero(free_any[:n] & ~table.stochastic[:n]).tolist())
    work = list(relevant)
    while work:
        m = work.pop()
        if free_any[m]:
            for p in dag.parents[m]:
                if p not in relevant:
                    relevant.add(p)
                    work.append(p)
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
    live = {}                        # factor id -> scope, for the unconsumed ones
    holders: dict[int, list[int]] = {v: [] for v in variables}
    for i, (_, span, _) in enumerate(factors):
        live[i] = scope = sum(1 << v for v in span)
        for v in span:
            adj[v] |= scope
            holders[v].append(i)
    for v in variables:
        adj[v] &= ~(1 << v)

    def fill(v):  # edges that eliminating v would add between its neighbours
        nb = adj[v]
        d = nb.bit_count()
        return (d * (d - 1) - sum((adj[a] & nb).bit_count() for a in _nodes(nb))) // 2

    score = {v: fill(v) for v in variables.difference(keep)}
    heap = [(s, v) for v, s in score.items()]  # stale entries are skipped
    heapq.heapify(heap)
    steps, width = [], len(keep)
    while heap:  # greedy min-fill; the lowest node breaks a tie
        s, v = heapq.heappop(heap)
        if score.get(v) != s:
            continue
        del score[v]
        inputs = [i for i in holders.pop(v) if i in live]
        joined = 0
        for i in inputs:
            joined |= live[i]
        clique = _nodes(joined)
        width = max(width, len(clique))
        message = len(factors) + len(steps)
        steps.append((tuple((i, shape(live.pop(i), clique)) for i in inputs),
                      clique.index(v)))
        live[message] = joined & ~(1 << v)
        for u in clique:
            if u != v:
                holders[u].append(message)
        nb = adj.pop(v)
        touched = nb
        for a in _nodes(nb):
            adj[a] = (adj[a] | nb) & ~(1 << a | 1 << v)
            touched |= adj[a]
        for u in _nodes(touched):
            if u in score:
                score[u] = fill(u)
                heapq.heappush(heap, (score[u], u))
    output = sorted(keep)  # the output factor's axes
    final = tuple((i, shape(scope, output)) for i, scope in sorted(live.items()))
    return _Plan(tuple(factors), tuple(steps), final, width)


@functools.lru_cache(maxsize=CELL_CACHE_SIZE)
def _cells(width: int, sources: tuple[int | None, ...], pos: int) -> tuple[np.ndarray, np.ndarray]:
    """Two read-only tables of shape (1, 2^width), one entry per cell of a
    factor over `width` variables: the cell's place in the node's flattened
    (rows, 2) table, 2 x row + own bit, with the row counting only the
    parents that are variables (`sources` as in `_Plan`; `_factor` adds the
    bits of those read off the arm matrix); and the node's own bit, the
    variable at position `pos`."""
    cells = np.arange(1 << width)[None]

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
    """Node m's factor on one chunk of arms, shape (arms, 2^len(scope)): its
    conditional value where the arm leaves m free, else the indicator of
    the clamp. It is arm-free, shape (1, 2^len(scope)), when every arm of
    the chunk leaves m free and all m's parents are variables."""
    clamp = fixed[:, m, None]
    if sources is None:  # scope is (m,)
        return (clamp == np.arange(2)).astype(np.float64)
    flat, v = _cells(len(scope), sources, scope.index(m))
    values = table.rows[m].ravel()
    if every_free[m] and None not in sources:
        return values[flat]
    k = len(sources)
    for i, (p, j) in enumerate(zip(dag.parents[m], sources)):
        if j is None:  # p's clamp is row bit k-1-i, and flat counts the row twice
            flat = flat + (fixed[:, p, None] << (k - i))
    return np.where(clamp == FREE, values[flat], clamp == v)


def _execute(plan: _Plan, table: ConditionalTable, dag: CausalDag, arms: np.ndarray,
             n: int) -> np.ndarray:
    """Run the plan on one chunk of arms; arm-free arrays broadcast."""
    n_arms = arms.shape[0]
    fixed = arms.astype(np.int64)  # the clamps, wide enough to pack parent rows
    every_free = (arms == FREE).all(axis=0).tolist()
    made = {}

    def take(i, shape):
        f = made.pop(i) if i in made else _factor(table, dag, fixed, every_free,
                                                  *plan.factors[i])
        return f.reshape((f.shape[0],) + shape)

    next_id = len(plan.factors)
    for inputs, axis in plan.steps:
        clique = take(*inputs[0])
        for i, shape in inputs[1:]:
            clique = clique * take(i, shape)
        made[next_id] = np.add.reduce(clique, axis=1 + axis)  # one length-2 axis
        next_id += 1

    # the output factor spans n's parents in ascending order; put them in
    # `dag.parents[n]` order, the first one most significant
    keep = dag.parents[n]
    state = np.ones((n_arms,) + (1,) * len(keep))
    for i, shape in plan.final:
        state = state * take(i, shape)
    order = sorted(keep)
    return state.transpose(0, *(1 + order.index(p) for p in keep)).reshape(n_arms, -1)


def _sweep(table: ConditionalTable, dag: CausalDag, arms: np.ndarray, n: int) -> np.ndarray:
    """n's parent probabilities (module docstring), also for arms that fix n."""
    plan = _plan(table, dag, (arms == FREE).any(axis=0), n)
    chunk = max(1, STATE_BUDGET >> plan.width)
    out = np.empty((arms.shape[0], dag.row_count(n)))
    for lo in range(0, arms.shape[0], chunk):
        out[lo:lo + chunk] = _execute(plan, table, dag, arms[lo:lo + chunk], n)
    return out


# ---------------------------------------------------------------------------
# public operations

def target_probabilities(table: ConditionalTable, dag: CausalDag, arms) -> np.ndarray:
    """P(last node = 1) for each intervention, evaluated with the given table:
    the last node's parent-row mass times its chance of 1 in each row."""
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
    base, extra = divmod(count, k)
    return base + (np.arange(k) < extra)


def sample_batch(table: ConditionalTable, dag: CausalDag, arm_values, count: int,
                 rng) -> np.ndarray:
    """Draw `count` realizations, shape (count, nodes), under one arm or a
    (B, nodes) matrix of arms, by the rules in the module docstring."""
    order, column, levels = dag.levels
    # arms past the count draw nothing, so they are left out
    values = np.asarray(arm_values, dtype=np.int8).reshape(-1, dag.node_count)[:max(count, 1)]
    sizes = even_split(count, values.shape[0])
    most, free = sizes.max(), values == FREE
    rank = np.cumsum(free, axis=1)  # a free node's rank, plus one
    spans = sizes * rank[:, -1]  # the variates each batch takes
    # u: `most` sentinels of clamp 0, as many of clamp 1, then the stream; draw
    # d's variate at (its arm, node) is u[first[node, arm] + d]
    run = np.cumsum(spans) - spans + 2 * most  # each batch's first variate
    first = (np.where(free, (rank - 1) * sizes[:, None] + run[:, None], most * values)
             - (np.cumsum(sizes) - sizes)[:, None]).T[order]
    del free, rank  # each array lives only as long as it is read: the peak is the gather's
    u = np.empty(2 * most + spans.sum())
    u[:most], u[most:2 * most] = 2.0, -1.0
    as_rng(rng).random(out=u[2 * most:])
    v = np.zeros((dag.node_count + 1, count))  # (row, draw); row N stays 0
    batch, step = np.repeat(np.arange(len(sizes)), sizes), max(1, GATHER_CELLS // max(count, 1))
    for lo in range(0, dag.node_count, step):  # a block of rows at a time; every
        # position is in range, and "clip" lets `take` write into `out` in place
        u.take(first[lo:lo + step].take(batch, axis=1) + np.arange(count),
               out=v[:-1][lo:lo + step], mode="clip")
    del u, first
    for start, end, cols, weights, offsets in levels:
        if len(weights):  # the rows, then their thresholds in their place
            p = (weights @ v.take(cols, axis=0).reshape(len(weights), (end - start) * count)
                 ).reshape(end - start, count) + offsets
            table.thresholds.take(p.astype(np.intp), out=p, mode="clip")
        else:  # the roots
            p = table.thresholds[offsets]
        v[start:end] = v[start:end] < p
    return np.ascontiguousarray(v.astype(np.uint8).take(column, axis=0).T)


class Environment:
    """What a strategy is allowed to touch: apply interventions, observe
    realizations, and spend experiments; the true table stays hidden."""

    def intervene_many(self, arm, count: int) -> np.ndarray:
        """Charge `count` experiments and draw that many realizations, shape
        (count, nodes), under one arm or a (B, nodes) matrix of arms, as
        `sample_batch` does. `BudgetError` is raised before anything is
        drawn."""
        raise NotImplementedError

    @property
    def experiments_used(self) -> int:
        raise NotImplementedError


class SimulatedEnvironment(Environment):
    """Forward sampler over a known instance, with an experiment ledger."""

    def __init__(self, instance: Instance, rng, max_experiments: int | None = None):
        self._instance = instance
        self._rng = as_rng(rng)
        self._used = 0
        self._max = max_experiments

    def intervene_many(self, arm, count: int) -> np.ndarray:
        if count < 0:
            raise ParameterError("count must be nonnegative")
        if self._max is not None and self._used + count > self._max:
            raise BudgetError(
                f"experiment budget exhausted: {self._used}+{count} > {self._max}")
        self._used += count
        values = arm.values if isinstance(arm, Intervention) else arm
        return sample_batch(self._instance.table, self._instance.dag, values,
                            count, self._rng)

    @property
    def experiments_used(self) -> int:
        return self._used
