"""Exact probabilities on intervened DAGs, plus the sampling environment.

Two independent engines compute the same quantities:

* a brute-force enumerator, written directly from the defining sums, used as
  the test oracle for everything else;
* variable elimination batched over an axis of interventions: one factor per
  node, with the variables summed out one at a time in a greedy min-fill
  order, so that the largest array is set by the width of that elimination.

"Target probability" is P(last node = 1 | intervention). "Parent
probabilities" of node n form an (arms, 2^k) matrix for its k parents: entry
[a, r] is the mass of the nodes before n, under arm a, with n's parents equal
to parent row r (zero when arm a fixes n). One sweep keeps the parents to the
end and reads every row at once. The mass is taken over the whole prefix, so
sub-stochastic (partly estimated) nodes that are not ancestors of n still
scale it: each row of the matrix sums to the arm's prefix mass, and a
parentless node gets one column equal to it, not 1.

A sweep is planned once for the whole arm set, and only the plan knows the
layout. The variables are the relevant nodes free in at least one arm, the
evidence excepted. Each relevant node that some arm leaves free has a factor
over itself, unless it is evidence, and its parents that are variables: per
arm, its conditional values where the arm leaves it free and the indicator of
its clamp where the arm fixes it. A parent that is no variable, being fixed in
every arm or evidence, is a per-arm constant read off the `fixed` matrix, and
evidence fixed in every arm keeps only its indicator. The plan eliminates
every variable but the kept ones in greedy min-fill order (fewest added edges
first, the lowest node on a tie). Each step multiplies the factors that hold
the variable into one clique array and sums that variable's length-2 axis
out; what is left is the kept variables' output factor. `width` is the
largest clique, the output factor included. `_execute` then only multiplies
and sums, on chunks of arms each sized so that one clique array holds at most
max(STATE_BUDGET, 2^width) cells. Every arm's arithmetic is the same whatever
the chunking, so results do not depend on it; the plan, and with it the last
bits of an arm's result, does depend on the arm set. `CapacityError` is
raised, before any array is built, only when one clique would span more than
FRONTIER_LIMIT variables.

Sampling has one entry point, `sample_batch`. It reads each node's parent row
off `CausalDag.row_keys`, the packing that `phase1.fold_counts` counts with.
One call draws a whole list of batches: under one arm, or under a (B, nodes)
matrix of arms that the draws are split over by `even_split` (count // B each,
one more for the first count % B arms). The random stream is exactly the one
that one call per batch would take: batch after batch, and within a batch
node-major over its arm's free nodes. All uniforms are drawn at once, and
variate (batch i, free node of rank r, draw k) is read at i's start plus
r x size_i + k. Strategies reach it only through an `Environment`, whose
`intervene_many` also charges the experiment ledger.
"""
from __future__ import annotations

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
    as_rng,
)

FRONTIER_LIMIT = 20
STATE_BUDGET = 1 << 16  # cells of one clique array; the arm axis is chunked to fit
BRUTE_FORCE_LIMIT = 20


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
    and, for a parent query, the queried node n."""
    if isinstance(arms, InterventionSet):
        m = arms.matrix
    elif isinstance(arms, Intervention):
        m = np.asarray([arms.values])
    else:
        m = np.asarray(arms)
        m = m[None, :] if m.ndim == 1 else m
    if m.ndim != 2 or m.shape[1] != dag.node_count:
        raise ParameterError("intervention length does not match the graph")
    if not np.isin(m, (FREE, 0, 1)).all():
        raise ParameterError("intervention entries must be in {*, 0, 1}")
    if n is not None and not 0 <= n < dag.node_count:
        raise ParameterError(f"node {n} is not in the graph")
    return m.astype(np.int8, copy=False)


class _Plan(NamedTuple):
    """A sweep's schedule for the whole arm set (see the module docstring).

    `factors` holds one (node, scope, sources) entry per factor: the
    variables it spans, ascending, and each parent's position among them, or
    None when the bit is read off `fixed` (sources is None for evidence fixed
    in every arm, whose factor is its indicator). `steps` holds one (inputs,
    axis) entry per eliminated variable, whose message takes the next factor
    id; `final` the inputs of the output factor. Each input is a factor id
    with its shape inside the clique: 2 on the axes it spans, 1 elsewhere.
    `kept` gives each kept node's bit shift in the output, or None when it
    is read off `fixed`."""

    factors: tuple[tuple[int, tuple[int, ...], tuple[int | None, ...] | None], ...]
    steps: tuple[tuple[tuple[tuple[int, tuple[int, ...]], ...], int], ...]
    final: tuple[tuple[int, tuple[int, ...]], ...]
    kept: tuple[int | None, ...]
    width: int


def _fill(adj: dict[int, set[int]], v: int) -> int:
    """Edges that eliminating v would add between its neighbours."""
    nb = adj[v]
    return (len(nb) * (len(nb) - 1) - sum(len(adj[a] & nb) for a in nb)) // 2


def _plan(table: ConditionalTable, dag: CausalDag, free_any: np.ndarray,
          evidence: dict[int, int], prefix: int, keep: tuple[int, ...]) -> _Plan:
    """Only nodes that can influence the answer are processed: the evidence,
    the kept nodes, any node whose rows do not sum to 1 (sub-stochastic
    estimates must contribute their mass), and, transitively, parents of
    processed nodes that are free in at least one arm. Everything else
    marginalizes to exactly 1 and is skipped."""
    relevant = set(evidence) | set(keep)
    relevant.update(np.flatnonzero(free_any[:prefix] & ~table.stochastic[:prefix]).tolist())
    work = list(relevant)
    while work:
        m = work.pop()
        if free_any[m]:
            for p in dag.parents[m]:
                if p not in relevant:
                    relevant.add(p)
                    work.append(p)

    # the variables: relevant nodes free in some arm, evidence excepted
    variables = {m for m in relevant if free_any[m] and m not in evidence}
    factors = []
    for m in sorted(relevant):
        if free_any[m]:
            scope = tuple(sorted({p for p in dag.parents[m] if p in variables}
                                 | ({m} & variables)))
            sources = tuple(scope.index(p) if p in variables else None
                            for p in dag.parents[m])
        elif m in evidence:  # fixed in every arm: only its indicator is left
            scope, sources = (), None
        else:
            continue
        factors.append((m, scope, sources))

    def shape(scope, clique):
        return tuple(2 if u in scope else 1 for u in clique)

    adj: dict[int, set[int]] = {v: set() for v in variables}
    live = {}                        # factor id -> scope, for the unconsumed ones
    holders: dict[int, list[int]] = {v: [] for v in variables}
    for i, (_, scope, _) in enumerate(factors):
        live[i] = scope
        for v in scope:
            adj[v].update(scope)
            holders[v].append(i)
    for v in variables:
        adj[v].discard(v)

    kept_vars = sorted(variables.intersection(keep))
    score = {v: _fill(adj, v) for v in variables.difference(keep)}
    heap = [(s, v) for v, s in score.items()]  # stale entries are skipped
    heapq.heapify(heap)
    steps, width = [], len(kept_vars)
    while heap:  # greedy min-fill; the lowest node breaks a tie
        s, v = heapq.heappop(heap)
        if score.get(v) != s:
            continue
        del score[v]
        inputs = [i for i in holders.pop(v) if i in live]
        clique = tuple(sorted(set().union(*(live[i] for i in inputs))))
        width = max(width, len(clique))
        message = len(factors) + len(steps)
        steps.append((tuple((i, shape(live.pop(i), clique)) for i in inputs),
                      clique.index(v)))
        live[message] = tuple(u for u in clique if u != v)
        for u in live[message]:
            holders[u].append(message)
        nb = adj.pop(v)
        for a in nb:
            adj[a].discard(v)
            adj[a].update(nb - {a})
        touched = nb.union(*(adj[a] for a in nb))
        for u in touched.intersection(score):
            score[u] = _fill(adj, u)
            heapq.heappush(heap, (score[u], u))
    if width > FRONTIER_LIMIT:
        raise CapacityError(f"largest clique {width} exceeds limit {FRONTIER_LIMIT}")
    final = tuple((i, shape(scope, kept_vars)) for i, scope in sorted(live.items()))
    kept = tuple(len(kept_vars) - 1 - kept_vars.index(m) if m in variables else None
                 for m in keep)
    return _Plan(tuple(factors), tuple(steps), final, kept, width)


def _factor(table: ConditionalTable, dag: CausalDag, arms: np.ndarray, fixed: np.ndarray,
            evidence: dict[int, int], m: int, scope: tuple[int, ...],
            sources: tuple[int | None, ...] | None) -> np.ndarray:
    """Node m's factor on one chunk of arms, shape (arms, 2^len(scope)): its
    conditional value where the arm leaves m free, else the indicator of
    the clamp."""
    clamp = arms[:, m, None]
    if sources is None:
        return (clamp == evidence[m]).astype(np.float64)
    cells = np.arange(1 << len(scope))

    def bit(j):
        return (cells >> (len(scope) - 1 - j)) & 1

    idx = 0
    for p, j in zip(dag.parents[m], sources):
        idx = (idx << 1) + (fixed[:, p, None] if j is None else bit(j))
    v = evidence[m] if m in evidence else bit(scope.index(m))
    return np.where(clamp == FREE, table.rows[m][idx, v], clamp == v)


def _execute(plan: _Plan, table: ConditionalTable, dag: CausalDag, arms: np.ndarray,
             evidence: dict[int, int], keep: tuple[int, ...]) -> np.ndarray:
    """Run the plan on one chunk of arms; see `_sweep` for the result."""
    n_arms = arms.shape[0]
    fixed = arms.astype(np.int64)  # the bits of nodes that are no variable: clamps, evidence
    fixed[:, list(evidence)] = list(evidence.values())
    made = {}

    def take(i, shape):
        f = made.pop(i) if i in made else _factor(table, dag, arms, fixed, evidence,
                                                  *plan.factors[i])
        return f.reshape((n_arms,) + shape)

    next_id = len(plan.factors)
    for inputs, axis in plan.steps:
        clique = take(*inputs[0])
        for i, shape in inputs[1:]:
            clique = clique * take(i, shape)
        made[next_id] = clique.sum(axis=1 + axis)  # one length-2 axis
        next_id += 1

    # the output factor spans the kept variables; the other kept nodes are fixed
    k = sum(j is not None for j in plan.kept)
    state = np.ones((n_arms,) + (1,) * k)
    for i, shape in plan.final:
        state = state * take(i, shape)
    state = state.reshape(n_arms, -1)
    row = np.arange(1 << len(keep))
    col = np.zeros(1 << len(keep), dtype=np.int64)
    hit = np.ones((n_arms, 1 << len(keep)), dtype=bool)
    for i, (p, j) in enumerate(zip(keep, plan.kept)):
        bit = (row >> (len(keep) - 1 - i)) & 1
        if j is None:
            hit &= fixed[:, p, None] == bit
        else:
            col |= bit << j
    return np.where(hit, state[:, col], 0.0)


def _sweep(table: ConditionalTable, dag: CausalDag, arms: np.ndarray,
           evidence: dict[int, int], prefix: int, keep=()) -> np.ndarray:
    """Joint mass, per arm, of the evidence bits over the first `prefix` nodes,
    where each arm's free nodes contribute their conditional factors and its
    fixed nodes act as constants, split by the bits of the `keep` nodes.

    Returns shape (arms, 2^len(keep)); column r holds the mass with the kept
    nodes equal to r's binary digits, the first kept node most significant.
    The plan is made once for the whole arm set and then run on chunks of
    arms sized so one clique array holds at most max(STATE_BUDGET,
    2^width) cells; each arm's arithmetic does not depend on the chunking.
    """
    keep = tuple(keep)
    plan = _plan(table, dag, (arms == FREE).any(axis=0), evidence, prefix, keep)
    chunk = max(1, STATE_BUDGET >> plan.width)
    out = np.empty((arms.shape[0], 1 << len(keep)))
    for lo in range(0, arms.shape[0], chunk):
        out[lo:lo + chunk] = _execute(plan, table, dag, arms[lo:lo + chunk], evidence, keep)
    return out


# ---------------------------------------------------------------------------
# public operations

def target_probabilities(table: ConditionalTable, dag: CausalDag, arms) -> np.ndarray:
    """P(last node = 1) for each intervention, evaluated with the given table."""
    m = _arm_matrix(arms, dag)
    return _sweep(table, dag, m, {dag.node_count - 1: 1}, dag.node_count)[:, 0]


def target_probability(table: ConditionalTable, dag: CausalDag, arm: Intervention) -> float:
    return float(target_probabilities(table, dag, arm)[0])


def parent_probabilities(table: ConditionalTable, dag: CausalDag, n: int,
                         arms) -> np.ndarray:
    """Chance that n's parents realize each parent row, per intervention: shape
    (arms, 2^k) for k parents, column r for `ParentRealization.from_index(
    dag.parents[n], r)`; rows are zero where n is fixed."""
    m = _arm_matrix(arms, dag, n)
    out = _sweep(table, dag, m, {}, n, dag.parents[n])
    return np.where((m[:, n] == FREE)[:, None], out, 0.0)


# ---------------------------------------------------------------------------
# sampling

def even_split(count: int, k: int) -> np.ndarray:
    """`count` split over k parts as evenly as it goes, the remainder one
    each to the first parts."""
    base, extra = divmod(count, k)
    return base + (np.arange(k) < extra)


def sample_batch(table: ConditionalTable, dag: CausalDag, arm_values, count: int,
                 rng) -> np.ndarray:
    """Draw `count` realizations, shape (count, nodes), under one arm or a
    (B, nodes) matrix of arms split by `even_split`: batch after batch, each
    drawn in topological order and taking its uniforms node-major over its
    arm's free nodes, so one call reads the stream that one call per batch
    would."""
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
    keys = dag.row_keys.astype(np.float64)  # exact, and the products run in BLAS
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


class Environment:
    """What a strategy is allowed to touch: apply interventions, observe
    realizations, and spend experiments; the true table stays hidden."""

    def intervene_many(self, arm, count: int) -> np.ndarray:
        """Charge `count` experiments and draw that many realizations, shape
        (count, nodes). `arm` is one arm or a (B, nodes) matrix of arms; the
        draws are split over them by `even_split`, the first `count % B` arms
        one draw more, and come back batch after batch. The batches take the
        random stream in that order, so one call equals one call per arm with
        its share. `BudgetError` is raised before anything is drawn."""
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
