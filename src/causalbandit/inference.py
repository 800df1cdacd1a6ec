"""Exact probabilities on intervened DAGs, plus the sampling environment.

Two independent engines compute the same quantities:

* a brute-force enumerator, written directly from the defining sums, used as
  the test oracle for everything else;
* a frontier sweep that walks nodes in topological order keeping a joint
  distribution only over nodes whose children are still pending, batched over
  an axis of interventions.

"Target probability" is P(last node = 1 | intervention). "Parent
probabilities" of node n form an (arms, 2^k) matrix for its k parents: entry
[a, r] is the mass of the nodes before n, under arm a, with n's parents equal
to parent row r (zero when arm a fixes n). One sweep keeps the parents on the
frontier to the end and reads every row at once. The mass is taken over the
whole prefix, so sub-stochastic (partly estimated) nodes that are not
ancestors of n still scale it: each row of the matrix sums to the arm's prefix
mass, and a parentless node gets one column equal to it, not 1.

A sweep is planned once for the whole arm set, and only the plan knows the
frontier layout. It holds, for each step, the node, the source of each
parent's bit (a frontier position, or None for a per-arm constant; None for
all the parents of a node fixed in every arm) and the positions summed out
after it; where each kept node is read at the end; and the widest frontier.
`_execute` then only multiplies, splits and sums, on chunks of arms each sized
so that one state array holds at most max(STATE_BUDGET, 2^width) cells. Every
arm's arithmetic is the same whatever the chunking, so results do not depend
on it. `CapacityError` is raised, before any state is built, only when the
frontier of a single arm would be wider than FRONTIER_LIMIT.

Sampling has one entry point, `sample_batch`. It reads each node's parent row
off `CausalDag.row_keys`, the packing that `phase1.fold_counts` counts with.
Strategies reach it only through an `Environment`, whose `intervene_many` also
charges the experiment ledger.
"""
from __future__ import annotations

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
STATE_BUDGET = 1 << 16  # cells of one state array; the arm axis is chunked to fit
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
# frontier sweep

def _arm_matrix(arms) -> np.ndarray:
    if isinstance(arms, InterventionSet):
        return arms.matrix
    if isinstance(arms, Intervention):
        return np.asarray([arms.values], dtype=np.int8)
    m = np.asarray(arms, dtype=np.int8)
    return m[None, :] if m.ndim == 1 else m


class _Plan(NamedTuple):
    """A sweep's schedule for the whole arm set (see the module docstring).
    Each retire entry is a position as it stands when that bit is summed out."""

    order: tuple[int, ...]
    sources: tuple[tuple[int | None, ...] | None, ...]
    retire: tuple[tuple[int, ...], ...]
    kept: tuple[int | None, ...]
    width: int


def _plan(table: ConditionalTable, dag: CausalDag, free_any: np.ndarray,
          evidence: dict[int, int], prefix: int, keep: tuple[int, ...]) -> _Plan:
    """Only nodes that can influence the answer are processed: the evidence,
    the kept nodes, any node whose rows do not sum to 1 (sub-stochastic
    estimates must contribute their mass), and, transitively, parents of
    processed nodes that are free in at least one arm. Everything else
    marginalizes to exactly 1 and is skipped."""
    relevant = set(evidence) | set(keep)
    for m in range(prefix):
        if free_any[m] and not table.node_is_stochastic(m):
            relevant.add(m)
    work = list(relevant)
    while work:
        m = work.pop()
        if free_any[m]:
            for p in dag.parents[m]:
                if p not in relevant:
                    relevant.add(p)
                    work.append(p)

    order: list[int] = []
    visited = set()

    def visit(m):
        visited.add(m)
        for p in dag.parents[m]:
            if p in relevant and p not in visited:
                visit(p)
        order.append(m)

    for m in sorted(relevant, reverse=True):
        if m not in visited:
            visit(m)

    last_read = {m: i for i, m in enumerate(order)}
    for i, m in enumerate(order):
        if free_any[m]:
            for p in dag.parents[m]:
                last_read[p] = max(last_read[p], i)
    for m in keep:
        last_read[m] = len(order)

    def source(p):
        return frontier.index(p) if p in frontier else None

    frontier: list[int] = []           # frontier[j] owns state bit weight 2^j
    sources, retire, width = [], [], 0
    for step, m in enumerate(order):
        sources.append(tuple(map(source, dag.parents[m])) if free_any[m] else None)
        if free_any[m] and m not in evidence:
            frontier.append(m)
            width = max(width, len(frontier))
        gone = [j for j, f in enumerate(frontier) if last_read[f] <= step]
        frontier = [f for f in frontier if last_read[f] > step]
        retire.append(tuple(j - i for i, j in enumerate(gone)))  # shifted by earlier sum-outs
    if width > FRONTIER_LIMIT:
        raise CapacityError(f"frontier width {width} exceeds limit {FRONTIER_LIMIT}")
    return _Plan(tuple(order), tuple(sources), tuple(retire), tuple(map(source, keep)), width)


def _execute(plan: _Plan, table: ConditionalTable, dag: CausalDag, arms: np.ndarray,
             evidence: dict[int, int], keep: tuple[int, ...]) -> np.ndarray:
    """Run the plan on one chunk of arms; see `_sweep` for the result."""
    n_arms = arms.shape[0]
    fixed = arms.astype(np.int64)  # the bits off the frontier: clamps, then evidence
    fixed[:, list(evidence)] = list(evidence.values())
    state = np.ones((n_arms, 1))
    for m, sources, gone in zip(plan.order, plan.sources, plan.retire):
        clamp = arms[:, m, None]
        if sources is None:  # fixed in every arm: evidence just filters
            if m in evidence:
                state = state * (clamp == evidence[m]).astype(np.float64)
        else:
            cells = np.arange(state.shape[1])
            idx = 0
            for p, j in zip(dag.parents[m], sources):
                idx = (idx << 1) + (fixed[:, p, None] if j is None else (cells >> j) & 1)
            rows = table.rows[m]
            fm = clamp == FREE
            if m in evidence:
                v = evidence[m]
                state = state * np.where(fm, rows[idx, v], clamp == v)
            else:  # one weight array alive at a time keeps the widest step's peak down
                state = np.concatenate([state * np.where(fm, rows[idx, v], clamp == v)
                                        for v in (0, 1)], axis=1)
        for j in gone:
            state = state.reshape(n_arms, -1, 2, 1 << j).sum(axis=2).reshape(n_arms, -1)

    # only the kept nodes are left: on the frontier, or read off `fixed`
    k = len(keep)
    row = np.arange(1 << k)
    col = np.zeros(1 << k, dtype=np.int64)
    hit = np.ones((n_arms, 1 << k), dtype=bool)
    for i, (p, j) in enumerate(zip(keep, plan.kept)):
        bit = (row >> (k - 1 - i)) & 1
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
    arms sized so one state array holds at most max(STATE_BUDGET,
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
    m = _arm_matrix(arms)
    if m.shape[1] != dag.node_count:
        raise ParameterError("intervention length does not match the graph")
    return _sweep(table, dag, m, {dag.node_count - 1: 1}, dag.node_count)[:, 0]


def target_probability(table: ConditionalTable, dag: CausalDag, arm: Intervention) -> float:
    return float(target_probabilities(table, dag, arm)[0])


def parent_probabilities(table: ConditionalTable, dag: CausalDag, n: int,
                         arms) -> np.ndarray:
    """Chance that n's parents realize each parent row, per intervention: shape
    (arms, 2^k) for k parents, column r for `ParentRealization.from_index(
    dag.parents[n], r)`; rows are zero where n is fixed."""
    m = _arm_matrix(arms)
    out = _sweep(table, dag, m, {}, n, dag.parents[n])
    return np.where((m[:, n] == FREE)[:, None], out, 0.0)


# ---------------------------------------------------------------------------
# sampling

def sample_batch(table: ConditionalTable, dag: CausalDag, arm_values, count: int,
                 rng) -> np.ndarray:
    """Draw `count` realizations under one intervention, topological order."""
    rng = as_rng(rng)
    values = np.asarray(arm_values, dtype=np.int8)
    keys = dag.row_keys.astype(np.float64)  # exact, and the products run in BLAS
    out = np.empty((dag.node_count, count))  # node-major while drawing
    for n in range(dag.node_count):
        if values[n] != FREE:
            out[n] = values[n]
        else:
            idx = (keys[:n, n] @ out[:n]).astype(np.int64)  # parents precede n
            out[n] = rng.random(count) < table.rows[n][idx, 1]
    return out.T.astype(np.uint8, order="C")


class Environment:
    """What a strategy is allowed to touch: apply interventions, observe
    realizations, and spend experiments; the true table stays hidden."""

    def intervene_many(self, arm, count: int) -> np.ndarray:
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
