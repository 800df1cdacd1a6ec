"""Binary causal DAGs, conditional tables, hard interventions, and instance builders.

Node indices are topological: every parent index is strictly smaller than its
child's index, and the last node is the reward node. A parent realization over
a sorted scope is packed into a row index with the lowest-numbered node as the
most significant bit, so ascending row index enumerates realizations in
lexicographic bit order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ParameterError

FREE = -1  # "not intervened" entry of an intervention vector
# Most (arm, node) cells an enumerated arm set may hold, counted before any row
# is built: a 100 MB int8 matrix, so tree-h6 at budget 4 (635,376 arms x 127
# nodes) still builds. A graph with more nodes than this has no room for one arm.
# Phase 1's float64 (arm, table row) reach cells are held to it too.
ARM_CELL_LIMIT = 10**8


def as_rng(seed_or_rng) -> np.random.Generator:
    """Accept either an integer seed or an already-built generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass(frozen=True)
class CausalDag:
    """Directed acyclic graph over binary nodes, stored as per-node parent tuples."""

    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(int(p) for p in ps) for ps in self.parents)
        object.__setattr__(self, "parents", norm)

    @property
    def node_count(self) -> int:
        return len(self.parents)

    def row_count(self, n: int) -> int:
        """Number of parent realizations of node n."""
        return 1 << len(self.parents[n])

    @cached_property
    def row_keys(self) -> np.ndarray:
        """(N, N) int64 packing matrix: column n holds the bit weights of n's
        parents, the first most significant, so `omega @ row_keys` gives every
        node's parent row per draw."""
        keys = np.zeros((self.node_count, self.node_count), dtype=np.int64)
        for n, ps in enumerate(self.parents):
            keys[list(ps), n] = 1 << np.arange(len(ps) - 1, -1, -1)
        return keys

    @cached_property
    def row_offsets(self) -> np.ndarray:
        """N + 1 starts of each node's block in the flat (total rows, 2) count space."""
        return np.cumsum([0] + [self.row_count(n) for n in range(self.node_count)])

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """`inference.sample_batch`'s plan: row c of its draws is node order[c],
        by depth (a root 0, else one more than its deepest parent), `column`
        the inverse, and row N zeros. Per depth: its rows [start, end), its
        nodes' parent rows front-padded with row N, slot-major, the slots' bit
        weights and the nodes' row offsets."""
        depth, n_nodes = [], self.node_count
        for ps in self.parents:
            depth.append(1 + max((depth[p] for p in ps), default=-1))
        order = sorted(range(n_nodes), key=depth.__getitem__)
        column = np.empty(n_nodes + 1, dtype=np.intp)
        column[order + [n_nodes]] = np.arange(n_nodes + 1)
        steps = []
        for _, group in itertools.groupby(order, depth.__getitem__):
            nodes = list(group)
            k = max(len(self.parents[n]) for n in nodes)
            pad = [(n_nodes,) * (k - len(self.parents[n])) + self.parents[n] for n in nodes]
            start = column[nodes[0]]
            steps.append((start, start + len(nodes), column[np.array(pad, dtype=np.intp).T.ravel()],
                          (1 << np.arange(k - 1, -1, -1)).astype(float),
                          self.row_offsets[nodes][:, None]))
        return np.array(order), column[:-1], tuple(steps)

    @property
    def total_rows(self) -> int:
        """Conditional-table rows summed over every node."""
        return int(self.row_offsets[-1])

    def split_rows(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-node views of an array laid out in the flat count space."""
        bounds = self.row_offsets.tolist()
        return tuple(flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))

    @cached_property
    def roots(self) -> tuple[int, ...]:
        return tuple(n for n, ps in enumerate(self.parents) if not ps)


@dataclass(frozen=True)
class ParentRealization:
    """Bit assignment over a sorted node scope (a parent set)."""

    scope: tuple[int, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(int(s) for s in self.scope))
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if len(self.scope) != len(self.bits):
            raise ParameterError("scope and bits must have equal length")
        if any(b not in (0, 1) for b in self.bits):
            raise ParameterError("bits must be 0/1")

    @classmethod
    def from_index(cls, scope, index: int) -> "ParentRealization":
        scope = tuple(scope)
        k = len(scope)
        bits = tuple((index >> (k - 1 - j)) & 1 for j in range(k))
        return cls(scope, bits)

    @property
    def index(self) -> int:
        idx = 0
        for b in self.bits:
            idx = (idx << 1) | b
        return idx


def _frozen_rows(rows) -> np.ndarray:
    arr = np.array(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError("each table must have shape (2^k, 2)")
    arr.flags.writeable = False
    return arr


def _sums_to_one(rows: np.ndarray) -> np.ndarray:
    return np.abs(rows.sum(axis=1) - 1.0) <= 1e-9


@dataclass(frozen=True)
class ConditionalTable:
    """Per-node conditional probabilities: rows[n][i, v] = P(node n = v | parents = i).

    Estimated tables may be sub-stochastic (a row pair may sum to less than 1);
    true tables always have complementary pairs.
    """

    rows: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(_frozen_rows(r) for r in self.rows))

    def with_nodes(self, nodes, rows) -> "ConditionalTable":
        """This table with the rows of `nodes` replaced by a read-only copy of
        `rows`, theirs stacked in that order. The other nodes' read-only
        arrays are shared, and `stochastic` is checked again at `nodes` alone."""
        frozen = _frozen_rows(rows)
        ok = _sums_to_one(frozen)
        new, stochastic, at = list(self.rows), self.stochastic.copy(), 0
        for n in nodes:
            end = at + len(new[n])
            new[n], stochastic[n], at = frozen[at:end], ok[at:end].all(), end
        table = object.__new__(type(self))
        object.__setattr__(table, "rows", tuple(new))
        table.__dict__["stochastic"] = stochastic
        return table

    @classmethod
    def from_success_probs(cls, success) -> "ConditionalTable":
        """Build from per-node vectors of P(node = 1 | parents = row)."""
        rows = []
        for p1 in success:
            p1 = np.asarray(p1, dtype=np.float64)
            rows.append(np.stack([1.0 - p1, p1], axis=1))
        return cls(tuple(rows))

    @cached_property
    def stochastic(self) -> np.ndarray:
        """Per node, whether every row sums to 1 within 1e-9."""
        ok = _sums_to_one(np.concatenate(self.rows))
        return np.logical_and.reduceat(ok, np.cumsum([0] + [len(r) for r in self.rows[:-1]]))

    @cached_property
    def thresholds(self) -> np.ndarray:
        """P(node = 1 | parent row) of every row, laid out as `CausalDag.row_offsets`."""
        return np.concatenate([r[:, 1] for r in self.rows])


def arm_matrix(values) -> np.ndarray:
    """Raw arm values, one arm per row, as a new int8 matrix. Each entry is
    compared with FREE, 0 and 1 before the cast, so 255, 257 or 0.5 is
    refused, not wrapped or truncated into a valid entry."""
    m = np.asarray(values)
    if m.ndim != 2:
        raise ParameterError("intervention matrix must be 2-d")
    ok = m == FREE  # three compares in place: a peak of two bool matrices
    ok |= m == 0
    ok |= m == 1
    if not ok.all():
        raise ParameterError("intervention entries must be in {*, 0, 1}")
    return m.astype(np.int8)


@dataclass(frozen=True)
class Intervention:
    """Hard intervention: per-node entry in {FREE, 0, 1}."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(arm_matrix([self.values])[0].tolist()))

    @classmethod
    def from_string(cls, text: str) -> "Intervention":
        if set(text) - set("01*"):
            raise ParameterError(f"arm {text!r}: characters must be 0, 1, or *")
        return cls(tuple(FREE if ch == "*" else int(ch) for ch in text))

    def __str__(self):
        return "".join("*" if v == FREE else str(v) for v in self.values)

    def __len__(self):
        return len(self.values)

    @property
    def fixed_count(self) -> int:
        return sum(1 for v in self.values if v != FREE)

    @property
    def free_nodes(self) -> tuple[int, ...]:
        return tuple(n for n, v in enumerate(self.values) if v == FREE)


class InterventionSet:
    """Ordered collection of interventions, stored as an (arms, nodes) int8 matrix."""

    def __init__(self, matrix):
        self.matrix = arm_matrix(matrix)
        self.matrix.flags.writeable = False

    @classmethod
    def from_interventions(cls, arms) -> "InterventionSet":
        return cls([a.values for a in arms])

    def __len__(self):
        return self.matrix.shape[0]

    @property
    def node_count(self) -> int:
        return self.matrix.shape[1]

    def __getitem__(self, i: int) -> Intervention:
        return Intervention(self.matrix[i])

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    @cached_property
    def ever_free(self) -> np.ndarray:
        """Per node: is it left free by at least one intervention."""
        return np.any(self.matrix == FREE, axis=0)

    @cached_property
    def uncertain_nodes(self) -> tuple[int, ...]:
        """Nodes left free by at least one arm; only their rows ever need estimating."""
        return tuple(int(n) for n in np.flatnonzero(self.ever_free))


@dataclass(frozen=True)
class Instance:
    """A bandit instance: graph, true conditional table, and the arm set."""

    dag: CausalDag
    table: ConditionalTable
    arms: InterventionSet

    @property
    def uncertain_nodes(self) -> tuple[int, ...]:
        return self.arms.uncertain_nodes

    @property
    def uncertain_rows(self) -> int:
        """The budget unit C; see `uncertain_rows`."""
        return uncertain_rows(self.dag, self.arms)

    @cached_property
    def rewards(self) -> np.ndarray:
        """Every arm's exact P(reward = 1) on the true table, from one sweep
        over the arm set, computed on first use and kept."""
        from .inference import target_probabilities  # inference imports this module
        rewards = target_probabilities(self.table, self.dag, self.arms)
        rewards.flags.writeable = False  # shared by every strategy scored on it
        return rewards


def uncertain_rows(dag: CausalDag, arms: InterventionSet) -> int:
    """The budget unit C, in which horizons and the per-pair batch are set:
    conditional rows of the arms' `uncertain_nodes`."""
    return sum(dag.row_count(n) for n in arms.uncertain_nodes)


@dataclass
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


def validate(dag: CausalDag, table: ConditionalTable | None = None,
             arms: InterventionSet | None = None) -> ValidationReport:
    """Check structural invariants, listing every violation instead of raising."""
    bad = []
    n_nodes = dag.node_count
    if n_nodes < 3:
        bad.append(f"node count {n_nodes} < 3")
    for n, ps in enumerate(dag.parents):
        if any(p >= n for p in ps):
            bad.append(f"node {n}: topological order violated by parent list {ps}")
        if any(p < 0 for p in ps):
            bad.append(f"node {n}: negative parent index")
        if len(set(ps)) != len(ps):
            bad.append(f"node {n}: duplicate parent in {ps}")
    if table is not None:
        if len(table.rows) != n_nodes:
            bad.append(f"table covers {len(table.rows)} nodes, graph has {n_nodes}")
        for n, r in enumerate(table.rows[:n_nodes]):
            if r.shape[0] != dag.row_count(n):
                bad.append(f"node {n}: table has {r.shape[0]} rows, expected {dag.row_count(n)}")
                continue
            if np.any(r < -1e-12) or np.any(r > 1 + 1e-12):
                bad.append(f"node {n}: probabilities outside [0, 1]")
            sums = r.sum(axis=1)
            off = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
            for i in off:
                bad.append(f"node {n} row {i}: complement sum != 1 ({sums[i]:.6g})")
    if arms is not None:
        if len(arms) == 0:
            bad.append("intervention set is empty")
        if arms.node_count != n_nodes:
            bad.append(f"interventions have length {arms.node_count}, graph has {n_nodes}")
    return ValidationReport(bad)


def random_conditional_table(dag: CausalDag, rng_seed) -> ConditionalTable:
    """Uniform random table: each row's success probability is an independent U[0,1]."""
    rng = as_rng(rng_seed)
    return ConditionalTable.from_success_probs(
        [rng.random(dag.row_count(n)) for n in range(dag.node_count)]
    )


def make_binary_tree_dag(height: int, budgets=()) -> CausalDag:
    """Complete binary tree with edges oriented toward the root.

    Nodes are numbered level by level, leaves first, so the root is the last
    node and, for L leaves, node L + j has the subtree children 2j and 2j + 1
    as parents.
    Before anything is built, a tree is refused when its nodes, or the
    exact-budget leaf arms of every budget given in [1, leaves], exceed
    `ARM_CELL_LIMIT`, and with `ParameterError` when budgets are given but
    none is in that range.
    """
    if height < 1:
        raise ParameterError("height must be >= 1")
    nodes = (2 << min(height, 64)) - 1  # the cap only keeps the shift small
    if nodes > ARM_CELL_LIMIT:
        raise CapacityError(f"a tree of height {height} has 2^{height + 1} - 1 nodes, "
                            f"more than the arm cell limit {ARM_CELL_LIMIT}")
    leaves = 1 << height
    fits = [b for b in budgets if 1 <= b <= leaves]
    if budgets and not fits:
        raise ParameterError(f"budget {budgets[0]} not in [1, {leaves}]")
    if fits:  # C(leaves, b) rises with min(b, leaves - b), so check the least
        b = min(fits, key=lambda b: min(b, leaves - b))
        if min(b, leaves - b) > 64:  # at least C(130, 65) > 10^37 arms, too slow to count
            raise CapacityError(f"C({leaves}, {b}) arms exceed the arm cell limit "
                                f"{ARM_CELL_LIMIT}")
        check_arm_cells(math.comb(leaves, b), nodes)
    return CausalDag(tuple(() if i < leaves else (2 * (i - leaves), 2 * (i - leaves) + 1)
                           for i in range(nodes)))


def check_arm_cells(arm_count: int, width: int, what: str = "nodes") -> None:
    if arm_count * width > ARM_CELL_LIMIT:
        raise CapacityError(f"{arm_count} arms x {width} {what} = {arm_count * width} "
                            f"cells exceeds the arm cell limit {ARM_CELL_LIMIT}")


def _subset_arms(n_nodes: int, target_nodes, budget: int, smallest: int,
                 others: int) -> InterventionSet:
    """One arm per subset of the targets of each size from `smallest` to
    `budget`, lexicographic within a size: chosen targets 1, other targets
    `others`, the rest free; counted, then written into one int8 matrix."""
    targets = sorted(int(t) for t in target_nodes)
    if budget < 1 or budget > len(targets):
        raise ParameterError(f"budget {budget} not in [1, {len(targets)}]")
    sizes = range(smallest, budget + 1)
    count = sum(math.comb(len(targets), k) for k in sizes)
    check_arm_cells(count, n_nodes)
    matrix = np.full((count, n_nodes), FREE, dtype=np.int8)
    matrix[:, targets] = others
    chosen = itertools.chain.from_iterable(itertools.combinations(targets, k) for k in sizes)
    for row, subset in zip(matrix, chosen):
        row[list(subset)] = 1
    matrix.flags.writeable = False
    arms = object.__new__(InterventionSet)  # valid by construction, so neither checked nor copied
    arms.matrix = matrix
    return arms


def enumerate_budget_interventions(n_nodes: int, target_nodes, budget: int) -> InterventionSet:
    """One arm per size-budget subset of targets: chosen targets 1, other targets 0, rest free.

    Subsets are emitted in lexicographic order of the chosen node tuples.
    """
    return _subset_arms(n_nodes, target_nodes, budget, budget, 0)


def enumerate_root_interventions(n_nodes: int, target_nodes, budget: int) -> InterventionSet:
    """One arm per nonempty subset of targets with size <= budget: chosen 1, rest free.

    Ordered by subset size, lexicographic within each size.
    """
    return _subset_arms(n_nodes, target_nodes, budget, 1, FREE)


def make_binary_tree_instance(height: int, budget: int, rng_seed) -> Instance:
    """Synthetic benchmark: tree DAG, random table, exact-budget leaf interventions."""
    dag = make_binary_tree_dag(height, (budget,))
    leaves = list(range(1 << height))
    arms = enumerate_budget_interventions(dag.node_count, leaves, budget)
    table = random_conditional_table(dag, rng_seed)
    return Instance(dag, table, arms)


def soft_to_hard_reduction(dag: CausalDag, table: ConditionalTable, soft_node: int,
                           soft_rows) -> Instance:
    """Rebuild a soft-intervention problem as hard interventions on indicator nodes.

    Each label gets a fresh parentless indicator node wired into ``soft_node``;
    when exactly one indicator is on, the soft node follows that label's
    replacement rows. One arm per label turns its indicator on, zeroes the
    other indicators, and leaves every original node free. Indicator patterns
    that no arm can produce keep the original conditional rows, so the table
    stays row-stochastic; those rows are unreachable and do not affect any
    intervened joint.
    """
    labels = [np.asarray(r, dtype=np.float64) for r in soft_rows]
    if not labels:
        raise ParameterError("need at least one soft label")
    n_labels = len(labels)
    n_orig = dag.node_count
    pk = len(dag.parents[soft_node])
    rows_k = 1 << pk
    norm = []
    for r in labels:
        if r.ndim == 1:
            r = np.stack([1.0 - r, r], axis=1)
        if r.shape != (rows_k, 2):
            raise ParameterError(f"soft rows must have shape ({rows_k},) or ({rows_k}, 2)")
        norm.append(r)

    # indicators occupy indices 0..L-1, originals shift up by L
    new_parents: list[tuple[int, ...]] = [() for _ in range(n_labels)]
    for n in range(n_orig):
        shifted = tuple(p + n_labels for p in dag.parents[n])
        if n == soft_node:
            shifted = tuple(range(n_labels)) + shifted
        new_parents.append(shifted)
    new_dag = CausalDag(tuple(new_parents))

    new_rows: list[np.ndarray] = [np.array([[1.0, 0.0]]) for _ in range(n_labels)]
    for n in range(n_orig):
        if n != soft_node:
            new_rows.append(table.rows[n])
            continue
        # indicator bits are the high bits of the soft node's new row index
        full = np.tile(table.rows[n], (1 << n_labels, 1))
        for s, repl in enumerate(norm):
            high = 1 << (n_labels - 1 - s)
            full[high * rows_k:(high + 1) * rows_k] = repl
        new_rows.append(full)

    arm_rows = np.full((n_labels, new_dag.node_count), FREE, dtype=np.int8)
    arm_rows[:, :n_labels] = 0
    for s in range(n_labels):
        arm_rows[s, s] = 1
    return Instance(new_dag, ConditionalTable(tuple(new_rows)), InterventionSet(arm_rows))
