"""Reference computations that the benchmark checks the program's outputs against.

Each one is written from the definitions and shares no code with the
`causalbandit` package, which only supplies the inputs (graph parents, table
rows and the arm matrix as plain arrays):

* `tree_marginals` and `tree_gamma` use an exact bottom-up recursion that holds
  on trees whose edges point toward the root: the parents of a node head
  disjoint subtrees, so once the arm clamps the leaves they are independent;
* `sample_rewards` is a forward (ancestral) sampler for any graph;
* the counting functions give horizons and arm counts in closed form.
"""
from __future__ import annotations

import math

import numpy as np

FREE = -1  # an arm entry that leaves the node free

# Terms whose squared parent probability falls below this are not part of the
# allocation objective, by the objective's definition.
NUMERATOR_CUTOFF = 1e-15


def row_marginals(p1: np.ndarray, parents) -> np.ndarray:
    """P(parents realize row i) per arm, shape (2^k, arms), for independent
    parents with marginals p1[p] = P(p = 1). The first parent is the most
    significant bit of the row index."""
    out = np.ones((1, p1.shape[1]))
    for p in parents:
        out = np.stack([out * (1.0 - p1[p]), out * p1[p]], axis=1).reshape(-1, p1.shape[1])
    return out


def tree_marginals(parents, rows, arms) -> np.ndarray:
    """P(node = 1) for every node under every arm, shape (nodes, arms).

    Exact when the parents of every node are independent, as on a tree whose
    edges point toward the root. `rows[n][i, v]` is P(n = v | parent row i)."""
    arms = np.asarray(arms)
    p1 = np.empty((len(parents), arms.shape[0]))
    for n, ps in enumerate(parents):
        free_value = np.asarray(rows[n])[:, 1] @ row_marginals(p1, ps)
        p1[n] = np.where(arms[:, n] == FREE, free_value, arms[:, n])
    return p1


def tree_gamma(parents, rows, arms, weights) -> float:
    """The exact allocation objective at `weights` on a tree instance.

    One term per (uncertain node n, parent row i): v[a] = P_a(parents of n
    realize i), zero where arm a clamps n. The value is the max over arms a
    of the sum over terms that a leaves free of v[a]^2 / (v . weights)."""
    arms = np.asarray(arms)
    free = arms == FREE
    p1 = tree_marginals(parents, rows, arms)
    totals = np.zeros(arms.shape[0])
    for n, ps in enumerate(parents):
        if not free[:, n].any():
            continue
        for v in row_marginals(p1, ps):
            v = np.where(free[:, n], v, 0.0)
            keep = free[:, n] & (v ** 2 >= NUMERATOR_CUTOFF)
            if keep.any():
                totals += np.where(keep, v ** 2, 0.0) / (v @ weights)
    return float(totals.max())


def sample_rewards(parents, rows, arms, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Per arm, the share of `draws` forward samples under that arm in which
    the last node is 1."""
    arms = np.asarray(arms)
    values = np.empty((len(parents), arms.shape[0], draws), dtype=np.int8)
    for n, ps in enumerate(parents):
        row = np.zeros((arms.shape[0], draws), dtype=np.int64)
        for p in ps:
            row = 2 * row + values[p]
        drawn = rng.random((arms.shape[0], draws)) < np.asarray(rows[n])[row, 1]
        values[n] = np.where((arms[:, n] == FREE)[:, None], drawn, arms[:, n][:, None])
    return values[-1].mean(axis=1)


# Chance that one sampled share strays past `sampler_tolerance`.
SAMPLER_FALSE_ALARM = 1e-9


def sampler_tolerance(p: float, draws: int) -> float:
    """Bernstein's bound on how far a `draws`-sample mean of a Bernoulli(p)
    strays from p with probability SAMPLER_FALSE_ALARM: the smallest t with
    2 exp(-draws t^2 / (2 (p (1 - p) + t / 3))) <= SAMPLER_FALSE_ALARM. It
    holds for p near 0 or 1 too, where a normal tolerance would not."""
    log_term = math.log(2.0 / SAMPLER_FALSE_ALARM)
    linear = log_term / (3.0 * draws)
    return linear + math.sqrt(linear ** 2 + 2.0 * p * (1.0 - p) * log_term / draws)


def uncertain_rows(parents, arms) -> int:
    """C: the sum of 2^|parents| over the nodes that at least one arm leaves free."""
    ever_free = (np.asarray(arms) == FREE).any(axis=0)
    return sum(2 ** len(ps) for n, ps in enumerate(parents) if ever_free[n])


def root_arm_count(roots: int, budget: int) -> int:
    """Arms of a network file: nonempty subsets of the roots of size <= budget."""
    return sum(math.comb(roots, k) for k in range(1, budget + 1))


def tree_arm_count(height: int, budget: int) -> int:
    """Arms of a tree: subsets of exactly `budget` of its 2^height leaves."""
    return math.comb(2 ** height, budget)
