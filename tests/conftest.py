"""Shared generators and enumeration helpers for the test suite."""
import numpy as np

from causalbandit.inference import _completions
from causalbandit.model import (
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    Intervention,
    InterventionSet,
    random_conditional_table,
)


def random_dag(rng, n_nodes, max_parents=3):
    parents = []
    for n in range(n_nodes):
        k = int(rng.integers(0, min(n, max_parents) + 1))
        ps = sorted(rng.choice(n, size=k, replace=False).tolist()) if k else []
        parents.append(tuple(ps))
    return CausalDag(tuple(parents))


def random_arm(rng, n_nodes, free_prob=0.6):
    vals = [FREE if rng.random() < free_prob else int(rng.integers(0, 2))
            for _ in range(n_nodes)]
    return Intervention(tuple(vals))


def random_instance(rng, n_nodes, n_arms, max_parents=3, free_prob=0.6):
    dag = random_dag(rng, n_nodes, max_parents)
    table = random_conditional_table(dag, rng)
    arms = InterventionSet.from_interventions(
        [random_arm(rng, n_nodes, free_prob) for _ in range(n_arms)])
    return Instance(dag, table, arms)


def success_table(success):
    """A table from per-node vectors of P(node = 1 | parents = row)."""
    rows = []
    for p1 in success:
        p1 = np.asarray(p1, dtype=np.float64)
        rows.append(np.stack([1.0 - p1, p1], axis=1))
    return ConditionalTable(tuple(rows))


def brute_joint(table, dag, arm):
    """Full joint over the arm's free nodes by direct enumeration.

    Returns {free-node bit tuple: probability}; fixed nodes are constants.
    """
    free = [n for n in range(dag.node_count) if arm.values[n] == FREE]
    return {tuple(omega[n] for n in free): prod
            for omega, prod in _completions(table, dag, arm.values, free)}
