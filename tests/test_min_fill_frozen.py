"""The sweep planner against a frozen copy of the one it replaced (a heap
with stale entries, per-variable holder lists and a work list for the
relevant set), plan for plan: on every query that the bundled tree-h4,
water and alarm grids and their `gamma` builds plan, and on random
networks."""
import heapq

import numpy as np
import pytest
from hypothesis import given, settings

from causalbandit import inference
from causalbandit.allocation import build_exact_objective
from causalbandit.errors import CapacityError
from causalbandit.inference import FRONTIER_LIMIT, _nodes, _Plan
from causalbandit.model import FREE, Instance, random_conditional_table
from causalbandit.sweep import build_arms, config_from_mapping, load_structure, run_sweep
from test_parent_marginals import networks


def reference_plan(table, dag, free_any, n):
    """`_plan` as it was, returning the `_min_fill` key with the plan."""
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
    key = (dag, free_any.tobytes(), n, sum(1 << m for m in relevant))
    plan = reference_min_fill(*key)
    if plan.width > FRONTIER_LIMIT:
        raise CapacityError(f"largest clique {plan.width} exceeds limit {FRONTIER_LIMIT}")
    return key, plan


def reference_min_fill(dag, free_bytes, n, relevant):
    """`_min_fill` as it was, uncached."""
    free_any = np.frombuffer(free_bytes, dtype=bool)
    keep = dag.parents[n]
    nodes = _nodes(relevant)
    variables = {m for m in nodes if free_any[m]}.union(keep)
    factors = []
    for m in nodes:
        if free_any[m]:
            scope = tuple(sorted({p for p in dag.parents[m] if p in variables} | {m}))
            sources = tuple(scope.index(p) if p in variables else None
                            for p in dag.parents[m])
        elif m in keep:
            scope, sources = (m,), None
        else:
            continue
        factors.append((m, scope, sources))

    def shape(scope, clique):
        return tuple(2 if scope >> u & 1 else 1 for u in clique)

    adj = dict.fromkeys(variables, 0)
    live = {}
    holders = {v: [] for v in variables}
    for i, (_, span, _) in enumerate(factors):
        live[i] = scope = sum(1 << v for v in span)
        for v in span:
            adj[v] |= scope
            holders[v].append(i)
    for v in variables:
        adj[v] &= ~(1 << v)

    def fill(v):
        nb = adj[v]
        d = nb.bit_count()
        return (d * (d - 1) - sum((adj[a] & nb).bit_count() for a in _nodes(nb))) // 2

    score = {v: fill(v) for v in variables.difference(keep)}
    heap = [(s, v) for v, s in score.items()]
    heapq.heapify(heap)
    steps, width = [], len(keep)
    while heap:
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
    output = sorted(keep)
    final = tuple((i, shape(scope, output)) for i, scope in sorted(live.items()))
    return _Plan(tuple(factors), tuple(steps), final, width)


def assert_plans_as_the_frozen_copy(monkeypatch, table, dag, free_any, n):
    """The planner's `_min_fill` key and its plan, made afresh, are the
    frozen copy's."""
    keys, make = [], inference._min_fill.__wrapped__

    def uncached(*key):
        keys.append(key)
        return make(*key)

    key, want = reference_plan(table, dag, free_any, n)
    with monkeypatch.context() as patch:
        patch.setattr(inference, "_min_fill", uncached)
        assert inference._plan(table, dag, free_any, n) == want
    assert keys == [key]


GRIDS = {
    "tree-h4": {"source": "tree", "tree_height": "4"},
    "water": {"source": "bif", "bif": "water"},
    "alarm": {"source": "bif", "bif": "alarm"},
}


def planned_queries(monkeypatch, source):
    """One (table, dag, free mask, node) per distinct `_min_fill` key that the
    source's baseline grid (budgets 2, 4, 8; multipliers 3, 6, 9; 3 trials;
    seed 7; all four strategies) and its `gamma --budget 4` build plan."""
    queries = {}
    make = inference._plan

    def recording(table, dag, free_any, n):
        key = (dag, free_any.tobytes(), n, table.stochastic[:n].tobytes())
        queries.setdefault(key, (table, dag, free_any.copy(), n))
        return make(table, dag, free_any, n)

    mapping = {**GRIDS[source], "budgets": "2,4,8", "multipliers": "3,6,9", "trials": "3",
               "seed": "7", "strategies": "proposed-paper,proposed-practical,uniform,"
                                          "successive-rejects"}
    with monkeypatch.context() as patch:
        patch.setattr(inference, "_plan", recording)
        run_sweep(config_from_mapping(mapping))
        config = config_from_mapping({**GRIDS[source], "budgets": "4"})
        _, dag, targets = load_structure(config)
        arms = build_arms(config, dag, targets, 4)
        build_exact_objective(Instance(dag, random_conditional_table(dag, 0), arms))
    return list(queries.values())


@pytest.mark.parametrize("source", sorted(GRIDS))
def test_planner_matches_the_frozen_copy_on_the_bundled_grids(source, monkeypatch):
    queries = planned_queries(monkeypatch, source)
    assert len({(free.tobytes(), n) for _, _, free, n in queries}) < len(queries)  # tables vary
    for query in queries:
        assert_plans_as_the_frozen_copy(monkeypatch, *query)


@settings(max_examples=60, deadline=None)
@given(networks(max_arms=6))
def test_planner_matches_the_frozen_copy_on_random_networks(net):
    table, dag, arms = net
    free_any = (arms.matrix == FREE).any(axis=0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for n in range(dag.node_count):
            assert_plans_as_the_frozen_copy(monkeypatch, table, dag, free_any, n)
