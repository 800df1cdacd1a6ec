"""The sweeps against the brute-force oracles on random networks, the zero
prefix mass that phase 1's skip relies on, phase 1's stored reach against a
fresh sweep, the chunking of the arm axis, the
clique sizes of the elimination plans and their cache, the engine's plans
and bits against a reference planner on Python sets that builds every
factor per arm, and the arm-last layout of the engine's factors."""
import heapq
import itertools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalbandit import inference
from causalbandit.bif import load_bundled, to_causal_dag
from causalbandit.errors import CapacityError
from causalbandit.inference import (
    FRONTIER_LIMIT,
    SimulatedEnvironment,
    brute_force_parent_probability,
    brute_force_target_probability,
    parent_probabilities,
    target_probabilities,
)
from causalbandit.model import (
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    Intervention,
    InterventionSet,
    ParentRealization,
    enumerate_root_interventions,
    make_binary_tree_instance,
    random_conditional_table,
)
from causalbandit.phase1 import run_phase1
from conftest import brute_joint, success_table


@st.composite
def networks(draw, max_nodes=9, max_arms=3):
    """A random DAG with a sub-stochastic table (some entries zeroed, so the
    prefix mass differs by arm) and arms that clamp some nodes, parents
    included. Parent tuples are ascending or, in some networks, in the
    order drawn, which `CausalDag` accepts and the row index follows."""
    n_nodes = draw(st.integers(1, max_nodes))
    ascending = draw(st.booleans())
    parents = []
    for n in range(n_nodes):
        k = draw(st.integers(0, min(n, 3)))
        chosen = draw(st.permutations(range(n)))[:k]
        parents.append(tuple(sorted(chosen) if ascending else chosen))
    dag = CausalDag(tuple(parents))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rows = [r.copy() for r in random_conditional_table(dag, rng).rows]
    zero_share = draw(st.sampled_from([0.0, 0.2, 0.5]))
    for r in rows:
        r[rng.random(r.shape) < zero_share] = 0.0
    n_arms = draw(st.integers(1, max_arms))
    values = st.lists(st.sampled_from([FREE, FREE, 0, 1]), min_size=n_nodes,
                      max_size=n_nodes)
    arms = InterventionSet([draw(values) for _ in range(n_arms)])
    return ConditionalTable(tuple(rows)), dag, arms


def prefix_mass(table, dag, n, arm):
    """Total mass of the nodes before n under the arm, by enumeration."""
    sub_dag = CausalDag(dag.parents[:n])
    sub_table = ConditionalTable(table.rows[:n])
    return sum(brute_joint(sub_table, sub_dag, Intervention(arm.values[:n])).values())


@settings(max_examples=40, deadline=None)
@given(networks())
def test_sweeps_match_brute_force(net):
    table, dag, arms = net
    want = [brute_force_target_probability(table, dag, arm) for arm in arms]
    np.testing.assert_allclose(target_probabilities(table, dag, arms), want,
                               rtol=0, atol=1e-12)
    for n in range(dag.node_count):
        got = parent_probabilities(table, dag, n, arms)
        assert got.shape == (len(arms), dag.row_count(n))
        for a, arm in enumerate(arms):
            for r in range(dag.row_count(n)):
                pi = ParentRealization.from_index(dag.parents[n], r)
                want = brute_force_parent_probability(table, dag, n, pi, arm)
                assert abs(got[a, r] - want) <= 1e-12
            mass = prefix_mass(table, dag, n, arm) if arm.values[n] == FREE else 0.0
            assert abs(got[a].sum() - mass) <= 1e-12


@settings(max_examples=150, deadline=None)  # about one in ten has a dead arm
@given(networks())
def test_zero_prefix_mass_stays_zero_at_later_nodes(net):
    """What phase 1's skip relies on: once an arm's parent-row mass is all
    zero at a node it frees, it is zero, to the last bit, at every later node
    it frees."""
    table, dag, arms = net
    for a, arm in enumerate(arms):
        free = [n for n in range(dag.node_count) if arm.values[n] == FREE]
        masses = [[brute_force_parent_probability(
            table, dag, n, ParentRealization.from_index(dag.parents[n], r), arm)
            for r in range(dag.row_count(n))] for n in free]
        dead = [n for n, m in zip(free, masses) if not any(m)]
        if not dead:
            continue
        for n, m in zip(free, masses):
            if n > dead[0]:
                assert not any(m)
                assert not parent_probabilities(table, dag, n, arms)[a].any()


@settings(max_examples=30, deadline=None)
@given(networks(), st.integers(0, 2 ** 32 - 1))
def test_phase1_reach_is_the_parent_sweep_of_its_table(net, seed):
    """Phase 2 reads `reach` in place of sweeping the trimmed table again."""
    table, dag, arms = net
    assume(arms.uncertain_nodes)
    inst = Instance(dag, table, arms)
    for scale in (0.0, 1e-3, 1e9):
        p1 = run_phase1(SimulatedEnvironment(inst, seed), dag, arms, scale,
                        6 * inst.uncertain_rows)
        for n in range(dag.node_count):
            assert np.array_equal(p1.reach[n], parent_probabilities(p1.trimmed, dag, n, arms))
        for n in p1.uncertain_nodes:
            assert np.array_equal(p1.best_arm[n], p1.reach[n].argmax(axis=0))
            assert np.array_equal(p1.best_value[n], p1.reach[n].max(axis=0))


@contextmanager
def state_budget(cells):
    """Set the sweep's state budget for the block."""
    saved = inference.STATE_BUDGET
    inference.STATE_BUDGET = cells
    try:
        yield
    finally:
        inference.STATE_BUDGET = saved


def all_queries(table, dag, arms):
    out = [parent_probabilities(table, dag, n, arms) for n in range(dag.node_count)]
    return out + [target_probabilities(table, dag, arms)]


@settings(max_examples=25, deadline=None)
@given(networks(max_arms=6))
def test_one_arm_chunks_are_bitwise_equal(net):
    whole = all_queries(*net)
    with state_budget(1):
        single = all_queries(*net)
    for a, b in zip(whole, single):
        assert np.array_equal(a, b)


def alarm_case(budget):
    """Alarm with one unseen row of node 15, as phase 1 can leave it."""
    dag, _ = to_causal_dag(load_bundled("alarm"))
    arms = enumerate_root_interventions(dag.node_count, dag.roots, budget)
    rows = [r.copy() for r in random_conditional_table(dag, 4).rows]
    rows[15][1] = 0.0
    return ConditionalTable(tuple(rows)), dag, arms


def water_case(budget):
    """Water with the first row of every non-root node zeroed."""
    dag, _ = to_causal_dag(load_bundled("water"))
    arms = enumerate_root_interventions(dag.node_count, dag.roots, budget)
    rows = [r.copy() for r in random_conditional_table(dag, 4).rows]
    for n in range(dag.node_count):
        if dag.parents[n]:
            rows[n][0] = 0.0
    return ConditionalTable(tuple(rows)), dag, arms


# case, and the largest clique its plans may have
WIDTH_CASES = {
    "alarm-b2": (lambda: alarm_case(2), 5),
    "alarm-b4": (lambda: alarm_case(4), 5),
    "water-b2": (lambda: water_case(2), 10),
}


def query_plans(monkeypatch, table, dag, arms):
    """(plan, kept variables) of every parent query and of the target query."""
    plans = []
    make = inference._plan

    def recording(table, dag, free_any, n):
        plan = make(table, dag, free_any, n)
        plans.append((plan, dag.parents[n]))
        return plan

    monkeypatch.setattr(inference, "_plan", recording)
    all_queries(table, dag, arms)
    assert len(plans) == dag.node_count + 1
    return plans


@pytest.mark.parametrize("name", sorted(WIDTH_CASES))
def test_min_fill_cliques_stay_small(name, monkeypatch):
    build, bound = WIDTH_CASES[name]
    plans = query_plans(monkeypatch, *build())
    assert max(plan.width for plan, _ in plans) <= bound


@pytest.mark.parametrize("name", sorted(WIDTH_CASES))
def test_min_fill_width_against_networkx(name, monkeypatch):
    """networkx's min-fill heuristic on the same interaction graph, with the
    kept variables joined as the output factor. It may eliminate a kept
    variable early, which the plan never does, and breaks ties its own way,
    so a query may differ by one; the largest clique of each case agrees."""
    pytest.importorskip("networkx")
    import networkx as nx
    from networkx.algorithms.approximation import treewidth_min_fill_in

    build, _ = WIDTH_CASES[name]
    ours, theirs = [], []
    for plan, kept in query_plans(monkeypatch, *build()):
        graph = nx.Graph()
        for scope in [s for _, s, _ in plan.factors] + [kept]:
            graph.add_nodes_from(scope)
            graph.add_edges_from(itertools.combinations(scope, 2))
        ours.append(plan.width)
        theirs.append(treewidth_min_fill_in(graph)[0] + 1 if len(graph) else 0)
        assert theirs[-1] - 1 <= ours[-1] <= theirs[-1] + 1
    assert max(ours) == max(theirs)


def test_one_arm_chunks_on_alarm():
    net = alarm_case(2)
    whole = all_queries(*net)
    with state_budget(1):
        single = all_queries(*net)
    for a, b in zip(whole, single):
        assert np.array_equal(a, b)


def test_state_stays_within_budget(monkeypatch):
    table, dag, arms = alarm_case(4)
    seen = []
    execute = inference._execute

    def recording(plan, table, dag, chunk, n):
        seen.append((len(chunk), plan.width))
        return execute(plan, table, dag, chunk, n)

    monkeypatch.setattr(inference, "_execute", recording)
    for budget in (1 << 10, 1 << 16):
        monkeypatch.setattr(inference, "STATE_BUDGET", budget)
        seen.clear()
        parent_probabilities(table, dag, dag.node_count - 1, arms)
        target_probabilities(table, dag, arms)
        assert sum(rows for rows, _ in seen) == 2 * len(arms)
        for rows, width in seen:
            assert rows << width <= max(budget, 1 << width)


def test_wide_single_arm_raises_capacity_error():
    wide = FRONTIER_LIMIT + 1
    dag = CausalDag(tuple(() for _ in range(wide)) + (tuple(range(wide)),))
    table = success_table(
        [np.full(dag.row_count(n), 0.5) for n in range(dag.node_count)])
    arm = Intervention((FREE,) * dag.node_count)
    for _ in range(2):  # the plan is cached, and each call is checked again
        with pytest.raises(CapacityError):
            parent_probabilities(table, dag, wide, arm)


def test_parentless_node_gets_a_prefix_mass_column():
    dag = CausalDag(((), (), (0,)))
    table = ConditionalTable((np.array([[0.3, 0.2]]), np.array([[0.4, 0.6]]),
                              np.array([[0.5, 0.5], [0.5, 0.5]])))
    arms = InterventionSet([[FREE, FREE, FREE], [1, FREE, FREE], [FREE, 0, FREE]])
    got = parent_probabilities(table, dag, 1, arms)
    assert got.shape == (3, 1)
    np.testing.assert_allclose(got[:, 0], [0.5, 1.0, 0.0])


def test_identical_queries_plan_once():
    table, dag, arms = alarm_case(2)
    inference._min_fill.cache_clear()
    first = parent_probabilities(table, dag, 30, arms)
    again = parent_probabilities(table, dag, 30, arms)
    info = inference._min_fill.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.array_equal(first, again)


def test_a_sub_stochastic_prefix_row_changes_the_plan():
    """Node 1 is no ancestor of node 3, so it is skipped while its rows sum
    to 1; once a row is short its mass scales the answer, so it joins the
    plan, which then differs from the cached one."""
    dag = CausalDag(((), (), (0,), (2,)))
    rows = [r.copy() for r in random_conditional_table(dag, 7).rows]
    arms = InterventionSet([[FREE] * 4, [FREE, FREE, 1, FREE], [0, FREE, FREE, FREE]])
    free_any = (arms.matrix == FREE).any(axis=0)
    plans = []
    for short in (False, True):
        if short:
            rows[1][0, 1] = 0.25 * rows[1][0, 1]
        table = ConditionalTable(tuple(rows))
        plans.append(inference._plan(table, dag, free_any, 3))
        got = parent_probabilities(table, dag, 3, arms)
        for a, arm in enumerate(arms):
            for r in range(dag.row_count(3)):
                pi = ParentRealization.from_index(dag.parents[3], r)
                want = brute_force_parent_probability(table, dag, 3, pi, arm)
                assert abs(got[a, r] - want) <= 1e-12
    assert 1 not in {m for m, _, _ in plans[0].factors}
    assert 1 in {m for m, _, _ in plans[1].factors}


# ---------------------------------------------------------------------------
# reference: an uncached min-fill planner on Python sets, and every factor
# built per arm; the engine must give the same plans and the same bits


def _ref_fill(adj, v):
    nb = adj[v]
    return (len(nb) * (len(nb) - 1) - sum(len(adj[a] & nb) for a in nb)) // 2


def _ref_plan(table, dag, free_any, n):
    keep = dag.parents[n]
    relevant = set(keep)
    relevant.update(np.flatnonzero(free_any[:n] & ~table.stochastic[:n]).tolist())
    work = list(relevant)
    while work:
        m = work.pop()
        if free_any[m]:
            for p in dag.parents[m]:
                if p not in relevant:
                    relevant.add(p)
                    work.append(p)
    variables = {m for m in relevant if free_any[m]}.union(keep)
    factors = []
    for m in sorted(relevant):
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
        return tuple(2 if u in scope else 1 for u in clique)

    adj = {v: set() for v in variables}
    live = {}
    holders = {v: [] for v in variables}
    for i, (_, scope, _) in enumerate(factors):
        live[i] = scope
        for v in scope:
            adj[v].update(scope)
            holders[v].append(i)
    for v in variables:
        adj[v].discard(v)
    score = {v: _ref_fill(adj, v) for v in variables.difference(keep)}
    heap = [(s, v) for v, s in score.items()]
    heapq.heapify(heap)
    steps, width = [], len(keep)
    while heap:
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
            score[u] = _ref_fill(adj, u)
            heapq.heappush(heap, (score[u], u))
    if width > FRONTIER_LIMIT:
        raise CapacityError(f"largest clique {width} exceeds limit {FRONTIER_LIMIT}")
    output = sorted(keep)
    final = tuple((i, shape(scope, output)) for i, scope in sorted(live.items()))
    return inference._Plan(tuple(factors), tuple(steps), final, width)


def _ref_factor(table, dag, fixed, m, scope, sources):
    clamp = fixed[:, m, None]
    cells = np.arange(1 << len(scope))
    if sources is None:
        return (clamp == cells).astype(np.float64)

    def bit(j):
        return (cells >> (len(scope) - 1 - j)) & 1

    idx = 0
    for p, j in zip(dag.parents[m], sources):
        idx = (idx << 1) + (fixed[:, p, None] if j is None else bit(j))
    v = bit(scope.index(m))
    return np.where(clamp == FREE, table.rows[m][idx, v], clamp == v)


def _ref_execute(plan, table, dag, arms, n):
    n_arms = arms.shape[0]
    fixed = arms.astype(np.int64)
    made = {}

    def take(i, shape):
        f = made.pop(i) if i in made else _ref_factor(table, dag, fixed, *plan.factors[i])
        return f.reshape((n_arms,) + shape)

    next_id = len(plan.factors)
    for inputs, axis in plan.steps:
        clique = take(*inputs[0])
        for i, shape in inputs[1:]:
            clique = clique * take(i, shape)
        made[next_id] = clique.sum(axis=1 + axis)
        next_id += 1
    keep = dag.parents[n]
    state = np.ones((n_arms,) + (1,) * len(keep))
    for i, shape in plan.final:
        state = state * take(i, shape)
    order = sorted(keep)
    return state.transpose(0, *(1 + order.index(p) for p in keep)).reshape(n_arms, -1)


def assert_matches_reference(table, dag, arms):
    """Every sweep, the parent queries' and the target's (the last node's),
    plans as the reference does and gives its bits."""
    m = arms.matrix
    free_any = (m == FREE).any(axis=0)
    for n in range(dag.node_count):
        plan = _ref_plan(table, dag, free_any, n)
        assert inference._plan(table, dag, free_any, n) == plan
        chunk = max(1, inference.STATE_BUDGET >> plan.width)
        want = np.concatenate([_ref_execute(plan, table, dag, m[lo:lo + chunk], n)
                               for lo in range(0, len(m), chunk)])
        assert np.array_equal(inference._sweep(table, dag, m, n), want)


@settings(max_examples=40, deadline=None)
@given(networks(max_arms=6))
def test_engine_matches_reference_bitwise(net):
    assert_matches_reference(*net)


@pytest.mark.parametrize("name", sorted(WIDTH_CASES))
def test_engine_matches_reference_bitwise_on_width_cases(name):
    build, _ = WIDTH_CASES[name]
    assert_matches_reference(*build())


def tree_case(budget):
    """Tree-h4 with one unseen row of node 20; every arm fixes all 16 leaves."""
    inst = make_binary_tree_instance(4, budget, 11)
    rows = [r.copy() for r in inst.table.rows]
    rows[20][1] = 0.0
    return ConditionalTable(tuple(rows)), inst.dag, inst.arms


@pytest.mark.parametrize("build", [tree_case, alarm_case], ids=["tree-h4", "alarm"])
def test_engine_matches_reference_bitwise_across_chunk_edges(build, monkeypatch):
    """The engine turns each chunk from arms-last to arms-first in one
    transpose, so a layout bug would show at the chunk edges. Under a small
    state budget every query of tree-h4 and alarm at b=4 splits into several
    chunks and ends on a partial one, and still gives the reference's bits."""
    table, dag, arms = build(4)
    monkeypatch.setattr(inference, "STATE_BUDGET", 300)
    free_any = (arms.matrix == FREE).any(axis=0)
    for n in range(dag.node_count):
        chunk = max(1, inference.STATE_BUDGET >> inference._plan(table, dag, free_any, n).width)
        assert chunk < len(arms) and len(arms) % chunk
    assert_matches_reference(table, dag, arms)


def test_factors_keep_the_arm_axis_last():
    """`_factor`'s layout: shape (2^|scope|, arms), or (2^|scope|, 1) when
    the factor is arm-free, C-contiguous so that products and sums run over
    contiguous arms, with the reference's values transposed. The cases hold
    arm-free factors, factors read partly off the arm matrix and clamp
    indicators."""
    kinds = set()
    for table, dag, arms in (tree_case(2), alarm_case(2)):
        m = arms.matrix
        fixed = m.T.astype(np.int64, order="C")
        every_free = (m == FREE).all(axis=0).tolist()
        free_any = (m == FREE).any(axis=0)
        for n in range(dag.node_count):
            for node, scope, sources in inference._plan(table, dag, free_any, n).factors:
                f = inference._factor(table, dag, fixed, every_free, node, scope, sources)
                arm_free = sources is not None and every_free[node] and None not in sources
                kinds.add("indicator" if sources is None else
                          "arm-free" if arm_free else "per-arm")
                assert f.shape == (1 << len(scope), 1 if arm_free else len(m))
                assert f.dtype == np.float64 and f.flags.c_contiguous
                want = _ref_factor(table, dag, m.astype(np.int64), node, scope, sources)
                assert np.array_equal(np.broadcast_to(f, want.T.shape), want.T)
    assert kinds == {"indicator", "arm-free", "per-arm"}


def phase1_case(name):
    """The table practical-mode phase 1 leaves at budget 2, multiplier 3:
    partly estimated, with rows it never saw left at zero."""
    if name == "tree-h3":
        inst = make_binary_tree_instance(3, 2, 11)
    else:
        dag, _ = to_causal_dag(load_bundled(name))
        arms = enumerate_root_interventions(dag.node_count, dag.roots, 2)
        inst = Instance(dag, random_conditional_table(dag, 11), arms)
    p1 = run_phase1(SimulatedEnvironment(inst, 12), inst.dag, inst.arms, 0.0,
                    3 * inst.uncertain_rows)
    return p1.trimmed, inst.dag, inst.arms


@pytest.mark.parametrize("name", ["tree-h3", "alarm", "water"])
def test_engine_matches_reference_bitwise_on_phase1_tables(name):
    assert_matches_reference(*phase1_case(name))
