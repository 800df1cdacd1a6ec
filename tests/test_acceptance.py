"""End-to-end acceptance gate.

One test per criterion; each prints a single line

    ACCEPTANCE <n>: PASS|FAIL - <detail>

before asserting, so the verdict and its diagnostics survive into the report
(run with -s to see the lines for passing tests too). Runtime limits are part
of each criterion and are checked alongside the numeric conditions.
"""
import math
import time

import numpy as np

from conftest import brute_joint, random_instance

from causalbandit.allocation import allocation_complexity
from causalbandit.bif import load_bundled, to_causal_dag
from causalbandit.cli import main as cli_main
from causalbandit.inference import (
    SimulatedEnvironment,
    brute_force_parent_probability,
    brute_force_target_probability,
    parent_probabilities,
    target_probabilities,
    target_probability,
)
from causalbandit.model import (
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    Intervention,
    InterventionSet,
    ParentRealization,
    enumerate_budget_interventions,
    enumerate_root_interventions,
    make_binary_tree_dag,
    soft_to_hard_reduction,
)
from causalbandit.phase1 import run_phase1
from causalbandit.phase2 import run_phase2
from causalbandit.strategies import (
    run_causal_bandit,
    run_successive_rejects,
    run_uniform_baseline,
)
from causalbandit.sweep import ExperimentConfig, run_sweep


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def uncertain_rows_of(dag, arms) -> int:
    return sum(dag.row_count(int(n)) for n in np.flatnonzero(arms.ever_free))


def test_criterion_1_tree_structure():
    start = time.perf_counter()
    dag = make_binary_tree_dag(4)
    leaves = tuple(range(16))
    counts = {}
    row_counts = set()
    for b in (2, 4, 8):
        arms = enumerate_budget_interventions(dag.node_count, leaves, b)
        counts[b] = len(arms)
        row_counts.add(uncertain_rows_of(dag, arms))
    elapsed = time.perf_counter() - start
    ok = (dag.node_count == 31 and row_counts == {60}
          and counts == {2: 120, 4: 1820, 8: 12870} and elapsed < 1.0)
    report(1, ok, f"N={dag.node_count} C={sorted(row_counts)} arms={counts} "
                  f"elapsed={elapsed:.3f}s")
    assert ok


def test_criterion_2_bif_exactness():
    start = time.perf_counter()
    # name: (variables, conditional rows, parentless roots, {budget: arms})
    expected = {"alarm": (37, 116, 12, {2: 78, 4: 793, 8: 3796}),
                "water": (32, 248, 8, {2: 36, 4: 162, 8: 255})}
    diagnostics = []
    summary = []
    for name, (want_vars, want_rows, want_roots, want_arms) in expected.items():
        # the arm table must follow the documented rule: one arm per
        # nonempty root subset of size <= b, i.e. sum_{k=1..b} C(r, k)
        for b, want in want_arms.items():
            closed_form = sum(math.comb(want_roots, k) for k in range(1, b + 1))
            assert want == closed_form, (name, b, want, closed_form)
        net = load_bundled(name)
        dag, _ = to_causal_dag(net)
        got_vars = len(net.variables)
        if got_vars != want_vars:
            diagnostics.append(f"{name}-variable-count: got {got_vars}, "
                               f"expected {want_vars}")
        got_rows = dag.total_rows
        if got_rows != want_rows:
            diagnostics.append(f"{name}-row-count: got {got_rows}, "
                               f"expected {want_rows}")
        got_roots = len(dag.roots)
        if got_roots != want_roots:
            diagnostics.append(f"{name}-root-count: got {got_roots}, "
                               f"expected {want_roots}")
        got_arms = {}
        for b, want in want_arms.items():
            arms = enumerate_root_interventions(dag.node_count, dag.roots, b)
            got_arms[b] = len(arms)
            if len(arms) != want:
                diagnostics.append(f"{name}-arm-count-b{b}: got {len(arms)}, "
                                   f"expected {want}")
        summary.append(f"{name}: vars={got_vars} rows={got_rows} "
                       f"roots={got_roots} arms={got_arms}")
    elapsed = time.perf_counter() - start
    ok = not diagnostics and elapsed < 1.0
    detail = "; ".join(summary) + f" elapsed={elapsed:.3f}s"
    if diagnostics:
        detail += " | " + "; ".join(diagnostics)
    report(2, ok, detail)
    assert ok


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    checks = 0
    for _ in range(50):
        n_nodes = int(rng.integers(4, 13))
        inst = random_instance(rng, n_nodes, int(rng.integers(1, 5)))
        for arm in inst.arms:
            fast = target_probability(inst.table, inst.dag, arm)
            slow = brute_force_target_probability(inst.table, inst.dag, arm)
            worst = max(worst, abs(fast - slow))
            checks += 1
        free_nodes = [n for n in range(n_nodes) if inst.arms.ever_free[n]]
        for _ in range(4):
            n = int(rng.choice(free_nodes)) if free_nodes else 0
            pi = ParentRealization.from_index(
                inst.dag.parents[n],
                int(rng.integers(0, inst.dag.row_count(n))))
            arm = inst.arms[int(rng.integers(0, len(inst.arms)))]
            fast = parent_probabilities(inst.table, inst.dag, n, arm)[0, pi.index]
            slow = brute_force_parent_probability(inst.table, inst.dag, n, pi, arm)
            worst = max(worst, abs(fast - slow))
            checks += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    report(3, ok, f"max|fast-brute|={worst:.2e} over {checks} checks "
                  f"elapsed={elapsed:.2f}s")
    assert ok


def test_criterion_4_allocation_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    violations = []
    for i in range(20):
        inst = random_instance(rng, int(rng.integers(3, 7)),
                               int(rng.integers(1, 7)))
        res = allocation_complexity(inst)
        n = inst.dag.node_count
        fixed = (inst.arms.matrix != FREE).sum(axis=1)
        lower = n - int(fixed.min())
        upper = min(n * inst.uncertain_rows, n * len(inst.arms))
        slack = res.gap + 1e-6
        if not (lower - slack <= res.value <= upper + slack):
            violations.append(f"draw {i}: value={res.value:.4f} "
                              f"outside [{lower}-{slack:.2e}, {upper}+{slack:.2e}]")
    singleton_worst = 0.0
    for i in range(5):
        n_nodes = int(rng.integers(3, 7))
        inst = random_instance(rng, n_nodes, 1, free_prob=1.0)
        values = [FREE] * n_nodes
        values[int(rng.integers(0, n_nodes))] = int(rng.integers(0, 2))
        arms = InterventionSet.from_interventions([Intervention(tuple(values))])
        inst = Instance(inst.dag, inst.table, arms)
        res = allocation_complexity(inst)
        singleton_worst = max(singleton_worst,
                              abs(res.value - (inst.dag.node_count - 1)))
    elapsed = time.perf_counter() - start
    ok = not violations and singleton_worst <= 1e-3 and elapsed < 120.0
    detail = (f"20 sandwich draws, worst singleton deviation "
              f"{singleton_worst:.2e}, elapsed={elapsed:.1f}s")
    if violations:
        detail += " | " + "; ".join(violations)
    report(4, ok, detail)
    assert ok


def test_criterion_5_soft_to_hard():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(3, 8)), 1)
        dag, table = inst.dag, inst.table
        soft_node = int(rng.integers(0, dag.node_count))
        n_labels = int(rng.integers(1, 4))
        soft_rows = [rng.uniform(0.1, 0.9, size=dag.row_count(soft_node))
                     for _ in range(n_labels)]
        reduced = soft_to_hard_reduction(dag, table, soft_node, soft_rows)
        all_free = Intervention((FREE,) * dag.node_count)
        for s in range(n_labels):
            replaced = list(table.rows)
            replaced[soft_node] = np.stack(
                [1.0 - soft_rows[s], soft_rows[s]], axis=1)
            direct = brute_joint(ConditionalTable(tuple(replaced)), dag, all_free)
            lifted = brute_joint(reduced.table, reduced.dag, reduced.arms[s])
            assert set(direct) == set(lifted)
            for bits, p in direct.items():
                worst = max(worst, abs(p - lifted[bits]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(5, ok, f"max joint deviation {worst:.2e} elapsed={elapsed:.2f}s")
    assert ok


def consistency_fixture():
    dag = CausalDag(((), (0,), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    rng = np.random.default_rng(617)
    rows = tuple(
        np.stack([1.0 - p, p], axis=1)
        for p in (rng.uniform(0.35, 0.65, size=dag.row_count(n))
                  for n in range(dag.node_count)))
    table = ConditionalTable(rows)
    arms = enumerate_budget_interventions(7, (0, 1), 1)
    return Instance(dag, table, arms)


def test_criterion_6_estimation_consistency():
    start = time.perf_counter()
    inst = consistency_fixture()
    horizon = 300_000
    trunc_scale = 1e-6  # small enough that only unreachable rows truncate
    true_mu = target_probabilities(inst.table, inst.dag, inst.arms)
    alpha_ok = mu_ok = 0
    worst_alpha = worst_mu = 0.0
    for run in range(10):
        env = SimulatedEnvironment(inst, 1000 + run, max_experiments=horizon)
        p1 = run_phase1(env, inst.dag, inst.arms, trunc_scale, horizon)
        p2 = run_phase2(env, p1, "paper", np.random.default_rng(2000 + run))
        run_alpha = 0.0
        for n in p1.uncertain_nodes:
            keep = ~p1.truncation.dropped_rows(n)
            if keep.any():
                run_alpha = max(run_alpha, float(np.abs(
                    p2.estimate.rows[n][keep] - inst.table.rows[n][keep]).max()))
        mu_hat = target_probabilities(p2.estimate, inst.dag, inst.arms)
        run_mu = float(np.abs(mu_hat - true_mu).max())
        alpha_ok += run_alpha <= 0.05
        mu_ok += run_mu <= 0.05
        worst_alpha = max(worst_alpha, run_alpha)
        worst_mu = max(worst_mu, run_mu)
    elapsed = time.perf_counter() - start
    ok = alpha_ok >= 9 and mu_ok >= 9 and elapsed < 300.0
    report(6, ok, f"alpha within 0.05 in {alpha_ok}/10 runs (worst "
                  f"{worst_alpha:.4f}), mu within 0.05 in {mu_ok}/10 runs "
                  f"(worst {worst_mu:.4f}), elapsed={elapsed:.1f}s")
    assert ok


REGRET_SEEDS = (101, 102, 103, 104, 105)


def test_criterion_7_regret_dominance():
    start = time.perf_counter()
    means = {"proposed-practical": [], "successive-rejects": []}
    for seed in REGRET_SEEDS:
        config = ExperimentConfig(
            tree_height=4, budgets=(4,), multipliers=(3,), trials=10, seed=seed,
            strategies=("proposed-practical", "successive-rejects"))
        rep = run_sweep(config)
        assert not rep.failures
        for row in rep.rows:
            means[row.strategy].append(row.mean_regret)
    proposed = float(np.mean(means["proposed-practical"]))
    rejects = float(np.mean(means["successive-rejects"]))
    elapsed = time.perf_counter() - start
    ok = proposed < rejects and elapsed < 600.0
    report(7, ok, f"proposed-practical mean regret {proposed:.4f} vs "
                  f"successive-rejects {rejects:.4f} over "
                  f"{len(REGRET_SEEDS)}x10 runs, elapsed={elapsed:.1f}s")
    assert ok


def successive_rejects_contract(k: int, horizon: int) -> int:
    log_bar = 0.5 + sum(1.0 / i for i in range(2, k + 1))
    level = 0
    total = 0
    for stage in range(1, k):
        target = max(0, math.ceil((horizon - k) / (log_bar * (k + 1 - stage))))
        total += max(0, target - level) * (k + 1 - stage)
        level = max(level, target)
    return total


def test_criterion_8_budget_ledgers():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    runs = 0
    mismatches = []
    draws = 0
    while draws < 25:
        inst = random_instance(rng, int(rng.integers(4, 7)),
                               int(rng.integers(2, 6)), free_prob=0.5)
        c = inst.uncertain_rows
        if c == 0:
            continue
        draws += 1
        horizon = int(rng.integers(3 * c, 9 * c + 1))
        contracts = {
            "proposed-paper": 2 * c * (horizon // (3 * c)) + horizon // 3,
            "proposed-practical": 2 * c * (horizon // (3 * c)) + horizon // 3,
            "successive-rejects": successive_rejects_contract(len(inst.arms),
                                                              horizon),
            "uniform": horizon,
        }
        for name, want in contracts.items():
            env = SimulatedEnvironment(inst, rng, max_experiments=horizon)
            if name.startswith("proposed"):
                run_causal_bandit(env, inst.dag, inst.arms, horizon,
                                  name.split("-")[1], rng)
            elif name == "successive-rejects":
                run_successive_rejects(env, inst.dag, inst.arms, horizon)
            else:
                run_uniform_baseline(env, inst.dag, inst.arms, horizon)
            runs += 1
            if env.experiments_used != want:
                mismatches.append(f"{name}: used {env.experiments_used}, "
                                  f"contracted {want} (T={horizon}, C={c})")
            if env.experiments_used > horizon:
                mismatches.append(f"{name}: overspent {env.experiments_used} > "
                                  f"{horizon}")
    elapsed = time.perf_counter() - start
    ok = not mismatches and runs == 100 and elapsed < 10.0
    detail = f"{runs} strategy runs, exact ledgers, elapsed={elapsed:.2f}s"
    if mismatches:
        detail += " | " + "; ".join(mismatches[:5])
    report(8, ok, detail)
    assert ok


def test_criterion_9_sweep_determinism(tmp_path):
    start = time.perf_counter()
    argv = ["run",
            "--set", "tree_height=3", "--set", "budgets=2,4",
            "--set", "multipliers=3,4", "--set", "trials=3",
            "--set", "seed=7",
            "--set", "strategies=proposed-paper,proposed-practical,"
                     "successive-rejects,uniform"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code1 = cli_main(argv + ["--out", str(first)])
    code2 = cli_main(argv + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    rows = len(first.read_text().strip().splitlines()) - 1
    elapsed = time.perf_counter() - start
    ok = code1 == 0 and code2 == 0 and identical and rows == 16 \
        and elapsed < 1200.0
    report(9, ok, f"two sweeps, {rows} rows each, byte-identical={identical}, "
                  f"elapsed={elapsed:.1f}s")
    assert ok
