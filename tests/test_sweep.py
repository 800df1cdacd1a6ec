"""Sweep harness: seed mixing, config parsing, report shape, determinism."""
import concurrent.futures
import itertools
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import causalbandit
from causalbandit import sweep
from causalbandit.cli import main
from causalbandit.errors import CapacityError, ParameterError
from causalbandit.model import CausalDag, ConditionalTable, Instance, InterventionSet
from causalbandit.sweep import (
    STRATEGIES,
    ExperimentConfig,
    RegretReport,
    _run_trial,
    build_arms,
    config_from_mapping,
    load_structure,
    mix_seed,
    parse_config_text,
    run_sweep,
)


def test_mix_seed_is_deterministic_and_64_bit():
    a = mix_seed(1, 2, 3)
    assert a == mix_seed(1, 2, 3)
    assert 0 <= a < (1 << 64)


def test_mix_seed_separates_nearby_tuples():
    seen = {mix_seed(1, 2, 3), mix_seed(3, 2, 1), mix_seed(1, 2, 4),
            mix_seed(0, 2, 3), mix_seed(1, 2), mix_seed(1, 2, 3, 0)}
    assert len(seen) == 6


def test_parse_config_text_skips_comments_and_blanks():
    text = "# a comment\n\nseed = 9 # trailing\n trials=4 \n"
    assert parse_config_text(text) == {"seed": "9", "trials": "4"}


def test_parse_config_text_rejects_non_kv_lines():
    with pytest.raises(ParameterError):
        parse_config_text("seed=1\nnot a pair\n")


def test_config_from_mapping_round_trip():
    config = config_from_mapping({
        "source": "tree", "tree_height": "3", "budgets": "2,4",
        "multipliers": "3,5", "trials": "7", "seed": "42",
        "strategies": "uniform, successive-rejects",
        "fix_alpha": "true", "timing": "off",
    })
    assert config.tree_height == 3
    assert config.budgets == (2, 4)
    assert config.multipliers == (3, 5)
    assert config.trials == 7
    assert config.seed == 42
    assert config.strategies == ("uniform", "successive-rejects")
    assert config.fix_alpha is True
    assert config.timing is False


@pytest.mark.parametrize("mapping", [
    {"source": "csv"},
    {"tree_height": "0"},
    {"source": "bif"},
    {"budgets": "0"},
    {"budgets": ""},
    {"multipliers": "two"},
    {"trials": "0"},
    {"strategies": "warp-drive"},
    {"strategies": ""},
    {"fix_alpha": "maybe"},
    {"unknown_key": "1"},
    {"multipliers": "2", "strategies": "proposed-paper"},
    {"multipliers": "1,3", "strategies": "uniform,proposed-practical"},
])
def test_config_from_mapping_rejects_bad_values(mapping):
    with pytest.raises(ParameterError):
        config_from_mapping(mapping)


def test_low_multipliers_allowed_for_baselines_only():
    config = config_from_mapping(
        {"multipliers": "1,2", "strategies": "uniform,successive-rejects"})
    assert config.multipliers == (1, 2)


def test_report_row_cardinality():
    config = ExperimentConfig(tree_height=2, budgets=(1, 2), multipliers=(3, 4),
                              trials=1, strategies=("uniform", "successive-rejects"))
    report = run_sweep(config)
    assert len(report.rows) == 2 * 2 * 2
    assert report.failures == []


def test_report_rows_ordered_budget_multiplier_strategy():
    config = ExperimentConfig(tree_height=2, budgets=(1, 2), multipliers=(3, 4),
                              trials=1, strategies=("uniform", "successive-rejects"))
    report = run_sweep(config)
    keys = [(r.budget, r.horizon, r.strategy) for r in report.rows]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1],
                                               ("uniform", "successive-rejects").index(k[2])))


def test_regret_and_std_err_ranges():
    config = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3,),
                              trials=4, seed=5, strategies=STRATEGIES)
    report = run_sweep(config)
    assert len(report.rows) == 4
    for row in report.rows:
        assert 0.0 <= row.mean_regret <= 1.0
        assert row.std_err >= 0.0
        assert row.trials == 4
        assert row.instance == "tree-h2"
        assert row.runtime_ms == 0.0


def test_single_trial_std_err_is_zero():
    config = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3,),
                              trials=1, strategies=("uniform",))
    report = run_sweep(config)
    assert report.rows[0].std_err == 0.0


def test_csv_is_deterministic_across_reruns():
    config = ExperimentConfig(tree_height=2, budgets=(1, 2), multipliers=(3,),
                              trials=3, seed=11,
                              strategies=("proposed-practical", "uniform"))
    first = run_sweep(config).to_csv()
    second = run_sweep(config).to_csv()
    assert first == second
    assert first.startswith(
        "instance,strategy,budget,horizon,trials,mean_regret,std_err,runtime_ms\n")


def test_worker_pool_matches_serial(monkeypatch):
    config = ExperimentConfig(tree_height=2, budgets=(1, 2), multipliers=(3,),
                              trials=2, seed=3,
                              strategies=("uniform", "successive-rejects"))
    serial = run_sweep(config).to_csv()
    monkeypatch.setenv("CAUSALBANDIT_WORKERS", "3")
    pooled = run_sweep(config).to_csv()
    assert pooled == serial


def test_worker_pool_is_never_larger_than_the_cell_count(monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    config = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3,),
                              trials=1, seed=3,
                              strategies=("uniform", "successive-rejects"))
    serial = run_sweep(config).to_csv()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv("CAUSALBANDIT_WORKERS", "64")
    assert run_sweep(config).to_csv() == serial
    assert sizes == [2]


def test_importing_the_package_loads_no_process_pool():
    """Only a run with more than one worker imports the pool, and with it
    multiprocessing."""
    package_root = pathlib.Path(causalbandit.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, causalbandit; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(package_root)})
    assert proc.stdout.strip() == "False"


def test_worker_pool_matches_serial_on_network_files(monkeypatch):
    fixture = str(pathlib.Path(__file__).parent / "fixtures" / "diamond.bif")
    configs = [ExperimentConfig(source="bif", bif=bif, budgets=(1, 2), multipliers=(3,),
                                trials=1, seed=4,
                                strategies=("proposed-practical", "uniform"))
               for bif in ("water", fixture)]
    serial = [run_sweep(c) for c in configs]
    monkeypatch.setenv("CAUSALBANDIT_WORKERS", "2")
    pooled = [run_sweep(c) for c in configs]
    for one, many in zip(serial, pooled):
        assert many.to_csv() == one.to_csv()
        assert many.failures == one.failures
    assert len(serial[0].rows) == 4 and not serial[0].failures
    # diamond has one root: budget 2 has no arm set, and each of its cells says so
    assert [r.instance for r in serial[1].rows] == ["diamond"] * 2
    assert [(f.budget, f.strategy) for f in serial[1].failures] == [
        (2, "proposed-practical"), (2, "uniform")]
    assert all("budget 2" in f.message for f in serial[1].failures)


def test_different_seeds_change_the_report():
    base = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3,),
                            trials=3, seed=0, strategies=("uniform",))
    other = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3,),
                             trials=3, seed=1, strategies=("uniform",))
    assert run_sweep(base).to_csv() != run_sweep(other).to_csv()


def test_failed_cells_are_recorded_not_skipped():
    config = ExperimentConfig(tree_height=2, budgets=(4,), multipliers=(3,),
                              trials=1, strategies=("successive-rejects", "uniform"))
    report = run_sweep(config)
    assert len(report.rows) == 1
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.strategy == "successive-rejects"
    assert failure.budget == 4
    assert "two arms" in failure.message


def test_a_budget_over_the_arm_cell_limit_fails_only_its_own_cells():
    # tree-h7: budget 1 has 128 arms, budget 4 C(128, 4) = 10,668,000, refused
    # by its count before any arm is built
    config = ExperimentConfig(tree_height=7, budgets=(1, 4), multipliers=(3,), trials=1,
                              strategies=("uniform",))
    report = run_sweep(config)
    assert [(r.budget, r.strategy) for r in report.rows] == [(1, "uniform")]
    assert [(f.budget, f.multiplier, f.strategy) for f in report.failures] == [
        (4, 3, "uniform")]
    assert report.failures[0].message.startswith("10668000 arms x 255 nodes")


def test_fix_alpha_reuses_the_first_trial_table(monkeypatch):
    recorded = []
    import causalbandit.sweep as sweep_module
    real = sweep_module.random_conditional_table

    def recording(dag, seed):
        recorded.append(seed)
        return real(dag, seed)

    scored = []
    real_regret = sweep_module.simple_regret

    def capturing(instance, chosen):
        scored.append(instance)
        return real_regret(instance, chosen)

    monkeypatch.setattr(sweep_module, "random_conditional_table", recording)
    monkeypatch.setattr(sweep_module, "simple_regret", capturing)
    base = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3,),
                            trials=3, strategies=("uniform",))
    run_sweep(base)
    varying = list(recorded)
    recorded.clear()
    scored.clear()
    run_sweep(ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3,),
                               trials=3, strategies=("uniform",), fix_alpha=True))
    fixed = list(recorded)
    assert len(varying) == 3 and len(set(varying)) == 3
    # one table is drawn, from the first trial's seed, and every trial faces it
    assert fixed == [varying[0]]
    first = real(scored[0].dag, varying[0])
    assert len(scored) == 3
    for instance in scored:
        assert all(np.array_equal(got, want)
                   for got, want in zip(instance.table.rows, first.rows))


def test_each_table_is_drawn_and_scored_once_for_every_strategy(monkeypatch):
    from causalbandit import inference
    tables, sweeps = [], []
    real_table = sweep.random_conditional_table
    real_sweep = inference.target_probabilities

    def drawing(dag, seed):
        tables.append(seed)
        return real_table(dag, seed)

    def scoring(table, dag, arms):
        sweeps.append(len(arms))
        return real_sweep(table, dag, arms)

    config = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3, 6),
                              trials=2, strategies=STRATEGIES)
    expected = run_sweep(config).to_csv()
    monkeypatch.setattr(sweep, "random_conditional_table", drawing)
    monkeypatch.setattr(inference, "target_probabilities", scoring)
    report = run_sweep(config)
    assert len(report.rows) == 8 and report.to_csv() == expected
    assert len(tables) == 4 and len(set(tables)) == 4
    assert sweeps == [4] * 4  # the whole arm set, once per table


def test_successive_rejects_cells_without_pulls_are_warned_about():
    # tree-h3: C = 28 rows, 28 arms at budget 2 and 56 at budget 3
    config = ExperimentConfig(tree_height=3, budgets=(2, 3), multipliers=(1, 2, 3),
                              trials=1, strategies=("successive-rejects", "uniform"))
    report = run_sweep(config)
    assert len(report.rows) == 12 and not report.failures
    assert [(w.budget, w.multiplier, w.strategy) for w in report.warnings] == [
        (2, 1, "successive-rejects"), (3, 1, "successive-rejects"),
        (3, 2, "successive-rejects")]
    assert "horizon 56 is at most the arm count 56" in report.warnings[2].message
    assert len(report.to_csv().splitlines()) == 13
    assert RegretReport([], []).warnings == []


def test_proposed_trials_with_one_estimate_for_every_arm_are_warned_about(monkeypatch, capsys):
    """On tree-h2 paper mode truncates every entry, so its estimates are all
    zero and the tie-break picks arm 0, which here reads as zero regret.
    Each cell with such trials gets one warning with their count, printed
    by `run`, and the CSV does not change."""
    flat = "trials estimated one reward for every arm, so the tie-break chose arm 0"
    config = ExperimentConfig(tree_height=2, budgets=(1, 2), multipliers=(3,), trials=2,
                              strategies=("proposed-paper", "proposed-practical", "uniform"))
    report = run_sweep(config)
    assert [(w.budget, w.multiplier, w.strategy, w.message) for w in report.warnings] == [
        (b, 3, "proposed-paper", f"2 of 2 {flat}") for b in (1, 2)]
    assert report.rows[0].strategy == "proposed-paper" and report.rows[0].mean_regret == 0.0

    code = main(["run", "--set", "tree_height=2", "--set", "budgets=1,2", "--set", "trials=2",
                 "--set", "strategies=proposed-paper,proposed-practical,uniform"])
    out, err = capsys.readouterr()
    assert code == 0 and out == report.to_csv()
    assert err == "".join(f"warning: budget={b} multiplier=3 strategy=proposed-paper: "
                          f"2 of 2 {flat}\n" for b in (1, 2))

    real, calls = sweep.run_causal_bandit, []

    def first_flat(*args):  # the first trial's estimates, made one value
        result = real(*args)
        calls.append(result)
        return replace(result, mu_hat=np.zeros_like(result.mu_hat)) if len(calls) == 1 \
            else result

    monkeypatch.setattr(sweep, "run_causal_bandit", first_flat)
    report = run_sweep(replace(config, budgets=(1,), strategies=("proposed-practical",)))
    assert [w.message for w in report.warnings] == [f"1 of 2 {flat}"]


def test_degenerate_instance_gives_zero_regret_rows():
    dag = CausalDag(((), (), (0, 1)))
    rows = (np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]),
            np.array([[0.0, 1.0]] * 4))
    table = ConditionalTable(rows)
    arms = InterventionSet(np.array([[0, 1, -1], [1, 0, -1], [1, 1, -1]],
                                    dtype=np.int8))
    instance = Instance(dag, table, arms)
    for trial in range(3):
        regret = _run_trial("uniform", instance, 30, trial, trial)[0]
        assert regret == 0.0


def test_doubling_trials_shrinks_std_err():
    ratios = []
    for seed in range(6):
        small = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(1,),
                                 trials=6, seed=seed, strategies=("uniform",))
        large = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(1,),
                                 trials=24, seed=seed, strategies=("uniform",))
        se_small = run_sweep(small).rows[0].std_err
        se_large = run_sweep(large).rows[0].std_err
        if se_large > 0:
            ratios.append(se_small / se_large)
    assert ratios, "every large-trial run had zero spread"
    mean_ratio = sum(ratios) / len(ratios)
    assert 1.2 <= mean_ratio <= 3.2


def test_timing_flag_fills_runtime_column():
    config = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3,),
                              trials=2, strategies=("uniform",), timing=True)
    report = run_sweep(config)
    assert report.rows[0].runtime_ms > 0.0


def test_bif_source_loads_bundled_network():
    config = ExperimentConfig(source="bif", bif="alarm")
    label, dag, targets = load_structure(config)
    assert label == "alarm"
    assert dag.node_count == 37
    assert len(targets) == 12
    arms = build_arms(config, dag, targets, 2)
    assert len(arms) == 78


def test_tree_horizon_uses_uncertain_rows():
    config = ExperimentConfig(tree_height=4, budgets=(2,), multipliers=(5,),
                              trials=1, strategies=("uniform",))
    report = run_sweep(config)
    assert report.rows[0].horizon == 5 * 60


def test_a_bundled_network_is_parsed_once_and_shared():
    config = ExperimentConfig(source="bif", bif="water")
    first, second = load_structure(config), load_structure(config)
    assert second[1] is first[1]
    assert second == first


def test_a_tree_is_built_once_per_height_and_checked_for_every_config():
    """Every config of a height gets one shared graph, built once, but the
    budgets of each config are checked before the shared graph is read."""
    sweep._tree_dag.cache_clear()
    first = load_structure(ExperimentConfig(source="tree", tree_height=3, budgets=(2,)))
    second = load_structure(ExperimentConfig(source="tree", tree_height=3, budgets=(1, 8),
                                             trials=4))
    assert second[1] is first[1]
    assert second == first
    assert sweep._tree_dag.cache_info()[:2] == (1, 1)  # (hits, misses): built once
    with pytest.raises(ParameterError, match=r"^budget 9 not in \[1, 8\]$"):
        load_structure(ExperimentConfig(source="tree", tree_height=3, budgets=(9,)))
    load_structure(ExperimentConfig(source="tree", tree_height=7, budgets=(1,)))
    with pytest.raises(CapacityError, match=r"^10668000 arms x 255 nodes"):
        load_structure(ExperimentConfig(source="tree", tree_height=7, budgets=(4,)))
    assert sweep._tree_dag.cache_info()[:2] == (1, 2)  # refused before the cache is read


def small_bif(edges) -> str:
    """Three two-state variables A, B, C with the given (parent, child) edges."""
    lines = ["network small {", "}"]
    for name in "ABC":
        lines += [f"variable {name} {{", "  type discrete [ 2 ] { on, off };", "}"]
    for name in "ABC":
        parents = [p for p, c in edges if c == name]
        if not parents:
            lines += [f"probability ( {name} ) {{", "  table 0.5, 0.5;", "}"]
            continue
        lines.append(f"probability ( {name} | {', '.join(parents)} ) {{")
        for states in itertools.product(("on", "off"), repeat=len(parents)):
            lines.append(f"  ({', '.join(states)}) 0.5, 0.5;")
        lines.append("}")
    return "\n".join(lines) + "\n"


def test_a_network_file_is_parsed_again_on_every_call(tmp_path):
    path = tmp_path / "small.bif"
    path.write_text(small_bif([("A", "B")]))
    config = ExperimentConfig(source="bif", bif=str(path))
    label, before, _ = load_structure(config)
    path.write_text(small_bif([("A", "B"), ("B", "C")]))
    _, after, _ = load_structure(config)
    assert label == "small"
    assert sum(map(len, before.parents)) == 1
    assert sum(map(len, after.parents)) == 2


def test_an_unknown_network_name_raises_on_every_call():
    config = ExperimentConfig(source="bif", bif="no-such-network")
    for _ in range(2):
        with pytest.raises(FileNotFoundError, match="neither a file nor a bundled network"):
            load_structure(config)
