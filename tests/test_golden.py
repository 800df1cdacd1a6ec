"""Sweep reports and CLI output pinned byte for byte.

The stored CSVs under `tests/data/` are `run_sweep(...).to_csv()` of the
configs below with `timing` off. Sampling, count folding, inference, the
solver and the seed mixing all feed them, so a change to any of these that
moves one byte fails here. The stored text files are the standard output of
the `gamma` and `gen` commands below: `gamma` pins the parent-row marginals
on true, fully stochastic tables and the allocation solver that reads them.
`golden_paper_phase2.json` pins paper-mode phase 2 at truncation scales where
pairs survive into the allocation objective (the default scale, like 1e-4,
truncates every pair on these instances, so the CSVs never reach a solve with
terms). `golden_gamma_solver.json` pins the allocation solver bit for bit at
the benchmark's scale: the exact value and gap, the iteration count and a
hash of the weights' bytes, as `json.dumps(solver_outputs(), indent=1)` wrote
them. The `golden_run_*` pairs are the standard output and standard error
of the `run` grids below, budgets 2, 4 and 8 at multipliers 3, 6 and 9 with
every strategy, one process: the CSV and the warning lines of each cell.
Replace a stored file only in a change that shows and explains the diff.
"""
import hashlib
import json
import pathlib

import pytest

from causalbandit import sweep
from causalbandit.allocation import SolverConfig, allocation_complexity
from causalbandit.cli import main
from causalbandit.inference import SimulatedEnvironment
from causalbandit.model import Instance, random_conditional_table
from causalbandit.phase1 import run_phase1
from causalbandit.phase2 import run_phase2
from causalbandit.sweep import STRATEGIES, ExperimentConfig, build_arms, load_structure, run_sweep

DATA = pathlib.Path(__file__).parent / "data"

CASES = {
    # the benchmark's network at multipliers where phase 1 skips queries, and not
    "golden_alarm_b2.csv": ExperimentConfig(
        source="bif", bif="alarm", budgets=(2,), multipliers=(3, 9), trials=2, seed=7,
        strategies=STRATEGIES),
    # phase 2's resample over many arms: picked arms drawn 1 to 348 times
    "golden_alarm_b4_proposed.csv": ExperimentConfig(
        source="bif", bif="alarm", budgets=(4,), multipliers=(3, 9), trials=2, seed=7,
        strategies=("proposed-paper", "proposed-practical")),
    "golden_tree_h3_b2.csv": ExperimentConfig(
        source="tree", tree_height=3, budgets=(2,), multipliers=(3, 6), trials=2, seed=7,
        strategies=STRATEGIES),
    # the baselines' sampler calls: at 3C = 180 draws over 120 arms, uniform's
    # one call draws two runs of batches, 60 of size 2 and 60 of size 1
    "golden_tree_h4_baselines_b2.csv": ExperimentConfig(
        source="tree", tree_height=4, budgets=(2,), multipliers=(3, 6, 9), trials=2, seed=7,
        strategies=("uniform", "successive-rejects")),
    "golden_water_b2.csv": ExperimentConfig(
        source="bif", bif="water", budgets=(2,), multipliers=(3,), trials=1, seed=7,
        strategies=STRATEGIES),
}

COMMANDS = {
    "golden_gamma_tree_h3_b2.txt": ["gamma", "--tree-height", "3", "--budget", "2"],
    "golden_gamma_alarm_b2.txt": ["gamma", "--bif", "alarm", "--budget", "2"],
    "golden_gen_water_b2_4_8.txt": ["gen", "--bif", "water", "--budgets", "2,4,8"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_report_matches_stored_csv(name, monkeypatch):
    monkeypatch.setenv("CAUSALBANDIT_WORKERS", "1")
    want = (DATA / name).read_text(encoding="utf-8")
    assert run_sweep(CASES[name]).to_csv() == want


def test_a_shared_network_leaks_no_state_between_sweeps(monkeypatch):
    """A bundled network's graph is parsed once per process and serves every
    sweep, so a sweep that runs on it warm must give the same bytes as one
    that parses it cold."""
    monkeypatch.setenv("CAUSALBANDIT_WORKERS", "1")
    want = (DATA / "golden_alarm_b2.csv").read_text(encoding="utf-8")
    sweep._bundled_dag.cache_clear()
    cold = run_sweep(CASES["golden_alarm_b2.csv"]).to_csv()
    assert sweep._bundled_dag.cache_info().currsize == 1
    warm = run_sweep(CASES["golden_alarm_b2.csv"]).to_csv()
    assert sweep._bundled_dag.cache_info().hits >= 1
    assert (cold, warm) == (want, want)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_stored_text(name, capsys):
    want = (DATA / name).read_text(encoding="utf-8")
    assert main(COMMANDS[name]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (want, "")


GRID = ["--set", "budgets=2,4,8", "--set", "multipliers=3,6,9", "--set", "trials=3",
        "--set", "seed=7",
        "--set", "strategies=proposed-paper,proposed-practical,uniform,successive-rejects"]

RUN_GRIDS = {
    "golden_run_tree_h4": ["--set", "source=tree", "--set", "tree_height=4"],
    "golden_run_water": ["--set", "source=bif", "--set", "bif=water"],
    "golden_run_alarm": ["--set", "source=bif", "--set", "bif=alarm"],
}


@pytest.mark.parametrize("name", sorted(RUN_GRIDS))
def test_run_grid_matches_stored_csv_and_warnings(name, capsys, monkeypatch):
    monkeypatch.setenv("CAUSALBANDIT_WORKERS", "1")
    want = ((DATA / f"{name}.csv").read_text(encoding="utf-8"),
            (DATA / f"{name}_stderr.txt").read_text(encoding="utf-8"))
    assert main(["run", *RUN_GRIDS[name], *GRID]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == want


PAPER_CASES = {
    "tree_h3_b2": (ExperimentConfig(source="tree", tree_height=3), (1e-4, 1e-8, 0.0)),
    "water_b2": (ExperimentConfig(source="bif", bif="water"), (1e-4, 1e-11, 0.0)),
}


def paper_phase2(name):
    """Paper-mode phase 2 at each of the case's truncation scales, as plain
    numbers: horizon 6C, table seed 7."""
    config, scales = PAPER_CASES[name]
    _, dag, targets = load_structure(config)
    arms = build_arms(config, dag, targets, 2)
    inst = Instance(dag, random_conditional_table(dag, 7), arms)
    out = {}
    for scale in scales:
        p1 = run_phase1(SimulatedEnvironment(inst, 1), dag, arms, scale, 6 * inst.uncertain_rows)
        res = run_phase2(SimulatedEnvironment(inst, 2), p1, "paper", rng=3)
        out[repr(scale)] = {
            "weights": res.weights.tolist(),
            "estimate": [r.tolist() for r in res.estimate.rows],
            "value": res.solver.value,
            "gap": res.solver.gap,
            "iterations": res.solver.iterations,
        }
    return out


@pytest.mark.parametrize("name", sorted(PAPER_CASES))
def test_paper_phase2_matches_stored_numbers(name):
    want = json.loads((DATA / "golden_paper_phase2.json").read_text(encoding="utf-8"))[name]
    got = paper_phase2(name)
    assert list(got) == list(want), f"{name}: scales differ"
    for scale, fields in want.items():
        assert list(got[scale]) == list(fields), f"{name} scale {scale}: fields differ"
        for field, value in fields.items():
            assert got[scale][field] == value, f"{name} scale {scale}: {field} differs"


SOLVER_CASES = {
    "tree_h4_b4": ExperimentConfig(source="tree", tree_height=4),
    "alarm_b4": ExperimentConfig(source="bif", bif="alarm"),
    "water_b4": ExperimentConfig(source="bif", bif="water"),
}


def solver_outputs():
    """`allocation_complexity` with the default solver at budget 4, table seed
    7, with floats as their repr and the weights as the sha256 of their bytes."""
    out = {}
    for name, config in SOLVER_CASES.items():
        _, dag, targets = load_structure(config)
        arms = build_arms(config, dag, targets, 4)
        res = allocation_complexity(Instance(dag, random_conditional_table(dag, 7), arms),
                                    SolverConfig())
        out[name] = {
            "value": repr(res.value),
            "gap": repr(res.gap),
            "iterations": res.iterations,
            "converged": res.converged,
            "weights_sha256": hashlib.sha256(res.weights.tobytes()).hexdigest(),
        }
    return out


def test_gamma_solver_matches_stored_bits():
    want = json.loads((DATA / "golden_gamma_solver.json").read_text(encoding="utf-8"))
    assert solver_outputs() == want
