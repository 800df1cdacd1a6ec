"""Sweep reports and CLI output pinned byte for byte.

The stored CSVs under `tests/data/` are `run_sweep(...).to_csv()` of the
configs below with `timing` off. Sampling, count folding, inference, the
solver and the seed mixing all feed them, so a change to any of these that
moves one byte fails here. The stored text files are the standard output of
the `gamma` and `gen` commands below: `gamma` pins the parent-row marginals
on true, fully stochastic tables and the allocation solver that reads them.
Replace a stored file only in a change that shows and explains the diff.
"""
import pathlib

import pytest

from causalbandit.cli import main
from causalbandit.sweep import STRATEGIES, ExperimentConfig, run_sweep

DATA = pathlib.Path(__file__).parent / "data"

CASES = {
    "golden_tree_h3_b2.csv": ExperimentConfig(
        source="tree", tree_height=3, budgets=(2,), multipliers=(3, 6), trials=2, seed=7,
        strategies=STRATEGIES),
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


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_stored_text(name, capsys):
    want = (DATA / name).read_text(encoding="utf-8")
    assert main(COMMANDS[name]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (want, "")
