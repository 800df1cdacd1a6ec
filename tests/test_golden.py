"""Sweep reports pinned byte for byte.

The stored CSVs under `tests/data/` are `run_sweep(...).to_csv()` of the
configs below with `timing` off. Sampling, count folding, inference, the
solver and the seed mixing all feed them, so a change to any of these that
moves one byte fails here. Replace a stored file only in a change that shows
and explains the diff.
"""
import pathlib

import pytest

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_report_matches_stored_csv(name, monkeypatch):
    monkeypatch.setenv("CAUSALBANDIT_WORKERS", "1")
    want = (DATA / name).read_text(encoding="utf-8")
    assert run_sweep(CASES[name]).to_csv() == want
