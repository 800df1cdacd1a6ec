"""Seeded regret sweeps over budgets, horizons, and strategies, with CSV output.

Every sweep cell (budget, multiplier, strategy) is independent: each trial
runs the strategy against a budget-capped environment on the trial's
instance. All randomness is derived from the base seed through a 64-bit mix
of the cell coordinates (see `mix_seed`), so reruns of the same config
produce byte-identical reports. The table seed omits the strategy, so the
sweep draws each table once, up front, per (budget, multiplier, table
trial), and every strategy of that row of cells gets the same `Instance`
objects in its payload; an instance's reward vector is computed by one sweep
on first use and kept (`Instance.rewards`), so regret scoring runs once per
table, not once per strategy. A bundled network is parsed, and a tree of a
height built, once per process, and its one frozen `CausalDag` serves every
sweep; a file path is parsed on every sweep. The arms are built once per
budget. Cells may be fanned out over processes via the CAUSALBANDIT_WORKERS
environment variable, each worker scoring its own copy of a cell's
instances; results are reduced in a fixed order either way.
Cells where successive rejects could pull nothing (horizon at most the arm
count), and proposed-strategy cells with trials whose estimates take one
value over every arm, run as usual and are listed in `RegretReport.warnings`.
"""
from __future__ import annotations

import csv
import functools
import io
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bif import load_bundled, parse_bif, to_causal_dag
from .errors import BudgetError, CapacityError, ParameterError
from .inference import SimulatedEnvironment
from .model import (
    CausalDag,
    Instance,
    InterventionSet,
    check_binary_tree,
    enumerate_budget_interventions,
    enumerate_root_interventions,
    make_binary_tree_dag,
    random_conditional_table,
    uncertain_rows,
)
from .strategies import (
    run_causal_bandit,
    run_successive_rejects,
    run_uniform_baseline,
    simple_regret,
)

STRATEGIES = ("proposed-paper", "proposed-practical", "successive-rejects", "uniform")
PROPOSED = ("proposed-paper", "proposed-practical")

_MASK = (1 << 64) - 1

# domain tags keep the table, environment, and draw streams disjoint
_TABLE_TAG = 1
_ENV_TAG = 2
_DRAW_TAG = 3


def _splitmix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix_seed(*parts: int) -> int:
    """Fold integers into one 64-bit seed: xor each part into the state and
    scramble with the splitmix64 finalizer. Stated so that other tooling can
    reproduce the per-cell streams."""
    state = 0
    for p in parts:
        state = _splitmix(state ^ (int(p) & _MASK))
    return state


@dataclass(frozen=True)
class ExperimentConfig:
    source: str = "tree"
    tree_height: int = 4
    bif: str | None = None
    budgets: tuple[int, ...] = (2,)
    multipliers: tuple[int, ...] = (3,)
    trials: int = 1
    seed: int = 0
    strategies: tuple[str, ...] = ("proposed-practical",)
    fix_alpha: bool = False
    timing: bool = False

    def validated(self) -> "ExperimentConfig":
        if self.source not in ("tree", "bif"):
            raise ParameterError(f"source must be 'tree' or 'bif', got {self.source!r}")
        if self.source == "tree" and self.tree_height < 1:
            raise ParameterError("tree_height must be >= 1")
        if self.source == "bif" and not self.bif:
            raise ParameterError("bif source needs a file path or bundled name")
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise ParameterError("budgets must be positive integers")
        if not self.multipliers or any(m < 1 for m in self.multipliers):
            raise ParameterError("multipliers must be positive integers")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if not self.strategies:
            raise ParameterError("no strategies selected")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ParameterError(
                    f"unknown strategy {s!r}; choose from {', '.join(STRATEGIES)}")
        if any(s in PROPOSED for s in self.strategies):
            low = [m for m in self.multipliers if m < 3]
            if low:
                raise ParameterError(
                    f"multipliers {low} are below 3; the proposed strategies need "
                    "a horizon of at least 3 rows per uncertain entry")
        return self


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _parse_bool(key: str, value: str) -> bool:
    try:
        return _BOOL_WORDS[value.strip().lower()]
    except KeyError:
        raise ParameterError(f"{key} expects true/false, got {value!r}") from None


def _parse_int_list(key: str, value: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in value.replace(" ", "").split(",") if x)
    except ValueError:
        raise ParameterError(f"{key} expects comma-separated integers, got {value!r}") \
            from None


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and #-comments are skipped."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    config = ExperimentConfig()
    handlers = {
        "source": lambda v: replace(config, source=v),
        "tree_height": lambda v: replace(config, tree_height=int(v)),
        "bif": lambda v: replace(config, bif=v),
        "budgets": lambda v: replace(config, budgets=_parse_int_list("budgets", v)),
        "multipliers": lambda v: replace(config,
                                         multipliers=_parse_int_list("multipliers", v)),
        "trials": lambda v: replace(config, trials=int(v)),
        "seed": lambda v: replace(config, seed=int(v)),
        "strategies": lambda v: replace(
            config, strategies=tuple(s.strip() for s in v.split(",") if s.strip())),
        "fix_alpha": lambda v: replace(config, fix_alpha=_parse_bool("fix_alpha", v)),
        "timing": lambda v: replace(config, timing=_parse_bool("timing", v)),
    }
    for key, value in mapping.items():
        if key not in handlers:
            raise ParameterError(f"unknown config key {key!r}")
        try:
            config = handlers[key](value)
        except ValueError:
            raise ParameterError(f"bad value for {key}: {value!r}") from None
    return config.validated()


def load_structure(config: ExperimentConfig) -> tuple[str, CausalDag, tuple[int, ...]]:
    """Instance label, graph, and the intervention target nodes. A tree too
    large for the arms of every one of `config.budgets` is refused unbuilt."""
    if config.source == "tree":
        leaves = check_binary_tree(config.tree_height, config.budgets)  # on every config
        return f"tree-h{config.tree_height}", _tree_dag(config.tree_height), tuple(range(leaves))
    name = config.bif
    if os.path.isfile(name):  # a file may change, so it is read on every call
        with open(name, encoding="utf-8") as handle:
            dag, _ = to_causal_dag(parse_bif(handle.read()))
        label = os.path.splitext(os.path.basename(name))[0]
    else:
        dag, label = _bundled_dag(name), name
    return label, dag, dag.roots


@functools.lru_cache(maxsize=None)  # a name that raises is not kept, so only bundled ones are
def _bundled_dag(name: str) -> CausalDag:
    """The graph of a bundled network, parsed once per process and shared."""
    return to_causal_dag(load_bundled(name))[0]


# one tree graph per height, built once per process and shared; at most 25 heights pass the check
_tree_dag = functools.lru_cache(maxsize=None)(make_binary_tree_dag)


def build_arms(config: ExperimentConfig, dag: CausalDag, targets, budget: int):
    """Tree sources fix every target (chosen 1, rest 0); graph-file sources
    set chosen roots to 1 and leave everything else free, one arm per nonempty
    subset up to the budget."""
    if config.source == "tree":
        return enumerate_budget_interventions(dag.node_count, targets, budget)
    return enumerate_root_interventions(dag.node_count, targets, budget)


@dataclass(frozen=True)
class RegretRow:
    instance: str
    strategy: str
    budget: int
    horizon: int
    trials: int
    mean_regret: float
    std_err: float
    runtime_ms: float


@dataclass(frozen=True)
class CellFailure:
    budget: int
    multiplier: int
    strategy: str
    message: str


@dataclass(frozen=True)
class CellWarning:
    """A cell that ran, but in a regime where its regret says little."""
    budget: int
    multiplier: int
    strategy: str
    message: str


@dataclass
class RegretReport:
    rows: list[RegretRow]
    failures: list[CellFailure]
    warnings: list[CellWarning] = field(default_factory=list)

    CSV_HEADER = "instance,strategy,budget,horizon,trials,mean_regret,std_err,runtime_ms"

    def to_csv(self) -> str:
        """The header and a line per row; a field with a comma or a quote,
        such as a label taken from a file name, is quoted."""
        out = io.StringIO()
        out.write(self.CSV_HEADER + "\n")
        csv.writer(out, lineterminator="\n").writerows(
            (r.instance, r.strategy, r.budget, r.horizon, r.trials, f"{r.mean_regret:.10g}",
             f"{r.std_err:.10g}", f"{r.runtime_ms:.10g}") for r in self.rows)
        return out.getvalue()


def _run_trial(strategy: str, instance: Instance, horizon: int, env_seed: int,
               draw_seed: int) -> tuple[float, float, bool]:
    """One trial's regret, the strategy's wall time in ms without the regret
    scoring, and whether a proposed strategy's estimates are one value over
    every arm (always False for a baseline)."""
    start = time.perf_counter()
    env = SimulatedEnvironment(instance, env_seed, max_experiments=horizon)
    if strategy in PROPOSED:
        mode = "paper" if strategy == "proposed-paper" else "practical"
        rng = np.random.default_rng(draw_seed)
        result = run_causal_bandit(env, instance.dag, instance.arms, horizon,
                                   mode, rng)
    elif strategy == "successive-rejects":
        result = run_successive_rejects(env, instance.dag, instance.arms, horizon)
    else:
        result = run_uniform_baseline(env, instance.dag, instance.arms, horizon)
    flat = strategy in PROPOSED and bool((result.mu_hat == result.mu_hat[0]).all())
    ms = (time.perf_counter() - start) * 1000.0
    return simple_regret(instance, [result.chosen]), ms, flat


def _draw_instances(config: ExperimentConfig, dag: CausalDag, arms: InterventionSet,
                    budget: int, multiplier: int) -> list[Instance]:
    """The instance of each trial of a (budget, multiplier): trial t's table
    from its own seed, or under `fix_alpha` trial 0's instance for all."""
    drawn = [Instance(dag, random_conditional_table(
                 dag, mix_seed(_TABLE_TAG, config.seed, budget, multiplier, t)), arms)
             for t in range(1 if config.fix_alpha else config.trials)]
    return drawn * config.trials if config.fix_alpha else drawn


def _run_cell(payload):
    """The cell's row, or its failure, and its warnings."""
    config, label, budget, multiplier, strategy, instances = payload
    if isinstance(instances, (ParameterError, CapacityError)):
        return CellFailure(budget, multiplier, strategy, str(instances)), []
    horizon = multiplier * uncertain_rows(instances[0].dag, instances[0].arms)
    cell = (config.seed, budget, multiplier, STRATEGIES.index(strategy))
    try:
        trials = [_run_trial(strategy, instance, horizon, mix_seed(_ENV_TAG, *cell, t),
                             mix_seed(_DRAW_TAG, *cell, t))
                  for t, instance in enumerate(instances)]
    except (BudgetError, ParameterError, CapacityError) as err:
        return CellFailure(budget, multiplier, strategy, str(err)), []
    regrets, elapsed, flat = zip(*trials)
    vals = np.asarray(regrets)
    std_err = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    runtime = float(np.mean(elapsed)) if config.timing else 0.0
    warnings, arm_count = [], len(instances[0].arms)
    if strategy == "successive-rejects" and horizon <= arm_count:
        warnings.append(f"horizon {horizon} is at most the arm count {arm_count}, "
                        "so successive rejects spent no experiments")
    if any(flat):
        warnings.append(f"{sum(flat)} of {len(flat)} trials estimated one reward for "
                        "every arm, so the tie-break chose arm 0")
    return (RegretRow(label, strategy, budget, horizon, config.trials,
                      float(np.mean(vals)), std_err, runtime),
            [CellWarning(budget, multiplier, strategy, w) for w in warnings])


def run_sweep(config: ExperimentConfig) -> RegretReport:
    config = config.validated()
    text = os.environ.get("CAUSALBANDIT_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        raise ParameterError(
            f"CAUSALBANDIT_WORKERS expects an integer, got {text!r}") from None
    if workers < 1:
        raise ParameterError(f"CAUSALBANDIT_WORKERS must be at least 1, got {workers}")
    label, dag, targets = load_structure(config)
    instances = {}
    for budget in config.budgets:
        try:
            arms = build_arms(config, dag, targets, budget)
        except (ParameterError, CapacityError) as err:
            # reported by each of the budget's cells
            instances.update({(budget, m): err for m in config.multipliers})
            continue
        for multiplier in config.multipliers:
            instances[budget, multiplier] = _draw_instances(config, dag, arms,
                                                            budget, multiplier)
    payloads = [(config, label, budget, multiplier, strategy, instances[budget, multiplier])
                for budget in config.budgets
                for multiplier in config.multipliers
                for strategy in config.strategies]
    # the pool starts every worker up front, so never more than there are cells
    workers = min(workers, len(payloads))
    if workers > 1:
        # imported here: it loads multiprocessing, which a one-process run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, payloads))
    else:
        outcomes = [_run_cell(p) for p in payloads]
    report = RegretReport([], [])
    for outcome, warnings in outcomes:
        if isinstance(outcome, CellFailure):
            report.failures.append(outcome)
        else:
            report.rows.append(outcome)
        report.warnings += warnings
    return report
