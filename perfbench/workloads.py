"""The benchmark's workloads: inputs made from the seed, the timed section and
the output checks.

A workload's `setup` builds and validates a round's inputs as a list of
parts, `run` is the timed section of one part and `check` compares the
round's outputs, one per part, with the references in `reference.py` and
with properties the method promises. The parts are what lets the benchmark
measure the machine's speed between them (see `speed.py`). An operation is
one trial of a sweep cell or one allocation solve; `check` returns how many
of a round's operations failed and a line for every problem it found. Each
round is one closed loop: a trial or solve starts when the previous one has
ended.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import causalbandit as cb
from causalbandit import allocation, model, sweep

import reference as ref

SAMPLER_DRAWS = 8000  # forward samples per arm
REGRET_TOLERANCE = 1e-9


class SetupError(Exception):
    """The inputs a seed makes do not validate."""


class RegretCapture:
    """Records each trial's instance, chosen arm and regret, by wrapping the
    `simple_regret` that the sweep looks up. One wrapper call per trial is
    all it adds to a timed round."""

    def __init__(self):
        self.trials: list[tuple[model.Instance, model.Intervention, float]] = []

    def __enter__(self) -> "RegretCapture":
        self._original = original = sweep.simple_regret
        trials = self.trials

        def capture(instance, chosen):
            regret = original(instance, chosen)
            trials.append((instance, chosen[0], regret))
            return regret

        sweep.simple_regret = capture
        return self

    def __exit__(self, *exc) -> None:
        sweep.simple_regret = self._original


@dataclass
class SweepInput:
    config: sweep.ExperimentConfig
    label: str
    dag: model.CausalDag
    arms: dict[int, model.InterventionSet]

    def cells(self):
        """(budget, multiplier, strategy) in the order `run_sweep` reports them."""
        return [(b, m, s) for b in self.config.budgets for m in self.config.multipliers
                for s in self.config.strategies]


def _close(a: float, b: float, tolerance: float) -> bool:
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


def arm_index(instance, chosen) -> int | None:
    """Row of the instance's arm matrix that equals the chosen arm, if any."""
    hits = np.flatnonzero((instance.arms.matrix == np.asarray(chosen.values)).all(axis=1))
    return int(hits[0]) if len(hits) else None


def tree_trial_problem(instance, chosen, regret, rng) -> str | None:
    """Regret must equal best minus chosen reward from the exact tree recursion."""
    index = arm_index(instance, chosen)
    if index is None:
        return f"chosen arm {chosen.values} is not in the arm set"
    matrix = instance.arms.matrix
    rewards = ref.tree_marginals(instance.dag.parents, instance.table.rows, matrix)[-1]
    want = float(rewards.max() - rewards[index])
    if not _close(regret, want, REGRET_TOLERANCE):
        return f"regret {regret!r} but the tree recursion gives {want!r}"
    return None


def sampled_trial_problem(instance, chosen, regret, rng) -> str | None:
    """Regret lies in [0, 1] and is the program's best minus chosen reward,
    and the program's reward of every arm agrees with the forward sampler
    within its tolerance, so that a wrong choice of best arm shows too."""
    index = arm_index(instance, chosen)
    if index is None:
        return f"chosen arm {chosen.values} is not in the arm set"
    rewards = cb.target_probabilities(instance.table, instance.dag, instance.arms)
    best_reward = float(rewards.max())
    chosen_reward = cb.target_probability(instance.table, instance.dag, chosen)
    if not 0.0 <= regret <= 1.0:
        return f"regret {regret!r} outside [0, 1]"
    if not _close(chosen_reward, float(rewards[index]), REGRET_TOLERANCE):
        return (f"chosen reward {chosen_reward!r} but the arm's entry of all rewards "
                f"is {float(rewards[index])!r}")
    if not _close(regret, best_reward - chosen_reward, REGRET_TOLERANCE):
        return f"regret {regret!r} is not best {best_reward!r} - chosen {chosen_reward!r}"
    sampled = ref.sample_rewards(instance.dag.parents, instance.table.rows,
                                 instance.arms.matrix, SAMPLER_DRAWS, rng)
    for a, (p, got) in enumerate(zip(rewards, sampled)):
        if abs(got - p) > ref.sampler_tolerance(float(p), SAMPLER_DRAWS):
            return f"arm {a} reward {float(p)!r} but the forward sampler gives {float(got)!r}"
    return None


class SweepWorkload:
    """`run_sweep` and then `to_csv` for each part. Each mapping comes with
    its number of parts; part j of a round with seed s runs the mapping's
    config with base seed 100 s + j."""

    def __init__(self, mappings, trial_problem):
        self.mappings = mappings
        self.trial_problem = trial_problem

    def setup(self, seed: int) -> list[SweepInput]:
        inputs = []
        for mapping, parts in self.mappings:
            configs = [sweep.config_from_mapping({**mapping, "seed": str(100 * seed + j)})
                       for j in range(parts)]
            label, dag, targets = sweep.load_structure(configs[0])
            arms = {b: sweep.build_arms(configs[0], dag, targets, b)
                    for b in configs[0].budgets}
            for b, arm_set in arms.items():
                report = model.validate(dag, arms=arm_set)
                if not report.ok:
                    raise SetupError(f"{label} b={b}: {report.violations}")
            inputs += [SweepInput(config, label, dag, arms) for config in configs]
        return inputs

    @staticmethod
    def run(part: SweepInput):
        report = sweep.run_sweep(part.config)
        return report, report.to_csv()

    @staticmethod
    def signature(outputs) -> str:
        return "".join(csv for _, csv in outputs)

    @staticmethod
    def ops(inputs) -> int:
        return sum(len(i.cells()) * i.config.trials for i in inputs)

    @staticmethod
    def cells(outputs) -> int:
        return sum(len(r.rows) + len(r.failures) for r, _ in outputs)

    def check(self, inputs, outputs, trials, seed: int):
        """Failed operations and problems of one round. When a cell fails, the
        captured trials can no longer be matched to cells, so the other
        cells go unchecked and only the failed cells' trials count as
        failed."""
        reports = [report for report, _ in outputs]
        failures = [(i, f) for i, report in zip(inputs, reports) for f in report.failures]
        if failures:
            return sum(i.config.trials for i, _ in failures), [
                f"{i.label} b={f.budget} m={f.multiplier} {f.strategy}: cell failed: "
                f"{f.message}" for i, f in failures]
        if len(trials) != self.ops(inputs):
            return self.ops(inputs), [f"{len(trials)} trials captured, "
                                      f"{self.ops(inputs)} run"]
        failed, problems, first = 0, [], 0
        for i, report in zip(inputs, reports):
            for b, arm_set in i.arms.items():
                want = (ref.tree_arm_count(i.config.tree_height, b) if i.config.source == "tree"
                        else ref.root_arm_count(sum(1 for ps in i.dag.parents if not ps), b))
                if len(arm_set) != want:
                    problems.append(f"{i.label} b={b}: {len(arm_set)} arms, expected {want}")
            if len(report.rows) != len(i.cells()):
                return self.ops(inputs), problems + [
                    f"{i.label}: {len(report.rows)} rows for {len(i.cells())} cells"]
            for row, (b, m, s) in zip(report.rows, i.cells()):
                where = f"{i.label} b={b} m={m} {s}"
                horizon = m * ref.uncertain_rows(i.dag.parents, i.arms[b].matrix)
                cell = []
                if (row.instance, row.strategy, row.budget, row.trials) != \
                        (i.label, s, b, i.config.trials):
                    cell.append(f"{where}: row is {row}")
                if row.horizon != horizon:
                    cell.append(f"{where}: horizon {row.horizon}, expected {horizon}")
                if not (0.0 <= row.mean_regret <= 1.0 and row.std_err >= 0.0):
                    cell.append(f"{where}: mean regret {row.mean_regret}, "
                                f"std err {row.std_err}")
                cell += self._trial_problems(where, row, trials[first:first + row.trials],
                                             seed, first)
                first += row.trials
                if cell:
                    failed += row.trials
                    problems += cell
        return failed, problems

    def _trial_problems(self, where, row, cell_trials, seed, first):
        """Reference checks of a cell's trials; trial `first + k` of the round
        seeds its own forward sampler."""
        problems = []
        regrets = [regret for _, _, regret in cell_trials]
        for k, (instance, chosen, regret) in enumerate(cell_trials):
            rng = np.random.default_rng((seed, first + k))
            problem = self.trial_problem(instance, chosen, regret, rng)
            if problem:
                problems.append(f"{where} trial {k}: {problem}")
        mean = float(np.mean(regrets))
        std_err = float(np.std(regrets, ddof=1) / math.sqrt(len(regrets))) \
            if len(regrets) > 1 else 0.0
        if not (_close(row.mean_regret, mean, REGRET_TOLERANCE)
                and _close(row.std_err, std_err, REGRET_TOLERANCE)):
            problems.append(f"{where}: reported mean {row.mean_regret} std err "
                            f"{row.std_err}, trials give {mean} {std_err}")
        return problems


@dataclass
class GammaInput:
    label: str
    config: sweep.ExperimentConfig
    instance: model.Instance


class GammaWorkload:
    """`allocation_complexity` on each instance, as the `gamma` command calls it."""

    def __init__(self, sources, tables_per_source: int):
        self.sources = sources
        self.tables_per_source = tables_per_source

    def setup(self, seed: int) -> list[GammaInput]:
        inputs = []
        for s, mapping in enumerate(self.sources):
            config = sweep.config_from_mapping(mapping)
            label, dag, targets = sweep.load_structure(config)
            arms = sweep.build_arms(config, dag, targets, config.budgets[0])
            for j in range(self.tables_per_source):
                table = model.random_conditional_table(dag, (seed, s, j))
                report = model.validate(dag, table, arms)
                if not report.ok:
                    raise SetupError(f"{label}: {report.violations}")
                inputs.append(GammaInput(label, config, model.Instance(dag, table, arms)))
        return inputs

    @staticmethod
    def run(part: GammaInput):
        return allocation.allocation_complexity(part.instance, allocation.SolverConfig())

    @staticmethod
    def signature(outputs) -> str:
        return repr([(r.value, r.gap, r.converged, r.n_terms, r.weights.tolist())
                     for r in outputs])

    @staticmethod
    def ops(inputs) -> int:
        return len(inputs)

    @staticmethod
    def cells(outputs) -> int:
        return 0

    @staticmethod
    def check(inputs, outputs, trials, seed: int):
        """Weights on the simplex, gap >= 0, 0 < gamma <= N x C; on trees the
        reference objective at the returned weights gives gamma back."""
        failed, problems = 0, []
        for k, (i, r) in enumerate(zip(inputs, outputs)):
            inst = i.instance
            bound = inst.dag.node_count * ref.uncertain_rows(inst.dag.parents, inst.arms.matrix)
            w = np.asarray(r.weights)
            where = f"{i.label} solve {k}"
            found = []
            if not (w.shape == (len(inst.arms),) and np.all(np.isfinite(w))
                    and w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-9):
                found.append(f"{where}: weights are not on the simplex")
            elif i.config.source == "tree":
                want = ref.tree_gamma(inst.dag.parents, inst.table.rows, inst.arms.matrix, w)
                if not _close(r.value, want, REGRET_TOLERANCE):
                    found.append(f"{where}: gamma {r.value!r}, the tree objective "
                                 f"gives {want!r}")
            if not r.gap >= 0.0:
                found.append(f"{where}: gap {r.gap!r} < 0")
            if not 0.0 < r.value <= bound:
                found.append(f"{where}: gamma {r.value!r} outside (0, {bound}]")
            if found:
                failed += 1
                problems += found
        return failed, problems


WORKLOADS = {
    # Phase-1 parent queries on partly estimated tables dominate. Both networks
    # run at budget 2: at higher budgets the cost of a trial depends on
    # whether phase 1 leaves some rare parent row unseen (see README.md).
    "bif-practical": SweepWorkload(
        [({"source": "bif", "bif": "alarm", "budgets": "2", "multipliers": "3",
           "trials": "1", "strategies": "proposed-practical"}, 4),
         ({"source": "bif", "bif": "water", "budgets": "2", "multipliers": "3",
           "trials": "1", "strategies": "proposed-practical"}, 1)],
        sampled_trial_problem),
    # Sampling dominates and no parent query runs; every horizon is at least
    # the arm count, so successive rejects really spends its budget.
    "tree-baselines": SweepWorkload(
        [({"source": "tree", "tree_height": "4", "budgets": "2", "multipliers": "3,6,9",
           "trials": "1", "strategies": "uniform,successive-rejects"}, 12)],
        tree_trial_problem),
    # The solver and parent queries on true tables.
    "gamma": GammaWorkload(
        [{"source": "tree", "tree_height": "4", "budgets": "4"},
         {"source": "bif", "bif": "alarm", "budgets": "4"},
         {"source": "bif", "bif": "water", "budgets": "4"}],
        tables_per_source=2),
}
