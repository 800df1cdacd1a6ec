"""Command-line front end: instance summaries, regret sweeps, allocation
complexity, and network-file validation.

Exit codes: 0 success, 1 usage error (bad flags or parameter values),
2 data error (unreadable or malformed network file). All diagnostics go to
standard error; reports go to standard output unless --out is given.
"""
from __future__ import annotations

import argparse
import sys

from .allocation import SolverConfig, allocation_complexity
from .bif import parse_bif, to_causal_dag
from .errors import (
    BifParseError,
    BudgetError,
    CapacityError,
    IllPosedObjectiveError,
    ParameterError,
)
from .model import (
    Instance,
    Intervention,
    InterventionSet,
    check_binary_tree,
    random_conditional_table,
    subset_arm_count,
)
from .sweep import (
    ExperimentConfig,
    build_arms,
    config_from_mapping,
    _parse_int_list,
    load_structure,
    parse_config_text,
    run_sweep,
)

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; this harness reserves 2 for
    data errors, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="causalbandit",
                     description="Best-arm identification on binary causal DAGs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[_source_flags()],
                         help="print instance size, uncertain-row count, and "
                              "arm counts per budget")
    gen.add_argument("--budgets", default="2,4,8",
                     help="comma-separated intervention budgets")

    run = sub.add_parser("run", help="run a regret sweep and emit a CSV report")
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    run.add_argument("--out", help="write the CSV here instead of standard output")

    gamma = sub.add_parser("gamma", parents=[_source_flags()],
                           help="compute the allocation complexity of an instance")
    gamma.add_argument("--budget", type=int, default=2,
                       help="intervention budget used to enumerate arms")
    gamma.add_argument("--arms", help="explicit arms as comma-separated strings "
                                      "over {0,1,*}, one character per node; "
                                      "overrides --budget")
    gamma.add_argument("--alpha-seed", type=int, default=0,
                       help="seed for the randomly drawn conditional table")
    gamma.add_argument("--max-iters", type=int, default=2000)
    gamma.add_argument("--tolerance", type=float, default=1e-4)

    pb = sub.add_parser("parse-bif", help="validate a network file and print "
                                          "its structure")
    pb.add_argument("path", help="network file to parse")
    return parser


def _source_flags() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    group = flags.add_mutually_exclusive_group()
    group.add_argument("--tree-height", type=int, default=4,
                       help="height of the synthetic complete binary tree")
    group.add_argument("--bif", help="network file path, else bundled name "
                                     "(alarm, water)")
    return flags


def _source_config(args, budgets: tuple[int, ...]) -> ExperimentConfig:
    if args.bif:
        return ExperimentConfig(source="bif", bif=args.bif)
    return ExperimentConfig(source="tree", tree_height=args.tree_height, budgets=budgets)


def _parse_budgets(text: str) -> list[int]:
    budgets = list(_parse_int_list("--budgets", text))
    if not budgets:
        raise ParameterError("--budgets lists no budgets")
    return budgets


def _cmd_gen(args, out) -> int:
    budgets = _parse_budgets(args.budgets)
    config = _source_config(args, tuple(budgets))
    label, dag, targets = load_structure(config)
    # |A| and C of `build_arms`' sets, without building them: every tree arm fixes
    # every target, and a graph-file arm fixes a root only when it is the only root
    tree = config.source == "tree"
    counts = [subset_arm_count(dag.node_count, len(targets), b, b if tree else 1) for b in budgets]
    fixed = targets if tree or len(targets) == 1 else ()
    out.write(f"instance: {label}\n")
    out.write(f"N={dag.node_count}\n")
    out.write(f"C={dag.total_rows - sum(dag.row_count(n) for n in fixed)}\n")
    out.write("|A|=" + "/".join(str(c) for c in counts) + "\n")
    for b, c in zip(budgets, counts):
        out.write(f"b={b}: |A|={c}\n")
    return 0


def _parse_arm_strings(text: str, node_count: int) -> InterventionSet:
    arms = []
    for token in text.split(","):
        token = token.strip()
        if len(token) != node_count:
            raise ParameterError(f"arm {token!r} has {len(token)} characters, "
                                 f"instance has {node_count} nodes")
        arms.append(Intervention.from_string(token))
    return InterventionSet.from_interventions(arms)


def _cmd_gamma(args, out) -> int:
    if args.alpha_seed < 0:
        raise ParameterError(f"--alpha-seed must be nonnegative, got {args.alpha_seed}")
    config = _source_config(args, () if args.arms else (args.budget,))
    if args.arms and config.source == "tree":  # a wrong length exits before the tree is built
        _parse_arm_strings(args.arms, 2 * check_binary_tree(args.tree_height) - 1)
    label, dag, targets = load_structure(config)
    if args.arms:
        arms = _parse_arm_strings(args.arms, dag.node_count)
    else:
        arms = build_arms(config, dag, targets, args.budget)
    table = random_conditional_table(dag, args.alpha_seed)
    instance = Instance(dag, table, arms)
    solver = SolverConfig(max_iters=args.max_iters, tolerance=args.tolerance)
    result = allocation_complexity(instance, solver)
    out.write(f"instance: {label}\n")
    out.write(f"N={dag.node_count}\n")
    out.write(f"arms={len(arms)}\n")
    out.write(f"gamma={result.value:.10g}\n")
    out.write(f"gap={result.gap:.10g}\n")
    out.write(f"converged={'true' if result.converged else 'false'}\n")
    out.write(f"terms={result.n_terms}\n")
    return 0


def _cmd_parse_bif(args, out) -> int:
    with open(args.path, encoding="utf-8") as fh:
        net = parse_bif(fh.read())
    dag, _ = to_causal_dag(net)
    out.write(f"name: {net.name}\n")
    out.write(f"variables: {len(net.variables)}\n")
    out.write(f"edges: {net.edge_count}\n")
    roots = net.root_names
    out.write(f"roots: {len(roots)} ({', '.join(roots)})\n")
    out.write(f"binary rows: {dag.total_rows}\n")
    return 0


def _cmd_run(args, out) -> int:
    mapping = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            mapping.update(parse_config_text(fh.read()))
    for item in args.set:
        if "=" not in item:
            raise ParameterError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    config = config_from_mapping(mapping)
    report = run_sweep(config)
    for f in report.failures:
        sys.stderr.write(f"warning: budget={f.budget} multiplier={f.multiplier} "
                         f"strategy={f.strategy} failed: {f.message}\n")
    for w in report.warnings:
        sys.stderr.write(f"warning: budget={w.budget} multiplier={w.multiplier} "
                         f"strategy={w.strategy}: {w.message}\n")
    csv = report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        out.write(csv)
    if not report.rows:
        sys.stderr.write("error: every sweep cell failed\n")
        return USAGE_ERROR
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handlers = {"gen": _cmd_gen, "run": _cmd_run, "gamma": _cmd_gamma,
                    "parse-bif": _cmd_parse_bif}
        return handlers[args.command](args, sys.stdout)
    except (BifParseError, OSError) as err:
        sys.stderr.write(f"data error: {err}\n")
        return DATA_ERROR
    except (ParameterError, BudgetError, CapacityError,
            IllPosedObjectiveError) as err:
        sys.stderr.write(f"error: {err}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
