"""The benchmark's tracer wraps functions by (module, attribute) name, so a
rename in the package would silently stop it from tracing; these tests make
such a rename fail here instead."""
import importlib.util
import pathlib

import causalbandit
from causalbandit.allocation import allocation_complexity
from causalbandit.model import make_binary_tree_instance
from causalbandit.sweep import ExperimentConfig, run_sweep

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    tracer = load_tracer()
    missing = [(module, attribute) for module, attribute, _ in tracer.TRACE_POINTS
               if not callable(getattr(getattr(causalbandit, module, None), attribute, None))]
    assert missing == []


def test_traced_sweep_fills_every_digest():
    tracer = load_tracer()
    config = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3,), trials=1,
                              strategies=("proposed-paper", "proposed-practical",
                                          "successive-rejects"))
    with tracer.Tracer(causalbandit) as traced:
        report = run_sweep(config)
        allocation_complexity(make_binary_tree_instance(2, 1, 0))
    assert len(report.rows) == 3 and not report.failures
    layers = {span[0] for span in traced.spans}
    assert set(tracer.DIGESTS) <= layers
    assert all(span[4] is not None for span in traced.spans if span[0] in tracer.DIGESTS)


def test_traced_draws_equal_the_experiments_used():
    # one sampler call may draw many batches; its `draws` digest must still
    # count every experiment the strategies report
    tracer = load_tracer()
    config = ExperimentConfig(tree_height=2, budgets=(1,), multipliers=(3, 6), trials=1,
                              strategies=("proposed-paper", "proposed-practical",
                                          "uniform", "successive-rejects"))
    with tracer.Tracer(causalbandit) as traced:
        report = run_sweep(config)
    assert len(report.rows) == 8 and not report.failures
    draws = sum(span[4]["draws"] for span in traced.spans if span[0] == "inference.sample")
    used = sum(span[4]["used"] for span in traced.spans
               if span[0] in ("strategies.proposed", "strategies.baseline"))
    assert used > 0
    assert draws == used
