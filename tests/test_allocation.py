import tracemalloc

import numpy as np
import pytest

from causalbandit.allocation import (
    NUMERATOR_CUTOFF,
    STEP_SCALE,
    RatioObjective,
    SolverConfig,
    allocation_complexity,
    build_exact_objective,
    evaluate,
    minimize,
)
from causalbandit.errors import IllPosedObjectiveError, ParameterError
from causalbandit.model import FREE

from conftest import random_instance


def single_term(n_arms):
    return RatioObjective(np.ones((1, n_arms)), np.zeros(1))


@pytest.mark.parametrize("n_arms", [1, 2, 5, 17])
def test_uniform_single_unit_term_evaluates_to_one(n_arms):
    obj = single_term(n_arms)
    value, arg = evaluate(obj, np.full(n_arms, 1.0 / n_arms))
    assert value == pytest.approx(1.0)
    assert arg == 0


def test_hand_built_two_term_objective():
    # term 0 belongs to both arms, term 1 only to arm 1
    values = np.array([[0.5, 0.25], [0.0, 0.8]])
    offset = np.array([0.0, 0.05])
    obj = RatioObjective(values, offset)
    w = np.array([0.6, 0.4])
    d0 = 0.5 * 0.6 + 0.25 * 0.4
    d1 = 0.8 * 0.4 + 0.05
    expect0 = 0.25 / d0
    expect1 = 0.0625 / d0 + 0.64 / d1
    value, arg = evaluate(obj, w)
    assert value == pytest.approx(max(expect0, expect1), rel=1e-12)
    assert arg == (0 if expect0 >= expect1 else 1)


def test_objective_rejects_zero_arms():
    with pytest.raises(ParameterError):
        RatioObjective(np.zeros((0, 0)), np.zeros(0))


def test_evaluate_rejects_wrong_dimension():
    obj = single_term(3)
    with pytest.raises(ParameterError):
        evaluate(obj, np.array([0.5, 0.5]))


def test_zero_denominator_with_live_numerator_raises():
    obj = RatioObjective(np.array([[1.0, 0.0]]), np.zeros(1))
    with pytest.raises(IllPosedObjectiveError):
        evaluate(obj, np.array([0.0, 1.0]))


def test_tiny_numerators_are_dropped():
    # squared value sits below the cutoff, so the row never contributes
    small = np.sqrt(NUMERATOR_CUTOFF) / 10
    obj = RatioObjective(np.array([[small, 0.0]]), np.zeros(1))
    value, _ = evaluate(obj, np.array([0.0, 1.0]))
    assert value == 0.0


def test_empty_objective_evaluates_to_zero():
    obj = RatioObjective(np.zeros((0, 4)), np.zeros(0))
    value, arg = evaluate(obj, np.full(4, 0.25))
    assert value == 0.0 and arg == 0
    res = minimize(obj)
    assert res.value == 0.0
    assert res.converged


def test_minimize_sizes_nothing_by_the_iteration_cap():
    # an iteration cap far beyond memory would fail any buffer sized by it
    obj = RatioObjective(np.zeros((0, 3)), np.zeros(0))
    res = minimize(obj, SolverConfig(max_iters=10**15))
    assert res.converged and res.iterations == 1


@pytest.mark.parametrize("values, offset", [
    ([[0.5, np.nan]], [0.0]),
    ([[0.5, np.inf]], [0.0]),
    ([[0.5, 0.5]], [np.inf]),
    ([[0.5, 0.5]], [np.nan]),
])
def test_objective_rejects_non_finite_inputs(values, offset):
    # these used to solve to a "converged" value of inf or 0
    with pytest.raises(ParameterError):
        RatioObjective(values, offset)


def test_dead_row_with_zero_denominator_does_not_change_the_solve():
    # the all-zero row is dead and its denominator is 0 at every iterate, so
    # every iteration takes the branch that puts 1 in its place
    values = np.array([[0.5, 0.25, 0.0], [0.0, 0.8, 0.3]])
    offset = np.array([0.0, 0.05])
    config = SolverConfig(max_iters=300)
    want = minimize(RatioObjective(values, offset), config)
    got = minimize(RatioObjective(np.vstack([values, np.zeros(3)]), np.append(offset, 0.0)),
                   config)
    assert np.array_equal(got.weights, want.weights)
    assert (got.value, got.gap, got.iterations) == (want.value, want.gap, want.iterations)


@pytest.mark.parametrize("k", [2, 3, 6])
def test_minimize_indicator_terms_closed_form(k):
    # term i counts only for arm i with value 1: max_i 1/w_i, optimum k at uniform
    obj = RatioObjective(np.eye(k), np.zeros(k))
    res = minimize(obj)
    assert res.value == pytest.approx(k, rel=1e-3)
    assert np.allclose(res.weights, 1.0 / k, atol=5e-3)


def test_minimize_raises_on_ill_posed_objective():
    # the one term's denominator is 1 * w0 + 1 * w1 - 1 = 0 on the whole simplex
    obj = RatioObjective(np.array([[1.0, 1.0]]), np.array([-1.0]))
    with pytest.raises(IllPosedObjectiveError):
        minimize(obj)


@pytest.mark.parametrize("start", [
    [2.0, 2.0],             # accepted, it would win with value 0.125 off the simplex
    [1.5, -0.5],            # sums to 1, one weight negative
    [np.nan, 1.0],
    [np.inf, 0.0],
    [0.5, 0.5 + 1e-8],      # sum off by more than 1e-9
    [1.0],                  # wrong length
])
def test_minimize_rejects_extra_start_off_the_simplex(start):
    obj = RatioObjective(np.array([[0.5, 0.5]]), np.zeros(1))
    with pytest.raises(ParameterError):
        minimize(obj, extra_starts=[start])


def test_minimize_keeps_a_better_extra_start_on_the_simplex():
    # max(1/w0, 2/w1) is 4 at uniform weights and 3, its optimum, at (1/3, 2/3)
    values = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    obj = RatioObjective(values, np.zeros(3))
    start = np.array([1.0 / 3.0, 2.0 / 3.0])
    res = minimize(obj, SolverConfig(max_iters=1), extra_starts=[start])
    assert np.array_equal(res.weights, start)
    assert res.value == pytest.approx(3.0, rel=1e-12)


def random_objective(rng, n_terms, n_arms):
    values = rng.random((n_terms, n_arms))
    include = rng.random((n_terms, n_arms)) < 0.7
    offset = rng.random(n_terms) * 0.2 + 0.05
    return RatioObjective(np.where(include, values, 0.0), offset)


def random_simplex(rng, k):
    w = rng.random(k) + 1e-3
    return w / w.sum()


def test_objective_is_convex_along_random_segments():
    rng = np.random.default_rng(7)
    for _ in range(30):
        obj = random_objective(rng, n_terms=5, n_arms=4)
        w1, w2 = random_simplex(rng, 4), random_simplex(rng, 4)
        t = rng.random()
        mid, _ = evaluate(obj, t * w1 + (1 - t) * w2)
        v1, _ = evaluate(obj, w1)
        v2, _ = evaluate(obj, w2)
        assert mid <= t * v1 + (1 - t) * v2 + 1e-9


def test_minimizer_beats_random_probes():
    rng = np.random.default_rng(11)
    for _ in range(5):
        obj = random_objective(rng, n_terms=6, n_arms=3)
        res = minimize(obj)
        probes = [evaluate(obj, random_simplex(rng, 3))[0] for _ in range(100)]
        assert res.value <= min(probes) + 1e-6
        assert res.gap >= 0.0


def test_minimize_result_weights_on_simplex():
    rng = np.random.default_rng(3)
    obj = random_objective(rng, n_terms=8, n_arms=5)
    res = minimize(obj)
    assert res.weights.shape == (5,)
    assert np.all(res.weights >= 0)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_gap_certificate_bounds_value():
    # for the indicator objective the true optimum is k, so value - gap <= k
    k = 4
    obj = RatioObjective(np.eye(k), np.zeros(k))
    res = minimize(obj)
    assert res.value - res.gap <= k + 1e-9
    assert res.value >= k - 1e-9


def test_complexity_sandwich_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(10):
        inst = random_instance(rng, n_nodes=int(rng.integers(3, 6)),
                               n_arms=int(rng.integers(2, 6)))
        res = allocation_complexity(inst)
        n = inst.dag.node_count
        c = inst.uncertain_rows
        k = len(inst.arms)
        min_fixed = int((inst.arms.matrix != FREE).sum(axis=1).min())
        assert res.value <= min(n * c, n * k) + 1e-3
        assert res.value >= n - min_fixed - 1e-3


def test_complexity_single_arm_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        inst0 = random_instance(rng, n_nodes=n, n_arms=1)
        if not inst0.arms.uncertain_nodes:
            continue
        res = allocation_complexity(inst0)
        expect = int((inst0.arms.matrix[0] == FREE).sum())
        assert res.value == pytest.approx(expect, abs=1e-3)


def test_counting_candidate_matches_vote_shares():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, n_nodes=4, n_arms=3)
    _, votes = build_exact_objective(inst)
    assert votes.sum() == pytest.approx(1.0)
    assert np.all(votes >= 0)
    assert votes.shape == (3,)


def _reference_minimize(objective, config):
    """Reference solver loop with the same update step as `minimize`, but row
    sums taken along axis 0 of a (terms, arms) quotient and a denominator pass
    in both the evaluation and the subgradient. A numerator counts where its
    square reaches the cutoff."""
    values, offset = objective.values, objective.offset
    numer = np.where(values ** 2 >= NUMERATOR_CUTOFF, values ** 2, 0.0)

    def denominators(w):
        denom = values @ w + offset
        if np.any((numer > 0.0).any(axis=1) & (denom <= 0.0)):
            raise IllPosedObjectiveError("zero denominator")
        return np.where(denom > 0.0, denom, 1.0)

    def evaluate_at(w):
        vals = (numer / denominators(w)[:, None]).sum(axis=0)
        arg = int(np.argmax(vals))
        return float(vals[arg]), arg

    def subgradient(w, active):
        return -((numer[:, active] / denominators(w) ** 2) @ values)

    w = np.full(objective.n_arms, 1.0 / objective.n_arms)
    best_w, best_val, best_lb = w.copy(), np.inf, -np.inf
    converged, iters = False, 0
    for it in range(1, config.max_iters + 1):
        iters = it
        val, active = evaluate_at(w)
        if val < best_val:
            best_val, best_w = val, w.copy()
        g = subgradient(w, active)
        best_lb = max(best_lb, val + float(np.min(g)) - float(g @ w))
        if best_val - best_lb <= config.tolerance * max(abs(best_val), 1e-12):
            converged = True
            break
        scale = np.max(np.abs(g))
        if scale > 0:
            w = w * np.exp(-(STEP_SCALE / np.sqrt(it)) * (g / scale))
            w = w / w.sum()
    return best_w, best_val, max(best_val - best_lb, 0.0), converged, iters


def reference_case(rng):
    """Random objective with zero or positive offsets, entries zeroed by a
    random mask, and some arms duplicated (values and mask), so that arms tie
    exactly."""
    n_terms, n_arms = int(rng.integers(1, 12)), int(rng.integers(2, 9))
    values = rng.random((n_terms, n_arms))
    include = rng.random((n_terms, n_arms)) < 0.6
    for dup in range(1, n_arms):
        if rng.random() < 0.4:
            src = int(rng.integers(0, dup))
            values[:, dup], include[:, dup] = values[:, src], include[:, src]
    offset = np.zeros(n_terms) if rng.random() < 0.5 else rng.random(n_terms) * 0.2
    return RatioObjective(np.where(include, values, 0.0), offset)


def test_minimize_takes_the_reference_loops_steps():
    rng = np.random.default_rng(41)
    config = SolverConfig(max_iters=400, tolerance=1e-3)
    outcomes = set()
    for _ in range(60):
        obj = reference_case(rng)
        weights, value, gap, converged, iters = _reference_minimize(obj, config)
        res = minimize(obj, config)
        assert np.array_equal(res.weights, weights)
        assert res.iterations == iters and res.converged == converged
        assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
        # the gap is a difference of two numbers of the value's size
        assert res.gap == pytest.approx(gap, rel=1e-12, abs=1e-12 * value)
        outcomes.add(converged)
    assert outcomes == {True, False}  # both the early stop and the iteration cap


@pytest.mark.parametrize("max_iters", [2.5, 2.0, float("nan"), "10", None, True, False, 0, -3])
def test_solver_config_rejects_an_iteration_cap_that_is_not_a_positive_integer(max_iters):
    with pytest.raises(ParameterError, match="max_iters"):
        SolverConfig(max_iters=max_iters)


def test_solver_config_takes_a_numpy_integer_cap():
    obj = random_objective(np.random.default_rng(2), n_terms=4, n_arms=3)
    res = minimize(obj, SolverConfig(max_iters=np.int64(3), tolerance=0.0))
    assert res.iterations == 3


def test_dead_rows_at_zero_offset_take_the_reference_loops_steps():
    # all-zero rows at zero offset (either sign) are dead, with a zero
    # denominator at every iterate, so each step of `minimize` takes the branch
    # that puts 1 in its place; the live rows' offsets are zero in about half
    # the cases, so the offset add is skipped there
    rng = np.random.default_rng(43)
    config = SolverConfig(max_iters=300, tolerance=1e-3)
    outcomes = set()
    for case in range(40):
        live = reference_case(rng)
        dead = int(rng.integers(1, 4))
        at = np.sort(rng.integers(0, live.n_terms + 1, size=dead))
        values = np.insert(live.values, at, 0.0, axis=0)
        rng.random((dead, live.n_arms))  # each dead row's mask: a zero row has nothing to mask
        offset = np.insert(live.offset, at, -0.0 if case % 2 else 0.0)
        obj = RatioObjective(values, offset)
        weights, value, _, converged, iters = _reference_minimize(obj, config)
        res = minimize(obj, config)
        assert np.array_equal(res.weights, weights)
        assert res.iterations == iters and res.converged == converged
        assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
        outcomes.add(converged)
    assert outcomes == {True, False}


@pytest.mark.parametrize("offset_scale", [0.0, 0.2])
def test_minimize_iterations_allocate_nothing(offset_scale):
    # a buffer or a history that grows with the iteration count would raise
    # the traced peak of a 1,000-iteration solve above a 10-iteration one; the
    # first solve runs untraced, so numpy's one-time caches are not counted
    rng = np.random.default_rng(13)
    values, include = rng.random((40, 60)) + 0.01, rng.random((40, 60)) < 0.7
    obj = RatioObjective(np.where(include, values, 0.0), rng.random(40) * offset_scale)
    minimize(obj, SolverConfig(max_iters=10))
    peaks = []
    tracemalloc.start()
    try:
        for max_iters in (10, 1000):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            res = minimize(obj, SolverConfig(max_iters=max_iters, tolerance=0.0))
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            assert res.iterations == max_iters
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 256, peaks
