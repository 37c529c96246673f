"""Variational synthesis: objective, exact gradients, Adam, multi-start."""
import math

import numpy as np
import pytest

from peakedqc import synth
from peakedqc.ensembles import hs_overlap, random_brickwall
from peakedqc.sim import Circuit, Gate, adjoint, amplitude, compose
from peakedqc.synth import (
    AdamParams,
    AdamState,
    ParamCircuit,
    adam_step,
    gradient,
    multistart_search,
    objective,
)


def test_objective_identity_cases():
    target = Circuit(2, [Gate((0, 1), np.eye(4))])
    pc = ParamCircuit.zeros(2, 1)
    assert objective(target, pc) == 1.0
    # ansatz materializing the target exactly: p0 = 1
    theta = np.random.default_rng(0).normal(0, 0.3, (1, 15))
    pc2 = ParamCircuit(2, 1, theta)
    target2 = pc2.materialize()
    assert abs(objective(target2, pc2) - 1.0) < 1e-12


def test_objective_matches_composed_amplitude():
    rng = np.random.default_rng(1)
    target = random_brickwall(3, 4, seed=2)
    pc = ParamCircuit.random(3, 4, rng, scale=0.5)
    p0 = objective(target, pc, "011")
    composed = compose(adjoint(pc.materialize()), target)
    assert abs(p0 - abs(amplitude(composed, "000", "011")) ** 2) < 1e-12


def test_gradient_zero_at_interior_maximum():
    theta = np.random.default_rng(3).normal(0, 0.3, (1, 15))
    pc = ParamCircuit(2, 1, theta)
    target = pc.materialize()  # p0 = 1, an interior maximum of |a|^2 <= 1
    g = gradient(target, pc)
    assert np.abs(g).max() < 1e-8


@pytest.mark.parametrize(
    "n,depth,x_star",
    [(2, 1, "00"), (4, 3, "0000"), (6, 6, "000000"), (6, 24, "101101")],
    ids=["2-1", "4-3", "6-6", "6-24-101101"],
)
def test_gradient_matches_finite_differences(n, depth, x_star):
    rng = np.random.default_rng(10 + n)
    target = random_brickwall(n, depth, seed=rng)
    pc = ParamCircuit.random(n, depth, rng, scale=0.4)
    g = gradient(target, pc, x_star)
    h = 1e-5
    flat = [(i, j) for i in range(g.shape[0]) for j in range(g.shape[1])]
    picks = rng.choice(len(flat), size=10, replace=False)
    for k in picks:
        i, j = flat[int(k)]
        if abs(g[i, j]) <= 1e-8:
            continue
        plus = ParamCircuit(n, depth, pc.params.copy())
        plus.params[i, j] += h
        minus = ParamCircuit(n, depth, pc.params.copy())
        minus.params[i, j] -= h
        fd = (objective(target, plus, x_star) - objective(target, minus, x_star)) / (2 * h)
        assert abs(fd - g[i, j]) / abs(g[i, j]) <= 1e-6


def test_adam_zero_gradient_fixed_point():
    theta = np.ones((2, 15))
    state = AdamState.zeros(theta.shape)
    new, _ = adam_step(theta, np.zeros_like(theta), state, AdamParams())
    assert np.array_equal(new, theta)


def test_adam_first_step_magnitude():
    theta = np.zeros(4)
    g = np.array([0.3, -0.7, 1.2, -2.0])
    hyper = AdamParams(lr=0.05)
    new, st = adam_step(theta, g, AdamState.zeros(4), hyper)
    # bias correction makes the first step lr * g/(|g| + eps), i.e. lr * sign
    assert np.allclose(new, -hyper.lr * np.sign(g), atol=1e-6)
    assert st.step == 1


def test_adam_two_steps_match_scalar_recursion():
    g = 0.37
    hyper = AdamParams(lr=0.01)
    theta = np.array([1.0])
    state = AdamState.zeros(1)
    for _ in range(2):
        theta, state = adam_step(theta, np.array([g]), state, hyper)
    # independent scalar oracle
    m = v = 0.0
    x = 1.0
    for t in range(1, 3):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= hyper.lr * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + hyper.eps)
    assert abs(theta[0] - x) < 1e-15


def test_multistart_trivial_target():
    target = Circuit(2, [Gate((0, 1), np.eye(4))])
    inst, report = multistart_search(
        target, delta_target=0.9, n_seeds=1, iters=5, seed=0, init_scale=0.0, depth=1
    )
    assert report.best_peakedness == 1.0
    assert report.per_seed_traces[0].iterations == 0
    assert not report.below_target
    assert inst.method == "variational"


def test_multistart_reaches_target_small():
    target = random_brickwall(4, 4, seed=5)
    inst, report = multistart_search(target, delta_target=0.5, n_seeds=2, iters=400, seed=6)
    assert inst.peakedness >= 0.5
    assert not report.below_target
    assert abs(inst.peakedness - inst.verify()) < 1e-12


def test_multistart_below_target_flag():
    target = random_brickwall(4, 4, seed=7)
    inst, report = multistart_search(target, delta_target=0.999999, n_seeds=1, iters=3, seed=8)
    assert report.below_target
    assert inst.peakedness < 0.999999


def test_multistart_deterministic():
    target = random_brickwall(3, 3, seed=9)
    a = multistart_search(target, delta_target=0.4, n_seeds=2, iters=50, seed=10)
    b = multistart_search(target, delta_target=0.4, n_seeds=2, iters=50, seed=10)
    assert np.array_equal(a[1].best_params, b[1].best_params)
    assert a[1].best_peakedness == b[1].best_peakedness
    assert [t.history for t in a[1].per_seed_traces] == [t.history for t in b[1].per_seed_traces]


def test_best_peakedness_nondecreasing_in_iters():
    target = random_brickwall(3, 3, seed=11)
    vals = [  # a target of 1 is not reached here, so every search runs all its iterations
        multistart_search(target, delta_target=1.0, n_seeds=1, iters=t, seed=12)[1].best_peakedness
        for t in (5, 20, 60)
    ]
    assert vals[0] <= vals[1] <= vals[2]


def test_history_records_maximum():
    target = random_brickwall(3, 3, seed=13)
    _, report = multistart_search(target, delta_target=0.6, n_seeds=2, iters=80, seed=14)
    recorded = max(p for tr in report.per_seed_traces for _, p in tr.history)
    assert abs(recorded - report.best_peakedness) < 1e-15


@pytest.mark.slow
def test_obfuscation_statistic_small():
    # |Tr(C^dag C')|^2 averages to 2 over synthesized instances (30-instance
    # smoke version; the 100-instance run lives in the acceptance suite)
    vals = []
    for i in range(30):
        target = random_brickwall(4, 4, seed=100 + i)
        inst, _ = multistart_search(target, delta_target=0.95, n_seeds=2, iters=1500, seed=200 + i)
        tsq, _ = hs_overlap(*inst.factors)
        vals.append(tsq)
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 2.0) <= 3 * se
