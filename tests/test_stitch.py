"""Block stitching, the decay recurrence and boundary rewrites."""
import math

import numpy as np
import pytest

from peakedqc import stitch
from peakedqc.ensembles import PeakedInstance, conditioned_generate, random_brickwall
from peakedqc.sim import Circuit, StructureError, adjoint, amplitude, compose, x_layer_gates
from peakedqc.stitch import (
    StitchPlan,
    boundary_rewrite,
    closed_form_q,
    make_plan,
    montecarlo_block_mixing,
    predict_peak_recurrence,
    retarget,
    stitch as stitch_blocks,
    stitch_pattern_count,
    verify_rewrite,
)


def test_recurrence_trivial_and_single_step():
    _, q = predict_peak_recurrence(16, [0.0] * 4)
    assert q == 1.0
    _, q1 = predict_peak_recurrence(16, [0.2])
    assert abs(q1 - 0.8) < 1e-15  # q1 = 1 - eps


def test_recurrence_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = 1 << int(rng.integers(2, 9))
        eps = rng.uniform(0, 1, size=int(rng.integers(1, 10)))
        _, q = predict_peak_recurrence(d, eps)
        assert abs(q - closed_form_q(d, eps)) < 1e-12


def test_recurrence_constant_eps_formula():
    d, eps, L = 16, 0.1, 5
    _, q = predict_peak_recurrence(d, [eps] * L)
    expect = 1 / d + (1 - d * eps / (d - 1)) ** L * (1 - 1 / d)
    assert abs(q - expect) < 1e-14


def test_montecarlo_zero_leakage():
    est = montecarlo_block_mixing(3, 4, 0.0, 50, seed=1)
    assert est.mean == 1.0
    assert est.closed_form == 1.0


def test_montecarlo_matches_closed_form():
    est = montecarlo_block_mixing(4, 5, 0.1, 3000, seed=2)
    assert abs(est.mean - est.closed_form) <= 3 * est.std_err


def test_montecarlo_decays_to_uniform():
    est = montecarlo_block_mixing(4, 60, 0.5, 3000, seed=3)
    assert abs(est.mean - 1 / 16) <= 3 * est.std_err
    assert abs(est.closed_form - 1 / 16) < 1e-6


def test_montecarlo_above_old_cap():
    """The Monte Carlo runs up to the statevector cap, and refuses one wire more."""
    est = montecarlo_block_mixing(10, 5, 0.1, 2000, seed=5)
    assert abs(est.mean - closed_form_q(1 << 10, [0.1] * 5)) <= 4 * est.std_err
    with pytest.raises(ValueError):
        montecarlo_block_mixing(stitch.N_MAX_STATEVECTOR + 1, 1, 0.1, 1, seed=5)


def test_single_block_stitch_is_the_block():
    inst = conditioned_generate(3, 0.8, seed=4, exact_delta=True)
    plan = make_plan([inst])
    circ, out, bounds = stitch_blocks(plan)
    assert out.peak_string == inst.peak_string
    assert abs(out.peakedness - inst.peakedness) < 1e-12
    assert bounds == [0]
    assert out.method == "stitched"


def test_two_exact_blocks_compose_to_one():
    a = conditioned_generate(3, 1.0, seed=5, exact_delta=True)
    b = conditioned_generate(3, 1.0, seed=6, exact_delta=True)
    plan = make_plan([a, b])
    _, out, _ = stitch_blocks(plan)
    assert abs(out.peakedness - 1.0) < 1e-9


def test_stitch_measures_peak_above_dense_cap(monkeypatch):
    # n = 14 is above the dense cap but within the statevector cap: the peak
    # is measured, not predicted
    n = 14
    c = random_brickwall(n, 4, seed=12)
    x1, x2 = "10110011100011", "01101100011101"
    a = PeakedInstance(Circuit(n, compose(adjoint(c), c).gates + x_layer_gates(x1)), x1, 1.0, "test")
    b = PeakedInstance(Circuit(n, x_layer_gates(x2)), x2, 1.0, "test")
    _, out, _ = stitch_blocks(make_plan([a, b]))
    assert out.peakedness_is_predicted is False
    assert out.peak_string == x2
    assert abs(out.peakedness - 1.0) < 1e-12
    monkeypatch.setattr(stitch, "N_MAX_STATEVECTOR", n - 1)
    assert stitch_blocks(make_plan([a, b])).instance.peakedness_is_predicted is True


def test_retarget_moves_the_peak():
    inst = conditioned_generate(3, 0.85, seed=7, exact_delta=True)
    block = retarget(inst, "101", "010")
    assert abs(abs(amplitude(block.circuit, "101", "010")) ** 2 - 0.85) < 1e-12


def test_plan_validation():
    a = conditioned_generate(3, 0.9, seed=8)
    block = retarget(a, "000")
    with pytest.raises(StructureError, match="path"):
        StitchPlan([block], ["000"])
    wrong = retarget(a, "001")
    with pytest.raises(StructureError, match="block 0"):
        StitchPlan([wrong], ["000", a.peak_string])


def test_stitched_peak_in_expected_band():
    # seeded example: measured peak within [prod(1-eps) - 0.05, 1]
    rng = np.random.default_rng(9)
    insts = [
        conditioned_generate(4, 0.9, x_star=format(rng.integers(1, 16), "04b"),
                             seed=100 + j, exact_delta=True)
        for j in range(3)
    ]
    _, out, _ = stitch_blocks(make_plan(insts))
    assert 0.9**3 - 0.05 <= out.peakedness <= 1.0


def test_stitched_ensemble_mean_matches_recurrence():
    # single-instance peaks fluctuate; the ensemble mean follows the
    # block-mixing expectation to within a small model error
    vals = []
    L, eps = 3, 0.1
    for k in range(60):
        rng = np.random.default_rng(500 + k)
        insts = [
            conditioned_generate(4, 1 - eps, x_star=format(rng.integers(1, 16), "04b"),
                                 seed=1000 + L * k + j, exact_delta=True)
            for j in range(L)
        ]
        _, out, _ = stitch_blocks(make_plan(insts))
        vals.append(out.peakedness)
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - closed_form_q(16, [eps] * L)) <= 4 * se + 0.02


@pytest.mark.parametrize("L", [4, 8])
def test_constant_peak_regime(L):
    # eps = c/L keeps the composed peak above exp(-c) - 0.05 (ensemble mean)
    c = 0.5
    eps = c / L
    vals = []
    for k in range(40):
        rng = np.random.default_rng(2000 + k)
        insts = [
            conditioned_generate(4, 1 - eps, x_star=format(rng.integers(1, 16), "04b"),
                                 seed=3000 + L * k + j, exact_delta=True)
            for j in range(L)
        ]
        _, out, _ = stitch_blocks(make_plan(insts))
        vals.append(out.peakedness)
    assert np.mean(vals) >= math.exp(-c) - 0.05


def test_path_must_start_at_zero():
    a = conditioned_generate(3, 0.9, seed=10)
    plan = make_plan([a], path=["001", a.peak_string])
    with pytest.raises(StructureError, match="all-zero"):
        stitch_blocks(plan)


def test_rewrite_empty_circuit():
    res = boundary_rewrite(Circuit(3), seed=0)
    assert res.circuit.gates == []


def test_rewrite_merges_same_pair_gates():
    circ = random_brickwall(2, 1, seed=11)
    circ2 = Circuit(2, circ.gates + random_brickwall(2, 1, seed=12).gates)
    res = boundary_rewrite(circ2, seed=13)
    assert len(res.circuit.gates) == 1
    assert verify_rewrite(circ2, res.circuit) < 1e-9


def test_rewrite_preserves_unitary_and_blurs_seams():
    rng = np.random.default_rng(14)
    insts = [
        conditioned_generate(4, 0.9, x_star=format(rng.integers(1, 16), "04b"),
                             seed=200 + j, exact_delta=True)
        for j in range(3)
    ]
    circ, out, boundaries = stitch_blocks(make_plan(insts))
    res = boundary_rewrite(circ, seed=15, boundaries=boundaries)
    assert verify_rewrite(circ, res.circuit) < 1e-9
    # peakedness untouched by the rewrite
    after = abs(amplitude(res.circuit, "0000", out.peak_string)) ** 2
    assert abs(after - out.peakedness) < 1e-9
    # every adjacent pair shares provenance: no clean block handoffs remain
    marks = res.provenance
    assert all(marks[i] & marks[i + 1] for i in range(len(marks) - 1))
    assert any(len(m) > 1 for m in marks)


def test_rewrite_gates_stay_unitary():
    rng = np.random.default_rng(16)
    insts = [
        conditioned_generate(4, 0.9, x_star=format(rng.integers(1, 16), "04b"), seed=300 + j)
        for j in range(3)
    ]
    circ, _, boundaries = stitch_blocks(make_plan(insts))
    first = random_brickwall(4, 3, seed=17).gates + x_layer_gates("0011")
    brick = Circuit(4, first + random_brickwall(4, 3, seed=18).gates)
    for c, b in ((circ, boundaries), (brick, [0, len(first)])):
        res = boundary_rewrite(c, seed=19, boundaries=b)
        assert len(res.circuit.gates) < len(c.gates)  # merges happened
        for g in res.circuit.gates:
            eye = np.eye(len(g.matrix))
            assert np.abs(g.matrix.conj().T @ g.matrix - eye).max() < 1e-12


def test_pattern_count_exact():
    assert stitch_pattern_count(5, 1) == 1
    assert stitch_pattern_count(5, 3) == 6  # C(4, 2)
    # big-integer oracle via the Pascal recurrence
    rows = {0: [1]}
    for m in range(1, 100):
        prev = rows[m - 1]
        rows[m] = [1] + [prev[i - 1] + prev[i] for i in range(1, m)] + [1]
    assert stitch_pattern_count(100, 7) == rows[99][6]
    with pytest.raises(ValueError):
        stitch_pattern_count(3, 4)
