"""Haar sampling, postselection, block decomposition, design statistics."""
import math

import numpy as np
import pytest

from peakedqc import ensembles as ens
from peakedqc.ensembles import (
    PostselectExhausted,
    anticoncentration_check,
    block_extract,
    conditioned_generate,
    exact_state_moment,
    gate_correlation_check,
    haar_anticoncentration_fraction,
    haar_state_moment,
    haar_unitary,
    hs_overlap,
    instance_from_json,
    instance_to_json,
    postselect_generate,
    random_brickwall,
)
from peakedqc.sim import (
    Brickwall,
    Circuit,
    Gate,
    StructureError,
    adjoint,
    apply_circuit,
    brickwall_pairs,
    compose,
    full_unitary,
)


def test_haar_unitary_is_unitary():
    for dim in (1, 2, 4, 8):
        u = haar_unitary(dim, seed=dim)
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-12


def test_haar_dim1_uniform_phase():
    vals = np.array([haar_unitary(1, seed=i)[0, 0] for i in range(2000)])
    assert np.abs(np.abs(vals) - 1).max() < 1e-12
    # uniform phase: mean close to zero
    assert abs(vals.mean()) < 4 / math.sqrt(2000)


def test_haar_first_moment():
    # E|U_00|^2 = 1/dim
    rng = np.random.default_rng(0)
    vals = np.array([abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(100_000)])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 0.5) <= 3 * se


def test_haar_trace_second_moment():
    # E|Tr U|^2 = 1 for Haar on any U(d)
    rng = np.random.default_rng(1)
    vals = np.array([abs(np.trace(haar_unitary(4, rng))) ** 2 for _ in range(10_000)])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_brickwall_patterns():
    c2 = random_brickwall(2, 1, seed=0)
    assert [g.wires for g in c2.gates] == [(0, 1)]
    c4 = random_brickwall(4, 2, seed=0)
    assert [g.wires for g in c4.gates] == [(0, 1), (2, 3), (1, 2)]
    c6 = random_brickwall(6, 6, seed=0)
    # direct enumeration: alternating 3- and 2-gate layers
    assert len(c6.gates) == 3 + 2 + 3 + 2 + 3 + 2
    assert c6.architecture.depth == 6


@pytest.mark.parametrize("batch", [0, 1, 7, 16])
def test_haar_stack_equals_single_draws(batch):
    for seed in range(20):
        stacked_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stack = haar_unitary(4, stacked_rng, batch=batch)
        singles = [haar_unitary(4, single_rng) for _ in range(batch)]
        assert stack.shape == (batch, 4, 4)
        assert all(np.array_equal(m, u) for m, u in zip(stack, singles))
        assert stacked_rng.bit_generator.state == single_rng.bit_generator.state


def test_haar_stack_refuses_negative_batch():
    with pytest.raises(ValueError, match="batch"):
        haar_unitary(4, seed=0, batch=-1)


def _reference_brickwall(n, depth, rng):
    """One single Haar draw per gate, in gate order."""
    return Circuit(n, [Gate(pair, haar_unitary(4, rng)) for pair in brickwall_pairs(n, depth)],
                   architecture=Brickwall(depth))


def _same_gates(a, b):
    return len(a.gates) == len(b.gates) and all(
        g.wires == h.wires and np.array_equal(g.matrix, h.matrix) for g, h in zip(a.gates, b.gates))


@pytest.mark.parametrize("n", [1, 3, 8, 20])
def test_random_brickwall_matches_per_gate_draws(n):
    for seed in range(5):
        circ = random_brickwall(n, n, seed=seed)
        assert circ.architecture.depth == n
        assert _same_gates(circ, _reference_brickwall(n, n, np.random.default_rng(seed)))


def _reference_postselect(n, delta, x_star, max_trials, seed, depth):
    """The rejection loop drawn gate by gate: ``(trials, peakedness, P)``, or None if exhausted."""
    rng = np.random.default_rng(seed)
    c = _reference_brickwall(n, depth, rng)
    target = apply_circuit("0" * n, c)
    for trial in range(1, max_trials + 1):
        c_prime = _reference_brickwall(n, depth, rng)
        peak = abs(np.vdot(apply_circuit(x_star, c_prime), target)) ** 2
        if peak >= delta:
            return trial, float(peak), compose(adjoint(c_prime), c)
    return None


@pytest.mark.parametrize("n,delta,depth", [(3, 0.1, 16), (2, 0.3, 1)])
@pytest.mark.parametrize("max_trials", [1, 5])
def test_postselect_matches_per_trial_reference(n, delta, depth, max_trials):
    outcomes = set()
    for seed in range(200):
        x_star = format(seed % (1 << n), f"0{n}b")
        ref = _reference_postselect(n, delta, x_star, max_trials, seed, depth)
        try:
            inst, trials = postselect_generate(n, delta, x_star=x_star, max_trials=max_trials,
                                               seed=seed, depth=depth)
        except PostselectExhausted:
            assert ref is None, seed
            outcomes.add(False)
            continue
        assert ref is not None, seed
        outcomes.add(True)
        assert (trials, inst.peakedness) == ref[:2], seed
        assert _same_gates(inst.circuit, ref[2]), seed
    assert outcomes == {True, False}  # both branches were compared


def test_postselect_accepts_delta_zero():
    inst, trials = postselect_generate(2, 0.0, max_trials=1, seed=0, depth=1)
    assert trials == 1
    assert inst.method == "postselect"
    assert abs(inst.peakedness - inst.verify()) < 1e-12


def test_postselect_exhausted():
    with pytest.raises(PostselectExhausted) as err:
        postselect_generate(3, 0.9999, max_trials=5, seed=1)
    assert err.value.trials == 5


@pytest.mark.parametrize("n,delta,depth", [(2, 0.1, 1), (2, 0.3, 1), (2, 0.5, 1)] + [
    pytest.param(3, delta, 16, marks=pytest.mark.slow) for delta in (0.1, 0.3, 0.5)])
def test_postselect_acceptance_rate(n, delta, depth):
    # acceptance should match (1-delta)^(d-1); 20k trials per point here,
    # the full 1e5-trial version runs in the acceptance suite
    d = 1 << n
    expected = (1 - delta) ** (d - 1)
    trials = 20_000
    hits = 0
    for k in range(trials):
        try:
            postselect_generate(n, delta, max_trials=1, seed=10_000 * n + k, depth=depth)
            hits += 1
        except PostselectExhausted:
            pass
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(hits / trials - expected) <= 3 * sigma


def test_conditioned_matches_postselect_distribution():
    # overlap of conditioned draws reproduces the truncated Beta(1, d-1) law:
    # median of 1 - delta given delta >= delta0 is (1-delta0) * 0.5^(1/(d-1))
    n, delta0 = 3, 0.2
    draws = np.array([conditioned_generate(n, delta0, seed=k).peakedness for k in range(4000)])
    assert draws.min() >= delta0
    med_exp = 1 - (1 - delta0) * 0.5 ** (1 / 7)
    emp = np.median(draws)
    # median standard error ~ 1.25 sd/sqrt(N); generous 0.01 absolute window
    assert abs(emp - med_exp) < 0.01


def test_conditioned_exact_delta():
    inst = conditioned_generate(4, 0.8, seed=3, exact_delta=True)
    assert abs(inst.peakedness - 0.8) < 1e-12
    assert abs(inst.verify() - 0.8) < 1e-12
    # factors compose to the instance circuit
    c, cp = inst.factors
    p = full_unitary(cp).conj().T @ full_unitary(c)
    assert np.abs(p - full_unitary(inst.circuit)).max() < 1e-12


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_conditioned_factors_and_instance_are_unitary(n):
    inst = conditioned_generate(n, 0.9, seed=40 + n)
    eye = np.eye(1 << n)
    for circ in (*inst.factors, inst.circuit):
        (g,) = circ.gates
        assert np.abs(g.matrix.conj().T @ g.matrix - eye).max() < 1e-12


def test_hs_overlap_self_is_d_squared():
    circ = random_brickwall(3, 2, seed=4)
    tsq, hs = hs_overlap(circ, circ)
    assert abs(tsq - 64.0) < 1e-9
    assert abs(hs - 1.0) < 1e-12


def test_hs_overlap_independent_haar_pairs():
    # E|Tr(C^dag C')|^2 = 1 for independent Haar pairs
    rng = np.random.default_rng(5)
    wires = (0, 1, 2)
    vals = []
    for _ in range(4000):
        u, v = haar_unitary(8, rng), haar_unitary(8, rng)
        vals.append(abs(np.trace(u.conj().T @ v)) ** 2)
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_hs_overlap_exactly_peaked_pairs():
    # E|Tr(C^dag C')|^2 = 2 over the exactly-peaked ensemble
    vals = []
    for k in range(400):
        inst = conditioned_generate(3, 1.0, seed=k, exact_delta=True)
        tsq, _ = hs_overlap(*inst.factors)
        vals.append(tsq)
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 2.0) <= 3 * se


def test_block_extract_identity():
    peak, v, defect = block_extract(Circuit(3), "000")
    assert peak == 1.0
    assert np.array_equal(v, np.eye(7))
    assert defect == 0.0


def test_block_extract_exactly_peaked():
    inst = conditioned_generate(3, 1.0, seed=9, exact_delta=True)
    peak, v, defect = block_extract(inst.circuit, inst.peak_string)
    assert abs(abs(peak) ** 2 - 1.0) < 1e-12
    assert defect <= 1e-8


def test_block_extract_defect_tracks_leakage():
    inst = conditioned_generate(3, 0.9, seed=10, exact_delta=True)
    peak, v, defect = block_extract(inst.circuit, inst.peak_string)
    assert abs(abs(peak) ** 2 - 0.9) < 1e-12
    # the defect is the residual row mass, at most the leakage
    assert defect <= 10 * (1 - inst.peakedness)
    # cross-check against the dense unitary directly
    u = full_unitary(inst.circuit)
    assert abs(abs(u[int(inst.peak_string, 2), 0]) ** 2 - 0.9) < 1e-12


def test_exact_state_moments():
    assert abs(exact_state_moment(2, 1) - 0.5) < 1e-15
    assert abs(exact_state_moment(2, 2) - 1 / 3) < 1e-15
    assert abs(exact_state_moment(8, 3) - 1 / 120) < 1e-15


@pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (8, 3)])
def test_haar_state_moment_monte_carlo(dim, m):
    est = haar_state_moment(dim, m, 100_000, seed=dim * 10 + m)
    assert abs(est.estimate - est.exact) <= 3 * est.std_err


def test_gate_correlation_identical_circuits():
    circ = random_brickwall(3, 3, seed=11)
    res = gate_correlation_check(circ, circ)
    assert all(abs(r - 1.0) < 1e-12 for r in res.per_gate_overlaps)
    assert res.eps < 1e-12
    assert res.frobenius_dist < 1e-9
    assert res.holds


def test_gate_correlation_one_replaced_gate():
    circ = random_brickwall(3, 3, seed=12)
    gates = list(circ.gates)
    gates[2] = Gate(gates[2].wires, haar_unitary(4, seed=13))
    other = Circuit(3, gates)
    res = gate_correlation_check(circ, other)
    assert res.holds  # inequality holds with slack
    assert res.frobenius_dist < res.bound
    assert min(res.per_gate_overlaps) == res.per_gate_overlaps[2]


def test_gate_correlation_architecture_mismatch():
    a = random_brickwall(3, 2, seed=1)
    b = random_brickwall(3, 3, seed=1)
    with pytest.raises(StructureError):
        gate_correlation_check(a, b)


@pytest.mark.parametrize("seed", range(10))
def test_gate_correlation_inequality_random_pairs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    depth = int(rng.integers(2, 5))
    a = random_brickwall(n, depth, seed=rng)
    mode = seed % 3
    if mode == 0:
        b = random_brickwall(n, depth, seed=rng)  # independent pair
    elif mode == 1:
        gates = [Gate(g.wires, g.matrix) for g in a.gates]
        k = int(rng.integers(0, len(gates)))
        gates[k] = Gate(gates[k].wires, haar_unitary(4, rng))
        b = Circuit(n, gates)
    else:  # all gates slightly perturbed
        gates = []
        for g in a.gates:
            h = rng.normal(0, 0.02, 15)
            from peakedqc.sim import su4_gate

            gates.append(Gate(g.wires, g.matrix @ su4_gate(h)))
        b = Circuit(n, gates)
    res = gate_correlation_check(a, b)
    assert res.holds


def test_gate_correlation_single_gate_boundary():
    # the bare inequality can fail on 1-gate circuits: the per-gate distance
    # is sqrt(2d(1-sqrt(rho))) which exceeds sqrt(d(1-rho)) for rho < 1, and
    # with M=1 there is no triangle-inequality slack to absorb it; the check
    # must report that honestly rather than clip the margin
    a = Circuit(2, [Gate((0, 1), haar_unitary(4, seed=900))])
    b = Circuit(2, [Gate((0, 1), haar_unitary(4, seed=901))])
    res = gate_correlation_check(a, b)
    dist_sq_expected = 2 * 4 * (1 - math.sqrt(res.per_gate_overlaps[0]))
    assert abs(res.frobenius_dist**2 - dist_sq_expected) < 1e-9
    assert not res.holds  # saturates the sqrt(2) slack the M>=2 sum hides


def test_peaked_ensemble_frobenius_to_identity():
    # E|P - I|_F^2 = 2(d-1) for the exactly peaked ensemble after aligning
    # the peak phase
    d = 16
    vals = []
    for k in range(300):
        inst = conditioned_generate(4, 1.0, seed=k, exact_delta=True)
        u = full_unitary(inst.circuit)
        peak_amp = u[int(inst.peak_string, 2), 0]
        vals.append(ens.frobenius_sq_to_identity(u, peak_amp))
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 2 * (d - 1)) <= 3 * se


def test_anticoncentration_identity_depth():
    assert anticoncentration_check(4, 0, 10, seed=0) == 1 / 16


def test_anticoncentration_deep_circuits():
    frac = anticoncentration_check(6, 12, 150, seed=1)
    # Haar oracle via direct state sampling at d = 64
    rng = np.random.default_rng(2)
    z = rng.standard_normal((3000, 64)) + 1j * rng.standard_normal((3000, 64))
    p = np.abs(z) ** 2 / np.sum(np.abs(z) ** 2, axis=1, keepdims=True)
    oracle = float(np.mean(p >= 1 / 64))
    assert abs(oracle - haar_anticoncentration_fraction(64)) < 0.01
    assert abs(frac - haar_anticoncentration_fraction(64)) < 0.02
    assert frac >= 0.3  # the anti-concentration threshold check


def test_instance_json_roundtrip():
    inst = conditioned_generate(3, 0.7, seed=21)
    obj = instance_to_json(inst)
    back = instance_from_json(obj)
    assert back.peak_string == inst.peak_string
    assert abs(back.peakedness - inst.peakedness) < 1e-15
    assert abs(back.verify() - inst.peakedness) < 1e-9
    assert inst.factors is not None and "factors" not in obj
    assert back.factors is None
