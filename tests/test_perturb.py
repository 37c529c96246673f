"""Interpolation paths, truncation, TV bounds and polynomial structure."""
import math
import warnings

import numpy as np
import pytest

from peakedqc import perturb
from peakedqc.ensembles import haar_unitary, random_brickwall
from peakedqc.perturb import (
    IllConditionedNodes,
    amplitude_polynomial,
    chebyshev_nodes,
    make_path,
    materialize,
    tv_peakedness_check,
)
from peakedqc.sim import (
    Circuit,
    Gate,
    PAULI_X,
    StructureError,
    amplitude,
    full_unitary,
)


def test_constant_path_for_equal_circuits():
    circ = random_brickwall(3, 4, seed=0)
    path = make_path(circ, circ)
    assert np.abs(np.stack(path.phases)).max() < 1e-12
    assert path.op_norms.max() < 1e-12


def test_identity_to_x_single_qubit():
    base = Circuit(1, [Gate((0,), np.eye(2))])
    target = Circuit(1, [Gate((0,), PAULI_X)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # X has an eigenvalue on the branch cut
        path = make_path(base, target)
    end = materialize(path, 1.0)
    assert np.abs(end.gates[0].matrix - PAULI_X).max() < 1e-10
    # the generator's eigenphases must be {0, pi}
    phases = path.phases[0]
    assert np.allclose(np.sort(np.abs(phases)), [0.0, math.pi], atol=1e-12)


@pytest.mark.parametrize("seed", [None, 3])
def test_branch_cut_resolves_to_plus_pi(seed):
    # G -> -G has both eigenvalues of G^dag (-G) at -1; for a Haar G rounding
    # puts them on either side of the cut
    g = np.eye(2) if seed is None else haar_unitary(2, seed)
    base = Circuit(1, [Gate((0,), g)])
    with pytest.warns(RuntimeWarning, match="branch cut"):
        make_path(base, Circuit(1, [Gate((0,), g @ PAULI_X)]))
    with pytest.warns(RuntimeWarning, match="branch cut"):
        path = make_path(base, Circuit(1, [Gate((0,), -g)]))
    assert np.abs(path.phases[0] - math.pi).max() < 1e-12
    half = materialize(path, 0.5).gates[0].matrix
    assert np.abs(half - 1j * g).max() < 1e-12


def _rotated(phases, seed):
    q = haar_unitary(len(phases), seed)
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


@pytest.mark.parametrize("u", [
    np.eye(4),
    np.kron(PAULI_X, np.eye(2)),
    np.diag([1, 1, 1j, 1j]),
    _rotated([0, 0, math.pi / 2, math.pi / 2], 30),
    _rotated([0.3, 1.7, -2.0, 2.5], 31),  # 0.3 + 1.7 = 2 ties two eigenvalues of e^-i U + e^i U^dag
    _rotated([0.5, 0.5 + 1e-9, -1.0, 2.0], 32),
], ids=["identity", "x-kron-i", "diag-1-1-i-i", "rotated-1-1-i-i", "phases-sum-2", "phases-1e-9-apart"])
def test_unitary_log_on_hard_spectra(u):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # X (x) I has eigenvalues on the branch cut
        phases, z = perturb._unitary_log_generator(u)
    assert np.abs(z.conj().T @ z - np.eye(4)).max() < 1e-12
    assert np.abs((z * np.exp(1j * phases)) @ z.conj().T - u).max() < 1e-12
    assert np.all(phases > -math.pi) and np.all(phases <= math.pi)


def test_endpoints_exact():
    base = random_brickwall(3, 6, seed=1)
    target = random_brickwall(3, 6, seed=2)
    path = make_path(base, target)
    start = materialize(path, 0.0)
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(start.gates, base.gates))
    end = materialize(path, 1.0)
    err = max(np.abs(a.matrix - b.matrix).max() for a, b in zip(end.gates, target.gates))
    assert err < 1e-8


@pytest.mark.parametrize("theta", [0.13, 0.5, 0.87])
def test_unitarity_along_path(theta):
    path = make_path(random_brickwall(3, 4, seed=3), random_brickwall(3, 4, seed=4))
    u = full_unitary(materialize(path, theta))
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-9


def test_path_operator_distance_bound():
    base = random_brickwall(3, 6, seed=5)
    target = random_brickwall(3, 6, seed=6)
    path = make_path(base, target)
    theta = 0.02
    u0 = full_unitary(base)
    ut = full_unitary(materialize(path, theta))
    opdist = np.linalg.norm(u0 - ut, ord=2)
    assert opdist <= theta * path.op_norms.sum() + 1e-12


def test_architecture_mismatch_rejected():
    with pytest.raises(StructureError):
        make_path(random_brickwall(3, 2, seed=0), random_brickwall(3, 4, seed=0))


def test_truncation_order_zero_and_theta_zero():
    path = make_path(random_brickwall(2, 2, seed=7), random_brickwall(2, 2, seed=8))
    out = materialize(path, 0.7, K=0)
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(out.gates, path.base.gates))
    out0 = materialize(path, 0.0, K=3)
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(out0.gates, path.base.gates))
    with pytest.raises(ValueError, match="K must be >= 0"):
        materialize(path, 0.7, K=-1)


def test_truncation_error_monotone_to_float_floor():
    base = random_brickwall(3, 6, seed=9)
    target = random_brickwall(3, 6, seed=10)
    path = make_path(base, target)
    theta = 0.1
    exact = amplitude(materialize(path, theta), "000", "000")
    errs = []
    for K in range(0, 16):
        approx = amplitude(materialize(path, theta, K), "000", "000")
        errs.append(abs(approx - exact))
    floor = 1e-13
    for a, b in zip(errs, errs[1:]):
        if a < floor:
            break
        assert b < a
    assert min(errs) < 1e-13


def test_truncation_high_order_matches_exact():
    path = make_path(random_brickwall(3, 6, seed=11), random_brickwall(3, 6, seed=12))
    a_tr = amplitude(materialize(path, 0.01, K=12), "000", "000")
    a_ex = amplitude(materialize(path, 0.01), "000", "000")
    assert abs(a_tr - a_ex) <= 1e-12


def test_tv_check_zero_theta():
    path = make_path(random_brickwall(3, 4, seed=13), random_brickwall(3, 4, seed=14))
    chk = tv_peakedness_check(path, 0.0, "000")
    assert chk.tv_distance == 0.0
    assert chk.peak_drop == 0.0
    assert chk.holds


@pytest.mark.parametrize("theta", [1e-3, 1e-2])
def test_tv_bound_holds(theta):
    base = random_brickwall(3, 6, seed=15)
    target = random_brickwall(3, 6, seed=16)
    path = make_path(base, target)
    chk = tv_peakedness_check(path, theta, "000")
    assert chk.holds
    assert chk.tv_distance <= 2 * 6 * theta * path.op_norms.max() + 1e-12


def test_tv_check_above_dense_cap():
    # two statevectors, no dense unitary: n = 13 is above N_MAX_DENSE = 12
    path = make_path(random_brickwall(13, 1, seed=18), random_brickwall(13, 1, seed=19))
    chk = tv_peakedness_check(path, 1e-2, "0" * 13)
    assert chk.holds and chk.tv_distance > 0.0


def test_small_theta_keeps_peak():
    # a peaked base stays peaked: drop at most the TV bound
    from peakedqc.ensembles import conditioned_generate

    inst = conditioned_generate(3, 0.9, seed=17, exact_delta=True)
    base = inst.circuit
    # unit-norm generators: scale a random same-shape target path
    target_circ = Circuit(3, [Gate(g.wires, g.matrix @ _small_unitary(g.matrix.shape[0], k))
                              for k, g in enumerate(base.gates)])
    path = make_path(base, target_circ)
    assert path.op_norms.max() <= 1.0 + 1e-9
    m = path.gate_count
    delta = inst.peakedness
    theta = delta / (10 * m)
    chk = tv_peakedness_check(path, theta, inst.peak_string)
    assert chk.peakedness_perturbed >= delta - 2 * m * theta


def _small_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(0, 0.05, (dim, dim)) + 1j * rng.normal(0, 0.05, (dim, dim))
    h = (h + h.conj().T) / 2
    h *= 1.0 / max(1.0, np.abs(np.linalg.eigvalsh(h)).max())  # norm <= 1
    w, q = np.linalg.eigh(h)
    return (q * np.exp(-1j * w)) @ q.conj().T


def test_polynomial_constant_for_k0():
    path = make_path(random_brickwall(2, 2, seed=18), random_brickwall(2, 2, seed=19))
    fit = amplitude_polynomial(path, 0, "00", chebyshev_nodes(0.0, 0.1, 3))
    base_peak = abs(amplitude(path.base, "00", "00")) ** 2
    assert fit.degree == 0
    assert abs(fit.p0_at(0.05) - base_peak) < 1e-12
    assert abs(fit.p0_at(5.0) - base_peak) < 1e-10


def test_polynomial_single_gate_degree_two():
    base = Circuit(1, [Gate((0,), np.eye(2))])
    target = Circuit(1, [Gate((0,), _small_unitary(2, 5))])
    path = make_path(base, target)
    nodes = chebyshev_nodes(0.0, 0.5, 3)
    fit = amplitude_polynomial(path, 1, "0", nodes)  # m=1, K=1: p0 has degree 2
    assert fit.degree == 2
    for theta in np.linspace(0.0, 1.0, 7):
        direct = abs(amplitude(materialize(path, theta, K=1), "0", "0")) ** 2
        assert abs(fit.p0_at(theta) - direct) < 1e-10


def _two_gate_circuit(seed):
    from peakedqc.ensembles import haar_unitary

    rng = np.random.default_rng(seed)
    return Circuit(2, [Gate((0, 1), haar_unitary(4, rng)) for _ in range(2)])


def test_polynomial_interpolation_and_extrapolation():
    # the acceptance-criterion shape: n=2, m=2, K=2, nodes on [0, 0.1]
    base = _two_gate_circuit(20)
    target = _two_gate_circuit(21)
    path = make_path(base, target)
    assert path.gate_count == 2  # m=2 gates, K=2: amplitude degree 4
    nodes = chebyshev_nodes(0.0, 0.1, 2 * 4 + 1)
    fit = amplitude_polynomial(path, 2, "00", nodes)
    held_out = chebyshev_nodes(0.003, 0.097, 10)
    for theta in held_out:
        direct = abs(amplitude(materialize(path, theta, K=2), "00", "00")) ** 2
        assert abs(fit.p0_at(theta) - direct) <= 1e-8
    endpoint = abs(amplitude(materialize(path, 1.0, K=2), "00", "00")) ** 2
    assert abs(fit.p0_at(1.0) - endpoint) <= 1e-6


def test_polynomial_p0_coefficients_are_real_and_match():
    path = make_path(_two_gate_circuit(22), _two_gate_circuit(23))
    fit = amplitude_polynomial(path, 2, "00", chebyshev_nodes(0.0, 0.1, 9))
    assert fit.p0_coeffs.shape == (fit.degree + 1,)
    for theta in (0.02, 0.07):
        via_coeffs = np.polynomial.polynomial.polyval(theta, fit.p0_coeffs)
        assert abs(via_coeffs - fit.p0_at(theta)) < 1e-9


def test_polynomial_needs_enough_nodes():
    path = make_path(_two_gate_circuit(24), _two_gate_circuit(25))
    # K=2, p0 degree 8: needs 9 nodes
    with pytest.raises(ValueError, match="nodes"):
        amplitude_polynomial(path, 2, "00", chebyshev_nodes(0.0, 0.1, 6))
    with pytest.raises(ValueError, match="distinct"):
        amplitude_polynomial(path, 2, "00", [0.01] * 9)


def test_ill_conditioned_nodes_rejected():
    path = make_path(_two_gate_circuit(26), _two_gate_circuit(27))
    # K=6: amplitude degree 12
    # nodes clustered pathologically at one end of the window
    bad = np.concatenate([np.linspace(0, 1e-7, 2 * 12), [0.1]])
    with pytest.raises(IllConditionedNodes, match="chebyshev"):
        amplitude_polynomial(path, 6, "00", bad)
