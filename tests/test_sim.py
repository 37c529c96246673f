"""Core simulator: gate application, amplitudes, sampling, embeddings."""
import json
import math
import string

import numpy as np
import pytest

from peakedqc import sim
from peakedqc.ensembles import random_brickwall
from peakedqc.sim import (
    Circuit,
    Gate,
    HADAMARD,
    PAULI_X,
    StructureError,
    amplitude,
    apply_circuit,
    basis_state,
    bit_index,
    circuit_from_json,
    circuit_to_json,
    compose,
    controlled_embedding,
    full_unitary,
    output_distribution,
    sample,
)


def dense_embed(matrix, wires, n):
    """Independent oracle: build the full 2^n x 2^n matrix of a gate by
    explicit bit bookkeeping (no strides, no reshapes)."""
    d = 1 << n
    k = len(wires)
    out = np.zeros((d, d), dtype=complex)
    for col in range(d):
        bits = [(col >> (n - 1 - w)) & 1 for w in range(n)]
        loc_in = 0
        for pos, w in enumerate(wires):
            loc_in = (loc_in << 1) | bits[w]
        for loc_out in range(1 << k):
            new_bits = list(bits)
            for pos, w in enumerate(wires):
                new_bits[w] = (loc_out >> (k - 1 - pos)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            out[row, col] += matrix[loc_out, loc_in]
    return out


def dense_oracle(circuit):
    u = np.eye(1 << circuit.n, dtype=complex)
    for g in circuit.gates:
        u = dense_embed(g.matrix, g.wires, circuit.n) @ u
    return u


def test_empty_circuit_is_identity():
    state = apply_circuit(basis_state(3), Circuit(3))
    assert state[0] == 1.0
    assert np.count_nonzero(state) == 1


def test_apply_circuit_refuses_wrong_length():
    with pytest.raises(StructureError, match="amplitudes"):
        apply_circuit(basis_state(2), Circuit(3))


def test_x_on_wire0_is_msb_flip():
    circ = Circuit(3, [Gate((0,), PAULI_X)])
    state = apply_circuit(basis_state(3, "000"), circ)
    assert abs(state[bit_index("100")] - 1.0) < 1e-15


def test_random_circuit_preserves_norm():
    circ = random_brickwall(2, 3, seed=10)
    state = apply_circuit(basis_state(2), circ)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10
    # recompute via a dense matrix-vector product
    u = dense_oracle(circ)
    assert np.allclose(u[:, 0], state, atol=1e-12)


def test_amplitude_identity_and_hadamard():
    assert amplitude(Circuit(2), "00", "00") == 1.0
    circ = Circuit(1, [Gate((0,), HADAMARD)])
    assert abs(amplitude(circ, "0", "1") - 1 / math.sqrt(2)) < 1e-15


def test_amplitude_matches_dense_product_n3():
    circ = random_brickwall(3, 4, seed=5)
    u = dense_oracle(circ)
    for out in ("000", "011", "110"):
        assert abs(amplitude(circ, "000", out) - u[bit_index(out), 0]) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_apply_matches_full_unitary(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    circ = random_brickwall(n, int(rng.integers(1, 5)), seed=rng)
    u = full_unitary(circ)
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    vec /= np.linalg.norm(vec)
    direct = apply_circuit(vec, circ)
    assert np.abs(u @ vec - direct).max() < 1e-12
    # and the dense kernel agrees with the bit-bookkeeping oracle
    assert np.abs(u - dense_oracle(circ)).max() < 1e-12


def einsum_apply(tensor, wires, matrix):
    """Independent reference for one gate: a single np.einsum over explicit
    index letters, one per axis (no reshapes, no moved axes)."""
    k, src = len(wires), string.ascii_letters[: tensor.ndim]
    new = string.ascii_letters[tensor.ndim: tensor.ndim + k]
    dst = list(src)
    for w, c in zip(wires, new):
        dst[w] = c
    spec = f"{new}{''.join(src[w] for w in wires)},{src}->{''.join(dst)}"
    return np.einsum(spec, matrix.reshape((2,) * 2 * k), tensor)


def _layouts(n):
    # an adjacent pair at every position (so trailing extents on both sides of
    # the sim.FOLD_UPTO test occur), one wire, three adjacent wires, the full
    # register, a descending pair, a non-adjacent triple and, from n = 6, four
    # and five wires at the tail (folded) and five ending one wire before it
    # (not folded)
    tails = [tuple(range(n - 4, n)), tuple(range(n - 5, n)), tuple(range(n - 6, n - 1))] if n > 5 else []
    return ([(w, w + 1) for w in range(n - 1)]
            + [(0,), (n // 2,), (n - 1,), (1, 2, 3), tuple(range(n)), (n - 2, n - 3), (0, 2, n - 1)] + tails)


def _kernel_circuit(n, wires, seed):
    """A random brickwall with one non-unitary gate on ``wires`` inside it."""
    rng = np.random.default_rng(seed)
    dim = 1 << len(wires)
    odd = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2 * dim)
    gates = random_brickwall(n, 3, seed=rng).gates
    return Circuit(n, gates[:5] + [Gate(wires, odd)] + gates[5:])


@pytest.mark.parametrize("n, wires", [(n, w) for n in (5, 14) for w in _layouts(n) if len(w) <= 12])
def test_apply_circuit_matches_einsum_reference(n, wires):
    circ = _kernel_circuit(n, wires, seed=n * 100 + sum(wires))
    rng = np.random.default_rng(len(wires))
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    vec /= np.linalg.norm(vec)
    ref = vec.reshape((2,) * n)
    for g in circ.gates:
        ref = einsum_apply(ref, g.wires, g.matrix)
    direct = apply_circuit(vec, circ)
    assert np.abs(direct - ref.ravel()).max() < 1e-12


@pytest.mark.parametrize("stack", [1, 3])
@pytest.mark.parametrize("n, wires", [(n, w) for n in (5, 14) for w in _layouts(n) if len(w) <= 12])
def test_matrix_stack_matches_einsum_reference(n, wires, stack):
    # a (B, D, D) stack applies matrix b to state b, into a spare buffer and in place
    rng = np.random.default_rng(n * 100 + sum(wires) + stack)
    dim = 1 << len(wires)
    mats = rng.standard_normal((stack, dim, dim)) + 1j * rng.standard_normal((stack, dim, dim))
    states = rng.standard_normal((stack,) + (2,) * n) + 1j * rng.standard_normal((stack,) + (2,) * n)
    ref = np.stack([einsum_apply(states[b], wires, mats[b]) for b in range(stack)])
    out = np.empty_like(states)
    sim._apply_matrix(states, wires, mats, out=out)
    assert np.abs(out - ref).max() < 1e-12 * np.abs(ref).max()
    sim._apply_matrix(states, wires, mats)
    assert np.array_equal(states, out)


@pytest.mark.parametrize("wires", _layouts(5))
def test_full_unitary_matches_einsum_reference(wires):
    circ = _kernel_circuit(5, wires, seed=sum(wires))
    ref = np.eye(32, dtype=complex).reshape((2,) * 5 + (32,))
    for g in circ.gates:
        ref = einsum_apply(ref, g.wires, g.matrix)
    assert np.abs(full_unitary(circ) - ref.reshape(32, 32)).max() < 1e-12


def test_full_unitary_above_fuse_from_matches_einsum_reference():
    n, d = 8, 256
    assert d * d >= sim.FUSE_FROM
    for wires in _layouts(n):
        circ = _kernel_circuit(n, wires, seed=sum(wires))
        ref = np.eye(d, dtype=complex).reshape((2,) * n + (d,))
        for g in circ.gates:
            ref = einsum_apply(ref, g.wires, g.matrix)
        assert np.abs(full_unitary(circ) - ref.reshape(d, d)).max() < 1e-12


def _mixed_gates(n, seed):
    """1-, 2- and 3-wire gates, descending pairs, non-adjacent triples and the
    controlled gates of ``controlled_embedding``, in a random order."""
    rng = np.random.default_rng(seed)
    layouts = [(0,), (n - 1,), (2, 3), (3, 2), (n - 1, n - 2), (1, 2, 3), (0, 2, 5), (n - 1, 1, 4),
               (4, 5, 6, 7), (0, 1, 2, 3, 4, 5)]
    gates = []
    for i in np.concatenate([rng.permutation(len(layouts)), rng.permutation(len(layouts))]):
        wires = layouts[i]
        dim = 1 << len(wires)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gates.append(Gate(wires, np.linalg.qr(m)[0]))
    gates += controlled_embedding(random_brickwall(n - 1, 3, seed=rng)).gates
    return gates


@pytest.mark.parametrize("width", [2, 3, sim.FUSE_WIDTH, 7])
@pytest.mark.parametrize("seed", range(3))
def test_fuse_blocks_are_contiguous_and_within_width(width, seed):
    gates = _mixed_gates(9, seed)
    fused = sim.fuse(gates, width)
    assert len(fused) < len(gates)
    for g in fused:
        if any(g is h for h in gates):
            continue
        assert g.wires == tuple(range(g.wires[0], g.wires[0] + len(g.wires)))
        assert len(g.wires) <= width


def test_fuse_passes_single_and_wide_gates_through():
    assert sim.fuse([], sim.FUSE_WIDTH) == []
    g = Gate((4, 1), np.eye(4))
    assert sim.fuse([g], sim.FUSE_WIDTH)[0] is g
    wide = Gate((0, 6), np.eye(4))
    fused = sim.fuse([Gate((0, 1), np.eye(4)), wide, Gate((5, 6), np.eye(4))], sim.FUSE_WIDTH)
    assert fused[1] is wide and len(fused) == 3


@pytest.mark.parametrize("width", [2, 3, sim.FUSE_WIDTH])
@pytest.mark.parametrize("seed", range(3))
def test_fused_pass_matches_unfused_pass(width, seed):
    n = 9
    gates = _mixed_gates(n, seed)
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    assert vec.size < sim.FUSE_FROM  # so apply_circuit itself applies gate by gate
    plain = apply_circuit(vec, Circuit(n, gates))
    fused = apply_circuit(vec, Circuit(n, sim.fuse(gates, width)))
    assert np.abs(fused - plain).max() < 1e-12


def _haar_gate(wires, rng):
    dim = 1 << len(wires)
    return Gate(wires, np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0])


def _basis_start_circuit(kind, n):
    rng = np.random.default_rng(n)
    if kind == "brickwall":
        return random_brickwall(n, n, seed=rng)
    if kind == "layouts":  # non-adjacent and descending wires among brickwall layers
        gates = [_haar_gate(w, rng) for w in _layouts(n) if len(w) <= 6]
        return Circuit(n, [gates[i] for i in rng.permutation(len(gates))] + random_brickwall(n, 2, seed=rng).gates)
    if kind == "top-first":  # the first gate reaches wire n - 1
        return Circuit(n, [_haar_gate((n - 1, 0), rng)] + random_brickwall(n, 4, seed=rng).gates)
    return Circuit(n, random_brickwall(n - 3, n - 3, seed=rng).gates)  # the last three wires stay idle


@pytest.mark.parametrize("kind", ["brickwall", "layouts", "top-first", "idle-tail"])
@pytest.mark.parametrize("n", [14, 15, 16])
def test_basis_start_matches_array_start(kind, n):
    assert 1 << n >= sim.FUSE_FROM  # so the string start takes the first-touch path
    circ = _basis_start_circuit(kind, n)
    for bits in ("0" * n, "1" * n, ("01" * n)[:n]):
        assert np.abs(apply_circuit(bits, circ) - apply_circuit(basis_state(n, bits), circ)).max() < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_first_touch_order_keeps_each_wire_sequence(seed):
    n = 9
    for gates in (_mixed_gates(n, seed), sim.fuse(random_brickwall(n, n, seed=seed).gates, sim.FUSE_WIDTH)):
        order = sim.first_touch_order(gates)
        assert sorted(map(id, order)) == sorted(map(id, gates))
        for w in range(n):
            assert [id(g) for g in order if w in g.wires] == [id(g) for g in gates if w in g.wires]
    low, high = Gate((0, 1), np.eye(4)), Gate((5, 6), np.eye(4))
    assert sim.first_touch_order([high, low]) == [low, high]


def test_full_unitary_identity_and_h():
    assert np.array_equal(full_unitary(Circuit(2)), np.eye(4))
    u = full_unitary(Circuit(1, [Gate((0,), HADAMARD)]))
    assert np.allclose(u, np.array([[1, 1], [1, -1]]) / math.sqrt(2))


def test_full_unitary_is_unitary():
    circ = random_brickwall(3, 5, seed=2)
    u = full_unitary(circ)
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-10


def test_full_unitary_cap():
    with pytest.raises(StructureError, match="N_MAX_DENSE"):
        full_unitary(Circuit(sim.N_MAX_DENSE + 1))


def test_sampling_identity_circuit():
    shots = sample(Circuit(3), "000", 50, seed=0)
    assert set(shots.shots) == {"000"}


def test_sampling_uniform_two_qubits():
    circ = Circuit(2, [Gate((0,), HADAMARD), Gate((1,), HADAMARD)])
    shots = sample(circ, "00", 100_000, seed=123)
    sigma = math.sqrt(0.25 * 0.75 / 100_000)
    for s in ("00", "01", "10", "11"):
        freq = shots.shots.count(s) / 100_000
        assert abs(freq - 0.25) <= 3 * sigma


def test_sampling_matches_amplitudes_peaked():
    from peakedqc.ensembles import conditioned_generate

    inst = conditioned_generate(3, 0.9, seed=77, exact_delta=True)
    shots = sample(inst.circuit, "000", 100_000, seed=99)
    freq = shots.shots.count(inst.peak_string) / 100_000
    sigma = math.sqrt(0.9 * 0.1 / 100_000)
    assert abs(freq - 0.9) <= 3 * sigma


def test_sampling_deterministic_given_seed():
    circ = random_brickwall(3, 2, seed=4)
    a = sample(circ, "000", 100, seed=5)
    b = sample(circ, "000", 100, seed=5)
    assert a.shots == b.shots


def test_controlled_embedding_probabilities():
    circ = random_brickwall(3, 3, seed=8)
    emb = controlled_embedding(circ)
    p = output_distribution(emb, "0000")
    assert abs(p[0] - 0.5) < 1e-12  # Pr[0, 0^n] = 1/2 exactly
    assert np.abs(p[1:8]).max() < 1e-14  # Pr[0, x != 0^n] = 0
    # 2 Pr[1, x] = p_x(C) for every x
    assert np.abs(2 * p[8:] - output_distribution(circ)).max() < 1e-12


def test_controlled_embedding_identity_and_x():
    emb = controlled_embedding(Circuit(2))
    p = output_distribution(emb, "000")
    assert abs(p[bit_index("100")] - 0.5) < 1e-14
    embx = controlled_embedding(Circuit(2, [Gate((0,), PAULI_X)]))
    px = output_distribution(embx, "000")
    assert abs(px[bit_index("110")] - 0.5) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controlled_embedding_exact_halving(n):
    circ = random_brickwall(n, 3, seed=20 + n)
    p = output_distribution(controlled_embedding(circ))
    assert np.abs(2 * p[1 << n :] - output_distribution(circ)).max() < 1e-12


def test_gate_validation():
    with pytest.raises(StructureError, match="not unitary"):
        sim.gate_from_json({"wires": [0], "matrix": [[1, 0], [0, 0], [0, 0], [2, 0]]})
    with pytest.raises(StructureError, match="distinct"):
        Gate((1, 1), np.eye(4))
    with pytest.raises(StructureError, match="invalid"):
        Circuit(2, [Gate((0, 2), np.eye(4))])


@pytest.mark.parametrize("gate", [
    {"wires": [0], "matrix": [[1.01, 0], [0, 0], [0, 0], [1.01, 0]]},
    {"wires": [0], "matrix": [[float("nan"), 0], [0, 0], [0, 0], [1, 0]]},
    {"wires": [0], "matrix": [[float("inf"), 0], [0, 0], [0, 0], [1, 0]]},
    {"matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    {"wires": [0]},
    {"wires": [0], "matrix": [[1, 0, 0], [0, 0], [0, 0], [1, 0]]},
    {"wires": [0, 1], "params": [float("nan")] + [0.0] * 14},
    [0, 1],
    {"wires": "ab", "matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    {"wires": 3, "matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    {"wires": [0.5], "matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]},
])
def test_gate_from_json_rejects_malformed(gate):
    with pytest.raises(StructureError):
        circuit_from_json({"n": 2, "gates": [gate]})


@pytest.mark.parametrize("gate", [
    {"wires": [0, 1], "params": ["0.1"] * 15},
    {"wires": [0, 1], "params": [True] * 15},
    {"wires": [0, 1], "params": [0.0] * 14 + [None]},
    {"wires": [0, 1], "params": 0.1},
    {"wires": [0], "matrix": [[True, False], [False, False], [False, False], [True, False]]},
    {"wires": [0], "matrix": [["1", 0], [0, 0], [0, 0], [1, 0]]},
    {"wires": [0], "matrix": [[1, 0], [0, 0], [0, 0], [1, "0"]]},
    {"wires": [0], "matrix": [[1, 0], [0, 0], [0, 0], "10"]},
])
def test_gate_from_json_refuses_non_numbers(gate):
    # numpy would read "0.1" as 0.1 and true as 1.0; a file must give JSON numbers
    with pytest.raises(StructureError, match="JSON numbers"):
        sim.gate_from_json(gate)


def test_dagger_of_params_gate_negates_the_coefficients():
    theta = np.random.default_rng(7).normal(0.0, 0.5, 15)
    g = Gate.from_params((2, 3), theta)
    d = g.dagger()
    assert d.wires == (2, 3) and np.array_equal(d.params, -theta)
    assert np.abs(d.matrix - g.matrix.conj().T).max() < 1e-14
    assert Gate((0,), HADAMARD).dagger().params is None


@pytest.mark.parametrize("obj", [
    {"n": "x", "gates": []},
    {"n": 2.5, "gates": []},
    {"n": True, "gates": []},
    {"n": 2, "gates": [], "architecture": {"type": "brickwall", "depth": "1"}},
    {"n": 2, "gates": [], "architecture": {"type": "brickwall"}},
])
def test_circuit_from_json_rejects_non_integer_n_and_depth(obj):
    with pytest.raises(StructureError, match="must be an integer"):
        circuit_from_json(obj)


@pytest.mark.parametrize("obj", [{"gates": []}, {"n": 2}, [2, []]])
def test_circuit_from_json_needs_n_and_gates(obj):
    with pytest.raises(StructureError, match="n and gates"):
        circuit_from_json(obj)


def test_random_brickwall_gates_are_unitary():
    for g in random_brickwall(6, 6, seed=4).gates:
        assert np.abs(g.matrix.conj().T @ g.matrix - np.eye(4)).max() < 1e-12


def test_matrix_pairs_match_entrywise_encoding():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m[0, 0], m[1, 1] = -0.0, complex(0.0, -0.0)
    loop = [[float(z.real), float(z.imag)] for z in m.ravel()]
    assert json.dumps(sim._matrix_to_pairs(m)) == json.dumps(loop)
    assert np.array_equal(sim._pairs_to_matrix(loop), m)


def test_brickwall_pattern_validation():
    good = random_brickwall(4, 2, seed=0)
    assert [g.wires for g in good.gates] == [(0, 1), (2, 3), (1, 2)]
    with pytest.raises(StructureError, match="brickwall"):
        Circuit(4, list(reversed(good.gates)), architecture=sim.Brickwall(2))


def test_compose_and_adjoint():
    a = random_brickwall(2, 1, seed=1)
    b = random_brickwall(2, 1, seed=2)
    prod = full_unitary(compose(a, b))  # A @ B, B acts first
    assert np.abs(prod - full_unitary(a) @ full_unitary(b)).max() < 1e-12
    inv = compose(sim.adjoint(a), a)
    assert np.abs(full_unitary(inv) - np.eye(4)).max() < 1e-12


def test_circuit_json_roundtrip():
    circ = random_brickwall(3, 2, seed=3)
    circ.gates.append(Gate.from_params((1, 2), np.linspace(-0.3, 0.4, 15)))
    obj = circuit_to_json(Circuit(3, circ.gates))
    back = circuit_from_json(obj)
    assert np.abs(full_unitary(back) - full_unitary(Circuit(3, circ.gates))).max() < 1e-12
    assert circuit_to_json(back) == obj


def test_su4_gate_unitary_and_identity():
    g = sim.su4_gate(np.zeros(15))
    assert np.allclose(g, np.eye(4))
    g = sim.su4_gate(np.linspace(-1, 1, 15))
    assert np.abs(g.conj().T @ g - np.eye(4)).max() < 1e-12


def test_one_su4_exponential():
    """Stacked and single-gate exponentials, and the ansatz's gates, agree bit for bit."""
    from peakedqc.synth import ParamCircuit

    params = np.random.default_rng(11).normal(0.0, 1.0, size=(200, 15))
    mats, w, q = sim.su4_gates(params)
    assert mats.shape == (200, 4, 4) and w.shape == (200, 4) and q.shape == (200, 4, 4)
    for row, mat in zip(params, mats):
        assert np.array_equal(mat, sim.su4_gate(row))
    pcirc = ParamCircuit.random(5, 5, np.random.default_rng(12), scale=1.0)
    for pair, p, g in zip(pcirc.pairs, pcirc.params, pcirc.materialize().gates):
        assert np.array_equal(g.matrix, Gate.from_params(pair, p).matrix)


def test_sampleset_holds_indices():
    s = sim.SampleSet(3, ["101", "000", "111"])
    assert s.indices.dtype == np.uint64
    assert s.indices.tolist() == [5, 0, 7]
    back = sim.SampleSet(3, np.array([5, 0, 7]))
    assert back.shots == ["101", "000", "111"]
    wide = "1" + "0" * 61 + "1"
    assert sim.SampleSet(63, [wide]).indices.tolist() == [int(wide, 2)]
    assert sim.SampleSet(63, [wide]).shots == [wide]
    assert sim.SampleSet(4, []).shots == []


@pytest.mark.parametrize("n, shots", [(64, ["0" * 64]), (3, ["101", "10"]), (3, ["1010"]), (3, ["1a1"]),
                                      (3, np.array([3, -1])), (3, np.array([8])),
                                      (4, [[0, 1], [5, 5]]), (4, [["0101"]]), (4, 5)])
def test_sampleset_rejects_malformed(n, shots):
    with pytest.raises(sim.StructureError):
        sim.SampleSet(n, shots)


def test_statevector_cap_refused_before_allocation():
    with pytest.raises(StructureError, match="N_MAX_STATEVECTOR"):
        sample(Circuit(40), "0" * 40, 10, seed=0)
    with pytest.raises(StructureError, match="N_MAX_STATEVECTOR"):
        apply_circuit("0" * 40, Circuit(40))
