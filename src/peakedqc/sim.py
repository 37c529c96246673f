"""Dense statevector simulation of small quantum circuits.

Conventions used throughout the package:

* Wire 0 is the most significant bit of an outcome string, so the basis
  state ``|b_0 b_1 ... b_{n-1}>`` sits at index ``int(b, 2)`` of the
  amplitude vector.
* Bit strings are plain Python strings of ``'0'``/``'1'`` characters;
  shot data is held as ``uint64`` indices and only rendered as strings.
* Gates carry explicit ``2^k x 2^k`` matrices for ``k`` wires.  Two-qubit
  gates may instead carry 15 real coefficients for the fixed Pauli-product
  generator basis (see :func:`su4_gate`); the matrix is materialized at
  construction time.
* Matrices built in memory are trusted; :func:`gate_from_json` checks each
  one read from a file once (finite, unitary within ``UNITARITY_TOL``).

Every gate goes through :func:`_apply_matrix`, which views the buffer as
``(L, D, R)`` for contiguous ascending wires and folds ``R`` into the
matrix when ``L > 1`` and ``D * R <= FOLD_UPTO``; circuit passes alternate
between two buffers.  Passes over buffers of at least ``FUSE_FROM``
entries first :func:`fuse` the gates into blocks over at most
``FUSE_WIDTH`` contiguous wires, so each block reads and writes the buffer
once.  A pass from a basis state named by a bit string (:func:`apply_circuit`
with a string start) of at least ``FUSE_FROM`` entries also puts the blocks
in :func:`first_touch_order` and holds only the wires ``[0, m)`` that the
blocks so far have touched, in the first ``2^m`` entries of the two
buffers; the other wires are still in their basis state and are spread in
when a block first reaches them.  A depth-n brickwall then costs 22.8 full
passes at n = 20 instead of 43 (0.44 to 0.27 s).  ``N_MAX_DENSE`` caps dense
unitaries, ``N_MAX_STATEVECTOR`` statevectors; past either, a
``StructureError`` comes before any allocation.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

N_MAX_DENSE = 12  # a 2^12 x 2^12 complex128 matrix is ~268 MB
N_MAX_STATEVECTOR = 22  # two 2^22 complex128 buffers are 128 MB
# measured in BENCH_gate_fusion.json
FOLD_UPTO = 32  # fold the trailing extent R into a D x D matrix while D * R is at most this
FUSE_WIDTH = 5  # fused blocks span at most this many contiguous wires
FUSE_FROM = 1 << 14  # fuse the passes over buffers of at least this many entries

UNITARITY_TOL = 1e-12


class StructureError(ValueError):
    """Wires, architectures or peak paths that do not line up."""


# ---------------------------------------------------------------------------
# fixed matrices and the two-qubit generator basis

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def two_qubit_pauli_basis() -> np.ndarray:
    """The 15 traceless Hermitian generators ``sigma_a (x) sigma_b``.

    All pairs ``(a, b) != (I, I)`` in row-major order over the labels
    ``I, X, Y, Z``.  This fixed ordering is the contract for the 15-entry
    ``params`` vector of a parameterized two-qubit gate.
    """
    mats = []
    for a in "IXYZ":
        for b in "IXYZ":
            if a == "I" and b == "I":
                continue
            mats.append(np.kron(_PAULIS[a], _PAULIS[b]))
    return np.stack(mats)


SU4_BASIS = two_qubit_pauli_basis()


def su4_gates(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``exp(-i sum_k params[g, k] P_k)`` per row of a ``(G, 15)`` stack, with its eigh factors."""
    h = np.einsum("gm,mij->gij", params, SU4_BASIS)
    w, q = np.linalg.eigh(h)
    mats = np.einsum("gik,gk,gjk->gij", q, np.exp(-1j * w), q.conj())
    return mats, w, q


def su4_gate(params: Sequence[float]) -> np.ndarray:
    """``exp(-i sum_k params[k] P_k)`` over the fixed two-qubit Pauli basis."""
    params = np.asarray(params, dtype=float)
    if params.shape != (15,) or not np.isfinite(params).all():
        raise StructureError(f"expected 15 finite generator coefficients, got shape {params.shape}")
    return su4_gates(params[None])[0][0]


# ---------------------------------------------------------------------------
# domain types


@dataclass(eq=False)
class Gate:
    """A ``k``-wire gate with an explicit ``2^k x 2^k`` matrix.

    Only wires and shape are checked: matrices built in memory are trusted,
    and Taylor-truncated path gates are deliberately not unitary.
    """

    wires: tuple[int, ...]
    matrix: np.ndarray
    params: np.ndarray | None = None

    def __post_init__(self):
        self.wires = tuple(int(w) for w in self.wires)
        if len(self.wires) == 0:
            raise StructureError("gate needs at least one wire")
        if len(set(self.wires)) != len(self.wires):
            raise StructureError(f"gate wires must be distinct, got {self.wires}")
        if self.params is not None:
            self.params = np.asarray(self.params, dtype=float)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = 1 << len(self.wires)
        if self.matrix.shape != (dim, dim):
            raise StructureError(f"matrix shape {self.matrix.shape} does not match {len(self.wires)} wires")

    @classmethod
    def from_params(cls, wires: Iterable[int], params: Sequence[float]) -> "Gate":
        return cls(tuple(wires), su4_gate(params), params=params)

    def dagger(self) -> "Gate":
        if self.params is not None:  # exp(-iH)^dagger = exp(-i(-H)), so the coefficients survive
            return Gate.from_params(self.wires, -self.params)
        return Gate(self.wires, self.matrix.conj().T)


@dataclass(frozen=True)
class Brickwall:
    """Alternating even/odd nearest-neighbour two-qubit layer pattern."""

    depth: int


def brickwall_pairs(n: int, depth: int) -> list[tuple[int, int]]:
    """Wire pairs in gate order, layer by layer: even layers start at wire 0, odd at wire 1."""
    if n < 1:
        raise StructureError(f"a brickwall needs n >= 1 wires, got n={n}")
    if depth < 1:
        raise StructureError("brickwall depth must be >= 1")
    return [(w, w + 1) for layer in range(depth) for w in range(layer % 2, n - 1, 2)]


@dataclass(eq=False)
class Circuit:
    """An ordered gate list over ``n`` wires, optionally brickwall-tagged."""

    n: int
    gates: list[Gate] = field(default_factory=list)
    architecture: Brickwall | None = None

    def __post_init__(self):
        for g in self.gates:
            if any(w < 0 or w >= self.n for w in g.wires):
                raise StructureError(f"gate wires {g.wires} invalid for n={self.n}")
        if self.architecture is not None:
            if [g.wires for g in self.gates] != brickwall_pairs(self.n, self.architecture.depth):
                raise StructureError("gate order does not match the brickwall layer pattern")


@dataclass(eq=False)
class SampleSet:
    """n-bit outcomes (n <= 63) as ``uint64`` basis indices; ``shots`` renders
    them as strings.  Bit strings passed as ``indices`` are parsed once here."""

    n: int
    indices: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.n <= 63:
            raise StructureError(f"shots on {self.n} wires: 1 to 63 are supported")
        idx = np.asarray(self.indices)
        if idx.ndim != 1:
            raise StructureError(f"shots must be a flat list, got an array of shape {idx.shape}")
        if idx.dtype.kind not in "ui":  # bit strings, checked and packed in one pass
            strings = idx.astype(str).ravel()
            codes = strings.astype(f"U{self.n}").view(np.uint32).reshape(-1, self.n) - np.uint32(ord("0"))
            bad = (np.char.str_len(strings) != self.n) | (codes > 1).any(axis=1)
            if bad.any():
                raise StructureError(f"shot {strings[bad.argmax()]!r} is not an {self.n}-bit string")
            idx = pack_bits(codes)
        elif (idx < 0).any() or (idx.astype(np.uint64) >> np.uint64(self.n)).any():
            raise StructureError(f"shot indices must lie in [0, 2^{self.n})")
        self.indices = idx.astype(np.uint64, copy=False)

    @property
    def shots(self) -> list[str]:
        codes = unpack_bits(self.indices, self.n).astype(np.uint32) + ord("0")
        return codes.view(f"U{self.n}").ravel().tolist()


# ---------------------------------------------------------------------------
# bit string helpers


def bit_index(bits: str, n: int | None = None) -> int:
    if n is not None and len(bits) != n:
        raise StructureError(f"bit string {bits!r} does not have length {n}")
    if set(bits) - {"0", "1"}:
        raise StructureError(f"not a bit string: {bits!r}")
    return int(bits, 2)


def index_bits(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 entries, wire 0 first, to ``uint64`` basis indices."""
    return bits.astype(np.uint64) @ (np.uint64(1) << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.uint64))


def unpack_bits(indices: np.ndarray, n: int) -> np.ndarray:
    """``uint64`` basis indices to rows of n 0/1 ``uint8`` entries, wire 0 first."""
    return ((indices[:, None] >> np.arange(n - 1, -1, -1, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)


def x_layer_gates(mask_bits: str) -> list[Gate]:
    """Single-qubit X gates on every wire where ``mask_bits`` has a 1.

    As a permutation the layer maps ``|x>`` to ``|x XOR mask>``.
    """
    return [Gate((w,), PAULI_X) for w, b in enumerate(mask_bits) if b == "1"]


# ---------------------------------------------------------------------------
# simulation kernels


def _apply_matrix(tensor: np.ndarray, wires: tuple[int, ...], matrix: np.ndarray,
                  out: np.ndarray | None = None) -> None:
    """Apply ``matrix`` to the ``wires`` axes of ``tensor``, into ``out`` or in place.

    Both are C-contiguous buffers with one length-2 axis per wire (trailing
    batch axes ride along).  Contiguous ascending wires view them as
    ``(L, D, R)``: one GEMM ``(L, D*R) @ (M (x) I_R)^T`` if ``L > 1`` and
    the folded matrix's side ``D*R`` is at most ``FOLD_UPTO``, else one
    stacked ``matmul``.  Other wire tuples go through ``moveaxis``.
    """
    out = tensor if out is None else out
    k, first, dim = len(wires), wires[0], 1 << len(wires)
    if wires != tuple(range(first, first + k)):
        moved = np.moveaxis(tensor, wires, range(k))
        np.moveaxis(out, wires, range(k))[...] = (matrix @ moved.reshape(dim, -1)).reshape(moved.shape)
        return
    left, right = 1 << first, tensor.size >> (first + k)
    if left > 1 and dim * right <= FOLD_UPTO:
        folded = (matrix.T[:, None, :, None] * np.eye(right)[None, :, None, :]).reshape(dim * right, -1)
        np.matmul(tensor.reshape(left, -1), folded, out=out.reshape(left, -1))
    else:
        np.matmul(matrix, tensor.reshape(left, dim, right), out=out.reshape(left, dim, right))


def _embed(matrix: np.ndarray, small: tuple[int, ...], big: tuple[int, ...],
           onto: np.ndarray | None = None) -> np.ndarray:
    """Lift a gate matrix on wires ``small`` to the wire tuple ``big`` or, given
    ``onto``, multiply the lift onto that matrix from the left in place."""
    lifted = np.eye(1 << len(big), dtype=complex) if onto is None else onto
    _apply_matrix(lifted.reshape((2,) * len(big) + (-1,)), tuple(big.index(w) for w in small), matrix)
    return lifted


def fuse(gates: Sequence[Gate], width: int) -> list[Gate]:
    """The same product as ``gates``, with gates merged into blocks on contiguous wires.

    Greedy, in gate order: a gate joins the last block that touches any of
    its wires if the joined span (lowest to highest wire) stays within
    ``width`` wires, else it starts a block.  No block after that one
    touches the gate's wires, so moving the gate there changes nothing.
    Blocks of one gate come back as that gate; a block of several is one
    gate on its ascending span.
    """
    blocks: list[tuple[set[int], list[Gate]]] = []
    for g in gates:
        last = next((b for b in reversed(blocks) if b[0].intersection(g.wires)), None)
        joined = last[0].union(g.wires) if last else set(g.wires)
        if last and max(joined) - min(joined) < width:
            last[0].update(g.wires)
            last[1].append(g)
        else:
            blocks.append((set(g.wires), [g]))
    fused = []
    for touched, members in blocks:
        if len(members) == 1:
            fused.append(members[0])
            continue
        span = tuple(range(min(touched), max(touched) + 1))
        matrix = np.eye(1 << len(span), dtype=complex)
        for g in members:
            _embed(g.matrix, g.wires, span, onto=matrix)
        fused.append(Gate(span, matrix))
    return fused


def _run_gates(buffer: np.ndarray, shape: tuple[int, ...], gates: Sequence[Gate]) -> np.ndarray:
    """Apply ``gates`` in order, alternating with a spare; returns the buffer holding the result."""
    if buffer.size >= FUSE_FROM:
        gates = fuse(gates, FUSE_WIDTH)
    src, dst = buffer.reshape(shape), np.empty_like(buffer).reshape(shape)
    for g in gates:
        _apply_matrix(src, g.wires, g.matrix, out=dst)
        src, dst = dst, src
    return src.reshape(buffer.shape)


def first_touch_order(blocks: Sequence[Gate]) -> list[Gate]:
    """``blocks`` reordered so that each comes after every earlier block sharing a
    wire with it, and among the blocks that are ready the lowest top wire goes first."""
    last: dict[int, int] = {}
    waiting = [0] * len(blocks)
    after: list[list[int]] = [[] for _ in blocks]
    for j, g in enumerate(blocks):
        before = {last[w] for w in g.wires if w in last}
        waiting[j] = len(before)
        for i in before:
            after[i].append(j)
        last.update(dict.fromkeys(g.wires, j))
    ready = [(max(g.wires), j) for j, g in enumerate(blocks) if not waiting[j]]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)[1]
        order.append(blocks[i])
        for j in after[i]:
            waiting[j] -= 1
            if not waiting[j]:
                heapq.heappush(ready, (max(blocks[j].wires), j))
    return order


def _run_from_basis(bits: str, gates: Sequence[Gate]) -> np.ndarray:
    """Apply ``gates`` to ``|bits>`` in first-touch order, holding only the touched wires.

    The state of wires ``[0, m)`` sits in the first ``2^m`` entries of one of
    two full-size buffers; the other wires are still ``|bits[m:]>``.  A block
    whose top wire is at or past ``m`` first spreads it as
    ``psi (x) |bits[m:top]>`` into the zeroed front of the spare buffer.
    """
    n = len(bits)
    src, dst = np.empty(1 << n, dtype=complex), np.empty(1 << n, dtype=complex)
    src[0], m = 1.0, 0
    for g in first_touch_order(fuse(gates, FUSE_WIDTH)) + [None]:
        top = n if g is None else max(g.wires) + 1
        if top > m:
            spread = dst[:1 << top].reshape(1 << m, 1 << (top - m))
            spread[...] = 0
            spread[:, int(bits[m:top], 2)] = src[:1 << m]
            src, dst, m = dst, src, top
        if g is not None:
            shape = (2,) * m
            _apply_matrix(src[:1 << m].reshape(shape), g.wires, g.matrix, out=dst[:1 << m].reshape(shape))
            src, dst = dst, src
    return src


def basis_state(n: int, bits: str | None = None) -> np.ndarray:
    """The ``2^n`` amplitudes of ``|bits>`` (``|0...0>`` by default)."""
    if n > N_MAX_STATEVECTOR:
        raise StructureError(f"a statevector on n={n} wires exceeds N_MAX_STATEVECTOR={N_MAX_STATEVECTOR}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0 if bits is None else bit_index(bits, n)] = 1.0
    return amps


def apply_circuit(start: np.ndarray | str, circuit: Circuit) -> np.ndarray:
    """Product of the gate actions in order on a start state; returns a fresh array.

    ``start`` is either ``2^n`` amplitudes or an n-bit string naming the basis
    state to start from.  A string start of at least ``FUSE_FROM`` entries
    runs in first-touch order from the touched wires only (see
    :func:`_run_from_basis`); a smaller one becomes :func:`basis_state`, and
    one past ``N_MAX_STATEVECTOR`` is refused there before any allocation.
    """
    if isinstance(start, str):
        if circuit.n > N_MAX_STATEVECTOR or (1 << circuit.n) < FUSE_FROM:
            start = basis_state(circuit.n, start)
        else:
            bit_index(start, circuit.n)
            return _run_from_basis(start, circuit.gates)
    if len(start) != 1 << circuit.n:
        raise StructureError(f"{len(start)} amplitudes for a circuit on {circuit.n} wires")
    return _run_gates(np.array(start, dtype=complex), (2,) * circuit.n, circuit.gates)


def amplitude(circuit: Circuit, bits_in: str, bits_out: str) -> complex:
    """``<out|U|in>`` for the circuit unitary ``U``."""
    return complex(apply_circuit(bits_in, circuit)[bit_index(bits_out, circuit.n)])


def output_distribution(circuit: Circuit, bits_in: str | None = None) -> np.ndarray:
    return np.abs(apply_circuit("0" * circuit.n if bits_in is None else bits_in, circuit)) ** 2


def sample(circuit: Circuit, bits_in: str, shots: int, seed=None, meta: dict | None = None) -> SampleSet:
    """I.i.d. outcome draws from ``|<x|U|in>|^2``; deterministic given seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = as_rng(seed)
    p = output_distribution(circuit, bits_in)
    p /= p.sum()
    idx = rng.choice(p.size, size=shots, p=p)
    info = {"instance_id": None, "noise": None, "seed": seed}
    if meta:
        info.update(meta)
    return SampleSet(circuit.n, idx, info)


def full_unitary(circuit: Circuit) -> np.ndarray:
    """Dense ``d x d`` matrix of the circuit; column ``x`` is ``U|x>``."""
    if circuit.n > N_MAX_DENSE:
        raise StructureError(f"dense unitary for n={circuit.n} exceeds the N_MAX_DENSE={N_MAX_DENSE} cap")
    d = 1 << circuit.n
    return _run_gates(np.eye(d, dtype=complex), (2,) * circuit.n + (d,), circuit.gates)


def compose(*circuits: Circuit) -> Circuit:
    """Circuit for the unitary product ``compose(A, B) = A @ B`` (B acts first)."""
    if not circuits:
        raise StructureError("compose needs at least one circuit")
    n = circuits[0].n
    gates: list[Gate] = []
    for c in reversed(circuits):
        if c.n != n:
            raise StructureError("cannot compose circuits with different wire counts")
        gates.extend(c.gates)
    return Circuit(n, gates)


def adjoint(circuit: Circuit) -> Circuit:
    return Circuit(circuit.n, [g.dagger() for g in reversed(circuit.gates)])


def controlled_embedding(circuit: Circuit) -> Circuit:
    """Promote every gate to its controlled version on a fresh ancilla wire 0.

    The returned ``(n+1)``-wire circuit starts with H on the ancilla, so on
    ``|0>|0^n>`` it prepares ``(|0>|0^n> + |1>C|0^n>)/sqrt(2)``; outcome
    probabilities are ``Pr[0,0^n] = 1/2``, ``Pr[1,x] = p_x(C)/2`` and
    ``Pr[0,x != 0^n] = 0``.  Controlled gates are direct ``2^(k+1)`` block
    embeddings (identity block plus the original matrix).
    """
    gates = [Gate((0,), HADAMARD)]
    for g in circuit.gates:
        dim = 1 << len(g.wires)
        m = np.eye(2 * dim, dtype=complex)
        m[dim:, dim:] = g.matrix
        gates.append(Gate((0,) + tuple(w + 1 for w in g.wires), m))
    return Circuit(circuit.n + 1, gates)


# ---------------------------------------------------------------------------
# RNG and JSON plumbing


def as_rng(seed) -> np.random.Generator:
    """Pass generators through, spawn a fresh one from anything else."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, count: int) -> list[np.random.Generator]:
    """Independent child generators, deterministic in (seed, count)."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(count)]


def _matrix_to_pairs(matrix: np.ndarray) -> list[list[float]]:
    return np.stack([matrix.real, matrix.imag], -1).reshape(-1, 2).tolist()


def _are_numbers(values: Iterable) -> bool:
    """Whether every entry is a JSON number: ``true`` and ``"0.1"`` are not, though numpy takes both."""
    return set(map(type, values)) <= {int, float}


def _pairs_to_matrix(pairs: Sequence[Sequence[float]]) -> np.ndarray:
    try:
        pairs_ok = set(map(len, pairs)) <= {2} and _are_numbers(chain.from_iterable(pairs))
    except TypeError:
        pairs_ok = False
    if not pairs_ok:
        raise StructureError("matrix entries must be [re, im] pairs of JSON numbers")
    flat = np.fromiter(chain.from_iterable(pairs), float, 2 * len(pairs)).view(complex)
    dim = math.isqrt(flat.size)
    if dim * dim != flat.size:
        raise StructureError(f"matrix entry list of length {flat.size} is not square")
    return flat.reshape(dim, dim)


def gate_to_json(gate: Gate) -> dict:
    if gate.params is not None:
        return {"wires": list(gate.wires), "params": [float(p) for p in gate.params]}
    return {"wires": list(gate.wires), "matrix": _matrix_to_pairs(gate.matrix)}


def _json_int(value, what: str) -> int:
    """``value`` if a file gave an integer there (JSON ``true`` is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructureError(f"{what} must be an integer, got {value!r}")
    return value


def gate_from_json(obj: dict) -> Gate:
    """A gate read from a file: the one place a gate matrix is checked to be unitary."""
    if not (isinstance(obj, dict) and isinstance(obj.get("wires"), list)
            and ("matrix" in obj or "params" in obj)):
        raise StructureError("a gate needs a wires list and a matrix or params")
    wires = tuple(_json_int(w, "a gate wire") for w in obj["wires"])
    try:
        if "params" in obj:
            if not (isinstance(obj["params"], list) and _are_numbers(obj["params"])):
                raise StructureError(f"params of the gate on wires {wires} must be a list of JSON numbers")
            return Gate.from_params(wires, obj["params"])
        m = _pairs_to_matrix(obj["matrix"])
    except OverflowError:  # a JSON integer past the float range
        raise StructureError(f"the gate on wires {wires} has a number past the float range") from None
    defect = np.abs(m.conj().T @ m - np.eye(len(m))).max() if np.isfinite(m).all() else np.inf
    if not defect <= UNITARITY_TOL:
        raise StructureError(f"gate matrix on wires {wires} is not unitary (defect {defect:.3e})")
    return Gate(wires, m)


def circuit_to_json(circuit: Circuit) -> dict:
    arch = None
    if circuit.architecture is not None:
        arch = {"type": "brickwall", "depth": circuit.architecture.depth}
    return {
        "n": circuit.n,
        "gates": [gate_to_json(g) for g in circuit.gates],
        "architecture": arch,
    }


def circuit_from_json(obj: dict) -> Circuit:
    if not isinstance(obj, dict) or "n" not in obj or not isinstance(obj.get("gates"), list):
        raise StructureError("a circuit needs n and gates")
    arch = obj.get("architecture")
    architecture = None
    if arch is not None:
        if not isinstance(arch, dict) or arch.get("type") != "brickwall":
            raise StructureError(f"unknown architecture {arch!r}")
        architecture = Brickwall(_json_int(arch.get("depth"), "brickwall depth"))
    n = _json_int(obj["n"], "circuit n")
    return Circuit(n, [gate_from_json(g) for g in obj["gates"]], architecture)
