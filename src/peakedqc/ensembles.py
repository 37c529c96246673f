"""Random circuit ensembles, peaked-instance generators and overlap statistics.

Two generators produce the postselected peaked ensemble:

* :func:`postselect_generate` is the literal accept/reject loop (draw a
  fresh second circuit until the composition is peaked enough).  Its
  acceptance probability is ``(1-delta)^(d-1)`` for Haar factors, so it is
  only usable at tiny ``n`` or tiny ``delta``.  A trial draws its brickwall
  as one ``(G, 4, 4)`` stack (:func:`haar_unitary` with ``batch=G``, which
  reads the stream in the order of ``G`` single draws and equals them bit
  for bit), and :func:`random_brickwall` makes its gates views of that stack.
* :func:`conditioned_generate` samples the accepted distribution directly:
  conditioned on the overlap, the second factor splits into the aligned
  column and an independent Haar block on its complement, which can be
  drawn constructively.  This is what makes near-unit peakedness (where
  rejection would need ~``(1-delta)^(1-d)`` trials) reachable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sim import (
    N_MAX_DENSE,
    Brickwall,
    Circuit,
    Gate,
    StructureError,
    adjoint,
    amplitude,
    apply_circuit,
    as_rng,
    bit_index,
    brickwall_pairs,
    circuit_from_json,
    circuit_to_json,
    compose,
    full_unitary,
    output_distribution,
)


class PostselectExhausted(RuntimeError):
    """Rejection sampling ran out of trials.

    The acceptance probability decays like ``(1-delta)^(d-1)``; use the
    bounds module to size ``max_trials`` or switch to
    :func:`conditioned_generate`.
    """

    def __init__(self, trials: int, delta_target: float):
        super().__init__(
            f"no {delta_target}-peaked composition found in {trials} trials"
        )
        self.trials = trials


@dataclass(eq=False)
class PeakedInstance:
    """A circuit together with its peak witness and generation metadata."""

    circuit: Circuit
    peak_string: str
    peakedness: float
    method: str  # postselect | variational | stitched
    seed: object = None
    factors: tuple[Circuit, Circuit] | None = None
    peakedness_is_predicted: bool = False

    def verify(self) -> float:
        """Re-measure ``|<x*|P|0^n>|^2`` by simulation."""
        return abs(amplitude(self.circuit, "0" * self.circuit.n, self.peak_string)) ** 2


@dataclass
class OverlapStats:
    """Ensemble mean of ``|Tr(C^dag C')|^2`` and its normalized form."""

    n: int
    instance_count: int
    mean_trace_sq: float
    mean_hs_norm_sq: float
    std_err: float

    @classmethod
    def from_trace_sq(cls, n: int, values) -> "OverlapStats":
        values = np.asarray(values, dtype=float)
        d = 1 << n
        mean = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
        return cls(n, values.size, mean, mean / d**2, se)


# ---------------------------------------------------------------------------
# Haar sampling


def haar_unitary(dim: int, seed=None, batch: int | None = None) -> np.ndarray:
    """Haar-distributed ``dim x dim`` unitary, or a ``(batch, dim, dim)`` stack of them.

    QR of a complex Ginibre matrix with the R-diagonal phases divided out,
    which makes the factorization unique and the Q factor Haar (Mezzadri,
    math-ph/0609050).  A stack reads the stream in the order of ``batch``
    single draws (each matrix's real parts, then its imaginary parts) and
    LAPACK factors each matrix alone, so it equals them bit for bit;
    ``batch=0`` draws nothing.
    """
    if not 1 <= dim <= 1 << N_MAX_DENSE:
        raise StructureError(f"a Haar unitary of dim={dim} is outside [1, 2^N_MAX_DENSE={1 << N_MAX_DENSE}]")
    if batch is not None and batch < 0:
        raise ValueError(f"a Haar stack needs batch >= 0, got batch={batch}")
    rng = as_rng(seed)
    shape = (dim, dim) if batch is None else (batch, dim, dim)
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = rng.standard_normal(shape[:-2] + (2, dim, dim)).swapaxes(0, -3)
    q, r = np.linalg.qr(z)
    diag = r.diagonal(0, -2, -1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_state(dim: int, seed=None) -> np.ndarray:
    rng = as_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_brickwall(n: int, depth: int, seed=None) -> Circuit:
    """Brickwall circuit with an independent Haar two-qubit gate per slot."""
    pairs = brickwall_pairs(n, depth)
    mats = haar_unitary(4, seed, batch=len(pairs))
    return Circuit(n, [Gate(pair, m) for pair, m in zip(pairs, mats)], architecture=Brickwall(depth))


# ---------------------------------------------------------------------------
# peaked-instance generators


def postselect_generate(
    n: int,
    delta_target: float,
    x_star: str | None = None,
    max_trials: int = 1000,
    seed=None,
    depth: int | None = None,
) -> tuple[PeakedInstance, int]:
    """Literal rejection sampler: keep redrawing C' until P = C'^dag C is peaked.

    Returns the instance and the number of trials used.  The scrambling
    factor C is drawn once, C' fresh per trial.  Default depth 4n keeps the
    factors effectively Haar at the small n where rejection is feasible.
    """
    if max_trials < 1:
        raise ValueError("max_trials must be >= 1")
    if not 0.0 <= delta_target <= 1.0:
        raise ValueError("delta_target must lie in [0, 1]")
    rng = as_rng(seed)
    x_star = "0" * n if x_star is None else x_star
    depth = 4 * n if depth is None else depth

    c = random_brickwall(n, depth, rng)
    target_col = apply_circuit("0" * n, c)
    for trial in range(1, max_trials + 1):
        c_prime = random_brickwall(n, depth, rng)
        phi = apply_circuit(x_star, c_prime)
        peak = abs(np.vdot(phi, target_col)) ** 2
        if peak >= delta_target:
            composed = compose(adjoint(c_prime), c)
            inst = PeakedInstance(
                circuit=composed,
                peak_string=x_star,
                peakedness=float(peak),
                method="postselect",
                seed=seed,
                factors=(c, c_prime),
            )
            return inst, trial
    raise PostselectExhausted(max_trials, delta_target)


def _complete_unitary(column: np.ndarray, block: np.ndarray) -> np.ndarray:
    """A unitary with first column ``column``: ``Q diag(1, block)`` in O(d^2).

    ``Q = I - 2 v v^dag / v^dag v`` sends ``e_0`` to ``column`` up to a phase;
    ``v`` is ``e_0`` plus ``column`` turned to a real ``v[0] >= 1``, so the sum
    does not cancel.  A Haar ``block`` makes the completion Haar (Mezzadri,
    math-ph/0609050).
    """
    first = column[0]
    v = column * (first.conjugate() / abs(first) if first else 1.0)
    v[0] += 1.0
    out = np.zeros((column.size, column.size), dtype=complex)
    out[1:, 1:] = block
    out[:, 1:] -= np.outer(v, (2.0 / np.vdot(v, v).real) * (v[1:].conj() @ block))
    out[:, 0] = column
    return out


def conditioned_generate(
    n: int,
    delta_target: float,
    x_star: str | None = None,
    seed=None,
    exact_delta: bool = False,
) -> PeakedInstance:
    """Draw from the postselected ensemble without rejection.

    The overlap is sampled from the Beta(1, d-1) law truncated to
    ``[delta_target, 1]`` (or pinned to ``delta_target`` when
    ``exact_delta``), the aligned column is placed explicitly, and the
    remaining action of C' is an independent Haar block on the complement.
    Factors come out as single dense n-wire gates, so ``n <= N_MAX_DENSE``.
    """
    if n < 1:
        raise StructureError(f"conditioned sampling needs n >= 1, got n={n}")
    if not 0.0 <= delta_target <= 1.0:
        raise ValueError("delta_target must lie in [0, 1]")
    rng = as_rng(seed)
    d = 1 << n
    x_star = "0" * n if x_star is None else x_star
    ix = bit_index(x_star, n)

    if exact_delta:
        delta = delta_target
    else:
        delta = 1.0 - (1.0 - delta_target) * rng.uniform() ** (1.0 / (d - 1))

    c_mat = haar_unitary(d, rng)
    c_col = c_mat[:, 0]

    w = haar_state(d, rng)
    w -= np.vdot(c_col, w) * c_col
    w /= np.linalg.norm(w)
    phase = np.exp(2j * np.pi * rng.uniform())
    aligned = math.sqrt(delta) * phase * c_col + math.sqrt(1.0 - delta) * w

    cp_mat = _complete_unitary(aligned, haar_unitary(d - 1, rng))
    if ix != 0:
        cp_mat[:, [0, ix]] = cp_mat[:, [ix, 0]]

    wires = tuple(range(n))
    c = Circuit(n, [Gate(wires, c_mat)])
    c_prime = Circuit(n, [Gate(wires, cp_mat)])
    p_mat = cp_mat.conj().T @ c_mat
    peak = abs(p_mat[ix, 0]) ** 2
    return PeakedInstance(
        circuit=Circuit(n, [Gate(wires, p_mat)]),
        peak_string=x_star,
        peakedness=float(peak),
        method="postselect",
        seed=seed,
        factors=(c, c_prime),
    )


# ---------------------------------------------------------------------------
# overlap statistics and block decomposition


def hs_overlap(c: Circuit, c_prime: Circuit) -> tuple[float, float]:
    """``(|Tr(C^dag C')|^2, |Tr(C^dag C')/d|^2)`` for two same-size circuits."""
    if c.n != c_prime.n:
        raise StructureError("circuits act on different wire counts")
    tr = np.vdot(full_unitary(c), full_unitary(c_prime))  # sum of conj(U) * U'
    d = 1 << c.n
    trace_sq = float(abs(tr) ** 2)
    return trace_sq, trace_sq / d**2


class BlockDecomposition(NamedTuple):
    peak_amp: complex
    block: np.ndarray  # (d-1) x (d-1) restriction to the non-peak subspace
    unitarity_defect: float


def block_extract(circuit: Circuit, x_star: str) -> BlockDecomposition:
    """Split ``P`` into peak amplitude and the complement block.

    Rows are aligned by the X-layer permutation that sends ``x*`` to index
    0 (columns already have ``0^n`` at index 0), then the leading row and
    column are stripped.  For an exactly peaked unitary the remaining block
    is itself unitary; the defect ``max|V^dag V - I|`` measures leakage.
    """
    u = full_unitary(circuit)
    ix = bit_index(x_star, circuit.n)
    perm = np.arange(u.shape[0]) ^ ix
    aligned = u[perm, :]
    peak_amp = complex(aligned[0, 0])
    v = aligned[1:, 1:]
    defect = float(np.abs(v.conj().T @ v - np.eye(v.shape[0])).max())
    return BlockDecomposition(peak_amp, v, defect)


class MomentEstimate(NamedTuple):
    estimate: float
    std_err: float
    exact: float


def exact_state_moment(dim: int, m: int) -> float:
    """``m! (d-1)! / (d+m-1)!``, the Haar value of ``E|<phi|psi>|^(2m)``."""
    val = math.factorial(m)
    for i in range(dim, dim + m):
        val /= i
    return val


def haar_state_moment(dim: int, m: int, trials: int, seed=None) -> MomentEstimate:
    """Monte-Carlo estimate of ``E|<phi|psi>|^(2m)`` over Haar states.

    By unitary invariance the reference state can be fixed to ``e_0``.
    """
    if m not in (1, 2, 3):
        raise ValueError("moment order m must be 1, 2 or 3")
    rng = as_rng(seed)
    z = rng.standard_normal((trials, dim)) + 1j * rng.standard_normal((trials, dim))
    overlap_sq = np.abs(z[:, 0]) ** 2 / np.sum(np.abs(z) ** 2, axis=1)
    vals = overlap_sq**m
    return MomentEstimate(
        float(vals.mean()),
        float(vals.std(ddof=1) / math.sqrt(trials)),
        exact_state_moment(dim, m),
    )


class GateCorrelation(NamedTuple):
    per_gate_overlaps: list[float]
    frobenius_dist: float
    bound: float
    holds: bool
    eps: float
    gate_count: int


def gate_correlation_check(c: Circuit, c_prime: Circuit) -> GateCorrelation:
    """Telescoping bound ``|P - I|_F <= M sqrt(d * eps)`` from per-gate overlaps.

    ``rho_m = |Tr(C'_m^dag C_m)|^2 / D_m^2`` is the squared normalized
    overlap of gate pair m (``D_m`` the gate dimension), ``eps = 1 - min
    rho_m``.  Global phases are invisible to ``rho`` but not to ``P - I``,
    so each C' gate is rotated to make its pair trace real nonnegative
    before the product is compared to the identity.
    """
    if c.n != c_prime.n or len(c.gates) != len(c_prime.gates):
        raise StructureError("circuits must share wire count and gate count")
    overlaps = []
    total_phase = 1.0 + 0j
    for g, gp in zip(c.gates, c_prime.gates):
        if g.wires != gp.wires:
            raise StructureError(f"gate wires differ: {g.wires} vs {gp.wires}")
        dim = 1 << len(g.wires)
        tr = np.trace(gp.matrix.conj().T @ g.matrix)
        overlaps.append(float(abs(tr) ** 2 / dim**2))
        if abs(tr) > 0:
            total_phase *= tr / abs(tr)

    eps = 1.0 - min(overlaps) if overlaps else 0.0
    m_count = len(c.gates)
    p = full_unitary(compose(adjoint(c_prime), c))
    # aligning each C' gate by its pair-trace phase rotates P by the product phase
    dist = math.sqrt(frobenius_sq_to_identity(p, total_phase))
    bound = m_count * math.sqrt((1 << c.n) * eps)
    return GateCorrelation(overlaps, dist, bound, dist <= bound + 1e-9, eps, m_count)


def frobenius_sq_to_identity(p: np.ndarray, peak_phase: complex | None = None) -> float:
    """``|P - I|_F^2``, optionally after removing a known peak phase."""
    d = p.shape[0]
    if peak_phase is not None and abs(peak_phase) > 0:
        p = np.conj(peak_phase / abs(peak_phase)) * p
    return float(np.linalg.norm(p - np.eye(d)) ** 2)


# ---------------------------------------------------------------------------
# anti-concentration

# each circuit trial tabulates all 2^n outcome probabilities
N_MAX_ANTICONCENTRATION = 10


def anticoncentration_check(
    n: int, depth: int, circuit_trials: int, seed=None, alpha: float = 1.0
) -> float:
    """Fraction of (circuit, outcome) pairs with ``p_x >= alpha/2^n``.

    The outcome average is taken exactly over all ``2^n`` strings per
    circuit (the uniform-x expectation), the circuit average empirically.
    """
    if n > N_MAX_ANTICONCENTRATION:
        raise ValueError(f"anticoncentration check is capped at n <= {N_MAX_ANTICONCENTRATION}")
    rng = as_rng(seed)
    d = 1 << n
    threshold = alpha / d
    fractions = []
    if depth == 0:
        # identity circuit: only the input string carries weight
        return 1.0 / d
    for _ in range(circuit_trials):
        circ = random_brickwall(n, depth, rng)
        p = output_distribution(circ)
        fractions.append(float(np.mean(p >= threshold)))
    return float(np.mean(fractions))


def haar_anticoncentration_fraction(d: int, alpha: float = 1.0) -> float:
    """Haar baseline ``Pr[p_x >= alpha/d] = (1 - alpha/d)^(d-1)``."""
    return (1.0 - alpha / d) ** (d - 1)


# ---------------------------------------------------------------------------
# JSON


def instance_to_json(inst: PeakedInstance) -> dict:
    """The instance without its factors, which stay in memory only."""
    obj = {
        "circuit": circuit_to_json(inst.circuit),
        "peak_string": inst.peak_string,
        "peakedness": inst.peakedness,
        "method": inst.method,
        "seed": inst.seed,
    }
    if inst.peakedness_is_predicted:
        obj["peakedness_is_predicted"] = True
    return obj


def instance_from_json(obj: dict) -> PeakedInstance:
    return PeakedInstance(
        circuit=circuit_from_json(obj["circuit"]),
        peak_string=obj["peak_string"],
        peakedness=float(obj["peakedness"]),
        method=obj["method"],
        seed=obj.get("seed"),
        peakedness_is_predicted=bool(obj.get("peakedness_is_predicted", False)),
    )
