"""Gate-wise geodesic interpolation between two circuits and its polynomial
structure.

For same-architecture circuits with gates ``G_j`` (base) and ``G*_j``
(target), each gate moves along ``G_j(theta) = G_j exp(-i theta H_j)``
with the Hermitian generator ``H_j = i log(G_j^{-1} G*_j)`` (principal
branch), so the path is exactly the base at ``theta = 0`` and exactly the
target at ``theta = 1``.

Replacing each exponential by its degree-K Taylor polynomial makes every
output amplitude a polynomial of degree ``m*K`` in theta (so probabilities
have degree ``2mK``), which is what lets peak weights measured at small
theta be extrapolated to the far endpoint.  Truncated gates are not
unitary; they are simulated as plain matrices.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .sim import (
    Circuit,
    Gate,
    StructureError,
    amplitude,
    bit_index,
    output_distribution,
)

BRANCH_CUT_TOL = 1e-12
COND_LIMIT = 1e10


class IllConditionedNodes(ValueError):
    """Node set too ill-conditioned for a trustworthy fit.

    Use :func:`chebyshev_nodes` over the sampling window instead.
    """


def _unitary_log_generator(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and frame of a unitary: ``u = Z diag(exp(i phi)) Z^dag``.

    A normal matrix's eigenvectors for distinct eigenvalues are orthogonal, so
    the QR of eig's eigenvectors only re-orthonormalises degenerate eigenspaces.
    Phases take the principal branch ``(-pi, pi]``; an eigenvalue within
    ``BRANCH_CUT_TOL`` of -1 sits on the cut, reported and resolved to ``+pi``.
    """
    eigenvalues, vectors = np.linalg.eig(u)
    z, _ = np.linalg.qr(vectors)
    phases = np.angle(eigenvalues)
    on_cut = np.pi - np.abs(phases) < BRANCH_CUT_TOL
    if on_cut.any():
        warnings.warn("matrix-log eigenvalue on the branch cut (at -1); using phase +pi",
                      RuntimeWarning)
        phases[on_cut] = np.pi
    return phases, z


@dataclass(eq=False)
class PerturbationPath:
    """Per-gate geodesic from ``base`` to ``target`` (same architecture).

    Gate j's generator is kept as its eigenframe: ``G_j^dag G*_j = Z_j
    diag(exp(i phi_j)) Z_j^dag``, so ``H_j = -Z_j diag(phi_j) Z_j^dag``.
    """

    base: Circuit
    target: Circuit
    phases: list[np.ndarray]  # phi_j
    frames: list[np.ndarray]  # Z_j

    @property
    def gate_count(self) -> int:
        return len(self.phases)

    @property
    def op_norms(self) -> np.ndarray:
        """``|H_j|``, the largest ``|phi_j|`` of each gate."""
        return np.array([np.abs(phases).max() for phases in self.phases])


def make_path(base: Circuit, target: Circuit) -> PerturbationPath:
    """Build the interpolation path; ``materialize(path, 1.0)`` hits the target."""
    if base.n != target.n or len(base.gates) != len(target.gates):
        raise StructureError("base and target must share wire count and gate count")
    phases, frames = [], []
    for g, gs in zip(base.gates, target.gates):
        if g.wires != gs.wires:
            raise StructureError(f"gate wires differ along the path: {g.wires} vs {gs.wires}")
        phi, z = _unitary_log_generator(g.matrix.conj().T @ gs.matrix)  # G^{-1} G*
        phases.append(phi)
        frames.append(z)
    return PerturbationPath(base, target, phases, frames)


def materialize(path: PerturbationPath, theta: float, K: int | None = None) -> Circuit:
    """Circuit with gates ``G_j exp(-i theta H_j)``, exact unitaries.

    With ``K`` the exponential is its degree-K Taylor polynomial, ``sum_{i<=K}
    (-i theta H_j)^i / i!``, and the gates are generally not unitary.
    ``theta = 0`` or ``K = 0`` returns the base gates exactly.
    """
    if K is not None and K < 0:
        raise ValueError("truncation order K must be >= 0")
    if theta == 0.0 or K == 0:
        return Circuit(path.base.n, list(path.base.gates))
    taylor = None if K is None else 1.0 / np.cumprod([1.0, *range(1, K + 1)])
    gates = []
    for g, phases, z in zip(path.base.gates, path.phases, path.frames):
        # (-i theta H)^i = Z diag((i theta phi)^i) Z^dag
        x = 1j * theta * phases
        f = np.exp(x) if taylor is None else np.polynomial.polynomial.polyval(x, taylor)
        gates.append(Gate(g.wires, g.matrix @ ((z * f) @ z.conj().T)))
    return Circuit(path.base.n, gates)


class TVCheck(NamedTuple):
    tv_distance: float  # L1 distance between the two outcome distributions
    bound: float
    holds: bool
    peakedness_base: float
    peakedness_perturbed: float
    peak_drop: float


def tv_peakedness_check(path: PerturbationPath, theta: float, x_star: str) -> TVCheck:
    """Exact output-distribution distance against ``2 m theta max|H| + m theta^2``.

    The linear term alone is already a valid bound (each perturbed gate
    moves the operator by at most ``theta |H_j|``); the quadratic term is
    reported slack.  The two distributions come from statevectors, so
    ``basis_state`` refuses n past ``N_MAX_STATEVECTOR``.
    """
    p = output_distribution(path.base)
    q = output_distribution(materialize(path, theta))
    tv = float(np.abs(p - q).sum())
    m = path.gate_count
    max_norm = float(path.op_norms.max()) if m else 0.0
    bound = 2.0 * m * abs(theta) * max_norm + m * theta**2
    ix = bit_index(x_star, path.base.n)
    return TVCheck(
        tv_distance=tv,
        bound=bound,
        holds=tv <= bound + 1e-12,
        peakedness_base=float(p[ix]),
        peakedness_perturbed=float(q[ix]),
        peak_drop=float(p[ix] - q[ix]),
    )


# ---------------------------------------------------------------------------
# polynomial structure


def chebyshev_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    """Chebyshev roots mapped to [lo, hi], ascending."""
    k = np.arange(count)
    base = np.cos((2 * k + 1) * np.pi / (2 * count))
    return np.sort(0.5 * (hi - lo) * base + 0.5 * (hi + lo))


@dataclass(eq=False)
class PolynomialFit:
    """Fitted amplitude polynomial and the derived peak-weight polynomial.

    The amplitude ``a(theta)`` has degree ``mK`` with complex coefficients
    over the node window; the peak weight is ``|a|^2``, the real polynomial
    of degree ``2mK`` whose plain-theta coefficients are reported.
    Evaluation goes through the amplitude on its window, the numerically
    stable route, in particular for extrapolation far outside it.
    """

    amplitude: np.polynomial.Polynomial  # domain: the node window
    p0_coeffs: np.ndarray  # ascending, in plain theta
    condition: float
    degree: int  # of the peak-weight polynomial (2 m K)

    def p0_at(self, theta):
        val = np.abs(self.amplitude(theta)) ** 2
        return float(val) if np.ndim(theta) == 0 else val


def amplitude_polynomial(
    path: PerturbationPath, K: int, x_star: str, nodes: Sequence[float]
) -> PolynomialFit:
    """Fit the peak amplitude of the order-K truncated path as a polynomial in theta.

    Needs at least ``2mK + 1`` distinct nodes.  The amplitude values are
    fitted by least squares in the node window mapped to ``[-1, 1]``; the
    peak-weight coefficients are numpy's product of the amplitude
    polynomial with its conjugate, converted to plain theta.  Raises
    :class:`IllConditionedNodes` when the scaled Vandermonde is numerically
    rank-deficient.
    """
    nodes = np.asarray(nodes, dtype=float)
    deg_amp = path.gate_count * K
    deg_p0 = 2 * deg_amp
    if nodes.size < deg_p0 + 1:
        raise ValueError(f"need at least {deg_p0 + 1} nodes, got {nodes.size}")
    if np.unique(nodes).size != nodes.size:
        raise ValueError("interpolation nodes must be distinct")

    n_bits = "0" * path.base.n
    values = np.array([amplitude(materialize(path, t, K), n_bits, x_star) for t in nodes])

    window = [nodes.min(), nodes.max()]
    if window[0] == window[1]:
        raise ValueError("nodes span an empty interval")
    u = np.polynomial.polyutils.mapdomain(nodes, window, [-1.0, 1.0])
    vand = np.polynomial.polynomial.polyvander(u, deg_amp)
    condition = float(np.linalg.cond(vand))
    if condition > COND_LIMIT:
        raise IllConditionedNodes(
            f"Vandermonde condition {condition:.2e} exceeds {COND_LIMIT:.0e}; "
            "use chebyshev_nodes over the sampling window"
        )
    coeffs, *_ = np.linalg.lstsq(vand, values, rcond=None)
    amp = np.polynomial.Polynomial(coeffs, domain=window)
    p0_coeffs = (amp * np.polynomial.Polynomial(coeffs.conj(), domain=window)).convert().coef.real
    return PolynomialFit(amp, p0_coeffs, condition, deg_p0)
