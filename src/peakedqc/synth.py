"""Variational synthesis of peaked circuits by multi-start gradient ascent.

A fixed random brickwall target C is given; the ansatz C'(theta) is a
brickwall of the same shape whose two-qubit cells are ``exp(-i H)`` with
``H`` a real combination of the 15 Pauli-product generators.  The
objective ``p0(theta) = |<x*| C'(theta)^dag C |0^n>|^2`` is computed from
two statevector passes and maximized with Adam. Gradients are exact, not
finite differences: an adjoint sweep undoes each gate on the forward state,
and the eigenbasis form of the exponential-map derivative turns each gate's
4x4 environment into its 15 derivatives through one 15x16 Pauli-trace map.
The starts of a multi-start search are stepped as one batch: each gate is
one ``_apply_matrix`` call on a ``(B, 4, 4)`` stack, one row per start that
is still running, and a start leaves the batch when it stops.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .ensembles import PeakedInstance
from .sim import (
    Brickwall,
    Circuit,
    Gate,
    SU4_BASIS,
    StructureError,
    _apply_matrix,
    _wires_first,
    adjoint,
    amplitude,
    apply_circuit,
    basis_state,
    brickwall_pairs,
    compose,
    spawn_rngs,
    su4_gates,
)


@dataclass(eq=False)
class ParamCircuit:
    """Brickwall ansatz: one 15-vector of generator coefficients per gate."""

    n: int
    depth: int
    params: np.ndarray  # shape (gate_count, 15)

    def __post_init__(self):
        self.pairs = brickwall_pairs(self.n, self.depth)
        self.params = np.asarray(self.params, dtype=float)
        if self.params.shape != (len(self.pairs), 15):
            raise StructureError(
                f"params shape {self.params.shape} does not match {len(self.pairs)} gates"
            )

    @classmethod
    def zeros(cls, n: int, depth: int) -> "ParamCircuit":
        return cls(n, depth, np.zeros((len(brickwall_pairs(n, depth)), 15)))

    @classmethod
    def random(cls, n: int, depth: int, rng, scale: float = 0.2) -> "ParamCircuit":
        return cls(n, depth, rng.normal(0.0, scale, size=(len(brickwall_pairs(n, depth)), 15)))

    def materialize(self) -> Circuit:
        mats, _, _ = su4_gates(self.params)
        gates = [
            Gate(pair, mat, params=np.array(p))
            for pair, mat, p in zip(self.pairs, mats, self.params)
        ]
        return Circuit(self.n, gates, architecture=Brickwall(self.depth))


# Tr(A P_m) = sum_ij A_ij (P_m)_ji, so row m is P_m transposed and flattened
_PAULI_TRACE = SU4_BASIS.transpose(0, 2, 1).reshape(15, 16)


def _value_and_grad(c_state: np.ndarray, start_state: np.ndarray,
                    pairs: list[tuple[int, int]], params: np.ndarray):
    """``p0`` and its exact gradient for each row of a ``(B, G, 15)`` params stack.

    Returns the B values and the ``(B, G, 15)`` gradient; B = 1 is one start.
    Writes the overlap as beta = <c|C'(theta)|x*>. After one forward pass on
    copies of |x*>, the backward sweep undoes each gate on those states while
    pulling <c| back through it (Jones & Gacon, arXiv:2009.02823), so gate
    j's environment env[p, q] = sum_rest conj(lam)[p] psi[q] needs two states
    per start.  Every gate acts on all B starts in one ``_apply_matrix`` call,
    and in the sweep on the 2B states [psi, lam] at once; the environments
    are one ``(B, 4, rest) @ (B, rest, 4)`` GEMM over ``_wires_first`` views.
    Daleckii-Krein: with H = Q diag(w) Q^dag and f(x) = exp(-ix), the
    derivative of exp(-iH) along E is Q (F * (Q^dag E Q)) Q^dag with
    F_kl = (f(w_k) - f(w_l)) / (w_k - w_l) and diagonal f'(w_k). So
    d beta / d theta_m = Tr(A P_m) with A = Q (F * (Q^dag env^T Q)) Q^dag,
    and p0 = |beta|^2, grad p0 = 2 Re(conj(beta) grad beta).
    """
    starts, n = len(params), c_state.size.bit_length() - 1
    mats, w, q = su4_gates(params)
    mats = mats.swapaxes(0, 1).copy()  # (G, B, 4, 4): one stack per gate
    undo = np.conj(np.concatenate([mats, mats], axis=1).swapaxes(-1, -2))  # for psi and lam
    src = np.empty((2 * starts,) + (2,) * n, dtype=complex)
    dst = np.empty_like(src)
    src[:starts] = start_state.reshape((2,) * n)
    for pair, mat in zip(pairs, mats):
        _apply_matrix(src[:starts], pair, mat, out=dst[:starts])
        src, dst = dst, src
    beta = src[:starts].reshape(starts, -1) @ c_state.conj()

    envs = np.empty((len(pairs), starts, 4, 4), dtype=complex)
    src[starts:] = c_state.reshape((2,) * n)
    for j in range(len(pairs) - 1, -1, -1):
        # src holds [psi, lam] after gate j; dst gets them before it
        _apply_matrix(src, pairs[j], undo[j], out=dst)
        lam, psi = _wires_first(src[starts:], pairs[j]), _wires_first(dst[:starts], pairs[j])
        np.matmul(np.conj(lam, order="C").reshape(starts, 4, -1),
                  psi.reshape(starts, 4, -1).swapaxes(1, 2), out=envs[j])
        src, dst = dst, src
    envs = envs.swapaxes(0, 1)

    f = np.exp(-1j * w)
    dw = w[..., :, None] - w[..., None, :]
    near = np.abs(dw) < 1e-12
    fmat = np.where(
        near, (-1j * f)[..., :, None], (f[..., :, None] - f[..., None, :]) / np.where(near, 1.0, dw)
    )
    qh = q.conj().swapaxes(-1, -2)
    a = q @ (fmat * (qh @ envs.swapaxes(-1, -2) @ q)) @ qh
    grad = a.reshape(starts, len(pairs), 16) @ _PAULI_TRACE.T
    grad = 2.0 * np.real(np.conj(beta)[:, None, None] * grad)
    return np.abs(beta) ** 2, grad


def _target_column(target: Circuit) -> np.ndarray:
    return apply_circuit("0" * target.n, target)


def objective(target: Circuit, pcirc: ParamCircuit, x_star: str | None = None) -> float:
    """``p0 = |<x*| C'(theta)^dag C |0^n>|^2`` via two statevector passes."""
    x_star = "0" * target.n if x_star is None else x_star
    c_state = _target_column(target)
    phi = apply_circuit(x_star, pcirc.materialize())
    return float(abs(np.vdot(phi, c_state)) ** 2)


def gradient(target: Circuit, pcirc: ParamCircuit, x_star: str | None = None) -> np.ndarray:
    """Exact adjoint gradient of the objective, same shape as the params."""
    x_star = "0" * target.n if x_star is None else x_star
    start = basis_state(target.n, x_star)
    return _value_and_grad(_target_column(target), start, pcirc.pairs, pcirc.params[None])[1][0]


# ---------------------------------------------------------------------------
# Adam


@dataclass(frozen=True)
class AdamParams:
    lr: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), 0)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, hyper: AdamParams):
    """One bias-corrected first/second-moment update; pure in (inputs, state)."""
    t = state.step + 1
    m = hyper.beta1 * state.m + (1.0 - hyper.beta1) * grad
    v = hyper.beta2 * state.v + (1.0 - hyper.beta2) * grad**2
    m_hat = m / (1.0 - hyper.beta1**t)
    v_hat = v / (1.0 - hyper.beta2**t)
    theta_next = theta - hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)
    return theta_next, AdamState(m, v, t)


# ---------------------------------------------------------------------------
# multi-start search


@dataclass
class SeedTrace:
    seed_index: int
    iterations: int
    history: list[tuple[int, float]]  # (iteration, p0) pairs


@dataclass
class SynthesisReport:
    best_params: np.ndarray
    best_peakedness: float
    per_seed_traces: list[SeedTrace]
    wall_time: float
    below_target: bool


def multistart_search(
    target: Circuit,
    x_star: str | None = None,
    delta_target: float = 0.5,
    n_seeds: int = 3,
    iters: int = 1000,
    seed=None,
    init_scale: float = 0.2,
    depth: int | None = None,
    history_stride: int = 1,
) -> tuple[PeakedInstance, SynthesisReport]:
    """Run Adam from several random initializations and keep the best point.

    Seed ``s`` starts from its own spawn child of ``seed`` and keeps its own
    Adam moments and history.  All seeds are stepped together, one batched
    ``_value_and_grad`` per step, and each stops on its own, once ``p0 >=
    delta_target`` or after ``iters`` steps; a stopped seed leaves the batch.
    The winner is the highest objective value ever recorded (ties go to the
    lowest seed index) and is re-verified by simulating the composed circuit.
    When no seed reaches the target the best point is still returned, flagged.
    """
    if n_seeds < 1 or iters < 1:
        raise ValueError("need n_seeds >= 1 and iters >= 1")
    if not 0.0 <= delta_target <= 1.0:
        raise ValueError("delta_target must lie in [0, 1]")
    x_star = "0" * target.n if x_star is None else x_star
    if depth is None:
        if target.architecture is None:
            raise StructureError("target has no brickwall tag; pass depth explicitly")
        depth = target.architecture.depth

    t0 = time.perf_counter()
    c_state = _target_column(target)
    start_state = basis_state(target.n, x_star)

    pairs = brickwall_pairs(target.n, depth)
    theta = np.stack([ParamCircuit.random(target.n, depth, rng, scale=init_scale).params
                      for rng in spawn_rngs(seed, n_seeds)])
    state = AdamState.zeros(theta.shape)  # one row of moments per start; starts step in lockstep
    active = list(range(n_seeds))
    histories = [[] for _ in active]
    steps_run = [0] * n_seeds
    best_p0, best_seed, best_theta = -1.0, -1, None
    for t in range(iters + 1):
        p0s, grad = _value_and_grad(c_state, start_state, pairs, theta)
        going = []
        for row, (s, p0) in enumerate(zip(active, p0s.tolist())):
            if t % history_stride == 0 or t == iters or p0 >= delta_target:
                histories[s].append((t, p0))
            if p0 > best_p0 or p0 == best_p0 and s < best_seed:
                best_p0, best_seed, best_theta = p0, s, theta[row].copy()
            steps_run[s] = t
            if p0 < delta_target and t < iters:
                going.append(row)
        if not going:
            break
        active = [active[row] for row in going]
        state = AdamState(state.m[going], state.v[going], state.step)
        # ascent on p0 = descent on the loss -p0
        theta, state = adam_step(theta[going], -grad[going], state, AdamParams())
    traces = [SeedTrace(s, steps_run[s], histories[s]) for s in range(n_seeds)]

    winner = ParamCircuit(target.n, depth, best_theta)
    c_prime = winner.materialize()
    composed = compose(adjoint(c_prime), target)
    measured = float(abs(amplitude(composed, "0" * target.n, x_star)) ** 2)
    report = SynthesisReport(
        best_params=best_theta,
        best_peakedness=best_p0,
        per_seed_traces=traces,
        wall_time=time.perf_counter() - t0,
        below_target=best_p0 < delta_target,
    )
    instance = PeakedInstance(
        circuit=composed,
        peak_string=x_star,
        peakedness=measured,
        method="variational",
        seed=seed,
        factors=(target, c_prime),
    )
    return instance, report
