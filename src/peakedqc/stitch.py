"""Composing small peaked blocks into larger peaked circuits.

A stitch plan tracks a designated basis string through a sequence of
blocks: block i maps ``x_{i-1}`` to ``x_i`` with leakage ``eps_i`` (one
minus its peakedness).  The composed circuit stays peaked on the tracked
path with weight close to ``prod(1 - eps_i)``; the expected decay under
design-like block complements follows the one-step recurrence

    q_j = (1 - d/(d-1) eps_j) q_{j-1} + eps_j / (d-1),    q_0 = 1,

whose closed form is ``q_L - 1/d = prod_j (1 - d/(d-1) eps_j) (1 - 1/d)``.
Blocks built for a ``0^n -> x*`` peak are retargeted to arbitrary path
legs with X layers, and a light rewrite pass can blur the block seams
without changing the overall unitary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .ensembles import PeakedInstance, haar_state, haar_unitary
from .sim import (
    N_MAX_STATEVECTOR,
    Circuit,
    Gate,
    StructureError,
    _embed,
    amplitude,
    as_rng,
    basis_state,
    full_unitary,
    x_layer_gates,
)


@dataclass(eq=False)
class StitchBlock:
    """A block retargeted to carry the peak from ``in_string`` to ``out_string``."""

    circuit: Circuit
    in_string: str
    out_string: str
    peakedness: float

    @property
    def leakage(self) -> float:
        return 1.0 - self.peakedness


def retarget(instance: PeakedInstance, in_string: str, out_string: str | None = None) -> StitchBlock:
    """Conjugate a ``0^n -> x*`` peaked instance onto a path leg with X layers.

    An input X layer maps ``|in>`` to ``|0^n>``; an output X layer maps
    ``|x*>`` to ``|out>`` (default: keep ``x*``).  The peak weight is
    untouched because X layers permute the computational basis.
    """
    n = instance.circuit.n
    out_string = instance.peak_string if out_string is None else out_string
    gates = list(x_layer_gates(in_string))
    gates += instance.circuit.gates
    out_mask = format(int(out_string, 2) ^ int(instance.peak_string, 2), f"0{n}b")
    gates += x_layer_gates(out_mask)
    return StitchBlock(Circuit(n, gates), in_string, out_string, instance.peakedness)


@dataclass(eq=False)
class StitchPlan:
    """Ordered blocks and the tracked string path ``x_0 -> ... -> x_L``."""

    blocks: list[StitchBlock]
    path: list[str]

    def __post_init__(self):
        if len(self.path) != len(self.blocks) + 1:
            raise StructureError("path must have one more string than there are blocks")
        n = self.blocks[0].circuit.n if self.blocks else 0
        for i, block in enumerate(self.blocks):
            if block.circuit.n != n:
                raise StructureError(f"block {i} wire count differs")
            if block.in_string != self.path[i] or block.out_string != self.path[i + 1]:
                raise StructureError(
                    f"block {i} carries {block.in_string}->{block.out_string}, "
                    f"plan expects {self.path[i]}->{self.path[i + 1]}"
                )

    @property
    def leakages(self) -> list[float]:
        return [b.leakage for b in self.blocks]


def make_plan(instances: Sequence[PeakedInstance], path: Sequence[str] | None = None) -> StitchPlan:
    """Retarget instances onto a consistent path (default: chain their peaks)."""
    if not instances:
        raise StructureError("need at least one block")
    n = instances[0].circuit.n
    if path is None:
        path = ["0" * n] + [inst.peak_string for inst in instances]
    path = list(path)
    blocks = [
        retarget(inst, path[i], path[i + 1]) for i, inst in enumerate(instances)
    ]
    return StitchPlan(blocks, path)


class StitchResult(NamedTuple):
    circuit: Circuit
    instance: PeakedInstance
    boundaries: list[int]  # gate index at which each block starts


def stitch(plan: StitchPlan) -> StitchResult:
    """Concatenate the blocks; measure the composed peak when a statevector fits.

    The composed instance is peaked on the path's last string.  Beyond the
    statevector cap ``N_MAX_STATEVECTOR`` the peakedness is set to
    ``prod(1 - eps_i)`` and flagged as predicted rather than measured.
    """
    if plan.path[0] != "0" * plan.blocks[0].circuit.n:
        raise StructureError("composed instances must start their path at the all-zero string")
    n = plan.blocks[0].circuit.n
    gates: list[Gate] = []
    boundaries = []
    for block in plan.blocks:
        boundaries.append(len(gates))
        gates.extend(block.circuit.gates)
    circuit = Circuit(n, gates)
    x_last = plan.path[-1]

    predicted = float(np.prod([1.0 - e for e in plan.leakages]))
    if n <= N_MAX_STATEVECTOR:
        peak = float(abs(amplitude(circuit, "0" * n, x_last)) ** 2)
        flagged = False
    else:
        peak = predicted
        flagged = True
    instance = PeakedInstance(
        circuit=circuit,
        peak_string=x_last,
        peakedness=peak,
        method="stitched",
        peakedness_is_predicted=flagged,
    )
    return StitchResult(circuit, instance, boundaries)


# ---------------------------------------------------------------------------
# the decay recurrence and its Monte-Carlo validation


def predict_peak_recurrence(d: int, eps_list: Sequence[float]) -> tuple[np.ndarray, float]:
    """Iterate ``q_j = (1 - d/(d-1) eps_j) q_{j-1} + eps_j/(d-1)`` from ``q_0 = 1``."""
    for e in eps_list:
        if not 0.0 <= e <= 1.0:
            raise ValueError("leakages must lie in [0, 1]")
    q = [1.0]
    for e in eps_list:
        q.append((1.0 - d / (d - 1) * e) * q[-1] + e / (d - 1))
    return np.array(q), float(q[-1])


def closed_form_q(d: int, eps_list: Sequence[float]) -> float:
    """``1/d + prod_j (1 - d/(d-1) eps_j) (1 - 1/d)``, the recurrence's solution."""
    prod = float(np.prod([1.0 - d / (d - 1) * e for e in eps_list]))
    return 1.0 / d + prod * (1.0 - 1.0 / d)


class MixingEstimate(NamedTuple):
    mean: float
    std_err: float
    closed_form: float
    trials: int


def montecarlo_block_mixing(n: int, L: int, eps: float, trials: int, seed=None) -> MixingEstimate:
    """Sample the block-mixing model and average ``|<psi0|U_L...U_1|psi0>|^2``.

    Each layer is ``B diag(1, X_j)`` with ``B`` a fixed rotation leaking
    weight ``eps`` out of the tracked direction and ``X_j`` independent
    Haar on the complement, exactly the hypotheses behind the recurrence.
    A Haar ``X_j`` applied to the complement part of the state gives a Haar
    state of the same norm (unitary invariance), so each layer draws that
    state, not a ``(d-1)``-dimensional unitary; ``n <= N_MAX_STATEVECTOR``.
    """
    rng = as_rng(seed)
    d = 1 << n
    c, s = math.sqrt(1.0 - eps), math.sqrt(eps)
    vals = np.empty(trials)
    for trial in range(trials):
        psi = basis_state(n)
        for _ in range(L):
            psi[1:] = np.linalg.norm(psi[1:]) * haar_state(d - 1, rng)
            top, second = psi[0], psi[1]
            psi[0] = c * top - s * second
            psi[1] = s * top + c * second
        vals[trial] = abs(psi[0]) ** 2
    return MixingEstimate(
        float(vals.mean()),
        float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        closed_form_q(d, [eps] * L),
        trials,
    )


# ---------------------------------------------------------------------------
# boundary rewrites


class RewriteResult(NamedTuple):
    circuit: Circuit
    provenance: list[frozenset[int]]  # block ids feeding each gate


def _mergeable(target: Gate, other: Gate) -> bool:
    # absorb local gates only: fusing two wide blocks would be contraction,
    # not a local rewrite
    return set(other.wires) <= set(target.wires) and len(other.wires) <= 2


def boundary_rewrite(circuit: Circuit, seed=None, boundaries: Sequence[int] | None = None) -> RewriteResult:
    """Unitary-preserving rewrites that blur block seams.

    Two rules: adjacent gates merge whenever one's wires contain the
    other's, and at every block boundary a Haar pair ``R, R^dag`` is
    inserted and absorbed into the two neighbouring gates.  The overall
    unitary is unchanged; gates near a seam end up carrying material from
    both sides.
    """
    rng = as_rng(seed)
    gates = list(circuit.gates)
    if boundaries:
        marks = []
        block = -1
        for idx in range(len(gates)):
            if block + 1 < len(boundaries) and idx == boundaries[block + 1]:
                block += 1
            marks.append(frozenset({block}))
    else:
        marks = [frozenset({0}) for _ in gates]

    # merging: a gate absorbs its neighbour when its wires contain the neighbour's
    merged_g, merged_m = [], []
    for g, m in zip(gates, marks):
        prev = merged_g[-1] if merged_g else None
        if prev is not None and _mergeable(prev, g):
            merged_g[-1] = Gate(prev.wires, _embed(g.matrix, g.wires, prev.wires) @ prev.matrix)
        elif prev is not None and _mergeable(g, prev):
            merged_g[-1] = Gate(g.wires, g.matrix @ _embed(prev.matrix, prev.wires, g.wires))
        else:
            merged_g.append(g)
            merged_m.append(m)
            continue
        merged_m[-1] = merged_m[-1] | m

    # seam blending: split an identity R^dag R across each provenance change
    blended_g, blended_m = [], []
    for g, m in zip(merged_g, merged_m):
        if blended_g and blended_m[-1] != m:
            prev = blended_g[-1]
            wires = _pick_pair(prev.wires, g.wires, rng)
            if wires is not None:
                r = haar_unitary(1 << len(wires), rng)
                blended_g[-1] = Gate(prev.wires, _embed(r, wires, prev.wires) @ prev.matrix)
                blended_m[-1] = blended_m[-1] | m
                g = Gate(g.wires, g.matrix @ _embed(r.conj().T, wires, g.wires))
                m = m | blended_m[-1]
        blended_g.append(g)
        blended_m.append(m)

    return RewriteResult(Circuit(circuit.n, blended_g), blended_m)


def _pick_pair(wires_a: tuple[int, ...], wires_b: tuple[int, ...], rng):
    """A one- or two-wire subset shared by both neighbours, if any."""
    common = sorted(set(wires_a) & set(wires_b))
    if not common:
        return None
    if len(common) == 1:
        return (common[0],)
    idx = rng.choice(len(common) - 1)
    return (common[idx], common[idx + 1])


def stitch_pattern_count(m: int, k: int) -> int:
    """Ways to cut m ordered slots into k contiguous blocks: ``C(m-1, k-1)``."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    return math.comb(m - 1, k - 1)


def verify_rewrite(original: Circuit, rewritten: Circuit) -> float:
    """Max-entry distance between the dense unitaries of the two circuits."""
    u = full_unitary(original)
    v = full_unitary(rewritten)
    return float(np.abs(u - v).max())
