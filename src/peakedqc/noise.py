"""Classical noise channels on shot data and the peak-recovery decoders.

Noise models are diagonal (they act on measured bit strings): per-shot
sparse bit flips with a bounded budget, independent per-bit flips, and a
global depolarizing channel which on the diagonal mixes the outcome
distribution with uniform.

Decoders either estimate the peak weight around a known string
(Hamming-ball aggregation, depolarizing de-bias) or recover an unknown
peak string (densest-ball center, bitwise majority).  Sample-size planning
uses the Chernoff-style bounds with module-level constants calibrated once
on the reference scenario n=16, p_max=0.5, r=0.05, eta=0.1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .sim import SampleSet, StructureError, as_rng, bit_index, pack_bits, unpack_bits

# Calibrated on the reference scenario by bisection to the smallest value
# meeting the 1-eta success target, then rounded up (see tests).
MAJORITY_C = 2.0
CENTER_C1 = 0.02
DEPOL_C = 2.0

CENTER_BLOCK_ENTRIES = 1 << 20  # distance-matrix entries per block of hamming_center_decode


# ---------------------------------------------------------------------------
# noise models


@dataclass(frozen=True)
class TSparse:
    """At most ``t`` bit flips per shot.

    ``policy="random-subset"`` flips a uniformly random subset of size
    uniform on {0..t} (noise independent of the shot value).
    ``policy="worst-case-toward-target"`` moves every shot at distance in
    (t, 2t] of ``target`` just inside the radius-t ball, the adversary that
    maximizes the upward bias of ball estimators; it needs ``target``.
    """

    t: int
    policy: str = "random-subset"
    target: str | None = None

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self.policy not in ("random-subset", "worst-case-toward-target"):
            raise ValueError(f"unknown t-sparse policy {self.policy!r}")
        if self.policy == "worst-case-toward-target" and self.target is None:
            raise ValueError("worst-case policy needs the target string")


@dataclass(frozen=True)
class BSC:
    """Binary symmetric channel: each bit flips independently with rate r."""

    r: float

    def __post_init__(self):
        if not 0.0 <= self.r < 0.5:
            raise ValueError("BSC rate must lie in [0, 1/2)")


@dataclass(frozen=True)
class GlobalDepolarizing:
    """With probability eps the shot is replaced by a uniform string."""

    eps: float

    def __post_init__(self):
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("depolarizing strength must lie in [0, 1)")


NoiseModel = TSparse | BSC | GlobalDepolarizing


def noise_tag(model: NoiseModel) -> str:
    if isinstance(model, TSparse):
        return f"tsparse:{model.t}:{model.policy}"
    if isinstance(model, BSC):
        return f"bsc:{model.r}"
    return f"depol:{model.eps}"


def apply_noise(samples: SampleSet, model: NoiseModel, seed=None) -> SampleSet:
    """Push a sample set through a noise channel; deterministic given seed.

    Flip masks are drawn as one 0/1 row per shot and XORed into the indices.
    """
    rng = as_rng(seed)
    idx = samples.indices.copy()
    n_shots, n = idx.size, samples.n

    if isinstance(model, BSC):
        if model.r > 0:
            idx ^= pack_bits(rng.random((n_shots, n)) < model.r)
    elif isinstance(model, GlobalDepolarizing):
        if model.eps > 0:
            replace = rng.random(n_shots) < model.eps
            idx[replace] = pack_bits(rng.integers(0, 2, size=(int(replace.sum()), n), dtype=np.uint8))
    elif isinstance(model, TSparse):
        if model.t > 0:
            if model.policy == "random-subset":
                counts = rng.integers(0, model.t + 1, size=n_shots)
                ranks = rng.random((n_shots, n)).argsort(axis=1).argsort(axis=1)
                idx ^= pack_bits(ranks < counts[:, None])
            else:
                diff = unpack_bits(idx ^ np.uint64(bit_index(model.target, n)), n)
                dist = diff.sum(axis=1)
                movable = (dist > model.t) & (dist <= 2 * model.t)
                surplus = np.where(movable, dist - model.t, 0)
                order = np.cumsum(diff, axis=1)
                idx ^= pack_bits(diff & (order <= surplus[:, None]))
    else:
        raise TypeError(f"unknown noise model {model!r}")

    meta = dict(samples.meta)
    meta["noise"] = noise_tag(model)
    meta["noise_seed"] = seed
    return SampleSet(samples.n, idx, meta)


# ---------------------------------------------------------------------------
# Hamming geometry


def hamming_ball_size(n: int, t: int) -> int:
    """``|B_t| = sum_{h<=t} C(n, h)``, exact."""
    if not 0 <= t <= n:
        raise StructureError(f"radius {t} must lie in [0, n = {n}]")
    return sum(math.comb(n, h) for h in range(t + 1))


def hamming_distances(samples: SampleSet, reference: str) -> np.ndarray:
    return np.bitwise_count(samples.indices ^ np.uint64(bit_index(reference, samples.n)))


# ---------------------------------------------------------------------------
# estimators and decoders


@dataclass
class EstimateReport:
    estimate: float
    std_err: float
    bias_bound: float
    params: dict = field(default_factory=dict)


def hba_estimate(samples: SampleSet, x_star: str, t: int) -> EstimateReport:
    """Hamming-ball aggregation: fraction of shots within distance t of x*.

    The estimate lower-bounds the peak weight under any <=t-flip noise, and
    its upward bias is at most ``b |B_t|`` where b = ``2^-n`` bounds the
    per-string background mass (the design-like background scale).
    """
    n = samples.n
    ball = hamming_ball_size(n, t)  # raises for a radius outside [0, n]
    hits = hamming_distances(samples, x_star) <= t
    est = float(hits.mean())
    n_shots = samples.indices.size
    se = math.sqrt(max(est * (1.0 - est), 0.0) / n_shots)
    b = 2.0**-n
    return EstimateReport(
        estimate=est,
        std_err=se,
        bias_bound=b * ball,
        params={"t": t, "x_star": x_star, "shots": n_shots, "background_weight": b},
    )


def hamming_center_decode(samples: SampleSet, t: int) -> tuple[str, int]:
    """Densest-2t-ball center, then bitwise majority over the ball core.

    Works on the distinct shots weighted by their counts.  Cluster size
    ties break to the lexicographically smallest shot, which with wire 0 as
    the most significant bit is the smallest index; bit ties inside the
    core resolve to 0.
    """
    if samples.indices.size < 1:
        raise ValueError("need at least one shot")
    values, weights = np.unique(samples.indices, return_counts=True)
    radius = 2 * t
    density = np.empty(values.size, dtype=np.int64)
    chunk = max(1, CENTER_BLOCK_ENTRIES // values.size)
    for lo in range(0, values.size, chunk):
        near = np.bitwise_count(values[lo : lo + chunk, None] ^ values) <= radius
        density[lo : lo + chunk] = near @ weights
    center = values[density.argmax()]  # values are sorted: the first maximum is the smallest
    core = np.bitwise_count(values ^ center) <= radius
    core_size = int(weights[core].sum())
    ones = weights[core] @ unpack_bits(values[core], samples.n)
    decoded = "".join("1" if 2 * c > core_size else "0" for c in ones)
    return decoded, core_size


def majority_decode(samples: SampleSet) -> str:
    """Per-bit threshold at 1/2; an exact tie decodes to 1."""
    n_shots = samples.indices.size
    if n_shots < 1:
        raise ValueError("need at least one shot")
    ones = unpack_bits(samples.indices, samples.n).sum(axis=0)
    return "".join("1" if 2 * c >= n_shots else "0" for c in ones)


class DebiasResult(NamedTuple):
    estimate: float
    std_err_scale: float
    clamped: bool


def debias_depolarizing(p_prime: float, eps: float, n: int, t: int = 0) -> DebiasResult:
    """Invert the uniform admixture in a radius-t ball: ``p = (p' - eps |B_t|/2^n) / (1 - eps)``.

    The standard error of the raw estimate inflates by ``1/(1-eps)``.
    """
    if eps >= 1.0:
        raise ValueError("eps = 1 is a degenerate channel: the peak signal is gone")
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    raw = (p_prime - eps * hamming_ball_size(n, t) / 2.0**n) / (1.0 - eps)
    clamped = not 0.0 <= raw <= 1.0
    return DebiasResult(min(max(raw, 0.0), 1.0), 1.0 / (1.0 - eps), clamped)


# ---------------------------------------------------------------------------
# sample-size planning


CHERNOFF_DELTA = 1.0  # margin of the BSC ball radius over the mean flip count n r


def bsc_radius(n: int, r: float) -> int:
    """``ceil((1 + CHERNOFF_DELTA) n r)``: a ball that holds most of BSC(r)'s flips."""
    return math.ceil((1.0 + CHERNOFF_DELTA) * n * r)


class PlanResult(NamedTuple):
    n_samples: int
    hba_radius: int | None
    formula: str
    constants: dict
    params: dict


def plan_samples(goal: str, **params) -> PlanResult:
    """Shot counts from the decoder tail bounds, with calibrated constants.

    goals: ``majority`` (n, p_max, r, eta), ``center`` (n, p_max, t, eta),
    ``depolarizing`` (p_max, eps, alpha, fail, n).  When a flip rate r is
    present the recommended ball radius ``bsc_radius(n, r)`` is attached.
    """
    radius = None
    if "r" in params and "n" in params:
        r = params["r"]
        if not 0.0 <= r < 0.5:
            raise ValueError("flip rate must lie in [0, 1/2)")
        radius = bsc_radius(params["n"], r)

    if goal == "majority":
        n, p_max, r, eta = params["n"], params["p_max"], params["r"], params["eta"]
        if not 0.0 < p_max <= 1.0:
            raise ValueError("p_max must lie in (0, 1]")
        count = MAJORITY_C * math.log(n / eta) / (p_max**2 * (1.0 - 2.0 * r) ** 2)
        formula = "c * log(n/eta) / (p_max^2 (1-2r)^2)"
        consts = {"c": MAJORITY_C}
    elif goal == "center":
        n, p_max, t, eta = params["n"], params["p_max"], params["t"], params["eta"]
        count = CENTER_C1 * hamming_ball_size(n, 2 * t) * math.log(n / eta) / p_max**2
        formula = "c1 * |B_2t| * log(n/eta) / p_max^2"
        consts = {"c1": CENTER_C1}
    elif goal == "depolarizing":
        n, p_max, eps, alpha = params["n"], params["p_max"], params["eps"], params["alpha"]
        fail = params.get("fail", 0.05)
        if eps >= 1.0:
            raise ValueError("eps = 1 is a degenerate channel")
        p_prime = (1.0 - eps) * p_max + eps / 2.0**n
        count = DEPOL_C * p_prime * (1.0 - p_prime) * math.log(1.0 / fail) / ((1.0 - eps) ** 2 * alpha**2)
        formula = "c * p'(1-p') log(1/fail) / ((1-eps)^2 alpha^2)"
        consts = {"c": DEPOL_C}
    else:
        raise ValueError(f"unknown planning goal {goal!r}")

    return PlanResult(int(math.ceil(count)), radius, formula, consts, dict(params))


# ---------------------------------------------------------------------------
# the verifier's decision


class Verdict(NamedTuple):
    decoded: str
    estimate: float  # de-biased under global depolarizing noise
    expected: float
    tolerance: float
    radius: int
    report: EstimateReport
    weight_ok: bool


def verdict(samples: SampleSet, x_star: str, claimed: float, channel: NoiseModel | None = None,
            decoder: str = "hba", t: int | None = None, tolerance: float | None = None) -> Verdict:
    """Decode the shots and test their peak-weight estimate against the claim.

    ``hba`` estimates around the known ``x_star``; ``majority`` and
    ``center`` decode the string from the shots.  The channel sets the
    default radius (``bsc_radius`` for BSC, ``T`` for t-sparse, else 0), the
    expected estimate (``claimed * Pr[Binomial(n, r) <= t]`` under BSC(r),
    else ``claimed``) and, under global depolarizing noise, the de-bias of
    the estimate and its standard error.  The default tolerance is 3 scaled
    standard errors plus the background bias bound, at least 1e-3.
    """
    if tolerance is not None and not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")
    n, expected, se_scale = samples.n, claimed, 1.0
    if isinstance(channel, BSC):
        t = bsc_radius(n, channel.r) if t is None else t
        # the share of the peak's weight that BSC(r) keeps within radius t
        expected *= _landing_prob_bsc(n, 0, channel.r, t)
    elif t is None:
        t = channel.t if isinstance(channel, TSparse) else 0

    if decoder == "majority":
        decoded = majority_decode(samples)
    elif decoder == "center":
        decoded, _ = hamming_center_decode(samples, max(t, 1))
    elif decoder == "hba":
        decoded = x_star
    else:
        raise ValueError(f"unknown decoder {decoder!r}")
    report = hba_estimate(samples, decoded, t)
    estimate = report.estimate
    if isinstance(channel, GlobalDepolarizing):
        estimate, se_scale, _ = debias_depolarizing(estimate, channel.eps, n, t)
    if tolerance is None:
        tolerance = max(3 * report.std_err * se_scale + report.bias_bound, 1e-3)
    return Verdict(decoded, estimate, expected, tolerance, t, report, abs(estimate - expected) <= tolerance)


# ---------------------------------------------------------------------------
# synthetic benchmark distributions and exact expectations


def planted_sampleset(n: int, p_max: float, x_star: str, shots: int, seed=None) -> SampleSet:
    """Shots from the planted distribution: x* with weight p_max, the rest uniform."""
    rng = as_rng(seed)
    ix = bit_index(x_star, n)
    d = 1 << n
    is_peak = rng.random(shots) < p_max
    other = rng.integers(0, d - 1, size=shots)
    other = np.where(other >= ix, other + 1, other)  # uniform over the non-peak strings
    idx = np.where(is_peak, ix, other)
    return SampleSet(n, idx,
                     {"instance_id": "planted", "noise": None, "seed": seed,
                      "p_max": p_max, "x_star": x_star})


def _landing_prob_subset(n: int, h: int, budget: int, t: int) -> float:
    """Chance a string at distance h lands within distance t under the
    random-subset policy (flip count uniform on {0..budget}, positions uniform)."""
    total = 0.0
    for k in range(budget + 1):
        ways = math.comb(n, k)
        for j in range(max(0, k - (n - h)), min(h, k) + 1):
            if h - j + (k - j) <= t:
                total += math.comb(h, j) * math.comb(n - h, k - j) / ways
    return total / (budget + 1)


def _landing_prob_bsc(n: int, h: int, r: float, t: int) -> float:
    """Chance a string at distance h lands within distance t under BSC(r)."""
    total = 0.0
    for j in range(h + 1):  # flips among the h differing bits (move closer)
        pj = math.comb(h, j) * r**j * (1.0 - r) ** (h - j)
        for k2 in range(n - h + 1):  # flips among the matching bits (move away)
            if h - j + k2 <= t:
                total += pj * math.comb(n - h, k2) * r**k2 * (1.0 - r) ** (n - h - k2)
    return total


def hba_expectation_planted(n: int, p_max: float, t: int, noise: NoiseModel | None = None) -> float:
    """Exact ``E[p_hat^(t)]`` on the planted distribution.

    Supported channels: none, random-subset TSparse, BSC.  Background mass
    is uniform over the ``2^n - 1`` non-peak strings.
    """
    b = (1.0 - p_max) / (2.0**n - 1.0)
    if noise is None:
        land = lambda h: 1.0 if h <= t else 0.0
    elif isinstance(noise, TSparse):
        if noise.policy != "random-subset":
            raise ValueError("exact expectation implemented for the random-subset policy only")
        land = lambda h: _landing_prob_subset(n, h, noise.t, t)
    elif isinstance(noise, BSC):
        land = lambda h: _landing_prob_bsc(n, h, noise.r, t)
    else:
        raise ValueError("exact expectation implemented for TSparse and BSC only")
    total = p_max * land(0)
    for h in range(1, n + 1):
        total += b * math.comb(n, h) * land(h)
    return total
