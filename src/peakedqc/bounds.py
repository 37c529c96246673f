"""Closed-form calculators for the analytic bounds of the toolkit.

Counts like ``C(d+k-2, k)`` with ``d = 2^n`` overflow floats almost
immediately, so every quantity is carried as a :class:`LogNumber` (natural
log of a nonnegative magnitude).  The unnamed universal constants of the
source bounds are the module constants ``C_COVER``, ``KAPPA``, ``C_DELTA``,
``ALPHA_LB`` and ``C4``, all fixed at 1 and echoed in every report; each
report also labels whether the value is exact, an upper bound or a lower
bound, so a Markov bound cannot be mistaken for a probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

C_COVER = 1.0
KAPPA = 1.0
C_DELTA = 1.0
ALPHA_LB = 1.0
C4 = 1.0


@dataclass(frozen=True)
class LogNumber:
    """A nonnegative count or probability stored as its natural log."""

    log: float

    @classmethod
    def from_value(cls, value: float) -> "LogNumber":
        if value < 0:
            raise ValueError("LogNumber encodes nonnegative magnitudes")
        return cls(-math.inf if value == 0 else math.log(value))

    def value(self) -> float:
        """May overflow to inf; the log form is the reliable one."""
        try:
            return math.exp(self.log)
        except OverflowError:
            return math.inf

    def log10(self) -> float:
        return self.log / math.log(10)

    def __mul__(self, other: "LogNumber") -> "LogNumber":
        return LogNumber(self.log + other.log)

    def __truediv__(self, other: "LogNumber") -> "LogNumber":
        return LogNumber(self.log - other.log)

    def __add__(self, other: "LogNumber") -> "LogNumber":
        if self.log == -math.inf:
            return other
        if other.log == -math.inf:
            return self
        hi, lo = max(self.log, other.log), min(self.log, other.log)
        return LogNumber(hi + math.log1p(math.exp(lo - hi)))


@dataclass
class BoundReport:
    """A computed bound with enough context to re-derive it by hand."""

    value: LogNumber
    formula: str
    semantics: str  # exact | upper | lower
    inputs: dict
    constants: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "log_value": self.value.log,
            "log10_value": self.value.log10(),
            "formula": self.formula,
            "semantics": self.semantics,
            "inputs": self.inputs,
            "constants": self.constants,
            **({"extra": self.extra} if self.extra else {}),
        }


def log_binomial(n: float, k: float) -> float:
    """``ln C(n, k)`` via log-gamma; exact enough for any desk-scale check."""
    if k < 0 or k > n:
        raise ValueError(f"binomial C({n}, {k}) out of domain")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


# ---------------------------------------------------------------------------
# acceptance probabilities


def acceptance_haar(d: int, delta: float) -> BoundReport:
    """Probability that a Haar state has overlap >= delta with a fixed state.

    Exactly ``(1-delta)^(d-1)``: the squared overlap is Beta(1, d-1).
    """
    if d < 2:
        raise ValueError(f"the Beta(1, d-1) law needs d >= 2, got d={d}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    log = -math.inf if delta == 1.0 else (d - 1) * math.log1p(-delta)
    return BoundReport(
        value=LogNumber(log),
        formula="(1 - delta)^(d - 1)",
        semantics="exact",
        inputs={"d": d, "delta": delta},
    )


def acceptance_kdesign_bound(d: int, delta: float, k: int) -> BoundReport:
    """Markov tail ``k! / (delta d)^k`` for a k-design column.

    An upper bound on the acceptance probability, not the probability
    itself; it can exceed 1 for weak parameters.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    log = math.lgamma(k + 1) - k * (math.log(delta) + math.log(d))
    return BoundReport(
        value=LogNumber(log),
        formula="k! / (delta * d)^k",
        semantics="upper",
        inputs={"d": d, "delta": delta, "k": k},
    )


# ---------------------------------------------------------------------------
# covering / packing / gate-count bounds


def covering_log(n: int, s: int, eps: float) -> BoundReport:
    """Covering number of circuits with at most s two-qubit gates.

    ``N(eps) <= (C n^2 s / eps)^(kappa s)``; ``s = 0`` covers the single
    identity point.
    """
    if n < 1:
        raise ValueError(f"covering bound needs n >= 1, got n={n}")
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    if s < 0:
        raise ValueError("s must be >= 0")
    log = 0.0 if s == 0 else KAPPA * s * math.log(C_COVER * n**2 * s / eps)
    return BoundReport(
        value=LogNumber(log),
        formula="(C n^2 s / eps)^(kappa s)",
        semantics="upper",
        inputs={"n": n, "s": s, "eps": eps},
        constants={"C_cover": C_COVER, "kappa": KAPPA},
    )


def packing_log(d: int, k: int, delta: float) -> BoundReport:
    """Packing count ``c_delta * C(d+k-2, k)`` of separated peaked unitaries."""
    if k > d - 1:
        raise ValueError(f"packing bound needs k <= d-1, got k={k}, d={d}")
    if k < 1:
        raise ValueError("k must be >= 1")
    log = math.log(C_DELTA) + log_binomial(d + k - 2, k)
    return BoundReport(
        value=LogNumber(log),
        formula="c_delta * C(d + k - 2, k)",
        semantics="lower",
        inputs={"d": d, "k": k, "delta": delta},
        constants={"c_delta": C_DELTA},
    )


def compression_probability_bound(n: int, k: int, s: int, eps: float, delta: float) -> BoundReport:
    """Chance a peaked-ensemble draw sits within eps of an s-gate circuit.

    Covering over packing, i.e. ``(C n^2 s/eps)^(kappa s) / (c_delta
    C(d+k-2, k))``; the additive ``O(eps)`` term is reported separately
    rather than folded in.
    """
    cover = covering_log(n, s, eps)
    pack = packing_log(1 << n, k, delta)
    ratio = cover.value / pack.value
    return BoundReport(
        value=ratio,
        formula="(C n^2 s/eps)^(kappa s) / (c_delta C(d+k-2, k))  [+ O(eps) additive]",
        semantics="upper",
        inputs={"n": n, "k": k, "s": s, "eps": eps, "delta": delta},
        constants={"C_cover": C_COVER, "kappa": KAPPA, "c_delta": C_DELTA},
        extra={"additive_eps_term": eps, "covering_log": cover.value.log, "packing_log": pack.value.log},
    )


class GateCountBound(NamedTuple):
    s_star: int | None  # None when only the log form is representable
    s_star_log: LogNumber
    regime: str  # design | haar
    report: BoundReport


def gate_count_lower_bound(n: int, k: int | None) -> GateCountBound:
    """Minimum two-qubit gates to approximate a typical peaked draw.

    ``k`` given: design regime, ``floor(alpha_lb * k n / ln(k n))``.
    ``k=None``: Haar regime, ``floor(c4 * 4^n)`` (log form for large n).
    """
    if n < 1:
        raise ValueError(f"gate-count lower bound needs n >= 1, got n={n}")
    if k is None:
        regime = "haar"
        log = math.log(C4) + n * math.log(4)
        formula = "c4 * 4^n"
        inputs: dict = {"n": n}
        constants = {"c4": C4}
    else:
        if k * n < 3:
            raise ValueError("need k*n >= 3 so that ln(k n) > 0")
        regime = "design"
        val = ALPHA_LB * k * n / math.log(k * n)
        log = math.log(val)
        formula = "alpha_lb * k n / ln(k n)"
        inputs = {"n": n, "k": k, "k_is_log2_n": k == round(math.log2(n)) if n > 1 else False}
        constants = {"alpha_lb": ALPHA_LB}
    s_log = LogNumber(log)
    s_int = None
    if log < 60 * math.log(2):
        s_int = int(math.floor(s_log.value()))
    report = BoundReport(
        value=s_log, formula=formula, semantics="lower", inputs=inputs, constants=constants
    )
    return GateCountBound(s_int, s_log, regime, report)


# ---------------------------------------------------------------------------
# peak-to-fidelity


class FidelityBound(NamedTuple):
    f_min: float
    relaxation: float  # upper bound on 1 - f_min: 4(1-delta) + 2 eps_add
    report: BoundReport


def peak_to_fidelity(delta: float, eps_add: float) -> FidelityBound:
    """Worst-case fidelity given a peak estimate within ``eps_add`` of delta.

    ``F_min = (sqrt(delta (delta - eps_add)) - sqrt((1-delta)(1-delta+eps_add)))^2``
    with the relaxation ``1 - F_min <= 4(1-delta) + 2 eps_add``.
    """
    if not 0.0 <= eps_add <= delta <= 1.0:
        raise ValueError("need 0 <= eps_add <= delta <= 1")
    a = math.sqrt(delta * (delta - eps_add))
    b = math.sqrt((1.0 - delta) * (1.0 - delta + eps_add))
    f_min = (a - b) ** 2
    relax = 4.0 * (1.0 - delta) + 2.0 * eps_add
    report = BoundReport(
        value=LogNumber.from_value(f_min),
        formula="(sqrt(delta(delta-eps)) - sqrt((1-delta)(1-delta+eps)))^2",
        semantics="lower",
        inputs={"delta": delta, "eps_add": eps_add},
        extra={"one_minus_f_relaxation": relax},
    )
    return FidelityBound(f_min, relax, report)
