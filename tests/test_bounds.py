"""Log-space calculators against exact big-integer and Monte-Carlo oracles."""
import math

import numpy as np
import pytest

from peakedqc import bounds
from peakedqc.bounds import (
    LogNumber,
    acceptance_haar,
    acceptance_kdesign_bound,
    compression_probability_bound,
    covering_log,
    gate_count_lower_bound,
    packing_log,
    peak_to_fidelity,
)


def test_lognumber_arithmetic():
    a = LogNumber.from_value(3.0)
    b = LogNumber.from_value(4.0)
    assert abs((a * b).value() - 12.0) < 1e-12
    assert abs((a / b).value() - 0.75) < 1e-12
    assert abs((a + b).value() - 7.0) < 1e-12
    zero = LogNumber.from_value(0.0)
    assert abs((zero + a).value() - 3.0) < 1e-12
    assert zero.log == -math.inf


def test_acceptance_haar_values():
    assert acceptance_haar(4, 0.0).value.value() == 1.0
    rep = acceptance_haar(4, 0.3)
    assert abs(rep.value.value() - 0.7**3) < 1e-12
    assert acceptance_haar(16, 1.0).value.log == -math.inf
    assert rep.semantics == "exact"


def test_acceptance_haar_matches_monte_carlo():
    # overlap of a Haar state with e_0 at d = 1024, delta = 0.01
    d, delta, trials = 1024, 0.01, 1_000_000
    rng = np.random.default_rng(321)
    z = rng.standard_normal((trials, 8)) + 1j * rng.standard_normal((trials, 8))
    # draw |<e0|psi>|^2 directly via its Beta(1, d-1) representation:
    # first squared coordinate of a Haar point = B / (B + rest), B ~ Gamma(1)
    g1 = rng.gamma(1.0, size=trials)
    rest = rng.gamma(d - 1.0, size=trials)
    overlap = g1 / (g1 + rest)
    emp = float(np.mean(overlap >= delta))
    exact = acceptance_haar(d, delta).value.value()
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(emp - exact) <= 3 * sigma


def test_acceptance_haar_matches_direct_state_sampling():
    # same check via literal Haar states at small d
    d, delta, trials = 16, 0.2, 200_000
    rng = np.random.default_rng(11)
    z = rng.standard_normal((trials, d)) + 1j * rng.standard_normal((trials, d))
    overlap = np.abs(z[:, 0]) ** 2 / np.sum(np.abs(z) ** 2, axis=1)
    emp = float(np.mean(overlap >= delta))
    exact = acceptance_haar(d, delta).value.value()
    assert abs(emp - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)


def test_kdesign_bound_values():
    rep = acceptance_kdesign_bound(4, 0.5, 1)  # k!/(delta d)^k = 1/2
    assert abs(rep.value.value() - 0.5) < 1e-12
    assert rep.semantics == "upper"
    # monotone decreasing in d
    vals = [acceptance_kdesign_bound(d, 0.3, 3).value.log for d in (8, 16, 32, 64)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # the Markov bound dominates the exact Haar acceptance
    assert acceptance_kdesign_bound(4, 0.3, 3).value.log >= acceptance_haar(4, 0.3).value.log


def test_covering_log_values():
    assert covering_log(5, 0, 0.1).value.value() == 1.0
    rep = covering_log(10, 100, 0.1)
    assert abs(rep.value.log - 100 * math.log(1e5)) < 1e-9
    # doubling s more than doubles the log
    l1 = covering_log(10, 50, 0.1).value.log
    l2 = covering_log(10, 100, 0.1).value.log
    assert l2 > 2 * l1


@pytest.mark.parametrize("n,k", [(4, 3), (8, 4), (10, 2), (6, 6)])
def test_packing_log_matches_bigint(n, k):
    d = 1 << n
    exact = math.comb(d + k - 2, k)
    rep = packing_log(d, k, 0.5)
    assert abs(rep.value.log - math.log(exact)) < 1e-9


def test_packing_log_bigger_than_power_form():
    # C(d+k-2, k) >= (d-1)^k / k!
    for d, k in [(16, 3), (256, 4), (64, 5)]:
        lower = k * math.log(d - 1) - math.lgamma(k + 1)
        assert packing_log(d, k, 0.3).value.log >= lower


def test_packing_domain():
    with pytest.raises(ValueError, match="k <= d-1"):
        packing_log(4, 4, 0.5)


def test_compression_bound_is_log_difference():
    rep = compression_probability_bound(10, 4, 20, 0.1, 0.5)
    cover = covering_log(10, 20, 0.1).value.log
    pack = packing_log(1 << 10, 4, 0.5).value.log
    assert abs(rep.value.log - (cover - pack)) < 1e-9
    assert rep.extra["additive_eps_term"] == 0.1


def test_compression_bound_decreases_in_k():
    vals = [compression_probability_bound(10, k, 20, 0.1, 0.5).value.log for k in (2, 4, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_compression_bound_sign_threshold():
    # negative log-probability for small s, positive past a crossover
    logs = [compression_probability_bound(10, 4, s, 0.1, 0.5).value.log for s in range(1, 30)]
    signs = [l < 0 for l in logs]
    assert signs[0] is True and signs[-1] is False
    # single crossover: monotone increasing in s
    assert all(a <= b for a, b in zip(logs, logs[1:]))


def test_compression_bound_small_constant_regime():
    # with small enough c0, c1 the bound at s = c0 k n / ln(k n) drops below
    # exp(-c1 k n); all-ones constants do not reach this regime at desk scale
    n, k = 10, 4
    c0, c1 = 0.09, 0.3
    s = max(1, int(c0 * k * n / math.log(k * n)))
    rep = compression_probability_bound(n, k, s, 0.1, 1 / 3)
    assert rep.value.log <= -c1 * k * n


def test_gate_count_lower_bound_design():
    gb = gate_count_lower_bound(10, 4)
    assert gb.regime == "design"
    assert gb.s_star == int(40 / math.log(40))  # floor(kn/ln(kn)) = 10
    assert gb.s_star == 10
    # monotone in k and n
    assert gate_count_lower_bound(10, 8).s_star >= gb.s_star
    assert gate_count_lower_bound(12, 4).s_star >= gb.s_star


def test_gate_count_lower_bound_haar():
    gb = gate_count_lower_bound(10, None)
    assert gb.regime == "haar"
    assert gb.s_star == 4**10
    big = gate_count_lower_bound(200, None)
    assert big.s_star is None
    assert abs(big.s_star_log.log - 200 * math.log(4)) < 1e-9


def test_gate_count_k_log_n_flag():
    gb = gate_count_lower_bound(16, 4)
    assert gb.report.inputs["k_is_log2_n"] is True


def test_peak_to_fidelity_values():
    assert peak_to_fidelity(1.0, 0.0).f_min == 1.0
    fb = peak_to_fidelity(1.0, 0.25)
    assert abs(fb.f_min - 0.75) < 1e-12  # F = 1 - eps when delta = 1
    with pytest.raises(ValueError):
        peak_to_fidelity(0.5, 0.6)


def test_peak_to_fidelity_relaxation_grid():
    # 1 - F_min <= 4(1-delta) + 2 eps on a 10x10 grid over the domain
    deltas = np.linspace(0.05, 1.0, 10)
    for delta in deltas:
        for eps in np.linspace(0.0, delta, 10):
            fb = peak_to_fidelity(float(delta), float(eps))
            assert 1.0 - fb.f_min <= 4 * (1 - delta) + 2 * eps + 1e-12


def test_log_values_match_bigint_within_512_bits():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 16))
        d = 1 << n
        k = int(rng.integers(1, min(8, d - 1)))
        exact = math.comb(d + k - 2, k)
        if exact.bit_length() > 512:
            continue
        assert abs(packing_log(d, k, 0.5).value.log - math.log(exact)) < 1e-9
        m, kk = int(rng.integers(1, 200)), 0
        kk = int(rng.integers(1, m + 1))
        from peakedqc.stitch import stitch_pattern_count

        assert stitch_pattern_count(m, kk) == math.comb(m - 1, kk - 1)
