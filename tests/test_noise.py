"""Noise channels, decoders, de-biasing and sample planning."""
import math

import numpy as np
import pytest

from peakedqc import noise
from peakedqc.noise import (
    BSC,
    GlobalDepolarizing,
    TSparse,
    apply_noise,
    debias_depolarizing,
    hamming_ball_size,
    hamming_center_decode,
    hba_estimate,
    hba_expectation_planted,
    majority_decode,
    plan_samples,
    planted_sampleset,
)
from peakedqc.sim import SampleSet, as_rng, index_bits

X16 = "1010110010111101"


def test_zero_noise_is_identity():
    s = planted_sampleset(6, 0.7, "101010", 500, seed=1)
    for model in (TSparse(0), BSC(0.0), GlobalDepolarizing(0.0)):
        assert apply_noise(s, model, seed=2).shots == s.shots


def test_bsc_flip_fraction():
    n_shots = 100_000
    r = 0.45
    s = SampleSet(1, ["0"] * n_shots)
    noisy = apply_noise(s, BSC(r), seed=3)
    flips = sum(x == "1" for x in noisy.shots) / n_shots
    sigma = math.sqrt(r * (1 - r) / n_shots)
    assert abs(flips - r) <= 3 * sigma


def test_depolarizing_peak_frequency():
    n, p_max, eps, shots = 6, 0.8, 0.4, 100_000
    s = planted_sampleset(n, p_max, "110011", shots, seed=4)
    noisy = apply_noise(s, GlobalDepolarizing(eps), seed=5)
    freq = noisy.shots.count("110011") / shots
    expected = (1 - eps) * p_max + eps / 2**n
    sigma = math.sqrt(expected * (1 - expected) / shots)
    assert abs(freq - expected) <= 3.5 * sigma


def test_tsparse_budget_respected():
    s = SampleSet(16, [X16] * 5000)
    noisy = apply_noise(s, TSparse(3), seed=6)
    dists = noise.hamming_distances(noisy, X16)
    assert dists.max() <= 3
    assert dists.min() == 0  # the zero-flip draw occurs


def test_tsparse_worst_case_moves_ring_into_ball():
    rng = as_rng(7)
    shots = []
    for dist in (1, 3, 4, 5):
        bits = list("0" * 16)
        for i in range(dist):
            bits[i] = "1"
        shots.append("".join(bits))
    s = SampleSet(16, shots)
    model = TSparse(2, policy="worst-case-toward-target", target="0" * 16)
    noisy = apply_noise(s, model, seed=rng)
    out = noise.hamming_distances(noisy, "0" * 16)
    # d=1 stays, d=3 and d=4 are pulled to the radius, d=5 is unreachable
    assert list(out) == [1, 2, 2, 5]


def test_hamming_ball_size_exact():
    assert hamming_ball_size(16, 2) == 1 + 16 + 120
    # brute-force enumeration oracle at n = 10
    n, t = 10, 3
    count = sum(1 for x in range(1 << n) if bin(x).count("1") <= t)
    assert hamming_ball_size(n, t) == count


def test_hba_whole_cube_and_exact_match():
    s = planted_sampleset(8, 0.6, "11110000", 4000, seed=8)
    assert hba_estimate(s, "11110000", 8).estimate == 1.0
    rep = hba_estimate(s, "11110000", 0)
    sigma = math.sqrt(0.6 * 0.4 / 4000)
    assert abs(rep.estimate - 0.6) <= 3 * sigma


def test_hba_sandwich_exact_expectations():
    # planted distribution, random-subset <=t flips: exact E[p_hat]
    n, p_max, t = 16, 0.5, 2
    b = (1 - p_max) / (2**n - 1)
    expect = hba_expectation_planted(n, p_max, t, TSparse(t))
    assert p_max <= expect <= p_max + b * hamming_ball_size(n, t) + 1e-15
    # no-noise case: ball mass itself
    clean = hba_expectation_planted(n, p_max, t)
    assert p_max <= clean <= p_max + b * hamming_ball_size(n, t) + 1e-15


def test_hba_expectation_matches_enumeration():
    # independent oracle: enumerate every string and every flip pattern at n=6
    n, p_max, t = 6, 0.55, 2
    x_star = 0
    b = (1 - p_max) / (2**n - 1)
    patterns = [z for z in range(1 << n)]
    weights = {}
    for k in range(t + 1):
        size_k = [z for z in patterns if bin(z).count("1") == k]
        for z in size_k:
            weights[z] = weights.get(z, 0.0) + 1.0 / ((t + 1) * len(size_k))
    total = 0.0
    for x in range(1 << n):
        px = p_max if x == x_star else b
        for z, wz in weights.items():
            if bin((x ^ z) ^ x_star).count("1") <= t:
                total += px * wz
    assert abs(hba_expectation_planted(n, p_max, t, TSparse(t)) - total) < 1e-12


def test_hba_bsc_coverage_bound():
    # E[p_hat] >= p_max (1 - exp(-delta^2 n r/(2+delta))) with t = (1+delta) n r
    n, p_max, r = 16, 0.5, 0.05
    delta = 1.0
    t = math.ceil((1 + delta) * n * r)
    expect = noise.hba_expectation_planted(n, p_max, t, BSC(r))
    lower = p_max * (1 - math.exp(-(delta**2) * n * r / (2 + delta)))
    assert expect >= lower


def test_hba_empirical_matches_exact_expectation():
    n, p_max, t, shots = 10, 0.5, 2, 60_000
    s = planted_sampleset(n, p_max, index_bits(517, n), shots, seed=9)
    noisy = apply_noise(s, TSparse(t), seed=10)
    rep = hba_estimate(noisy, index_bits(517, n), t)
    expect = hba_expectation_planted(n, p_max, t, TSparse(t))
    assert abs(rep.estimate - expect) <= 3.5 * math.sqrt(expect * (1 - expect) / shots)


def test_majority_noiseless_and_tie():
    s = planted_sampleset(8, 0.9, "10011001", 2000, seed=11)
    assert majority_decode(s) == "10011001"
    tie = SampleSet(2, ["00", "11"])
    assert majority_decode(tie) == "11"  # exact ties resolve to 1


def test_majority_success_at_planned_n():
    n, p_max, r, eta = 16, 0.5, 0.05, 0.1
    plan = plan_samples("majority", n=n, p_max=p_max, r=r, eta=eta)
    wins = 0
    for k in range(100):
        s = planted_sampleset(n, p_max, X16, plan.n_samples, seed=300 + k)
        noisy = apply_noise(s, BSC(r), seed=800 + k)
        wins += majority_decode(noisy) == X16
    assert wins >= 90


def test_center_all_identical_and_tie_break():
    s = SampleSet(4, ["0110"] * 7)
    decoded, core = hamming_center_decode(s, 1)
    assert decoded == "0110" and core == 7
    # two disjoint clusters of equal size: lexicographically smaller center wins
    s2 = SampleSet(6, ["111111"] * 3 + ["000000"] * 3)
    decoded2, _ = hamming_center_decode(s2, 1)
    assert decoded2 == "000000"


def test_center_recovery_under_sparse_noise():
    n, frac, t, eta = 16, 0.6, 2, 0.1
    plan = plan_samples("center", n=n, p_max=frac, t=t, eta=eta)
    wins = 0
    for k in range(100):
        rng = as_rng(3000 + k)
        n_plant = int(round(frac * plan.n_samples))
        planted = SampleSet(n, [X16] * n_plant)
        noisy = apply_noise(planted, TSparse(t), seed=rng)
        uniform = [index_bits(int(i), n) for i in rng.integers(0, 1 << n, size=plan.n_samples - n_plant)]
        s = SampleSet(n, noisy.shots + uniform)
        decoded, _ = hamming_center_decode(s, t)
        wins += decoded == X16
    assert wins >= 90


def test_debias_values():
    assert debias_depolarizing(0.4, 0.0, 8).estimate == 0.4
    res = debias_depolarizing(0.5, 0.5, 1)  # (0.5 - 0.25)/0.5 = 0.5
    assert abs(res.estimate - 0.5) < 1e-12
    assert res.std_err_scale == 2.0
    assert debias_depolarizing(0.0, 0.4, 4).clamped  # raw estimate below 0
    with pytest.raises(ValueError, match="degenerate"):
        debias_depolarizing(0.5, 1.0, 4)


def test_depol_debias_at_radius_0_subtracts_one_string():
    assert debias_depolarizing(0.3, 0.2, 5).estimate == (0.3 - 0.2 / 2.0**5) / (1.0 - 0.2)
    assert debias_depolarizing(0.3, 0.2, 5, 0) == debias_depolarizing(0.3, 0.2, 5)


@pytest.mark.parametrize("t", [1, 2])
def test_depol_debias_subtracts_the_whole_ball(t):
    # a radius-t ball holds |B_t|/2^n of the uniform admixture, and of the
    # planted background (1 - p) spread over the 63 other strings
    n, p, eps, x_star = 6, 0.9, 0.7, "101100"
    s = planted_sampleset(n, p, x_star, 200_000, seed=60 + t)
    noisy = apply_noise(s, GlobalDepolarizing(eps), seed=70 + t)
    v = noise.verdict(noisy, x_star, p, GlobalDepolarizing(eps), "hba", t)
    expected = p + (1 - p) * (hamming_ball_size(n, t) - 1) / 63
    assert abs(v.estimate - expected) <= 4 * v.report.std_err / (1 - eps)


def test_debias_unbiased_over_runs():
    n, p_max, eps = 10, 0.5, 0.3
    x_star = index_bits(77, n)
    plan = plan_samples("depolarizing", n=n, p_max=p_max, eps=eps, alpha=0.05, fail=0.05)
    estimates = []
    for k in range(120):
        s = planted_sampleset(n, p_max, x_star, plan.n_samples, seed=500 + k)
        noisy = apply_noise(s, GlobalDepolarizing(eps), seed=900 + k)
        raw = hba_estimate(noisy, x_star, 0).estimate
        estimates.append(debias_depolarizing(raw, eps, n).estimate)
    est = np.array(estimates)
    se_mean = est.std(ddof=1) / math.sqrt(len(est))
    assert abs(est.mean() - p_max) <= 3 * se_mean


def test_plan_samples_shapes():
    plan = plan_samples("majority", n=16, p_max=0.5, r=0.05, eta=0.1)
    assert plan.n_samples == math.ceil(
        noise.MAJORITY_C * math.log(16 / 0.1) / (0.25 * 0.81)
    )
    assert plan.hba_radius == 2  # ceil((1+1) * 16 * 0.05) = ceil(1.6)
    # divergence as r -> 1/2
    sizes = [plan_samples("majority", n=16, p_max=0.5, r=r, eta=0.1).n_samples
             for r in (0.1, 0.3, 0.45, 0.49)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    with pytest.raises(ValueError):
        plan_samples("majority", n=16, p_max=0.5, r=0.5, eta=0.1)


def test_plan_depolarizing_eps_zero():
    p0 = plan_samples("depolarizing", n=8, p_max=0.5, eps=0.0, alpha=0.05, fail=0.05)
    p_prime = 0.5
    expect = noise.DEPOL_C * p_prime * (1 - p_prime) * math.log(1 / 0.05) / 0.05**2
    assert p0.n_samples == math.ceil(expect)


def test_noise_determinism():
    s = planted_sampleset(8, 0.5, "10101010", 1000, seed=13)
    a = apply_noise(s, BSC(0.1), seed=14)
    b = apply_noise(s, BSC(0.1), seed=14)
    assert a.shots == b.shots
    assert a.meta["noise"] == "bsc:0.1"


def _bit_rows(shots):
    return np.array([[int(ch) for ch in s] for s in shots], dtype=np.uint8)


@pytest.mark.parametrize("model", [BSC(0.2), GlobalDepolarizing(0.4), TSparse(3)])
def test_channels_match_bit_matrix_reference(model):
    # reference: the same draws applied to a 0/1 matrix, one row per shot
    s = planted_sampleset(10, 0.5, "1100110011", 400, seed=21)
    bits = _bit_rows(s.shots)
    rng = as_rng(22)
    if isinstance(model, BSC):
        bits ^= (rng.random(bits.shape) < model.r).astype(np.uint8)
    elif isinstance(model, GlobalDepolarizing):
        replace = rng.random(len(bits)) < model.eps
        bits[replace] = rng.integers(0, 2, size=(int(replace.sum()), 10), dtype=np.uint8)
    else:
        counts = rng.integers(0, model.t + 1, size=len(bits))
        ranks = rng.random(bits.shape).argsort(axis=1).argsort(axis=1)
        bits ^= (ranks < counts[:, None]).astype(np.uint8)
    expected = ["".join(map(str, row)) for row in bits]
    assert apply_noise(s, model, seed=22).shots == expected


def _center_reference(shots, t):
    # the all-pairs definition over every shot
    def dist(a, b):
        return sum(x != y for x, y in zip(a, b))
    counts = [sum(dist(a, b) <= 2 * t for b in shots) for a in shots]
    center = min(s for s, c in zip(shots, counts) if c == max(counts))
    core = [s for s in shots if dist(s, center) <= 2 * t]
    ones = _bit_rows(core).sum(axis=0)
    return "".join("1" if 2 * c > len(core) else "0" for c in ones), len(core)


@pytest.mark.parametrize("seed, t", [(31, 1), (32, 2), (33, 1)])
def test_center_and_majority_match_per_shot_reference(seed, t):
    n = 8
    rng = as_rng(seed)
    planted = apply_noise(SampleSet(n, ["10110010"] * 60 + ["01001101"] * 60), TSparse(t), seed=rng)
    uniform = [index_bits(int(i), n) for i in rng.integers(0, 1 << n, size=120)]
    s = SampleSet(n, planted.shots + uniform)
    assert hamming_center_decode(s, t) == _center_reference(s.shots, t)
    means = _bit_rows(s.shots).mean(axis=0)
    assert majority_decode(s) == "".join("1" if m >= 0.5 else "0" for m in means)



@pytest.mark.parametrize("channel, radius", [(None, 0), (BSC(0.05), 1), (TSparse(1), 1), (GlobalDepolarizing(0.3), 0)],
                         ids=["none", "bsc", "tsparse", "depol"])
def test_verdict_accepts_honest_and_rejects_uniform(channel, radius):
    # the channel alone sets the radius, the expected weight and the de-bias
    n, p_max, x_star, shots = 6, 0.9, "101101", 5000
    honest = planted_sampleset(n, p_max, x_star, shots, seed=90)
    if channel is not None:
        honest = apply_noise(honest, channel, seed=91)
    uniform = SampleSet(n, as_rng(92).integers(0, 1 << n, shots))
    for decoder in ("hba", "majority", "center"):
        v = noise.verdict(honest, x_star, p_max, channel, decoder)
        assert v.decoded == x_star and v.weight_ok and v.radius == radius, (decoder, v)
        assert not noise.verdict(uniform, x_star, p_max, channel, decoder).weight_ok
