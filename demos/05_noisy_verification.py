"""Recovering the peak from noisy shots: the full verification toolbox.

A planted distribution stands in for honest prover samples.  Sparse
adversarial flips are absorbed by Hamming-ball aggregation, i.i.d. readout
flips by bitwise majority (with planned shot counts), cluster search
recovers an unknown peak string, and global depolarizing noise is removed
by de-biasing.
"""
import math

import numpy as np

from peakedqc import noise
from peakedqc.noise import (
    BSC,
    GlobalDepolarizing,
    TSparse,
    apply_noise,
    debias_depolarizing,
    hamming_center_decode,
    hba_estimate,
    hba_expectation_planted,
    majority_decode,
    plan_samples,
    planted_sampleset,
)
from peakedqc.sim import SampleSet

n, p_max = 16, 0.5
x_star = "1010110010111101"

print("Hamming-ball aggregation under t-sparse flips (t=2):")
exact = hba_expectation_planted(n, p_max, 2, TSparse(2))
ball = noise.hamming_ball_size(n, 2)
print(f"  exact E[p_hat] = {exact:.6f}; sandwich: {p_max} <= E <= "
      f"{p_max + (1 - p_max) / (2**n - 1) * ball:.6f}")
shots = apply_noise(planted_sampleset(n, p_max, x_star, 40_000, seed=0), TSparse(2), seed=1)
rep = hba_estimate(shots, x_star, 2)
print(f"  measured p_hat = {rep.estimate:.4f} +- {rep.std_err:.4f} "
      f"(bias bound {rep.bias_bound:.2e})")

print("\nbitwise majority under BSC(0.05):")
plan = plan_samples("majority", n=n, p_max=p_max, r=0.05, eta=0.1)
print(f"  planned N = {plan.n_samples}, recommended ball radius t = {plan.hba_radius}")
wins = 0
for k in range(50):
    s = apply_noise(planted_sampleset(n, p_max, x_star, plan.n_samples, seed=10 + k), BSC(0.05), seed=60 + k)
    wins += majority_decode(s) == x_star
print(f"  recovery rate {wins}/50")

print("\ncluster decoding with the peak string unknown (60% planted, t=2):")
plan_c = plan_samples("center", n=n, p_max=0.6, t=2, eta=0.1)
rng = np.random.default_rng(2)
planted = apply_noise(SampleSet(n, [x_star] * int(0.6 * plan_c.n_samples)), TSparse(2), seed=3)
background = rng.integers(0, 1 << n, plan_c.n_samples - planted.indices.size).astype(np.uint64)
mixed = SampleSet(n, np.concatenate([planted.indices, background]))
decoded, core = hamming_center_decode(mixed, 2)
print(f"  N = {plan_c.n_samples}: decoded {decoded!r} "
      f"({'correct' if decoded == x_star else 'wrong'}, core {core})")

print("\nglobal depolarizing de-bias (eps=0.3):")
eps = 0.3
plan_d = plan_samples("depolarizing", n=n, p_max=p_max, eps=eps, alpha=0.05, fail=0.05)
ests = []
for k in range(60):
    s = apply_noise(planted_sampleset(n, p_max, x_star, plan_d.n_samples, seed=100 + k),
                    GlobalDepolarizing(eps), seed=200 + k)
    raw = hba_estimate(s, x_star, 0).estimate
    ests.append(debias_depolarizing(raw, eps, n).estimate)
print(f"  N = {plan_d.n_samples}: de-biased mean {np.mean(ests):.4f} (true {p_max}); "
      f"SE {np.std(ests, ddof=1):.4f} vs formula "
      f"{math.sqrt(((1-eps)*p_max + eps/2**n) * (1 - (1-eps)*p_max - eps/2**n) / plan_d.n_samples) / (1-eps):.4f}")
