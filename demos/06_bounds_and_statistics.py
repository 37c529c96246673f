"""Closed-form calculators: rarity, packing, gate-count floors, fidelity.

Everything is carried in log space (the packing counts overflow floats at
a few dozen wires) and every report labels its semantics so upper bounds
cannot be read as probabilities.
"""
import numpy as np

from peakedqc.bounds import (
    acceptance_haar,
    acceptance_kdesign_bound,
    compression_probability_bound,
    covering_log,
    gate_count_lower_bound,
    packing_log,
    peak_to_fidelity,
)
from peakedqc.ensembles import exact_state_moment, haar_state_moment

print("how rare are peaked draws:")
for n in (4, 8, 16, 32):
    d = 1 << n
    exact = acceptance_haar(d, 0.3)
    markov = acceptance_kdesign_bound(d, 0.3, k=4)
    print(f"  n={n}: Haar log10 = {exact.value.log10():9.1f}   "
          f"4-design Markov bound log10 <= {markov.value.log10():7.1f}")

print("\npacking vs covering at n=10, k=4:")
pack = packing_log(1 << 10, 4, 0.5)
print(f"  packing  log {pack.value.log:10.1f}  ({pack.formula}, {pack.semantics})")
for s in (5, 10, 20):
    cover = covering_log(10, s, 0.1)
    comp = compression_probability_bound(10, 4, s, 0.1, 0.5)
    print(f"  s={s:3d}: covering log {cover.value.log:8.1f}  "
          f"compression log-prob {comp.value.log:8.1f}")

print("\ngate-count floors:")
for n, k in ((10, 4), (16, 4), (20, 5)):
    gb = gate_count_lower_bound(n, k)
    print(f"  n={n} k={k}: design regime s* = {gb.s_star}")
print(f"  n=10 Haar regime s* = {gate_count_lower_bound(10, None).s_star} (= 4^10)")

print("\npeak estimate to output fidelity:")
for delta, eps in ((0.99, 0.001), (0.9, 0.01), (0.8, 0.05)):
    fb = peak_to_fidelity(delta, eps)
    print(f"  delta={delta}, eps_add={eps}: F >= {fb.f_min:.4f} "
          f"(1-F <= {fb.relaxation:.4f})")

print("\nHaar overlap moments, Monte Carlo vs closed form:")
for dim, m in ((2, 1), (2, 2), (8, 3)):
    est = haar_state_moment(dim, m, 50_000, seed=dim + m)
    print(f"  d={dim} m={m}: estimate {est.estimate:.6f} +- {est.std_err:.6f}  "
          f"exact {exact_state_moment(dim, m):.6f}")
