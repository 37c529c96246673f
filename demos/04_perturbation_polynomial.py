"""Gate-wise interpolation and the low-degree structure of the peak weight.

A peaked circuit is dragged gate-by-gate toward an unrelated circuit.
Small interpolation parameters barely move the output distribution (the
peak survives), and with Taylor-truncated gates the peak weight becomes a
polynomial whose values near zero determine it everywhere, including at
the far endpoint.
"""
import numpy as np

from peakedqc.ensembles import conditioned_generate, haar_unitary
from peakedqc.perturb import (
    amplitude_polynomial,
    chebyshev_nodes,
    make_path,
    materialize,
    tv_peakedness_check,
)
from peakedqc.sim import Circuit, Gate, amplitude

base_inst = conditioned_generate(3, 0.95, seed=0, exact_delta=True)
base = base_inst.circuit
target = Circuit(3, [Gate(g.wires, haar_unitary(g.matrix.shape[0], seed=5)) for g in base.gates])
path = make_path(base, target)

print("peak survives small perturbations (exact distributions at n=3):")
for theta in (1e-3, 1e-2, 1e-1):
    chk = tv_peakedness_check(path, theta, base_inst.peak_string)
    print(f"  theta={theta:g}: |p-q|_1 = {chk.tv_distance:.5f} <= bound {chk.bound:.5f}; "
          f"peak {chk.peakedness_base:.4f} -> {chk.peakedness_perturbed:.4f}")

print("\npolynomial reconstruction from a narrow sampling window:")
two_gates = Circuit(2, [Gate((0, 1), haar_unitary(4, seed=k)) for k in (1, 2)])
two_target = Circuit(2, [Gate((0, 1), haar_unitary(4, seed=k)) for k in (3, 4)])
two_path, K = make_path(two_gates, two_target), 2
nodes = chebyshev_nodes(0.0, 0.1, 2 * two_path.gate_count * K + 1)
fit = amplitude_polynomial(two_path, K, "00", nodes)
print(f"  m={two_path.gate_count} gates, K={K}: weight polynomial degree {fit.degree}, "
      f"node-matrix condition {fit.condition:.1f}")
for theta in (0.05, 0.5, 1.0):
    direct = abs(amplitude(materialize(two_path, theta, K), "00", "00")) ** 2
    print(f"  theta={theta}: fitted {fit.p0_at(theta):.10f}  direct {direct:.10f}  "
          f"err {abs(fit.p0_at(theta) - direct):.2e}")

print("\ntruncation order controls the gate error (theta = 0.05):")
exact = amplitude(materialize(path, 0.05), "000", "000")
for K in (1, 2, 4, 8, 12):
    approx = amplitude(materialize(path, 0.05, K), "000", "000")
    print(f"  K={K:2d}: amplitude error {abs(approx - exact):.3e}")
