"""Computations made apart from peakedqc, and the output checks built on them.

Nothing here imports peakedqc: circuits are read from their JSON form (or
from plain ``(wires, matrix)`` pairs) and simulated with ``np.einsum``, so a
fault in the package's simulator cannot hide a fault in its outputs.

Every statistical check allows ``Z_SE`` standard errors, which makes a false
alarm on honest outputs a one-in-a-million event per check.
"""
from __future__ import annotations

import hashlib
import math
import string

import numpy as np

Z_SE = 5.0
UNITARY_TOL = 1e-10
PEAK_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent simulation

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_SU4_BASIS = np.stack([np.kron(_PAULIS[a], _PAULIS[b])
                       for a in "IXYZ" for b in "IXYZ" if a + b != "II"])


def gate_matrix(obj: dict) -> np.ndarray:
    """The matrix of one gate in the circuit JSON format."""
    if "params" in obj:
        h = np.tensordot(np.asarray(obj["params"], dtype=float), _SU4_BASIS, axes=1)
        w, q = np.linalg.eigh(h)
        return (q * np.exp(-1j * w)) @ q.conj().T
    pairs = np.asarray(obj["matrix"], dtype=float)
    flat = pairs[:, 0] + 1j * pairs[:, 1]
    dim = math.isqrt(flat.size)
    return flat.reshape(dim, dim)


def circuit_gates(circuit_obj: dict) -> list[tuple[tuple[int, ...], np.ndarray]]:
    return [(tuple(g["wires"]), gate_matrix(g)) for g in circuit_obj["gates"]]


def apply_gate(tensor: np.ndarray, n: int, wires, matrix: np.ndarray) -> np.ndarray:
    """Contract a k-wire gate into axes ``wires`` of a ``(2,)*n (+ batch)`` tensor."""
    k = len(wires)
    letters = string.ascii_letters
    axes = list(letters[: tensor.ndim])
    new = letters[tensor.ndim : tensor.ndim + k]
    out = axes.copy()
    for j, w in enumerate(wires):
        out[w] = new[j]
    subscripts = f"{new}{''.join(axes[w] for w in wires)},{''.join(axes)}->{''.join(out)}"
    return np.einsum(subscripts, matrix.reshape((2,) * (2 * k)), tensor, optimize=True)


def statevector(n: int, gates, bits_in: str | None = None) -> np.ndarray:
    """``C|bits_in>`` for a gate list of ``(wires, matrix)``; wire 0 is the MSB."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0 if bits_in is None else int(bits_in, 2)] = 1.0
    tensor = psi.reshape((2,) * n)
    for wires, matrix in gates:
        tensor = apply_gate(tensor, n, wires, matrix)
    return tensor.reshape(-1)


def dense_unitary(n: int, gates) -> np.ndarray:
    """The ``2^n x 2^n`` matrix of a gate list; column ``x`` is ``C|x>``."""
    d = 1 << n
    tensor = np.eye(d, dtype=complex).reshape((2,) * n + (d,))
    for wires, matrix in gates:
        tensor = apply_gate(tensor, n, wires, matrix)
    return tensor.reshape(d, d)


def hamming_to(n: int, x_star: str) -> np.ndarray:
    """Hamming distance of every basis index to ``x_star``."""
    diff = np.arange(1 << n) ^ int(x_star, 2)
    return np.array([bin(int(v)).count("1") for v in diff])


def random_bits(rng: np.random.Generator, n: int) -> str:
    return "".join(rng.choice(["0", "1"], size=n))


# ---------------------------------------------------------------------------
# generate


def haar_acceptance(n: int, delta: float) -> float:
    """Pr[|<x*|P|0>|^2 >= delta] for Haar factors: ``(1-delta)^(2^n - 1)``."""
    return (1.0 - delta) ** ((1 << n) - 1)


def check_acceptance_rate(accepted: int, trials: int, n: int, delta: float) -> None:
    expected = haar_acceptance(n, delta)
    se = math.sqrt(expected * (1.0 - expected) / trials)
    rate = accepted / trials
    require(abs(rate - expected) <= Z_SE * se,
            f"acceptance {rate:.4f} over {trials} trials is off the Haar value "
            f"{expected:.4f} by more than {Z_SE:g} SE ({se:.4f})")


def check_postselect_peak(n: int, gates, x_star: str, peakedness: float, delta: float) -> None:
    p = abs(dense_unitary(n, gates)[int(x_star, 2), 0]) ** 2
    require(abs(p - peakedness) <= PEAK_TOL,
            f"postselected peak {peakedness} but the dense product gives {p}")
    require(p >= delta, f"accepted peak {p} is below delta {delta}")


def check_conditioned(p_mat, c_mat, cp_mat, x_star: str, peakedness: float, delta: float) -> None:
    d = p_mat.shape[0]
    defect = np.abs(p_mat.conj().T @ p_mat - np.eye(d)).max()
    require(defect <= UNITARY_TOL, f"conditioned P is not unitary (defect {defect:.2e})")
    product = cp_mat.conj().T @ c_mat
    gap = np.abs(p_mat - product).max()
    require(gap <= UNITARY_TOL, f"conditioned P differs from C'^dag C by {gap:.2e}")
    p = abs(product[int(x_star, 2), 0]) ** 2
    require(p >= delta, f"conditioned peak {p} is below delta {delta}")
    require(abs(p - peakedness) <= PEAK_TOL, f"conditioned peak reported {peakedness}, product gives {p}")


def check_variational(public: dict, private: dict, delta: float) -> None:
    circuit = public["circuit"]
    x_star = private["peak_string"]
    psi = statevector(circuit["n"], circuit_gates(circuit))
    p = abs(psi[int(x_star, 2)]) ** 2
    require(private["peakedness"] >= delta,
            f"variational peak {private['peakedness']} is below its target {delta}")
    require(abs(p - private["peakedness"]) <= PEAK_TOL,
            f"variational peak claimed {private['peakedness']}, public circuit gives {p}")


# ---------------------------------------------------------------------------
# challenge


def check_commitment(public: dict, private: dict, x_star: str) -> None:
    require(private["peak_string"] == x_star,
            f"private file holds {private['peak_string']}, gen was given {x_star}")
    digest = hashlib.sha256(x_star.encode() + bytes.fromhex(private["salt"])).hexdigest()
    require(digest == public["commitment"] == private["commitment"],
            "commitment does not equal sha256(x* + salt)")


def read_shots(path: str, n: int, shots: int) -> list[str]:
    with open(path) as fh:
        lines = fh.read().split()
    require(len(lines) == shots, f"{path}: {len(lines)} shots, {shots} requested")
    require(all(len(s) == n for s in lines) and set("".join(lines)) <= {"0", "1"},
            f"{path}: a shot is not an {n}-bit string")
    return lines


def at_peak_probability(p: np.ndarray, n: int, x_star: str, channel: tuple) -> float:
    """Chance that one noisy shot equals ``x_star`` exactly.

    ``channel`` is ``("bsc", r)``, ``("tsparse", t)`` (random subset of a
    uniform {0..t} flip count) or ``("depol", eps)``.
    """
    h = hamming_to(n, x_star)
    kind, strength = channel
    if kind == "bsc":
        land = strength**h * (1.0 - strength) ** (n - h)
    elif kind == "tsparse":
        t = int(strength)
        land = np.array([1.0 / ((t + 1) * math.comb(n, int(k))) if k <= t else 0.0 for k in h])
    elif kind == "depol":
        land = (1.0 - strength) * (h == 0) + strength / (1 << n)
    else:
        raise ValueError(f"unknown channel {kind!r}")
    return float(np.dot(p, land))


def check_at_peak_fraction(shots: list[str], x_star: str, expected: float, label: str) -> None:
    rate = shots.count(x_star) / len(shots)
    se = math.sqrt(expected * (1.0 - expected) / len(shots))
    require(abs(rate - expected) <= Z_SE * se,
            f"{label}: {rate:.4f} of shots at x*, closed form {expected:.4f} (SE {se:.4f})")


def check_decoded(verdict: dict, x_star: str, label: str) -> None:
    require(verdict["decoded_string"] == x_star,
            f"{label}: decoded {verdict['decoded_string']}, the peak is {x_star}")
    require(verdict["commitment_matches"], f"{label}: decoded string misses the commitment")


# ---------------------------------------------------------------------------
# wide-sample


def xeb(p: np.ndarray, n: int, shots: list[str]) -> tuple[float, float, float]:
    """Linear XEB of the shots, its expectation ``2^n sum p^2 - 1`` and the SE."""
    idx = np.array([int(s, 2) for s in shots])
    d = float(1 << n)
    f = d * float(p[idx].mean()) - 1.0
    m2, m3 = float(np.dot(p, p)), float(np.dot(p, p * p))
    se = d * math.sqrt(max(m3 - m2 * m2, 0.0) / len(shots))
    return f, d * m2 - 1.0, se


def check_xeb(p: np.ndarray, n: int, shots: list[str], label: str) -> None:
    f, expected, se = xeb(p, n, shots)
    require(abs(f - expected) <= Z_SE * se,
            f"{label}: XEB {f:.4f}, expected {expected:.4f} (SE {se:.4f})")
