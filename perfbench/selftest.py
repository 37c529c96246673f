"""Self-tests of the benchmark at toy sizes: every workload's checks pass on the
program's outputs, and each check rejects a wrong output.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

The file is not named ``test_*.py``, so the package's own pytest run does not
collect it.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

_CACHE: dict[str, workloads.Run] = {}


def toy_run(name: str) -> workloads.Run:
    """One checked toy round of a workload, kept for the negative tests."""
    if name not in _CACHE:
        os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=os.path.join(HERE, "work"))
        run = workloads.Run(7, workdir, workloads.TOY[name])
        workload = workloads.WORKLOADS[name]
        workload.setup(run)
        workload.round(run, 0)
        workload.check(run)
        _CACHE[name] = run
    return _CACHE[name]


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except ref.CheckFailed:
        return True
    return False


def test_workloads_pass_their_checks():
    for name in workloads.WORKLOADS:
        run = toy_run(name)
        assert run.errors == [], (name, run.errors)
        assert run.failed == 0, (name, run.failures)
        assert run.attempted > 0


def test_wrong_delta_fails_acceptance_rate():
    run = toy_run("generate")
    size = run.size
    trials, accepted = sum(run.stages["postselect_trials"]), sum(run.stages["postselect_accepted"])
    ref.check_acceptance_rate(accepted, trials, size.trial_n, size.trial_delta)
    assert rejects(ref.check_acceptance_rate, accepted, trials, size.trial_n, 0.3)


def test_wrong_peak_fails_postselect_and_variational_checks():
    run = toy_run("generate")
    size = run.size
    trial = next(o for o in run.outputs if o["kind"] == "postselect")
    assert rejects(ref.check_postselect_peak, size.trial_n, trial["gates"], trial["x_star"],
                   trial["peakedness"] - 1e-3, size.trial_delta)
    prefix = next(o for o in run.outputs if o["kind"] == "variational")["prefix"]
    public, private = workloads.load(f"{prefix}.public.json"), workloads.load(f"{prefix}.private.json")
    private["peakedness"] += 1e-3
    assert rejects(ref.check_variational, public, private, 0.5)


def test_wrong_product_fails_conditioned_check():
    from peakedqc.ensembles import conditioned_generate

    inst = conditioned_generate(3, 0.9, x_star="101", seed=1)
    p, c, cp = (inst.circuit.gates[0].matrix, inst.factors[0].gates[0].matrix,
                inst.factors[1].gates[0].matrix)
    ref.check_conditioned(p, c, cp, "101", inst.peakedness, 0.9)
    assert rejects(ref.check_conditioned, p, c, cp, "011", inst.peakedness, 0.9)
    assert rejects(ref.check_conditioned, c, c, cp, "101", inst.peakedness, 0.9)
    assert rejects(ref.check_conditioned, 1.01 * p, c, cp, "101", inst.peakedness, 0.9)


def test_wrong_x_star_fails_decoding_and_commitment():
    run = toy_run("challenge")
    prefix, x_star = run.outputs[0]["prefix"], run.outputs[0]["x_star"]
    wrong = x_star[:-1] + ("1" if x_star[-1] == "0" else "0")
    verdict = workloads.load(f"{prefix}_bsc_majority.verdict.json")
    ref.check_decoded(verdict, x_star, "majority")
    assert rejects(ref.check_decoded, verdict, wrong, "majority")
    public, private = workloads.load(f"{prefix}.public.json"), workloads.load(f"{prefix}.private.json")
    ref.check_commitment(public, private, x_star)
    private["peak_string"] = wrong
    assert rejects(ref.check_commitment, public, private, wrong)


def test_wrong_channel_fails_at_peak_fraction():
    run = toy_run("challenge")
    size = run.size
    prefix, x_star = run.outputs[0]["prefix"], run.outputs[0]["x_star"]
    circuit = workloads.load(f"{prefix}.public.json")["circuit"]
    p = np.abs(ref.statevector(size.n, ref.circuit_gates(circuit))) ** 2
    shots = ref.read_shots(f"{prefix}_bsc.txt", size.n, size.shots)
    ref.check_at_peak_fraction(shots, x_star, ref.at_peak_probability(p, size.n, x_star, ("bsc", size.bsc)), "bsc")
    wrong = ref.at_peak_probability(p, size.n, x_star, ("bsc", 0.15))
    assert rejects(ref.check_at_peak_fraction, shots, x_star, wrong, "bsc")


def test_uniform_shots_fail_xeb():
    run = toy_run("wide-sample")
    n = run.size.sizes[0]
    circuit = workloads.load(run.path(f"w{n}.public.json"))["circuit"]
    p = np.abs(ref.statevector(n, ref.circuit_gates(circuit))) ** 2
    honest = ref.read_shots(run.outputs[0]["path"], n, run.size.shots)
    ref.check_xeb(p, n, honest, "honest")
    rng = np.random.default_rng(3)
    uniform = [format(int(i), f"0{n}b") for i in rng.integers(0, 1 << n, size=run.size.shots)]
    assert rejects(ref.check_xeb, p, n, uniform, "uniform")


def test_reference_simulation_matches_index_loop():
    rng = np.random.default_rng(5)
    haar = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
    gates = [((2, 0), haar), ((1,), x_gate)]  # first wire listed is the gate's high bit
    expected = np.zeros((8, 8), dtype=complex)
    for col in range(8):
        b0, b1, b2 = (col >> 2) & 1, (col >> 1) & 1, col & 1
        for out in range(4):
            o2, o0 = out >> 1, out & 1
            expected[(o0 << 2) | ((1 - b1) << 1) | o2, col] += haar[out, 2 * b2 + b0]
    u = ref.dense_unitary(3, gates)
    assert np.allclose(u, expected)
    assert np.allclose(ref.statevector(3, gates, "010"), u[:, 2])


def test_tracer_self_time_and_importtime_parser():
    tracer = spans.Tracer("t")
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = tracer.self_times()
    assert totals["inner"][0] == 3 and totals["outer"][0] == 1
    assert abs(totals["outer"][1] + totals["inner"][1] - totals["outer"][2]) < 1e-9
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.linalg",
        "import time:        50 |        150 |     scipy",
        "import time:        10 |        160 |   peakedqc.perturb",
        "import time:        20 |        500 | peakedqc",
        "import time:        30 |         30 | peakedqc.cli",
    ])
    assert np.allclose(spans.parse_importtime(log), (530e-6, 150e-6), rtol=0, atol=1e-12)


def test_result_line_carries_the_declared_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "challenge",
                              "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--size", "toy"],
                             capture_output=True, text=True, check=True, timeout=170)
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] == 9 and result["failed"] == 0
        units = {m["name"]: m["unit"] for m in declared[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def teardown_module(module=None):
    for run in _CACHE.values():
        shutil.rmtree(run.workdir, ignore_errors=True)
    _CACHE.clear()


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    try:
        for name, fn in tests:
            fn()
            print(f"ok   {name}")
    finally:
        teardown_module()
    print(f"{len(tests)} self-tests passed")
