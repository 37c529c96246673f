"""The challenge workflow: file formats, commitments, end-to-end verify."""
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from peakedqc.cli import (
    commitment_digest,
    load_shots,
    main,
    parse_noise,
    read_json,
)
from peakedqc import noise, synth
from peakedqc.ensembles import conditioned_generate
from peakedqc.sim import StructureError, amplitude, brickwall_pairs, circuit_from_json


def run_cli(*args):
    return main([str(a) for a in args])


def gen_conditioned(tmp_path, name="chal", n=4, delta=0.9, seed=11):
    prefix = tmp_path / name
    rc = run_cli(
        "gen", "--method", "postselect", "--conditioned", "--n", n,
        "--delta", delta, "--seed", seed, "--out-prefix", prefix,
    )
    assert rc == 0
    return f"{prefix}.public.json", f"{prefix}.private.json"


def test_gen_postselect_files(tmp_path):
    pub_path, priv_path = gen_conditioned(tmp_path)
    pub, priv = read_json(pub_path), read_json(priv_path)
    assert priv["peakedness"] >= 0.9
    assert pub["commitment"] == priv["commitment"]
    assert pub["commitment"] == commitment_digest(priv["peak_string"], bytes.fromhex(priv["salt"]))
    circuit_from_json(pub["circuit"])  # parses
    # the private file binds the public file's bytes instead of repeating its circuit
    assert "circuit" not in priv
    with open(pub_path, "rb") as fh:
        assert priv["public_sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_gen_rejection_postselect(tmp_path):
    prefix = tmp_path / "rej"
    rc = run_cli("gen", "--method", "postselect", "--n", 2, "--delta", 0.3,
                 "--depth", 1, "--max-trials", 5000, "--seed", 3, "--out-prefix", prefix)
    assert rc == 0
    priv = read_json(f"{prefix}.private.json")
    assert priv["peakedness"] >= 0.3


def test_gen_variational(tmp_path):
    prefix = tmp_path / "var"
    rc = run_cli("gen", "--method", "variational", "--n", 4, "--depth", 4,
                 "--delta", 0.5, "--seeds", 2, "--iters", 400, "--seed", 5,
                 "--out-prefix", prefix, "--history-out", tmp_path / "hist.csv")
    assert rc == 0
    priv = read_json(f"{prefix}.private.json")
    assert priv["method"] == "variational"
    assert priv["peakedness"] >= 0.5
    hist = (tmp_path / "hist.csv").read_text().splitlines()
    assert hist[0] == "seed,iter,p0"
    assert len(hist) > 2


def test_variational_public_file_writes_the_ansatz_half_as_params(tmp_path):
    prefix = tmp_path / "var"
    assert run_cli("gen", "--method", "variational", "--n", 4, "--depth", 4, "--delta", 0.5,
                   "--seeds", 2, "--iters", 400, "--seed", 5, "--out-prefix", prefix) == 0
    pub, priv = read_json(f"{prefix}.public.json"), read_json(f"{prefix}.private.json")
    gates, half = pub["circuit"]["gates"], len(brickwall_pairs(4, 4))
    # P = C'^dagger C: the target C's Haar gates act first, then the adjoint of the ansatz C'
    assert len(gates) == 2 * half
    assert all(set(g) == {"wires", "matrix"} for g in gates[:half])
    assert all(set(g) == {"wires", "params"} and len(g["params"]) == 15 for g in gates[half:])
    circuit = circuit_from_json(pub["circuit"])
    assert abs(amplitude(circuit, "0000", priv["peak_string"])) ** 2 == priv["peakedness"]


def test_written_files_use_compact_separators(tmp_path):
    pub, priv = gen_conditioned(tmp_path, name="a", n=3, seed=12)
    _, priv_b = gen_conditioned(tmp_path, name="b", n=3, seed=13)
    var = tmp_path / "var"
    run_cli("gen", "--method", "variational", "--n", 3, "--depth", 3, "--delta", 0.5,
            "--seeds", 1, "--iters", 20, "--seed", 5, "--out-prefix", var)
    assert run_cli("stitch", "--blocks", priv, priv_b, "--out", tmp_path / "st.json") == 0
    assert run_cli("sample", "--challenge", pub, "--shots", 20, "--json", "--out", tmp_path / "shots.json") == 0
    written = [pub, priv, f"{var}.public.json", f"{var}.private.json", tmp_path / "st.json",
               tmp_path / "shots.json"]
    for path in written:
        text = open(path).read()
        assert text == json.dumps(json.loads(text), separators=(",", ":")), path
    # the verdict is read by people and keeps its indentation
    run_cli("verify", "--private", priv, "--shots", tmp_path / "shots.json", "--out", tmp_path / "v.json")
    text = (tmp_path / "v.json").read_text()
    assert text == json.dumps(json.loads(text), indent=1)


def test_gen_variational_below_target_exit_code(tmp_path):
    prefix = tmp_path / "hard"
    rc = run_cli("gen", "--method", "variational", "--n", 4, "--depth", 4,
                 "--delta", 0.9999999, "--seeds", 1, "--iters", 3, "--seed", 5,
                 "--out-prefix", prefix)
    assert rc == 1


def test_gen_stitched(tmp_path):
    blocks = []
    for j in range(3):
        _, priv = gen_conditioned(tmp_path, name=f"b{j}", n=4, delta=0.95, seed=20 + j)
        blocks.append(priv)
    prefix = tmp_path / "stitched"
    rc = run_cli("gen", "--method", "stitched", "--blocks", *blocks,
                 "--seed", 30, "--out-prefix", prefix)
    assert rc == 0
    priv = read_json(f"{prefix}.private.json")
    assert priv["method"] == "stitched"
    assert priv["plan"] is not None
    # each block's witness only: its gates are in the public circuit between the boundaries
    assert [sorted(b) for b in priv["plan"]["blocks"]] == [["method", "peak_string", "peakedness", "seed"]] * 3
    assert os.path.getsize(f"{prefix}.private.json") < 2048


def test_public_file_leaks_nothing(tmp_path):
    pub_path, priv_path = gen_conditioned(tmp_path, n=4)
    pub, priv = read_json(pub_path), read_json(priv_path)
    peak = priv["peak_string"]

    def walk(obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                assert k not in ("peak_string", "peakedness", "salt", "plan", "method")
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)
        elif isinstance(obj, str):
            assert obj != peak

    walk(pub)
    assert priv["salt"] not in json.dumps(pub)


def test_sample_and_verify_accept(tmp_path):
    pub_path, priv_path = gen_conditioned(tmp_path, n=4, delta=0.9, seed=41)
    shots_path = tmp_path / "shots.txt"
    rc = run_cli("sample", "--challenge", pub_path, "--shots", 4000,
                 "--seed", 42, "--out", shots_path)
    assert rc == 0
    rc = run_cli("verify", "--private", priv_path, "--shots", shots_path,
                 "--decoder", "hba", "--t", 0)
    assert rc == 0


def test_verify_rejects_uniform_shots(tmp_path):
    pub_path, priv_path = gen_conditioned(tmp_path, n=4, delta=0.9, seed=43)
    rng = np.random.default_rng(44)
    shots_path = tmp_path / "uniform.txt"
    shots_path.write_text("\n".join(format(x, "04b") for x in rng.integers(0, 16, 3000)) + "\n")
    rc = run_cli("verify", "--private", priv_path, "--shots", shots_path,
                 "--decoder", "majority", "--t", 0)
    assert rc == 1


def test_verify_bsc_pipeline_accepts(tmp_path):
    # majority + Hamming-ball pipeline on BSC-noised honest shots
    pub_path, priv_path = gen_conditioned(tmp_path, n=6, delta=0.95, seed=45)
    priv = read_json(priv_path)
    plan = noise.plan_samples("majority", n=6, p_max=priv["peakedness"], r=0.05, eta=0.05)
    shots_path = tmp_path / "noisy.txt"
    rc = run_cli("sample", "--challenge", pub_path, "--shots", max(plan.n_samples, 3000),
                 "--noise", "bsc:0.05", "--seed", 46, "--out", shots_path)
    assert rc == 0
    rc = run_cli("verify", "--private", priv_path, "--shots", shots_path,
                 "--decoder", "majority", "--noise", "bsc:0.05",
                 "--tolerance", 0.25)
    assert rc == 0


def test_sample_noise_flip_rate(tmp_path):
    pub_path, priv_path = gen_conditioned(tmp_path, n=4, delta=1.0, seed=47)
    shots_path = tmp_path / "flips.json"
    run_cli("sample", "--challenge", priv_path, "--shots", 20000,
            "--noise", "bsc:0.05", "--seed", 48, "--out", shots_path, "--json")
    samples = load_shots(str(shots_path))
    priv = read_json(priv_path)
    # per-bit flip rate around the (near-)deterministic peak string
    bits = np.array([[int(c) for c in s] for s in samples.shots])
    ref = np.array([int(c) for c in priv["peak_string"]])
    rate = (bits != ref).mean()
    sigma = math.sqrt(0.05 * 0.95 / bits.size)
    assert abs(rate - 0.05) <= 4 * sigma


def test_end_to_end_determinism(tmp_path):
    a_pub, a_priv = gen_conditioned(tmp_path, name="a", seed=50)
    b_pub, b_priv = gen_conditioned(tmp_path, name="b", seed=50)
    a, b = read_json(a_priv), read_json(b_priv)
    a["config"], b["config"] = None, None
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # sampling determinism
    for name in ("s1", "s2"):
        run_cli("sample", "--challenge", a_pub, "--shots", 500, "--seed", 7,
                "--out", tmp_path / f"{name}.txt")
    assert (tmp_path / "s1.txt").read_text() == (tmp_path / "s2.txt").read_text()


def test_gen_default_seed_is_secret_and_recorded(tmp_path):
    def gen(prefix, *seed):
        assert run_cli("gen", "--method", "postselect", "--conditioned", "--n", 3,
                       "--delta", 0.9, *seed, "--out-prefix", prefix) == 0
        return [open(f"{prefix}.{side}.json", "rb").read() for side in ("public", "private")]

    first = gen(tmp_path / "a")
    second = gen(tmp_path / "b")
    pub_a, priv_a = json.loads(first[0]), json.loads(first[1])
    assert pub_a["commitment"] != json.loads(second[0])["commitment"]
    seed = priv_a["config"]["seed"]
    assert isinstance(seed, int) and priv_a["seed"] == seed
    assert str(seed) not in first[0].decode()
    assert gen(tmp_path / "a", "--seed", seed) == first


def test_sample_worst_case_noise_needs_private_file(tmp_path, capsys):
    pub_path, _ = gen_conditioned(tmp_path, n=4, seed=86)
    rc = run_cli("sample", "--challenge", pub_path, "--shots", 10,
                 "--noise", "tsparse:1:worst-case-toward-target", "--out", tmp_path / "s.txt")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("peakedqc: ") and err.count("\n") == 1
    assert "private" in err


def test_cli_import_skips_scipy_linalg():
    code = "import sys, peakedqc.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"

    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        from peakedqc.ensembles import random_brickwall
        from peakedqc.perturb import make_path, materialize
        path = make_path(random_brickwall(4, 4, seed=1), random_brickwall(4, 4, seed=2))
        materialize(path, 0.5)
        materialize(path, 0.5, K=3)
        print("ok")
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr


def test_stitch_subcommand(tmp_path):
    blocks = []
    for j in range(2):
        _, priv = gen_conditioned(tmp_path, name=f"sb{j}", n=4, delta=0.9, seed=60 + j)
        blocks.append(priv)
    out = tmp_path / "composed.json"
    rc = run_cli("stitch", "--blocks", *blocks, "--rewrite", "--seed", 61, "--out", out)
    assert rc == 0
    obj = read_json(out)
    assert obj["method"] == "stitched"
    assert obj["plan"]["path"][0] == "0000"


def test_perturb_subcommand(tmp_path):
    _, priv_a = gen_conditioned(tmp_path, name="pa", n=3, delta=0.9, seed=70)
    _, priv_b = gen_conditioned(tmp_path, name="pb", n=3, delta=0.9, seed=71)
    out = tmp_path / "interp.csv"
    rc = run_cli("perturb", "--base", priv_a, "--target", priv_b,
                 "--theta", "0.0,0.01,0.1", "--K", 4, "--out", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,p0,p0_truncated,tv_bound"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    base_peak = read_json(priv_a)["peakedness"]
    assert abs(float(first[1]) - base_peak) < 1e-9


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "b.json"
    rc = run_cli("bounds", "acceptance", "--d", 4, "--delta", 0.3, "--out", out)
    assert rc == 0
    rep = read_json(out)
    assert abs(math.exp(rep["log_value"]) - 0.7**3) < 1e-12
    assert rep["semantics"] == "exact"
    rc = run_cli("bounds", "lb", "--n", 10, "--k", 4)
    assert rc == 0


def test_parse_noise_specs():
    assert isinstance(parse_noise("bsc:0.1"), noise.BSC)
    assert isinstance(parse_noise("depol:0.2"), noise.GlobalDepolarizing)
    ts = parse_noise("tsparse:3", target="000")
    assert ts.t == 3 and ts.policy == "random-subset"
    assert parse_noise(None) is None


MALFORMED_NOISE = ["bsc:x", "bsc", "bsc:0.7", "tsparse:1:bogus", "tsparse:x", "depol:0.1:2", "foo:1"]


@pytest.mark.parametrize("spec", MALFORMED_NOISE)
def test_parse_noise_rejects_malformed(spec):
    with pytest.raises(StructureError, match="noise spec"):
        parse_noise(spec, target="000")


@pytest.mark.parametrize("spec", ["bsc:x", "tsparse:1:bogus", "foo:1"])
def test_malformed_noise_exits_2(tmp_path, capsys, spec):
    pub_path, priv_path = gen_conditioned(tmp_path, n=4, seed=87)
    shots_path = tmp_path / "s.txt"
    assert run_cli("sample", "--challenge", pub_path, "--shots", 10, "--seed", 1,
                   "--out", shots_path, "--noise", spec) == 2
    assert not shots_path.exists()
    assert run_cli("sample", "--challenge", pub_path, "--shots", 10, "--seed", 1, "--out", shots_path) == 0
    assert run_cli("verify", "--private", priv_path, "--shots", shots_path, "--noise", spec) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("peakedqc: ") and spec in line for line in err)


def test_commitment_binding():
    salt = b"0123456789abcdef"
    digest = commitment_digest("0101", salt)
    assert digest == commitment_digest("0101", salt)
    assert digest != commitment_digest("0100", salt)
    assert digest != commitment_digest("0101", b"x" * 16)


def planted_private(tmp_path, n, x_star, p_max):
    # a private file for a peak planted at x_star; verify reads only these fields
    salt = b"0123456789abcdef"
    path = tmp_path / "planted.private.json"
    path.write_text(json.dumps({
        "n": n, "peak_string": x_star, "peakedness": p_max, "salt": salt.hex(),
        "commitment": commitment_digest(x_star, salt),
    }))
    return path


def test_verify_bsc_default_tolerance(tmp_path):
    # honest BSC shots: the estimate is compared with claimed * Pr[Binomial(n, r) <= t]
    n, x_star = 9, "110010110"
    priv_path = planted_private(tmp_path, n, x_star, 0.999)
    s = noise.apply_noise(noise.planted_sampleset(n, 0.999, x_star, 8000, seed=80), noise.BSC(0.05), seed=81)
    shots_path = tmp_path / "bsc.txt"
    shots_path.write_text("\n".join(s.shots) + "\n")
    for decoder in ("majority", "center", "hba"):
        out = tmp_path / f"{decoder}.json"
        rc = run_cli("verify", "--private", priv_path, "--shots", shots_path,
                     "--decoder", decoder, "--noise", "bsc:0.05", "--out", out)
        verdict = read_json(out)
        assert rc == 0, verdict
        assert verdict["expected"] < verdict["claimed"]
    rng = np.random.default_rng(82)
    uniform_path = tmp_path / "uniform.txt"
    uniform_path.write_text("\n".join(format(x, "09b") for x in rng.integers(0, 512, 8000)) + "\n")
    for decoder in ("majority", "center", "hba"):
        rc = run_cli("verify", "--private", priv_path, "--shots", uniform_path,
                     "--decoder", decoder, "--noise", "bsc:0.05")
        assert rc == 1


@pytest.mark.parametrize("shots_text, private_edit", [
    ('{"n": "4", "shots": ["0101", "0110"]}', {}),
    ('{"n": 4, "shots": "0101"}', {}),
    ("0101\n0110\n", {"salt": "not hex"}),
    ("0101\n0110\n", {"peakedness": "0.9"}),
    ("0101\n0110\n", {"peakedness": 1.5}),
    ("0101\n0110\n", {"peak_string": 5}),
], ids=["n-string", "shots-string", "salt-not-hex", "peakedness-string", "peakedness-above-1",
        "peak-string-number"])
def test_verify_malformed_fields_exit_2(tmp_path, capsys, shots_text, private_edit):
    priv_path = planted_private(tmp_path, 4, "0101", 0.9)
    priv_path.write_text(json.dumps({**json.loads(priv_path.read_text()), **private_edit}))
    shots_path = tmp_path / "shots.json"
    shots_path.write_text(shots_text)
    assert run_cli("verify", "--private", priv_path, "--shots", shots_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("peakedqc: ") and err.count("\n") == 1


def test_verify_depol_false_reject_rate(tmp_path):
    # honest planted shots through depol:0.7; the 3-SE term must carry the
    # 1/(1-eps) inflation of the de-biased estimate
    n, p_max, shots, eps, runs = 6, 0.9, 5000, 0.7, 300
    x_star = "101101"
    priv_path = planted_private(tmp_path, n, x_star, p_max)
    shots_path = tmp_path / "shots.txt"
    rejects = 0
    for k in range(runs):
        s = noise.apply_noise(noise.planted_sampleset(n, p_max, x_star, shots, seed=1000 + k),
                              noise.GlobalDepolarizing(eps), seed=2000 + k)
        shots_path.write_text("\n".join(s.shots) + "\n")
        rejects += run_cli("verify", "--private", priv_path, "--shots", shots_path,
                           "--decoder", "hba", "--depol", eps) != 0
    assert rejects / runs <= 0.02


@pytest.mark.parametrize("name, text", [("empty.txt", "\n"), ("empty.json", '{"n": 4, "shots": []}')])
def test_verify_empty_shots_file(tmp_path, capsys, name, text):
    _, priv_path = gen_conditioned(tmp_path, n=4, seed=83)
    shots_path = tmp_path / name
    shots_path.write_text(text)
    assert run_cli("verify", "--private", priv_path, "--shots", shots_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("peakedqc: ") and err.count("\n") == 1


def test_verify_ragged_shots_file(tmp_path, capsys):
    _, priv_path = gen_conditioned(tmp_path, n=4, seed=84)
    shots_path = tmp_path / "ragged.txt"
    shots_path.write_text("0101\n011\n1100\n")
    assert run_cli("verify", "--private", priv_path, "--shots", shots_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("peakedqc: ") and err.count("\n") == 1
    assert "'011'" in err


def test_verify_out_of_range_shot_indices(tmp_path, capsys):
    _, priv_path = gen_conditioned(tmp_path, n=4, seed=85)
    shots_path = tmp_path / "indices.json"
    shots_path.write_text('{"n": 4, "shots": [3, -1, 999]}')
    assert run_cli("verify", "--private", priv_path, "--shots", shots_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("peakedqc: ") and err.count("\n") == 1


def test_depol_flag_is_the_depol_noise_spec(tmp_path, capsys):
    pub_path, priv_path = gen_conditioned(tmp_path, n=6, delta=0.999, seed=88)
    shots_path = tmp_path / "depol.txt"
    assert run_cli("sample", "--challenge", pub_path, "--shots", 20000, "--noise", "depol:0.3",
                   "--seed", 89, "--out", shots_path) == 0
    verify = ("verify", "--private", priv_path, "--shots", shots_path, "--decoder", "hba")
    assert run_cli(*verify, "--depol", 0.3, "--out", tmp_path / "flag.json") == 0
    assert run_cli(*verify, "--noise", "depol:0.3", "--out", tmp_path / "spec.json") == 0
    assert (tmp_path / "flag.json").read_bytes() == (tmp_path / "spec.json").read_bytes()
    capsys.readouterr()
    assert run_cli(*verify, "--depol", 0.3, "--noise", "depol:0.3") == 2
    err = capsys.readouterr().err
    assert err.startswith("peakedqc: ") and err.count("\n") == 1


def test_verify_tsparse_radius_defaults_from_channel(tmp_path):
    pub_path, priv_path = gen_conditioned(tmp_path, n=6, delta=0.999, seed=90)
    shots_path = tmp_path / "tsparse.txt"
    assert run_cli("sample", "--challenge", pub_path, "--shots", 20000, "--noise", "tsparse:1",
                   "--seed", 91, "--out", shots_path) == 0
    out = tmp_path / "verdict.json"
    assert run_cli("verify", "--private", priv_path, "--shots", shots_path,
                   "--noise", "tsparse:1", "--out", out) == 0
    assert read_json(out)["hba_radius"] == 1


def _public_as_private(tmp_path, pub, priv, shots):
    return ("verify", "--private", pub, "--shots", shots)


def _private_not_json(tmp_path, pub, priv, shots):
    bad = tmp_path / "bad.private.json"
    bad.write_text('{"n": 4, "peak_string": ')
    return ("verify", "--private", bad, "--shots", shots)


def _shots_json_without_n(tmp_path, pub, priv, shots):
    bad = tmp_path / "shots.json"
    bad.write_text('{"shots": ["0101", "0110"]}')
    return ("verify", "--private", priv, "--shots", bad)


def _challenge_without_circuit(tmp_path, pub, priv, shots):
    bad = tmp_path / "nocircuit.json"
    bad.write_text('{"n": 4, "commitment": "00"}')
    return ("sample", "--challenge", bad, "--out", tmp_path / "s.txt")


def _nested_shots_json(tmp_path, pub, priv, shots):
    bad = tmp_path / "nested.json"
    bad.write_text('{"n": 4, "shots": [[0, 1]]}')
    return ("verify", "--private", priv, "--shots", bad)


def _too_wide_for_statevector(tmp_path, pub, priv, shots):
    wide = tmp_path / "wide.public.json"
    wide.write_text('{"n": 40, "circuit": {"n": 40, "gates": [], "architecture": null}}')
    return ("sample", "--challenge", wide, "--shots", 10, "--out", tmp_path / "s.txt")


@pytest.mark.parametrize("case", [_public_as_private, _private_not_json, _shots_json_without_n,
                                  _challenge_without_circuit, _nested_shots_json,
                                  _too_wide_for_statevector])
def test_malformed_files_exit_2(tmp_path, capsys, case):
    pub_path, priv_path = gen_conditioned(tmp_path, n=4, seed=92)
    shots_path = tmp_path / "good.txt"
    assert run_cli("sample", "--challenge", pub_path, "--shots", 10, "--out", shots_path) == 0
    capsys.readouterr()
    assert run_cli(*case(tmp_path, pub_path, priv_path, shots_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("peakedqc: ") and err.count("\n") == 1


def _scale_matrix(gate):
    gate["matrix"] = [[1.01 * re, 1.01 * im] for re, im in gate["matrix"]]


def _nan_entry(gate):
    gate["matrix"][0][0] = float("nan")


def _drop_wires(gate):
    del gate["wires"]


def _three_number_entry(gate):
    gate["matrix"][0].append(0.0)


def _string_wires(gate):
    gate["wires"] = "ab"


def _boolean_identity(gate):  # numpy would read it as the identity
    d = math.isqrt(len(gate["matrix"]))
    gate["matrix"] = [[i % (d + 1) == 0, False] for i in range(d * d)]


def _string_params(gate):  # numpy would read them as 0.1
    del gate["matrix"]
    gate["wires"], gate["params"] = [0, 1], ["0.1"] * 15


def _huge_integer_entry(gate):  # past the float range, so numpy would overflow
    gate["matrix"][0][0] = 10**400


def _huge_integer_params(gate):
    del gate["matrix"]
    gate["wires"], gate["params"] = [0, 1], [10**400] * 15


def tampered(path, out, edit):
    """A copy of the challenge file at ``path`` with ``edit`` applied to its first gate."""
    obj = read_json(path)
    edit(obj["circuit"]["gates"][0])
    out.write_text(json.dumps(obj))
    return out


@pytest.mark.parametrize("edit", [_scale_matrix, _nan_entry, _drop_wires, _three_number_entry,
                                  _string_wires, _boolean_identity, _string_params,
                                  _huge_integer_entry, _huge_integer_params])
def test_sample_rejects_malformed_gate(tmp_path, capsys, edit):
    pub_path, _ = gen_conditioned(tmp_path, n=4, seed=93)
    bad = tampered(pub_path, tmp_path / "bad.public.json", edit)
    capsys.readouterr()
    assert run_cli("sample", "--challenge", bad, "--shots", 10, "--out", tmp_path / "s.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith("peakedqc: ") and err.count("\n") == 1
    assert not (tmp_path / "s.txt").exists()


def test_perturb_and_stitch_reject_non_unitary_gates(tmp_path, capsys):
    pub_a, priv_a = gen_conditioned(tmp_path, name="a", n=3, seed=94)
    _, priv_b = gen_conditioned(tmp_path, name="b", n=3, seed=95)
    # the private file holds no circuit: tamper with its public file and rebind the private copy to it
    tampered_pub = tampered(pub_a, tmp_path / "bad.public.json", _scale_matrix)
    bad = tmp_path / "bad.private.json"
    bad.write_text(json.dumps({**read_json(priv_a),
                               "public_sha256": hashlib.sha256(tampered_pub.read_bytes()).hexdigest()}))
    capsys.readouterr()
    assert run_cli("perturb", "--base", bad, "--target", priv_b) == 2
    assert run_cli("gen", "--method", "stitched", "--blocks", priv_b, bad,
                   "--seed", 96, "--out-prefix", tmp_path / "st") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("peakedqc: ") and "not unitary" in line for line in err)


@pytest.mark.parametrize("radius", [("--noise", "tsparse:5"), ("--t", 7), ("--t", -1)])
def test_verify_radius_outside_0_n_exits_2(tmp_path, capsys, radius):
    pub_path, priv_path = gen_conditioned(tmp_path, n=4, seed=97)
    shots_path = tmp_path / "s.txt"
    assert run_cli("sample", "--challenge", pub_path, "--shots", 10, "--out", shots_path) == 0
    capsys.readouterr()
    assert run_cli("verify", "--private", priv_path, "--shots", shots_path, *radius) == 2
    err = capsys.readouterr().err
    assert err.startswith("peakedqc: radius") and err.count("\n") == 1


def test_out_of_range_arguments_exit_with_one_line(tmp_path, capsys, monkeypatch):
    pub_path, priv_path = gen_conditioned(tmp_path, n=2, seed=98)
    searched, search = [], synth.multistart_search  # the wire counts synthesis ran on

    def spy(target, **kw):
        searched.append(target.n)
        return search(target, **kw)

    monkeypatch.setattr(synth, "multistart_search", spy)
    prefix = tmp_path / "none"
    shots = tmp_path / "shots.txt"
    shots.write_text("00\n01\n00\n")
    cases = [
        (2, ["sample", "--challenge", pub_path, "--shots", 0, "--out", tmp_path / "s.txt"]),
        (2, ["gen", "--method", "postselect", "--conditioned", "--n", 3, "--delta", 1.5,
             "--seed", 1, "--out-prefix", prefix]),
        (2, ["gen", "--method", "variational", "--n", 3, "--seeds", 0, "--seed", 1, "--out-prefix", prefix]),
        (2, ["bounds", "acceptance", "--delta", 2]),
        (2, ["perturb", "--base", pub_path, "--target", priv_path, "--theta", "x"]),
        (1, ["gen", "--method", "postselect", "--n", 3, "--delta", 0.9999, "--max-trials", 2,
             "--seed", 1, "--out-prefix", prefix]),
        (2, ["bounds", "tail"]),
        (2, ["bounds", "packing"]),
        (2, ["bounds", "compression"]),
        (2, ["stats", "--n", 3, "--instances", 0, "--iters", 5]),
        (2, ["stats", "--n", 3, "--instances", -1, "--iters", 5]),
        (2, ["stats", "--n", 13, "--instances", 1, "--iters", 1, "--seeds", 1]),
        (2, ["gen", "--method", "postselect", "--conditioned", "--n", 0, "--seed", 1, "--out-prefix", prefix]),
        (2, ["bounds", "covering", "--n", 0]),
    ]
    named = [  # (the argument at fault as the message names it, argv)
        ("d=0", ["bounds", "acceptance", "--d", 0]),
        ("n=0", ["bounds", "lb", "--n", 0]),
        ("n=0", ["gen", "--method", "postselect", "--n", 0, "--seed", 1, "--out-prefix", prefix]),
        ("n=0", ["gen", "--method", "variational", "--n", 0, "--seed", 1, "--out-prefix", prefix]),
        ("n=0", ["stats", "--n", 0, "--instances", 1, "--iters", 1]),
        *[("tolerance", ["verify", "--private", priv_path, "--shots", shots, "--tolerance", tol])
          for tol in ("-1", "nan", "inf")],
        *[("delta", ["gen", "--method", "postselect", "--n", 2, "--delta", delta, "--seed", 1,
                     "--out-prefix", prefix]) for delta in ("1.5", "-0.1", "nan")],
        ("delta", ["gen", "--method", "variational", "--n", 3, "--delta", 1.5, "--seed", 1,
                   "--out-prefix", prefix]),
        ("depth", ["gen", "--method", "variational", "--n", 3, "--depth", 0, "--seed", 1,
                   "--out-prefix", prefix]),
        ("depth", ["stats", "--n", 3, "--depth", 0, "--instances", 1, "--iters", 1]),
        ("'10'", ["gen", "--method", "postselect", "--n", 3, "--x-star", "10", "--seed", 1, "--out-prefix", prefix]),
    ]
    capsys.readouterr()
    for code, argv, *names in cases + [(2, argv, name) for name, argv in named]:
        assert run_cli(*argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith("peakedqc: ") and err.count("\n") == 1, argv
        assert all(name in err for name in names), (argv, err)
    assert not (tmp_path / "s.txt").exists()
    assert not list(tmp_path.glob("none*"))
    assert 13 not in searched  # stats past N_MAX_DENSE stops before it synthesises


@pytest.mark.parametrize("n, depth, delta, stops", [(8, 8, 0.9, (109, 110)), (10, 10, 0.6, (71, 69))])
def test_variational_histories_keep_their_stopping_steps(tmp_path, n, depth, delta, stops):
    # the two variational settings of the benchmark's generate workload: each
    # start logs one row per step from 0 until it reaches delta, on its own
    history = tmp_path / "h.csv"
    assert run_cli("gen", "--method", "variational", "--n", n, "--depth", depth, "--delta", delta,
                   "--seeds", 2, "--iters", 2000, "--seed", 1, "--out-prefix", tmp_path / "v",
                   "--history-out", history) == 0
    lines = history.read_text().splitlines()
    assert lines[0] == "seed,iter,p0" and len(lines) == 1 + sum(stop + 1 for stop in stops)
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(s), int(it)) for s, it, _ in rows] == [(s, it) for s, stop in enumerate(stops)
                                                        for it in range(stop + 1)]
    for s, stop in enumerate(stops):
        p0 = [float(p) for seed, _, p in rows if int(seed) == s]
        assert max(p0[:-1]) < delta <= p0[-1]


def test_conditioned_gen_past_dense_cap_exits_before_allocating(tmp_path):
    # under a 2 GiB address-space limit on the child only, a missing cap ends
    # in MemoryError (the n = 13 Ginibre draw alone is 1 GiB), not in exit 2;
    # one BLAS thread keeps the per-thread buffers of numpy's import small
    def limit_memory():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    argv = ["gen", "--method", "postselect", "--conditioned", "--n", "13", "--seed", "1", "--out-prefix", "big"]
    code = f"import sys; from peakedqc.cli import main; sys.exit(main({argv!r}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
                         preexec_fn=limit_memory, timeout=120,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("peakedqc: ") and out.stderr.count("\n") == 1
    assert "N_MAX_DENSE" in out.stderr
    assert not list(tmp_path.glob("big*"))


def test_private_file_does_not_depend_on_output_paths(tmp_path, monkeypatch):
    def gen(where, name, *argv):
        (tmp_path / where).mkdir(exist_ok=True)
        monkeypatch.chdir(tmp_path / where)
        assert run_cli("gen", *argv, "--seed", 99, "--out-prefix", name) == 0
        return [open(f"{name}.{side}.json", "rb").read() for side in ("public", "private")]

    conditioned = ["--method", "postselect", "--conditioned", "--n", 3, "--delta", 0.9]
    assert gen("a", "x", *conditioned) == gen("b", "y", *conditioned)
    variational = ["--method", "variational", "--n", 3, "--delta", 0.5, "--seeds", 1, "--iters", 50]
    assert (gen("a", "v", *variational, "--history-out", "h1.csv")
            == gen(tmp_path / "c", tmp_path / "c" / "w", *variational, "--history-out", tmp_path / "h2.csv"))
    assert (tmp_path / "a" / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()


def test_public_circuit_matrices_are_re_im_pairs(tmp_path):
    # the pair form that perfbench/reference.py parses with np.asarray(..., float)
    pub_path, _ = gen_conditioned(tmp_path, n=4, delta=0.9, seed=11)
    gates = read_json(pub_path)["circuit"]["gates"]
    inst = conditioned_generate(4, 0.9, seed=11)
    assert len(gates) == len(inst.circuit.gates)
    for gate, built in zip(gates, inst.circuit.gates):
        d = 1 << len(gate["wires"])
        pairs = np.asarray(gate["matrix"], float)
        assert pairs.shape == (d * d, 2)
        rebuilt = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d, d)
        assert np.array_equal(rebuilt, built.matrix)


def legacy_private(priv_path, out_dir):
    """The private file as it was written while it still held the circuit, under the same name."""
    priv = read_json(priv_path)
    circuit = read_json(priv_path.replace(".private.json", ".public.json"))["circuit"]
    del priv["public_sha256"]
    out = out_dir / os.path.basename(priv_path)
    out.write_text(json.dumps({"circuit": circuit, **priv}))
    return str(out)


def test_stitch_perturb_and_sample_read_new_and_legacy_private_files_alike(tmp_path):
    new = [gen_conditioned(tmp_path, name=f"l{j}", n=4, delta=0.9, seed=101 + j)[1] for j in range(2)]
    (tmp_path / "legacy").mkdir()
    legacy = [legacy_private(p, tmp_path / "legacy") for p in new]

    def outputs(tag, a, b):
        out = tmp_path / tag
        out.mkdir()
        assert run_cli("stitch", "--blocks", a, b, "--rewrite", "--seed", 5, "--out", out / "st.json") == 0
        assert run_cli("perturb", "--base", a, "--target", b, "--theta", "0.0,0.1", "--K", 3,
                       "--out", out / "p.csv") == 0
        assert run_cli("sample", "--challenge", a, "--shots", 200, "--seed", 6, "--json",
                       "--noise", "tsparse:1:worst-case-toward-target", "--out", out / "s.json") == 0
        return [(out / name).read_bytes() for name in ("st.json", "p.csv", "s.json")]

    assert outputs("from_new", *new) == outputs("from_legacy", *legacy)


def _public_of_another_instance(tmp_path, priv_path):
    other_pub, _ = gen_conditioned(tmp_path, name="other", n=4, seed=111)
    os.replace(other_pub, priv_path.replace(".private.json", ".public.json"))


def _no_public_file(tmp_path, priv_path):
    os.remove(priv_path.replace(".private.json", ".public.json"))


@pytest.mark.parametrize("break_pair", [_public_of_another_instance, _no_public_file])
def test_private_file_without_its_public_file_exits_2(tmp_path, capsys, break_pair):
    _, priv_path = gen_conditioned(tmp_path, n=4, seed=110)
    _, good = gen_conditioned(tmp_path, name="good", n=4, seed=112)
    break_pair(tmp_path, priv_path)
    capsys.readouterr()
    for argv in (["sample", "--challenge", priv_path, "--out", tmp_path / "s.txt"],
                 ["perturb", "--base", good, "--target", priv_path],
                 ["stitch", "--blocks", good, priv_path, "--out", tmp_path / "st.json"],
                 ["gen", "--method", "stitched", "--blocks", priv_path, good, "--seed", 1,
                  "--out-prefix", tmp_path / "g"]):
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("peakedqc: ") and err.count("\n") == 1, argv
        assert "chal.public.json" in err, argv
    assert not list(tmp_path.glob("s.txt")) + list(tmp_path.glob("st.json")) + list(tmp_path.glob("g.*"))
