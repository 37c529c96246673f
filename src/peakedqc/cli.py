"""Command-line workflow: generate, publish, sample, verify, plus calculators.

The challenge format splits an instance into a public file (the bare
circuit plus a hash commitment to the peak string) and a private file (the
peak string, its weight, generation metadata, the commitment salt and the
SHA-256 of the public file's bytes).  The commitment lets a challenger
audit after the fact that the verifier never moved the goalposts; the
public file's hash binds the private file to its circuit without a second
copy of it.  File writes are atomic (temp file + rename) and every private
file embeds the run configuration, output paths aside.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import sys

from . import bounds as bounds_mod
from . import noise as noise_mod
from . import perturb as perturb_mod
from . import stitch as stitch_mod
from . import synth as synth_mod
from .ensembles import (
    OverlapStats,
    PeakedInstance,
    PostselectExhausted,
    conditioned_generate,
    hs_overlap,
    instance_from_json,
    instance_to_json,
    postselect_generate,
    random_brickwall,
)
from .sim import (
    N_MAX_DENSE,
    SampleSet,
    StructureError,
    _json_int,
    amplitude,
    as_rng,
    circuit_from_json,
    sample as sim_sample,
)


def write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path: str, obj) -> str:
    """Write ``obj`` to ``path`` as JSON without separator spaces and return the text written."""
    text = json.dumps(obj, separators=(",", ":"))
    write_atomic(path, text)
    return text


def require_keys(obj, path: str, keys) -> dict:
    """``obj`` itself; one that is not a JSON object or lacks a key is a ``StructureError``."""
    missing = [k for k in keys if k not in obj] if isinstance(obj, dict) else list(keys)
    if missing:
        raise StructureError(f"{path} has no {', '.join(missing)}")
    return obj


def parse_json(text: str | bytes, path: str, keys: tuple[str, ...] = ()) -> dict:
    """The JSON object in ``text``; one that is not JSON or lacks a key is a ``StructureError``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"{path} is not JSON: {exc}") from None
    return require_keys(obj, path, keys)


def read_json(path: str, *keys: str) -> dict:
    with open(path) as fh:
        return parse_json(fh.read(), path, keys)


def read_instance(path: str, *keys: str) -> dict:
    """The JSON object in ``path``, with the circuit of its public file if it holds none.

    A file that holds ``circuit`` (a public file, a ``stitch`` output, a
    private file written before private files dropped it) is read as it is.
    A private file ``X.private.json`` that records ``public_sha256`` instead
    takes its circuit from ``X.public.json`` beside it, whose bytes must hash
    to that value; its own fields win where the two files share a key.
    """
    obj = read_json(path)
    if isinstance(obj, dict) and "circuit" not in obj and "public_sha256" in obj:
        if not path.endswith(".private.json"):
            raise StructureError(f"{path} holds no circuit and is not named X.private.json beside its public file")
        public_path = path[: -len("private.json")] + "public.json"
        try:
            with open(public_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise StructureError(f"{path} holds no circuit and there is no {public_path} beside it") from None
        if hashlib.sha256(data).hexdigest() != obj["public_sha256"]:
            raise StructureError(f"{public_path} is not the public file of {path}: its SHA-256 is not public_sha256")
        obj = {**parse_json(data, public_path, ("circuit",)), **obj}
    return require_keys(obj, path, keys)


def commitment_digest(peak_string: str, salt: bytes) -> str:
    return hashlib.sha256(peak_string.encode() + salt).hexdigest()


def challenge_files(inst: PeakedInstance, rng, config: dict, plan: dict | None = None) -> tuple[dict, dict]:
    """The public file (circuit + commitment) and the private one (witness + salt).

    The private file holds no circuit: the caller writes the public file
    first and records the SHA-256 of its bytes as ``public_sha256``.
    """
    salt = rng.bytes(16)
    n = inst.circuit.n
    private = instance_to_json(inst)
    circuit = private.pop("circuit")
    private.update(n=n, salt=salt.hex(), commitment=commitment_digest(inst.peak_string, salt),
                   plan=plan, config=config)
    # the public side must carry no generation parameters: the seed alone
    # would let a challenger regenerate the instance and read off the peak
    public = {
        "n": n,
        "circuit": circuit,
        "commitment": private["commitment"],
        "config": {"command": config.get("command"), "n": n},
    }
    return public, private


# ---------------------------------------------------------------------------
# noise spec parsing: bsc:0.05 | tsparse:2[:policy] | depol:0.3


def parse_noise(spec: str | None, target: str | None = None):
    """The channel named by ``spec``; a malformed spec raises ``StructureError``."""
    if spec is None:
        return None
    kind, *args = spec.split(":")
    policy = args[1] if kind == "tsparse" and len(args) == 2 else "random-subset"
    if policy == "worst-case-toward-target" and target is None:
        raise StructureError(f"noise policy {policy} needs the private challenge file")
    try:
        if kind == "bsc" and len(args) == 1:
            return noise_mod.BSC(float(args[0]))
        if kind == "depol" and len(args) == 1:
            return noise_mod.GlobalDepolarizing(float(args[0]))
        if kind == "tsparse" and len(args) in (1, 2):
            return noise_mod.TSparse(int(args[0]), policy=policy, target=target)
    except ValueError as exc:
        raise StructureError(f"noise spec {spec!r}: {exc}") from None
    raise StructureError(f"noise spec {spec!r} is not one of bsc:R, tsparse:T[:policy], depol:E")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    if args.seed is None:
        # a guessable default seed would let anyone regenerate the peak
        args.seed = secrets.randbits(63)
    rng = as_rng(args.seed)
    # output paths stay out of the files, so an instance's bytes do not depend on where it was written
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out_prefix", "history_out")}
    plan_obj, rc = None, 0

    if args.method == "postselect":
        if args.conditioned:
            inst = conditioned_generate(args.n, args.delta, x_star=args.x_star, seed=args.seed)
            trials = 1
        else:
            inst, trials = postselect_generate(
                args.n, args.delta, x_star=args.x_star,
                max_trials=args.max_trials, seed=args.seed, depth=args.depth,
            )
        print(f"postselect: accepted after {trials} trials, peakedness {inst.peakedness:.6f}")
    elif args.method == "variational":
        depth = args.depth or args.n
        target = random_brickwall(args.n, depth, rng)
        inst, report = synth_mod.multistart_search(
            target, x_star=args.x_star, delta_target=args.delta,
            n_seeds=args.seeds, iters=args.iters, seed=args.seed,
        )
        print(
            f"variational: best p0 {report.best_peakedness:.6f} "
            f"(target {args.delta}) in {report.wall_time:.1f}s"
        )
        if args.history_out:
            lines = ["seed,iter,p0"]
            for trace in report.per_seed_traces:
                lines += [f"{trace.seed_index},{it},{p0}" for it, p0 in trace.history]
            write_atomic(args.history_out, "\n".join(lines) + "\n")
        if report.below_target:
            print("below-target: synthesis did not reach the requested peakedness", file=sys.stderr)
            rc = 1
    else:
        blocks, inst, plan_obj = _stitch_blocks(args.blocks, args.path)
        # witnesses only: the block gates are in the public circuit between plan["boundaries"]
        plan_obj["blocks"] = [{"peak_string": b.peak_string, "peakedness": b.peakedness,
                               "method": b.method, "seed": b.seed} for b in blocks]

    public, private = challenge_files(inst, rng, config, plan_obj)
    public_text = write_json(f"{args.out_prefix}.public.json", public)
    private["public_sha256"] = hashlib.sha256(public_text.encode()).hexdigest()
    write_json(f"{args.out_prefix}.private.json", private)
    print(f"wrote {args.out_prefix}.public.json and {args.out_prefix}.private.json")
    return rc


def _stitch_blocks(paths: list[str], path_spec: str | None):
    """The blocks read from ``paths``, their stitched instance and its plan dict."""
    blocks = [instance_from_json(read_instance(p, "circuit", "peak_string", "peakedness", "method"))
              for p in paths]
    plan = stitch_mod.make_plan(blocks, path_spec.split(",") if path_spec else None)
    _, inst, boundaries = stitch_mod.stitch(plan)
    print(
        f"stitched {len(blocks)} blocks, peakedness {inst.peakedness:.6f}"
        f"{' (predicted)' if inst.peakedness_is_predicted else ''}"
    )
    return blocks, inst, {"path": plan.path, "leakages": plan.leakages, "boundaries": boundaries}


def cmd_sample(args) -> int:
    obj = read_instance(args.challenge, "circuit")
    circuit = circuit_from_json(obj["circuit"])
    n = circuit.n
    target = obj.get("peak_string")
    model = parse_noise(args.noise, target)
    samples = sim_sample(
        circuit, "0" * n, args.shots, seed=args.seed,
        meta={"instance_id": os.path.basename(args.challenge)},
    )
    if model is not None:
        samples = noise_mod.apply_noise(samples, model, seed=args.seed)
    if args.json:
        write_json(args.out, {"n": n, "shots": samples.shots, "meta": samples.meta})
    else:
        write_atomic(args.out, "\n".join(samples.shots) + "\n")
    print(f"wrote {args.shots} shots to {args.out}")
    return 0


def load_shots(path: str) -> SampleSet:
    with open(path) as fh:
        text = fh.read().strip()
    if text.startswith("{"):
        obj = parse_json(text, path, ("n", "shots"))
        n, shots, meta = _json_int(obj["n"], f"{path} n"), obj["shots"], obj.get("meta", {})
        if not isinstance(shots, list):
            raise StructureError(f"{path}: shots must be a list")
    else:
        shots, meta = text.split(), {}
        n = len(shots[0]) if shots else 0
    if not shots:
        raise StructureError(f"{path} holds no shots")
    return SampleSet(n, shots, meta)


def cmd_verify(args) -> int:
    if args.depol is not None:
        if args.noise is not None:
            raise StructureError("--depol E is --noise depol:E; give the channel once")
        args.noise = f"depol:{args.depol}"
    private = read_json(args.private, "n", "peak_string", "peakedness", "salt", "commitment")
    n, claimed = _json_int(private["n"], f"{args.private} n"), private["peakedness"]
    if isinstance(claimed, bool) or not isinstance(claimed, (int, float)) or not 0 <= claimed <= 1:
        raise StructureError(f"{args.private}: peakedness must be a real number in [0, 1], got {claimed!r}")
    try:
        salt = bytes.fromhex(private["salt"])
    except (TypeError, ValueError):
        raise StructureError(f"{args.private}: salt must be a hex string") from None
    if not isinstance(private["peak_string"], str):
        raise StructureError(f"{args.private}: peak_string must be a bit string")
    samples = load_shots(args.shots)
    if samples.n != n:
        raise StructureError(f"{args.shots} holds {samples.n}-bit shots; the challenge has n = {n}")
    channel = parse_noise(args.noise, private["peak_string"])
    v = noise_mod.verdict(samples, private["peak_string"], claimed, channel,
                          args.decoder, args.t, args.tolerance)
    commitment_ok = commitment_digest(v.decoded, salt) == private["commitment"]

    verdict = {
        "accept": bool(commitment_ok and v.weight_ok),
        "decoded_string": v.decoded,
        "commitment_matches": bool(commitment_ok),
        "estimate": v.estimate,
        "claimed": claimed,
        "expected": v.expected,
        "tolerance": v.tolerance,
        "decoder": args.decoder,
        "hba_radius": v.radius,
        "estimate_report": vars(v.report),
    }
    text = json.dumps(verdict, indent=1)
    if args.out:
        write_atomic(args.out, text)
    print(text)
    if not commitment_ok:
        print("reject: decoded string does not match the commitment", file=sys.stderr)
    elif not v.weight_ok:
        print("reject: peak-weight estimate is off the claimed value", file=sys.stderr)
    return 0 if verdict["accept"] else 1


def cmd_stats(args) -> int:
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    if max(args.n) > N_MAX_DENSE:  # the overlap statistic takes both factors as dense unitaries
        raise StructureError(f"--n must be at most N_MAX_DENSE={N_MAX_DENSE}, got {max(args.n)}")
    rows = []
    for n in args.n:
        depth = args.depth or n
        trace_vals = []
        for i in range(args.instances):
            seed = (args.seed or 0) * 1_000_003 + 7919 * n + i
            target = random_brickwall(n, depth, seed)
            inst, report = synth_mod.multistart_search(
                target, delta_target=args.delta, n_seeds=args.seeds, iters=args.iters,
                seed=seed, history_stride=max(1, args.iters // 10),
            )
            tsq, hs = hs_overlap(*inst.factors)
            trace_vals.append(tsq)
            iters_used = max(tr.iterations for tr in report.per_seed_traces)
            rows.append(f"{n},{i},{tsq},{hs},{inst.peakedness},{iters_used}")
        stats = OverlapStats.from_trace_sq(n, trace_vals)
        rows.append(
            f"# summary n={n}: mean_trace_sq={stats.mean_trace_sq:.4f} "
            f"se={stats.std_err:.4f} mean_hs_norm_sq={stats.mean_hs_norm_sq:.3e}"
        )
        print(rows[-1])
    header = "n,instance_id,trace_sq,hs_norm_sq,peakedness,iterations"
    text = header + "\n" + "\n".join(rows) + "\n"
    if args.out:
        write_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_stitch(args) -> int:
    _, inst, plan_obj = _stitch_blocks(args.blocks, args.path)
    if args.rewrite:
        inst.circuit = stitch_mod.boundary_rewrite(inst.circuit, seed=args.seed,
                                                   boundaries=plan_obj["boundaries"]).circuit
    obj = instance_to_json(inst)
    obj["plan"] = plan_obj
    write_json(args.out, obj)
    print(f"wrote {args.out}")
    return 0


def cmd_perturb(args) -> int:
    base = circuit_from_json(read_instance(args.base, "circuit")["circuit"])
    target = circuit_from_json(read_instance(args.target, "circuit")["circuit"])
    path = perturb_mod.make_path(base, target)
    x_star = args.x_star or "0" * base.n
    thetas = [float(t) for t in args.theta.split(",")]
    lines = ["theta,p0,p0_truncated,tv_bound"]
    for theta in thetas:
        p0 = abs(amplitude(perturb_mod.materialize(path, theta), "0" * base.n, x_star)) ** 2
        p0_tr = ""
        if args.K is not None:
            p0_tr = abs(amplitude(perturb_mod.materialize(path, theta, args.K), "0" * base.n, x_star)) ** 2
        chk = perturb_mod.tv_peakedness_check(path, theta, x_star)
        lines.append(f"{theta},{p0},{p0_tr},{chk.bound}")
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_bounds(args) -> int:
    kind = args.kind
    if args.k is None and kind in ("tail", "packing", "compression"):
        raise ValueError(f"bounds {kind} requires --k")
    if kind == "acceptance":
        rep = bounds_mod.acceptance_haar(args.d, args.delta).as_dict()
    elif kind == "tail":
        rep = bounds_mod.acceptance_kdesign_bound(args.d, args.delta, args.k).as_dict()
    elif kind == "covering":
        rep = bounds_mod.covering_log(args.n, args.s, args.eps).as_dict()
    elif kind == "packing":
        rep = bounds_mod.packing_log(args.d, args.k, args.delta).as_dict()
    elif kind == "compression":
        rep = bounds_mod.compression_probability_bound(args.n, args.k, args.s, args.eps, args.delta).as_dict()
    elif kind == "lb":
        gb = bounds_mod.gate_count_lower_bound(args.n, args.k)
        rep = gb.report.as_dict()
        rep["s_star"] = gb.s_star
        rep["regime"] = gb.regime
    else:  # fidelity
        fb = bounds_mod.peak_to_fidelity(args.delta, args.eps)
        rep = fb.report.as_dict()
        rep["f_min"] = fb.f_min
        rep["one_minus_f_relaxation"] = fb.relaxation
    text = json.dumps(rep, indent=1)
    if args.out:
        write_atomic(args.out, text)
    print(text)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="peakedqc",
        description="generate, sample and verify random peaked circuit challenges",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a challenge (public/private pair)")
    g.add_argument("--method", choices=["postselect", "variational", "stitched"], required=True)
    g.add_argument("--n", type=int, default=4)
    g.add_argument("--depth", type=int, default=None)
    g.add_argument("--delta", type=float, default=0.5)
    g.add_argument("--x-star", dest="x_star", default=None)
    g.add_argument("--seeds", type=int, default=3, help="multi-start count (variational)")
    g.add_argument("--iters", type=int, default=1000)
    g.add_argument("--max-trials", dest="max_trials", type=int, default=100000)
    g.add_argument("--conditioned", action="store_true",
                   help="draw the accepted postselection law directly (no rejection)")
    g.add_argument("--blocks", nargs="*", default=[], help="private instance files (stitched)")
    g.add_argument("--path", default=None, help="comma-separated peak path (stitched)")
    g.add_argument("--history-out", dest="history_out", default=None)
    g.add_argument("--seed", type=int, default=None, help="default: OS entropy (kept private)")
    g.add_argument("--out-prefix", dest="out_prefix", default="challenge")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("sample", help="run the reference prover on a challenge")
    s.add_argument("--challenge", required=True, help="public or private challenge file")
    s.add_argument("--shots", type=int, default=1000)
    s.add_argument("--noise", default=None, help="bsc:R | tsparse:T[:policy] | depol:E")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="shots.txt")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_sample)

    v = sub.add_parser("verify", help="decode submitted shots against a private challenge")
    v.add_argument("--private", required=True)
    v.add_argument("--shots", required=True)
    v.add_argument("--decoder", choices=["majority", "center", "hba"], default="hba")
    v.add_argument("--t", type=int, default=None, help="Hamming-ball radius")
    v.add_argument("--noise", default=None, help="assumed channel: bsc:R | tsparse:T[:policy] | depol:E")
    v.add_argument("--depol", default=None, metavar="E", help="the same as --noise depol:E")
    v.add_argument("--tolerance", type=float, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    st = sub.add_parser("stats", help="batch-synthesize and collect overlap statistics")
    st.add_argument("--n", type=int, nargs="+", default=[6])
    st.add_argument("--depth", type=int, default=None, help="default: depth = n")
    st.add_argument("--instances", type=int, default=10)
    st.add_argument("--delta", type=float, default=0.95)
    st.add_argument("--seeds", type=int, default=2)
    st.add_argument("--iters", type=int, default=2000)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out", default=None)
    st.set_defaults(func=cmd_stats)

    sc = sub.add_parser("stitch", help="compose peaked blocks along a tracked path")
    sc.add_argument("--blocks", nargs="+", required=True)
    sc.add_argument("--path", default=None)
    sc.add_argument("--rewrite", action="store_true", help="blur the seams afterwards")
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--out", default="stitched.json")
    sc.set_defaults(func=cmd_stitch)

    p = sub.add_parser("perturb", help="interpolate toward a target circuit, tabulate p0(theta)")
    p.add_argument("--base", required=True, help="instance/challenge file with a circuit")
    p.add_argument("--target", required=True)
    p.add_argument("--theta", default="0.0,0.001,0.01,0.1,1.0")
    p.add_argument("--K", type=int, default=None, help="also tabulate the order-K truncation")
    p.add_argument("--x-star", dest="x_star", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_perturb)

    b = sub.add_parser("bounds", help="closed-form calculators (log-space)")
    b.add_argument("kind", choices=["acceptance", "tail", "covering", "packing", "compression", "lb", "fidelity"])
    b.add_argument("--d", type=int, default=16)
    b.add_argument("--n", type=int, default=4)
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--s", type=int, default=10)
    b.add_argument("--delta", type=float, default=0.5)
    b.add_argument("--eps", type=float, default=0.1)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bounds)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # malformed files or out-of-range arguments: one line, exit code 2
        print(f"peakedqc: {exc}", file=sys.stderr)
        return 2
    except PostselectExhausted as exc:  # no instance, no files
        print(f"peakedqc: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
