"""Benchmark of the peakedqc pipeline: generation, the CLI challenge round trip, wide sampling.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

Run it from the root of a checkout: peakedqc is imported from ``src`` with no
install.  A single-workload run prints human-readable lines, then as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  ``--workload all`` runs every workload untraced and
traced in child processes and prints one table.  README.md in this directory
describes the workloads, metrics and checks.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
CLI_START_REPEATS = 5
NAMES = ("generate", "challenge", "wide-sample")


def cap_blas_threads() -> int:
    """Limit BLAS threads to the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > nproc:
            os.environ[var] = str(nproc)
    return nproc


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def timed_subprocess(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=child_env(), check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def median_setup_s(workload: str, seed: int, size: str) -> float:
    """Median set-up time (imports and input files) of fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        workdir = tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=WORK)
        try:
            out = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--size", size, "--setup-only", workdir],
                env=child_env(), check=True, capture_output=True, text=True, timeout=120)
            times.append(float(out.stdout.split()[-1]))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(times)


def cli_start_times() -> list[float]:
    argv = [sys.executable, "-m", "peakedqc.cli", "--help"]
    return [timed_subprocess(argv) for _ in range(CLI_START_REPEATS)]


def import_times() -> tuple[float, float]:
    import spans

    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import peakedqc.cli"],
                         env=child_env(), check=True, capture_output=True, text=True, timeout=120)
    return spans.parse_importtime(out.stderr)


def layer_metrics(tracer, run, round_times, import_s) -> dict:
    """Per-layer figures from the spans of a traced run; counts are per round."""
    totals = tracer.self_times()
    counters = tracer.counters
    rounds = len(round_times)
    timed = sum(round_times)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def inclusive_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    import spans

    m = {"trace.round_s": (statistics.median(round_times), "s"),
         "cli.import_s": (import_s[0], "s"),
         "cli.import_scipy_s": (import_s[1], "s")}
    for mod, attr, _ in spans.TRACED + [("sim", "Gate", None)]:
        name = f"{mod}.{attr}"
        m[f"{name}.pct"] = (100.0 * self_s(name) / timed, "%")
    for name in ("cli.main", "sim.Gate", "ensembles.haar_unitary",
                 "ensembles.postselect_generate", "synth.adam_step"):
        m[f"{name}.calls"] = (calls(name) / rounds, "count")
    m["cli.write_json.bytes"] = (counters["cli.write_json.bytes"] / rounds, "bytes")
    m["cli.read_json.bytes"] = (counters["cli.read_json.bytes"] / rounds, "bytes")
    gates = counters["sim.apply_circuit.gates"]
    apply_s = self_s("sim.apply_circuit")
    m["sim.apply_circuit.gates"] = (gates / rounds, "count")
    m["sim.gate_us"] = (1e6 * ratio(apply_s, gates), "us/gate")
    m["sim.gate_gbps"] = (ratio(counters["sim.apply_circuit.bytes"], apply_s) / 1e9, "GB/s")
    m["ensembles.trials_per_s"] = (ratio(calls("ensembles.postselect_generate"),
                                         inclusive_s("ensembles.postselect_generate")), "1/s")
    m["ensembles.accept_ratio"] = (ratio(counters["ensembles.postselect_generate.accepted"],
                                         calls("ensembles.postselect_generate")), "ratio")
    m["synth.steps_per_s"] = (ratio(calls("synth.adam_step"),
                                    inclusive_s("synth.multistart_search")), "1/s")
    m["synth.iterations_to_target"] = (ratio(counters["synth.multistart_search.iterations"],
                                             counters["synth.multistart_search.starts"]), "count")
    m["noise.center_core_size"] = (ratio(counters["noise.hamming_center_decode.core_size"],
                                         calls("noise.hamming_center_decode")), "count")
    m["noise.distinct_shots"] = (ratio(sum(run.distinct_shots), len(run.distinct_shots)), "count")
    return m


def run_workload(args, nproc: int) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    size = (workloads.TOY if args.size == "toy" else workloads.FULL)[args.workload]
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)

    if args.setup_only:
        import peakedqc.cli  # noqa: F401  (imports are part of set-up)

        workload.setup(workloads.Run(args.seed, args.setup_only, size))
        print(f"{time.perf_counter() - START!r}")
        return 0

    setup_s = cli_start_s = import_s = None
    cli_starts = []
    if args.trace:
        import_s = import_times()
    else:
        setup_s = median_setup_s(args.workload, args.seed, args.size)
        cli_starts = cli_start_times()
        cli_start_s = statistics.median(cli_starts)

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        import peakedqc.cli  # noqa: F401

        run = workloads.Run(args.seed, workdir, size)
        workload.setup(run)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer(f"{args.workload}-seed{args.seed}")
            tracer.install()
        round_times = []
        while not round_times or sum(round_times) < args.seconds:
            start, checked = time.perf_counter(), run.check_s
            workload.round(run, len(round_times))
            round_times.append(time.perf_counter() - start - (run.check_s - checked))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        workload.check(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stages = workload.stage_metrics(run)
    if args.trace:
        metrics = layer_metrics(tracer, run, round_times, import_s)
        tracer.dump(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.jsonl"))
    else:
        metrics = {
            "round_s": (statistics.median(round_times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cli_start_s": (cli_start_s, "s"),
            "bytes_written": (statistics.median(run.round_bytes), "bytes"),
        }
    correct = not run.errors
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(nproc),
        "rounds": len(round_times), "round_s": round_times,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures, "errors": run.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "stages": {k: {"value": v, "unit": u} for k, (v, u) in stages.items()},
        "op_times": run.op_times, "cli_start_times": cli_starts,
    }
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed {args.seed}: {len(round_times)} rounds, "
          f"{run.attempted} operations attempted, {run.failed} failed")
    print(f"# environment {json.dumps(record['environment'])}")
    for label, message in run.failures.items():
        print(f"# failed operation: {label}: {message}")
    for error in run.errors:
        print(f"# CHECK FAILED: {error}", file=sys.stderr)
    for name, (value, unit) in {**stages, **metrics}.items():
        print(f"{name:32s} {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process, and one table."""
    ok = True
    for name in NAMES:
        records = {}
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size]
            done = subprocess.run(argv, stdout=subprocess.DEVNULL, timeout=900)
            ok &= done.returncode == 0
            path = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{trace}.json")
            with open(path) as fh:
                records[trace] = json.load(fh)
        plain, traced = records[0], records[1]
        ok &= plain["correct"] and traced["correct"]
        print(f"== {name}: {plain['attempted']} operations attempted, {plain['failed']} failed, "
              f"correct={plain['correct'] and traced['correct']}")
        for key, entry in {**plain["stages"], **plain["metrics"]}.items():
            print(f"   {key:34s} {entry['value']:.6g} {entry['unit']}")
        overhead = traced["metrics"]["trace.round_s"]["value"] - plain["metrics"]["round_s"]["value"]
        print(f"   {'tracing overhead (round_s)':34s} {overhead:+.4f} s")
        for key, entry in traced["metrics"].items():
            print(f"   {key:34s} {entry['value']:.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1, help="workload seed (second seed: 2)")
    ap.add_argument("--seconds", type=float, default=18.0, help="timed rounds run at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: seconds-long sizes for checking the benchmark itself")
    ap.add_argument("--setup-only", metavar="DIR", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "peakedqc", "__init__.py")):
        print(f"run.py: no peakedqc sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
