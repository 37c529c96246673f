"""The three workloads: set-up, one timed round, and the checks on its outputs.

A run repeats whole rounds, so every run attempts the same operations in the
same proportions.  Each round derives its inputs from ``(seed, round)``; the
variational phase of ``generate`` uses pinned seeds instead, so that every
round does the same optimisation work.  Checks run after the timed rounds,
except the dense check of a conditioned instance, which runs right after it
(untimed) so that its three 2^n x 2^n matrices are not held across rounds.

CLI stages run in-process through ``peakedqc.cli.main``, and library stages
through the module attributes, so that the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import reference as ref


class Run:
    """Operations attempted and failed, stage timings and check results of one run."""

    def __init__(self, seed: int, workdir: str, size):
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}  # label -> first failure message
        self.errors: list[str] = []
        self.stages: dict[str, list[float]] = defaultdict(list)
        self.outputs: list[dict] = []
        self.round_bytes: list[int] = []
        self.distinct_shots: list[int] = []
        self.check_s = 0.0  # time spent in checks, kept out of the round times
        self.op_times: dict[str, list[float]] = defaultdict(list)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def op(self, label: str, fn, *args, **kwargs):
        """Time one operation; return ``(ok, result, seconds)``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except (Exception, SystemExit) as exc:  # a crashing stage is a failed operation
            self.failed += 1
            self.failures.setdefault(label, f"{type(exc).__name__}: {exc}")
            result, ok = None, False
        else:
            ok = True
        secs = time.perf_counter() - start
        self.op_times[label].append(secs)
        return ok, result, secs

    def check(self, fn, *args) -> None:
        start = time.perf_counter()
        try:
            fn(*args)
        except ref.CheckFailed as exc:
            self.errors.append(str(exc))
        self.check_s += time.perf_counter() - start


def cli(*argv) -> int:
    """``peakedqc.cli.main`` in-process, with its printing discarded."""
    from peakedqc import cli as cli_mod

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        return cli_mod.main([str(a) for a in argv])


def cli_ok(*argv) -> None:
    rc = cli(*argv)
    if rc != 0:
        raise RuntimeError(f"exit code {rc}")


def sizes_of(*paths: str) -> int:
    return sum(os.path.getsize(p) for p in paths)


def load(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# generate: rejection trials, conditioned sampling, variational synthesis


@dataclass(frozen=True)
class GenerateSize:
    trials: int = 800  # single-trial postselect_generate calls per round
    trial_n: int = 3
    trial_delta: float = 0.1  # acceptance (1-delta)^7 = 0.48 at n = 3
    trial_depth: int = 16
    cond_n: int = 10
    cond_delta: float = 0.999
    # (n, depth, target, pinned seed): targets this ansatz reaches in ~150-250 evaluations
    variational: tuple = ((8, 8, 0.9, 1), (10, 10, 0.6, 1))
    starts: int = 2
    iters: int = 2000


class Generate:
    name = "generate"

    def setup(self, run: Run) -> None:
        pass

    def round(self, run: Run, r: int) -> None:
        from peakedqc import ensembles

        size = run.size
        rng = run.rng(r, 0)
        x_star = ref.random_bits(rng, size.trial_n)
        accepted = 0
        start = time.perf_counter()
        for k in range(size.trials):
            ok, result, _ = run.op("postselect", self._trial, ensembles, size, x_star, [run.seed, r, k])
            if ok and result is not None:
                accepted += 1
                inst = result[0]
                run.outputs.append({"kind": "postselect", "x_star": x_star,
                                    "peakedness": inst.peakedness,
                                    "gates": [(g.wires, g.matrix) for g in inst.circuit.gates]})
        run.stages["postselect_s"].append(time.perf_counter() - start)
        run.stages["postselect_trials"].append(size.trials)
        run.stages["postselect_accepted"].append(accepted)

        x_cond = ref.random_bits(rng, size.cond_n)
        ok, inst, secs = run.op("conditioned", ensembles.conditioned_generate, size.cond_n,
                                size.cond_delta, x_star=x_cond, seed=[run.seed, r, size.trials])
        run.stages["conditioned_s"].append(secs)
        if ok:
            run.check(ref.check_conditioned, inst.circuit.gates[0].matrix,
                      inst.factors[0].gates[0].matrix, inst.factors[1].gates[0].matrix,
                      x_cond, inst.peakedness, size.cond_delta)

        steps = 0
        start = time.perf_counter()
        written = 0
        for n, depth, delta, seed in size.variational:
            prefix, history = run.path(f"v{n}_r{r}"), run.path(f"v{n}_r{r}.csv")
            ok, _, _ = run.op(f"variational n={n}", cli_ok, "gen", "--method", "variational",
                              "--n", n, "--depth", depth, "--delta", delta, "--seeds", size.starts,
                              "--iters", size.iters, "--seed", seed, "--out-prefix", prefix,
                              "--history-out", history)
            if ok:
                with open(history) as fh:
                    rows = len(fh.read().splitlines()) - 1
                steps += rows - size.starts  # every start logs its initial point too
                written += sizes_of(f"{prefix}.public.json", f"{prefix}.private.json", history)
                run.outputs.append({"kind": "variational", "prefix": prefix, "delta": delta})
        run.stages["synth_s"].append(time.perf_counter() - start)
        run.stages["synth_steps"].append(steps)
        run.round_bytes.append(written)

    @staticmethod
    def _trial(ensembles, size, x_star, seed):
        try:
            return ensembles.postselect_generate(size.trial_n, size.trial_delta, x_star=x_star,
                                                 max_trials=1, seed=seed, depth=size.trial_depth)
        except ensembles.PostselectExhausted:
            return None  # a rejected trial is the expected outcome half the time

    def check(self, run: Run) -> None:
        size = run.size
        trials = sum(run.stages["postselect_trials"])
        accepted = sum(run.stages["postselect_accepted"])
        run.check(ref.check_acceptance_rate, accepted, trials, size.trial_n, size.trial_delta)
        for out in run.outputs:
            if out["kind"] == "postselect":
                run.check(ref.check_postselect_peak, size.trial_n, out["gates"], out["x_star"],
                          out["peakedness"], size.trial_delta)
            else:
                prefix = out["prefix"]
                run.check(ref.check_variational, load(f"{prefix}.public.json"),
                          load(f"{prefix}.private.json"), out["delta"])

    def stage_metrics(self, run: Run) -> dict:
        st = run.stages
        return {
            "postselect_trials_per_s": (sum(st["postselect_trials"]) / sum(st["postselect_s"]), "trials/s"),
            "conditioned_s": (statistics.median(st["conditioned_s"]), "s"),
            "synth_steps_per_s": (sum(st["synth_steps"]) / sum(st["synth_s"]), "steps/s"),
        }


# ---------------------------------------------------------------------------
# challenge: gen -> sample through three channels -> verify


@dataclass(frozen=True)
class ChallengeSize:
    n: int = 9
    delta: float = 0.999
    shots: int = 8000
    bsc: float = 0.05
    tsparse: int = 1
    depol: float = 0.01  # low: the --depol tolerance ignores the de-bias SE inflation


class Challenge:
    name = "challenge"

    def channels(self, size):
        return [("bsc", f"bsc:{size.bsc}", size.bsc),
                ("tsparse", f"tsparse:{size.tsparse}", size.tsparse),
                ("depol", f"depol:{size.depol}", size.depol)]

    def verifies(self, size):
        """(shot file, decoder, verifier flags, must accept)."""
        bsc = ["--noise", f"bsc:{size.bsc}"]
        return [("bsc", "majority", bsc, False), ("bsc", "hba", bsc, False),
                ("tsparse", "hba", ["--t", size.tsparse], True),
                ("depol", "hba", ["--depol", size.depol], True),
                ("bsc", "center", bsc, False)]

    def setup(self, run: Run) -> None:
        pass

    def round(self, run: Run, r: int) -> None:
        size = run.size
        rng = run.rng(r)
        x_star = ref.random_bits(rng, size.n)
        prefix = run.path(f"c{r}")
        ok, _, secs = run.op("gen", cli_ok, "gen", "--method", "postselect", "--conditioned",
                             "--n", size.n, "--delta", size.delta, "--x-star", x_star,
                             "--seed", int(rng.integers(2**31)), "--out-prefix", prefix)
        run.stages["gen_s"].append(secs)
        files = [f"{prefix}.public.json", f"{prefix}.private.json"]
        if ok:
            run.stages["challenge_bytes"].append(sizes_of(*files))
        for channel, spec, _ in self.channels(size):
            out = f"{prefix}_{channel}.txt"
            ok, _, secs = run.op(f"sample {spec}", cli_ok, "sample", "--challenge", files[0],
                                 "--shots", size.shots, "--noise", spec,
                                 "--seed", int(rng.integers(2**31)), "--out", out)
            run.stages["sample_s"].append(secs)
            files.append(out)
        for channel, decoder, flags, _ in self.verifies(size):
            out = f"{prefix}_{channel}_{decoder}.verdict.json"
            ok, _, secs = run.op(f"verify {channel} {decoder}", cli_ok, "verify",
                                 "--private", files[1], "--shots", f"{prefix}_{channel}.txt",
                                 "--decoder", decoder, *flags, "--out", out)
            run.stages[f"verify_{decoder}_s"].append(secs)
            files.append(out)
        run.round_bytes.append(sizes_of(*[f for f in files if os.path.exists(f)]))
        run.outputs.append({"prefix": prefix, "x_star": x_star})

    def check(self, run: Run) -> None:
        size = run.size
        for out in run.outputs:
            prefix, x_star = out["prefix"], out["x_star"]
            public, private = load(f"{prefix}.public.json"), load(f"{prefix}.private.json")
            run.check(ref.check_commitment, public, private, x_star)
            circuit = public["circuit"]
            p = np.abs(ref.statevector(size.n, ref.circuit_gates(circuit))) ** 2
            del public, private, circuit
            for channel, _, strength in self.channels(size):
                path = f"{prefix}_{channel}.txt"
                try:
                    shots = ref.read_shots(path, size.n, size.shots)
                except (ref.CheckFailed, OSError) as exc:
                    run.errors.append(str(exc))
                    continue
                run.distinct_shots.append(len(set(shots)))
                expected = ref.at_peak_probability(p, size.n, x_star, (channel, strength))
                run.check(ref.check_at_peak_fraction, shots, x_star, expected, path)
            for channel, decoder, _, must_accept in self.verifies(size):
                path = f"{prefix}_{channel}_{decoder}.verdict.json"
                if not os.path.exists(path):
                    run.errors.append(f"{path}: verify wrote no verdict")
                    continue
                verdict = load(path)
                run.check(ref.check_decoded, verdict, x_star, path)
                if must_accept:
                    run.check(ref.require, verdict["accept"], f"{path}: honest shots rejected")

    def stage_metrics(self, run: Run) -> dict:
        st = run.stages
        return {
            "gen_s": (statistics.median(st["gen_s"]), "s"),
            "sample_s": (statistics.median(st["sample_s"]), "s"),
            "verify_center_s": (statistics.median(st["verify_center_s"]), "s"),
            "verify_majority_s": (statistics.median(st["verify_majority_s"]), "s"),
            "verify_hba_s": (statistics.median(st["verify_hba_s"]), "s"),
            "challenge_bytes": (statistics.median(st["challenge_bytes"] or [0]), "bytes"),
        }


# ---------------------------------------------------------------------------
# wide-sample: the reference prover on public brickwall circuits


@dataclass(frozen=True)
class WideSize:
    sizes: tuple = (20, 21)  # 16 and 32 MB states, depth n: 190 and 210 two-qubit gates
    shots: int = 20000


class WideSample:
    name = "wide-sample"

    def circuit_path(self, run: Run, n: int) -> str:
        return run.path(f"w{n}.public.json")

    def setup(self, run: Run) -> None:
        from peakedqc import ensembles, sim

        for n in run.size.sizes:
            circuit = ensembles.random_brickwall(n, n, seed=[run.seed, n])
            with open(self.circuit_path(run, n), "w") as fh:
                json.dump({"n": n, "circuit": sim.circuit_to_json(circuit)}, fh)

    def round(self, run: Run, r: int) -> None:
        written = 0
        for n in run.size.sizes:
            out = run.path(f"w{n}_r{r}.txt")
            ok, _, secs = run.op(f"sample n={n}", cli_ok, "sample",
                                 "--challenge", self.circuit_path(run, n),
                                 "--shots", run.size.shots, "--seed", int(run.rng(r, n).integers(2**31)),
                                 "--out", out)
            run.stages[f"sample_n{n}_s"].append(secs)
            if ok:
                written += os.path.getsize(out)
                run.outputs.append({"n": n, "path": out})
        run.round_bytes.append(written)
        run.stages["sample_s"].append(sum(run.stages[f"sample_n{n}_s"][-1] for n in run.size.sizes))

    def check(self, run: Run) -> None:
        for n in run.size.sizes:
            circuit = load(self.circuit_path(run, n))["circuit"]
            p = np.abs(ref.statevector(n, ref.circuit_gates(circuit))) ** 2
            for out in run.outputs:
                if out["n"] != n:
                    continue
                try:
                    shots = ref.read_shots(out["path"], n, run.size.shots)
                except (ref.CheckFailed, OSError) as exc:
                    run.errors.append(str(exc))
                    continue
                run.distinct_shots.append(len(set(shots)))
                run.check(ref.check_xeb, p, n, shots, out["path"])

    def stage_metrics(self, run: Run) -> dict:
        metrics = {"sample_s": (statistics.median(run.stages["sample_s"]), "s")}
        for n in run.size.sizes:
            metrics[f"sample_n{n}_s"] = (statistics.median(run.stages[f"sample_n{n}_s"]), "s")
        return metrics


WORKLOADS = {w.name: w for w in (Generate(), Challenge(), WideSample())}
FULL = {"generate": GenerateSize(), "challenge": ChallengeSize(), "wide-sample": WideSize()}
TOY = {
    "generate": GenerateSize(trials=200, cond_n=4, variational=((4, 4, 0.5, 5),), iters=400),
    "challenge": ChallengeSize(n=5, shots=1500),
    "wide-sample": WideSize(sizes=(8,), shots=2000),
}
