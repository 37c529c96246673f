"""Spans around calls into peakedqc's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``peakedqc`` module that holds it, because the package imports names
directly (``cli`` does ``from .ensembles import conditioned_generate``) and a
wrapper only sees the calls made through the name it replaced.  ``Gate`` is
traced through its ``__post_init__``, which every construction runs.

Spans are kept in memory as ``(id, parent, name, start, end)`` and written as
JSON lines by ``Tracer.dump``.  A span's self time is its duration minus the
time covered by its children; the calls are single-threaded, so children
never overlap and that cover is the sum of their durations.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _circuit_gates(args, kwargs, result):
    circuit = args[1] if len(args) > 1 else kwargs["circuit"]
    gates = len(circuit.gates)
    # a 2^n complex128 buffer is read and written once per gate
    return {"gates": gates, "bytes": gates * 2 * 16 * (1 << circuit.n)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _accepted(args, kwargs, result):
    return {"accepted": 1}


def _core_size(args, kwargs, result):
    return {"core_size": result[1]}


def _search(args, kwargs, result):
    traces = result[1].per_seed_traces
    return {"starts": len(traces), "iterations": sum(t.iterations for t in traces)}


# (module, attribute, counter hook); the span name is "<module>.<attribute>"
TRACED = [
    ("cli", "main", None),
    ("cli", "write_json", _file_bytes),
    ("cli", "read_json", _file_bytes),
    ("cli", "load_shots", None),
    ("sim", "apply_circuit", _circuit_gates),
    ("sim", "sample", None),
    ("sim", "circuit_to_json", None),
    ("sim", "circuit_from_json", None),
    ("ensembles", "haar_unitary", None),
    ("ensembles", "postselect_generate", _accepted),
    ("ensembles", "conditioned_generate", None),
    ("synth", "multistart_search", _search),
    ("synth", "adam_step", None),
    ("noise", "apply_noise", None),
    ("noise", "hamming_center_decode", _core_size),
    ("noise", "majority_decode", None),
    ("noise", "hba_estimate", None),
]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, hook, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))
        if hook is not None:
            for key, value in hook(args, kwargs, result).items():
                self.counters[f"{name}.{key}"] += value
        return result

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, hook, args, kwargs)
        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever a peakedqc module holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "peakedqc" or key.startswith("peakedqc."))]
        for mod_name, attr, hook in TRACED:
            fn = getattr(sys.modules[f"peakedqc.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", fn, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, fn))
                        setattr(module, key, wrapper)
        gate = sys.modules["peakedqc.sim"].Gate
        self._restore.append((gate, "__post_init__", gate.__post_init__))
        gate.__post_init__ = self.wrap("sim.Gate", gate.__post_init__)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, self seconds, inclusive seconds)`` over all spans."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, name, start, end in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[span_id]
            entry[2] += end - start
        return {name: tuple(entry) for name, entry in totals.items()}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Seconds spent importing peakedqc and, within that, scipy.

    ``python -X importtime`` prints one line per module, children before
    their parent and indented one level deeper.  A module's cumulative time
    counts once, at the outermost line of its family.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))

    def outermost(prefix):
        total = 0
        for i, (depth, cumulative, name) in enumerate(rows):
            if name.split(".")[0] != prefix:
                continue
            parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
            if parent is None or parent[2].split(".")[0] != prefix:
                total += cumulative
        return total * 1e-6

    return outermost("peakedqc"), outermost("scipy")
