"""The names perfbench traces exist in the package.

``perfbench/spans.py`` wraps each ``(module, attr)`` of ``TRACED`` and
``sim.Gate.__post_init__`` when a traced run starts; a name that a change
deletes or renames would crash the benchmark there, so it fails here.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest
from peakedqc.sim import Gate

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attr, _ in spans.TRACED]


@pytest.mark.parametrize("mod, attr", _traced())
def test_traced_name_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(f"peakedqc.{mod}"), attr))


def test_gate_post_init_exists():
    assert callable(Gate.__post_init__)
