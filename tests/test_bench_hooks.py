"""Every entry point that the benchmark tracer wraps still exists.

``perfbench/tracer.py`` names arrstab functions and methods by string and
swaps them for wrappers at run time.  A refactor that renames or drops one
would only show up when ``perfbench/run.py --trace 1`` is run; this test
loads the tracer by path, without changing it, and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
HOOKS = sorted(
    {(entry[0], entry[1]) for entry in tracer.SPANS + tracer.COUNTS + tracer.YIELDS}
)


def test_tracer_names_hooks():
    assert len(HOOKS) >= 20


@pytest.mark.parametrize("module, attr", HOOKS)
def test_traced_entry_point_resolves(module, attr):
    target = importlib.import_module(f"arrstab.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
