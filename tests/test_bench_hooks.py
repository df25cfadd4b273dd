"""Every entry point that the benchmark tracer wraps still exists.

``perfbench/tracer.py`` names arrstab functions and methods by string and
swaps them for wrappers at run time.  A refactor that renames or drops one
would only show up when ``perfbench/run.py --trace 1`` is run; this test
loads the tracer by path, without changing it, and resolves every name.
A traced run of the command checks that the wrappers also see the calls
that ``cli`` makes through the imports inside its functions.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def traced_run(tmp_path, name, **job):
    """Per-layer counts and times of one traced ``arrstab run`` of a braid
    job at levels 2..4, with two processes."""
    root = TRACER.parent.parent
    config = tmp_path / f"{name}.json"
    family = {"kind": "mkr", "m": 1, "k": 2, "r": 1}
    config.write_text(json.dumps({"family": family, "levels": {"min": [2], "max": [4]}, **job}), encoding="utf-8")
    trace_dir = tmp_path / f"trace-{name}"
    trace_dir.mkdir()
    argv = ["run", "--config", str(config), "--cache", str(tmp_path / f"c-{name}")]
    argv += ["--out", str(tmp_path / f"o-{name}"), "--jobs", "2"]
    subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(trace_dir), *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        timeout=120,
        check=True,
    )
    return tracer.summarize(*tracer.load(trace_dir))


def test_tracer_sees_the_calls_that_cli_imports_when_it_runs(tmp_path):
    # ``cli`` imports the engine inside the functions that use it, after
    # ``tracer.install`` has swapped in the wrappers, so the traced command
    # still reports every layer, from the command and from its forked share
    count_values, _ = traced_run(tmp_path, "braid", i_max=2, outputs=["betti", "characters"])
    for name in (
        "arrangement.build_lattice.calls",
        "homology.betti_report.calls",
        "characters.character_of_cohomology.calls",
    ):
        assert count_values[name] > 0, name
    assert count_values["cli.processes"] == 2
    # the fit and the freeness check live in ``checks``; the
    # hooks name them in ``characters`` and ``arrangement``, whose forwarders
    # hand the tracer the functions that ``run`` calls
    _, time_values = traced_run(
        tmp_path, "braid-fit", i_max=1, outputs=["fit", "freeness"], fit_degree_bound=[2]
    )
    for name in (
        "characters.verify_free_decomposition.s",
        "characters.fit_character_polynomial.s",
        "arrangement.primitive_classes.s",
    ):
        assert time_values[name] > 0, name
