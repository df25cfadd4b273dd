"""Spans and counts recorded around the public entry points of arrstab's modules.

The wrappers are installed from the benchmark's own files: ``install`` swaps
each target for a wrapper in its defining module and in every arrstab module
that imported the same object by name (``from .exactlin import _rref_rows``),
so calls between modules are seen as well.  Nothing under ``src/`` changes.

A span is ``(pid, serial, parent_pid, parent_serial, name, start, end)`` with
``time.perf_counter`` timestamps, which share one monotonic clock across
processes.  Pool workers are forked, so they inherit the open span stack and
their spans hang under the parent's ``cli.run``.  Each worker writes its
records after every level it computes; the main process writes its own when
the command returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path


def _one(args, kwargs, result):
    return 1


def _rref_cells(args, kwargs, result):
    rows, cols = args[0], args[1]
    return len(rows) * cols


def _result_len(args, kwargs, result):
    return len(result)


def _hit(args, kwargs, result):
    return int(result is not None)


def _chain_count(args, kwargs, result):
    return sum(len(level) for level in result.chains)


# (module, attribute, span name, extra count name, count function)
SPANS = (
    ("cli", "load_config", "cli.load_config", None, None),
    ("cli", "run", "cli.run", None, None),
    ("cli", "_level_worker", "cli.level_worker", None, None),
    ("cache", "load", "cache.load", "cache.load.hits", _hit),
    ("cache", "store", "cache.store", None, None),
    ("arrangement", "build_lattice", "arrangement.build_lattice",
     "arrangement.elements", _result_len),
    ("arrangement", "IntersectionLattice.__init__", "arrangement.lattice_init", None, None),
    ("arrangement", "primitive_classes", "arrangement.primitive_classes", None, None),
    ("arrangement", "orbit_of", "arrangement.orbit_of", None, None),
    ("homology", "LatticeHomology.betti_report", "homology.betti_report", None, None),
    ("homology", "LatticeHomology.trace", "homology.trace", None, None),
    ("homology", "reduced_betti", "homology.reduced_betti", None, None),
    ("exactlin", "_rref_rows", "exactlin.rref", "exactlin.rref.cells", _rref_cells),
    ("exactlin", "kernel_basis", "exactlin.kernel_basis", None, None),
    ("exactlin", "solve_in_basis", "exactlin.solve_in_basis", None, None),
    ("characters", "character_of_cohomology", "characters.character_of_cohomology", None, None),
    ("characters", "verify_free_decomposition", "characters.verify_free_decomposition", None, None),
    ("characters", "fit_character_polynomial", "characters.fit_character_polynomial", None, None),
)

# Hot calls that are counted but not timed, to keep the tracing overhead low.
COUNTS = (
    ("exactlin", "contains", "exactlin.contains.calls", _one),
    ("arrangement", "IntersectionLattice.act", "arrangement.act.calls", _one),
    ("homology", "order_complex", "homology.chains", _chain_count),
    ("fim", "enumerate_injections", "fim.enumerate_injections.yielded", _result_len),
)

# Generator functions whose yielded items are counted.
YIELDS = (("fim", "perm_tuples", "fim.perm_tuples.yielded"),)


class Tracer:
    """In-memory span and count store for one process (and its forks)."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.serial = 0
        self.stack: list[tuple[int, int]] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()

    def _adopt(self) -> None:
        # A forked worker starts with the parent's records: drop them, keep
        # the open stack so the worker's spans have the parent's span above.
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.counts = Counter()

    def timed(self, name, fn, count_name=None, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._adopt()
            self.serial += 1
            sid = (self.pid, self.serial)
            parent = self.stack[-1] if self.stack else (None, None)
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((*sid, *parent, name, start, end))
            if count is not None:
                self.counts[count_name] += count(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._adopt()
            result = fn(*args, **kwargs)
            self.counts[name] += count(args, kwargs, result)
            return result

        return wrapper

    def yielding(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self._adopt()
                self.counts[name] += 1
                yield item

        return wrapper

    def flushing(self, fn):
        """Write this process's records after each call, in workers only."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if os.getpid() != self.main_pid:
                self.flush()
            return result

        return wrapper

    def flush(self) -> None:
        self._adopt()
        record = {"spans": self.spans, "counts": dict(self.counts)}
        with open(self.out_dir / f"{self.pid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = Counter()


def _replace(target_module: str, attr: str, make) -> None:
    """Swap ``attr`` of ``arrstab.<target_module>`` for ``make(original)``,
    also wherever another arrstab module bound the same object by name."""
    module = importlib.import_module(f"arrstab.{target_module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, make(getattr(cls, method)))
        return
    original = getattr(module, attr)
    wrapper = make(original)
    for key, loaded in list(sys.modules.items()):
        if loaded is None or not (key == "arrstab" or key.startswith("arrstab.")):
            continue
        for name, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, name, wrapper)


def install(out_dir: Path) -> Tracer:
    """Import every arrstab module and wrap the traced entry points."""
    for name in ("exactlin", "fim", "homology", "arrangement", "characters", "cache", "cli"):
        importlib.import_module(f"arrstab.{name}")
    tracer = Tracer(out_dir)
    for module, attr, name, count_name, count in SPANS:
        make = functools.partial(tracer.timed, name, count_name=count_name, count=count)
        if attr == "_level_worker":
            _replace(module, attr, lambda fn, make=make: tracer.flushing(make(fn)))
        else:
            _replace(module, attr, make)
    for module, attr, name, count in COUNTS:
        _replace(module, attr, lambda fn, name=name, count=count: tracer.counted(name, fn, count))
    for module, attr, name in YIELDS:
        _replace(module, attr, lambda fn, name=name: tracer.yielding(name, fn))
    return tracer


MODULES = ("cli", "cache", "arrangement", "exactlin", "fim", "homology", "characters")


def _covered(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def load(trace_dir: Path) -> tuple[list, Counter]:
    """All spans and the summed counts that one traced command wrote."""
    spans = []
    counts: Counter = Counter()
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            spans.extend(record["spans"])
            counts.update(record["counts"])
    return spans, counts


def summarize(spans: list, counts: Counter) -> tuple[dict, dict]:
    """Per-layer counts and times of one traced command.

    Counts are exact, so two traced runs of one job must agree on them.  A
    span's self time is its duration minus the part of it that its child
    spans cover, so the self times of all spans add up to the traced busy
    time of all processes.  ``<module>.share`` is a module's self time over
    that busy time; ``<module>.incl_share`` counts the whole duration of the
    module's outermost spans, callees in other modules included.
    """
    children: dict[tuple, list] = {}
    for pid, serial, ppid, pserial, name, start, end in spans:
        children.setdefault((ppid, pserial), []).append((start, end))
    names = {(s[0], s[1]): s[4] for s in spans}
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_s: Counter = Counter()
    module_self: Counter = Counter()
    module_incl: Counter = Counter()
    for pid, serial, ppid, pserial, name, start, end in spans:
        module = name.split(".")[0]
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get((pid, serial), ())]
        own = (end - start) - _covered(k for k in kids if k[0] < k[1])
        calls[name] += 1
        incl[name] += end - start
        self_s[name] += own
        module_self[module] += own
        parent = names.get((ppid, pserial))
        if parent is None or parent.split(".")[0] != module:
            module_incl[module] += end - start
    busy = sum(module_self.values()) or 1.0
    load_calls = calls["cache.load"]
    count_values = {
        "exactlin.rref.calls": calls["exactlin.rref"],
        "exactlin.rref.cells": counts["exactlin.rref.cells"],
        "exactlin.contains.calls": counts["exactlin.contains.calls"],
        "arrangement.build_lattice.calls": calls["arrangement.build_lattice"],
        "arrangement.elements": counts["arrangement.elements"],
        "arrangement.orbit_of.calls": calls["arrangement.orbit_of"],
        "arrangement.act.calls": counts["arrangement.act.calls"],
        "cache.load.calls": load_calls,
        "cache.load.hits": counts["cache.load.hits"],
        "cache.hit_ratio": counts["cache.load.hits"] / load_calls if load_calls else 0.0,
        "homology.betti_report.calls": calls["homology.betti_report"],
        "homology.reduced_betti.calls": calls["homology.reduced_betti"],
        "homology.trace.calls": calls["homology.trace"],
        "homology.chains": counts["homology.chains"],
        "characters.character_of_cohomology.calls": calls["characters.character_of_cohomology"],
        "fim.perm_tuples.yielded": counts["fim.perm_tuples.yielded"],
        "fim.enumerate_injections.yielded": counts["fim.enumerate_injections.yielded"],
        "cli.processes": len({s[0] for s in spans}),
    }
    time_values = {
        "exactlin.rref.self_s": self_s["exactlin.rref"],
        "exactlin.kernel_basis.s": incl["exactlin.kernel_basis"],
        "exactlin.solve_in_basis.s": incl["exactlin.solve_in_basis"],
        "arrangement.build_lattice.self_s": self_s["arrangement.build_lattice"],
        "arrangement.build_lattice.share": incl["arrangement.build_lattice"] / busy,
        "arrangement.lattice_init.s": incl["arrangement.lattice_init"],
        "arrangement.primitive_classes.s": incl["arrangement.primitive_classes"],
        "cache.load.s": incl["cache.load"],
        "cache.load.share": incl["cache.load"] / busy,
        "cache.store.s": incl["cache.store"],
        "homology.betti_report.s": incl["homology.betti_report"],
        "homology.trace.s": incl["homology.trace"],
        "characters.character_of_cohomology.s": incl["characters.character_of_cohomology"],
        "characters.verify_free_decomposition.s": incl["characters.verify_free_decomposition"],
        "characters.fit_character_polynomial.s": incl["characters.fit_character_polynomial"],
        "cli.load_config.s": incl["cli.load_config"],
        "cli.run.self_s": self_s["cli.run"],
    }
    for module in MODULES:
        time_values[f"{module}.share"] = module_self[module] / busy
        time_values[f"{module}.incl_share"] = module_incl[module] / busy
    return count_values, time_values


def metric_names() -> tuple[list[str], list[str]]:
    """Names of the count metrics and of the time metrics, in report order."""
    count_values, time_values = summarize([], Counter())
    return list(count_values), list(time_values)
