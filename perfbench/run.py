#!/usr/bin/env python3
"""Benchmark of the ``arrstab run`` command: cold and warm cache, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S] [--out FILE]

Each workload is a fixed job config from ``workloads.json``; the inputs do not
depend on the seed, which is only echoed.  A run executes the real command as
a child process, one job at a time, from the ``src/`` tree of this checkout:

* ``setup_s``: a fresh interpreter imports ``arrstab.cli`` and loads the
  config, several times; the median is reported.
* pairs of jobs, for as long as ``--seconds`` allows: a cold job against a
  fresh empty ``--cache``, then the identical warm job against that cache.
  ``ARRSTAB_CACHE`` is removed from the child environment.

End-to-end metrics, tracing off, as medians over the run:

* ``cold_s``, ``warm_s``: wall time of the cold and of the warm job, from
  process start to exit;
* ``setup_s``: wall time of the set-up interpreter;
* ``peak_rss_mb``: peak of the summed resident memory of the cold job's
  process tree, pool workers included, sampled every 20 ms;
* ``ok_rate``: share of the attempted pairs that passed, one minus the fail
  rate, so that the figure is never zero.

``FINDING:`` lines are counted per job; exit status 2 with findings is not a
failure.

Every pair passes a correctness gate (exit status, byte-identical cold and
warm reports, digests of ``betti.csv`` and ``characters.csv``, the braid
Betti and invariant oracles, identity character values against Betti
numbers) or counts as failed.  A job that overruns its timeout is killed with
its process group and counts as failed.

With ``--trace 1`` the pairs run under ``traced_cli.py`` and the last line
carries per-layer counts and times for the cold and the warm job, plus the
tracing overhead against one untraced pair.  ``--all`` runs every workload
of ``BENCHMARK.json`` and every extra checked job of ``workloads.json``
(``braid-homology``) untraced and traced, checks the timeout path on a job
known to be over budget, and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"

# Each job is bounded; the whole run stays below the 180 s a run may take.
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0
OVER_BUDGET_TIMEOUT_S = 3.0
# Set-up samples taken first, and then after each pair, so that they spread
# over the run like the pairs do.
SETUP_FIRST = 5
SETUP_PER_PAIR = 4
RSS_INTERVAL_S = 0.02
PAGE = os.sysconf("SC_PAGE_SIZE")

CLI_MAIN = "import sys; from arrstab.cli import main; sys.exit(main())"
SETUP = "import sys; from arrstab.cli import load_config; load_config(sys.argv[1])"

END_TO_END = (
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "1"),
)


@dataclass
class Job:
    pid: int
    status: int | None  # exit status, None when the job overran its timeout
    wall_s: float
    peak_rss_mb: float
    stderr: str

    @property
    def findings(self) -> int:
        return sum(1 for line in self.stderr.splitlines() if line.startswith("FINDING:"))


@dataclass
class Pair:
    cold: Job
    warm: Job
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None  # per phase: (counts, times), traced pairs only


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so that none outlives its job unwaited."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _tree_rss_bytes(root: int) -> int:
    total = 0
    todo = [root]
    while todo:
        pid = todo.pop()
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
                total += int(handle.read().split()[1]) * PAGE
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                    todo.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue
    return total


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_job(argv: list[str], log: Path, timeout: float, sample_rss: bool = False) -> Job:
    """Run one child to completion, timing it from start to exit."""
    env = dict(os.environ)
    env.pop("ARRSTAB_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    timed_out = threading.Event()
    peak = [0]
    done = threading.Event()
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )

    def watchdog():
        if not done.wait(timeout):
            timed_out.set()
            _kill_group(proc.pid)

    def sampler():
        while not done.wait(RSS_INTERVAL_S):
            peak[0] = max(peak[0], _tree_rss_bytes(proc.pid))

    threads = [threading.Thread(target=watchdog)]
    if sample_rss:
        threads.append(threading.Thread(target=sampler))
    for thread in threads:
        thread.start()
    try:
        _, wait_status = os.waitpid(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    finally:
        done.set()
        for thread in threads:
            thread.join()
        # Stop and reap whatever the job left behind (pool workers of a killed job).
        _kill_group(proc.pid)
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
    return Job(
        proc.pid,
        None if timed_out.is_set() else proc.returncode,
        wall,
        peak[0] / 2**20,
        log.read_text(encoding="utf-8", errors="replace"),
    )


# ---------------------------------------------------------------- correctness


def _stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k)."""
    row = [1]  # c(0, 0)
    for m in range(n):
        # c(m + 1, j) = m c(m, j) + c(m, j - 1)
        row = [m * a + b for a, b in zip(row + [0], [0] + row)]
    return row[k] if 0 <= k < len(row) else 0


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))[1:]


def check_reports(spec: dict, out: Path) -> list[str]:
    """Independent oracles and recorded digests on one job's reports."""
    problems = []
    for name, digest in spec["digests"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        if actual != digest:
            problems.append(f"{name} digest {actual[:12]} differs from recorded {digest[:12]}")
    betti = {row[0]: [int(v) for v in row[1:]] for row in _read_csv(out / "betti.csv")}
    for level, i, cls, value in _read_csv(out / "characters.csv"):
        if all(part == "1" for part in cls.replace("|", "+").split("+")):
            if value != str(betti[level][int(i)]):
                problems.append(f"identity character {value} != b{i} at level {level}")
    if spec["braid"]:
        # Arnold: the Poincare polynomial of PConf_n(C) is prod (1 + k t).
        for level, row in betti.items():
            n = int(level)
            for i, b in enumerate(row):
                if b != _stirling_first(n, n - i):
                    problems.append(f"braid b{i} at n={n} is {b}, not c({n},{n - i})")
        # H^*(UConf_n; Q) is Q in degrees 0 and 1.
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for entry in report["results"].get("stability", []):
            want = "1" if entry["i"] <= 1 else "0"
            for level, value in entry["values"].items():
                if str(value) != want:
                    problems.append(f"invariants of H^{entry['i']} at n={level}: {value} != {want}")
    return problems


def check_pair(spec: dict, pair: Pair, cold_out: Path, warm_out: Path) -> list[str]:
    problems = []
    for phase, job in (("cold", pair.cold), ("warm", pair.warm)):
        if job.status is None:
            problems.append(f"{phase} job timed out")
        elif job.status not in (0, 2):
            tail = job.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"{phase} job exited {job.status}: {tail[0]}")
        elif (job.status == 2) != (job.findings > 0):
            problems.append(f"{phase} exit status {job.status} with {job.findings} findings")
    if problems:
        return problems
    if pair.cold.findings != pair.warm.findings:
        problems.append(f"findings cold {pair.cold.findings} != warm {pair.warm.findings}")
    if pair.cold.findings > spec["max_findings"]:
        problems.append(f"{pair.cold.findings} findings, more than {spec['max_findings']}")
    cold_files = sorted(p.name for p in cold_out.iterdir())
    warm_files = sorted(p.name for p in warm_out.iterdir())
    if cold_files != warm_files:
        problems.append(f"cold reports {cold_files} != warm reports {warm_files}")
    for name in set(cold_files) & set(warm_files):
        if (cold_out / name).read_bytes() != (warm_out / name).read_bytes():
            problems.append(f"{name} differs between cold and warm")
    problems.extend(check_reports(spec, cold_out))
    return problems


# ---------------------------------------------------------------- measuring


class Bench:
    def __init__(self, name: str, spec: dict, work: Path):
        self.name = name
        self.spec = spec
        self.work = work
        self.config = work / f"{name}.json"
        self.config.write_text(json.dumps(spec["config"]), encoding="utf-8")
        self.start = time.perf_counter()
        self.serial = 0

    def timeout(self) -> float:
        return max(1.0, min(JOB_TIMEOUT_S, RUN_LIMIT_S - self.elapsed()))

    def setup(self) -> float:
        argv = [sys.executable, "-c", SETUP, str(self.config)]
        job = run_job(argv, self.work / "setup.log", self.timeout())
        if job.status != 0:
            raise RuntimeError(f"loading the config failed: {job.stderr.strip()}")
        return job.wall_s

    def command(self, cache: Path, out: Path, trace_dir: Path | None) -> list[str]:
        args = ["run", "--config", str(self.config), "--cache", str(cache),
                "--out", str(out), "--jobs", str(self.spec["jobs"])]
        if trace_dir is None:
            return [sys.executable, "-c", CLI_MAIN, *args]
        trace_dir.mkdir()
        return [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir), *args]

    def pair(self, traced: bool = False) -> Pair:
        self.serial += 1
        box = self.work / f"pair-{self.serial}"
        box.mkdir()
        cache = box / "cache"
        jobs = {}
        for phase in ("cold", "warm"):
            trace_dir = box / f"trace-{phase}" if traced else None
            argv = self.command(cache, box / phase, trace_dir)
            jobs[phase] = run_job(argv, box / f"{phase}.log", self.timeout(),
                                  sample_rss=phase == "cold" and not traced)
        pair = Pair(jobs["cold"], jobs["warm"])
        try:
            pair.problems = check_pair(self.spec, pair, box / "cold", box / "warm")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            pair.problems = [f"reports unreadable: {exc!r}"]
        if traced and not pair.problems:
            pair.layers = {phase: tracer.summarize(*tracer.load(box / f"trace-{phase}"))
                           for phase in ("cold", "warm")}
            if pair.layers["cold"][0]["arrangement.build_lattice.calls"] <= 0:
                pair.problems.append("cold traced job built no lattice")
            if pair.layers["warm"][0]["arrangement.build_lattice.calls"] != 0:
                pair.problems.append("warm traced job built a lattice")
        shutil.rmtree(box)
        return pair

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def room_for_another(self, done: int, seconds: float) -> bool:
        """Whether one more pair, as long as the average so far, ends in time."""
        return self.elapsed() * (done + 1) / done <= seconds


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _print_pair(k: int, label: str, pair: Pair) -> None:
    def show(job):
        return "timeout" if job.status is None else f"{job.wall_s:.3f} s"

    peak = f"peak {pair.cold.peak_rss_mb:.1f} MB, " if pair.cold.peak_rss_mb else ""
    verdict = "ok" if not pair.problems else "FAILED: " + "; ".join(pair.problems)
    print(f"  {label} pair {k}: cold {show(pair.cold)}, warm {show(pair.warm)}, "
          f"{peak}findings {pair.cold.findings}, {verdict}", flush=True)


def measure(name: str, spec: dict, seconds: float, work: Path) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    bench = Bench(name, spec, work)
    setups = [bench.setup() for _ in range(SETUP_FIRST)]
    pairs: list[Pair] = []
    while not pairs or bench.room_for_another(len(pairs), seconds):
        pairs.append(bench.pair())
        _print_pair(len(pairs), "untraced", pairs[-1])
        setups += [bench.setup() for _ in range(SETUP_PER_PAIR)]
    timed = [p for p in pairs if p.cold.status is not None and p.warm.status is not None]
    failed = sum(1 for p in pairs if p.problems)
    metrics = {
        "cold_s": _median([p.cold.wall_s for p in timed]),
        "warm_s": _median([p.warm.wall_s for p in timed]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([p.cold.peak_rss_mb for p in timed]),
        "ok_rate": (len(pairs) - failed) / len(pairs),
    }
    return {
        "correct": failed == 0,
        "attempted": len(pairs),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END},
        "samples": {"pairs": len(pairs), "setup": len(setups)},
        "findings": max((p.cold.findings for p in pairs), default=0),
        "fail_rate": failed / len(pairs),
    }


def per_layer_names() -> list[tuple[str, str]]:
    counts, times = tracer.metric_names()
    names = []
    for phase in ("cold", "warm"):
        names += [(f"{phase}.{key}", "1" if key.endswith(("share", "ratio")) else unit)
                  for keys, unit in ((counts, "count"), (times, "s"))
                  for key in keys]
        names.append((f"{phase}.traced_s", "s"))
        names.append((f"{phase}.overhead_s", "s"))
    names.append(("cli.findings", "count"))
    return names


def measure_traced(name: str, spec: dict, seconds: float, work: Path) -> dict:
    """Per-layer metrics from traced pairs, and the overhead of tracing."""
    bench = Bench(name, spec, work)
    traced: list[Pair] = []
    untraced = None
    # At least two traced pairs, so that every traced run checks its counts
    # repeat exactly, with the untraced pair between them.
    while len(traced) < 2 or bench.room_for_another(len(traced) + 1, seconds):
        traced.append(bench.pair(traced=True))
        _print_pair(len(traced), "traced", traced[-1])
        if untraced is None:
            untraced = bench.pair()
            _print_pair(1, "untraced", untraced)
    pairs = traced + [untraced]
    layered = [p for p in traced if p.layers is not None]
    for pair in layered[1:]:
        for phase in ("cold", "warm"):
            first, again = layered[0].layers[phase][0], pair.layers[phase][0]
            diff = sorted(key for key in first if first[key] != again[key])
            if diff:
                pair.problems.append(f"{phase} counts differ between traced runs: {diff}")
    failed = sum(1 for p in pairs if p.problems)
    values: dict[str, float] = {}
    if layered:
        for phase in ("cold", "warm"):
            for key, value in layered[0].layers[phase][0].items():
                values[f"{phase}.{key}"] = value
            for key in layered[0].layers[phase][1]:
                values[f"{phase}.{key}"] = _median([p.layers[phase][1][key] for p in layered])
            walls = [getattr(p, phase).wall_s for p in layered]
            values[f"{phase}.traced_s"] = _median(walls)
            values[f"{phase}.overhead_s"] = _median(walls) - getattr(untraced, phase).wall_s
    values["cli.findings"] = traced[0].cold.findings
    metrics = {key: {"value": values.get(key, 0.0), "unit": unit}
               for key, unit in per_layer_names()}
    return {
        "correct": failed == 0 and bool(layered),
        "attempted": len(pairs),
        "failed": failed,
        "metrics": metrics,
        "samples": {"traced_pairs": len(traced), "untraced_pairs": 1},
    }


def check_timeout(work: Path, spec: dict) -> dict:
    """Run a job known to be over budget under a short timeout."""
    bench = Bench("over-budget", spec, work)
    argv = bench.command(work / "over-budget-cache", work / "over-budget-out", None)
    job = run_job(argv, work / "over-budget.log", OVER_BUDGET_TIMEOUT_S)
    try:
        os.killpg(job.pid, 0)
        group_gone = False
    except ProcessLookupError:
        group_gone = True
    return {
        "timeout_s": OVER_BUDGET_TIMEOUT_S,
        "wall_s": job.wall_s,
        "timed_out": job.status is None,
        "process_group_gone": group_gone,
        "attempted": 1,
        "failed": int(job.status != 0),
    }


# ---------------------------------------------------------------- reporting


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "commit": commit,
    }


def print_metrics(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} samples={result['samples']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<48} {metric['value']:>14.6g} {metric['unit']}")
    if "fail_rate" in result:
        print(f"  {'fail_rate':<48} {result['fail_rate']:>14.6g} 1")
        print(f"  {'findings':<48} {result['findings']:>14d} count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--out", type=Path, help="with --all, write the results here as JSON")
    args = parser.parse_args()

    if not (SRC / "arrstab" / "cli.py").is_file():
        print(f"error: no arrstab sources under {SRC}", file=sys.stderr)
        return 2
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or benchmark["run_seconds"]
    # The workloads of BENCHMARK.json first, then any extra checked job.
    whys = {entry["name"]: entry["why"] for entry in benchmark["workloads"]}
    measurable = list(whys) + [name for name, spec in workloads.items()
                               if name not in whys and "digests" in spec]
    _become_subreaper()
    # Let a terminated run still stop its job and remove its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.all:
            results = {}
            for name in measurable:
                why = whys.get(name) or workloads[name]["why"]
                print(f"== {name}: {why}")
                results[name] = {
                    "why": why,
                    "end_to_end": measure(name, workloads[name], seconds, work),
                    "per_layer": measure_traced(name, workloads[name], seconds, work),
                }
            timeout = check_timeout(work, workloads["over-budget"])
            for name, result in results.items():
                print_metrics(name, result["end_to_end"])
            for name, result in results.items():
                print_metrics(f"{name} (traced)", result["per_layer"])
            print(f"over-budget job: {timeout}")
            print(f"environment: {env}")
            if args.out:
                args.out.write_text(json.dumps(
                    {"environment": env, "seconds": seconds, "workloads": results,
                     "timeout_check": timeout}, indent=2) + "\n", encoding="utf-8")
            ok = all(r["end_to_end"]["correct"] and r["per_layer"]["correct"]
                     for r in results.values())
            ok = ok and timeout["timed_out"] and timeout["process_group_gone"]
            return 0 if ok else 1
        if args.workload not in measurable:
            parser.error(f"unknown workload {args.workload!r}")
        spec = workloads[args.workload]
        if args.trace:
            result = measure_traced(args.workload, spec, seconds, work)
        else:
            result = measure(args.workload, spec, seconds, work)
        print_metrics(args.workload, result)
        print(f"environment: {json.dumps(env)} seed={args.seed}")
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
