"""The benchmark's checked jobs reproduce their recorded reports.

``perfbench/workloads.json`` records, per job, the config, the number of
findings allowed and the sha256 of ``betti.csv`` and ``characters.csv``.
This test reads that file by path, without changing it, and runs the
``readme``, ``kequals-closure`` and ``braid-homology`` jobs through
``cli.main`` with their recorded ``--jobs``, cold and then warm on the same
cache, so a report that drifts fails here as well as in the benchmark.
``kequals-closure`` is the one job that computes its levels in two processes
(``--jobs 2``).
"""

import hashlib
import json
from pathlib import Path

import pytest

from arrstab.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"


@pytest.mark.parametrize("name", ["readme", "kequals-closure", "braid-homology"])
def test_workload_reports_match_recorded_digests(name, tmp_path):
    workload = json.loads(WORKLOADS.read_text(encoding="utf-8"))[name]
    config = tmp_path / "job.json"
    config.write_text(json.dumps(workload["config"]), encoding="utf-8")
    outs = {}
    for phase in ("cold", "warm"):
        out = outs[phase] = tmp_path / phase
        code = main(
            [
                "run",
                "--config", str(config),
                "--cache", str(tmp_path / "cache"),
                "--out", str(out),
                "--jobs", str(workload["jobs"]),
            ]
        )
        findings = json.loads((out / "report.json").read_text(encoding="utf-8"))["findings"]
        assert len(findings) <= workload["max_findings"]
        assert code == (2 if findings else 0)
        for report, digest in workload["digests"].items():
            assert hashlib.sha256((out / report).read_bytes()).hexdigest() == digest
    names = sorted(path.name for path in outs["cold"].iterdir())
    assert names == sorted(path.name for path in outs["warm"].iterdir())
    for report in names:
        assert (outs["cold"] / report).read_bytes() == (outs["warm"] / report).read_bytes()
