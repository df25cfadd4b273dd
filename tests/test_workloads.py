"""The benchmark's checked jobs reproduce their recorded reports.

``perfbench/workloads.json`` records, per job, the config, the number of
findings allowed and the sha256 of ``betti.csv`` and ``characters.csv``.
This test reads that file by path, without changing it, and runs the
``readme``, ``kequals-closure`` and ``braid-homology`` jobs through
``cli.main`` with their recorded ``--jobs``, cold and then warm on the same
cache, so a report that drifts fails here as well as in the benchmark.
``kequals-closure`` is the one job that computes its levels in two processes
(``--jobs 2``).

The recorded digests pin two files.  ``REPORT_DIGESTS`` pins every file a
gated job writes, and its standard output and error, at ``--jobs`` 1 and 2:
a value that changes type on its way to a report, say a character value
written as the JSON number 3 where the reports hold the string "3", fails
here.
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


REPORT_DIGESTS = {
    "readme": {
        "betti.csv": "66fe33312eef55ea83c7be446f3bf72751a0ec6c974bbdac85d1632b2a77e51f",
        "characters.csv": "32d796c788a9429b76ec4870278ce59bce0a920197d0232945aa3cebdb4e6b9d",
        "freeness.csv": "0309c2cdd42bc8d80d3435f80ea3f4432139eaf6ad6502110b4b17955007ab17",
        "normalization.json": "93ca2db8ee867e5af0f83c177e354ddb94fd7d223512b8dd9c4e9fa1b07a1cba",
        "report.json": "499653f4624d5b4c3bb4a194314e1e668b97f56bcdc61f89a9bce4bc0e8d3e54",
        "stability.csv": "0e1311c36b148decb3758ae758300def68bfeeb24124e9b7dd02cd0d8536580e",
        "twisted.csv": "47f023327fe46b1abe87f7b077e942912e6db02667746eff479ae363a326242d",
        "stdout": "65e5323bf6bc9d338badf095c81fee5454389eae134229d6adf449dc023b7403",
        "stderr": "2024928dc03f87125448422b36924d45fdc710358701d49a15d5ed232a94cd4d",
    },
    "kequals-closure": {
        "betti.csv": "2ee0a15a392bf6eea00a2fffbe392136f75a1b82122e210b8ca6e6091acc843c",
        "characters.csv": "3a9cf04262a7c6af8d9f1194c3f539e8b511707fa8f04d2a87b1c95c2c9e25bf",
        "report.json": "b4438d185af86bccb6e41ada052a4b57d5dce75847f852b33a21004d8837fc2c",
        "stability.csv": "0d73e161855afc85ab671de32f22b6e7f0219d47886d43be6c77e9e662036032",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}
EXIT_CODES = {"readme": 2, "kequals-closure": 0}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_every_report_byte_matches_its_digest(name, jobs, tmp_path, capsys):
    workload = json.loads(WORKLOADS.read_text(encoding="utf-8"))[name]
    config = tmp_path / "job.json"
    config.write_text(json.dumps(workload["config"]), encoding="utf-8")
    for phase in ("cold", "warm"):
        out = tmp_path / phase
        args = ["run", "--config", str(config), "--cache", str(tmp_path / "cache")]
        code = main(args + ["--out", str(out), "--jobs", str(jobs)])
        assert code == EXIT_CODES[name], phase
        printed = capsys.readouterr()
        written = {path.name: path.read_bytes() for path in out.iterdir()}
        written["stdout"] = printed.out.encode("utf-8")
        written["stderr"] = printed.err.encode("utf-8")
        digests = {report: hashlib.sha256(data).hexdigest() for report, data in written.items()}
        assert digests == REPORT_DIGESTS[name], phase
