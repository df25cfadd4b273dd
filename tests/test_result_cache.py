"""The result cache.

Each level task's payload (Betti numbers, characters, generator characters)
is stored in ``--cache`` under a key over the spec, the level, ``i_max`` and
the task's wants, and a freeness job's lattice outcome (its primitive
classes and orbit tables) under one over the spec, the level range and
``i_max``; each file holds the package's source digest.  A warm run reads
every stored result back: its reports are the bytes of the cold run's, and
it builds, constructs and traces no lattice.  A stored file that fails a
check is corrupt, and one of other sources a miss; either is recomputed and
written again.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arrstab import arrangement, cache, cli, homology
from arrstab.cli import JobConfig, main, run
from arrstab.fim import MultiIndex
from test_lattice_oracle import FAMILY_CASES, never

mi = MultiIndex
SRC = Path(cli.__file__).resolve().parent.parent
WORKLOADS = SRC.parent / "perfbench" / "workloads.json"
OUTPUTS = ("betti", "characters", "fit", "stability")


def family_job(spec, level, out, cache_dir, i_max=2):
    """The levels one point below ``level`` in each factor up to it."""
    low = mi(max(n - 1, 0) for n in level)
    return JobConfig(spec, low, mi(level), i_max, OUTPUTS, cache_dir=str(cache_dir), out_dir=str(out))


def files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def results(cache_dir: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(cache_dir.glob("*.result.txt"))}


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_cold_and_warm_reports_are_byte_identical(tmp_path, capsys, spec, level, max_codim):
    codes, printed, written = set(), set(), []
    for jobs in (1, 2):
        for phase in ("cold", "warm"):
            out = tmp_path / f"{phase}{jobs}"
            codes.add(run(family_job(spec, level, out, tmp_path / f"c{jobs}"), jobs=jobs))
            printed.add(capsys.readouterr())
            written.append(files(out))
        assert results(tmp_path / f"c{jobs}")
    assert len(codes) == 1 and len(printed) == 1
    assert all(each == written[0] for each in written)
    # the stored results do not depend on --jobs either
    assert results(tmp_path / "c1") == results(tmp_path / "c2")


def braid_job(tmp_path, levels=(2, 4), outputs=OUTPUTS, **extra) -> Path:
    config = tmp_path / "job.json"
    data = {
        "family": {"kind": "mkr", "m": 1, "k": 2, "r": 1},
        "levels": {"min": [levels[0]], "max": [levels[1]]},
        "i_max": 2,
        "outputs": list(outputs),
        **extra,
    }
    config.write_text(json.dumps(data), encoding="utf-8")
    return config


def run_braid(config, cache_dir, out, *flags) -> int:
    return main(["run", "--config", str(config), "--cache", str(cache_dir), "--out", str(out), *flags])


def body(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8").splitlines()[3])


def result_of_level(cache_dir: Path, level: int) -> Path:
    for path in cache_dir.glob("*.result.txt"):
        if body(path).get("level") == [level]:
            return path
    raise AssertionError(f"no result stored for level {level}")


def rewrite(path: Path, edit) -> None:
    """Replace a result file's payload by ``edit(data)``, keeping its
    checksum valid."""
    magic, source, _, text = path.read_text(encoding="utf-8").splitlines()
    data = edit(json.loads(text))
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    path.write_text(f"{magic}\n{source}\npayload-sha256={digest}\n{text}\n", encoding="utf-8")


def edited(key, change):
    def edit(data):
        data[key] = change(data[key])
        return data

    return edit


CORRUPTIONS = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-20]),
    "bad checksum": lambda path: path.write_text(
        path.read_text(encoding="utf-8").replace("payload-sha256=", "payload-sha256=00"), encoding="utf-8"
    ),
    "wrong level": lambda path: rewrite(path, edited("level", lambda level: [4])),
    "wrong class count": lambda path: rewrite(path, edited("characters", lambda rows: [row[:-1] for row in rows])),
    "non-integer": lambda path: rewrite(path, edited("characters", lambda rows: [[0.5] + row[1:] for row in rows])),
    "bool": lambda path: rewrite(path, edited("betti", lambda betti: [True] + betti[1:])),
    "missing degree": lambda path: rewrite(path, edited("characters", lambda rows: rows[:-1])),
    "missing generator degree": lambda path: rewrite(path, edited("generators", lambda degrees: degrees[:-1])),
    "extra key": lambda path: rewrite(path, lambda data: {**data, "padding": 1}),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_corrupt_result_is_recomputed_and_rewritten(tmp_path, capsys, corrupt):
    config = braid_job(tmp_path)
    cache_dir = tmp_path / "c"
    assert run_braid(config, cache_dir, tmp_path / "cold") == 0
    stored = results(cache_dir)
    victim = result_of_level(cache_dir, 3)
    corrupt(victim)
    assert victim.read_bytes() != stored[victim.name]
    capsys.readouterr()
    assert run_braid(config, cache_dir, tmp_path / "warm", "--verbose") == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("result")] == [
        "result hit 2", "result corrupt 3", "result hit 4", "results: 2 hit, 0 miss, 1 corrupt"
    ]
    assert results(cache_dir) == stored
    assert files(tmp_path / "warm") == files(tmp_path / "cold")


def test_load_result_tells_miss_corrupt_and_hit_apart(tmp_path):
    config = braid_job(tmp_path)
    cache_dir = tmp_path / "c"
    assert run_braid(config, cache_dir, tmp_path / "o") == 0
    spec = cli.load_config(config).spec
    task = (spec, mi((3,)), 2, True, True, True)
    payload = cache.load(cache_dir, task)
    assert payload["level"] == [3] and payload["betti"] == [1, 3, 2]
    others = [(spec, mi((3,)), 1, True, True, True), (spec, mi((3,)), 2, False, True, True)]
    others += [(arrangement.family_mkr(1, 3, 1), mi((3,)), 2, True, True, True)]
    for other in others:
        assert cache.load(cache_dir, other) is None
    CORRUPTIONS["missing degree"](cache_dir / f"{cache.result_key(task)}.result.txt")
    with pytest.raises(ValueError):
        cache.load(cache_dir, task)


def test_payload_with_a_fraction_is_not_stored(tmp_path):
    spec = cli.load_config(braid_job(tmp_path)).spec
    task = (spec, mi((2,)), 1, True, True, False)
    payload = {"level": (2,), "betti": [1, 1], "characters": [(1, 1), (1, -1)], "generators": None}
    assert cache.store(tmp_path / "c", task, payload) is not None
    from fractions import Fraction

    payload["characters"] = [(1, 1), (1, Fraction(-1, 2))]
    assert cache.store(tmp_path / "d", task, payload) is None
    assert not (tmp_path / "d").exists()


def test_another_source_digest_is_a_miss(tmp_path, capsys, monkeypatch):
    config = braid_job(tmp_path)
    cache_dir = tmp_path / "c"
    assert run_braid(config, cache_dir, tmp_path / "cold") == 0
    stored = results(cache_dir)
    capsys.readouterr()
    monkeypatch.setattr(cache, "source_digest", lambda: "0" * 64)
    assert run_braid(config, cache_dir, tmp_path / "warm", "--verbose") == 0
    err = capsys.readouterr().err
    assert "results: 0 hit, 3 miss, 0 corrupt" in err.splitlines()
    # the edited sources' results overwrite the old ones: one file per task
    assert set(results(cache_dir)) == set(stored) and len(stored) == 3
    for name, data in results(cache_dir).items():
        assert data != stored[name]
        assert data.decode("utf-8").splitlines()[1] == "source-sha256=" + "0" * 64
        assert data.splitlines()[2:] == stored[name].splitlines()[2:]
    assert files(tmp_path / "warm") == files(tmp_path / "cold")


def test_source_digest_covers_every_source_file():
    digest = hashlib.sha256()
    for path in sorted(Path(cache.__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode("utf-8") + data)
    assert cache.source_digest() == digest.hexdigest()


def test_a_wider_level_range_computes_only_the_new_level(tmp_path, monkeypatch):
    computed = []
    real_worker = cli._level_worker
    monkeypatch.setattr(cli, "_level_worker", lambda task: computed.append(task[1]) or real_worker(task))
    cache_dir = tmp_path / "c"
    outputs = ("betti", "characters", "stability")
    assert run_braid(braid_job(tmp_path, levels=(3, 6), outputs=outputs), cache_dir, tmp_path / "o1") == 0
    assert computed == [mi((n,)) for n in range(3, 7)]
    computed.clear()
    assert run_braid(braid_job(tmp_path, levels=(3, 7), outputs=outputs), cache_dir, tmp_path / "o2") == 0
    assert computed == [mi((7,))]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_all_hit_warm_job_builds_loads_traces_and_forks_nothing(tmp_path, monkeypatch, jobs):
    config = braid_job(tmp_path)
    cache_dir = tmp_path / "c"
    assert run_braid(config, cache_dir, tmp_path / "cold", "--jobs", jobs) == 0
    monkeypatch.setattr(arrangement, "build_lattice", never("build_lattice"))
    monkeypatch.setattr(arrangement.IntersectionLattice, "__init__", never("IntersectionLattice"))
    monkeypatch.setattr(homology, "LatticeHomology", never("LatticeHomology"))
    monkeypatch.setattr(os, "fork", never("os.fork"))
    assert run_braid(config, cache_dir, tmp_path / "warm", "--jobs", jobs) == 0
    assert files(tmp_path / "warm") == files(tmp_path / "cold")


def test_warm_freeness_job_makes_no_order_table(tmp_path, monkeypatch):
    # the freeness check reads its stored step, and no lattice at all
    config = braid_job(tmp_path, outputs=("betti", "characters", "freeness"))
    cache_dir = tmp_path / "c"
    assert run_braid(config, cache_dir, tmp_path / "cold") == 0
    monkeypatch.setattr(arrangement.IntersectionLattice, "_order_table", never("_order_table"))
    assert run_braid(config, cache_dir, tmp_path / "warm") == 0
    assert files(tmp_path / "warm") == files(tmp_path / "cold")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_warm_readme_job_constructs_no_lattice(tmp_path, monkeypatch, capsys, jobs):
    # every output of the README job, the freeness check's orbit table
    # included, reads stored results alone
    workload = json.loads(WORKLOADS.read_text(encoding="utf-8"))["readme"]
    config = tmp_path / "job.json"
    config.write_text(json.dumps(workload["config"]), encoding="utf-8")
    cache_dir = tmp_path / "c"
    assert run_braid(config, cache_dir, tmp_path / "cold", "--jobs", jobs) == 2
    cold = capsys.readouterr()
    assert sorted(p.name.split(".", 1)[1] for p in cache_dir.iterdir()) == ["result.txt"] * 6
    monkeypatch.setattr(arrangement, "build_lattice", never("build_lattice"))
    monkeypatch.setattr(arrangement.IntersectionLattice, "__init__", never("IntersectionLattice"))
    assert run_braid(config, cache_dir, tmp_path / "warm", "--jobs", jobs) == 2
    assert capsys.readouterr() == cold
    assert files(tmp_path / "warm") == files(tmp_path / "cold")


def freeness_step_file(cache_dir: Path) -> Path:
    (path,) = [path for path in cache_dir.glob("*.result.txt") if "orbits" in body(path)]
    return path


STEP_CORRUPTIONS = {
    "bad checksum": CORRUPTIONS["bad checksum"],
    "class without its serialization": lambda path: rewrite(
        path, edited("classes", lambda rows: [row[:3] for row in rows])
    ),
    "orbit table of a missing level": lambda path: rewrite(path, edited("orbits", lambda tables: tables[:-1])),
    "orbit row of no class": lambda path: rewrite(
        path, edited("orbits", lambda tables: [[[99, 1, 1]]] + tables[1:])
    ),
}


@pytest.mark.parametrize("corrupt", STEP_CORRUPTIONS.values(), ids=STEP_CORRUPTIONS)
def test_corrupt_freeness_step_is_recomputed_and_rewritten(tmp_path, capsys, corrupt):
    config = braid_job(tmp_path, outputs=("betti", "characters", "freeness"))
    cache_dir = tmp_path / "c"
    assert run_braid(config, cache_dir, tmp_path / "cold") == 0
    stored = results(cache_dir)
    victim = freeness_step_file(cache_dir)
    assert [len(rows) for rows in body(victim)["orbits"]] == [1, 2, 3]
    corrupt(victim)
    capsys.readouterr()
    assert run_braid(config, cache_dir, tmp_path / "warm", "--verbose") == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("result")] == [
        "result hit 2", "result hit 3", "result hit 4", "results: 3 hit, 0 miss, 0 corrupt", "result corrupt freeness"
    ]
    assert results(cache_dir) == stored
    assert files(tmp_path / "warm") == files(tmp_path / "cold")


def test_cold_freeness_job_decides_normality_once(tmp_path, monkeypatch):
    # the gate and the primitive classes share one verdict per spec
    from arrstab import checks

    config = braid_job(tmp_path, outputs=("freeness",))
    checks.verify_normal.cache_clear()
    assert run_braid(config, tmp_path / "c", tmp_path / "cold") == 0
    info = checks.verify_normal.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_verbose_events_stay_out_of_the_reports(tmp_path, capsys):
    config = braid_job(tmp_path)
    cache_dir = tmp_path / "c"
    assert run_braid(config, cache_dir, tmp_path / "quiet") == 0
    capsys.readouterr()
    for path in cache_dir.glob("*.result.txt"):
        path.unlink()
    assert run_braid(config, cache_dir, tmp_path / "cold", "--verbose") == 0
    assert run_braid(config, cache_dir, tmp_path / "warm", "--verbose") == 0
    err = capsys.readouterr().err.splitlines()
    events = [line for line in err if line.startswith("result")]
    assert events == [f"result miss {n}" for n in (2, 3, 4)] + ["results: 0 hit, 3 miss, 0 corrupt"] + [
        f"result hit {n}" for n in (2, 3, 4)
    ] + ["results: 3 hit, 0 miss, 0 corrupt"]
    assert files(tmp_path / "quiet") == files(tmp_path / "cold") == files(tmp_path / "warm")


# Runs an all-hit warm job in a fresh interpreter with ``os.fork`` raising,
# and prints its exit status and the arrstab modules it loaded.
WARM_PROBE = """
import os, sys
from arrstab.cli import main


def fork():
    raise AssertionError("forked")


os.fork = fork
code = main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m.startswith("arrstab.")))
"""


def test_all_hit_warm_kequals_job_compiles_no_engine(tmp_path):
    # a later eager import of the lattice, homology, checks or polynomial
    # code would undo the warm run's saving; this guards against it
    workload = json.loads(WORKLOADS.read_text(encoding="utf-8"))["kequals-closure"]
    config = tmp_path / "job.json"
    config.write_text(json.dumps(workload["config"]), encoding="utf-8")
    args = ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--jobs", str(workload["jobs"])]
    assert main(args + ["--out", str(tmp_path / "cold")]) == 0
    result = subprocess.run(
        [sys.executable, "-S", "-c", WARM_PROBE, *args, "--out", str(tmp_path / "warm")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    code, loaded = result.stdout.strip().split(" ", 1)
    assert code == "0"
    assert not {"arrstab.arrangement", "arrstab.homology", "arrstab.checks", "arrstab.polynomial"} & set(
        json.loads(loaded.replace("'", '"'))
    ), loaded
    assert files(tmp_path / "warm") == files(tmp_path / "cold")
