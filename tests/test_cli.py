import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arrstab import arrangement, cache, checks, cli, exactlin
from arrstab.arrangement import build_lattice, family_mkr
from arrstab.cli import list_catalog, load_config, main
from arrstab.fim import LatticeError, MultiIndex
from arrstab.homology import LatticeHomology

mi = MultiIndex
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"


def write_config(path: Path, **overrides) -> Path:
    data = {
        "family": {"kind": "mkr", "m": 1, "k": 2, "r": 1},
        "levels": {"min": [2], "max": [4]},
        "i_max": 2,
        "outputs": ["betti"],
    }
    data.update(overrides)
    target = path / "job.json"
    target.write_text(json.dumps(data), encoding="utf-8")
    return target


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def test_catalog_lists_named_families(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "braid = mkr(1,2,1)" in out
    assert "k-equals(k) = mkr(1,k,1)" in out
    assert "rational-maps(m) = mkr(m,1,1)" in out
    assert list_catalog() in out


def test_run_betti_rows_match_poincare_products(tmp_path):
    config = write_config(
        tmp_path, levels={"min": [2], "max": [5]}, i_max=3
    )
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)]
    )
    assert code == 0
    body = read(out / "betti.csv").splitlines()
    assert body[0] == "level,b0,b1,b2,b3"
    assert "3,1,3,2,0" in body
    assert "4,1,6,11,6" in body
    assert "5,1,10,35,50" in body
    report = json.loads(read(out / "report.json"))
    assert report["findings"] == []


def test_run_fit_prints_product_polynomial(tmp_path, capsys):
    config = write_config(
        tmp_path,
        family={"kind": "mkr", "m": 2, "k": 1, "r": 1},
        levels={"min": [1, 1], "max": [3, 3]},
        i_max=1,
        outputs=["fit"],
        fit_degree_bound=[1, 1],
    )
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fit i=1: X1^(1)*X1^(2)" in stdout
    report = json.loads(read(out / "report.json"))
    entry = next(e for e in report["results"]["fit"] if e["i"] == 1)
    assert entry["polynomial"] == "X1^(1)*X1^(2)"
    assert entry["multidegree"] == "1|1"


def test_invalid_family_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, family={"kind": "mkr", "m": 1, "k": 0, "r": 1})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_zero_denominator_in_a_custom_row_exits_one(tmp_path, capsys):
    family = {
        "kind": "custom",
        "m": 1,
        "r": 1,
        "generators": [{"degree": [2], "rows": [["1/0", "-1"]]}],
    }
    config = write_config(tmp_path, family=family)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "error: invalid family:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    [[True, "-0.5"], [" 1/2 ", -1], ["1e1", -1], ["1_0", -1], [False, 1], [0.5, -1]],
)
def test_undocumented_custom_row_entry_exits_one(tmp_path, capsys, row):
    # entries are integers or "p/q" strings: no bool, decimal, exponent,
    # digit separator or padding, and nothing is written
    family = {"kind": "custom", "m": 1, "r": 1, "generators": [{"degree": [2], "rows": [row]}]}
    config = write_config(tmp_path, family=family)
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid family: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["X0^(1)", "X1^(1)-", "--X1^(1)", "3/0"])
def test_bad_twisted_polynomial_exits_one(tmp_path, capsys, text):
    config = write_config(
        tmp_path, i_max=1, outputs=["twisted"], twisted_polynomial=text
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "error: bad twisted polynomial" in capsys.readouterr().err


def test_zero_exponent_twisted_polynomial_is_reported_as_computed(tmp_path):
    # X^0 = 1: the report names the constant whose values it computed
    config = write_config(
        tmp_path, i_max=1, outputs=["twisted"], twisted_polynomial="X1^(1)^0"
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(read(out / "report.json"))
    assert [e["polynomial"] for e in report["results"]["twisted"]] == ["1", "1"]
    assert [e["predicted_onset"] for e in report["results"]["twisted"]] == ["0", "2"]


def test_missing_config_exits_one(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("flag", ["--out", "--cache"])
def test_unusable_output_or_cache_path_exits_one_with_one_error_line(tmp_path, capsys, flag, jobs):
    config = write_config(tmp_path)
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory", encoding="utf-8")
    paths = {"--out": tmp_path / "out", "--cache": tmp_path / "cache", flag: blocker / "sub"}
    args = ["run", "--config", str(config), "--jobs", jobs]
    for name, path in paths.items():
        args += [name, str(path)]
    assert main(args) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(blocker) in lines[0]


def test_warm_cache_reruns_are_byte_identical(tmp_path):
    config = write_config(tmp_path, outputs=["betti", "characters", "stability"])
    cache_dir = tmp_path / "cache"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    args = ["run", "--config", str(config), "--cache", str(cache_dir)]
    assert main(args + ["--out", str(out1)]) == 0
    assert len(list(cache_dir.glob("*.result.txt"))) == 3
    assert not list(cache_dir.glob("*.lattice.txt"))
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("betti.csv", "characters.csv", "stability.csv", "report.json"):
        assert read(out1 / name) == read(out2 / name)


def test_corrupted_cache_recomputes(tmp_path):
    config = write_config(tmp_path)
    cache_dir = tmp_path / "cache"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(config), "--cache", str(cache_dir), "--out", str(out1)]) == 0
    stored = {path: path.read_bytes() for path in cache_dir.glob("*.result.txt")}
    for victim in stored:
        victim.write_text(read(victim).replace("payload-sha256=", "payload-sha256=00"), encoding="utf-8")
    assert main(["run", "--config", str(config), "--cache", str(cache_dir), "--out", str(out2)]) == 0
    assert read(out1 / "betti.csv") == read(out2 / "betti.csv")
    assert {path: path.read_bytes() for path in cache_dir.glob("*.result.txt")} == stored


def assert_same_files(dir1: Path, dir2: Path) -> None:
    names = sorted(p.name for p in dir1.iterdir())
    assert names == sorted(p.name for p in dir2.iterdir())
    for name in names:
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes(), name


def test_parallel_jobs_match_serial(tmp_path):
    config = write_config(tmp_path, outputs=["betti", "characters"])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(config), "--cache", str(tmp_path / "c1"), "--out", str(out1)]) == 0
    args = ["--cache", str(tmp_path / "c2"), "--out", str(out2), "--jobs", "2"]
    assert main(["run", "--config", str(config), *args]) == 0
    assert_same_files(out1, out2)
    assert_same_files(tmp_path / "c1", tmp_path / "c2")


PARITY_JOBS = {
    "braid": {"outputs": ["betti", "characters", "freeness", "stability"]},
    "mkr(2,1,1)": {
        "family": {"kind": "mkr", "m": 2, "k": 1, "r": 1},
        "levels": {"min": [1, 1], "max": [2, 2]},
        "outputs": ["betti", "characters", "freeness", "stability"],
    },
}


@pytest.mark.parametrize("cache_state", ["cold", "warm"])
@pytest.mark.parametrize("family", sorted(PARITY_JOBS))
@pytest.mark.parametrize("jobs", [2, 3, 9])
def test_parallel_jobs_match_serial_on_more_inputs(tmp_path, jobs, family, cache_state):
    config = write_config(tmp_path, **PARITY_JOBS[family])
    cache1 = tmp_path / "c1"
    cache2 = cache1 if cache_state == "warm" else tmp_path / "c2"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    base = ["run", "--config", str(config)]
    assert main(base + ["--cache", str(cache1), "--out", str(out1)]) == 0
    # the warm state shares the cache directory, its results removed, so the
    # levels and the freeness step are computed again
    for path in cache2.glob("*.result.txt"):
        path.unlink()
    assert main(base + ["--cache", str(cache2), "--out", str(out2), "--jobs", str(jobs)]) == 0
    assert_same_files(out1, out2)
    assert_same_files(cache1, cache2)


FREENESS_JOBS = {
    "braid 4..6": {"levels": {"min": [4], "max": [6]}, "i_max": 3},
    "braid 2..4": {"levels": {"min": [2], "max": [4]}, "i_max": 3},
    "two-generator FI^2": {
        "family": {
            "kind": "custom",
            "m": 2,
            "r": 1,
            "generators": [
                {"degree": [1, 1], "rows": [[1, -1]]},
                {"degree": [2, 0], "rows": [[1, -1]]},
            ],
        },
        "levels": {"min": [1, 1], "max": [2, 2]},
        "i_max": 2,
    },
}


def freeness_classes(out: Path) -> list:
    return [entry["classes"] for entry in json.loads(read(out / "report.json"))["results"]["freeness"]]


def fit_polynomials(out: Path) -> list:
    return [entry["polynomial"] for entry in json.loads(read(out / "report.json"))["results"]["fit"]]


@pytest.mark.parametrize("name", sorted(FREENESS_JOBS))
def test_class_degrees_outside_the_levels_match_for_every_jobs(tmp_path, name):
    # each class degree outside the levels is a task of its own, dealt to a
    # share like a level: reports and cache tree are the same for any --jobs
    outputs = ["betti", "characters", "fit", "freeness", "stability"]
    config = write_config(tmp_path, outputs=outputs, **FREENESS_JOBS[name])
    codes = set()
    for jobs in (1, 2, 3):
        base = ["run", "--config", str(config), "--cache", str(tmp_path / f"c{jobs}")]
        for phase in ("cold", "warm"):
            out = ["--out", str(tmp_path / f"{phase}{jobs}"), "--jobs", str(jobs)]
            codes.add(main(base + out))
    assert len(codes) == 1
    for jobs in (1, 2, 3):
        for phase in ("cold", "warm"):
            assert_same_files(tmp_path / "cold1", tmp_path / f"{phase}{jobs}")
        assert_same_files(tmp_path / "c1", tmp_path / f"c{jobs}")
    if name.startswith("braid"):
        # the generator characters do not depend on which degrees are levels
        whole = write_config(tmp_path, outputs=outputs, levels={"min": [2], "max": [6]}, i_max=3)
        args = ["run", "--config", str(whole), "--cache", str(tmp_path / "c1")]
        assert main(args + ["--out", str(tmp_path / "whole")]) == 0
        assert freeness_classes(tmp_path / "whole") == freeness_classes(tmp_path / "cold1")
        assert fit_polynomials(tmp_path / "whole") == fit_polynomials(tmp_path / "cold1")


def record_builds(monkeypatch, log: Path) -> None:
    """Append each lattice build's level and cutoff to ``log``, from the
    command's process and from its forked children alike."""
    original = arrangement.build_lattice

    def recording(spec, level, max_codim):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{level.render()} {max_codim}\n")
        return original(spec, level, max_codim)

    monkeypatch.setattr(arrangement, "build_lattice", recording)


def builds(log: Path) -> list[str]:
    out = sorted(read(log).splitlines()) if log.exists() else []
    log.unlink(missing_ok=True)
    return out


def test_freeness_builds_a_generator_degree_once(tmp_path, monkeypatch):
    # conf(2)'s one generator degree 2 has ambient dimension 4, above i_max:
    # with no second generator degree the normality check compares nothing,
    # so the job builds no whole lattice there, only the i_max one, whether
    # it asks for the freeness check or for the fit alone
    log = tmp_path / "builds.txt"
    record_builds(monkeypatch, log)
    for outputs in (["freeness"], ["fit"]):
        job = tmp_path / outputs[0]
        job.mkdir()
        config = write_config(
            job,
            family={"kind": "mkr", "m": 1, "k": 2, "r": 2},
            levels={"min": [4], "max": [5]},
            i_max=3,
            outputs=outputs,
        )
        for jobs in (1, 2):
            cache_dir = job / f"c{jobs}"
            built = {}
            for phase in ("cold", "warm"):
                args = ["--cache", str(cache_dir), "--out", str(job / f"{phase}{jobs}")]
                assert main(["run", "--config", str(config), *args, "--jobs", str(jobs)]) == 0
                assert_same_files(job / "cold1", job / f"{phase}{jobs}")
                built[phase] = builds(log)
            # degree 2 is the one class degree of codim <= 3 outside the levels;
            # one process builds each once, and a forked share's lattices are
            # built again where the freeness step reads them
            assert set(built["cold"]) == {"2 3", "4 3", "5 3"}, outputs
            if jobs == 1:
                assert built["cold"] == ["2 3", "4 3", "5 3"], outputs
            assert built["warm"] == [], outputs
            # each of the three is one task with one stored result, and the
            # freeness step is one more
            results = len(list(cache_dir.glob("*.result.txt")))
            assert results == 3 + (outputs == ["freeness"]), outputs
            assert not list(cache_dir.glob("*.lattice.txt"))


def test_fit_and_freeness_compare_each_induced_character_once(tmp_path, monkeypatch):
    # the run compares H^i's induced character with its character once per
    # (i, level), and both outputs read that one comparison
    levels = []
    real = checks.induced_character
    monkeypatch.setattr(
        checks, "induced_character", lambda table, level: levels.append(level) or real(table, level)
    )
    config = write_config(tmp_path, outputs=["fit", "freeness"])
    args = ["--cache", str(tmp_path / "c"), "--out", str(tmp_path / "o")]
    assert main(["run", "--config", str(config), *args]) == 0
    assert sorted(levels) == sorted(mi((n,)) for n in (2, 3, 4) for _ in range(3))


def test_jobs_without_fork_run_in_process(tmp_path, monkeypatch):
    config = write_config(tmp_path, **PARITY_JOBS["braid"])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    base = ["run", "--config", str(config), "--cache", str(tmp_path / "c")]
    assert main(base + ["--out", str(out1)]) == 0
    pids = []
    real_worker = cli._level_worker

    def worker(task):
        pids.append(os.getpid())
        return real_worker(task)

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "_level_worker", worker)
    # a cache of its own, so that no stored result spares a level
    base[-1] = str(tmp_path / "c2")
    assert main(base + ["--out", str(out2), "--jobs", "2"]) == 0
    assert pids == [os.getpid()] * 3
    assert_same_files(out1, out2)


def test_jobs_fork_one_child_per_share_beyond_the_first(tmp_path, monkeypatch):
    # three levels: --jobs 64 makes three shares, the command's own and two
    # forked children
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    config = write_config(tmp_path)
    base = ["run", "--config", str(config), "--cache", str(tmp_path / "c")]
    assert main(base + ["--out", str(tmp_path / "o"), "--jobs", "64"]) == 0
    assert len(forks) == 2


def test_split_levels_balances_by_group_order():
    def tasks(*levels):
        return [(None, mi(level), 1, True, True, False, None) for level in levels]

    def split(task_list, jobs):
        return [[t[1] for t in share] for share in cli._split_levels(task_list, jobs)]

    # k-equals n=3..7 at --jobs 2: 7! outweighs the rest, so the command
    # computes level 7 and one child computes levels 3-6
    assert split(tasks((3,), (4,), (5,), (6,), (7,)), 2) == [
        [mi((7,))],
        [mi((6,)), mi((5,)), mi((4,)), mi((3,))],
    ]
    # ties in |Aut(n)| go by level, ties in share totals to the lower share
    assert split(tasks((1, 1), (1, 2), (2, 1), (2, 2)), 3) == [
        [mi((2, 2))],
        [mi((1, 2)), mi((1, 1))],
        [mi((2, 1))],
    ]
    assert split(tasks((2,), (3,)), 9) == [[mi((3,))], [mi((2,))]]


# Runs ``arrstab run --jobs 2`` on a three-level job (levels 2-4; the command
# computes level 4, one child levels 2 and 3) with a failure injected, then
# reports the exit status and whether any child is left unreaped.
FAILURE_PROBE = """
import json, os, sys, time
from arrstab import cli
from arrstab.fim import LatticeError

case, config, work = sys.argv[1:]
parent = os.getpid()
real_worker = cli._level_worker


def worker(task):
    if os.getpid() == parent:
        if case == "parent-raises":
            time.sleep(0.5)  # the child is blocked writing its payload by now
            raise LatticeError("injected in the parent")
        return real_worker(task)
    if case == "child-raises":
        raise LatticeError("injected in a child")
    if case == "child-exits":
        os._exit(0)
    payload = real_worker(task)
    payload["padding"] = "x" * (256 * 1024)
    return payload


cli._level_worker = worker
code = cli.main(
    ["run", "--config", config, "--cache", work + "/c", "--out", work + "/o", "--jobs", "2"]
)
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(json.dumps({"code": code, "reaped": reaped}))
"""


def run_python(source: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    src = Path(cli.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, *flags, "-c", source, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


@pytest.mark.parametrize(
    "case, message",
    [
        ("child-raises", "internal error: injected in a child"),
        (
            "child-exits",
            "internal error: level worker for levels 2, 3 exited without a result",
        ),
        ("parent-raises", "internal error: injected in the parent"),
    ],
)
def test_forked_share_failure_exits_three_with_children_reaped(tmp_path, case, message):
    config = write_config(tmp_path)
    result = run_python(FAILURE_PROBE, case, str(config), str(tmp_path))
    assert json.loads(result.stdout) == {"code": 3, "reaped": True}
    assert message in result.stderr


# --- the exit hook ------------------------------------------------------------


def test_exit_hook_freezes_the_heap_only_at_interpreter_exit():
    # atexit handlers run last in, first out: one registered before main
    # runs after main's hook
    probe = (
        "import atexit, gc\n"
        "from arrstab.cli import main\n"
        "atexit.register(lambda: print('at exit', gc.get_freeze_count() > 0))\n"
        "main(['catalog'])\n"
        "print('after main', gc.get_freeze_count())\n"
    )
    lines = run_python(probe).stdout.splitlines()
    assert lines[-2:] == ["after main 0", "at exit True"]


def test_main_registers_one_exit_hook_per_interpreter():
    probe = (
        "import atexit\n"
        "from arrstab.cli import main\n"
        "counts = [atexit._ncallbacks()]\n"
        "for _ in range(2):\n"
        "    main(['catalog'])\n"
        "    counts.append(atexit._ncallbacks())\n"
        "print(counts)\n"
    )
    before, once, twice = json.loads(run_python(probe).stdout.splitlines()[-1])
    assert (once, twice) == (before + 1, before + 1)


def test_readme_job_output_survives_the_exit_hook_on_a_pipe(tmp_path, capsys):
    # stdout to a pipe is block-buffered without PYTHONUNBUFFERED: every
    # line must still be flushed at exit, after the hook has run
    config = tmp_path / "readme.json"
    config.write_text(json.dumps(json.loads(read(WORKLOADS))["readme"]["config"]), encoding="utf-8")
    args = ["run", "--config", str(config), "--cache", str(tmp_path / "c")]
    assert main(args + ["--out", str(tmp_path / "in-process")]) == 2
    expected = capsys.readouterr()
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from arrstab.cli import main; sys.exit(main())"]
        + args + ["--out", str(tmp_path / "piped")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == expected.out
    assert result.stderr == expected.err
    assert sum(line.startswith("fit i=") for line in result.stdout.splitlines()) == 4
    assert sum(line.startswith("FINDING: ") for line in result.stderr.splitlines()) == 2
    assert_same_files(tmp_path / "in-process", tmp_path / "piped")


def test_stability_falsification_exits_two(tmp_path, capsys):
    config = write_config(
        tmp_path,
        levels={"min": [1], "max": [4]},
        i_max=1,
        outputs=["stability"],
        predicted_onset=[1],
    )
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)])
    assert code == 2
    assert "FINDING" in capsys.readouterr().err
    report = json.loads(read(out / "report.json"))
    assert report["findings"]


def test_exit_two_iff_findings(tmp_path):
    # same job with the theoretical onset predicts correctly: exit 0
    config = write_config(
        tmp_path,
        levels={"min": [2], "max": [5]},
        i_max=1,
        outputs=["stability"],
    )
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)])
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["findings"] == []


def test_readme_fit_findings_are_the_bound_alone(tmp_path, capsys):
    # P_2 and P_3 match every level; only their multidegrees exceed [2], and
    # without a bound the same job has no finding
    readme = json.loads(read(WORKLOADS))["readme"]["config"]
    expected = {
        2: ["fit i=2: multidegree 4 exceeds bound 2", "fit i=3: multidegree 6 exceeds bound 2"],
        0: [],
    }
    for code, findings in expected.items():
        config = {key: value for key, value in readme.items() if key != "fit_degree_bound" or code}
        path = tmp_path / f"job-{code}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / f"out-{code}"
        assert main(["run", "--config", str(path), "--cache", str(tmp_path / "c"), "--out", str(out)]) == code
        report = json.loads(read(out / "report.json"))
        assert report["findings"] == findings
        fits = report["results"]["fit"]
        assert [entry["multidegree"] for entry in fits] == ["0", "2", "4", "6"]
        assert all(all(entry["levels"].values()) for entry in fits)
        printed = capsys.readouterr()
        assert [line.split(":")[0] for line in printed.out.splitlines()] == [f"fit i={i}" for i in range(4)]
        assert printed.err == "".join(f"FINDING: {finding}\n" for finding in findings)


PADDED_FAMILY = {"kind": "custom", "m": 1, "r": 1, "generators": [{"degree": [3], "rows": [[1, -1, 0]]}]}


def test_fit_on_non_normal_spec_is_a_finding_where_freeness_is_an_error(tmp_path, capsys):
    # the padded generator's primitive classes miss the hyperplanes, so the
    # polynomial misses H^1 at each level; the fit runs no normality gate,
    # while the freeness check refuses the spec
    config = write_config(tmp_path, family=PADDED_FAMILY, levels={"min": [2], "max": [4]}, i_max=1, outputs=["fit"])
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)]) == 2
    findings = json.loads(read(out / "report.json"))["findings"]
    fit = [f.rsplit(" ", 1)[1] for f in findings if f.startswith("fit i=1: polynomial misses")]
    assert fit == ["3", "4"]
    capsys.readouterr()
    config = write_config(
        tmp_path, family=PADDED_FAMILY, levels={"min": [2], "max": [4]}, i_max=1, outputs=["fit", "freeness"]
    )
    out = tmp_path / "both"
    assert main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: spec is not normal on its generator degrees\n"
    assert not (out / "report.json").exists()


def test_freeness_and_twisted_and_normalize_outputs(tmp_path):
    config = write_config(
        tmp_path,
        levels={"min": [2], "max": [4]},
        i_max=2,
        outputs=["freeness", "twisted", "normalize"],
        twisted_polynomial="X1^(1)",
    )
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)])
    assert code == 0
    freeness = read(out / "freeness.csv").splitlines()
    assert freeness[0] == "i,level,match"
    assert all(line.endswith("yes") for line in freeness[1:])
    twisted = read(out / "twisted.csv").splitlines()
    assert "1,3,2" in twisted  # twisted Betti of H^1 against X1 is 2 from n=3
    norm = json.loads(read(out / "normalization.json"))
    assert norm["changed"] is False
    report = json.loads(read(out / "report.json"))
    assert "orbits" in report["results"]


def test_twisted_output_evaluates_the_polynomial_once_per_level(tmp_path, monkeypatch):
    from arrstab.polynomial import CharacterPolynomial

    calls = []
    original = CharacterPolynomial.as_class_function
    monkeypatch.setattr(
        CharacterPolynomial,
        "as_class_function",
        lambda poly, level: calls.append(level) or original(poly, level),
    )
    config = write_config(tmp_path, i_max=2, outputs=["twisted"], twisted_polynomial="X1^(1)")
    assert main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(tmp_path / "o")]) == 0
    assert sorted(calls) == [mi((2,)), mi((3,)), mi((4,))]


def test_custom_family_normalization_diff(tmp_path):
    config = write_config(
        tmp_path,
        family={
            "kind": "custom",
            "m": 1,
            "r": 1,
            "generators": [{"degree": [3], "rows": [[1, -1, 0]]}],
        },
        levels={"min": [3], "max": [4]},
        i_max=1,
        outputs=["normalize", "betti"],
    )
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)])
    assert code == 0
    norm = json.loads(read(out / "normalization.json"))
    assert norm["changed"] is True
    assert norm["normalized"][0]["degree"] == "2"
    assert norm["normalized"][0]["subspace"] == "2:1,-1"


def test_freeness_on_non_normal_spec_is_an_error(tmp_path, capsys, monkeypatch):
    # a padded generator violates the freeness theorem's hypotheses; the
    # normality gate refuses it, with every output, as its two-degree sibling,
    # before any level task runs: no report, and no result stored
    monkeypatch.setattr(cli, "_level_worker", never_called)
    twisted = {"twisted_polynomial": "X1^(1)"}
    outputs = ["betti", "characters", "fit", "freeness", "stability", "twisted", "normalize"]
    sibling = {**PADDED_FAMILY, "generators": [{"degree": [2], "rows": [[1, 1]]}, *PADDED_FAMILY["generators"]]}
    for family in (PADDED_FAMILY, sibling):
        config = write_config(tmp_path, family=family, levels={"min": [2], "max": [5]}, outputs=outputs, **twisted)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: spec is not normal on its generator degrees\n"
        for name in ("report.json", "betti.csv", "characters.csv"):
            assert not (out / name).exists(), name
        assert not list((tmp_path / "c").glob("*.result.txt"))


def test_orbit_table_of_a_class_missing_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # with a sound normality gate only a fault leaves an element matched by
    # no primitive class: the job exits 3 and writes no report
    real_classes = checks.primitive_classes
    monkeypatch.setattr(checks, "primitive_classes", lambda *args: real_classes(*args)[1:])
    config = write_config(tmp_path, i_max=1, outputs=["freeness"])
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.endswith("matched by no primitive class\n")
    assert not (out / "report.json").exists()


def test_freeness_class_above_the_degree_bound_is_a_finding(tmp_path, capsys, monkeypatch):
    # no primitive class of codim c lies above c * cmax, so the class is
    # synthetic: codim 1 at degree 3, above 1 * 2, with a zero generator
    # character at level 3, so that only the degree check can fail
    from arrstab.fim import ClassFunction, conj_classes
    from arrstab.checks import PrimitiveClass

    high = exactlin.subspace_from_constraints(3, [[1, -1, 0]])
    real_classes = checks.primitive_classes
    real_characters = checks.primitive_characters

    def with_synthetic_class(spec, max_codim, get_lattice):
        return real_classes(spec, max_codim, get_lattice) + (
            PrimitiveClass(mi((3,)), (high,), 2, ()),
        )

    def with_its_character(spec, ctx, i):
        out = real_characters(spec, ctx, i)
        if ctx.lattice.level == mi((3,)):
            out[high.serialization] = ClassFunction(mi((3,)), dict.fromkeys(conj_classes(mi((3,))), 0))
        return out

    monkeypatch.setattr(checks, "primitive_classes", with_synthetic_class)
    monkeypatch.setattr(checks, "primitive_characters", with_its_character)
    config = write_config(tmp_path, i_max=1, outputs=["freeness"])
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)])
    assert code == 2
    finding = "freeness i=1: class degree 3 exceeds bound 2"
    assert capsys.readouterr().err == f"FINDING: {finding}\n"
    report = json.loads(read(out / "report.json"))
    assert report["findings"] == [finding]
    assert [c["degree_bound_ok"] for c in report["results"]["freeness"][1]["classes"]] == [True, False]


def test_freeness_job_builds_each_level_once(tmp_path, monkeypatch):
    # the level workers and the freeness step share the command's memo, so a
    # cold job builds each level's lattice once, and a warm one reads the
    # stored step and builds none
    log = tmp_path / "builds.txt"
    record_builds(monkeypatch, log)
    config = write_config(
        tmp_path, levels={"min": [2], "max": [6]}, i_max=3, outputs=["freeness"]
    )
    base = ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--jobs", "1"]
    for phase, expected in (("cold", [f"{n} 3" for n in range(2, 7)]), ("warm", [])):
        assert main(base + ["--out", str(tmp_path / phase)]) == 0
        assert builds(log) == expected, phase
    assert_same_files(tmp_path / "cold", tmp_path / "warm")


def plant_old_lattice_file(cache_dir: Path, key: str) -> None:
    """A lattice file as earlier versions wrote one beside the results."""
    (cache_dir / f"{key}.lattice.txt").write_text("arrstab-lattice v4\nlevel=3\n", encoding="utf-8")


def test_clean_cache_subcommand(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(["run", "--config", str(write_config(tmp_path)), "--cache", str(cache_dir), "--out", str(tmp_path / "o")]) == 0
    assert sorted(p.name.split(".", 1)[1] for p in cache_dir.iterdir()) == ["result.txt"] * 3
    # the lattice files of earlier versions go too
    for key in ("0" * 64, "1" * 64):
        plant_old_lattice_file(cache_dir, key)
    capsys.readouterr()
    assert main(["clean-cache", "--cache", str(cache_dir)]) == 0
    assert capsys.readouterr().out == f"removed 2 cached lattice(s) and 3 cached result(s) from {cache_dir}\n"
    assert not list(cache_dir.iterdir())


@pytest.mark.parametrize("where", ["a regular file", "a path under a regular file"])
def test_clean_cache_on_a_file_exits_one_with_one_error_line(tmp_path, capsys, where):
    # as ``run`` does on the same path; the file is left alone
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory", encoding="utf-8")
    target = blocker if where == "a regular file" else blocker / "sub"
    assert main(["clean-cache", "--cache", str(target)]) == 1
    printed = capsys.readouterr()
    lines = printed.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(blocker) in lines[0]
    assert printed.out == ""
    assert read(blocker) == "not a directory"


def test_clean_cache_on_a_missing_directory_removes_nothing(tmp_path, capsys):
    missing = tmp_path / "never-made"
    assert main(["clean-cache", "--cache", str(missing)]) == 0
    assert capsys.readouterr().out == f"removed 0 cached lattice(s) and 0 cached result(s) from {missing}\n"
    assert not missing.exists()


def test_clean_cache_removes_interrupted_stores_and_no_foreign_file(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    spec = family_mkr(1, 2, 1)
    temps = []

    def interrupted(src, dst):
        temps.append(Path(src).name)
        raise OSError("interrupted before the rename")

    task = (spec, mi((2,)), 1, True, False, False)
    payload = {"level": (2,), "betti": [1, 1], "characters": None, "generators": None}
    cache.store(cache_dir, task, payload)
    plant_old_lattice_file(cache_dir, "0" * 64)
    monkeypatch.setattr(cache.os, "replace", interrupted)
    for n in (3, 4):
        with pytest.raises(OSError):
            cache.store(cache_dir, (spec, mi((n,)), 1, True, False, False), {**payload, "level": (n,)})
    monkeypatch.undo()
    assert len(temps) == 2
    # a store killed by SIGKILL at that point skips its cleanup: plant the files
    for name in temps:
        (cache_dir / name).write_text("partial", encoding="utf-8")
    foreign = ["tmpk2j4x9.tmp", "notes.txt", "arrstab-notes.txt", "notes.result.json"]
    for name in foreign:
        (cache_dir / name).write_text("not the cache's", encoding="utf-8")
    assert main(["clean-cache", "--cache", str(cache_dir)]) == 0
    assert "removed 1 cached lattice(s) and 1 cached result(s)" in capsys.readouterr().out
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(foreign)


def test_env_variable_overrides_cache_dir(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    env_cache = tmp_path / "env-cache"
    monkeypatch.setenv("ARRSTAB_CACHE", str(env_cache))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert any(env_cache.glob("*.result.txt"))


def test_cache_miss_on_other_parameters(tmp_path):
    spec = family_mkr(1, 2, 1)
    task = (spec, mi((3,)), 1, True, False, False)
    cache.store(tmp_path, task, {"level": (3,), "betti": [1, 3], "characters": None, "generators": None})
    assert cache.load(tmp_path, task) == {"level": [3], "betti": [1, 3], "characters": None, "generators": None}
    for other in [
        (spec, mi((3,)), 2, True, False, False),
        (spec, mi((4,)), 1, True, False, False),
        (spec, mi((3,)), 1, True, True, False),
        (family_mkr(1, 3, 1), mi((3,)), 1, True, False, False),
        (spec, (mi((3,)),), 1),
    ]:
        assert cache.load(tmp_path, other) is None


def test_cache_tolerates_garbage_files(tmp_path):
    # a file that is no result is corrupt: the load says so, and a run
    # computes the task again and overwrites it
    config = write_config(tmp_path, levels={"min": [3], "max": [3]})
    cache_dir = tmp_path / "c"
    assert main(["run", "--config", str(config), "--cache", str(cache_dir), "--out", str(tmp_path / "o1")]) == 0
    (path,) = cache_dir.iterdir()
    stored = path.read_bytes()
    task = (family_mkr(1, 2, 1), mi((3,)), 2, True, False, False)
    for garbage in ("complete nonsense\nnot a result\n", ""):
        path.write_text(garbage, encoding="utf-8")
        with pytest.raises(ValueError):
            cache.load(cache_dir, task)
        assert main(["run", "--config", str(config), "--cache", str(cache_dir), "--out", str(tmp_path / "o2")]) == 0
        assert path.read_bytes() == stored
        assert_same_files(tmp_path / "o1", tmp_path / "o2")


# SHA-256 of each cold result file's payload line, by level, which is the
# payload the previous result format stored for the same tasks
CACHE_DIGESTS = {
    "braid": (
        {"family": {"kind": "mkr", "m": 1, "k": 2, "r": 1}, "levels": {"min": [2], "max": [5]}, "i_max": 3},
        {
            2: "e80a8d7d81358ff48d8daf0db31491a2a294dc868458f20d32823b690093ddfd",
            3: "e331674a2b647a398d5c1c21731ebb16a5c667f5d56e1c3f93fde7b3eafef358",
            4: "c1e8343dff20779b8be71f7f06155fc11e2c4a9d27de97d9f1609d5bc2b01ba9",
            5: "361349515b1fd368c13047dfe89f84222488e6d989f6e4cc15797fbd04961917",
        },
    ),
    "k-equals": (
        {"family": {"kind": "mkr", "m": 1, "k": 3, "r": 1}, "levels": {"min": [3], "max": [6]}, "i_max": 4},
        {
            3: "005617499eacd70b5d353217d8dc7d1be24072a82865cb3eec1ec8e2da755f1e",
            4: "08be95af941e3cca8a5eae2b9a8ec4f02ab6629bac0daa1372bd2826c500673a",
            5: "a952e0e35f9a4b3f34dfb17565afcf942d30e1d96eab296719d9e723670bfd54",
            6: "bc45ccf8359a82d15b9e3b16f06aa42d71f38e93c197a32e46257696435ee128",
        },
    ),
}


@pytest.mark.parametrize("job", sorted(CACHE_DIGESTS))
def test_cold_cache_files_keep_their_bytes(tmp_path, job):
    family, digests = CACHE_DIGESTS[job]
    config = write_config(tmp_path, **family, outputs=["betti", "characters"])
    args = ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(tmp_path / "o")]
    assert main(args) == 0
    found = {}
    for path in (tmp_path / "c").iterdir():
        magic, source, checksum, payload = read(path).splitlines()
        assert (magic, source) == ("arrstab-result v2", f"source-sha256={cache.source_digest()}")
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert checksum == f"payload-sha256={digest}"
        found[json.loads(payload)["level"][0]] = digest
    assert found == digests


def doctored(lat, keep, labels):
    """``lat`` with only the elements ``keep`` and the orbit labels ``labels``."""
    return arrangement.IntersectionLattice(
        lat.level,
        lat.max_codim,
        lat.r,
        [lat.elements[i] for i in keep],
        [lat.atoms[i] for i in keep],
        labels,
        lat.atom_names,
    )


def build_doctored(monkeypatch, level, doctor) -> None:
    """Make the builder return ``doctor(lattice)`` at ``level``."""
    original = arrangement.build_lattice

    def building(spec, n, max_codim):
        lat = original(spec, n, max_codim)
        return doctor(lat) if n == level else lat

    monkeypatch.setattr(arrangement, "build_lattice", building)


def test_merged_orbits_fail_hall_and_exit_three(tmp_path, capsys, monkeypatch):
    # braid n=5 at codim 2: the 10 elements of type {3,1,1} have mu = 2, the
    # 15 of type {2,2,1} have mu = 1.  A lattice that merges the two orbits
    # passes its own checks, but one Betti vector cannot serve both.
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((5,)), 2)
    assert sorted({len(orbit) for orbit in lat.orbits[10:]}) == [10, 15]

    def merge(lat):
        return doctored(lat, range(len(lat)), [0] * 10 + [10] * 25)

    merged = merge(lat)
    assert merged.orbits[10] == tuple(range(10, 35))
    with pytest.raises(LatticeError, match="Hall's theorem"):
        LatticeHomology(merged).betti_report(2)
    build_doctored(monkeypatch, mi((5,)), merge)
    config = write_config(tmp_path, levels={"min": [5], "max": [5]})
    cache_dir = tmp_path / "cache"
    code = main(["run", "--config", str(config), "--cache", str(cache_dir), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "internal error: interval of element" in capsys.readouterr().err
    # a failed job stores no result
    assert not list(cache_dir.glob("*.result.txt"))


def test_lattice_missing_an_orbit_member_exits_three(tmp_path, capsys, monkeypatch):
    # a lattice that lost one element: the group action leaves the lattice,
    # an internal error rather than a usage error
    config = write_config(tmp_path, outputs=["betti", "characters"])

    def shorten(lat):
        return doctored(lat, range(len(lat) - 1), [orbit[0] for orbit in lat.orbits[:-1]])

    lat = build_lattice(family_mkr(1, 2, 1), mi((4,)), 2)
    assert len(shorten(lat)) == len(lat) - 1
    build_doctored(monkeypatch, mi((4,)), shorten)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--cache", str(tmp_path / "cache"), "--out", str(out)])
    assert code == 3
    assert "internal error: group action left the lattice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error", [AssertionError("broken invariant"), KeyError("missing element")]
)
def test_engine_error_exits_three(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(LatticeHomology, "betti_report", fail)
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)])
    assert code == 3
    assert f"internal error: {error}" in capsys.readouterr().err


def test_config_lookup_error_still_exits_one(tmp_path, capsys):
    config = write_config(tmp_path)
    data = json.loads(read(config))
    del data["levels"]["max"]
    config.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "error: invalid config" in capsys.readouterr().err


def test_cli_import_leaves_the_process_pool_unloaded(tmp_path):
    # ``--jobs`` forks its children itself, so neither an import nor a
    # parallel run loads a process pool
    probe = "import sys, arrstab.cli; print('concurrent.futures' in sys.modules)"
    assert run_python(probe).stdout.strip() == "False"
    config = write_config(tmp_path)
    probe = (
        "import sys\n"
        "from arrstab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    args = ["run", "--config", str(config), "--cache", str(tmp_path / "c")]
    args += ["--out", str(tmp_path / "o"), "--jobs", "2"]
    assert run_python(probe, *args).stdout.strip() == "0 []"


def test_parallel_cold_and_warm_runs_leave_pickle_unloaded(tmp_path):
    # a forked share's payloads are plain data and cross the pipe as marshal
    # data; only an exception or a Fraction value is pickled
    config = write_config(tmp_path, outputs=["betti", "characters", "freeness"])
    probe = (
        "import sys\n"
        "from arrstab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, [m for m in ('pickle', '_pickle') if m in sys.modules])\n"
    )
    args = ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--jobs", "2"]
    for state in ("cold", "warm"):
        out = run_python(probe, *args, "--out", str(tmp_path / state), flags=("-S",))
        assert out.stdout.splitlines()[-1] == "0 []", state
    assert read(tmp_path / "cold" / "report.json") == read(tmp_path / "warm" / "report.json")


def test_forked_share_pickles_only_what_marshal_cannot_carry(monkeypatch):
    from fractions import Fraction

    def worker(task):
        if task == "raises":
            raise LatticeError("injected in a child")
        return {"level": task, "value": Fraction(1, 2) if task == "fraction" else [3, (4,)]}

    monkeypatch.setattr(cli, "_level_worker", worker)
    assert cli._run_shares([["here"], ["plain"], ["fraction"]]) == [
        {"level": "here", "value": [3, (4,)]},
        {"level": "plain", "value": [3, (4,)]},
        {"level": "fraction", "value": Fraction(1, 2)},
    ]
    with pytest.raises(LatticeError, match="injected in a child"):
        cli._run_shares([["here"], ["raises"]])


def test_cli_import_leaves_dataclasses_and_inspect_unloaded(tmp_path):
    # the value classes come from ``arrstab.record``, so start-up compiles
    # no generated methods and loads neither ``dataclasses`` nor ``inspect``
    unwanted = "('dataclasses', 'inspect')"
    probe = f"import sys, arrstab.cli; print([m for m in {unwanted} if m in sys.modules])"
    assert run_python(probe).stdout.strip() == "[]"
    config = write_config(
        tmp_path,
        i_max=1,
        outputs=list(cli.OUTPUT_KINDS),
        fit_degree_bound=[2],
        twisted_polynomial="X1^(1)",
    )
    probe = (
        "import sys\n"
        "from arrstab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(code, [m for m in {unwanted} if m in sys.modules])\n"
    )
    args = ["run", "--config", str(config), "--cache", str(tmp_path / "c")]
    args += ["--out", str(tmp_path / "o"), "--jobs", "2"]
    assert run_python(probe, *args).stdout.splitlines()[-1] == "0 []"


def test_cli_import_leaves_tempfile_unloaded():
    # only ``cache.store`` needs ``tempfile``, and imports it itself; ``-S``
    # keeps site hooks, which may load it on their own, out of the probe
    probe = "import sys, arrstab.cli; print('tempfile' in sys.modules)"
    assert run_python(probe, flags=("-S",)).stdout.strip() == "False"


ENGINE_MODULES = (
    "arrstab.arrangement",
    "arrstab.homology",
    "arrstab.characters",
    "arrstab.cache",
    "arrstab.checks",
)
# the code of the optional outputs (freeness and normalize, fit and twisted)
# lives in one home
OPTIONAL_HOMES = dict.fromkeys(
    (
        "is_primitive", "NormalityViolation", "NormalityReport", "verify_normal", "_degrees_below",
        "class_degrees", "normalize", "PrimitiveClass", "primitive_classes", "OrbitDecomposition",
        "orbit_decomposition", "primitive_characters", "primitive_table", "induced_character",
        "FreenessClassSummary", "FreenessReport", "verify_free_decomposition", "class_degree_bound", "fit_character_polynomial", "twisted_betti",
    ),
    "arrstab.checks",
)


def test_load_config_leaves_the_engine_unloaded(tmp_path):
    # loading a config needs record, fim and exactlin only, and polynomial
    # for a twisted polynomial: the engine, the cache, ``hashlib`` and
    # ``csv`` wait until a command runs them
    config_layer = ["arrstab", "arrstab.cli", "arrstab.exactlin", "arrstab.fim"]
    unwanted = ENGINE_MODULES + ("hashlib", "_hashlib", "csv")
    probe = (
        "import sys, arrstab.cli\n"
        "arrstab.cli.load_config(sys.argv[1])\n"
        f"print([m for m in {unwanted} if m in sys.modules])\n"
        "print(sorted(m for m in sys.modules if m.startswith('arrstab')))\n"
    )
    for name, extra in [("kequals-closure", []), ("readme", ["arrstab.polynomial"])]:
        config = tmp_path / f"{name}.json"
        config.write_text(
            json.dumps(json.loads(read(WORKLOADS))[name]["config"]), encoding="utf-8"
        )
        loaded = run_python(probe, str(config), flags=("-S",)).stdout.splitlines()
        assert loaded[0] == "[]", name
        assert loaded[1] == str(config_layer + extra + ["arrstab.record"]), name


def test_cold_and_warm_runs_leave_hashlib_unloaded(tmp_path):
    # the cache hashes with the interpreter's built-in SHA-256, so no run
    # process loads ``hashlib`` or OpenSSL
    config = write_config(
        tmp_path,
        i_max=1,
        outputs=list(cli.OUTPUT_KINDS),
        fit_degree_bound=[2],
        twisted_polynomial="X1^(1)",
    )
    probe = (
        "import sys\n"
        "from arrstab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, [m for m in ('hashlib', '_hashlib') if m in sys.modules])\n"
    )
    args = ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--jobs", "2"]
    for state in ("cold", "warm"):
        out = run_python(probe, *args, "--out", str(tmp_path / state), flags=("-S",))
        assert out.stdout.splitlines()[-1] == "0 []", state
    assert list((tmp_path / "c").glob("*.result.txt"))
    assert read(tmp_path / "cold" / "report.json") == read(tmp_path / "warm" / "report.json")


def test_cold_and_warm_one_job_runs_leave_pickle_unloaded(tmp_path):
    # one share runs in the command's own process, and only a forked
    # child's outcome is pickled
    config = write_config(tmp_path, outputs=["betti", "characters", "freeness"])
    probe = (
        "import sys\n"
        "from arrstab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, [m for m in ('pickle', '_pickle') if m in sys.modules])\n"
    )
    args = ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--jobs", "1"]
    for state in ("cold", "warm"):
        out = run_python(probe, *args, "--out", str(tmp_path / state), flags=("-S",))
        assert out.stdout.splitlines()[-1] == "0 []", state
    assert read(tmp_path / "cold" / "report.json") == read(tmp_path / "warm" / "report.json")


def test_betti_character_stability_runs_load_neither_polynomial_nor_signal(tmp_path):
    # class functions live in ``fim``, so only a fit, a binomial form or a
    # twisted polynomial loads ``polynomial``; ``signal`` is imported only to
    # kill the children of a failed run; ``checks`` is loaded only by the
    # outputs it computes, and no other module holds its names
    probe = (
        "import sys\n"
        "from arrstab.cli import main\n"
        "args = sys.argv[1:]\n"
        "codes = [main(args + ['--out', args[-1] + '-' + state]) for state in ('cold', 'warm')]\n"
        "optional = ('arrstab.polynomial', 'signal', 'arrstab.checks')\n"
        "print(codes, [m for m in optional if m in sys.modules])\n"
        f"homes = {OPTIONAL_HOMES!r}\n"
        "loaded = [(key, vars(module)) for key, module in sys.modules.items() if key.startswith('arrstab')]\n"
        "print(sorted((key, name) for key, names in loaded for name in names if homes.get(name, key) != key))\n"
    )
    optional = "['arrstab.polynomial', 'arrstab.checks']"
    for name, expected in [("kequals-closure", "[0, 0] []"), ("readme", f"[2, 2] {optional}")]:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(json.loads(read(WORKLOADS))[name]["config"]), encoding="utf-8")
        for jobs in ("1", "2"):
            cache = str(tmp_path / f"{name}-{jobs}")
            args = ["run", "--config", str(config), "--jobs", jobs, "--cache", cache]
            out = run_python(probe, *args, flags=("-S",))
            assert out.stdout.splitlines()[-2:] == [expected, "[]"], (name, jobs)


def test_import_arrstab_loads_no_submodule():
    probe = "import sys, arrstab; print([m for m in sys.modules if m.startswith('arrstab.')])"
    assert run_python(probe, flags=("-S",)).stdout.strip() == "[]"


def test_catalog_loads_no_engine_module():
    probe = (
        "import sys\n"
        "from arrstab.cli import main\n"
        "code = main(['catalog'])\n"
        f"print(code, [m for m in {ENGINE_MODULES} if m in sys.modules])\n"
    )
    assert run_python(probe, flags=("-S",)).stdout.splitlines()[-1] == "0 []"


def test_package_names_resolve_lazily_to_their_home_objects():
    # each public name is first looked up through the package's
    # ``__getattr__`` and is the very object its defining module holds
    probe = """
import sys, arrstab
mismatched = []
for name in arrstab.__all__:
    assert name not in vars(arrstab), name
    value = getattr(arrstab, name)
    if getattr(sys.modules[value.__module__], name) is not value or name not in dir(arrstab):
        mismatched.append(name)
print(len(arrstab.__all__), mismatched, hasattr(arrstab, "no_such_name"))
"""
    assert run_python(probe).stdout.strip() == "31 [] False"


# Each value once escaped ``load_config`` as a traceback, was coerced
# without a word, or failed only after every level had run.
BAD_CONFIG_VALUES = {
    "fit bound not a list": {"fit_degree_bound": 5},
    "onset entry null": {"predicted_onset": [None]},
    "twisted not a string": {"twisted_polynomial": 5},
    "out_dir not a string": {"out_dir": 5},
    "cache_dir not a string": {"cache_dir": 5},
    "fit bound too long": {"outputs": ["betti", "characters", "fit"], "fit_degree_bound": [2, 2]},
    "onset too long": {"outputs": ["betti", "stability"], "predicted_onset": [2, 2]},
    "float level": {"levels": {"min": [2.7], "max": [4]}},
    "float i_max": {"i_max": 1.9},
    "string level": {"levels": {"min": "2", "max": [4]}},
    "bool level": {"levels": {"min": [True], "max": [4]}},
    "bool family count": {"family": {"kind": "mkr", "m": True, "k": 2, "r": 1}},
    "short generator degree": {
        "family": {"kind": "custom", "m": 2, "r": 1, "generators": [{"degree": [1], "rows": [[1]]}]}
    },
    "outputs an object": {"outputs": {"betti": 1}},
    "constraint row a string": {
        "family": {"kind": "custom", "m": 1, "r": 1, "generators": [{"degree": [2], "rows": ["12"]}]}
    },
}


@pytest.mark.parametrize("overrides", BAD_CONFIG_VALUES.values(), ids=BAD_CONFIG_VALUES)
def test_bad_config_value_exits_one_before_any_level(tmp_path, capsys, monkeypatch, overrides):
    # without --out or --cache, so that the config's own directories count
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARRSTAB_CACHE", raising=False)
    monkeypatch.setattr(cli, "_level_worker", never_called)
    config = write_config(tmp_path, **overrides)
    with pytest.raises(cli.ConfigError):
        load_config(config)
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert os.listdir(tmp_path) == ["job.json"]


def never_called(task):
    raise AssertionError("a level ran on a bad config")


def test_load_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(Exception):
        load_config(bad)
    config = write_config(tmp_path, outputs=["nonsense"])
    with pytest.raises(Exception):
        load_config(config)
    config = write_config(tmp_path, outputs=["fit"])  # the bound is optional
    assert load_config(config).fit_degree_bound is None
    config = write_config(tmp_path, levels={"min": [4], "max": [2]})
    with pytest.raises(Exception):
        load_config(config)


def test_warm_runs_reduce_no_rows_for_the_action_orbits_or_loads(tmp_path, monkeypatch):
    # A cold run maps lattice elements by atom names, so the group action,
    # the orbit decomposition and the result loads reduce no rows.  A warm
    # run reads every result back, the freeness step's included: its row
    # reductions are the config's generators and, in the README job, the
    # normalization.
    workloads = json.loads(read(WORKLOADS))
    depth = 0
    calls = {"rref": 0, "inside": 0, "entered": 0}
    original = exactlin._rref_rows

    def counting(*args, **kwargs):
        calls["rref"] += 1
        calls["inside"] += depth > 0
        return original(*args, **kwargs)

    def flagged(function):
        def wrapper(*args, **kwargs):
            nonlocal depth
            depth += 1
            calls["entered"] += 1
            try:
                return function(*args, **kwargs)
            finally:
                depth -= 1

        return wrapper

    for name in ("kequals-closure", "readme"):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(workloads[name]["config"]), encoding="utf-8")
        argv = ["run", "--config", str(config), "--cache", str(tmp_path / name)]
        monkeypatch.setattr(exactlin, "_rref_rows", counting)
        monkeypatch.setattr(cache, "load", flagged(cache.load))
        monkeypatch.setattr(checks, "orbit_decomposition", flagged(checks.orbit_decomposition))
        act = arrangement.IntersectionLattice.act
        monkeypatch.setattr(arrangement.IntersectionLattice, "act", flagged(act))
        calls.update(rref=0, inside=0, entered=0)
        assert main(argv + ["--out", str(tmp_path / f"{name}-cold")]) in (0, 2)
        assert calls["entered"] > 0
        assert calls["inside"] == 0, name
        calls["rref"] = 0
        spec = load_config(config).spec
        if "normalize" in workloads[name]["config"]["outputs"]:
            checks.normalize_output(spec)
        expected = calls["rref"]
        calls["rref"] = 0
        assert main(argv + ["--out", str(tmp_path / f"{name}-warm")]) in (0, 2)
        monkeypatch.undo()
        assert calls["inside"] == 0, name
        assert calls["rref"] == expected, name
        if name == "kequals-closure":
            assert expected == 1

