import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arrstab import arrangement, cache, checks, cli, exactlin
from arrstab.arrangement import LatticeError, build_lattice, family_mkr
from arrstab.cli import list_catalog, load_config, main
from arrstab.fim import MultiIndex, render_images
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


def test_warm_cache_reruns_are_byte_identical(tmp_path):
    config = write_config(tmp_path, outputs=["betti", "characters", "stability"])
    cache_dir = tmp_path / "cache"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    args = ["run", "--config", str(config), "--cache", str(cache_dir)]
    assert main(args + ["--out", str(out1)]) == 0
    assert any(cache_dir.glob("*.lattice.txt"))
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("betti.csv", "characters.csv", "stability.csv", "report.json"):
        assert read(out1 / name) == read(out2 / name)


def test_corrupted_cache_recomputes(tmp_path):
    config = write_config(tmp_path)
    cache_dir = tmp_path / "cache"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(config), "--cache", str(cache_dir), "--out", str(out1)]) == 0
    victim = sorted(cache_dir.glob("*.lattice.txt"))[0]
    victim.write_text(victim.read_text().replace("payload-sha256=", "payload-sha256=00"), encoding="utf-8")
    assert main(["run", "--config", str(config), "--cache", str(cache_dir), "--out", str(out2)]) == 0
    assert read(out1 / "betti.csv") == read(out2 / "betti.csv")


def assert_same_files(dir1: Path, dir2: Path) -> None:
    names = sorted(p.name for p in dir1.iterdir())
    assert names == sorted(p.name for p in dir2.iterdir())
    for name in names:
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes(), name


def test_parallel_jobs_match_serial(tmp_path):
    config = write_config(tmp_path, outputs=["betti", "characters"])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    base = ["run", "--config", str(config), "--cache", str(tmp_path / "c")]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2), "--jobs", "2"]) == 0
    assert_same_files(out1, out2)


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


@pytest.mark.parametrize("name", sorted(FREENESS_JOBS))
def test_class_degrees_outside_the_levels_match_for_every_jobs(tmp_path, name):
    # each class degree outside the levels is a task of its own, dealt to a
    # share like a level: reports and cache tree are the same for any --jobs
    outputs = ["betti", "characters", "freeness", "stability"]
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


def test_freeness_builds_a_generator_degree_once(tmp_path):
    # conf(2)'s generator degree 2 has ambient dimension 4, above i_max: the
    # normality check reads its whole lattice, and the i_max one truncates it
    config = write_config(
        tmp_path,
        family={"kind": "mkr", "m": 1, "k": 2, "r": 2},
        levels={"min": [4], "max": [5]},
        i_max=3,
        outputs=["freeness"],
    )
    for jobs in (1, 2):
        cache_dir = tmp_path / f"c{jobs}"
        for phase in ("cold", "warm"):
            args = ["--cache", str(cache_dir), "--out", str(tmp_path / f"{phase}{jobs}")]
            assert main(["run", "--config", str(config), *args, "--jobs", str(jobs)]) == 0
            assert_same_files(tmp_path / "cold1", tmp_path / f"{phase}{jobs}")
        headers = [read(path).splitlines()[1:3] for path in cache_dir.iterdir()]
        assert [h for h in headers if h[0] == "level=2"] == [["level=2", "max_codim=4"]]
        assert sorted(h[1] for h in headers if h[0] != "level=2") == ["max_codim=3"] * 4


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
from arrstab.arrangement import LatticeError

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
    assert sum(line.startswith("fit i=") for line in result.stdout.splitlines()) == 2
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


def test_freeness_on_non_normal_spec_is_a_finding(tmp_path):
    # a padded generator violates the freeness theorem's hypotheses; the CLI
    # must surface the character mismatch as an exit-2 finding, not crash
    config = write_config(
        tmp_path,
        family={
            "kind": "custom",
            "m": 1,
            "r": 1,
            "generators": [{"degree": [3], "rows": [[1, -1, 0]]}],
        },
        levels={"min": [2], "max": [4]},
        i_max=1,
        outputs=["freeness"],
    )
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(out)])
    assert code == 2
    report = json.loads(read(out / "report.json"))
    assert any("freeness" in f for f in report["findings"])


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


def test_freeness_job_loads_each_level_once(tmp_path, monkeypatch):
    # the level workers and the freeness block share the command's builder,
    # so each level's lattice reaches the disk cache once, cold and warm
    loads = []
    real_load = cache.load

    def counting(cache_dir, spec, level, max_codim):
        loads.append((level, max_codim))
        return real_load(cache_dir, spec, level, max_codim)

    monkeypatch.setattr(cache, "load", counting)
    config = write_config(
        tmp_path, levels={"min": [2], "max": [6]}, i_max=3, outputs=["freeness"]
    )
    base = ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--jobs", "1"]
    for phase in ("cold", "warm"):
        loads.clear()
        assert main(base + ["--out", str(tmp_path / phase)]) == 0
        assert loads == [(mi((n,)), 3) for n in range(2, 7)]


def test_clean_cache_subcommand(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((3,)), 3)
    cache.store(cache_dir, spec, lat)
    assert len(list(cache_dir.glob("*.lattice.txt"))) == 1
    assert main(["clean-cache", "--cache", str(cache_dir)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert not list(cache_dir.glob("*.lattice.txt"))


def test_clean_cache_removes_interrupted_stores_and_no_foreign_file(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    spec = family_mkr(1, 2, 1)
    cache.store(cache_dir, spec, build_lattice(spec, mi((3,)), 3))
    temps = []

    def interrupted(src, dst):
        temps.append(Path(src).name)
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(cache.os, "replace", interrupted)
    with pytest.raises(OSError):
        cache.store(cache_dir, spec, build_lattice(spec, mi((4,)), 2))
    monkeypatch.undo()
    # a store killed by SIGKILL at that point skips its cleanup: plant the file
    (cache_dir / temps[0]).write_text("partial", encoding="utf-8")
    foreign = ["tmpk2j4x9.tmp", "notes.txt", "arrstab-notes.txt"]
    for name in foreign:
        (cache_dir / name).write_text("not the cache's", encoding="utf-8")
    assert main(["clean-cache", "--cache", str(cache_dir)]) == 0
    assert "removed 1 cached lattice(s)" in capsys.readouterr().out
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(foreign)


def test_env_variable_overrides_cache_dir(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    env_cache = tmp_path / "env-cache"
    monkeypatch.setenv("ARRSTAB_CACHE", str(env_cache))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert any(env_cache.glob("*.lattice.txt"))


def test_cache_roundtrip_preserves_lattice(tmp_path):
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((4,)), 4)
    cache.store(tmp_path, spec, lat)
    loaded = cache.load(tmp_path, spec, mi((4,)), 4)
    assert loaded is not None
    assert [e.serialization for e in loaded.elements] == [
        e.serialization for e in lat.elements
    ]
    assert loaded.atoms == lat.atoms
    assert [loaded.containing(i) for i in range(len(loaded))] == [
        lat.containing(i) for i in range(len(lat))
    ]


def witnesses(lat):
    """Each atom's first name, rendered as the v1 and v3 files named atoms."""
    return {
        a: f"g{gi}@{render_images(images)}"
        for a, (gi, images) in arrangement._first_names(lat.atom_names).items()
    }


def test_cache_v1_file_is_a_miss_and_rebuilt(tmp_path):
    # v1 files stored one partial witness per element, which does not
    # determine the order; a checksum-valid v1 file must not be trusted
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((4,)), 4)
    witness = witnesses(lat)
    lines = [
        f"{element.serialize()}\t{witness[atoms[0]]}"
        for element, atoms in zip(lat.elements, lat.atoms)
    ]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    header = [
        "arrstab-lattice v1",
        "level=4",
        "max_codim=4",
        "r=1",
        f"count={len(lines)}",
        f"payload-sha256={digest}",
    ]
    path = tmp_path / f"{cache.lattice_key(spec, mi((4,)), 4)}.lattice.txt"
    path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")
    assert cache.load(tmp_path, spec, mi((4,)), 4) is None
    rebuilt = cache.CachingBuilder(tmp_path)(spec, mi((4,)), 4)
    assert rebuilt.atoms == lat.atoms
    assert read(path).startswith("arrstab-lattice v4\n")
    assert cache.load(tmp_path, spec, mi((4,)), 4).atoms == lat.atoms


def test_cache_v3_file_is_a_miss_and_rebuilt(tmp_path):
    # v3 files stored each element's atom set as rendered witnesses and no
    # other atom names, which the group action now looks up
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((4,)), 4)
    witness = witnesses(lat)
    lines = [
        f"{element.serialize()}\t"
        + "&".join(witness[a] for a in atoms)
        + f"\t{orbit[0]}"
        for element, atoms, orbit in zip(lat.elements, lat.atoms, lat.orbits)
    ]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    header = ["arrstab-lattice v3", "level=4", "max_codim=4", "r=1"]
    header += [f"count={len(lines)}", f"payload-sha256={digest}"]
    path = tmp_path / f"{cache.lattice_key(spec, mi((4,)), 4)}.lattice.txt"
    path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")
    assert cache.load(tmp_path, spec, mi((4,)), 4) is None
    rebuilt = cache.CachingBuilder(tmp_path)(spec, mi((4,)), 4)
    assert rebuilt.atom_names == lat.atom_names
    assert read(path).startswith("arrstab-lattice v4\n")
    loaded = cache.load(tmp_path, spec, mi((4,)), 4)
    assert loaded.atoms == lat.atoms
    assert loaded.atom_names == lat.atom_names


def rewrite_payload(path: Path, edit) -> None:
    """Replace a cache file's element lines by ``edit(lines)``, keeping the
    header and the checksum valid."""
    raw = read(path).splitlines()
    lines = edit(raw[6:])
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    header = raw[:4] + [f"count={len(lines)}", f"payload-sha256={digest}"]
    path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")


def relabel(lines, labels):
    """The element lines with their orbit column replaced by ``labels``."""
    out = []
    for line, label in zip(lines, labels):
        serial, atoms, _, names = line.split("\t")
        out.append(f"{serial}\t{atoms}\t{label}\t{names}")
    return out


def test_cache_v2_file_is_a_miss_and_rebuilt(tmp_path):
    # v2 files stored no orbit column; the orbits are rebuilt, not guessed
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((4,)), 4)
    path = cache.store(tmp_path, spec, lat)
    rewrite_payload(path, lambda lines: [line.rsplit("\t", 1)[0] for line in lines])
    path.write_text(read(path).replace("arrstab-lattice v4", "arrstab-lattice v2", 1), encoding="utf-8")
    assert cache.load(tmp_path, spec, mi((4,)), 4) is None
    rebuilt = cache.CachingBuilder(tmp_path)(spec, mi((4,)), 4)
    assert rebuilt.orbits == lat.orbits
    assert read(path).startswith("arrstab-lattice v4\n")
    assert cache.load(tmp_path, spec, mi((4,)), 4).orbits == lat.orbits


# braid n=4 at codim 4: the 6 atoms (0..5), the 4 + 3 elements of types
# {3,1} and {2,2} at codim 2 (interleaved), and the top element 13 at codim 3
GOOD_LABELS = [0] * 6 + [6, 7, 6, 7, 6, 7, 6] + [13]


@pytest.mark.parametrize(
    "labels",
    [
        [1] + GOOD_LABELS[1:],  # 0 and 1..5 labelled by each other
        [5] * 6 + GOOD_LABELS[6:],  # an atom orbit labelled by its last index
        GOOD_LABELS[:13] + [0],  # the top element joins the atoms
        GOOD_LABELS[:13] + [14],  # a label past the last element
    ],
)
def test_cache_bad_orbit_column_is_a_miss_and_rebuilt(tmp_path, labels):
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((4,)), 4)
    assert [orbit[0] for orbit in lat.orbits] == GOOD_LABELS
    path = cache.store(tmp_path, spec, lat)
    rewrite_payload(path, lambda lines: relabel(lines, labels))
    assert cache.load(tmp_path, spec, mi((4,)), 4) is None
    rebuilt = cache.CachingBuilder(tmp_path)(spec, mi((4,)), 4)
    assert rebuilt.orbits == lat.orbits
    assert cache.load(tmp_path, spec, mi((4,)), 4).orbits == lat.orbits


def edit_names(lines, edit):
    """The element lines with each atom's names (the fourth column) split
    at "&", passed through ``edit(names_by_line)`` and joined again."""
    rows = [line.split("\t") for line in lines]
    names = edit([row[3].split("&") if row[3] else [] for row in rows])
    return ["\t".join(row[:3] + ["&".join(own)]) for row, own in zip(rows, names)]


def name_under_two_atoms(names):
    # atom 0 also lists atom 1's last name, in order
    names[0] = sorted(names[0] + names[1][-1:])
    return names


def witness_not_first(names):
    names[0] = names[0][::-1]
    return names


def atom_index(index):
    """The top element's atom set with its first index replaced."""

    def edit(lines):
        serial, atoms, label, names = lines[-1].split("\t")
        atoms = ",".join([index] + atoms.split(",")[1:])
        return lines[:-1] + [f"{serial}\t{atoms}\t{label}\t{names}"]

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: edit_names(lines, name_under_two_atoms),
        lambda lines: edit_names(lines, witness_not_first),
        atom_index("6"),  # the first element of codim 2, not an atom
        atom_index("14"),  # past the last element
        atom_index("-1"),
    ],
    ids=["name-under-two-atoms", "witness-not-first", "non-atom", "out-of-range", "negative"],
)
def test_cache_bad_atom_names_are_a_miss_and_rebuilt(tmp_path, edit):
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((4,)), 4)
    path = cache.store(tmp_path, spec, lat)
    before = read(path)
    rewrite_payload(path, edit)
    assert read(path) != before
    assert cache.load(tmp_path, spec, mi((4,)), 4) is None
    rebuilt = cache.CachingBuilder(tmp_path)(spec, mi((4,)), 4)
    assert rebuilt.atom_names == lat.atom_names
    assert read(path) == before
    assert cache.load(tmp_path, spec, mi((4,)), 4).atom_names == lat.atom_names


def test_merged_orbits_fail_hall_and_exit_three(tmp_path, capsys):
    # braid n=5 at codim 2: the 10 elements of type {3,1,1} have mu = 2, the
    # 15 of type {2,2,1} have mu = 1.  A checksum-valid file that merges the
    # two orbits loads, but one Betti vector cannot serve both.
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((5,)), 2)
    assert sorted({len(orbit) for orbit in lat.orbits[10:]}) == [10, 15]
    cache_dir = tmp_path / "cache"
    path = cache.store(cache_dir, spec, lat)
    rewrite_payload(path, lambda lines: relabel(lines, [0] * 10 + [10] * 25))
    merged = cache.load(cache_dir, spec, mi((5,)), 2)
    assert merged.orbits[10] == tuple(range(10, 35))
    with pytest.raises(LatticeError, match="Hall's theorem"):
        LatticeHomology(merged).betti_report(2)
    config = write_config(tmp_path, levels={"min": [5], "max": [5]})
    code = main(["run", "--config", str(config), "--cache", str(cache_dir), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "internal error: interval of element" in capsys.readouterr().err


def test_cache_zero_denominator_is_a_miss_and_rebuilt(tmp_path):
    # a checksum-valid entry "1/0" must not escape as ZeroDivisionError
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((4,)), 4)
    path = cache.store(tmp_path, spec, lat)
    raw = read(path).splitlines()
    lines = raw[6:]
    lines[0] = lines[0].replace("-1", "1/0", 1)
    assert "1/0" in lines[0]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    header = raw[:5] + [f"payload-sha256={digest}"]
    path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")
    assert cache.load(tmp_path, spec, mi((4,)), 4) is None
    rebuilt = cache.CachingBuilder(tmp_path)(spec, mi((4,)), 4)
    assert rebuilt.atoms == lat.atoms
    assert "1/0" not in read(path)
    assert cache.load(tmp_path, spec, mi((4,)), 4).atoms == lat.atoms


# SHA-256 of each cold cache file, by its level line, recorded when each
# atom was still made by one reduction per injection name
CACHE_DIGESTS = {
    "braid": (
        {"family": {"kind": "mkr", "m": 1, "k": 2, "r": 1}, "levels": {"min": [2], "max": [5]}, "i_max": 3},
        {
            "level=2": "81f4d5d9de7edcffc4f8c2ff44573ccea95e4148e27b50733743394e54544a82",
            "level=3": "e3fea7c5f93528c952577f3eae8d5f8bdbf7b416655f7f5ddce4610415d18548",
            "level=4": "6b4f95c97ad921296389eab09f589a0bce2312c62fcd716a84de0fef88af06d3",
            "level=5": "1a73feac1f568057df7c251d378346804c91518446c662909196c4a4c29f2024",
        },
    ),
    "k-equals": (
        {"family": {"kind": "mkr", "m": 1, "k": 3, "r": 1}, "levels": {"min": [3], "max": [6]}, "i_max": 4},
        {
            "level=3": "f2a0a56367d657039263378e2263f0cd838d1756a7448ba9fe166f76ca7a215e",
            "level=4": "8a47d900a4bae6fefbb6d56d34bd4ffc73811f1817b41faecafdc26bc8fd5f0e",
            "level=5": "b6d3a512a3e8de350a9d2a1c0372d2c634201714ab5c372280ce257164b9a5e3",
            "level=6": "289053cfa985d343f2d941731a43a59ffb1ef1575ba93b438c65f8d24fc9b63f",
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
        data = path.read_bytes()
        found[data.decode("utf-8").splitlines()[1]] = hashlib.sha256(data).hexdigest()
    assert found == digests


HALVES = arrangement.ArrangementSpec(
    1, 1, ((MultiIndex((2,)), exactlin.subspace_from_constraints(2, [[2, -1]])),)
)


@pytest.mark.parametrize(
    "spec, canonical, variant",
    [
        (family_mkr(1, 2, 1), ":1,", ":01,"),
        (family_mkr(1, 2, 1), ":1,", ":+1,"),
        (family_mkr(1, 2, 1), ",0,", ",-0,"),
        (family_mkr(1, 2, 1), "-1", " -1"),
        (family_mkr(1, 2, 1), "4:", "04:"),
        (HALVES, "-1/2", "-2/4"),
        (HALVES, ":1,", ":2/2,"),
    ],
)
def test_cache_entry_text_that_is_not_canonical_loads_canonical(tmp_path, spec, canonical, variant):
    # a checksum-valid line may write an entry's value in another form; the
    # load keeps only canonical text as an element's serialization
    lat = build_lattice(spec, mi((4,)), 2)
    path = cache.store(tmp_path, spec, lat)

    def edit(lines):
        out = []
        for line in lines:
            serial, rest = line.split("\t", 1)
            out.append(f"{serial.replace(canonical, variant)}\t{rest}")
        return out

    rewrite_payload(path, edit)
    assert variant in read(path)
    loaded = cache.load(tmp_path, spec, mi((4,)), 2)
    expected = [x.serialization for x in lat.elements]
    assert [x.serialization for x in loaded.elements] == expected
    assert [exactlin.Subspace.parse(s).serialization for s in expected] == expected
    assert [loaded.index_of(x) for x in lat.elements] == list(range(len(lat)))
    assert loaded.atoms == lat.atoms and loaded.orbits == lat.orbits


def test_lattice_missing_an_orbit_member_exits_three(tmp_path, capsys):
    # a checksum-valid cache file that lost one element: the group action
    # leaves the lattice, an internal error rather than a usage error
    config = write_config(tmp_path, outputs=["betti", "characters"])
    cache_dir = tmp_path / "cache"
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((4,)), 2)
    path = cache.store(cache_dir, spec, lat)
    raw = read(path).splitlines()
    lines = [line for line in raw[6:] if not line.startswith(lat.elements[-1].serialize() + "\t")]
    assert len(lines) == len(lat) - 1
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    header = raw[:4] + [f"count={len(lines)}", f"payload-sha256={digest}"]
    path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")
    assert len(cache.load(cache_dir, spec, mi((4,)), 2)) == len(lat) - 1
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--cache", str(cache_dir), "--out", str(out)])
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
        "orbit_decomposition", "DownwardStabilityReport", "verify_downward_stability",
        "primitive_characters", "_sub_cycle_multisets", "induction_character",
        "FreenessClassSummary", "FreenessReport", "verify_free_decomposition", "_freeness_codim",
        "FitError", "FitInconsistentError", "FitUnderdeterminedError", "_monomials_within",
        "fit_character_polynomial", "_stirling2", "binomial_basis_form", "twisted_betti",
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
    assert list((tmp_path / "c").glob("*.lattice.txt"))
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


def test_cache_miss_on_other_parameters(tmp_path):
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((4,)), 4)
    cache.store(tmp_path, spec, lat)
    assert cache.load(tmp_path, spec, mi((4,)), 3) is None
    assert cache.load(tmp_path, family_mkr(1, 3, 1), mi((4,)), 4) is None


def test_cache_tolerates_garbage_files(tmp_path):
    spec = family_mkr(1, 2, 1)
    lat = build_lattice(spec, mi((3,)), 3)
    path = cache.store(tmp_path, spec, lat)
    path.write_text("complete nonsense\nnot a lattice\n", encoding="utf-8")
    assert cache.load(tmp_path, spec, mi((3,)), 3) is None
    path.write_text("", encoding="utf-8")
    assert cache.load(tmp_path, spec, mi((3,)), 3) is None


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
    config = write_config(tmp_path, outputs=["fit"])  # missing bound
    with pytest.raises(Exception):
        load_config(config)
    config = write_config(tmp_path, levels={"min": [4], "max": [2]})
    with pytest.raises(Exception):
        load_config(config)


def test_warm_runs_reduce_no_rows_for_the_action_orbits_or_loads(tmp_path, monkeypatch):
    # A warm run rebuilds every lattice from the cache and maps its elements
    # by atom names: row reductions are left to the config's generators and,
    # in the README job, the fit, normality and freeness checks.
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
        assert main(argv + ["--out", str(tmp_path / f"{name}-cold")]) in (0, 2)
        calls.update(rref=0, inside=0, entered=0)
        monkeypatch.setattr(exactlin, "_rref_rows", counting)
        load_config(config)
        config_calls = calls["rref"]
        calls["rref"] = 0
        monkeypatch.setattr(cache, "load", flagged(cache.load))
        monkeypatch.setattr(checks, "orbit_decomposition", flagged(checks.orbit_decomposition))
        act = arrangement.IntersectionLattice.act
        monkeypatch.setattr(arrangement.IntersectionLattice, "act", flagged(act))
        assert main(argv + ["--out", str(tmp_path / f"{name}-warm")]) in (0, 2)
        monkeypatch.undo()
        assert calls["entered"] > 0
        assert calls["inside"] == 0, name
        if name == "kequals-closure":
            assert calls["rref"] == config_calls == 1

