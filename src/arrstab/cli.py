"""Command line driver: config ingestion, the family catalog, report emission.

Reports are CSV tables plus one machine-readable JSON sidecar per run, all
byte-deterministic so a warm cache reproduces them exactly.  Exit status is 0
on success, 2 when a falsification finding is present (a character
polynomial that misses a computed character or exceeds the fit degree bound,
freeness mismatch, stability onset later than predicted), 1 on usage or
configuration errors and on an ``OSError`` (an ``--out`` or ``--cache``
directory that cannot be created or written), and 3 when the engine fails
an internal consistency check (``LatticeError``, e.g. a corrupted lattice,
or an engine ``AssertionError`` or ``KeyError``).

Each level is computed on its own.  ``--jobs N`` splits the levels into at
most N shares, at most one per level, balanced by |Aut(n)|; the command
computes the heaviest share itself and forks one child per other share.
Where ``os.fork`` is missing the levels run in-process, as with one job.
For the fit and freeness each task also returns its degree's generator
characters, and a class degree outside the levels is a task of its own;
``run`` sums them into one primitive table per H^i and compares the
character it induces with H^i's at each level once, for both outputs.
A task returns plain data, class functions as values in ``conj_classes``
order: a forked share is sent as ``marshal`` data, and pickled only for an
exception or a ``Fraction``.

Start-up loads only the config layer (``record``, ``fim`` and, through it,
``exactlin``); a twisted polynomial in the config also loads ``polynomial``.
The engine modules, the cache, ``csv`` and ``argparse`` are imported by the
functions that use them, so they are looked up when a command runs, not
bound when ``cli`` is imported.  The ``fit``, ``freeness``, ``normalize``
and ``twisted`` outputs are computed by ``checks`` from the level results as
plain maps; ``run`` imports it only for a job that asks for one of them, and
writes every report file itself.
"""

from __future__ import annotations

import functools
import itertools
import json
import marshal
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .fim import (
    ArrangementSpec,
    ClassFunction,
    MultiIndex,
    ambient_dim,
    conj_classes,
    degree_times,
    family_mkr,
    group_order,
)
from .record import record, replace

if TYPE_CHECKING:
    from .polynomial import CharacterPolynomial

ENV_CACHE = "ARRSTAB_CACHE"
DEFAULT_CACHE = ".arrstab-cache"
DEFAULT_OUT = "arrstab-out"

OUTPUT_KINDS = (
    "betti",
    "characters",
    "fit",
    "freeness",
    "normalize",
    "stability",
    "twisted",
)

CATALOG = (
    ("braid", "mkr(1,2,1)", "ordered configurations of distinct points in the plane"),
    ("conf(r)", "mkr(1,2,r)", "ordered configurations of distinct points in C^r"),
    ("k-equals(k)", "mkr(1,k,1)", "coordinate tuples with no value repeated k times"),
    ("rational-maps(m)", "mkr(m,1,1)", "ordered-root covers of based rational maps to P^(m-1)"),
)


class ConfigError(ValueError):
    """The job configuration is unusable."""


@record
class JobConfig:
    spec: ArrangementSpec
    level_min: MultiIndex
    level_max: MultiIndex
    i_max: int
    outputs: tuple[str, ...]
    fit_degree_bound: MultiIndex | None = None
    twisted_polynomial: CharacterPolynomial | None = None
    predicted_onset: MultiIndex | None = None
    cache_dir: str | None = None
    out_dir: str | None = None

    def levels(self) -> tuple[MultiIndex, ...]:
        ranges = [range(a, b + 1) for a, b in zip(self.level_min, self.level_max)]
        return tuple(MultiIndex(t) for t in itertools.product(*ranges))


def _count(value, what: str) -> int:
    """A JSON integer >= 0, exactly: no bool, float or string."""
    if type(value) is not int or value < 0:
        raise ConfigError(f"{what} must be a nonnegative integer, not {json.dumps(value)}")
    return value


def _multi_index(value, m: int, what: str) -> MultiIndex:
    """A JSON list of exactly m counts."""
    if not isinstance(value, list) or len(value) != m:
        raise ConfigError(f"{what} must be a list of {m} nonnegative integers")
    return MultiIndex(_count(v, f"an entry of {what}") for v in value)


def _parse_family(data) -> ArrangementSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("family must be an object with a 'kind'")
    kind = data["kind"]
    try:
        if kind == "mkr":
            return family_mkr(*(_count(data[key], key) for key in ("m", "k", "r")))
        if kind == "preset":
            name = data.get("name")
            if name == "braid":
                return family_mkr(1, 2, 1)
            if name == "conf":
                return family_mkr(1, 2, _count(data["r"], "r"))
            if name == "k-equals":
                return family_mkr(1, _count(data["k"], "k"), 1)
            if name == "rational-maps":
                return family_mkr(_count(data["m"], "m"), 1, 1)
            raise ConfigError(f"unknown preset {name!r}")
        if kind == "custom":
            m = _count(data["m"], "m")
            r = _count(data["r"], "r")
            from .exactlin import subspace_from_constraints

            gens = []
            for gen in data["generators"]:
                degree = _multi_index(gen["degree"], m, "generator degree")
                rows = gen["rows"]
                if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                    raise ConfigError("generator rows must be a list of lists")
                sub = subspace_from_constraints(ambient_dim(degree, r), rows)
                gens.append((degree, sub))
            return ArrangementSpec(m, r, tuple(gens))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid family: {exc}") from exc
    raise ConfigError(f"unknown family kind {kind!r}")


def load_config(path: Path | str) -> JobConfig:
    """Parse and check a job config, so that a bad value fails before any level runs."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        spec = _parse_family(data["family"])
        level_min = _multi_index(data["levels"]["min"], spec.m, "levels.min")
        level_max = _multi_index(data["levels"]["max"], spec.m, "levels.max")
        i_max = _count(data["i_max"], "i_max")
        outputs = data["outputs"]
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    if not level_min.leq(level_max):
        raise ConfigError("empty level range")
    for key in ("twisted_polynomial", "cache_dir", "out_dir"):
        if not isinstance(data.get(key, ""), str):
            raise ConfigError(f"{key} must be a string, not {json.dumps(data[key])}")
    if not isinstance(outputs, list) or not outputs or any(o not in OUTPUT_KINDS for o in outputs):
        raise ConfigError(f"outputs must be a nonempty subset of {OUTPUT_KINDS}")
    outputs = tuple(outputs)
    fit_bound = None
    if "fit_degree_bound" in data:
        fit_bound = _multi_index(data["fit_degree_bound"], spec.m, "fit_degree_bound")
    twisted = None
    if "twisted_polynomial" in data:
        from .polynomial import CharacterPolynomial

        try:
            twisted = CharacterPolynomial.parse(data["twisted_polynomial"], spec.m)
        except ValueError as exc:
            raise ConfigError(f"bad twisted polynomial: {exc}") from exc
    if "twisted" in outputs and twisted is None:
        raise ConfigError("twisted output requires twisted_polynomial")
    onset = None
    if "predicted_onset" in data:
        onset = _multi_index(data["predicted_onset"], spec.m, "predicted_onset")
    return JobConfig(
        spec,
        level_min,
        level_max,
        i_max,
        outputs,
        fit_bound,
        twisted,
        onset,
        data.get("cache_dir"),
        data.get("out_dir"),
    )


def list_catalog() -> str:
    lines = ["named families (all instances of the mkr construction):"]
    for name, recipe, blurb in CATALOG:
        lines.append(f"  {name} = {recipe}  -- {blurb}")
    return "\n".join(lines)


def _level_worker(args):
    from .characters import character_of_cohomology
    from .homology import LatticeHomology

    spec, level, i_max, want_betti, want_chars, want_generators, get = args
    # One context on the top lattice serves every degree: the elements of
    # lower codim are its prefix, and each class acts on it once.
    ctx = LatticeHomology(get(spec, level, i_max)) if i_max >= 1 else None
    # plain data: a class function goes as its values in conj_classes order
    classes = conj_classes(level)
    payload = {"level": tuple(level), "betti": None, "characters": None, "generators": None}
    if want_betti:
        payload["betti"] = [1] + [ctx.betti_report(i).total for i in range(1, i_max + 1)]
    if want_chars:
        payload["characters"] = [
            tuple(map(character_of_cohomology(spec, level, i, get, ctx), classes))
            for i in range(i_max + 1)
        ]
    if want_generators:
        from .checks import primitive_characters

        payload["generators"] = {
            i: {x: tuple(map(ch, classes)) for x, ch in primitive_characters(spec, ctx, i).items()}
            for i in range(1, i_max + 1)
        }
    return payload


def _split_levels(tasks, jobs):
    """Deal the level tasks into at most ``jobs`` shares, one per level at
    most, balanced by |Aut(n)|: heaviest first, each to the lightest share so
    far.  Share 0, the command's own, gets the heaviest level."""
    shares = [[] for _ in range(min(jobs, len(tasks)))]
    totals = [0] * len(shares)
    for task in sorted(tasks, key=lambda t: (-group_order(t[1]), t[1])):
        k = totals.index(min(totals))
        shares[k].append(task)
        totals[k] += group_order(task[1])
    return shares


def _run_shares(shares):
    """Compute share 0 here and every other share in a forked child (the
    command starts no threads, so forking it is safe).

    Each child writes ``(True, payloads)`` to a pipe as ``marshal`` data, or
    ``(False, the pickled (ok, payloads or exception))``; a child's exception
    is raised again here.  However this returns, every child has been
    reaped, and killed first if the run failed.
    """
    from .homology import LatticeError

    children = []  # (pid, read end, share)
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _share_child(share, write_fd, [read_fd] + [c[1] for c in children])
            os.close(write_fd)
            children.append((pid, read_fd, share))
        payloads = [_level_worker(task) for task in shares[0]]
        for _, read_fd, share in children:
            try:
                with open(read_fd, "rb", closefd=False) as pipe:
                    plain, result = marshal.loads(pipe.read())
            except (EOFError, ValueError, TypeError):
                names = ", ".join(level.render() for level in sorted(t[1] for t in share))
                raise LatticeError(
                    f"level worker for levels {names} exited without a result"
                ) from None
            if not plain:  # an exception, or a payload value such as a Fraction
                import pickle
                ok, result = pickle.loads(result)
                if not ok:
                    raise result
            payloads.extend(result)
    except BaseException:
        import signal

        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd, _ in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
    return payloads


def _share_child(share, write_fd, inherited_fds):
    """Body of a forked child: compute the share, write the outcome, exit."""
    status = 1
    try:
        for fd in inherited_fds:
            os.close(fd)
        try:
            outcome = (True, [_level_worker(task) for task in share])
        except Exception as exc:
            outcome = (False, exc)
        try:
            data = marshal.dumps(outcome)
        except ValueError:  # what marshal cannot carry is pickled
            import pickle
            data = marshal.dumps((False, pickle.dumps(outcome)))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, MultiIndex):
        return value.render()
    if isinstance(value, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(_jsonable(value))


def run(config: JobConfig, jobs: int = 1, verbose: bool = False) -> int:
    """Execute the configured computations and write the report files."""
    from .cache import CachingBuilder
    from .characters import invariants_dim, stability_report

    def log(message: str) -> None:
        if verbose:
            print(message, file=sys.stderr)

    spec = config.spec
    levels = config.levels()
    out_dir = Path(config.out_dir or DEFAULT_OUT)
    out_dir.mkdir(parents=True, exist_ok=True)
    # one builder per command: the freeness block reads the lattices the
    # level workers built or loaded from its memo (a forked share gets a copy)
    get = CachingBuilder(config.cache_dir)
    findings: list[str] = []
    results: dict[str, object] = {}

    want_chars = bool(
        {"characters", "fit", "freeness", "stability", "twisted"} & set(config.outputs)
    )
    want_betti = "betti" in config.outputs
    # the fit and the freeness check read the generator characters
    want_gens = bool({"fit", "freeness"} & set(config.outputs))
    if want_gens:
        from .checks import class_degrees, induced_character, primitive_table
    extra = [e for e in class_degrees(spec, config.i_max) if e not in levels] if want_gens else []
    payloads = []
    if want_betti or want_chars:
        tasks = [(spec, n, config.i_max, want_betti, want_chars, want_gens, get) for n in levels]
        tasks += [(spec, e, config.i_max, False, False, True, get) for e in extra]
        # one share keeps the levels in ascending order
        shares = _split_levels(tasks, jobs) if jobs > 1 and hasattr(os, "fork") else [tasks]
        degrees = f" and {len(extra)} class degrees" if extra else ""
        log(f"computing {len(levels)} levels{degrees} in {len(shares)} processes")
        payloads = _run_shares(shares)
    by_level = {MultiIndex(p["level"]): p for p in payloads}

    def chi(level, values):
        return ClassFunction(level, dict(zip(conj_classes(level), values)))

    # the level results as plain maps, which every output reads:
    # characters[i][level] in level order, generators[i][degree] in task order,
    # the one primitive table per H^i that the fit reads and, for the fit and
    # the freeness check, whether it induces H^i's character at each level
    characters = [
        {level: chi(level, by_level[level]["characters"][i]) for level in levels}
        for i in range(config.i_max + 1 if want_chars else 0)
    ]
    generators = [{}] + [
        {e: {x: chi(e, v) for x, v in p["generators"][i].items()} for e, p in by_level.items()}
        for i in range(1, config.i_max + 1 if want_gens else 0)
    ]
    tables = [primitive_table(i, g) for i, g in enumerate(generators)] if want_gens else []
    matches = [
        {level: chi == induced_character(table, level) for level, chi in chars.items()}
        for chars, table in zip(characters, tables)
    ]

    if want_betti:
        header = ["level"] + [f"b{i}" for i in range(config.i_max + 1)]
        rows = [[level] + by_level[level]["betti"] for level in levels]
        _write_csv(out_dir / "betti.csv", header, rows)
        results["betti"] = {level.render(): by_level[level]["betti"] for level in levels}

    if "characters" in config.outputs:
        rows = []
        table: dict[str, dict] = {}
        # character values are reported as text, "3" or "1/2", in both files
        for level in levels:
            labels = [(c, c.render()) for c in conj_classes(level)]
            by_degree = table[level.render()] = {}
            for i, chars in enumerate(characters):
                values = by_degree[str(i)] = {label: str(chars[level](c)) for c, label in labels}
                rows.extend([level, i, label, value] for label, value in values.items())
        _write_csv(out_dir / "characters.csv", ["level", "i", "class", "value"], rows)
        results["characters"] = table

    if "fit" in config.outputs:
        from .checks import fit_output

        results["fit"], found = fit_output(spec, tables, matches, config.fit_degree_bound)
        findings += found

    if "freeness" in config.outputs:
        from .checks import freeness_output

        rows, entries, found = freeness_output(spec, matches, generators, get, log)
        findings += found
        results.update(entries)
        _write_csv(out_dir / "freeness.csv", ["i", "level", "match"], rows)

    if "stability" in config.outputs:
        rows = []
        detail = []
        for i, chars in enumerate(characters):
            values = {level: Fraction(invariants_dim(chars[level])) for level in levels}
            predicted = config.predicted_onset or degree_times(i, spec.cmax)
            report = stability_report(values, predicted)
            if not report.meets_prediction:
                findings.append(
                    f"stability i={i}: onset later than predicted {predicted.render()}"
                )
            rows.append(
                [
                    i,
                    predicted,
                    ";".join(v.render() for v in report.onsets),
                    report.stable_value if report.stable_value is not None else "none",
                    report.meets_prediction,
                ]
            )
            detail.append(
                {
                    "i": i,
                    "values": {level.render(): values[level] for level in levels},
                    "predicted_onset": predicted,
                    "onsets": list(report.onsets),
                    "stable_value": report.stable_value,
                    "meets_prediction": report.meets_prediction,
                }
            )
        _write_csv(
            out_dir / "stability.csv",
            ["i", "predicted_onset", "onsets", "stable_value", "meets_prediction"],
            rows,
        )
        results["stability"] = detail

    if "twisted" in config.outputs:
        from .checks import twisted_output

        rows, results["twisted"], found = twisted_output(
            spec, characters, config.twisted_polynomial
        )
        findings += found
        _write_csv(out_dir / "twisted.csv", ["i", "level", "value"], rows)

    if "normalize" in config.outputs:
        from .checks import normalize_output

        results["normalize"] = normalize_output(spec)
        (out_dir / "normalization.json").write_text(
            json.dumps(_jsonable(results["normalize"]), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    report = {
        "spec": spec.serialize(),
        "levels": [level for level in levels],
        "i_max": config.i_max,
        "outputs": list(config.outputs),
        "results": results,
        "findings": findings,
    }
    (out_dir / "report.json").write_text(
        json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    if findings:
        for finding in findings:
            print(f"FINDING: {finding}", file=sys.stderr)
        return 2
    return 0


def _resolve_cache(flag_value: str | None, config_value: str | None = None) -> str:
    return flag_value or os.environ.get(ENV_CACHE) or config_value or DEFAULT_CACHE


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Let interpreter exit skip the collector's walk over the live heap: a
    hook, once, so a caller running main many times keeps its collector."""
    import atexit
    import gc

    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    import argparse

    _freeze_heap_at_exit()
    parser = argparse.ArgumentParser(
        prog="arrstab",
        description="exact cohomology and character stability for arrangement families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a job described by a config file")
    run_parser.add_argument("--config", required=True, help="path to the JSON job config")
    run_parser.add_argument("--cache", default=None, help="lattice cache directory")
    run_parser.add_argument("--out", default=None, help="report output directory")
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes computing levels, this one included; at most one per level",
    )
    run_parser.add_argument("--verbose", action="store_true")

    sub.add_parser("catalog", help="list the named arrangement families")

    clean_parser = sub.add_parser("clean-cache", help="delete cached lattices")
    clean_parser.add_argument("--cache", default=None, help="lattice cache directory")

    args = parser.parse_args(argv)

    if args.command == "catalog":
        print(list_catalog())
        return 0

    if args.command == "clean-cache":
        from .cache import clean

        cache_dir = _resolve_cache(args.cache)
        try:
            removed = clean(cache_dir)
        except OSError as exc:  # a regular file, or a path under one
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"removed {removed} cached lattice(s) from {cache_dir}")
        return 0

    from .homology import LatticeError

    try:
        config = load_config(args.config)
        cache_dir = _resolve_cache(args.cache, config.cache_dir)
        out_dir = args.out or config.out_dir or DEFAULT_OUT
        config = replace(config, cache_dir=cache_dir, out_dir=out_dir)
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        return run(config, jobs=args.jobs, verbose=args.verbose)
    except (LatticeError, AssertionError, KeyError) as exc:
        # an engine invariant failed (e.g. a corrupted lattice) or an engine
        # lookup missed; config lookups raise ConfigError instead.  Not the
        # user's input, and not a finding
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # config errors, engine-level precondition failures (e.g. a spec that
        # is not normal where an operation requires it) and an unusable output
        # or cache path are input problems, not findings
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
