"""The on-disk result cache, and the run's lattice memo.

By finite generation every report is a function of per-level results, so
the cache holds those and no lattice: each level task's result
(``cli._level_worker``: its Betti vector, characters and generator
characters), and a freeness job's lattice step (``checks.freeness_step``:
its primitive classes and each level's orbit table), one file each.  A file
is named by SHA-256 over the spec's serialization, the level (the level
range for the step), ``i_max`` and the wants, and holds the package's source
digest (``source_digest``) and canonical JSON under a payload checksum.  A
file of other sources is a miss that the next store overwrites, so an engine
edit leaves one file per task.  A payload that a load would reject, such as
one holding a Fraction, is not stored; a file with a bad checksum or a value
of another shape or type is corrupt, and is recomputed and stored again.
Only the memo's build imports the engine, so a run whose every result is
stored compiles no lattice code; ``CachingBuilder`` builds each lattice once
per process and never writes one.

SHA-256 comes from the interpreter's built-in module, which, unlike
``hashlib``, loads no OpenSSL; ``hashlib`` serves builds without one.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from .fim import ArrangementSpec, MultiIndex, conj_classes

if TYPE_CHECKING:
    from .arrangement import IntersectionLattice

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

_MAGIC = "arrstab-result v2"
_SUFFIX = ".result.txt"
_LATTICE_SUFFIX = ".lattice.txt"  # the lattice files of earlier versions, which ``clean`` removes
_TEMP_PREFIX = "arrstab-store-"  # a store's file until its rename


def _hex(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def _write(cache_dir: Path, name: str, text: str) -> Path:
    """Write ``text`` to ``cache_dir / name`` by an atomic rename, which
    keeps concurrent writers of identical content safe."""
    import tempfile  # here, so that runs which store nothing never import it

    cache_dir.mkdir(parents=True, exist_ok=True)
    target = cache_dir / name
    fd, tmp_name = tempfile.mkstemp(dir=cache_dir, prefix=_TEMP_PREFIX, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return target


class CachingBuilder:
    """Lattice builder with an in-memory memo: each (spec, level, max_codim)
    is built once, on its first request."""

    def __init__(self):
        self._memo: dict[tuple[str, MultiIndex, int], IntersectionLattice] = {}

    def __call__(
        self, spec: ArrangementSpec, level: MultiIndex, max_codim: int
    ) -> IntersectionLattice:
        key = (spec.serialize(), level, max_codim)
        lat = self._memo.get(key)
        if lat is None:
            from .arrangement import build_lattice

            lat = self._memo[key] = build_lattice(spec, level, max_codim)
        return lat


@functools.cache
def source_digest() -> str:
    """SHA-256 over the package's sources: each ``*.py`` file's name, size
    and bytes, in name order."""
    home = Path(__file__).parent
    digest = sha256()
    for name in sorted(name for name in os.listdir(home) if name.endswith(".py")):
        data = (home / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8") + data)
    return digest.hexdigest()


def result_key(task: tuple) -> str:
    """The file name key of a level task ``(spec, level, i_max, want_betti,
    want_chars, want_gens)`` or of a freeness step ``(spec, levels, i_max)``."""
    spec, where, i_max, *wants = task
    where = where.render() if wants else f"{where[0].render()}..{where[-1].render()}"
    flags = "".join("01"[bool(w)] for w in wants) or "freeness"
    return _hex(f"{spec.serialize()}\n{where}\n{i_max}\n{flags}")


def _counts(values, length: int) -> bool:
    """Whether ``values`` is a list of ``length`` integers (no bool)."""
    return isinstance(values, list) and len(values) == length and all(type(v) is int for v in values)


def _check_level(data: dict, task: tuple) -> None:
    """Raise ValueError unless ``data`` is a result of the level task: H^0..H^i_max's
    Betti numbers and characters and H^1..H^i_max's generator characters, as
    [serialization, values] pairs, where wanted, None elsewhere, every value
    an integer and every character of the level's class count."""
    spec, level, i_max, want_betti, want_chars, want_gens = task
    if set(data) != {"level", "betti", "characters", "generators"}:
        raise ValueError("result with other fields")
    betti, chars, gens = data["betti"], data["characters"], data["generators"]
    if data["level"] != list(level):
        raise ValueError("result of another level")
    for value, wanted, length in ((betti, want_betti, i_max + 1), (chars, want_chars, i_max + 1), (gens, want_gens, i_max)):
        shaped = isinstance(value, list) and len(value) == length
        if wanted and not shaped or not wanted and value is not None:
            raise ValueError("result of another degree range")
    if betti is not None and not _counts(betti, i_max + 1):
        raise ValueError("a Betti number that is not an integer")
    pairs = [pair for degree in gens or () for pair in degree]
    if not all(isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is str for pair in pairs):
        raise ValueError("a generator character without its class")
    classes = len(conj_classes(level))
    if not all(_counts(row, classes) for row in (chars or []) + [pair[1] for pair in pairs]):
        raise ValueError("a character of another class count, or not of integers")


def _check_step(data: dict, task: tuple) -> None:
    """Raise ValueError unless ``data`` is a freeness step of the task's spec
    and levels: each class [degree, codim, stabilizer order, serialization],
    and per level [class, elements, binomial classes] rows."""
    spec, levels, _ = task
    if set(data) != {"classes", "orbits"}:
        raise ValueError("freeness step with other fields")
    classes, orbits = data["classes"], data["orbits"]
    if not all(
        len(c) == 4 and _counts(c[0], spec.m) and _counts(c[1:3], 2) and type(c[3]) is str for c in classes
    ):
        raise ValueError("a class of another shape")
    rows = [row for table in orbits for row in table]
    if len(orbits) != len(levels) or not all(_counts(row, 3) and 0 <= row[0] < len(classes) for row in rows):
        raise ValueError("an orbit table of another level count or class")


def _check(data: dict, task: tuple) -> None:
    """Raise ValueError unless ``data`` is a payload of ``task``."""
    (_check_step if len(task) == 3 else _check_level)(data, task)


def store(cache_dir: Path | str, task: tuple, payload: dict) -> Path | None:
    """Store a task's payload (``result_key``); a payload that its load
    would not pass, such as one holding a Fraction, is not stored, and gives
    None."""
    try:
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        _check(json.loads(body), task)
    except (TypeError, ValueError):
        return None
    text = f"{_MAGIC}\nsource-sha256={source_digest()}\npayload-sha256={_hex(body)}\n{body}\n"
    return _write(Path(cache_dir), f"{result_key(task)}{_SUFFIX}", text)


def load(cache_dir: Path | str, task: tuple) -> dict | None:
    """A task's stored payload, or None on a miss: no file, or one stored by
    other sources.  A file that fails a check raises ValueError."""
    path = Path(cache_dir) / f"{result_key(task)}{_SUFFIX}"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    magic, source, checksum, body = text.splitlines()  # else a ValueError
    if magic != _MAGIC or checksum != f"payload-sha256={_hex(body)}":
        raise ValueError(f"{path.name} is no result file, or fails its checksum")
    if source != f"source-sha256={source_digest()}":
        return None
    try:
        data = json.loads(body)
        _check(data, task)
    except (TypeError, KeyError, IndexError) as exc:
        raise ValueError(f"{path.name} holds another shape") from exc
    return data


def clean(cache_dir: Path | str) -> tuple[int, int]:
    """Remove all result files, the lattice files of earlier versions, and
    the files of stores killed before their rename; returns how many lattice
    and result files were deleted."""
    cache_dir = Path(cache_dir)
    try:
        names = os.listdir(cache_dir)
    except FileNotFoundError:  # nothing cached; a file in the way raises
        return 0, 0
    lattices = [name for name in names if name.endswith(_LATTICE_SUFFIX)]
    results = [name for name in names if name.endswith(_SUFFIX)]
    temps = [name for name in names if name.startswith(_TEMP_PREFIX) and name.endswith(".tmp")]
    for name in lattices + results + temps:
        (cache_dir / name).unlink()
    return len(lattices), len(results)
