"""Content-addressed on-disk cache for intersection lattices.

Files are keyed by a hash of (spec serialization, level, max_codim) and hold
one element per line in canonical serialization, together with the element's
full atom set as the indices of its atoms' lines (``IntersectionLattice.atoms``,
listed by atom serialization), the index of its orbit's representative and,
on an atom's line, all of its names (``arrangement.Name``) in
``enumerate_injections`` order.  A load hands those indices and names to the
lattice as they are, so it rebuilds the order, the orbits and the group
action without linear algebra, and keeps an integer line's canonical text as
its element's serialization (``Subspace.parse``).  A payload checksum is
stored alongside; a wrong format version, a checksum mismatch or a parse
failure (a zero denominator included) makes the loader report a miss so the
caller recomputes, and so does an orbit column in which a label is not the
smallest index of its orbit or an orbit mixes codims, a name out of order or
under two atoms, or an atom index at a line without names.

Each (spec, level, max_codim) is its own file: a lattice is never cut down
from one of a larger cutoff, so ``CachingBuilder`` serves a request from its
memo, else from the disk, else by a build that it stores.

Beside the lattices, each level task's result (``cli._level_worker``: its
Betti vector, its characters and its generator characters) is its own file.
It is keyed by SHA-256 over the package's source digest (``source_digest``,
over every ``arrstab/*.py`` file), the spec's serialization, the level,
``i_max`` and the task's three want flags, so any edit to the engine makes
every stored result a miss.  The file holds canonical JSON of integers under
a payload checksum; a payload holding another value is not stored.  A file
with a bad checksum, another level, a character of another class count, a
degree missing or extra, or a value that is not an integer is reported as
corrupt, and the caller recomputes it and stores it again.  Only the lattice
paths import ``arrangement``, so a run whose every result is stored compiles
no lattice code.

SHA-256 comes from the interpreter's built-in module, which, unlike
``hashlib``, loads no OpenSSL; ``hashlib`` serves builds without one.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from .exactlin import Subspace
from .fim import ArrangementSpec, MultiIndex, conj_classes, parse_images, render_images

if TYPE_CHECKING:
    from .arrangement import IntersectionLattice

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

_MAGIC = "arrstab-lattice v4"
_SUFFIX = ".lattice.txt"
_RESULT_MAGIC = "arrstab-result v1"
_RESULT_SUFFIX = ".result.txt"
_TEMP_PREFIX = "arrstab-store-"  # a store's file until its rename


def lattice_key(spec: ArrangementSpec, level: MultiIndex, max_codim: int) -> str:
    payload = f"{spec.serialize()}\n{level.render()}\n{max_codim}"
    return sha256(payload.encode("utf-8")).hexdigest()


def _parse_name(text: str):
    head, _, body = text.partition("@")
    return int(head[1:]), parse_images(body)


def _payload_lines(lat: IntersectionLattice) -> list[str]:
    names: dict[int, list[str]] = {}
    for (gi, images), atom in sorted(lat.atom_names.items()):
        names.setdefault(atom, []).append(f"g{gi}@{render_images(images)}")
    rank = {a: k for k, a in enumerate(sorted(names, key=lambda a: lat.elements[a].serialization))}
    return [
        f"{element.serialize()}\t"
        + ",".join(map(str, sorted(atoms, key=rank.__getitem__)))
        + f"\t{orbit[0]}\t{'&'.join(names.get(idx, ()))}"
        for idx, (element, atoms, orbit) in enumerate(zip(lat.elements, lat.atoms, lat.orbits))
    ]


def _payload_hash(lines: list[str]) -> str:
    return sha256("\n".join(lines).encode("utf-8")).hexdigest()


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


def store(cache_dir: Path | str, spec: ArrangementSpec, lat: IntersectionLattice) -> Path:
    key = lattice_key(spec, lat.level, lat.max_codim)
    lines = _payload_lines(lat)
    header = [
        _MAGIC,
        f"level={lat.level.render()}",
        f"max_codim={lat.max_codim}",
        f"r={lat.r}",
        f"count={len(lines)}",
        f"payload-sha256={_payload_hash(lines)}",
    ]
    return _write(Path(cache_dir), f"{key}{_SUFFIX}", "\n".join(header + lines) + "\n")


def load(
    cache_dir: Path | str,
    spec: ArrangementSpec,
    level: MultiIndex,
    max_codim: int,
) -> IntersectionLattice | None:
    """Return the cached lattice, or None on miss or detected corruption."""
    path = Path(cache_dir) / f"{lattice_key(spec, level, max_codim)}{_SUFFIX}"
    if not path.is_file():
        return None
    try:
        raw = path.read_text(encoding="utf-8").splitlines()
        if raw[0] != _MAGIC:
            return None
        meta = dict(line.split("=", 1) for line in raw[1:6])
        if (
            MultiIndex.parse(meta["level"]) != level
            or int(meta["max_codim"]) != max_codim
            or int(meta["r"]) != spec.r
        ):
            return None
        count = int(meta["count"])
        lines = raw[6 : 6 + count]
        if len(lines) != count or _payload_hash(lines) != meta["payload-sha256"]:
            return None
        elements, atom_sets, labels = [], [], []
        names: dict = {}
        for idx, line in enumerate(lines):
            serial, atoms, label, named = line.split("\t")
            elements.append(Subspace.parse(serial))
            atom_sets.append(tuple(map(int, atoms.split(","))))
            labels.append(int(label))
            if named:
                own = [_parse_name(text) for text in named.split("&")]
                if own != sorted(set(own)) or any(names.setdefault(x, idx) != idx for x in own):
                    return None
        from .arrangement import IntersectionLattice

        # a ValueError here: an atom index at a line with no names
        lat = IntersectionLattice(level, max_codim, spec.r, elements, atom_sets, labels, names)
        for label, orbit in zip(labels, lat.orbits):
            if label != orbit[0] or lat.codims[orbit[0]] != lat.codims[orbit[-1]]:
                return None
        return lat
    except (ValueError, KeyError, IndexError, ZeroDivisionError):
        # ZeroDivisionError: a checksum-valid entry such as "1/0"
        return None


class CachingBuilder:
    """Lattice builder with an in-memory memo and optional disk persistence:
    a request is served from the memo, else from the disk, else built (and
    stored)."""

    def __init__(self, cache_dir: Path | str | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memo: dict[tuple[str, MultiIndex, int], IntersectionLattice] = {}

    def __call__(
        self, spec: ArrangementSpec, level: MultiIndex, max_codim: int
    ) -> IntersectionLattice:
        key = (spec.serialize(), level, max_codim)
        lat = self._memo.get(key)
        if lat is not None:
            return lat
        if self.cache_dir is not None:
            lat = load(self.cache_dir, spec, level, max_codim)
        if lat is None:
            from .arrangement import build_lattice

            lat = build_lattice(spec, level, max_codim)
            if self.cache_dir is not None:
                store(self.cache_dir, spec, lat)
        self._memo[key] = lat
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
    """The key of a level task ``(spec, level, i_max, want_betti, want_chars,
    want_gens)``."""
    spec, level, i_max, *wants = task
    flags = "".join("01"[bool(w)] for w in wants)
    payload = f"{source_digest()}\n{spec.serialize()}\n{level.render()}\n{i_max}\n{flags}"
    return sha256(payload.encode("utf-8")).hexdigest()


def _counts(values, length: int) -> bool:
    """Whether ``values`` is a list of ``length`` integers (no bool)."""
    return isinstance(values, list) and len(values) == length and all(type(v) is int for v in values)


def _check_result(data: dict, task: tuple) -> None:
    """Raise ValueError unless ``data`` is a result of ``task``: H^0..H^i_max's
    Betti numbers and characters and H^1..H^i_max's generator characters
    where wanted, None elsewhere, every value an integer and every character
    of the level's class count."""
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


def store_result(cache_dir: Path | str, task: tuple, payload: dict) -> Path | None:
    """Store a level task's payload (``result_key``); a payload holding a
    value that is not an integer is not stored, and gives None."""
    chars, gens = payload["characters"], payload["generators"]
    data = {
        "level": list(payload["level"]),
        "betti": payload["betti"],
        "characters": None if chars is None else list(map(list, chars)),
        # H^i's generator characters at index i - 1, in the worker's order
        "generators": None if gens is None else [
            [[x, list(values)] for x, values in gens[i].items()] for i in sorted(gens)
        ],
    }
    try:
        _check_result(data, task)
    except ValueError:
        return None
    body = json.dumps(data, sort_keys=True, separators=(",", ":"))
    text = f"{_RESULT_MAGIC}\npayload-sha256={sha256(body.encode('utf-8')).hexdigest()}\n{body}\n"
    return _write(Path(cache_dir), f"{result_key(task)}{_RESULT_SUFFIX}", text)


def load_result(cache_dir: Path | str, task: tuple) -> tuple[dict | None, str]:
    """A level task's stored payload and the event: ``hit``, else None and
    ``miss`` (no file) or ``corrupt`` (a file that fails a check)."""
    path = Path(cache_dir) / f"{result_key(task)}{_RESULT_SUFFIX}"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None, "miss"
    try:
        magic, checksum, body = text.splitlines()
        if magic != _RESULT_MAGIC or checksum != f"payload-sha256={sha256(body.encode('utf-8')).hexdigest()}":
            return None, "corrupt"
        data = json.loads(body)
        _check_result(data, task)
    except (ValueError, KeyError, TypeError, IndexError):
        return None, "corrupt"
    if data["generators"] is not None:
        data["generators"] = {i: dict(pairs) for i, pairs in enumerate(data["generators"], 1)}
    return data, "hit"


def clean(cache_dir: Path | str) -> tuple[int, int]:
    """Remove all lattice and result files, and the files of stores killed
    before their rename; returns how many lattice and result files were
    deleted."""
    cache_dir = Path(cache_dir)
    try:
        names = os.listdir(cache_dir)
    except FileNotFoundError:  # nothing cached; a file in the way raises
        return 0, 0
    lattices = [name for name in names if name.endswith(_SUFFIX)]
    results = [name for name in names if name.endswith(_RESULT_SUFFIX)]
    temps = [name for name in names if name.startswith(_TEMP_PREFIX) and name.endswith(".tmp")]
    for name in lattices + results + temps:
        (cache_dir / name).unlink()
    return len(lattices), len(results)
