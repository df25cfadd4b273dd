"""Content-addressed on-disk cache for intersection lattices.

Files are keyed by a hash of (spec serialization, level, max_codim) and hold
one element per line in canonical serialization, together with the element's
full atom set as the indices of its atoms' lines, the index of its orbit's
representative and, on an atom's line, all of its names (``arrangement.Name``)
in ``enumerate_injections`` order, the first its witness.  So a load rebuilds
the order, the orbits and the group action without linear algebra.  A payload
checksum is stored alongside; a wrong format version, a checksum mismatch or
a parse failure (a zero denominator included) makes the loader report a miss
so the caller recomputes, and so does an orbit column in which a label is not
the smallest index of its orbit or an orbit mixes codims, a name out of order
or under two atoms, or an atom index at a line without names.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from .arrangement import ArrangementSpec, IntersectionLattice, build_lattice
from .exactlin import Subspace
from .fim import Injection, MultiIndex, parse_images

_MAGIC = "arrstab-lattice v4"
_SUFFIX = ".lattice.txt"


def lattice_key(spec: ArrangementSpec, level: MultiIndex, max_codim: int) -> str:
    payload = f"{spec.serialize()}\n{level.render()}\n{max_codim}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _parse_name(text: str):
    head, _, body = text.partition("@")
    return int(head[1:]), parse_images(body)


def _payload_lines(lat: IntersectionLattice) -> list[str]:
    names: dict[int, list[str]] = {}
    for (gi, images), atom in sorted(lat.atom_names.items()):
        names.setdefault(atom, []).append(f"g{gi}@{Injection(images, lat.level).render()}")
    return [
        f"{element.serialize()}\t"
        + ",".join(str(lat.atom_names[gi, f.images]) for gi, f in witness)
        + f"\t{orbit[0]}\t{'&'.join(names.get(idx, ()))}"
        for idx, (element, witness, orbit) in enumerate(zip(lat.elements, lat.provenance, lat.orbits))
    ]


def _payload_hash(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def store(cache_dir: Path | str, spec: ArrangementSpec, lat: IntersectionLattice) -> Path:
    import tempfile  # here, so that runs which store nothing never import it

    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
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
    text = "\n".join(header + lines) + "\n"
    target = cache_dir / f"{key}{_SUFFIX}"
    # atomic replace keeps concurrent writers of identical content safe
    fd, tmp_name = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return target


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
        witnesses: dict[int, tuple[int, Injection]] = {}  # by atom line
        for idx, line in enumerate(lines):
            serial, atoms, label, named = line.split("\t")
            elements.append(Subspace.parse(serial))
            atom_sets.append(atoms.split(","))
            labels.append(int(label))
            if named:
                own = [_parse_name(text) for text in named.split("&")]
                if own != sorted(set(own)) or any(names.setdefault(x, idx) != idx for x in own):
                    return None
                gi, images = own[0]
                witnesses[idx] = (gi, Injection(images, level))
        # a KeyError here: an atom index at a line with no names
        provenance = [tuple(witnesses[int(a)] for a in atoms) for atoms in atom_sets]
        lat = IntersectionLattice(level, max_codim, spec.r, elements, provenance, labels, names)
        for label, orbit in zip(labels, lat.orbits):
            if label != orbit[0] or lat.codims[orbit[0]] != lat.codims[orbit[-1]]:
                return None
        return lat
    except (ValueError, KeyError, IndexError, ZeroDivisionError):
        # ZeroDivisionError: a checksum-valid entry such as "1/0"
        return None


class CachingBuilder:
    """Lattice builder with an in-memory memo and optional disk persistence.

    A request below the codim of a lattice already memoised for the same
    spec and level is served by truncating that lattice, so asking for the
    largest codim first builds each level once.
    """

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
        above = [
            c for s, lv, c in self._memo if s == key[0] and lv == level and c > max_codim
        ]
        if above:
            lat = self._memo[(key[0], level, min(above))].truncated(max_codim)
        elif self.cache_dir is not None:
            lat = load(self.cache_dir, spec, level, max_codim)
        if lat is None:
            lat = build_lattice(spec, level, max_codim)
            if self.cache_dir is not None:
                store(self.cache_dir, spec, lat)
        self._memo[key] = lat
        return lat


def clean(cache_dir: Path | str) -> int:
    """Remove all lattice cache files; returns how many were deleted."""
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return 0
    removed = 0
    for path in sorted(cache_dir.glob(f"*{_SUFFIX}")):
        path.unlink()
        removed += 1
    return removed
