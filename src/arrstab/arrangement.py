"""FI^m-arrangements: intersection lattices and the group action on them.

An arrangement family is given by finitely many generating subspaces, each at
a degree.  At a level n the lattice collects every subspace of bounded
codimension obtainable by intersecting preimages of generators along
injections into n, ordered by reverse inclusion and ranked by codimension.

The generator preimages are the atoms.  An injection f is s o sigma, s
increasing and sigma a point permutation, so f^*X = s^*(sigma^*X) comes from
the version sigma^*X, reduced once, by moving its rows.  Every element is the
intersection of the atoms containing it, and X is contained in Y exactly when
atoms(Y) is a subset of atoms(X).  The level's automorphism group permutes the
atoms and commutes with intersection, so construction meets one representative
per orbit with each atom only, never with other elements, and reaches the
other orbit members by the group generators, relabelling atom sets as it goes.
The atoms are lattice elements themselves, so every element's atom set is kept
as the ascending indices of its atoms, one representation from the closure
on; the order is read off those sets with one bitset of elements per atom,
without linear algebra.  Every name (generator, injection f) of each
atom f^*X is kept, so a point permutation g acts by lookup, f^*X going to
(g o f)^*X, and relabels every element's atom set; preimages along injections
are looked up alike.  Each orbit is walked once, under one transposition and
one n-cycle per factor, while the lattice is built, and the lattice records
it: ``orbits`` is what orbit lookups, primitive classes and per-orbit homology
read.  Elements are canonically sorted by (codim, serialization), which fixes
every downstream output byte for byte.

Primitivity, normality, normalization and primitive classes live in
``checks``, which only the outputs that use them load.  No lattice is stored
on the disk: a run builds each one it needs once (``cache.CachingBuilder``),
and the result cache holds what the reports read of it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

from .exactlin import RationalMatrix, Subspace, _pivot_columns, meet_rows, place_rows, scatter_rows
from .fim import (  # ArrangementSpec and family_mkr re-exported: the spec lives in fim
    ArrangementSpec, Images, Injection, LatticeError, MultiIndex, PermTuple, ambient_dim,
    binomial_representatives, compose_images, coordinate_permutation, family_mkr, group_order,
    injection_coordinates,
)

Name = tuple[int, Images]
"""A generator index and the images of an injection that pulls it back to an atom."""


class IntersectionLattice:
    """The ranked poset of arrangement subspaces at one level.

    Only positive-codimension subspaces are stored (the ambient space never
    is), deduplicated and sorted by (codim, serialization).  The poset order
    is reverse inclusion and the rank function is codimension.  ``atoms[i]``
    is element i's full atom set, the ascending indices of the atoms (which
    are elements too) that contain it; bit a of an element's mask stands for
    element a, and the order and the group action are derived from the masks.
    ``atom_names`` maps every ``Name`` of every atom to the atom's index.
    ``orbit_labels`` names each element's Aut(n)-orbit by any label shared
    by exactly its members; ``orbits[i]`` is then the ascending tuple of the
    indices in element i's orbit, whose first entry is the representative.
    Instances are immutable once built; the order table behind ``containing``
    is made on its first use, so a lattice read only for its orbits and atoms,
    as the freeness check reads one, never makes it.
    """

    __slots__ = (
        "level",
        "max_codim",
        "r",
        "elements",
        "atoms",
        "codims",
        "orbits",
        "atom_names",
        "_containing",
        "_masks",
        "_by_mask",
        "_having",
    )

    def __init__(
        self,
        level: MultiIndex,
        max_codim: int,
        r: int,
        elements: Sequence[Subspace],
        atoms: Sequence[Sequence[int]],
        orbit_labels: Sequence[int],
        atom_names: dict[Name, int],
    ):
        """``atoms`` and ``atom_names`` index ``elements`` in the order given.
        A name pointing outside ``elements``, an atom index that no name
        points at, or a named element outside its own atom set raises
        ValueError."""
        count = len(elements)
        order = sorted(range(count), key=lambda i: (elements[i].codim, elements[i].serialization))
        position = [0] * count
        for idx, i in enumerate(order):
            position[i] = idx
        named = set(atom_names.values())
        if not all(0 <= a < count for a in named):
            raise ValueError("atom name points outside the elements")
        new = {a: position[a] for a in named}
        self.level = level
        self.max_codim = max_codim
        self.r = r
        self.elements: tuple[Subspace, ...] = tuple(elements[i] for i in order)
        try:
            self.atoms: tuple[tuple[int, ...], ...] = tuple(
                tuple(sorted(map(new.__getitem__, atoms[i]))) for i in order
            )
        except KeyError:
            raise ValueError("atom index that no name points at") from None
        self.codims: tuple[int, ...] = tuple(e.codim for e in self.elements)
        members: dict[int, list[int]] = {}
        for idx, i in enumerate(order):
            members.setdefault(orbit_labels[i], []).append(idx)
        orbits = {label: tuple(m) for label, m in members.items()}
        self.orbits: tuple[tuple[int, ...], ...] = tuple(orbits[orbit_labels[i]] for i in order)
        self.atom_names = {name: new[a] for name, a in atom_names.items()}
        # Bit i of having[a] is set when element i has atom a.
        having = dict.fromkeys(new.values(), 0)
        masks = []
        for idx, own in enumerate(self.atoms):
            for a in own:
                having[a] |= 1 << idx
            masks.append(sum(1 << a for a in own))
        if any(not masks[a] >> a & 1 for a in having):
            raise ValueError("atom names do not match the atoms")
        self._having = having
        self._masks = masks
        self._by_mask = {mask: idx for idx, mask in enumerate(masks)}
        self._containing = None  # the order table, made by the first ``containing``

    def __len__(self) -> int:
        return len(self.elements)

    def containing(self, idx: int) -> tuple[int, ...]:
        """Indices of elements strictly containing element ``idx``."""
        if self._containing is None:
            self._containing = self._order_table()
        return self._containing[idx]

    def _order_table(self) -> tuple[tuple[int, ...], ...]:
        """For each element, the elements strictly containing it.

        X is strictly inside Y iff atoms(Y) is a proper subset of atoms(X):
        Y is of lower codim and has none of the atoms X lacks.
        """
        having = self._having
        every_atom = sum(1 << a for a in having)
        below = 0  # the elements of lower codim, as a bitset
        containing = []
        for i, mask in enumerate(self._masks):
            if i and self.codims[i] > self.codims[i - 1]:
                below = (1 << i) - 1
            excluded = 0
            rest = every_atom & ~mask
            while rest:
                low = rest & -rest
                rest ^= low
                excluded |= having[low.bit_length() - 1]
            containing.append(_bit_indices(below & ~excluded))
        return tuple(containing)

    def act(self, g: PermTuple) -> tuple[int, ...]:
        """The permutation of element indices induced by g; order preserving.

        g maps the atom named (gi, f), f^*X, to (g o f)^*X, named (gi, g o f):
        each atom's image is looked up in ``atom_names`` under one of its
        names, and every other element follows by relabelling its atom set.
        A missing name or a result that is not a bijection raises LatticeError.
        """
        if g.level != self.level:
            raise ValueError("permutation level does not match lattice level")
        weight = {a: 1 << b for a, b in _atom_images(self.atom_names, g).items()}
        out = [self._by_mask.get(sum(map(weight.__getitem__, own))) for own in self.atoms]
        if None in out:
            raise LatticeError("group action left the lattice; lattice corrupted")
        if set(out) != set(range(len(out))):
            raise LatticeError("group action is not a bijection; lattice corrupted")
        return tuple(out)

    def meet_of_atoms(self, names: Iterable[Name]) -> int | None:
        """The lowest element in all the named atoms, their meet; None above the cutoff."""
        common = -1
        for name in names:
            common &= self._having.get(self.atom_names.get(name), 0)
        return (common & -common).bit_length() - 1 if common > 0 else None


def _first_names(names: dict[Name, int]) -> dict[int, Name]:
    """Each atom's first name in ``names``."""
    first: dict[int, Name] = {}
    for name, a in names.items():
        first.setdefault(a, name)
    return first


def _atom_images(names: dict[Name, int], g: PermTuple) -> dict[int, int]:
    """For each atom, by its first name (gi, f), the value of the name (gi, g o f)."""
    images = {
        a: names.get((gi, compose_images(g.perms, f))) for a, (gi, f) in _first_names(names).items()
    }
    if None in images.values():
        raise LatticeError("group action maps an atom name to no atom; lattice corrupted")
    return images


def _bit_indices(bitset: int) -> tuple[int, ...]:
    """The positions of the set bits, ascending."""
    digits = bin(bitset)[:1:-1]
    out = []
    pos = digits.find("1")
    while pos >= 0:
        out.append(pos)
        pos = digits.find("1", pos + 1)
    return tuple(out)


def _atoms(
    spec: ArrangementSpec, n: MultiIndex, max_codim: int
) -> tuple[list[Subspace], dict[Name, int]]:
    """The distinct generator preimages of codim <= max_codim, by
    serialization, and each name's atom, names in ``enumerate_injections``
    order, which is lexicographic by images.

    An injection f is s o sigma, with s the increasing injection onto f's
    image and sigma in Aut(degree), so f^*X = s^*(sigma^*X).  Each version
    sigma^*X costs one reduction, the identity's none, and s moves its RREF
    rows to increasing columns, where they stay in RREF.
    """
    dim = ambient_dim(n, spec.r)
    first: dict[str, Subspace] = {}
    named: dict[Name, str] = {}
    for gi, (degree, sub) in enumerate(spec.generators):
        if sub.codim > max_codim or not degree.leq(n):
            continue
        versions: dict[tuple, list[Images]] = {}  # the rows of sigma^*X -> every such sigma
        for sigma in itertools.product(*map(itertools.permutations, map(range, degree))):
            columns = injection_coordinates(Injection(sigma, degree), spec.r)
            rows = sub.constraints.entries
            if columns != tuple(range(len(columns))):
                rows = scatter_rows(rows, columns, sub.ambient_dim)
            versions.setdefault(rows, []).append(sigma)
        for s in binomial_representatives(degree, n):
            columns = injection_coordinates(s, spec.r)
            for rows, sigmas in versions.items():
                pre = Subspace(dim, RationalMatrix(place_rows(rows, columns, dim), dim))
                first.setdefault(pre.serialization, pre)
                for sigma in sigmas:
                    named[gi, compose_images(s.images, sigma)] = pre.serialization
    atom_of = {key: a for a, key in enumerate(sorted(first))}
    return [first[key] for key in atom_of], {name: atom_of[named[name]] for name in sorted(named)}


def build_lattice(
    spec: ArrangementSpec, n: MultiIndex, max_codim: int
) -> IntersectionLattice:
    """All arrangement subspaces of codim <= max_codim at level n, saturated.

    The atoms are the distinct generator preimages of codim <= max_codim,
    made once per image set and generator version (``_atoms``).  Aut(n)
    permutes them, and g(X .. A) = gX .. gA, so the closure meets only one
    representative per orbit, by increasing codim, with every atom not
    containing it, and takes every other orbit member from the group.
    That is complete under the cutoff: an element Z that is not an atom is
    X .. A for an element X of lower codim and an atom A not containing X
    (drop one atom from a minimal set of atoms meeting in Z), and if gX
    represents X's orbit, the meet gX .. gA = gZ is formed, so Z's orbit is
    recorded.  Meets of elements at codim max_codim exceed the cutoff, so
    that layer is not intersected.  An empty lattice is legal (no injection
    from any generator degree, or every atom already exceeds the cutoff).

    The order needs every element's full atom set.  A new representative's
    set starts from the atoms of its two parts and is completed by
    containment tests (a meet capped at its own codim) with the other atoms
    of lower codim; an atom of equal codim containing it would be the
    element itself.  Each generator g permutes the atoms by name, (gi, f)
    to (gi, g o f), and maps an element's full atom set onto that of its
    image, so an orbit member's atom set is the relabelled mask, and its
    rows cost one reduction (``exactlin.scatter_rows``) only when that mask
    is new.  An orbit member whose rows are already indexed under another
    atom set raises LatticeError.  Every
    element is labelled with the walk that reached it, which makes the
    lattice's orbit partition.
    """
    if max_codim < 1:
        raise ValueError("max_codim must be at least 1")
    if n.m != spec.m:
        raise ValueError("level has wrong number of factors")
    atoms, names = _atoms(spec, n, max_codim)
    dim = ambient_dim(n, spec.r)
    atom_rows = [atom.constraints.entries for atom in atoms]
    index: dict[tuple, int] = {rows: a for a, rows in enumerate(atom_rows)}
    rows_of: list[tuple] = list(atom_rows)
    pivots_of: list[list[int]] = [_pivot_columns(rows) for rows in atom_rows]
    masks: list[int] = [1 << a for a in range(len(atoms))]  # bit a: atoms[a] contains it
    by_mask: dict[int, int] = {}  # complete atom sets only
    walk: dict[int, int] = {}  # element -> the element its orbit walk started at
    layers: list[list[int]] = [[] for _ in range(max_codim + 1)]  # representatives
    every_atom = (1 << len(atoms)) - 1
    gens = _group_generators(n)
    perms = [coordinate_permutation(g, spec.r) for g in gens]
    atom_images = [_atom_images(names, g) for g in gens]

    def add(rows: tuple, mask: int) -> int:
        idx = index[rows] = len(masks)
        rows_of.append(rows)
        pivots_of.append(_pivot_columns(rows))
        masks.append(mask)
        return idx

    def close_orbit(idx: int) -> None:
        rows, pivots = rows_of[idx], pivots_of[idx]
        for a in _bit_indices(every_atom & ~masks[idx]):
            atom = atom_rows[a]
            if len(atom) < len(rows) and meet_rows(rows, pivots, atom, dim, len(rows)) is not None:
                masks[idx] |= 1 << a
        layers[len(rows)].append(idx)
        by_mask[masks[idx]] = walk[idx] = idx
        frontier = [idx]
        while frontier:
            found = []
            for x in frontier:
                for perm, images in zip(perms, atom_images):
                    mask = _relabel(masks[x], images)
                    if mask in by_mask:
                        continue
                    if x < len(atoms):
                        y = images[x]
                        masks[y] = mask
                    else:
                        image = scatter_rows(rows_of[x], perm, dim)
                        if image in index:
                            raise LatticeError("orbit member indexed under another atom set")
                        y = add(image, mask)
                    by_mask[mask] = y
                    walk[y] = idx
                    found.append(y)
            frontier = found

    for a in range(len(atoms)):
        if masks[a] not in by_mask:  # else its orbit is already recorded
            close_orbit(a)
    # Layers grow while iterated; every meet lands in a later layer.
    for layer in layers[:max_codim]:
        for idx in layer:
            for a in _bit_indices(every_atom & ~masks[idx]):
                rows = meet_rows(rows_of[idx], pivots_of[idx], atom_rows[a], dim, max_codim)
                if rows is not None and rows not in index:
                    close_orbit(add(rows, masks[idx] | 1 << a))
    elements = atoms + [Subspace(dim, RationalMatrix(rows, dim)) for rows in rows_of[len(atoms) :]]
    labels = [walk[i] for i in range(len(masks))]
    return IntersectionLattice(n, max_codim, spec.r, elements, list(map(_bit_indices, masks)), labels, names)


def _relabel(mask: int, images: dict[int, int]) -> int:
    """The mask with bit a moved to bit images[a]."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << images[low.bit_length() - 1]
    return out


LatticeBuilder = Callable[[ArrangementSpec, MultiIndex, int], IntersectionLattice]


def _group_generators(level: MultiIndex) -> list[PermTuple]:
    """A transposition and an n-cycle in each factor of size n >= 2; they
    generate the whole automorphism group of ``level``."""
    gens = []
    for j, n in enumerate(level):
        if n < 2:
            continue
        swap = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        for perm in (swap,) if n == 2 else (swap, cycle):
            perms = [tuple(range(k)) for k in level]
            perms[j] = perm
            gens.append(PermTuple(tuple(perms)))
    return gens


def orbit_of(lat: IntersectionLattice, idx: int) -> tuple[tuple[int, ...], int]:
    """Indices of the group orbit of element ``idx``, as the lattice recorded
    it, and its stabilizer order |G| / |orbit|."""
    members = lat.orbits[idx]
    return members, group_order(lat.level) // len(members)


def __getattr__(name: str):
    """``primitive_classes`` lives in ``checks``; the benchmark tracer still
    hooks it here, so it resolves here until the tracer names its home."""
    if name != "primitive_classes":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .checks import primitive_classes

    return primitive_classes
