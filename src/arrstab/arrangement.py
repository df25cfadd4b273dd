"""FI^m-arrangements: intersection lattices, normality, normalization.

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
as the ascending indices of its atoms, one representation from the closure to
the cache file; the order is read off those sets with one bitset of elements
per atom, without linear algebra.  Every name (generator, injection f) of each
atom f^*X is kept, so a point permutation g acts by lookup, f^*X going to
(g o f)^*X, and relabels every element's atom set; preimages along injections
are looked up alike.  Each orbit is walked once, under one transposition and
one n-cycle per factor, while the lattice is built, and the lattice records
it: ``orbits`` is what orbit lookups, primitive classes and per-orbit homology
read.  Elements are canonically sorted by (codim, serialization), which fixes
every downstream output byte for byte.

A subspace contains the kernel of the map induced by an injection exactly
when its nonzero constraint columns lie at the injection's coordinates, and
then its image is read off those columns (``fim.pushforward``).  Primitivity,
normality and normalization are all tests on that constraint support.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable, Iterable, Sequence

from .exactlin import (
    RationalMatrix,
    Subspace,
    _pivot_columns,
    constraint_support,
    meet_rows,
    place_rows,
    scatter_rows,
)
from .fim import (
    ArrangementSpec,
    Images,
    Injection,
    MultiIndex,
    PermTuple,
    ambient_dim,
    binomial_class_key,
    binomial_representatives,
    compose_images,
    coordinate_permutation,
    degree_times,
    enumerate_injections,
    family_mkr,  # re-exported: the spec lives in fim
    group_order,
    injection_coordinates,
    pullback,
    pushforward,
)
from .homology import LatticeError, RankedPoset
from .record import record

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
    Instances are immutable once built.
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
        "_index",
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
        self._index = {e.serialization: i for i, e in enumerate(self.elements)}
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
        self._by_mask = {mask: idx for idx, mask in enumerate(masks)}
        # X strictly inside Y iff atoms(Y) is a proper subset of atoms(X):
        # the elements of lower codim that have none of the atoms X lacks
        every_atom = sum(1 << a for a in having)
        below = 0  # the elements of lower codim, as a bitset
        containing = []
        for i, mask in enumerate(masks):
            if i and self.codims[i] > self.codims[i - 1]:
                below = (1 << i) - 1
            excluded = 0
            rest = every_atom & ~mask
            while rest:
                low = rest & -rest
                rest ^= low
                excluded |= having[low.bit_length() - 1]
            containing.append(_bit_indices(below & ~excluded))
        self._containing = tuple(containing)

    def truncated(self, max_codim: int) -> "IntersectionLattice":
        """The lattice of the same level cut off at a smaller codimension.

        Atom sets do not depend on the cutoff, so this equals a fresh build
        at ``max_codim`` in elements, atom sets and order.  An orbit has a
        single codim, so the orbits are kept whole.
        """
        if not 1 <= max_codim <= self.max_codim:
            raise ValueError("truncation must lie between 1 and max_codim")
        keep = bisect.bisect_right(self.codims, max_codim)
        return IntersectionLattice(
            self.level,
            max_codim,
            self.r,
            self.elements[:keep],
            self.atoms[:keep],
            [orbit[0] for orbit in self.orbits[:keep]],
            {name: a for name, a in self.atom_names.items() if a < keep},
        )

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, x: Subspace) -> int:
        idx = self._index.get(x.serialization)
        if idx is None:
            raise KeyError("subspace is not a lattice element")
        return idx

    def __contains__(self, x: Subspace) -> bool:
        return x.serialization in self._index

    def containing(self, idx: int) -> tuple[int, ...]:
        """Indices of elements strictly containing element ``idx``."""
        return self._containing[idx]

    def poset_less(self, a: int, b: int) -> bool:
        """Reverse-inclusion order: a < b iff subspace a strictly contains b."""
        return a in self._containing[b]

    def lower_interval(self, x: Subspace | int) -> RankedPoset:
        """The ranked subposet of elements strictly containing x."""
        idx = x if isinstance(x, int) else self.index_of(x)
        members = self._containing[idx]
        position = {orig: pos for pos, orig in enumerate(members)}
        less = frozenset(
            (position[a], pb)
            for pb, b in enumerate(members)
            for a in self._containing[b]
            if a in position
        )
        return RankedPoset(
            tuple(members), less, tuple(self.codims[i] for i in members)
        )

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


def is_primitive(spec: ArrangementSpec, degree: MultiIndex, x: Subspace) -> bool:
    """True iff x contains no kernel of a map induced from a smaller degree.

    Among all induced-map kernels the minimal ones are those of corank-one
    injections missing a single point, and those kernels are the coordinate
    spans of single points.  So x is primitive exactly when its constraint
    support touches every point.
    """
    if x.ambient_dim != ambient_dim(degree, spec.r):
        raise ValueError("subspace ambient does not match the degree")
    return len({c // spec.r for c in constraint_support(x)}) == degree.total


@record
class NormalityViolation:
    source: MultiIndex
    target: MultiIndex
    injection: Injection
    element: Subspace
    image: Subspace


@record
class NormalityReport:
    normal: bool
    checked_degrees: tuple[MultiIndex, ...]
    violation: NormalityViolation | None = None


def verify_normal(
    spec: ArrangementSpec,
    degrees: Sequence[MultiIndex],
    get_lattice: LatticeBuilder = build_lattice,
) -> NormalityReport:
    """Check that kernel-containing elements are preimages from below.

    For every pair c -> d among the listed degrees and every element at d
    containing the kernel of the induced map, i.e. whose constraint support
    lies at the injection's coordinates, the pushforward must already be a
    lattice element at c.  The first failure is reported; violations are
    report content, not exceptions.
    """
    degrees = tuple(degrees)
    lattices = {
        d: get_lattice(spec, d, max(1, ambient_dim(d, spec.r))) for d in degrees
    }
    supports = {
        d: [constraint_support(x) for x in lat.elements]
        for d, lat in lattices.items()
    }
    for c in degrees:
        for d in degrees:
            if not c.leq(d):
                continue
            lat_d = lattices[d]
            if not len(lat_d):
                continue
            lat_c = lattices[c]
            for f in enumerate_injections(c, d):
                columns = set(injection_coordinates(f, spec.r))
                for x, support in zip(lat_d.elements, supports[d]):
                    if not support <= columns:
                        continue
                    image = pushforward(f, spec.r, x)
                    if image not in lat_c:
                        return NormalityReport(
                            False,
                            degrees,
                            NormalityViolation(c, d, f, x, image),
                        )
    return NormalityReport(True, degrees)


def _degrees_below(bound: MultiIndex) -> list[MultiIndex]:
    """All degrees <= bound, sorted by (total size, lex)."""
    grid = itertools.product(*(range(b + 1) for b in bound))
    return sorted((MultiIndex(t) for t in grid), key=lambda e: (e.total, tuple(e)))


def class_degrees(spec: ArrangementSpec, max_codim: int) -> list[MultiIndex]:
    """The degrees that can carry a primitive class of codim <= max_codim."""
    bound = degree_times(max_codim, spec.cmax)
    return [e for e in _degrees_below(bound) if any(deg.leq(e) for deg, _ in spec.generators)]


def normalize(spec: ArrangementSpec) -> ArrangementSpec:
    """Push each generator down to the smallest degree that carries it.

    A generator contains the kernel of the map induced by an injection
    exactly when its constraint support lies on the injection's image points.
    So the smallest degree that carries it counts, per factor, the points the
    support touches, and the replacement is the generator's pushforward along
    the order-preserving injection onto those points (the first such
    injection in enumeration order).  The result is generated by primitive
    subspaces and the operation is idempotent.
    """
    new_gens = []
    for degree, sub in spec.generators:
        points = {c // spec.r for c in constraint_support(sub)}
        images = []
        offset = 0
        for n in degree:
            images.append(tuple(i for i in range(n) if offset + i in points))
            offset += n
        f = Injection(tuple(images), degree)
        image = pushforward(f, spec.r, sub)
        assert is_primitive(spec, f.source, image)
        new_gens.append((f.source, image))
    return ArrangementSpec(spec.m, spec.r, tuple(new_gens))


@record
class PrimitiveClass:
    """An equivalence class of primitive subspaces: the Aut(degree)-orbit
    of its canonical member ``subspace`` (first) and each member's atoms,
    one ``Name`` each."""

    degree: MultiIndex
    orbit: tuple[Subspace, ...]
    stabilizer_order: int
    atoms: tuple[tuple[Name, ...], ...]

    @property
    def subspace(self) -> Subspace:
        return self.orbit[0]

    @property
    def codim(self) -> int:
        return self.subspace.codim


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


def primitive_classes(
    spec: ArrangementSpec,
    max_codim: int,
    get_lattice: LatticeBuilder = build_lattice,
) -> tuple[PrimitiveClass, ...]:
    """Representatives of primitive-subspace classes of codim <= max_codim.

    Scans every ``class_degrees`` degree (no primitive of this codimension
    can occur at a degree above the bound) and keeps, at each degree,
    the orbits whose representative is primitive: the point action preserves
    primitivity, so that decides the whole orbit.  Requires the spec to pass
    the normality check on its generator degrees.
    """
    if not spec.generators:
        return ()
    gen_degrees = tuple(dict.fromkeys(deg for deg, _ in spec.generators))
    report = verify_normal(spec, gen_degrees, get_lattice)
    if not report.normal:
        raise ValueError("spec is not normal on its generator degrees")
    classes: list[PrimitiveClass] = []
    for e in class_degrees(spec, max_codim):
        lat = get_lattice(spec, e, max_codim)
        name_of = _first_names(lat.atom_names)
        for idx, members in enumerate(lat.orbits):
            if members[0] == idx and is_primitive(spec, e, lat.elements[idx]):
                orbit = tuple(lat.elements[y] for y in members)
                atoms = tuple(tuple(name_of[a] for a in lat.atoms[y]) for y in members)
                classes.append(PrimitiveClass(e, orbit, group_order(e) // len(orbit), atoms))
    return tuple(classes)


@record
class OrbitDecomposition:
    """Assignment of each lattice element to one primitive class and one
    binomial class of injections."""

    assignments: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]

    def blocks(self) -> dict[int, dict[tuple, tuple[int, ...]]]:
        out: dict[int, dict[tuple, list[int]]] = {}
        for idx, (ci, key) in enumerate(self.assignments):
            out.setdefault(ci, {}).setdefault(key, []).append(idx)
        return {
            ci: {key: tuple(v) for key, v in keyed.items()}
            for ci, keyed in out.items()
        }

    def class_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for ci, _ in self.assignments:
            sizes[ci] = sizes.get(ci, 0) + 1
        return sizes


def orbit_decomposition(
    lat: IntersectionLattice, classes: Sequence[PrimitiveClass]
) -> OrbitDecomposition:
    """Split the lattice into orbit blocks indexed by binomial classes.

    Every element must arise from exactly one primitive class and, within it,
    one binomial class of injections; anything else signals a non-normal
    input or an incomplete class list and raises LatticeError.

    The injections of one binomial class are f o h for its order-preserving
    member f and h in Aut(e), and (f o h)^* X = f^*(h^* X).  So a class's
    preimages are those of its orbit's subspaces along f alone; f^*y meets
    the atoms named (gi, f o h) over y's atoms (gi, h).
    """
    table: dict[int, set[tuple[int, tuple]]] = {}
    for ci, cls in enumerate(classes):
        if not cls.degree.leq(lat.level):
            continue
        for f in binomial_representatives(cls.degree, lat.level):
            key = binomial_class_key(f)
            for atoms in cls.atoms:
                idx = lat.meet_of_atoms((gi, compose_images(f.images, h)) for gi, h in atoms)
                if idx is not None:
                    table.setdefault(idx, set()).add((ci, key))
    assignments = []
    for idx in range(len(lat)):
        hits = table.get(idx)
        if not hits:
            raise LatticeError(
                f"element {idx} matched by no primitive class"
            )
        class_ids = {ci for ci, _ in hits}
        if len(class_ids) > 1:
            raise LatticeError(
                f"element {idx} matched by {len(class_ids)} primitive classes"
            )
        if len(hits) > 1:
            raise LatticeError(
                f"element {idx} matched by several binomial classes"
            )
        assignments.append(next(iter(hits)))
    return OrbitDecomposition(tuple(assignments))


@record
class DownwardStabilityReport:
    stable: bool
    source: MultiIndex
    target: MultiIndex
    failures: tuple[str, ...]


def verify_downward_stability(
    spec: ArrangementSpec,
    c: MultiIndex,
    d: MultiIndex,
    max_codim: int,
    get_lattice: LatticeBuilder = build_lattice,
) -> DownwardStabilityReport:
    """Check lower intervals map isomorphically along injections c -> d.

    One representative injection per binomial class suffices: the others
    differ by automorphisms, which act by poset isomorphisms.
    """
    if not c.leq(d):
        raise ValueError("need c <= d componentwise")
    lat_c = get_lattice(spec, c, max_codim)
    lat_d = get_lattice(spec, d, max_codim)
    failures: list[str] = []
    for f in binomial_representatives(c, d):
        image_index: dict[int, int] = {}
        for idx in range(len(lat_c)):
            img = pullback(f, spec.r, lat_c.elements[idx])
            if img not in lat_d:
                failures.append(
                    f"injection {f.render()}: image of element {idx} missing at {d.render()}"
                )
                continue
            image_index[idx] = lat_d.index_of(img)
        for idx in image_index:
            below_c = lat_c.containing(idx)
            below_d = lat_d.containing(image_index[idx])
            mapped = {image_index[y] for y in below_c if y in image_index}
            if len(mapped) != len(below_c) or mapped != set(below_d):
                failures.append(
                    f"injection {f.render()}: interval of element {idx} not bijective"
                )
                continue
            for y in below_c:
                if lat_c.codims[y] != lat_d.codims[image_index[y]]:
                    failures.append(
                        f"injection {f.render()}: rank not preserved below element {idx}"
                    )
                    break
            for y1 in below_c:
                for y2 in below_c:
                    if lat_c.poset_less(y1, y2) != lat_d.poset_less(
                        image_index[y1], image_index[y2]
                    ):
                        failures.append(
                            f"injection {f.render()}: order not preserved below element {idx}"
                        )
                        break
    return DownwardStabilityReport(not failures, c, d, tuple(failures))
