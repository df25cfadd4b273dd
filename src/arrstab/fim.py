"""The indexing category FI^m: objects, injections, symmetric-group data.

Objects are m-tuples of nonnegative integers; morphisms are tuples of
injective maps between the corresponding finite sets.  The contravariant
functor sending an object n to the coordinate space (Q^r)^n turns every
injection into a surjective coordinate selection and every permutation tuple
into a coordinate permutation.  On subspaces both act by relabelling the
columns of the constraint matrix, with no map matrix: preimages scatter the
columns to the selected coordinates (``pullback``, which the tests use as the
oracle of the lattice's atoms), and images of subspaces containing the kernel
gather them back (``pushforward``).  Group arithmetic beyond what the engine
uses (composition, inverses, cycle types) lives in the tests.

Coordinates of V^n with V = Q^r are ordered block-major: factor j, then point
index within the factor, then vector component.  Points and components are
0-based internally.

Class functions live here beside the conjugacy classes they are defined on;
a character's values are ints, as for any rational representation.

An arrangement family's spec (``ArrangementSpec``, ``family_mkr``) lives here
rather than in ``arrangement``, so loading a job config needs no lattice code.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping

from .exactlin import (
    Subspace,
    constraint_support,
    scatter_columns,
    subspace_from_constraints,
)
from .record import record


class MultiIndex(tuple):
    """An object of FI^m: a tuple of nonnegative point counts."""

    def __new__(cls, parts: Iterable[int]):
        data = tuple(int(p) for p in parts)
        if any(p < 0 for p in data):
            raise ValueError("multi-index entries must be nonnegative")
        return super().__new__(cls, data)

    @property
    def m(self) -> int:
        return len(self)

    @property
    def total(self) -> int:
        return sum(self)

    def leq(self, other: "MultiIndex") -> bool:
        """Componentwise order; this is the Hom-nonempty order on objects."""
        if len(self) != len(other):
            raise ValueError("multi-index lengths differ")
        return all(a <= b for a, b in zip(self, other))

    def render(self) -> str:
        return "|".join(str(p) for p in self)

    @classmethod
    def parse(cls, text: str) -> "MultiIndex":
        return cls(int(p) for p in text.split("|"))


def degree_add(c: MultiIndex, d: MultiIndex) -> MultiIndex:
    if len(c) != len(d):
        raise ValueError("multi-index lengths differ")
    return MultiIndex(a + b for a, b in zip(c, d))


def degree_times(i: int, c: MultiIndex) -> MultiIndex:
    if i < 0:
        raise ValueError("multiplier must be nonnegative")
    return MultiIndex(i * a for a in c)


def componentwise_max(values: Iterable[MultiIndex]) -> MultiIndex:
    out: tuple[int, ...] | None = None
    for v in values:
        out = tuple(v) if out is None else tuple(max(a, b) for a, b in zip(out, v))
    if out is None:
        raise ValueError("empty iterable")
    return MultiIndex(out)


def ambient_dim(level: MultiIndex, r: int) -> int:
    return r * level.total


def coord_index(level: MultiIndex, r: int, j: int, i: int, t: int) -> int:
    """Block-major coordinate of component t of point i in factor j."""
    return (sum(level[:j]) + i) * r + t


@record
class Injection:
    """A morphism of FI^m: componentwise injective maps into ``target``."""

    images: tuple[tuple[int, ...], ...]
    target: MultiIndex

    def __init__(self, images: tuple[tuple[int, ...], ...], target: MultiIndex):
        # written out rather than bound by ``record``: built on hot paths
        fields = self.__dict__
        fields["images"] = images
        fields["target"] = target
        if len(images) != target.m:
            raise ValueError("component count does not match target")
        for imgs, bound in zip(images, target):
            if len(set(imgs)) != len(imgs):
                raise ValueError("component map is not injective")
            if any(i < 0 or i >= bound for i in imgs):
                raise ValueError("image point out of range")

    @property
    def source(self) -> MultiIndex:
        return MultiIndex(len(imgs) for imgs in self.images)


Images = tuple[tuple[int, ...], ...]  # the component images of a map


def parse_images(text: str) -> Images:
    return tuple(tuple(map(int, chunk.split(","))) if chunk else () for chunk in text.split("|"))


def render_images(images: Images) -> str:
    return "|".join(",".join(map(str, imgs)) for imgs in images)


def compose_images(outer: Images, inner: Images) -> Images:
    """The images of outer o inner, each map given by its images."""
    return tuple(tuple(out[i] for i in imgs) for out, imgs in zip(outer, inner))


def enumerate_injections(c: MultiIndex, d: MultiIndex) -> tuple[Injection, ...]:
    """All injections c -> d, lexicographic by component images.

    Empty when some c_j > d_j; the count is the product of falling factorials.
    """
    if len(c) != len(d):
        raise ValueError("multi-index lengths differ")
    if any(cj > dj for cj, dj in zip(c, d)):
        return ()
    factor_choices = [
        tuple(itertools.permutations(range(dj), cj)) for cj, dj in zip(c, d)
    ]
    return tuple(
        Injection(images, d) for images in itertools.product(*factor_choices)
    )


def binomial_representatives(c: MultiIndex, d: MultiIndex) -> tuple[Injection, ...]:
    """One injection c -> d per binomial class, the order-preserving one, in
    the order the classes first occur in ``enumerate_injections``."""
    if len(c) != len(d):
        raise ValueError("multi-index lengths differ")
    factor_choices = [
        tuple(itertools.combinations(range(dj), cj)) for cj, dj in zip(c, d)
    ]
    return tuple(
        Injection(images, d) for images in itertools.product(*factor_choices)
    )


def binomial_class_key(f: Injection) -> tuple[tuple[int, ...], ...]:
    """Canonical key of the class of f modulo precomposed automorphisms."""
    return tuple(tuple(sorted(imgs)) for imgs in f.images)


def injection_coordinates(f: Injection, r: int) -> tuple[int, ...]:
    """The target coordinate that f selects for each source coordinate."""
    level = f.target
    return tuple(
        coord_index(level, r, j, image_point, t)
        for j, imgs in enumerate(f.images)
        for image_point in imgs
        for t in range(r)
    )


def pullback(f: Injection, r: int, x: Subspace) -> Subspace:
    """The preimage of x under the surjection induced by f, computed by
    moving x's constraint columns to the coordinates f selects."""
    if x.ambient_dim != ambient_dim(f.source, r):
        raise ValueError("subspace does not live at the injection's source")
    return scatter_columns(x, injection_coordinates(f, r), ambient_dim(f.target, r))


def pushforward(f: Injection, r: int, x: Subspace) -> Subspace:
    """The image of x under the surjection induced by f.

    Defined when x contains the kernel, the vectors supported off f's
    coordinates, i.e. when every constraint column of x outside them is
    zero; then the image is cut out by x's constraint columns at f's
    coordinates, taken in that order.  Raises ValueError otherwise.
    """
    if x.ambient_dim != ambient_dim(f.target, r):
        raise ValueError("subspace does not live at the injection's target")
    columns = injection_coordinates(f, r)
    if not constraint_support(x) <= set(columns):
        raise ValueError("subspace does not contain the kernel of the induced map")
    return subspace_from_constraints(
        len(columns), [[row[c] for c in columns] for row in x.constraints.entries]
    )


@record
class PermTuple:
    """An automorphism of an object: one permutation per factor."""

    perms: tuple[tuple[int, ...], ...]

    def __init__(self, perms: tuple[tuple[int, ...], ...]):
        # written out rather than bound by ``record``: built on hot paths
        self.__dict__["perms"] = perms
        for p in perms:
            if sorted(p) != list(range(len(p))):
                raise ValueError("component is not a permutation")

    @property
    def level(self) -> MultiIndex:
        return MultiIndex(len(p) for p in self.perms)

    @classmethod
    def identity(cls, level: MultiIndex) -> "PermTuple":
        return cls(tuple(tuple(range(n)) for n in level))


def perm_tuples(level: MultiIndex) -> Iterator[PermTuple]:
    """Every element of the automorphism group of ``level``."""
    factor_groups = [tuple(itertools.permutations(range(n))) for n in level]
    for combo in itertools.product(*factor_groups):
        yield PermTuple(tuple(combo))


def group_order(level: MultiIndex) -> int:
    return math.prod(math.factorial(n) for n in level)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as weakly decreasing tuples, sorted lexicographically."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return tuple(sorted(out))


def _zee(partition: tuple[int, ...]) -> int:
    mults: dict[int, int] = {}
    for part in partition:
        mults[part] = mults.get(part, 0) + 1
    return math.prod(k**m * math.factorial(m) for k, m in mults.items())


@record
class ConjClass:
    """A conjugacy class of Aut(n): one partition per factor."""

    parts: tuple[tuple[int, ...], ...]

    def __init__(self, parts: tuple[tuple[int, ...], ...]):
        # written out rather than bound by ``record``: built on hot paths
        self.__dict__["parts"] = parts
        for p in parts:
            if any(x <= 0 for x in p):
                raise ValueError("partition parts must be positive")
            if any(a < b for a, b in zip(p, p[1:])):
                raise ValueError("partition parts must be weakly decreasing")

    @cached_property
    def size(self) -> int:
        return math.prod(
            math.factorial(sum(p)) // _zee(p) for p in self.parts
        )

    def multiplicity(self, j: int, k: int) -> int:
        """Number of k-cycles in factor j (0-based factor index)."""
        return sum(1 for part in self.parts[j] if part == k)

    def render(self) -> str:
        return "|".join("+".join(str(x) for x in p) for p in self.parts)

    def __repr__(self):
        return f"ConjClass({self.render()!r})"


@lru_cache(maxsize=None)
def conj_classes(n: MultiIndex) -> tuple[ConjClass, ...]:
    """All conjugacy classes of Aut(n), deterministically ordered."""
    factor_parts = [partitions(nj) for nj in n]
    return tuple(
        ConjClass(combo) for combo in itertools.product(*factor_parts)
    )


@lru_cache(maxsize=None)
def _class_set(n: MultiIndex) -> frozenset[ConjClass]:
    """The conjugacy classes of Aut(n) as a set: the domain of a class function."""
    return frozenset(conj_classes(n))


@record
class ClassFunction:
    """A total map from the conjugacy classes of one level to Q."""

    level: MultiIndex
    values: Mapping[ConjClass, int | Fraction]

    def __post_init__(self):
        if self.values.keys() != _class_set(self.level):
            raise ValueError("values must cover exactly the conjugacy classes")

    def __call__(self, c: ConjClass) -> int | Fraction:
        return self.values[c]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.level == other.level and dict(self.values) == dict(other.values)


def trivial_character(level: MultiIndex) -> ClassFunction:
    return ClassFunction(level, dict.fromkeys(conj_classes(level), 1))


def class_representative(c: ConjClass) -> PermTuple:
    """Cycles of the given sizes on consecutive blocks of each factor."""
    perms = []
    for partition in c.parts:
        n = sum(partition)
        perm = [0] * n
        start = 0
        for part in partition:
            for i in range(part):
                perm[start + i] = start + (i + 1) % part
            start += part
        perms.append(tuple(perm))
    return PermTuple(tuple(perms))


def coordinate_permutation(g: PermTuple, r: int) -> tuple[int, ...]:
    """The permutation of block-major coordinates induced by g."""
    return injection_coordinates(Injection(g.perms, g.level), r)


@record
class ArrangementSpec:
    """A finitely-generated arrangement family over point space Q^r.

    Each generator is a subspace of (Q^r)^degree with positive codimension;
    the family at level n consists of intersections of generator preimages
    along injections degree -> n.
    """

    m: int
    r: int
    generators: tuple[tuple[MultiIndex, Subspace], ...]

    def __post_init__(self):
        if self.m < 1 or self.r < 1:
            raise ValueError("m and r must be positive")
        for degree, sub in self.generators:
            if degree.m != self.m:
                raise ValueError("generator degree has wrong number of factors")
            if sub.ambient_dim != ambient_dim(degree, self.r):
                raise ValueError("generator ambient dimension mismatch")
            if sub.codim < 1:
                raise ValueError("generators must have positive codimension")

    @property
    def cmax(self) -> MultiIndex:
        """Componentwise maximum of the generator degrees."""
        if not self.generators:
            return MultiIndex((0,) * self.m)
        return componentwise_max(deg for deg, _ in self.generators)

    def serialize(self) -> str:
        gens = ";".join(
            f"{deg.render()}@{sub.serialize()}" for deg, sub in self.generators
        )
        return f"m={self.m};r={self.r};gens={gens}"


def family_mkr(m: int, k: int, r: int) -> ArrangementSpec:
    """The one-generator family whose points avoid a k-fold common value.

    The generator at degree (k,...,k) is the diagonal where all m*k points of
    Q^r coincide; its codimension is r(mk - 1).
    """
    if m < 1 or k < 1 or r < 1:
        raise ValueError("m, k, r must all be positive")
    degree = MultiIndex((k,) * m)
    points = m * k
    n = r * points
    rows = []
    for p in range(points - 1):
        for t in range(r):
            row = [0] * n
            row[p * r + t] = 1
            row[(p + 1) * r + t] = -1
            rows.append(row)
    return ArrangementSpec(m, r, ((degree, subspace_from_constraints(n, rows)),))
