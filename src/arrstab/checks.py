"""The optional checks: finite generation and character polynomials.

Primitivity, normality and normalization test a subspace's constraint support
(images by ``fim.pushforward``).  By finite generation H^i is induced from its
primitive classes, so one table per H^i, the sum of the generator characters
of each degree's one homology context at each class, gives both its character
at every level, which ``run`` compares once for the fit and the freeness
check, and its character polynomial, which the fit renders.  Normality is
read off the generators alone: each non-primitive generator's pushforwards
one point down against the atoms there, with no lattice built.  The fit and
twisted Betti numbers import ``polynomial`` where they run.  Only the ``fit``,
``freeness``, ``normalize`` and ``twisted`` outputs load this module; each
output's function takes the level results as plain maps and returns its
report rows, entries and findings.  The freeness output reads its lattices'
part, the primitive classes and each level's orbit table, as the plain data
of ``freeness_step``, which the result cache stores.  The paper's lemma that
lower intervals map isomorphically along injections is checked by the tests,
as a property of every lattice they build, not by a command.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .arrangement import IntersectionLattice, LatticeBuilder, Name, _atoms, _first_names, build_lattice
from .characters import _character, inner_product, stability_report
from .exactlin import Subspace, constraint_support, contains, subspace_from_constraints
from .fim import (
    ArrangementSpec, ClassFunction, Injection, LatticeError, MultiIndex, ambient_dim,
    binomial_class_key, binomial_representatives, compose_images, conj_classes, degree_add,
    degree_times, enumerate_injections, group_order, injection_coordinates, pushforward,
)
from .homology import LatticeHomology
from .record import record

if TYPE_CHECKING:
    from .polynomial import CharacterPolynomial, Monomial


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
    """The verdict of ``verify_normal`` and its first violation, if any."""

    normal: bool
    violation: NormalityViolation | None = None


@cache
def verify_normal(spec: ArrangementSpec) -> NormalityReport:
    """Check that kernel-containing elements are preimages from below.

    Each generator g at degree d must push forward, along each f: d - e_j ->
    d whose coordinates hold its constraint support, to a lattice element at
    d - e_j: the meet of the atoms there containing p_f(g).  That is exact
    at every pair of degrees.  p_f preserves meets of subspaces containing
    ker f, which all of such an element's atoms do, so some atom phi^*g
    violates whenever an element does, and then g does along the injection
    phi induces; an injection of corank >= 2 factors through one of corank
    one whose image holds its own, so by induction on the generator degree
    corank one suffices.  A primitive generator has no such f, no lattice is
    built, and the first failure is the report's violation.  The verdict
    depends on the spec alone, so it is reached once per spec: a freeness
    job's gate and its ``primitive_classes`` share it.
    """
    atoms_at: dict[MultiIndex, list[Subspace]] = {}
    for d, g in spec.generators:
        support = constraint_support(g)
        points = {c // spec.r for c in support}
        for j in range(spec.m):
            start = sum(d[:j])
            if all(start + p in points for p in range(d[j])):
                continue
            source = MultiIndex(d[:j] + (d[j] - 1,) + d[j + 1 :])
            if source not in atoms_at:
                atoms_at[source] = _atoms(spec, source, ambient_dim(source, spec.r))[0]
            for f in enumerate_injections(source, d):
                if not support <= set(injection_coordinates(f, spec.r)):
                    continue
                image = pushforward(f, spec.r, g)
                rows = [row for a in atoms_at[source] if contains(a, image) for row in a.constraints.entries]
                if subspace_from_constraints(image.ambient_dim, rows) != image:
                    return NormalityReport(False, NormalityViolation(source, d, f, g, image))
    return NormalityReport(True)


def _degrees_below(bound: MultiIndex) -> list[MultiIndex]:
    """All degrees <= bound, sorted by (total size, lex)."""
    grid = itertools.product(*(range(b + 1) for b in bound))
    return sorted((MultiIndex(t) for t in grid), key=lambda e: (e.total, tuple(e)))


@cache
def class_degree_bound(spec: ArrangementSpec, max_codim: int) -> MultiIndex:
    """A bound on the degree of every primitive class of codim <= max_codim.

    A primitive element is a meet of atoms whose constraint supports together
    touch every point.  An atom that touches j points of a factor that the
    atoms before it missed raises the codim by at least the rank of its
    constraint columns over those points: at least the least rank of a
    generator's columns over j of its support points in that factor.  So each
    factor's degree is at most the most points that an unbounded knapsack of
    these (j points, rank) items packs within max_codim.  The bound depends
    on the spec alone, so it is reduced once per spec and codim.
    """
    bound = []
    for factor in range(spec.m):
        cost: dict[int, int] = {}  # j -> the least rank over j points of the factor
        for degree, sub in spec.generators:
            start = sum(degree[:factor])
            support = {c // spec.r for c in constraint_support(sub)}
            points = sorted(support & set(range(start, start + degree[factor])))
            for j in range(1, len(points) + 1):
                for chosen in itertools.combinations(points, j):
                    columns = [p * spec.r + t for p in chosen for t in range(spec.r)]
                    rows = [[row[c] for c in columns] for row in sub.constraints.entries]
                    rank = subspace_from_constraints(len(columns), rows).codim
                    cost[j] = min(rank, cost.get(j, rank))
        most = [0] * (max_codim + 1)
        for c in range(1, max_codim + 1):
            most[c] = max([most[c - 1]] + [most[c - w] + j for j, w in cost.items() if w <= c])
        bound.append(most[max_codim])
    return MultiIndex(bound)


def class_degrees(spec: ArrangementSpec, max_codim: int) -> list[MultiIndex]:
    """The degrees that can carry a primitive class of codim <= max_codim:
    those within ``class_degree_bound`` above some generator degree."""
    bound = class_degree_bound(spec, max_codim)
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


# a primitive class as the freeness check reads it: its degree, codim,
# stabilizer order and its representative's serialization
ClassRow = tuple[MultiIndex, int, int, str]


def primitive_classes(
    spec: ArrangementSpec,
    max_codim: int,
    get_lattice: LatticeBuilder = build_lattice,
) -> tuple[PrimitiveClass, ...]:
    """Representatives of primitive-subspace classes of codim <= max_codim.

    Scans every ``class_degrees`` degree (no primitive of this codimension
    can occur at a degree above its bound) and keeps, at each degree,
    the orbits whose representative is primitive: the point action preserves
    primitivity, so that decides the whole orbit.  Requires the spec to be
    normal (``verify_normal``, read off the generators); raises ValueError
    otherwise.
    """
    if not spec.generators:
        return ()
    if not verify_normal(spec).normal:
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
        return {ci: {key: tuple(v) for key, v in keyed.items()} for ci, keyed in out.items()}


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
            raise LatticeError(f"element {idx} matched by no primitive class")
        class_ids = {ci for ci, _ in hits}
        if len(class_ids) > 1:
            raise LatticeError(f"element {idx} matched by {len(class_ids)} primitive classes")
        if len(hits) > 1:
            raise LatticeError(f"element {idx} matched by several binomial classes")
        assignments.append(next(iter(hits)))
    return OrbitDecomposition(tuple(assignments))


def primitive_characters(
    spec: ArrangementSpec, ctx: LatticeHomology, i: int
) -> dict[str, ClassFunction]:
    """H^i's nonzero generator characters at the context's level: the trace on
    each recorded primitive orbit of codim c <= i, by its representative's
    serialization."""
    lat = ctx.lattice
    out: dict[str, ClassFunction] = {}
    for idx, (x, members) in enumerate(zip(lat.elements, lat.orbits)):
        if members[0] == idx and x.codim <= i and is_primitive(spec, lat.level, x):
            chi = _character(ctx, lat.level, i, members)
            if any(chi.values.values()):
                out[x.serialization] = chi
    return out


def primitive_table(
    i: int, generators: Mapping[MultiIndex, Mapping[str, ClassFunction]]
) -> dict[Monomial, int]:
    """H^i's primitive part: at each class mu of each class degree, chi_prim(mu),
    the sum of the generator characters ``generators`` (``primitive_characters``
    by degree), keyed by mu's cycle counts ((j, k), m_{j,k}(mu)); zeros are left
    out.  H^0 is generated at degree 0 by the trivial character: {(): 1}."""
    if i == 0:
        return {(): 1}
    table: dict[Monomial, int] = {}
    for chi in (chi for chars in generators.values() for chi in chars.values()):
        for c, value in chi.values.items():
            mono = tuple(((j, k), p.count(k)) for j, p in enumerate(c.parts) for k in sorted(set(p)))
            table[mono] = table.get(mono, 0) + value
    return {mono: value for mono, value in table.items() if value}


def induced_character(table: Mapping[Monomial, int], level: MultiIndex) -> ClassFunction:
    """The character at ``level`` of the module the table's generators induce.

    An element sigma maps the copy of a generator on a set of points to
    itself exactly when the set is a union of sigma's cycles, and acts on it
    by the class of those cycles.  So the value at sigma is the sum of
    chi_prim(mu) times the ways to pick mu's cycles among sigma's,
    prod_{j,k} binom(m_{j,k}(sigma), m_{j,k}(mu)): the table's character
    polynomial at sigma.
    """
    values = {}
    for c in conj_classes(level):
        counts = {(j, k): part.count(k) for j, part in enumerate(c.parts) for k in set(part)}
        total = 0
        for mono, value in table.items():
            for key, b in mono:
                value *= math.comb(counts.get(key, 0), b)
                if not value:
                    break
            total += value
        values[c] = total
    return ClassFunction(level, values)


@record
class FreenessClassSummary:
    degree: MultiIndex
    codim: int
    stabilizer_order: int
    generator_character: ClassFunction
    degree_bound_ok: bool


@record
class FreenessReport:
    degree: int
    classes: tuple[FreenessClassSummary, ...]
    level_matches: tuple[tuple[MultiIndex, bool], ...]
    degree_bound: MultiIndex

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.level_matches) and all(
            c.degree_bound_ok for c in self.classes
        )


def verify_free_decomposition(
    spec: ArrangementSpec,
    i: int,
    matches: Mapping[MultiIndex, bool],
    generators: Mapping[MultiIndex, Mapping[str, ClassFunction]],
    classes: Sequence[ClassRow],
) -> FreenessReport:
    """Check H^i decomposes as induced modules over primitive classes.

    Each contributing class generates its character in ``generators[e]``,
    ``primitive_characters`` at its degree e, which leaves out zero ones; the
    module they induce, ``induced_character`` of their ``primitive_table``,
    must reproduce the character of H^i at each level: ``matches`` holds,
    in level order, whether it does.  Each contributing class's degree is
    also checked against i times the top generator degree, which a primitive
    class of codim c <= i, a meet of at most c atoms, never exceeds.

    ``classes`` are the rows of ``primitive_classes(spec, c, ...)`` for any
    c >= i: its classes of codim at most i are, in order, those of codim i.
    """
    bound = degree_times(i, spec.cmax)
    summaries = tuple(
        FreenessClassSummary(degree, codim, stabilizer_order, gen, degree.leq(bound))
        for degree, codim, stabilizer_order, serialization in classes
        if codim <= i and (gen := generators[degree].get(serialization))
    )
    return FreenessReport(i, summaries, tuple(matches.items()), bound)


def fit_character_polynomial(table: Mapping[Monomial, int], m: int) -> CharacterPolynomial:
    """H^i's character polynomial, read off its ``primitive_table``:
    sum_mu chi_prim(mu) * prod_{j,k} binom(X_k^{(j)}, m_{j,k}(mu)), expanded
    into powers.  It reads the generator characters only."""
    from .polynomial import CharacterPolynomial

    @cache
    def binomial(j: int, k: int, b: int) -> CharacterPolynomial:
        if not b:
            return CharacterPolynomial.constant(1, m)
        return binomial(j, k, b - 1) * (CharacterPolynomial.variable(k, j + 1, m) - (b - 1)) / b

    terms = []
    for mono, value in table.items():
        term = CharacterPolynomial.constant(value, m)
        for (j, k), b in mono:
            term = term * binomial(j, k, b)
        terms.append(term)
    return sum(terms, CharacterPolynomial.constant(0, m))


def twisted_betti(chi_h: ClassFunction, chi_n: ClassFunction) -> int | Fraction:
    """Sheaf Betti number of the quotient with coefficients of character chi_n.

    This pairs chi_n with the dual of chi_h, which is chi_h itself: g and its
    inverse have the same cycle type.
    """
    return inner_product(chi_h, chi_n)


# the character of H^i at each level, in level order, by i
ByDegree = Sequence[Mapping[MultiIndex, ClassFunction]]
# whether H^i's induced character is its character at each level, by i
Matches = Sequence[Mapping[MultiIndex, bool]]


def freeness_step(
    spec: ArrangementSpec, levels: Sequence[MultiIndex], i_max: int, get: LatticeBuilder
) -> dict:
    """The part of the ``freeness`` output that reads lattices, as plain data
    that the result cache stores: ``classes``, the ``ClassRow`` of each
    primitive class of codim <= i_max with its degree as a list, and
    ``orbits``, each level's [class, elements, binomial classes] rows of its
    ``orbit_decomposition``, by class.  ``get`` is the run's builder."""
    if i_max < 1:
        return {"classes": [], "orbits": [[] for _ in levels]}
    # every degree reads its classes off the top degree's
    classes = primitive_classes(spec, i_max, get)
    blocks = [orbit_decomposition(get(spec, level, i_max), classes).blocks() for level in levels]
    return {
        "classes": [
            [list(c.degree), c.codim, c.stabilizer_order, c.subspace.serialization] for c in classes
        ],
        "orbits": [
            [[ci, sum(map(len, keyed.values())), len(keyed)] for ci, keyed in sorted(b.items())]
            for b in blocks
        ],
    }


def freeness_output(
    spec: ArrangementSpec,
    matches: Matches,
    generators: Sequence[Mapping[MultiIndex, Mapping[str, ClassFunction]]],
    step: dict,
    log: Callable[[str], None],
):
    """The ``freeness`` output of a job: its CSV rows, its report entries
    (``freeness``, and ``orbits`` when i_max >= 1) and its findings.

    ``generators[i]`` maps each computed degree to H^i's
    ``primitive_characters`` (empty at i = 0), and ``matches[i]`` says
    whether the module they induce has H^i's character at each level.
    ``step`` is the job's ``freeness_step``, computed or stored."""
    i_max = len(matches) - 1
    levels = list(matches[0])
    classes = [(MultiIndex(degree), *rest) for degree, *rest in step["classes"]]
    rows = []
    detail = []
    findings = []
    for i in range(i_max + 1):
        log(f"freeness check i={i}")
        report = verify_free_decomposition(spec, i, matches[i], generators[i], classes)
        for level, ok in report.level_matches:
            rows.append([i, level, ok])
            if not ok:
                findings.append(f"freeness i={i}: character mismatch at level {level.render()}")
        for cls in report.classes:
            if not cls.degree_bound_ok:
                findings.append(
                    f"freeness i={i}: class degree {cls.degree.render()} "
                    f"exceeds bound {report.degree_bound.render()}"
                )
        detail.append(
            {
                "i": i,
                "degree_bound": report.degree_bound,
                "classes": [
                    {
                        "degree": cls.degree,
                        "codim": cls.codim,
                        "stabilizer_order": cls.stabilizer_order,
                        "degree_bound_ok": cls.degree_bound_ok,
                        "generator_character": {
                            c.render(): str(v)
                            for c, v in cls.generator_character.values.items()
                        },
                    }
                    for cls in report.classes
                ],
                "levels": {level.render(): ok for level, ok in report.level_matches},
            }
        )
    entries = {"freeness": detail}
    if i_max >= 1:
        entries["orbits"] = {
            level.render(): {
                str(ci): {"elements": elements, "binomial_classes": binomial}
                for ci, elements, binomial in table
            }
            for level, table in zip(levels, step["orbits"])
        }
    return rows, entries, findings


def normalize_output(spec: ArrangementSpec) -> dict:
    """The ``normalize`` output of a run: its report entry."""
    normalized = normalize(spec)
    return {
        "changed": normalized != spec,
        "original": [{"degree": deg, "subspace": sub.serialize()} for deg, sub in spec.generators],
        "normalized": [
            {"degree": deg, "subspace": sub.serialize()} for deg, sub in normalized.generators
        ],
    }


def fit_output(
    spec: ArrangementSpec,
    tables: Sequence[Mapping[Monomial, int]],
    matches: Matches,
    degree_bound: MultiIndex | None,
):
    """The ``fit`` output of a job: its report entry and its findings.  Each
    H^i's character polynomial is read off ``tables[i]`` and printed; a level
    where it differs from the computed character (``matches[i][level]`` is
    false), and a multidegree above ``degree_bound`` when one is given, are
    findings."""
    from .polynomial import CharacterPolynomial, _binomial_factor, _render_terms

    entries = []
    findings = []
    for i, (table, level_matches) in enumerate(zip(tables, matches)):
        poly = fit_character_polynomial(table, spec.m)
        print(f"fit i={i}: {poly.render()}")
        degree = poly.multidegree()
        if degree_bound is not None and not degree.leq(degree_bound):
            findings.append(
                f"fit i={i}: multidegree {degree.render()} exceeds bound {degree_bound.render()}"
            )
        for level, ok in level_matches.items():
            if not ok:
                findings.append(f"fit i={i}: polynomial misses the character at level {level.render()}")
        entries.append(
            {
                "i": i,
                "polynomial": poly.render(),
                # the table's own coefficients are those of the binomial basis
                "binomial_form": _render_terms(
                    CharacterPolynomial.from_dict(spec.m, table).coeffs, _binomial_factor
                ),
                "multidegree": degree,
                "levels": {level.render(): ok for level, ok in level_matches.items()},
            }
        )
    return entries, findings


def twisted_output(spec: ArrangementSpec, characters: ByDegree, poly: CharacterPolynomial):
    """The ``twisted`` output of a job: its CSV rows, report entry and findings."""
    levels = list(characters[0])
    rows = []
    detail = []
    findings = []
    twists = {level: poly.as_class_function(level) for level in levels}
    for i, chars in enumerate(characters):
        values = {level: twisted_betti(chars[level], twists[level]) for level in levels}
        predicted = degree_add(degree_times(i, spec.cmax), poly.multidegree())
        report = stability_report(values, predicted)
        if not report.meets_prediction:
            findings.append(f"twisted i={i}: onset later than predicted {predicted.render()}")
        for level in levels:
            rows.append([i, level, values[level]])
        detail.append(
            {
                "i": i,
                "polynomial": poly.render(),
                "values": {level.render(): str(values[level]) for level in levels},
                "predicted_onset": predicted,
                "meets_prediction": report.meets_prediction,
            }
        )
    return rows, detail, findings
