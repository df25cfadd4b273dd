"""The optional checks: finite generation and character polynomials.

Primitivity, normality and normalization test a subspace's constraint support
(images by ``fim.pushforward``); the freeness check induces the generator
characters of each degree's one homology context.  The character-polynomial
fit, its binomial form and twisted Betti numbers import ``polynomial`` where
they run.  Only the ``fit``, ``freeness``, ``normalize`` and ``twisted``
outputs load this module; each output's function takes the level results as
plain maps and returns its report rows, entries and findings.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .arrangement import IntersectionLattice, LatticeBuilder, Name, _first_names, build_lattice
from .characters import _character, inner_product, stability_report
from .exactlin import Subspace, _pivot_columns, _rref_rows, constraint_support
from .fim import (
    ArrangementSpec, ClassFunction, ConjClass, Injection, MultiIndex, ambient_dim,
    binomial_class_key, binomial_representatives, compose_images, conj_classes, degree_add,
    degree_times, enumerate_injections, group_order, injection_coordinates, pullback,
    pushforward, sum_characters, trivial_character,
)
from .homology import LatticeError, LatticeHomology
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
    lattices = {d: get_lattice(spec, d, max(1, ambient_dim(d, spec.r))) for d in degrees}
    supports = {d: [constraint_support(x) for x in lat.elements] for d, lat in lattices.items()}
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
                        violation = NormalityViolation(c, d, f, x, image)
                        return NormalityReport(False, degrees, violation)
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
        return {ci: {key: tuple(v) for key, v in keyed.items()} for ci, keyed in out.items()}

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
            raise LatticeError(f"element {idx} matched by no primitive class")
        class_ids = {ci for ci, _ in hits}
        if len(class_ids) > 1:
            raise LatticeError(f"element {idx} matched by {len(class_ids)} primitive classes")
        if len(hits) > 1:
            raise LatticeError(f"element {idx} matched by several binomial classes")
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


def primitive_characters(
    spec: ArrangementSpec, ctx: LatticeHomology, i: int
) -> dict[str, ClassFunction]:
    """H^i's nonzero generator characters at the context's level: the trace on
    each recorded primitive orbit of codim c <= i, by its representative's
    serialization.  At most c atoms meet in it, so its level is <= c * cmax."""
    lat = ctx.lattice
    out: dict[str, ClassFunction] = {}
    for idx, (x, members) in enumerate(zip(lat.elements, lat.orbits)):
        if members[0] == idx and x.codim <= i and is_primitive(spec, lat.level, x):
            chi = _character(ctx, lat.level, i, members)
            if any(chi.values.values()):
                out[x.serialization] = chi
    return out


def _sub_cycle_multisets(
    partition: tuple[int, ...], size: int
) -> list[tuple[tuple[int, ...], int]]:
    """Sub-multisets of cycle lengths summing to ``size`` with their counts."""
    mults: dict[int, int] = {}
    for part in partition:
        mults[part] = mults.get(part, 0) + 1
    lengths = sorted(mults)
    out: list[tuple[tuple[int, ...], int]] = []

    def rec(pos: int, remaining: int, chosen: list[int], ways: int):
        if remaining == 0:
            out.append((tuple(sorted(chosen, reverse=True)), ways))
            return
        if pos == len(lengths):
            return
        k = lengths[pos]
        for count in range(0, min(mults[k], remaining // k) + 1):
            rec(
                pos + 1,
                remaining - count * k,
                chosen + [k] * count,
                ways * math.comb(mults[k], count),
            )

    rec(0, size, [], 1)
    return out


def induction_character(c: MultiIndex, chi_w: ClassFunction, n: MultiIndex) -> ClassFunction:
    """Character at level n of the free module generated at c by chi_w.

    An element g stabilizes a binomial class iff the underlying point sets
    are unions of g's cycles, so the value is a sum over sub-multisets of
    cycle lengths of chi_w at the induced class.
    """
    if chi_w.level != c:
        raise ValueError("generating character must live at level c")
    classes_n = conj_classes(n)
    if not c.leq(n):
        return ClassFunction(n, dict.fromkeys(classes_n, 0))
    values: dict[ConjClass, int | Fraction] = {}
    for cls in classes_n:
        per_factor = [_sub_cycle_multisets(cls.parts[j], c[j]) for j in range(c.m)]
        total = 0
        for combo in itertools.product(*per_factor):
            ways = math.prod(w for _, w in combo)
            induced = ConjClass(tuple(mu for mu, _ in combo))
            total += ways * chi_w(induced)
        values[cls] = total
    return ClassFunction(n, values)


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
    characters: Mapping[MultiIndex, ClassFunction],
    generators: Mapping[MultiIndex, Mapping[str, ClassFunction]],
    classes: Sequence[PrimitiveClass],
) -> FreenessReport:
    """Check H^i decomposes as induced modules over primitive classes.

    Each contributing class generates its character in ``generators[e]``,
    ``primitive_characters`` at its degree e, which leaves out zero ones;
    summing the induced characters over classes must reproduce ``characters``,
    the character of H^i at each level it holds, in its order.  Each
    contributing class's degree is also checked against i times the top
    generator degree, which a primitive class of codim c <= i, a meet of at
    most c atoms, never exceeds.

    ``classes`` may be ``primitive_classes(spec, c, ...)`` for any c >= i:
    its classes of codim at most i are, in order, those of codim i.
    """
    levels = list(characters)
    bound = degree_times(i, spec.cmax)
    summaries: list[FreenessClassSummary] = []
    if i == 0:
        expected = {level: trivial_character(level) for level in levels}
    else:
        for cls in classes:
            if cls.codim > i:
                continue
            chi_gen = generators[cls.degree].get(cls.subspace.serialization)
            if chi_gen is None:
                continue
            summaries.append(
                FreenessClassSummary(
                    cls.degree, cls.codim, cls.stabilizer_order, chi_gen, cls.degree.leq(bound)
                )
            )
        expected = {
            level: sum_characters(
                level,
                [induction_character(s.degree, s.generator_character, level) for s in summaries],
            )
            for level in levels
        }
    matches = [(level, characters[level] == expected[level]) for level in levels]
    return FreenessReport(i, tuple(summaries), tuple(matches), bound)


class FitError(ValueError):
    """Base class for character-polynomial fitting failures."""


class FitInconsistentError(FitError):
    """No polynomial of the requested degree matches the samples."""


class FitUnderdeterminedError(FitError):
    """The samples do not pin the polynomial down; more levels are needed."""


def _monomials_within(bound: MultiIndex) -> list[Monomial]:
    """All monomials of multidegree <= bound, canonically ordered."""
    from .polynomial import CharacterPolynomial

    per_factor = []
    for j, cap in enumerate(bound):
        found: list[tuple[Monomial, int]] = [((), 0)]  # (monomial, weight)
        for k in range(1, cap + 1):
            found = [
                (mono + (((j, k), e),) if e else mono, weight + k * e)
                for mono, weight in found
                for e in range((cap - weight) // k + 1)
            ]
        per_factor.append([mono for mono, _ in found])
    monos = (sum(chunk, ()) for chunk in itertools.product(*per_factor))
    return sorted(monos, key=CharacterPolynomial._key)


def fit_character_polynomial(
    samples: Sequence[tuple[MultiIndex, ClassFunction]],
    degree_bound: MultiIndex,
) -> CharacterPolynomial:
    """The unique polynomial of multidegree <= degree_bound through the samples.

    Solved exactly over the monomial basis.  Raises FitInconsistentError when
    no such polynomial exists (a falsification signal) and
    FitUnderdeterminedError when the sampled levels leave free coefficients.
    """
    from .polynomial import CharacterPolynomial, _monomial_value

    if len({level for level, _ in samples}) < 2:
        raise ValueError("need samples at two or more distinct levels")
    for level, chi in samples:
        if not degree_bound.leq(level):
            raise ValueError("all sampled levels must dominate the degree bound")
        if chi.level != level:
            raise ValueError("sample level mismatch")
    monos = _monomials_within(degree_bound)
    rows = []
    for level, chi in samples:
        for c in conj_classes(level):
            rows.append([_monomial_value(mono, c) for mono in monos] + [chi(c)])
    reduced = _rref_rows(rows, len(monos) + 1)
    assert reduced is not None
    pivots = _pivot_columns(reduced)
    if any(p == len(monos) for p in pivots):
        raise FitInconsistentError(
            "no character polynomial of this multidegree matches the samples"
        )
    if len(pivots) < len(monos):
        raise FitUnderdeterminedError(
            "samples leave free coefficients; add more levels"
        )
    # every monomial is a pivot, so the rows follow the basis order; coefficients
    # stay Fractions (the reduction gives ints where integral) for the reports
    coeffs = tuple((mono, Fraction(row[-1])) for mono, row in zip(monos, reduced) if row[-1])
    return CharacterPolynomial(degree_bound.m, coeffs)


@cache
def _stirling2(e: int, b: int) -> int:
    """S(e, b), the number of partitions of an e-set into b blocks."""
    if e == b:
        return 1
    if b == 0 or b > e:
        return 0
    return b * _stirling2(e - 1, b) + _stirling2(e - 1, b - 1)


def binomial_basis_form(p: CharacterPolynomial) -> str:
    """Re-express p in products of binomials choose(X_k^{(j)}, b) and render.

    A power expands as X^e = sum_b S(e, b) b! choose(X, b), with S the
    Stirling numbers of the second kind, and a monomial factor by factor.
    """
    from .polynomial import CharacterPolynomial, _binomial_factor, _render_terms

    data: dict[Monomial, Fraction] = {}
    for mono, coeff in p.coeffs:
        terms = [((), coeff)]
        for key, e in mono:
            terms = [
                (acc + ((key, b),), value * _stirling2(e, b) * math.factorial(b))
                for acc, value in terms
                for b in range(1, e + 1)
            ]
        for acc, value in terms:
            data[acc] = data.get(acc, 0) + value
    return _render_terms(CharacterPolynomial.from_dict(p.m, data).coeffs, _binomial_factor)


def twisted_betti(chi_h: ClassFunction, chi_n: ClassFunction) -> int | Fraction:
    """Sheaf Betti number of the quotient with coefficients of character chi_n.

    This pairs chi_n with the dual of chi_h, which is chi_h itself: g and its
    inverse have the same cycle type.
    """
    return inner_product(chi_h, chi_n)


def _freeness_codim(spec: ArrangementSpec, degree: MultiIndex, i_max: int) -> int:
    """The codim a freeness job builds at ``degree``: i_max, or at a generator
    degree the whole lattice, which the normality check reads, so that one
    build serves both and the i_max lattice truncates it."""
    if any(degree == deg for deg, _ in spec.generators):
        return max(i_max, ambient_dim(degree, spec.r))
    return i_max


# the character of H^i at each level, in level order, by i
ByDegree = Sequence[Mapping[MultiIndex, ClassFunction]]


def freeness_output(
    spec: ArrangementSpec,
    characters: ByDegree,
    generators: Sequence[Mapping[MultiIndex, Mapping[str, ClassFunction]]],
    get: LatticeBuilder,
    log: Callable[[str], None],
):
    """The ``freeness`` output of a job: its CSV rows, its report entries
    (``freeness``, and ``orbits`` when i_max >= 1) and its findings.

    ``generators[i]`` maps each computed degree to H^i's
    ``primitive_characters`` (empty at i = 0).  ``get`` is the run's builder,
    which holds every lattice read."""
    i_max = len(characters) - 1
    levels = list(characters[0])
    classes = ()
    if i_max >= 1:
        for degree in generators[1]:  # lower codims truncate these
            get(spec, degree, _freeness_codim(spec, degree, i_max))
        # every degree reads its classes off the top degree's
        classes = primitive_classes(spec, i_max, get)
    rows = []
    detail = []
    findings = []
    for i in range(i_max + 1):
        log(f"freeness check i={i}")
        report = verify_free_decomposition(spec, i, characters[i], generators[i], classes)
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
        orbit_summary = {}
        for level in levels:
            lat = get(spec, level, i_max)
            if not len(lat):
                orbit_summary[level.render()] = {}
                continue
            try:
                decomposition = orbit_decomposition(lat, classes)
            except LatticeError as exc:
                # non-normal input; the freeness mismatch above is the
                # finding, the orbit table just degrades
                orbit_summary[level.render()] = {"error": str(exc)}
                continue
            blocks = decomposition.blocks()
            orbit_summary[level.render()] = {
                str(ci): {
                    "elements": sum(len(v) for v in keyed.values()),
                    "binomial_classes": len(keyed),
                }
                for ci, keyed in sorted(blocks.items())
            }
        entries["orbits"] = orbit_summary
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


def fit_output(characters: ByDegree, degree_bound: MultiIndex):
    """The ``fit`` output of a job: its report entry and its findings.  Each
    fitted polynomial is printed as it is found; an underdetermined fit raises
    FitUnderdeterminedError naming its degree."""
    entries = []
    findings = []
    for i, chars in enumerate(characters):
        try:
            poly = fit_character_polynomial(list(chars.items()), degree_bound)
        except FitInconsistentError as exc:
            findings.append(f"fit i={i}: {exc}")
            entries.append({"i": i, "status": "inconsistent"})
            continue
        except FitUnderdeterminedError as exc:
            raise FitUnderdeterminedError(f"fit i={i}: {exc}") from exc
        print(f"fit i={i}: {poly.render()}")
        entries.append(
            {
                "i": i,
                "status": "ok",
                "polynomial": poly.render(),
                "binomial_form": binomial_basis_form(poly),
                "multidegree": poly.multidegree(),
            }
        )
    return entries, findings


def twisted_output(spec: ArrangementSpec, characters: ByDegree, poly: CharacterPolynomial):
    """The ``twisted`` output of a job: its CSV rows, report entry and findings."""
    levels = list(characters[0])
    rows = []
    detail = []
    findings = []
    for i, chars in enumerate(characters):
        values = {}
        for level in levels:
            chi_n = poly.as_class_function(level)
            values[level] = twisted_betti(chars[level], chi_n)
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
