"""Characters of the cohomology modules, their fits, pairings and freeness.

Characters of the engine's cohomology modules are computed classwise from
equivariant traces, fitted to character polynomials by an exact linear
solve, paired by the usual class-size inner product, and decomposed against
Murnaghan-Nakayama character values.  The freeness check induces the
generator characters that each degree's one context yields.  Class functions
live in ``fim``; a character's values are ints, and an inner product divides
by the group order once.  Only the fit and its binomial form import
``polynomial``, so a job that neither fits nor twists never loads it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Mapping, Sequence

from .arrangement import (
    ArrangementSpec,
    LatticeBuilder,
    PrimitiveClass,
    build_lattice,
    is_primitive,
)
from .exactlin import _pivot_columns, _rref_rows
from .fim import (
    ClassFunction, ConjClass, MultiIndex, _pointwise, class_representative, conj_classes,
    degree_times, group_order, partitions, sum_characters, trivial_character,
)
from .homology import LatticeHomology
from .record import record

if TYPE_CHECKING:
    from .polynomial import CharacterPolynomial, Monomial


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


def _character(
    ctx: LatticeHomology, n: MultiIndex, i: int, members: Sequence[int] | None = None
) -> ClassFunction:
    """Aut(n)'s character on H^i, or on an orbit's part: one trace per class."""
    return ClassFunction(
        n, {c: ctx.trace(class_representative(c), i, members) for c in conj_classes(n)}
    )


def character_of_cohomology(
    spec: ArrangementSpec,
    n: MultiIndex,
    i: int,
    get_lattice: LatticeBuilder = build_lattice,
    homology: LatticeHomology | None = None,
) -> ClassFunction:
    """The character of Aut(n) on H^i of the complement at level n.

    H^0 is the trivial character (complex arrangement complements are
    connected); higher degrees evaluate one equivariant trace per class, the
    identity's being the Betti number.  ``homology`` may be a context on
    any lattice of level n and codim at least i, shared between degrees so
    that each class acts on the lattice once; otherwise one is made on the
    codim-i lattice.
    """
    if i == 0:
        return trivial_character(n)
    ctx = homology if homology is not None else LatticeHomology(get_lattice(spec, n, i))
    return _character(ctx, n, i)


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


def inner_product(a: ClassFunction, b: ClassFunction) -> int | Fraction:
    """Class-size weighted inner product; cycle types are inversion-invariant,
    so the inverse class equals the class itself.  The weighted sum is divided
    by |G| once: an int when the division is exact, a Fraction otherwise."""
    if a.level != b.level:
        raise ValueError("class functions live on different levels")
    order = group_order(a.level)
    if order == 0:
        raise AssertionError("group order vanished")
    total = sum(c.size * a(c) * b(c) for c in conj_classes(a.level))
    quotient, remainder = divmod(total, order)
    return Fraction(total, order) if remainder else quotient


def tensor_char(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    """Pointwise product: the character of the tensor representation."""
    return _pointwise(a, b, lambda x, y: x * y)


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


def induction_character(
    c: MultiIndex, chi_w: ClassFunction, n: MultiIndex
) -> ClassFunction:
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
        per_factor = [
            _sub_cycle_multisets(cls.parts[j], c[j]) for j in range(c.m)
        ]
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
                    cls.degree,
                    cls.codim,
                    cls.stabilizer_order,
                    chi_gen,
                    cls.degree.leq(bound),
                )
            )
        expected = {
            level: sum_characters(
                level,
                [
                    induction_character(s.degree, s.generator_character, level)
                    for s in summaries
                ],
            )
            for level in levels
        }
    matches = [(level, characters[level] == expected[level]) for level in levels]
    return FreenessReport(i, tuple(summaries), tuple(matches), bound)


def invariants_dim(chi: ClassFunction) -> int:
    """dim of the invariant subspace: the inner product with the constants.

    This is the Betti number of the group quotient by transfer; a non-integer
    value means the input was not a genuine character.
    """
    value = inner_product(chi, trivial_character(chi.level))
    if isinstance(value, Fraction):
        raise ValueError(f"invariant dimension {value} is not an integer")
    return value


def twisted_betti(chi_h: ClassFunction, chi_n: ClassFunction) -> int | Fraction:
    """Sheaf Betti number of the quotient with coefficients of character chi_n.

    This pairs chi_n with the dual of chi_h, which is chi_h itself: g and its
    inverse have the same cycle type.
    """
    return inner_product(chi_h, chi_n)


@cache
def sym_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama value of the S_n irreducible lam at cycle type mu."""
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    if not mu:
        return 1
    strip = mu[0]
    rest = mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        width = len(new_beta)
        new_lam = tuple(
            x
            for x in (new_beta[idx] - (width - 1 - idx) for idx in range(width))
            if x > 0
        )
        total += (-1) ** height * sym_character(new_lam, rest)
    return total


def irreducible_character_value(
    lam_tuple: tuple[tuple[int, ...], ...], c: ConjClass
) -> int:
    return math.prod(
        sym_character(lam, mu) for lam, mu in zip(lam_tuple, c.parts)
    )


def irreducible_multiplicities(
    chi: ClassFunction,
) -> dict[tuple[tuple[int, ...], ...], Fraction]:
    """Inner products against every irreducible of the level's group.

    Guarded to levels with entries at most 8: beyond that the partition count
    makes the exact table pointlessly expensive at desk scale.
    """
    level = chi.level
    if any(nj > 8 for nj in level):
        raise ValueError("irreducible decomposition limited to entries <= 8")
    order = group_order(level)
    out: dict[tuple[tuple[int, ...], ...], Fraction] = {}
    classes = conj_classes(level)
    for lam_tuple in itertools.product(*(partitions(nj) for nj in level)):
        total = sum(c.size * chi(c) * irreducible_character_value(lam_tuple, c) for c in classes)
        out[lam_tuple] = Fraction(total, order)
    return out


@record
class StabilityReport:
    stable_value: int | Fraction | None
    onsets: tuple[MultiIndex, ...]
    predicted_onset: MultiIndex
    meets_prediction: bool
    violations: tuple[MultiIndex, ...]


def stability_report(
    values: Mapping[MultiIndex, int | Fraction], predicted_onset: MultiIndex
) -> StabilityReport:
    """Locate the empirical onset of constancy and compare with a prediction.

    The stable value is read off the maximal sampled levels; the onsets are
    the minimal sampled levels above which every sample agrees with it.  The
    prediction holds when no sample at or above it deviates.
    """
    levels = sorted(values)
    if not levels:
        raise ValueError("no sampled values")
    maximal = [
        v for v in levels if not any(v != w and v.leq(w) for w in levels)
    ]
    top_values = {values[v] for v in maximal}
    if len(top_values) != 1:
        return StabilityReport(None, (), predicted_onset, False, tuple(maximal))
    stable = top_values.pop()
    admissible = [
        v
        for v in levels
        if all(values[w] == stable for w in levels if v.leq(w))
    ]
    onsets = tuple(
        v
        for v in admissible
        if not any(w != v and w.leq(v) for w in admissible)
    )
    violations = tuple(
        w for w in levels if predicted_onset.leq(w) and values[w] != stable
    )
    return StabilityReport(
        stable, onsets, predicted_onset, not violations, violations
    )
