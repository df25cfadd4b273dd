"""Characters of the cohomology modules, their pairings and decompositions.

Characters of the engine's cohomology modules are computed classwise from
equivariant traces, paired by the usual class-size inner product, and
decomposed against Murnaghan-Nakayama character values.  Class functions
live in ``fim``; a character's values are ints, and an inner product divides
by the group order once.  The freeness check, the fit and twisted Betti
numbers live in ``checks``, so a job without those outputs does not compile
them.  The lattice and homology code is imported where a character is
traced, so a job whose characters come from the result cache reaches
``invariants_dim`` and ``stability_report`` without compiling it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Mapping, Sequence

from .fim import (
    ArrangementSpec, ClassFunction, ConjClass, MultiIndex, class_representative, conj_classes,
    group_order, partitions, trivial_character,
)
from .record import record

if TYPE_CHECKING:
    from .arrangement import LatticeBuilder
    from .homology import LatticeHomology


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
    get_lattice: LatticeBuilder | None = None,
    homology: LatticeHomology | None = None,
) -> ClassFunction:
    """The character of Aut(n) on H^i of the complement at level n.

    H^0 is the trivial character (complex arrangement complements are
    connected); higher degrees evaluate one equivariant trace per class, the
    identity's being the Betti number.  ``homology`` may be a context on
    any lattice of level n and codim at least i, shared between degrees so
    that each class acts on the lattice once; otherwise one is made on the
    codim-i lattice from ``get_lattice`` (default ``build_lattice``).
    """
    if i == 0:
        return trivial_character(n)
    if homology is None:
        from .arrangement import build_lattice
        from .homology import LatticeHomology

        homology = LatticeHomology((get_lattice or build_lattice)(spec, n, i))
    return _character(homology, n, i)


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


def invariants_dim(chi: ClassFunction) -> int:
    """dim of the invariant subspace: the inner product with the constants.

    This is the Betti number of the group quotient by transfer; a non-integer
    value means the input was not a genuine character.
    """
    value = inner_product(chi, trivial_character(chi.level))
    if isinstance(value, Fraction):
        raise ValueError(f"invariant dimension {value} is not an integer")
    return value


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


def __getattr__(name: str):
    """The freeness check and the fit live in ``checks``; the benchmark tracer
    hooks them here, so they resolve here until it names their home."""
    if name not in ("verify_free_decomposition", "fit_character_polynomial"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import checks

    return getattr(checks, name)
