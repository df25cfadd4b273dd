"""Exact rational linear algebra on small dense matrices.

Everything here is computed over Q; there is no floating point anywhere.
Entries are integer-first: an integral entry is a Python ``int`` and only a
genuine denominator makes a ``fractions.Fraction``.  Row reduction keeps it
that way: a lead of -1 is cleared by negation, and a quotient or difference
that comes out integral is an ``int`` again.  Since ``str(1) ==
str(Fraction(1))`` and equal values hash alike, the representation never
shows in serializations or in equality.

Subspaces of Q^N are stored in annihilator form: a reduced-row-echelon
constraint matrix whose kernel is the subspace.  With that convention
intersection is an incremental reduction (``meet_rows``: the other side's
rows are reduced against the pivots already in place, and only the residual
is echelonized), containment is a row-space membership test, and set
equality of subspaces is literal equality of their rows or of their
canonical serializations.  Coordinate maps act by moving constraint columns
(``scatter_rows``, and ``scatter_columns`` on subspaces), and a subspace
contains exactly the coordinate vectors outside its constraint support
(``constraint_support``), so neither needs a map matrix or a spanning set.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .record import record

_ZERO = Fraction(0)
_ONE = Fraction(1)

Vector = tuple[Fraction, ...]


def _coerce(value) -> int | Fraction:
    """Accept ints but not bools, Fractions, and strings '[-]p' or '[-]p/q' in
    ASCII digits; integral values become ints.  Anything else is refused."""
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _quotient(a, b):
    """a / b, as an int when it is integral."""
    if type(a) is int and type(b) is int:
        q, rem = divmod(a, b)
        if not rem:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _minus(row: Sequence, factor, prow: Sequence) -> list:
    """row - factor * prow, touching only the nonzero entries of prow; a
    ``Fraction`` result that is integral comes back as an int."""
    out = [a - factor * b if b else a for a, b in zip(row, prow)]
    return [v.numerator if type(v) is Fraction and v.denominator == 1 else v for v in out]


def _echelon(mat: list[list], cols: int, max_rank: int | None = None) -> list[tuple] | None:
    """Reduce ``mat`` in place to RREF and return its nonzero rows, or None
    as soon as the rank exceeds ``max_rank``."""
    nrows = len(mat)
    pivot_row = 0
    for col in range(cols):
        if pivot_row == nrows:
            break
        pivot = next((r for r in range(pivot_row, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        prow = mat[pivot_row]
        lead = prow[col]
        if lead == -1:
            prow = [-e for e in prow]
        elif lead != 1:
            prow = [_quotient(e, lead) if e else e for e in prow]
        mat[pivot_row] = prow
        for r in range(nrows):
            if r != pivot_row and mat[r][col]:
                mat[r] = _minus(mat[r], mat[r][col], prow)
        pivot_row += 1
        if max_rank is not None and pivot_row > max_rank:
            return None
    return [tuple(row) for row in mat[:pivot_row]]


def _rref_rows(
    rows: Iterable[Sequence[Fraction]], cols: int, max_rank: int | None = None
) -> list[tuple[Fraction, ...]] | None:
    """Reduced row echelon form with zero rows dropped.

    Returns None as soon as the rank exceeds ``max_rank``.  Every entry the
    reduction computes is an int when it is integral, so callers that need
    ``Fraction`` values convert them.
    """
    return _echelon([list(row) for row in rows], cols, max_rank)


def meet_rows(
    rows: Sequence[tuple],
    pivots: Sequence[int],
    other: Iterable[Sequence],
    cols: int,
    max_rank: int | None = None,
) -> tuple[tuple, ...] | None:
    """The RREF of ``rows`` and ``other`` together, where ``rows`` is already
    in RREF with pivot columns ``pivots``.

    Each row of ``other`` is reduced against the pivots in place; the
    nonzero residuals are echelonized among themselves, and their new pivots
    are then cleared from ``rows``.  Returns None as soon as the rank
    exceeds ``max_rank``.  As constraint rows this is the intersection of
    the two subspaces.
    """
    room = None if max_rank is None else max_rank - len(rows)
    if room is not None and room < 0:
        return None
    residual = []
    for row in other:
        for prow, p in zip(rows, pivots):
            if row[p]:
                row = _minus(row, row[p], prow)
        if any(row):
            residual.append(list(row))
    if not residual:
        return tuple(rows)
    new = _echelon(residual, cols, room)
    if new is None:
        return None
    new_pivots = _pivot_columns(new)
    merged = list(zip(new_pivots, new))
    for prow, p in zip(rows, pivots):
        for nrow, q in zip(new, new_pivots):
            if prow[q]:
                prow = tuple(_minus(prow, prow[q], nrow))
        merged.append((p, prow))
    merged.sort(key=lambda pair: pair[0])
    return tuple(row for _, row in merged)


def _pivot_columns(rref_rows: Sequence[Sequence[Fraction]]) -> list[int]:
    pivots = []
    for row in rref_rows:
        for c, entry in enumerate(row):
            if entry != 0:
                pivots.append(c)
                break
    return pivots


@record
class RationalMatrix:
    """Dense matrix of exact rationals, stored row-major and immutable."""

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...], cols: int):
        # written out rather than bound by ``record``: built on hot paths
        fields = self.__dict__
        fields["entries"] = entries
        fields["cols"] = cols
        if cols < 0:
            raise ValueError("negative column count")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")

    @property
    def rows(self) -> int:
        return len(self.entries)


# No engine path calls ``kernel_basis`` or ``solve_in_basis``; they stay
# because the benchmark tracer (``perfbench/tracer.py``) hooks both names.
def kernel_basis(m: RationalMatrix) -> tuple[Vector, ...]:
    """Deterministic basis of ker(m), one vector per free column, ascending."""
    reduced = _rref_rows(m.entries, m.cols)
    assert reduced is not None
    pivots = _pivot_columns(reduced)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * m.cols
        vec[free] = _ONE
        for row, p in zip(reduced, pivots):
            if row[free] != 0:
                vec[p] = -row[free]
        basis.append(tuple(vec))
    return tuple(basis)


def solve_in_basis(
    basis: Sequence[Vector], rhs: Sequence[Vector], dim: int
) -> list[list[Fraction]]:
    """Coordinates of each rhs vector in the given independent basis.

    ``basis`` and ``rhs`` are vectors of length ``dim``; every rhs must lie in
    the span of the basis.  Returns coords[k][t] = coefficient of basis[k] in
    rhs[t].
    """
    s = len(basis)
    t = len(rhs)
    if s == 0:
        for v in rhs:
            if any(e != 0 for e in v):
                raise ValueError("vector outside span of empty basis")
        return []
    aug = [
        [basis[k][r] for k in range(s)] + [rhs[j][r] for j in range(t)]
        for r in range(dim)
    ]
    reduced = _rref_rows(aug, s + t)
    assert reduced is not None
    pivots = _pivot_columns(reduced)
    if any(p >= s for p in pivots):
        raise ValueError("vector outside span of basis")
    coords = [[_ZERO] * t for _ in range(s)]
    for row, p in zip(reduced, pivots):
        for j in range(t):
            coords[p][j] = row[s + j]
    return coords


@record
class Subspace:
    """A linear subspace of Q^N as the kernel of a canonical constraint matrix.

    The constraint matrix is in RREF with no zero rows, so two Subspace values
    describe the same set of points iff they are equal (and iff their
    serializations are byte-identical).  Codimension is the row count.
    """

    ambient_dim: int
    constraints: RationalMatrix

    def __init__(self, ambient_dim: int, constraints: RationalMatrix):
        # written out rather than bound by ``record``: built on hot paths
        fields = self.__dict__
        fields["ambient_dim"] = ambient_dim
        fields["constraints"] = constraints
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        if constraints.cols != ambient_dim:
            raise ValueError("constraint width does not match ambient dimension")
        entries = constraints.entries
        pivots = _pivot_columns(entries)
        if len(pivots) != len(entries):
            raise ValueError("constraint matrix has a zero row")
        if any(b <= a for a, b in zip(pivots, pivots[1:])):
            raise ValueError("constraint matrix is not in RREF order")
        for i, row in enumerate(entries):
            if row[pivots[i]] != 1:
                raise ValueError("pivot entries must be one")
            for k, p in enumerate(pivots):
                if k != i and row[p] != 0:
                    raise ValueError("pivot columns must be cleared")

    @property
    def codim(self) -> int:
        return self.constraints.rows

    @cached_property
    def serialization(self) -> str:
        rows = ";".join(",".join(map(str, row)) for row in self.constraints.entries)
        return f"{self.ambient_dim}:{rows}"

    def serialize(self) -> str:
        return self.serialization

    def __repr__(self):
        return f"Subspace({self.serialization!r})"


def subspace_from_constraints(n: int, rows: Iterable[Sequence]) -> Subspace:
    """Canonical subspace {v in Q^n : rows . v = 0}."""
    data = [tuple(_coerce(e) for e in row) for row in rows]
    for row in data:
        if len(row) != n:
            raise ValueError(f"constraint row has {len(row)} entries, ambient is {n}")
    reduced = _rref_rows(data, n)
    assert reduced is not None
    return Subspace(n, RationalMatrix(tuple(reduced), n))


def place_rows(rows: Sequence[Sequence], columns: Sequence[int], n: int) -> tuple[tuple, ...]:
    """The constraint rows with column k moved to ``columns[k]`` and zeros
    elsewhere in Q^n; rows in RREF stay in RREF when ``columns`` increases."""
    moved = []
    for row in rows:
        out = [0] * n
        for value, col in zip(row, columns):
            out[col] = value
        moved.append(tuple(out))
    return tuple(moved)


def scatter_rows(rows: Sequence[Sequence], columns: Sequence[int], n: int) -> tuple[tuple, ...]:
    """The RREF of the rows placed by ``place_rows``."""
    return tuple(_rref_rows(place_rows(rows, columns, n), n))


def scatter_columns(x: Subspace, columns: Sequence[int], n: int) -> Subspace:
    """The subspace of Q^n cut out by x's constraints with column k moved to
    ``columns[k]`` and zeros elsewhere, canonically reduced (``scatter_rows``).

    When ``columns`` permutes range(n) this is the image of x under that
    coordinate permutation; when it is injective it is the preimage of x
    under the selection v -> (v[columns[k]])_k, with no selection matrix
    formed.
    """
    return Subspace(n, RationalMatrix(scatter_rows(x.constraints.entries, columns, n), n))


def constraint_support(x: Subspace) -> frozenset[int]:
    """The columns in which some constraint of x is nonzero.

    x contains the coordinate vector e_c exactly when c lies outside this
    set, so x contains every vector supported off it.
    """
    return frozenset(
        c for row in x.constraints.entries for c, e in enumerate(row) if e
    )


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subset of a (a's constraints lie in b's row space)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    brows = b.constraints.entries
    pivots = _pivot_columns(brows)
    for row in a.constraints.entries:
        work = list(row)
        for brow, p in zip(brows, pivots):
            factor = work[p]
            if factor != 0:
                work = [w - factor * e for w, e in zip(work, brow)]
        if any(w != 0 for w in work):
            return False
    return True
