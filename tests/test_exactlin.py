from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrstab.exactlin import (
    RationalMatrix,
    Subspace,
    _pivot_columns,
    _rref_rows,
    constraint_support,
    contains,
    intersect,
    kernel_basis,
    meet_rows,
    subspace_from_constraints,
)
from arrstab.fim import Injection, MultiIndex, enumerate_injections, pullback, pushforward


def mat(rows, cols=None):
    return RationalMatrix.from_rows(rows, cols)


def contains_vector(s, vector):
    """The former ``Subspace.contains_vector``: every constraint vanishes."""
    return not any(sum(a * v for a, v in zip(row, vector)) for row in s.constraints.entries)


def test_rref_scaling_to_identity():
    assert _rref_rows([[2, 0], [0, 3]], 2) == [(1, 0), (0, 1)]


def test_rref_drops_dependent_row():
    assert _rref_rows([[1, -1], [2, -2]], 2) == [(1, -1)]


def test_rref_pivot_reordering():
    assert _rref_rows([[0, 1, 1], [1, 0, 1]], 3) == [(1, 0, 1), (0, 1, 1)]


def test_subspace_from_constraints_diagonal():
    s = subspace_from_constraints(2, [[1, -1]])
    assert s.codim == 1
    assert contains_vector(s, [5, 5])
    assert not contains_vector(s, [1, 2])


def test_subspace_dependent_rows_removed():
    s = subspace_from_constraints(3, [[1, -1, 0], [0, 1, -1], [1, 0, -1]])
    assert s.codim == 2


def test_subspace_no_constraints_is_ambient():
    s = subspace_from_constraints(2, [])
    assert s.codim == 0
    assert s == Subspace.ambient(2)


def test_intersect_chains_diagonals():
    a = subspace_from_constraints(3, [[1, -1, 0]])
    b = subspace_from_constraints(3, [[0, 1, -1]])
    meet = intersect(a, b)
    assert meet.codim == 2
    assert meet == subspace_from_constraints(3, [[1, 0, -1], [0, 1, -1]])


def test_intersect_idempotent_on_example():
    a = subspace_from_constraints(3, [[1, -1, 0]])
    assert intersect(a, a) == a


def test_intersect_disjoint_constraints():
    a = subspace_from_constraints(4, [[1, -1, 0, 0]])
    b = subspace_from_constraints(4, [[0, 0, 1, -1]])
    meet = intersect(a, b)
    assert meet.codim == 2
    assert meet == subspace_from_constraints(4, [[1, -1, 0, 0], [0, 0, 1, -1]])


def test_intersect_bounded_prunes():
    a = subspace_from_constraints(3, [[1, 0, 0], [0, 1, 0]])
    b = subspace_from_constraints(3, [[0, 0, 1]])
    assert intersect(a, b, max_codim=2) is None
    assert intersect(a, b, max_codim=3).codim == 3


def test_contains_examples():
    hyper = subspace_from_constraints(3, [[1, -1, 0]])
    diag = subspace_from_constraints(3, [[1, -1, 0], [0, 1, -1]])
    other = subspace_from_constraints(3, [[0, 1, -1]])
    assert contains(hyper, diag)
    assert not contains(hyper, other)
    assert contains(Subspace.ambient(3), diag)
    assert contains(Subspace.ambient(3), hyper)


# Coordinate selections Q^3 -> Q^2, v -> (v[a], v[b]), are the maps that
# the injections (a, b) into three points induce with r = 1.
def selection(*points):
    return Injection((points,), MultiIndex((3,)))


def test_preimage_projection():
    # project Q^3 -> Q^2 dropping coordinate 1 (the middle one)
    x = subspace_from_constraints(2, [[1, -1]])
    assert pullback(selection(0, 2), 1, x) == subspace_from_constraints(3, [[1, 0, -1]])


def test_preimage_identity():
    x = subspace_from_constraints(3, [[1, -1, 0]])
    assert pullback(Injection(((0, 1, 2),), MultiIndex((3,))), 1, x) == x


def test_preimage_drop_last_coordinate():
    x = subspace_from_constraints(2, [[1, -1]])
    assert pullback(selection(0, 1), 1, x) == subspace_from_constraints(3, [[1, -1, 0]])


def test_direct_image_projection():
    x = subspace_from_constraints(3, [[1, -1, 0]])
    assert pushforward(selection(0, 1), 1, x) == subspace_from_constraints(2, [[1, -1]])


def test_direct_image_identity():
    x = subspace_from_constraints(3, [[1, -1, 0], [0, 1, -1]])
    assert pushforward(Injection(((0, 1, 2),), MultiIndex((3,))), 1, x) == x


def test_direct_image_full_diagonal():
    # the full diagonal does not contain the kernel (the middle axis), so it
    # has no pushforward; the smallest subspace that contains both, the
    # preimage of its image x_0 = x_2, pushes forward to that image
    f = selection(0, 2)
    x = subspace_from_constraints(3, [[1, -1, 0], [0, 1, -1]])
    with pytest.raises(ValueError, match="kernel"):
        pushforward(f, 1, x)
    saturated = subspace_from_constraints(3, [[1, 0, -1]])
    assert contains(saturated, x)
    assert pushforward(f, 1, saturated) == subspace_from_constraints(2, [[1, -1]])


def test_pushforward_raises_off_the_kernel():
    # x_0 = x_1 at r = 2 constrains point 1, which (0,) -> (2,) misses
    f = Injection(((0,),), MultiIndex((2,)))
    x = subspace_from_constraints(4, [[1, 0, -1, 0]])
    assert constraint_support(x) == {0, 2}
    with pytest.raises(ValueError, match="kernel"):
        pushforward(f, 2, x)
    with pytest.raises(ValueError, match="target"):
        pushforward(f, 1, x)
    zero_at_point_0 = subspace_from_constraints(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert pushforward(f, 2, zero_at_point_0) == subspace_from_constraints(
        2, [[1, 0], [0, 1]]
    )


def test_serialization_format_and_roundtrip():
    s = subspace_from_constraints(3, [[2, -1, 0]])
    assert s.serialize() == "3:1,-1/2,0"
    assert Subspace.parse(s.serialize()) == s
    assert Subspace.ambient(4).serialize() == "4:"


def test_shape_errors():
    a = subspace_from_constraints(2, [[1, -1]])
    b = subspace_from_constraints(3, [[1, -1, 0]])
    with pytest.raises(ValueError):
        intersect(a, b)
    with pytest.raises(ValueError):
        contains(a, b)
    with pytest.raises(ValueError):
        subspace_from_constraints(2, [[1, 2, 3]])


entries = st.integers(min_value=-3, max_value=3)


def rows_strategy(cols, max_rows=4):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=0, max_size=max_rows
    )


matrices = rows_strategy(4).map(lambda rows: mat(rows, 4))
subspaces6 = rows_strategy(6).map(lambda rows: subspace_from_constraints(6, rows))


@given(matrices)
def test_rref_idempotent(m):
    once = _rref_rows(m.entries, m.cols)
    assert _rref_rows(once, m.cols) == once


@given(subspaces6, subspaces6)
def test_intersect_commutative(a, b):
    assert intersect(a, b) == intersect(b, a)


@given(subspaces6, subspaces6, subspaces6)
@settings(max_examples=100)
def test_intersect_associative(a, b, c):
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


@given(subspaces6)
def test_intersect_idempotent(a):
    assert intersect(a, a) == a


fractions = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@given(
    st.lists(st.lists(fractions, min_size=5, max_size=5), max_size=4),
    st.lists(st.lists(fractions, min_size=5, max_size=5), max_size=4),
    st.integers(0, 5),
)
def test_meet_rows_matches_stacked_reduction(a, b, max_rank):
    rows = tuple(_rref_rows(a, 5))
    expected = _rref_rows(list(rows) + b, 5)
    for cutoff in (None, max_rank):
        got = meet_rows(rows, _pivot_columns(rows), b, 5, cutoff)
        if cutoff is not None and len(expected) > cutoff:
            assert got is None
        else:
            assert got == tuple(expected)


@given(st.lists(st.lists(fractions, min_size=4, max_size=4), max_size=4))
def test_reduction_is_integer_first(rows):
    # integral entries in, integral entries out as ints
    reduced = _rref_rows(rows, 4)
    assert reduced == _rref_rows([[Fraction(e) for e in row] for row in rows], 4)
    for row in reduced:
        for e in row:
            assert type(e) is int or e.denominator > 1


def test_integral_rows_stay_int():
    assert _rref_rows([[2, 4, 6], [-1, 0, 3]], 3) == [(1, 0, -3), (0, 1, 3)]
    assert {type(e) for row in _rref_rows([[2, 4, 6], [-1, 0, 3]], 3) for e in row} == {int}
    assert _rref_rows([[2, 3]], 2) == [(1, Fraction(3, 2))]
    s = subspace_from_constraints(3, [["4/2", -2, 0]])
    assert s.constraints.entries == ((1, -1, 0),)
    assert type(s.constraints.entries[0][0]) is int


def test_parse_reads_ints_and_fractions():
    s = Subspace.parse("3:1,-1/2,0;0,0,1")
    assert [[type(e) for e in row] for row in s.constraints.entries] == [
        [int, Fraction, int],
        [int, int, int],
    ]
    assert s == subspace_from_constraints(3, [[2, -1, 0], [0, 0, 1]])
    with pytest.raises(ZeroDivisionError):
        Subspace.parse("2:1,1/0")


@given(rows_strategy(5))
def test_mutual_containment_is_identity(rows):
    a = subspace_from_constraints(5, rows)
    # same solution set presented through doubled, reordered rows
    b = subspace_from_constraints(5, [[2 * e for e in r] for r in reversed(rows)])
    assert contains(a, b) and contains(b, a)
    assert a == b and a.serialize() == b.serialize()


# surjective coordinate selections (Q^r)^target -> (Q^r)^source, r = 1, 2
selections = st.sampled_from(
    [(MultiIndex(c), MultiIndex(d)) for c, d in [((3,), (3,)), ((2,), (3,)), ((3,), (5,)), ((1, 2), (2, 3))]]
).flatmap(
    lambda cd: st.tuples(st.sampled_from(enumerate_injections(*cd)), st.integers(1, 2))
)


@given(selections, st.data())
def test_direct_image_inverts_preimage(selection_r, data):
    # any preimage contains ker(f), so the direct image recovers the source
    f, r = selection_r
    y = subspace_from_constraints(
        r * f.source.total, data.draw(rows_strategy(r * f.source.total))
    )
    x = pullback(f, r, y)
    assert pushforward(f, r, x) == y
    assert pullback(f, r, pushforward(f, r, x)) == x


@given(selections, st.data())
def test_preimage_preserves_codim_for_surjections(selection_r, data):
    f, r = selection_r
    y = subspace_from_constraints(
        r * f.source.total, data.draw(rows_strategy(r * f.source.total))
    )
    assert pullback(f, r, y).codim == y.codim


def test_span_and_kernel_are_inverse_presentations():
    s = subspace_from_constraints(4, [[1, -1, 0, 0], [0, 0, 1, -1]])
    basis = kernel_basis(s.constraints)
    assert len(basis) == s.dim == len(_rref_rows(basis, 4))
    assert all(contains_vector(s, v) for v in basis)
    zero = subspace_from_constraints(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_basis(zero.constraints) == ()
    assert constraint_support(zero) == {0, 1, 2}


def test_kernel_basis_of_zero_row_matrix():
    vecs = kernel_basis(RationalMatrix((), 3))
    assert len(vecs) == 3
