"""The atom-set lattice against the paths it replaced.

``pairwise_closure`` is the former ``build_lattice``: it closes the frontier
under intersection with every known element and derives the order from
``exactlin.contains``.  It shares no code with the atom-set construction
beyond the exact linear algebra, and stays here as the reference.  The
integer-first meet, the group action, orbits, preimages, images, normality,
normalization and the orbit decomposition have their former paths as
references further down.
"""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrstab import arrangement, cache, checks, cli, exactlin, fim
from arrstab.arrangement import ArrangementSpec, build_lattice, family_mkr
from arrstab.checks import (
    NormalityReport,
    NormalityViolation,
    OrbitDecomposition,
    normalize,
    orbit_decomposition,
    primitive_classes,
    verify_normal,
)
from arrstab.exactlin import (
    RationalMatrix,
    Subspace,
    contains,
    kernel_basis,
    subspace_from_constraints,
)
from arrstab.fim import (
    ConjClass,
    LatticeError,
    MultiIndex,
    PermTuple,
    ambient_dim,
    binomial_class_key,
    binomial_representatives,
    class_representative,
    conj_classes,
    coord_index,
    coordinate_permutation,
    enumerate_injections,
    perm_tuples,
    pullback,
    pushforward,
)
from arrstab.homology import LatticeHomology, OrderComplex, reduced_betti_numbers
from test_exactlin import intersect, mat

mi = MultiIndex


# ``selection_matrix`` is the former ``fim.induced_linear_map``: the matrix of
# the coordinate selection (Q^r)^target -> (Q^r)^source that an injection
# induces.  The former dense path multiplied constraints by it for preimages,
# cut the kernel out by its rows, and took direct images by mapping a kernel
# basis and spanning the images.  It stays here as the reference for
# ``pullback``, ``pushforward`` and the constraint-support tests.
#
# ``dense_matmul``, ``dense_apply``, ``dense_transpose`` and ``dense_rank`` are
# the former ``RationalMatrix`` products, transpose and ``exactlin.rank``,
# which only these references used.


def dense_matmul(a, b):
    out = []
    for row in a.entries:
        acc = [0] * b.cols
        for k, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b.entries[k])]
        out.append(tuple(acc))
    return RationalMatrix(tuple(out), b.cols)


def dense_apply(m, vector):
    return tuple(sum(a * v for a, v in zip(row, vector)) for row in m.entries)


def dense_transpose(m):
    return RationalMatrix(
        tuple(tuple(m.entries[r][c] for r in range(m.rows)) for c in range(m.cols)),
        m.rows,
    )


def dense_rank(m):
    return len(exactlin._rref_rows(m.entries, m.cols))


def selection_matrix(f, r):
    ncols = ambient_dim(f.target, r)
    rows = []
    for j, imgs in enumerate(f.images):
        for image_point in imgs:
            for t in range(r):
                row = [0] * ncols
                row[coord_index(f.target, r, j, image_point, t)] = 1
                rows.append(row)
    return mat(rows, ncols)


def dense_preimage(f, r, x):
    composed = dense_matmul(x.constraints, selection_matrix(f, r))
    return subspace_from_constraints(composed.cols, composed.entries)


def dense_kernel(f, r):
    matrix = selection_matrix(f, r)
    return subspace_from_constraints(matrix.cols, matrix.entries)


def dense_span(n, vectors):
    """The subspace of Q^n spanned by the vectors (the former ``span``)."""
    return subspace_from_constraints(
        n, kernel_basis(mat(vectors, n))
    )


def dense_direct_image(f, r, x):
    matrix = selection_matrix(f, r)
    images = [dense_apply(matrix, v) for v in kernel_basis(x.constraints)]
    return dense_span(matrix.rows, images)


def pairwise_closure(spec, n, max_codim):
    """All elements of codim <= max_codim, sorted by (codim, serialization)."""
    known = {}
    for degree, sub in spec.generators:
        for f in enumerate_injections(degree, n):
            pre = dense_preimage(f, spec.r, sub)
            if pre.codim <= max_codim:
                known.setdefault(pre.serialization, pre)
    frontier = sorted(known)
    while frontier:
        new = {}
        for sa in frontier:
            for sb in sorted(known):
                meet = intersect(known[sa], known[sb], max_codim)
                if meet is not None and meet.serialization not in known:
                    new.setdefault(meet.serialization, meet)
        known.update(new)
        frontier = sorted(new)
    return sorted(known.values(), key=lambda e: (e.codim, e.serialization))


def named_atoms(spec, n, max_codim, preimage):
    """The distinct generator preimages ``preimage(f, generator)`` of codim
    <= max_codim, by serialization, and the index of each one's atom for
    every name (gi, f.images)."""
    first, named = {}, {}
    for gi, (degree, sub) in enumerate(spec.generators):
        for f in enumerate_injections(degree, n):
            pre = preimage(f, sub)
            if pre.codim <= max_codim:
                first.setdefault(pre.serialization, pre)
                named[gi, f.images] = pre.serialization
    keys = sorted(first)
    return [first[key] for key in keys], {name: keys.index(key) for name, key in named.items()}


def dense_atoms(spec, n):
    """The distinct dense generator preimages."""
    found = {}
    for degree, sub in spec.generators:
        for f in enumerate_injections(degree, n):
            pre = dense_preimage(f, spec.r, sub)
            found[pre.serialization] = pre
    return found.values()


def bit_indices(mask):
    """The positions of the set bits of ``mask``, ascending."""
    return tuple(a for a in range(mask.bit_length()) if mask >> a & 1)


def never(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return fail


def assert_matches_oracle(spec, n, max_codim):
    lat = build_lattice(spec, n, max_codim)
    expected = pairwise_closure(spec, n, max_codim)
    assert [e.serialization for e in lat.elements] == [
        e.serialization for e in expected
    ]
    atoms = dense_atoms(spec, n)
    position = {x.serialization: j for j, x in enumerate(expected)}
    for i, low in enumerate(expected):
        assert lat.containing(i) == tuple(
            j
            for j, high in enumerate(expected)
            if high.codim < low.codim and contains(high, low)
        )
        assert lat.atoms[i] == tuple(
            sorted(position[atom.serialization] for atom in atoms if contains(atom, low))
        )
    # every name of every atom: each injection's dense preimage
    assert lat.atom_names == {
        (gi, f.images): lat.elements.index(pre)
        for gi, (degree, sub) in enumerate(spec.generators)
        for f in enumerate_injections(degree, n)
        if (pre := dense_preimage(f, spec.r, sub)).codim <= max_codim
    }


PADDED = ArrangementSpec(
    1, 1, ((mi((3,)), subspace_from_constraints(3, [[1, -1, 0]])),)
)
MIXED_FACTOR = ArrangementSpec(
    2, 1, ((mi((2, 1)), subspace_from_constraints(3, [[1, 0, -1]])),)
)
# a hyperplane and a codim-2 generator at the same degree
MIXED_CODIM = ArrangementSpec(
    1,
    1,
    (
        (mi((2,)), subspace_from_constraints(2, [[1, -1]])),
        (mi((2,)), subspace_from_constraints(2, [[1, 0], [0, 1]])),
    ),
)


FAMILY_CASES = [
    (family_mkr(1, 2, 1), (5,), 4),  # braid
    (family_mkr(1, 2, 2), (4,), 6),  # conf r=2
    (family_mkr(1, 3, 1), (6,), 4),  # k-equals
    (family_mkr(2, 1, 1), (3, 3), 3),  # rational maps
    (PADDED, (5,), 4),
    (MIXED_FACTOR, (3, 2), 3),
    (MIXED_CODIM, (4,), 4),
]


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_atom_closure_matches_pairwise_closure(spec, level, max_codim):
    assert_matches_oracle(spec, mi(level), max_codim)


@st.composite
def two_codim_specs(draw):
    gens = []
    for _ in range(2):
        d = draw(st.sampled_from((2, 3)))
        rows = draw(
            st.lists(
                st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                min_size=1,
                max_size=d,
            )
        )
        sub = subspace_from_constraints(d, rows)
        assume(sub.codim >= 1)
        gens.append((mi((d,)), sub))
    assume(gens[0][1].codim != gens[1][1].codim)
    return ArrangementSpec(1, 1, tuple(gens))


# Level 3 keeps the pairwise oracle cheap: two generic generators have at
# most 12 distinct preimages there, but up to 48 at level 4, where the oracle
# on their intersections takes minutes.
@given(two_codim_specs(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_atom_closure_matches_pairwise_closure_random(spec, max_codim):
    assert_matches_oracle(spec, mi((3,)), max_codim)


def test_rref_budget_braid6_codim3(braid, monkeypatch):
    in_atoms = False
    rref_calls = []  # whether each full reduction ran while the atoms were made
    meets = []  # (rows, atom rows, cap, result) of each meet
    original_rref = exactlin._rref_rows
    original_meet = arrangement.meet_rows
    original_atoms = arrangement._atoms

    def counting_rref(*args, **kwargs):
        rref_calls.append(in_atoms)
        return original_rref(*args, **kwargs)

    def counting_meet(rows, pivots, other, cols, cap):
        result = original_meet(rows, pivots, other, cols, cap)
        meets.append((rows, other, cap, result))
        return result

    def flagged_atoms(*args, **kwargs):
        nonlocal in_atoms
        in_atoms = True
        try:
            return original_atoms(*args, **kwargs)
        finally:
            in_atoms = False

    monkeypatch.setattr(exactlin, "_rref_rows", counting_rref)
    monkeypatch.setattr(arrangement, "meet_rows", counting_meet)
    monkeypatch.setattr(arrangement, "_atoms", flagged_atoms)
    lat = build_lattice(braid, mi((6,)), 3)
    monkeypatch.undo()
    # |L| = 170 set partitions of 6 points with at most 3 merges, 15 atoms
    # x_i = x_j, and 30 injections [2] -> [6].  The orbits are the partition
    # types: one of atoms, two at codim 2 and three at codim 3.
    assert len(lat) == 170
    element = {x.constraints.entries: i for i, x in enumerate(lat.elements)}
    atom = {x.constraints.entries: a for a, x in enumerate(lat.elements[:15])}
    orbit = {}
    for i in range(len(lat)):
        members, _ = arrangement.orbit_of(lat, i)
        orbit[i] = members[0]
    assert len(set(orbit.values())) == 6
    # A meet capped at its element's own codim is a containment test; every
    # other meet is a closure meet from a representative below the cutoff.
    closure = [m for m in meets if m[2] != len(m[0])]
    assert all(m[2] == 3 and len(m[0]) < 3 for m in closure)
    starts = {element[rows] for rows, _, _, _ in closure}
    # one representative per orbit below the cutoff, met with every atom
    # outside its atom set
    assert sorted(orbit[i] for i in starts) == sorted(
        {o for o in orbit.values() if lat.codims[o] < 3}
    )
    assert len(closure) == sum(15 - len(lat.atoms[i]) for i in starts) == 39
    # Each new representative (every orbit but the atoms') is tested, right
    # after the closure meet that found it, against exactly the atoms of
    # lower codim outside the atom sets of its two parts, and gains the ones
    # that pass.  The atoms are the elements 0..14.
    assert {a for atoms in lat.atoms for a in atoms} == set(range(15))

    def atoms_of(i):
        return set(lat.atoms[i])

    found = []
    tested = 0
    k = 0
    while k < len(meets):
        rows, other, cap, result = meets[k]
        assert cap != len(rows)
        k += 1
        tests = []
        while k < len(meets) and meets[k][2] == len(meets[k][0]):
            tests.append(meets[k])
            k += 1
        if not tests:
            continue
        y = element[result]
        known = atoms_of(element[rows]) | {atom[other]}
        assert all(t[0] == result for t in tests)
        assert [atom[t[1]] for t in tests] == [a for a in range(15) if a not in known]
        assert {atom[t[1]] for t in tests if t[3] is not None} == atoms_of(y) - known
        found.append(y)
        tested += 15 - len(known)
    assert sorted(orbit[y] for y in found) == sorted(
        o for o in set(orbit.values()) if lat.codims[o] > 1
    )
    assert len(meets) == 39 + tested
    # The only full reductions: one per version sigma^*X of the generator
    # other than the identity's, here the swap's, for all 30 injections
    # [2] -> [6], and one per element reached in an orbit walk, which is
    # every element but the 15 atoms and the 5 other representatives.  The
    # generators' atom images are read from the atom names.
    assert rref_calls == [True] * (math.factorial(2) - 1) + [False] * (170 - 15 - 5)


def test_lattice_build_does_no_containment_tests(braid, monkeypatch):
    monkeypatch.setattr(exactlin, "contains", never("contains"))
    assert len(build_lattice(braid, mi((5,)), 3)) == 50


# --- atoms from generator versions -------------------------------------------
#
# ``named_atoms`` with ``pullback`` is the former atom construction of
# ``build_lattice``: one reduction per injection name.  It stays here as the
# reference for ``arrangement._atoms``, which reduces each version sigma^*X
# of a generator once and places its rows along the increasing injections.


def pullback_atoms(spec, n, max_codim):
    return named_atoms(spec, n, max_codim, lambda f, sub: pullback(f, spec.r, sub))


def assert_atoms_match_pullbacks(spec, n, max_codim):
    atoms, names = arrangement._atoms(spec, n, max_codim)
    expected_atoms, expected_names = pullback_atoms(spec, n, max_codim)
    assert [x.serialization for x in atoms] == [x.serialization for x in expected_atoms]
    assert list(names.items()) == list(expected_names.items())  # dict order included
    lat = build_lattice(spec, n, max_codim)
    real = arrangement._atoms
    arrangement._atoms = pullback_atoms
    try:
        oracle = build_lattice(spec, n, max_codim)
    finally:
        arrangement._atoms = real
    assert [x.serialization for x in lat.elements] == [x.serialization for x in oracle.elements]
    assert lat.atoms == oracle.atoms
    assert list(lat.atom_names.items()) == list(oracle.atom_names.items())
    assert lat.orbits == oracle.orbits


# generators that no point permutation fixes, so that their versions differ
ASYMMETRIC_CASES = [
    (ArrangementSpec(1, 1, ((mi((3,)), subspace_from_constraints(3, [[1, 2, 3]])),)), (5,), 3),
    (
        ArrangementSpec(1, 2, ((mi((2,)), subspace_from_constraints(4, [[1, 0, 0, 2]])),)),
        (3,),
        3,
    ),
    (
        ArrangementSpec(2, 2, ((mi((1, 1)), subspace_from_constraints(4, [[1, 2, -1, 0]])),)),
        (2, 2),
        3,
    ),
    (
        ArrangementSpec(
            2,
            1,
            (
                (mi((2, 1)), subspace_from_constraints(3, [[1, -2, 1]])),
                (mi((1, 1)), subspace_from_constraints(2, [[1, 1]])),
            ),
        ),
        (3, 2),
        3,
    ),
    (MIXED_CODIM, (2,), 4),  # every injection is a permutation
    (family_mkr(1, 3, 1), (2,), 4),  # no injection: no atoms
]


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES + ASYMMETRIC_CASES)
def test_atoms_from_versions_match_one_pullback_per_name(spec, level, max_codim):
    assert_atoms_match_pullbacks(spec, mi(level), max_codim)


@st.composite
def custom_specs(draw):
    """One or two random generators with m and r in {1, 2}, at a level at
    or above every generator degree, of at most four points."""
    m, r = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        degree = mi(draw(st.lists(st.integers(0, 3 - m), min_size=m, max_size=m)))
        assume(degree.total >= 1)
        dim = r * degree.total
        rows = draw(
            st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), min_size=1, max_size=2)
        )
        sub = subspace_from_constraints(dim, rows)
        assume(sub.codim >= 1)
        gens.append((degree, sub))
    top = fim.componentwise_max(degree for degree, _ in gens)
    level = mi(d + draw(st.integers(0, 1)) for d in top)
    assume(level.total <= 4)
    return ArrangementSpec(m, r, tuple(gens)), level


@given(custom_specs(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_atoms_from_versions_match_one_pullback_per_name_random(case, max_codim):
    spec, level = case
    assert_atoms_match_pullbacks(spec, level, max_codim)


def count_atom_reductions(monkeypatch, *args):
    """The atoms and names ``arrangement._atoms(*args)`` makes, and the full
    reductions it runs."""
    calls = 0
    original = exactlin._rref_rows

    def counting(*a, **k):
        nonlocal calls
        calls += 1
        return original(*a, **k)

    with monkeypatch.context() as patch:
        patch.setattr(exactlin, "_rref_rows", counting)
        atoms, names = arrangement._atoms(*args)
    return atoms, names, calls


def test_rref_budget_kequals7_atoms(monkeypatch):
    # 35 atoms x_a = x_b = x_c under 210 names; the diagonal is symmetric,
    # so the six versions sigma^*X are one subspace
    atoms, names, calls = count_atom_reductions(monkeypatch, family_mkr(1, 3, 1), mi((7,)), 5)
    assert (len(atoms), len(names)) == (35, 210)
    assert calls <= 6


def test_atom_reductions_are_one_per_version_but_the_identity(monkeypatch):
    # x0 + 2 x1 + 3 x2 = 0 has six versions, one per permutation of its
    # points, so every image set carries six atoms
    spec, level, max_codim = ASYMMETRIC_CASES[0]
    atoms, names, calls = count_atom_reductions(monkeypatch, spec, mi(level), max_codim)
    assert calls == math.factorial(3) - 1
    assert (len(atoms), len(names)) == (6 * math.comb(5, 3), 60)


# --- the integer-first closure ------------------------------------------------
#
# ``fraction_rref`` is the former ``exactlin._rref_rows``: every entry a
# ``Fraction`` and every pivot row scaled by the inverse of its lead.
# ``concat_intersect`` is the former ``intersect``, which reduced both
# constraint matrices stacked, and ``fraction_closure`` the former
# ``build_lattice``: the same atom-set closure with one ``Subspace`` and one
# serialization per meet, the top layer included.  They stay here as the
# reference for the incremental integer-first meet.


def fraction_rref(rows, cols, max_rank=None):
    mat = [[Fraction(e) for e in row] for row in rows]
    nrows = len(mat)
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = 1 / mat[pivot_row][col]
        prow = mat[pivot_row] = [e * inv for e in mat[pivot_row]]
        for r in range(nrows):
            factor = mat[r][col]
            if r != pivot_row and factor != 0:
                mat[r] = [a - factor * b for a, b in zip(mat[r], prow)]
        pivot_row += 1
        if max_rank is not None and pivot_row > max_rank:
            return None
        if pivot_row == nrows:
            break
    return [tuple(row) for row in mat[:pivot_row]]


def fraction_subspace(n, rows, max_codim=None):
    reduced = fraction_rref(rows, n, max_codim)
    return None if reduced is None else Subspace(n, RationalMatrix(tuple(reduced), n))


def concat_intersect(a, b, max_codim):
    rows = a.constraints.entries + b.constraints.entries
    return fraction_subspace(a.ambient_dim, rows, max_codim)


def fraction_preimage(spec):
    def preimage(f, sub):
        composed = dense_matmul(sub.constraints, selection_matrix(f, spec.r))
        return fraction_subspace(composed.cols, composed.entries)

    return preimage


def fraction_closure(spec, n, max_codim):
    atoms, names = named_atoms(spec, n, max_codim, fraction_preimage(spec))
    found, masks = {}, {}
    layers = [[] for _ in range(max_codim + 1)]

    def record(x, mask):
        key = x.serialization
        if key not in found:
            found[key] = x
            masks[key] = 0
            layers[x.codim].append(key)
        masks[key] |= mask

    for a, atom in enumerate(atoms):
        record(atom, 1 << a)
    for layer in layers:
        for key in layer:
            for a, atom in enumerate(atoms):
                if not masks[key] >> a & 1:
                    meet = concat_intersect(found[key], atom, max_codim)
                    if meet is not None:
                        record(meet, masks[key] | 1 << a)
    # the atoms were recorded first, so bit a of a mask is element a
    atom_sets = [bit_indices(masks[key]) for key in found]
    return with_generator_orbits(
        arrangement.IntersectionLattice(
            n, max_codim, spec.r, list(found.values()), atom_sets, range(len(found)), names
        )
    )


def assert_matches_fraction_closure(spec, n, max_codim):
    lat = build_lattice(spec, n, max_codim)
    expected = fraction_closure(spec, n, max_codim)
    assert lat.elements == expected.elements
    assert [e.serialization for e in lat.elements] == [
        e.serialization for e in expected.elements
    ]
    assert lat.atoms == expected.atoms
    assert lat.orbits == expected.orbits
    assert lat.atom_names == expected.atom_names
    assert [lat.containing(i) for i in range(len(lat))] == [
        expected.containing(i) for i in range(len(expected))
    ]


# ``2, 3, -5; 1/2, 0, 7`` reduces to rows with real denominators, so its
# meets run the Fraction branch throughout.
FRACTIONAL = ArrangementSpec(
    1,
    1,
    ((mi((3,)), subspace_from_constraints(3, [[2, 3, -5], ["1/2", 0, 7]])),),
)


@pytest.mark.parametrize(
    "spec, level, max_codim", FAMILY_CASES + [(FRACTIONAL, (4,), 3)]
)
def test_integer_closure_matches_fraction_closure(spec, level, max_codim):
    assert_matches_fraction_closure(spec, mi(level), max_codim)


def test_fractional_spec_keeps_real_denominators_only():
    lat = build_lattice(FRACTIONAL, mi((4,)), 3)
    entries = [e for x in lat.elements for row in x.constraints.entries for e in row]
    assert any(isinstance(e, Fraction) for e in entries)
    assert all(isinstance(e, int) or e.denominator > 1 for e in entries if e)
    braid_entries = {
        type(e)
        for x in build_lattice(family_mkr(1, 2, 1), mi((5,)), 4).elements
        for row in x.constraints.entries
        for e in row
    }
    assert braid_entries == {int}


@st.composite
def fractional_specs(draw):
    entry = st.sampled_from([0, 1, -1, 2, "1/2", "-3/2", "2/3", "5/4"])
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.sampled_from((2, 3)))
        rows = draw(
            st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=2)
        )
        assume(any(isinstance(e, str) for row in rows for e in row))
        sub = subspace_from_constraints(d, rows)
        assume(sub.codim >= 1)
        gens.append((mi((d,)), sub))
    return ArrangementSpec(1, 1, tuple(gens))


# Codim 3 at level 4 makes the oracle take seconds per spec.
@given(spec=fractional_specs(), level=st.integers(3, 4), max_codim=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_integer_closure_matches_fraction_closure_random(spec, level, max_codim):
    assume(level + max_codim <= 6)
    assert_matches_fraction_closure(spec, mi((level,)), max_codim)


# --- the orbit closure --------------------------------------------------------
#
# ``atom_closure`` is the former ``build_lattice``: every element below the
# cutoff, orbit representative or not, is met with every atom not containing
# it, and each atom set is completed by the meets that land on it.  Its
# orbits, like those of ``fraction_closure``, come from
# ``with_generator_orbits``, so the comparison below checks the orbits too.
# ``scan_order`` is the former order table, a subset scan over all lower
# elements.  They stay here as the reference for the orbit closure and the
# per-atom bitset order.


def atom_closure(spec, n, max_codim):
    atoms, names = named_atoms(spec, n, max_codim, lambda f, sub: pullback(f, spec.r, sub))
    dim = ambient_dim(n, spec.r)
    index, rows_of, pivots_of, masks = {}, [], [], []
    layers = [[] for _ in range(max_codim + 1)]

    def record(rows, mask):
        idx = index.get(rows)
        if idx is None:
            idx = index[rows] = len(masks)
            rows_of.append(rows)
            pivots_of.append(exactlin._pivot_columns(rows))
            masks.append(0)
            layers[len(rows)].append(idx)
        masks[idx] |= mask

    for a, atom in enumerate(atoms):
        record(atom.constraints.entries, 1 << a)
    for layer in layers[:max_codim]:
        for idx in layer:
            for a, atom in enumerate(atoms):
                if masks[idx] >> a & 1:
                    continue
                rows = exactlin.meet_rows(
                    rows_of[idx], pivots_of[idx], atom.constraints.entries, dim, max_codim
                )
                if rows is not None:
                    record(rows, masks[idx] | 1 << a)
    elements = atoms + [
        Subspace(dim, RationalMatrix(rows, dim)) for rows in rows_of[len(atoms) :]
    ]
    return with_generator_orbits(
        arrangement.IntersectionLattice(
            n, max_codim, spec.r, elements, list(map(bit_indices, masks)), range(len(elements)), names
        )
    )


def scan_order(lat):
    masks = [sum(1 << a for a in atoms) for atoms in lat.atoms]
    return [
        tuple(
            j
            for j in range(i)
            if lat.codims[j] < lat.codims[i] and masks[j] & ~low == 0
        )
        for i, low in enumerate(masks)
    ]


def assert_matches_atom_closure(spec, n, max_codim):
    lat = build_lattice(spec, n, max_codim)
    expected = atom_closure(spec, n, max_codim)
    assert lat.elements == expected.elements
    assert [e.serialization for e in lat.elements] == [
        e.serialization for e in expected.elements
    ]
    assert lat.atoms == expected.atoms
    assert lat.orbits == expected.orbits
    assert lat.atom_names == expected.atom_names
    assert [lat.containing(i) for i in range(len(lat))] == scan_order(expected)


# a generator on the second factor only, so the first has no points
SECOND_FACTOR = ArrangementSpec(
    2, 1, ((mi((0, 2)), subspace_from_constraints(2, [[1, -1]])),)
)


@pytest.mark.parametrize(
    "spec, level, max_codim, size",
    [(spec, level, c, None) for spec, level, c in FAMILY_CASES]
    + [
        (FRACTIONAL, (4,), 3, None),
        (family_mkr(1, 2, 1), (5,), 1, 10),  # the atoms alone
        (family_mkr(1, 3, 1), (5,), 1, 0),  # every atom exceeds the cutoff
        (family_mkr(1, 3, 1), (2,), 2, 0),  # no injection from the degree
        (MIXED_FACTOR, (4, 1), 3, None),  # a factor of size 1
        (SECOND_FACTOR, (0, 4), 3, None),  # a factor of size 0
        (family_mkr(2, 1, 1), (1, 1), 1, 1),  # no group generator at all
    ],
)
def test_orbit_closure_matches_atom_closure(spec, level, max_codim, size):
    assert_matches_atom_closure(spec, mi(level), max_codim)
    if size is not None:
        assert len(build_lattice(spec, mi(level), max_codim)) == size


@st.composite
def product_specs(draw):
    """Specs with two factors or two-dimensional points, and a level that
    every generator degree maps into."""
    m, r = draw(st.sampled_from([(2, 1), (1, 2), (2, 2)]))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        degree = mi(tuple(draw(st.integers(0, 2)) for _ in range(m)))
        d = ambient_dim(degree, r)
        assume(d >= 2)
        rows = draw(
            st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=2)
        )
        sub = subspace_from_constraints(d, rows)
        assume(sub.codim >= 1)
        gens.append((degree, sub))
    spec = ArrangementSpec(m, r, tuple(gens))
    level = mi(c + draw(st.integers(0, 2)) for c in spec.cmax)
    assume(ambient_dim(level, r) <= 8)
    return spec, level


# The oracles are quadratic in the lattice size (``atom_closure`` meets every
# element with every atom, ``scan_order`` compares every pair), so drawn
# lattices past ORACLE_BUDGET elements would take tens of seconds each; the
# engine itself is checked on large lattices by the fixed cases above.  An
# element of codim k is the meet of at most k atoms, so a spec whose names
# could meet in far more elements is rejected before the engine builds a
# lattice that can take seconds on its own.
ORACLE_BUDGET = 3000
MEET_BOUND = 20000


def within_oracle_budget(spec, level, max_codim):
    names = sum(len(enumerate_injections(degree, level)) for degree, _ in spec.generators)
    if sum(math.comb(names, k) for k in range(1, max_codim + 1)) > MEET_BOUND:
        return False
    return len(build_lattice(spec, level, max_codim)) <= ORACLE_BUDGET


@given(spec=two_codim_specs(), level=st.integers(3, 4), max_codim=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_orbit_closure_matches_atom_closure_random(spec, level, max_codim):
    assume(within_oracle_budget(spec, mi((level,)), max_codim))
    assert_matches_atom_closure(spec, mi((level,)), max_codim)


@given(case=product_specs(), max_codim=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_orbit_closure_matches_atom_closure_product(case, max_codim):
    spec, level = case
    assume(within_oracle_budget(spec, level, max_codim))
    assert_matches_atom_closure(spec, level, max_codim)


def without_name(lat, name):
    """``lat`` with one name of an atom dropped from its name table."""
    names = {key: atom for key, atom in lat.atom_names.items() if key != name}
    labels = [orbit[0] for orbit in lat.orbits]
    return arrangement.IntersectionLattice(
        lat.level, lat.max_codim, lat.r, lat.elements, lat.atoms, labels, names
    )


def test_atom_image_outside_the_atoms_exits_three(braid, tmp_path, capsys, monkeypatch):
    # The atom x0 = x1 is named (0, (0, 1)) and (0, (1, 0)).  Without its
    # second name, the transposition (0 1) maps its first name to no atom.
    swapped = (0, ((1, 0),))
    for level in (2, 3):
        lat = without_name(build_lattice(braid, mi((level,)), 2), swapped)
        with pytest.raises(LatticeError, match="maps an atom name to no atom"):
            lat.act(class_representative(ConjClass(((2,) + (1,) * (level - 2),))))
    original = arrangement.build_lattice
    monkeypatch.setattr(
        arrangement, "build_lattice", lambda *args: without_name(original(*args), swapped)
    )
    config = tmp_path / "job.json"
    config.write_text(
        '{"family": {"kind": "mkr", "m": 1, "k": 2, "r": 1},'
        ' "levels": {"min": [2], "max": [3]}, "i_max": 1, "outputs": ["characters"]}',
        encoding="utf-8",
    )
    argv = ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 3
    assert "internal error: group action maps an atom name to no atom" in capsys.readouterr().err


def test_orbit_member_indexed_under_another_atom_set_raises(braid, monkeypatch):
    original = arrangement.scatter_rows

    def onto_an_atom(rows, columns, n):
        image = original(rows, columns, n)
        return image[:1] if len(rows) > 1 else image

    monkeypatch.setattr(arrangement, "scatter_rows", onto_an_atom)
    with pytest.raises(LatticeError, match="orbit member indexed under another atom set"):
        build_lattice(braid, mi((4,)), 2)


# --- the group action and the orbits ----------------------------------------
#
# ``rref_image`` is the former ``IntersectionLattice.permute_element`` and
# ``rref_act`` the former ``act``: every element is permuted and reduced on
# its own.  ``walked_orbit`` is the former ``orbit_of``, a walk over the whole
# group, and ``with_generator_orbits`` joins the orbits of the oracle
# closures by union over ``rref_image`` under a transposition and an n-cycle
# per factor.  ``dense_preimage`` is the former preimage.  They stay here as
# the references for the atom permutation, the orbits the closure records
# and the column scatter that replaced them.


def rref_image(lat, g, idx):
    perm = coordinate_permutation(g, lat.r)
    inverse = [0] * len(perm)
    for src, dst in enumerate(perm):
        inverse[dst] = src
    rows = [
        [row[inverse[b]] for b in range(len(perm))]
        for row in lat.elements[idx].constraints.entries
    ]
    return lat.elements.index(subspace_from_constraints(len(perm), rows))


def rref_act(lat, g):
    return tuple(rref_image(lat, g, idx) for idx in range(len(lat)))


def walked_orbit(lat, idx):
    images = [rref_image(lat, g, idx) for g in perm_tuples(lat.level)]
    return tuple(sorted(set(images))), images.count(idx)


def with_generator_orbits(lat):
    """``lat`` with the orbit labels of its generator images, joined by
    union-find over ``rref_image``."""
    parent = list(range(len(lat)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for j, n in enumerate(lat.level):
        if n < 2:
            continue
        for perm in ((1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)):
            g = PermTuple(tuple(perm if k == j else tuple(range(m)) for k, m in enumerate(lat.level)))
            for idx in range(len(lat)):
                a, b = find(idx), find(rref_image(lat, g, idx))
                parent[max(a, b)] = min(a, b)
    labels = [find(idx) for idx in range(len(lat))]
    return arrangement.IntersectionLattice(
        lat.level, lat.max_codim, lat.r, lat.elements, lat.atoms, labels, lat.atom_names
    )


def assert_action_matches_oracle(lat):
    for c in conj_classes(lat.level):
        g = class_representative(c)
        assert lat.act(g) == rref_act(lat, g)


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_atom_action_matches_rref_action(spec, level, max_codim):
    assert_action_matches_oracle(build_lattice(spec, mi(level), max_codim))
    assert_action_matches_oracle(build_lattice(spec, mi(level), max(1, max_codim - 2)))


@given(two_codim_specs(), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_atom_action_matches_rref_action_random(spec, max_codim):
    lat = build_lattice(spec, mi((4,)), max_codim)
    assert_action_matches_oracle(lat)
    assert_action_matches_oracle(build_lattice(spec, mi((4,)), 1))


@pytest.mark.parametrize(
    "spec, level, max_codim",
    [
        (family_mkr(1, 2, 1), (4,), 4),
        (family_mkr(1, 2, 2), (4,), 4),
        (family_mkr(1, 3, 1), (5,), 3),
        (family_mkr(2, 1, 1), (2, 3), 3),
        (MIXED_FACTOR, (3, 2), 3),
        (MIXED_CODIM, (3,), 3),
    ]
    + FAMILY_CASES,
)
def test_orbit_bfs_matches_group_walk(spec, level, max_codim):
    # the orbits recorded by the closure's generator walk, at two cutoffs,
    # against a walk over the whole group
    lat = build_lattice(spec, mi(level), max_codim)
    for got in (lat, build_lattice(spec, mi(level), max(1, max_codim - 1))):
        walked = {}
        for idx in range(len(got)):
            if idx not in walked:
                orbit = walked_orbit(got, idx)
                walked.update(dict.fromkeys(orbit[0], orbit))
            assert arrangement.orbit_of(got, idx) == walked[idx]


def relation_intervals(lat):
    """Every element's interval, from ``exactlin.contains`` on the element
    subspaces and not from the lattice's order table: the elements strictly
    containing it, ascending, and its chains on their positions, grown by
    scanning the relation and sorted in each dimension."""
    n = len(lat)
    above = [
        [y for y in range(n) if y != x and contains(lat.elements[y], lat.elements[x])]
        for x in range(n)
    ]
    for members in above:
        succ = [[b for b, y in enumerate(members) if z in above[y]] for z in members]
        levels = []
        current = [(v,) for v in range(len(members))]
        while current:
            levels.append(tuple(current))
            current = sorted(chain + (b,) for chain in current for b in succ[chain[-1]])
        yield tuple(members), tuple(levels)


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_per_orbit_betti_matches_per_element_betti(spec, level, max_codim):
    lat = build_lattice(spec, mi(level), max_codim)
    ctx = LatticeHomology(lat)
    for idx, (_, chains) in enumerate(relation_intervals(lat)):
        assert ctx.betti_numbers(idx) == reduced_betti_numbers(OrderComplex(chains))


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_order_complex_matches_relation_scan(spec, level, max_codim):
    lat = build_lattice(spec, mi(level), max_codim)
    ctx = LatticeHomology(lat)
    for idx, (members, chains) in enumerate(relation_intervals(lat)):
        got_members, cx = ctx.interval(idx)
        assert (got_members, cx.chains) == (members, chains), idx


@st.composite
def injection_cases(draw):
    source, target = draw(
        st.sampled_from(
            [((1,), (3,)), ((2,), (3,)), ((3,), (4,)), ((2,), (2,)), ((1, 1), (2, 2)), ((2, 1), (2, 3))]
        )
    )
    r = draw(st.integers(1, 2))
    n = r * sum(source)
    rows = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=n)
    )
    return mi(source), mi(target), r, subspace_from_constraints(n, rows)


@given(injection_cases())
@settings(max_examples=60, deadline=None)
def test_scattered_preimage_matches_dense_preimage(case):
    source, target, r, x = case
    for f in enumerate_injections(source, target):
        assert pullback(f, r, x) == dense_preimage(f, r, x)


@st.composite
def point_skipping_rows(draw, level, r):
    """Constraint rows at ``level`` that vanish on a drawn set of points."""
    used = draw(st.lists(st.booleans(), min_size=level.total, max_size=level.total))
    n = r * level.total
    rows = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            min_size=1,
            max_size=3,
        )
    )
    return [[e if used[c // r] else 0 for c, e in enumerate(row)] for row in rows]


@st.composite
def pushforward_cases(draw):
    source, target = draw(
        st.sampled_from(
            [((1,), (3,)), ((2,), (3,)), ((3,), (4,)), ((2,), (2,)), ((0,), (2,)), ((1, 1), (2, 2)), ((2, 1), (2, 3))]
        )
    )
    r = draw(st.integers(1, 2))
    rows = draw(point_skipping_rows(mi(target), r))
    return mi(source), mi(target), r, subspace_from_constraints(r * sum(target), rows)


@given(pushforward_cases())
@settings(max_examples=80, deadline=None)
def test_pushforward_matches_dense_direct_image(case):
    source, target, r, x = case
    for f in enumerate_injections(source, target):
        if contains(x, dense_kernel(f, r)):
            assert pushforward(f, r, x) == dense_direct_image(f, r, x)
        else:
            with pytest.raises(ValueError, match="kernel"):
                pushforward(f, r, x)


def scan_normalize(spec):
    """The former ``normalize``: the first injection, by degree size and then
    in enumeration order, whose dense kernel the generator contains."""
    gens = []
    for degree, sub in spec.generators:
        e, f = next(
            (e, f)
            for e in checks._degrees_below(degree)
            for f in enumerate_injections(e, degree)
            if contains(sub, dense_kernel(f, spec.r))
        )
        gens.append((e, dense_direct_image(f, spec.r, sub)))
    return ArrangementSpec(spec.m, spec.r, tuple(gens))


def scan_verify_normal(spec, degrees, get_lattice):
    """The normality check on whole lattices: every pair c <= d of the listed
    degrees, dense kernel containment, then the direct image."""
    degrees = tuple(degrees)
    lattices = {
        d: get_lattice(spec, d, max(1, ambient_dim(d, spec.r))) for d in degrees
    }
    for c in degrees:
        stored = {x.serialization for x in lattices[c].elements}
        for d in degrees:
            if not c.leq(d):
                continue
            for f in enumerate_injections(c, d):
                ker = dense_kernel(f, spec.r)
                for x in lattices[d].elements:
                    if contains(x, ker):
                        image = dense_direct_image(f, spec.r, x)
                        if image.serialization not in stored:
                            return NormalityReport(False, NormalityViolation(c, d, f, x, image))
    return NormalityReport(True)


def gate_without_lattices(spec):
    """``verify_normal`` with every lattice builder raising."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (arrangement, checks):
            patch.setattr(module, "build_lattice", never("build_lattice"))
        patch.setattr(cache.CachingBuilder, "__call__", never("CachingBuilder"))
        return verify_normal(spec)


def assert_genuine(violation, spec, get_lattice):
    """The violating element contains the kernel of its injection, its image
    is the dense direct image, and the image is no element of the whole
    lattice at the source."""
    f, x = violation.injection, violation.element
    assert (f.source, f.target) == (violation.source, violation.target)
    assert contains(x, dense_kernel(f, spec.r))
    assert violation.image == dense_direct_image(f, spec.r, x)
    lat = get_lattice(spec, f.source, max(1, ambient_dim(f.source, spec.r)))
    assert violation.image.serialization not in {y.serialization for y in lat.elements}


def assert_normality_matches_scan(spec, tops, get_lattice):
    """The gate's verdict is the scan's over every degree up to each top."""
    assert normalize(spec) == scan_normalize(spec)
    report = gate_without_lattices(spec)
    for top in tops:
        scan = scan_verify_normal(spec, checks._degrees_below(top), get_lattice)
        assert report.normal == scan.normal, top.render()
    if not report.normal:
        assert_genuine(report.violation, spec, get_lattice)
    return report


def tops_of(spec):
    """cmax, and where its total is at most 3, cmax with one point more in
    any one factor."""
    top = spec.cmax
    if top.total > 3:
        return [top]
    return [top] + [fim.degree_add(top, mi(int(k == j) for k in range(spec.m))) for j in range(spec.m)]


NON_NORMAL = [
    PADDED,
    MIXED_FACTOR,
    # points skipped in both factors, and a padded generator with r = 2
    ArrangementSpec(
        2, 1, ((mi((2, 2)), subspace_from_constraints(4, [[0, 1, -1, 0]])),)
    ),
    ArrangementSpec(
        1, 2, ((mi((3,)), subspace_from_constraints(6, [[1, 0, 0, 0, -1, 0]])),)
    ),
    # the origin of (2) lies in its one atom x_0 = x_1 but is no meet of atoms
    ArrangementSpec(
        1,
        1,
        (
            (mi((2,)), subspace_from_constraints(2, [[1, -1]])),
            (mi((3,)), subspace_from_constraints(3, [[1, 0, 0], [0, 1, 0]])),
        ),
    ),
]


@pytest.mark.parametrize(
    "spec", [case[0] for case in FAMILY_CASES] + NON_NORMAL[2:]
)
def test_normality_matches_dense_scan(spec, get_lattice):
    # up to cmax, and up to one point more in each factor, at most three
    top = mi(min(c + 1, 3) for c in spec.cmax)
    report = assert_normality_matches_scan(spec, [spec.cmax, top], get_lattice)
    assert report.normal == (spec not in NON_NORMAL)


def point_skipping_generator(draw, degree, r):
    """A generator at ``degree`` vanishing off a drawn set of points.  The
    first row has a nonzero entry at a used point, so it has codim >= 1 by
    construction and nothing is filtered."""
    n = r * degree.total
    used = draw(st.lists(st.booleans(), min_size=degree.total, max_size=degree.total))
    rows = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            min_size=1,
            max_size=3,
        )
    )
    pivot = draw(st.integers(0, n - 1))
    used[pivot // r] = True
    rows[0][pivot] = draw(st.sampled_from((-2, -1, 1, 2)))
    rows = [[e if used[c // r] else 0 for c, e in enumerate(row)] for row in rows]
    return degree, subspace_from_constraints(n, rows)


@st.composite
def point_skipping_specs(draw):
    """One or two point-skipping generators on at most three points (two
    when r = 2), each at a degree drawn from the valid ones."""
    m = draw(st.integers(1, 2))
    r = draw(st.integers(1, 2))
    bound = 3 if r == 1 else 2
    degrees = [
        mi(d) for d in itertools.product(range(bound + 1), repeat=m) if 1 <= sum(d) <= bound
    ]
    gens = [
        point_skipping_generator(draw, draw(st.sampled_from(degrees)), r)
        for _ in range(draw(st.integers(1, 2)))
    ]
    return ArrangementSpec(m, r, tuple(gens))


# pairs of distinct generator degrees: comparable, then not comparable
DEGREE_PAIRS = [
    ((1,), (3,)), ((2,), (3,)), ((3,), (2,)), ((1, 1), (2, 1)), ((0, 2), (1, 2)),
    ((2, 0), (0, 2)), ((2, 1), (1, 2)), ((1, 0), (0, 2)),
]


@st.composite
def two_degree_specs(draw):
    """Two point-skipping generators, r = 1, at the two degrees of a pair
    from ``DEGREE_PAIRS``, in the pair's order."""
    pair = draw(st.sampled_from(DEGREE_PAIRS))
    gens = tuple(point_skipping_generator(draw, mi(degree), 1) for degree in pair)
    return ArrangementSpec(len(pair[0]), 1, gens)


@given(point_skipping_specs())
@settings(max_examples=100, deadline=None)
def test_normality_matches_dense_scan_random(spec):
    assert_normality_matches_scan(spec, tops_of(spec), cache.CachingBuilder())


@given(two_degree_specs())
@settings(max_examples=80, deadline=None)
def test_normality_of_two_generator_degrees_matches_dense_scan_random(spec):
    assert_normality_matches_scan(spec, tops_of(spec), cache.CachingBuilder())


@pytest.mark.parametrize(
    "rows, normal",
    [
        ([[1, -1], [1, -1, 0]], True),  # (3)'s generator pushes forward to (2)'s
        ([[1, 1], [1, -1, 0]], False),  # to x_0 = x_1, which (2) lacks
        ([[1, -1], [1, 0, -1]], True),
        ([[1, 1], [1, 1, 1]], True),  # (3)'s generator touches every point
        # one degree: its automorphisms compare nothing, the points below do
        ([[1, -1, 0]], False),  # the padded generator alone
        ([[1, 1, 0], [1, -1, 0]], False),  # both padded, and (2) has no atom
        ([[1, 1, 1]], True),  # primitive
    ],
)
def test_normality_of_comparable_generator_degrees(rows, normal):
    gens = tuple((mi((len(row),)), subspace_from_constraints(len(row), [row])) for row in rows)
    spec = ArrangementSpec(1, 1, gens)
    report = assert_normality_matches_scan(spec, tops_of(spec), cache.CachingBuilder())
    assert report.normal == normal
    if not normal:
        assert (report.violation.source, report.violation.target) == (mi((2,)), mi((3,)))


def injection_orbit_decomposition(lat, classes):
    """The former ``orbit_decomposition``: one preimage per injection."""
    table = {}
    for ci, cls in enumerate(classes):
        if not cls.degree.leq(lat.level):
            continue
        for f in enumerate_injections(cls.degree, lat.level):
            pre = dense_preimage(f, lat.r, cls.subspace)
            table.setdefault(pre.serialization, []).append((ci, binomial_class_key(f)))
    assignments = []
    for idx, element in enumerate(lat.elements):
        hits = table.get(element.serialization)
        if not hits:
            raise LatticeError(f"element {idx} matched by no primitive class")
        class_ids = {ci for ci, _ in hits}
        if len(class_ids) > 1:
            raise LatticeError(
                f"element {idx} matched by {len(class_ids)} primitive classes"
            )
        if len({key for _, key in hits}) > 1:
            raise LatticeError(f"element {idx} matched by several binomial classes")
        assignments.append(hits[0])
    return OrbitDecomposition(tuple(assignments))


def pullback_orbit_decomposition(lat, classes):
    """The former ``orbit_decomposition``: the preimage of every orbit
    member along each binomial class's order-preserving injection, found by
    its serialization."""
    table = {}
    for ci, cls in enumerate(classes):
        if not cls.degree.leq(lat.level):
            continue
        for f in binomial_representatives(cls.degree, lat.level):
            key = binomial_class_key(f)
            for y in cls.orbit:
                pre = pullback(f, lat.r, y)
                table.setdefault(pre.serialization, set()).add((ci, key))
    assignments = []
    for idx, element in enumerate(lat.elements):
        hits = table.get(element.serialization)
        if not hits:
            raise LatticeError(f"element {idx} matched by no primitive class")
        class_ids = {ci for ci, _ in hits}
        if len(class_ids) > 1:
            raise LatticeError(
                f"element {idx} matched by {len(class_ids)} primitive classes"
            )
        if len(hits) > 1:
            raise LatticeError(f"element {idx} matched by several binomial classes")
        assignments.append(next(iter(hits)))
    return OrbitDecomposition(tuple(assignments))


def decompose(decomposition, lat, classes):
    try:
        return decomposition(lat, classes)
    except LatticeError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "spec, level, max_codim", FAMILY_CASES + [(PADDED, (4,), 3)]
)
def test_orbit_decomposition_matches_injection_table(spec, level, max_codim, ungated_classes):
    # classes of codim 2 keep the degrees scanned small; where the lattice
    # reaches higher codims, its elements there match no class and every
    # path must raise the same error.  The lattice is checked at its own
    # cutoff and built to codim 2.  The classes come past the normality
    # gate, which PADDED and MIXED_FACTOR fail.
    classes = ungated_classes(spec, 2, cache.CachingBuilder())
    lat = build_lattice(spec, mi(level), max_codim)
    for got in (lat, build_lattice(spec, mi(level), min(2, max_codim))):
        expected = decompose(injection_orbit_decomposition, got, classes)
        assert decompose(pullback_orbit_decomposition, got, classes) == expected
        assert decompose(orbit_decomposition, got, classes) == expected


def assert_meets_match_pullbacks(spec, low, high):
    """Every element's preimage along every injection low -> high, looked up
    by atom names, is the scattered preimage, or None above the cutoff."""
    name_of = arrangement._first_names(low.atom_names)
    position = {x.serialization: idx for idx, x in enumerate(high.elements)}
    for f in enumerate_injections(low.level, high.level):
        for y, atoms in zip(low.elements, low.atoms):
            expected = position.get(pullback(f, spec.r, y).serialization)
            names = [(gi, fim.compose_images(f.images, h)) for gi, h in map(name_of.get, atoms)]
            assert high.meet_of_atoms(names) == expected


@given(two_codim_specs(), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_preimage_by_atom_names_matches_pullback_random(spec, max_codim):
    low = build_lattice(spec, mi((3,)), 3)
    high = build_lattice(spec, mi((4,)), max_codim)
    assert_meets_match_pullbacks(spec, low, high)
    assert_meets_match_pullbacks(spec, low, build_lattice(spec, mi((4,)), 1))


def test_orbit_decomposition_of_non_normal_spec_raises(ungated_classes):
    # the padded generator's primitive classes, past the normality gate,
    # start at degree 3, so no class yields the hyperplanes x_a = x_b at
    # level 4
    with pytest.raises(ValueError, match="not normal"):
        primitive_classes(PADDED, 2)
    classes = ungated_classes(PADDED, 2)
    lat = build_lattice(PADDED, mi((4,)), 2)
    message = "element 0 matched by no primitive class"
    assert decompose(injection_orbit_decomposition, lat, classes) == message
    with pytest.raises(LatticeError, match=re.escape(message)):
        orbit_decomposition(lat, classes)


@pytest.mark.parametrize(
    "spec, i_max",
    [(family_mkr(1, 2, 1), 3), (family_mkr(1, 3, 1), 3), (family_mkr(2, 1, 1), 2), (MIXED_CODIM, 3)],
)
def test_lower_degree_classes_filter_the_top_degree_classes(spec, i_max):
    get = cache.CachingBuilder()
    top = primitive_classes(spec, i_max, get)
    for i in range(1, i_max + 1):
        bound = fim.degree_times(i, spec.cmax)
        assert [c for c in top if c.codim <= i and c.degree.leq(bound)] == list(
            primitive_classes(spec, i, get)
        )
        # the degree bound removes nothing: codim c lies at degree <= c * cmax
        assert [c for c in top if c.codim <= i] == list(primitive_classes(spec, i, get))


# --- work counts --------------------------------------------------------------

KEQUALS = family_mkr(1, 3, 1)


@pytest.fixture(scope="module")
def kequals_lattices():
    """A memo holding the k-equals (k=3) lattices of levels 3..7 at codim 5."""
    get = cache.CachingBuilder()
    for n in range(3, 8):
        get(KEQUALS, mi((n,)), 5)
    return get


def test_act_rref_budget_kequals7_codim5(kequals_lattices, monkeypatch):
    lat = kequals_lattices(KEQUALS, mi((7,)), 5)
    calls = 0
    original = exactlin._rref_rows

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(exactlin, "_rref_rows", counting)
    sigma = lat.act(class_representative(ConjClass(((3, 2, 1, 1),))))
    # the images of the 35 atoms x_a = x_b = x_c are looked up by name; the
    # other 168 elements follow by relabelling their atom masks
    assert len(lat) == 203
    assert calls == 0
    assert sorted(sigma) == list(range(len(lat)))


def test_orbit_of_draws_nothing_from_perm_tuples(braid, monkeypatch):
    lat = build_lattice(braid, mi((5,)), 3)
    monkeypatch.setattr(fim, "perm_tuples", never("perm_tuples"))
    members, stab = arrangement.orbit_of(lat, len(lat) - 1)
    assert len(members) * stab == 120


def test_level_worker_acts_once_per_class_and_level(kequals_lattices, monkeypatch):
    calls = 0
    original = arrangement.IntersectionLattice.act

    def counting(self, g):
        nonlocal calls
        calls += 1
        return original(self, g)

    monkeypatch.setattr(arrangement.IntersectionLattice, "act", counting)
    for n in range(3, 8):
        payload = cli._level_worker((KEQUALS, mi((n,)), 5, True, True, True, kequals_lattices))
        # a character comes as its values in conj_classes order
        identity = conj_classes(mi((n,))).index(ConjClass(((1,) * n,)))
        assert payload["betti"][1:] == [payload["characters"][i][identity] for i in range(1, 6)]
    # one act per non-identity class: p(n) - 1 for n = 3..7; the generator
    # characters read the same context and act on nothing
    assert calls == 2 + 4 + 6 + 10 + 14


def test_readme_freeness_act_budget(tmp_path, monkeypatch):
    calls = 0
    original = arrangement.IntersectionLattice.act

    def counting(self, g):
        nonlocal calls
        calls += 1
        return original(self, g)

    monkeypatch.setattr(arrangement.IntersectionLattice, "act", counting)
    config = tmp_path / "job.json"
    config.write_text(
        '{"family": {"kind": "mkr", "m": 1, "k": 2, "r": 1},'
        ' "levels": {"min": [2], "max": [6]}, "i_max": 3, "outputs": ["freeness"]}',
        encoding="utf-8",
    )
    args = ["run", "--config", str(config), "--cache", str(tmp_path / "c")]
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 0
    # characters: p(n) - 1 non-identity classes at n = 2..6, 1+2+4+6+10 = 23;
    # primitive classes read the recorded orbits, and every class degree
    # 2..6 is a level, whose generator characters read the level's context:
    # neither acts on anything
    assert calls == 23
