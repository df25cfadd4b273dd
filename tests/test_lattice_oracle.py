"""The atom-set lattice against the paths it replaced.

``pairwise_closure`` is the former ``build_lattice``: it closes the frontier
under intersection with every known element and derives the order from
``exactlin.contains``.  It shares no code with the atom-set construction
beyond the exact linear algebra, and stays here as the reference.  The
integer-first meet, the group action, orbits, preimages, images, normality,
normalization and the orbit decomposition have their former paths as
references further down.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrstab import arrangement, cache, cli, exactlin, fim
from arrstab.arrangement import (
    ArrangementSpec,
    LatticeError,
    NormalityReport,
    NormalityViolation,
    OrbitDecomposition,
    build_lattice,
    family_mkr,
    normalize,
    orbit_decomposition,
    primitive_classes,
    verify_normal,
)
from arrstab.exactlin import (
    RationalMatrix,
    Subspace,
    contains,
    intersect,
    kernel_basis,
    subspace_from_constraints,
)
from arrstab.fim import (
    ConjClass,
    MultiIndex,
    ambient_dim,
    binomial_class_key,
    class_representative,
    conj_classes,
    coord_index,
    coordinate_permutation,
    enumerate_injections,
    perm_tuples,
    pullback,
    pushforward,
)

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
    return RationalMatrix.from_rows(rows, ncols)


def dense_preimage(f, r, x):
    composed = dense_matmul(x.constraints, selection_matrix(f, r))
    return subspace_from_constraints(composed.cols, composed.entries)


def dense_kernel(f, r):
    matrix = selection_matrix(f, r)
    return subspace_from_constraints(matrix.cols, matrix.entries)


def dense_span(n, vectors):
    """The subspace of Q^n spanned by the vectors (the former ``span``)."""
    return subspace_from_constraints(
        n, kernel_basis(RationalMatrix.from_rows(vectors, n))
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


def atom_witnesses(spec, n):
    """Each distinct generator preimage with its first (gi, f), by serialization."""
    first = {}
    for gi, (degree, sub) in enumerate(spec.generators):
        for f in enumerate_injections(degree, n):
            pre = dense_preimage(f, spec.r, sub)
            first.setdefault(pre.serialization, (pre, (gi, f)))
    return [first[key] for key in sorted(first)]


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
    atoms = atom_witnesses(spec, n)
    for i, low in enumerate(expected):
        assert lat.containing(i) == tuple(
            j
            for j, high in enumerate(expected)
            if high.codim < low.codim and contains(high, low)
        )
        assert lat.provenance[i] == tuple(
            witness for atom, witness in atoms if contains(atom, low)
        )


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


@pytest.mark.parametrize(
    "spec, level, top, low",
    [
        (MIXED_CODIM, (4,), 4, 1),
        (MIXED_CODIM, (4,), 4, 2),
        (MIXED_FACTOR, (3, 2), 3, 2),
        (family_mkr(1, 3, 1), (5,), 3, 1),  # truncates to the empty lattice
    ],
)
def test_truncation_equals_fresh_build(spec, level, top, low, monkeypatch):
    get = cache.CachingBuilder()
    get(spec, mi(level), top)
    monkeypatch.setattr(cache, "build_lattice", never("build_lattice"))
    cut = get(spec, mi(level), low)
    monkeypatch.undo()
    fresh = build_lattice(spec, mi(level), low)
    assert cut.max_codim == low
    assert [e.serialization for e in cut.elements] == [
        e.serialization for e in fresh.elements
    ]
    assert cut.provenance == fresh.provenance
    assert [cut.containing(i) for i in range(len(cut))] == [
        fresh.containing(i) for i in range(len(fresh))
    ]


def test_rref_budget_braid6_codim3(braid, monkeypatch):
    in_pullback = False
    rref_calls = []  # whether each full reduction ran inside an atom pullback
    meets = []  # (rows, atom rows, cap, result) of each meet
    original_rref = exactlin._rref_rows
    original_meet = arrangement.meet_rows
    original_pullback = arrangement.pullback

    def counting_rref(*args, **kwargs):
        rref_calls.append(in_pullback)
        return original_rref(*args, **kwargs)

    def counting_meet(rows, pivots, other, cols, cap):
        result = original_meet(rows, pivots, other, cols, cap)
        meets.append((rows, other, cap, result))
        return result

    def flagged_pullback(*args, **kwargs):
        nonlocal in_pullback
        in_pullback = True
        try:
            return original_pullback(*args, **kwargs)
        finally:
            in_pullback = False

    monkeypatch.setattr(exactlin, "_rref_rows", counting_rref)
    monkeypatch.setattr(arrangement, "meet_rows", counting_meet)
    monkeypatch.setattr(arrangement, "pullback", flagged_pullback)
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
    assert len(closure) == sum(15 - len(lat.provenance[i]) for i in starts) == 39
    # Each new representative (every orbit but the atoms') is tested, right
    # after the closure meet that found it, against exactly the atoms of
    # lower codim outside the atom sets of its two parts, and gains the ones
    # that pass.
    atom_of = {lat.provenance[a][0]: a for a in range(15)}

    def atoms_of(i):
        return {atom_of[w] for w in lat.provenance[i]}

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
    # The only full reductions: the atom pullbacks, one per injection; the
    # images of the 15 atoms under each of the 2 generators; and one per
    # element reached in an orbit walk, which is every element but the 15
    # atoms and the 5 other representatives.
    assert rref_calls == [True] * 30 + [False] * (2 * 15 + 170 - 15 - 5)


def test_lattice_build_and_load_do_no_containment_tests(braid, tmp_path, monkeypatch):
    monkeypatch.setattr(exactlin, "contains", never("contains"))
    lat = build_lattice(braid, mi((5,)), 3)
    cache.store(tmp_path, braid, lat)
    loaded = cache.load(tmp_path, braid, mi((5,)), 3)
    assert loaded is not None
    assert len(loaded.truncated(2)) == 35


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


def fraction_closure(spec, n, max_codim):
    first = {}
    for gi, (degree, sub) in enumerate(spec.generators):
        for f in enumerate_injections(degree, n):
            composed = dense_matmul(sub.constraints, selection_matrix(f, spec.r))
            pre = fraction_subspace(composed.cols, composed.entries)
            if pre.codim <= max_codim:
                first.setdefault(pre.serialization, (pre, (gi, f)))
    atoms = [first[key] for key in sorted(first)]
    found, masks = {}, {}
    layers = [[] for _ in range(max_codim + 1)]

    def record(x, mask):
        key = x.serialization
        if key not in found:
            found[key] = x
            masks[key] = 0
            layers[x.codim].append(key)
        masks[key] |= mask

    for a, (atom, _) in enumerate(atoms):
        record(atom, 1 << a)
    for layer in layers:
        for key in layer:
            for a, (atom, _) in enumerate(atoms):
                if not masks[key] >> a & 1:
                    meet = concat_intersect(found[key], atom, max_codim)
                    if meet is not None:
                        record(meet, masks[key] | 1 << a)
    provenance = [
        tuple(w for a, (_, w) in enumerate(atoms) if masks[key] >> a & 1)
        for key in found
    ]
    return arrangement.IntersectionLattice(
        n, max_codim, spec.r, list(found.values()), provenance
    )


def assert_matches_fraction_closure(spec, n, max_codim, tmp_path):
    lat = build_lattice(spec, n, max_codim)
    expected = fraction_closure(spec, n, max_codim)
    assert lat.elements == expected.elements
    assert [e.serialization for e in lat.elements] == [
        e.serialization for e in expected.elements
    ]
    assert lat.provenance == expected.provenance
    assert [lat.containing(i) for i in range(len(lat))] == [
        expected.containing(i) for i in range(len(expected))
    ]
    # the cache bytes match, and a file written from the oracle is a hit
    ours = cache.store(tmp_path / "ours", spec, lat)
    theirs = cache.store(tmp_path / "theirs", spec, expected)
    assert ours.read_bytes() == theirs.read_bytes()
    loaded = cache.load(tmp_path / "theirs", spec, n, max_codim)
    assert loaded is not None
    assert loaded.elements == lat.elements
    assert loaded.provenance == lat.provenance


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
def test_integer_closure_matches_fraction_closure(spec, level, max_codim, tmp_path):
    assert_matches_fraction_closure(spec, mi(level), max_codim, tmp_path)


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
def test_integer_closure_matches_fraction_closure_random(
    spec, level, max_codim, tmp_path_factory
):
    assume(level + max_codim <= 6)
    tmp_path = tmp_path_factory.mktemp("fractional")
    assert_matches_fraction_closure(spec, mi((level,)), max_codim, tmp_path)


# --- the orbit closure --------------------------------------------------------
#
# ``atom_closure`` is the former ``build_lattice``: every element below the
# cutoff, orbit representative or not, is met with every atom not containing
# it, and each atom set is completed by the meets that land on it.
# ``scan_order`` is the former order table, a subset scan over all lower
# elements.  They stay here as the reference for the orbit closure and the
# per-atom bitset order.


def atom_closure(spec, n, max_codim):
    first = {}
    for gi, (degree, sub) in enumerate(spec.generators):
        for f in enumerate_injections(degree, n):
            pre = pullback(f, spec.r, sub)
            if pre.codim <= max_codim:
                first.setdefault(pre.serialization, (pre, (gi, f)))
    atoms = [first[key] for key in sorted(first)]
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

    for a, (atom, _) in enumerate(atoms):
        record(atom.constraints.entries, 1 << a)
    for layer in layers[:max_codim]:
        for idx in layer:
            for a, (atom, _) in enumerate(atoms):
                if masks[idx] >> a & 1:
                    continue
                rows = exactlin.meet_rows(
                    rows_of[idx], pivots_of[idx], atom.constraints.entries, dim, max_codim
                )
                if rows is not None:
                    record(rows, masks[idx] | 1 << a)
    elements = [atom for atom, _ in atoms] + [
        Subspace(dim, RationalMatrix(rows, dim)) for rows in rows_of[len(atoms) :]
    ]
    provenance = [
        tuple(witness for a, (_, witness) in enumerate(atoms) if mask >> a & 1)
        for mask in masks
    ]
    return arrangement.IntersectionLattice(n, max_codim, spec.r, elements, provenance)


def scan_order(lat):
    bits, masks = {}, []
    for witness in lat.provenance:
        masks.append(sum(1 << bits.setdefault(atom, len(bits)) for atom in witness))
    return [
        tuple(
            j
            for j in range(i)
            if lat.codims[j] < lat.codims[i] and masks[j] & ~low == 0
        )
        for i, low in enumerate(masks)
    ]


def assert_matches_atom_closure(spec, n, max_codim, tmp_path):
    lat = build_lattice(spec, n, max_codim)
    expected = atom_closure(spec, n, max_codim)
    assert lat.elements == expected.elements
    assert [e.serialization for e in lat.elements] == [
        e.serialization for e in expected.elements
    ]
    assert lat.provenance == expected.provenance
    assert [lat.containing(i) for i in range(len(lat))] == scan_order(expected)
    ours = cache.store(tmp_path / "ours", spec, lat)
    theirs = cache.store(tmp_path / "theirs", spec, expected)
    assert ours.read_bytes() == theirs.read_bytes()
    loaded = cache.load(tmp_path / "theirs", spec, n, max_codim)
    assert [loaded.containing(i) for i in range(len(loaded))] == scan_order(expected)


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
def test_orbit_closure_matches_atom_closure(spec, level, max_codim, size, tmp_path):
    assert_matches_atom_closure(spec, mi(level), max_codim, tmp_path)
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


@given(spec=two_codim_specs(), level=st.integers(3, 4), max_codim=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_orbit_closure_matches_atom_closure_random(spec, level, max_codim, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("orbits")
    assert_matches_atom_closure(spec, mi((level,)), max_codim, tmp_path)


@given(case=product_specs(), max_codim=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_orbit_closure_matches_atom_closure_product(case, max_codim, tmp_path_factory):
    spec, level = case
    tmp_path = tmp_path_factory.mktemp("products")
    assert_matches_atom_closure(spec, level, max_codim, tmp_path)


def test_atom_image_outside_the_atoms_exits_three(braid, tmp_path, capsys, monkeypatch):
    original = arrangement.scatter_rows
    calls = 0

    def one_image_missing(rows, columns, n):
        nonlocal calls
        calls += 1
        return () if calls == 1 else original(rows, columns, n)

    monkeypatch.setattr(arrangement, "scatter_rows", one_image_missing)
    with pytest.raises(LatticeError, match="maps an atom outside the atoms"):
        build_lattice(braid, mi((4,)), 2)
    calls = 0
    config = tmp_path / "job.json"
    config.write_text(
        '{"family": {"kind": "mkr", "m": 1, "k": 2, "r": 1},'
        ' "levels": {"min": [2], "max": [3]}, "i_max": 1, "outputs": ["betti"]}',
        encoding="utf-8",
    )
    argv = ["run", "--config", str(config), "--cache", str(tmp_path / "c"), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 3
    assert "internal error: a group generator maps an atom" in capsys.readouterr().err


def test_orbit_member_indexed_under_another_atom_set_raises(braid, monkeypatch):
    original = arrangement.scatter_rows

    def onto_an_atom(rows, columns, n):
        image = original(rows, columns, n)
        return image[:1] if len(rows) > 1 else image

    monkeypatch.setattr(arrangement, "scatter_rows", onto_an_atom)
    with pytest.raises(LatticeError, match="orbit member indexed under another atom set"):
        build_lattice(braid, mi((4,)), 2)


# --- the group action -------------------------------------------------------
#
# ``rref_image`` is the former ``IntersectionLattice.permute_element`` and
# ``rref_act`` the former ``act``: every element is permuted and reduced on
# its own.  ``walked_orbit`` is the former ``orbit_of``, a walk over the whole
# group.  ``dense_preimage`` is the former preimage.  They stay here as the
# references for the atom permutation, the generator BFS and the column
# scatter that replaced them.


def rref_image(lat, g, idx):
    perm = coordinate_permutation(g, lat.r)
    inverse = [0] * len(perm)
    for src, dst in enumerate(perm):
        inverse[dst] = src
    rows = [
        [row[inverse[b]] for b in range(len(perm))]
        for row in lat.elements[idx].constraints.entries
    ]
    return lat.index_of(subspace_from_constraints(len(perm), rows))


def rref_act(lat, g):
    return tuple(rref_image(lat, g, idx) for idx in range(len(lat)))


def walked_orbit(lat, idx):
    images = [rref_image(lat, g, idx) for g in perm_tuples(lat.level)]
    return tuple(sorted(set(images))), images.count(idx)


def assert_action_matches_oracle(lat):
    for c in conj_classes(lat.level):
        g = class_representative(c)
        assert lat.act(g) == rref_act(lat, g)


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_atom_action_matches_rref_action(spec, level, max_codim, tmp_path):
    lat = build_lattice(spec, mi(level), max_codim)
    assert_action_matches_oracle(lat)
    assert_action_matches_oracle(lat.truncated(max(1, max_codim - 2)))
    cache.store(tmp_path, spec, lat)
    assert_action_matches_oracle(cache.load(tmp_path, spec, mi(level), max_codim))


@given(two_codim_specs(), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_atom_action_matches_rref_action_random(spec, max_codim):
    lat = build_lattice(spec, mi((4,)), max_codim)
    assert_action_matches_oracle(lat)
    assert_action_matches_oracle(lat.truncated(1))


@pytest.mark.parametrize(
    "spec, level, max_codim",
    [
        (family_mkr(1, 2, 1), (4,), 4),
        (family_mkr(1, 2, 2), (4,), 4),
        (family_mkr(1, 3, 1), (5,), 3),
        (family_mkr(2, 1, 1), (2, 3), 3),
        (MIXED_FACTOR, (3, 2), 3),
        (MIXED_CODIM, (3,), 3),
    ],
)
def test_orbit_bfs_matches_group_walk(spec, level, max_codim):
    lat = build_lattice(spec, mi(level), max_codim)
    for idx in range(len(lat)):
        assert arrangement.orbit_of(lat, idx) == walked_orbit(lat, idx)


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
            for e in arrangement._degrees_below(degree)
            for f in enumerate_injections(e, degree)
            if contains(sub, dense_kernel(f, spec.r))
        )
        gens.append((e, dense_direct_image(f, spec.r, sub)))
    return ArrangementSpec(spec.m, spec.r, tuple(gens))


def scan_verify_normal(spec, degrees, get_lattice):
    """The former ``verify_normal``: dense kernel containment, then the
    direct image, in the same loop order."""
    degrees = tuple(degrees)
    lattices = {
        d: get_lattice(spec, d, max(1, ambient_dim(d, spec.r))) for d in degrees
    }
    for c in degrees:
        for d in degrees:
            if not c.leq(d):
                continue
            for f in enumerate_injections(c, d):
                ker = dense_kernel(f, spec.r)
                for x in lattices[d].elements:
                    if contains(x, ker):
                        image = dense_direct_image(f, spec.r, x)
                        if image not in lattices[c]:
                            violation = NormalityViolation(c, d, f, x, image)
                            return NormalityReport(False, degrees, violation)
    return NormalityReport(True, degrees)


def assert_normality_matches_scan(spec, top, get_lattice):
    assert normalize(spec) == scan_normalize(spec)
    degrees = arrangement._degrees_below(top)
    report = verify_normal(spec, degrees, get_lattice)
    assert report == scan_verify_normal(spec, degrees, get_lattice)
    return report


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
]


@pytest.mark.parametrize(
    "spec", [case[0] for case in FAMILY_CASES] + NON_NORMAL[2:]
)
def test_normality_matches_dense_scan(spec, get_lattice):
    # every degree up to one point more than the generators in each factor
    top = mi(min(c + 1, 3) for c in spec.cmax)
    report = assert_normality_matches_scan(spec, top, get_lattice)
    assert report.normal == (spec not in NON_NORMAL)


@st.composite
def point_skipping_specs(draw):
    m = draw(st.integers(1, 2))
    r = draw(st.integers(1, 2))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        degree = mi(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
        assume(1 <= degree.total <= (3 if r == 1 else 2))
        sub = subspace_from_constraints(
            r * degree.total, draw(point_skipping_rows(degree, r))
        )
        assume(sub.codim >= 1)
        gens.append((degree, sub))
    return ArrangementSpec(m, r, tuple(gens))


@given(point_skipping_specs())
@settings(max_examples=100, deadline=None)
def test_normality_matches_dense_scan_random(spec):
    assert_normality_matches_scan(spec, spec.cmax, cache.CachingBuilder())


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


def decompose(decomposition, lat, classes):
    try:
        return decomposition(lat, classes)
    except LatticeError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "spec, level, max_codim", FAMILY_CASES + [(PADDED, (4,), 3)]
)
def test_orbit_decomposition_matches_injection_table(spec, level, max_codim):
    # classes of codim 2 keep the degrees scanned small; where the lattice
    # reaches higher codims, its elements there match no class and both
    # paths must raise the same error
    get = cache.CachingBuilder()
    classes = primitive_classes(spec, 2, get)
    for codim in sorted({min(2, max_codim), max_codim}):
        lat = get(spec, mi(level), codim)
        assert decompose(orbit_decomposition, lat, classes) == decompose(
            injection_orbit_decomposition, lat, classes
        )


def test_orbit_decomposition_of_non_normal_spec_raises():
    # the padded generator's primitive classes start at degree 3, so no
    # class yields the hyperplanes x_a = x_b at level 4
    classes = primitive_classes(PADDED, 2)
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


# --- work counts --------------------------------------------------------------

KEQUALS = family_mkr(1, 3, 1)


@pytest.fixture(scope="module")
def kequals_cache(tmp_path_factory):
    """A cache holding the k-equals (k=3) lattices of levels 3..7 at codim 5."""
    path = tmp_path_factory.mktemp("kequals")
    get = cache.CachingBuilder(path)
    for n in range(3, 8):
        get(KEQUALS, mi((n,)), 5)
    return path


def test_act_rref_budget_kequals7_codim5(kequals_cache, monkeypatch):
    lat = cache.load(kequals_cache, KEQUALS, mi((7,)), 5)
    calls = 0
    original = exactlin._rref_rows

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(exactlin, "_rref_rows", counting)
    sigma = lat.act(class_representative(ConjClass(((3, 2, 1, 1),))))
    # 35 atoms x_a = x_b = x_c, one reduction each; the other 168 elements
    # follow by relabelling their atom masks
    assert len(lat) == 203
    assert 0 < calls <= 35
    assert sorted(sigma) == list(range(len(lat)))


def test_orbit_of_draws_nothing_from_perm_tuples(braid, monkeypatch):
    lat = build_lattice(braid, mi((5,)), 3)
    monkeypatch.setattr(fim, "perm_tuples", never("perm_tuples"))
    members, stab = arrangement.orbit_of(lat, len(lat) - 1)
    assert len(members) * stab == 120


def test_level_worker_acts_once_per_class_and_level(kequals_cache, monkeypatch):
    calls = 0
    original = arrangement.IntersectionLattice.act

    def counting(self, g):
        nonlocal calls
        calls += 1
        return original(self, g)

    monkeypatch.setattr(arrangement.IntersectionLattice, "act", counting)
    for n in range(3, 8):
        payload = cli._level_worker(
            (KEQUALS, mi((n,)), 5, True, True, cache.CachingBuilder(str(kequals_cache)))
        )
        assert payload["betti"][1:] == [
            payload["characters"][i].identity_value for i in range(1, 6)
        ]
    # one act per non-identity class: p(n) - 1 for n = 3..7
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
    # primitive classes once, one generator set per degree 2..6: 1+2+2+2+2 = 9;
    # freeness at i = 1, 2, 3: one context per class degree e, acting once
    # per non-identity class (the generators are class representatives),
    # p(e) - 1 in all: 1, then 1+2+4, then 1+2+4+6+10
    assert calls == 23 + 9 + 31
