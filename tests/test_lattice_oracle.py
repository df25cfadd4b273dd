"""The atom-set lattice construction against the pairwise closure it replaced.

``pairwise_closure`` is the former ``build_lattice``: it closes the frontier
under intersection with every known element and derives the order from
``exactlin.contains``.  It shares no code with the atom-set construction
beyond the exact linear algebra, and stays here as the reference.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrstab import arrangement, cache, exactlin
from arrstab.arrangement import ArrangementSpec, build_lattice, family_mkr
from arrstab.exactlin import contains, intersect, preimage, subspace_from_constraints
from arrstab.fim import MultiIndex, enumerate_injections, induced_linear_map

mi = MultiIndex


def pairwise_closure(spec, n, max_codim):
    """All elements of codim <= max_codim, sorted by (codim, serialization)."""
    known = {}
    for degree, sub in spec.generators:
        for f in enumerate_injections(degree, n):
            pre = preimage(induced_linear_map(f, spec.r), sub)
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
            pre = preimage(induced_linear_map(f, spec.r), sub)
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


@pytest.mark.parametrize(
    "spec, level, max_codim",
    [
        (family_mkr(1, 2, 1), (5,), 4),  # braid
        (family_mkr(1, 2, 2), (4,), 6),  # conf r=2
        (family_mkr(1, 3, 1), (6,), 4),  # k-equals
        (family_mkr(2, 1, 1), (3, 3), 3),  # rational maps
        (PADDED, (5,), 4),
        (MIXED_FACTOR, (3, 2), 3),
        (MIXED_CODIM, (4,), 4),
    ],
)
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
    calls = 0
    original = exactlin._rref_rows

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(exactlin, "_rref_rows", counting)
    monkeypatch.setattr(arrangement, "_rref_rows", counting)
    lat = build_lattice(braid, mi((6,)), 3)
    # |L| = 170 set partitions of 6 points with at most 3 merges, 15 atoms
    # x_i = x_j, and 30 injections [2] -> [6]
    assert len(lat) == 170
    assert calls <= 170 * 15 + 30


def test_lattice_build_and_load_do_no_containment_tests(braid, tmp_path, monkeypatch):
    monkeypatch.setattr(exactlin, "contains", never("contains"))
    monkeypatch.setattr(arrangement, "contains", never("contains"))
    lat = build_lattice(braid, mi((5,)), 3)
    cache.store(tmp_path, braid, lat)
    loaded = cache.load(tmp_path, braid, mi((5,)), 3)
    assert loaded is not None
    assert len(loaded.truncated(2)) == 35
