import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrstab.arrangement import (
    ArrangementSpec,
    IntersectionLattice,
    LatticeError,
    _group_generators,
    build_lattice,
    family_mkr,
)
from arrstab.checks import (
    _degrees_below,
    is_primitive,
    normalize,
    orbit_decomposition,
    primitive_classes,
    verify_downward_stability,
    verify_normal,
)
from arrstab.exactlin import contains, subspace_from_constraints
from arrstab.fim import (
    Injection,
    MultiIndex,
    PermTuple,
    ambient_dim,
    binomial_set_size,
    degree_times,
    enumerate_injections,
    group_order,
    pullback,
)
from test_exactlin import intersect

mi = MultiIndex


def set_partitions(items):
    """All set partitions, built independently of the lattice machinery."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def partition_subspace(blocks, n):
    rows = []
    for block in blocks:
        anchor = block[0]
        for other in block[1:]:
            row = [0] * n
            row[anchor] = 1
            row[other] = -1
            rows.append(row)
    return subspace_from_constraints(n, rows)


def test_family_mkr_braid_generator(braid):
    degree, sub = braid.generators[0]
    assert degree == mi((2,))
    assert sub == subspace_from_constraints(2, [[1, -1]])


def test_family_mkr_two_factors():
    spec = family_mkr(2, 1, 1)
    degree, sub = spec.generators[0]
    assert degree == mi((1, 1))
    assert sub == subspace_from_constraints(2, [[1, -1]])


def test_family_mkr_k_equals():
    spec = family_mkr(1, 3, 1)
    degree, sub = spec.generators[0]
    assert degree == mi((3,))
    assert sub.codim == 2


def test_family_mkr_codim_formula():
    spec = family_mkr(2, 3, 2)
    _, sub = spec.generators[0]
    assert sub.codim == 2 * (2 * 3 - 1)


def test_family_mkr_validation():
    with pytest.raises(ValueError):
        family_mkr(1, 0, 1)


def test_braid_lattice_counts(braid, get_lattice):
    assert len(get_lattice(braid, mi((3,)), 3)) == 4
    assert len(get_lattice(braid, mi((4,)), 4)) == 14


def test_braid_lattice_empty_below_generator(braid):
    assert len(build_lattice(braid, mi((1,)), 1)) == 0


def test_braid_lattice_matches_partition_oracle(braid, get_lattice):
    for n in (3, 4):
        expected = {
            partition_subspace(blocks, n).serialization
            for blocks in set_partitions(range(n))
            if len(blocks) < n
        }
        lat = get_lattice(braid, mi((n,)), n)
        assert {e.serialization for e in lat.elements} == expected


def test_lattice_saturation_random_pairs(braid, get_lattice):
    lat = get_lattice(braid, mi((5,)), 5)
    rng = random.Random(7)
    stored = {e.serialization for e in lat.elements}
    for _ in range(150):
        a, b = rng.choice(lat.elements), rng.choice(lat.elements)
        meet = intersect(a, b)
        assert meet.codim > lat.max_codim or meet.serialization in stored


def test_lattice_truncation_saturation(braid, get_lattice):
    lat = get_lattice(braid, mi((5,)), 2)
    stored = {e.serialization for e in lat.elements}
    for a, b in itertools.combinations(lat.elements, 2):
        meet = intersect(a, b)
        assert meet.codim > 2 or meet.serialization in stored


def test_lower_interval_of_diagonal(braid, get_lattice):
    lat = get_lattice(braid, mi((3,)), 3)
    diag = partition_subspace([[0, 1, 2]], 3)
    poset = lat.lower_interval(lat.index_of(diag))
    assert poset.size == 3
    assert not poset.less  # three hyperplanes form an antichain


def test_lower_interval_of_hyperplane_is_empty(braid, get_lattice):
    lat = get_lattice(braid, mi((3,)), 3)
    hyper = partition_subspace([[0, 1]], 3)
    assert lat.lower_interval(lat.index_of(hyper)).size == 0


def test_lower_interval_in_pi4(braid, get_lattice):
    lat = get_lattice(braid, mi((4,)), 4)
    x = partition_subspace([[0, 1, 2]], 4)
    poset = lat.lower_interval(lat.index_of(x))
    assert poset.size == 3
    assert all(r == 1 for r in poset.ranks)


def test_act_three_cycle(braid, get_lattice):
    lat = get_lattice(braid, mi((3,)), 3)
    sigma = lat.act(PermTuple(((1, 2, 0),)))
    diag_idx = lat.index_of(partition_subspace([[0, 1, 2]], 3))
    assert sigma[diag_idx] == diag_idx
    hyper_indices = [i for i in range(len(lat)) if lat.codims[i] == 1]
    images = {sigma[i] for i in hyper_indices}
    assert images == set(hyper_indices)
    assert all(sigma[i] != i for i in hyper_indices)


def test_act_identity(braid, get_lattice):
    lat = get_lattice(braid, mi((3,)), 3)
    assert lat.act(PermTuple.identity(mi((3,)))) == tuple(range(len(lat)))


def test_act_transposition(braid, get_lattice):
    lat = get_lattice(braid, mi((3,)), 3)
    sigma = lat.act(PermTuple(((1, 0, 2),)))
    fixed = {i for i in range(len(lat)) if sigma[i] == i}
    z12 = lat.index_of(partition_subspace([[0, 1]], 3))
    diag = lat.index_of(partition_subspace([[0, 1, 2]], 3))
    assert fixed == {z12, diag}


@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
@settings(max_examples=100, deadline=None)
def test_act_is_homomorphism_and_preserves_structure(p, q):
    braid = family_mkr(1, 2, 1)
    lat = build_lattice(braid, mi((4,)), 4)
    g, h = PermTuple((tuple(p),)), PermTuple((tuple(q),))
    sg, sh = lat.act(g), lat.act(h)
    sgh = lat.act(g.compose(h))
    assert sgh == tuple(sg[sh[i]] for i in range(len(lat)))
    for i in range(len(lat)):
        assert lat.codims[sg[i]] == lat.codims[i]
        for j in lat.containing(i):
            assert sg[j] in lat.containing(sg[i])


def test_is_primitive_diagonal_generators():
    for m, k, r in [(1, 2, 1), (1, 3, 1), (2, 1, 1), (2, 2, 2)]:
        spec = family_mkr(m, k, r)
        degree, sub = spec.generators[0]
        assert is_primitive(spec, degree, sub)


def test_is_primitive_padded_subspace_fails(braid):
    sub = subspace_from_constraints(3, [[1, -1, 0]])
    assert not is_primitive(braid, mi((3,)), sub)


def test_is_primitive_full_diagonal(braid):
    diag = partition_subspace([[0, 1, 2]], 3)
    assert is_primitive(braid, mi((3,)), diag)


def test_is_primitive_matches_kernel_enumeration(braid):
    # oracle: quantify over every smaller degree and every injection; the
    # kernel of the induced map is the preimage of the zero subspace
    def oracle(spec, degree, sub):
        for smaller in itertools.product(*(range(d + 1) for d in degree)):
            c = mi(smaller)
            if c == degree:
                continue
            n = ambient_dim(c, spec.r)
            zero = subspace_from_constraints(
                n, [[int(i == j) for j in range(n)] for i in range(n)]
            )
            for f in enumerate_injections(c, degree):
                if contains(sub, pullback(f, spec.r, zero)):
                    return False
        return True

    lat = build_lattice(braid, mi((4,)), 4)
    for element in lat.elements:
        assert is_primitive(braid, mi((4,)), element) == oracle(braid, mi((4,)), element)


def test_verify_normal_braid(braid):
    degrees = [mi((2,)), mi((3,)), mi((4,))]
    assert verify_normal(braid, degrees).normal


def test_verify_normal_violation():
    bad = ArrangementSpec(
        1, 1, ((mi((3,)), subspace_from_constraints(3, [[1, -1, 0]])),)
    )
    report = verify_normal(bad, [mi((2,)), mi((3,))])
    assert not report.normal
    assert report.violation.source == mi((2,))
    assert report.violation.target == mi((3,))


def test_verify_normal_empty_spec():
    empty = ArrangementSpec(1, 1, ())
    assert verify_normal(empty, [mi((2,)), mi((3,))]).normal


def test_normalize_padded_generator():
    bad = ArrangementSpec(
        1, 1, ((mi((3,)), subspace_from_constraints(3, [[1, -1, 0]])),)
    )
    fixed = normalize(bad)
    assert fixed.generators == (
        (mi((2,)), subspace_from_constraints(2, [[1, -1]])),
    )


def test_normalize_primitive_spec_unchanged(braid):
    assert normalize(braid) == braid


def test_normalize_mixed_factor_generator():
    spec = ArrangementSpec(
        2, 1, ((mi((2, 1)), subspace_from_constraints(3, [[1, 0, -1]])),)
    )
    fixed = normalize(spec)
    assert fixed.generators == (
        (mi((1, 1)), subspace_from_constraints(2, [[1, -1]])),
    )


def test_normalize_idempotent_and_normal():
    bad = ArrangementSpec(
        1, 1, ((mi((3,)), subspace_from_constraints(3, [[1, -1, 0]])),)
    )
    fixed = normalize(bad)
    assert normalize(fixed) == fixed
    top = fixed.cmax
    degrees = [mi((a,)) for a in range(top[0] + 2)]
    assert verify_normal(fixed, degrees).normal


def test_normalized_lattices_agree_above_generators():
    bad = ArrangementSpec(
        1, 1, ((mi((3,)), subspace_from_constraints(3, [[1, -1, 0]])),)
    )
    fixed = normalize(bad)
    for n in (3, 4, 5):
        a = build_lattice(bad, mi((n,)), n)
        b = build_lattice(fixed, mi((n,)), n)
        assert [e.serialization for e in a.elements] == [
            e.serialization for e in b.elements
        ]
    assert len(build_lattice(bad, mi((2,)), 2)) == 0
    assert len(build_lattice(fixed, mi((2,)), 2)) == 1


def test_primitive_classes_braid(braid, get_lattice):
    classes = primitive_classes(braid, 2, get_lattice)
    summary = [(c.degree, c.codim) for c in classes]
    assert summary == [(mi((2,)), 1), (mi((3,)), 2), (mi((4,)), 2)]
    assert [c.stabilizer_order for c in classes] == [2, 6, 8]


def test_primitive_classes_codim_one(braid, get_lattice):
    classes = primitive_classes(braid, 1, get_lattice)
    assert [(c.degree, c.codim) for c in classes] == [(mi((2,)), 1)]


def test_primitive_classes_two_factor(get_lattice):
    spec = family_mkr(2, 1, 1)
    classes = primitive_classes(spec, 1, get_lattice)
    assert [(c.degree, c.codim) for c in classes] == [(mi((1, 1)), 1)]


@pytest.mark.parametrize(
    "spec, max_codim",
    [(family_mkr(1, 2, 1), 3), (family_mkr(1, 3, 1), 2), (family_mkr(2, 1, 1), 2)],
)
def test_primitive_classes_are_the_whole_primitive_orbits(spec, max_codim, get_lattice):
    # the point action preserves primitivity, so testing representatives
    # only must still cover every primitive element, each orbit whole
    classes = primitive_classes(spec, max_codim, get_lattice)
    for e in _degrees_below(degree_times(max_codim, spec.cmax)):
        if not any(deg.leq(e) for deg, _ in spec.generators):
            continue
        lat = get_lattice(spec, e, max_codim)
        ours = [cls for cls in classes if cls.degree == e]
        members = [lat.index_of(x) for cls in ours for x in cls.orbit]
        assert sorted(members) == [
            idx for idx, x in enumerate(lat.elements) if is_primitive(spec, e, x)
        ]
        for cls in ours:
            orbit = {lat.index_of(x) for x in cls.orbit}
            assert cls.stabilizer_order * len(orbit) == group_order(e)
            assert cls.subspace == lat.elements[min(orbit)]
            for g in _group_generators(e):
                sigma = lat.act(g)
                assert {sigma[idx] for idx in orbit} == orbit


def test_non_normal_spec_yields_no_codim_one_classes():
    bad = ArrangementSpec(
        1, 1, ((mi((3,)), subspace_from_constraints(3, [[1, -1, 0]])),)
    )
    # passes the generator-degree normality precondition, but its hyperplanes
    # all first appear padded, so no primitive class exists and the orbit
    # decomposition flags the non-normality
    classes = primitive_classes(bad, 1)
    assert classes == ()
    lat = build_lattice(bad, mi((3,)), 1)
    with pytest.raises(LatticeError):
        orbit_decomposition(lat, classes)


def test_orbit_decomposition_braid3(braid, get_lattice):
    classes = primitive_classes(braid, 3, get_lattice)
    lat = get_lattice(braid, mi((3,)), 3)
    decomposition = orbit_decomposition(lat, classes)
    sizes = decomposition.class_sizes()
    by_degree = {classes[ci].degree: count for ci, count in sizes.items()}
    assert by_degree == {mi((2,)): 3, mi((3,)): 1}
    blocks = decomposition.blocks()
    two_idx = next(ci for ci, c in enumerate(classes) if c.degree == mi((2,)))
    assert len(blocks[two_idx]) == 3  # one binomial class per 2-subset


def test_orbit_decomposition_braid4(braid, get_lattice):
    classes = primitive_classes(braid, 2, get_lattice)
    lat = get_lattice(braid, mi((4,)), 2)
    decomposition = orbit_decomposition(lat, classes)
    sizes = decomposition.class_sizes()
    by_degree = {classes[ci].degree: count for ci, count in sizes.items()}
    assert by_degree == {mi((2,)): 6, mi((3,)): 4, mi((4,)): 3}
    assert sum(sizes.values()) == 13


def test_orbit_blocks_are_uniform(braid, get_lattice):
    classes = primitive_classes(braid, 2, get_lattice)
    for n in (4, 5):
        lat = get_lattice(braid, mi((n,)), 2)
        blocks = orbit_decomposition(lat, classes).blocks()
        for ci, keyed in blocks.items():
            assert len(keyed) == binomial_set_size(classes[ci].degree, mi((n,)))
            sizes = {len(v) for v in keyed.values()}
            assert len(sizes) == 1


def test_orbit_decomposition_incomplete_classes_fails(braid, get_lattice):
    classes = primitive_classes(braid, 1, get_lattice)
    lat = get_lattice(braid, mi((3,)), 3)
    with pytest.raises(LatticeError):
        orbit_decomposition(lat, classes)


def test_orbit_decomposition_empty_lattice(braid, get_lattice):
    lat = build_lattice(braid, mi((1,)), 1)
    assert orbit_decomposition(lat, ()).assignments == ()


def test_downward_stability_braid(braid, get_lattice):
    report = verify_downward_stability(braid, mi((3,)), mi((4,)), 3, get_lattice)
    assert report.stable
    report2 = verify_downward_stability(braid, mi((2,)), mi((4,)), 2, get_lattice)
    assert report2.stable


def test_downward_stability_two_factor(get_lattice):
    spec = family_mkr(2, 1, 1)
    report = verify_downward_stability(spec, mi((2, 2)), mi((3, 3)), 2, get_lattice)
    assert report.stable


def test_redundant_generator_leaves_lattice_unchanged(braid, get_lattice):
    combo = ArrangementSpec(
        1,
        1,
        (
            braid.generators[0],
            (mi((3,)), subspace_from_constraints(3, [[1, -1, 0], [0, 1, -1]])),
        ),
    )
    for n in (3, 4):
        a = get_lattice(braid, mi((n,)), n)
        b = build_lattice(combo, mi((n,)), n)
        assert [e.serialization for e in a.elements] == [
            e.serialization for e in b.elements
        ]


def test_downward_stability_identity(braid, get_lattice):
    report = verify_downward_stability(braid, mi((4,)), mi((4,)), 3, get_lattice)
    assert report.stable


def test_provenance_witnesses_reproduce_elements(braid, get_lattice):
    # every name of an atom pulls a generator back onto it, and every element
    # is the intersection of its atoms
    lat = get_lattice(braid, mi((4,)), 4)
    for (gi, images), a in lat.atom_names.items():
        f = Injection(images, lat.level)
        assert pullback(f, braid.r, braid.generators[gi][1]) == lat.elements[a]
    for idx, atoms in enumerate(lat.atoms):
        parts = [lat.elements[a] for a in atoms]
        acc = parts[0]
        for p in parts[1:]:
            acc = intersect(acc, p)
        assert acc == lat.elements[idx]


def rebuilt(lat, atoms, names):
    labels = [orbit[0] for orbit in lat.orbits]
    return IntersectionLattice(lat.level, lat.max_codim, lat.r, lat.elements, atoms, labels, names)


# braid n=4 at codim 4: 14 elements, the atoms 0..5 and the top element 13
@pytest.mark.parametrize(
    "index",
    [-1, -14, 14, 6],
    ids=["negative-to-top", "negative-to-atom", "past-the-end", "unnamed"],
)
def test_lattice_rejects_an_atom_index_outside_the_named_atoms(braid, index):
    lat = build_lattice(braid, mi((4,)), 4)
    assert rebuilt(lat, lat.atoms, lat.atom_names).atoms == lat.atoms
    atoms = list(lat.atoms)
    atoms[13] = (index,) + atoms[13][1:]
    with pytest.raises(ValueError):
        rebuilt(lat, atoms, lat.atom_names)


@pytest.mark.parametrize("value", [-14, 14])
def test_lattice_rejects_an_atom_name_outside_the_elements(braid, value):
    # atom 0 renamed to ``value`` in the names and the atom sets alike;
    # -14 would wrap back to element 0
    lat = build_lattice(braid, mi((4,)), 4)
    names = {name: value if a == 0 else a for name, a in lat.atom_names.items()}
    atoms = [tuple(value if a == 0 else a for a in own) for own in lat.atoms]
    with pytest.raises(ValueError):
        rebuilt(lat, atoms, names)


def test_lattice_rejects_a_name_at_an_element_outside_its_atom_set(braid):
    lat = build_lattice(braid, mi((4,)), 4)
    assert 6 not in lat.atoms[6]
    with pytest.raises(ValueError, match="atom names do not match the atoms"):
        rebuilt(lat, lat.atoms, {**lat.atom_names, (1, ((0, 1),)): 6})


def test_spec_serialization_stable(braid):
    assert braid.serialize() == "m=1;r=1;gens=2@2:1,-1"
