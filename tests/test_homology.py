import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrstab.arrangement import build_lattice, family_mkr
from arrstab.fim import MultiIndex, PermTuple, class_representative, conj_classes
from arrstab import homology
from arrstab.homology import (
    LatticeHomology,
    order_complex,
    reduced_betti,
)
from test_fim import compose, inverse

mi = MultiIndex


# A poset on range(n) is given as its ascending successor lists, the form
# ``order_complex`` reads.


def antichain(n):
    return [[] for _ in range(n)]


def chain_poset(n):
    return [list(range(i + 1, n)) for i in range(n)]


def subset_poset():
    """Proper nonempty subsets of {1,2,3} ordered by inclusion."""
    subsets = [frozenset(s) for k in (1, 2) for s in itertools.combinations((1, 2, 3), k)]
    return [[b for b, y in enumerate(subsets) if x < y] for x in subsets]


def lattice_successors(lat):
    """The whole lattice as successor lists: b follows a when a strictly
    contains b."""
    succ = [[] for _ in range(len(lat))]
    for b in range(len(lat)):
        for a in lat.containing(b):
            succ[a].append(b)
    return succ


def test_order_complex_antichain():
    oc = order_complex(antichain(3))
    assert len(oc.chains) == 1
    assert len(oc.chains[0]) == 3


def test_order_complex_chain():
    oc = order_complex(chain_poset(2))
    assert len(oc.chains[0]) == 2
    assert oc.chains[1] == ((0, 1),)


def test_order_complex_hexagon():
    oc = order_complex(subset_poset())
    assert len(oc.chains[0]) == 6
    assert len(oc.chains[1]) == 6


def test_reduced_betti_empty_complex():
    oc = order_complex(antichain(0))
    assert reduced_betti(oc, -1) == 1
    assert reduced_betti(oc, 0) == 0
    assert reduced_betti(oc, -2) == 0


def test_reduced_betti_antichain():
    oc = order_complex(antichain(3))
    assert reduced_betti(oc, 0) == 2
    assert reduced_betti(oc, -1) == 0


def test_reduced_betti_hexagon_is_circle():
    oc = order_complex(subset_poset())
    assert reduced_betti(oc, 0) == 0
    assert reduced_betti(oc, 1) == 1


def test_reduced_betti_cone_is_trivial():
    oc = order_complex(chain_poset(3))
    assert all(reduced_betti(oc, d) == 0 for d in range(-1, 4))


def whitney_homology_dims(lat):
    """Per codim c, the total local homology sum_{codim x = c} H~_{c-2}(L^{<x})."""
    ctx = LatticeHomology(lat)
    out = {}
    for idx, codim in enumerate(lat.codims):
        out[codim] = out.get(codim, 0) + ctx.local_betti(idx, codim - 2)
    return out


def test_whitney_braid3(braid, get_lattice):
    lat = get_lattice(braid, mi((3,)), 3)
    assert whitney_homology_dims(lat) == {1: 3, 2: 2}


def test_whitney_braid4(braid, get_lattice):
    lat = get_lattice(braid, mi((4,)), 4)
    assert whitney_homology_dims(lat) == {1: 6, 2: 11, 3: 6}


def test_whitney_empty_poset(braid):
    # no injection from the generator degree 2 into level 1
    assert whitney_homology_dims(build_lattice(braid, mi((1,)), 1)) == {}


def test_gm_betti_braid3(braid, get_lattice):
    lat = get_lattice(braid, mi((3,)), 3)
    assert LatticeHomology(lat).betti_report(1).total == 3
    assert LatticeHomology(lat).betti_report(2).total == 2


def test_gm_betti_two_factor(get_lattice):
    spec = family_mkr(2, 1, 1)
    lat = get_lattice(spec, mi((1, 1)), 1)
    assert LatticeHomology(lat).betti_report(1).total == 1


def test_gm_betti_k_equals(get_lattice):
    spec = family_mkr(1, 3, 1)
    lat = get_lattice(spec, mi((4,)), 4)
    assert LatticeHomology(lat).betti_report(3).total == 4
    assert LatticeHomology(lat).betti_report(4).total == 3


def test_gm_betti_requires_enough_codim(braid, get_lattice):
    lat = get_lattice(braid, mi((4,)), 2)
    with pytest.raises(ValueError):
        LatticeHomology(lat).betti_report(3)
    with pytest.raises(ValueError):
        LatticeHomology(lat).betti_report(0)


def test_gm_report_contributions_consistent(braid, get_lattice):
    lat = get_lattice(braid, mi((4,)), 4)
    for i in (1, 2, 3):
        report = LatticeHomology(lat).betti_report(i)
        assert report.total == sum(c[3] for c in report.contributions)
        lo, hi = (i + 1) // 2, i
        for _, codim, degree, betti in report.contributions:
            assert lo <= codim <= hi
            assert degree == 2 * codim - i - 2
            assert betti > 0


def test_gm_bounds_hold_without_filter(braid, get_lattice):
    # recompute over every element, with no codimension window; nothing
    # extra appears
    for n, i in [(3, 1), (3, 2), (4, 2), (4, 3)]:
        lat = get_lattice(braid, mi((n,)), n)
        ctx = LatticeHomology(lat)
        filtered = ctx.betti_report(i)
        unfiltered = []
        for idx, codim in enumerate(lat.codims):
            d = 2 * codim - i - 2
            betti = ctx.local_betti(idx, d)
            if betti:
                unfiltered.append((idx, codim, d, betti))
        assert filtered.total == sum(c[3] for c in unfiltered)
        assert filtered.contributions == tuple(unfiltered)


def test_equivariant_trace_identity_is_betti(braid, get_lattice):
    for n in (3, 4, 5):
        lat = get_lattice(braid, mi((n,)), n)
        for i in range(1, n):
            trace = LatticeHomology(lat).trace(PermTuple.identity(mi((n,))), i)
            assert trace == LatticeHomology(lat).betti_report(i).total


def test_equivariant_trace_three_cycle(braid, get_lattice):
    lat = get_lattice(braid, mi((3,)), 3)
    assert LatticeHomology(lat).trace(PermTuple(((1, 2, 0),)), 2) == -1


def test_equivariant_trace_transposition(braid, get_lattice):
    lat = get_lattice(braid, mi((3,)), 3)
    assert LatticeHomology(lat).trace(PermTuple(((1, 0, 2),)), 2) == 0


@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
@settings(max_examples=100, deadline=None)
def test_trace_is_class_function_s4(p, h):
    braid = family_mkr(1, 2, 1)
    lat = build_lattice(braid, mi((4,)), 4)
    ctx = LatticeHomology(lat)
    g = PermTuple((tuple(p),))
    conj = PermTuple((tuple(h),))
    conjugated = compose(compose(conj, g), inverse(conj))
    for i in (1, 2, 3):
        assert ctx.trace(g, i) == ctx.trace(conjugated, i)


def test_trace_is_class_function_s5(braid, get_lattice):
    lat = get_lattice(braid, mi((5,)), 5)
    ctx = LatticeHomology(lat)
    rng = random.Random(11)
    perms = [tuple(rng.sample(range(5), 5)) for _ in range(6)]
    for p in perms:
        g = PermTuple((p,))
        h = PermTuple((tuple(rng.sample(range(5), 5)),))
        conjugated = compose(compose(h, g), inverse(h))
        for i in (2, 3):
            assert ctx.trace(g, i) == ctx.trace(conjugated, i)


def test_boundary_squares_to_zero(braid, get_lattice):
    lat = get_lattice(braid, mi((4,)), 4)
    ctx = LatticeHomology(lat)
    composed = 0
    for idx in range(len(lat)):
        _, oc = ctx.interval(idx)
        for d in range(0, oc.dimension):
            # degree 0 maps onto the augmentation, a row of ones
            if d:
                lower = homology._boundary_columns(oc, d, set())
            else:
                lower = [{0: 1}] * oc.chain_count(0)
            for column in homology._boundary_columns(oc, d + 1, set()):
                image = {}
                for row, entry in column.items():
                    for face, value in lower[row].items():
                        image[face] = image.get(face, 0) + entry * value
                assert not any(image.values())
                composed += 1
    assert composed


def test_euler_characteristic_consistency(braid, get_lattice):
    lat = get_lattice(braid, mi((4,)), 4)
    ctx = LatticeHomology(lat)
    complexes = [order_complex(lattice_successors(lat))] + [
        ctx.interval(i)[1] for i in range(len(lat))
    ]
    for oc in complexes:
        chain_euler = sum(
            (-1) ** d * oc.chain_count(d) for d in range(-1, oc.dimension + 1)
        )
        betti_euler = sum(
            (-1) ** d * reduced_betti(oc, d) for d in range(-1, oc.dimension + 1)
        )
        assert chain_euler == betti_euler


def test_character_values_against_fixed_pair_count(braid, get_lattice):
    # independent oracle for H^1: fixed 2-subsets of the permutation
    lat = get_lattice(braid, mi((4,)), 4)
    ctx = LatticeHomology(lat)
    for c in conj_classes(mi((4,))):
        g = class_representative(c)
        perm = g.perms[0]
        fixed_pairs = sum(
            1
            for a, b in itertools.combinations(range(4), 2)
            if {perm[a], perm[b]} == {a, b}
        )
        assert ctx.trace(g, 1) == fixed_pairs


def test_homology_basis_count_matches_rank_formula(braid, get_lattice):
    # with g the identity every chain is its own orbit, so the orbit
    # complex's F(1), and the trace, must agree with the rank-nullity Betti
    # computation element by element
    lat = get_lattice(braid, mi((4,)), 4)
    ctx = LatticeHomology(lat)
    for idx in range(len(lat)):
        members, cx = ctx.interval(idx)
        identity = list(range(len(members)))
        for d in range(-1, 3):
            betti = ctx.local_betti(idx, d)
            assert homology._invariant_betti(cx, identity, d) == betti
            assert homology._orbit_trace(cx, identity, d) == betti


def test_hall_check_runs_once_per_ranked_orbit(get_lattice):
    # every member of an orbit is checked when the orbit is ranked, so later
    # queries read the stored vector and the identity's chain sums no more
    lat = get_lattice(family_mkr(1, 3, 1), mi((6,)), 4)
    ctx = LatticeHomology(lat)
    calls = []
    original = ctx.fixed_chain_sums
    ctx.fixed_chain_sums = lambda g: calls.append(g) or original(g)
    first = [ctx.betti_report(i) for i in (2, 3, 4)]
    assert len(calls) == len(ctx._betti) > 1
    assert [ctx.betti_report(i) for i in (2, 3, 4)] == first
    assert len(calls) == len(ctx._betti)

