"""Interval homology against the dense paths it replaced.

``dense_betti`` is the former rank path: dense ``Fraction`` elimination of
each boundary matrix.  ``basis_trace_sum`` is the former trace: every fixed
element's trace read off a cycles-modulo-boundaries basis
(``LatticeHomology.basis_trace``, which the engine keeps only for intervals
whose homology spreads over several degrees).  Both stay here as the
references for the sparse integer ranks and the Hopf trace on fixed
subposets.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrstab import homology
from arrstab.arrangement import build_lattice, family_mkr
from arrstab.characters import character_of_cohomology
from arrstab.exactlin import RationalMatrix, rank
from arrstab.fim import ConjClass, MultiIndex, class_representative, conj_classes
from arrstab.homology import (
    ChainComplex,
    LatticeHomology,
    OrderComplex,
    reduced_betti,
    reduced_betti_numbers,
)
from test_lattice_oracle import FAMILY_CASES, never, two_codim_specs

mi = MultiIndex


def dense_betti(cx):
    """(dim H~_{-1}, ..., dim H~_dim) from dense ranks over Q."""
    cc = ChainComplex(cx)
    ranks = [rank(cc.boundary(d)) for d in range(-1, cx.dimension + 2)]
    return tuple(
        cx.chain_count(d) - ranks[d + 1] - ranks[d + 2]
        for d in range(-1, cx.dimension + 1)
    )


def basis_trace_sum(ctx, g, i, members=None):
    lat = ctx.lattice
    sigma = ctx.action(g)
    lo, hi = (i + 1) // 2, i
    pool = range(len(lat)) if members is None else members
    return sum(
        (
            ctx.basis_trace(g, idx, 2 * lat.codims[idx] - i - 2)
            for idx in pool
            if lo <= lat.codims[idx] <= hi and sigma[idx] == idx
        ),
        0,
    )


@pytest.fixture(scope="module")
def dense_memo():
    """Dense results by lattice: braid and the padded generator give one
    lattice at level 5, the costliest case, so it is solved once."""
    return {}


def assert_matches_dense(lat, memo):
    key = (lat.level, tuple(e.serialization for e in lat.elements))
    if key not in memo:
        ref = LatticeHomology(lat)
        memo[key] = (
            [dense_betti(ref.interval(idx)[1]) for idx in range(len(lat))],
            {
                (c, i): basis_trace_sum(ref, class_representative(c), i)
                for i in range(1, lat.max_codim + 1)
                for c in conj_classes(lat.level)
            },
        )
    betti, traces = memo[key]
    ctx = LatticeHomology(lat)
    assert [ctx.betti_numbers(idx) for idx in range(len(lat))] == betti
    for (c, i), value in traces.items():
        assert ctx.trace(class_representative(c), i) == value


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_ranks_and_traces_match_dense_paths(spec, level, max_codim, dense_memo):
    assert_matches_dense(build_lattice(spec, mi(level), max_codim), dense_memo)


@given(two_codim_specs(), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_ranks_and_traces_match_dense_paths_random(spec, max_codim):
    assert_matches_dense(build_lattice(spec, mi((3,)), max_codim), {})


def test_sparse_rank_takes_fraction_free_steps():
    # a 3x3 integer matrix of rank 2 whose only units sit in one column
    # forces non-unit pivots: columns (2,3,0), (4,6,1), (2,3,1)
    columns = [{0: 2, 1: 3}, {0: 4, 1: 6, 2: 1}, {0: 2, 1: 3, 2: 1}]
    assert homology._sparse_rank(columns)[0] == 2
    assert homology._sparse_rank([{0: 2, 1: 3}, {0: 3, 1: 2}])[0] == 2
    assert homology._sparse_rank([{0: 6, 1: 4}, {0: -9, 1: -6}])[0] == 1


@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=5, max_size=5), min_size=1, max_size=6
    )
)
@settings(max_examples=200, deadline=None)
def test_sparse_rank_matches_dense_rank_random(columns):
    sparse = [{r: v for r, v in enumerate(col) if v} for col in columns]
    dense = RationalMatrix.from_rows(columns).transpose()
    assert homology._sparse_rank(sparse)[0] == rank(dense)


def test_reduced_betti_reads_the_vector():
    # two disjoint edges: H~_0 = 1 and nothing else
    cx = OrderComplex(4, (((0,), (1,), (2,), (3,)), ((0, 1), (2, 3))))
    assert reduced_betti_numbers(cx) == (0, 1, 0)
    assert [reduced_betti(cx, d) for d in range(-2, 3)] == [0, 0, 1, 0, 0]


# --- the fallback -------------------------------------------------------------

KEQUALS = family_mkr(1, 3, 1)


def test_k_equals_interval_with_two_degrees_takes_the_basis_path(monkeypatch):
    # At level 6, codim 6, the codim-5 element (all six points equal) has an
    # interval with H~_1 = H~_2 = 10 (Bjoerner-Welker), and H^6 reads its
    # degree 2; every other contribution is concentrated.
    lat = build_lattice(KEQUALS, mi((6,)), 6)
    ctx = LatticeHomology(lat)
    assert ctx.betti_numbers(51) == (0, 0, 10, 10)
    assert [idx for idx in range(len(lat)) if sum(map(bool, ctx.betti_numbers(idx))) > 1] == [51]
    calls = set()
    original = LatticeHomology.basis_trace

    def recording(self, g, idx, d):
        calls.add((idx, d))
        return original(self, g, idx, d)

    monkeypatch.setattr(LatticeHomology, "basis_trace", recording)
    values = {}
    for c in conj_classes(mi((6,))):
        g = class_representative(c)
        values[c.render()] = ctx.trace(g, 6)
        if c.render() in ("2+1+1+1+1", "3+3", "6"):
            # Lefschetz: the alternating trace over both degrees is the
            # reduced Euler characteristic of the fixed subposet
            h = ctx.fixed_chain_sums(g)
            euler = sum(h[y] for y in lat.containing(51)) - 1
            assert original(ctx, g, 51, 2) - original(ctx, g, 51, 1) == euler
    assert calls == {(51, 2)}
    # the values of the former basis-method trace on every element
    assert values == {
        "1+1+1+1+1+1": 20, "2+1+1+1+1": 2, "2+2+1+1": 0, "2+2+2": -2,
        "3+1+1+1": 2, "3+2+1": 2, "3+3": 2, "4+1+1": 0, "4+2": -2,
        "5+1": 0, "6": -2,
    }


def test_fixed_chain_sums_of_identity_are_moebius_numbers(braid):
    # with every element fixed, -1 + sum h over an interval is mu(0, x),
    # which for the partition lattice is (-1)^k prod (|B| - 1)! over blocks
    lat = build_lattice(braid, mi((5,)), 4)
    ctx = LatticeHomology(lat)
    h = ctx.fixed_chain_sums(class_representative(ConjClass(((1,) * 5,))))
    top = len(lat) - 1  # all five points equal
    assert sum(h[y] for y in lat.containing(top)) - 1 == math.factorial(4)


# --- budgets and the braid wall ----------------------------------------------


def test_braid5_h4_character_solves_nothing(braid, monkeypatch):
    monkeypatch.setattr(homology, "solve_in_basis", never("solve_in_basis"))
    monkeypatch.setattr(homology, "kernel_basis", never("kernel_basis"))
    chi = character_of_cohomology(braid, mi((5,)), 4)
    assert chi.identity_value == 24  # c(5, 1) = 4!


def test_braid6_h5_character(braid, get_lattice, monkeypatch):
    monkeypatch.setattr(homology, "solve_in_basis", never("solve_in_basis"))
    ctx = LatticeHomology(get_lattice(braid, mi((6,)), 5))
    # Betti number c(6, 1) = 5! (Stirling numbers of the first kind)
    assert ctx.betti_report(5).total == 120
    chi = character_of_cohomology(braid, mi((6,)), 5, homology=ctx)
    assert chi.identity_value == 120
    identity = class_representative(ConjClass(((1,) * 6,)))
    assert ctx.trace(identity, 5) == 120
