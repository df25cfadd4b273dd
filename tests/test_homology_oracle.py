"""Interval homology against the dense paths it replaced.

``dense_betti`` is the former rank path: dense ``Fraction`` elimination of
each boundary matrix (``ChainComplex``).  ``BasisTrace`` is the former trace
(``LatticeHomology.homology_data`` and ``basis_trace``): g's trace read off a
cycles-modulo-boundaries basis, with ``column_space_basis`` and
``independent_extension`` from the former ``exactlin``.  Both stay here as
the references for the sparse integer ranks, the Hopf trace on fixed
subposets and the orbit-complex trace (``homology._orbit_trace``).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrstab import cache, exactlin, homology
from arrstab.arrangement import build_lattice, family_mkr
from arrstab.characters import character_of_cohomology
from arrstab.exactlin import RationalMatrix, _rref_rows, kernel_basis, solve_in_basis
from arrstab.fim import ConjClass, MultiIndex, PermTuple, class_representative, conj_classes
from arrstab.homology import (
    LatticeHomology,
    OrderComplex,
    order_complex,
    reduced_betti,
    reduced_betti_numbers,
)
from test_exactlin import mat
from test_fim import identity_class
from test_lattice_oracle import (
    FAMILY_CASES,
    assert_action_matches_oracle,
    dense_rank,
    dense_transpose,
    never,
    two_codim_specs,
)

mi = MultiIndex


class ChainComplex:
    """Augmented rational chain complex of an order complex.

    ``boundary(d)`` is the matrix C_d -> C_{d-1}; degree -1 is the
    one-dimensional augmentation piece, so boundary(0) is a row of ones.
    """

    def __init__(self, cx):
        self.complex = cx

    def boundary(self, d):
        cx = self.complex
        cols = cx.chain_count(d)
        rows = cx.chain_count(d - 1)
        if d <= -1 or cols == 0:
            return RationalMatrix(tuple((0,) * cols for _ in range(rows)), cols)
        if d == 0:
            return RationalMatrix(((1,) * cols,) if rows else (), cols)
        faces = {chain: idx for idx, chain in enumerate(cx.chains[d - 1])}
        entries = [[0] * cols for _ in range(rows)]
        for col, chain in enumerate(cx.chains[d]):
            sign = 1
            for k in range(len(chain)):
                face = chain[:k] + chain[k + 1 :]
                entries[faces[face]][col] += sign
                sign = -sign
        return RationalMatrix(tuple(tuple(row) for row in entries), cols)


def column_space_basis(m):
    """Canonical basis of the column space (RREF rows of the transpose)."""
    return tuple(_rref_rows(dense_transpose(m).entries, m.rows))


def independent_extension(base, candidates, cols):
    """Greedily pick candidates that grow the span of ``base``, in order."""
    picked = []
    current = _rref_rows([list(v) for v in base], cols)
    for cand in candidates:
        trial = _rref_rows(list(current) + [list(cand)], cols)
        if len(trial) > len(current):
            picked.append(cand)
            current = trial
    return picked


class BasisTrace:
    """The former basis-method trace on one ``LatticeHomology`` context:
    ``self(g, idx, d)`` is the trace of g, which must fix element idx, on
    H~_d of its interval, solved in a cycles-modulo-boundaries basis."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._homology = {}

    def homology_data(self, idx, d):
        """(chains, chain index map, combined basis [boundaries then homology
        representatives], boundary count, homology count), or None when the
        local homology vanishes."""
        key = (idx, d)
        if key in self._homology:
            return self._homology[key]
        result = None
        if d >= -1:
            _, cx = self.ctx.interval(idx)
            chains = ((),) if d == -1 else cx.chains[d] if d <= cx.dimension else ()
            if chains:
                cc = ChainComplex(cx)
                cycles = kernel_basis(cc.boundary(d))
                boundaries = list(column_space_basis(cc.boundary(d + 1)))
                homology = independent_extension(boundaries, cycles, len(chains))
                if homology:
                    chain_index = {chain: t for t, chain in enumerate(chains)}
                    basis = boundaries + homology
                    result = (chains, chain_index, basis, len(boundaries), len(homology))
        self._homology[key] = result
        return result

    def __call__(self, g, idx, d):
        data = self.homology_data(idx, d)
        if data is None:
            return Fraction(0)
        sigma = self.ctx.action(g)
        chains, chain_index, basis, b_count, h_count = data
        labels, _ = self.ctx.interval(idx)
        local_pos = {lab: pos for pos, lab in enumerate(labels)}
        vertex_map = [local_pos[sigma[lab]] for lab in labels]
        chain_perm = [
            chain_index[tuple(vertex_map[v] for v in chain)] for chain in chains
        ]
        rhs = []
        for h in basis[b_count:]:
            image = [0] * len(chains)
            for t, value in enumerate(h):
                if value != 0:
                    image[chain_perm[t]] = value
            rhs.append(tuple(image))
        coords = solve_in_basis(basis, rhs, len(chains))
        return sum((coords[b_count + j][j] for j in range(h_count)), Fraction(0))


def dense_betti(cx):
    """(dim H~_{-1}, ..., dim H~_dim) from dense ranks over Q."""
    cc = ChainComplex(cx)
    ranks = [dense_rank(cc.boundary(d)) for d in range(-1, cx.dimension + 2)]
    return tuple(
        cx.chain_count(d) - ranks[d + 1] - ranks[d + 2]
        for d in range(-1, cx.dimension + 1)
    )


def basis_trace_sum(oracle, g, i, members=None):
    lat = oracle.ctx.lattice
    sigma = oracle.ctx.action(g)
    lo, hi = (i + 1) // 2, i
    pool = range(len(lat)) if members is None else members
    return sum(
        (
            oracle(g, idx, 2 * lat.codims[idx] - i - 2)
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
        oracle = BasisTrace(ref)
        memo[key] = (
            [dense_betti(ref.interval(idx)[1]) for idx in range(len(lat))],
            {
                (c, i): basis_trace_sum(oracle, class_representative(c), i)
                for i in range(1, lat.max_codim + 1)
                for c in conj_classes(lat.level)
            },
        )
    betti, traces = memo[key]
    ctx = LatticeHomology(lat)
    assert [ctx.betti_numbers(idx) for idx in range(len(lat))] == betti
    for (c, i), value in traces.items():
        # a character's values are integers, and the trace returns ints
        trace = ctx.trace(class_representative(c), i)
        assert type(trace) is int and trace == value, (c, i)


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_ranks_and_traces_match_dense_paths(spec, level, max_codim, dense_memo):
    assert_matches_dense(build_lattice(spec, mi(level), max_codim), dense_memo)


# These level-3 lattices have not been seen to reach the orbit path (no
# interval with homology in two degrees); the k-equals and polygon tests
# below cover it.
@given(two_codim_specs(), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_ranks_and_traces_match_dense_paths_random(spec, max_codim):
    lat = build_lattice(spec, mi((3,)), max_codim)
    assert_action_matches_oracle(lat)
    assert_matches_dense(lat, {})


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
    dense = dense_transpose(mat(columns))
    assert homology._sparse_rank(sparse)[0] == dense_rank(dense)


def test_reduced_betti_reads_the_vector():
    # two disjoint edges: H~_0 = 1 and nothing else
    cx = OrderComplex((((0,), (1,), (2,), (3,)), ((0, 1), (2, 3))))
    assert reduced_betti_numbers(cx) == (0, 1, 0)
    assert [reduced_betti(cx, d) for d in range(-2, 3)] == [0, 0, 1, 0, 0]


# --- the identity's trace and the degree window ----------------------------


def window_oracle(lat, i):
    return [idx for idx, codim in enumerate(lat.codims) if (i + 1) // 2 <= codim <= i]


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_identity_trace_and_degree_window_match_the_betti_report(
    tmp_path, spec, level, max_codim
):
    # the identity's trace sums local Betti numbers over the window, in
    # total and orbit by orbit; the window is the codim run ceil(i/2)..i
    level = mi(level)
    lat = build_lattice(spec, level, max_codim)
    ctx = LatticeHomology(lat)
    identity = class_representative(identity_class(level))
    assert identity == PermTuple.identity(level)
    for i in range(1, max_codim + 1):
        assert ctx.trace(identity, i) == ctx.betti_report(i).total
        window = window_oracle(lat, i)
        for orbit in sorted(set(lat.orbits)):
            expected = sum(
                ctx.local_betti(idx, 2 * lat.codims[idx] - i - 2) for idx in orbit if idx in window
            )
            assert ctx.trace(identity, i, members=orbit) == expected
    cache.store(tmp_path, spec, lat)
    loaded = cache.load(tmp_path, spec, level, max_codim)
    assert loaded is not None
    for other in [lat, loaded] + [build_lattice(spec, level, c) for c in range(1, max_codim)]:
        for i in range(1, other.max_codim + 1):
            assert list(LatticeHomology(other)._window(i)) == window_oracle(other, i)


# --- the orbit-complex trace ------------------------------------------------

KEQUALS = family_mkr(1, 3, 1)


def vertex_perm(ctx, g, idx):
    """The permutation g induces on the vertices of element idx's interval."""
    sigma = ctx.action(g)
    labels, _ = ctx.interval(idx)
    local_pos = {lab: pos for pos, lab in enumerate(labels)}
    return [local_pos[sigma[lab]] for lab in labels]


def test_k_equals_interval_with_two_degrees_takes_the_orbit_path(monkeypatch):
    # At level 6, codim 6, the codim-5 element (all six points equal) has an
    # interval with H~_1 = H~_2 = 10 (Bjoerner-Welker), and H^6 reads its
    # degree 2; every other contribution is concentrated.
    lat = build_lattice(KEQUALS, mi((6,)), 6)
    ctx = LatticeHomology(lat)
    assert ctx.betti_numbers(51) == (0, 0, 10, 10)
    assert [idx for idx in range(len(lat)) if sum(map(bool, ctx.betti_numbers(idx))) > 1] == [51]
    oracle = BasisTrace(ctx)
    calls = set()
    original = homology._orbit_trace

    def recording(cx, perm, d):
        # the identity's trace is the local Betti number, no orbit complex
        assert list(perm) != list(range(len(perm)))
        idx = next(k for k in range(len(lat)) if ctx.interval(k)[1] is cx)
        calls.add((idx, d))
        value = original(cx, perm, d)
        assert type(value) is int and value == oracle(g, idx, d)
        return value

    monkeypatch.setattr(homology, "_orbit_trace", recording)
    values = {}
    for c in conj_classes(mi((6,))):
        g = class_representative(c)
        values[c.render()] = ctx.trace(g, 6)
        if c.render() in ("2+1+1+1+1", "3+3", "6"):
            # Lefschetz: the alternating trace over both degrees is the
            # reduced Euler characteristic of the fixed subposet, for the
            # former basis method and for the orbit path alike
            h = ctx.fixed_chain_sums(g)
            euler = sum(h[y] for y in lat.containing(51)) - 1
            assert oracle(g, 51, 2) - oracle(g, 51, 1) == euler
            _, cx = ctx.interval(51)
            perm = vertex_perm(ctx, g, 51)
            assert original(cx, perm, 2) - original(cx, perm, 1) == euler
    assert calls == {(51, 2)}
    # the values of the former basis-method trace on every element
    assert values == {
        "1+1+1+1+1+1": 20, "2+1+1+1+1": 2, "2+2+1+1": 0, "2+2+2": -2,
        "3+1+1+1": 2, "3+2+1": 2, "3+3": 2, "4+1+1": 0, "4+2": -2,
        "5+1": 0, "6": -2,
    }
    assert values == {
        c.render(): basis_trace_sum(oracle, class_representative(c), 6)
        for c in conj_classes(mi((6,)))
    }


@pytest.mark.parametrize("n, pairs", [(6, 11), (7, 30)])
def test_orbit_trace_matches_basis_oracle_on_k_equals(n, pairs):
    # every (class, element) pair that H^6 sends down the orbit path: a
    # fixed element whose interval has homology in its local degree and in
    # another one
    lat = build_lattice(KEQUALS, mi((n,)), 6)
    ctx = LatticeHomology(lat)
    oracle = BasisTrace(ctx)
    seen = 0
    for c in conj_classes(mi((n,))):
        g = class_representative(c)
        sigma = ctx.action(g)
        for idx in range(len(lat)):
            codim = lat.codims[idx]
            if not 3 <= codim <= 6 or sigma[idx] != idx:
                continue
            d = 2 * codim - 8
            local = ctx.local_betti(idx, d)
            if not local or local == sum(ctx.betti_numbers(idx)):
                continue
            _, cx = ctx.interval(idx)
            assert homology._orbit_trace(cx, vertex_perm(ctx, g, idx), d) == oracle(g, idx, d)
            seen += 1
    assert seen == pairs


# Order complexes of face posets with known characters, an oracle for the
# orbit path that shares nothing with the basis method: disjoint polygons,
# polygon c of size m with vertices (c, 0, k) and edges (c, 1, k) = {k, k+1}
# mod m.  A symmetry sends polygon c onto polygon target[c] of the same size
# by k -> (+-k + shift[c]) mod m.  On H~_0 its trace is the number of polygons
# it maps to themselves minus one; on H~_1 each of those adds 1 if turned and
# -1 if flipped.


def polygons(sizes):
    labels = [(c, dim, k) for c, m in enumerate(sizes) for dim in (0, 1) for k in range(m)]
    pos = {lab: t for t, lab in enumerate(labels)}
    succ = [  # vertex k lies on edges k - 1 and k
        sorted(pos[(c, 1, e)] for e in (k, (k - 1) % sizes[c])) if dim == 0 else []
        for c, dim, k in labels
    ]
    return labels, pos, order_complex(succ)


def polygon_symmetry(sizes, target, shift, flip):
    labels, pos, _ = polygons(sizes)
    perm = []
    for c, dim, k in labels:
        m = sizes[c]

        def move(v):
            return ((-v if flip[c] else v) + shift[c]) % m

        if dim == 0:
            perm.append(pos[(target[c], 0, move(k))])
        else:
            a, b = move(k), move((k + 1) % m)
            perm.append(pos[(target[c], 1, a if (a + 1) % m == b else b)])
    return perm


def polygon_traces(target, flip):
    fixed = [c for c in range(len(target)) if target[c] == c]
    return len(fixed) - 1, sum(-1 if flip[c] else 1 for c in fixed)


def test_orbit_trace_on_a_hexagon():
    _, _, cx = polygons([6])
    assert reduced_betti_numbers(cx) == (0, 0, 1)
    # rotation by one step has order 6, so F is taken at j = 1, 2, 3, 6
    rotate = polygon_symmetry([6], [0], [1], [False])
    reflect = polygon_symmetry([6], [0], [0], [True])
    assert homology._orbit_trace(cx, rotate, 1) == 1
    assert homology._orbit_trace(cx, reflect, 1) == -1
    for perm in (rotate, reflect):
        assert homology._orbit_trace(cx, perm, 0) == 0
        assert homology._orbit_trace(cx, perm, -1) == 0


def test_orbit_trace_on_two_hexagons_in_two_degrees():
    _, _, cx = polygons([6, 6])
    assert reduced_betti_numbers(cx) == (0, 1, 2)
    swap = polygon_symmetry([6, 6], [1, 0], [0, 0], [False, False])
    assert homology._orbit_trace(cx, swap, 0) == -1
    assert homology._orbit_trace(cx, swap, 1) == 0
    rotate = polygon_symmetry([6, 6], [0, 1], [1, 1], [False, False])
    assert homology._orbit_trace(cx, rotate, 0) == 1
    assert homology._orbit_trace(cx, rotate, 1) == 2


@st.composite
def polygon_cases(draw):
    sizes = sorted(draw(st.lists(st.integers(3, 5), min_size=1, max_size=4)))
    target = list(range(len(sizes)))
    for m in set(sizes):
        group = [c for c in range(len(sizes)) if sizes[c] == m]
        for c, t in zip(group, draw(st.permutations(group))):
            target[c] = t
    shift = [draw(st.integers(0, m - 1)) for m in sizes]
    flip = [draw(st.booleans()) for _ in sizes]
    return sizes, target, shift, flip


@given(polygon_cases())
@settings(max_examples=60, deadline=None)
def test_orbit_trace_on_random_polygons(case):
    # two or more polygons put homology in degrees 0 and 1 at once
    sizes, target, shift, flip = case
    _, _, cx = polygons(sizes)
    perm = polygon_symmetry(sizes, target, shift, flip)
    h0, h1 = polygon_traces(target, flip)
    assert homology._orbit_trace(cx, perm, 0) == h0
    assert homology._orbit_trace(cx, perm, 1) == h1
    assert homology._orbit_trace(cx, perm, 2) == 0


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
    assert not hasattr(homology, "solve_in_basis")
    assert not hasattr(homology, "kernel_basis")
    monkeypatch.setattr(exactlin, "solve_in_basis", never("solve_in_basis"))
    monkeypatch.setattr(exactlin, "kernel_basis", never("kernel_basis"))
    chi = character_of_cohomology(braid, mi((5,)), 4)
    assert chi(identity_class(mi((5,)))) == 24  # c(5, 1) = 4!


def test_braid6_h5_character(braid, get_lattice, monkeypatch):
    assert not hasattr(homology, "solve_in_basis")
    assert not hasattr(homology, "kernel_basis")
    monkeypatch.setattr(exactlin, "solve_in_basis", never("solve_in_basis"))
    monkeypatch.setattr(exactlin, "kernel_basis", never("kernel_basis"))
    ctx = LatticeHomology(get_lattice(braid, mi((6,)), 5))
    # Betti number c(6, 1) = 5! (Stirling numbers of the first kind)
    assert ctx.betti_report(5).total == 120
    chi = character_of_cohomology(braid, mi((6,)), 5, homology=ctx)
    assert chi(identity_class(mi((6,)))) == 120
    identity = class_representative(ConjClass(((1,) * 6,)))
    assert ctx.trace(identity, 5) == 120
