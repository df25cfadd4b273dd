"""Order complexes and exact reduced homology of ranked posets.

Reduced simplicial homology is computed over Q from augmented chain
complexes, so dim H~_{-1} of the empty complex is 1 and everything below
degree -1 vanishes.  The complement-cohomology assembly sums, over lattice
elements x, the local reduced homology of the order complex of the elements
strictly containing x, placed in degree 2 cd(x) - i - 2; only codimensions
with ceil(i/2) <= cd(x) <= i can contribute.

Equivariant traces use the fact that an order automorphism permutes strict
chains without signs: the induced matrix on each chain group is a plain
permutation, and its trace on homology is read off in an exact
cycles-modulo-boundaries basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

from .exactlin import (
    RationalMatrix,
    column_space_basis,
    independent_extension,
    kernel_basis,
    rank,
    solve_in_basis,
)
from .fim import ConjClass, MultiIndex, PermTuple

if TYPE_CHECKING:  # pragma: no cover
    from .arrangement import IntersectionLattice

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class RankedPoset:
    """A finite poset with a strictly increasing integer rank function.

    ``less`` holds the full strict order relation (transitively closed) as
    pairs of element indices; ``labels`` carries caller-side identities.
    """

    labels: tuple[Hashable, ...]
    less: frozenset[tuple[int, int]]
    ranks: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.ranks) != n:
            raise ValueError("rank count does not match element count")
        for a, b in self.less:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("relation index out of range")
            if self.ranks[a] >= self.ranks[b]:
                raise ValueError("rank function must strictly increase")

    @property
    def size(self) -> int:
        return len(self.labels)

    def below(self, i: int) -> "RankedPoset":
        """The induced subposet of elements strictly below element i."""
        members = sorted(a for (a, b) in self.less if b == i)
        return self.restrict(members)

    def restrict(self, members: Sequence[int]) -> "RankedPoset":
        index = {orig: new for new, orig in enumerate(members)}
        sub_less = frozenset(
            (index[a], index[b])
            for (a, b) in self.less
            if a in index and b in index
        )
        return RankedPoset(
            tuple(self.labels[i] for i in members),
            sub_less,
            tuple(self.ranks[i] for i in members),
        )


@dataclass(frozen=True)
class OrderComplex:
    """All strict chains of a poset, tabulated by dimension.

    ``chains[p]`` lists the p-chains as tuples of vertex indices in ascending
    poset order, sorted lexicographically.  Every face of a stored chain is
    stored.
    """

    num_vertices: int
    chains: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.chains) - 1

    def chain_count(self, d: int) -> int:
        """Number of d-chains; the augmentation degree -1 counts one."""
        if d == -1:
            return 1
        if d < -1 or d > self.dimension:
            return 0
        return len(self.chains[d])


def order_complex(p: RankedPoset) -> OrderComplex:
    """Enumerate all strict chains of p."""
    n = p.size
    succ = [sorted(b for (a, b) in p.less if a == i) for i in range(n)]
    levels: list[tuple[tuple[int, ...], ...]] = []
    current = [(v,) for v in range(n)]
    while current:
        levels.append(tuple(current))
        nxt = []
        for chain in current:
            for b in succ[chain[-1]]:
                nxt.append(chain + (b,))
        current = sorted(nxt)
    return OrderComplex(n, tuple(levels))


@dataclass(frozen=True)
class ChainComplex:
    """Augmented rational chain complex of an order complex.

    ``boundary(d)`` is the matrix C_d -> C_{d-1}; degree -1 is the
    one-dimensional augmentation piece, so boundary(0) is a row of ones.
    """

    complex: OrderComplex

    def boundary(self, d: int) -> RationalMatrix:
        cx = self.complex
        cols = cx.chain_count(d)
        rows = cx.chain_count(d - 1)
        if d <= -1 or cols == 0:
            return RationalMatrix.zero(rows, cols)
        if d == 0:
            return RationalMatrix(
                tuple([tuple(_ONE for _ in range(cols))]) if rows else (), cols
            )
        faces = {chain: idx for idx, chain in enumerate(cx.chains[d - 1])}
        entries = [[_ZERO] * cols for _ in range(rows)]
        for col, chain in enumerate(cx.chains[d]):
            sign = _ONE
            for k in range(len(chain)):
                face = chain[:k] + chain[k + 1 :]
                entries[faces[face]][col] += sign
                sign = -sign
        return RationalMatrix(tuple(tuple(row) for row in entries), cols)


def reduced_betti(c: OrderComplex, d: int) -> int:
    """dim H~_d over Q, with H~_{-1} of the empty complex equal to 1."""
    if d < -1:
        return 0
    size = c.chain_count(d)
    if size == 0:
        return 0
    cc = ChainComplex(c)
    rank_d = rank(cc.boundary(d))
    rank_up = rank(cc.boundary(d + 1))
    return size - rank_d - rank_up


def whitney_homology_dims(p: RankedPoset) -> dict[int, int]:
    """Per rank n, the total local homology sum_{rank x = n} H~_{n-2}(P^{<x})."""
    out: dict[int, int] = {}
    for i in range(p.size):
        n = p.ranks[i]
        local = reduced_betti(order_complex(p.below(i)), n - 2)
        out[n] = out.get(n, 0) + local
    return out


@dataclass(frozen=True)
class GMReport:
    """Cohomology of an arrangement complement at one level and degree.

    Contributions are (element index, codim, local homological degree,
    local reduced Betti number); only nonzero local terms are recorded and
    they satisfy ceil(i/2) <= codim <= i.
    """

    level: MultiIndex
    degree: int
    total: int
    contributions: tuple[tuple[int, int, int, int], ...]
    character: tuple[tuple[ConjClass, Fraction], ...] | None = None

    def with_character(
        self, values: Iterable[tuple[ConjClass, Fraction]]
    ) -> "GMReport":
        return replace(self, character=tuple(values))

    def to_text_table(self) -> str:
        """Tabular form: contribution rows, a totals row, and (when present)
        a character sub-table keyed by class textual form."""
        lines = ["element,codim,local_degree,local_betti"]
        for element, codim, degree, betti in self.contributions:
            lines.append(f"{element},{codim},{degree},{betti}")
        lines.append(f"total,,,{self.total}")
        if self.character is not None:
            lines.append("class,value")
            for cls, value in self.character:
                lines.append(f"{cls.render()},{value}")
        return "\n".join(lines)


def _codim_window(i: int) -> tuple[int, int]:
    return (i + 1) // 2, i


class LatticeHomology:
    """Per-lattice computation context with memoized local homology data.

    The lattice itself stays immutable; this object only caches derived
    complexes, Betti numbers, homology bases and element permutations so that
    repeated Betti and trace queries (one per conjugacy class and degree,
    say) share the linear algebra.  Queries in degree i only read elements of
    codim at most i, which form a prefix of the lattice, so one context on a
    level's top lattice serves every lower degree.
    """

    def __init__(self, lat: "IntersectionLattice"):
        self.lattice = lat
        self._intervals: dict[int, tuple[tuple[int, ...], OrderComplex]] = {}
        self._betti: dict[tuple[int, int], int] = {}
        self._homology: dict[tuple[int, int], tuple | None] = {}
        self._actions: dict[PermTuple, tuple[int, ...]] = {}

    def action(self, g: PermTuple) -> tuple[int, ...]:
        """The element permutation of g, computed once per context."""
        if g not in self._actions:
            self._actions[g] = self.lattice.act(g)
        return self._actions[g]

    def interval(self, idx: int) -> tuple[tuple[int, ...], OrderComplex]:
        cached = self._intervals.get(idx)
        if cached is None:
            poset = self.lattice.lower_interval(idx)
            cached = (tuple(poset.labels), order_complex(poset))
            self._intervals[idx] = cached
        return cached

    def local_betti(self, idx: int, d: int) -> int:
        key = (idx, d)
        if key not in self._betti:
            _, cx = self.interval(idx)
            self._betti[key] = reduced_betti(cx, d)
        return self._betti[key]

    def betti_report(self, i: int, filtered: bool = True) -> GMReport:
        lat = self.lattice
        if i < 1:
            raise ValueError("cohomological degree must be at least 1")
        if lat.max_codim < i:
            raise ValueError(
                f"lattice truncated at codimension {lat.max_codim}, need {i}"
            )
        lo, hi = _codim_window(i)
        contributions = []
        total = 0
        for idx, codim in enumerate(lat.codims):
            if filtered and not (lo <= codim <= hi):
                continue
            d = 2 * codim - i - 2
            betti = self.local_betti(idx, d)
            if betti:
                contributions.append((idx, codim, d, betti))
                total += betti
        return GMReport(lat.level, i, total, tuple(contributions))

    def _chains(self, cx: OrderComplex, d: int) -> tuple[tuple[int, ...], ...]:
        if d == -1:
            return ((),)
        if 0 <= d <= cx.dimension:
            return cx.chains[d]
        return ()

    def homology_data(self, idx: int, d: int):
        """Cycle/boundary bookkeeping for degree d of element idx's interval.

        Returns (chains, chain index map, combined basis [boundaries then
        homology representatives], boundary count, homology count), or None
        when the local homology vanishes.
        """
        key = (idx, d)
        if key in self._homology:
            return self._homology[key]
        result = None
        if d >= -1:
            _, cx = self.interval(idx)
            chains = self._chains(cx, d)
            if chains:
                cc = ChainComplex(cx)
                dim = len(chains)
                cycles = kernel_basis(cc.boundary(d))
                boundaries = list(column_space_basis(cc.boundary(d + 1)))
                homology = independent_extension(boundaries, cycles, dim)
                if homology:
                    chain_index = {chain: t for t, chain in enumerate(chains)}
                    basis = boundaries + homology
                    result = (chains, chain_index, basis, len(boundaries), len(homology))
        self._homology[key] = result
        return result

    def trace(
        self, g: PermTuple, i: int, members: Sequence[int] | None = None
    ) -> Fraction:
        """Character value of g on H^i; optionally restricted to an orbit.

        Elements not fixed by g contribute nothing.  On a fixed element the
        order automorphism permutes the chains of the lower interval (order
        automorphisms preserve chain order, so no signs appear) and the trace
        is taken on a cycles-modulo-boundaries basis.
        """
        lat = self.lattice
        if i < 1:
            raise ValueError("cohomological degree must be at least 1")
        if lat.max_codim < i:
            raise ValueError(
                f"lattice truncated at codimension {lat.max_codim}, need {i}"
            )
        sigma = self.action(g)
        lo, hi = _codim_window(i)
        pool = range(len(lat.elements)) if members is None else members
        total = Fraction(0)
        for idx in pool:
            codim = lat.codims[idx]
            if not (lo <= codim <= hi) or sigma[idx] != idx:
                continue
            d = 2 * codim - i - 2
            data = self.homology_data(idx, d)
            if data is None:
                continue
            chains, chain_index, basis, b_count, h_count = data
            labels, _ = self.interval(idx)
            local_pos = {lab: pos for pos, lab in enumerate(labels)}
            vertex_map = [local_pos[sigma[lab]] for lab in labels]
            chain_perm = [
                chain_index[tuple(vertex_map[v] for v in chain)] for chain in chains
            ]
            rhs = []
            for h in basis[b_count:]:
                image = [_ZERO] * len(chains)
                for t, value in enumerate(h):
                    if value != 0:
                        image[chain_perm[t]] = value
                rhs.append(tuple(image))
            coords = solve_in_basis(basis, rhs, len(chains))
            for j in range(h_count):
                total += coords[b_count + j][j]
        return total


def gm_betti(lat: "IntersectionLattice", i: int, filtered: bool = True) -> GMReport:
    """Total and per-element Betti data of H^i of the complement at lat.level."""
    return LatticeHomology(lat).betti_report(i, filtered=filtered)


def equivariant_trace(lat: "IntersectionLattice", g: PermTuple, i: int) -> Fraction:
    """The character value of g on H^i of the complement."""
    return LatticeHomology(lat).trace(g, i)
