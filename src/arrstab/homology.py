"""Order complexes and exact reduced homology of the lattice's intervals.

Reduced simplicial homology is computed over Q from augmented chain
complexes, so dim H~_{-1} of the empty complex is 1 and everything below
degree -1 vanishes.  The complement-cohomology assembly sums, over lattice
elements x, the local reduced homology of the order complex of the elements
strictly containing x, placed in degree 2 cd(x) - i - 2; only codimensions
with ceil(i/2) <= cd(x) <= i can contribute: since codims ascend, one run
of indices, the degree window that Betti numbers and traces share.  That
interval's order is read straight off the lattice's order table
(``IntersectionLattice.containing``) as ascending successor lists, and its
chains are grown one dimension at a time already sorted.

Betti numbers come from the ranks of the integer boundary maps, found by
sparse elimination over Z: the boundary entries are +-1, pivots are units
wherever the column has one, and other pivots take a fraction-free step with
the content divided out.  Ranks are taken from the top degree down, and the
columns of the chains that were pivot rows one degree up are skipped, since
they lie in the span of the other columns (the boundary of a boundary is
zero).

The identity's trace on local homology is its dimension, the Betti number.
Other equivariant traces use the fact that an order automorphism g permutes strict
chains without signs, and fixes a chain only if it fixes each element of it
(Stanley).  By the Hopf trace formula the alternating sum of g's traces on
the local homology is therefore the reduced Euler characteristic of the
g-fixed subposet, a Moebius number that needs no chains.  When the local
homology sits in a single degree that number is the trace.  k-equals
intervals can carry homology in several degrees (Bjoerner-Welker); there the
trace comes from orbit complexes.  Over Q the invariants of each cyclic
subgroup <g^j> are the homology of the complex of chain-orbit sums
(transfer), whose dimension is an orbit count minus two sparse ranks, and
the rational characters of a cyclic group turn those dimensions into the
trace of g.  Betti numbers and traces thus share one integer rank kernel.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .fim import MultiIndex, PermTuple
from .record import record

if TYPE_CHECKING:  # pragma: no cover
    from .arrangement import IntersectionLattice


class LatticeError(RuntimeError):
    """A lattice failed an internal consistency requirement."""


@record
class OrderComplex:
    """All strict chains of a poset, tabulated by dimension.

    ``chains[p]`` lists the p-chains as tuples of vertex indices in ascending
    poset order, sorted lexicographically.  Every face of a stored chain is
    stored.
    """

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


def order_complex(succ: Sequence[Sequence[int]]) -> OrderComplex:
    """Enumerate all strict chains of the poset on ``range(len(succ))`` in
    which ``succ[v]`` lists, ascending, every vertex above v.

    Extending the sorted p-chains, in order, by their last vertex's ascending
    successors lists the (p+1)-chains sorted, so no dimension is re-sorted.
    """
    levels: list[tuple[tuple[int, ...], ...]] = []
    current = [(v,) for v in range(len(succ))]
    while current:
        levels.append(tuple(current))
        current = [chain + (b,) for chain in current for b in succ[chain[-1]]]
    return OrderComplex(tuple(levels))


def _boundary_columns(cx: OrderComplex, d: int, skip: set[int]) -> list[dict[int, int]]:
    """The columns of the integer boundary map C_d -> C_{d-1} as {row: entry},
    for d >= 1, leaving out the d-chains with an index in ``skip``."""
    faces = {chain: idx for idx, chain in enumerate(cx.chains[d - 1])}
    columns = []
    for col, chain in enumerate(cx.chains[d]):
        if col in skip:
            continue
        entries = {}
        sign = 1
        for k in range(len(chain)):
            entries[faces[chain[:k] + chain[k + 1 :]]] = sign
            sign = -sign
        columns.append(entries)
    return columns


def _sparse_rank(columns: Iterable[dict[int, int]]) -> tuple[int, set[int]]:
    """Rank over Q of an integer matrix given by sparse columns, and the pivot
    rows.

    Each column is reduced against the pivot columns in the order they were
    found.  A stored pivot column is zero in the rows of all earlier pivots,
    so the earliest pivot hit moves strictly later at each step and the
    reduction ends.  A step against a pivot p that does not divide the entry
    c scales the column by p / gcd(p, c) and divides out the content after.
    A surviving column pivots on a unit entry if it has one.  The columns are
    consumed.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for col in columns:
        while True:
            hits = [pivots[row] + (row,) for row in col if row in pivots]
            if not hits:
                break
            _, pcol, row = min(hits, key=lambda hit: hit[0])
            p, c = pcol[row], col[row]
            g = math.gcd(p, c) if p > 0 else -math.gcd(p, c)
            a, b = p // g, c // g  # a > 0, and a == 1 when p divides c
            if a != 1:
                for r in col:
                    col[r] *= a
            for r, v in pcol.items():
                value = col.get(r, 0) - b * v
                if value:
                    col[r] = value
                else:
                    del col[r]
            if a != 1 and col:
                content = math.gcd(*col.values())
                for r in col:
                    col[r] //= content
        if col:
            units = [r for r, v in col.items() if v in (1, -1)]
            pivots[min(units) if units else min(col)] = (len(pivots), col)
    return len(pivots), set(pivots)


def reduced_betti_numbers(c: OrderComplex) -> tuple[int, ...]:
    """(dim H~_{-1}, dim H~_0, ..., dim H~_dim) over Q.

    The empty complex has H~_{-1} of dimension 1.  Ranks come from sparse
    elimination over Z, top degree first; a column of the degree-d boundary
    whose chain is a pivot row of the degree-(d+1) boundary is skipped, as it
    lies in the span of the others.
    """
    top = c.dimension
    ranks = [0] * (top + 3)  # ranks[d + 1] = rank of the boundary C_d -> C_{d-1}
    cleared: set[int] = set()
    for d in range(top, 0, -1):
        ranks[d + 1], cleared = _sparse_rank(_boundary_columns(c, d, cleared))
    ranks[1] = 1 if c.chain_count(0) else 0  # the augmentation
    return tuple(
        c.chain_count(d) - ranks[d + 1] - ranks[d + 2] for d in range(-1, top + 1)
    )


def reduced_betti(c: OrderComplex, d: int) -> int:
    """dim H~_d over Q, with H~_{-1} of the empty complex equal to 1."""
    if not -1 <= d <= c.dimension:
        return 0
    return reduced_betti_numbers(c)[d + 1]


def _invariant_betti(cx: OrderComplex, h: Sequence[int], d: int) -> int:
    """dim H~_d(cx)^<h> over Q, for an order automorphism h of the vertices.

    <h> permutes the chains without signs (h maps a chain in poset order to a
    chain in poset order), so by transfer the invariants are the homology of
    the complex of orbit sums, the empty chain in degree -1.  Summing the
    faces of every member of an orbit gives each face orbit rho its
    coefficient times |rho|: a row scaling, which leaves the ranks and the
    pivot-row skip of ``reduced_betti_numbers`` as they are.

    Overwriting the coefficients instead of summing them is an equivalent
    change that no test can tell apart.  An order automorphism preserves
    height, so two faces of one chain never share an orbit, and the entry of
    an orbit sigma at a face orbit rho is then +-|sigma| when summed and +-1
    when overwritten: a column scaling, which leaves every rank as it is.
    """
    index: dict[tuple[int, ...], int] = {}  # chain -> its orbit's number
    orbits: dict[int, list[list[tuple[int, ...]]]] = {}
    for p in (d - 1, d, d + 1):
        orbits[p] = []
        for chain in ((),) if p == -1 else cx.chains[p] if 0 <= p <= cx.dimension else ():
            members = []
            while chain not in index:
                index[chain] = len(orbits[p])
                members.append(chain)
                chain = tuple(h[v] for v in chain)
            if members:
                orbits[p].append(members)

    def rank(p: int, skip: set[int]) -> tuple[int, set[int]]:
        columns = []
        for k, members in enumerate(orbits[p]):
            if k not in skip:
                column: dict[int, int] = {}
                for chain in members:
                    for t in range(len(chain)):
                        row = index[chain[:t] + chain[t + 1 :]]
                        column[row] = column.get(row, 0) + (-1) ** t
                columns.append({r: v for r, v in column.items() if v})
        return _sparse_rank(columns)

    above, pivots = rank(d + 1, set())
    return len(orbits[d]) - above - rank(d, pivots)[0]


def _moebius(n: int) -> int:
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def _orbit_trace(cx: OrderComplex, vertex_perm: Sequence[int], d: int) -> int | Fraction:
    """The trace on H~_d(cx) over Q of the order automorphism g that permutes
    the vertices by ``vertex_perm``.

    Let N be g's order and F(j) = dim H~_d^<g^j>.  g^j fixes the summand of
    type Q(zeta_e) exactly when e divides j, so a_e = sum_{j | e} mu(e/j) F(j)
    is phi(e) times that summand's multiplicity, and a generator's trace on
    Q(zeta_e) is mu(e) (Serre, Linear Representations of Finite Groups,
    13.1).  The trace is sum_{e | N} mu(e) a_e / phi(e), over square-free e,
    an int when it is integral.
    """
    powers = [list(range(len(vertex_perm)))]
    while (power := [vertex_perm[v] for v in powers[-1]]) != powers[0]:
        powers.append(power)
    order = len(powers)
    divisors = [e for e in range(1, order + 1) if order % e == 0 and _moebius(e)]
    fixed = {j: _invariant_betti(cx, powers[j % order], d) for j in divisors}
    total = Fraction(0)
    for e in divisors:
        a = sum(_moebius(e // j) * fixed[j] for j in divisors if e % j == 0)
        phi = sum(math.gcd(k, e) == 1 for k in range(1, e + 1))
        total += Fraction(_moebius(e) * a, phi)
    return total.numerator if total.denominator == 1 else total


@record
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


class LatticeHomology:
    """The library's one cohomology object: Betti numbers of H^i
    (``betti_report``) and character values (``trace``) on a lattice, which
    stays immutable.  Complexes, Betti vectors, element permutations and
    fixed subposet Moebius numbers are memoized, so repeated queries (one per
    class and degree, say) share the work.  Degree i reads only elements of
    codim at most i, a prefix of the lattice, so one context on a level's top
    lattice serves every lower degree.  An interval's Betti vector is
    invariant under Aut(n), so it is ranked once per recorded orbit.
    """

    def __init__(self, lat: "IntersectionLattice"):
        self.lattice = lat
        self._intervals: dict[int, tuple[tuple[int, ...], OrderComplex]] = {}
        self._betti: dict[int, tuple[int, ...]] = {}
        self._actions: dict[PermTuple, tuple[int, ...]] = {}
        self._fixed_sums: dict[PermTuple, list[int]] = {}
        self._identity = PermTuple.identity(lat.level)

    def action(self, g: PermTuple) -> tuple[int, ...]:
        """The element permutation of g, computed once per context; the
        identity is not acted out."""
        if g not in self._actions:
            if g == self._identity:
                self._actions[g] = tuple(range(len(self.lattice)))
            else:
                self._actions[g] = self.lattice.act(g)
        return self._actions[g]

    def interval(self, idx: int) -> tuple[tuple[int, ...], OrderComplex]:
        """The elements strictly containing element idx, ascending, and the
        order complex of that interval on their positions, a chain running
        from larger subspaces to smaller.  Whatever contains a member
        contains idx too, so the members' ``containing`` lists stay inside
        the interval; read in ascending order, they fill each successor list
        ascending."""
        cached = self._intervals.get(idx)
        if cached is None:
            members = self.lattice.containing(idx)
            position = {y: pos for pos, y in enumerate(members)}
            succ: list[list[int]] = [[] for _ in members]
            for pos, y in enumerate(members):
                for z in self.lattice.containing(y):
                    succ[position[z]].append(pos)
            cached = self._intervals[idx] = (members, order_complex(succ))
        return cached

    def betti_numbers(self, idx: int) -> tuple[int, ...]:
        """The reduced Betti vector of element idx's interval, from degree -1
        up (see ``reduced_betti_numbers``), computed once per orbit.  By
        Hall's theorem its alternating sum is mu(0, x), which is -h(x) for
        the identity's fixed chain sums; a mismatch means a wrong orbit and
        raises LatticeError.  Every member of the orbit is checked when the
        orbit is ranked.
        """
        orbit = self.lattice.orbits[idx]
        if orbit[0] not in self._betti:
            _, cx = self.interval(orbit[0])
            betti = reduced_betti_numbers(cx)
            euler = sum(b if k % 2 else -b for k, b in enumerate(betti))  # degree k - 1
            h = self.fixed_chain_sums(self._identity)
            for member in orbit:
                if euler != -h[member]:
                    raise LatticeError(
                        f"interval of element {member} fails Hall's theorem; orbits corrupted"
                    )
            self._betti[orbit[0]] = betti
        return self._betti[orbit[0]]

    def local_betti(self, idx: int, d: int) -> int:
        betti = self.betti_numbers(idx)
        return betti[d + 1] if 0 <= d + 1 < len(betti) else 0

    def _window(self, i: int) -> range:
        """The indices of the elements that can contribute to H^i, those of
        codim ceil(i/2) to i: one run, since codims ascend."""
        lat = self.lattice
        if i < 1:
            raise ValueError("cohomological degree must be at least 1")
        if lat.max_codim < i:
            raise ValueError(f"lattice cut off at codimension {lat.max_codim}, need {i}")
        codims = lat.codims
        return range(bisect.bisect_left(codims, (i + 1) // 2), bisect.bisect_right(codims, i))

    def betti_report(self, i: int) -> GMReport:
        lat = self.lattice
        contributions = []
        for idx in self._window(i):
            codim = lat.codims[idx]
            d = 2 * codim - i - 2
            betti = self.local_betti(idx, d)
            if betti:
                contributions.append((idx, codim, d, betti))
        return GMReport(lat.level, i, sum(c[3] for c in contributions), tuple(contributions))

    def fixed_chain_sums(self, g: PermTuple) -> list[int]:
        """Per element x fixed by g, h(x) = 1 - sum of h(y) over the fixed y
        strictly containing x; 0 on elements g moves.

        h(x) is the signed count of the fixed chains topped by x, so the
        reduced Euler characteristic of the g-fixed part of x's interval is
        -1 plus the sum of h over it.
        """
        if g not in self._fixed_sums:
            lat = self.lattice
            sigma = self.action(g)
            h = [0] * len(lat)
            for x in range(len(lat)):
                if sigma[x] == x:
                    h[x] = 1 - sum(h[y] for y in lat.containing(x))
            self._fixed_sums[g] = h
        return self._fixed_sums[g]

    def trace(
        self, g: PermTuple, i: int, members: Sequence[int] | None = None
    ) -> int | Fraction:
        """Character value of g on H^i, the identity's (dim H^i) included;
        optionally restricted to an orbit.  Each term is an int, as a
        character's values are integers, and so is the sum.

        Only elements of ``_window(i)``, which ``betti_report`` reads too,
        and fixed by g contribute, and only if their interval has homology in
        the local degree d.  The identity's trace on H~_d is its dimension.
        For other g, when the interval's homology sits in degree d alone, the
        Hopf trace formula gives (-1)^d times the reduced Euler
        characteristic of the g-fixed subposet.  Otherwise the trace comes
        from the interval's orbit complexes under the powers of the vertex
        permutation that g induces (``_orbit_trace``).
        """
        lat = self.lattice
        window = self._window(i)
        pool = window if members is None else [idx for idx in members if idx in window]
        identity = g == self._identity
        sigma = self.action(g)
        total = 0
        for idx in pool:
            if sigma[idx] != idx:
                continue
            d = 2 * lat.codims[idx] - i - 2
            local = self.local_betti(idx, d)
            if not local:
                continue
            if identity:
                total += local
            elif local == sum(self.betti_numbers(idx)):
                # the reduced Euler characteristic of the fixed part is -h(idx)
                h = self.fixed_chain_sums(g)[idx]
                total += h if d % 2 else -h
            else:
                labels, cx = self.interval(idx)
                local_pos = {lab: pos for pos, lab in enumerate(labels)}
                vertex_perm = [local_pos[sigma[lab]] for lab in labels]
                total += _orbit_trace(cx, vertex_perm, d)
        return total
