"""Cross-validation against oracles that share no code with the engine.

The point-count check: over a finite field F_q, the complement of the union
of the arrangement's subspaces can be counted by brute force.  Independently,
Mobius inversion over the intersection poset gives

    #M(F_q) = q^n + sum_x chi~(Delta(L^{<x})) q^{dim x}

where chi~ is the reduced Euler characteristic of the lower interval, i.e.
exactly the alternating sum of the local Betti numbers the cohomology
assembly consumes.  Agreement pins the per-element homology data to a
computation that never touches chain complexes.
"""

import functools
import itertools

from arrstab.arrangement import build_lattice, family_mkr
from arrstab.fim import MultiIndex, ambient_dim
from arrstab.homology import LatticeHomology, reduced_betti
from test_homology import whitney_homology_dims

mi = MultiIndex


def brute_force_complement_count(spec, level, q):
    """Count F_q points outside every generator preimage, from raw constraints.

    A point lies on the preimage along f when each generator row vanishes on
    the coordinates f selects: component t of source point i in factor j
    reads component t of target point f_j(i).
    """
    n = spec.r * sum(level)
    offsets = [sum(level[:j]) for j in range(len(level))]
    preimages = []
    for degree, sub in spec.generators:
        rows = [[e.numerator % q for e in row] for row in sub.constraints.entries]
        assert all(e.denominator == 1 for row in sub.constraints.entries for e in row)
        injections = itertools.product(
            *(itertools.permutations(range(d), c) for c, d in zip(degree, level))
        )
        for f in injections:
            selected = [
                (offsets[j] + image) * spec.r + t
                for j, images in enumerate(f)
                for image in images
                for t in range(spec.r)
            ]
            preimages.append((rows, selected))
    count = 0
    for point in itertools.product(range(q), repeat=n):
        inside_union = any(
            all(
                sum(c * point[k] for c, k in zip(row, selected)) % q == 0
                for row in rows
            )
            for rows, selected in preimages
        )
        if not inside_union:
            count += 1
    return count


def mobius_side_count(spec, level, q):
    lat = build_lattice(spec, level, max(1, ambient_dim(level, spec.r)))
    ctx = LatticeHomology(lat)
    total = q ** ambient_dim(level, spec.r)
    for idx in range(len(lat)):
        _, complex_ = ctx.interval(idx)
        euler = sum(
            (-1) ** d * reduced_betti(complex_, d)
            for d in range(-1, complex_.dimension + 1)
        )
        x = lat.elements[idx]
        total += euler * q ** (x.ambient_dim - x.codim)
    return total


def test_point_count_braid_three():
    spec = family_mkr(1, 2, 1)
    level = mi((3,))
    for q in (3, 5):
        brute = brute_force_complement_count(spec, level, q)
        assert brute == q * (q - 1) * (q - 2)
        assert mobius_side_count(spec, level, q) == brute


def test_point_count_braid_four():
    spec = family_mkr(1, 2, 1)
    level = mi((4,))
    assert mobius_side_count(spec, level, 3) == brute_force_complement_count(
        spec, level, 3
    )
    assert mobius_side_count(spec, level, 5) == 5 * 4 * 3 * 2


def test_point_count_k_equals():
    spec = family_mkr(1, 3, 1)
    level = mi((4,))
    for q in (2, 3):
        assert mobius_side_count(spec, level, q) == brute_force_complement_count(
            spec, level, q
        )


def test_point_count_two_factor():
    spec = family_mkr(2, 1, 1)
    for level in (mi((2, 1)), mi((2, 2))):
        for q in (2, 3):
            assert mobius_side_count(spec, level, q) == brute_force_complement_count(
                spec, level, q
            )


def test_point_count_higher_r():
    spec = family_mkr(1, 2, 2)
    level = mi((2,))
    assert mobius_side_count(spec, level, 3) == brute_force_complement_count(
        spec, level, 3
    )


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def test_k_equals_lattice_census_oracle(get_lattice):
    # lattice of partitions whose nonsingleton blocks have size >= 3
    spec = family_mkr(1, 3, 1)
    for n in (4, 5, 6):
        expected = sum(
            1
            for blocks in set_partitions(range(n))
            if any(len(b) > 1 for b in blocks)
            and all(len(b) == 1 or len(b) >= 3 for b in blocks)
        )
        lat = get_lattice(spec, mi((n,)), n)
        assert len(lat) == expected


def test_whitney_braid5(braid, get_lattice):
    # signless Whitney numbers of the rank-4 partition lattice
    lat = get_lattice(braid, mi((5,)), 5)
    assert whitney_homology_dims(lat) == {
        1: 10,
        2: 35,
        3: 50,
        4: 24,
    }


def test_two_generator_arrangement_free_decomposition(get_lattice, freeness_report):
    # diagonal and antidiagonal generators: two primitive classes share the
    # degree (2), and the freeness decomposition must keep them apart
    from arrstab.arrangement import ArrangementSpec
    from arrstab.characters import character_of_cohomology
    from arrstab.checks import primitive_classes, verify_normal
    from arrstab.exactlin import subspace_from_constraints
    from arrstab.fim import ConjClass

    spec = ArrangementSpec(
        1,
        1,
        (
            (mi((2,)), subspace_from_constraints(2, [[1, -1]])),
            (mi((2,)), subspace_from_constraints(2, [[1, 1]])),
        ),
    )
    assert verify_normal(spec, [mi((2,))]).normal
    classes = primitive_classes(spec, 1, get_lattice)
    assert [(c.degree, c.subspace.serialize()) for c in classes] == [
        (mi((2,)), "2:1,-1"),
        (mi((2,)), "2:1,1"),
    ]
    chi = character_of_cohomology(spec, mi((3,)), 1, get_lattice)
    assert dict(chi.values) == {
        ConjClass(((1, 1, 1),)): 6,
        ConjClass(((2, 1),)): 2,
        ConjClass(((3,),)): 0,
    }
    levels = [mi((2,)), mi((3,)), mi((4,))]
    chars = {
        i: {lv: character_of_cohomology(spec, lv, i, get_lattice) for lv in levels}
        for i in (1, 2)
    }
    for i in (1, 2):
        report = freeness_report(spec, i, chars[i])
        assert report.passed
    report2 = freeness_report(spec, 2, chars[2])
    assert len(report2.classes) == 6  # includes the origin of Q^2 at degree (2)


def test_higher_r_character_matches_fixed_pair_oracle(get_lattice):
    # for r = 2 the lowest nonvanishing cohomology sits in degree 3 and its
    # character is still the fixed-pair count: only the codim-2 minimal
    # elements contribute, each a fixed point of weight one
    import itertools as it

    from arrstab.characters import character_of_cohomology
    from arrstab.fim import class_representative, conj_classes

    spec = family_mkr(1, 2, 2)
    for n in (3, 4):
        chi = character_of_cohomology(spec, mi((n,)), 3, get_lattice)
        for c in conj_classes(mi((n,))):
            perm = class_representative(c).perms[0]
            fixed_pairs = sum(
                1
                for a, b in it.combinations(range(n), 2)
                if {perm[a], perm[b]} == {a, b}
            )
            assert chi(c) == fixed_pairs


# --- braid in closed form: twisted point counts of PConf_n ------------------
#
# Let sigma have m_l cycles of length l.  The points p of PConf_n over the
# algebraic closure of F_q with Frob(p) = sigma.p number
# prod_l prod_{t < m_l} l * (M_l(q) - t), where M_l(q) = (1/l) sum_{d | l}
# mu(d) q^{l/d} counts the monic irreducibles of degree l; and
# tr(sigma | H^i) = (-1)^i [q^{n-i}] of that product (Lehrer 1987;
# Church-Ellenberg-Farb 2014).  The oracle reads no lattice.


def mobius_function(d):
    value, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            value = -value
        p += 1
    return -value if d > 1 else value


def truncated_product(a, b, top):
    """The leading ``top`` + 1 coefficients of the product of two polynomials
    given by their coefficients from the leading one down."""
    out = [0] * min(top + 1, len(a) + len(b) - 1)
    for s, x in enumerate(a[: len(out)]):
        for t, y in enumerate(b[: len(out) - s]):
            out[s + t] += x * y
    return out


@functools.lru_cache(maxsize=None)
def cycle_factor(length, count, top):
    """prod_{t < count} length * (M_length(q) - t), from q^(length * count)
    down, its leading ``top`` + 1 coefficients."""
    necklaces = [0] * (length + 1)  # length * M_length(q), from q^length down
    for d in range(1, length + 1):
        if length % d == 0:
            necklaces[length - length // d] += mobius_function(d)
    product = [1]
    for t in range(count):
        product = truncated_product(product, necklaces[:-1] + [necklaces[-1] - length * t], top)
    return product


def braid_closed_form_trace(parts, i):
    """tr(sigma | H^i(PConf_n)) for sigma of cycle type ``parts``: (-1)^i
    times the coefficient of q^(n - i), the i-th from the leading one."""
    if sum(parts) - i < 0:
        return 0  # no such coefficient: never read the list from its far end
    poly = [1]
    for length in set(parts):
        poly = truncated_product(poly, cycle_factor(length, parts.count(length), i), i)
    return (-1) ** i * poly[i]


def test_braid_closed_form_reads_no_negative_coefficient():
    # n - i < 0: H^i(PConf_n) vanishes; poly[-1] would be the leading 1
    assert braid_closed_form_trace((1,), 2) == 0
    assert braid_closed_form_trace((2,), 3) == 0
    assert braid_closed_form_trace((1, 1), 1) == 1
    assert braid_closed_form_trace((2,), 1) == 1  # H^1(PConf_2) is trivial


def test_braid_engine_characters_match_the_closed_form(braid, get_lattice):
    from arrstab.characters import character_of_cohomology
    from arrstab.fim import conj_classes

    for n in range(1, 9):
        for i in range(6):  # past n - 1 at n <= 5, where H^i is 0
            chi = character_of_cohomology(braid, mi((n,)), i, get_lattice)
            for c in conj_classes(mi((n,))):
                assert chi(c) == braid_closed_form_trace(c.parts[0], i), (n, i, c)


def test_braid_polynomials_match_the_closed_form_to_thirty(braid, freeness_inputs):
    # P_i, read off the primitive table of class degrees <= 2i, at every
    # class of every level up to 30.  P_i reads the counts of cycles of
    # length <= 2i only, so it is evaluated once per such counts, in integers
    import math
    from collections import Counter

    from arrstab.checks import fit_character_polynomial
    from arrstab.fim import partitions

    top = 3
    scaled = []
    for i in range(top + 1):
        poly = fit_character_polynomial(freeness_inputs(braid, i)[2], 1)
        scale = math.lcm(*(v.denominator for _, v in poly.coeffs))
        scaled.append((scale, [(mono, int(v * scale)) for mono, v in poly.coeffs]))

    @functools.lru_cache(maxsize=None)
    def scaled_values(counts):
        return [
            sum(v * math.prod(counts[k - 1] ** e for (_, k), e in mono) for mono, v in terms)
            for _, terms in scaled
        ]

    checked = 0
    for n in range(31):
        for parts in partitions(n):
            counts = Counter(parts)
            derived = scaled_values(tuple(counts[k] for k in range(1, 2 * top + 1)))
            expected = [scale * braid_closed_form_trace(parts, i) for i, (scale, _) in enumerate(scaled)]
            assert derived == expected, parts
            checked += 1
    assert checked == sum(len(partitions(n)) for n in range(31)) == 28629
