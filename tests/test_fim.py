import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrstab.exactlin import subspace_from_constraints
from arrstab.fim import (
    ClassFunction,
    ConjClass,
    Injection,
    MultiIndex,
    PermTuple,
    class_representative,
    compose_images,
    conj_classes,
    coordinate_permutation,
    degree_add,
    degree_times,
    enumerate_injections,
    group_order,
    partitions,
    perm_tuples,
    pullback,
    pushforward,
)

mi = MultiIndex


# Group arithmetic that no engine path needs: the former ``PermTuple``
# methods, kept here as tools of the tests.


def compose(g, h):
    """g o h: apply h first."""
    return PermTuple(tuple(tuple(p[i] for i in q) for p, q in zip(g.perms, h.perms)))


def inverse(g):
    return PermTuple(tuple(tuple(sorted(range(len(p)), key=p.__getitem__)) for p in g.perms))


def conjugacy_class(g):
    """The class of g's cycle type, factor by factor."""
    parts = []
    for p in g.perms:
        seen = set()
        lengths = []
        for start in range(len(p)):
            length = 0
            while start not in seen:
                seen.add(start)
                start = p[start]
                length += 1
            if length:
                lengths.append(length)
        parts.append(tuple(sorted(lengths, reverse=True)))
    return ConjClass(tuple(parts))


def identity_class(level):
    return ConjClass(tuple((1,) * n for n in level))


def test_enumerate_injections_falling_factorial():
    assert len(enumerate_injections(mi((2,)), mi((4,)))) == 12


def test_enumerate_injections_two_factors():
    assert len(enumerate_injections(mi((1, 1)), mi((2, 1)))) == 2


def test_enumerate_injections_empty_when_no_room():
    assert enumerate_injections(mi((3,)), mi((2,))) == ()


def test_enumerate_injections_lex_order():
    injections = enumerate_injections(mi((2,)), mi((3,)))
    images = [f.images[0] for f in injections]
    assert images == sorted(images)
    assert images[0] == (0, 1)


def zero(n):
    return subspace_from_constraints(n, [[int(i == j) for j in range(n)] for i in range(n)])


# The kernel of the map induced by f is the preimage of the zero subspace;
# its constraint rows are the rows of the selection matrix.


def test_induced_map_selects_points():
    f = Injection(((0, 2),), mi((3,)))
    assert pullback(f, 1, zero(2)) == subspace_from_constraints(
        3, [[1, 0, 0], [0, 0, 1]]
    )
    x = subspace_from_constraints(2, [[1, -2]])
    assert pullback(f, 1, x) == subspace_from_constraints(3, [[1, 0, -2]])
    assert pushforward(f, 1, pullback(f, 1, x)) == x


def test_induced_map_identity():
    f = Injection(((0, 1, 2),), mi((3,)))
    assert pullback(f, 1, zero(3)) == zero(3)
    for x in (zero(3), subspace_from_constraints(3, []), subspace_from_constraints(3, [[1, 2, 3]])):
        assert pullback(f, 1, x) == x
        assert pushforward(f, 1, x) == x


def test_induced_map_r2_kernel():
    f = Injection(((1,),), mi((2,)))
    kernel = pullback(f, 2, zero(2))
    assert kernel == subspace_from_constraints(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert kernel.ambient_dim - kernel.codim == 2


def test_conj_classes_s3():
    classes = conj_classes(mi((3,)))
    assert [c.parts[0] for c in classes] == [(1, 1, 1), (2, 1), (3,)]
    assert [c.size for c in classes] == [1, 3, 2]


def test_conj_classes_product():
    classes = conj_classes(mi((2, 2)))
    assert len(classes) == 4
    assert all(c.size == 1 for c in classes)


def test_conj_classes_empty_object():
    classes = conj_classes(mi((0,)))
    assert len(classes) == 1
    assert classes[0].size == 1


def test_class_sizes_sum_to_group_order():
    for n in [mi((4,)), mi((5,)), mi((6,)), mi((2, 3)), mi((0, 2))]:
        assert sum(c.size for c in conj_classes(n)) == group_order(n)


def test_class_representative_examples():
    rep = class_representative(ConjClass(((2, 1),)))
    assert rep.perms == ((1, 0, 2),)
    assert class_representative(ConjClass(((1, 1, 1),))) == PermTuple.identity(mi((3,)))
    rep2 = class_representative(ConjClass(((2,), (1, 1))))
    assert rep2.perms == ((1, 0), (0, 1))


def test_representative_has_its_class():
    for n in [mi((4,)), mi((2, 2))]:
        for c in conj_classes(n):
            assert conjugacy_class(class_representative(c)) == c


def test_degree_arithmetic():
    assert degree_add(mi((1, 1)), mi((1, 1))) == mi((2, 2))
    assert degree_times(2, mi((1, 1))) == mi((2, 2))
    assert degree_times(0, mi((5,))) == mi((0,))


def moved(g, r, vector):
    """The vector with the entry at each coordinate moved to its image."""
    out = [None] * len(vector)
    for src, dst in enumerate(coordinate_permutation(g, r)):
        out[dst] = vector[src]
    return tuple(out)


def test_act_on_vector_swap():
    g = PermTuple(((1, 0),))
    assert coordinate_permutation(g, 1) == (1, 0)
    assert coordinate_permutation(PermTuple.identity(mi((2,))), 1) == (0, 1)


def test_act_on_vector_swap_r2():
    g = PermTuple(((1, 0),))
    assert moved(g, 2, (1, 2, 3, 4)) == (3, 4, 1, 2)


def test_conjclass_render_parse():
    c = ConjClass(((2, 1), (1, 1)))
    assert c.render() == "2+1|1+1"
    # the text names the class: each factor's cycle lengths, in order
    parts = tuple(tuple(map(int, chunk.split("+"))) for chunk in c.render().split("|"))
    assert ConjClass(parts) == c


def test_class_function_domain_is_exactly_the_level_classes():
    # the domain check compares against one memoised class set per level
    level = mi((3,))
    full = dict.fromkeys(conj_classes(level), 1)
    assert ClassFunction(level, full).values == full
    # equal classes built afresh are the same domain
    assert ClassFunction(level, {ConjClass(c.parts): 2 for c in full}) == ClassFunction(level, dict.fromkeys(full, 2))
    missing = dict(full)
    del missing[ConjClass(((3,),))]
    foreign = {**full, ConjClass(((2, 1, 1),)): 1}
    replaced = {**missing, ConjClass(((1, 1),)): 1}
    for values in (missing, foreign, replaced, {}):
        with pytest.raises(ValueError, match="values must cover exactly the conjugacy classes"):
            ClassFunction(level, values)


def test_multiindex_render_parse():
    assert mi((2, 3)).render() == "2|3"
    assert MultiIndex.parse("2|3") == mi((2, 3))


def test_partitions_sorted():
    assert partitions(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))


small_levels = st.tuples(st.integers(0, 5)).map(mi) | st.tuples(
    st.integers(0, 3), st.integers(0, 3)
).map(mi)


@given(small_levels, small_levels)
@settings(max_examples=100)
def test_injection_count_formula(c, d):
    if c.m != d.m:
        return
    count = len(enumerate_injections(c, d))
    auts = math.prod(math.factorial(x) for x in c)
    assert count == math.prod(math.comb(dj, cj) for cj, dj in zip(c, d)) * auts


def _random_perm(draw_list):
    return PermTuple((tuple(draw_list),))


perms4 = st.permutations(list(range(4))).map(lambda p: PermTuple((tuple(p),)))


@given(perms4, perms4)
def test_act_on_vector_homomorphism(g, h):
    vector = tuple(range(4))
    assert moved(compose(g, h), 1, vector) == moved(g, 1, moved(h, 1, vector))


def test_contravariance_of_induced_maps():
    # g: (2) -> (3), f: (3) -> (5); V(f o g) = V(g) . V(f), so preimages
    # compose as (f o g)^* = f^* g^* and images as (f o g)_* = g_* f_*
    g = Injection(((2, 0),), mi((3,)))
    f = Injection(((1, 4, 3),), mi((5,)))
    fg = Injection(compose_images(f.images, g.images), f.target)
    assert fg.images == ((3, 1),)
    for r in (1, 2):
        for rows in ([[1, -1] * r], [[1, 2] + [0] * (2 * r - 2)], []):
            x = subspace_from_constraints(2 * r, rows)
            y = pullback(fg, r, x)
            assert y == pullback(f, r, pullback(g, r, x))
            assert pushforward(fg, r, y) == pushforward(g, r, pushforward(f, r, y)) == x
        assert pullback(fg, r, zero(2 * r)) == pullback(f, r, pullback(g, r, zero(2 * r)))


def test_coordinate_permutation_matches_matrix():
    g = PermTuple(((1, 2, 0), (1, 0)))
    # factor 0: points 0 -> 1 -> 2 -> 0 at coordinates 0..5; factor 1:
    # points 0 <-> 1 at coordinates 6..9; both components of a point move
    # together
    assert coordinate_permutation(g, 2) == (2, 3, 4, 5, 0, 1, 8, 9, 6, 7)


def test_perm_tuples_full_group():
    group = list(perm_tuples(mi((3, 2))))
    assert len(group) == 12
    assert len(set(group)) == 12
