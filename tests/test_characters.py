import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrstab.arrangement import ArrangementSpec, family_mkr
from arrstab.characters import (
    _character,
    character_of_cohomology,
    inner_product,
    invariants_dim,
    irreducible_multiplicities,
    stability_report,
    sym_character,
)
from arrstab.cache import CachingBuilder
from arrstab.checks import (
    PrimitiveClass,
    _degrees_below,
    class_degree_bound,
    class_degrees,
    fit_character_polynomial,
    fit_output,
    induced_character,
    is_primitive,
    normalize,
    primitive_characters,
    primitive_classes,
    primitive_table,
    twisted_betti,
    verify_free_decomposition,
)
from arrstab.exactlin import _pivot_columns, _rref_rows, subspace_from_constraints
from arrstab.fim import (
    ClassFunction,
    ConjClass,
    MultiIndex,
    class_representative,
    conj_classes,
    degree_add,
    degree_times,
    group_order,
    partitions,
    trivial_character,
)
from arrstab.homology import LatticeHomology
from arrstab.polynomial import CharacterPolynomial, _monomial_value
from test_fim import conjugacy_class, identity_class, inverse
from test_lattice_oracle import FAMILY_CASES, custom_specs

mi = MultiIndex


def X(k, j=1, m=1):
    return CharacterPolynomial.variable(k, j, m)


def test_evaluate_counts_cycles():
    assert X(2).evaluate(ConjClass(((2, 2, 1),))) == 2


def test_evaluate_product_across_factors():
    p = X(1, 1, 2) * X(1, 2, 2)
    assert p.evaluate(ConjClass(((1, 1), (1,)))) == 2


def test_evaluate_binomial_combination():
    p = X(1) * (X(1) - 1) / 2 + X(2)
    assert p.evaluate(ConjClass(((2, 1),))) == 1
    assert p.evaluate(ConjClass(((1, 1, 1),))) == 3
    assert p.evaluate(ConjClass(((3,),))) == 0


def test_polynomial_render():
    p = X(1, 1, 2) * X(1, 2, 2) - 2 * X(2, 1, 2) * X(2, 2, 2)
    assert p.render() == "X1^(1)*X1^(2) - 2*X2^(1)*X2^(2)"
    assert CharacterPolynomial.parse("0", m=1) == CharacterPolynomial.from_dict(1, {})


def polynomials(m):
    """Random polynomials with m factors: up to five terms, each a product of
    up to three powers X_k^{(j)}^e with k <= 4 and e <= 3."""
    monomial = st.dictionaries(
        st.tuples(st.integers(0, m - 1), st.integers(1, 4)), st.integers(1, 3), max_size=3
    ).map(lambda exps: tuple(sorted(exps.items())))
    coeff = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    return st.dictionaries(monomial, coeff, max_size=5).map(
        lambda data: CharacterPolynomial.from_dict(m, data)
    )


@given(st.sampled_from([1, 2]).flatmap(polynomials))
@settings(max_examples=200)
@example(X(1, 1, 2) * X(1, 2, 2) - 2 * X(2, 1, 2) * X(2, 2, 2))
@example(X(1) * (X(1) - 1) / 2 + X(2))
def test_polynomial_render_and_parse_roundtrip(p):
    assert CharacterPolynomial.parse(p.render(), m=p.m) == p


def test_parse_drops_zero_exponents():
    assert CharacterPolynomial.parse("X1^(1)^0") == CharacterPolynomial.constant(1)
    assert CharacterPolynomial.parse("2*X1^(1)^0*X2^(1)") == 2 * X(2)
    assert CharacterPolynomial.parse("X1^(1)^0").multidegree() == mi((0,))


@pytest.mark.parametrize(
    "text, message",
    [
        ("X0^(1)", "cycle length must be positive"),
        ("X1^(1)-", "malformed polynomial"),
        ("--X1^(1)", "malformed polynomial"),
        ("X1^(1)+-X2^(1)", "malformed polynomial"),
        ("3/0", "zero denominator"),
        ("X1^(2)", "factor index 2 out of range"),
        ("X1^(1)**X2^(1)", "Invalid literal"),
    ],
)
def test_parse_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=message):
        CharacterPolynomial.parse(text)


def test_multidegree():
    p = X(1, 1, 2) * X(1, 2, 2)
    assert p.multidegree() == mi((1, 1))
    q = X(1) * (X(1) - 1) / 2 + X(2)
    assert q.multidegree() == mi((2,))


def test_binomial_basis_form(braid, freeness_inputs, capsys):
    # the fit renders the primitive table's own values as the binomial form
    tables = [freeness_inputs(braid, i)[2] for i in range(3)]
    entries, findings = fit_output(braid, tables, [{}, {}, {}], None)
    assert [entry["binomial_form"] for entry in entries] == [
        "1",
        "binom(X1^(1),2) + X2^(1)",
        "2*binom(X1^(1),3) - X3^(1) + binom(X1^(1),2)*X2^(1) + 3*binom(X1^(1),4)"
        " - binom(X2^(1),2) - X4^(1)",
    ]
    assert findings == []
    assert capsys.readouterr().out.splitlines()[1] == "fit i=1: -1/2*X1^(1) + 1/2*X1^(1)^2 + X2^(1)"


def test_character_of_cohomology_braid3(braid, get_lattice):
    chi = character_of_cohomology(braid, mi((3,)), 1, get_lattice)
    assert dict(chi.values) == {
        ConjClass(((1, 1, 1),)): 3,
        ConjClass(((2, 1),)): 1,
        ConjClass(((3,),)): 0,
    }


def test_character_of_cohomology_degree_zero(braid):
    chi = character_of_cohomology(braid, mi((3,)), 0)
    assert all(v == 1 for v in chi.values.values())


def test_character_of_cohomology_two_factor(get_lattice):
    spec = family_mkr(2, 1, 1)
    chi = character_of_cohomology(spec, mi((2, 1)), 1, get_lattice)
    assert chi(identity_class(chi.level)) == 2


def test_fit_pconf_h1(braid, get_lattice, freeness_inputs):
    poly = fit_character_polynomial(freeness_inputs(braid, 1)[2], 1)
    assert poly == X(1) * (X(1) - 1) / 2 + X(2)
    # the reports render Fractions
    assert all(type(v) is Fraction for _, v in poly.coeffs)
    # the polynomial reads no level: check it at one the table never saw
    chi7 = character_of_cohomology(braid, mi((7,)), 1, get_lattice)
    assert all(poly.evaluate(c) == chi7(c) for c in chi7.values)


def test_fit_two_factor_product(freeness_inputs):
    spec = family_mkr(2, 1, 1)
    poly = fit_character_polynomial(freeness_inputs(spec, 1)[2], 2)
    assert poly == X(1, 1, 2) * X(1, 2, 2)
    assert poly.multidegree() == mi((1, 1))


def test_fit_constant():
    # H^0 is generated at degree 0 by the trivial character
    for m in (1, 2):
        assert primitive_table(0, {}) == {(): 1}
        assert fit_character_polynomial(primitive_table(0, {}), m) == CharacterPolynomial.constant(1, m)


def test_fit_reproduces_all_samples_exactly(braid, get_lattice, freeness_inputs):
    jobs = [
        (braid, [mi((n,)) for n in range(2, 7)], 1),
        (family_mkr(2, 1, 1), [mi((a, b)) for a in (1, 2, 3) for b in (1, 2, 3)], 1),
    ]
    for spec, levels, i in jobs:
        poly = fit_character_polynomial(freeness_inputs(spec, i)[2], spec.m)
        for level in levels:
            chi = character_of_cohomology(spec, level, i, get_lattice)
            for c in conj_classes(level):
                assert poly.evaluate(c) == chi(c)


def test_fit_inconsistent_signal(braid, get_lattice, freeness_inputs, level_matches, capsys):
    # a primitive value off by one: the fit finds its polynomial misses the
    # computed character, as the freeness check does
    levels = [mi((n,)) for n in range(2, 6)]
    chars = [{lv: character_of_cohomology(braid, lv, i, get_lattice) for lv in levels} for i in range(3)]
    generators, classes, table = freeness_inputs(braid, 2)
    tables = [freeness_inputs(braid, i)[2] for i in range(2)]
    matches = [level_matches(c, t) for c, t in zip(chars, tables + [table])]
    assert fit_output(braid, tables + [table], matches, None)[1] == []
    mono = (((0, 1), 3),)  # the identity of Aut(3)
    mutated = {**table, mono: table[mono] + 1}
    matches[2] = level_matches(chars[2], mutated)
    _, findings = fit_output(braid, tables + [mutated], matches, mi((3,)))
    assert findings == [
        "fit i=2: multidegree 4 exceeds bound 3",
        "fit i=2: polynomial misses the character at level 3",
        "fit i=2: polynomial misses the character at level 4",
        "fit i=2: polynomial misses the character at level 5",
    ]
    report = verify_free_decomposition(braid, 2, matches[2], generators, classes)
    assert [ok for _, ok in report.level_matches] == [True, False, False, False]


def test_fit_underdetermined_signal():
    # 12 monomials within degree (4) but these two levels only give rank 11:
    # the former solve needed more levels, the derived polynomial reads none
    samples = [(mi((n,)), trivial_character(mi((n,)))) for n in (4, 5)]
    with pytest.raises(Underdetermined):
        old_fit(samples, mi((4,)))
    poly = fit_character_polynomial(primitive_table(0, {}), 1)
    assert all(poly.as_class_function(level) == chi for level, chi in samples)


def test_inner_product_burnside():
    for n in range(1, 7):
        lv = mi((n,))
        assert inner_product(X(1).as_class_function(lv), trivial_character(lv)) == 1


def test_inner_product_permutation_character():
    assert inner_product(
        X(1).as_class_function(mi((1,))), X(1).as_class_function(mi((1,)))
    ) == 1
    for n in range(2, 7):
        lv = mi((n,))
        chi = X(1).as_class_function(lv)
        assert inner_product(chi, chi) == 2


def test_inner_product_trivial():
    lv = mi((4,))
    assert inner_product(trivial_character(lv), trivial_character(lv)) == 1


def test_inner_product_divides_once_and_is_an_int_when_exact(braid, get_lattice):
    # sum size * a(c) * b(c), then one division by |G|: an int when exact
    for n in range(2, 6):
        lv = mi((n,))
        for i in range(n):
            chi = character_of_cohomology(braid, lv, i, get_lattice)
            assert all(type(v) is int for v in chi.values.values())
            for other in (chi, trivial_character(lv)):
                value = inner_product(chi, other)
                assert type(value) is int
                assert value == sum(
                    Fraction(c.size * chi(c) * other(c), group_order(lv)) for c in conj_classes(lv)
                )
    # the identity's indicator pairs to 1/|G| with the trivial character
    lv = mi((3,))
    point = ClassFunction(lv, {c: int(c == identity_class(lv)) for c in conj_classes(lv)})
    value = inner_product(point, trivial_character(lv))
    assert isinstance(value, Fraction) and value == Fraction(1, 6)
    assert type(inner_product(point, ClassFunction(lv, dict.fromkeys(conj_classes(lv), 6)))) is int


def test_tensor_and_dual(braid, get_lattice):
    lv = mi((3,))
    chi = character_of_cohomology(braid, lv, 1, get_lattice)
    # the tensor character is the pointwise product: X1 on ordered pairs of
    # points is X1^2, and the trivial character is the unit
    x1 = X(1).as_class_function(lv)
    assert {c: x1(c) * x1(c) for c in x1.values} == (X(1) * X(1)).as_class_function(lv).values
    assert (X(1) * X(1)).as_class_function(lv)(identity_class(lv)) == 9
    assert {c: trivial_character(lv)(c) * chi(c) for c in chi.values} == chi.values
    # the dual takes the value at the inverse class, which is the class itself
    for c in conj_classes(lv):
        assert chi(conjugacy_class(inverse(class_representative(c)))) == chi(c)


def induction_character(c, chi_w, n):
    """The character at level n of the free module generated at c by chi_w."""
    return induced_character(primitive_table(1, {c: {"": chi_w}}), n)


def test_induction_character_points():
    for n in (3, 4, 5):
        lv = mi((n,))
        ind = induction_character(mi((1,)), trivial_character(mi((1,))), lv)
        assert ind == X(1).as_class_function(lv)


def test_induction_character_pairs():
    ind = induction_character(mi((2,)), trivial_character(mi((2,))), mi((3,)))
    assert dict(ind.values) == {
        ConjClass(((1, 1, 1),)): 3,
        ConjClass(((2, 1),)): 1,
        ConjClass(((3,),)): 0,
    }
    assert all(type(v) is int for v in ind.values.values())


def test_induction_character_same_level_is_identity():
    lv = mi((3,))
    chi = X(1).as_class_function(lv)
    assert induction_character(lv, chi, lv) == chi


def test_induction_character_unreachable_level():
    ind = induction_character(mi((3,)), trivial_character(mi((3,))), mi((2,)))
    assert all(v == 0 for v in ind.values.values())


def test_free_decomposition_braid_h1(braid, get_lattice, freeness_report):
    chars = {
        lv: character_of_cohomology(braid, lv, 1, get_lattice)
        for lv in [mi((3,)), mi((4,)), mi((5,))]
    }
    report = freeness_report(braid, 1, chars)
    assert report.passed
    assert [c.degree for c in report.classes] == [mi((2,))]
    chi_gen = report.classes[0].generator_character
    assert all(v == 1 for v in chi_gen.values.values())  # trivial rep of S_2


def test_free_decomposition_braid_h2(braid, get_lattice, freeness_report):
    chars = {
        lv: character_of_cohomology(braid, lv, 2, get_lattice)
        for lv in [mi((4,)), mi((5,))]
    }
    report = freeness_report(braid, 2, chars)
    assert report.passed
    assert [c.degree for c in report.classes] == [mi((3,)), mi((4,))]


def test_free_decomposition_k_equals_degree_bound(get_lattice, freeness_report):
    spec = family_mkr(1, 3, 1)
    chars = {
        lv: character_of_cohomology(spec, lv, 1, get_lattice)
        for lv in [mi((3,)), mi((4,))]
    }
    report = freeness_report(spec, 1, chars)
    assert report.passed
    assert report.degree_bound == mi((3,))
    assert all(c.degree.leq(mi((3,))) for c in report.classes)


def test_free_decomposition_two_factor(get_lattice, freeness_report):
    spec = family_mkr(2, 1, 1)
    levels = [mi((2, 2)), mi((3, 2)), mi((3, 3))]
    for i in (1, 2):
        chars = {lv: character_of_cohomology(spec, lv, i, get_lattice) for lv in levels}
        report = freeness_report(spec, i, chars)
        assert report.passed


def test_free_decomposition_flags_a_wrong_character(braid, get_lattice, freeness_report):
    levels = [mi((3,)), mi((4,))]
    chars = {lv: character_of_cohomology(braid, lv, 1, get_lattice) for lv in levels}
    chars[mi((4,))] = trivial_character(mi((4,)))
    report = freeness_report(braid, 1, chars)
    assert report.level_matches == ((mi((3,)), True), (mi((4,)), False))
    assert not report.passed


def test_free_decomposition_flags_a_class_above_the_degree_bound(
    braid, get_lattice, freeness_inputs, level_matches
):
    # no primitive class of codim c lies above c * cmax, so the class is
    # synthetic: codim 1 at degree 3 > 1 * 2, with a zero generator
    # character, which leaves every level matching
    levels = [mi((3,)), mi((4,))]
    chars = {lv: character_of_cohomology(braid, lv, 1, get_lattice) for lv in levels}
    generators, classes, table = freeness_inputs(braid, 1)
    high = subspace_from_constraints(3, [[1, -1, 0]])
    synthetic = PrimitiveClass(mi((3,)), (high,), 2, ())
    zero = ClassFunction(mi((3,)), {c: Fraction(0) for c in conj_classes(mi((3,)))})
    generators = {**generators, mi((3,)): {high.serialization: zero}}
    assert primitive_table(1, generators) == table
    matches = level_matches(chars, table)
    report = verify_free_decomposition(braid, 1, matches, generators, classes + (synthetic,))
    assert report.degree_bound == mi((2,))
    assert all(ok for _, ok in report.level_matches)
    assert [(c.degree, c.degree_bound_ok) for c in report.classes] == [
        (mi((2,)), True),
        (mi((3,)), False),
    ]
    assert not report.passed


# generators at (1,1) and (2,0): most class degrees, such as (3,0) or (4,2),
# lie outside a job's levels (1,1)..(2,2)
TWO_GENERATOR_FI2 = ArrangementSpec(
    2,
    1,
    (
        (mi((1, 1)), subspace_from_constraints(2, [[1, -1]])),
        (mi((2, 0)), subspace_from_constraints(2, [[1, -1]])),
    ),
)


@pytest.mark.parametrize(
    "spec, top",
    [
        (family_mkr(1, 2, 1), 3),
        (family_mkr(1, 3, 1), 3),
        (family_mkr(1, 2, 2), 4),
        (family_mkr(2, 1, 1), 2),
        (TWO_GENERATOR_FI2, 2),
    ],
)
def test_primitive_characters_match_a_context_per_degree(spec, top, get_lattice):
    # the route the freeness check took before it read the level results:
    # one context per (class degree e, degree i) on the codim-i lattice
    classes = primitive_classes(spec, top, get_lattice)
    for e in class_degrees(spec, top):
        ctx = LatticeHomology(get_lattice(spec, e, top))
        for i in range(1, top + 1):
            expected = {}
            if e.leq(degree_times(i, spec.cmax)):
                fresh = LatticeHomology(get_lattice(spec, e, i))
                for cls in classes:
                    if cls.degree != e or cls.codim > i:
                        continue
                    orbit = fresh.lattice.orbits[fresh.lattice.elements.index(cls.subspace)]
                    chi = _character(fresh, e, i, orbit)
                    if any(chi.values.values()):
                        expected[cls.subspace.serialization] = chi
            assert primitive_characters(spec, ctx, i) == expected, (e, i)


def test_invariants_dim(braid, get_lattice):
    chi1 = character_of_cohomology(braid, mi((3,)), 1, get_lattice)
    assert invariants_dim(chi1) == 1
    chi2 = character_of_cohomology(braid, mi((4,)), 2, get_lattice)
    assert invariants_dim(chi2) == 0
    assert invariants_dim(trivial_character(mi((4,)))) == 1


def test_invariants_dim_rejects_non_characters():
    lv = mi((2,))
    fake = ClassFunction(
        lv, {c: Fraction(1, 3) for c in conj_classes(lv)}
    )
    with pytest.raises(ValueError):
        invariants_dim(fake)
    # int values too, when |G| does not divide the weighted sum of size * chi
    for n in (2, 3, 4):
        lv = mi((n,))
        fake = ClassFunction(lv, {c: int(c == identity_class(lv)) for c in conj_classes(lv)})
        assert sum(c.size * fake(c) for c in conj_classes(lv)) % group_order(lv)
        with pytest.raises(ValueError, match="not an integer"):
            invariants_dim(fake)


def test_twisted_betti(braid, get_lattice):
    lv = mi((3,))
    chi = character_of_cohomology(braid, lv, 1, get_lattice)
    x1 = X(1).as_class_function(lv)
    assert twisted_betti(chi, x1) == 2
    assert twisted_betti(chi, trivial_character(lv)) == invariants_dim(chi)
    assert twisted_betti(trivial_character(lv), x1) == 1


def test_irreducible_multiplicities_h1(braid, get_lattice):
    chi = character_of_cohomology(braid, mi((3,)), 1, get_lattice)
    mult = irreducible_multiplicities(chi)
    assert mult[((3,),)] == 1
    assert mult[((2, 1),)] == 1
    assert mult[((1, 1, 1),)] == 0


def test_irreducible_multiplicities_trivial():
    mult = irreducible_multiplicities(trivial_character(mi((5,))))
    assert mult[((5,),)] == 1
    assert all(v == 0 for lam, v in mult.items() if lam != ((5,),))


def test_irreducible_multiplicities_permutation_character():
    mult = irreducible_multiplicities(X(1).as_class_function(mi((4,))))
    assert mult[((4,),)] == 1
    assert mult[((3, 1),)] == 1
    assert all(v == 0 for lam, v in mult.items() if lam not in {((4,),), ((3, 1),)})


def test_irreducible_multiplicities_cost_guard():
    with pytest.raises(ValueError):
        irreducible_multiplicities(trivial_character(mi((9,))))


def test_mn_orthogonality_up_to_six():
    for n in range(1, 7):
        classes = conj_classes(mi((n,)))
        order = group_order(mi((n,)))
        for lam, mu in itertools.combinations_with_replacement(partitions(n), 2):
            ip = (
                sum(
                    Fraction(c.size)
                    * sym_character(lam, c.parts[0])
                    * sym_character(mu, c.parts[0])
                    for c in classes
                )
                / order
            )
            assert ip == (1 if lam == mu else 0)


def test_mn_known_values():
    assert sym_character((2, 1), (1, 1, 1)) == 2
    assert sym_character((2, 1), (2, 1)) == 0
    assert sym_character((2, 1), (3,)) == -1
    assert sym_character((4,), (2, 1, 1)) == 1
    assert sym_character((1, 1, 1, 1), (2, 1, 1)) == -1


def test_engine_multiplicities_are_nonnegative_integers(braid, get_lattice):
    for n, i in [(4, 1), (4, 2), (5, 2)]:
        chi = character_of_cohomology(braid, mi((n,)), i, get_lattice)
        for mult in irreducible_multiplicities(chi).values():
            assert mult.denominator == 1 and mult >= 0


def test_inner_products_stabilize_at_sum_of_degrees():
    pairs = [
        (X(1), X(1)),
        (X(1) * (X(1) - 1) / 2 + X(2), X(1)),
        (X(2), X(2)),
        (X(3), X(1) * X(2)),
        (X(1) * X(1), X(1)),
    ]
    for p, q in pairs:
        onset = p.multidegree()[0] + q.multidegree()[0]
        values = {}
        for n in range(1, 9):
            lv = mi((n,))
            values[n] = inner_product(p.as_class_function(lv), q.as_class_function(lv))
        stable = values[8]
        for n in range(onset, 9):
            assert values[n] == stable, (p.render(), q.render(), n)


def test_stability_report_h1_dims():
    values = {mi((n,)): Fraction(1) for n in (2, 3, 4, 5)}
    report = stability_report(values, mi((2,)))
    assert report.stable_value == 1
    assert report.onsets == (mi((2,)),)
    assert report.meets_prediction


def test_stability_report_inner_product_onset():
    p = X(1) * (X(1) - 1) / 2 + X(2)
    values = {}
    for n in range(2, 8):
        lv = mi((n,))
        values[lv] = inner_product(p.as_class_function(lv), X(1).as_class_function(lv))
    report = stability_report(values, mi((3,)))
    assert report.stable_value == 2
    assert report.onsets == (mi((3,)),)
    assert report.meets_prediction


def test_stability_report_constant_sequence():
    values = {mi((n,)): Fraction(7) for n in (1, 2, 3)}
    report = stability_report(values, mi((0,)))
    assert report.onsets == (mi((1,)),)
    assert report.meets_prediction


def test_stability_report_detects_late_onset():
    values = {mi((1,)): Fraction(0), mi((2,)): Fraction(1), mi((3,)): Fraction(1)}
    report = stability_report(values, mi((1,)))
    assert not report.meets_prediction
    assert report.violations == (mi((1,)),)


# The former implementations, kept as oracles: the recursive monomial box,
# the Fraction evaluation loop, the renderer, the binomial form by a dense
# change of basis, and the fit: one exact solve over one CharacterPolynomial
# per basis monomial, which needs a degree bound and enough sampled levels.


class Inconsistent(Exception):
    """No polynomial of the bound's multidegree matches the samples."""


class Underdetermined(Exception):
    """The samples leave free coefficients."""


def old_monomials_within(bound):
    per_factor = []
    for j, cap in enumerate(bound):
        factor_monos = []

        def rec(k, budget, acc):
            factor_monos.append(tuple(acc))
            for kk in range(k, budget + 1):
                for e in range(1, budget // kk + 1):
                    acc.append(((j, kk), e))
                    rec(kk + 1, budget - kk * e, acc)
                    acc.pop()

        rec(1, cap, [])
        per_factor.append(sorted(set(factor_monos)))
    out = []
    for combo in itertools.product(*per_factor):
        out.append(tuple(sorted(e for chunk in combo for e in chunk)))
    return sorted(set(out), key=CharacterPolynomial._key)


def old_evaluate(p, c):
    total = Fraction(0)
    for mono, coeff in p.coeffs:
        term = coeff
        for (j, k), e in mono:
            term *= Fraction(c.multiplicity(j, k)) ** e
            if term == 0:
                break
        total += term
    return total


def old_render_terms(terms, factor):
    pieces = []
    for mono, coeff in terms:
        body = "*".join(factor(j, k, e) for (j, k), e in mono)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        pieces.append((coeff < 0, text))
    if not pieces:
        return "0"
    first_neg, first = pieces[0]
    out = ("-" if first_neg else "") + first
    for neg, text in pieces[1:]:
        out += (" - " if neg else " + ") + text
    return out


def old_render(p):
    return old_render_terms(
        p.coeffs, lambda j, k, e: f"X{k}^({j + 1})" + (f"^{e}" if e > 1 else "")
    )


def old_fit(samples, degree_bound):
    m = degree_bound.m
    monos = old_monomials_within(degree_bound)
    basis = [CharacterPolynomial.from_dict(m, {mono: Fraction(1)}) for mono in monos]
    rows = []
    for level, chi in samples:
        for c in conj_classes(level):
            rows.append([old_evaluate(b, c) for b in basis] + [chi(c)])
    reduced = _rref_rows(rows, len(monos) + 1)
    pivots = _pivot_columns(reduced)
    if any(p == len(monos) for p in pivots):
        raise Inconsistent
    if len(pivots) < len(monos):
        raise Underdetermined
    coeffs = {mono: Fraction(0) for mono in monos}
    for row, p in zip(reduced, pivots):
        coeffs[monos[p]] = Fraction(row[-1])
    return CharacterPolynomial.from_dict(m, coeffs)


def old_binomial_basis_form(p):
    monos = old_monomials_within(p.multidegree())
    expansions = []
    for mono in monos:
        poly = CharacterPolynomial.constant(1, p.m)
        for (j, k), e in mono:
            x = CharacterPolynomial.variable(k, j + 1, p.m)
            binom = CharacterPolynomial.constant(1, p.m)
            for s in range(e):
                binom = binom * (x - s)
            poly = poly * binom / math.factorial(e)
        expansions.append(poly)
    target = dict(p.coeffs)
    rows = []
    for mono in monos:
        row = [dict(exp.coeffs).get(mono, Fraction(0)) for exp in expansions]
        row.append(target.get(mono, Fraction(0)))
        rows.append(row)
    reduced = _rref_rows(rows, len(expansions) + 1)
    coeffs = {}
    for row, pivot in zip(reduced, _pivot_columns(reduced)):
        assert pivot != len(expansions), "binomial basis failed to span"
        coeffs[monos[pivot]] = Fraction(row[-1])
    terms = [(mono, coeffs[mono]) for mono in monos if coeffs.get(mono, 0) != 0]
    return old_render_terms(
        terms, lambda j, k, e: f"binom(X{k}^({j + 1}),{e})" if e > 1 else f"X{k}^({j + 1})"
    )


def random_polynomial(rng, m, cap):
    """A seeded polynomial with up to five terms of multidegree <= (cap, ..., cap)."""
    monos = old_monomials_within(mi((cap,) * m))
    chosen = rng.sample(monos, min(len(monos), rng.randint(0, 5)))
    data = {}
    for mono in chosen:
        coeff = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        data[mono] = coeff if rng.random() < 0.8 else coeff.numerator
    return CharacterPolynomial.from_dict(m, data)


def random_polynomials(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.choice((1, 2))
        yield random_polynomial(rng, m, rng.randint(1, 4 if m == 1 else 3))


def test_monomial_values_are_ints():
    c = ConjClass(((2, 2, 1, 1, 1), (3, 1)))
    mono = (((0, 1), 2), ((0, 2), 3), ((1, 3), 1))
    assert _monomial_value(mono, c) == 9 * 8 * 1
    assert type(_monomial_value(mono, c)) is int
    assert _monomial_value((), c) == 1
    assert _monomial_value((((1, 2), 1),), c) == 0


def test_evaluate_matches_the_fraction_loop():
    levels = {1: [mi((n,)) for n in range(7)], 2: [mi((a, b)) for a in range(4) for b in range(4)]}
    for p in random_polynomials(5, 150):
        for level in levels[p.m]:
            for c in conj_classes(level):
                value = p.evaluate(c)
                assert value == old_evaluate(p, c), (p, c)
                assert type(value) is Fraction


def test_render_matches_the_former_renderer():
    polys = list(random_polynomials(6, 300))
    polys += [CharacterPolynomial.from_dict(1, {}), CharacterPolynomial.constant(-3, 2)]
    polys.append(CharacterPolynomial(1, (((), 2), ((((0, 1), 1),), -1))))  # int coefficients
    for p in polys:
        assert p.render() == old_render(p)


def random_tables(seed, count):
    """Seeded primitive tables: up to five classes of degree <= (3, ..., 3)
    with values in -4..4, as (m, table)."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.choice((1, 2))
        monos = old_monomials_within(mi((3,) * m))
        chosen = rng.sample(monos, rng.randint(0, 5))
        yield m, {mono: rng.randint(-4, 4) for mono in chosen}


def test_binomial_form_matches_the_dense_solve(capsys):
    # the fit renders the table as the binomial form and expands it into
    # powers; the former dense change of basis takes the powers back
    cases = list(random_tables(7, 100))
    assert {m for m, _ in cases} == {1, 2}
    for m, table in cases:
        entries, _ = fit_output(family_mkr(m, 2, 1), [table], [{}], None)
        poly = fit_character_polynomial(table, m)
        assert entries[0]["binomial_form"] == old_binomial_basis_form(poly), table
        assert entries[0]["polynomial"] == poly.render()


def test_fit_matches_rows_from_per_monomial_polynomials():
    # sampled at levels that dominate its multidegree, the derived polynomial
    # is what the former solve over per-monomial rows finds, where the samples
    # determine it; a sample off by one has no solution of that multidegree
    rng = random.Random(8)
    outcomes = set()
    for m, table in random_tables(9, 40):
        poly = fit_character_polynomial(table, m)
        bound = poly.multidegree()
        if m == 1:
            levels = [mi((bound[0] + t,)) for t in range(rng.randint(2, 3))]
        else:
            levels = [mi((bound[0] + a, bound[1] + b)) for a in range(2) for b in range(2)]
        samples = [(lv, induced_character(table, lv)) for lv in levels]
        assert all(chi == poly.as_class_function(lv) for lv, chi in samples)
        try:
            assert old_fit(samples, bound) == poly
            outcomes.add((m, "fit"))
        except Underdetermined:
            outcomes.add((m, Underdetermined))
        level, chi = samples[-1]
        c = conj_classes(level)[-1]
        samples[-1] = (level, ClassFunction(level, {**chi.values, c: chi(c) + 1}))
        with pytest.raises(Inconsistent):
            old_fit(samples, bound)
    assert {(m, "fit") for m in (1, 2)} <= outcomes


def test_readme_job_fits_match_the_former_fit_and_binomial_form(braid, get_lattice, freeness_inputs):
    # the README job: braid n=2..6, degrees 0..3, degree bound (2).  The
    # former solve finds P_0 and P_1; P_2 and P_3 have multidegrees 4 and 6,
    # so no polynomial within (2) matches, and within (4) levels 4..6 pin P_2
    levels = [mi((n,)) for n in range(2, 7)]
    polys = []
    for i in range(4):
        samples = [(lv, character_of_cohomology(braid, lv, i, get_lattice)) for lv in levels]
        poly = fit_character_polynomial(freeness_inputs(braid, i)[2], 1)
        polys.append(poly)
        if i < 2:
            assert old_fit(samples, mi((2,))) == poly
            assert old_binomial_basis_form(poly) == ("1", "binom(X1^(1),2) + X2^(1)")[i]
        else:
            with pytest.raises(Inconsistent):
                old_fit(samples, mi((2,)))
    assert [p.multidegree() for p in polys] == [mi((0,)), mi((2,)), mi((4,)), mi((6,))]
    samples = [(lv, character_of_cohomology(braid, lv, 2, get_lattice)) for lv in levels[2:]]
    assert old_fit(samples, mi((4,))) == polys[2]


# --- the character polynomial read off the primitive table -------------------
#
# By finite generation H^i is induced from its primitive classes, so the
# polynomial read off the table is H^i's character at every level where the
# spec is normal.  A non-normal spec is read through its normalization, whose
# lattice is the spec's own at and above the top generator degree.

I_TOP = 3  # the degrees i checked on each FAMILY_CASES spec


def degree_of(mono, m):
    """The class degree of the class with these cycle counts."""
    return mi(sum(k * b for (j, k), b in mono if j == factor) for factor in range(m))


def built_levels(spec, level):
    return [e for e in _degrees_below(mi(level)) if spec.cmax.leq(e)]


# one memo for the lattices and characters these tests read
FAMILY_LATTICES = CachingBuilder()


@functools.lru_cache(maxsize=None)
def family_character(spec, level, i):
    return character_of_cohomology(spec, level, i, FAMILY_LATTICES)


def assert_table_gives_the_characters(spec, levels, i_top, table_of):
    """P_i, and the induced characters of its table, equal H^i's character
    at every level; each table value off by one misses it at the first
    level that reaches its class degree."""
    for i in range(i_top + 1):
        table = table_of(i)
        poly = fit_character_polynomial(table, spec.m)
        for lv in levels:
            chi = family_character(spec, lv, i)
            assert poly.as_class_function(lv) == chi, (i, lv)
            assert induced_character(table, lv) == chi, (i, lv)
        for mono, value in table.items():
            reached = [lv for lv in levels if degree_of(mono, spec.m).leq(lv)]
            if reached:
                mutated = fit_character_polynomial({**table, mono: value + 1}, spec.m)
                assert mutated.as_class_function(reached[0]) != family_character(spec, reached[0], i)


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_derived_polynomial_matches_every_built_level(spec, level, max_codim, freeness_inputs):
    normal = normalize(spec)
    levels = built_levels(spec, level)
    assert_table_gives_the_characters(
        spec, levels, min(max_codim, I_TOP), lambda i: freeness_inputs(normal, i)[2]
    )


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_derived_polynomial_equals_the_former_solve_where_determined(spec, level, max_codim, freeness_inputs):
    normal = normalize(spec)
    levels = built_levels(spec, level)
    determined = 0
    for i in range(min(max_codim, I_TOP) + 1):
        poly = fit_character_polynomial(freeness_inputs(normal, i)[2], spec.m)
        bound = poly.multidegree()
        samples = [(lv, family_character(spec, lv, i)) for lv in levels if bound.leq(lv)]
        if len(samples) < 2:
            continue
        try:
            solved = old_fit(samples, bound)
        except Underdetermined:
            continue
        assert solved == poly, i
        determined += 1
    assert determined >= 2


@given(custom_specs())
@settings(max_examples=30, deadline=None)
def test_derived_polynomial_matches_every_built_level_random(case):
    spec = normalize(case[0])
    get = CachingBuilder()

    def table_of(i):
        generators = {
            e: primitive_characters(spec, LatticeHomology(get(spec, e, i)), i)
            for e in class_degrees(spec, i)
        }
        return primitive_table(i, generators)

    levels = [e for e in _degrees_below(degree_add(spec.cmax, mi((1,) * spec.m))) if e.total <= 4]
    assert_table_gives_the_characters(spec, levels, 2, table_of)


# --- class-degree bounds ------------------------------------------------------


@pytest.mark.parametrize(
    "spec, bounds",
    [
        (family_mkr(1, 2, 1), [(2 * c,) for c in range(1, 8)]),
        (family_mkr(1, 3, 1), [(b,) for b in (1, 3, 4, 6, 7, 9, 10)]),
        (family_mkr(1, 4, 1), [(b,) for b in (1, 2, 4, 5, 6, 8, 9)]),
        (family_mkr(1, 2, 2), [(b,) for b in (0, 2, 2, 4, 4, 6, 6)]),
        (family_mkr(2, 1, 1), [(c, c) for c in range(1, 8)]),
    ],
    ids=["braid", "k-equals(3)", "k-equals(4)", "conf(2)", "rational-maps(2)"],
)
def test_class_degree_bound_is_the_knapsack_optimum(spec, bounds):
    assert [class_degree_bound(spec, c) for c in range(1, 8)] == [mi(b) for b in bounds]


def test_class_degree_bound_reduces_once_per_spec_and_codim(monkeypatch):
    # the run's class degrees and the primitive classes read one bound:
    # k-equals(3)'s generator has 7 nonempty sets of support points
    from arrstab import checks

    reductions = []
    real = checks.subspace_from_constraints
    monkeypatch.setattr(
        checks, "subspace_from_constraints", lambda *a: reductions.append(a) or real(*a)
    )
    checks.class_degree_bound.cache_clear()
    spec = family_mkr(1, 3, 1)
    assert class_degrees(spec, 3) == class_degrees(family_mkr(1, 3, 1), 3)
    assert len(reductions) == 7
    class_degree_bound(spec, 4)
    assert len(reductions) == 14


def primitive_degrees(spec, degrees, c, get):
    """The degrees among ``degrees`` whose codim-c lattice has a primitive element."""
    return [
        e
        for e in degrees
        if any(deg.leq(e) for deg, _ in spec.generators)
        and any(is_primitive(spec, e, x) for x in get(spec, e, c).elements)
    ]


def assert_bound_is_sound(spec, c_top, get):
    """No primitive element lies one degree past the bound in any factor,
    and the bound covers every class the former c * cmax scan finds."""
    for c in range(1, c_top + 1):
        bound = class_degree_bound(spec, c)
        for factor in range(spec.m):
            step = mi(int(j == factor) for j in range(spec.m))
            past = [e for e in _degrees_below(degree_add(bound, step)) if e[factor] == bound[factor] + 1]
            assert primitive_degrees(spec, past, c, get) == [], (c, factor)
        found = primitive_degrees(spec, _degrees_below(degree_times(c, spec.cmax)), c, get)
        assert all(e.leq(bound) for e in found), (c, found)
        assert found == [e for e in class_degrees(spec, c) if e in found]


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_class_degree_bound_is_sound(spec, level, max_codim):
    assert_bound_is_sound(spec, min(max_codim, 2), FAMILY_LATTICES)


@given(custom_specs())
@settings(max_examples=30, deadline=None)
def test_class_degree_bound_is_sound_random(case):
    assert_bound_is_sound(normalize(case[0]), 2, CachingBuilder())
