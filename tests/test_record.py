"""The value classes from ``arrstab.record`` against ``dataclasses``.

Every engine value class was a ``@dataclass(frozen=True)``.  For one
representative instance of each, a frozen dataclass twin with the same
fields, defaults and class-defined methods is the oracle: equality, hashes,
reprs, ``replace``, immutability, pickling and argument binding must match
it, and the checks the former ``__post_init__`` made keep their
``ValueError``s.
"""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from arrstab import arrangement, characters, checks, cli, exactlin, fim, homology, polynomial, record
from arrstab.arrangement import ArrangementSpec, build_lattice, family_mkr
from arrstab.characters import StabilityReport, stability_report
from arrstab.checks import (
    DownwardStabilityReport,
    FreenessClassSummary,
    FreenessReport,
    NormalityReport,
    NormalityViolation,
    OrbitDecomposition,
    PrimitiveClass,
    orbit_decomposition,
    primitive_classes,
    verify_normal,
)
from arrstab.cli import JobConfig
from arrstab.exactlin import RationalMatrix, Subspace, subspace_from_constraints
from arrstab.fim import ClassFunction, ConjClass, Injection, MultiIndex, PermTuple, trivial_character
from arrstab.homology import GMReport, OrderComplex, RankedPoset, order_complex
from arrstab.polynomial import CharacterPolynomial

mi = MultiIndex
BRAID = family_mkr(1, 2, 1)
DIAGONAL = subspace_from_constraints(3, [[1, -1, 0]])
PLANE = subspace_from_constraints(3, [[1, 0, -1], [0, 1, -1]])
CHAR = trivial_character(mi((3,)))
POSET = RankedPoset(("a", "b", "c"), frozenset({(0, 1), (0, 2)}), (0, 1, 1))
SUMMARY = FreenessClassSummary(mi((2,)), 1, 2, trivial_character(mi((2,))), True)


def classes_of_braid_3():
    lat = build_lattice(BRAID, mi((3,)), 2)
    return lat, primitive_classes(BRAID, 2)


def job_config():
    return JobConfig(BRAID, mi((2,)), mi((4,)), 2, ("betti",), cache_dir="c")


# (class, a representative instance, a valid change for ``replace``)
CASES = [
    (ArrangementSpec, lambda: BRAID, lambda: {"r": 2, "generators": ()}),
    (
        NormalityViolation,
        lambda: NormalityViolation(
            mi((2,)), mi((3,)), Injection(((0, 2),), mi((3,))), DIAGONAL, PLANE
        ),
        lambda: {"image": DIAGONAL},
    ),
    (
        NormalityReport,
        lambda: verify_normal(BRAID, [mi((2,)), mi((3,))]),
        lambda: {"normal": False},
    ),
    (PrimitiveClass, lambda: classes_of_braid_3()[1][0], lambda: {"stabilizer_order": 1}),
    (
        OrbitDecomposition,
        lambda: orbit_decomposition(*classes_of_braid_3()),
        lambda: {"assignments": ()},
    ),
    (
        DownwardStabilityReport,
        lambda: DownwardStabilityReport(False, mi((2,)), mi((3,)), ("element 3",)),
        lambda: {"stable": True, "failures": ()},
    ),
    (ClassFunction, lambda: CHAR, lambda: {"values": {c: 2 * v for c, v in CHAR.values.items()}}),
    (
        CharacterPolynomial,
        lambda: CharacterPolynomial.parse("X1^(1) - 1/2*X2^(1)"),
        lambda: {"m": 2},
    ),
    (FreenessClassSummary, lambda: SUMMARY, lambda: {"degree_bound_ok": False}),
    (
        FreenessReport,
        lambda: FreenessReport(2, (SUMMARY,), ((mi((3,)), True),), mi((2,))),
        lambda: {"level_matches": ()},
    ),
    (
        StabilityReport,
        lambda: stability_report({mi((2,)): Fraction(1), mi((3,)): Fraction(2)}, mi((3,))),
        lambda: {"stable_value": None},
    ),
    (JobConfig, job_config, lambda: {"out_dir": "o", "cache_dir": None}),
    (
        RationalMatrix,
        lambda: RationalMatrix(((1, Fraction(1, 2)), (0, 3)), 2),
        lambda: {"entries": ()},
    ),
    (Subspace, lambda: PLANE, lambda: {"constraints": DIAGONAL.constraints}),
    (Injection, lambda: Injection(((0, 2), (1,)), mi((3, 2))), lambda: {"target": mi((4, 2))}),
    (PermTuple, lambda: PermTuple(((1, 2, 0), (0,))), lambda: {"perms": ((0, 1, 2), (0,))}),
    (ConjClass, lambda: ConjClass(((2, 1), (1,))), lambda: {"parts": ((3,), (1,))}),
    (RankedPoset, lambda: POSET, lambda: {"labels": ("x", "y", "z")}),
    (OrderComplex, lambda: order_complex(POSET), lambda: {"num_vertices": 4}),
    (
        GMReport,
        lambda: GMReport(mi((3,)), 1, 3, ((1, 1, 0, 1),)),
        lambda: {"total": 2, "contributions": ()},
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_value_class_is_covered():
    records = {
        value
        for module in (arrangement, characters, checks, cli, exactlin, fim, homology, polynomial)
        for value in vars(module).values()
        if isinstance(value, type) and "__record_fields__" in vars(value)
    }
    assert records == {cls for cls, _, _ in CASES}
    assert len(records) == 20


def own_methods(cls):
    """What the class body defines itself: not the fields' defaults, not the
    record's closures, and not a hand-written ``__init__``, which a dataclass
    twin replaces by its generated one."""
    skip = set(cls.__record_fields__) | {"__init__", "__record_fields__", "__dict__", "__weakref__"}
    return {
        name: value
        for name, value in vars(cls).items()
        if name not in skip and getattr(value, "__module__", None) != record.__name__
    }


def twin(cls):
    """A frozen dataclass with the fields, defaults and own methods of ``cls``."""
    fields = [
        (name, object, vars(cls)[name]) if name in vars(cls) else (name, object)
        for name in cls.__record_fields__
    ]
    namespace = own_methods(cls)
    return dataclasses.make_dataclass(
        cls.__name__, fields, namespace=namespace, frozen=True, eq="__eq__" not in namespace
    )


def values_of(obj):
    return {name: getattr(obj, name) for name in type(obj).__record_fields__}


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("cls, make, change", CASES, ids=IDS)
def test_equality_hash_and_repr_match_the_dataclass(cls, make, change):
    obj = make()
    assert type(obj) is cls
    oracle = twin(cls)(**values_of(obj))
    same = cls(**values_of(obj))
    assert repr(obj) == repr(oracle)
    assert hash_or_error(obj) == hash_or_error(oracle) == hash_or_error(same)
    assert obj == same and not obj != same
    if "__eq__" not in own_methods(cls):
        # two classes with equal fields are never equal, as for dataclasses
        assert obj != oracle and oracle != obj and not obj == oracle
    assert (obj == 0) is False and (obj != 0) is True


def test_class_defined_methods_win():
    assert ClassFunction.__hash__ is None  # its own __eq__, as with eq=False
    assert ClassFunction(CHAR.level, dict(CHAR.values)) == CHAR
    for cls in (Subspace, ConjClass, CharacterPolynomial):
        assert cls.__repr__.__module__ == cls.__module__
    assert repr(PLANE) == f"Subspace({PLANE.serialization!r})"
    for cls in (Subspace, RationalMatrix, Injection, PermTuple, ConjClass):
        assert cls.__init__.__module__ == cls.__module__


@pytest.mark.parametrize("cls, make, change", CASES, ids=IDS)
def test_replace_matches_the_dataclass(cls, make, change):
    obj = make()
    oracle = twin(cls)(**values_of(obj))
    changed = record.replace(obj, **change())
    expected = dataclasses.replace(oracle, **change())
    assert type(changed) is cls
    assert values_of(changed) == {**values_of(obj), **change()}
    assert repr(changed) == repr(expected)
    assert hash_or_error(changed) == hash_or_error(expected)
    assert record.replace(obj) == obj
    with pytest.raises(TypeError):
        record.replace(obj, no_such_field=1)
    with pytest.raises(TypeError):
        dataclasses.replace(oracle, no_such_field=1)


@pytest.mark.parametrize("cls, make, change", CASES, ids=IDS)
def test_fields_are_frozen(cls, make, change):
    obj = make()
    oracle = twin(cls)(**values_of(obj))
    for target in (obj, oracle):
        for name in cls.__record_fields__:
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)
        with pytest.raises(AttributeError):
            target.not_a_field = 1
    assert values_of(obj) == {name: getattr(oracle, name) for name in cls.__record_fields__}


@pytest.mark.parametrize("cls, make, change", CASES, ids=IDS)
def test_pickle_round_trip(cls, make, change):
    obj = make()
    loaded = pickle.loads(pickle.dumps(obj))
    assert type(loaded) is cls
    assert loaded == obj
    assert repr(loaded) == repr(obj)
    assert hash_or_error(loaded) == hash_or_error(obj)


@pytest.mark.parametrize("cls, make, change", CASES, ids=IDS)
def test_argument_binding_matches_the_dataclass(cls, make, change):
    obj = make()
    values = values_of(obj)
    names = cls.__record_fields__
    oracle = twin(cls)
    assert cls(*values.values()) == cls(**values) == obj
    assert cls(*[values[n] for n in names[:1]], **{n: values[n] for n in names[1:]}) == obj
    required = [n for n in names if n not in vars(cls)]
    for name in names[len(required):]:
        assert getattr(cls(**{n: values[n] for n in required}), name) == vars(cls)[name]
        assert vars(cls)[name] == getattr(oracle(**{n: values[n] for n in required}), name)
    bad_calls = [
        ((), {}),  # missing arguments
        ((), {**values, "no_such_field": 1}),  # an unknown argument
        ((*values.values(), None), {}),  # too many positional arguments
        ((values[names[0]],), values),  # two values for the first field
    ]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            oracle(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_required_fields_before_defaults():
    class Bad:
        a: int = 0
        b: int

    with pytest.raises(TypeError):
        record.record(Bad)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ArrangementSpec(0, 1, ()), "m and r must be positive"),
        (lambda: ArrangementSpec(1, 1, ((mi((2,)), Subspace.ambient(2)),)), "positive codimension"),
        (lambda: ClassFunction(mi((3,)), {}), "cover exactly the conjugacy classes"),
        (lambda: RankedPoset((1, 2), frozenset({(1, 0)}), (0, 1)), "strictly increase"),
        (lambda: RankedPoset((1, 2), frozenset(), (0,)), "rank count"),
        (lambda: RationalMatrix(((1, 2), (3,)), 2), "ragged"),
        (lambda: RationalMatrix((), -1), "negative column count"),
        (lambda: Subspace(2, RationalMatrix(((0, 1), (1, 0)), 2)), "not in RREF order"),
        (lambda: Subspace(2, RationalMatrix(((2, 0),), 2)), "pivot entries must be one"),
        (lambda: Subspace(2, RationalMatrix(((1, 1), (0, 1)), 2)), "pivot columns must be cleared"),
        (lambda: Subspace(2, RationalMatrix(((0, 0),), 2)), "zero row"),
        (lambda: Subspace(3, RationalMatrix((), 2)), "constraint width"),
        (lambda: Injection(((0, 0),), mi((3,))), "not injective"),
        (lambda: Injection(((0, 3),), mi((3,))), "out of range"),
        (lambda: Injection(((0,),), mi((3, 1))), "component count"),
        (lambda: PermTuple(((0, 0),)), "not a permutation"),
        (lambda: ConjClass(((1, 2),)), "weakly decreasing"),
        (lambda: ConjClass(((0,),)), "must be positive"),
    ],
)
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError, match=message):
        build()
