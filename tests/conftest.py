import pytest

from arrstab.arrangement import family_mkr
from arrstab.cache import CachingBuilder


@pytest.fixture(scope="session")
def get_lattice():
    """Session-wide in-memory lattice memo so tests share expensive builds."""
    return CachingBuilder()


@pytest.fixture(scope="session")
def braid():
    return family_mkr(1, 2, 1)


@pytest.fixture(scope="session")
def freeness_inputs(get_lattice):
    """The generator characters, primitive classes and primitive table that
    ``verify_free_decomposition`` reads for H^i, from one homology context
    per class degree on its codim-i lattice."""
    from arrstab.checks import class_degrees, primitive_characters, primitive_classes, primitive_table
    from arrstab.homology import LatticeHomology

    def inputs(spec, i):
        generators = {
            e: primitive_characters(spec, LatticeHomology(get_lattice(spec, e, i)), i)
            for e in class_degrees(spec, i)
        }
        return generators, primitive_classes(spec, i, get_lattice), primitive_table(i, generators)

    return inputs


@pytest.fixture(scope="session")
def level_matches():
    """Whether a primitive table induces each of the characters ``chars``
    (by level), as ``run`` computes it for the fit and the freeness check."""
    from arrstab.checks import induced_character

    def matches(chars, table):
        return {lv: chi == induced_character(table, lv) for lv, chi in chars.items()}

    return matches


@pytest.fixture(scope="session")
def freeness_report(freeness_inputs, level_matches):
    """``verify_free_decomposition`` of H^i on ``freeness_inputs``, against
    H^i's characters ``chars`` by level."""
    from arrstab.checks import verify_free_decomposition

    def report(spec, i, chars):
        generators, classes, table = freeness_inputs(spec, i)
        return verify_free_decomposition(spec, i, level_matches(chars, table), generators, classes)

    return report
