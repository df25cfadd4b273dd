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
