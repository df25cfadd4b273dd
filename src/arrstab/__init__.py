"""arrstab: exact intersection lattices, complement cohomology, and
character-polynomial stability for FI^m families of subspace arrangements.

Importing the package loads no submodule: each public name is imported from
its home module on first access (PEP 562), so a process that only loads a job
config compiles none of the lattice, homology or character code."""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "ArrangementSpec": "fim",
    "CharacterPolynomial": "polynomial",
    "ClassFunction": "fim",
    "ConjClass": "fim",
    "GMReport": "homology",
    "Injection": "fim",
    "IntersectionLattice": "arrangement",
    "LatticeHomology": "homology",
    "MultiIndex": "fim",
    "PermTuple": "fim",
    "PrimitiveClass": "checks",
    "RationalMatrix": "exactlin",
    "Subspace": "exactlin",
    "build_lattice": "arrangement",
    "character_of_cohomology": "characters",
    "family_mkr": "fim",
    "fit_character_polynomial": "checks",
    "inner_product": "characters",
    "invariants_dim": "characters",
    "irreducible_multiplicities": "characters",
    "is_primitive": "checks",
    "normalize": "checks",
    "orbit_decomposition": "checks",
    "primitive_characters": "checks",
    "primitive_classes": "checks",
    "primitive_table": "checks",
    "stability_report": "characters",
    "subspace_from_constraints": "exactlin",
    "twisted_betti": "checks",
    "verify_free_decomposition": "checks",
    "verify_normal": "checks",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
