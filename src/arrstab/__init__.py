"""arrstab: exact intersection lattices, complement cohomology, and
character-polynomial stability for FI^m families of subspace arrangements."""

from .arrangement import (
    ArrangementSpec,
    IntersectionLattice,
    PrimitiveClass,
    build_lattice,
    family_mkr,
    is_primitive,
    normalize,
    orbit_decomposition,
    primitive_classes,
    verify_downward_stability,
    verify_normal,
)
from .characters import (
    CharacterPolynomial,
    ClassFunction,
    character_of_cohomology,
    fit_character_polynomial,
    induction_character,
    inner_product,
    invariants_dim,
    irreducible_multiplicities,
    stability_report,
    twisted_betti,
    verify_free_decomposition,
)
from .exactlin import RationalMatrix, Subspace, subspace_from_constraints
from .fim import ConjClass, Injection, MultiIndex, PermTuple
from .homology import GMReport, equivariant_trace, gm_betti

__version__ = "0.1.0"

__all__ = [
    "ArrangementSpec",
    "CharacterPolynomial",
    "ClassFunction",
    "ConjClass",
    "GMReport",
    "Injection",
    "IntersectionLattice",
    "MultiIndex",
    "PermTuple",
    "PrimitiveClass",
    "RationalMatrix",
    "Subspace",
    "build_lattice",
    "character_of_cohomology",
    "equivariant_trace",
    "family_mkr",
    "fit_character_polynomial",
    "gm_betti",
    "induction_character",
    "inner_product",
    "invariants_dim",
    "irreducible_multiplicities",
    "is_primitive",
    "normalize",
    "orbit_decomposition",
    "primitive_classes",
    "stability_report",
    "subspace_from_constraints",
    "twisted_betti",
    "verify_downward_stability",
    "verify_free_decomposition",
    "verify_normal",
]
