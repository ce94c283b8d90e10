"""grpfact: exact constructions and factorization checks for finite linear groups."""

from .catalog import load_catalog
from .constructors import classical_generators, ext_subgroup, stabilizer_subgroup
from .factorize import intersect, verify_claim
from .g2 import g2_derived, g2_generators
from .gf import make_field
from .grpcore import GroupSpec, orbit, solvable_residual, stabilizer_generators

__version__ = "0.1.0"

__all__ = [
    "GroupSpec",
    "classical_generators",
    "ext_subgroup",
    "g2_derived",
    "g2_generators",
    "intersect",
    "load_catalog",
    "make_field",
    "orbit",
    "solvable_residual",
    "stabilizer_generators",
    "stabilizer_subgroup",
    "verify_claim",
]
