"""hecke-lab: exact twisted Hecke algebras for GL2 over the p-adic integers,
their induced-representation spectra, and a numerical operator engine that
cuts out newspaces of classical cusp forms."""

from .campaign import Campaign, run_verify
from .characters import (
    DirChar,
    PChar,
    unit_group,
)
from .cosets import (
    MatArray,
    MatPn,
    enumerate_Kg,
    in_K0,
)
from .cyclotomic import CyclotomicField
from .dimoracle import dim_cusp, dim_new
from .hecke import (
    HeckeElem,
    convolve,
    is_supported,
    supported_basis,
    verify_relations,
    y_element,
)
from .induced import (
    component_dimensions,
    eigenvalue_tables,
    fixed_subspace,
    verify_induced,
)
from .newspace import characterize as newspace_characterize
from .newspace import placement_checks, qualifying_primes
from .operators import (
    OpMatrix,
    atkin_lehner_matrix,
    op_matrix,
    op_Q,
    op_Qprime,
    op_S,
    op_Sprime,
    op_U,
    op_W,
    quad_ratio,
    slash_evaluate,
)
from .qexp import QExpansion, op_Utilde, op_Vp
from .report import Assertion, Report
from .spaces import CuspSpace, SpaceFormatError, load_space

__version__ = "0.1.0"

__all__ = [
    "Assertion",
    "Campaign",
    "CuspSpace",
    "CyclotomicField",
    "DirChar",
    "HeckeElem",
    "MatArray",
    "MatPn",
    "OpMatrix",
    "PChar",
    "QExpansion",
    "Report",
    "SpaceFormatError",
    "atkin_lehner_matrix",
    "component_dimensions",
    "convolve",
    "dim_cusp",
    "dim_new",
    "eigenvalue_tables",
    "enumerate_Kg",
    "fixed_subspace",
    "in_K0",
    "is_supported",
    "load_space",
    "newspace_characterize",
    "op_matrix",
    "op_Q",
    "op_Qprime",
    "op_S",
    "op_Sprime",
    "op_U",
    "op_Utilde",
    "op_Vp",
    "op_W",
    "placement_checks",
    "qualifying_primes",
    "quad_ratio",
    "run_verify",
    "slash_evaluate",
    "supported_basis",
    "unit_group",
    "verify_induced",
    "verify_relations",
    "y_element",
]
