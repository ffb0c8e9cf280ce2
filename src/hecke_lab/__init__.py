"""hecke-lab: exact twisted Hecke algebras for GL2 over the p-adic integers,
their induced-representation spectra, and a numerical operator engine that
cuts out newspaces of classical cusp forms."""

from .campaign import Campaign, run_verify
from .characters import (
    DirChar,
    PChar,
    crt_decompose,
    unit_group,
)
from .cosets import (
    MatArray,
    MatPn,
    double_coset_label,
    enumerate_Kg,
    in_K0,
)
from .cyclotomic import CyclotomicField
from .dimoracle import dim_cusp, dim_new, oldspace_dimensions
from .hecke import (
    HeckeElem,
    convolve,
    is_supported,
    structure_table,
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
from .qexp import QExpansion, op_Up, op_Utilde, op_Vp
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
    "crt_decompose",
    "dim_cusp",
    "dim_new",
    "double_coset_label",
    "eigenvalue_tables",
    "enumerate_Kg",
    "fixed_subspace",
    "in_K0",
    "is_supported",
    "load_space",
    "newspace_characterize",
    "oldspace_dimensions",
    "op_matrix",
    "op_Q",
    "op_Qprime",
    "op_S",
    "op_Sprime",
    "op_U",
    "op_Up",
    "op_Utilde",
    "op_Vp",
    "op_W",
    "placement_checks",
    "qualifying_primes",
    "quad_ratio",
    "run_verify",
    "slash_evaluate",
    "structure_table",
    "supported_basis",
    "unit_group",
    "verify_induced",
    "verify_relations",
    "y_element",
]
