"""Scattering theory on metric graphs with leads.

Build a graph, attach leads, and compute: the unitary lead-to-lead
scattering matrix S(k), eigenvalues of the compact graph, resonance poles
in a complex window, symmetry quotients of S, and conjugacy/phase/pole
comparisons between two systems.
"""

from .contours import Rect
from .errors import QGError
from .global_scattering import (
    Assembly,
    Eigenvalue,
    ScatteringEvaluation,
    SpectrumWindow,
    eigenvalues_compact,
    interior_determinant,
    scattering_matrix,
    secular_value,
)
from .graph_core import (
    DFT,
    BondTable,
    Dirichlet,
    Edge,
    FixedUnitary,
    Lead,
    LinearAB,
    MetricGraph,
    Neumann,
    OpenGraph,
    Vertex,
    attach_leads,
    bond_table,
    build_graph,
    open_graph,
)
from .isoscattering import (
    ConjugacyResult,
    TransplantabilityReport,
    find_conjugator,
    isophasal_check,
    isopolar_check,
    transplantability_verdict,
)
from .resonances import (
    Pole,
    PoleSet,
    find_poles,
    refine_pole,
    winding_number,
)
from .symmetry_rep import (
    ClassFunction,
    FiniteGroup,
    GraphAction,
    MatrixRep,
    characters_equal,
    dihedral_group,
    encoding_map,
    induced_character,
    intertwiner_basis,
    lead_permutation_matrices,
    quotient_scattering,
    quotient_scattering_sum,
    subgroup,
    symmetric_group,
    trivial_rep,
    validate_action,
)
from .vertex_scattering import (
    ab_to_sigma,
    dft_sigma,
    dirichlet_sigma,
    neumann_sigma,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
