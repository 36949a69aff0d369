"""contextua: a finite-dimensional toolkit for quantum contextuality.

Context posets built from projection catalogs, presheaf sections over
them (0/1 characters, probability measures, bipartite correlation
tables), and decision procedures over them: coloring search and enumeration,
state reconstruction, the factorisability LP with its separating Bell
functional, quantum-realizability classification, and symmetry checks.
"""

__version__ = "0.3.0"

from .bell import (
    BellSection,
    CorrelationTable,
    LPResult,
    ProductPoset,
    SectionClassification,
    bell_functional_value,
    check_no_signalling,
    classify_section,
    deterministic_strategies,
    factorisability_lp,
    partial_transpose,
    product_poset,
    section_from_bipartite_state,
)
from .contexts import (
    Context,
    ContextPoset,
    export_dot,
    generate_poset,
    trivial_context,
)
from .gleason import (
    ProbSection,
    ReconstructionResult,
    born_weights,
    context_measure,
    hermitian_basis,
    is_informationally_complete,
    marginalise,
    reconstruct_operator,
    section_from_state,
    state_from_section,
)
from .opalg import (
    CanonicalizationError,
    DensityMatrix,
    ProjectionRegistry,
    density_matrix,
)
from .scenario import Scenario, build_bipartite_model, build_single_poset, parse_scenario
from .spectral import (
    ColoringCertificate,
    enumerate_global_sections,
    find_global_section,
    value_table,
)
from .wigner import (
    PosetMap,
    SymmetryOp,
    conjugate_poset,
    conjugate_posets,
    jordan_check,
    jordan_checks,
    symmetry,
    transition_probability_deviation,
    transition_probability_deviations,
    trivial_presheaf_automorphism,
)
