"""contextua: a finite-dimensional toolkit for quantum contextuality.

Context posets built from projection catalogs, presheaf sections over
them (0/1 characters, probability measures, bipartite correlation
tables), decision procedures (coloring search, state reconstruction,
factorisability LP, quantum-realizability classification), and
machine-checkable certificates for each verdict.
"""

__version__ = "0.2.0"

from .bell import (
    BellSection,
    CorrelationTable,
    LPResult,
    ProductNode,
    ProductPoset,
    SectionClassification,
    bell_functional_value,
    check_no_signalling,
    classify_section,
    deterministic_strategies,
    factorisability_lp,
    marginal_prob_section,
    partial_transpose,
    product_poset,
    restrict_table,
    section_from_bipartite_state,
    verify_bell_section,
)
from .contexts import (
    Context,
    ContextPoset,
    context_from_observables,
    context_from_projections,
    export_dot,
    generate_poset,
    is_section,
    trivial_context,
)
from .gleason import (
    ContextMeasure,
    ProbSection,
    ReconstructionResult,
    born_weights,
    context_measure,
    hermitian_basis,
    is_informationally_complete,
    marginalise,
    quasilinearity_report,
    reconstruct_operator,
    section_from_state,
    state_from_section,
    verify_prob_section,
)
from .opalg import (
    CanonicalizationError,
    DensityMatrix,
    Projection,
    ProjectionRegistry,
    Ray,
    commutes,
    density_matrix,
    is_projection,
    join,
    jordan_product,
    meet,
    projection,
    projection_from_ray,
    ray,
    spectral_atoms,
)
from .scenario import Scenario, build_bipartite_model, build_single_poset, parse_scenario
from .spectral import (
    Character,
    ColoringCertificate,
    SpectralSection,
    enumerate_global_sections,
    find_global_section,
    ks_triple_check,
    restrict_character,
    verify_section,
)
from .wigner import (
    PosetMap,
    SymmetryOp,
    apply_symmetry,
    compose,
    conjugate_poset,
    jordan_check,
    symmetry,
    transition_probability_deviation,
    trivial_presheaf_automorphism,
)
