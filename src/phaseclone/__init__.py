"""Verification toolkit for probabilistic uncorrelated cloning of phase-set states."""

from .trigpoly import (
    AffineForm,
    DecompositionForm,
    FirstOrderPoly,
    FullForm,
    NotDivisibleError,
    PureNegForm,
    ZeroDivisorError,
    ZeroPolynomialError,
    exact_div,
    expand,
    factorize,
    has_second_order,
    mul,
)
from .operators import (
    DimensionMismatchError,
    PhaseOperator,
    PhaseState,
    RelationReport,
    UncorrelatedTriple,
    ZeroProbabilityAtPhaseError,
    ZeroProbabilityError,
    eval_matrix,
    is_hermitian_preserving,
    normalized_output,
    phase_state_operator,
    tensor,
    trace_poly,
    validate_triple,
)
from .positivity import (
    ConstantProbabilityError,
    NotHermitianError,
    NotPositiveError,
    NotRealValuedError,
    PositivityVerdict,
    ProbabilityDecomposition,
    decompose_probability,
    is_positive_over_phase,
    min_eigenvalue_profile,
    positivity_many,
)
from .analysis import (
    CaseLabel,
    CloningReport,
    analyze,
    analyze_many,
    classify,
    deterministic_tensor_obstruction,
)
from .search import (
    SamplerParams,
    SampleRejected,
    SearchReport,
    assemble_triple,
    generate_case2_candidate,
    theorem_search,
)
from .catalog import CatalogEntry, ExpectedProperties, UnknownNameError, builtin, swap_systems
from .pmap import (
    DuplicateEntryError,
    ParseError,
    PmapDocument,
    document_from_operator,
    document_from_triple,
    parse_pmap,
    serialize_pmap,
)

__version__ = "0.1.0"
