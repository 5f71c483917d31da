"""Direct and inverse spectral problems for band Hermitian matrices.

The package implements, at finite truncation scale, the passage from a
Hermitian matrix with designated row edges to its matrix-valued step
spectral function (eigen data, vector orthonormal polynomials, moments)
and the inverse reconstruction of a band matrix with degenerations from
such a step function, including the round-trip verification.
"""

from .errors import (
    DimensionMismatch,
    InconsistentProfile,
    MissingPivot,
    NoDecomposition,
    NumericalFailure,
    PivotViolation,
    SingularBoundary,
    SingularZerothMoment,
    SpecbandError,
    StageError,
    TailUndefined,
)
from .interpolation import (
    Decomposition,
    GeneratorReport,
    InterpolationData,
    decompose,
    is_solution,
    kernel_dimension,
    recompose,
    verify_generators,
)
from .matrices import (
    FiniteHermitian,
    GenProfile,
    MatrixSpec,
    StructureInfo,
    TailProfile,
    ValidationReport,
    analyze_structure,
    extend_tail,
    generate_random,
    truncate,
    validate_class,
)
from .reconstruct import (
    OrthoResult,
    RoundTripReport,
    compare_measures,
    orthonormalize,
    recover_matrix,
    roundtrip,
    spec_from_dense,
)
from .spectral import (
    BoundaryMatrix,
    SpectralData,
    StepMeasure,
    build_p,
    build_q,
    c_vectors,
    completeness_defect,
    det_theta,
    det_theta_polynomial,
    eigen_decompose,
    gram_matrix,
    inner_product,
    multiplication_matrix,
    norm_sq,
    psi_at,
    q_norms_sq,
    step_measure,
    theta_at,
)
from .vectorpoly import (
    MINUS_INF,
    VectorPolynomial,
    canonical_e,
    from_coeff_vector,
    height,
    poly_allclose,
    to_coeff_vector,
)

__version__ = "0.1.0"
