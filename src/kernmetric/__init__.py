"""Characteristic kernels on Hilbert, L^p, metric, and measure spaces,
with MMD, kernel scores, and permutation two-sample tests."""

from .embeddings import GramMatrix, gram, kme_inner, kme_sq_norm, min_eigenvalue
from .errors import (
    DegeneracyError,
    DomainError,
    InjectivityError,
    KernmetricError,
    ProfileClassError,
    ShapeError,
)
from .io import profile_from_json, profile_to_json
from .kernels import (
    DiagonalScale,
    Identity,
    KernelSpec,
    LinearGridMap,
    make_distance_kernel,
    make_fourier_measure,
    make_kme_measure,
    make_lp_operator,
    make_metric_phi,
    make_mixture,
    make_quantile_monge,
    make_radial_hilbert,
    make_tee_radial,
    quantile_sq_w2,
)
from .profiles import (
    DiscreteLaplace,
    ExpSqrt,
    Gaussian,
    InverseRational,
    PhiProfile,
    complete_monotonicity_check,
    is_strictly_pd_class,
)
from .spaces import (
    DiscreteMeasure,
    Euclidean,
    EuclideanMetric,
    FuncLp,
    LpMetric,
    MeasurePoints,
    QuadratureGrid,
    dirac,
    measure_difference,
    metric_dist,
    trapezoid_grid,
)
from .stats import (
    TestResult,
    divergence,
    energy_distance,
    expected_score,
    kernel_score,
    kernel_scores,
    mmd,
    mmd_u_statistic,
    permutation_test,
)

__version__ = "0.1.0"
