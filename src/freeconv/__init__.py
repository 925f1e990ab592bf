"""freeconv: spectral densities of sums and products of free random matrices.

Hermitian problems go through scalar R and S transforms; non-hermitian
products go through 2x2 quaternionic Green's functions with one-sided phase
rotations.  Monte Carlo sampling of finite matrices closes the loop.
"""

from .core import (
    Complex2x2,
    QuaternionicGreen,
    invert,
    rotate_left,
    rotate_right,
)
from .ensembles import EnsembleSpec, SampledMatrix, analytic_transforms, sample
from .errors import (
    BranchUndecidedError,
    CenteredTransformError,
    ConvergenceError,
    EmptyCloudError,
    FreeconvError,
    GridError,
    OriginError,
    SampleFailureError,
    SingularMatrixError,
    SpecValidationError,
)
from .grids import GridSpec
from .hermitian import (
    HolomorphicGreen,
    ProductGreens,
    ScalarTransform,
    assert_s_r_consistency,
    constant_transform,
    density_real,
    free_add,
    gaussian_transform,
    green_from_r,
    multiply_r_system,
    multiply_via_s,
    product_r_transform,
    s_from_green,
    s_from_r,
    shifted_gaussian_transform,
)
from .montecarlo import (
    ComparisonReport,
    EigenCloud,
    RadialProfile,
    SliceHistogram,
    compare_density,
    histogram2d,
    product_eigenvalues,
    radial_profile,
    real_axis_slice,
)
from .nonhermitian import (
    BoundaryResult,
    DensityField,
    IdentityReport,
    LimaconPoint,
    MatrixRMap,
    NonHermSolution,
    PointDensity,
    boundary_curve,
    branch_indicator,
    constant_rmap,
    density_at,
    density_field,
    eigenvector_correlator,
    elliptic_rmap,
    ginibre_rmap,
    gue_rmap,
    limacon_reference,
    residual_identities,
    solve_product,
    solve_single,
)

__version__ = "0.1.0"
