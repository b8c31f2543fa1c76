"""Matrix regularization of fuzzy surfaces.

Turn Fourier data on a strip into finite Hermitian matrices, blend distinct
cross-section topologies through a string vertex, and check the
semiclassical behavior of the result.
"""

from .errors import CapabilityError, DomainError, FuzzyRegError, StructureError
from .fourier import (
    FourierFunction,
    MatrixFourierFunction,
    mul,
    poisson_bracket,
)
from .interpolate import (
    InterpolationProfile,
    VertexParams,
    build_string_vertex,
    close_caps,
    default_vertex_cutoff,
    interp_fourier_coeff,
    interpolated_angle_function,
    make_profile,
    mirror_concat,
)
from .matrixio import read_matrix, write_matrix
from .profiles import (
    AffineProfile,
    CallableProfile,
    ComplexProfile,
    ComposedProfile,
    ConstantProfile,
    MirrorProfile,
    PolyProfile,
    Profile,
    SplineProfile,
    as_profile,
    profile_from_dict,
    smooth_step,
)
from .regularize import (
    DiscretizingGrid,
    FuzzyMatrix,
    FuzzySpace,
    border_mask,
    commutator,
    hermitianize,
    interior_max_entry,
    make_grid,
    regularize_matrix,
    regularize_scalar,
    toeplitz_basis,
    within_border_norm,
)
from .render import render_dot_matrix
from .spaces import (
    CurveSpec,
    DoubleCylinderSpec,
    GraphVertexSpec,
    build_circle_to_eight,
    build_clifford_torus,
    build_double_cylinder,
    build_generalized_cylinder,
    build_graph_vertex,
    build_immersed_cylinder,
    circle_to_eight_functions,
    interlaced_double_cylinder_function,
)
from .surface import export_classical_surface, surface_csv
from .transforms import (
    DiagonalizationReport,
    SmallUnitary,
    block_transform,
    conjugate,
    diagonalize_coordinate,
    direct_sum,
    function_unitary_conjugate,
    interlace,
    interlacing_unitary,
    lift_constant_unitary,
    matrix_poly_transform,
    z_order,
    z_order_inverse,
)
from .verify import (
    SweepReport,
    check_commutator_decay,
    check_norm_convergence,
    check_poisson_convergence,
    check_product_convergence,
    matrix_fn_commutator_sup,
    semiclassical_residual,
)

__version__ = "0.1.0"
