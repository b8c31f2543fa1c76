"""Shared reference constructions for the string-vertex and writer tests.

The vertex blends two closed-form regularizations: a single figure-eight
cross-section below the transition window and an interlaced pair of circles
above it.  Both references are rebuilt here from their own builders so the
vertex tests compare against independent code paths.  `oracle_matrices`
holds the matrices the SVG and CSV writers are byte-compared on.
"""

import numpy as np

from fuzzyreg.fourier import FourierFunction
from fuzzyreg.interpolate import VertexParams, build_string_vertex
from fuzzyreg.profiles import ComplexProfile
from fuzzyreg.regularize import FuzzyMatrix, make_grid, regularize_matrix, regularize_scalar
from fuzzyreg.spaces import (
    CurveSpec,
    DoubleCylinderSpec,
    build_immersed_cylinder,
    circle_to_eight_functions,
    interlaced_double_cylinder_function,
)


def random_closed_curve(rng, cutoff=5, interval=(0.0, 1.0)):
    """A random real closed curve with the given Fourier bandwidth."""
    x = FourierFunction(interval, {0: ComplexProfile.from_const(rng.normal())})
    y = FourierFunction(interval, {0: ComplexProfile.from_const(rng.normal())})
    for n in range(1, cutoff + 1):
        x = x + FourierFunction.cosine(interval, n, rng.normal()) \
            + FourierFunction.sine(interval, n, rng.normal())
        y = y + FourierFunction.cosine(interval, n, rng.normal()) \
            + FourierFunction.sine(interval, n, rng.normal())
    return CurveSpec(x, y)


def scalar_zone_reference(p):
    """Regularized figure-eight x and y on the doubled scalar grid.

    Entry (i, j) of the result corresponds to flat entry (i, j) of the
    vertex coordinates wherever the grid argument sits left of the window.
    """
    q1, q4 = p.interval
    span = q4 - q1
    q2 = p.profile.q2
    if q2 > q1:
        tr_scale = 1.0 / (q2 - q1)
        tr_shift = -(q2 + q1) / (q2 - q1)
    else:
        tr_scale, tr_shift = 1.0, 0.0
    interval = (2.0 * q1, 2.0 * q1 + 2.0 * span)
    xs, ys, zs = circle_to_eight_functions(
        interval, p.r1, tr_scale, tr_shift, z_offset=0.0, z_scale=1.0
    )
    zf = FourierFunction.from_profile(interval, zs)
    sg = make_grid(2 * p.N, interval, p.rule)
    return tuple(regularize_scalar(f, sg) for f in (xs, ys, zf))


def interlaced_zone_reference(p, grid):
    """Regularized interlaced double cylinder on the vertex grid."""
    spec = DoubleCylinderSpec(p.interval, p.x0, p.r)
    X, Y, Z = interlaced_double_cylinder_function(spec)
    return tuple(regularize_matrix(F, grid) for F in (X, Y, Z))


def zone_masks(grid, dim, q_lo, q_hi):
    """Boolean entry masks for the two asymptotic zones of a flat matrix."""
    ii, jj = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    qarg = grid.q(ii // 2, jj // 2)
    return qarg <= q_lo, qarg >= q_hi


def oracle_matrices():
    """name -> matrix: the immersed eight's x at N = 64, an S = 2 vertex
    coordinate, an all-zero matrix, and a random complex matrix holding
    -0.0, +-inf and NaN parts."""
    eight = build_immersed_cylinder(*circle_to_eight_functions(), 64, "symmetric")
    vertex = build_string_vertex(VertexParams(N=8))
    rng = np.random.default_rng(11)
    special = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    for part in (special.real, special.imag):
        picks = rng.integers(0, 7, size=(12, 2))
        part[picks[:, 0], picks[:, 1]] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=12)
    return {
        "eight-64": eight.coordinates[0],
        "vertex-S2": vertex.coordinates[0],
        "zeros": FuzzyMatrix(np.zeros((5, 5)), 5, 1),
        "special": FuzzyMatrix(special, 7, 1),
    }
