"""Shared reference constructions for the string-vertex tests.

The vertex blends two closed-form regularizations: a single figure-eight
cross-section below the transition window and an interlaced pair of circles
above it.  Both references are rebuilt here from their own builders so the
vertex tests compare against independent code paths.
"""

import numpy as np

from fuzzyreg.fourier import FourierFunction
from fuzzyreg.profiles import ComplexProfile
from fuzzyreg.regularize import make_grid, regularize_matrix, regularize_scalar
from fuzzyreg.spaces import (
    CurveSpec,
    DoubleCylinderSpec,
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
