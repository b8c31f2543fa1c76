"""Builders for the concrete fuzzy spaces of the catalog.

Covered here: the generalized fuzzy cylinder over a closed curve, immersed
cylinders (with the circle-to-eight preset), the mirror pair of cylinders,
the fuzzy Clifford torus, and the graph-vertex band matrix.  The cylinders
and the eight on every grid rule regularize their generators through
`regularize_space`, from the (name, generators, grid) of a `*_generators`
function, which a caller that reads the generators alone (the CLI's surface
export) takes without regularizing them.  Two presets are still written
from their diagonals by `FuzzyMatrix.from_diagonals`, in O(N) memory: the
Clifford torus, whose bytes the benchmark's sha256 references hold until
they are regenerated with its generators, and the graph vertex, which is a
band matrix and not a regularization (its five diagonals are recorded,
diagonal 0 among them even where its default x_lower = 0 writes only -0.0
there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .fourier import FourierFunction, MatrixFourierFunction, _check_same_interval
from .profiles import (
    AffineProfile,
    ConstantProfile,
    Profile,
    as_profile,
    smooth_step,
)
from .regularize import (
    FuzzyMatrix,
    FuzzySpace,
    make_grid,
    regularize_space,
)


@dataclass(frozen=True)
class CurveSpec:
    """A closed curve (x(phi), y(phi)) swept along z with scale beta."""

    x_series: FourierFunction
    y_series: FourierFunction
    z_beta: float = 1.0

    def __post_init__(self):
        _check_same_interval(self.x_series, self.y_series)  # they share one grid
        for f in (self.x_series, self.y_series):
            if not _is_q_independent(f):
                raise DomainError("curve series must be q-independent")
        if not (self.x_series.is_real_valued() and self.y_series.is_real_valued()):
            raise StructureError("closed curves need real-valued x and y series")

    @classmethod
    def circle(cls, radius=1.0, interval=(0.0, 1.0)):
        x = FourierFunction.cosine(interval, 1, radius)
        y = FourierFunction.sine(interval, 1, radius)
        return cls(x, y)


def _is_q_independent(f: FourierFunction, tol=1e-13) -> bool:
    """Whether every coefficient is constant to tol on the 17 evenly spaced q
    that `MatrixFourierFunction.is_hermitian` probes."""
    probe = np.linspace(f.interval[0], f.interval[1], 17)
    return all(np.max(np.abs(v - v[0])) <= tol for v in (c(probe) for c in f.coeffs.values()))


def generalized_cylinder_generators(curve: CurveSpec, N: int, z_offset: float = 0.0) -> tuple:
    """The immersed cylinder's generators of (x(phi), y(phi), z_offset + beta*q),
    named "generalized-cylinder"."""
    _, generators, grid = immersed_cylinder_generators(
        curve.x_series, curve.y_series, AffineProfile(z_offset, curve.z_beta), N)
    return "generalized-cylinder", generators, grid


def build_generalized_cylinder(curve: CurveSpec, N: int, z_offset: float = 0.0) -> FuzzySpace:
    """The immersed cylinder of (x(phi), y(phi), z_offset + beta*q) under its
    own name: Toeplitz x, y over the diagonal z_offset + beta*q(n, n),
    n = 0..N-1, on the symmetric grid.

    Only differences of z enter any commutator, so the offset is conventional.
    """
    return regularize_space(*generalized_cylinder_generators(curve, N, z_offset))


def immersed_cylinder_generators(x: FourierFunction, y: FourierFunction, z: Profile, N: int,
                                 rule: str = "symmetric") -> tuple:
    """("immersed-cylinder", (x, y, z) as 1 x 1 matrix functions, grid) for real
    series x, y and a height profile z."""
    _check_same_interval(x, y)
    z = FourierFunction.from_profile(x.interval, as_profile(z))
    generators = tuple(MatrixFourierFunction.from_scalar(f) for f in (x, y, z))
    return "immersed-cylinder", generators, make_grid(N, x.interval, rule)


def build_immersed_cylinder(
    x: FourierFunction,
    y: FourierFunction,
    z: Profile,
    N: int,
    rule: str = "symmetric",
) -> FuzzySpace:
    """Regularize a surface given by real series x, y and a height profile z."""
    return regularize_space(*immersed_cylinder_generators(x, y, z, N, rule))


def circle_to_eight_functions(
    interval=(-1.0, 1.0),
    r1: float = 1.0,
    transition_scale: float = 1.0,
    transition_shift: float = 0.0,
    z_offset: float = 0.5,
    z_scale: float = 0.5,
):
    """Fourier data for the transition from a circle to a figure eight.

    x = (r1 + r2/2) cos(phi) + (r2/2) cos(3 phi)
    y = (r1 - r2/2) sin(phi) + (r2/2) sin(3 phi)

    with r2(q) = h(transition_scale*q + transition_shift); at r2 = 0 the
    cross-section is a circle of radius r1, at r2 = r1 the doubled-angle
    form 2 r1 cos(u)^2 (cos u, sin u) of the eight.  Returns (x, y, z).
    """
    r2 = smooth_step().compose_affine(transition_scale, transition_shift)
    amp1x = ConstantProfile(r1) + 0.5 * r2
    amp1y = ConstantProfile(r1) - 0.5 * r2
    amp3 = 0.5 * r2
    x = FourierFunction.cosine(interval, 1, amp1x) + FourierFunction.cosine(interval, 3, amp3)
    y = FourierFunction.sine(interval, 1, amp1y) + FourierFunction.sine(interval, 3, amp3)
    z = AffineProfile(z_offset, z_scale)
    return x, y, z


def circle_to_eight_generators(N: int, convention: str = "symmetric") -> tuple:
    """(name, generators, grid) of the circle-to-eight space on [-1, 1]: named
    "immersed-cylinder" on the symmetric convention, "circle-to-eight" on the
    row-anchored one (see `build_circle_to_eight`)."""
    x, y, z = circle_to_eight_functions()
    if convention == "symmetric":
        return immersed_cylinder_generators(x, y, z, N)
    if convention != "row-anchored":
        raise DomainError(f"unknown convention {convention!r}")
    x, y = (FourierFunction(f.interval, {s * n: c for n, c in f.coeffs.items() if abs(n) < N})
            for f, s in ((x, 1), (y, -1)))
    _, generators, grid = immersed_cylinder_generators(x, y, z, N, "row-anchored")
    return "circle-to-eight", generators, grid


def build_circle_to_eight(N: int, convention: str = "symmetric") -> FuzzySpace:
    """The circle-to-eight space on [-1, 1].

    convention="symmetric" regularizes the series on the symmetric grid.
    convention="row-anchored" regularizes them on the row-anchored grid,
    every band at the row of its upper entry (q = -1 + 2n/N), with y(q, -phi)
    for y, whose upper band is oriented +i as in the displayed matrices; only
    the modes below N are kept, so band 3 enters from N = 4 on.
    """
    return regularize_space(*circle_to_eight_generators(N, convention))


@dataclass(frozen=True)
class DoubleCylinderSpec:
    """A mirror pair of cylinders over one interval.

    Cylinder 2 has centre x0 and radius r: x2 = x0 + r cos, y2 = r sin.
    Cylinder 1 is its negative (centre -x0, radius -r).
    """

    interval: tuple
    x0: Profile
    r: Profile

    def functions(self, i: int):
        """(x_i, y_i) as FourierFunctions for cylinder i in {1, 2}."""
        x0, r = as_profile(self.x0), as_profile(self.r)
        if i == 1:
            x0, r = -x0, -r
        x = FourierFunction.from_profile(self.interval, x0) + FourierFunction.cosine(
            self.interval, 1, r
        )
        return x, FourierFunction.sine(self.interval, 1, r)


def double_cylinder_generators(spec: DoubleCylinderSpec, N: int, member: int) -> tuple:
    """("cylinder-<member>", (x, y, z), grid) of member 1 or 2 of the pair, with
    height z = q, on the symmetric grid."""
    grid = make_grid(N, spec.interval, "symmetric")
    if member not in (1, 2):
        raise DomainError("double-cylinder member must be 1 or 2")
    zfn = FourierFunction.from_profile(spec.interval, AffineProfile(0.0, 1.0))
    functions = (*spec.functions(member), zfn)
    return f"cylinder-{member}", tuple(map(MatrixFourierFunction.from_scalar, functions)), grid


def build_double_cylinder(spec: DoubleCylinderSpec, N: int):
    """Two fuzzy cylinders with the same height z = q; returns a pair."""
    return tuple(regularize_space(*double_cylinder_generators(spec, N, i)) for i in (1, 2))


def interlaced_double_cylinder_function(spec: DoubleCylinderSpec) -> tuple:
    """The 2x2 off-diagonal form of a mirror pair of cylinders.

    Returns (X, Y, Z) matrix-valued functions with X, Y antidiagonal (both
    slots carry cylinder 2's real function) and Z = q times the identity block.
    """
    x2, y2 = spec.functions(2)
    interval = spec.interval
    zero = FourierFunction(interval, {})
    q_fn = FourierFunction.from_profile(interval, AffineProfile(0.0, 1.0))
    X = MatrixFourierFunction(interval, [[zero, x2], [x2, zero]])
    Y = MatrixFourierFunction(interval, [[zero, y2], [y2, zero]])
    Z = MatrixFourierFunction.diagonal([q_fn, q_fn])
    return X, Y, Z


def build_clifford_torus(a: float, b: float, N: int) -> FuzzySpace:
    """Four Hermitian coordinates: one Toeplitz pair, one diagonal trig pair.

    X1 carries a/2 on the +-1 bands, Y1 the matching +-i a/2 bands; X2 and
    Y2 are diagonal with b cos(2 pi n/N) and b sin(2 pi n/N), n = 1..N.
    """
    N = int(N)
    if N < 2:
        raise DomainError("need N >= 2")
    # the +-1 diagonals of e_1 and e_{-1}, added entry by entry: zero signs as in the dense sums
    one, zero = np.ones(N - 1, dtype=complex), np.zeros(N - 1, dtype=complex)
    x1 = FuzzyMatrix.from_diagonals({1: 0.5 * a * (one + zero), -1: 0.5 * a * (zero + one)}, N)
    y1 = FuzzyMatrix.from_diagonals({1: 0.5j * a * (one - zero), -1: 0.5j * a * (zero - one)}, N)
    angles = 2.0 * np.pi * np.arange(1, N + 1) / N
    x2 = FuzzyMatrix.from_diagonals({0: b * np.cos(angles)}, N)
    y2 = FuzzyMatrix.from_diagonals({0: b * np.sin(angles)}, N)
    return FuzzySpace("clifford-torus", (x1, y1, x2, y2))


@dataclass(frozen=True)
class GraphVertexSpec:
    """Band data for a vertex where one strand splits into two.

    The flat matrix has a tridiagonal band r_upper above the split index n0,
    a junction row coupling with value r_junction into both strands, and
    below n0 a 2x2-blocked part with diagonal blocks diag(-x_lower, x_lower)
    and strand-preserving off-bands r_lower.
    """

    dim: int
    n0: int
    r_upper: object = 1.0
    r_junction: complex = 1.0
    r_lower: object = 1.0
    x_lower: object = 0.0
    z_values: tuple | None = None

    def __post_init__(self):
        if not 2 <= self.n0 <= self.dim - 2:
            raise StructureError(f"split index {self.n0} outside matrix of dim {self.dim}")
        if (self.dim - self.n0) % 2:
            raise StructureError("lower part must hold an even number of rows")

    @property
    def lower_blocks(self) -> int:
        return (self.dim - self.n0) // 2

    def _band(self, raw, length, what) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(raw, dtype=complex))
        if arr.size == 1:
            return np.full(length, arr[0])
        if arr.size != length:
            raise StructureError(f"{what} needs length {length}, got {arr.size}")
        return arr

    def upper_band(self) -> np.ndarray:
        return self._band(self.r_upper, max(self.n0 - 1, 0), "r_upper")

    def lower_band(self) -> np.ndarray:
        return self._band(self.r_lower, max(self.lower_blocks - 1, 0), "r_lower")

    def lower_diag(self) -> np.ndarray:
        return self._band(self.x_lower, self.lower_blocks, "x_lower")


def build_graph_vertex(spec: GraphVertexSpec) -> FuzzySpace:
    """Write the vertex band matrix from its diagonals -2..2, and its diagonal z partner."""
    D, n0 = spec.dim, spec.n0
    r = complex(spec.r_junction)
    main, up1, up2, down1, down2 = (np.zeros(D - abs(o), dtype=complex) for o in (0, 1, 2, -1, -2))
    main[n0::2], main[n0 + 1 :: 2] = -spec.lower_diag(), spec.lower_diag()  # each lower block
    up1[: n0 - 1], up1[n0 - 1] = spec.upper_band(), r  # the upper strand, then the junction
    # the junction, then both lower strands: row n0 + 2t + s reads block t's band
    up2[n0 - 1], up2[n0:] = r, spec.lower_band()[np.arange(D - 2 - n0) // 2]
    down1[:n0], down2[n0 - 1 :] = np.conj(up1[:n0]), np.conj(up2[n0 - 1 :])  # written cells only
    F = FuzzyMatrix.from_diagonals({-2: down2, -1: down1, 0: main, 1: up1, 2: up2}, D)
    if spec.z_values is not None:
        z = np.asarray(spec.z_values, dtype=float)
        if z.size != D:
            raise StructureError("z_values must match the matrix dimension")
    else:  # (n + 1) / D on the upper strand, one height per lower block
        z = np.concatenate([np.arange(n0) + 1.0, n0 + 2 * (np.arange(D - n0) // 2) + 1.5]) / D
    return FuzzySpace("graph-vertex", (F, FuzzyMatrix.from_diagonals({0: z}, D)))
