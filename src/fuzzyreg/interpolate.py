"""Interpolation between two banded coordinate representations.

The transition from one string cross-section (half-angle mode content, the
circle-to-eight) to two separate strings (plain periodic mode content) is
performed by blending the two slot functions under a common phase
e^{i alpha(q) (phi - pi)} and reading off the integer Fourier modes of
the blend over one angular period.  The mode integrals have closed form in
terms of sinc factors; this module implements those coefficients, the
profile functions steering the blend, the assembled 2x2 string-vertex space,
mirror concatenation, and end caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DomainError
from .fourier import FourierFunction, MatrixFourierFunction
from .profiles import (
    AffineProfile,
    CallableProfile,
    ComplexProfile,
    Profile,
    Shared,
    as_profile,
    smooth_step,
)
from .regularize import FuzzySpace, make_grid, regularize_space
# Kept as a module attribute: fzbench's tracer test checks that it rebinds
# regularize_matrix at every import site, this one included.
from .regularize import regularize_matrix  # noqa: F401
from .spaces import DoubleCylinderSpec, circle_to_eight_functions


@dataclass(frozen=True)
class InterpolationProfile:
    """The q-profiles steering the blend over the transition window [q2, q3].

    alpha runs from -1/2 (half-angle representation) to 0 (plain periodic
    representation); theta1/theta2 weight the two slots and sum to one.
    """

    alpha: Profile
    theta1: Profile
    theta2: Profile
    q2: float
    q3: float


def _step_profile(q2: float) -> Profile:
    return CallableProfile(lambda q: (np.asarray(q, float) >= q2).astype(float), "step")


def make_profile(mode: str = "explicit-spline", q2: float = 1.0,
                 q3: float = 2.0) -> InterpolationProfile:
    """Build the transition profiles over [q2, q3] from the smooth step h.

    explicit-spline: theta2 = h((2q - q2 - q3)/(q3 - q2)), theta1 = 1 - theta2.
    derived-lambda: theta1 = -lam sin(pi alpha), theta2 = lam cos(pi alpha)
    with lam = 1/(cos(pi alpha) - sin(pi alpha)); then theta1 + theta2 = 1
    identically.  In both modes alpha = (theta-ramp - 1)/2, so alpha is exactly
    -1/2 below q2 and exactly 0 above q3.  A collapsed window (q2 == q3)
    degenerates to a hard step.
    """
    q2 = float(q2)
    q3 = float(q3)
    if q3 < q2:
        raise DomainError(f"transition window is reversed: [{q2}, {q3}]")
    if q3 == q2:
        ramp: Profile = _step_profile(q2)
    else:
        scale = 2.0 / (q3 - q2)
        shift = -(q2 + q3) / (q3 - q2)
        ramp = smooth_step().compose_affine(scale, shift)
    alpha = 0.5 * ramp - 0.5

    def _lam(q):
        a = np.pi * alpha(q)
        return 1.0 / (np.cos(a) - np.sin(a))

    if mode == "explicit-spline":
        theta2: Profile = ramp
        theta1: Profile = 1.0 - ramp
    elif mode == "derived-lambda":
        theta1 = CallableProfile(lambda q: -_lam(q) * np.sin(np.pi * alpha(q)), "theta1")
        theta2 = CallableProfile(lambda q: _lam(q) * np.cos(np.pi * alpha(q)), "theta2")
    else:
        raise DomainError(f"unknown profile mode {mode!r}")
    return InterpolationProfile(alpha, theta1, theta2, q2, q3)


def _table_values(table, q):
    """Evaluate a mode table {n: value} at q; values may be numbers,
    Profiles, ComplexProfiles, or vectorized callables."""
    return {int(n): np.asarray(v(q) if callable(v) else complex(v) + 0.0 * np.asarray(q, float),
                               dtype=complex) for n, v in table.items()}


def interp_fourier_coeff(f1_table, f2_table, profile: InterpolationProfile, m, q):
    """Mode-m coefficient of the blended angular function at q; for a sequence
    m, the coefficients of all its modes stacked along a leading axis.

    f1_table holds the half-angle coefficients (mode n means angular frequency
    2n+1 in the half-angle variable), f2_table the plain periodic ones.

    f_m = sum_n (-1)^(n-m) [
            theta1 f_{1,n} e^{i pi (1/2 + alpha) n} sinc(n - m + 1/2 + alpha)
          + theta2 f_{2,n} e^{i pi alpha n}         sinc(n - m + alpha) ]

    (the outer phase e^{-i pi alpha} of the blend cancels the e^{i pi alpha}
    the mode integrals produce).  This reduces, via
    (-1)^(n-m) sinc(n-m+1/2+alpha) = cos(pi alpha)/(pi (n-m+1/2+alpha)) and
    (-1)^(n-m) sinc(n-m+alpha) = sin(pi alpha)/(pi (n-m+alpha)), to the plain
    1/pi pole form; the sinc writing is the analytic-limit branch, so exact
    pole hits need no special casing.  Both sinc factors collapse to Kronecker
    deltas at the window ends: f_m equals f1_table[m] at alpha = -1/2 and
    f2_table[m] at alpha = 0.

    The tables, profiles, theta f_n, phases and sinc factors are evaluated once
    per call, and the loop runs over table terms with the modes on a leading
    axis; each element still adds ((theta f_n (-1)^(n-m)) e^{...}) sinc term by
    term, in table order, to a +0 start, bit for bit the sum of a lone mode.
    """
    q = np.asarray(q, dtype=float)
    modes = np.array([int(k) for k in np.atleast_1d(m)])
    a = np.asarray(profile.alpha(q), float)
    t1 = np.asarray(profile.theta1(q), float)
    t2 = np.asarray(profile.theta2(q), float)
    # (n, sinc offset, theta f_n, phase factor) per table entry
    terms = [(n, 0.5, t1 * val, np.exp(1j * np.pi * (0.5 + a) * n))
             for n, val in _table_values(f1_table, q).items()]
    terms += [(n, 0, t2 * val, np.exp(1j * np.pi * a * n))
              for n, val in _table_values(f2_table, q).items()]
    out = np.zeros((len(modes),) + np.broadcast(q, a).shape, dtype=complex)
    lead = (slice(None),) + (None,) * (out.ndim - 1)  # a per-mode vector along the mode axis
    args = np.array(sorted({n - k + off for n, off, _, _ in terms for k in modes.tolist()}))
    sincs = np.sinc(args[lead] + a)
    for n, off, tv, phase in terms:
        sign = ((-1.0) ** (n - modes))[lead]
        out = out + tv * sign * phase * sincs[np.searchsorted(args, n - modes + off)]
    return out if np.ndim(m) else out[0]


@dataclass(frozen=True)
class VertexParams:
    """Geometry and discretization of the one-string-to-two-strings vertex.

    r1: radius of the incoming string's circular cross-section.
    r: radius of each outgoing string.
    x0: center offset profile of the outgoing pair (cylinder 2 at +x0).
    profile: transition profiles; cutoff: kept mode range of the blended
    coefficients (None applies max(delta, min(3 delta, N // 6)) where delta
    is the input tables' mode range); N: block count (matrices are 2N x 2N).
    The grid is always the symmetric one, whose cell offsets `_slot_tables`
    builds into the slot-1 series.
    """

    r1: float = 1.0
    r: float = 1.0
    x0: Profile = field(default_factory=lambda: AffineProfile(0.7, 0.3))
    profile: InterpolationProfile = field(default_factory=make_profile)
    cutoff: int | None = None
    N: int = 30
    interval: tuple = (-1.0, 3.0)


def default_vertex_cutoff(delta: int, N: int) -> int:
    """Kept mode range for the blended bands: grows with N, never below the
    input tables' own range."""
    return max(delta, min(3 * delta, N // 6))


def _slot_tables(p: VertexParams):
    """Component mode tables for the two slots, as functions of the base q.

    Slot 1: the one-string (circle-to-eight) series on the doubled interval,
    sampled at the doubled-and-offset argument 2q + s01 that the 2x2 cell
    structure induces for off-diagonal blocks.  Slot 2: the outgoing pair's
    shared off-diagonal series at plain q.  The window must satisfy
    q1 < q2 <= q3 < q4: slot 1's transition ends at q2.
    """
    q1, q4 = p.interval
    span = q4 - q1
    s01 = span / (2.0 * p.N)
    q2, q3 = p.profile.q2, p.profile.q3
    if not q1 < q2 <= q3 < q4:
        raise DomainError(f"transition window [{q2}, {q3}] must lie inside the interval "
                          f"({q1}, {q4})")
    scalar_interval = (2.0 * q1, 2.0 * q1 + 2.0 * span)
    tr_scale = 1.0 / (q2 - q1)
    tr_shift = -(q2 + q1) / (q2 - q1)
    xs, ys, _zs = circle_to_eight_functions(
        scalar_interval, p.r1, tr_scale, tr_shift, z_offset=0.0, z_scale=1.0
    )
    pair = DoubleCylinderSpec(p.interval, p.x0, p.r)
    x2, y2 = pair.functions(2)

    def half_table(f: FourierFunction):
        table = {}
        for k, c in f.coeffs.items():
            if k % 2 == 0:
                continue
            table[(k - 1) // 2] = ComplexProfile(c.re.compose_affine(2.0, s01),
                                                 c.im.compose_affine(2.0, s01))
        return table

    t1x = half_table(xs)
    t1y = half_table(ys)
    t2x = dict(x2.coeffs)
    t2y = dict(y2.coeffs)
    return (t1x, t2x), (t1y, t2y)


def string_vertex_generators(p: VertexParams) -> tuple:
    """("string-vertex", (X, Y, Z), grid): the interpolated vertex's 2 x 2 matrix
    functions and its symmetric grid, which `build_string_vertex` regularizes.

    x and y live on the off-diagonal blocks; the (1,0) block is the conjugate
    mirror of the (0,1) block, so the matrix functions are Hermitian pointwise.
    z is diagonal: theta1-weighted doubled coordinate (second sheet offset by
    span/N) blended with the plain coordinate.
    """
    grid = make_grid(p.N, p.interval, "symmetric")  # refuses N < 2 before any division by N
    (t1x, t2x), (t1y, t2y) = _slot_tables(p)
    delta = max(
        max(abs(n) for n in t1x),
        max(abs(n) for n in t2x),
        max(abs(n) for n in t1y),
        max(abs(n) for n in t2y),
    )
    cutoff = p.cutoff if p.cutoff is not None else default_vertex_cutoff(delta, p.N)
    if not 0 <= cutoff < p.N:
        raise DomainError(f"mode cutoff {cutoff} must be nonnegative and smaller than N = {p.N}")
    interval = p.interval
    zero = FourierFunction(interval, {})
    modes = range(-cutoff, cutoff + 1)

    def offdiag_pair(t1, t2):
        # every mode reads its row of one blend call per q array
        family = Shared(lambda q: interp_fourier_coeff(t1, t2, p.profile, modes, q))
        upper = FourierFunction(interval, {m: ComplexProfile.from_callable(
            lambda q, i=i: family(q)[i], f"f_{m}") for i, m in enumerate(modes)})
        return upper, upper.conjugate()

    x01, x10 = offdiag_pair(t1x, t2x)
    y01, y10 = offdiag_pair(t1y, t2y)
    X = MatrixFourierFunction(interval, [[zero, x01], [x10, zero]])
    Y = MatrixFourierFunction(interval, [[zero, y01], [y10, zero]])

    span = interval[1] - interval[0]
    s11 = span / p.N
    th1 = p.profile.theta1
    th2 = p.profile.theta2
    z_sheet0 = th1 * AffineProfile(0.0, 2.0) + th2 * AffineProfile(0.0, 1.0)
    z_sheet1 = th1 * AffineProfile(s11, 2.0) + th2 * AffineProfile(0.0, 1.0)
    Z = MatrixFourierFunction.diagonal(
        [
            FourierFunction.from_profile(interval, z_sheet0),
            FourierFunction.from_profile(interval, z_sheet1),
        ]
    )

    return "string-vertex", (X, Y, Z), grid


def build_string_vertex(p: VertexParams) -> FuzzySpace:
    """Assemble and regularize the interpolated vertex as a 2N x 2N space.

    Below the window the regularization reproduces the one-string series
    entry for entry; above it, the interlaced pair.
    """
    return regularize_space(*string_vertex_generators(p))


def mirror_concat(space: FuzzySpace, q_E: float) -> FuzzySpace:
    """Extend a space's generators by reflection about q_E and re-regularize.

    The coefficient profiles become even about q_E; the output interval is
    (q1, 2 q_E - q1) and the block count doubles.  The original matrix
    reappears as the leading block of the doubled regularization.
    """
    if space.generators is None:
        raise CapabilityError("mirror concatenation needs generator functions")
    if space.grid is None:
        raise CapabilityError("mirror concatenation needs the originating grid")
    q_E = float(q_E)
    q1, q4 = space.generators[0].interval
    if not q1 < q_E:
        raise DomainError(f"mirror point {q_E} must lie right of the interval start {q1}")
    new_interval = (q1, 2.0 * q_E - q1)

    def mirror_fn(f: FourierFunction) -> FourierFunction:
        return FourierFunction(new_interval, {n: c.mirror(q_E) for n, c in f.coeffs.items()})

    mirrored = tuple(
        MatrixFourierFunction(
            new_interval, [[mirror_fn(e) for e in row] for row in F.entries]
        )
        for F in space.generators
    )
    grid = make_grid(2 * space.grid.N, new_interval, space.grid.rule)
    return regularize_space(f"mirrored({space.name})", mirrored, grid)


def close_caps(F: MatrixFourierFunction, window) -> MatrixFourierFunction:
    """Multiply every coefficient by a window that vanishes at both ends.

    Converts within-border convergence into convergence of the full matrices
    by sending all bands to zero at the interval ends.
    """
    window = as_profile(window)
    q1, q4 = F.interval
    ends = np.abs([float(window(q1)), float(window(q4))])
    if ends.max() > 1e-12:
        raise DomainError("cap window must vanish at the interval ends")
    samples = window(np.linspace(q1, q4, 65))
    if np.min(samples) < -1e-12:
        raise DomainError("cap window must be nonnegative")
    win = ComplexProfile(window)

    def capped(f: FourierFunction) -> FourierFunction:
        return FourierFunction(f.interval, {n: c * win for n, c in f.coeffs.items()})

    return F.map_entries(capped)
