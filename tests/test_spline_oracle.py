"""The numpy splines against scipy, bit for bit.

`SplineProfile` ports `CubicHermiteSpline` (its coefficients and `PPoly`'s
summation order) and `SplineProfile.pchip` ports the slopes of
`PchipInterpolator`.  scipy is a test-only dependency here: every value,
derivative and slope is compared with it through its int64 bit pattern.
"""

import numpy as np
import pytest

from fuzzyreg.profiles import _H_KNOTS_X, _H_KNOTS_Y, SplineProfile, smooth_step

interpolate = pytest.importorskip("scipy.interpolate")


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def sample_points(x, seed=0):
    """Random points beyond both ends, every knot and both of its float
    neighbours, infinities and both zeros."""
    rng = np.random.default_rng(seed)
    span = x[-1] - x[0]
    return np.concatenate([
        rng.uniform(x[0] - 0.5 * span, x[-1] + 0.5 * span, 500),
        x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
        [np.inf, -np.inf, 0.0, -0.0],
    ])


def assert_matches_scipy(spline, q):
    x = spline.knots_x
    ref = interpolate.CubicHermiteSpline(x, spline.knots_y, spline.slopes)
    clamped = np.clip(q, x[0], x[-1])
    assert np.array_equal(bits(spline(q)), bits(ref(clamped)))
    inside = (q >= x[0]) & (q <= x[-1])
    want = np.where(inside, ref.derivative()(clamped), 0.0)
    assert np.array_equal(bits(spline.derivative()(q)), bits(want))


def assert_pchip_matches_scipy(x, y):
    spline = SplineProfile.pchip(x, y)
    want = interpolate.PchipInterpolator(x, y).derivative()(np.asarray(x, dtype=float))
    assert np.array_equal(bits(spline.slopes), bits(want))
    return spline


KNOT_SETS = {
    "smooth-step": (_H_KNOTS_X, _H_KNOTS_Y),
    "two-knots": ((-0.5, 2.0), (1.0, -3.0)),
    "flat-segments": ((0.0, 1.0, 2.0, 3.0, 4.0, 5.0), (1.0, 1.0, 2.0, 2.0, 2.0, -1.0)),
    "uneven": ((-2.0, -1.9, -0.3, 0.0, 0.1, 4.0), (0.3, -1.0, 2.0, 2.5, -0.7, 0.0)),
    "zero-cap": ((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 6.0, 7.0)),
    "three-times-cap": ((0.0, 1.0, 2.0, 3.0), (0.0, 0.1, -0.9, -1.0)),
    "negative-zero-knots": ((0.0, 1.0, 2.0), (-0.0, -0.0, -1.0)),
}


@pytest.mark.parametrize("name", sorted(KNOT_SETS))
def test_pchip_values_derivative_and_slopes_are_scipys(name):
    x, y = (np.asarray(v, dtype=float) for v in KNOT_SETS[name])
    spline = assert_pchip_matches_scipy(x, y)
    assert_matches_scipy(spline, sample_points(x))


def test_both_end_rules_of_the_pchip_slopes_are_hit():
    # one-sided estimate against the end secant's sign: zero
    assert SplineProfile.pchip(*KNOT_SETS["zero-cap"]).slopes[0] == 0.0
    # secants changing sign, estimate above three times the first: 3 * m0
    capped = SplineProfile.pchip(*KNOT_SETS["three-times-cap"])
    assert capped.slopes[0] == 3.0 * 0.1
    # otherwise the one-sided three-point estimate stands
    x, y = (np.asarray(v, dtype=float) for v in KNOT_SETS["uneven"])
    h, m = np.diff(x), np.diff(y) / np.diff(x)
    plain = ((2 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1])
    assert SplineProfile.pchip(x, y).slopes[0] == plain


def test_smooth_step_is_the_scipy_pchip():
    assert_pchip_matches_scipy(np.array(_H_KNOTS_X), np.array(_H_KNOTS_Y))
    h = smooth_step()
    assert h.slopes[0] == 0.0 and h.slopes[-1] == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_random_hermite_splines_are_scipys(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    x = np.cumsum(rng.uniform(0.05, 2.0, n)) - rng.uniform(0.0, 3.0)
    y = rng.normal(size=n)
    slopes = rng.normal(size=n)
    if seed % 4 == 0:  # flat and sign-changing data with integer values
        y, slopes = np.round(y), np.round(slopes)
    assert_matches_scipy(SplineProfile(x, y, slopes), sample_points(x, seed))
    assert_matches_scipy(assert_pchip_matches_scipy(x, y), sample_points(x, seed))


def test_nan_gives_nan_and_a_zero_derivative():
    spline = SplineProfile.pchip(*KNOT_SETS["uneven"])
    q = np.array([np.nan, 0.05, np.nan])
    values = spline(q)
    assert np.isnan(values[0]) and np.isnan(values[2]) and np.isfinite(values[1])
    assert np.array_equal(bits(spline.derivative()(q)[[0, 2]]), bits([0.0, 0.0]))


def test_scalar_input():
    spline = smooth_step()
    ref = interpolate.PchipInterpolator(_H_KNOTS_X, _H_KNOTS_Y)
    for q in (-0.75, 0.0, 0.3, 1.0):
        assert np.array_equal(bits(spline(q)), bits(ref(q)))
