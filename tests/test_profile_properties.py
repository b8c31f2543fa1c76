"""Property tests: serialized profile trees round-trip exactly."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyreg.fourier import FourierFunction
from fuzzyreg.profiles import (
    AffineProfile,
    ComplexProfile,
    ComposedProfile,
    ConstantProfile,
    MirrorProfile,
    PolyProfile,
    ProductProfile,
    ScaledProfile,
    SplineProfile,
    SumProfile,
    profile_from_dict,
)

IV = (-2.0, 2.0)
QS = np.linspace(-2.0, 2.0, 17)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

reals = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def splines(draw):
    n = draw(st.integers(2, 5))
    steps = draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-2.0, 0.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    y = draw(st.lists(reals, min_size=n, max_size=n))
    slopes = draw(st.lists(reals, min_size=n, max_size=n))
    return SplineProfile(x, y, slopes)


leaves = st.one_of(
    reals.map(ConstantProfile),
    st.builds(AffineProfile, reals, reals),
    st.lists(reals, min_size=1, max_size=4).map(PolyProfile),
    splines(),
)


def _extend(children):
    return st.one_of(
        st.builds(ComposedProfile, children, st.floats(0.25, 2.0), reals),
        st.lists(children, min_size=1, max_size=3).map(SumProfile),
        st.builds(ProductProfile, children, children),
        st.builds(ScaledProfile, reals, children),
        st.builds(MirrorProfile, children, reals),
    )


trees = st.recursive(leaves, _extend, max_leaves=8)


def _json_round_trip(d):
    return json.loads(json.dumps(d))


@PROPERTY
@given(trees)
def test_profile_tree_round_trips(profile):
    d = profile.to_dict()
    clone = profile_from_dict(_json_round_trip(d))
    assert clone.to_dict() == d
    np.testing.assert_array_equal(clone(QS), profile(QS))


@PROPERTY
@given(trees, trees, splines(), reals)
def test_q_derivative_of_spline_and_mirror_coefficients_round_trips(a, b, spline, pivot):
    f = FourierFunction(IV, {
        0: ComplexProfile(spline),
        1: ComplexProfile(MirrorProfile(a, pivot), ComposedProfile(spline, 0.5, 0.1)),
        -2: ComplexProfile(MirrorProfile(spline, pivot), b),
    })
    df = f.d_q()
    clone = FourierFunction.from_dict(_json_round_trip(df.to_dict()))
    assert sorted(clone.coeffs) == sorted(df.coeffs)
    for n, c in df.coeffs.items():
        np.testing.assert_array_equal(clone.coeffs[n](QS), c(QS))
