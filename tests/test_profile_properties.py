"""Property tests: serialized profile trees round-trip exactly, derivative
trees built by the profile algebra evaluate like the node-by-node chain rule,
the Poisson bracket is antisymmetric and obeys the Leibniz rule, the
regularization Q is linear, the z-ordering is inverted exactly, the
vertex blend is exact at both ends of its transition window, and the
planned coefficient evaluator gives the plain walk's bits on forests with
shared, structurally equal and signed-zero subtrees."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction, coefficient_values, mul, poisson_bracket
from fuzzyreg.interpolate import interp_fourier_coeff, make_profile
from fuzzyreg.profiles import (
    AffineProfile,
    CallableProfile,
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
from fuzzyreg.regularize import make_grid, regularize_scalar
from refs import walked_values

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


def _chain_rule(p):
    """The derivative tree built node by node, without the algebra's folding."""
    if isinstance(p, ComposedProfile):
        return ScaledProfile(p.scale, ComposedProfile(_chain_rule(p.outer), p.scale, p.shift))
    if isinstance(p, SumProfile):
        return SumProfile(tuple(_chain_rule(t) for t in p.terms))
    if isinstance(p, ProductProfile):
        return SumProfile((ProductProfile(_chain_rule(p.left), p.right),
                           ProductProfile(p.left, _chain_rule(p.right))))
    if isinstance(p, ScaledProfile):
        return ScaledProfile(p.factor, _chain_rule(p.base))
    if isinstance(p, MirrorProfile):
        d, pivot = _chain_rule(p.base), p.pivot

        def mirrored(q):
            vals = d(np.where(q <= pivot, q, 2.0 * pivot - q))
            return np.where(q <= pivot, vals, -vals)

        return CallableProfile(mirrored, "mirror derivative")
    return p.derivative()


@PROPERTY
@given(trees)
def test_derivative_matches_the_node_by_node_chain_rule(profile):
    # folding constant-zero and unit terms may flip the sign of a zero only
    got, want = profile.derivative()(QS), _chain_rule(profile)(QS)
    np.testing.assert_array_equal(got, want)
    assert np.abs(got).tobytes() == np.abs(want).tobytes()


series = st.dictionaries(st.integers(-2, 2), st.tuples(trees, trees), min_size=1, max_size=3).map(
    lambda table: FourierFunction(IV, {n: ComplexProfile(re, im) for n, (re, im) in table.items()}))

Q_GRID = np.linspace(-2.0, 2.0, 9)[:, None]
PHI_GRID = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)[None, :]


def _values(f):
    return f.eval(Q_GRID, PHI_GRID)


def _close(lhs, rhs, *terms):
    scale = max(np.max(np.abs(t)) for t in (lhs, rhs) + terms)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@PROPERTY
@given(series, series)
def test_bracket_is_antisymmetric(f, g):
    fg, gf = _values(poisson_bracket(f, g)), _values(poisson_bracket(g, f))
    parts = [_values(a) * _values(b) for a, b in ((f.d_phi(), g.d_q()), (f.d_q(), g.d_phi()))]
    _close(fg, -gf, *parts)


@PROPERTY
@given(series, series, series)
def test_bracket_obeys_the_leibniz_rule(f, g, h):
    lhs = _values(poisson_bracket(f, mul(g, h)))
    left, right = _values(poisson_bracket(f, g)) * _values(h), _values(g) * _values(poisson_bracket(f, h))
    _close(lhs, left + right, left, right)


@PROPERTY
@given(series, series, reals, reals, st.integers(3, 12))
def test_regularization_is_linear(f, g, a, b, N):
    grid = make_grid(N, IV)
    Qf, Qg = regularize_scalar(f, grid).data, regularize_scalar(g, grid).data
    lhs = regularize_scalar(a * f + b * g, grid).data
    _close(lhs, a * Qf + b * Qg, a * Qf, b * Qg)


coefficients = st.one_of(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.builds(lambda a, b, c, d: ComplexProfile(AffineProfile(a, b), AffineProfile(c, d)),
              reals, reals, reals, reals),
)
slot_tables = st.dictionaries(st.integers(-3, 3), coefficients, min_size=1, max_size=4)


def _slot_value(table, m, q):
    c = table.get(m, 0.0)
    return complex(c(q)) if callable(c) else complex(c)


@PROPERTY
@given(slot_tables, slot_tables, st.floats(-1.0, 1.0), st.floats(0.1, 2.0),
       st.integers(-4, 4), st.sampled_from(["explicit-spline", "derived-lambda"]))
def test_blend_is_exact_at_both_window_ends(t1, t2, q2, width, m, mode):
    profile = make_profile(mode, q2, q2 + width)
    ends = np.array([profile.q2, profile.q3])
    got = interp_fourier_coeff(t1, t2, profile, m, ends)
    want = [_slot_value(t1, m, profile.q2), _slot_value(t2, m, profile.q3)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


signed_zeros = st.sampled_from([0.0, -0.0])


def _rebuilt(p):
    """A structured node equal to p in kind, factor and children, but another object."""
    if isinstance(p, SumProfile):
        return SumProfile(p.terms)
    if isinstance(p, ProductProfile):
        return ProductProfile(p.left, p.right)
    if isinstance(p, ScaledProfile):
        return ScaledProfile(p.factor, p.base)
    return profile_from_dict(p.to_dict())


@st.composite
def shared_forests(draw):
    """A 2 x 2 matrix function whose coefficient parts are drawn from one pool:
    random trees and +-0.0 constants, then sums, products and scalings (by
    reals or +-0.0) of earlier members, and rebuilt or serialized copies of
    them.  A member read by several nodes or parts is a shared subtree; a
    copy is a structurally equal one; +0.0 and -0.0 must never stand for
    each other."""
    pool = draw(st.lists(trees, min_size=1, max_size=3)) + [ConstantProfile(0.0), ConstantProfile(-0.0)]
    for _ in range(draw(st.integers(2, 12))):
        member = st.sampled_from(list(pool))
        kind = draw(st.sampled_from(["sum", "product", "scaled", "copy"]))
        if kind == "sum":
            pool.append(SumProfile(draw(st.lists(member, min_size=1, max_size=3))))
        elif kind == "product":
            pool.append(ProductProfile(draw(member), draw(member)))
        elif kind == "scaled":
            pool.append(ScaledProfile(draw(reals | signed_zeros), draw(member)))
        else:
            pool.append(_rebuilt(draw(member)))
    parts = st.sampled_from(pool[-8:] + pool[:2])

    def entry():
        modes = draw(st.dictionaries(st.integers(-2, 2), st.tuples(parts, parts), min_size=1, max_size=3))
        return FourierFunction(IV, {n: ComplexProfile(re, im) for n, (re, im) in modes.items()})

    return MatrixFourierFunction(IV, [[entry(), entry()], [entry(), entry()]])


def _assert_walked_bitwise(functions, qs):
    got, want = coefficient_values(functions, qs), walked_values(functions, qs)
    for tg, tw in zip(got, want, strict=True):
        assert list(tg) == list(tw)
        for key, value in tw.items():
            assert np.array_equal(tg[key].view(np.int64), value.view(np.int64)), key


@PROPERTY
@given(shared_forests(), shared_forests())
def test_planned_values_equal_the_walk_bitwise(F, G):
    # on one q array the two functions' forests are planned together; on two,
    # apart, and an equal copy of q is another array
    _assert_walked_bitwise([F, G, F], [QS, QS, QS])
    _assert_walked_bitwise([F, G], [QS, QS.copy()])
