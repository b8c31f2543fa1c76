"""Profile primitives: evaluation, calculus, serialization."""

import json

import numpy as np
import pytest

from fuzzyreg.errors import CapabilityError, DomainError
from fuzzyreg.fourier import FourierFunction
from fuzzyreg.profiles import (
    AffineProfile,
    CallableProfile,
    ComplexProfile,
    ComposedProfile,
    ConstantProfile,
    MirrorProfile,
    PolyProfile,
    SplineProfile,
    _memo,
    as_profile,
    profile_from_dict,
    shared_evaluation,
    smooth_step,
)


def fd(p, q, h=1e-6):
    return (p(q + h) - p(q - h)) / (2.0 * h)


class TestBasicProfiles:
    def test_constant(self):
        p = ConstantProfile(3.5)
        assert p(0.0) == 3.5
        np.testing.assert_array_equal(p(np.zeros(4)), np.full(4, 3.5))
        assert p.derivative()(17.0) == 0.0

    def test_affine(self):
        p = AffineProfile(0.7, 0.3)
        assert p(0.0) == pytest.approx(0.7)
        assert p(2.0) == pytest.approx(1.3)
        assert p.derivative()(5.0) == pytest.approx(0.3)

    def test_poly_matches_direct_evaluation(self):
        p = PolyProfile([1.0, -2.0, 0.5])
        qs = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(p(qs), 1.0 - 2.0 * qs + 0.5 * qs**2)
        np.testing.assert_allclose(p.derivative()(qs), -2.0 + qs)

    def test_sum_and_product_with_derivatives(self):
        p = AffineProfile(1.0, 2.0) + ConstantProfile(0.5)
        prod = p * PolyProfile([0.0, 1.0])
        qs = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(prod(qs), (1.5 + 2.0 * qs) * qs)
        np.testing.assert_allclose(prod.derivative()(qs), 1.5 + 4.0 * qs, atol=1e-12)

    def test_scalar_multiples_and_negation(self):
        p = 2.0 * AffineProfile(0.0, 1.0)
        assert p(3.0) == pytest.approx(6.0)
        assert (-p)(3.0) == pytest.approx(-6.0)
        assert (p - 1.0)(1.0) == pytest.approx(1.0)
        assert (1.0 - p)(1.0) == pytest.approx(-1.0)


class TestSmoothStep:
    """The clamped monotone ramp h used by every transition window."""

    def test_knot_values(self):
        h = smooth_step()
        for x, y in [(-1.0, 0.0), (-0.5, 0.1), (0.0, 0.5), (0.5, 0.9), (1.0, 1.0)]:
            assert h(x) == pytest.approx(y, abs=1e-14)

    def test_value_between_knots(self):
        assert smooth_step()(0.25) == pytest.approx(0.73, abs=1e-12)

    def test_clamped_outside(self):
        h = smooth_step()
        assert h(-3.0) == 0.0
        assert h(1.5) == 1.0
        np.testing.assert_array_equal(h(np.array([-2.0, 4.0])), [0.0, 1.0])

    def test_monotone(self):
        vals = smooth_step()(np.linspace(-1, 1, 401))
        assert np.all(np.diff(vals) >= -1e-14)

    def test_derivative_matches_finite_differences(self):
        h = smooth_step()
        d = h.derivative()
        for q in (-0.7, -0.2, 0.25, 0.6, 0.9):
            assert d(q) == pytest.approx(fd(h, q), abs=1e-5)

    def test_slope_at_center(self):
        assert smooth_step().derivative()(0.0) == pytest.approx(0.8, abs=1e-12)

    def test_derivative_vanishes_outside_knots(self):
        d = smooth_step().derivative()
        assert d(-2.0) == 0.0
        assert d(3.0) == 0.0

    def test_flat_end_slopes(self):
        # monotone interpolation clamps the one-sided end slopes to zero here
        d = smooth_step().derivative()
        assert d(-1.0) == pytest.approx(0.0, abs=1e-12)
        assert d(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_no_second_derivative(self):
        with pytest.raises(CapabilityError):
            smooth_step().derivative().derivative()


def test_spline_profile_interpolates_its_knots():
    xs = [0.0, 1.0, 2.0, 4.0]
    ys = [1.0, -1.0, 0.5, 0.5]
    s = SplineProfile.pchip(xs, ys)
    np.testing.assert_allclose(s(np.array(xs)), ys, atol=1e-14)
    # clamped continuation
    assert s(-5.0) == ys[0]
    assert s(9.0) == ys[-1]


def test_composed_profile_chain_rule():
    c = ComposedProfile(smooth_step(), 2.0, -3.0)
    assert c(1.5) == pytest.approx(smooth_step()(0.0))
    assert c.derivative()(1.5) == pytest.approx(2.0 * smooth_step().derivative()(0.0))


class TestMirrorProfile:
    def test_folds_beyond_pivot(self):
        base = PolyProfile([0.0, 1.0, 1.0])
        m = MirrorProfile(base, 2.0)
        assert m(1.5) == pytest.approx(base(1.5))
        assert m(3.0) == pytest.approx(base(1.0))
        qs = np.linspace(0.0, 4.0, 21)
        np.testing.assert_allclose(m(qs), m(4.0 - qs), atol=1e-14)

    def test_derivative_flips_sign_on_the_far_side(self):
        base = PolyProfile([0.0, 1.0, 1.0])
        m = MirrorProfile(base, 2.0)
        d = m.derivative()
        assert d(1.0) == pytest.approx(base.derivative()(1.0))
        assert d(3.0) == pytest.approx(-base.derivative()(1.0))

    def test_differentiated_once_only(self):
        m = MirrorProfile(AffineProfile(0.0, 1.0), 0.0)
        with pytest.raises(CapabilityError, match="once"):
            m.derivative().derivative()


def test_callable_profile_evaluates_but_wont_differentiate():
    p = CallableProfile(lambda q: np.cos(q), label="cosine")
    assert p(0.0) == pytest.approx(1.0)
    with pytest.raises(CapabilityError):
        p.derivative()


class TestSerialization:
    @pytest.mark.parametrize(
        "profile",
        [
            ConstantProfile(2.0),
            AffineProfile(0.5, -1.0),
            PolyProfile([1.0, 2.0, 3.0]),
            smooth_step(),
            ComposedProfile(smooth_step(), 2.0, 1.0),
            AffineProfile(1.0, 1.0) + PolyProfile([0.0, 0.0, 1.0]),
            AffineProfile(1.0, 1.0) * AffineProfile(0.0, 1.0),
            3.0 * smooth_step(),
            MirrorProfile(PolyProfile([0.0, 1.0]), 1.0),
        ],
    )
    def test_round_trip(self, profile):
        clone = profile_from_dict(profile.to_dict())
        qs = np.linspace(-1.5, 1.5, 11)
        np.testing.assert_allclose(clone(qs), profile(qs), atol=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            profile_from_dict({"kind": "wavelet"})

    @pytest.mark.parametrize(
        "coeff",
        [smooth_step(), MirrorProfile(PolyProfile([0.0, 1.0, 2.0]), 1.0),
         ComposedProfile(MirrorProfile(smooth_step(), 0.2), 2.0, -0.5)],
    )
    def test_derivative_kinds_round_trip(self, coeff):
        f = FourierFunction((-1.5, 1.5), {0: coeff, 2: ComplexProfile(0.5, coeff)})
        df = f.d_q()
        clone = FourierFunction.from_dict(df.to_dict())
        qs = np.linspace(-1.5, 1.5, 13)
        assert sorted(clone.coeffs) == sorted(df.coeffs)
        for n, c in df.coeffs.items():
            np.testing.assert_array_equal(clone.coeffs[n](qs), c(qs))

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "wavelet"},
            {"kind": "affine", "a0": 1.0},
            {"value": 1.0},
            {"kind": "sum", "terms": [{"kind": "constant"}]},
            {"kind": "spline-derivative", "base": {"kind": "constant", "value": 1.0}},
            {"kind": "mirror-derivative", "base": smooth_step().to_dict()},
            {"kind": "cubic-spline", "knots_x": [0.0], "knots_y": [1.0], "slopes": [0.0]},
        ],
    )
    def test_malformed_input_raises_domain_error(self, bad):
        with pytest.raises(DomainError):
            profile_from_dict(bad)

    def test_equal_splines_load_as_one_node(self):
        d = smooth_step().to_dict()
        one, two = profile_from_dict(d), profile_from_dict(json.loads(json.dumps(d)))
        assert one is two
        assert one.derivative() is two.derivative()
        pair = profile_from_dict({"kind": "sum", "terms": [d, {"kind": "scaled", "factor": 0.5, "base": d}]})
        assert pair.terms[0] is pair.terms[1].base is one
        # keyed by bytes: another slope, or the other sign of a zero, is another spline
        for k, v in (("slopes", 0.5), ("knots_y", -0.0)):
            other = dict(d, **{k: [v] + d[k][1:]})
            assert profile_from_dict(other) is not one
            assert profile_from_dict(other).to_dict() == other

    def test_complex_profile_needs_both_parts(self):
        with pytest.raises(DomainError):
            ComplexProfile.from_dict({"re": {"kind": "constant", "value": 1.0}})

    @pytest.mark.parametrize(
        "knots",
        [
            ([0.0], [1.0], [0.0]),
            ([0.0, 1.0], [1.0], [0.0, 0.0]),
            ([1.0, 0.0], [0.0, 1.0], [0.0, 0.0]),
            ([0.0, np.inf], [0.0, 1.0], [0.0, 0.0]),
            ([-np.inf, 0.0], [0.0, 1.0], [0.0, 0.0]),
            ([0.0, 1.0], [np.nan, 1.0], [0.0, 0.0]),
            ([0.0, 1.0], [0.0, np.inf], [0.0, 0.0]),
            ([0.0, 1.0], [0.0, 1.0], [0.0, np.nan]),
            ([0.0, 1.0], [0.0, 1.0], [-np.inf, 0.0]),
        ],
    )
    def test_bad_spline_knots_raise_domain_error(self, knots):
        with pytest.raises(DomainError):
            SplineProfile(*knots)


def test_as_profile_coercion():
    p = as_profile(2.5)
    assert isinstance(p, ConstantProfile)
    assert as_profile(p) is p
    with pytest.raises(TypeError):
        as_profile([1.0, 2.0])


class TestComplexProfile:
    def test_eval_and_conjugate(self):
        c = ComplexProfile(AffineProfile(1.0, 2.0), ConstantProfile(0.5))
        assert c(1.0) == pytest.approx(3.0 + 0.5j)
        assert c.conjugate()(1.0) == pytest.approx(3.0 - 0.5j)

    def test_times_i(self):
        c = ComplexProfile(ConstantProfile(2.0), ConstantProfile(3.0))
        assert c.times_i()(0.0) == pytest.approx(-3.0 + 2.0j)

    def test_from_const_and_coerce(self):
        assert ComplexProfile.from_const(1.0 - 2.0j)(9.0) == pytest.approx(1.0 - 2.0j)
        assert ComplexProfile.coerce(4.0)(0.0) == pytest.approx(4.0)

    def test_algebra(self):
        a = ComplexProfile.from_const(1.0 + 1.0j)
        b = ComplexProfile(AffineProfile(0.0, 1.0))
        assert (a * b)(2.0) == pytest.approx(2.0 + 2.0j)
        assert (a + b)(2.0) == pytest.approx(3.0 + 1.0j)
        assert (a - b)(2.0) == pytest.approx(-1.0 + 1.0j)
        assert (-b)(2.0) == pytest.approx(-2.0)

    def test_derivative(self):
        c = ComplexProfile(PolyProfile([0.0, 0.0, 1.0]), AffineProfile(0.0, 3.0))
        assert c.derivative()(2.0) == pytest.approx(4.0 + 3.0j)

    def test_mirror_of_a_pair_keeps_derivative_and_serialization(self):
        c = ComplexProfile(AffineProfile(1.0, 2.0), PolyProfile([0.0, 0.0, 1.0]))
        m = c.mirror(1.0)
        assert isinstance(m.re, MirrorProfile) and isinstance(m.im, MirrorProfile)
        qs = np.array([0.25, 1.75])
        np.testing.assert_allclose(m(qs), c(np.array([0.25, 0.25])), atol=1e-15)
        np.testing.assert_allclose(m.derivative()(qs), [2.0 + 0.5j, -2.0 - 0.5j], atol=1e-15)
        assert ComplexProfile.from_dict(m.to_dict()).to_dict() == m.to_dict()

    def test_dict_round_trip(self):
        c = ComplexProfile(AffineProfile(0.3, 0.7), ConstantProfile(-1.0))
        clone = ComplexProfile.from_dict(c.to_dict())
        qs = np.linspace(0, 1, 5)
        np.testing.assert_allclose(clone(qs), c(qs))


class TestFromCallable:
    # parts with every sign of zero, indexed by q = 0..5
    RE = np.array([0.0, -0.0, -0.0, 1.5, -2.0, 0.0])
    IM = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -3.0])

    def make(self):
        vals = np.empty(len(self.RE), dtype=complex)
        vals.real, vals.imag = self.RE, self.IM
        calls = []

        def fn(q):
            calls.append(np.shape(q))
            return vals[np.asarray(q, dtype=int)]

        return ComplexProfile.from_callable(fn, "f"), calls

    def test_call_is_bitwise_the_pair_sum_and_calls_once(self):
        c, calls = self.make()
        qs = np.arange(6.0)
        with shared_evaluation():
            got = c(qs)
        assert len(calls) == 1
        want = c.re(qs) + 1j * c.im(qs)
        assert got.tobytes() == want.tobytes()
        pair = ComplexProfile(CallableProfile(lambda q: self.RE[q.astype(int)]),
                              CallableProfile(lambda q: self.IM[q.astype(int)]))
        assert got.tobytes() == pair(qs).tobytes()

    def test_call_outside_a_memo_calls_once(self):
        c, calls = self.make()
        qs = np.arange(6.0)
        got = c(qs)
        assert len(calls) == 1
        assert _memo.get() is None
        assert got.tobytes() == (c.re(qs) + 1j * c.im(qs)).tobytes()

    def test_conjugate_is_bitwise_and_calls_once(self):
        c, calls = self.make()
        qs = np.arange(6.0)
        conj = c.conjugate()
        with shared_evaluation():
            got = conj(qs)
        assert len(calls) == 1
        want = ComplexProfile(c.re, -c.im)(qs)
        assert got.tobytes() == want.tobytes()
        assert conj.conjugate()(qs).tobytes() == c(qs).tobytes()

    def test_mirror_is_bitwise_the_mirrored_parts_and_calls_once(self):
        c, calls = self.make()
        qs = np.arange(6.0)
        mirrored = c.mirror(2.5)
        with shared_evaluation():
            got = mirrored(qs)
        assert len(calls) == 1
        # q = 3, 4, 5 fold back onto 2, 1, 0
        want = ComplexProfile(MirrorProfile(c.re, 2.5), MirrorProfile(c.im, 2.5))(qs)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == c(np.array([0.0, 1.0, 2.0, 2.0, 1.0, 0.0])).tobytes()
        assert mirrored.conjugate()(qs).tobytes() == c.conjugate().mirror(2.5)(qs).tobytes()

    def test_evaluation_only(self):
        c, _ = self.make()
        with pytest.raises(CapabilityError):
            c.to_dict()
