"""Coefficient tables over (q, phi): evaluation, products, brackets."""

import numpy as np
import pytest

from fuzzyreg.errors import CapabilityError, DomainError
from fuzzyreg.fourier import (
    FourierFunction,
    MatrixFourierFunction,
    coefficient_values,
    mul,
    poisson_bracket,
)
from fuzzyreg.interpolate import VertexParams, build_string_vertex
from fuzzyreg.profiles import (
    AffineProfile,
    CallableProfile,
    ComplexProfile,
    ComposedProfile,
    MirrorProfile,
    PolyProfile,
    smooth_step,
)
from fuzzyreg.regularize import make_grid

IV = (0.0, 1.0)


def grid_samples(interval, nq=8, nphi=16):
    qs = np.linspace(interval[0], interval[1], nq)
    phis = np.linspace(0.0, 2.0 * np.pi, nphi, endpoint=False)
    return qs[:, None], phis[None, :]


def random_table(rng, interval=IV, max_mode=3, n_modes=3, poly=False):
    modes = rng.choice(np.arange(-max_mode, max_mode + 1), size=n_modes, replace=False)
    coeffs = {}
    for m in modes:
        if poly:
            re = PolyProfile(rng.normal(size=3))
            im = PolyProfile(rng.normal(size=3))
        else:
            re = AffineProfile(rng.normal(), rng.normal())
            im = AffineProfile(rng.normal(), rng.normal())
        coeffs[int(m)] = ComplexProfile(re, im)
    return FourierFunction(interval, coeffs)


class TestEvaluation:
    def test_constant(self):
        f = FourierFunction.from_profile(IV, 2.0)
        assert f.eval(0.3, 1.2) == pytest.approx(2.0)

    def test_single_mode_quarter_turn(self):
        f = FourierFunction(IV, {1: 1.0})
        assert f.eval(0.25, np.pi / 2) == pytest.approx(1j)

    def test_matches_direct_mode_sum(self):
        rng = np.random.default_rng(11)
        f = random_table(rng)
        qs, phis = grid_samples(IV)
        direct = sum(f.coeffs[n](qs) * np.exp(1j * n * phis) for n in f.modes())
        np.testing.assert_allclose(f.eval(qs, phis), direct, atol=1e-14)

    def test_cosine_and_sine_shortcuts(self):
        c = FourierFunction.cosine(IV, 2, 0.8)
        s = FourierFunction.sine(IV, 3)
        assert c.coeffs[2](0.5) == pytest.approx(0.4)
        assert c.coeffs[-2](0.5) == pytest.approx(0.4)
        assert s.coeffs[3](0.5) == pytest.approx(-0.5j)
        assert s.coeffs[-3](0.5) == pytest.approx(0.5j)
        qs, phis = grid_samples(IV)
        np.testing.assert_allclose(c.eval(qs, phis), 0.8 * np.cos(2 * phis) + 0 * qs, atol=1e-14)
        np.testing.assert_allclose(s.eval(qs, phis), np.sin(3 * phis) + 0 * qs, atol=1e-14)

    def test_zero_coefficients_dropped(self):
        f = FourierFunction(IV, {1: ComplexProfile.from_const(0.0)})
        assert f.modes() == []
        assert f.cutoff == 0

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            FourierFunction((1.0, 1.0), {})

    @pytest.mark.parametrize("interval", [(2.0, 1.0), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)],
                             ids=["reversed", "infinite-end", "infinite-start", "nan-start"])
    @pytest.mark.parametrize("build", [
        lambda iv: FourierFunction(iv, {}),
        lambda iv: MatrixFourierFunction(iv, [[None]]),
        lambda iv: make_grid(8, iv),
    ], ids=["function", "matrix-function", "grid"])
    def test_interval_needs_finite_ordered_ends(self, build, interval):
        with pytest.raises(DomainError, match=r"interval \[.*\] must have finite ends"):
            build(interval)

    def test_eval_outside_interval_rejected(self):
        f = FourierFunction.from_profile(IV, 1.0)
        with pytest.raises(DomainError):
            f.eval(1.5, 0.0)


class TestCalculus:
    def test_d_phi_of_sine_is_cosine(self):
        s = FourierFunction.sine(IV, 1)
        c = FourierFunction.cosine(IV, 1)
        for n in (-1, 1):
            assert s.d_phi().coeffs[n](0.3) == pytest.approx(c.coeffs[n](0.3))

    def test_d_phi_against_finite_differences(self):
        rng = np.random.default_rng(5)
        f = random_table(rng)
        h = 1e-6
        q, phi = 0.4, 0.7
        fd = (f.eval(q, phi + h) - f.eval(q, phi - h)) / (2 * h)
        assert f.d_phi().eval(q, phi) == pytest.approx(fd, abs=1e-8)

    def test_d_q_against_finite_differences(self):
        amp = ComposedProfile(smooth_step(), 2.0, -1.0)
        f = FourierFunction.cosine(IV, 1, amp)
        h = 1e-6
        q, phi = 0.35, 1.1
        fd = (f.eval(q + h, phi) - f.eval(q - h, phi)) / (2 * h)
        assert f.d_q().eval(q, phi) == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("make", [
        lambda: FourierFunction(IV, {0: ComplexProfile(CallableProfile(np.exp))}),
        lambda: build_string_vertex(VertexParams(N=8)).generators[0].entries[0][1],
        lambda: FourierFunction(IV, {0: smooth_step().derivative()}),
        lambda: FourierFunction(IV, {1: MirrorProfile(AffineProfile(0.0, 1.0), 0.5).derivative()}),
    ], ids=["callable", "vertex-coefficient", "spline-derivative", "mirror-derivative"])
    def test_d_q_requires_differentiable_profiles(self, make):
        with pytest.raises(CapabilityError):
            make().d_q()

    def test_d_phi_product_rule_is_exact(self):
        rng = np.random.default_rng(23)
        f = random_table(rng, poly=True)
        g = random_table(rng, poly=True)
        lhs = mul(f, g).d_phi()
        rhs = mul(f.d_phi(), g) + mul(f, g.d_phi())
        qs = np.linspace(0, 1, 9)
        zero = ComplexProfile.from_const(0.0)  # a mode one side lacks
        for n in set(lhs.modes()) | set(rhs.modes()):
            np.testing.assert_allclose(lhs.coeffs.get(n, zero)(qs), rhs.coeffs.get(n, zero)(qs),
                                       atol=1e-13)


class TestProducts:
    def test_cosine_squared_table(self):
        f = FourierFunction.cosine(IV, 1)
        p = mul(f, f)
        assert sorted(p.modes()) == [-2, 0, 2]
        assert p.coeffs[-2](0.1) == pytest.approx(0.25)
        assert p.coeffs[0](0.1) == pytest.approx(0.5)
        assert p.coeffs[2](0.1) == pytest.approx(0.25)
        phis = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        np.testing.assert_allclose(
            p.eval(np.full_like(phis, 0.5), phis), np.cos(phis) ** 2, atol=1e-14
        )

    def test_mul_commutes_and_associates(self):
        rng = np.random.default_rng(7)
        f, g, h = (random_table(rng) for _ in range(3))
        qs, phis = grid_samples(IV)
        np.testing.assert_allclose(mul(f, g).eval(qs, phis), mul(g, f).eval(qs, phis), atol=1e-13)
        np.testing.assert_allclose(
            mul(mul(f, g), h).eval(qs, phis), mul(f, mul(g, h)).eval(qs, phis), atol=1e-13
        )

    def test_mul_is_the_pointwise_product(self):
        rng = np.random.default_rng(8)
        f, g = random_table(rng), random_table(rng)
        qs, phis = grid_samples(IV)
        np.testing.assert_allclose(
            mul(f, g).eval(qs, phis), f.eval(qs, phis) * g.eval(qs, phis), atol=1e-13
        )


class TestPoissonBracket:
    def test_height_against_single_mode(self):
        qfn = FourierFunction.from_profile(IV, AffineProfile(0.0, 1.0))
        e1 = FourierFunction(IV, {1: 1.0})
        pb = poisson_bracket(qfn, e1)
        assert sorted(pb.modes()) == [1]
        assert pb.coeffs[1](0.4) == pytest.approx(-1j)

    def test_bracket_with_itself_vanishes(self):
        rng = np.random.default_rng(9)
        f = random_table(rng, poly=True)
        pb = poisson_bracket(f, f)
        qs, phis = grid_samples(IV)
        np.testing.assert_allclose(pb.eval(qs, phis), 0.0, atol=1e-12)

    def test_two_height_independent_functions_commute(self):
        c = FourierFunction.cosine(IV, 1)
        s = FourierFunction.sine(IV, 1)
        bracket = poisson_bracket(c, s)
        qs = np.linspace(IV[0], IV[1], 5)[:, None]
        phis = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)[None, :]
        assert np.max(np.abs(bracket.eval(qs, phis))) < 1e-15

    def test_leibniz_rule(self):
        rng = np.random.default_rng(10)
        f, g, h = (random_table(rng, poly=True, n_modes=2) for _ in range(3))
        lhs = poisson_bracket(f, mul(g, h))
        rhs = mul(poisson_bracket(f, g), h) + mul(g, poisson_bracket(f, h))
        qs, phis = grid_samples(IV)
        np.testing.assert_allclose(lhs.eval(qs, phis), rhs.eval(qs, phis), atol=1e-12)


class TestStructuralOps:
    def test_is_real_valued(self):
        f = FourierFunction.cosine(IV, 1) + FourierFunction.sine(IV, 2, 0.3)
        assert f.is_real_valued()
        qs, phis = grid_samples(IV, nq=64, nphi=64)
        assert np.max(np.abs(f.eval(qs, phis).imag)) < 1e-12
        assert not FourierFunction(IV, {1: 1.0}).is_real_valued()

    def test_conjugate(self):
        rng = np.random.default_rng(13)
        f = random_table(rng)
        fc = f.conjugate()
        qs, phis = grid_samples(IV)
        np.testing.assert_allclose(fc.eval(qs, phis), np.conj(f.eval(qs, phis)), atol=1e-14)
        for n in f.modes():
            np.testing.assert_allclose(fc.coeffs[-n](0.3), np.conj(f.coeffs[n](0.3)))

    def test_dict_round_trip(self):
        rng = np.random.default_rng(16)
        f = random_table(rng)
        clone = FourierFunction.from_dict(f.to_dict())
        qs, phis = grid_samples(IV)
        np.testing.assert_allclose(clone.eval(qs, phis), f.eval(qs, phis), atol=1e-15)

    @pytest.mark.parametrize("bad", [
        {"interval": [0.0, 1.0]},
        {"interval": [0.0, 1.0], "coeffs": [dict(n="x", **ComplexProfile.from_const(1.0).to_dict())]},
        {"interval": [0.0, 1.0], "coeffs": 5},
        {"interval": [0.0, 1.0], "coeffs": [5]},
        {"coeffs": []},
    ], ids=["missing-coeffs", "mode-not-an-integer", "coeffs-not-a-list", "entry-not-an-object",
            "missing-interval"])
    def test_malformed_dict_raises_domain_error(self, bad):
        with pytest.raises(DomainError, match="^malformed serialized Fourier function"):
            FourierFunction.from_dict(bad)

    def test_a_nan_coefficient_is_neither_real_valued_nor_hermitian(self):
        nan = ComplexProfile(CallableProfile(lambda q: np.full(np.shape(q), np.nan)))
        f = FourierFunction(IV, {1: nan, -1: 0.5})
        assert not f.is_real_valued()
        assert not MatrixFourierFunction.from_scalar(f).is_hermitian()
        assert not FourierFunction(IV, {0: nan}).is_real_valued()
        assert not MatrixFourierFunction(IV, [[None, f], [f.conjugate(), None]]).is_hermitian()


class TestMatrixFourierFunction:
    def make_hermitian_pair(self):
        f = FourierFunction(IV, {1: ComplexProfile(AffineProfile(1.0, 0.5))})
        zero = FourierFunction(IV, {})
        return MatrixFourierFunction(IV, [[zero, f], [f.conjugate(), zero]])

    def test_square_shape_required(self):
        zero = FourierFunction(IV, {})
        with pytest.raises(DomainError):
            MatrixFourierFunction(IV, [[zero, zero], [zero]])

    def test_none_entries_mean_zero(self):
        f = FourierFunction.from_profile(IV, 1.0)
        M = MatrixFourierFunction(IV, [[f, None], [None, f]])
        assert M.entries[0][1].modes() == []

    def test_diagonal_and_from_scalar(self):
        f = FourierFunction.cosine(IV, 1)
        D = MatrixFourierFunction.diagonal([f, f])
        S = MatrixFourierFunction.from_scalar(f)
        assert D.S == 2 and S.S == 1
        qs, phis = grid_samples(IV, nq=3, nphi=4)
        vals = D.eval(qs, phis)
        assert vals.shape == (3, 4, 2, 2)
        np.testing.assert_allclose(vals[..., 0, 1], 0.0)
        np.testing.assert_allclose(vals[..., 0, 0], f.eval(qs, phis))

    def test_hermitian_detection(self):
        M = self.make_hermitian_pair()
        assert M.is_hermitian()
        skew = MatrixFourierFunction(
            IV, [[None, FourierFunction.from_profile(IV, 1.0)], [None, None]]
        )
        assert not skew.is_hermitian()

    def test_conjugate_transpose(self):
        M = self.make_hermitian_pair()
        qs, phis = grid_samples(IV, nq=4, nphi=5)
        vals = M.conjugate_transpose().eval(qs, phis)
        ref = np.conj(np.swapaxes(M.eval(qs, phis), -1, -2))
        np.testing.assert_allclose(vals, ref, atol=1e-14)

    def test_matmul_matches_pointwise_product(self):
        rng = np.random.default_rng(21)
        entries = [[random_table(rng) for _ in range(2)] for _ in range(2)]
        A = MatrixFourierFunction(IV, entries)
        B = MatrixFourierFunction(IV, [[random_table(rng), None], [None, random_table(rng)]])
        qs, phis = grid_samples(IV, nq=4, nphi=6)
        np.testing.assert_allclose(
            A.matmul(B).eval(qs, phis), A.eval(qs, phis) @ B.eval(qs, phis), atol=1e-12
        )

    def test_scalar_algebra(self):
        M = self.make_hermitian_pair()
        qs, phis = grid_samples(IV, nq=3, nphi=4)
        np.testing.assert_allclose((M * 2.0).eval(qs, phis), 2.0 * M.eval(qs, phis))
        np.testing.assert_allclose((M + M).eval(qs, phis), 2.0 * M.eval(qs, phis))
        np.testing.assert_allclose((M - M).eval(qs, phis), 0.0)


class TestCoefficientValues:
    def test_a_shared_node_common_to_two_functions_runs_once(self):
        calls = []

        def blend(q):
            calls.append(len(q))
            return np.cos(q) + 0.5j * q

        c = ComplexProfile.from_callable(blend)
        F = MatrixFourierFunction.from_scalar(FourierFunction(IV, {0: c, 1: c * 2.0}))
        G = MatrixFourierFunction.diagonal([FourierFunction(IV, {2: c}),
                                            FourierFunction(IV, {-1: c.conjugate()})])
        q = np.linspace(0.0, 1.0, 7)
        tf, tg = coefficient_values([F, G], [q, q])
        assert calls == [7]
        # entries row-major, each entry's modes in its coeffs order
        assert list(tf) == [(0, 0, 0), (0, 0, 1)]
        assert list(tg) == [(0, 0, 2), (1, 1, -1)]
        np.testing.assert_array_equal(tf[(0, 0, 1)], 2.0 * blend(q))
        np.testing.assert_array_equal(tg[(1, 1, -1)], np.conj(blend(q)))
        # the node is matched by the q object: an equal copy is another array
        calls.clear()
        coefficient_values([F, G], [q, q.copy()])
        assert calls == [7, 7]
