"""Transition profiles, coefficient blending, and the string vertex."""

import gc
import weakref

import numpy as np
import pytest
from scipy.integrate import simpson

from fuzzyreg.errors import CapabilityError, DomainError
from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction
from fuzzyreg.interpolate import (
    VertexParams,
    _slot_tables,
    _table_values,
    build_string_vertex,
    close_caps,
    default_vertex_cutoff,
    interp_fourier_coeff,
    make_profile,
    mirror_concat,
)
from fuzzyreg.profiles import (
    AffineProfile,
    ComplexProfile,
    ComposedProfile,
    ConstantProfile,
    MirrorProfile,
    PolyProfile,
    smooth_step,
)
from fuzzyreg.regularize import FuzzySpace, make_grid, regularize_matrix
from fuzzyreg.verify import check_commutator_decay, matrix_fn_commutator_sup

from refs import (
    blend_offdiag_reference,
    interlaced_zone_reference,
    interpolated_angle_function,
    scalar_zone_reference,
    zone_masks,
)

MODES = ("explicit-spline", "derived-lambda")


class TestMakeProfile:
    @pytest.mark.parametrize("mode", MODES)
    def test_thetas_at_the_window_ends(self, mode):
        prof = make_profile(mode)
        for q in (-1.0, 0.0, 1.0):
            assert prof.theta1(q) == pytest.approx(1.0, abs=1e-12)
            assert prof.theta2(q) == pytest.approx(0.0, abs=1e-12)
        for q in (2.0, 2.5, 3.0):
            assert prof.theta1(q) == pytest.approx(0.0, abs=1e-12)
            assert prof.theta2(q) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_thetas_always_sum_to_one(self, mode):
        prof = make_profile(mode)
        qs = np.linspace(-1.0, 3.0, 81)
        total = prof.theta1(qs) + prof.theta2(qs)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_alpha_plateaus_and_midpoint(self):
        prof = make_profile()
        assert prof.alpha(0.3) == -0.5
        assert prof.alpha(1.0) == -0.5
        assert prof.alpha(2.0) == 0.0
        assert prof.alpha(2.8) == 0.0
        assert prof.alpha(1.5) == pytest.approx(-0.25, abs=1e-14)

    def test_lambda_normalizer_values(self):
        # theta1 = -lam sin(pi alpha), theta2 = lam cos(pi alpha): lam is 1 at
        # alpha = -1/2 and 0, and 1/sqrt(2) at alpha = -1/4 (the midpoint),
        # where both thetas are lam/sqrt(2) = 1/2
        prof = make_profile("derived-lambda")
        for q, want1, want2 in ((0.5, 1.0, 0.0), (2.5, 0.0, 1.0), (1.5, 0.5, 0.5)):
            assert prof.theta1(q) == pytest.approx(want1, abs=1e-12)
            assert prof.theta2(q) == pytest.approx(want2, abs=1e-12)

    def test_collapsed_window_becomes_a_step(self):
        prof = make_profile(q2=1.5, q3=1.5)
        assert prof.alpha(1.4999) == -0.5
        assert prof.alpha(1.5) == 0.0
        assert prof.theta2(1.2) == 0.0
        assert prof.theta2(1.7) == 1.0

    def test_reversed_window_is_rejected(self):
        with pytest.raises(DomainError, match="reversed"):
            make_profile(q2=2.0, q3=1.0)

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(DomainError, match="mode"):
            make_profile("tanh")


def random_tables(seed=7, span=2):
    rng = np.random.default_rng(seed)
    t1 = {n: complex(*rng.normal(size=2)) for n in range(-span, span + 1)}
    t2 = {n: complex(*rng.normal(size=2)) for n in range(-span, span + 1)}
    return t1, t2


class TestInterpCoeff:
    def test_left_of_the_window_reproduces_slot_one(self):
        t1, t2 = random_tables()
        prof = make_profile()
        for q in (0.2, 1.0):
            for m in range(-3, 4):
                got = interp_fourier_coeff(t1, t2, prof, m, q)
                assert got == pytest.approx(t1.get(m, 0.0), abs=1e-12)

    def test_right_of_the_window_reproduces_slot_two(self):
        t1, t2 = random_tables(seed=11)
        prof = make_profile()
        for q in (2.0, 2.7):
            for m in range(-3, 4):
                got = interp_fourier_coeff(t1, t2, prof, m, q)
                assert got == pytest.approx(t2.get(m, 0.0), abs=1e-12)

    def test_profile_valued_table_entries(self):
        t1 = {0: AffineProfile(0.5, 0.25)}
        t2 = {0: 0.0}
        got = interp_fourier_coeff(t1, t2, make_profile(), 0, 0.8)
        assert got == pytest.approx(0.5 + 0.25 * 0.8, abs=1e-12)

    def test_vectorized_q(self):
        t1, t2 = random_tables(seed=3)
        qs = np.linspace(0.0, 3.0, 7)
        got = interp_fourier_coeff(t1, t2, make_profile(), 1, qs)
        assert got.shape == qs.shape
        single = interp_fourier_coeff(t1, t2, make_profile(), 1, qs[3])
        assert got[3] == pytest.approx(single, abs=1e-14)
        # a sequence of modes stacks them, each as it reads alone, bit for bit
        modes = [3, -2, 1]
        stacked = interp_fourier_coeff(t1, t2, make_profile(), modes, qs)
        assert stacked.shape == (3,) + qs.shape
        for row, m in zip(stacked, modes):
            alone = interp_fourier_coeff(t1, t2, make_profile(), m, qs)
            assert row.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_coefficients_match_angle_quadrature(self, mode):
        t1, t2 = random_tables(seed=19)
        prof = make_profile(mode)
        q = 1.3
        phis = np.linspace(0.0, 2.0 * np.pi, 4097)
        vals = interpolated_angle_function(t1, t2, prof, q, phis)
        for m in (-2, 0, 1, 3):
            integrand = vals * np.exp(-1j * m * phis)
            want = simpson(integrand, x=phis) / (2.0 * np.pi)
            got = interp_fourier_coeff(t1, t2, prof, m, q)
            assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.xfail(strict=True,
                       reason="blending a table with itself distorts it "
                              "inside the window; only the ends are exact")
    def test_self_blend_is_the_identity_inside_the_window(self):
        prof = make_profile("derived-lambda")
        table = {0: 1.0}
        worst = 0.0
        for m in range(-3, 4):
            want = 1.0 if m == 0 else 0.0
            got = interp_fourier_coeff(table, table, prof, m, np.linspace(1.0, 2.0, 9))
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-10

    def test_self_blend_midwindow_values(self):
        # Frozen counterexample backing the xfail above.
        prof = make_profile("derived-lambda")
        table = {0: 1.0}
        f0 = complex(interp_fourier_coeff(table, table, prof, 0, 1.5))
        f1 = complex(interp_fourier_coeff(table, table, prof, 1, 1.5))
        assert f0 == pytest.approx(0.9003163161571062, abs=1e-9)
        assert f1 == pytest.approx(-0.06002108774380707, abs=1e-9)
        assert abs(f0 - 1.0) > 0.05


class TestBlendOracle:
    """The batched blend against a per-mode, per-band reference of the closed
    form, compared as int64 bit patterns (signed zeros included)."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("N", [15, 30, 60])
    def test_vertex_and_mirror_match_the_per_mode_reference_bitwise(self, mode, N):
        p = VertexParams(N=N, profile=make_profile(mode))
        v = build_string_vertex(p)
        c = v.generators[0].cutoff
        q1, q4 = p.interval
        pivot = 2.5
        mir = mirror_concat(v, pivot)
        grids = ((v, make_grid(N, (q1, q4)), None),
                 (mir, make_grid(2 * N, (q1, 2 * pivot - q1)), pivot))
        for space, grid, fold in grids:
            for k, (t1, t2) in enumerate(_slot_tables(p)):
                want = blend_offdiag_reference(t1, t2, p.profile, c, grid, fold)
                got = space.coordinates[k].data
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestDecayBound:
    def test_blended_tails_sit_under_the_joint_envelope(self):
        p = VertexParams()
        (t1x, t2x), (t1y, t2y) = _slot_tables(p)
        qs = np.linspace(p.profile.q2, p.profile.q3, 33)
        peak = 0.0
        for table in (t1x, t2x, t1y, t2y):
            for c in table.values():
                peak = max(peak, float(np.max(np.abs(c(qs)))))
        assert peak == pytest.approx(1.3, abs=1e-12)
        C = 2.0 / np.pi * peak
        assert C == pytest.approx(0.827606, abs=1e-5)

        delta = 2
        tilde = default_vertex_cutoff(delta, p.N)
        assert tilde == 5

        def tail_ratio(t1, t2):
            worst = 0.0
            for m in range(-3 * tilde, 3 * tilde + 1):
                if abs(m) <= delta:
                    continue
                vals = np.abs(interp_fourier_coeff(t1, t2, p.profile, m, qs))
                bound = C * (2 * delta + 1) / m**2
                worst = max(worst, float(np.max(vals)) / bound)
            return worst

        rx = tail_ratio(t1x, t2x)
        ry = tail_ratio(t1y, t2y)
        assert rx <= 1.0
        assert ry <= 1.0
        assert rx > 0.3 and ry > 0.3

    def test_per_coordinate_envelope_is_too_tight(self):
        # The y tables alone peak at 0.5, and that envelope is exceeded;
        # the bound genuinely needs the joint constant.
        p = VertexParams()
        _, (t1y, t2y) = _slot_tables(p)
        qs = np.linspace(p.profile.q2, p.profile.q3, 33)
        peak = max(
            float(np.max(np.abs(c(qs)))) for t in (t1y, t2y) for c in t.values()
        )
        Cy = 2.0 / np.pi * peak
        delta, tilde = 2, 5
        worst = 0.0
        for m in range(delta + 1, 3 * tilde + 1):
            for sign in (m, -m):
                vals = np.abs(interp_fourier_coeff(t1y, t2y, p.profile, sign, qs))
                worst = max(worst, float(np.max(vals)) * sign**2 / (Cy * (2 * delta + 1)))
        assert worst > 1.4


class TestVertexAssembly:
    def test_default_params(self):
        p = VertexParams()
        assert p.r1 == 1.0 and p.r == 1.0
        assert p.x0(1.0) == pytest.approx(1.0)
        assert p.interval == (-1.0, 3.0)
        assert p.N == 30
        assert p.cutoff is None

    @pytest.mark.parametrize("delta,N,want", [
        (2, 30, 5), (2, 60, 6), (2, 12, 2), (3, 100, 9), (5, 12, 5),
    ])
    def test_default_cutoff_values(self, delta, N, want):
        assert default_vertex_cutoff(delta, N) == want

    def test_cutoff_must_stay_below_block_count(self):
        with pytest.raises(DomainError, match="cutoff"):
            build_string_vertex(VertexParams(N=4, cutoff=4))

    @pytest.mark.parametrize("q2, q3", [(5.0, 6.0), (-3.0, -2.0), (-1.0, 2.0), (1.0, 3.0),
                                        (2.5, 3.5)])
    def test_window_must_lie_inside_the_interval(self, q2, q3):
        with pytest.raises(DomainError, match="transition window"):
            build_string_vertex(VertexParams(N=8, profile=make_profile(q2=q2, q3=q3)))

    def test_no_blend_value_outlives_its_call(self, monkeypatch):
        import fuzzyreg.interpolate as interpolate

        seen = []
        coeff = interpolate.interp_fourier_coeff

        def tracked_coeff(*args):
            out = coeff(*args)
            seen.append(weakref.ref(out))
            return out

        monkeypatch.setattr(interpolate, "interp_fourier_coeff", tracked_coeff)
        space = build_string_vertex(VertexParams(N=30))
        space.generators[0].eval(np.linspace(-1.0, 3.0, 9)[:, None], np.zeros((1, 4)))
        gc.collect()
        # two families for the build, one for the evaluation; the space holds none
        assert len(seen) == 3 and all(ref() is None for ref in seen)

    def test_each_blend_family_is_evaluated_once_per_q_vector(self, monkeypatch):
        import fuzzyreg.interpolate as interpolate
        from fuzzyreg.fourier import MatrixFourierFunction as MFF

        calls = {"coeff": [], "probe": 0}
        coeff = interpolate.interp_fourier_coeff
        probe = MFF.is_hermitian

        def counted_coeff(*args):
            calls["coeff"].append(list(args[3]))
            return coeff(*args)

        def counted_probe(*args, **kwargs):
            calls["probe"] += 1
            return probe(*args, **kwargs)

        monkeypatch.setattr(interpolate, "interp_fourier_coeff", counted_coeff)
        monkeypatch.setattr(MFF, "is_hermitian", counted_probe)
        space = build_string_vertex(VertexParams(N=30))
        c = space.generators[0].cutoff
        for F in space.generators[:2]:
            assert sorted(F.entries[0][1].coeffs) == list(range(-c, c + 1))
            assert sorted(F.entries[1][0].coeffs) == list(range(-c, c + 1))
        # one call for x01 and x10, one for y01 and y10, each for every mode
        assert calls == {"coeff": [list(range(-c, c + 1))] * 2, "probe": 0}
        # a pointwise evaluation reads every mode of x from one call at its q
        calls["coeff"].clear()
        space.generators[0].eval(np.linspace(-1.0, 3.0, 9)[:, None], np.zeros((1, 4)))
        assert len(calls["coeff"]) == 1

    def test_space_shape_and_hermiticity(self):
        space = build_string_vertex(VertexParams(N=12))
        assert space.dim == 24
        assert len(space.coordinates) == 3
        assert all(c.is_hermitian(1e-12) for c in space.coordinates)
        assert space.grid.q(0, 0) == pytest.approx(-1.0)
        X, Y, Z = space.generators
        assert X.entries[0][0].modes() == []
        assert X.entries[1][1].modes() == []

    def test_z_sheets(self):
        p = VertexParams(N=20)
        space = build_string_vertex(p)
        zd = np.real(np.diag(space.coordinates[2].data))
        grid = space.grid
        s11 = (p.interval[1] - p.interval[0]) / p.N
        for n in range(p.N):
            q = grid.q(n, n)
            if q <= p.profile.q2:
                assert zd[2 * n] == pytest.approx(2.0 * q, abs=1e-13)
                assert zd[2 * n + 1] == pytest.approx(2.0 * q + s11, abs=1e-13)
            if q >= p.profile.q3:
                assert zd[2 * n] == pytest.approx(q, abs=1e-13)
                assert zd[2 * n + 1] == pytest.approx(q, abs=1e-13)

    def test_zones_reproduce_both_references(self):
        p = VertexParams()
        space = build_string_vertex(p)
        scalar = scalar_zone_reference(p)
        inter = interlaced_zone_reference(p, space.grid)
        in1, in2 = zone_masks(space.grid, space.dim, p.profile.q2, p.profile.q3)
        assert in1.any() and in2.any()
        for k in range(3):
            got = space.coordinates[k].data
            err1 = np.max(np.abs((got - scalar[k].data)[in1]))
            err2 = np.max(np.abs((got - inter[k].data)[in2]))
            assert err1 < 1e-12
            assert err2 < 1e-12

    def test_collapsed_window_switches_zones_sharply(self):
        prof = make_profile(q2=1.5, q3=1.5)
        p = VertexParams(N=16, profile=prof)
        space = build_string_vertex(p)
        scalar = scalar_zone_reference(p)
        inter = interlaced_zone_reference(p, space.grid)
        in1, in2 = zone_masks(space.grid, space.dim, np.nextafter(1.5, 0.0), 1.5)
        assert in1.sum() + in2.sum() == space.dim**2
        for k in range(3):
            got = space.coordinates[k].data
            want = np.where(in1, scalar[k].data, inter[k].data)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_off_track_entries_stay_small(self):
        space = build_string_vertex(VertexParams())
        dim = space.dim
        ii, jj = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
        interior = (ii >= 5) & (ii < dim - 5) & (jj >= 5) & (jj < dim - 5)
        off_track = interior & ~np.isin(jj - ii, (-3, -1, 1, 3))
        for k in range(2):
            worst = np.max(np.abs(space.coordinates[k].data[off_track]))
            assert worst < 0.1


class TestNearCommutation:
    def setup_method(self):
        self.spaces = {N: build_string_vertex(VertexParams(N=N)) for N in (30, 60)}

    def test_z_commutators_scale_like_one_over_n(self):
        for N, space in self.spaces.items():
            X, Y, Z = space.generators
            sup_xz = matrix_fn_commutator_sup(X, Z) * N
            sup_yz = matrix_fn_commutator_sup(Y, Z) * N
            assert 7.99 <= sup_xz <= 8.0000001
            assert 3.99 <= sup_yz <= 4.0000001

    @pytest.mark.xfail(strict=True,
                       reason="the x-y commutator saturates near 1.3 instead "
                              "of halving when N doubles")
    def test_xy_commutator_halves_when_n_doubles(self):
        sups = {
            N: matrix_fn_commutator_sup(s.generators[0], s.generators[1])
            for N, s in self.spaces.items()
        }
        assert sups[60] <= 0.55 * sups[30]

    def test_xy_commutator_saturation(self):
        sups = {
            N: matrix_fn_commutator_sup(s.generators[0], s.generators[1])
            for N, s in self.spaces.items()
        }
        assert sups[30] > 1.2 and sups[60] > 1.2
        assert 0.9 < sups[60] / sups[30] < 1.1



class TestXYCrossTerm:
    """The pointwise x-y commutator of the blend is the theta1*theta2
    cross-term between the two slots; no N shrinks it.

    With x = e^{i alpha (phi - pi)} (-i theta1 F1x + theta2 F2x) and y alike,
    [X, Y] = diag(2i Im(x conj y), -2i Im(x conj y)).  Each slot commutes on
    its own (F1x conj F1y and F2x conj F2y are real), which leaves
    Im(x conj y) = theta1 theta2 Re(F2x conj F1y - F1x conj F2y).
    """

    def test_commutator_is_the_slot_cross_term(self):
        p = VertexParams(N=60)
        prof = p.profile
        (t1x, t2x), (t1y, t2y) = _slot_tables(p)
        q = np.linspace(*p.interval, 161)[:, None]
        phi = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)[None, :]

        def hermitian_offdiag(v):
            M = np.zeros(v.shape + (2, 2), dtype=complex)
            M[..., 0, 1] = v
            M[..., 1, 0] = np.conj(v)
            return M

        X = hermitian_offdiag(interpolated_angle_function(t1x, t2x, prof, q, phi))
        Y = hermitian_offdiag(interpolated_angle_function(t1y, t2y, prof, q, phi))
        comm = X @ Y - Y @ X

        a = prof.alpha(q)

        def slot_sums(t1, t2):
            f1 = sum(v * np.exp(1j * (n + 0.5) * phi + 1j * np.pi * (0.5 + a) * n)
                     for n, v in _table_values(t1, q).items())
            f2 = sum(v * np.exp(1j * n * phi + 1j * np.pi * a * n)
                     for n, v in _table_values(t2, q).items())
            return f1, f2

        (f1x, f2x), (f1y, f2y) = slot_sums(t1x, t2x), slot_sums(t1y, t2y)
        for f, g in ((f1x, f1y), (f2x, f2y)):
            assert np.max(np.abs(np.imag(f * np.conj(g)))) < 1e-14
        cross = prof.theta1(q) * prof.theta2(q) * np.real(f2x * np.conj(f1y) - f1x * np.conj(f2y))
        want = np.zeros_like(comm)
        want[..., 0, 0] = 2j * cross
        want[..., 1, 1] = -2j * cross
        assert np.max(np.abs(comm - want)) < 1e-12

        inside = ((q >= prof.q2) & (q <= prof.q3)).ravel()
        assert np.all(cross[~inside] == 0.0)
        assert 2.0 * np.max(np.abs(cross[inside])) == pytest.approx(1.10, abs=0.01)


class TestMirrorConcat:
    def make_vertex(self, N=12):
        return build_string_vertex(VertexParams(N=N))

    def test_doubles_the_space(self):
        v = self.make_vertex()
        mir = mirror_concat(v, 2.5)
        assert mir.dim == 2 * v.dim
        assert mir.grid.interval == (-1.0, 6.0)
        assert mir.name == "mirrored(string-vertex)"
        assert all(c.is_hermitian(1e-12) for c in mir.coordinates)

    def test_coefficients_become_even_about_the_pivot(self):
        v = self.make_vertex()
        q_E = 2.5
        mir = mirror_concat(v, q_E)
        for F in mir.generators:
            f = F.entries[0][1]
            for m in f.modes():
                c = f.coeffs[m]
                for d in (0.3, 0.9, 1.7):
                    assert c.re(q_E + d) == pytest.approx(c.re(q_E - d), abs=1e-13)
                    assert c.im(q_E + d) == pytest.approx(c.im(q_E - d), abs=1e-13)

    def test_pivot_at_the_right_end_keeps_the_original_as_leading_block(self):
        v = self.make_vertex()
        mir = mirror_concat(v, v.grid.interval[1])
        d = v.dim
        for k in range(3):
            assert np.array_equal(mir.coordinates[k].data[:d, :d],
                                  v.coordinates[k].data)

    def test_mirrored_matrix_is_symmetric_under_anti_transposition(self):
        v = self.make_vertex()
        mir = mirror_concat(v, 3.0)
        A = mir.coordinates[0].data
        sub = A[2:, 2:]
        flipped = sub[::-1, ::-1].T
        assert np.max(np.abs(sub - flipped)) < 1e-13

    def test_double_mirror_preserves_the_first_half_tables(self):
        v = self.make_vertex()
        m1 = mirror_concat(v, 3.0)
        m2 = mirror_concat(m1, m1.grid.interval[1])
        qs = np.linspace(-1.0, 7.0, 17)
        for F1, F2 in zip(m1.generators, m2.generators):
            f1, f2 = F1.entries[0][1], F2.entries[0][1]
            assert f1.modes() == f2.modes()
            for m in f1.modes():
                diff = np.abs(f1.coeffs[m](qs) - f2.coeffs[m](qs))
                assert np.max(diff) == 0.0

    def test_each_mirrored_coefficient_calls_the_blend_once(self, monkeypatch):
        import fuzzyreg.interpolate as interpolate

        v = self.make_vertex(N=30)
        calls = []
        coeff = interpolate.interp_fourier_coeff

        def counted_coeff(*args):
            calls.append(args[3])
            return coeff(*args)

        monkeypatch.setattr(interpolate, "interp_fourier_coeff", counted_coeff)
        for q_E in (2.5, 3.0):
            calls.clear()
            mir = mirror_concat(v, q_E)
            # as in the build: one call per blend family (x, y) for all its modes,
            # since every mirrored part reads one folded q vector per pivot
            assert len(calls) == 2
            calls.clear()
            mir.generators[0].eval(np.linspace(*mir.grid.interval, 15)[:, None], np.zeros((1, 4)))
            assert len(calls) == 1

    def test_mirrored_coordinates_equal_the_mirrored_parts_bitwise(self):
        v = self.make_vertex(N=30)
        q_E = 2.5
        mir = mirror_concat(v, q_E)

        def mirror_parts(f):
            return FourierFunction(mir.grid.interval, {
                n: ComplexProfile(MirrorProfile(c.re, q_E), MirrorProfile(c.im, q_E))
                for n, c in f.coeffs.items()})

        for F, M in zip(v.generators, mir.coordinates):
            G = MatrixFourierFunction(mir.grid.interval,
                                      [[mirror_parts(e) for e in row] for row in F.entries])
            want = regularize_matrix(G, mir.grid)
            assert M.data.tobytes() == want.data.tobytes()

    def test_requires_generators_and_grid(self):
        v = self.make_vertex()
        bare = FuzzySpace("bare", v.coordinates)
        with pytest.raises(CapabilityError, match="generator"):
            mirror_concat(bare, 2.0)
        nogrid = FuzzySpace("nogrid", v.coordinates, v.generators)
        with pytest.raises(CapabilityError, match="grid"):
            mirror_concat(nogrid, 2.0)

    def test_pivot_must_lie_inside(self):
        v = self.make_vertex()
        with pytest.raises(DomainError, match="right of"):
            mirror_concat(v, -1.0)


def cap_window():
    h = smooth_step()
    return ComposedProfile(h, 2.0, 1.0) * ComposedProfile(h, -2.0, 5.0)


class TestCloseCaps:
    def test_interior_coefficients_are_untouched(self):
        space = build_string_vertex(VertexParams(N=12))
        X = space.generators[0]
        capped = close_caps(X, cap_window())
        orig = X.entries[0][1]
        new = capped.entries[0][1]
        qs = np.linspace(0.0, 2.0, 21)
        for m in orig.modes():
            assert np.max(np.abs(new.coeffs[m](qs) - orig.coeffs[m](qs))) < 1e-14
        for q_end in (-1.0, 3.0):
            vals = [abs(complex(new.coeffs[m](q_end))) for m in orig.modes()]
            assert max(vals) < 1e-14

    def test_zero_window_kills_everything(self):
        space = build_string_vertex(VertexParams(N=12))
        capped = close_caps(space.generators[0], ConstantProfile(0.0))
        qs = np.linspace(-1.0, 3.0, 9)
        phis = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        vals = capped.eval(qs[:, None], phis[None, :])
        assert np.max(np.abs(vals)) == 0.0

    def test_window_must_vanish_at_the_ends(self):
        space = build_string_vertex(VertexParams(N=12))
        with pytest.raises(DomainError, match="vanish"):
            close_caps(space.generators[0], ConstantProfile(1.0))

    def test_window_must_be_nonnegative(self):
        space = build_string_vertex(VertexParams(N=12))
        dipped = PolyProfile([-3.0, -2.0, 1.0])  # (q - 3)(q + 1)
        with pytest.raises(DomainError, match="nonnegative"):
            close_caps(space.generators[0], dipped)

    def test_caps_turn_border_decay_into_full_matrix_decay(self):
        window = cap_window()

        def capped_xy(N):
            space = build_string_vertex(VertexParams(N=N))
            coords = tuple(
                regularize_matrix(close_caps(F, window), space.grid)
                for F in space.generators[:2]
            )
            return FuzzySpace("capped-vertex", coords)

        def plain_xy(N):
            space = build_string_vertex(VertexParams(N=N))
            return FuzzySpace("plain-vertex", space.coordinates[:2])

        schedule = (15, 30, 45)
        capped = check_commutator_decay(capped_xy, schedule, delta=0)
        plain = check_commutator_decay(plain_xy, schedule, delta=0)
        assert capped.values == pytest.approx((0.3810, 0.3159, 0.3005), abs=2e-3)
        assert capped.values[0] > capped.values[1] > capped.values[2]
        assert capped.passed
        assert min(plain.values) > 0.49
