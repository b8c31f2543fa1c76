"""The space catalog: cylinders, circle-to-eight, mirror pairs, torus, vertex."""

import numpy as np
import pytest

from fuzzyreg.cli import build_space
from fuzzyreg.errors import DomainError, StructureError
from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction
from fuzzyreg.profiles import AffineProfile, ComplexProfile, ConstantProfile, PolyProfile, smooth_step
from fuzzyreg.regularize import commutator, make_grid, regularize_scalar, within_border_norm
from fuzzyreg.spaces import (
    CurveSpec,
    DoubleCylinderSpec,
    GraphVertexSpec,
    build_circle_to_eight,
    build_clifford_torus,
    build_double_cylinder,
    build_generalized_cylinder,
    build_graph_vertex,
    build_immersed_cylinder,
    circle_to_eight_functions,
    interlaced_double_cylinder_function,
)
from fuzzyreg.transforms import interlace_function

from refs import (
    dense_clifford_torus,
    dense_cylinder_z,
    dense_graph_vertex,
    dense_row_anchored_eight,
    random_closed_curve,
    stored_bands,
)

IV = (0.0, 1.0)


class TestCurveSpec:
    def test_circle_has_bandwidth_one(self):
        c = CurveSpec.circle(2.0)
        assert c.x_series.cutoff == 1
        assert c.y_series.cutoff == 1

    def test_height_dependent_series_rejected(self):
        f = FourierFunction.cosine(IV, 1, AffineProfile(1.0, 1.0))
        with pytest.raises(DomainError):
            CurveSpec(f, FourierFunction.sine(IV, 1))

    def test_height_dependence_between_the_ends_and_midpoint_rejected(self):
        # 1 + q (q - 1/2)(q - 1) takes the value 1 at q = 0, 1/2 and 1
        f = FourierFunction.cosine(IV, 1, ConstantProfile(1.0) + PolyProfile([0.0, 0.5, -1.5, 1.0]))
        with pytest.raises(DomainError, match="q-independent"):
            CurveSpec(f, FourierFunction.sine(IV, 1))

    def test_series_on_different_intervals_rejected(self):
        with pytest.raises(DomainError, match="interval mismatch"):
            CurveSpec(FourierFunction.cosine(IV, 1), FourierFunction.sine((0.0, 2.0), 1))

    def test_closed_curves_must_be_real(self):
        f = FourierFunction(IV, {1: 1.0})
        with pytest.raises(StructureError):
            CurveSpec(f, FourierFunction.sine(IV, 1))

    def test_q_dependence_is_refused_before_a_complex_series(self):
        f = FourierFunction(IV, {1: AffineProfile(1.0, 1.0)})  # neither constant nor real
        with pytest.raises(DomainError, match="^curve series must be q-independent$"):
            CurveSpec(FourierFunction.cosine(IV, 1), f)

    def test_both_checks_read_one_table(self, monkeypatch):
        # one ComplexProfile.__call__ per slot of the two series' tables
        x = FourierFunction.cosine(IV, 1, 1.5) + FourierFunction.sine(IV, 2, 0.5)
        y = FourierFunction.sine(IV, 1, 1.5)
        call, calls = ComplexProfile.__call__, []
        monkeypatch.setattr(ComplexProfile, "__call__", lambda c, q: calls.append(len(q)) or call(c, q))
        CurveSpec(x, y)
        assert calls == [17] * (len(x.coeffs) + len(y.coeffs)) == [17] * 6


class TestGeneralizedCylinder:
    def test_unit_circle_bands(self):
        space = build_generalized_cylinder(CurveSpec.circle(), 10)
        xh, yh, zh = space.coordinates
        np.testing.assert_allclose(xh.data, 0.5 * (np.eye(10, k=1) + np.eye(10, k=-1)))
        np.testing.assert_allclose(yh.data, -0.5j * np.eye(10, k=1) + 0.5j * np.eye(10, k=-1))
        np.testing.assert_allclose(np.diag(zh.data).real, np.arange(10) / 10.0)

    def test_point_curve_leaves_only_the_height(self):
        zero = FourierFunction(IV, {})
        space = build_generalized_cylinder(CurveSpec(zero, zero), 8)
        assert np.all(space.coordinates[0].data == 0.0)
        assert np.all(space.coordinates[1].data == 0.0)
        z = np.diag(space.coordinates[2].data)
        assert z[0] == 0.0 and np.all(z[1:] != 0.0)  # z = q(n, n) = n/8

    def test_xy_commutator_vanishes_inside_the_band_border(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            curve = random_closed_curve(rng, cutoff=5)
            space = build_generalized_cylinder(curve, 64)
            comm = commutator(space.coordinates[0], space.coordinates[1])
            assert within_border_norm(comm, 5) < 1e-13

    def test_circle_commutator_is_exactly_zero_inside(self):
        space = build_generalized_cylinder(CurveSpec.circle(), 64)
        comm = commutator(space.coordinates[0], space.coordinates[1])
        assert within_border_norm(comm, 1) == 0.0

    def test_height_commutator_identity(self):
        curve = CurveSpec.circle(1.0)
        space = build_generalized_cylinder(curve, 16)
        xh, _, zh = space.coordinates
        g = make_grid(16, IV)
        rhs = regularize_scalar(curve.x_series.d_phi() * (-1j), g)
        np.testing.assert_array_equal(
            commutator(zh, xh).data, -(curve.z_beta / 16) * rhs.data
        )

    def test_carries_its_generators(self):
        curve = CurveSpec.circle(1.5)
        space = build_generalized_cylinder(curve, 8, -0.5)
        assert space.grid == make_grid(8, IV) and len(space.generators) == 3
        x, y, z = (F.entries[0][0] for F in space.generators)
        assert x is curve.x_series and y is curve.y_series
        q = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(z.eval(q, 0.0), -0.5 + 1.0 * q + 0j)

    def test_bandwidth_must_stay_below_n(self):
        rng = np.random.default_rng(32)
        curve = random_closed_curve(rng, cutoff=5)
        with pytest.raises(DomainError):
            build_generalized_cylinder(curve, 5)


class TestImmersedCylinder:
    def test_interval_mismatch(self):
        x = FourierFunction.cosine((0.0, 1.0), 1)
        y = FourierFunction.sine((0.0, 2.0), 1)
        with pytest.raises(DomainError):
            build_immersed_cylinder(x, y, AffineProfile(0.0, 1.0), 8)

    def test_height_independent_input_reduces_to_the_toeplitz_builder(self):
        curve = CurveSpec.circle(0.7)
        toep = build_generalized_cylinder(curve, 12)
        imm = build_immersed_cylinder(
            curve.x_series, curve.y_series, AffineProfile(0.0, 1.0), 12
        )
        for got, want in zip(toep.coordinates, imm.coordinates, strict=True):
            assert got.offsets == want.offsets
            assert got.data.tobytes() == want.data.tobytes()

    def test_height_profile_rides_the_diagonal(self):
        curve = CurveSpec.circle()
        z = AffineProfile(0.5, 0.25)
        imm = build_immersed_cylinder(curve.x_series, curve.y_series, z, 9)
        g = make_grid(9, IV)
        k = np.arange(9)
        np.testing.assert_allclose(np.diag(imm.coordinates[2].data), z(g.q(k, k)))

    def test_keeps_generators_and_grid(self):
        curve = CurveSpec.circle()
        imm = build_immersed_cylinder(curve.x_series, curve.y_series, AffineProfile(0.0, 1.0), 8)
        assert imm.generators is not None and len(imm.generators) == 3
        assert imm.grid is not None
        assert all(c.is_hermitian(1e-14) for c in imm.coordinates)


class TestCircleToEight:
    def test_function_limits(self):
        x, y, z = circle_to_eight_functions()
        phis = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        np.testing.assert_allclose(x.eval(np.full_like(phis, -1.0), phis), np.cos(phis), atol=1e-14)
        np.testing.assert_allclose(y.eval(np.full_like(phis, -1.0), phis), np.sin(phis), atol=1e-14)
        assert x.eval(1.0, 0.0) == pytest.approx(2.0)
        assert z(-1.0) == pytest.approx(0.0)
        assert z(1.0) == pytest.approx(1.0)

    def c2e_symmetric_reference(self, N):
        g = make_grid(N, (-1.0, 1.0))
        X = np.zeros((N, N), dtype=complex)
        Y = np.zeros((N, N), dtype=complex)
        h = smooth_step()
        bands = (
            (1, lambda q: 0.5 * (1 + 0.5 * h(q)), lambda q: -0.5j * (1 - 0.5 * h(q))),
            (3, lambda q: 0.25 * h(q), lambda q: -0.25j * h(q)),
        )
        for band, wx, wy in bands:
            for n in range(N - band):
                q = g.q(n, n + band)
                X[n, n + band] = wx(q)
                X[n + band, n] = wx(q)
                Y[n, n + band] = wy(q)
                Y[n + band, n] = np.conj(wy(q))
        k = np.arange(N)
        Z = np.diag(0.5 + 0.5 * g.q(k, k)).astype(complex)
        return X, Y, Z

    def test_symmetric_convention_matches_the_band_formulas(self):
        space = build_circle_to_eight(30, "symmetric")
        X, Y, Z = self.c2e_symmetric_reference(30)
        np.testing.assert_allclose(space.coordinates[0].data, X, atol=1e-14)
        np.testing.assert_allclose(space.coordinates[1].data, Y, atol=1e-14)
        np.testing.assert_allclose(space.coordinates[2].data, Z, atol=1e-14)

    def test_symmetric_convention_is_hermitian(self):
        space = build_circle_to_eight(30, "symmetric")
        for c in space.coordinates:
            assert c.is_hermitian(1e-14)

    def test_row_anchored_band_values(self):
        N = 30
        space = build_circle_to_eight(N, "row-anchored")
        X, Y, Z = (c.data for c in space.coordinates)
        for n in range(N - 1):
            h = smooth_step()(-1.0 + 2.0 * n / N)
            assert X[n, n + 1] == pytest.approx((1 + 0.5 * h) * 0.5, abs=1e-15)
            assert Y[n, n + 1] == pytest.approx(1j * (1 - 0.5 * h) * 0.5, abs=1e-15)
        for n in range(N - 3):
            h = smooth_step()(-1.0 + 2.0 * n / N)
            assert X[n, n + 3] == pytest.approx(0.25 * h, abs=1e-15)
            assert Y[n, n + 3] == pytest.approx(0.25j * h, abs=1e-15)
        np.testing.assert_allclose(np.diag(Z).real, np.arange(N) / N, atol=1e-15)
        assert all(c.is_hermitian(1e-14) for c in space.coordinates)

    def test_row_anchored_grid_regularizes_the_generators(self):
        # both preset spellings build the circle-to-eight space: y(q, -phi), whose
        # upper band is +i, with the modes below N
        self.assert_both_spellings_agree("row-anchored", "circle-to-eight")

    @pytest.mark.parametrize("rule", ["symmetric", "left"])
    def test_both_spellings_agree_on_the_other_rules(self, rule):
        self.assert_both_spellings_agree(rule, "immersed-cylinder")

    def assert_both_spellings_agree(self, rule, name):
        N = 16
        eight = build_space({"preset": "circle-to-eight", "convention": rule}, n=N)
        imm = build_space({"preset": "immersed-circle-to-eight", "grid": rule}, n=N)
        assert eight.name == imm.name == name
        assert eight.grid == imm.grid == make_grid(N, (-1.0, 1.0), rule)
        assert len(eight.coordinates) == len(imm.coordinates) == 3
        for A, B in zip(eight.coordinates, imm.coordinates):
            assert A.offsets == B.offsets
            assert A.data.tobytes() == B.data.tobytes()

    def test_row_anchored_keeps_the_modes_below_n(self):
        for N, modes in ((2, [-1, 1]), (3, [-1, 1]), (4, [-3, -1, 1, 3])):
            space = build_circle_to_eight(N, "row-anchored")
            assert [F.entries[0][0].modes() for F in space.generators] == [modes, modes, [0]]

    def test_unknown_convention(self):
        with pytest.raises(DomainError):
            build_circle_to_eight(12, "column-anchored")


class TestDoubleCylinder:
    def spec(self):
        return DoubleCylinderSpec((-1.0, 3.0), AffineProfile(0.7, 0.3), 1.0)

    def test_symmetric_spec_negates_the_planar_coordinates(self):
        s1, s2 = build_double_cylinder(self.spec(), 16)
        np.testing.assert_allclose(s1.coordinates[0].data, -s2.coordinates[0].data, atol=1e-15)
        np.testing.assert_allclose(s1.coordinates[1].data, -s2.coordinates[1].data, atol=1e-15)
        assert np.array_equal(s1.coordinates[2].data, s2.coordinates[2].data)

    def test_shared_height_is_the_grid_diagonal(self):
        s1, _ = build_double_cylinder(self.spec(), 16)
        g = make_grid(16, (-1.0, 3.0))
        k = np.arange(16)
        np.testing.assert_allclose(np.diag(s1.coordinates[2].data).real, g.q(k, k))

    def test_zero_radii_leave_only_the_centers(self):
        spec = DoubleCylinderSpec((-1.0, 3.0), AffineProfile(0.7, 0.3), 0.0)
        s1, s2 = build_double_cylinder(spec, 12)
        for s in (s1, s2):
            xh = s.coordinates[0].data
            assert np.array_equal(xh, np.diag(np.diag(xh)))

    def test_mirror_validation(self):
        # the type is the mirror pair: cylinder 1 is cylinder 2 negated, mode by mode
        spec = DoubleCylinderSpec((-1.0, 3.0), AffineProfile(0.7, 0.3), AffineProfile(1.0, -0.2))
        qs = np.linspace(-1.0, 3.0, 9)
        for f1, f2 in zip(spec.functions(1), spec.functions(2)):
            assert f1.modes() == f2.modes() != []
            for n in f2.modes():
                np.testing.assert_allclose(f1.coeffs[n](qs), -f2.coeffs[n](qs), atol=1e-15)

    def test_interlaced_form_is_antidiagonal(self):
        spec = self.spec()
        X, Y, Z = interlaced_double_cylinder_function(spec)
        x2, y2 = spec.functions(2)
        qs = np.linspace(-1.0, 3.0, 5)[:, None]
        phis = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)[None, :]
        assert X.entries[0][0].modes() == []
        np.testing.assert_allclose(X.entries[0][1].eval(qs, phis), x2.eval(qs, phis), atol=1e-14)
        np.testing.assert_allclose(X.entries[1][0].eval(qs, phis), x2.eval(qs, phis), atol=1e-14)
        np.testing.assert_allclose(Y.entries[0][1].eval(qs, phis), y2.eval(qs, phis), atol=1e-14)
        np.testing.assert_allclose(Z.eval(qs, phis)[..., 0, 0], qs + 0 * phis, atol=1e-14)
        assert Z.entries[0][1].modes() == []
        assert X.is_hermitian() and Y.is_hermitian() and Z.is_hermitian()

    def test_interlaced_form_requires_mirror_symmetry(self):
        # interlacing diag(x1, x2) gives the antidiagonal form because x1 = -x2
        spec = self.spec()
        X, Y, _ = interlaced_double_cylinder_function(spec)
        qs = np.linspace(-1.0, 3.0, 5)[:, None]
        phis = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)[None, :]
        for F, f1, f2 in zip((X, Y), spec.functions(1), spec.functions(2)):
            D = interlace_function(MatrixFourierFunction.diagonal([f1, f2]))
            np.testing.assert_allclose(D.eval(qs, phis), F.eval(qs, phis), atol=1e-14)
        # a first cylinder that is not the mirror image leaves a diagonal part
        x2 = spec.functions(2)[0]
        other = DoubleCylinderSpec((-1.0, 3.0), AffineProfile(0.5, 0.0), 1.0).functions(1)[0]
        D = interlace_function(MatrixFourierFunction.diagonal([other, x2]))
        assert np.max(np.abs(D.eval(qs, phis)[..., 0, 0])) > 0.1


class TestCliffordTorus:
    def test_reference_configuration(self):
        space = build_clifford_torus(1.0, 2.0, 40)
        assert space.dim == 40 and len(space.coordinates) == 4
        assert all(c.is_hermitian(1e-14) for c in space.coordinates)
        x1 = space.coordinates[0].data
        np.testing.assert_allclose(x1, 0.5 * (np.eye(40, k=1) + np.eye(40, k=-1)))

    def test_diagonal_pair_traces_the_circle(self):
        b = 2.0
        space = build_clifford_torus(1.0, b, 24)
        x2, y2 = space.coordinates[2].data, space.coordinates[3].data
        combo = x2 @ x2 + y2 @ y2
        off = combo - np.diag(np.diag(combo))
        assert np.all(off == 0.0)
        np.testing.assert_allclose(np.diag(combo), b * b, atol=1e-14)

    def test_traces(self):
        space = build_clifford_torus(1.0, 2.0, 40)
        assert np.trace(space.coordinates[0].data) == 0.0
        assert abs(np.trace(space.coordinates[2].data)) < 1e-10
        assert abs(np.trace(space.coordinates[3].data)) < 1e-10

    def test_degenerate_first_pair(self):
        space = build_clifford_torus(0.0, 2.0, 8)
        assert np.all(space.coordinates[0].data == 0.0)
        assert np.all(space.coordinates[1].data == 0.0)

    def test_size_validation(self):
        with pytest.raises(DomainError):
            build_clifford_torus(1.0, 2.0, 1)


class TestBuildsFromDiagonals:
    """The coordinates built on bands, regularized or written from their
    diagonals, equal the dense constructions of `tests/refs.py` byte for
    byte, record the diagonals those write, and never build their dense view
    on the way."""

    SIZES = [2, 3, 4, 8, 40, 257]

    @staticmethod
    def assert_same(got, want):
        data, offsets = want
        assert got._data is None  # no dense view behind the bands
        assert got.offsets == offsets
        assert got.bands.tobytes() == stored_bands(data, offsets).tobytes()
        assert got.data.tobytes() == data.tobytes()

    @pytest.mark.parametrize("N", SIZES)
    @pytest.mark.parametrize("curve, z_offset", [(CurveSpec.circle(1.5), -0.5),
                                                 (CurveSpec.circle(1.0), 0.0)], ids=["offset", "plain"])
    def test_cylinder_height(self, N, curve, z_offset):
        z = build_generalized_cylinder(curve, N, z_offset).coordinates[2]
        self.assert_same(z, dense_cylinder_z(curve, N, z_offset))

    @pytest.mark.parametrize("N", SIZES)
    def test_row_anchored_eight(self, N):
        for got, want in zip(build_circle_to_eight(N, "row-anchored").coordinates,
                             dense_row_anchored_eight(N), strict=True):
            self.assert_same(got, want)

    @pytest.mark.parametrize("N", SIZES)
    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.75, 0.3), (1.0, 0.0)])
    def test_clifford_torus(self, N, a, b):
        for got, want in zip(build_clifford_torus(a, b, N).coordinates,
                             dense_clifford_torus(a, b, N), strict=True):
            self.assert_same(got, want)

    # The dense reference multiplies the zeros off the +-1 diagonals by
    # a <= 0 (0.5 a 0) and keeps -0.0 there when a has its sign bit set; the
    # build from diagonals writes +0.0.  The values compare equal, and no
    # other cell moves: a = +0 gives the dense bytes.
    @pytest.mark.parametrize("a", [-1.0, -0.0, 0.0])
    def test_non_positive_a_writes_positive_zeros(self, a):
        changed = 0
        for got, (data, offsets) in zip(build_clifford_torus(a, 2.0, 8).coordinates,
                                        dense_clifford_torus(a, 2.0, 8), strict=True):
            assert got.offsets == offsets
            assert np.array_equal(got.data, data)
            new, old = got.data.view(float), data.view(float)
            moved = new.view(np.int64) != old.view(np.int64)
            assert np.all(new[moved] == 0) and not np.any(np.signbit(new[moved]))
            rows, cols = np.indices(data.shape)
            off = np.repeat(~np.isin(cols - rows, offsets), 2, axis=1)  # both parts of each cell
            assert np.array_equal(moved, off & np.signbit(old))
            changed += int(moved.sum())
        assert bool(changed) == bool(np.signbit(a))

    # A zero a still records the +-1 diagonals it is given, and keeps their
    # signed zeros: y1 = 0.5i a (e_1 - e_-1) holds -0.0 real parts on its -1
    # diagonal for a = +0.  A scan of the values would record no diagonal there.
    @pytest.mark.parametrize("a", [-0.0, 0.0])
    def test_zero_a_keeps_the_signed_zeros_of_its_diagonals(self, a):
        x1, y1 = build_clifford_torus(a, 2.0, 8).coordinates[:2]
        for got, (data, _) in zip((x1, y1), dense_clifford_torus(a, 2.0, 8)[:2]):
            assert got.offsets == (-1, 1) and not np.any(got.data)
            for o in (-1, 1):
                assert np.diagonal(got.data, o).tobytes() == np.diagonal(data, o).tobytes()
        assert np.all(np.signbit(np.diagonal(y1.data, -1).real) != np.signbit(a))

    # the default x_lower = 0 writes -0.0 on the first row of each lower block
    @pytest.mark.parametrize("dim, n0", [(4, 2), (7, 3), (12, 4), (40, 10), (257, 65)])
    @pytest.mark.parametrize("bands", [{}, {"x_lower": 0.3, "r_junction": 0.7 - 0.2j},
                                       {"x_lower": -0.0, "r_upper": 1j, "r_lower": -2.0}],
                             ids=["default", "complex", "signed-zero"])
    def test_graph_vertex(self, dim, n0, bands):
        spec = GraphVertexSpec(dim=dim, n0=n0, **bands)
        self.assert_same(build_graph_vertex(spec).coordinates[0], dense_graph_vertex(spec))


class TestGraphVertex:
    def spec(self, **kw):
        base = dict(dim=12, n0=4, r_upper=1.0, r_junction=0.7, r_lower=1.0, x_lower=0.3)
        base.update(kw)
        return GraphVertexSpec(**base)

    def test_band_layout(self):
        space = build_graph_vertex(self.spec())
        F = space.coordinates[0].data
        n0 = 4
        for k in range(n0 - 1):
            assert F[k, k + 1] == 1.0
        assert F[n0 - 1, n0] == 0.7
        assert F[n0 - 1, n0 + 1] == 0.7
        for t in range(4):
            assert F[n0 + 2 * t, n0 + 2 * t] == -0.3
            assert F[n0 + 2 * t + 1, n0 + 2 * t + 1] == 0.3
        for t in range(3):
            for a in (0, 1):
                assert F[n0 + 2 * t + a, n0 + 2 * t + a + 2] == 1.0

    def test_height_is_block_constant_below_the_split(self):
        space = build_graph_vertex(self.spec())
        z = np.diag(space.coordinates[1].data).real
        np.testing.assert_allclose(z[:4], (np.arange(4) + 1.0) / 12.0)
        for t in range(4):
            pair = z[4 + 2 * t : 6 + 2 * t]
            assert pair[0] == pair[1] == pytest.approx((4 + 2 * t + 1.5) / 12.0)

    def test_explicit_heights(self):
        zvals = tuple(np.linspace(0.0, 1.0, 12))
        space = build_graph_vertex(self.spec(z_values=zvals))
        np.testing.assert_allclose(np.diag(space.coordinates[1].data).real, zvals)
        with pytest.raises(StructureError):
            build_graph_vertex(self.spec(z_values=(0.0, 1.0)))

    def test_hermitian_for_real_bands(self):
        space = build_graph_vertex(self.spec())
        assert all(c.is_hermitian(1e-14) for c in space.coordinates)

    def test_degenerates_to_two_plain_bands(self):
        space = build_graph_vertex(self.spec(x_lower=0.0, r_lower=0.5, r_junction=0.5, r_upper=0.5))
        F = space.coordinates[0].data
        for strand in (0, 1):
            idx = np.arange(4 + strand, 12, 2)
            sub = F[np.ix_(idx, idx)]
            band = 0.5 * (np.eye(4, k=1) + np.eye(4, k=-1))
            np.testing.assert_array_equal(sub, band.astype(complex))

    def test_split_validation(self):
        with pytest.raises(StructureError):
            self.spec(n0=1)
        with pytest.raises(StructureError):
            self.spec(n0=11)
        with pytest.raises(StructureError):
            self.spec(n0=5)

    def test_band_length_validation(self):
        with pytest.raises(StructureError):
            build_graph_vertex(self.spec(r_upper=(1.0, 2.0)))
        space = build_graph_vertex(self.spec(r_upper=(1.0, 2.0, 3.0)))
        assert space.coordinates[0].data[1, 2] == 2.0
