"""Convergence checks and sweep reporting."""

import json
import tracemalloc

import numpy as np
import pytest

from fuzzyreg.errors import DomainError, StructureError
from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction, mul, poisson_bracket
from fuzzyreg.interpolate import (VertexParams, build_string_vertex, make_profile,
                                  string_vertex_generators)
from fuzzyreg.profiles import AffineProfile, PolyProfile
from fuzzyreg.regularize import (
    FuzzyMatrix,
    FuzzySpace,
    commutator,
    make_grid,
    regularize_scalar,
    within_border_norm,
)
from fuzzyreg.spaces import (
    CurveSpec,
    GraphVertexSpec,
    build_circle_to_eight,
    build_clifford_torus,
    build_generalized_cylinder,
    build_graph_vertex,
    circle_to_eight_functions,
    circle_to_eight_generators,
)
from fuzzyreg import verify
from fuzzyreg.verify import (
    SweepReport,
    check_commutator_decay,
    check_norm_convergence,
    check_poisson_convergence,
    check_product_convergence,
    matrix_fn_commutator_sup,
    pointwise_commutator_sup,
    semiclassical_residual,
)

IV = (0.0, 1.0)


# each sweep check over a schedule; the builders would fail if ever called
SWEEP_CHECKS = {
    "norm": lambda Ns: check_norm_convergence(lambda N: None, Ns, 0),
    "product": lambda Ns: check_product_convergence(FourierFunction.cosine(IV, 1),
                                                    FourierFunction.sine(IV, 1), Ns=Ns),
    "poisson": lambda Ns: check_poisson_convergence(FourierFunction.cosine(IV, 1),
                                                    FourierFunction.sine(IV, 1), Ns=Ns),
    "commutator-decay": lambda Ns: check_commutator_decay(lambda N: None, Ns),
}


def make_report(**over):
    kw = dict(
        builder_id="unit",
        criterion="norm-convergence",
        schedule=(8, 16, 32),
        values=(1.0, 0.5, 0.25),
        delta=2,
        verdicts=(True, True, True),
        passed=True,
    )
    kw.update(over)
    return SweepReport(**kw)


class TestSweepReport:
    def test_schedule_must_increase(self):
        with pytest.raises(DomainError):
            make_report(schedule=(8, 8, 32))

    @pytest.mark.parametrize("check", list(SWEEP_CHECKS.values()), ids=list(SWEEP_CHECKS))
    def test_empty_schedule_is_rejected(self, check):
        with pytest.raises(DomainError, match="must not be empty"):
            check(())

    @pytest.mark.parametrize("check", list(SWEEP_CHECKS.values()), ids=list(SWEEP_CHECKS))
    def test_one_entry_schedule_is_rejected(self, check):
        with pytest.raises(DomainError, match="single size"):
            check((16,))

    def test_values_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            make_report(values=(1.0, -0.5, 0.25))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_values_must_be_finite(self, bad):
        # a NaN would otherwise reach the report JSON, which cannot hold it,
        # and the fit would use the other sizes alone
        with pytest.raises(DomainError, match="N = 32 is not finite"):
            verify._report("x", "poisson-convergence", (16, 32, 64), [1.0, bad, 0.2], 0,
                           [True] * 3)

    def test_exit_code(self):
        assert make_report().exit_code == 0
        assert make_report(passed=False, verdicts=(True, False, True)).exit_code == 1

    def test_json_round_trip(self):
        rep = make_report()
        text = rep.to_json()
        assert text == rep.to_json()
        parsed = json.loads(text)
        assert parsed["criterion"] == "norm-convergence"
        assert parsed["schedule"] == [8, 16, 32]
        assert parsed["values"] == [1.0, 0.5, 0.25]
        assert parsed["passed"] is True

    def test_text_layout(self):
        text = make_report().to_text()
        assert "criterion: norm-convergence" in text
        assert text.strip().endswith("PASS")
        failing = make_report(passed=False, verdicts=(True, True, False)).to_text()
        assert failing.strip().endswith("FAIL")
        assert "FAIL" in failing.splitlines()[-2]

    def test_row_sum_trend_line(self):
        def row_sum_line(row_sums):
            lines = make_report(extras={"row_sum_norm": row_sums}).to_text().splitlines()
            found = [k for k, line in enumerate(lines) if line.startswith("row sums:")]
            assert len(found) == 1 and found[0] < lines.index(f"{'N':>8}  {'value':>14}  verdict")
            return lines[found[0]]

        assert row_sum_line((1.1, 1.3, 1.5)) == (
            "row sums:  1.100000e+00 1.300000e+00 1.500000e+00 (rising)")
        assert row_sum_line((1.5, 1.3, 1.4)).endswith("(not rising)")
        assert "row sums:" not in make_report().to_text()


class TestNormConvergence:
    def test_toeplitz_norms_are_flat(self):
        f = FourierFunction.cosine(IV, 1, 1.0)

        def builder(N):
            return regularize_scalar(f, make_grid(N, IV, "symmetric"))

        rep = check_norm_convergence(builder, (8, 16, 32), 1)
        assert rep.values == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)
        assert rep.passed

    def test_norm_sweep_fits_no_decay_order(self):
        f = FourierFunction.cosine(IV, 1, 1.0)

        def builder(N):
            return regularize_scalar(f, make_grid(N, IV, "symmetric"))

        rep = check_norm_convergence(builder, (8, 16, 32), 1)
        assert rep.fitted_order is None
        assert rep.to_json_dict()["fitted_order"] is None

    def test_builder_must_return_a_fuzzy_matrix(self):
        with pytest.raises(StructureError):
            check_norm_convergence(lambda N: np.eye(N), (4, 8), 0)

    def test_eight_coordinate_norm_stays_bounded(self):
        def builder(N):
            return build_circle_to_eight(N).coordinates[0]

        rep = check_norm_convergence(builder, (10, 20, 40), 0)
        assert max(rep.values) <= 2.0
        assert min(rep.values) >= 1.5
        assert rep.passed


class TestProductConvergence:
    def test_angle_only_pair_is_exact(self):
        f = FourierFunction(IV, {1: 0.5, -1: 0.5})
        g = FourierFunction(IV, {1: -0.5j, -1: 0.5j})
        rep = check_product_convergence(f, g, Ns=(8, 16, 32))
        assert max(rep.values) <= 1e-15
        assert rep.passed

    def test_q_only_pair_is_exact(self):
        f = FourierFunction(IV, {0: AffineProfile(0.0, 1.0)})
        g = FourierFunction(IV, {0: PolyProfile([0.0, 0.0, 1.0])})
        rep = check_product_convergence(f, g, Ns=(8, 16, 32))
        assert max(rep.values) <= 1e-14

    def test_default_border_adds_the_cutoffs(self):
        f = FourierFunction(IV, {1: AffineProfile(1.0, 1.0)})
        g = FourierFunction(IV, {0: PolyProfile([0.0, 0.0, 1.0])})
        rep = check_product_convergence(f, g, Ns=(8, 16))
        assert rep.delta == 1

    def test_first_order_decay(self):
        f = FourierFunction(IV, {1: AffineProfile(1.0, 1.0)})
        g = FourierFunction(IV, {0: PolyProfile([0.0, 0.0, 1.0])})
        rep = check_product_convergence(f, g, Ns=(40, 80, 160), delta=3)
        assert rep.passed
        v = rep.values
        assert v[1] / v[0] <= 0.6
        assert v[2] / v[1] <= 0.6
        scaled = [val * N for val, N in zip(v, rep.schedule)]
        assert max(scaled) / min(scaled) < 1.25

    def test_eight_matches_the_dense_formula(self):
        x, y, _ = circle_to_eight_functions()
        Ns = (256, 512)
        rep = check_product_convergence(x, y, Ns=Ns)
        for N, value in zip(Ns, rep.values):
            grid = make_grid(N, x.interval)
            Qx, Qy = regularize_scalar(x, grid), regularize_scalar(y, grid)
            Qxy = regularize_scalar(mul(x, y), grid)
            dense = within_border_norm(FuzzyMatrix(Qx.data @ Qy.data - Qxy.data, N), rep.delta)
            assert value == pytest.approx(dense, rel=1e-9)


class TestPoissonConvergence:
    def test_height_and_phase_pair_is_exact(self):
        f = FourierFunction(IV, {0: AffineProfile(0.0, 1.0)})
        g = FourierFunction(IV, {1: 1.0})
        rep = check_poisson_convergence(f, g, Ns=(8, 16, 32))
        assert max(rep.values) <= 1e-13
        assert rep.passed

    def test_bracket_of_a_function_with_itself(self):
        f = FourierFunction(IV, {1: AffineProfile(1.0, 0.5)})
        rep = check_poisson_convergence(f, f, Ns=(8, 16))
        assert max(rep.values) <= 1e-13

    def test_eight_matches_the_dense_formula(self):
        x, y, _ = circle_to_eight_functions()
        Ns = (256, 512)
        rep = check_poisson_convergence(x, y, Ns=Ns)
        for N, value in zip(Ns, rep.values):
            grid = make_grid(N, x.interval)
            Qx, Qy = regularize_scalar(x, grid), regularize_scalar(y, grid)
            comm = Qx.data @ Qy.data - Qy.data @ Qx.data
            s = N / (grid.beta_left + grid.beta_right)
            target = regularize_scalar(poisson_bracket(x, y), grid)
            dense = within_border_norm(
                FuzzyMatrix(1j * s * comm - target.data, N), rep.delta)
            assert value == pytest.approx(dense, rel=1e-9)

    def test_generic_pair_passes(self):
        f = FourierFunction(IV, {1: 0.5, -1: 0.5})
        g = FourierFunction(IV, {0: PolyProfile([0.0, 0.0, 1.0])})
        rep = check_poisson_convergence(f, g, Ns=(16, 32, 64))
        assert rep.passed
        assert "s(N)" in rep.scaling_note

    def test_verdicts_ignore_overall_scale(self):
        f = FourierFunction(IV, {1: 0.5, -1: 0.5})
        g = FourierFunction(IV, {0: PolyProfile([0.0, 0.0, 1.0])})
        base = check_poisson_convergence(f, g, Ns=(16, 32, 64))
        big = check_poisson_convergence(f * 5.0, g, Ns=(16, 32, 64))
        assert big.verdicts == base.verdicts
        assert big.values == pytest.approx(tuple(5.0 * v for v in base.values), rel=1e-12)


    def test_eight_on_the_row_anchored_grid_passes(self):
        # q(n, m) = q1 + span min(n, m)/N is not affine, yet the bracket is
        # carried at first order: each step's ratio is at most 0.584
        x, y, _ = circle_to_eight_functions()
        rep = check_poisson_convergence(x, y, rule="row-anchored", Ns=(64, 128, 256, 512))
        assert rep.passed
        assert rep.values[0] == pytest.approx(0.1437, abs=1e-4)
        assert rep.values[-1] == pytest.approx(0.02502, abs=1e-5)
        assert rep.fitted_order == pytest.approx(0.84, abs=0.01)

    def test_eight_to_16384_on_bands(self, monkeypatch):
        # one dense 16384 x 16384 complex matrix is 4.3 GB; the bands of the
        # whole sweep fit in a few MB, and no dense view is ever built
        views = []
        dense_view = FuzzyMatrix.data
        monkeypatch.setattr(FuzzyMatrix, "data", property(
            lambda M: views.append(M.dim) or dense_view.fget(M)))
        x, y, _ = circle_to_eight_functions()
        tracemalloc.start()
        try:
            rep = check_poisson_convergence(x, y, Ns=(4096, 8192, 16384))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6
        assert abs(rep.fitted_order - 1.0) <= 0.05
        assert views == []


class TestSemiclassicalResidual:
    def test_angle_only_pair_vanishes(self):
        f = FourierFunction(IV, {1: 0.5, -1: 0.5})
        g = FourierFunction(IV, {2: 0.25, -2: 0.25})
        assert semiclassical_residual(f, g, "symmetric", N=24) <= 1e-15

    def test_second_order_decay(self):
        f = FourierFunction(IV, {1: AffineProfile(1.0, 1.0)})
        g = FourierFunction(IV, {0: PolyProfile([0.0, 0.0, 1.0])})
        r32 = semiclassical_residual(f, g, "symmetric", N=32, delta=3)
        r64 = semiclassical_residual(f, g, "symmetric", N=64, delta=3)
        assert r64 <= 0.35 * r32

    def test_triangle_inequality_against_the_product_residual(self):
        f = FourierFunction(IV, {1: AffineProfile(1.0, 1.0)})
        g = FourierFunction(IV, {0: PolyProfile([0.0, 0.0, 1.0])})
        N, delta = 32, 3
        grid = make_grid(N, IV, "symmetric")
        Qf = regularize_scalar(f, grid)
        Qg = regularize_scalar(g, grid)
        prod = regularize_scalar(mul(f, g), grid)
        resid = FuzzyMatrix(Qf.data @ Qg.data - prod.data, N)
        r = within_border_norm(resid, delta)
        corr = mul(f.d_phi(), g.d_q()) * grid.beta_left \
            - mul(f.d_q(), g.d_phi()) * grid.beta_right
        corr_norm = within_border_norm(regularize_scalar(corr, grid), delta)
        R = semiclassical_residual(f, g, "symmetric", N=N, delta=delta)
        assert R <= r + corr_norm / N + 1e-12

    def test_row_anchored_rule_is_refused(self):
        x, y, _ = circle_to_eight_functions()
        with pytest.raises(DomainError, match="swap between the triangles"):
            semiclassical_residual(x, y, rule="row-anchored")

    def test_eight_matches_the_dense_formula(self):
        x, y, _ = circle_to_eight_functions()
        N = 256
        grid = make_grid(N, x.interval)
        Qx, Qy = regularize_scalar(x, grid), regularize_scalar(y, grid)
        Qxy = regularize_scalar(mul(x, y), grid)
        corr = mul(x.d_phi(), y.d_q()) * grid.beta_left \
            - mul(x.d_q(), y.d_phi()) * grid.beta_right
        Qcorr = regularize_scalar(corr, grid)
        resid = Qx.data @ Qy.data - Qxy.data + (1j / N) * Qcorr.data
        delta = x.cutoff + y.cutoff
        dense = within_border_norm(FuzzyMatrix(resid, N), delta)
        assert semiclassical_residual(x, y, N=N) == pytest.approx(dense, rel=1e-9)


class TestCommutatorDecay:
    def test_round_cylinder_xy_commutes_exactly(self):
        def builder(N):
            space = build_generalized_cylinder(CurveSpec.circle(1.0), N)
            return FuzzySpace("xy", space.coordinates[:2])

        rep = check_commutator_decay(builder, (8, 16, 32), delta=1)
        assert rep.values == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
        assert rep.passed

    def test_needs_at_least_two_coordinates(self):
        def builder(N):
            space = build_generalized_cylinder(CurveSpec.circle(1.0), N)
            return FuzzySpace("x", space.coordinates[:1])

        with pytest.raises(StructureError):
            check_commutator_decay(builder, (8, 16), delta=1)

    def test_vertex_interior_commutators_shrink(self):
        def builder(N):
            return build_string_vertex(VertexParams(N=N))

        rep = check_commutator_decay(builder, (15, 30, 45), delta=5)
        assert rep.values == pytest.approx((0.3810, 0.3159, 0.3005), abs=2e-3)
        assert rep.passed
        assert "row_sum_norm" in rep.extras

    # spaces built on bands, regularized or written from their diagonals: a
    # dense coordinate at 16384 would take 4.3 GB, and the sweep stays under 64 MB
    HAND_BUILT = {
        "cylinder": lambda N: build_generalized_cylinder(CurveSpec.circle(1.0), N),
        "clifford-torus": lambda N: build_clifford_torus(1.0, 1.0, N),
        "row-anchored-eight": lambda N: build_circle_to_eight(N, "row-anchored"),
        "graph-vertex": lambda N: build_graph_vertex(GraphVertexSpec(dim=N, n0=64)),
    }

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_spaces_to_16384_on_bands(self, monkeypatch, name):
        views = []
        dense_view = FuzzyMatrix.data
        monkeypatch.setattr(FuzzyMatrix, "data", property(
            lambda M: views.append(M.dim) or dense_view.fget(M)))
        tracemalloc.start()
        try:
            rep = check_commutator_decay(self.HAND_BUILT[name], (4096, 8192, 16384))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert abs(rep.fitted_order - 1.0) <= 0.05
        assert views == []

    # one build, one commutator and one border norm at N = 2048, where one
    # dense coordinate alone would take 67 MB
    @pytest.mark.parametrize("name", ["clifford-torus", "row-anchored-eight"])
    def test_one_step_at_2048_stays_under_2_mb(self, name):
        self.HAND_BUILT[name](8)  # imports and first-call caches are not the step's
        tracemalloc.start()
        try:
            coords = self.HAND_BUILT[name](2048).coordinates
            within_border_norm(commutator(coords[0], coords[2]), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_graph_vertex_step_at_2048_stays_under_2_mb(self):
        # its two coordinates, the band matrix and its height, as above
        self.HAND_BUILT["graph-vertex"](128)
        tracemalloc.start()
        try:
            F, z = self.HAND_BUILT["graph-vertex"](2048).coordinates
            within_border_norm(commutator(F, z), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


class TestMatrixCommutatorSup:
    def test_shared_antidiagonal_profile_commutes(self):
        iv = (-1.0, 3.0)
        f = FourierFunction(iv, {1: 0.5, -1: 0.5})
        zero = FourierFunction(iv, {})
        F = MatrixFourierFunction(iv, [[zero, f], [f, zero]])
        g = FourierFunction(iv, {2: 0.25, -2: 0.25})
        G = MatrixFourierFunction(iv, [[zero, g], [g, zero]])
        assert matrix_fn_commutator_sup(F, G) <= 1e-12

    def test_diagonal_pair_commutes(self):
        iv = (-1.0, 3.0)
        f1 = FourierFunction(iv, {1: 1.0})
        f2 = FourierFunction(iv, {0: AffineProfile(0.0, 1.0)})
        D1 = MatrixFourierFunction.diagonal([f1, f2])
        D2 = MatrixFourierFunction.diagonal([f2, f1])
        assert matrix_fn_commutator_sup(D1, D2) <= 1e-12

    def test_analytic_value_for_a_split_diagonal(self):
        q = FourierFunction(IV, {0: AffineProfile(0.0, 1.0)})
        one = FourierFunction(IV, {0: 1.0})
        zero = FourierFunction(IV, {})
        D = MatrixFourierFunction(IV, [[q, zero], [zero, q * -1.0]])
        F = MatrixFourierFunction(IV, [[zero, one], [one, zero]])
        assert matrix_fn_commutator_sup(D, F) == pytest.approx(2.0, abs=1e-12)

    def test_interval_mismatch(self):
        f = FourierFunction((0.0, 1.0), {1: 1.0})
        g = FourierFunction((0.0, 2.0), {1: 1.0})
        F = MatrixFourierFunction.diagonal([f, f])
        G = MatrixFourierFunction.diagonal([g, g])
        with pytest.raises(DomainError):
            matrix_fn_commutator_sup(F, G)

    def test_interval_tolerance_matches_matmul(self):
        def diag_on(q2):
            f = FourierFunction((0.0, q2), {1: 1.0})
            return MatrixFourierFunction.diagonal([f, f])

        F, near, far = diag_on(1.0), diag_on(1.0 + 1e-13), diag_on(1.0 + 1e-9)
        F.matmul(near)
        assert matrix_fn_commutator_sup(F, near) <= 1e-12
        with pytest.raises(DomainError):
            F.matmul(far)
        with pytest.raises(DomainError):
            matrix_fn_commutator_sup(F, far)


def svd_sup(FV, GV):
    """The probe's reference: the largest singular value over every sample."""
    return float(np.max(np.linalg.svd(FV @ GV - GV @ FV, compute_uv=False)))


def random_stacks(seed, S, shape=(6, 5)):
    rng = np.random.default_rng(seed)
    return tuple(rng.normal(size=shape + (S, S)) + 1j * rng.normal(size=shape + (S, S))
                 for _ in range(2))


class TestPointwiseCommutatorSup:
    """sqrt(lambda_max(C^H C)) from the per-sample scaled Gram matrix, against
    the largest singular value of C = FV GV - GV FV."""

    @pytest.mark.parametrize("S", [1, 2, 3])
    def test_matches_the_svd_on_non_hermitian_stacks(self, S):
        FV, GV = random_stacks(S, S)
        assert pointwise_commutator_sup(FV, GV) == pytest.approx(svd_sup(FV, GV), rel=1e-12, abs=0)
        for F, G in zip(FV.reshape(-1, S, S), GV.reshape(-1, S, S)):  # one unstacked sample
            assert pointwise_commutator_sup(F, G) == pytest.approx(svd_sup(F, G), rel=1e-12, abs=0)

    @pytest.mark.parametrize("S", [1, 2, 3])
    def test_all_zero_samples(self, S):
        FV, GV = random_stacks(10 + S, S)
        FV[::2] = 0.0  # every other row of samples commutes exactly
        assert pointwise_commutator_sup(FV, GV) == pytest.approx(svd_sup(FV, GV), rel=1e-12, abs=0)
        assert pointwise_commutator_sup(np.zeros_like(FV), GV) == 0.0
        assert pointwise_commutator_sup(GV, GV) == 0.0

    @pytest.mark.parametrize("S", [2, 3])
    @pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e150, 1e200])
    def test_extreme_magnitudes_neither_underflow_nor_overflow(self, S, scale):
        # C scales with FV; at 1e+-200 the unscaled C^H C would leave the float range
        FV, GV = random_stacks(20 + S, S)
        want = svd_sup(FV * scale, GV)
        assert want == pytest.approx(svd_sup(FV, GV) * scale, rel=1e-12)
        assert pointwise_commutator_sup(FV * scale, GV) == pytest.approx(want, rel=1e-12, abs=0)


def unpruned_sup(FV, GV):
    """The probe over every sample: the scaled Gram `eigvalsh` of each one."""
    C = np.einsum("...ij,...jk->...ik", FV, GV) - np.einsum("...ij,...jk->...ik", GV, FV)
    scale = np.max(np.abs(C), axis=(-2, -1))
    C = C / np.where(scale > 0, scale, 1.0)[..., None, None]
    lam = np.linalg.eigvalsh(np.einsum("...ji,...jk->...ik", C.conj(), C))[..., -1]
    return float(np.max(scale * np.sqrt(np.maximum(lam, 0.0))))


def vertex_generators(mode):
    return string_vertex_generators(VertexParams(N=30, profile=make_profile(mode)))[1]


class TestPrunedCommutatorSup:
    """The probe runs `eigvalsh` on the samples with ||C||_F >= max ||C||_F / sqrt(S)
    only, and its sup is the float the probe over every sample gives."""

    @pytest.mark.parametrize("mode", ["explicit-spline", "derived-lambda"])
    def test_vertex_pairs_keep_their_bits_on_fewer_samples(self, monkeypatch, mode):
        values = verify.sample_on_grid(vertex_generators(mode), (48, 48))[2]
        batches = []
        real = np.linalg.eigvalsh

        def counted(a):
            batches.append(a.shape[0])
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            want = unpruned_sup(values[i], values[j])
            batches.clear()
            assert pointwise_commutator_sup(values[i], values[j]) == want
            assert batches and batches[0] < 48 * 48

    @pytest.mark.parametrize("S", [1, 2, 3, 4])
    def test_random_stacks_keep_their_bits(self, S):
        rng = np.random.default_rng(100 + S)
        for shape in [(), (1,), (7,), (6, 5), (3, 4, 2), (37, 29)]:  # 1,073: three blocks
            FV, GV = (rng.normal(size=shape + (S, S)) + 1j * rng.normal(size=shape + (S, S))
                      for _ in range(2))
            FV[..., 0, :] *= 10.0 ** rng.integers(-3, 4, size=shape + (1,))  # spread the norms
            for F, G in [(FV, GV), (FV + np.conj(np.swapaxes(FV, -1, -2)), GV.real),
                         (FV * 1e-200, GV), (FV * 1e150, GV), (FV.real, GV.real)]:
                assert pointwise_commutator_sup(F, G) == unpruned_sup(F, G)

    @pytest.mark.parametrize("S", [1, 2, 3])
    def test_all_zero_stacks_read_zero(self, S):
        zero = np.zeros((6, 5, S, S), dtype=complex)
        _, GV = random_stacks(30 + S, S)
        assert pointwise_commutator_sup(zero, GV) == pointwise_commutator_sup(zero, zero) == 0.0
        assert pointwise_commutator_sup(zero[0, 0], zero[0, 0]) == 0.0

    # a NaN or an infinity keeps every sample: the sup reads NaN as it did over every
    # sample, and at S = 3 LAPACK refuses the NaN Gram matrix as it did
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("S", [1, 2, 3])
    def test_nonfinite_stacks_keep_their_result(self, S, bad):
        FV, GV = random_stacks(40 + S, S)
        FV[2, 3, 0, 0] = bad
        with np.errstate(invalid="ignore"):
            if S == 3:
                with pytest.raises(np.linalg.LinAlgError):
                    unpruned_sup(FV, GV)
                with pytest.raises(np.linalg.LinAlgError):
                    pointwise_commutator_sup(FV, GV)
            else:
                assert np.isnan(unpruned_sup(FV, GV))
                assert np.isnan(pointwise_commutator_sup(FV, GV))


def eval_on_grid(F, shape):
    """F on the (nq, nphi) grid by one `MatrixFourierFunction.eval` on its mesh."""
    qs = np.linspace(F.interval[0], F.interval[1], shape[0])
    phis = np.linspace(0.0, 2.0 * np.pi, shape[1], endpoint=False)
    return qs, phis, F.eval(qs[:, None], phis[None, :])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSampleOnGrids:
    """One coefficient pass over several grids against one evaluation per grid."""

    GENERATORS = {
        "vertex-explicit-spline": lambda: vertex_generators("explicit-spline"),
        "vertex-derived-lambda": lambda: vertex_generators("derived-lambda"),
        "eight": lambda: circle_to_eight_generators(16)[1],
        "eight-row-anchored": lambda: circle_to_eight_generators(16, "row-anchored")[1],
    }

    @pytest.mark.parametrize("shapes", [
        [(33, 32), (48, 48)], [(1, 1)], [(1, 1), (48, 48)], [(5, 1), (1, 7), (2, 2)],
    ], ids=["export-and-probe", "1x1", "1x1-and-probe", "thin"])
    @pytest.mark.parametrize("case", list(GENERATORS))
    def test_bitwise_the_per_grid_samples(self, case, shapes):
        gens = self.GENERATORS[case]()
        got = verify.sample_on_grids(gens, shapes)
        assert len(got) == len(shapes)
        for (qs, phis, values), shape in zip(got, shapes):
            one_qs, one_phis, one_values = verify.sample_on_grid(gens, shape)
            assert same_bits(qs, one_qs) and same_bits(phis, one_phis)
            for F, v, w in zip(gens, values, one_values):
                ref_qs, ref_phis, ref = eval_on_grid(F, shape)
                assert same_bits(qs, ref_qs) and same_bits(phis, ref_phis)
                assert same_bits(v, ref) and same_bits(w, ref)

    def test_every_grid_is_checked_before_sampling(self):
        gens = self.GENERATORS["eight"]()
        with pytest.raises(DomainError, match="at least one sample"):
            verify.sample_on_grids(gens, [(4, 4), (0, 3)])

    def test_a_nonfinite_coefficient_is_refused(self):
        f = FourierFunction(IV, {2: PolyProfile([0.0, 1e308, 1e308])})
        F = MatrixFourierFunction.from_scalar(f)
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="band 2 is not finite"):
            verify.sample_on_grids([F], [(3, 3)])
