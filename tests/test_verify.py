"""Convergence checks and sweep reporting."""

import json

import numpy as np
import pytest

from fuzzyreg.errors import DomainError, StructureError
from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction, mul, poisson_bracket
from fuzzyreg.interpolate import VertexParams, build_string_vertex
from fuzzyreg.profiles import AffineProfile, PolyProfile
from fuzzyreg.regularize import FuzzySpace, make_grid, regularize_scalar, within_border_norm
from fuzzyreg.spaces import (
    CurveSpec,
    build_circle_to_eight,
    build_generalized_cylinder,
    circle_to_eight_functions,
)
from fuzzyreg.verify import (
    SweepReport,
    check_commutator_decay,
    check_norm_convergence,
    check_poisson_convergence,
    check_product_convergence,
    matrix_fn_commutator_sup,
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
            dense = within_border_norm(Qxy.replace_data(Qx.data @ Qy.data - Qxy.data), rep.delta)
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
                target.replace_data(1j * s * comm - target.data), rep.delta)
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
        resid = prod.replace_data(Qf.data @ Qg.data - prod.data)
        r = within_border_norm(resid, delta)
        corr = mul(f.d_phi(), g.d_q()) * grid.beta_left \
            - mul(f.d_q(), g.d_phi()) * grid.beta_right
        corr_norm = within_border_norm(regularize_scalar(corr, grid), delta)
        R = semiclassical_residual(f, g, "symmetric", N=N, delta=delta)
        assert R <= r + corr_norm / N + 1e-12

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
        dense = within_border_norm(Qxy.replace_data(resid), delta)
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
