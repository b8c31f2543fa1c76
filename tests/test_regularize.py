"""Grids, the regularization map, Toeplitz pieces, border norms."""

import gc
import itertools
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from fuzzyreg import profiles, regularize
from fuzzyreg.errors import DomainError, StructureError
from fuzzyreg.cli import function_from_config
from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction, mul, poisson_bracket
from fuzzyreg.interpolate import VertexParams, build_string_vertex
from fuzzyreg.profiles import (
    AffineProfile,
    CallableProfile,
    ComplexProfile,
    ComposedProfile,
    SplineProfile,
    _ppoly,
    _SplineDerivativeProfile,
    smooth_step,
)
from fuzzyreg.regularize import (
    FuzzyMatrix,
    FuzzySpace,
    commutator,
    interior_max_entry,
    make_grid,
    product,
    regularize_matrix,
    regularize_scalar,
    regularize_schedule,
    within_border_norm,
)
from fuzzyreg.spaces import build_circle_to_eight, circle_to_eight_functions
from fuzzyreg.verify import check_poisson_convergence
from refs import dense_interior_max_entry, dense_within_border_norm, shift_basis

IV = (0.0, 1.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestMakeGrid:
    def test_symmetric_rule_values(self):
        g = make_grid(10, IV, "symmetric")
        assert g.q(0, 0) == pytest.approx(0.0)
        assert g.q(10, 10) == pytest.approx(1.0)
        assert g.q(3, 5) - g.q(3, 4) == pytest.approx(0.05)
        assert g.q(4, 7) == pytest.approx(g.q(7, 4))
        assert g.beta_left == pytest.approx(0.5)
        assert g.beta_right == pytest.approx(0.5)

    def test_left_rule_values(self):
        g = make_grid(10, IV, "left")
        assert g.q(4, 9) == pytest.approx(0.4)
        assert g.q(4, 2) == pytest.approx(0.4)
        assert g.beta_left == pytest.approx(1.0)
        assert g.beta_right == pytest.approx(0.0)

    def test_row_anchored_rule_values(self):
        g = make_grid(10, (-1.0, 1.0), "row-anchored")
        n = np.arange(10)
        assert g.q(4, 9) == g.q(9, 4) == g.q(4, 4) == -1.0 + 2.0 * 4 / 10
        assert np.array_equal(g.q(n, n), -1.0 + 2.0 * n / 10)
        assert np.array_equal(g.q(n, n + 3), g.q(n + 3, n))
        assert g.beta_left == pytest.approx(2.0)
        assert g.beta_right == 0.0

    def test_affine_in_the_column_index(self):
        g = make_grid(12, (-1.0, 3.0), "symmetric")
        for m, n, p in [(2, 3, 7), (5, 0, 11)]:
            assert g.q(m, p) == pytest.approx(g.q(m, n) + g.beta_right / g.N * (p - n))

    def test_rejects_degenerate_input(self):
        with pytest.raises(DomainError):
            make_grid(1, IV)
        with pytest.raises(DomainError):
            make_grid(8, (1.0, 0.0))
        with pytest.raises(DomainError):
            make_grid(8, IV, "diagonal")


class TestRegularizeScalar:
    def test_identity_function(self):
        g = make_grid(12, IV)
        Q = regularize_scalar(FourierFunction.from_profile(IV, 1.0), g)
        np.testing.assert_array_equal(Q.data, np.eye(12))

    def test_single_mode_lands_on_first_superdiagonal(self):
        g = make_grid(8, IV)
        Q = regularize_scalar(FourierFunction(IV, {1: 1.0}), g)
        np.testing.assert_array_equal(Q.data, np.eye(8, k=1))

    def test_band_entries_follow_the_grid(self):
        g = make_grid(9, (-1.0, 1.0))
        amp = AffineProfile(0.5, 0.25)
        Q = regularize_scalar(FourierFunction((-1.0, 1.0), {2: ComplexProfile(amp)}), g)
        for n in range(7):
            assert Q.data[n, n + 2] == pytest.approx(amp(g.q(n, n + 2)))

    def test_interval_mismatch_rejected(self):
        g = make_grid(8, IV)
        f = FourierFunction.from_profile((0.0, 2.0), 1.0)
        with pytest.raises(DomainError):
            regularize_scalar(f, g)

    def test_cutoff_must_stay_below_n(self):
        g = make_grid(4, IV)
        f = FourierFunction(IV, {4: 1.0})
        with pytest.raises(DomainError):
            regularize_scalar(f, g)

    def test_hermitian_flag_for_real_series_on_symmetric_grids(self):
        f = FourierFunction.cosine(IV, 1, AffineProfile(1.0, 0.5))
        assert regularize_scalar(f, make_grid(8, IV, "symmetric")).is_hermitian(1e-14)
        left = regularize_scalar(f, make_grid(8, IV, "left"))
        assert not left.is_hermitian(1e-14)

    def test_entries_with_different_mode_sets_keep_their_own_bands(self):
        # the matrix is evaluated on the q vector of all its bands at once
        x, y, _ = circle_to_eight_functions()
        f1, f2 = x, poisson_bracket(x, y)
        assert sorted(f1.coeffs) == [-3, -1, 1, 3] and sorted(f2.coeffs) != sorted(f1.coeffs)
        g = make_grid(32, x.interval)
        M = regularize_matrix(MatrixFourierFunction.diagonal([f1, f2]), g).data
        assert M[0::2, 0::2].tobytes() == regularize_scalar(f1, g).data.tobytes()
        assert M[1::2, 1::2].tobytes() == regularize_scalar(f2, g).data.tobytes()
        assert not M[0::2, 1::2].any() and not M[1::2, 0::2].any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        f = FourierFunction(IV, {0: 1.0, 1: bad})
        with pytest.raises(DomainError):
            regularize_scalar(f, make_grid(8, IV))


class TestRegularizeMatrix:
    def test_flat_layout_of_block_entries(self):
        zero = FourierFunction(IV, {})
        f = FourierFunction(IV, {1: ComplexProfile(AffineProfile(0.2, 1.0))})
        F = MatrixFourierFunction(IV, [[zero, f], [f.conjugate(), zero]])
        g = make_grid(6, IV)
        M = regularize_matrix(F, g)
        assert M.S == 2 and M.dim == 12
        for n in range(5):
            m = n + 1
            assert M.data[2 * n + 0, 2 * m + 1] == pytest.approx(
                f.coeffs[1](g.q(n, m))
            )
            assert M.data[2 * n + 1, 2 * m + 0] == pytest.approx(0.0)

    def test_scalar_slot_reduces_to_regularize_scalar(self):
        rng = np.random.default_rng(3)
        coeffs = {
            int(m): ComplexProfile(AffineProfile(rng.normal(), rng.normal()))
            for m in (-2, 0, 1)
        }
        f = FourierFunction(IV, coeffs)
        g = make_grid(16, IV)
        A = regularize_matrix(MatrixFourierFunction.from_scalar(f), g)
        B = regularize_scalar(f, g)
        assert np.array_equal(A.data, B.data)

    def test_entries_with_different_mode_sets_keep_their_own_bands(self):
        # the matrix is evaluated on the q vector of all its bands at once
        x, y, _ = circle_to_eight_functions()
        f1, f2 = x, poisson_bracket(x, y)
        assert sorted(f1.coeffs) == [-3, -1, 1, 3] and sorted(f2.coeffs) != sorted(f1.coeffs)
        g = make_grid(32, x.interval)
        M = regularize_matrix(MatrixFourierFunction.diagonal([f1, f2]), g).data
        assert M[0::2, 0::2].tobytes() == regularize_scalar(f1, g).data.tobytes()
        assert M[1::2, 1::2].tobytes() == regularize_scalar(f2, g).data.tobytes()
        assert not M[0::2, 1::2].any() and not M[1::2, 0::2].any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        good = FourierFunction.cosine(IV, 1, 1.0)
        F = MatrixFourierFunction.diagonal([good, FourierFunction(IV, {-1: bad})])
        with pytest.raises(DomainError):
            regularize_matrix(F, make_grid(8, IV))


def _eight_bracket(**transition):
    x, y, _ = circle_to_eight_functions(**transition)
    return poisson_bracket(x, y)


def _spline_evaluations(profile, out):
    """Append the first spline, spline-derivative or composed node on each path
    of the tree: each one met runs `_ppoly` once on its own argument array."""
    if isinstance(profile, (SplineProfile, ComposedProfile, _SplineDerivativeProfile)):
        out.append(profile)
        return out
    for child in (getattr(profile, a, None) for a in ("base", "left", "right")):
        if child is not None:
            _spline_evaluations(child, out)
    for term in getattr(profile, "terms", ()):
        _spline_evaluations(term, out)
    return out


def _counted_ppoly(monkeypatch):
    calls = []
    monkeypatch.setattr(profiles, "_ppoly", lambda *a: calls.append(a) or _ppoly(*a))
    return calls


def _distinct_spline_nodes(F: FourierFunction) -> int:
    met = []
    for c in F.coeffs.values():
        _spline_evaluations(c.re, met)
        _spline_evaluations(c.im, met)
    assert len({id(node) for node in met}) < len(met)  # the trees share nodes
    return len({id(node) for node in met})


class TestSharedEvaluation:
    """regularize_schedule evaluates the nodes its coefficient trees share once
    per q vector, and one q vector serves a function's whole schedule."""

    @pytest.mark.parametrize("transition", [{}, {"transition_scale": 2.0, "transition_shift": 0.5}])
    def test_one_spline_call_per_distinct_node(self, monkeypatch, transition):
        bracket = _eight_bracket(**transition)
        distinct = _distinct_spline_nodes(bracket)
        calls = _counted_ppoly(monkeypatch)
        regularize_scalar(bracket, make_grid(64, bracket.interval))
        assert len(calls) == distinct  # the bracket's one entry has one q vector

    @pytest.mark.parametrize("transition", [{}, {"transition_scale": 2.0, "transition_shift": 0.5}])
    def test_one_spline_call_per_distinct_node_per_schedule(self, monkeypatch, transition):
        bracket = _eight_bracket(**transition)
        distinct = _distinct_spline_nodes(bracket)
        calls = _counted_ppoly(monkeypatch)
        grids = [make_grid(n, bracket.interval) for n in (16, 32, 64, 128)]
        sizes = list(regularize_schedule([MatrixFourierFunction.from_scalar(bracket)], grids))
        assert len(sizes) == len(grids)
        assert len(calls) == distinct  # not per size

    def test_a_loaded_poisson_sweep_runs_one_call_per_table_and_q_vector(self, monkeypatch):
        # every spline of the config is the transition h: f and g load one node,
        # the bracket reads it and its derivative on the vector of its even bands
        cfg = json.loads((CONFIGS / "eight_poisson.json").read_text())["sweep"]
        f, g = function_from_config(cfg["f"]), function_from_config(cfg["g"])
        calls = _counted_ppoly(monkeypatch)
        check_poisson_convergence(f, g, Ns=cfg["schedule"])
        assert len(calls) == 3
        assert len({(x.tobytes(), t.tobytes(), id(q)) for x, t, q in calls}) == 3

    def test_bands_equal_a_reference_evaluated_outside(self):
        bracket = _eight_bracket(transition_scale=2.0, transition_shift=0.5)
        grid = make_grid(64, bracket.interval)
        ref = np.zeros((64, 64), dtype=complex)
        for band, c in bracket.coeffs.items():
            r = np.arange(64 - abs(band)) + max(0, -band)
            ref[r, r + band] = c(grid.q(r, r + band))
        assert regularize_scalar(bracket, grid).data.tobytes() == ref.tobytes()

    def test_no_memo_outlives_the_call(self, monkeypatch):
        bracket = _eight_bracket(transition_scale=2.0, transition_shift=0.5)
        grids = [make_grid(n, bracket.interval) for n in (32, 64)]
        seen = []
        monkeypatch.setattr(profiles, "_ppoly", lambda x, t, q: seen.append(weakref.ref(q)) or _ppoly(x, t, q))
        regularize_scalar(bracket, grids[-1])
        sizes = regularize_schedule([MatrixFourierFunction.from_scalar(bracket)], grids)
        next(sizes)
        assert profiles._memo.get() is None  # none is open between the sizes
        list(sizes)
        gc.collect()
        assert len(seen) == 2 * _distinct_spline_nodes(bracket)
        assert all(ref() is None for ref in seen)

    def test_a_node_rereads_an_array_changed_in_place(self):
        h = smooth_step()
        for node in (h, h.derivative(), h.compose_affine(2.0, 0.5)):
            q = np.array([-0.5, 0.0, 0.25])
            node(q)
            q[:] = [0.5, -0.25, 0.75]
            assert node(q).tobytes() == node(q.copy()).tobytes()


class TestSchedule:
    """regularize_schedule against regularize_matrix run alone, size by size."""

    @pytest.mark.parametrize("rule", ["symmetric", "left"])
    def test_every_matrix_is_bitwise_the_one_regularized_alone(self, rule):
        x, y, _ = circle_to_eight_functions(transition_scale=2.0, transition_shift=0.5)
        fns = [MatrixFourierFunction.from_scalar(h)
               for h in (x, y, poisson_bracket(x, y), mul(x, y))]
        grids = [make_grid(n, x.interval, rule) for n in (16, 24, 64, 128)]
        sizes = list(regularize_schedule(fns, grids))
        assert len(sizes) == len(grids)
        for grid, matrices in zip(grids, sizes):
            assert len(matrices) == len(fns)
            for F, M in zip(fns, matrices):
                alone = regularize_matrix(F, grid)
                assert M.offsets == alone.offsets
                assert M.bands.tobytes() == alone.bands.tobytes()

    def test_matrix_functions_of_several_band_sets(self):
        v = build_string_vertex(VertexParams(N=12))
        grids = [make_grid(n, v.grid.interval) for n in (12, 20)]
        for grid, matrices in zip(grids, regularize_schedule(v.generators, grids)):
            for F, M in zip(v.generators, matrices):
                alone = regularize_matrix(F, grid)
                assert (M.offsets, M.bands.tobytes()) == (alone.offsets, alone.bands.tobytes())

    def test_one_size_is_held_at_a_time(self, monkeypatch):
        # the caller drops each size before asking for the next, and works on
        # the last one after the coefficient values are freed
        gathered, call = regularize._gathered, ComplexProfile.__call__
        sizes_alive, values = [], []
        monkeypatch.setattr(regularize, "_gathered", lambda *a: sizes_alive.append(
            [r() is not None for r in bands]) or gathered(*a))
        monkeypatch.setattr(ComplexProfile, "__call__", lambda c, q: values.append(
            weakref.ref(v := call(c, q))) or v)
        f = FourierFunction(IV, {-1: AffineProfile(0.0, 1.0), 1: AffineProfile(0.0, 1.0)})
        sizes = regularize_schedule([MatrixFourierFunction.from_scalar(f)],
                                    [make_grid(n, IV) for n in (8, 16, 32)])
        bands = []
        for n in (8, 16, 32):
            (M,) = next(sizes)
            assert M.N == n
            assert [r() is not None for r in values] == [n < 32] * 2
            bands.append(weakref.ref(M.bands))
            del M
        assert sizes_alive == [[], [False], [False, False]]

    def test_a_cutoff_at_the_smallest_size_is_refused_before_evaluation(self, monkeypatch):
        x, y, _ = circle_to_eight_functions()
        bracket = poisson_bracket(x, y)  # cutoff 6
        calls = _counted_ppoly(monkeypatch)
        grids = [make_grid(n, x.interval) for n in (6, 64)]
        fns = [MatrixFourierFunction.from_scalar(h) for h in (x, bracket)]
        with pytest.raises(DomainError, match=r"^cutoff 6 must stay below N = 6$"):
            next(regularize_schedule(fns, grids))
        assert calls == []

    def test_an_interval_mismatch_is_refused_before_evaluation(self, monkeypatch):
        x, _, _ = circle_to_eight_functions()
        calls = _counted_ppoly(monkeypatch)
        grids = [make_grid(16, x.interval), make_grid(32, (-1.0, 2.0))]
        with pytest.raises(DomainError, match=r"^interval mismatch: \(-1.0, 1.0\) vs \(-1.0, 2.0\)$"):
            next(regularize_schedule([MatrixFourierFunction.from_scalar(x)], grids))
        assert calls == []

    def test_a_value_not_finite_on_one_grid_names_its_band(self):
        # q = (2r + 1)/16 on the N = 8 symmetric grid, a multiple of 1/8 on N = 4
        odd = CallableProfile(lambda q: np.where(np.round(q * 16) % 2 == 1, np.nan, q))
        f = FourierFunction(IV, {0: 1.0, 1: ComplexProfile(odd)})
        sizes = regularize_schedule([MatrixFourierFunction.from_scalar(f)],
                                    [make_grid(4, IV), make_grid(8, IV)])
        (first,) = next(sizes)
        assert np.all(np.isfinite(first.bands))
        with pytest.raises(DomainError, match=r"^coefficient of function 0, entry \(0, 0\), band 1 "
                                              r"is not finite on the grid$"):
            next(sizes)

    def test_a_value_not_finite_names_its_function_and_entry(self):
        # entry (0, 1) of the second of two S = 2 functions
        one = FourierFunction(IV, {0: 1.0})
        F = MatrixFourierFunction(IV, [[one, FourierFunction(IV, {-1: 0.5, 1: float("nan")})],
                                       [None, one]])
        sizes = regularize_schedule([MatrixFourierFunction.diagonal([one, one]), F], [make_grid(8, IV)])
        with pytest.raises(DomainError, match=r"^coefficient of function 1, entry \(0, 1\), band 1 "
                                              r"is not finite on the grid$"):
            next(sizes)

    def test_a_sweep_target_not_finite_is_named(self):
        # f and g of the eight's sweep are finite; only the target, function 2, is not
        x, y, _ = circle_to_eight_functions()
        nan = ComplexProfile(CallableProfile(lambda q: np.where(q > 0.0, np.nan, q)))
        target = poisson_bracket(x, y) + FourierFunction(x.interval, {4: nan})
        fns = [MatrixFourierFunction.from_scalar(h) for h in (x, y, target)]
        sizes = regularize_schedule(fns, [make_grid(n, x.interval) for n in (16, 32)])
        with pytest.raises(DomainError, match=r"^coefficient of function 2, entry \(0, 0\), band 4 "
                                              r"is not finite on the grid$"):
            next(sizes)


class TestToeplitzBasis:
    def test_zero_offset_is_identity(self):
        np.testing.assert_array_equal(shift_basis(0, 5).data, np.eye(5))

    def test_shift_composition_inside_border(self):
        N = 8
        prod = shift_basis(1, N).data @ shift_basis(1, N).data
        diff = FuzzyMatrix(prod - shift_basis(2, N).data, N, 1)
        assert within_border_norm(diff, 1) == 0.0

    def test_extreme_offset_has_a_single_entry(self):
        N = 6
        T = shift_basis(N - 1, N)
        expect = np.zeros((N, N))
        expect[0, N - 1] = 1.0
        np.testing.assert_array_equal(T.data, expect)
        np.testing.assert_array_equal(shift_basis(-(N - 1), N).data, expect.T)

    def test_offset_out_of_range(self):
        with pytest.raises(DomainError):
            shift_basis(6, 6)


class TestBorderHelpers:
    def test_border_too_wide(self):
        M = FuzzyMatrix(np.eye(4, dtype=complex), 4, 1)
        with pytest.raises(DomainError):
            within_border_norm(M, 2)

    def test_within_border_norm_examples(self):
        I8 = FuzzyMatrix(np.eye(8, dtype=complex), 8, 1)
        assert within_border_norm(I8, 0) == 1.0
        assert within_border_norm(I8, 2) == 1.0
        assert within_border_norm(shift_basis(1, 10), 0) == 1.0
        Q = regularize_scalar(FourierFunction.cosine(IV, 1), make_grid(16, IV))
        assert within_border_norm(Q, 1) == pytest.approx(1.0)

    def test_interior_max_entry(self):
        data = np.zeros((5, 5), dtype=complex)
        data[0, 0] = 9.0
        data[2, 2] = 3.0
        M = FuzzyMatrix(data, 5, 1)
        assert interior_max_entry(M, 0) == 9.0
        assert interior_max_entry(M, 1) == 3.0

    def test_border_spec_validation(self):
        M = FuzzyMatrix(np.eye(6, dtype=complex), 6, 1)
        for check in (within_border_norm, interior_max_entry):
            with pytest.raises(DomainError, match="non-negative"):
                check(M, -1)
            with pytest.raises(DomainError, match="too large"):
                check(M, 3)
        assert within_border_norm(M, 2.0) == 1.0


def _same(a, b):
    """Equal floats, NaN equal to NaN."""
    return a == b or (np.isnan(a) and np.isnan(b))


class TestDenseInteriorNorms:
    """Dense data (never copied into bands) is normed on its dense view's
    interior block, to the bits of the band path and of the dense reference."""

    @staticmethod
    def cases(dim):
        rng = np.random.default_rng(dim)
        data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        infs, nans = data.copy(), data.copy()
        cells = rng.integers(0, dim, size=(2, 40))
        infs.real[cells[0, :20], cells[1, :20]] = np.inf
        infs.imag[cells[0, 20:], cells[1, 20:]] = -np.inf
        nans.real[cells[0], cells[1]] = np.nan
        nans[cells[1], cells[0]] = -np.inf
        return {"random": data, "inf": infs, "nan": nans, "zeros": np.zeros((dim, dim))}

    @pytest.mark.parametrize("dim", [512, 1024])
    def test_equal_to_the_band_path_and_the_dense_block(self, dim):
        for name, data in self.cases(dim).items():
            dense, banded = FuzzyMatrix(data, dim), FuzzyMatrix(data, dim)
            banded.bands  # read: the band path
            for delta in (0, 5):
                for norm, ref in ((within_border_norm, dense_within_border_norm),
                                  (interior_max_entry, dense_interior_max_entry)):
                    got, want = norm(dense, delta), ref(data, delta)
                    assert _same(got, want) and _same(norm(banded, delta), want), (name, delta)
            assert dense._bands is None, name

    def test_dense_norms_at_1024_copy_no_bands(self):
        # the band copy of a dense 1024 x 1024 matrix alone takes 16 MB (2 dim - 1
        # complex diagonals); the interior block's magnitudes take 8 MB
        data = self.cases(1024)["random"]
        M = FuzzyMatrix(data, 1024)
        tracemalloc.start()
        try:
            within_border_norm(M, 5), interior_max_entry(M, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(4)
        A = FuzzyMatrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), 6, 1)
        np.testing.assert_array_equal(commutator(A, A).data, np.zeros((6, 6)))

    def test_toeplitz_pair_commutes_inside_border(self):
        N = 12
        C = commutator(shift_basis(1, N), shift_basis(2, N))
        assert within_border_norm(C, 2) == 0.0

    def test_height_commutator_carries_the_angle_derivative(self):
        # [z, Q(f)] = -((beta_l + beta_r)/N) Q(-i d_phi f), entry for entry
        f = FourierFunction(
            IV,
            {
                1: ComplexProfile(AffineProfile(1.0, 0.3)),
                -2: ComplexProfile(AffineProfile(0.2, 0.0), AffineProfile(0.0, 0.5)),
            },
        )
        for rule in ("symmetric", "left"):
            g = make_grid(16, IV, rule)
            k = np.arange(16)
            zhat = FuzzyMatrix(np.diag(g.q(k, k)).astype(complex), 16, 1)
            lhs = commutator(zhat, regularize_scalar(f, g))
            rhs = regularize_scalar(f.d_phi() * (-1j), g)
            scale = (g.beta_left + g.beta_right) / g.N
            np.testing.assert_allclose(lhs.data, -scale * rhs.data, atol=1e-14)

    @pytest.mark.parametrize("pair", ["random", "eight", "vertex"])
    def test_matches_the_dense_products(self, pair):
        if pair == "random":
            rng = np.random.default_rng(7)
            A, B = (FuzzyMatrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), 6, 1)
                    for _ in range(2))
        elif pair == "eight":
            A, B = build_circle_to_eight(1024).coordinates[:2]
        else:
            A, B = build_string_vertex(VertexParams(N=30)).coordinates[:2]
        AB, BA = A.data @ B.data, B.data @ A.data
        C = commutator(A, B)
        scale = max(np.abs(AB).max(), np.abs(BA).max())
        assert np.abs(C.data - (AB - BA)).max() <= 1e-13 * scale
        assert (C.N, C.S) == (A.N, A.S)
        assert C.data.dtype == complex
        assert not C.data.flags.writeable

    def test_dimension_mismatch(self):
        # dense operands take BLAS: the layouts are checked before numpy multiplies
        rng = np.random.default_rng(3)
        for a, b in [(np.eye(4), np.eye(6)), (rng.normal(size=(3, 3)), rng.normal(size=(4, 4)))]:
            A, B = FuzzyMatrix(a, len(a), 1), FuzzyMatrix(b, len(b), 1)
            for op, X, Y in itertools.product((product, commutator), (A, B), (A, B)):
                if X is not Y:
                    with pytest.raises(StructureError):
                        op(X, Y)


class TestFuzzyMatrix:
    def test_data_is_frozen(self):
        M = FuzzyMatrix(np.eye(3, dtype=complex), 3, 1)
        with pytest.raises(ValueError):
            M.data[0, 0] = 5.0

    def test_layout_validation(self):
        with pytest.raises(StructureError):
            FuzzyMatrix(np.eye(5, dtype=complex), 2, 2)


class TestFuzzySpace:
    def test_validate_passes_for_hermitian_coordinates(self):
        g = make_grid(8, IV)
        Q = regularize_scalar(FourierFunction.cosine(IV, 1), g)
        space = FuzzySpace("toy", (Q, FuzzyMatrix(0.5 * (Q.data + Q.data.conj().T), Q.N, Q.S)))
        assert all(c.is_hermitian(1e-12) for c in space.coordinates)
        assert space.dim == 8 and len(space.coordinates) == 2
