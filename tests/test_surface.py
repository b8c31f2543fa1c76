"""Classical surface export."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fuzzyreg.errors import CapabilityError, DomainError
from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction
from fuzzyreg.interpolate import (
    VertexParams,
    build_string_vertex,
    make_profile,
    string_vertex_generators,
)
from fuzzyreg.profiles import AffineProfile, ComplexProfile
from fuzzyreg.spaces import (
    CurveSpec,
    DoubleCylinderSpec,
    build_circle_to_eight,
    build_generalized_cylinder,
    build_immersed_cylinder,
    circle_to_eight_functions,
)
from fuzzyreg.surface import check_commutation, export_classical_surface, surface_csv
from fuzzyreg.verify import matrix_fn_commutator_sup

from refs import surface_csv_reference

IV = (-1.0, 3.0)


def q_function():
    return FourierFunction(IV, {0: AffineProfile(0.0, 1.0)})


def diagonal_coords():
    spec = DoubleCylinderSpec(IV, AffineProfile(0.7, 0.3), 1.0)
    x1, y1 = spec.functions(1)
    x2, y2 = spec.functions(2)
    X = MatrixFourierFunction.diagonal([x1, x2])
    Y = MatrixFourierFunction.diagonal([y1, y2])
    Z = MatrixFourierFunction.diagonal([q_function(), q_function()])
    return X, Y, Z


class TestExport:
    def test_diagonal_sheets_reproduce_the_entries(self):
        X, Y, Z = diagonal_coords()
        header, rows = export_classical_surface([X, Y, Z], grid=(9, 8))
        assert header == ["sheet", "q", "phi", "x1", "x2", "x3", "offdiag"]
        assert len(rows) == 9 * 8 * 2
        for row in rows:
            s = int(row[0])
            q, phi = row[1], row[2]
            for k, F in enumerate((X, Y, Z)):
                want = complex(F.entries[s][s].eval(q, phi)).real
                assert row[3 + k] == pytest.approx(want, abs=1e-12)
            assert row[-1] <= 1e-12

    def test_antidiagonal_coordinate_splits_into_symmetric_sheets(self):
        f = FourierFunction(IV, {1: AffineProfile(0.3, 0.1)})
        F = MatrixFourierFunction(IV, [[None, f], [f.conjugate(), None]])
        header, rows = export_classical_surface([F], grid=(7, 6))
        for row in rows:
            s = int(row[0])
            q, phi = row[1], row[2]
            mag = abs(complex(f.eval(q, phi)))
            want = -mag if s == 0 else mag
            assert row[3] == pytest.approx(want, abs=1e-10)

    def test_refuses_noncommuting_coordinates(self):
        one = FourierFunction(IV, {0: 1.0})
        F = MatrixFourierFunction(IV, [[None, one], [one, None]])
        G = MatrixFourierFunction.diagonal([q_function(), q_function() * -1.0])
        with pytest.raises(CapabilityError, match="do not commute"):
            export_classical_surface([F, G], grid=(5, 4))

    def test_check_commutation_reports_the_worst_pair(self):
        X, Y, Z = diagonal_coords()
        assert check_commutation((X, Y, Z), bound=1e-2) <= 1e-12

    # one coefficient pass: the probe alone, and the export with its probe grid
    @pytest.mark.parametrize("run", [
        lambda coords: check_commutation(coords, bound=1e-2),
        lambda coords: export_classical_surface(coords, grid=(5, 4)),
    ], ids=["probe", "export"])
    def test_each_coefficient_is_evaluated_once(self, monkeypatch, run):
        calls = Counter()
        real_call = ComplexProfile.__call__

        def counted(self, q):
            calls[id(self)] += 1
            return real_call(self, q)

        monkeypatch.setattr(ComplexProfile, "__call__", counted)
        coords = diagonal_coords()
        run(coords)
        # once per table slot: a cosine stores one coefficient at both of its modes
        assert calls == Counter(id(c) for F in coords for row in F.entries for e in row
                                for c in e.coeffs.values())

    def test_check_commutation_is_the_worst_pairwise_sup(self):
        gens = build_string_vertex(VertexParams(N=8)).generators
        want = max(matrix_fn_commutator_sup(F, G, samples=48)
                   for F, G in itertools.combinations(gens, 2))
        assert check_commutation(gens, float("inf")) == want

    @pytest.mark.parametrize("bound", [float("nan"), -1e-2])
    def test_bound_must_be_a_nonnegative_number(self, bound):
        X, Y, Z = diagonal_coords()
        with pytest.raises(DomainError, match="nonnegative"):
            check_commutation((X, Y, Z), bound)
        with pytest.raises(DomainError, match="nonnegative"):
            export_classical_surface([X, Y, Z], grid=(3, 2), bound=bound)

    def test_infinite_bound_only_measures(self):
        one = FourierFunction(IV, {0: 1.0})
        F = MatrixFourierFunction(IV, [[None, one], [one, None]])
        G = MatrixFourierFunction.diagonal([q_function(), q_function() * -1.0])
        assert check_commutation((F, G), float("inf")) > 1.0

    def test_needs_at_least_one_coordinate(self):
        with pytest.raises(DomainError, match="at least one"):
            export_classical_surface([])

    def test_coordinates_must_share_layout(self):
        f = FourierFunction(IV, {1: 1.0})
        other = FourierFunction((0.0, 1.0), {1: 1.0})
        F = MatrixFourierFunction.diagonal([f, f])
        G = MatrixFourierFunction.diagonal([other, other])
        with pytest.raises(DomainError, match="share"):
            export_classical_surface([F, G])
        H = MatrixFourierFunction.diagonal([f, f, f])
        with pytest.raises(DomainError, match="share"):
            export_classical_surface([F, H])

    def test_intervals_agree_to_the_shared_tolerance(self):
        near = (IV[0], IV[1] + 1e-13)
        X, Y, Z = diagonal_coords()
        W = MatrixFourierFunction.diagonal([FourierFunction(near, {0: 1.0})] * 2)
        header, rows = export_classical_surface([X, W], grid=(3, 2))
        assert header[-2] == "x2" and len(rows) == 2 * 3 * 2
        assert all(row[-2] == 1.0 for row in rows)

    def test_mixed_block_sizes_are_refused(self):
        F = MatrixFourierFunction.from_scalar(q_function())
        G = MatrixFourierFunction.diagonal([q_function(), q_function()])
        with pytest.raises(DomainError, match="share block size"):
            check_commutation([F, G], 1.0)

    def test_grid_must_be_positive(self):
        X, _, _ = diagonal_coords()
        with pytest.raises(DomainError, match="at least one sample"):
            export_classical_surface([X], grid=(0, 8))
        with pytest.raises(DomainError, match="at least one sample"):
            export_classical_surface([X], grid=(3, 4, 5))


def per_sample_rows(coords, grid):
    """Export rows from one eigh per (q, phi) sample, anchored on coords[0].

    The coordinates are sampled on the full (q, phi) mesh, one array call
    each; scalar calls would differ from array ones at rounding level.
    """
    (q1, q2), S = coords[0].interval, coords[0].S
    qs = np.linspace(q1, q2, grid[0])
    phis = np.linspace(0.0, 2.0 * np.pi, grid[1], endpoint=False)
    Q, P = np.meshgrid(qs, phis, indexing="ij")
    mesh = np.stack([c.eval(Q, P) for c in coords])  # (d, nq, nphi, S, S)
    rows, diagonal = [], 0
    for iq, q in enumerate(qs):
        for ip, phi in enumerate(phis):
            vals = mesh[:, iq, ip]
            A = vals[0]
            if np.max(np.abs(A - np.diag(np.diagonal(A)))) <= 1e-12:
                V = np.eye(S)
                diagonal += 1
            else:
                V = np.linalg.eigh(A)[1]
            rot = np.einsum("as,kab,bt->kst", V.conj(), vals, V)
            diag = rot[:, np.arange(S), np.arange(S)]
            offmax = float(np.max(np.abs(rot - diag[:, :, None] * np.eye(S))))
            for s in range(S):
                rows.append((float(s), float(q), float(phi), *np.real(diag[:, s]).tolist(), offmax))
    return rows, diagonal


def same_bits(table, rows):
    """Whether the float64 table holds the rows bit for bit: -0.0 is not 0.0."""
    want = np.array(rows, dtype=np.float64)
    return (table.dtype == np.float64 and table.shape == want.shape
            and np.array_equal(table.view(np.int64), want.view(np.int64)))


class TestBatchedExport:
    def test_string_vertex_matches_per_sample_eigh(self):
        coords = build_string_vertex(VertexParams(N=30)).generators
        want, diagonal = per_sample_rows(coords, (9, 8))
        assert 0 < diagonal < 9 * 8  # both branches of the mask are exercised
        _, table = export_classical_surface(coords, grid=(9, 8), bound=2.0)
        assert same_bits(table, want)

    def test_immersed_eight_matches_per_sample_eigh(self):
        x, y, z = circle_to_eight_functions()
        coords = [MatrixFourierFunction.from_scalar(f)
                  for f in (x, y, FourierFunction.from_profile(x.interval, z))]
        want, _ = per_sample_rows(coords, (17, 16))
        _, table = export_classical_surface(coords, grid=(17, 16))
        assert same_bits(table, want)

    # the cylinder and the eight regularize their generators on every grid rule
    @pytest.mark.parametrize("build", [
        lambda: build_generalized_cylinder(CurveSpec.circle(1.5), 16, -0.5),
        lambda: build_circle_to_eight(16, "symmetric"),
        lambda: build_immersed_cylinder(*circle_to_eight_functions(), 16, "left"),
        lambda: build_circle_to_eight(16, "row-anchored"),
    ], ids=["cylinder", "eight-symmetric", "eight-left", "eight-row-anchored"])
    def test_presets_export_from_their_generators(self, build):
        coords = build().generators
        want, _ = per_sample_rows(coords, (9, 8))
        _, table = export_classical_surface(coords, grid=(9, 8))
        assert same_bits(table, want)


class TestMemory:
    # the table goes from the export to the text with no row tuples: the peak read
    # 56 MB, against 82 MB when the rows went through Python float tuples
    def test_large_vertex_export_peak(self):
        gens = string_vertex_generators(VertexParams(N=30))[1]
        tracemalloc.start()
        try:
            header, table = export_classical_surface(gens, grid=(257, 256), bound=2.0)
            text = surface_csv(header, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 257 * 256 * 2 + 1
        assert peak < 69 * 2**20


class TestCsv:
    def test_formatting(self):
        header = ["sheet", "q", "phi", "x1", "offdiag"]
        table = np.array([(0.0, 0.5, 1.25, 1.0 / 3.0, 1e-16)])
        text = surface_csv(header, table)
        lines = text.splitlines()
        assert lines[0] == "sheet,q,phi,x1,offdiag"
        assert lines[1] == "0,0.5,1.25,0.3333333333,1e-16"
        assert text.endswith("\n")

    def test_write_surface_csv(self):
        X, Y, Z = diagonal_coords()
        header, table = export_classical_surface((X, Y, Z), grid=(5, 4))
        assert table.shape == (5 * 4 * 2, len(header))
        lines = surface_csv(header, table).splitlines()
        assert len(lines) == len(table) + 1
        assert lines[0].startswith("sheet,")

    def test_matches_the_per_cell_formatter_on_edge_values(self):
        header = ["sheet", "q", "phi", "x1", "x2", "offdiag"]
        table = np.array([(0.0, -0.0, 5e-324, 1e300, -1.5, 0.0),
                          (1.0, 2.0, -3.0, 1e16, -1e-300, 123456789012.0),
                          (-0.0, 0.1, 1.0 / 3.0, -2.5e-7, 1e22, 4.0)])
        assert surface_csv(header, table) == surface_csv_reference(header, table)
        empty = np.empty((0, len(header)))
        assert surface_csv(header, empty) == surface_csv_reference(header, empty)

    @pytest.mark.parametrize("mode", ["explicit-spline", "derived-lambda"])
    def test_matches_the_per_cell_formatter_on_the_vertex(self, mode):
        gens = build_string_vertex(VertexParams(N=8, profile=make_profile(mode))).generators
        header, table = export_classical_surface(gens, grid=(17, 16), bound=2.0)
        assert surface_csv(header, table) == surface_csv_reference(header, table)
