"""Structural maps: the block layout, unitaries, recipes, sorting."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fuzzyreg import transforms
from fuzzyreg.cli import build_space
from fuzzyreg.errors import CapabilityError, DomainError, StructureError
from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction
from fuzzyreg.interpolate import VertexParams, build_string_vertex, make_profile, mirror_concat
from fuzzyreg.profiles import AffineProfile, CallableProfile, ComplexProfile
from fuzzyreg.regularize import (
    FuzzyMatrix,
    FuzzySpace,
    make_grid,
    product,
    regularize_matrix,
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
)
from fuzzyreg.transforms import (
    PHASE_POLICY,
    SmallUnitary,
    block_transform,
    constant_conjugate_function,
    diagonalize_coordinate,
    interlace,
    interlacing_unitary,
    matrix_poly_transform,
)
from refs import CONFIGS, phase_fix_loop, serial_conjugation

IV = (0.0, 1.0)


def random_fuzzy(rng, N, S=1):
    dim = N * S
    data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return FuzzyMatrix(data, N, S)


def random_table(rng, interval=IV, modes=(-2, 0, 1)):
    coeffs = {
        int(m): ComplexProfile(
            AffineProfile(rng.normal(), rng.normal()),
            AffineProfile(rng.normal(), rng.normal()),
        )
        for m in modes
    }
    return FourierFunction(interval, coeffs)


class TestSmallUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(StructureError):
            SmallUnitary(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))

    def test_interlacing_matrix(self):
        U = interlacing_unitary()
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(U.matrix, s * np.array([[1.0, -1.0], [1.0, 1.0]]))


class TestZOrder:
    def test_matches_regularizing_the_stacked_function(self):
        # block entry (a, b) of the stacked regularization is the strided view
        # [a::2, b::2]: the z-ordered direct sum of the two scalar regularizations
        rng = np.random.default_rng(2)
        g = make_grid(32, IV)
        for _ in range(10):
            f1, f2 = random_table(rng), random_table(rng)
            stacked = regularize_matrix(MatrixFourierFunction.diagonal([f1, f2]), g).data
            assert np.array_equal(stacked[0::2, 0::2], regularize_scalar(f1, g).data)
            assert np.array_equal(stacked[1::2, 1::2], regularize_scalar(f2, g).data)
            assert not np.any(stacked[0::2, 1::2]) and not np.any(stacked[1::2, 0::2])


class TestConstantConjugation:
    def test_identity_lift(self):
        rng = np.random.default_rng(5)
        M = random_fuzzy(rng, 5, S=2)
        U = SmallUnitary(np.eye(2, dtype=complex))
        np.testing.assert_array_equal(block_transform(M, U, 0).data, M.data)

    def test_lifted_interlacing_is_unitary(self):
        V = np.kron(np.eye(8), interlacing_unitary().matrix)
        np.testing.assert_allclose(V @ V.conj().T, np.eye(16), atol=1e-15)

    def test_naturality_of_constant_conjugation(self):
        # conjugating the regularization equals regularizing the conjugated function
        rng = np.random.default_rng(7)
        entries = [[random_table(rng) for _ in range(2)] for _ in range(2)]
        F = MatrixFourierFunction(IV, entries)
        U = interlacing_unitary()
        g = make_grid(12, IV)
        lhs = block_transform(regularize_matrix(F, g), U, 0)
        rhs = regularize_matrix(constant_conjugate_function(F, U.matrix), g)
        np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-14)


def mirror_pair_space(N=24):
    f = FourierFunction(
        IV,
        {
            1: ComplexProfile(AffineProfile(0.3, 0.7), AffineProfile(0.1, -0.2)),
            -2: ComplexProfile.from_const(0.25),
            0: ComplexProfile(AffineProfile(0.5, 0.1)),
        },
    )
    fneg = FourierFunction(IV, {n: c * (-1.0) for n, c in f.coeffs.items()})
    gdiag = MatrixFourierFunction.diagonal([fneg, f])
    grid = make_grid(N, IV)
    space = FuzzySpace("pair", (regularize_matrix(gdiag, grid),), (gdiag,), grid)
    return space, f, gdiag, grid


class TestInterlace:
    def test_diagonal_pair_becomes_antidiagonal(self):
        space, f, _, grid = mirror_pair_space()
        out = interlace(space)
        zero = FourierFunction(IV, {})
        ganti = MatrixFourierFunction(IV, [[zero, f], [f, zero]])
        ref = regularize_matrix(ganti, grid)
        assert np.max(np.abs(out.coordinates[0].data - ref.data)) < 1e-13
        qs = np.linspace(0, 1, 5)[:, None]
        phis = np.linspace(0, 2 * np.pi, 6, endpoint=False)[None, :]
        np.testing.assert_allclose(
            out.generators[0].eval(qs, phis), ganti.eval(qs, phis), atol=1e-14
        )

    def test_scalar_multiples_of_identity_are_invariant(self):
        qfn = FourierFunction.from_profile(IV, AffineProfile(0.0, 1.0))
        Z = MatrixFourierFunction.diagonal([qfn, qfn])
        grid = make_grid(16, IV)
        space = FuzzySpace("height", (regularize_matrix(Z, grid),), (Z,), grid)
        out = interlace(space)
        np.testing.assert_allclose(
            out.coordinates[0].data, space.coordinates[0].data, atol=1e-15
        )

    def test_double_interlace_returns_a_diagonal_form(self):
        space, f, _, grid = mirror_pair_space()
        out = interlace(interlace(space))
        fneg = FourierFunction(IV, {n: c * (-1.0) for n, c in f.coeffs.items()})
        ref = regularize_matrix(MatrixFourierFunction.diagonal([f, fneg]), grid)
        np.testing.assert_allclose(out.coordinates[0].data, ref.data, atol=1e-13)

    def test_requires_two_slots(self):
        rng = np.random.default_rng(8)
        M = random_fuzzy(rng, 6)
        space = FuzzySpace("scalar", (M,))
        with pytest.raises(StructureError):
            interlace(space)


class TestBlockTransform:
    def test_degenerate_splits(self):
        rng = np.random.default_rng(9)
        M = random_fuzzy(rng, 4, S=2)
        U = interlacing_unitary()
        full = block_transform(M, U, 0)
        V = np.kron(np.eye(4), U.matrix)
        np.testing.assert_allclose(full.data, V.conj().T @ M.data @ V, atol=1e-15)
        assert np.array_equal(block_transform(M, U, 4).data, M.data)

    def test_upper_left_block_untouched(self):
        rng = np.random.default_rng(10)
        M = random_fuzzy(rng, 6, S=2)
        out = block_transform(M, interlacing_unitary(), 3)
        assert np.array_equal(out.data[:6, :6], M.data[:6, :6])

    def test_split_range_checked(self):
        rng = np.random.default_rng(11)
        M = random_fuzzy(rng, 4, S=2)
        with pytest.raises(StructureError):
            block_transform(M, interlacing_unitary(), 5)

    @pytest.mark.parametrize("mode", ["explicit-spline", "derived-lambda"])
    @pytest.mark.parametrize("N", [8, 30, 64, 256])
    def test_banded_unitary_matches_the_dense_construction_bitwise(self, mode, N):
        # V as the dense identity with U on the blocks n0..N-1, multiplied with
        # M's dense view as CSR products of their nonzero entries: the
        # construction the banded V replaces
        sparse = pytest.importorskip("scipy.sparse")

        def dense_reference(M, U, n0):
            V = np.eye(M.dim, dtype=complex)
            V[2 * n0 :, 2 * n0 :] = np.kron(np.eye(N - n0), U.matrix)
            left = (sparse.csr_array(V.conj().T) @ sparse.csr_array(M.data)).toarray()
            return FuzzyMatrix((sparse.csr_array(left) @ sparse.csr_array(V)).toarray(), N, 2)

        space = build_string_vertex(VertexParams(N=N, profile=make_profile(mode)))
        U = interlacing_unitary()
        for n0 in sorted({0, 1, N // 2, N - 1, N}):
            for M in space.coordinates:
                got, want = block_transform(M, U, n0), dense_reference(M, U, n0)
                assert (got.N, got.S) == (want.N, want.S)
                assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))

    def test_junction_value_picks_up_sqrt_two(self):
        spec = GraphVertexSpec(dim=12, n0=4, r_junction=0.7)
        space = build_graph_vertex(spec)
        F = space.coordinates[0]
        out = block_transform(F, interlacing_unitary(), spec.n0 // 2)
        assert abs(out.data[3, 4] - np.sqrt(2.0) * 0.7) < 1e-13
        assert abs(out.data[3, 5]) < 1e-13


class TestFunctionUnitaryConjugate:
    """U F U-dagger at coefficient level, for a q-dependent unitary U."""

    def test_identity(self):
        rng = np.random.default_rng(12)
        F = MatrixFourierFunction(IV, [[random_table(rng), None], [None, random_table(rng)]])
        I2 = MatrixFourierFunction.diagonal([FourierFunction.from_profile(IV, 1.0)] * 2)
        G = I2.matmul(F).matmul(I2.conjugate_transpose())
        qs = np.linspace(0, 1, 5)[:, None]
        phis = np.linspace(0, 2 * np.pi, 4, endpoint=False)[None, :]
        np.testing.assert_allclose(G.eval(qs, phis), F.eval(qs, phis), atol=1e-14)

    def test_phase_shift_twists_the_off_diagonal(self):
        fa = FourierFunction(IV, {1: ComplexProfile(AffineProfile(0.5, 1.0))})
        zero = FourierFunction(IV, {})
        F = MatrixFourierFunction(IV, [[zero, fa], [fa.conjugate(), zero]])
        p1, p2 = 1.1, -0.7

        def phase(p):
            return FourierFunction(
                IV,
                {0: ComplexProfile(
                    CallableProfile(lambda q, p=p: np.cos(p * q)),
                    CallableProfile(lambda q, p=p: np.sin(p * q)),
                )},
            )

        U = MatrixFourierFunction(IV, [[phase(p1), zero], [zero, phase(p2)]])
        G = U.matmul(F).matmul(U.conjugate_transpose())
        qs = np.linspace(0, 1, 7)[:, None]
        phis = np.linspace(0, 2 * np.pi, 8, endpoint=False)[None, :]
        want = fa.eval(qs, phis) * np.exp(1j * (p1 - p2) * qs)
        np.testing.assert_allclose(G.eval(qs, phis)[..., 0, 1], want, atol=1e-14)
        np.testing.assert_allclose(G.eval(qs, phis)[..., 1, 0], np.conj(want), atol=1e-14)

    def test_rotation_diagonalizes_a_twisted_pair(self):
        # antidiagonal r e^{i psi q} with the matching rotation lands on diag(-r, r)
        r, slope = 0.8, 2.0
        zero = FourierFunction(IV, {})
        f01 = FourierFunction(
            IV,
            {0: ComplexProfile(
                CallableProfile(lambda q: r * np.cos(slope * q)),
                CallableProfile(lambda q: r * np.sin(slope * q)),
            )},
        )
        F = MatrixFourierFunction(IV, [[zero, f01], [f01.conjugate(), zero]])
        s = 1.0 / np.sqrt(2.0)

        def entry(re, im):
            return FourierFunction(
                IV, {0: ComplexProfile(CallableProfile(re), CallableProfile(im))}
            )

        U = MatrixFourierFunction(
            IV,
            [
                [
                    FourierFunction(IV, {0: ComplexProfile.from_const(s)}),
                    entry(lambda q: -s * np.cos(slope * q), lambda q: -s * np.sin(slope * q)),
                ],
                [
                    entry(lambda q: s * np.cos(slope * q), lambda q: -s * np.sin(slope * q)),
                    FourierFunction(IV, {0: ComplexProfile.from_const(s)}),
                ],
            ],
        )
        G = U.matmul(F).matmul(U.conjugate_transpose())
        qs = np.linspace(0, 1, 9)[:, None]
        phis = np.array([[0.3]])
        vals = G.eval(qs, phis)
        np.testing.assert_allclose(vals[..., 0, 0], -r, atol=1e-14)
        np.testing.assert_allclose(vals[..., 1, 1], r, atol=1e-14)
        np.testing.assert_allclose(vals[..., 0, 1], 0.0, atol=1e-14)
        # the height block is a multiple of the identity, hence untouched
        qfn = FourierFunction.from_profile(IV, AffineProfile(0.0, 1.0))
        Z = MatrixFourierFunction.diagonal([qfn, qfn])
        GZ = U.matmul(Z).matmul(U.conjugate_transpose())
        np.testing.assert_allclose(
            GZ.eval(qs, phis), Z.eval(qs, phis), atol=1e-14
        )

    def test_height_dependent_conjugation_commutes_at_order_one_over_n(self):
        fa = FourierFunction(IV, {1: ComplexProfile(AffineProfile(1.0, 0.5))})
        zero = FourierFunction(IV, {})
        F = MatrixFourierFunction(IV, [[zero, fa], [fa.conjugate(), zero]])
        U = MatrixFourierFunction(
            IV,
            [
                [
                    FourierFunction(
                        IV,
                        {0: ComplexProfile(
                            CallableProfile(lambda q: np.cos(1.3 * q)),
                            CallableProfile(lambda q: np.sin(1.3 * q)),
                        )},
                    ),
                    zero,
                ],
                [zero, FourierFunction.from_profile(IV, 1.0)],
            ],
        )
        G = U.matmul(F).matmul(U.conjugate_transpose())
        cs = {}
        for N in (32, 64):
            g = make_grid(N, IV)
            QF = regularize_matrix(F, g)
            QU = regularize_matrix(U, g)
            QG = regularize_matrix(G, g)
            diff = QU.data @ QF.data @ QU.data.conj().T - QG.data
            cs[N] = N * within_border_norm(FuzzyMatrix(diff, N, 2), 2)
        assert cs[32] <= 1.1 and cs[64] <= 1.1
        assert abs(cs[64] / cs[32] - 1.0) < 0.1


class TestMatrixPolyTransform:
    def cylinder(self, N=12):
        return build_generalized_cylinder(CurveSpec.circle(), N)

    def test_poly_negation(self):
        space = self.cylinder()
        out, _ = matrix_poly_transform(
            space,
            [{"op": "poly", "terms": [{"coeff": -1.0, "indices": [0]}], "target": 2}],
        )
        np.testing.assert_array_equal(out.coordinates[2].data, -space.coordinates[0].data)

    def test_poly_append_quadratic(self):
        space = self.cylinder()
        out, _ = matrix_poly_transform(
            space,
            [
                {
                    "op": "poly",
                    "terms": [{"coeff": 0.625, "indices": [2, 2]}, {"coeff": -1.0, "indices": [0]}],
                }
            ],
        )
        assert len(out.coordinates) == 4
        Z, X = space.coordinates[2].data, space.coordinates[0].data
        np.testing.assert_allclose(out.coordinates[3].data, 0.625 * Z @ Z - X, atol=1e-15)

    @staticmethod
    def signed_zero_space():
        """Three random 6x6 coordinates, a third of whose parts are -0.0."""
        rng = np.random.default_rng(12)
        coords = []
        for _ in range(3):
            data = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            data.real[rng.random((6, 6)) < 0.3] = -0.0
            data.imag[rng.random((6, 6)) < 0.3] = -0.0
            coords.append(FuzzyMatrix(data, 6, 1))
        return FuzzySpace("signed-zeros", coords)

    @pytest.mark.parametrize("terms", [
        [{"coeff": -1.0, "indices": [0]}],
        [{"coeff": 0.5, "indices": [1]}, {"indices": [2]}],
        [{"coeff": 0.5, "indices": [0, 1]}, {"coeff": 0.5, "indices": [1, 0]}],
        [{"coeff": 2.0, "indices": [2, 0, 1]}, {"coeff": -0.25, "indices": []}],
    ], ids=["negation", "single-index", "symmetrized-product", "triple-and-identity"])
    @pytest.mark.parametrize("name", ["signed-zeros", "clifford-torus"])
    def test_poly_matches_the_identity_first_product(self, name, terms):
        """Each term starts from its first factor, not from eye @ factor: the
        two differ only in the sign of zeros, which the +0 sum drops."""
        if name == "signed-zeros":
            space = self.signed_zero_space()
        else:
            space = build_clifford_torus(1.0, 2.0, 12)
        ref = np.zeros((space.dim, space.dim), dtype=complex)
        for term in terms:
            part = np.eye(space.dim, dtype=complex)
            for idx in term["indices"]:
                part = part @ space.coordinates[idx].data
            ref += term.get("coeff", 1.0) * part
        out, _ = matrix_poly_transform(space, [{"op": "poly", "terms": terms}])
        assert out.coordinates[-1].data.tobytes() == ref.tobytes()

    def test_poly_product_is_regularize_product(self):
        # XY of the eight sums several terms per entry, so a dense sum of
        # them would differ from the band kernel's in the last bits
        space = build_circle_to_eight(64)
        out, _ = matrix_poly_transform(space, [{"op": "poly", "terms": [{"indices": [0, 1]}]}])
        X, Y = space.coordinates[:2]
        assert out.coordinates[-1].data.tobytes() == product(X, Y).data.tobytes()

    def test_reciprocal_diag_reports_singular_rows(self):
        space = build_clifford_torus(1.0, 1.0, 39)
        out, steps = matrix_poly_transform(
            space,
            [{"op": "reciprocal-diag", "source": 2, "shift": 0.5, "target": "append"}],
        )
        assert steps == [{"op": "reciprocal-diag", "singular_rows": [12, 25]}]
        new = np.diag(out.coordinates[4].data)
        assert new[12] == 0.0 and new[25] == 0.0
        src = np.diag(space.coordinates[2].data)
        good = [k for k in range(39) if k not in (12, 25)]
        np.testing.assert_allclose(
            np.asarray(new)[good], 1.0 / (0.5 + src[good]), atol=1e-12
        )

    def test_reciprocal_diag_clean_case(self):
        space = build_clifford_torus(1.0, 2.0, 40)
        _, steps = matrix_poly_transform(
            space,
            [{"op": "reciprocal-diag", "source": 2, "shift": 1.0}],
        )
        assert steps == [{"op": "reciprocal-diag", "singular_rows": []}]

    def test_reciprocal_diag_needs_a_diagonal_source(self):
        space = self.cylinder()
        with pytest.raises(StructureError):
            matrix_poly_transform(space, [{"op": "reciprocal-diag", "source": 0}])

    def test_unknown_op(self):
        with pytest.raises(DomainError):
            matrix_poly_transform(self.cylinder(), [{"op": "shear"}])

    @pytest.mark.parametrize("recipe", [
        ["poly"], 5, [{"op": "diagonalize", "index": "x"}], [{"op": "diagonalize", "index": 1.5}],
    ], ids=["step", "recipe", "index", "fractional-index"])
    def test_malformed_recipe_is_a_domain_error(self, recipe):
        with pytest.raises(DomainError, match="config"):
            matrix_poly_transform(self.cylinder(), recipe)

    def test_empty_recipe_returns_the_space(self):
        space = self.cylinder()
        out, log = matrix_poly_transform(space, [])
        assert out is space and log == []

    def test_one_interpreter_runs_every_op(self):
        vertex = build_string_vertex(VertexParams(N=8))
        poly = {"op": "poly", "terms": [{"coeff": 0.5, "indices": [0, 1]},
                                        {"coeff": 0.5, "indices": [1, 0]}]}
        recip = {"op": "reciprocal-diag", "source": 0, "shift": 3.0}
        out, log = matrix_poly_transform(vertex, [
            {"op": "interlace"}, poly, poly, {"op": "diagonalize", "index": 0}, recip,
        ])
        assert out.name == "diag(interlaced(string-vertex)*)*"
        assert [r["op"] for r in log] == [
            "interlace", "poly", "poly", "diagonalize", "reciprocal-diag"]
        assert log[0] == {"op": "interlace"} and log[1] == {"op": "poly", "singular_rows": []}
        bent, _ = matrix_poly_transform(interlace(vertex), [poly, poly])
        diag, record = diagonalize_coordinate(bent, 0)
        assert log[3] == record and record["index"] == 0 and not record["identity"]
        final, _ = matrix_poly_transform(diag, [recip])
        assert len(out.coordinates) == len(final.coordinates) == 6 and out.generators is None
        for got, want in zip(out.coordinates, final.coordinates):
            assert got.data.tobytes() == want.data.tobytes()


class TestDiagonalize:
    def test_already_sorted_diagonal_is_identity(self):
        space = build_generalized_cylinder(CurveSpec.circle(), 10)
        out, report = diagonalize_coordinate(space, 2)
        assert report["identity"]
        assert report["residual"] == 0.0
        assert report["policy"] == PHASE_POLICY
        assert out is space

    def test_non_hermitian_rejected(self):
        rng = np.random.default_rng(13)
        M = random_fuzzy(rng, 6)
        space = FuzzySpace("raw", (M,))
        with pytest.raises(StructureError):
            diagonalize_coordinate(space, 0)

    def test_sorting_preserves_spectra_and_hermiticity(self):
        rng = np.random.default_rng(14)
        raw = random_fuzzy(rng, 10)
        A = FuzzyMatrix(0.5 * (raw.data + raw.data.conj().T), 10, 1)
        raw2 = random_fuzzy(rng, 10)
        B = FuzzyMatrix(0.5 * (raw2.data + raw2.data.conj().T), 10, 1)
        space = FuzzySpace("pair", (A, B))
        out, report = diagonalize_coordinate(space, 0)
        assert out.name == "diag(pair)"
        wA = np.diag(out.coordinates[0].data).real
        assert np.all(np.diff(wA) >= -1e-12)
        np.testing.assert_allclose(wA, np.sort(np.linalg.eigvalsh(A.data)), atol=1e-9)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out.coordinates[1].data)),
            np.sort(np.linalg.eigvalsh(B.data)),
            atol=1e-9,
        )
        for c in out.coordinates:
            assert c.is_hermitian(1e-10)
        assert report["residual"] < 1e-10


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_phase_fix_is_bitwise_the_column_loop(real):
    rng = np.random.default_rng(16)
    for n in (1, 2, 7, 40, 129):
        A = rng.normal(size=(n, n)) + (0 if real else 1j) * rng.normal(size=(n, n))
        _, V = np.linalg.eigh(A + A.conj().T)
        V = V.astype(complex)[:, rng.permutation(n)]
        for W in (V, 1e-300 * V, np.where(np.arange(n) == n // 2, 0.0, V)):  # tiny, a zero column
            assert transforms._phase_fix(W).tobytes() == phase_fix_loop(W).tobytes()
    pivots = transforms._phase_fix(V)[np.argmax(np.abs(V), axis=0), np.arange(n)]
    assert np.all(pivots.real > 0) and np.max(np.abs(pivots.imag)) < 1e-15


# the CI `blas-side` recipe up to its diagonalize step (its later products take
# the BLAS side of `product`)
BLAS_SIDE = [{"op": "interlace"},
             {"op": "poly", "terms": [{"coeff": 0.5, "indices": [0, 1]}, {"coeff": 0.5, "indices": [1, 0]}]},
             {"op": "diagonalize", "index": 0}]


def _before_diagonalize(name):
    """(space, index) of a recipe's diagonalize step, its earlier steps run."""
    if name.startswith("clifford-"):
        recipe = json.loads((CONFIGS / "clifford_projection.json").read_text())
        space = build_space(recipe["space"], n=int(name.split("-")[1]))
        steps = recipe["transforms"]
    elif name.startswith("interlaced-vertex-"):
        space = build_string_vertex(VertexParams(N=int(name.split("-")[2])))
        steps = [{"op": "interlace"}, {"op": "diagonalize", "index": 0}]
    else:
        space, steps = build_string_vertex(VertexParams(N=30)), BLAS_SIDE
    space, _ = matrix_poly_transform(space, steps[:-1])
    return space, steps[-1]["index"]


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the process may run on to 0..k-1, for this test only."""
    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    return set_cpus


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started during the test, recorded as they start."""
    started, start = [], threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


class TestConcurrentConjugation:
    """`diagonalize` conjugates on the calling thread plus a worker per
    further CPU, bitwise as the serial loop of `refs.serial_conjugation`."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("name", [
        "clifford-40", "clifford-256", "interlaced-vertex-8", "interlaced-vertex-30", "blas-side"])
    def test_bitwise_the_serial_loop(self, cpus, name, k):
        space, index = _before_diagonalize(name)
        A = space.coordinates[index].data
        assert (np.max(np.abs(A.imag)) < 1e-12) == name.startswith("clifford-")  # real V, complex V
        cpus(k)
        out, record = diagonalize_coordinate(space, index)
        want = serial_conjugation(space, index)
        assert not record["identity"] and len(out.coordinates) == len(want)
        for got, ref in zip(out.coordinates, want):
            assert got.data.tobytes() == ref.tobytes()

    def test_one_matrix_twice_in_a_space(self, cpus, thread_starts):
        # y's dense view is first built on two threads at once
        x, y, _ = build_generalized_cylinder(CurveSpec.circle(), 40).coordinates
        assert y._data is None
        space = FuzzySpace("shared", (y, y, x))
        cpus(2)
        out, _ = diagonalize_coordinate(space, 2)
        assert len(thread_starts) == 1
        for got, ref in zip(out.coordinates, serial_conjugation(space, 2)):
            assert got.data.tobytes() == ref.tobytes()

    def test_one_cpu_starts_no_thread(self, cpus, thread_starts):
        space, index = _before_diagonalize("clifford-40")
        cpus(1)
        diagonalize_coordinate(space, index)
        assert thread_starts == []

    def test_more_cpus_than_coordinates_keep_their_order(self, cpus, thread_starts):
        before = set(threading.enumerate())
        space, index = _before_diagonalize("interlaced-vertex-8")
        space = FuzzySpace("three", space.coordinates[:3])
        cpus(4)
        out, _ = diagonalize_coordinate(space, index)
        # at most one worker per further task (the residual and 3 conjugations); the
        # pool starts none while a started one is idle
        assert 1 <= len(thread_starts) <= 3
        for got, ref in zip(out.coordinates, serial_conjugation(space, index), strict=True):
            assert got.data.tobytes() == ref.tobytes()
        assert set(threading.enumerate()) == before

    def test_a_worker_exception_propagates_unchanged(self, cpus, monkeypatch):
        before = set(threading.enumerate())
        space, index = _before_diagonalize("clifford-40")
        boom, raised = RuntimeError("worker product"), threading.Event()
        product_ = transforms.product

        def failing(A, B):
            if threading.current_thread() is not threading.main_thread():
                raised.set()
                raise boom
            raised.wait(10)  # until a worker has taken a task and raised
            return product_(A, B)

        monkeypatch.setattr(transforms, "product", failing)
        cpus(2)
        with pytest.raises(RuntimeError) as info:
            diagonalize_coordinate(space, index)
        assert info.value is boom
        assert set(threading.enumerate()) == before

    def test_residual_check_raises_before_the_space_is_built(self, cpus, monkeypatch):
        before = set(threading.enumerate())
        space, index = _before_diagonalize("clifford-40")
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0] + 1.0, eigh(a)[1]))
        monkeypatch.setattr(transforms, "FuzzySpace", None)  # calling it would raise TypeError
        cpus(2)
        with pytest.raises(StructureError, match="eigendecomposition residual too large"):
            diagonalize_coordinate(space, index)
        assert set(threading.enumerate()) == before

    def test_every_task_runs_once_under_frequent_switches(self, cpus):
        # more threads than cores, switching every microsecond: an index handed
        # to two threads would run its task twice, and a lost one not at all
        runs = []
        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = transforms._on_cpus([lambda i=i: runs.append(i) or -i for i in range(3000)])
        finally:
            sys.setswitchinterval(interval)
        assert sorted(runs) == list(range(3000))
        assert results == [-i for i in range(3000)]

    def test_importing_the_cli_loads_no_thread_pool(self):
        # the pool's module is imported only where a conjugation starts threads
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, fuzzyreg.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "False"


class TestTransformedGenerators:
    """A transformed space keeps generators only while its coordinates are
    still their regularization, so re-regularizing cannot undo a transform."""

    @pytest.fixture(scope="class")
    def vertex(self):
        return build_string_vertex(VertexParams(N=8))

    def test_poly_transform_drops_generators(self, vertex):
        out, _ = matrix_poly_transform(vertex, [{"op": "poly", "terms": [{"indices": [0, 0]}]}])
        assert len(out.coordinates) == 4 and out.generators is None and out.grid is None
        with pytest.raises(CapabilityError):
            mirror_concat(out, 3.0)

    def test_diagonalized_space_drops_generators(self, vertex):
        out, report = diagonalize_coordinate(vertex, 0)
        assert not report["identity"]
        assert out.generators is None and out.grid is None
        with pytest.raises(CapabilityError):
            mirror_concat(out, 3.0)
