"""The band product kernel against a CSR product, bit for bit, and the
diagonals that regularized matrices and their products record.

`product` and `commutator` multiply diagonal by diagonal in the order a CSR
product sums, so they equal scipy's CSR product exactly; scipy is a
test-only dependency here.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction
from fuzzyreg.interpolate import VertexParams, build_string_vertex
from fuzzyreg.profiles import AffineProfile, ComplexProfile
from fuzzyreg.regularize import FuzzyMatrix, commutator, make_grid, product, regularize_matrix
from fuzzyreg.spaces import build_circle_to_eight

sparse = pytest.importorskip("scipy.sparse")

IV = (0.0, 1.0)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def csr_product(A, B):
    return (sparse.csr_array(A.data) @ sparse.csr_array(B.data)).toarray()


def csr_commutator(A, B):
    a, b = sparse.csr_array(A.data), sparse.csr_array(B.data)
    return (a @ b - b @ a).toarray()


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_matches_csr(A, B):
    assert_bitwise(product(A, B).data, csr_product(A, B))
    assert_bitwise(commutator(A, B).data, csr_commutator(A, B))


def nonzero_diagonals(M):
    rows, cols = np.nonzero(M.data)
    return set((cols - rows).tolist())


@pytest.mark.parametrize("N", [256, 1024])
def test_eight_matches_csr(N):
    X, Y, Z = build_circle_to_eight(N).coordinates
    assert X.offsets is not None and Y.offsets is not None
    assert_matches_csr(X, Y)
    assert_matches_csr(Y, Z)


@pytest.mark.parametrize("N", [15, 30, 60])
def test_vertex_matches_csr(N):
    coords = build_string_vertex(VertexParams(N=N)).coordinates
    assert all(c.S == 2 and c.offsets is not None for c in coords)
    for A, B in itertools.permutations(coords, 2):
        assert_matches_csr(A, B)


def test_dense_operands_without_recorded_diagonals_match_csr():
    rng = np.random.default_rng(11)
    A, B = (FuzzyMatrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), 6, 1)
            for _ in range(2))
    assert A.offsets is None
    assert_matches_csr(A, B)
    assert product(A, B).offsets == tuple(range(-5, 6))


def test_mixed_layouts_match_csr_and_multiply_flat():
    rng = np.random.default_rng(12)
    blocks = FuzzyMatrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), 3, 2)
    vertex = build_string_vertex(VertexParams(N=8)).coordinates[0]
    flat = FuzzyMatrix(vertex.data[:6, :6], 6, 1)
    assert_matches_csr(blocks, flat)
    assert_matches_csr(flat, blocks)
    assert (product(blocks, flat).N, product(blocks, flat).S) == (6, 1)
    assert (commutator(blocks, blocks).N, commutator(blocks, blocks).S) == (3, 2)


def test_recorded_diagonals_stand_in_for_a_scan():
    # a matrix whose recorded diagonals are its nonzero ones multiplies as if scanned
    X, Y, _ = build_circle_to_eight(64).coordinates
    bare = [FuzzyMatrix(M.data, M.N, M.S) for M in (X, Y)]
    assert_bitwise(commutator(X, Y).data, commutator(*bare).data)
    assert commutator(X, Y).offsets == commutator(*bare).offsets


def test_zero_operand():
    Z = FuzzyMatrix(np.zeros((4, 4)), 4, 1)
    A = FuzzyMatrix(np.eye(4), 4, 1)
    assert_bitwise(product(Z, A).data, np.zeros((4, 4), dtype=complex))
    assert_bitwise(commutator(A, Z).data, np.zeros((4, 4), dtype=complex))


reals = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
coefficients = st.one_of(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.builds(lambda a, b, c, d: ComplexProfile(AffineProfile(a, b), AffineProfile(c, d)),
              reals, reals, reals, reals),
)
series = st.dictionaries(st.integers(-3, 3), coefficients, max_size=4).map(
    lambda table: FourierFunction(IV, table))


def matrix_functions(S):
    blocks = st.lists(series, min_size=S * S, max_size=S * S)
    return blocks.map(lambda fs: MatrixFourierFunction(IV, [fs[a * S : (a + 1) * S] for a in range(S)]))


pairs = st.integers(1, 2).flatmap(lambda S: st.tuples(matrix_functions(S), matrix_functions(S)))


@PROPERTY
@given(pairs, st.integers(4, 9))
def test_recorded_diagonals_cover_every_nonzero_one(pair, N):
    grid = make_grid(N, IV)
    A, B = (regularize_matrix(F, grid) for F in pair)
    for M in (A, B, product(A, B), commutator(A, B)):
        assert nonzero_diagonals(M) <= set(M.offsets)
        assert list(M.offsets) == sorted(set(M.offsets))
        assert all(abs(c) < M.dim for c in M.offsets)
    assert_matches_csr(A, B)
