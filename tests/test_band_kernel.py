"""The band kernels against dense references, bit for bit, and the
diagonals that regularized matrices and their products record.

The band kernel multiplies diagonal by diagonal in the order a CSR product
sums, so it equals scipy's CSR product exactly; scipy is a test-only
dependency here.  `product` runs it unless its left factor records at least
dim diagonals, and then equals `A.data @ B.data`; `commutator` is the
difference of the two products.  `lincomb` and the within-border norms work
on the stored diagonals (`lincomb` on the dense views when a term records at
least dim of them) and equal the dense expressions of `tests/refs.py`.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyreg import regularize
from fuzzyreg.errors import StructureError
from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction
from fuzzyreg.interpolate import VertexParams, build_string_vertex
from fuzzyreg.profiles import AffineProfile, ComplexProfile
from fuzzyreg.regularize import (
    FuzzyMatrix,
    _band_kernel,
    commutator,
    interior_max_entry,
    lincomb,
    make_grid,
    product,
    regularize_matrix,
    within_border_norm,
)
from fuzzyreg.spaces import (
    CurveSpec,
    GraphVertexSpec,
    build_circle_to_eight,
    build_generalized_cylinder,
    build_graph_vertex,
)
from fuzzyreg.transforms import diagonalize_coordinate
from refs import (
    contiguous_band_kernel,
    dense_interior_max_entry,
    dense_lincomb,
    dense_within_border_norm,
    nonzero_diagonals,
    stored_bands,
)

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


def assert_kernel_matches_csr(A, B):
    """The band kernel itself, for operands `product` sends to BLAS."""
    assert_bitwise(_band_kernel(A, B).data, csr_product(A, B))
    both = lincomb((1, _band_kernel(A, B)), (-1, _band_kernel(B, A)))
    assert_bitwise(both.data, csr_commutator(A, B))


def on_blas_side(M):
    return len(M.offsets) >= M.dim


def side_product(A, B):
    """The dense oracle of product(A, B) on the side its left factor picks."""
    return A.data @ B.data if on_blas_side(A) else csr_product(A, B)


def assert_matches_sides(A, B):
    assert_bitwise(product(A, B).data, side_product(A, B))
    assert_bitwise(commutator(A, B).data, side_product(A, B) - side_product(B, A))


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
    assert A.offsets == tuple(range(-5, 6))  # dense data records every diagonal
    assert on_blas_side(A) and on_blas_side(B)
    assert_kernel_matches_csr(A, B)
    assert_bitwise(product(A, B).data, A.data @ B.data)
    assert_bitwise(commutator(A, B).data, A.data @ B.data - B.data @ A.data)
    assert product(A, B).offsets == tuple(range(-5, 6))


def test_mixed_layouts_match_csr_and_multiply_flat():
    rng = np.random.default_rng(12)
    blocks = FuzzyMatrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), 3, 2)
    vertex = build_string_vertex(VertexParams(N=8)).coordinates[0]
    flat = FuzzyMatrix(vertex.data[:6, :6], 6, 1)
    assert on_blas_side(blocks) and on_blas_side(flat)
    for X, Y in ((blocks, flat), (flat, blocks)):
        assert_kernel_matches_csr(X, Y)
        assert_matches_sides(X, Y)
    assert (product(blocks, flat).N, product(blocks, flat).S) == (6, 1)
    assert (commutator(blocks, blocks).N, commutator(blocks, blocks).S) == (3, 2)


def test_recorded_diagonals_stand_in_for_a_scan():
    # a matrix whose recorded diagonals are its nonzero ones multiplies as a
    # CSR product of its nonzero entries does, onto the sums of those diagonals
    X, Y, _ = build_circle_to_eight(64).coordinates
    assert X.offsets == nonzero_diagonals(X.data) and Y.offsets == nonzero_diagonals(Y.data)
    sums = {a + b for a in nonzero_diagonals(X.data) for b in nonzero_diagonals(Y.data)}
    assert_bitwise(commutator(X, Y).data, csr_commutator(X, Y))
    assert commutator(X, Y).offsets == tuple(sorted(o for o in sums if abs(o) < X.dim))


def test_the_rule_names_the_side_of_each_operand(monkeypatch):
    # regularized coordinates record a few diagonals and multiply by bands;
    # a diagonalize step conjugates by dense eigenvectors, and its output
    # records every diagonal and multiplies by BLAS
    eight, vertex = build_circle_to_eight(64), build_string_vertex(VertexParams(N=15))
    diagonalized, _ = diagonalize_coordinate(eight, 0)
    kernel, calls = regularize._band_kernel, []
    monkeypatch.setattr(regularize, "_band_kernel", lambda A, B: calls.append(A) or kernel(A, B))
    for space, banded in ((eight, True), (vertex, True), (diagonalized, False)):
        X, Y = space.coordinates[1:3]
        assert on_blas_side(X) is not banded
        calls.clear()
        got = product(X, Y)
        assert calls == ([X] if banded else [])
        assert_bitwise(got.data, csr_product(X, Y) if banded else X.data @ Y.data)


def test_diagonalized_coordinates_multiply_by_blas_in_time():
    # the band kernel loops over all 1023 diagonals here, for seconds
    space, _ = diagonalize_coordinate(build_circle_to_eight(512), 0)
    A, B = space.coordinates[1:3]
    start = time.perf_counter()
    got = product(A, B)
    elapsed = time.perf_counter() - start
    assert_bitwise(got.data, A.data @ B.data)
    assert elapsed < 1.0


@pytest.mark.parametrize("left", ["dense", "banded-wide"])
def test_blas_side_keeps_no_dense_view_of_a_banded_operand(left):
    # the eigenvectors of a diagonalize step times a banded coordinate: the
    # dense view of each banded operand is scattered for the call only
    rng = np.random.default_rng(11)
    dim = 64
    B = build_circle_to_eight(dim).coordinates[1]
    values = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if left == "dense":
        A = FuzzyMatrix(values, dim, 1)
    else:  # every diagonal recorded, stored as bands
        A = FuzzyMatrix.from_diagonals({o: np.diagonal(values, o) for o in range(1 - dim, dim)}, dim)
    assert on_blas_side(A) and not on_blas_side(B)
    got = product(A, B)
    assert B._data is None
    assert (A._data is None) is (left != "dense")
    assert_bitwise(got.data, A.data @ B.data)


def test_diagonalize_keeps_no_dense_view_of_the_other_coordinates():
    eight = build_circle_to_eight(64)
    diagonalize_coordinate(eight, 0)
    assert [M._data is None for M in eight.coordinates] == [False, True, True]


def test_zero_operand():
    Z = FuzzyMatrix(np.zeros((4, 4)), 4, 1)
    A = FuzzyMatrix(np.eye(4), 4, 1)
    assert_bitwise(product(Z, A).data, np.zeros((4, 4), dtype=complex))
    assert_bitwise(commutator(A, Z).data, np.zeros((4, 4), dtype=complex))


@st.composite
def diagonal_tables(draw):
    """(N, S, {offset: values}): diagonals that are all zeros of either sign,
    or any finite or infinite parts, -0.0 among them."""
    N, S = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    dim, table = N * S, {}
    for o in draw(st.sets(st.integers(1 - dim, dim - 1), max_size=5)):
        part = draw(st.sampled_from([st.sampled_from([0.0, -0.0]),
                                     st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0])]))
        values = np.empty(dim - abs(o), dtype=complex)
        values.real = draw(st.lists(part, min_size=len(values), max_size=len(values)))
        values.imag = draw(st.lists(part, min_size=len(values), max_size=len(values)))
        table[o] = values
    return N, S, table


@PROPERTY
@given(diagonal_tables())
def test_from_diagonals_records_the_diagonals_it_is_given(case):
    # the given diagonals, all-zero ones too, else diagonal 0; dense data
    # records every diagonal, whatever its values
    N, S, table = case
    dim = N * S
    dense = np.zeros((dim, dim), dtype=complex)
    for o, values in table.items():
        dense[np.arange(len(values)) + max(0, -o), np.arange(len(values)) + max(0, o)] = values
    got, whole = FuzzyMatrix.from_diagonals(table, N, S), FuzzyMatrix(dense, N, S)
    assert got.offsets == (tuple(sorted(table)) or (0,))
    assert whole.offsets == tuple(range(1 - dim, dim))
    lo, width = got.offsets[0], got.offsets[-1] - got.offsets[0] + 1
    bands = np.zeros((dim, width), dtype=complex)  # entry (i, i + lo + k) of each recorded diagonal
    for i, k in itertools.product(range(dim), range(width)):
        if lo + k in got.offsets and 0 <= i + lo + k < dim:
            bands[i, k] = dense[i, i + lo + k]
    assert_bitwise(got.bands, bands)
    assert_bitwise(whole.bands, stored_bands(dense, whole.offsets))
    rows, cols = np.indices((dim, dim))
    assert_bitwise(got.data, np.where(np.isin(cols - rows, got.offsets), dense, 0))
    assert np.array_equal(got.data, dense)


@pytest.mark.parametrize("diagonals, N, S", [
    ({4: []}, 4, 1), ({-4: []}, 4, 1), ({5: np.ones(1)}, 2, 2), ({3: np.ones(1)}, 2, 1),
    ({1: np.ones(4)}, 4, 1), ({0: np.ones(3)}, 4, 1), ({-1: np.ones(2)}, 4, 1),
    ({0: np.ones((2, 2))}, 4, 1), ({2: 1.0}, 4, 1),
], ids=["offset-dim", "offset-minus-dim", "offset-past-blocks", "band-3-at-N-2",
        "too-long", "too-short", "below-too-short", "two-dimensional", "scalar"])
def test_from_diagonals_refuses_a_diagonal_that_does_not_fit(diagonals, N, S):
    with pytest.raises(StructureError):
        FuzzyMatrix.from_diagonals(diagonals, N, S)


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
        assert set(nonzero_diagonals(M.data)) <= set(M.offsets)
        assert list(M.offsets) == sorted(set(M.offsets))
        assert all(abs(c) < M.dim for c in M.offsets)
    assert_kernel_matches_csr(A, B)
    assert_matches_sides(A, B)


def one_sided(rng, dim, offsets):
    """A random complex dim x dim matrix built on the given diagonals."""
    return FuzzyMatrix.from_diagonals(
        {o: rng.normal(size=dim - abs(o)) + 1j * rng.normal(size=dim - abs(o)) for o in offsets}, dim)


def banded_families():
    """name -> (A, B, C): three matrices of one layout that the oracle tests
    multiply, combine and measure."""
    rng = np.random.default_rng(13)
    return {
        "eight": build_circle_to_eight(64).coordinates,
        "vertex": build_string_vertex(VertexParams(N=15)).coordinates,
        "above": [one_sided(rng, 9, offs) for offs in ((1, 3, 4), (2, 5), (1, 6))],
        "below": [one_sided(rng, 9, offs) for offs in ((-4, -2), (-5, -1), (-3,))],
        "mixed": [one_sided(rng, 9, (2, 3)), one_sided(rng, 9, (-6, -1)), one_sided(rng, 9, (0,))],
    }


FAMILIES = banded_families()


@pytest.mark.parametrize("name", ["above", "below", "mixed"])
def test_one_sided_products_match_csr(name):
    A, B, C = FAMILIES[name]
    for X, Y in itertools.permutations((A, B, C), 2):
        assert_matches_csr(X, Y)


def signed_one_sided(rng, dim, offsets):
    """`one_sided` with a third of its real and of its imaginary parts -0.0."""
    M = one_sided(rng, dim, offsets)
    table = {}
    for o in offsets:
        values = M.data.diagonal(o).copy()
        for part in (values.real, values.imag):
            part[rng.random(len(values)) < 1 / 3] = -0.0
        table[o] = values
    return FuzzyMatrix.from_diagonals(table, dim)


def strided_pairs():
    """name -> (A, B): right factors whose offsets step by gcd 1, 2 and 3,
    single-offset factors on either side, the vertex's X Y and X Z, and the
    graph vertex, whose diagonal 0 holds -0.0, against itself and a factor
    of stride 2."""
    rng = np.random.default_rng(17)
    X, Y, Z = build_string_vertex(VertexParams(N=15)).coordinates
    G = build_graph_vertex(GraphVertexSpec(dim=40, n0=10)).coordinates[0]
    pairs = {
        "gcd-1": ((-2, 1), (0, 1, 3)),
        "gcd-2": ((-1, 2), (-3, -1, 3)),
        "gcd-3": ((0, 1), (-3, 0, 6)),
        "single-left": ((2,), (-4, -2, 2)),
        "single-right": ((-1, 0, 4), (3,)),
        "single-both": ((-5,), (2,)),
    }
    out = {name: (signed_one_sided(rng, 11, a), signed_one_sided(rng, 11, b))
           for name, (a, b) in pairs.items()}
    out.update({"vertex-XY": (X, Y), "vertex-XZ": (X, Z), "graph-vertex": (G, G),
                "graph-vertex-stride-2": (G, signed_one_sided(rng, 40, (-4, -2, 2, 4)))})
    return out


STRIDED = strided_pairs()


@pytest.mark.parametrize("name", sorted(STRIDED))
def test_product_reads_by_stride_bitwise(name):
    # the kernel skips the band columns between B's strides: their terms are
    # +-0 added to sums that start at +0, so every bit stays as it was
    for A, B in (STRIDED[name], STRIDED[name][::-1]):
        got, want = product(A, B), contiguous_band_kernel(A, B)
        assert got.offsets == want.offsets
        assert_bitwise(got.bands, want.bands)
        assert_bitwise(got.data, want.data)


def test_graph_vertex_keeps_its_negative_zero_diagonal():
    G = build_graph_vertex(GraphVertexSpec(dim=40, n0=10)).coordinates[0]
    assert np.signbit(G.data.diagonal().real).any()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_lincomb_matches_the_dense_expression(name):
    A, B, C = FAMILIES[name]
    # the coefficient patterns of the product, Poisson and semiclassical residuals
    patterns = [((1, A), (-1, B)), ((2.5j, A), (-1, B)),
                ((1, A), (-1, B), (1j / 64, C)), ((0.3 - 0.7j, C), (1, B), (-1, A))]
    for terms in patterns:
        got = lincomb(*terms)
        assert_bitwise(got.data, dense_lincomb(*((c, M.data) for c, M in terms)))
        assert set(got.offsets) == set().union(*(M.offsets for _, M in terms))


def test_lincomb_reads_terms_in_place_and_keeps_signed_zeros():
    # a term on the union's range starts the sum as a copy; -0 + -0 stays -0
    # there, and -0 + +0 turns +0 where only a wider term has diagonals
    N, nz = 6, complex(-0.0, -0.0)
    W = FuzzyMatrix._banded(np.array([[nz, nz, complex(-0.0, 1.0)]] * N), (-1, 0, 1), N, 1)
    narrow = FuzzyMatrix._banded(np.full((N, 1), nz), (0,), N, 1)
    before = W.bands.tobytes()
    for terms in [((1, W), (1, W)), ((1, W), (-1, narrow)), ((1, narrow), (1, W)),
                  ((-1, W), (1, W))]:
        got = lincomb(*terms)
        assert_bitwise(got.data, dense_lincomb(*((c, M.data) for c, M in terms)))
        assert not any(np.shares_memory(got.bands, M.bands) for _, M in terms)
    assert W.bands.tobytes() == before


def test_lincomb_sums_dense_terms_dense():
    # a term recording at least dim diagonals (dense data: a BLAS-side
    # product) makes the sum dense: no term's bands are read and no band array
    # is built, the bytes are the dense expression's, -0 cells included, and
    # the sum records every diagonal, the union of the terms', so `product`
    # sends it to BLAS
    rng = np.random.default_rng(17)
    dim, nz = 9, complex(-0.0, -0.0)

    def dense(upper):
        data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        data[np.triu_indices(dim, upper + 1)] = 0.0
        data[rng.integers(0, dim, 8), rng.integers(0, dim, 8)] = nz
        data[0, 1], data[2, 0] = complex(-0.0, 1.0), complex(1.0, -0.0)
        return FuzzyMatrix(data, dim, 1)

    full, lower = dense(dim - 1), dense(1)  # nonzero on 17 and 10 of the 17 diagonals
    signed = FuzzyMatrix._banded(np.array([[nz, nz, complex(-0.0, 1.0)]] * dim), (-1, 0, 1), dim, 1)
    zero = FuzzyMatrix._banded(np.zeros((dim, 1), dtype=complex), (0,), dim, 1)
    narrow = one_sided(rng, dim, (3, 4))
    patterns = [((1, zero), (0.5, full), (0.5, lower)), ((1, full), (-1, signed)),
                ((1, signed), (1, lower)), ((-1, lower), (2.5j, narrow), (1, signed)),
                ((0.3 - 0.7j, narrow), (1, full), (-1, lower)), ((1, lower), (1, lower)),
                ((-1, full),), ((1, full),), ((2.0, lower), (-1, full))]
    for terms in patterns:
        got = lincomb(*terms)
        assert_bitwise(got.data, dense_lincomb(*((c, M.data) for c, M in terms)))
        assert got.offsets == tuple(sorted(set().union(*(M.offsets for _, M in terms))))
        assert got._bands is None and full._bands is None and lower._bands is None
        assert on_blas_side(got)
        assert not any(np.shares_memory(got.data, M.data) for _, M in terms)


@pytest.mark.parametrize("delta", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_border_norms_match_the_dense_block(name, delta):
    A, B, C = FAMILIES[name]
    products = [product(A, B), commutator(B, C), lincomb((1, product(A, C)), (-1, B))]
    for M in [A, B, C, *products]:
        view = FuzzyMatrix(M.data, M.N, M.S)  # the same matrix, its bands read off the dense view
        for X in (M, view):
            assert within_border_norm(X, delta) == dense_within_border_norm(M.data, delta)
            assert interior_max_entry(X, delta) == dense_interior_max_entry(M.data, delta)


def test_row_sum_norm_takes_the_row_the_dense_sum_makes_largest():
    # every row holds the same nine values in its own order, so the row sums
    # differ only by rounding; here no row with the largest band sum has the
    # largest dense (pairwise, 64-wide) sum
    rng = np.random.default_rng(4)
    values = rng.uniform(0.5, 1.5, 9) * 10.0 ** rng.integers(-3, 1, 9)
    data = np.zeros((64, 64))
    for i in range(64):
        for k, v in enumerate(values[rng.permutation(9)]):
            if 0 <= i - 4 + k < 64:
                data[i, i - 4 + k] = v
    M = FuzzyMatrix.from_diagonals({o: np.diagonal(data, o) for o in range(-4, 5)}, 64)
    band_sums, dense_sums = np.abs(M.bands).sum(axis=1), np.abs(data).sum(axis=1)
    assert dense_sums[band_sums == band_sums.max()].max() < dense_sums.max()
    assert within_border_norm(M, 0) == dense_within_border_norm(data, 0)


magnitudes = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0]) | st.floats(-1e3, 1e3)


@PROPERTY
@given(st.integers(2, 12).flatmap(lambda dim: st.tuples(
    st.just(dim), st.lists(st.integers(1 - dim, dim - 1), min_size=1, max_size=2, unique=True),
    st.integers(0, (dim - 1) // 2))), st.data())
def test_rows_of_at_most_two_cells_keep_their_band_sums(case, data):
    # two diagonals put at most two nonzero cells in a row, whose sum has the
    # same bits in any order: the band sum is the dense block's row sum
    dim, offsets, delta = case
    table = {o: np.array(data.draw(st.lists(magnitudes, min_size=dim - abs(o), max_size=dim - abs(o))))
             * data.draw(st.sampled_from([1.0, 1j, 0.6 - 0.8j])) for o in offsets}
    M = FuzzyMatrix.from_diagonals(table, dim)
    assert within_border_norm(M, delta) == dense_within_border_norm(M.data, delta)


def test_cylinder_rows_of_two_cells_lay_out_no_dense_row(monkeypatch):
    # every interior row of the cylinder's [x, z] holds two cells, and all tie
    # for the largest sum: none is laid out as a dense row of 16384 cells
    N = 16384
    x, _, z = build_generalized_cylinder(CurveSpec.circle(1.0), N).coordinates
    C = commutator(x, z)
    zeros, laid_out = np.zeros, []
    monkeypatch.setattr(np, "zeros", lambda shape, *args, **kw:
                        laid_out.append(shape) or zeros(shape, *args, **kw))
    norm = within_border_norm(C, 5)
    assert laid_out == []
    assert norm == pytest.approx(1.0 / N, rel=1e-9)
