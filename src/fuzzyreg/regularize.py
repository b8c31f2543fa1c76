"""Matrix regularization of Fourier functions.

The map sends f(q,phi) = sum_n f_n(q) e^{i n phi} to the N x N matrix with
entries

    Q(f)[n, m] = f_{m-n}(q(n, m)),

so e^{i phi} lands on the first superdiagonal.  Matrix-valued functions go to
N*S x N*S matrices with the block entry (a, b) of band m-n placed at the flat
index (n*S + a, m*S + b).

Grids q(n, m) are 0-based, with q(0,0) = q1 and the formula reaching q2 at
(N, N) (one step past the last stored index, so the stored diagonal values
fill [q1, q2) from the left).  The `symmetric` and `left` rules are affine,
q(n,m) = c0 + cn*n + cm*m; `row-anchored` is q1 + span*min(n, m)/N, the row
of a band's upper entry.
`regularize_schedule` regularizes functions on a schedule of grids and
evaluates each function's coefficients on one q vector per schedule: the
distinct arguments of the bands of all its entries on every grid (q(n, m)
on a band does not depend on the entry), shared by the functions with the
same bands.  It gathers each grid's bands back by the `np.unique` inverse:
not from the 2N - 1 anti-diagonals, since on the vertex's (-1, 3) q(n, m) is
not bitwise a function of n + m (40 of its 59 anti-diagonals hold several
floats at N = 30).  Coefficient trees share nodes (a bracket's modes all
read the same spline nodes, and the vertex's x01 and x10 one blend family),
and the shared nodes are evaluated once per q vector: every coefficient of
the schedule comes from one `fourier.coefficient_values` call.
`regularize_matrix` is its one-function, one-grid case.

This module is the only one that writes a regularized coordinate or
multiplies two: spaces that carry generator functions take their
coordinates from `regularize_space`, and sweeps and transform recipes alike
multiply by `product`.  Regularized matrices are banded, with bandwidth
(cutoff+1)*S, and a `FuzzyMatrix` stores its diagonals: `regularize_matrix`
writes them, `product` and `lincomb` read and write them, and the
within-border norms mask the border on them, so a sweep holds
O(dim * bandwidth) numbers per matrix.  A band product costs O(dim * K * L)
for the K diagonals the left factor records and the L band columns the
kernel reads on the right: every s-th, s the gcd of the gaps between the
right factor's offsets, which are just its recorded diagonals when these
are evenly spaced (the eight's f and g record 4 of their 7 band columns,
their product 7 of 13).  A matrix's offsets are the diagonals it was built on,
never read off its values: the schedule, the band kernel and `lincomb`
record theirs, `FuzzyMatrix.from_diagonals` the ones it is given (every
hand-built coordinate and transform factor), and dense data all 2 dim - 1
(matrix files, eigenvectors, BLAS products, dense sums).  So a left factor
recording at least dim diagonals, dense data among them, goes to BLAS, and
`lincomb` sums such a term on its dense view.  The dense view
`FuzzyMatrix.data` is built on first read and kept, for the readers that
need every entry: rendering, matrix I/O and the Hermiticity checks.  The
BLAS side of `product` reads it too, but does not keep it on a banded
operand: the view is scattered for the call, so a banded coordinate
conjugated by dense eigenvectors holds no dense copy afterwards.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .fourier import (FourierFunction, MatrixFourierFunction, _check_same_interval, checked_interval,
                      coefficient_values)


@dataclass(frozen=True)
class DiscretizingGrid:
    """Assignment (n, m) -> q used by the regularization map: c0 + cn*n + cm*m,
    or on the row-anchored rule q1 + span*min(n, m)/N, whose cn and cm only
    state its betas."""

    N: int
    interval: tuple
    rule: str
    c0: float
    cn: float
    cm: float

    def q(self, n, m):
        if self.rule == "row-anchored":
            q1, q2 = self.interval
            return q1 + (q2 - q1) * np.minimum(n, m) / self.N
        return self.c0 + self.cn * np.asarray(n) + self.cm * np.asarray(m)

    @property
    def beta_left(self) -> float:
        """Sensitivity of q to the row index, in units of 1/N."""
        return self.cn * self.N

    @property
    def beta_right(self) -> float:
        return self.cm * self.N


def make_grid(N: int, interval, rule: str = "symmetric") -> DiscretizingGrid:
    """Build a discretizing grid.

    Rules:
      symmetric  q(n,m) = q1 + (q2-q1)(n+m)/(2N)   (beta_left = beta_right = (q2-q1)/2)
      left       q(n,m) = q1 + (q2-q1) n/N         (beta_left = q2-q1, beta_right = 0)
      row-anchored  q(n,m) = q1 + (q2-q1) min(n,m)/N  (betas as for left)
    """
    N = int(N)
    if N < 2:
        raise DomainError(f"grid size must be at least 2, got {N}")
    q1, q2 = checked_interval(interval)
    span = q2 - q1
    if rule == "symmetric":
        step = span / (2.0 * N)
        return DiscretizingGrid(N, (q1, q2), rule, q1, step, step)
    if rule in ("left", "row-anchored"):
        return DiscretizingGrid(N, (q1, q2), rule, q1, span / N, 0.0)
    raise DomainError(f"unknown grid rule {rule!r}")


class FuzzyMatrix:
    """Square complex matrix with its block layout: N blocks of size S.

    Stored by diagonals: `offsets` lists, sorted, the flat diagonals (column
    minus row) the matrix was built on, and `bands[i, k]` holds entry
    (i, i + offsets[0] + k).  Cells on other diagonals are zero; cells that
    fall outside the matrix are never read as entries.  `data` is the dense
    view, built once on first read.  Offsets say how a matrix was built,
    never what it holds: `from_diagonals` records the diagonals it is given,
    and `FuzzyMatrix(array, N, S)`, for dense sources only, keeps the array
    as its view and records all 2 dim - 1 diagonals, copying them into
    bands only when they are read.  Both arrays are read-only; take a copy
    before mutating.  Hermiticity is a property of the data, checked by
    `is_hermitian`, not a stored flag.
    """

    __slots__ = ("N", "S", "offsets", "_data", "_bands")

    def __init__(self, data, N: int, S: int = 1):
        arr = np.ascontiguousarray(data, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise StructureError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] != N * S:
            raise StructureError(f"dimension {arr.shape[0]} does not match N*S = {N}*{S}")
        arr.setflags(write=False)
        self.N, self.S, self.offsets = N, S, tuple(range(1 - N * S, N * S))
        self._data, self._bands = arr, None

    @classmethod
    def from_diagonals(cls, diagonals: dict, N: int, S: int = 1) -> FuzzyMatrix:
        """The matrix with diagonals[o] on diagonal o (entries (i, i + o), top row
        first), zero elsewhere.  It records the given diagonals, zero or not,
        and diagonal 0 when none is given."""
        dim, table = N * S, {}
        for o, values in diagonals.items():
            table[o] = values = np.asarray(values, dtype=complex)
            if abs(o) >= dim or values.shape != (dim - abs(o),):
                raise StructureError(f"diagonal {o} of shape {values.shape} does not fit dimension {dim}")
        offsets = tuple(sorted(table)) or (0,)
        return cls._banded(_stacked(lambda o: table.get(o, 0.0), offsets, dim), offsets, N, S)

    @classmethod
    def _banded(cls, bands: np.ndarray, offsets: tuple, N: int, S: int) -> FuzzyMatrix:
        """The matrix whose diagonals `offsets` are stored in `bands`."""
        M = cls.__new__(cls)
        bands.setflags(write=False)
        M.N, M.S, M.offsets, M._data, M._bands = N, S, offsets, None, bands
        return M

    @property
    def dim(self) -> int:
        return self.N * self.S

    @property
    def data(self) -> np.ndarray:
        """The dense matrix, scattered from the bands on first read and kept."""
        if self._data is None:
            self._data = _dense(self)
            self._data.setflags(write=False)
        return self._data

    @property
    def bands(self) -> np.ndarray:
        """Row i, column k: entry (i, i + offsets[0] + k)."""
        if self._bands is None:  # copied from the dense view
            self._bands = _stacked(lambda o: np.diagonal(self._data, o), self.offsets, self.dim)
            self._bands.setflags(write=False)
        return self._bands

    def is_hermitian(self, tol=1e-12) -> bool:
        return float(np.max(np.abs(self.data - self.data.conj().T))) <= tol


def _dense(M: FuzzyMatrix) -> np.ndarray:
    """The dense view of M: the one it keeps, else a new one scattered from its
    bands, which M does not keep."""
    if M._data is not None:
        return M._data
    cols = _columns(M.dim, M.offsets[0], M._bands.shape[1])
    inside = (cols >= 0) & (cols < M.dim)
    dense = np.zeros((M.dim, M.dim), dtype=complex)
    dense[np.nonzero(inside)[0], cols[inside]] = M._bands[inside]
    return dense


def _stacked(diagonal, offsets: tuple, dim: int) -> np.ndarray:
    """Bands over offsets[0]..offsets[-1] holding diagonal(o) on each of
    `offsets` and zero on the diagonals between them."""
    bands = np.zeros((dim, offsets[-1] - offsets[0] + 1), dtype=complex)
    for o in offsets:
        bands[max(0, -o) : dim - max(0, o), o - offsets[0]] = diagonal(o)
    return bands


def _columns(dim: int, lo: int, width: int) -> np.ndarray:
    """Column of each band cell: (i, k) holds entry (i, i + lo + k)."""
    return np.arange(dim)[:, None] + (lo + np.arange(width))


def diagonal_split(M: FuzzyMatrix) -> tuple:
    """(main diagonal, largest off-diagonal magnitude) of M, read from the
    storage it holds: its bands, else its dense view (never copied into bands)."""
    if M._bands is None:
        mags = np.abs(M._data)
        np.fill_diagonal(mags, 0.0)
        return np.diagonal(M._data), float(mags.max())
    lo, bands = M.offsets[0], M._bands
    on = np.arange(lo, lo + bands.shape[1]) == 0  # band cells outside the matrix are 0
    diag = bands[:, -lo] if on.any() else np.zeros(M.dim)
    return diag, float(np.max(np.abs(bands[:, ~on]), initial=0.0))


def _layout(*Ms) -> tuple:
    """(N, S) of a result: the operands' own when they share it, else flat."""
    if len({M.dim for M in Ms}) != 1:
        raise StructureError(f"dimension mismatch {' vs '.join(str(M.dim) for M in Ms)}")
    return (Ms[0].N, Ms[0].S) if len({(M.N, M.S) for M in Ms}) == 1 else (Ms[0].dim, 1)


def regularize_scalar(f: FourierFunction, grid: DiscretizingGrid) -> FuzzyMatrix:
    """N x N matrix with entries f_{m-n}(q(n,m)): `regularize_matrix` at S = 1."""
    return regularize_matrix(MatrixFourierFunction.from_scalar(f), grid)


def regularize_matrix(F: MatrixFourierFunction, grid: DiscretizingGrid) -> FuzzyMatrix:
    """N*S x N*S matrix; block entry (a,b), band n, lands at (n*S+a, m*S+b),
    on flat diagonal n*S + b - a, and only the diagonals are written: the
    one-function, one-grid case of `regularize_schedule`.

    Hermiticity is not checked here: the CLI checks transform output
    (`cli._check_hermitian`), and `transforms.diagonalize_coordinate` checks
    the coordinate it diagonalizes.
    """
    (M,) = next(regularize_schedule((F,), (grid,)))
    return M


def check_regularizable(functions, grids):
    """Refuse functions that a grid cannot regularize: an interval other than the
    grid's, or a cutoff not below its N."""
    for grid in grids:
        for F in functions:
            _check_same_interval(F, grid)
            if F.cutoff >= grid.N:
                raise DomainError(f"cutoff {F.cutoff} must stay below N = {grid.N}")


def regularize_schedule(functions, grids) -> Iterator[tuple]:
    """Yield, grid by grid, the tuple of the regularizations of `functions`
    (MatrixFourierFunctions) on that grid; every pair is checked first.

    Each function's coefficients are evaluated once, in one
    `fourier.coefficient_values` call for all of them, on the distinct q(n, m)
    of its own bands on every grid.  Functions with the same bands share that
    vector; others get their own (on the symmetric rule a pair's odd bands and
    its bracket's even bands meet at no q, and one vector would double every
    walk).  A grid's matrices are gathered by the `np.unique` inverse only when
    it is reached, so a caller that drops them first holds one grid's at a
    time, and the last grid's without the values.
    """
    functions, grids = tuple(functions), tuple(grids)
    check_regularizable(functions, grids)
    keys = [tuple(sorted({band for row in F.entries for entry in row for band in entry.coeffs}))
            for F in functions]
    qs, at = {}, {}  # band set -> its q vector, and per grid {band: indices into it}
    for key in dict.fromkeys(keys):
        pieces = [grid.q(r, r + band) for grid in grids for band in key
                  for r in [np.arange(grid.N - abs(band)) + max(0, -band)]]
        qs[key], where = np.unique(np.concatenate(pieces or [[]]), return_inverse=True)
        split = iter(np.split(where, np.cumsum([len(q) for q in pieces])[:-1]))
        at[key] = [dict(zip(key, split)) for _ in grids]  # zip stops at key, taking len(key)
    values = coefficient_values(functions, [qs[key] for key in keys])
    for g, grid in enumerate(grids):
        matrices = tuple(_gathered(k, table, F.S, grid, at[key][g])
                         for k, (table, F, key) in enumerate(zip(values, functions, keys)))
        if g == len(grids) - 1:  # the caller's work on the last grid runs without them
            del values, at
        yield matrices
        del matrices  # before the next grid's are gathered


def _gathered(k, table, S, grid: DiscretizingGrid, at) -> FuzzyMatrix:
    """The N*S x N*S matrix on `grid` whose entry (a, b), band n, reads
    table[(a, b, n)] at the indices at[n]; its arrays are not held by the
    schedule's frame.  A value not finite there is refused, naming function
    k of the schedule, the entry and the band."""
    N = grid.N
    offsets = tuple(sorted({band * S + b - a for a, b, band in table})) or (0,)
    bands = np.zeros((N * S, offsets[-1] - offsets[0] + 1), dtype=complex)
    for (a, b, band), values in table.items():
        vals = values[at[band]]
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"coefficient of function {k}, entry ({a}, {b}), band {band} "
                              "is not finite on the grid")
        # block rows max(0, -band) .. N - max(0, band) - 1, entry row a of each
        rows = slice(max(0, -band) * S + a, (N - max(0, band)) * S, S)
        bands[rows, band * S + b - a - offsets[0]] = vals
    return FuzzyMatrix._banded(bands, offsets, N, S)


def _border_width(M: FuzzyMatrix, delta) -> int:
    """Width of the outer border ignored by within-border norms, checked
    against M: it must be non-negative and leave an interior."""
    d = int(delta)
    if d < 0:
        raise DomainError("border width must be non-negative")
    if d and 2 * d >= M.dim:
        raise DomainError(f"border {d} too large for dimension {M.dim}")
    return d


def _interior_abs(M: FuzzyMatrix, delta):
    """|bands| of the interior rows (delta..dim-delta), zero on every cell
    outside the interior columns, and each cell's interior column; for dense
    data (never copied into bands) |interior block| and None."""
    d = _border_width(M, delta)
    if M._bands is None:
        return np.abs(M._data[d : M.dim - d, d : M.dim - d]), None
    cols = _columns(M.dim, M.offsets[0], M.bands.shape[1])[d : M.dim - d] - d
    mags = np.abs(M.bands[d : M.dim - d])
    mags[(cols < 0) | (cols >= M.dim - 2 * d)] = 0.0
    return mags, cols


def within_border_norm(M: FuzzyMatrix, delta) -> float:
    """Max absolute row sum over the interior block; delta = 0 gives the
    plain max-row-sum norm.

    The rows are summed on the bands to find those that may hold the
    maximum, and those of three or more nonzero cells are summed again laid
    out as dense rows: numpy sums a row pairwise, in an order set by where
    its zeros sit, so the norm is bitwise the one of the dense interior
    block.  A row of at most two nonzero cells sums to the same bits in any
    order, so its band sum stands.  Dense data sums the interior block itself.
    """
    mags, cols = _interior_abs(M, delta)
    sums = mags.sum(axis=1)
    top = sums.max()
    if cols is None or not 0.0 < top < np.inf:  # dense rows; zero, NaN or infinite in any order
        return float(top)
    # two summation orders of w nonnegative terms differ by under 2 w eps of their sum
    near = np.flatnonzero(sums >= top * (1.0 - 4.0 * mags.shape[1] * np.finfo(float).eps))
    exact = np.count_nonzero(mags[near], axis=1) <= 2
    best, near = float(sums[near[exact]].max(initial=0.0)), near[~exact]
    n = len(mags)  # the interior block is n x n
    step = max(1, 2**20 // n)  # at most 2**20 dense cells at a time
    for chunk in (near[s : s + step] for s in range(0, len(near), step)):
        part = mags[chunk]
        nonzero = part > 0.0
        rows = np.zeros((len(chunk), n))
        rows[np.nonzero(nonzero)[0], cols[chunk][nonzero]] = part[nonzero]
        best = max(best, float(rows.sum(axis=1).max()))
    return best


def interior_max_entry(M: FuzzyMatrix, delta) -> float:
    """Max |entry| over the interior block; the entrywise companion norm."""
    return float(np.max(_interior_abs(M, delta)[0]))


def _band_kernel(A: FuzzyMatrix, B: FuzzyMatrix) -> FuzzyMatrix:
    """AB, multiplied diagonal by diagonal onto the diagonals it may have nonzero,
    reading B every s-th band column, s the gcd of the gaps between its offsets."""
    N, S = _layout(A, B)
    dim, offs_a, bands_a = A.dim, A.offsets, A.bands
    width, s = B.bands.shape[1], math.gcd(*(o - B.offsets[0] for o in B.offsets)) or 1
    rows_b = B.bands[:, ::s]  # rows_b[j, t] = B[j, j + B.offsets[0] + s t]
    br, bi = rows_b.real, rows_b.imag
    out = np.zeros((dim, offs_a[-1] - offs_a[0] + width), dtype=complex)
    for a in offs_a:  # increasing, the order CSR sums in
        i, j, k = slice(max(0, -a), dim - max(0, a)), slice(max(0, a), dim - max(0, -a)), a - offs_a[0]
        da = bands_a[i, k, None]
        out.real[i, k : k + width : s] += da.real * br[j] - da.imag * bi[j]
        out.imag[i, k : k + width : s] += da.real * bi[j] + da.imag * br[j]
    offsets = tuple(sorted({a + b for a in offs_a for b in B.offsets if abs(a + b) < dim})) or (0,)
    lo = offs_a[0] + B.offsets[0]
    return FuzzyMatrix._banded(out[:, offsets[0] - lo : offsets[-1] - lo + 1], offsets, N, S)


def product(A: FuzzyMatrix, B: FuzzyMatrix) -> FuzzyMatrix:
    """AB by the band kernel, which sums in a CSR product's order (complex
    products ar br - ai bi, ar bi + ai br) and equals one bit for bit; or
    `A.data @ B.data` when A records at least dim of the 2 dim - 1 diagonals,
    with the dense view of a banded operand built for the call and not kept.
    Kernel against BLAS, K diagonals on both factors, one BLAS thread: dim
    256, K = 17 / 33 / 257 / 511: 1.1 / 3.1 / 176 / 390 against 2.3 / 2.3 /
    2.4 / 3.5 ms; dim 1024, K = 129 / 513 / 1025: 216 / 3,994 / 15,815
    against about 145 ms.  BLAS is faster from about dim / 10 diagonals, but
    sweep bytes rest on the CSR order: regularized coordinates stay here,
    and dense data, which records every diagonal, goes to BLAS.

    The kernel reads B every s-th band column, s the gcd of the gaps between
    B's offsets.  A column it skips would add a +-0 term to a sum that starts
    at +0, so finite operands give the same bits.  A non-finite entry of A
    meets only the columns read: structural zeros are skipped, as in CSR, so
    inf * 0 = NaN arises only on a diagonal on B's stride, recorded or not.
    """
    layout = _layout(A, B)  # before numpy meets mismatched operands
    if len(A.offsets) < A.dim:
        return _band_kernel(A, B)
    return FuzzyMatrix(_dense(A) @ _dense(B), *layout)


def commutator(A: FuzzyMatrix, B: FuzzyMatrix) -> FuzzyMatrix:
    """[A, B] = AB - BA."""
    return lincomb((1, product(A, B)), (-1, product(B, A)))


def lincomb(*terms) -> FuzzyMatrix:
    """c1 M1 + c2 M2 + ... for terms (c, M), on the union of their diagonals.

    Evaluated left to right as the dense expression is, cell for cell: a
    first coefficient of 1 takes M as it is, and a later 1 or -1 adds or
    subtracts M without multiplying.  A term stored on the union's range is
    read in place, and copied only to start the sum; a narrower one is
    widened with +0 first, so that, as in the dense sum, a -0 it meets
    outside its diagonals turns +0.  When a term records at least dim
    diagonals (dense data, or a band product as wide) the terms' dense
    views are summed instead, since its bands would take twice its dense
    size (two dense 256 x 256 terms: 0.8 ms against 11.8 ms through
    bands); the sum is dense data and records every diagonal.
    """
    N, S = _layout(*(M for _, M in terms))
    offsets = tuple(sorted({o for _, M in terms for o in M.offsets}))
    dense = any(len(M.offsets) >= M.dim for _, M in terms)
    width = offsets[-1] - offsets[0] + 1
    acc = None
    for c, M in terms:
        part = M.data if dense else M.bands  # read-only
        if not dense and (M.offsets[0] != offsets[0] or part.shape[1] != width):
            part = np.zeros((N * S, width), dtype=complex)
            start = M.offsets[0] - offsets[0]
            part[:, start : start + M.bands.shape[1]] = M.bands
        if acc is None:
            acc = c * part if c != 1 else part if part.flags.writeable else part.copy()
        elif c == 1:
            acc += part
        elif c == -1:
            acc -= part
        else:
            acc += c * part
    return FuzzyMatrix(acc, N, S) if dense else FuzzyMatrix._banded(acc, offsets, N, S)


@dataclass(frozen=True)
class FuzzySpace:
    """A named family of Hermitian coordinate matrices of equal dimension.

    `generators` and `grid` keep the matrix-valued functions the coordinates
    are the regularization of, so they can be re-regularized at other sizes
    or evaluated pointwise for classical-limit extraction.  Only
    `regularize_space` (and so `mirror_concat`) and `interlace` set them;
    a transform that changes coordinates otherwise drops them.
    """

    name: str
    coordinates: tuple
    generators: tuple | None = None
    grid: DiscretizingGrid | None = None

    def __post_init__(self):
        object.__setattr__(self, "coordinates", tuple(self.coordinates))
        if self.generators is not None:
            object.__setattr__(self, "generators", tuple(self.generators))

    @property
    def dim(self) -> int:
        return self.coordinates[0].dim


def regularize_space(name: str, generators, grid: DiscretizingGrid) -> FuzzySpace:
    """The space whose coordinates are the regularizations of its generators."""
    coords = tuple(regularize_matrix(F, grid) for F in generators)
    return FuzzySpace(name, coords, generators, grid)
