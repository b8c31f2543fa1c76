"""Matrix regularization of Fourier functions.

The map sends f(q,phi) = sum_n f_n(q) e^{i n phi} to the N x N matrix with
entries

    Q(f)[n, m] = f_{m-n}(q(n, m)),

so e^{i phi} lands on the first superdiagonal.  Matrix-valued functions go to
N*S x N*S matrices with the block entry (a, b) of band m-n placed at the flat
index (n*S + a, m*S + b).

Grids q(n, m) are affine in (n, m): q(n,m) = c0 + cn*n + cm*m, 0-based, with
q(0,0) = q1 and the formula reaching q2 at (N, N) (one step past the last
stored index, so the stored diagonal values fill [q1, q2) from the left).
`regularize_matrix` evaluates each entry's coefficients once, on the distinct
arguments of all its bands, and gathers the bands back: not from the 2N - 1
anti-diagonals, since on the vertex's (-1, 3) q(n, m) is not bitwise a
function of n + m (40 of its 59 anti-diagonals hold several floats at N = 30).

This module is the only one that writes a regularized coordinate or
multiplies two: spaces that carry generator functions take their
coordinates from `regularize_space`, and every product of regularized
matrices is `product` or `commutator`.  The matrices are stored dense but
are banded, with bandwidth (cutoff+1)*S, so both kernels multiply only the
diagonals that may be nonzero, at O(dim * bandwidth^2) per product.  They
sum in a CSR product's order with complex products (ar br - ai bi, ar bi +
ai br), so they equal a CSR product bit for bit.  The one dense product of
coordinates is the poly step of `transforms.matrix_poly_transform`: after a
`diagonalize` step its operands are dense, with every diagonal nonzero, and
there `product` takes 440 ms against 2.6 ms dense at N = 256 (one BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .fourier import FourierFunction, MatrixFourierFunction, _check_same_interval, checked_interval


@dataclass(frozen=True)
class DiscretizingGrid:
    """Affine assignment (n, m) -> q used by the regularization map."""

    N: int
    interval: tuple
    rule: str
    c0: float
    cn: float
    cm: float

    def q(self, n, m):
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
    """
    N = int(N)
    if N < 2:
        raise DomainError(f"grid size must be at least 2, got {N}")
    q1, q2 = checked_interval(interval)
    span = q2 - q1
    if rule == "symmetric":
        step = span / (2.0 * N)
        return DiscretizingGrid(N, (q1, q2), rule, q1, step, step)
    if rule == "left":
        return DiscretizingGrid(N, (q1, q2), rule, q1, span / N, 0.0)
    raise DomainError(f"unknown grid rule {rule!r}")


@dataclass(frozen=True)
class FuzzyMatrix:
    """Dense square complex matrix with its block layout: N blocks of size S.

    The wrapped array is immutable; take a copy before mutating.  Hermiticity
    is a property of the data, checked by `is_hermitian` (and, for a whole
    space, by `FuzzySpace.validate`), not a stored flag.  `offsets`: the flat
    diagonals (column minus row) that may be nonzero, sorted, when known.
    """

    data: np.ndarray
    N: int
    S: int = 1
    offsets: tuple | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise StructureError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] != self.N * self.S:
            raise StructureError(
                f"dimension {arr.shape[0]} does not match N*S = {self.N}*{self.S}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def is_hermitian(self, tol=1e-12) -> bool:
        return float(np.max(np.abs(self.data - self.data.conj().T))) <= tol


def regularize_scalar(f: FourierFunction, grid: DiscretizingGrid) -> FuzzyMatrix:
    """N x N matrix with entries f_{m-n}(q(n,m)): `regularize_matrix` at S = 1."""
    return regularize_matrix(MatrixFourierFunction.from_scalar(f), grid)


def regularize_matrix(F: MatrixFourierFunction, grid: DiscretizingGrid) -> FuzzyMatrix:
    """N*S x N*S matrix; block entry (a,b), band n, lands at (n*S+a, m*S+b).

    The coefficients of an entry are all evaluated on one q vector, so a
    coefficient family (the string vertex's) is evaluated once per entry;
    Hermiticity is checked on the matrices, by `FuzzySpace.validate`.
    """
    _check_same_interval(F, grid)
    if F.cutoff >= grid.N:
        raise DomainError(f"cutoff {F.cutoff} must stay below N = {grid.N}")
    N, S = grid.N, F.S
    out = np.zeros((N * S, N * S), dtype=complex)
    offsets = set()
    for a, row in enumerate(F.entries):
        for b, entry in enumerate(row):
            rows = {band: np.arange(N - abs(band)) + max(0, -band) for band in sorted(entry.coeffs)}
            band_qs = [grid.q(r, r + band) for band, r in rows.items()]
            qs, where = np.unique(np.concatenate(band_qs or [[]]), return_inverse=True)
            start = 0
            for band, r in rows.items():
                vals = np.asarray(entry.coeffs[band](qs), complex)[where[start : start + len(r)]]
                start += len(r)
                if not np.all(np.isfinite(vals)):
                    raise DomainError(f"coefficient of band {band} is not finite on the grid")
                out[r * S + a, (r + band) * S + b] = vals
                offsets.add(band * S + b - a)
    return FuzzyMatrix(out, N, S, tuple(sorted(offsets)))


def toeplitz_basis(a: int, N: int) -> FuzzyMatrix:
    """e_a = sum_n |n><n+a|, the regularization of e^{i a phi} (ones on the
    a-th diagonal; a=0 is the identity)."""
    f = FourierFunction((0.0, 1.0), {int(a): 1.0})
    return regularize_scalar(f, make_grid(N, f.interval))


def _border_width(M: FuzzyMatrix, delta) -> int:
    """Width of the outer border ignored by within-border norms, checked
    against M: it must be non-negative and leave an interior."""
    d = int(delta)
    if d < 0:
        raise DomainError("border width must be non-negative")
    if d and 2 * d >= M.dim:
        raise DomainError(f"border {d} too large for dimension {M.dim}")
    return d


def _interior_abs(M: FuzzyMatrix, delta) -> np.ndarray:
    """|entries| of the interior block (rows/cols delta..dim-delta)."""
    d = _border_width(M, delta)
    return np.abs(M.data[d : M.dim - d, d : M.dim - d] if d else M.data)


def within_border_norm(M: FuzzyMatrix, delta) -> float:
    """Max absolute row sum over the interior block; delta = 0 gives the
    plain max-row-sum norm."""
    core = _interior_abs(M, delta)
    return float(np.max(np.sum(core, axis=1))) if core.size else 0.0


def interior_max_entry(M: FuzzyMatrix, delta) -> float:
    """Max |entry| over the interior block; the entrywise companion norm."""
    core = _interior_abs(M, delta)
    return float(np.max(core)) if core.size else 0.0


def _offsets(M: FuzzyMatrix) -> tuple:
    """The diagonals M may have nonzero: recorded, or read off its data."""
    if M.offsets is None:
        rows, cols = np.nonzero(M.data)
        return tuple(np.unique(cols - rows).tolist())
    return M.offsets


def _band_product(A: FuzzyMatrix, B: FuzzyMatrix, offs_a, offs_b) -> np.ndarray:
    """Diagonals of AB: column k holds (AB)[i, i + offs_a[0] + offs_b[0] + k] in row i."""
    dim, b0, width = A.dim, offs_b[0], offs_b[-1] - offs_b[0] + 1
    rows_b = np.zeros((dim, width), dtype=complex)  # B[j, j + b0 + t]
    for b in offs_b:
        rows_b[max(0, -b) : dim - max(0, b), b - b0] = np.diagonal(B.data, b)
    br, bi = rows_b.real, rows_b.imag
    out = np.zeros((dim, offs_a[-1] - offs_a[0] + width), dtype=complex)
    for a in offs_a:  # increasing, the order CSR sums in
        da = np.diagonal(A.data, a)[:, None]
        i, j, k = slice(max(0, -a), dim - max(0, a)), slice(max(0, a), dim - max(0, -a)), a - offs_a[0]
        out.real[i, k : k + width] += da.real * br[j] - da.imag * bi[j]
        out.imag[i, k : k + width] += da.real * bi[j] + da.imag * br[j]
    return out


def _band_kernel(A: FuzzyMatrix, B: FuzzyMatrix, commute: bool) -> FuzzyMatrix:
    """AB, or AB - BA, written dense with its diagonals recorded."""
    if A.dim != B.dim:
        raise StructureError(f"dimension mismatch {A.dim} vs {B.dim}")
    dim, offs_a, offs_b = A.dim, _offsets(A) or (0,), _offsets(B) or (0,)
    offsets = tuple(sorted({a + b for a in offs_a for b in offs_b if abs(a + b) < dim}))
    bands = _band_product(A, B, offs_a, offs_b)
    if commute:
        bands -= _band_product(B, A, offs_b, offs_a)
    cols = np.arange(dim)[:, None] + offs_a[0] + offs_b[0] + np.arange(bands.shape[1])
    inside = (cols >= 0) & (cols < dim)
    out = np.zeros((dim, dim), dtype=complex)
    out[np.nonzero(inside)[0], cols[inside]] = bands[inside]
    N, S = (A.N, A.S) if (A.N, A.S) == (B.N, B.S) else (dim, 1)
    return FuzzyMatrix(out, N, S, offsets)


def product(A: FuzzyMatrix, B: FuzzyMatrix) -> FuzzyMatrix:
    """AB, multiplied by diagonals and returned as a dense matrix."""
    return _band_kernel(A, B, commute=False)


def commutator(A: FuzzyMatrix, B: FuzzyMatrix) -> FuzzyMatrix:
    """[A, B] = AB - BA, multiplied by diagonals and returned as a dense matrix."""
    return _band_kernel(A, B, commute=True)


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

    @property
    def d(self) -> int:
        return len(self.coordinates)

    def validate(self, tol=1e-12):
        dims = {c.dim for c in self.coordinates}
        if len(dims) != 1:
            raise StructureError(f"coordinate dimensions differ: {sorted(dims)}")
        for k, c in enumerate(self.coordinates):
            if not c.is_hermitian(tol):
                raise StructureError(f"coordinate {k} of {self.name!r} is not Hermitian")
        return self


def regularize_space(name: str, generators, grid: DiscretizingGrid) -> FuzzySpace:
    """The space whose coordinates are the regularizations of its generators."""
    coords = tuple(regularize_matrix(F, grid) for F in generators)
    return FuzzySpace(name, coords, generators, grid)
