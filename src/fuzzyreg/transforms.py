"""Structural and unitary operations on fuzzy matrices and spaces.

Includes the direct sum, the z-ordering permutation between the direct-sum
and block-entry layouts, interlacing, partial (block) transformations,
coefficient-level unitary conjugation of matrix-valued functions, and the
sorted-eigenbasis transformation with a fixed phase convention.
`matrix_poly_transform` is the one interpreter of a transform recipe: it runs
the polynomial and entrywise coordinate steps, `diagonalize` and `interlace`,
and returns the log the CLI writes to the sidecar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError, config_value, finite, integer, json_object
from .fourier import FourierFunction, MatrixFourierFunction
from .regularize import FuzzyMatrix, FuzzySpace
from .verify import sample_on_grid

_SQ2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class SmallUnitary:
    """An S x S unitary acting on the block index."""

    matrix: np.ndarray

    def __post_init__(self):
        U = np.ascontiguousarray(self.matrix, dtype=complex)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise StructureError("unitary must be square")
        err = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
        if err > 1e-12:
            raise StructureError(f"matrix is not unitary (deviation {err:.2e})")
        U.setflags(write=False)
        object.__setattr__(self, "matrix", U)

    @property
    def S(self) -> int:
        return self.matrix.shape[0]


def interlacing_unitary() -> SmallUnitary:
    """The 2x2 rotation mixing a mirror pair into antidiagonal form."""
    return SmallUnitary(_SQ2 * np.array([[1.0, -1.0], [1.0, 1.0]]))


def direct_sum_matrices(A: FuzzyMatrix, B: FuzzyMatrix) -> FuzzyMatrix:
    data = np.zeros((A.dim + B.dim, A.dim + B.dim), dtype=complex)
    data[: A.dim, : A.dim] = A.data
    data[A.dim :, A.dim :] = B.data
    return FuzzyMatrix(data, A.dim + B.dim, 1)


def direct_sum(s1: FuzzySpace, s2: FuzzySpace) -> FuzzySpace:
    if s1.d != s2.d:
        raise StructureError(f"coordinate counts differ: {s1.d} vs {s2.d}")
    coords = tuple(
        direct_sum_matrices(a, b) for a, b in zip(s1.coordinates, s2.coordinates)
    )
    return FuzzySpace(f"{s1.name}+{s2.name}", coords)


def _z_perm(dim: int, S: int) -> np.ndarray:
    """perm[n*S + a] = a*N + n for dim = N*S; S must divide dim."""
    if S < 1 or dim % S:
        raise StructureError(f"dimension {dim} not divisible by S = {S}")
    N = dim // S
    n = np.arange(N)
    perm = np.empty(dim, dtype=int)
    for a in range(S):
        perm[n * S + a] = a * N + n
    return perm


def z_order(M: FuzzyMatrix, S: int) -> FuzzyMatrix:
    """Reindex a direct-sum layout (a, n) into the interleaved layout (n, a)."""
    S = int(S)
    perm = _z_perm(M.dim, S)
    if S == 1:
        return M
    return FuzzyMatrix(M.data[np.ix_(perm, perm)], M.dim // S, S)


def z_order_inverse(M: FuzzyMatrix, S: int) -> FuzzyMatrix:
    S = int(S)
    inv = np.argsort(_z_perm(M.dim, S))
    if S == 1:
        return M
    return FuzzyMatrix(M.data[np.ix_(inv, inv)], M.dim, 1)


def conjugate(M: FuzzyMatrix, V: FuzzyMatrix) -> FuzzyMatrix:
    """V† M V."""
    if M.dim != V.dim:
        raise StructureError("dimension mismatch")
    return FuzzyMatrix(V.data.conj().T @ M.data @ V.data, M.N, M.S)


def interlace(space: FuzzySpace) -> FuzzySpace:
    """Conjugate every coordinate by the interlacing rotation on every block (S = 2)."""
    if space.coordinates[0].S != 2:
        raise StructureError("interlacing acts on S = 2 block structure")
    coords = tuple(block_transform(c, interlacing_unitary(), 0) for c in space.coordinates)
    generators = None if space.generators is None else tuple(map(interlace_function, space.generators))
    return FuzzySpace(f"interlaced({space.name})", coords, generators, space.grid)


def constant_conjugate_function(
    F: MatrixFourierFunction, U: np.ndarray
) -> MatrixFourierFunction:
    """U† F U at coefficient level for a constant S x S matrix U."""
    U = np.asarray(U, dtype=complex)
    S = F.S
    if U.shape != (S, S):
        raise StructureError("size mismatch between U and F")
    rows = []
    for a in range(S):
        row = []
        for b in range(S):
            acc = FourierFunction(F.interval, {})
            for j in range(S):
                for k in range(S):
                    w = np.conj(U[j, a]) * U[k, b]
                    if w != 0:
                        acc = acc + F.entries[j][k] * w
            row.append(acc)
        rows.append(row)
    return MatrixFourierFunction(F.interval, rows)


def interlace_function(F: MatrixFourierFunction) -> MatrixFourierFunction:
    if F.S != 2:
        raise StructureError("interlacing acts on S = 2 block structure")
    return constant_conjugate_function(F, interlacing_unitary().matrix)


def block_transform(M: FuzzyMatrix, U: SmallUnitary, n0: int) -> FuzzyMatrix:
    """Conjugate by U on block indices n0..N-1 only, identity above.

    n0 = 0 is the full constant conjugation; n0 = N leaves M unchanged.
    """
    S = U.S
    if M.dim % S:
        raise StructureError(f"dimension {M.dim} not divisible by S = {S}")
    N = M.dim // S
    n0 = int(n0)
    if not 0 <= n0 <= N:
        raise StructureError(f"block split {n0} outside 0..{N}")
    data = np.eye(M.dim, dtype=complex)
    if n0 < N:
        data[n0 * S :, n0 * S :] = np.kron(np.eye(N - n0), U.matrix)
    V = FuzzyMatrix(data, N, S)
    return conjugate(FuzzyMatrix(M.data, N, S), V)


def function_unitary_conjugate(F: MatrixFourierFunction, U: MatrixFourierFunction):
    """U F U† at coefficient level; U must be pointwise unitary (to 1e-10) on samples."""
    if U.S != F.S:
        raise StructureError("size mismatch between U and F")
    vals = sample_on_grid((U,), (17, 16))[2][0]
    gram = vals @ np.conj(np.swapaxes(vals, -1, -2))
    err = np.max(np.abs(gram - np.eye(U.S)))
    if err > 1e-10:
        raise StructureError(f"U is not pointwise unitary (deviation {err:.2e})")
    return U.matmul(F).matmul(U.conjugate_transpose())


_ENTRYWISE = ("poly", "reciprocal-diag")


def _entrywise_step(coords, step):
    """(new coordinate, singular rows) of a poly or reciprocal-diag step."""
    if step["op"] == "poly":
        acc = np.zeros((coords[0].dim, coords[0].dim), dtype=complex)
        for term in config_value(list, step.get("terms"), "poly terms"):
            term = config_value(json_object, term, "poly term")
            indices = config_value(list, term.get("indices"), "poly indices")
            factors = [config_value(coords.__getitem__, idx, "poly index").data for idx in indices]
            part = factors[0] if factors else np.eye(coords[0].dim, dtype=complex)
            for factor in factors[1:]:
                part = part @ factor
            coeff = config_value(lambda v: finite(v, complex), term.get("coeff", 1.0), "poly coeff")
            acc += coeff * part
        return FuzzyMatrix(acc, coords[0].N, coords[0].S), ()
    src = config_value(coords.__getitem__, step.get("source"), "reciprocal-diag source")
    offdiag = src.data - np.diag(np.diag(src.data))
    if np.max(np.abs(offdiag)) > 1e-12:
        raise StructureError("entrywise recipe needs a diagonal source coordinate")
    shift = config_value(finite, step.get("shift", 1.0), "shift")
    scale = config_value(finite, step.get("scale", 1.0), "scale")
    tol = config_value(finite, step.get("singular_tol", 1e-9), "singular_tol")
    denom = shift + np.diag(src.data)
    bad = np.flatnonzero(np.abs(denom) < tol)
    vals = np.zeros(src.dim, dtype=complex)
    good = np.setdiff1d(np.arange(src.dim), bad)
    vals[good] = scale / denom[good]
    return FuzzyMatrix(np.diag(vals), src.N, src.S), bad


def matrix_poly_transform(space: FuzzySpace, recipe):
    """Run a transform recipe; return (new space, log), one record per step.

    Step forms:
      {"op": "poly", "terms": [{"coeff": c, "indices": [i, ...]}, ...],
       "target": index or "append"}
          new coordinate = sum of c * product of the listed coordinates.
      {"op": "reciprocal-diag", "source": i, "shift": s, "scale": c,
       "target": ..., "singular_tol": 1e-9}
          new diagonal coordinate with entries c / (s + M_nn) from a diagonal
          source; rows where |s + M_nn| < singular_tol are logged as
          "singular_rows" and their output set to 0.
      {"op": "diagonalize", "index": i}: `diagonalize_coordinate` and its record.
      {"op": "interlace"}: `interlace`.

    Each maximal run of poly and reciprocal-diag steps appends one "*" to the
    name and drops the generators: the coordinates no longer regularize them.
    """
    log = []
    for step in config_value(list, recipe, "transforms"):
        step = config_value(json_object, step, "transform step")
        op = step.get("op")
        if op == "diagonalize":
            index = config_value(integer, step.get("index"), "diagonalize index")
            space, record = diagonalize_coordinate(space, index)
        elif op == "interlace":
            space, record = interlace(space), {"op": "interlace"}
        elif op in _ENTRYWISE:
            coords = list(space.coordinates)
            new, bad = _entrywise_step(coords, step)
            target = step.get("target", "append")
            if target == "append":
                coords.append(new)
            else:
                config_value(coords.__getitem__, target, "target")
                coords[target] = new
            in_run = bool(log) and log[-1]["op"] in _ENTRYWISE
            space = FuzzySpace(space.name if in_run else f"{space.name}*", tuple(coords))
            record = {"op": op, "singular_rows": [int(r) for r in bad]}
        else:
            raise DomainError(f"unknown transform op {op!r}")
        log.append(record)
    return space, log


PHASE_POLICY = "real-anchor-v1"


def _phase_fix(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive."""
    W = np.array(V)
    for j in range(W.shape[1]):
        col = W[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if pivot != 0:
            W[:, j] = col * (np.conj(pivot) / abs(pivot))
    return W


def diagonalize_coordinate(space: FuzzySpace, index: int):
    """Sort one Hermitian coordinate's eigenbasis and conjugate all coordinates;
    return (space, record), the record being the transform log's entry.

    Eigenvalues ascend; each eigenvector's largest-magnitude component is made
    real positive (policy "real-anchor-v1").  For a real symmetric coordinate
    the eigenvector matrix is kept real, which renders conjugated real
    symmetric coordinates real and purely imaginary ones purely imaginary.
    A conjugated space carries no generators; an identity one is returned as is.
    """
    M = config_value(space.coordinates.__getitem__, index, "diagonalize index")
    if not M.is_hermitian(1e-10):
        raise StructureError(f"coordinate {index} is not Hermitian")
    A = M.data
    diag = np.diag(A)
    offdiag_max = np.max(np.abs(A - np.diag(diag))) if M.dim > 1 else 0.0
    if offdiag_max == 0.0 and np.all(np.diff(diag.real) >= 0):
        w, residual, out = diag.real, 0.0, space
    else:
        if np.max(np.abs(A.imag)) < 1e-12:
            w, V = np.linalg.eigh(A.real)
            V = V.astype(complex)
        else:
            w, V = np.linalg.eigh(A)
        order = np.argsort(w, kind="stable")
        w = w[order]
        V = _phase_fix(V[:, order])
        residual = float(np.max(np.abs(A - (V * w) @ V.conj().T)))
        if residual > 1e-10 * max(1.0, float(np.max(np.abs(w)))):
            raise StructureError(f"eigendecomposition residual too large: {residual:.2e}")
        P = FuzzyMatrix(V, M.N, M.S)
        out = FuzzySpace(f"diag({space.name})", tuple(conjugate(c, P) for c in space.coordinates))
    return out, {"op": "diagonalize", "index": index, "policy": PHASE_POLICY,
                 "identity": out is space, "residual": residual, "eigenvalues": list(w)}
