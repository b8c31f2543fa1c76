"""Structural and unitary operations on fuzzy matrices and spaces.

Includes interlacing, partial (block) transformations, conjugation of a
matrix-valued function by a constant unitary, and the sorted-eigenbasis
transformation with a fixed phase convention.
`matrix_poly_transform` is the one interpreter of a transform recipe: it runs
the polynomial and entrywise coordinate steps, `diagonalize` and `interlace`,
and returns the log the CLI writes to the sidecar.  Poly terms and
conjugations multiply coordinates only by `regularize.product`.
`diagonalize` conjugates the coordinates on every CPU the process may run
on; each conjugation is the same `product` calls on the same operands as in
a plain loop, so the bytes do not depend on the CPU count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError, config_value, finite, integer, json_object
from .fourier import FourierFunction, MatrixFourierFunction
from .regularize import FuzzyMatrix, FuzzySpace, diagonal_split, lincomb, product

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

    def block_diagonal(W):  # W[a, b] at row nS + a, column b - a + S - 1, for the blocks n >= n0
        bands = np.zeros((M.dim, 2 * S - 1), dtype=complex)  # diagonals -(S-1)..S-1
        bands[: n0 * S, S - 1] = 1.0
        a, b = np.indices((S, S))
        bands[n0 * S :].reshape(N - n0, S, 2 * S - 1)[:, a, b - a + S - 1] = W
        return FuzzyMatrix.from_diagonals(
            {o: bands[max(0, -o) : M.dim - max(0, o), o + S - 1] for o in range(1 - S, S)}, N, S)

    if (M.N, M.S) != (N, S):  # the result keeps U's block layout
        M = FuzzyMatrix._banded(M.bands, M.offsets, N, S)
    return product(product(block_diagonal(U.matrix.conj().T), M), block_diagonal(U.matrix))


_ENTRYWISE = ("poly", "reciprocal-diag")


def _coordinate_index(coords, value, what) -> int:
    """value as an index into coords: an integer from 0 to len(coords) - 1,
    so neither JSON true nor a negative number counting from the end."""
    return config_value(lambda v: range(len(coords)).index(integer(v)), value, what)


def _entrywise_step(coords, step):
    """(new coordinate, singular rows) of a poly or reciprocal-diag step."""
    N, S = coords[0].N, coords[0].S
    if step["op"] == "poly":
        terms = [(1, FuzzyMatrix.from_diagonals({}, N, S))]  # the sum starts from +0, as dense
        for term in config_value(list, step.get("terms"), "poly terms"):
            term = config_value(json_object, term, "poly term")
            indices = config_value(list, term.get("indices"), "poly indices")
            factors = [coords[_coordinate_index(coords, idx, "poly index")] for idx in indices]
            part = factors[0] if factors else FuzzyMatrix.from_diagonals({0: np.ones(N * S)}, N, S)
            for factor in factors[1:]:
                part = product(part, factor)
            coeff = config_value(lambda v: finite(v, complex), term.get("coeff", 1.0), "poly coeff")
            terms.append((coeff, part))
        return lincomb(*terms), ()
    src = coords[_coordinate_index(coords, step.get("source"), "reciprocal-diag source")]
    diag, offdiag_max = diagonal_split(src)
    if offdiag_max > 1e-12:
        raise StructureError("entrywise recipe needs a diagonal source coordinate")
    shift = config_value(finite, step.get("shift", 1.0), "shift")
    scale = config_value(finite, step.get("scale", 1.0), "scale")
    tol = config_value(finite, step.get("singular_tol", 1e-9), "singular_tol")
    denom = shift + diag
    singular = np.abs(denom) < tol
    vals = np.divide(scale, denom, out=np.zeros(src.dim, dtype=complex), where=~singular)
    return FuzzyMatrix.from_diagonals({0: vals}, N, S), np.flatnonzero(singular)


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
            space, record = diagonalize_coordinate(space, step.get("index"))
        elif op == "interlace":
            space, record = interlace(space), {"op": "interlace"}
        elif op in _ENTRYWISE:
            coords = list(space.coordinates)
            new, bad = _entrywise_step(coords, step)
            if step.get("target", "append") == "append":
                coords.append(new)
            else:
                coords[_coordinate_index(coords, step["target"], "target")] = new
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


def _on_cpus(tasks) -> list:
    """The results of the argument-less callables `tasks`, in order.

    They run on the calling thread plus one worker thread per further CPU
    the process may run on (at most one thread per task), each thread taking
    the next task not yet taken; with one CPU no thread is started.  A
    task's exception propagates once every thread has stopped, so no thread
    outlives the call.
    """
    results, pending = [None] * len(tasks), iter(range(len(tasks)))

    def drain():
        for i in pending:  # next() on it is atomic under the GIL: one thread per index
            results[i] = tasks[i]()

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(tasks), cpus) - 1
    if workers < 1:
        drain()
        return results
    from concurrent.futures import ThreadPoolExecutor  # here, to keep it out of start-up

    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(drain) for _ in range(workers)]
        drain()
        for future in futures:
            future.result()
    return results


def diagonalize_coordinate(space: FuzzySpace, index: int):
    """Sort one Hermitian coordinate's eigenbasis and conjugate all coordinates;
    return (space, record), the record being the transform log's entry.

    Eigenvalues ascend; each eigenvector's largest-magnitude component is made
    real positive (policy "real-anchor-v1").  For a real symmetric coordinate
    the eigenvector matrix is kept real, which renders conjugated real
    symmetric coordinates real and purely imaginary ones purely imaginary.
    A conjugated space carries no generators; an identity one is returned as is.

    The eigen-residual check and the conjugations V^H C V run on every CPU
    the process may run on (`_on_cpus`).  numpy releases the GIL inside BLAS,
    and each one is the same dense BLAS product of the same operands as in a
    plain loop, so the coordinates are bitwise those of one CPU.  The
    residual check raises before the conjugated space is built.
    """
    index = _coordinate_index(space.coordinates, index, "diagonalize index")
    M = space.coordinates[index]
    if not M.is_hermitian(1e-10):
        raise StructureError(f"coordinate {index} is not Hermitian")
    diag, offdiag_max = diagonal_split(M)
    if offdiag_max == 0.0 and np.all(np.diff(diag.real) >= 0):
        w, residual, out = diag.real, 0.0, space
    else:
        A = M.data
        if np.max(np.abs(A.imag)) < 1e-12:
            w, V = np.linalg.eigh(A.real)
            V = V.astype(complex)
        else:
            w, V = np.linalg.eigh(A)
        order = np.argsort(w, kind="stable")
        w = w[order]
        V = _phase_fix(V[:, order])
        P, Pt = FuzzyMatrix(V, M.N, M.S), FuzzyMatrix(V.conj().T, M.N, M.S)  # once per step

        def checked_residual():
            residual = float(np.max(np.abs(A - (V * w) @ V.conj().T)))
            if residual > 1e-10 * max(1.0, float(np.max(np.abs(w)))):
                raise StructureError(f"eigendecomposition residual too large: {residual:.2e}")
            return residual

        residual, *coords = _on_cpus([checked_residual] + [
            lambda c=c: product(product(Pt, c), P) for c in space.coordinates])
        out = FuzzySpace(f"diag({space.name})", tuple(coords))
    return out, {"op": "diagonalize", "index": index, "policy": PHASE_POLICY,
                 "identity": out is space, "residual": residual, "eigenvalues": list(w)}
