"""Classical surface export.

Samples a tuple of matrix-valued coordinate functions on a (q, phi) grid,
diagonalizes the sheet structure pointwise, and emits one CSV row per sheet
and sample with the coordinate values plus a diagonality figure of merit.
It reads the generator functions only, never a regularized matrix (the CLI
builds a preset's generators without regularizing them).  The work is done on
whole sample arrays, from sampler to text: one coefficient pass
(`verify.sample_on_grids`) evaluates each coefficient once on the q values of
both the export grid and the 48 x 48 probe grid into one (d, nq, nphi, S, S)
array per grid, every sample that needs an eigenbasis goes into one batched
`eigh`, and the export returns its rows as one float64 table.

Only makes sense when the coordinate functions commute to good accuracy as
matrix functions; the export refuses otherwise.  The probe takes each sample's
norm of [F, G] from one batched `eigvalsh` of Gram matrices, each sample scaled by
its largest |entry|, on the samples whose ||[F, G]||_F is within sqrt(S) of the
largest, since only those can hold the sup (`verify.pointwise_commutator_sup`).
The probe's samples are dropped before the export's `eigh`.  The CSV holds the
sheet as an integer and the other cells to 10 significant digits; each column
formats each of its distinct float64 bit patterns once, through the formatter
the matrix CSV dump uses (`matrixio.format_distinct`).
"""

from __future__ import annotations

import itertools
from typing import Sequence, Tuple

import numpy as np

from .errors import CapabilityError, DomainError
from .fourier import MatrixFourierFunction
from .matrixio import format_distinct
from .verify import pointwise_commutator_sup, sample_on_grids

_DIAG_TOL = 1e-12
_PROBE_GRID = (48, 48)


def check_commutation(coords: Sequence[MatrixFourierFunction], bound: float, *, values=None):
    """Pairwise sup-norm commutators from one 48 x 48 (q, phi) sampling of the
    coordinates; raise with a diagnostic above bound.  bound = inf only measures.
    `values` are the coordinates' samples on that grid when the caller already
    took them in its own pass (`export_classical_surface`)."""
    if not bound >= 0:
        raise DomainError(f"commutation bound must be a nonnegative number, got {bound}")
    if len(coords) < 2:
        return 0.0
    if values is None:
        values = sample_on_grids(coords, [_PROBE_GRID])[0][2]
    sups = {(i, j): pointwise_commutator_sup(values[i], values[j])
            for i, j in itertools.combinations(range(len(coords)), 2)}
    (i, j), worst = max(sups.items(), key=lambda item: item[1])
    if worst > bound:
        raise CapabilityError(
            f"coordinate functions {i} and {j} do not commute as matrix "
            f"functions: sup-norm commutator {worst:.3e} exceeds bound {bound:.3e}"
        )
    return worst


def _pick_resolving(values: np.ndarray) -> int:
    """Index of the first coordinate whose samples are not all scalar.

    values has shape (d, nq, nphi, S, S).
    """
    d, _, _, S, _ = values.shape
    eye = np.eye(S)
    for k in range(d):
        v = values[k]
        scal = np.trace(v, axis1=-2, axis2=-1)[..., None, None] / S * eye
        if np.max(np.abs(v - scal)) > 1e-10:
            return k
    return 0


def _offdiag_abs(M: np.ndarray) -> np.ndarray:
    """|M - diag(M)| for a stack of square matrices on the last two axes."""
    return np.abs(M - np.einsum("...ss->...s", M)[..., None] * np.eye(M.shape[-1]))


def export_classical_surface(coords: Sequence[MatrixFourierFunction],
                             grid: Tuple[int, int] = (33, 32),
                             bound: float = 1e-2):
    """Rows (sheet, q, phi, x_1..x_d, offdiag) for the diagonalized sheets.

    Returns (header, table), where table is a float64 array with one row per sheet and
    sample, sample by sample in (q, phi) order.  The coordinates must share their block
    size and interval.  The first coordinate with genuine sheet structure picks the
    eigenbasis at each sample; samples where it is already diagonal keep their index order,
    so sheet k then reads entry (k, k) directly.  The export grid and the commutation
    probe's grid are sampled in one coefficient pass.
    """
    (qs, phis, values), (_, _, probe) = sample_on_grids(coords, (grid, _PROBE_GRID))
    check_commutation(coords, bound, values=probe)
    del probe  # not held through the eigh below
    S = values.shape[-1]
    A = values[_pick_resolving(values)]
    resolve = np.max(_offdiag_abs(A), axis=(-2, -1)) > _DIAG_TOL
    V = np.broadcast_to(np.eye(S), A.shape).astype(complex)
    V[resolve] = np.linalg.eigh(A[resolve])[1]
    del A  # a view: it would hold the samples through the rotation
    # the matrix axes first and the samples last and contiguous, where einsum loops over
    # samples; each entry is the same sum over (a, b) as on the (..., S, S) layout
    Vh, values, V = (np.ascontiguousarray(np.moveaxis(x, (-2, -1), (at, at + 1)))
                     for x, at in ((V.conj(), 0), (values, 1), (V, 0)))
    rotated = np.moveaxis(np.einsum("as...,kab...,bt...->kst...", Vh, values, V), (1, 2), (-2, -1))
    offmax = np.max(_offdiag_abs(rotated), axis=(0, -2, -1))
    diag = np.real(np.einsum("...ss->...s", rotated))  # (d, nq, nphi, S)
    columns = np.broadcast_arrays(np.arange(S), qs[:, None, None], phis[:, None], *diag,
                                  offmax[..., None])
    header = ["sheet", "q", "phi"] + [f"x{k + 1}" for k in range(len(diag))] + ["offdiag"]
    return header, np.stack(columns, -1).reshape(-1, len(header))


def surface_csv(header, table) -> str:
    """The header line, then one line per row of the float64 table: the sheet as %d, the
    other cells as %.10g.  Each column's distinct cells are formatted once
    (`matrixio.format_distinct`), each with the separator that follows it; the text is
    then one join over references to those cells, with no string made per row."""
    last = len(header) - 1
    columns = [format_distinct(column, "%d" if k == 0 else "%.10g", "\n" if k == last else ",")
               for k, column in enumerate(table.T)]
    return ",".join(header) + "\n" + "".join(np.stack(columns, axis=1).ravel().tolist())
