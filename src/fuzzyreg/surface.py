"""Classical surface export.

Samples a tuple of matrix-valued coordinate functions on a (q, phi) grid,
diagonalizes the sheet structure pointwise, and emits one CSV row per sheet
and sample with the coordinate values plus a diagonality figure of merit.
The work is done on whole sample arrays: coefficients are evaluated once per
q, and every sample that needs an eigenbasis goes into one batched `eigh`.

Only makes sense when the coordinate functions commute to good accuracy as
matrix functions; the export refuses otherwise.  The probe takes each sample's
norm of [F, G] from one batched `eigvalsh` of Gram matrices, each sample scaled by
its largest |entry| (`verify.pointwise_commutator_sup`).  The CSV holds the sheet as
an integer and the other cells to 10 significant digits, one %-format per row.
"""

from __future__ import annotations

import itertools
from typing import Sequence, Tuple

import numpy as np

from .errors import CapabilityError, DomainError
from .fourier import MatrixFourierFunction, same_interval
from .verify import pointwise_commutator_sup, sample_on_grid

_DIAG_TOL = 1e-12


def check_commutation(coords: Sequence[MatrixFourierFunction], bound: float):
    """Pairwise sup-norm commutators from one 48 x 48 (q, phi) sampling of the
    coordinates; raise with a diagnostic above bound.  bound = inf only measures."""
    if not bound >= 0:
        raise DomainError(f"commutation bound must be a nonnegative number, got {bound}")
    if len(coords) < 2:
        return 0.0
    values = sample_on_grid(coords, (48, 48))[2]
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

    Returns (header, rows) where rows is a list of float tuples.  The first
    coordinate with genuine sheet structure picks the eigenbasis at each
    sample; samples where it is already diagonal keep their index order, so
    sheet k then reads entry (k, k) directly.
    """
    coords = tuple(coords)
    if not coords:
        raise DomainError("need at least one coordinate function")
    S = coords[0].S
    for c in coords[1:]:
        if c.S != S or not same_interval(coords[0], c):
            raise DomainError("coordinate functions must share block size and interval")
    qs, phis, values = sample_on_grid(coords, grid)
    check_commutation(coords, bound)
    # (d, nq, nphi, S, S); coefficients are evaluated once per q, not per sample
    values = np.stack(values)
    A = values[_pick_resolving(values)]
    resolve = np.max(_offdiag_abs(A), axis=(-2, -1)) > _DIAG_TOL
    V = np.broadcast_to(np.eye(S), A.shape).astype(complex)
    V[resolve] = np.linalg.eigh(A[resolve])[1]
    rotated = np.einsum("...as,k...ab,...bt->k...st", V.conj(), values, V)
    offmax = np.max(_offdiag_abs(rotated), axis=(0, -2, -1))
    diag = np.real(np.einsum("...ss->...s", rotated))  # (d, nq, nphi, S)
    columns = np.broadcast_arrays(np.arange(S), qs[:, None, None], phis[:, None], *diag,
                                  offmax[..., None])
    header = ["sheet", "q", "phi"] + [f"x{k + 1}" for k in range(len(coords))] + ["offdiag"]
    return header, [tuple(r) for r in np.stack(columns, -1).reshape(-1, len(header)).tolist()]


def surface_csv(header, rows) -> str:
    fmt = "%d" + ",%.10g" * (len(header) - 1)
    return "\n".join([",".join(header)] + [fmt % row for row in rows]) + "\n"
