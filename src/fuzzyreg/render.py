"""Dot-matrix SVG rendering of fuzzy matrices.

One circle per entry, area proportional to the entry magnitude (radius to
its square root), scaled so the largest entry fills a cell.  Entries below
the threshold appear as minimal points.  As the `matrixio` CSV dump, the
circles are written row by row, each row one join with its `cy` as the
separator over a copy of a template row of minimal dots, on which only the
dots drawn to size are written.  Output bytes depend only on the matrix,
threshold, and cell size.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .regularize import FuzzyMatrix

_MIN_RADIUS_FRACTION = 0.04


def _fmt(x: float) -> str:
    """Fixed-precision float for byte-stable output."""
    return f"{x:.4f}".rstrip("0").rstrip(".")


def render_dot_matrix(M: FuzzyMatrix, threshold: float = 0.1, cell: float = 10.0) -> str:
    """Render |entries| of M as an SVG dot diagram.

    threshold >= 0: entries with magnitude below it are drawn as small fixed
    dots; the rest get radius (cell/2) * sqrt(|entry| / max|entry|).
    """
    threshold = float(threshold)
    if not threshold >= 0:
        raise DomainError(f"threshold must be a nonnegative number, got {threshold}")
    cell = float(cell)
    if not 0 < cell < np.inf:
        raise DomainError(f"cell size must be positive and finite, got {cell}")
    dim = M.dim
    mags = np.abs(M.data)
    vmax = float(mags.max()) if mags.size else 0.0
    rmin = _MIN_RADIUS_FRACTION * cell
    # the dots drawn to size, at or above the threshold: the rest are drawn at rmin
    rows, cols = np.nonzero((mags >= threshold) & (vmax > 0.0))
    radius = np.maximum(0.5 * cell * np.sqrt(mags[rows, cols] / vmax), rmin)
    values, index = np.unique(radius, return_inverse=True)
    tails = [f'" r="{_fmt(v)}" fill="black"/>\n' for v in values.tolist()]
    tails = np.array(tails, dtype=object)[index].tolist()
    pos = [_fmt((k + 0.5) * cell) for k in range(dim)]
    heads = [f'<circle cx="{cx}" cy="' for cx in pos]
    after = heads[1:] + [""]  # what follows each column's tail in a row
    minimal = f'" r="{_fmt(rmin)}" fill="black"/>\n'
    template = heads[:1] + [minimal + h for h in after]
    size = _fmt(dim * cell)
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
           f'version="1.1" width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
           f'<rect width="{size}" height="{size}" fill="white"/>\n']
    starts = np.searchsorted(rows, np.arange(dim + 1)).tolist()
    for i, a, b in zip(range(dim), starts, starts[1:]):
        row = template.copy()
        for k, j in enumerate(cols[a:b].tolist(), start=a):
            row[j + 1] = tails[k] + after[j]
        out.append(pos[i].join(row))
    out.append("</svg>\n")
    return "".join(out)
