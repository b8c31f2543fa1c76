"""Dot-matrix SVG rendering of fuzzy matrices.

One circle per entry, area proportional to the entry magnitude (radius to
its square root), scaled so the largest entry fills a cell.  Entries below
the threshold appear as minimal points.  Output bytes depend only on the
matrix, threshold, and cell size.
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
    side = dim * cell
    mags = np.abs(M.data)
    vmax = float(mags.max()) if mags.size else 0.0
    rmin = _MIN_RADIUS_FRACTION * cell
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(side)}" height="{_fmt(side)}" '
        f'viewBox="0 0 {_fmt(side)} {_fmt(side)}">',
        f'<rect width="{_fmt(side)}" height="{_fmt(side)}" fill="white"/>',
    ]
    for i in range(dim):
        cy = (i + 0.5) * cell
        for j in range(dim):
            cx = (j + 0.5) * cell
            v = mags[i, j]
            if vmax > 0.0 and v >= threshold:
                r = 0.5 * cell * float(np.sqrt(v / vmax))
                r = max(r, rmin)
            else:
                r = rmin
            lines.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="black"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
