"""SVG dot-matrix rendering."""

import re

import numpy as np
import pytest

from fuzzyreg.errors import DomainError
from fuzzyreg.regularize import FuzzyMatrix
from fuzzyreg.render import render_dot_matrix
from refs import oracle_matrices

ORACLE = oracle_matrices()
# with no NaN the largest magnitude is inf, so the infinite entries get NaN radii
_special = ORACLE["special"].data
ORACLE["infinite"] = FuzzyMatrix(np.where(np.isnan(_special), np.inf, _special), 7, 1)


def matrix_of(data):
    """Wrap a plain square array as an S = 1 FuzzyMatrix."""
    return FuzzyMatrix(data, data.shape[0], 1)


def radii(svg):
    return [float(m) for m in re.findall(r'r="([0-9.]+)"', svg)]


class TestRenderDotMatrix:
    def test_zero_matrix_gets_minimal_dots(self):
        svg = render_dot_matrix(matrix_of(np.zeros((3, 3))), cell=10.0)
        assert svg.startswith('<?xml version="1.0"')
        assert svg.endswith("</svg>\n")
        assert svg.count("<circle") == 9
        assert radii(svg) == [0.4] * 9

    def test_largest_entry_fills_its_cell(self):
        svg = render_dot_matrix(matrix_of(np.eye(4)), cell=10.0)
        rs = radii(svg)
        assert max(rs) == 5.0
        assert rs.count(5.0) == 4
        assert rs.count(0.4) == 12

    def test_area_scales_with_magnitude(self):
        data = np.diag([1.0, 0.25])
        svg = render_dot_matrix(matrix_of(data), threshold=0.01, cell=10.0)
        rs = radii(svg)
        assert 5.0 in rs
        assert 2.5 in rs

    def test_threshold_suppresses_small_entries(self):
        data = np.diag([1.0, 0.05])
        svg = render_dot_matrix(matrix_of(data), threshold=0.1, cell=10.0)
        rs = radii(svg)
        assert sorted(set(rs)) == [0.4, 5.0]
        assert rs.count(5.0) == 1

    def test_magnitude_of_complex_entries(self):
        data = np.array([[3.0 + 4.0j, 0.0], [0.0, 5.0]])
        svg = render_dot_matrix(matrix_of(data), threshold=0.0, cell=10.0)
        rs = radii(svg)
        assert rs.count(5.0) == 2

    def test_viewbox_matches_dimension(self):
        svg = render_dot_matrix(matrix_of(np.zeros((5, 5))), cell=8.0)
        assert 'viewBox="0 0 40 40"' in svg
        assert svg.count("<rect") == 1

    def test_rejects_bad_parameters(self):
        M = matrix_of(np.zeros((2, 2)))
        with pytest.raises(DomainError, match="nonnegative"):
            render_dot_matrix(M, threshold=-0.5)
        with pytest.raises(DomainError, match="positive"):
            render_dot_matrix(M, cell=0.0)
        with pytest.raises(DomainError, match="nonnegative"):
            render_dot_matrix(M, threshold=float("nan"))
        for cell in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="finite"):
                render_dot_matrix(M, cell=cell)

    def test_output_is_deterministic(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        M = matrix_of(data)
        assert render_dot_matrix(M) == render_dot_matrix(M)


def render_reference(M, threshold=0.1, cell=10.0):
    """The per-entry loop render_dot_matrix must match byte for byte."""

    def fmt(x):
        return f"{x:.4f}".rstrip("0").rstrip(".")

    side = M.dim * cell
    mags = np.abs(M.data)
    vmax = float(mags.max())
    rmin = 0.04 * cell
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(side)}" height="{fmt(side)}" viewBox="0 0 {fmt(side)} {fmt(side)}">',
        f'<rect width="{fmt(side)}" height="{fmt(side)}" fill="white"/>',
    ]
    for i in range(M.dim):
        for j in range(M.dim):
            v = mags[i, j]
            r = rmin
            if vmax > 0.0 and v >= threshold:
                r = max(0.5 * cell * float(np.sqrt(v / vmax)), rmin)
            lines.append(f'<circle cx="{fmt((j + 0.5) * cell)}" cy="{fmt((i + 0.5) * cell)}" '
                         f'r="{fmt(r)}" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("kw", [{}, {"threshold": 0.0}, {"threshold": 1e3}, {"cell": 7.5}],
                         ids=["default", "threshold-0", "threshold-above-max", "cell-7.5"])
@pytest.mark.parametrize("name", sorted(ORACLE))
def test_matches_the_per_entry_reference(name, kw):
    M = ORACLE[name]
    assert render_dot_matrix(M, **kw) == render_reference(M, **kw)
