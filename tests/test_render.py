"""SVG dot-matrix rendering."""

import re

import numpy as np
import pytest

from fuzzyreg.errors import DomainError
from fuzzyreg.fourier import FourierFunction
from fuzzyreg.regularize import make_grid, regularize_scalar
from fuzzyreg.render import render_dot_matrix


def matrix_of(data):
    """Wrap a plain array as a FuzzyMatrix via a real regularization."""
    N = data.shape[0]
    zero = FourierFunction((0.0, 1.0), {})
    M = regularize_scalar(zero, make_grid(N, (0.0, 1.0), "symmetric"))
    return M.replace_data(np.asarray(data, dtype=complex))


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
