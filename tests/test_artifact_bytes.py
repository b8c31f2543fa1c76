"""Byte pins for the text artifacts, the CSV dump and the SVG dot render,
and the writers against their object-array oracles.

Each case is rebuilt from its builder and written by `matrix_to_csv` and
`render_dot_matrix` (default threshold and cell); the sha256 of each
writer's output, concatenated over the case's matrices, is compared with
digests recorded from an earlier implementation that joined one object
piece per part of every entry.  The cases span banded coordinates (the
immersed eight at n = 256, the row-anchored eight at n = 2 and 3), dense
ones (the Clifford recipe's `diagonalize` output at n = 256, whose bytes
also rest on the LAPACK build, as the benchmark's own sha256 references
do), the graph vertex, whose default x_lower = 0 puts -0.0 on its
diagonal 0, and a small matrix of signed zeros, NaNs and infinities.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyreg.cli import build_space
from fuzzyreg.matrixio import matrix_to_csv
from fuzzyreg.regularize import FuzzyMatrix
from fuzzyreg.render import render_dot_matrix
from fuzzyreg.spaces import build_immersed_cylinder, circle_to_eight_functions
from fuzzyreg.transforms import matrix_poly_transform

from refs import CONFIGS, csv_object_join, svg_object_join

SPECIAL = np.array([
    [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)],
    [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, -np.inf), 1.5],
    [complex(-np.inf, 0.0), complex(2.0, np.inf), complex(-np.nan, -0.0), 0.0],
    [complex(1e-300, -2.5), 0.0, complex(-0.0, np.inf), complex(3.0, 4.0)],
])


def clifford_diagonalized(n):
    recipe = json.loads((CONFIGS / "clifford_projection.json").read_text())
    space, _ = matrix_poly_transform(build_space(recipe["space"], n=n), recipe["transforms"])
    return space.coordinates


CASES = {
    "eight-256": lambda: build_immersed_cylinder(
        *circle_to_eight_functions(), 256, "symmetric").coordinates,
    "clifford-diag-256": lambda: [clifford_diagonalized(256)[k] for k in (0, 7)],
    "graph-vertex": lambda: build_space(
        {"preset": "graph-vertex", "dim": 40, "n0": 10}).coordinates[:1],
    "row-anchored-eight-2": lambda: build_space(
        {"preset": "circle-to-eight", "convention": "row-anchored"}, n=2).coordinates,
    "row-anchored-eight-3": lambda: build_space(
        {"preset": "circle-to-eight", "convention": "row-anchored"}, n=3).coordinates,
    "special": lambda: [FuzzyMatrix(SPECIAL, 4, 1)],
}

WRITERS = {"csv": matrix_to_csv, "svg": render_dot_matrix}

DIGESTS = {
    ("clifford-diag-256", "csv"): "9a7a61d2c8f638d437b8879a6926e56648adc1d3dce8b4776c744cd1a2f1f723",
    ("clifford-diag-256", "svg"): "1cb3ebca533fb26023fe8ddc1e3b135697f6b840f0c5494cced96278110c43a5",
    ("eight-256", "csv"): "2b17b64ecd4af6bc7c6d9004495912186c6f74388918a43c8490cf37dc785b5a",
    ("eight-256", "svg"): "fcd7260cca7d0e79d49173ae15459c46cc1eac2a5e57deb9c73faa2718059fec",
    ("graph-vertex", "csv"): "8fe6558b37f9e74cc70c89249f1452fc555bcf134824e37e3a8ceff2285c3ccc",
    ("graph-vertex", "svg"): "5ee318e5009a8d4f153dd443cfef5778ddc8204188247a4f6c006dd41d7a361e",
    ("row-anchored-eight-2", "csv"): "d36dfbefc5d4ac4d162545d82196b4c47ada1b0735f1b2d77401be95457c407d",
    ("row-anchored-eight-2", "svg"): "9451b85c9aa3c0a32ff8de1ead4eb4048fa5b0284210732d43be8e122785ffc3",
    ("row-anchored-eight-3", "csv"): "38a5818cc8f2054104db15c2352560efcd5ceace3f526e13cdbc9df2ce7eef2c",
    ("row-anchored-eight-3", "svg"): "d3a09d077603e4f2056577af9ec62ea543ce4a00c91535b4f63aed4ff3b24662",
    ("special", "csv"): "7dc47f417afd844e3467fe5a6ad445ee4a80ef69be02659ccfd5193daa615a99",
    ("special", "svg"): "3518389450e27584c0cca8fa0cb0a87cf93ecca6c30340ac0f21292ffaa477de",
}


def test_the_graph_vertex_case_holds_negative_zeros():
    F = CASES["graph-vertex"]()[0]
    assert np.any(np.signbit(np.diagonal(F.data).real) & (np.diagonal(F.data).real == 0))


@pytest.mark.parametrize("name, fmt", sorted(DIGESTS), ids=lambda v: str(v))
def test_text_artifact_bytes_are_pinned(name, fmt):
    text = "".join(WRITERS[fmt](M) for M in CASES[name]())
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == DIGESTS[name, fmt]


# a part is +0.0 (the template cell) most often, else a signed zero, a
# special value or a float of any size
_PART = st.one_of(st.just(0.0), st.sampled_from([-0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0]),
                  st.floats(width=64))


@st.composite
def matrices(draw):
    """A dim 1-6 matrix, dense or zero off a random set of diagonals."""
    dim = draw(st.integers(1, 6))
    parts = draw(st.lists(_PART, min_size=2 * dim * dim, max_size=2 * dim * dim))
    data = np.array(parts).view(complex).reshape(dim, dim)
    if draw(st.booleans()):  # banded
        offsets = draw(st.sets(st.integers(1 - dim, dim - 1), max_size=3))
        rows, cols = np.indices((dim, dim))
        data[~np.isin(cols - rows, list(offsets))] = 0.0
    return FuzzyMatrix(data, dim, 1)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@given(matrices(), st.sampled_from([0.0, 0.1, 1e3]), st.sampled_from([10.0, 7.5]))
def test_writers_match_their_object_array_oracles(M, threshold, cell):
    assert matrix_to_csv(M) == csv_object_join(M)
    assert render_dot_matrix(M, threshold, cell) == svg_object_join(M, threshold, cell)
