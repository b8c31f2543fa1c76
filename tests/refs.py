"""Shared reference constructions for the string-vertex and writer tests.

The vertex blends two closed-form regularizations: a single figure-eight
cross-section below the transition window and an interlaced pair of circles
above it.  Both references are rebuilt here from their own builders so the
vertex tests compare against independent code paths, and
`blend_offdiag_reference` rebuilds the blended x and y entries mode by mode
and band by band.  `interpolated_angle_function` is the blended angular
function itself, the quadrature reference for the blend's mode
coefficients.  `oracle_matrices` holds the matrices the SVG and CSV
writers are byte-compared on, and `surface_csv_reference` the surface CSV
formatted cell by cell.  `csv_object_join` and `svg_object_join` are the
text writers as one join over an object array of every entry's pieces,
the oracles of the template-row writers.  `dense_cylinder_z`,
`dense_row_anchored_eight`, `dense_clifford_torus` and `dense_graph_vertex`
write coordinates as dense arrays, each with the diagonals it writes, and `stored_bands` lays such an
array out on those diagonals: the references of the builds on bands.
`shift_basis` is the regularization of a single mode e^{i a phi}.
`nonzero_diagonals` reads off the diagonals of a dense array that hold a
nonzero entry.  `serial_conjugation` conjugates a space's coordinates by
its sorted eigenbasis one after another with plain numpy products, the
eigenbasis phase-fixed column by column by `phase_fix_loop`: the oracle of
`diagonalize`'s concurrent conjugation and vectorized phase fix.
"""

import json
from pathlib import Path

import numpy as np

from fuzzyreg.cli import build_space
from fuzzyreg.fourier import FourierFunction
from fuzzyreg.interpolate import VertexParams, _table_values, build_string_vertex
from fuzzyreg.profiles import ComplexProfile, smooth_step
from fuzzyreg.regularize import (
    FuzzyMatrix,
    make_grid,
    regularize_matrix,
    regularize_scalar,
)
from fuzzyreg.spaces import (
    CurveSpec,
    DoubleCylinderSpec,
    build_immersed_cylinder,
    circle_to_eight_functions,
    interlaced_double_cylinder_function,
)
from fuzzyreg.transforms import matrix_poly_transform

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def random_closed_curve(rng, cutoff=5, interval=(0.0, 1.0)):
    """A random real closed curve with the given Fourier bandwidth."""
    x = FourierFunction(interval, {0: ComplexProfile.from_const(rng.normal())})
    y = FourierFunction(interval, {0: ComplexProfile.from_const(rng.normal())})
    for n in range(1, cutoff + 1):
        x = x + FourierFunction.cosine(interval, n, rng.normal()) \
            + FourierFunction.sine(interval, n, rng.normal())
        y = y + FourierFunction.cosine(interval, n, rng.normal()) \
            + FourierFunction.sine(interval, n, rng.normal())
    return CurveSpec(x, y)


def scalar_zone_reference(p):
    """Regularized figure-eight x and y on the doubled scalar grid.

    Entry (i, j) of the result corresponds to flat entry (i, j) of the
    vertex coordinates wherever the grid argument sits left of the window.
    """
    q1, q4 = p.interval
    span = q4 - q1
    q2 = p.profile.q2
    if q2 > q1:
        tr_scale = 1.0 / (q2 - q1)
        tr_shift = -(q2 + q1) / (q2 - q1)
    else:
        tr_scale, tr_shift = 1.0, 0.0
    interval = (2.0 * q1, 2.0 * q1 + 2.0 * span)
    xs, ys, zs = circle_to_eight_functions(
        interval, p.r1, tr_scale, tr_shift, z_offset=0.0, z_scale=1.0
    )
    zf = FourierFunction.from_profile(interval, zs)
    sg = make_grid(2 * p.N, interval, "symmetric")
    return tuple(regularize_scalar(f, sg) for f in (xs, ys, zf))


def interlaced_zone_reference(p, grid):
    """Regularized interlaced double cylinder on the vertex grid."""
    spec = DoubleCylinderSpec(p.interval, p.x0, p.r)
    X, Y, Z = interlaced_double_cylinder_function(spec)
    return tuple(regularize_matrix(F, grid) for F in (X, Y, Z))


def blend_coeff_reference(f1_table, f2_table, profile, m, q):
    """One mode of the blend, summed term by term as the closed form reads:
    every table entry, profile and sinc factor evaluated afresh for this m."""
    q = np.asarray(q, dtype=float)
    a = np.asarray(profile.alpha(q), float)
    t1 = np.asarray(profile.theta1(q), float)
    t2 = np.asarray(profile.theta2(q), float)

    def values(table):
        return {int(n): np.asarray(v(q) if callable(v) else complex(v) + 0.0 * q, dtype=complex)
                for n, v in table.items()}

    acc = np.zeros(np.broadcast(q, a).shape, dtype=complex)
    for n, val in values(f1_table).items():
        acc = acc + t1 * val * ((-1.0) ** (n - m)) * np.exp(1j * np.pi * (0.5 + a) * n) \
            * np.sinc(n - m + 0.5 + a)
    for n, val in values(f2_table).items():
        acc = acc + t2 * val * ((-1.0) ** (n - m)) * np.exp(1j * np.pi * a * n) \
            * np.sinc(n - m + a)
    return acc


def interpolated_angle_function(f1_table, f2_table, profile, q, phi):
    """The blended angular function x(q, phi) itself (for quadrature checks).

    The anti-periodic slot enters with a quarter-turn factor -i so that the
    one-period windowed transform reproduces interp_fourier_coeff exactly:
    interp_fourier_coeff(m) = (1/2pi) int_0^{2pi} x e^{-i m phi} dphi.
    """
    q = np.asarray(q, dtype=float)
    phi = np.asarray(phi, dtype=float)
    a = profile.alpha(q)
    t1 = np.asarray(profile.theta1(q), float)
    t2 = np.asarray(profile.theta2(q), float)
    v1 = _table_values(f1_table, q)
    v2 = _table_values(f2_table, q)
    f1 = sum(val * np.exp(1j * (n + 0.5) * phi + 1j * np.pi * (0.5 + a) * n)
             for n, val in v1.items())
    f2 = sum(val * np.exp(1j * n * phi + 1j * np.pi * a * n) for n, val in v2.items())
    return (-1j * t1 * f1 + t2 * f2) * np.exp(1j * a * (phi - np.pi))


def blend_offdiag_reference(f1_table, f2_table, profile, cutoff, grid, pivot=None):
    """The 2N x 2N matrix of one blended off-diagonal pair: mode m of the
    blend on band m of block (0, 1), its conjugate on band -m of block (1, 0),
    each band evaluated on its own grid arguments (folded about the pivot for
    a mirrored vertex)."""
    def band(m, rows, cols):
        q = grid.q(rows, cols)
        if pivot is not None:
            q = np.where(q <= pivot, q, 2.0 * pivot - q)
        return blend_coeff_reference(f1_table, f2_table, profile, m, q)

    out = np.zeros((2 * grid.N, 2 * grid.N), dtype=complex)
    for m in range(-cutoff, cutoff + 1):
        r = np.arange(grid.N - abs(m)) + max(0, -m)
        v = band(m, r, r + m)
        out[2 * r, 2 * (r + m) + 1] = v.real + 1j * v.imag
        w = np.conj(band(m, r + m, r))
        out[2 * (r + m) + 1, 2 * r] = w.real + 1j * w.imag
    return out


def zone_masks(grid, dim, q_lo, q_hi):
    """Boolean entry masks for the two asymptotic zones of a flat matrix."""
    ii, jj = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    qarg = grid.q(ii // 2, jj // 2)
    return qarg <= q_lo, qarg >= q_hi


def oracle_matrices():
    """name -> matrix: the immersed eight's x at N = 64, an S = 2 vertex
    coordinate, an all-zero matrix, a random complex matrix holding -0.0,
    +-inf and NaN parts, and the first coordinate of the Clifford recipe at
    n = 16, a `diagonalize` output whose real parts hold no two equal
    neighbours (no runs for the writers to find)."""
    eight = build_immersed_cylinder(*circle_to_eight_functions(), 64, "symmetric")
    vertex = build_string_vertex(VertexParams(N=8))
    recipe = json.loads((CONFIGS / "clifford_projection.json").read_text())
    clifford, _ = matrix_poly_transform(build_space(recipe["space"], n=16), recipe["transforms"])
    rng = np.random.default_rng(11)
    special = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    for part in (special.real, special.imag):
        picks = rng.integers(0, 7, size=(12, 2))
        part[picks[:, 0], picks[:, 1]] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=12)
    return {
        "eight-64": eight.coordinates[0],
        "vertex-S2": vertex.coordinates[0],
        "zeros": FuzzyMatrix(np.zeros((5, 5)), 5, 1),
        "special": FuzzyMatrix(special, 7, 1),
        "clifford-diag-16": clifford.coordinates[0],
    }


def dense_interior(data, delta):
    """|entries| of the dense interior block, rows and columns delta..dim-delta."""
    d = int(delta)
    return np.abs(data[d : len(data) - d, d : len(data) - d])


def dense_within_border_norm(data, delta):
    """Max absolute row sum of the dense interior block."""
    return float(np.max(np.sum(dense_interior(data, delta), axis=1)))


def dense_interior_max_entry(data, delta):
    """Max |entry| of the dense interior block."""
    return float(np.max(dense_interior(data, delta)))


def dense_lincomb(*terms):
    """c1 A1 + c2 A2 + ... for terms (c, A) of dense arrays, left to right,
    written as `verify` wrote its residuals: a first coefficient of 1 takes
    A as it is, a later 1 or -1 adds or subtracts A."""
    acc = None
    for c, A in terms:
        if acc is None:
            acc = A if c == 1 else c * A
        elif c == 1:
            acc = acc + A
        elif c == -1:
            acc = acc - A
        else:
            acc = acc + c * A
    return acc


def surface_csv_reference(header, rows):
    """The surface CSV with one f-string per cell: the sheet as int, every
    other value at 10 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        cells = [f"{int(row[0])}"] + [f"{v:.10g}" for v in row[1:]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _object_g17(x, end):
    """`"%.17g" + end` of each entry of a float64 array in its shape,
    formatted once per distinct bit pattern (-0.0 and 0.0 stay apart)."""
    bits, index = np.unique(np.ascontiguousarray(x).view(np.int64), return_inverse=True)
    text = np.array([("%.17g" + end) % v for v in bits.view(np.float64).tolist()], dtype=object)
    return text[index]


def csv_object_join(M):
    """The CSV dump as one join over a (dim, dim, 4) object array holding
    the row, column, re and im piece of each entry."""
    idx = np.array([f"{k}," for k in range(M.dim)], dtype=object)
    pieces = np.empty((M.dim, M.dim, 4), dtype=object)
    pieces[..., 0] = idx[:, None]
    pieces[..., 1] = idx
    pieces[..., 2] = _object_g17(M.data.real, ",")
    pieces[..., 3] = _object_g17(M.data.imag, "\n")
    return "row,col,re,im\n" + "".join(pieces.ravel().tolist())


def svg_object_join(M, threshold=0.1, cell=10.0):
    """The SVG dot render as one join over a (dim, dim, 3) object array
    holding the cx head, the cy and the radius tail of each circle."""

    def fmt(x):
        return f"{x:.4f}".rstrip("0").rstrip(".")

    dim, side = M.dim, M.dim * cell
    mags = np.abs(M.data)
    vmax = float(mags.max())
    rmin = 0.04 * cell
    radius = np.full(mags.shape, rmin)
    if vmax > 0.0:
        big = mags >= threshold
        radius[big] = np.maximum(0.5 * cell * np.sqrt(mags[big] / vmax), rmin)
    values, index = np.unique(radius, return_inverse=True)
    pos = [fmt((k + 0.5) * cell) for k in range(dim)]
    pieces = np.empty((dim, dim, 3), dtype=object)
    pieces[..., 0] = np.array([f'<circle cx="{cx}" cy="' for cx in pos], dtype=object)
    pieces[..., 1] = np.array(pos, dtype=object)[:, None]
    tails = np.array([f'" r="{fmt(v)}" fill="black"/>\n' for v in values], dtype=object)
    pieces[..., 2] = tails[index]
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(side)}" height="{fmt(side)}" '
        f'viewBox="0 0 {fmt(side)} {fmt(side)}">\n'
        f'<rect width="{fmt(side)}" height="{fmt(side)}" fill="white"/>\n'
    )
    return head + "".join(pieces.ravel().tolist()) + "</svg>\n"


def phase_fix_loop(V):
    """Each column of V turned, one column at a time, so its largest-magnitude
    component is real positive; a column with a zero pivot is kept."""
    W = np.array(V)
    for j in range(W.shape[1]):
        col = W[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if pivot != 0:
            W[:, j] = col * (np.conj(pivot) / abs(pivot))
    return W


def nonzero_diagonals(data):
    """The diagonals (column minus row) of a dense array holding a nonzero entry, sorted."""
    rows, cols = np.nonzero(data)
    return tuple(sorted(set((cols - rows).tolist())))


def stored_bands(data, offsets):
    """The bands a matrix recording `offsets` stores for the dense array `data`:
    row i, column k holds data[i, i + offsets[0] + k] on each recorded diagonal,
    zero on the diagonals between them and on cells outside the matrix."""
    dim, lo = len(data), offsets[0]
    bands = np.zeros((dim, offsets[-1] - lo + 1), dtype=complex)
    for o in offsets:
        rows = np.arange(dim - abs(o)) + max(0, -o)
        bands[rows, o - lo] = data[rows, rows + o]
    return bands


def dense_cylinder_z(curve, N, z_offset=0.0):
    """The generalized cylinder's z, z_offset + beta q(n, n) for n = 0..N-1 on
    the symmetric grid, as a dense diagonal, and the diagonals it writes."""
    q1, q2 = curve.x_series.interval
    step = (q2 - q1) / (2.0 * N)
    n = np.arange(N)
    zvals = z_offset + curve.z_beta * (q1 + step * n + step * n)
    return np.diag(zvals.astype(complex)), (0,)


def dense_row_anchored_eight(N):
    """(x, y, z) of the row-anchored circle-to-eight, each band written into a
    dense array entry by entry (band 3 writes nothing below N = 4), each with
    the diagonals it writes."""
    qrow = -1.0 + 2.0 * np.arange(N) / N
    hv = smooth_step()(qrow)

    def banded(weights_by_band, factor):
        out, written = np.zeros((N, N), dtype=complex), set()
        for band, w in weights_by_band:
            idx = np.arange(N - band)
            out[idx, idx + band] = factor * w[idx]
            out[idx + band, idx] = np.conj(factor) * w[idx]
            if len(idx):
                written |= {band, -band}
        return out, tuple(sorted(written))

    xm = banded(((1, (1.0 + 0.5 * hv) * 0.5), (3, 0.25 * hv)), 1.0)
    ym = banded(((1, (1.0 - 0.5 * hv) * 0.5), (3, 0.25 * hv)), 1j)
    zvals = (1.0 + qrow) / 2.0
    return xm, ym, (np.diag(zvals.astype(complex)), (0,))


def shift_basis(a, N):
    """e_a = sum_n |n><n+a|, the regularization of e^{i a phi} on [0, 1] (ones
    on the a-th diagonal; a = 0 is the identity)."""
    return regularize_scalar(FourierFunction((0.0, 1.0), {a: 1.0}), make_grid(N, (0.0, 1.0)))


def dense_clifford_torus(a, b, N):
    """(x1, y1, x2, y2) of the Clifford torus by dense arithmetic on e_1 and
    e_{-1}, each with the diagonals it writes."""
    e1, em1 = shift_basis(1, N).data, shift_basis(-1, N).data
    angles = 2.0 * np.pi * np.arange(1, N + 1) / N
    return ((0.5 * a * (e1 + em1), (-1, 1)), (0.5j * a * (e1 - em1), (-1, 1)),
            (np.diag(b * np.cos(angles)).astype(complex), (0,)),
            (np.diag(b * np.sin(angles)).astype(complex), (0,)))


def dense_graph_vertex(spec):
    """The graph vertex's band matrix assembled entry by entry into a dense
    array, and the diagonals -2..2 it writes."""
    D, n0 = spec.dim, spec.n0
    F = np.zeros((D, D), dtype=complex)
    k = np.arange(n0 - 1)  # the upper strand
    F[k, k + 1], F[k + 1, k] = spec.upper_band(), np.conj(spec.upper_band())
    r = complex(spec.r_junction)
    F[n0 - 1, [n0, n0 + 1]], F[[n0, n0 + 1], n0 - 1] = r, np.conj(r)
    t = n0 + 2 * np.arange(spec.lower_blocks)  # the first row of each lower block
    F[t, t], F[t + 1, t + 1] = -spec.lower_diag(), spec.lower_diag()
    i = np.arange(n0, D - 2)  # both lower strands
    rb = spec.lower_band()[(i - n0) // 2]
    F[i, i + 2], F[i + 2, i] = rb, np.conj(rb)
    return F, (-2, -1, 0, 1, 2)


def serial_conjugation(space, index):
    """V^H C V for each coordinate C of `space`, one after another on the
    calling thread, where V is coordinate `index`'s eigenbasis built as
    `diagonalize_coordinate` builds it (real for a real coordinate, cast to
    complex, its phases fixed by `phase_fix_loop`); each product is the
    dense BLAS product `product` runs on C-contiguous operands, left factor
    first."""
    A = space.coordinates[index].data
    w, V = np.linalg.eigh(A.real) if np.max(np.abs(A.imag)) < 1e-12 else np.linalg.eigh(A)
    V = phase_fix_loop(V.astype(complex)[:, np.argsort(w, kind="stable")])
    Vh = np.ascontiguousarray(V.conj().T)
    return [(Vh @ C.data) @ V for C in space.coordinates]
