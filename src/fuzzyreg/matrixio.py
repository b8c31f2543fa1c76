"""Matrix dumps: CSV triplets and a compact binary format.

CSV: one ASCII line per entry, `row,col,re,im` with %.17g floats, lossless for
every f64 but the sign and payload of NaN (`'%.17g' % -nan` is `nan`), read by
numpy's C parser, which refuses blank lines and comments.  A regularized
coordinate is banded, so the dump is written row by row: row i is one join,
with `i,` as the separator, over a copy of a template row of `j,0,0` lines,
on which only the entries whose parts are not both +0.0 bit for bit (so
-0.0 and NaN too) are written, each distinct part formatted once by
`format_distinct`, which formats the surface CSV's columns too.  A row with
no such zero is laid out by slices.  Binary: 16-byte header (magic
b"FZMB", uint32 dim, uint32 S, uint32 reserved, little-endian) followed by
the row-major complex128 entries, interleaved re/im float64.  A dump of
either format with no entry is refused; both are byte-deterministic.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DomainError, StructureError
from .regularize import FuzzyMatrix

MAGIC = b"FZMB"
_HEADER = struct.Struct("<4sIII")


def format_distinct(values: np.ndarray, form: str, end: str) -> np.ndarray:
    """`form % v + end` of each float64 v of a 1-D array, as an object array: each distinct
    bit pattern is formatted once, all in one %-format (a float key would merge -0.0 with
    0.0, which format apart)."""
    keys, where = np.unique(values.view(np.int64), return_inverse=True)
    text = (form + end + "\0") * len(keys) % tuple(keys.view(np.float64).tolist())
    return np.array(text.split("\0")[:-1], dtype=object)[where]


def matrix_to_csv(M: FuzzyMatrix) -> str:
    dim = M.dim
    parts = np.ascontiguousarray(M.data, complex).view(np.float64).reshape(dim, dim, 2)
    bits = parts.view(np.int64)
    rows, cols = np.nonzero(bits[..., 0] | bits[..., 1])  # the cells not written "0,0"
    re = format_distinct(parts[rows, cols, 0], "%.17g", ",").tolist()
    im = format_distinct(parts[rows, cols, 1], "%.17g", "\n").tolist()
    idx = [f"{k}," for k in range(dim)]
    template = [f"{k},0,0\n" for k in range(dim)]
    full = [piece for j in idx for piece in (None, j, None, None)]
    out = ["row,col,re,im\n"]
    starts = np.searchsorted(rows, np.arange(dim + 1)).tolist()
    for i, a, b in zip(range(dim), starts, starts[1:]):
        if b - a == dim:  # no "0,0" cell: lay the row's pieces out by slices
            full[0::4], full[2::4], full[3::4] = [idx[i]] * dim, re[a:b], im[a:b]
            out.append("".join(full))
            continue
        row = template.copy()
        for k, j in enumerate(cols[a:b].tolist(), start=a):
            row[j] = idx[j] + re[k] + im[k]
        out += (idx[i], idx[i].join(row))
    return "".join(out)


def matrix_from_csv(text: str) -> FuzzyMatrix:
    """Inverse of `matrix_to_csv`; a malformed or incomplete dump raises StructureError."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "row,col,re,im":
        raise StructureError("matrix dump lacks its row,col,re,im header")
    if len(lines) == 1:
        raise StructureError("empty matrix dump")
    try:
        cells = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=1,
                           dtype=[("i", "<i8"), ("j", "<i8"), ("re", "<f8"), ("im", "<f8")])
    except ValueError as exc:  # name the first bad line, counted in the file
        where, first = f": {exc}", text[: len(text) - len(text.lstrip())].count("\n") + 2
        for k, line in enumerate(lines[1:], start=first):
            try:
                i, j, re, im = line.split(",")
                np.array([int(i), int(j)], "<i8"), float(re), float(im)
            except (ValueError, OverflowError) as bad:
                where = f" line {k}: {bad}"
                break
        raise StructureError(f"malformed matrix dump{where}") from None
    if len(cells) != len(lines) - 1:
        raise StructureError("matrix dump has a blank line")
    rows, cols = cells["i"], cells["j"]
    dim = int(max(rows.max(), cols.max())) + 1
    if min(rows.min(), cols.min()) < 0 or len(rows) != dim * dim:
        raise StructureError(f"matrix dump needs each of the {dim}x{dim} entries once")
    flat = rows * dim + cols
    if np.any(np.bincount(flat) != 1):
        raise StructureError("matrix dump repeats an entry")
    out = np.zeros(dim * dim, dtype=complex)
    out.real[flat] = cells["re"]
    out.imag[flat] = cells["im"]
    return FuzzyMatrix(out.reshape(dim, dim), dim, 1)


def matrix_to_bytes(M: FuzzyMatrix) -> bytes:
    return _HEADER.pack(MAGIC, M.dim, M.S, 0) + np.ascontiguousarray(M.data, "<c16").tobytes()


def matrix_from_bytes(blob: bytes) -> FuzzyMatrix:
    if len(blob) < _HEADER.size:
        raise StructureError("truncated matrix dump")
    magic, dim, S, _ = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise StructureError(f"bad magic {magic!r}")
    if dim == 0:
        raise StructureError("empty matrix dump")
    expected = _HEADER.size + dim * dim * 16
    if len(blob) != expected:
        raise StructureError(f"dump length {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, "<c16", offset=_HEADER.size).reshape(dim, dim).copy()
    if S < 1 or dim % S:
        raise StructureError(f"inconsistent S = {S} for dim = {dim}")
    return FuzzyMatrix(data, dim // S, S)


def write_matrix(path, M: FuzzyMatrix, fmt: str = "bin"):
    if fmt == "csv":
        blob = matrix_to_csv(M).encode("ascii")
    elif fmt == "bin":
        blob = matrix_to_bytes(M)
    else:
        raise DomainError(f"unknown matrix format {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(blob)


def read_matrix(path) -> FuzzyMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == MAGIC:
        return matrix_from_bytes(blob)
    try:
        text = blob.decode()
    except UnicodeDecodeError as exc:
        raise StructureError(f"{path} is neither an FZMB nor a UTF-8 CSV dump: {exc}") from None
    return matrix_from_csv(text)
