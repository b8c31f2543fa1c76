"""Matrix dumps: CSV triplets and a compact binary format.

CSV: one ASCII line per entry, `row,col,re,im` with %.17g floats, lossless for
every f64 but the sign and payload of NaN (`'%.17g' % -nan` is `nan`), built by
one join over an array of four pieces per entry and read by numpy's C parser,
which refuses blank lines and comments.  Each distinct bit pattern of a part
is formatted once, with its separator, and `distinct` finds them on runs: a
regularized coordinate is banded, so its row-major entries are long runs of
zeros, and sorting the run heads instead of every entry is what keeps the
text writers (this one and `render`) fast.  Binary: 16-byte header (magic
b"FZMB", uint32 dim, uint32 S, uint32 reserved, little-endian) followed by
the row-major complex128 entries, interleaved re/im float64.  Both formats
are byte-deterministic for a given matrix.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DomainError, StructureError
from .regularize import FuzzyMatrix

MAGIC = b"FZMB"
_HEADER = struct.Struct("<4sIII")


def distinct(x: np.ndarray) -> tuple:
    """`np.unique(x, return_inverse=True)`, found on the runs of equal
    neighbours in x's row-major order: one comparison pass marks where each
    run starts, `np.unique` sorts only the run heads, and `np.repeat` spreads
    their inverse over each run.  The inverse is np.unique's, in x's shape.
    So are the values, bit for bit, but where equal floats differ in their
    bits (-0.0 and 0.0, NaNs of other signs or payloads): np.unique's
    unstable sort lets any one of them stand for the class, and so does this.

    It wins where x holds few runs: a part of the eight at N = 256 (65,536
    entries, 2,033 runs, 509 distinct) takes 0.15 ms against 3-5 ms.  With
    no runs it is slower: 0.45 against 0.39 ms on the 15,328 q values of an
    eight sweep, so `regularize_schedule` keeps np.unique, and 2.2 against
    1.8 ms on a part of a 256 x 256 `diagonalize` output.
    """
    flat = np.ravel(x)
    if not flat.size:
        return np.unique(x, return_inverse=True)
    heads = np.empty(flat.size, dtype=bool)
    heads[0] = True
    np.not_equal(flat[1:], flat[:-1], out=heads[1:])
    values, index = np.unique(flat[heads], return_inverse=True)
    lengths = np.diff(np.flatnonzero(heads), append=flat.size)
    return values, np.repeat(index, lengths).reshape(np.shape(x))


def _g17(x: np.ndarray, end: str) -> np.ndarray:
    """`"%.17g" + end` of each entry in x's shape, formatted once per distinct bit pattern (-0.0 and 0.0 stay apart)."""
    bits, index = distinct(np.ascontiguousarray(x).view(np.int64))
    form = "%.17g" + end
    text = np.array([form % v for v in bits.view(np.float64).tolist()], dtype=object)
    return text[index]


def matrix_to_csv(M: FuzzyMatrix) -> str:
    idx = np.array([f"{k}," for k in range(M.dim)], dtype=object)
    pieces = np.empty((M.dim, M.dim, 4), dtype=object)
    pieces[..., 0] = idx[:, None]
    pieces[..., 1] = idx
    pieces[..., 2] = _g17(M.data.real, ",")
    pieces[..., 3] = _g17(M.data.imag, "\n")
    return "row,col,re,im\n" + "".join(pieces.ravel().tolist())


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
