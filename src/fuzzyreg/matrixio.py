"""Matrix dumps: CSV triplets and a compact binary format.

CSV: one line per entry, `row,col,re,im` with %.17g floats (lossless for
f64).  Binary: 16-byte header (magic b"FZMB", uint32 dim, uint32 S, uint32
reserved, little-endian) followed by row-major interleaved re/im float64.
Both formats are byte-deterministic for a given matrix.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DomainError, StructureError
from .regularize import FuzzyMatrix

MAGIC = b"FZMB"
_HEADER = struct.Struct("<4sIII")


def matrix_to_csv(M: FuzzyMatrix) -> str:
    lines = ["row,col,re,im"]
    data = M.data
    for i in range(M.dim):
        for j in range(M.dim):
            z = data[i, j]
            lines.append("%d,%d,%.17g,%.17g" % (i, j, z.real, z.imag))
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> FuzzyMatrix:
    """Inverse of `matrix_to_csv`; a malformed or incomplete dump raises StructureError."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "row,col,re,im":
        raise StructureError("matrix dump lacks its row,col,re,im header")
    rows, cols, res, ims = [], [], [], []
    for k, line in enumerate(lines[1:], start=2):
        try:
            i, j, re, im = line.split(",")
            rows.append(int(i))
            cols.append(int(j))
            res.append(float(re))
            ims.append(float(im))
        except ValueError as exc:
            raise StructureError(f"malformed matrix dump line {k}: {exc}") from None
    if not rows:
        raise StructureError("empty matrix dump")
    dim = max(max(rows), max(cols)) + 1
    if min(min(rows), min(cols)) < 0 or len(rows) != dim * dim:
        raise StructureError(f"matrix dump needs each of the {dim}x{dim} entries once")
    flat = np.array(rows) * dim + np.array(cols)
    if np.any(np.bincount(flat) != 1):
        raise StructureError("matrix dump repeats an entry")
    out = np.zeros(dim * dim, dtype=complex)
    out.real[flat] = res
    out.imag[flat] = ims
    return FuzzyMatrix(out.reshape(dim, dim), dim, 1)


def matrix_to_bytes(M: FuzzyMatrix) -> bytes:
    header = _HEADER.pack(MAGIC, M.dim, M.S, 0)
    interleaved = np.empty((M.dim, M.dim, 2), dtype="<f8")
    interleaved[..., 0] = M.data.real
    interleaved[..., 1] = M.data.imag
    return header + interleaved.tobytes()


def matrix_from_bytes(blob: bytes) -> FuzzyMatrix:
    if len(blob) < _HEADER.size:
        raise StructureError("truncated matrix dump")
    magic, dim, S, _ = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise StructureError(f"bad magic {magic!r}")
    expected = _HEADER.size + dim * dim * 16
    if len(blob) != expected:
        raise StructureError(f"dump length {len(blob)} != expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    pairs = flat.reshape(dim, dim, 2)
    data = pairs[..., 0] + 1j * pairs[..., 1]
    if S < 1 or dim % S:
        raise StructureError(f"inconsistent S = {S} for dim = {dim}")
    return FuzzyMatrix(data, dim // S, S)


def write_matrix(path, M: FuzzyMatrix, fmt: str = "bin"):
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(matrix_to_csv(M))
    elif fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(matrix_to_bytes(M))
    else:
        raise DomainError(f"unknown matrix format {fmt!r}")


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
