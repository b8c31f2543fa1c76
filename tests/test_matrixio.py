"""Matrix dump formats: CSV text and the binary container."""

import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzzyreg.cli import run_cli
from fuzzyreg.errors import DomainError, StructureError
from fuzzyreg.matrixio import (
    MAGIC,
    matrix_from_bytes,
    matrix_from_csv,
    matrix_to_bytes,
    matrix_to_csv,
    read_matrix,
    write_matrix,
)
from fuzzyreg.regularize import FuzzyMatrix
from refs import oracle_matrices

SPECIAL = np.array([[-0.0, complex(-0.0, -0.0), complex(0.0, -0.0)],
                    [complex(2.0, np.inf), complex(np.nan, -np.inf), complex(-np.inf, 1.0)],
                    [complex(np.inf, np.nan), 0.0, complex(-1.5, np.nan)]])


def random_matrix(rng, N=7, S=1):
    dim = N * S
    data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return FuzzyMatrix(data, N, S)


def test_csv_round_trip_is_lossless():
    rng = np.random.default_rng(42)
    M = random_matrix(rng)
    text = matrix_to_csv(M)
    assert text.splitlines()[0] == "row,col,re,im"
    back = matrix_from_csv(text)
    assert np.array_equal(back.data, M.data)
    assert back.dim == M.dim
    special = np.array([[-0.0, complex(-0.0, -0.0)],
                        [complex(1.0, np.inf), complex(np.nan, -np.inf)]])
    back = matrix_from_csv(matrix_to_csv(FuzzyMatrix(special, 2, 1)))
    assert back.data.tobytes() == special.tobytes()


def test_csv_flattens_slot_structure():
    rng = np.random.default_rng(43)
    M = random_matrix(rng, N=3, S=2)
    back = matrix_from_csv(matrix_to_csv(M))
    assert back.S == 1 and back.dim == 6
    assert np.array_equal(back.data, M.data)


@pytest.mark.filterwarnings("error")
def test_empty_csv_rejected():
    for text in ("row,col,re,im\n", "row,col,re,im\n\n\n", "row,col,re,im"):
        with pytest.raises(StructureError, match="empty"):
            matrix_from_csv(text)


# every float64 but NaN, whose sign and payload %.17g does not keep
_F64 = st.floats(allow_nan=False, width=64)


@given(st.integers(1, 4).flatmap(lambda dim: st.lists(_F64, min_size=2 * dim * dim,
                                                      max_size=2 * dim * dim)))
@example([0.0, -0.0, 5e-324, -2.2250738585072009e-308,
          1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf])
def test_csv_round_trip_keeps_every_bit_pattern(values):
    """Interleaved (re, im) values of a square matrix come back bitwise."""
    dim = int(round((len(values) / 2) ** 0.5))
    data = np.array(values).view(complex).reshape(dim, dim)
    M = FuzzyMatrix(data, dim, 1)
    back = matrix_from_csv(matrix_to_csv(M))
    assert back.data.tobytes() == M.data.tobytes()


def test_binary_round_trip_preserves_layout():
    rng = np.random.default_rng(44)
    M = random_matrix(rng, N=4, S=2)
    raw = matrix_to_bytes(M)
    assert raw[:4] == MAGIC
    back = matrix_from_bytes(raw)
    assert back.N == 4 and back.S == 2
    assert np.array_equal(back.data, M.data)


def test_binary_corruption_detected():
    rng = np.random.default_rng(45)
    raw = matrix_to_bytes(random_matrix(rng))
    with pytest.raises(StructureError):
        matrix_from_bytes(raw[:10])
    with pytest.raises(StructureError):
        matrix_from_bytes(b"XXXX" + raw[4:])
    with pytest.raises(StructureError):
        matrix_from_bytes(raw[:-8])


def test_binary_layout_consistency_checked():
    payload = np.zeros(25, dtype=complex).tobytes()
    raw = struct.pack("<4sIII", MAGIC, 5, 2, 0) + payload
    with pytest.raises(StructureError):
        matrix_from_bytes(raw)


def test_empty_binary_dump_rejected(tmp_path, capsys):
    # refused as its CSV counterpart, a header with no entry, is
    raw = struct.pack("<4sIII", MAGIC, 0, 1, 0)
    with pytest.raises(StructureError, match="empty matrix dump"):
        matrix_from_bytes(raw)
    path = tmp_path / "m.fzmb"
    path.write_bytes(raw)
    with pytest.raises(StructureError, match="empty matrix dump"):
        read_matrix(path)
    assert run_cli(["render", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "empty matrix dump" in capsys.readouterr().err
    assert not (tmp_path / "out" / "m.svg").exists()


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_write_and_read_back(tmp_path, fmt):
    rng = np.random.default_rng(46)
    M = random_matrix(rng, N=5)
    path = tmp_path / f"m.{fmt}"
    write_matrix(path, M, fmt)
    back = read_matrix(path)
    assert np.array_equal(back.data, M.data)
    write_matrix(path, FuzzyMatrix(SPECIAL, 3, 1), fmt)
    assert read_matrix(path).data.tobytes() == SPECIAL.tobytes()
    dump = matrix_to_csv(M).encode("ascii") if fmt == "csv" else matrix_to_bytes(M)
    write_matrix(path, M, fmt)
    assert path.read_bytes() == dump


def csv_reference(M):
    """The per-entry loop matrix_to_csv must match byte for byte."""
    lines = ["row,col,re,im"]
    for i in range(M.dim):
        for j in range(M.dim):
            z = M.data[i, j]
            lines.append("%d,%d,%.17g,%.17g" % (i, j, z.real, z.imag))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, M", sorted(oracle_matrices().items()))
def test_csv_matches_the_per_entry_reference(name, M):
    assert matrix_to_csv(M) == csv_reference(M)


@pytest.mark.parametrize("name, M", sorted(oracle_matrices().items()))
def test_bytes_are_the_header_and_the_interleaved_parts(name, M):
    interleaved = np.empty((M.dim, M.dim, 2), dtype="<f8")
    interleaved[..., 0] = M.data.real
    interleaved[..., 1] = M.data.imag
    assert matrix_to_bytes(M) == struct.pack("<4sIII", MAGIC, M.dim, M.S, 0) + interleaved.tobytes()


def test_write_matrix_rejects_unknown_format(tmp_path):
    rng = np.random.default_rng(47)
    with pytest.raises(ValueError) as err:
        write_matrix(tmp_path / "m.json", random_matrix(rng), "json")
    assert isinstance(err.value, DomainError)
    assert not (tmp_path / "m.json").exists()


GOOD_CSV = b"row,col,re,im\n0,0,1,0\n0,1,2,0\n1,0,3,0\n1,1,4,0\n"


@pytest.mark.parametrize("text", [
    GOOD_CSV.replace(b"0,1,2,0", b"0,1,2"),
    GOOD_CSV.replace(b"0,1,2,0", b"0,1,2,0,0"),
    GOOD_CSV.replace(b"0,1,2,0", b"0,1,two,0"),
    GOOD_CSV.replace(b"0,1,2,0", b"0,1.5,2,0"),
    GOOD_CSV.replace(b"0,1,2,0", b"0,-1,2,0"),
    GOOD_CSV.replace(b"0,1,2,0", b"0,1,\xff,0"),
    GOOD_CSV.replace(b"row,col,re,im\n", b""),
    GOOD_CSV.replace(b"0,1,2,0\n", b""),
    GOOD_CSV.replace(b"0,1,2,0", b"0,0,2,0"),
    GOOD_CSV.replace(b"0,1,2,0", b"0,99999999999999999999,2,0"),
    GOOD_CSV.replace(b"0,1,2,0\n", b"0,1,2,0\n\n"),
    GOOD_CSV.replace(b"0,1,2,0", b"0,1,2,0#note"),
    GOOD_CSV.replace(b"0,1,2,0", b"0,1,,0"),
    GOOD_CSV.replace(b"0,1,2,0", b"0,1e0,2,0"),
], ids=["three-fields", "five-fields", "non-numeric", "fractional-index", "negative-index",
        "not-utf8", "no-header", "missing-entry", "duplicate-entry", "huge-index",
        "blank-line", "comment", "empty-field", "exponent-index"])
def test_malformed_csv_file_rejected(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text)
    with pytest.raises(StructureError):
        read_matrix(path)
    if b"\xff" not in text:
        with pytest.raises(StructureError):
            matrix_from_csv(text.decode())


@pytest.mark.parametrize("bad, reason", [
    (b"0,1,two,0", "could not convert string to float: 'two'"),
    (b"0,1,2", "expected 4, got 3"),
], ids=["non-numeric", "three-fields"])
@pytest.mark.parametrize("lead", [b"", b"\n\n"], ids=["header-first", "blank-lines-first"])
def test_malformed_csv_names_its_file_line(tmp_path, capsys, bad, reason, lead):
    text = lead + GOOD_CSV.replace(b"0,1,2,0", bad)
    line = 3 + lead.count(b"\n")
    with pytest.raises(StructureError, match=f"malformed matrix dump line {line}: .*{reason}"):
        matrix_from_csv(text.decode())
    path = tmp_path / "m.csv"
    path.write_bytes(text)
    assert run_cli(["render", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"line {line}:" in err and "usecols" not in err and "row" not in err.split("dump")[1]
