"""Tests of the benchmark itself: python3 -m pytest -q fzbench"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from check import Checker, load_reference  # noqa: E402
from metrics import benchmark_json  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import make_workload, seeded_params  # noqa: E402


def _run_one(name, seed, tmp_path):
    from fuzzyreg import cli

    workload = make_workload(name, seed, run.ROOT, tmp_path)
    checker = Checker(workload, load_reference())
    runner = run.Runner(cli, workload, checker, tmp_path / "out")
    runner.op()
    assert runner.failures == []
    return workload, checker, tmp_path / "out"


def _flip_byte(path: Path, offset: int):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("seed", [0, 7])
def test_one_byte_corruption_of_an_artifact_is_caught(tmp_path, seed):
    workload, checker, out = _run_one("artifacts-io", seed, tmp_path)
    assert checker.baseline is not None
    assert checker.check(out) == []
    _flip_byte(out / "build-svg" / "immersed-cylinder-x2.fzmb", 4000)
    problems = checker.check(out)
    assert any("immersed-cylinder-x2.fzmb" in p for p in problems)
    fresh = Checker(workload, load_reference())
    assert fresh.check(out) != []


def test_one_byte_corruption_of_a_surface_row_is_caught(tmp_path):
    workload, _checker, out = _run_one("vertex-study", 0, tmp_path)
    path = out / "surface" / "string-vertex-surface.csv"
    text = path.read_text()
    # change one digit inside the first data row's q value
    row_start = text.index("\n") + 1
    digit = next(i for i in range(row_start + 3, len(text)) if text[i] in "123456789")
    path.write_text(text[:digit] + str(int(text[digit]) % 9 + 1) + text[digit + 1:])
    problems = Checker(workload, load_reference()).check(out)
    assert any("surface rows" in p for p in problems)


def test_seed_varies_physical_parameters_only(tmp_path):
    assert seeded_params(3) == seeded_params(3)
    assert seeded_params(3) != seeded_params(4)
    assert seeded_params(0) == {"vertex_r1": 1.0, "vertex_x0": [0.7, 0.3], "eight_r1": 1.0,
                                "clifford_a": 1.0, "clifford_b": 2.0}
    a = make_workload("vertex-study", 0, run.ROOT, tmp_path / "a")
    b = make_workload("vertex-study", 5, run.ROOT, tmp_path / "b")
    for key in a.inputs:
        ca = json.loads(Path(a.inputs[key]).read_text())
        cb = json.loads(Path(b.inputs[key]).read_text())
        assert _sizes(ca) == _sizes(cb)


def _sizes(cfg):
    if isinstance(cfg, dict):
        return {k: _sizes(v) for k, v in cfg.items()
                if k in ("N", "n", "schedule", "grid", "delta", "space", "sweep", "surface")}
    return cfg


def test_tail_has_ten_samples_beyond_it_and_never_undercuts_the_median():
    value, pct, beyond = run.tail([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10) and pct == pytest.approx(200 / 3)
    value, pct, beyond = run.tail([4.0, 1.0, 3.0, 2.0])
    assert value == 3.0 and pct == 75.0


def test_tracer_rebinds_every_import_site_and_restores_them():
    from fuzzyreg import cli, interpolate, regularize

    before = (cli.build_string_vertex, interpolate.regularize_matrix, regularize.regularize_matrix)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.build_string_vertex is not before[0]
        assert interpolate.regularize_matrix is regularize.regularize_matrix
        assert interpolate.regularize_matrix is not before[1]
    finally:
        tracer.uninstall()
    assert (cli.build_string_vertex, interpolate.regularize_matrix,
            regularize.regularize_matrix) == before


def test_benchmark_json_matches_the_metric_spec():
    with open(HERE.parent / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        assert json.load(fh) == benchmark_json()
