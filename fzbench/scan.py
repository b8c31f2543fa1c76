"""Layer scan, import-time breakdown and environment record.

None of this is gated: the scan times each layer's public function over a
range of sizes and fits a per-layer exponent in N, so a change to one
layer's scaling shows even when the workloads hide it.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIZES = (32, 128, 512, 2048)
# Per-entry Python loops (render, CSV) and dense O(N^3) transforms are
# capped, as is the vertex, whose matrices are 2N x 2N.
CAPPED = 512
IMPORTTIME_SAMPLES = 3
SCANNED = (
    "spaces.build", "regularize.regularize", "regularize.commutator", "regularize.norms",
    "matrixio.write", "matrixio.read", "interpolate.vertex", "matrixio.write_csv",
    "render.render", "transforms.poly", "transforms.diagonalize",
)


def _best(fn, reps) -> float:
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def layer_scan(work: Path) -> dict:
    """{layer function: {N: seconds}} on the immersed circle-to-eight."""
    from fuzzyreg import matrixio
    from fuzzyreg.fourier import poisson_bracket
    from fuzzyreg.interpolate import VertexParams, build_string_vertex
    from fuzzyreg.regularize import commutator, regularize_scalar, within_border_norm
    from fuzzyreg.render import render_dot_matrix
    from fuzzyreg.spaces import build_immersed_cylinder, circle_to_eight_functions
    from fuzzyreg.transforms import diagonalize_coordinate, matrix_poly_transform

    x, y, z = circle_to_eight_functions()
    bracket = poisson_bracket(x, y)
    anticommutator = [{"op": "poly", "terms": [{"coeff": 0.5, "indices": [0, 1]},
                                               {"coeff": 0.5, "indices": [1, 0]}]}]
    rows = {}

    def put(name, n, seconds):
        rows.setdefault(name, {})[n] = seconds

    with tempfile.TemporaryDirectory(dir=work) as tmp:
        binpath = os.path.join(tmp, "m.fzmb")
        csvpath = os.path.join(tmp, "m.csv")
        for n in SIZES:
            reps = 3 if n < CAPPED else 1
            space = build_immersed_cylinder(x, y, z, n)
            X, Y = space.coordinates[:2]
            comm = commutator(X, Y)
            put("spaces.build", n, _best(lambda: build_immersed_cylinder(x, y, z, n), reps))
            put("regularize.regularize", n, _best(lambda: regularize_scalar(bracket, space.grid), reps))
            put("regularize.commutator", n, _best(lambda: commutator(X, Y), reps))
            put("regularize.norms", n, _best(lambda: within_border_norm(comm, 6), reps))
            put("matrixio.write", n, _best(lambda: matrixio.write_matrix(binpath, X, "bin"), reps))
            put("matrixio.read", n, _best(lambda: matrixio.read_matrix(binpath), reps))
            del comm
            if n > CAPPED:
                continue
            put("interpolate.vertex", n, _best(lambda: build_string_vertex(VertexParams(N=n)), reps))
            put("matrixio.write_csv", n, _best(lambda: matrixio.write_matrix(csvpath, X, "csv"), reps))
            put("render.render", n, _best(lambda: render_dot_matrix(X), reps))
            put("transforms.poly", n, _best(lambda: matrix_poly_transform(space, anticommutator), reps))
            put("transforms.diagonalize", n, _best(lambda: diagonalize_coordinate(space, 0), reps))
    return rows


def scan_metrics(rows: dict) -> dict:
    out = {}
    for name, by_n in rows.items():
        ns = sorted(by_n)
        slope = np.polyfit(np.log(ns), np.log([by_n[n] for n in ns]), 1)[0]
        out[f"scan.{name}.exponent"] = float(slope)
        out[f"scan.{name}.max_s"] = by_n[ns[-1]]
    return out


def source_lines(root: Path) -> int:
    total = 0
    for path in sorted((root / "src" / "fuzzyreg").glob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def import_breakdown(env: dict, cwd: Path) -> dict:
    """Median `-X importtime` cumulative seconds of the heavy imports behind
    `import fuzzyreg.cli`."""
    names = ("fuzzyreg.cli", "fuzzyreg", "fuzzyreg.profiles", "scipy.interpolate", "numpy")
    samples = {n: [] for n in names}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fuzzyreg.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
                              check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {n: statistics.median(v) for n, v in samples.items() if v}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
        except FileNotFoundError:
            caches[level] = None
            continue
        caches[level] = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cache_bytes": caches,
        "machine": platform.machine(),
    }
