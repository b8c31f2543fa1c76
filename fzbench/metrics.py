"""Metric names, units and directions; BENCHMARK.json is generated from here.

    python3 fzbench/metrics.py > BENCHMARK.json

Which end-to-end metric each layer metric should move:
- fourier.hermitian_probe.*, interpolate.coeff.*, profiles.* (but
  import_s), regularize.regularize.* and surface.*: job_s.p50 on
  vertex-study.
- regularize.commutator.* and verify.sweep.step_exponent: job_s.p50,
  job_s.tail and peak_rss_mb on eight-scaling (they are well under 1% of
  vertex-study).
- render.*, matrixio.* and transforms.*: job_s.p50 on artifacts-io.
- profiles.import_s: setup_s on every workload.
The share.* metrics confirm the workload design: share.commutator is most
of eight-scaling, share.render_matrixio most of artifacts-io and
share.vertex_path (probe, band evaluation, surface) most of vertex-study;
each stays a small share of the workloads meant to bypass it.
"""

from __future__ import annotations

import json

from scan import SCANNED
from tracing import COUNTS, LAYERS, SHARES
from workloads import WORKLOADS

RUN_SECONDS = 30

WHY = {
    "vertex-study": "vertex, vertex sweep N=15-60 and 33x32 surface: small matrices, "
                    "bound by profile evaluation, the Hermiticity probe and per-sample eigh",
    "eight-scaling": "Poisson sweep of the circle-to-eight at N=256-2048: bound by the dense "
                     "O(N^3) commutator, the target of banded storage",
    "artifacts-io": "eight at N=256 written as CSV and SVG, rendered back from FZMB and CSV, "
                    "plus a Clifford transform: bound by per-entry render and matrixio loops",
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "job_s.p50": ("s", "lower", 0.2),
    "job_s.tail": ("s", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_COUNT_UNITS = {
    "regularize.commutator.flops_computed": "flop",
    "regularize.commutator.bytes_computed": "B",
    "render.render.bytes": "B",
    "matrixio.write.bytes": "B",
    "matrixio.read.bytes": "B",
}


def per_layer() -> dict:
    """name -> (unit, better)."""
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.total_s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    for name in COUNTS:
        out[name] = (_COUNT_UNITS.get(name, "count"), "lower")
    out["profiles.tree_nodes"] = ("count", "lower")
    out["profiles.tree_nodes.max"] = ("count", "lower")
    out["profiles.import_s"] = ("s", "lower")
    out["regularize.commutator.useful_frac"] = ("ratio", "higher")
    out["verify.sweep.step_exponent"] = ("exponent", "lower")
    for name in SHARES:
        out[name] = ("ratio", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    out["trace.bookkeeping_s"] = ("s", "lower")
    for name in SCANNED:
        out[f"scan.{name}.exponent"] = ("exponent", "lower")
        out[f"scan.{name}.max_s"] = ("s", "lower")
    out["scan.src_lines"] = ("lines", "lower")
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "fzbench/run.py"],
        "paths": ["fzbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in per_layer().items()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
