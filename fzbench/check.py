"""Output checker for benchmark operations.

Every operation's artifacts are hashed. Byte-deterministic artifacts
(`.fzmb`, matrix `.csv`, `.svg`, `.meta.json` sidecars) must match the
committed sha256 digests where a reference applies: for seed 0 all of them,
for other seeds the artifacts-io outputs that do not depend on the seed.
Sweep reports and surface rows are compared numerically against the seed-0
reference within a rounding-level tolerance; verdicts are compared exactly.

The first operation of a run is also checked by invariants that hold for
every seed (read-back equals written, Hermitian coordinates, recorded sweep
verdicts, eight decay order near 1). Every later operation must reproduce
the first one's artifacts byte for byte.

Matrices are parsed here with numpy, not with fuzzyreg's own reader.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

from workloads import EIGHT_SCHEDULE, SEED_INDEPENDENT, VERTEX_SURFACE_BOUND, VERTEX_SURFACE_GRID

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_FILE = REFERENCE_DIR / "reference.json"
SURFACE_ROWS_FILE = "vertex_surface_rows.csv.gz"

# Sweep values and the x-y sup are printed by the program with full float
# precision, so only rounding-level differences are tolerated.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Surface rows are written with 10 significant digits.
SURFACE_REL_TOL = 1e-8
SURFACE_ABS_TOL = 1e-10
# Built coordinates are Hermitian by construction; transformed ones are
# Hermitian up to the rounding of the matrix products and eigh.
HERMITIAN_TOL = {"built": 1e-12, "transformed": 1e-9}
EIGHT_ORDER_TOL = 0.05


def digest_tree(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def numeric_class(relpath: str) -> bool:
    """Artifacts compared by value rather than by digest."""
    return relpath.endswith(("-report.json", "-report.txt", "-surface.csv"))


def read_fzmb(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    magic, dim, _s, _ = struct.unpack_from("<4sIII", blob)
    if magic != b"FZMB" or len(blob) != 16 + 16 * dim * dim:
        raise ValueError(f"{path.name}: not a well-formed FZMB dump")
    pairs = np.frombuffer(blob, dtype="<f8", offset=16).reshape(dim, dim, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def read_csv_matrix(path: Path) -> np.ndarray:
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    dim = int(arr[:, 0].max()) + 1
    out = np.zeros((dim, dim), dtype=complex)
    out[arr[:, 0].astype(int), arr[:, 1].astype(int)] = arr[:, 2] + 1j * arr[:, 3]
    return out


def read_surface_rows(text: str) -> tuple:
    lines = text.splitlines()
    rows = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    return lines[0], rows


def hermitian_residual(M: np.ndarray) -> float:
    return float(np.max(np.abs(M - M.conj().T)) / max(1.0, float(np.max(np.abs(M)))))


def _close(a, b, rel=REL_TOL, abs_=ABS_TOL) -> bool:
    return abs(a - b) <= abs_ + rel * abs(b)


def load_reference() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sweep_summary(report: dict) -> dict:
    out = {
        "schedule": report["schedule"],
        "values": report["values"],
        "fitted_order": report["fitted_order"],
        "verdicts": report["verdicts"],
        "passed": report["passed"],
    }
    if "row_sum_norm" in report.get("extras", {}):
        out["row_sum_norm"] = report["extras"]["row_sum_norm"]
    return out


def xy_commutator_sup(vertex_config: str) -> float:
    """Sup of the vertex generators' x-y commutator, as the surface job's
    commutation probe computes it before comparing with its bound."""
    from fuzzyreg import cli, surface
    from fuzzyreg.interpolate import build_string_vertex

    params = cli.vertex_params_from_config(cli.load_config(vertex_config))
    gens = build_string_vertex(params).generators
    return float(surface.check_commutation(gens, math.inf))


def extract_numeric(workload, out: Path) -> dict:
    """Values of one operation that are compared numerically."""
    if workload.name == "artifacts-io":
        return {}
    report_name = "commutator-decay" if workload.name == "vertex-study" else "poisson-convergence"
    with open(out / "sweep" / f"{report_name}-report.json", "r", encoding="utf-8") as fh:
        result = {"sweep": _sweep_summary(json.load(fh))}
    if workload.name == "vertex-study":
        result["xy_sup"] = xy_commutator_sup(workload.inputs["vertex"])
    return result


def _compare_sweep(got: dict, ref: dict) -> list:
    problems = []
    for key in ("schedule", "verdicts", "passed"):
        if got[key] != ref[key]:
            problems.append(f"sweep {key} {got[key]} != reference {ref[key]}")
    for key in ("values", "row_sum_norm"):
        if key not in ref:
            continue
        if len(got.get(key, ())) != len(ref[key]) or not all(
                _close(a, b) for a, b in zip(got[key], ref[key])):
            problems.append(f"sweep {key} {got.get(key)} != reference {ref[key]}")
    if not _close(got["fitted_order"], ref["fitted_order"]):
        problems.append(f"fitted order {got['fitted_order']} != reference {ref['fitted_order']}")
    return problems


class Checker:
    """Checks the artifacts of each operation of one run."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        ref = reference["workloads"][workload.name]
        prefixes = SEED_INDEPENDENT.get(workload.name, ())
        self.expected_files = set(ref["digests"])
        self.fixed = {
            p: d for p, d in ref["digests"].items()
            if not numeric_class(p) and (workload.seed == 0 or p.startswith(prefixes))
        }
        self.numeric_ref = ref.get("numeric") if workload.seed == 0 else None
        self.baseline = None
        self.facts = {}

    def check(self, out: Path) -> list:
        digests = digest_tree(out)
        problems = []
        missing = sorted(self.expected_files - set(digests))
        extra = sorted(set(digests) - self.expected_files)
        if missing or extra:
            problems.append(f"artifact set differs: missing {missing}, unexpected {extra}")
        for path, want in self.fixed.items():
            if path in digests and digests[path] != want:
                problems.append(f"{path}: sha256 differs from the committed reference")
        if self.baseline is None:
            try:
                problems += self._first_operation(out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            if not problems:
                self.baseline = digests
        else:
            for path, want in self.baseline.items():
                if path in digests and digests[path] != want:
                    problems.append(f"{path}: differs from the run's first operation")
        return problems

    def _first_operation(self, out: Path) -> list:
        name = self.workload.name
        if name == "artifacts-io":
            return self._artifact_invariants(out)
        got = extract_numeric(self.workload, out)
        if name == "vertex-study":
            problems = self._vertex_invariants(out, got)
        else:
            problems = self._eight_invariants(got["sweep"])
        if self.numeric_ref is not None:
            problems += self._compare_numeric(out, got)
        return problems

    def _compare_numeric(self, out: Path, got: dict) -> list:
        ref = self.numeric_ref
        problems = _compare_sweep(got["sweep"], ref["sweep"])
        if "xy_sup" in ref and not _close(got["xy_sup"], ref["xy_sup"]):
            problems.append(f"x-y commutator sup {got['xy_sup']} != reference {ref['xy_sup']}")
        if self.workload.name == "vertex-study":
            with gzip.open(REFERENCE_DIR / SURFACE_ROWS_FILE, "rt", encoding="utf-8") as fh:
                ref_header, ref_rows = read_surface_rows(fh.read())
            header, rows = read_surface_rows(
                (out / "surface" / "string-vertex-surface.csv").read_text(encoding="utf-8"))
            if header != ref_header or rows.shape != ref_rows.shape:
                problems.append("surface rows: header or shape differs from reference")
            elif not (np.array_equal(rows[:, 0], ref_rows[:, 0]) and np.allclose(
                    rows[:, 1:], ref_rows[:, 1:], rtol=SURFACE_REL_TOL, atol=SURFACE_ABS_TOL)):
                problems.append("surface rows differ from reference beyond rounding level")
        return problems

    def _check_hermitian(self, mats: dict, kind: str) -> list:
        problems = []
        worst = 0.0
        for label, M in mats.items():
            r = hermitian_residual(M)
            worst = max(worst, r)
            if r > HERMITIAN_TOL[kind]:
                problems.append(f"{label}: not Hermitian (relative residual {r:.3e})")
        self.facts[f"hermitian_residual_{kind}"] = worst
        return problems

    def _vertex_invariants(self, out: Path, got: dict) -> list:
        problems = []
        with open(self.workload.inputs["vertex"], "r", encoding="utf-8") as fh:
            blocks = int(json.load(fh)["N"])
        vdir = out / "vertex"
        mats = {p.name: read_fzmb(p) for p in sorted(vdir.glob("*.fzmb"))}
        if len(mats) != 3 or any(M.shape != (2 * blocks, 2 * blocks) for M in mats.values()):
            problems.append(f"vertex: expected three {2 * blocks}x{2 * blocks} coordinates")
        problems += self._check_hermitian(mats, "built")
        meta = json.loads((vdir / "string-vertex.meta.json").read_text(encoding="utf-8"))
        if sorted(meta["artifacts"]) != sorted(mats) or meta["blocks"] != blocks:
            problems.append("vertex sidecar does not describe the written coordinates")

        sweep = got["sweep"]
        n = len(sweep["schedule"])
        if not (n == len(sweep["values"]) == len(sweep["verdicts"]) == len(sweep["row_sum_norm"])):
            problems.append("vertex sweep: schedule, values, verdicts and row sums differ in length")
        if sweep["passed"] != all(sweep["verdicts"]):
            problems.append("vertex sweep: overall verdict disagrees with the per-step verdicts")
        text = (out / "sweep" / "commutator-decay-report.txt").read_text(encoding="utf-8")
        if text.split()[-1] != ("PASS" if sweep["passed"] else "FAIL"):
            problems.append("vertex sweep: text report disagrees with the JSON report")
        rs = sweep["row_sum_norm"]
        self.facts.update({
            "vertex_sweep_values": sweep["values"],
            "vertex_sweep_verdicts": sweep["verdicts"],
            "vertex_sweep_fitted_order": sweep["fitted_order"],
            "vertex_row_sum_norm": rs,
            "vertex_row_sum_trend": "rising" if all(b > a for a, b in zip(rs, rs[1:])) else "not rising",
        })

        header, rows = read_surface_rows(
            (out / "surface" / "string-vertex-surface.csv").read_text(encoding="utf-8"))
        nq, nphi = VERTEX_SURFACE_GRID
        if header != "sheet,q,phi,x1,x2,x3,offdiag" or rows.shape != (nq * nphi * 2, 7):
            problems.append(f"surface: unexpected header or shape {rows.shape}")
        elif not np.all(np.isfinite(rows)):
            problems.append("surface: non-finite sample")
        else:
            self.facts["vertex_surface_max_offdiag"] = float(rows[:, 6].max())
        sup = got["xy_sup"]
        self.facts["vertex_xy_commutator_sup"] = sup
        if not 0.0 < sup <= VERTEX_SURFACE_BOUND:
            problems.append(f"x-y commutator sup {sup} outside (0, {VERTEX_SURFACE_BOUND}]")
        return problems

    def _eight_invariants(self, sweep: dict) -> list:
        problems = []
        vals = sweep["values"]
        if tuple(sweep["schedule"]) != EIGHT_SCHEDULE:
            problems.append(f"eight sweep: schedule {sweep['schedule']}")
        if not (sweep["passed"] and all(sweep["verdicts"]) and len(sweep["verdicts"]) == len(vals)):
            problems.append(f"eight sweep: verdicts {sweep['verdicts']}")
        if not all(0.0 < b < a for a, b in zip(vals, vals[1:])):
            problems.append(f"eight sweep: residuals do not decrease: {vals}")
        order = sweep["fitted_order"]
        if order is None or abs(order - 1.0) > EIGHT_ORDER_TOL:
            problems.append(f"eight sweep: fitted decay order {order}, expected 1 +- {EIGHT_ORDER_TOL}")
        self.facts.update({"eight_sweep_values": vals, "eight_fitted_order": order})
        return problems

    def _artifact_invariants(self, out: Path) -> list:
        problems = []
        written, read_back = {}, {}
        for k in (1, 2, 3):
            stem = f"immersed-cylinder-x{k}"
            written[stem] = read_fzmb(out / "build-svg" / f"{stem}.fzmb")
            read_back[stem] = read_csv_matrix(out / "build-csv" / f"{stem}.csv")
            if written[stem].shape != read_back[stem].shape or not np.array_equal(
                    written[stem], read_back[stem]):
                problems.append(f"{stem}: CSV and FZMB dumps of one build differ")
        problems += self._check_hermitian(written, "built")
        svgs = [out / d / "immersed-cylinder-x1.svg" for d in ("build-svg", "render-fzmb", "render-csv")]
        blobs = [p.read_bytes() for p in svgs]
        if not blobs[0].startswith(b"<?xml") or any(b != blobs[0] for b in blobs[1:]):
            problems.append("x1 renders from the build, the FZMB and the CSV differ")

        tdir = out / "transform"
        metas = list(tdir.glob("*.meta.json"))
        if len(metas) != 1:
            return problems + ["transform: expected one sidecar"]
        meta = json.loads(metas[0].read_text(encoding="utf-8"))
        mats = {p.name: read_fzmb(p) for p in sorted(tdir.glob("*.fzmb"))}
        if sorted(meta["artifacts"]) != sorted(mats) or meta["coordinates"] != len(mats):
            problems.append("transform sidecar does not describe the written coordinates")
        if any(M.shape != (meta["dim"], meta["dim"]) for M in mats.values()):
            problems.append("transform: coordinate dimensions disagree with the sidecar")
        problems += self._check_hermitian(mats, "transformed")
        diag = [s for s in meta["transform_log"] if s["op"] == "diagonalize"]
        if not diag or not diag[-1]["residual"] < 1e-8:
            problems.append("transform: missing or inaccurate diagonalization")
        else:
            self.facts["transform_diagonalize_residual"] = diag[-1]["residual"]
        return problems
