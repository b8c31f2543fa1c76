"""Seeded workload inputs and the CLI jobs that make up one operation.

The seed varies physical parameters only (vertex x0 and r1, the eight's r1,
Clifford a and b), never sizes, so every seed does the same amount of work.
Seed 0 reproduces the committed `configs/*.json` exactly; the committed
references in `reference/` are for that seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("vertex-study", "eight-scaling", "artifacts-io")

VERTEX_SURFACE_GRID = (33, 32)
# Above the known x-y saturation of the vertex generators (sup 1.254 at the
# default parameters), so the surface job runs and the sup stays visible as
# a checked output instead of aborting the export.
VERTEX_SURFACE_BOUND = 2.0
EIGHT_SCHEDULE = (256, 512, 1024, 2048)
ARTIFACT_N = 256

# Artifacts-io outputs that do not depend on the seed: the immersed eight
# preset has no physical knob the CLI exposes.
SEED_INDEPENDENT = {"artifacts-io": ("build-csv/", "build-svg/", "render-fzmb/", "render-csv/")}


def seeded_params(seed: int) -> dict:
    params = {
        "vertex_r1": 1.0,
        "vertex_x0": [0.7, 0.3],
        "eight_r1": 1.0,
        "clifford_a": 1.0,
        "clifford_b": 2.0,
    }
    if seed == 0:
        return params
    rng = random.Random(seed)
    params["vertex_r1"] = round(1.0 + rng.uniform(-0.1, 0.1), 6)
    params["vertex_x0"] = [round(0.7 + rng.uniform(-0.05, 0.05), 6),
                           round(0.3 + rng.uniform(-0.05, 0.05), 6)]
    params["eight_r1"] = round(1.0 + rng.uniform(-0.1, 0.1), 6)
    params["clifford_a"] = round(1.0 + rng.uniform(-0.2, 0.2), 6)
    params["clifford_b"] = round(2.0 + rng.uniform(-0.2, 0.2), 6)
    return params


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump(obj, path: Path) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return str(path)


def _mode_table(f) -> dict:
    """FourierFunction.to_dict() in the `{"interval", "modes"}` shape the
    CLI's function_from_config reads."""
    d = f.to_dict()
    modes = {str(e["n"]): {"re": e["re"], "im": e["im"]} for e in d["coeffs"]}
    return {"interval": d["interval"], "modes": modes}


@dataclass
class Workload:
    name: str
    seed: int
    params: dict
    inputs: dict  # input name -> config path

    def jobs(self, out: Path):
        """(job name, argv) pairs of one operation, run in order."""
        inp = self.inputs
        if self.name == "vertex-study":
            return [
                ("vertex", ["vertex", "--config", inp["vertex"], "--out", str(out / "vertex")]),
                ("sweep", ["sweep", "--config", inp["decay"], "--out", str(out / "sweep")]),
                ("surface", ["surface", "--config", inp["surface"], "--out", str(out / "surface")]),
            ]
        if self.name == "eight-scaling":
            return [("sweep", ["sweep", "--config", inp["eight"], "--out", str(out / "sweep")])]
        n = str(ARTIFACT_N)
        stem = "immersed-cylinder-x1"
        return [
            ("build-csv", ["build", "--config", inp["eight"], "--n", n, "--format", "csv",
                           "--out", str(out / "build-csv")]),
            ("build-svg", ["build", "--config", inp["eight"], "--n", n, "--format", "svg",
                           "--out", str(out / "build-svg")]),
            ("render-fzmb", ["render", str(out / "build-svg" / f"{stem}.fzmb"),
                             "--out", str(out / "render-fzmb")]),
            ("render-csv", ["render", str(out / "build-csv" / f"{stem}.csv"),
                            "--out", str(out / "render-csv")]),
            ("transform", ["transform", "--config", inp["clifford"], "--n", n,
                           "--out", str(out / "transform")]),
        ]


def make_workload(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Write the seeded job configs under work/inputs and return the workload.

    Needs `fuzzyreg` importable: the eight-scaling config is generated from
    circle_to_eight_functions() through to_dict().
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    params = seeded_params(seed)
    configs = root / "configs"
    inputs_dir = work / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    inputs = {}
    if name == "vertex-study":
        vertex = _load(configs / "vertex_default.json")
        vertex["r1"] = params["vertex_r1"]
        vertex["x0"] = params["vertex_x0"]
        decay = _load(configs / "vertex_decay.json")
        decay["sweep"]["space"]["r1"] = params["vertex_r1"]
        decay["sweep"]["space"]["x0"] = params["vertex_x0"]
        surface = {
            "space": dict(vertex, preset="string-vertex"),
            "surface": {"grid": list(VERTEX_SURFACE_GRID), "bound": VERTEX_SURFACE_BOUND},
        }
        inputs["vertex"] = _dump(vertex, inputs_dir / "vertex.json")
        inputs["decay"] = _dump(decay, inputs_dir / "vertex_decay.json")
        inputs["surface"] = _dump(surface, inputs_dir / "vertex_surface.json")
    elif name == "eight-scaling":
        from fuzzyreg.spaces import circle_to_eight_functions

        x, y, _z = circle_to_eight_functions(r1=params["eight_r1"])
        sweep = {
            "kind": "poisson",
            "label": "circle-to-eight",
            "f": _mode_table(x),
            "g": _mode_table(y),
            "schedule": list(EIGHT_SCHEDULE),
        }
        inputs["eight"] = _dump({"sweep": sweep}, inputs_dir / "eight_poisson.json")
    else:
        inputs["eight"] = str(configs / "eight_surface.json")
        clifford = _load(configs / "clifford_projection.json")
        clifford["space"]["a"] = params["clifford_a"]
        clifford["space"]["b"] = params["clifford_b"]
        inputs["clifford"] = _dump(clifford, inputs_dir / "clifford.json")
    return Workload(name, seed, params, inputs)
