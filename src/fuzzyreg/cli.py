"""Command line entry points.

Subcommands build preset spaces, apply transform recipes, assemble the
string vertex, run convergence sweeps, and export renders or classical
surface samples.  All artifacts are byte-deterministic; run metadata goes
to a JSON sidecar next to each artifact, never into the artifact itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import matrixio
from .errors import DomainError, FuzzyRegError
from .fourier import FourierFunction
from .interpolate import VertexParams, build_string_vertex, make_profile
from .profiles import AffineProfile, ComplexProfile, as_profile, profile_from_dict
from .regularize import FuzzySpace
from .render import render_dot_matrix
from .spaces import (
    CurveSpec,
    DoubleCylinderSpec,
    GraphVertexSpec,
    build_circle_to_eight,
    build_clifford_torus,
    build_double_cylinder,
    build_generalized_cylinder,
    build_graph_vertex,
    build_immersed_cylinder,
    circle_to_eight_functions,
)
from .surface import export_classical_surface, surface_csv
from .transforms import diagonalize_coordinate, interlace, matrix_poly_transform
from .verify import (
    check_commutator_decay,
    check_poisson_convergence,
    check_product_convergence,
)

_EXTENSIONS = {"bin": "fzmb", "csv": "csv"}


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise DomainError(f"config {path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise DomainError("config root must be a JSON object")
    return cfg


def _profile_arg(value):
    """number -> constant, [a0, a1] -> affine, dict -> serialized profile."""
    if isinstance(value, dict):
        return profile_from_dict(value)
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise DomainError("profile shorthand lists must be [a0, a1]")
        return AffineProfile(float(value[0]), float(value[1]))
    return as_profile(float(value))


def _coeff_arg(value):
    if isinstance(value, dict) and ("re" in value or "im" in value):
        return ComplexProfile.from_dict(value)
    if isinstance(value, dict) or isinstance(value, (list, tuple)):
        return ComplexProfile.coerce(_profile_arg(value))
    return complex(value)


def function_from_config(d: dict) -> FourierFunction:
    """{"interval": [q1, q2], "modes": {"-1": ..., "0": ..., "2": ...}}."""
    try:
        interval = tuple(float(v) for v in d["interval"])
        coeffs = {int(k): _coeff_arg(v) for k, v in d["modes"].items()}
    except FuzzyRegError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(
            f"function spec needs an interval and integer modes with numeric "
            f"coefficients: {type(exc).__name__} {exc}"
        ) from exc
    return FourierFunction(interval, coeffs)


def _integer(value) -> int:
    """int(value) for a value that is an integer already ("16" and 16.5 are not)."""
    out = int(value)
    if out != value:
        raise ValueError("not an integer")
    return out


def _integers(values) -> tuple:
    return tuple(_integer(v) for v in values)


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def _config_value(conv, value, what):
    """conv(value) for one config entry; a value conv rejects raises DomainError."""
    try:
        return conv(value)
    except FuzzyRegError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"config {what} = {value!r} is invalid: {exc}") from None


# vertex config key -> (VertexParams field, conversion)
_VERTEX_FIELDS = {
    "r1": ("r1", float),
    "r": ("r", float),
    "x0": ("x0", _profile_arg),
    "grid": ("rule", str),
    "interval": ("interval", _floats),
    "N": ("N", _integer),
    "cutoff": ("cutoff", _integer),
}


def vertex_params_from_config(cfg: dict, n=None, delta=None) -> VertexParams:
    """VertexParams from a vertex config; n and delta override N and cutoff."""
    kw = {field: _config_value(conv, cfg[key], key)
          for key, (field, conv) in _VERTEX_FIELDS.items() if key in cfg}
    window = cfg.get("alpha", {})
    prof_kw = {k: _config_value(float, window[k], f"alpha {k}")
               for k in ("q2", "q3") if k in window}
    if "theta2" in cfg:
        prof_kw["mode"] = str(cfg["theta2"])
    if prof_kw:
        kw["profile"] = make_profile(**prof_kw)
    if n is not None:
        kw["N"] = int(n)
    if delta is not None:
        kw["cutoff"] = int(delta)
    return VertexParams(**kw)


def build_space(spec: dict, n=None) -> FuzzySpace:
    """Build one of the preset spaces from a JSON space section."""

    def value(key, default, conv=float):
        return _config_value(conv, spec.get(key, default), key)

    kind = spec.get("preset", "cylinder")
    if kind == "string-vertex":
        return build_string_vertex(vertex_params_from_config(spec, n=n))
    N = int(n) if n is not None else value("n" if "n" in spec else "N", 16, _integer)
    if kind == "cylinder":
        curve = CurveSpec.circle(value("radius", 1.0))
        if "z_beta" in spec:
            curve = dataclasses.replace(curve, z_beta=value("z_beta", None))
        return build_generalized_cylinder(curve, N, value("z_offset", 0.0))
    if kind == "circle-to-eight":
        return build_circle_to_eight(N, spec.get("convention", "symmetric"))
    if kind == "immersed-circle-to-eight":
        x, y, z = circle_to_eight_functions()
        return build_immersed_cylinder(x, y, z, N, spec.get("grid", "symmetric"))
    if kind == "double-cylinder":
        interval = value("interval", (-1.0, 3.0), _floats)
        x0 = value("x0", [0.7, 0.3], _profile_arg)
        r = value("r", 1.0, _profile_arg)
        pair = build_double_cylinder(DoubleCylinderSpec(interval, x0, r), N)
        member = value("member", 1, _integer)
        if member not in (1, 2):
            raise DomainError("double-cylinder member must be 1 or 2")
        return pair[member - 1]
    if kind == "clifford-torus":
        return build_clifford_torus(value("a", 1.0), value("b", 1.0), N)
    if kind == "graph-vertex":

        def band(v):
            return np.asarray(v, dtype=complex)

        gspec = GraphVertexSpec(
            dim=value("dim", N, _integer),
            n0=value("n0", None, _integer),
            r_upper=value("r_upper", 1.0, band),
            r_junction=value("r_junction", 1.0, complex),
            r_lower=value("r_lower", 1.0, band),
            x_lower=value("x_lower", 0.0, band),
            z_values=value("z_values", None, _floats) if "z_values" in spec else None,
        )
        return build_graph_vertex(gspec)
    raise DomainError(f"unknown space preset {kind!r}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_sidecar(out_dir, stem, meta) -> str:
    path = os.path.join(out_dir, stem + ".meta.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_text(meta))
    return path


def write_space_artifacts(space: FuzzySpace, out_dir, fmt="bin",
                          threshold=None, extra_meta=None):
    """One matrix file per coordinate plus a sidecar; optional SVG renders."""
    os.makedirs(out_dir, exist_ok=True)
    fmt = fmt or "bin"
    if fmt == "svg":
        matrix_fmt, do_render = "bin", True
    else:
        matrix_fmt, do_render = fmt, threshold is not None
    ext = _EXTENSIONS[matrix_fmt]
    written = []
    for k, M in enumerate(space.coordinates):
        name = f"{space.name}-x{k + 1}.{ext}"
        matrixio.write_matrix(os.path.join(out_dir, name), M, matrix_fmt)
        written.append(name)
    if do_render:
        thr = 0.1 if threshold is None else float(threshold)
        for k, M in enumerate(space.coordinates):
            name = f"{space.name}-x{k + 1}.svg"
            with open(os.path.join(out_dir, name), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(render_dot_matrix(M, threshold=thr))
            written.append(name)
    meta = {
        "kind": "space",
        "name": space.name,
        "dim": space.dim,
        "coordinates": len(space.coordinates),
        "format": matrix_fmt,
        "artifacts": written,
    }
    if extra_meta:
        meta.update(extra_meta)
    _write_sidecar(out_dir, space.name, meta)
    return written


def _print_written(out_dir, names):
    for name in names:
        print(os.path.join(out_dir, name))


def cmd_build(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    spec = cfg.get("space", {})
    space = build_space(spec, n=args.n)
    threshold = args.threshold
    if threshold is None and "render" in cfg:
        threshold = _config_value(float, cfg["render"].get("threshold", 0.1), "render threshold")
    written = write_space_artifacts(
        space, args.out, fmt=args.format, threshold=threshold,
        extra_meta={"preset": spec.get("preset", "cylinder")},
    )
    _print_written(args.out, written)
    return 0


def cmd_vertex(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    params = vertex_params_from_config(cfg, n=args.n, delta=args.delta)
    space = build_string_vertex(params)
    written = write_space_artifacts(
        space, args.out, fmt=args.format, threshold=args.threshold,
        extra_meta={
            "preset": "string-vertex",
            "blocks": params.N,
            "rule": params.rule,
            "interval": list(params.interval),
        },
    )
    _print_written(args.out, written)
    return 0


def cmd_transform(args) -> int:
    cfg = load_config(args.config)
    space = build_space(cfg.get("space", {}), n=args.n)
    steps = cfg.get("transforms", [])
    log = []
    batch = []

    def flush():
        nonlocal space
        if not batch:
            return
        space, done = matrix_poly_transform(space, list(batch))
        log.extend(done)
        batch.clear()

    for step in steps:
        op = step.get("op")
        if op in ("poly", "reciprocal-diag"):
            batch.append(step)
        elif op == "diagonalize":
            flush()
            space, rep = diagonalize_coordinate(space, int(step["index"]))
            log.append({
                "op": "diagonalize",
                "index": int(step["index"]),
                "policy": rep.policy,
                "identity": rep.identity,
                "residual": rep.residual,
                "eigenvalues": list(rep.eigenvalues),
            })
        elif op == "interlace":
            flush()
            space = interlace(space)
            log.append({"op": "interlace"})
        else:
            raise DomainError(f"unknown transform op {op!r}")
    flush()
    written = write_space_artifacts(
        space, args.out, fmt=args.format, threshold=args.threshold,
        extra_meta={"transform_log": log,
                    "singular_rows": [r for s in log for r in s.get("singular_rows", ())]},
    )
    _print_written(args.out, written)
    return 0


def _sweep_report(cfg: dict, n=None, delta=None):
    kind = cfg.get("kind", "commutator-decay")
    schedule = _config_value(_integers, cfg.get("schedule", (16, 32, 64)), "sweep schedule")
    if delta is None and "delta" in cfg:
        delta = _config_value(_integer, cfg["delta"], "sweep delta")
    label = cfg.get("label")
    if kind == "commutator-decay":
        spec = cfg.get("space", {})

        def builder(N):
            return build_space(spec, n=N)

        return check_commutator_decay(
            builder, schedule, delta=5 if delta is None else delta, label=label
        )
    if kind in ("product", "poisson"):
        f = function_from_config(cfg["f"])
        g = function_from_config(cfg["g"])
        rule = cfg.get("rule", "symmetric")
        check = check_product_convergence if kind == "product" else check_poisson_convergence
        return check(f, g, rule=rule, Ns=schedule, delta=delta, label=label)
    raise DomainError(f"unknown sweep kind {kind!r}")


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    report = _sweep_report(cfg.get("sweep", {}), n=args.n, delta=args.delta)
    os.makedirs(args.out, exist_ok=True)
    stem = report.criterion
    json_path = os.path.join(args.out, f"{stem}-report.json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json() + "\n")
    text = report.to_text()
    txt_path = os.path.join(args.out, f"{stem}-report.txt")
    with open(txt_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    print(text)
    return report.exit_code


def cmd_render(args) -> int:
    M = matrixio.read_matrix(args.matrix)
    cfg = load_config(args.config) if args.config else {}
    rcfg = cfg.get("render", {})
    threshold = args.threshold
    if threshold is None:
        threshold = _config_value(float, rcfg.get("threshold", 0.1), "render threshold")
    cell = _config_value(float, rcfg.get("cell", 10.0), "render cell")
    svg = render_dot_matrix(M, threshold=threshold, cell=cell)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.matrix))[0]
    name = stem + ".svg"
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    _write_sidecar(args.out, stem + "-render", {
        "kind": "render",
        "source": os.path.basename(args.matrix),
        "threshold": threshold,
        "cell": cell,
        "artifacts": [name],
    })
    print(path)
    return 0


def cmd_surface(args) -> int:
    cfg = load_config(args.config)
    space = build_space(cfg.get("space", {}), n=args.n)
    if space.generators is None:
        raise DomainError(
            "surface export needs a preset that carries coordinate functions"
        )
    scfg = cfg.get("surface", {})
    grid = _config_value(_integers, scfg.get("grid", (33, 32)), "surface grid")
    bound = _config_value(float, scfg.get("bound", 1e-2), "surface bound")
    header, rows = export_classical_surface(space.generators, grid=grid, bound=bound)
    os.makedirs(args.out, exist_ok=True)
    name = f"{space.name}-surface.csv"
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(surface_csv(header, rows))
    _write_sidecar(args.out, space.name + "-surface", {
        "kind": "surface",
        "name": space.name,
        "grid": list(grid),
        "bound": bound,
        "rows": len(rows),
        "artifacts": [name],
    })
    print(path)
    return 0


_COMMANDS = {
    "build": cmd_build,
    "vertex": cmd_vertex,
    "transform": cmd_transform,
    "sweep": cmd_sweep,
    "render": cmd_render,
    "surface": cmd_surface,
}


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON job configuration")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--n", type=int, help="override the size parameter")
    common.add_argument("--delta", type=int, help="override the band cutoff")
    common.add_argument("--threshold", type=float,
                        help="render threshold on entry magnitude")
    common.add_argument("--format", choices=("csv", "bin", "svg"),
                        help="artifact format (default bin)")
    parser = argparse.ArgumentParser(
        prog="fuzzyreg",
        description="Regularize surfaces into finite matrices and inspect them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", parents=[common],
                   help="build a preset space and write its coordinates")
    sub.add_parser("vertex", parents=[common],
                   help="assemble the one-to-two string vertex")
    sub.add_parser("transform", parents=[common],
                   help="apply a transform recipe to a preset space")
    sub.add_parser("sweep", parents=[common],
                   help="run a convergence sweep and write its report")
    p_render = sub.add_parser("render", parents=[common],
                              help="render a stored matrix as an SVG dot plot")
    p_render.add_argument("matrix", help="matrix file (csv or fzmb)")
    sub.add_parser("surface", parents=[common],
                   help="export classical surface samples to CSV")
    return parser


def run_cli(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except FuzzyRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
