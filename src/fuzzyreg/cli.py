"""Command line entry points.

Subcommands build preset spaces, apply transform recipes, assemble the
string vertex, run convergence sweeps, and export renders or classical
surface samples.  `_COMMANDS` lists the options each subcommand accepts,
which are exactly the ones it reads.  All artifacts are byte-deterministic;
run metadata goes to a JSON sidecar next to each artifact, never into the
artifact itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import matrixio
from .errors import (DomainError, FuzzyRegError, StructureError, config_value, finite,
                     integer, json_object)
from .fourier import FourierFunction
from .interpolate import VertexParams, build_string_vertex, make_profile, string_vertex_generators
from .profiles import AffineProfile, ComplexProfile, as_profile, profile_from_dict
from .regularize import FuzzySpace, check_regularizable, regularize_space
from .render import dot_matrix_rows
from .spaces import (
    CurveSpec,
    DoubleCylinderSpec,
    GraphVertexSpec,
    build_clifford_torus,
    build_graph_vertex,
    circle_to_eight_generators,
    double_cylinder_generators,
    generalized_cylinder_generators,
)
from .surface import export_classical_surface, surface_csv
from .transforms import matrix_poly_transform
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


def _integers(values) -> tuple:
    return tuple(integer(v) for v in values)


def _floats(values) -> tuple:
    return tuple(finite(v) for v in values)


def _section(cfg: dict, key: str) -> dict:
    """cfg[key] as a JSON object, {} when absent."""
    return config_value(json_object, cfg.get(key, {}), key)


# vertex config key -> (VertexParams field, conversion)
_VERTEX_FIELDS = {
    "r1": ("r1", finite),
    "r": ("r", finite),
    "x0": ("x0", _profile_arg),
    "interval": ("interval", _floats),
    "N": ("N", integer),
    "cutoff": ("cutoff", integer),
}


def vertex_params_from_config(cfg: dict, n=None, delta=None) -> VertexParams:
    """VertexParams from a vertex config; n and delta override N and cutoff."""
    if cfg.get("grid", "symmetric") != "symmetric":
        raise DomainError(f"the string vertex is defined on the symmetric grid only, "
                          f"got grid {cfg['grid']!r}")
    kw = {field: config_value(conv, cfg[key], key)
          for key, (field, conv) in _VERTEX_FIELDS.items() if key in cfg}
    window = _section(cfg, "alpha")
    prof_kw = {k: config_value(finite, window[k], f"alpha {k}")
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
    preset = _preset(spec, n)
    return preset if isinstance(preset, FuzzySpace) else regularize_space(*preset)


def _preset(spec: dict, n=None):
    """One preset from a JSON space section: (name, generators, grid) for a preset
    that carries coordinate functions, which `build_space` regularizes and
    `cmd_surface` samples as they are; the built space for the two written from
    their diagonals, the Clifford torus and the graph vertex."""

    spec = config_value(json_object, spec, "space")

    def value(key, default, conv=finite):
        return config_value(conv, spec.get(key, default), key)

    kind = spec.get("preset", "cylinder")
    size_key = "n" if "n" in spec else "N"
    if n is None and size_key in spec:
        n = value(size_key, None, integer)
    if kind == "string-vertex":
        return string_vertex_generators(vertex_params_from_config(spec, n=n))
    N = 16 if n is None else int(n)
    if kind == "cylinder":
        curve = CurveSpec.circle(value("radius", 1.0))
        if "z_beta" in spec:
            curve = dataclasses.replace(curve, z_beta=value("z_beta", None))
        return generalized_cylinder_generators(curve, N, value("z_offset", 0.0))
    if kind in ("circle-to-eight", "immersed-circle-to-eight"):  # one space, two spellings
        rule_key = "convention" if kind == "circle-to-eight" else "grid"
        return circle_to_eight_generators(N, spec.get(rule_key, "symmetric"))
    if kind == "double-cylinder":
        interval = value("interval", (-1.0, 3.0), _floats)
        x0 = value("x0", [0.7, 0.3], _profile_arg)
        r = value("r", 1.0, _profile_arg)
        member = value("member", 1, integer)
        return double_cylinder_generators(DoubleCylinderSpec(interval, x0, r), N, member)
    if kind == "clifford-torus":
        return build_clifford_torus(value("a", 1.0), value("b", 1.0), N)
    if kind == "graph-vertex":

        def band(v):
            return finite(v, lambda b: np.asarray(b, dtype=complex))

        gspec = GraphVertexSpec(
            dim=value("dim", N, integer),
            n0=value("n0", None, integer),
            r_upper=value("r_upper", 1.0, band),
            r_junction=value("r_junction", 1.0, lambda v: finite(v, complex)),
            r_lower=value("r_lower", 1.0, band),
            x_lower=value("x_lower", 0.0, band),
            z_values=value("z_values", None, _floats) if "z_values" in spec else None,
        )
        return build_graph_vertex(gspec)
    raise DomainError(f"unknown space preset {kind!r}")


def _write_text(out_dir, name, pieces) -> str:
    """Write one UTF-8, LF-terminated artifact into out_dir, its str pieces in
    order as they come, so that the rows of `dot_matrix_rows` are never held
    whole; return its path.  That function checks its arguments when called,
    before this one runs, so a refused render makes no directory and no file."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)
    return path


def _write_sidecar(out_dir, stem, meta) -> str:
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    return _write_text(out_dir, stem + ".meta.json", [text])


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
            _write_text(out_dir, name, dot_matrix_rows(M, threshold=thr))
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
        threshold = config_value(float, _section(cfg, "render").get("threshold", 0.1),
                                 "render threshold")
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
            "rule": space.grid.rule,
            "interval": list(params.interval),
        },
    )
    _print_written(args.out, written)
    return 0


def _check_hermitian(space: FuzzySpace):
    """Refuse a coordinate whose max|M - M^dagger| exceeds 1e-12 times its
    largest |entry| (at least 1): rounding grows with the entries."""
    for k, M in enumerate(space.coordinates):
        if not M.is_hermitian(1e-12 * max(1.0, float(np.max(np.abs(M.data))))):
            raise StructureError(f"coordinate {k} of {space.name!r} is not Hermitian")


def cmd_transform(args) -> int:
    cfg = load_config(args.config)
    space = build_space(cfg.get("space", {}), n=args.n)
    # a recipe must keep a Hermitian space Hermitian; a left-grid
    # regularization is not Hermitian to begin with
    hermitian = space.grid is None or space.grid.rule != "left"
    space, log = matrix_poly_transform(space, cfg.get("transforms", []))
    if hermitian:
        _check_hermitian(space)
    written = write_space_artifacts(
        space, args.out, fmt=args.format, threshold=args.threshold,
        extra_meta={"transform_log": log,
                    "singular_rows": [r for s in log for r in s.get("singular_rows", ())]},
    )
    _print_written(args.out, written)
    return 0


def _sweep_report(cfg: dict, delta=None):
    kind = cfg.get("kind", "commutator-decay")
    schedule = config_value(_integers, cfg.get("schedule", (16, 32, 64)), "sweep schedule")
    if delta is None and "delta" in cfg:
        delta = config_value(integer, cfg["delta"], "sweep delta")
    label = cfg.get("label")
    if kind == "commutator-decay":
        spec = _section(cfg, "space")  # unlabeled, the report names the preset build_space builds
        return check_commutator_decay(lambda N: build_space(spec, n=N), schedule,
                                      delta=5 if delta is None else delta,
                                      label=label or spec.get("preset", "cylinder"))
    if kind in ("product", "poisson"):
        f = function_from_config(cfg.get("f"))
        g = function_from_config(cfg.get("g"))
        rule = cfg.get("rule", "symmetric")
        check = check_product_convergence if kind == "product" else check_poisson_convergence
        return check(f, g, rule=rule, Ns=schedule, delta=delta, label=label)
    raise DomainError(f"unknown sweep kind {kind!r}")


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    report = _sweep_report(_section(cfg, "sweep"), delta=args.delta)
    stem = report.criterion
    _write_text(args.out, f"{stem}-report.json", [report.to_json(), "\n"])
    text = report.to_text()
    _write_text(args.out, f"{stem}-report.txt", [text, "\n"])
    print(text)
    return report.exit_code


def cmd_render(args) -> int:
    M = matrixio.read_matrix(args.matrix)
    cfg = load_config(args.config) if args.config else {}
    rcfg = _section(cfg, "render")
    threshold = args.threshold
    if threshold is None:
        threshold = config_value(float, rcfg.get("threshold", 0.1), "render threshold")
    cell = config_value(float, rcfg.get("cell", 10.0), "render cell")
    stem = os.path.splitext(os.path.basename(args.matrix))[0]
    name = stem + ".svg"
    path = _write_text(args.out, name, dot_matrix_rows(M, threshold=threshold, cell=cell))
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
    """Export the classical surface of a preset's generators, which are never
    regularized here; a size they could not be regularized at is still refused."""
    cfg = load_config(args.config)
    preset = _preset(cfg.get("space", {}), n=args.n)
    if isinstance(preset, FuzzySpace):
        raise DomainError(
            "surface export needs a preset that carries coordinate functions"
        )
    space_name, generators, space_grid = preset
    check_regularizable(generators, [space_grid])
    scfg = _section(cfg, "surface")
    grid = config_value(_integers, scfg.get("grid", (33, 32)), "surface grid")
    bound = config_value(float, scfg.get("bound", 1e-2), "surface bound")
    header, table = export_classical_surface(generators, grid=grid, bound=bound)
    name = f"{space_name}-surface.csv"
    path = _write_text(args.out, name, [surface_csv(header, table)])
    _write_sidecar(args.out, space_name + "-surface", {
        "kind": "surface",
        "name": space_name,
        "grid": list(grid),
        "bound": bound,
        "rows": len(table),
        "artifacts": [name],
    })
    print(path)
    return 0


# argument -> add_argument keywords; "matrix" is render's positional input
_ARGUMENTS = {
    "matrix": {"help": "matrix file (csv or fzmb)"},
    "--config": {"help": "JSON job configuration"},
    "--n": {"type": int, "help": "override the size parameter"},
    "--delta": {"type": int, "help": "override the band cutoff"},
    "--threshold": {"type": float, "help": "render threshold on entry magnitude"},
    "--format": {"choices": ("csv", "bin", "svg"), "help": "artifact format (default bin)"},
}

# subcommand -> (handler, help, the arguments it reads besides --out, the
# options it requires because it always loads them)
_COMMANDS = {
    "build": (cmd_build, "build a preset space and write its coordinates",
              ("--config", "--n", "--threshold", "--format"), ()),
    "vertex": (cmd_vertex, "assemble the one-to-two string vertex",
               ("--config", "--n", "--delta", "--threshold", "--format"), ()),
    "transform": (cmd_transform, "apply a transform recipe to a preset space",
                  ("--config", "--n", "--threshold", "--format"), ("--config",)),
    "sweep": (cmd_sweep, "run a convergence sweep and write its report",
              ("--config", "--delta"), ("--config",)),
    "render": (cmd_render, "render a stored matrix as an SVG dot plot",
               ("matrix", "--config", "--threshold"), ()),
    "surface": (cmd_surface, "export classical surface samples to CSV",
                ("--config", "--n"), ("--config",)),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:  # built on first use, kept for the process
    parser = argparse.ArgumentParser(
        prog="fuzzyreg",
        description="Regularize surfaces into finite matrices and inspect them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, arguments, required) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=".", help="output directory")
        for name in arguments:
            kw = {"required": True} if name in required else {}
            p.add_argument(name, **_ARGUMENTS[name], **kw)
    return parser


def run_cli(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FuzzyRegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
