"""End-to-end runs of the console entry point."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from fuzzyreg.cli import _parser, run_cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestVertexCommand:
    def test_writes_matrices_and_sidecar(self, tmp_path, capsys):
        code = run_cli(["vertex", "--n", "8", "--out", str(tmp_path)])
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "string-vertex-x1.fzmb",
            "string-vertex-x2.fzmb",
            "string-vertex-x3.fzmb",
            "string-vertex.meta.json",
        ]
        meta = read_json(tmp_path / "string-vertex.meta.json")
        assert meta["kind"] == "space"
        assert meta["dim"] == 16
        assert meta["coordinates"] == 3
        assert meta["blocks"] == 8
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert all(line.endswith(".fzmb") for line in out)

    def test_config_file_drives_the_build(self, tmp_path):
        code = run_cli([
            "vertex",
            "--config", str(CONFIGS / "vertex_default.json"),
            "--n", "10",
            "--out", str(tmp_path),
        ])
        assert code == 0
        meta = read_json(tmp_path / "string-vertex.meta.json")
        assert meta["blocks"] == 10
        assert meta["interval"] == [-1.0, 3.0]

    # every config under the subcommand it is written for, plus a build
    DETERMINISM_JOBS = [
        ["vertex", "--n", "8"],
        ["vertex", "--config", "vertex_default.json"],
        ["build", "--config", "eight_surface.json"],
        ["transform", "--config", "parabola_transform.json"],
        ["transform", "--config", "clifford_projection.json"],
        ["sweep", "--config", "vertex_decay.json"],
        ["sweep", "--config", "eight_poisson.json"],
        ["surface", "--config", "eight_surface.json"],
    ]

    def test_runs_are_byte_deterministic(self, tmp_path):
        covered = {job[2] for job in self.DETERMINISM_JOBS if job[1] == "--config"}
        assert covered == {p.name for p in CONFIGS.glob("*.json")}
        for k, job in enumerate(self.DETERMINISM_JOBS):
            argv = [str(CONFIGS / a) if a.endswith(".json") else a for a in job]
            d1, d2 = tmp_path / f"{k}a", tmp_path / f"{k}b"
            assert run_cli(argv + ["--out", str(d1)]) == 0, job
            assert run_cli(argv + ["--out", str(d2)]) == 0, job
            names = sorted(os.listdir(d1))
            assert names == sorted(os.listdir(d2)) and len(names) >= 2, job
            for name in names:
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), (job, name)


class TestBuildCommand:
    def test_default_preset(self, tmp_path):
        assert run_cli(["build", "--n", "6", "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "generalized-cylinder-x1.fzmb" in names
        assert "generalized-cylinder.meta.json" in names
        meta = read_json(tmp_path / "generalized-cylinder.meta.json")
        assert meta["preset"] == "cylinder"
        assert meta["dim"] == 6

    def test_csv_format(self, tmp_path):
        assert run_cli([
            "build", "--n", "4", "--format", "csv", "--out", str(tmp_path)
        ]) == 0
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert csvs == [f"generalized-cylinder-x{k}.csv" for k in (1, 2, 3)]
        head = (tmp_path / csvs[0]).read_text(encoding="utf-8").splitlines()[0]
        assert head == "row,col,re,im"

    def test_svg_format_adds_renders(self, tmp_path):
        assert run_cli([
            "build", "--n", "4", "--format", "svg", "--out", str(tmp_path)
        ]) == 0
        assert len(list(tmp_path.glob("*.svg"))) == 3
        assert len(list(tmp_path.glob("*.fzmb"))) == 3

    # a left-grid regularization is not Hermitian by design: it is written
    # as built, and a recipe on it is not held to Hermiticity either
    @pytest.mark.parametrize("command, transforms", [
        ("build", None),
        ("transform", [{"op": "poly", "terms": [{"coeff": 1.0, "indices": [0, 1]}],
                        "target": "append"}]),
    ], ids=["build", "transform"])
    def test_left_grid_space_is_written(self, tmp_path, command, transforms):
        cfg = {"space": {"preset": "immersed-circle-to-eight", "n": 8, "grid": "left"}}
        if transforms is not None:
            cfg["transforms"] = transforms
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli([command, "--config", str(path), "--out", str(out)]) == 0
        assert len(list(out.glob("*.fzmb"))) == (3 if transforms is None else 4)

    # the string-vertex preset reads n or N like every preset; --n wins
    @pytest.mark.parametrize("space, extra, dim", [
        ({"n": 12}, [], 24),
        ({"N": 12}, [], 24),
        ({"n": 12}, ["--n", "5"], 10),
    ], ids=["n", "N", "flag-wins"])
    def test_string_vertex_preset_size(self, tmp_path, space, extra, dim):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": {"preset": "string-vertex", **space}}),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)] + extra) == 0
        assert read_json(out / "string-vertex.meta.json")["dim"] == dim


class TestTransformCommand:
    def test_parabola_recipe(self, tmp_path):
        code = run_cli([
            "transform",
            "--config", str(CONFIGS / "parabola_transform.json"),
            "--out", str(tmp_path),
        ])
        assert code == 0
        meta_path = tmp_path / "diag(generalized-cylinder*).meta.json"
        meta = read_json(meta_path)
        ops = [step["op"] for step in meta["transform_log"]]
        assert ops == ["poly", "diagonalize"]
        diag = meta["transform_log"][-1]
        assert diag["policy"] == "real-anchor-v1"
        assert diag["residual"] <= 1e-10
        assert meta["singular_rows"] == []

    def test_clifford_projection_recipe(self, tmp_path):
        code = run_cli([
            "transform",
            "--config", str(CONFIGS / "clifford_projection.json"),
            "--out", str(tmp_path),
        ])
        assert code == 0
        meta = read_json(tmp_path / "diag(clifford-torus*).meta.json")
        assert meta["coordinates"] == 8
        assert meta["singular_rows"] == []

    def test_write_time_check_scales_with_the_entries(self, tmp_path):
        # z of height 1e4 makes 0.625 z^2 - x about 1.6e7; the diagonalized
        # coordinate keeps a rounding residual of about 1e-12 in |M - M^dagger|
        cfg = read_json(CONFIGS / "parabola_transform.json")
        cfg["space"].update(z_beta=1e4, z_offset=-5e3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli(["transform", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


class TestSweepCommand:
    def test_decay_sweep_report(self, tmp_path, capsys):
        code = run_cli([
            "sweep",
            "--config", str(CONFIGS / "vertex_decay.json"),
            "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "commutator-decay-report.json")
        assert report["criterion"] == "commutator-decay"
        assert report["schedule"] == [15, 30, 45, 60]
        assert report["passed"] is True
        text = (tmp_path / "commutator-decay-report.txt").read_text(encoding="utf-8")
        assert text.strip().endswith("PASS")
        assert "PASS" in capsys.readouterr().out

    # the report names the space by its label, else by the preset built
    @pytest.mark.parametrize("space, name", [({}, "cylinder"),
                                             ({"preset": "clifford-torus"}, "clifford-torus")],
                             ids=["default-preset", "clifford-torus"])
    def test_unlabeled_decay_sweep_names_its_preset(self, tmp_path, space, name):
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(json.dumps({"sweep": {"kind": "commutator-decay", "space": space,
                                                  "schedule": [16, 32, 64]}}), encoding="utf-8")
        assert run_cli(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "commutator-decay-report.json")["builder"] == name
        text = (tmp_path / "commutator-decay-report.txt").read_text(encoding="utf-8")
        assert f"builder:   {name}\n" in text

    def test_product_sweep_from_inline_config(self, tmp_path):
        cfg = {
            "sweep": {
                "kind": "product",
                "f": {"interval": [0.0, 1.0], "modes": {"1": [1.0, 1.0]}},
                "g": {"interval": [0.0, 1.0], "modes": {"0": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}}},
                "schedule": [40, 80, 160],
                "delta": 3,
            }
        }
        cfg_path = tmp_path / "product.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = run_cli(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "product-convergence-report.json")
        assert report["passed"] is True


class TestRenderCommand:
    def test_render_a_stored_matrix(self, tmp_path, capsys):
        build_dir = tmp_path / "build"
        assert run_cli(["build", "--n", "6", "--out", str(build_dir)]) == 0
        matrix = build_dir / "generalized-cylinder-x1.fzmb"
        out_dir = tmp_path / "render"
        code = run_cli(["render", str(matrix), "--out", str(out_dir)])
        assert code == 0
        svg = (out_dir / "generalized-cylinder-x1.svg").read_text(encoding="utf-8")
        assert svg.startswith('<?xml')
        meta = read_json(out_dir / "generalized-cylinder-x1-render.meta.json")
        assert meta["kind"] == "render"
        assert meta["threshold"] == 0.1
        assert capsys.readouterr().out.strip().endswith(".svg")

    def test_round_trip_is_byte_stable(self, tmp_path):
        build_dir = tmp_path / "build"
        assert run_cli(["build", "--n", "5", "--out", str(build_dir)]) == 0
        matrix = str(build_dir / "generalized-cylinder-x2.fzmb")
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(["render", matrix, "--out", str(d1)]) == 0
        assert run_cli(["render", matrix, "--out", str(d2)]) == 0
        name = "generalized-cylinder-x2.svg"
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestSurfaceCommand:
    def test_eight_surface_export(self, tmp_path):
        code = run_cli([
            "surface",
            "--config", str(CONFIGS / "eight_surface.json"),
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "immersed-cylinder-surface.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "sheet,q,phi,x1,x2,x3,offdiag"
        assert len(lines) == 1 + 17 * 16
        meta = read_json(tmp_path / "immersed-cylinder-surface.meta.json")
        assert meta["rows"] == 17 * 16

    def test_cylinder_surface_is_the_circle_over_its_height(self, tmp_path):
        cfg = tmp_path / "cylinder.json"
        cfg.write_text(json.dumps({"space": {"preset": "cylinder", "radius": 1.5, "z_offset": -0.5,
                                             "z_beta": 2.0}, "surface": {"grid": [5, 8]}}),
                       encoding="utf-8")
        assert run_cli(["surface", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "generalized-cylinder-surface.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "sheet,q,phi,x1,x2,x3,offdiag"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (5 * 8, 7)
        np.testing.assert_allclose(rows[:, 3] ** 2 + rows[:, 4] ** 2, 1.5**2, rtol=1e-9)
        np.testing.assert_allclose(rows[:, 5], -0.5 + 2.0 * rows[:, 1], rtol=1e-9, atol=1e-9)

    def test_row_anchored_eight_surface_export(self, tmp_path):
        cfg = tmp_path / "eight.json"
        cfg.write_text(json.dumps({"space": {"preset": "circle-to-eight",
                                             "convention": "row-anchored"}}), encoding="utf-8")
        assert run_cli(["surface", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "circle-to-eight-surface.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 1 + 33 * 32
        assert read_json(tmp_path / "circle-to-eight-surface.meta.json")["rows"] == 33 * 32

    # the torus and the graph vertex are written from their diagonals
    @pytest.mark.parametrize("space", [{"preset": "clifford-torus"},
                                       {"preset": "graph-vertex", "n0": 4}],
                             ids=["clifford-torus", "graph-vertex"])
    def test_presets_without_generators_are_refused(self, tmp_path, capsys, space):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": space}), encoding="utf-8")
        assert run_cli(["surface", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: surface export needs a preset that "
                                           "carries coordinate functions\n")
        assert not (tmp_path / "out").exists()

    # the generators are not regularized, and the preset's refusals stand: a size
    # below the eight's cutoff, a member outside the pair, an overflowing profile
    @pytest.mark.parametrize("space, error", [
        ({"preset": "circle-to-eight", "n": 2}, "cutoff 3 must stay below N = 2"),
        ({"preset": "immersed-circle-to-eight", "n": 3}, "cutoff 3 must stay below N = 3"),
        ({"preset": "double-cylinder", "member": 3}, "double-cylinder member must be 1 or 2"),
        ({"preset": "double-cylinder", "x0": {"kind": "poly", "coeffs": [0.0, 1e308]}},
         "coefficient of band 0 is not finite on the grid"),
    ], ids=["eight-n2", "immersed-eight-n3", "member-3", "overflow"])
    def test_preset_refusals_stand(self, tmp_path, capsys, space, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": space}), encoding="utf-8")
        with np.errstate(over="ignore"):
            assert run_cli(["surface", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()


# a product sweep whose f has one cubic-spline mode with the given knots
SPLINE_SWEEP = ('{"sweep": {"kind": "product", "schedule": [8, 16], '
                '"f": {"interval": [0, 1], "modes": {"1": {"kind": "cubic-spline", %s}}}, '
                '"g": {"interval": [0, 1], "modes": {"1": 1.0}}}}')


class TestFailureModes:
    # no subcommand, each option a subcommand does not read, and a missing
    # --config where the subcommand always loads one
    @pytest.mark.parametrize("argv", [
        [],
        ["build", "--delta", "3"],
        ["transform", "--config", "parabola_transform.json", "--delta", "3"],
        ["sweep", "--config", "vertex_decay.json", "--n", "8"],
        ["sweep", "--config", "vertex_decay.json", "--threshold", "3"],
        ["sweep", "--config", "vertex_decay.json", "--format", "csv"],
        ["render", "m.fzmb", "--n", "8"],
        ["render", "m.fzmb", "--delta", "3"],
        ["render", "m.fzmb", "--format", "csv"],
        ["surface", "--config", "eight_surface.json", "--delta", "3"],
        ["surface", "--config", "eight_surface.json", "--threshold", "3"],
        ["surface", "--config", "eight_surface.json", "--format", "csv"],
        ["transform"],
        ["sweep"],
        ["surface"],
    ], ids=["no-subcommand", "build-delta", "transform-delta", "sweep-n", "sweep-threshold",
            "sweep-format", "render-n", "render-delta", "render-format", "surface-delta",
            "surface-threshold", "surface-format", "transform-no-config", "sweep-no-config",
            "surface-no-config"])
    def test_missing_subcommand_is_a_usage_error(self, tmp_path, capsys, argv):
        argv = [str(CONFIGS / a) if a.endswith(".json") else a for a in argv]
        if argv:
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the parser is built once per process; a usage error leaves it as it was
        parser = _parser()
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                run_cli(["render", "m.fzmb", "--n", "8", "--out", str(tmp_path / "bad")])
            assert err.value.code == 2
            assert run_cli(["build", "--n", "4", "--out", str(tmp_path / "good")]) == 0
        assert _parser() is parser
        assert not (tmp_path / "bad").exists()
        assert capsys.readouterr().err.count("error: unrecognized arguments: --n 8") == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "{tmp}/nope.json", "--out", "{tmp}"],
        ["build", "--out", "{tmp}/cfg.json"],
        ["build", "--config", "{tmp}", "--out", "{tmp}/out"],
    ], ids=["missing-config", "out-is-a-file", "config-is-a-directory"])
    def test_missing_config_file(self, tmp_path, capsys, argv):
        (tmp_path / "cfg.json").write_text("{}", encoding="utf-8")
        code = run_cli([a.format(tmp=tmp_path) for a in argv])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_non_object_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]", encoding="utf-8")
        code = run_cli(["build", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "config root" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"row,col,re,im\n0,0,1\n",
        b"row,col,re,im\n0,0,x,0\n",
        b"row,col,re,im\n0,0,\xff,0\n",
    ], ids=["three-fields", "non-numeric", "not-utf8"])
    def test_malformed_matrix_file(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        code = run_cli(["render", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        '{"sweep": {"kind": "product", ',
        '{"sweep": {"kind": "product", "f": {"interval": [0, 1], "modes": {"one": 1.0}}, '
        '"g": {"interval": [0, 1], "modes": {"1": 1.0}}}}',
        '{"sweep": {"kind": "product", "f": {"interval": [0, 1], "modes": {"1": "1+"}}, '
        '"g": {"interval": [0, 1], "modes": {"1": 1.0}}}}',
        '{"sweep": {"kind": "commutator-decay", "schedule": [16, "x"]}}',
        '{"sweep": {"kind": "commutator-decay", "schedule": [16, 32.5]}}',
        '{"sweep": {"kind": "commutator-decay", "schedule": []}}',
        '{"sweep": {"kind": "commutator-decay", "schedule": [16]}}',
        *(SPLINE_SWEEP % knots for knots in (
            '"knots_x": [0, NaN], "knots_y": [0, 1], "slopes": [0, 0]',
            '"knots_x": [0, Infinity], "knots_y": [0, 1], "slopes": [0, 0]',
            '"knots_x": [0, 1], "knots_y": [NaN, 1], "slopes": [0, 0]',
            '"knots_x": [0, 1], "knots_y": [0, 1], "slopes": [0, -Infinity]',
        )),
    ], ids=["truncated-json", "non-integer-mode", "bad-coefficient", "non-integer-schedule",
            "fractional-schedule", "empty-schedule", "one-entry-schedule", "nan-spline-knot",
            "infinite-spline-knot", "nan-spline-value", "infinite-spline-slope"])
    def test_malformed_sweep_config(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    # inf - inf is NaN, so an infinite end used to pass as an interval mismatch
    def test_infinite_sweep_interval(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sweep": {"kind": "product", "schedule": [8, 16], '
                       '"f": {"interval": [0, Infinity], "modes": {"1": 1.0}}, '
                       '"g": {"interval": [0, Infinity], "modes": {"1": 1.0}}}}', encoding="utf-8")
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: interval [0.0, inf] must have finite ends")
        assert "mismatch" not in err
        assert not (tmp_path / "out").exists()

    # an interval is its two ends: one end used to stop with an IndexError,
    # three with a ValueError or, read as the first two, in a run exiting 0
    @pytest.mark.parametrize("command, cfg", [
        ("build", {"space": {"preset": "double-cylinder", "interval": [1]}}),
        ("build", {"space": {"preset": "double-cylinder", "interval": [0, 1, 5]}}),
        ("vertex", {"interval": [2]}),
        ("build", {"space": {"preset": "string-vertex", "N": 4, "interval": [-1, 3, 99]}}),
        *(("sweep", {"sweep": {"kind": "poisson", "schedule": [8, 16],
                               "f": {"interval": ends, "modes": {"1": 1.0}},
                               "g": {"interval": [0, 1], "modes": {"1": 1.0}}}})
          for ends in ([0], [0, 1, 5])),
    ], ids=["double-cylinder-one-end", "double-cylinder-three-ends", "vertex-one-end",
            "string-vertex-three-ends", "poisson-one-end", "poisson-three-ends"])
    def test_interval_needs_two_ends(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = run_cli([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: an interval needs two ends")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # the eight commutes, so only the grid can fail; the vertex (x-y sup 1.25)
    # must not pass a NaN bound
    @pytest.mark.parametrize("space, surface", [
        ({"preset": "immersed-circle-to-eight", "n": 8}, {"grid": [3, 4, 5]}),
        ({"preset": "string-vertex", "N": 8}, {"bound": float("nan")}),
    ], ids=["three-entry-grid", "nan-bound"])
    def test_malformed_surface_config(self, tmp_path, capsys, space, surface):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": space, "surface": surface}), encoding="utf-8")
        code = run_cli(["surface", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg", [
        ("vertex", {"N": "abc"}),
        ("vertex", {"N": 16.5}),
        ("vertex", {"alpha": {"q2": "low"}}),
        ("build", {"space": {"preset": "cylinder", "radius": "big"}}),
        ("build", {"space": {"preset": "cylinder", "n": "many"}}),
        ("build", {"space": {"preset": "double-cylinder", "n": 4, "member": "one"}}),
        ("build", {"space": {"preset": "graph-vertex", "dim": 8}}),
        ("build", {"space": {"n": 4}, "render": {"threshold": "low"}}),
        ("sweep", {"sweep": {"kind": "commutator-decay", "delta": "five"}}),
        ("surface", {"space": {"preset": "immersed-circle-to-eight", "n": 8},
                     "surface": {"bound": "tight"}}),
        ("render", {"render": {"cell": "wide"}}),
        ("render", {"render": {"threshold": [0.1]}}),
        ("transform", {"transforms": [{"op": "diagonalize", "index": "x"}]}),
        ("transform", {"transforms": [{"op": "poly", "terms": [{"coeff": "a", "indices": [0]}]}]}),
        ("transform", {"transforms": [{"op": "poly", "terms": [{"indices": [9]}]}]}),
        ("transform", {"transforms": [5]}),
        ("transform", {"transforms": [{"op": "poly"}]}),
        ("transform", {"transforms": [{"op": "poly", "terms": [5]}]}),
        ("transform", {"transforms": [{"op": "poly", "terms": [{"indices": 5}]}]}),
        ("transform", {"transforms": [{"op": "poly", "terms": 5}]}),
        ("build", {"space": 5}),
        ("sweep", {"sweep": 5}),
        ("vertex", {"alpha": 5}),
    ], ids=["vertex-N", "vertex-fractional-N", "vertex-window", "build-radius", "build-n",
            "build-member", "build-missing-n0", "build-render-threshold", "sweep-delta",
            "surface-bound", "render-cell", "render-threshold", "transform-diagonalize-index",
            "transform-poly-coeff", "transform-poly-index", "transform-step",
            "transform-poly-no-terms", "transform-poly-term", "transform-poly-indices",
            "transform-poly-terms", "space-section", "sweep-section",
            "vertex-window-section"])
    def test_unconvertible_config_value(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "render":
            assert run_cli(["build", "--n", "4", "--out", str(tmp_path)]) == 0
            capsys.readouterr()
            argv.append(str(tmp_path / "generalized-cylinder-x1.fzmb"))
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith("error: config ")
        assert not (tmp_path / "out").exists()

    # a window outside the vertex's interval (-1, 3) used to build a vertex
    # whose transition never starts or never ends
    @pytest.mark.parametrize("window", [{"q2": 5, "q3": 6}, {"q2": -3, "q3": -2}],
                             ids=["above", "below"])
    def test_vertex_window_outside_the_interval(self, tmp_path, capsys, window):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": window}), encoding="utf-8")
        code = run_cli(["vertex", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: transition window")
        assert not (tmp_path / "out").exists()

    # JSON true is no integer, and a recipe index names a coordinate from 0
    # on: each of these used to pick a coordinate (or read n as 1)
    @pytest.mark.parametrize("cfg", [
        {"transforms": [{"op": "diagonalize", "index": True}]},
        {"transforms": [{"op": "poly", "terms": [{"indices": [-1]}]}]},
        {"transforms": [{"op": "poly", "terms": [{"indices": [0]}], "target": -3}]},
        {"transforms": [{"op": "reciprocal-diag", "source": -1}]},
        {"space": {"preset": "cylinder", "n": True}, "transforms": []},
    ], ids=["diagonalize-index-true", "poly-index-negative", "poly-target-negative",
            "reciprocal-source-negative", "n-true"])
    def test_recipe_index_is_a_non_negative_integer(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli(["transform", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: config ")
        assert not (tmp_path / "out").exists()

    def test_nan_render_threshold(self, tmp_path, capsys):
        assert run_cli(["build", "--n", "4", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = run_cli(["render", str(tmp_path / "generalized-cylinder-x1.fzmb"),
                        "--threshold", "nan", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg", [
        ("vertex", {"N": 30, "cutoff": 3, "grid": "left"}),
        ("build", {"space": {"preset": "string-vertex", "N": 8, "grid": "left"}}),
    ], ids=["vertex", "build-preset"])
    def test_string_vertex_needs_the_symmetric_grid(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "symmetric grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_hermitian_transform_writes_nothing(self, tmp_path, capsys):
        # x1 x2 of the Clifford torus is not Hermitian: x1 and x2 do not commute
        cfg = {"space": {"preset": "clifford-torus", "n": 8},
               "transforms": [{"op": "poly", "terms": [{"coeff": 1.0, "indices": [0, 1]}],
                               "target": "append"}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = run_cli(["transform", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: coordinate 4")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, cfg", [
        (["vertex", "--n", "8", "--delta", "-1"], None),
        (["vertex"], {"N": 8, "cutoff": -1}),
    ], ids=["delta-option", "cutoff-key"])
    def test_negative_vertex_cutoff(self, tmp_path, capsys, argv, cfg):
        if cfg is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            argv = argv + ["--config", str(path)]
        assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: mode cutoff -1")
        assert not (tmp_path / "out").exists()

    # the grid refuses N < 2 before the vertex divides by N or the row-anchored
    # eight writes a 0 x 0 or 1 x 1 space
    @pytest.mark.parametrize("argv, cfg, N", [
        (["vertex", "--n", "0"], None, 0),
        (["vertex", "--n", "-3"], None, -3),
        (["sweep"], {"sweep": {"kind": "commutator-decay", "space": {"preset": "string-vertex"},
                               "schedule": [0, 15]}}, 0),
        (["build", "--n", "0"], {"space": {"preset": "circle-to-eight", "convention": "row-anchored"}}, 0),
        (["build", "--n", "1"], {"space": {"preset": "circle-to-eight", "convention": "row-anchored"}}, 1),
        (["build", "--n", "1"], {"space": {"preset": "circle-to-eight"}}, 1),
    ], ids=["vertex-0", "vertex-negative", "vertex-sweep-0", "row-anchored-eight-0",
            "row-anchored-eight-1", "symmetric-eight-1"])
    def test_grid_size_below_two(self, tmp_path, capsys, argv, cfg, N):
        if cfg is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            argv = argv + ["--config", str(path)]
        assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: grid size must be at least 2, got {N}\n"
        assert not (tmp_path / "out").exists()

    # JSON parsing accepts NaN and Infinity; the config check refuses them by
    # key before a preset writes them into its coordinates
    @pytest.mark.parametrize("text", [
        '{"space": {"preset": "clifford-torus", "a": NaN}}',
        '{"space": {"preset": "cylinder", "z_beta": Infinity}}',
        '{"space": {"preset": "graph-vertex", "dim": 8, "n0": 4, "r_junction": NaN}}',
    ], ids=["clifford-a", "cylinder-z-beta", "graph-vertex-r-junction"])
    def test_non_finite_preset_parameter(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["build", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: config ")
        assert not (tmp_path / "out").exists()

    # a NaN or infinite recipe value would otherwise reach the coordinates
    @pytest.mark.parametrize("step", [
        '{"op": "reciprocal-diag", "source": 3, "shift": NaN}',
        '{"op": "reciprocal-diag", "source": 3, "scale": Infinity}',
        '{"op": "reciprocal-diag", "source": 3, "singular_tol": NaN}',
        '{"op": "poly", "terms": [{"coeff": NaN, "indices": [0]}]}',
        '{"op": "poly", "terms": [{"coeff": -Infinity, "indices": [0]}]}',
    ], ids=["shift", "scale", "singular-tol", "nan-poly-coeff", "infinite-poly-coeff"])
    def test_non_finite_transform_value(self, tmp_path, capsys, step):
        path = tmp_path / "cfg.json"
        path.write_text('{"space": {"preset": "clifford-torus", "n": 8}, "transforms": [%s]}'
                        % step, encoding="utf-8")
        code = run_cli(["transform", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and "is invalid: not finite" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_preset(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": {"preset": "torus"}}), encoding="utf-8")
        code = run_cli(["build", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "unknown space preset" in capsys.readouterr().err
