"""End-to-end runs of the console entry point."""

import json
import os
from pathlib import Path

import pytest

from fuzzyreg.cli import run_cli

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


class TestFailureModes:
    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli([])
        assert err.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli([
            "sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)
        ])
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
    ], ids=["truncated-json", "non-integer-mode", "bad-coefficient", "non-integer-schedule",
            "fractional-schedule", "empty-schedule", "one-entry-schedule"])
    def test_malformed_sweep_config(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
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
    ], ids=["vertex-N", "vertex-fractional-N", "vertex-window", "build-radius", "build-n",
            "build-member", "build-missing-n0", "build-render-threshold", "sweep-delta",
            "surface-bound", "render-cell", "render-threshold"])
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

    def test_nan_render_threshold(self, tmp_path, capsys):
        assert run_cli(["build", "--n", "4", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = run_cli(["render", str(tmp_path / "generalized-cylinder-x1.fzmb"),
                        "--threshold", "nan", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_unknown_preset(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": {"preset": "torus"}}), encoding="utf-8")
        code = run_cli(["build", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "unknown space preset" in capsys.readouterr().err
