"""`fuzzyreg surface` on every preset that carries coordinate functions.

The export reads a preset's generators and never regularizes them.  Each
case's CSV and sidecar are pinned by sha256 digests recorded from an earlier
implementation that regularized the preset's coordinates before the export
read its generators: the string vertex at N = 30 in both profile modes, the
cylinder, the immersed eight on the symmetric and the left rule, the eight on
both conventions and both members of the double cylinder.
"""

import hashlib
import json

import numpy as np
import pytest

from fuzzyreg import regularize, verify
from fuzzyreg.cli import build_space, run_cli
from fuzzyreg.profiles import AffineProfile
from fuzzyreg.spaces import DoubleCylinderSpec, build_double_cylinder

# case -> (space section, surface section, space name, CSV sha256, sidecar sha256)
SURFACES = {
    "vertex-explicit-spline": (
        {"preset": "string-vertex", "N": 30, "theta2": "explicit-spline"}, {"bound": 2.0},
        "string-vertex",
        "74b031c84798a86a343b71bbd6cb98f3cbbb70c375e02aaf55c48eb46f28f1ba",
        "51e9dc0df57ab710436bc92533aea77421624bfbbb7fd89662240013d5b3b4de",
    ),
    "vertex-derived-lambda": (
        {"preset": "string-vertex", "N": 30, "theta2": "derived-lambda"}, {"bound": 2.0},
        "string-vertex",
        "f721be4e449c7e1728608fdf389a8f1c18bed07107a2b3a8136eb2fa55927855",
        "51e9dc0df57ab710436bc92533aea77421624bfbbb7fd89662240013d5b3b4de",
    ),
    "cylinder": (
        {"preset": "cylinder"}, {},
        "generalized-cylinder",
        "2886ba07a0c440b5938d4c9faff1baa672e5d6350730ee776f3416cef6d14c57",
        "04b63d76934537b9d0d64a0e21481a7779be31d20e64fde76723d1532f6ecb6b",
    ),
    "immersed-eight": (
        {"preset": "immersed-circle-to-eight", "n": 24}, {"grid": [17, 16], "bound": 0.01},
        "immersed-cylinder",
        "0984894105f92cb04cdbefb619467715b56c62e960405ea5e31930fd4f507ae9",
        "e294b0e10238dcd21637184d212f1a56610e2dc1d2e6e766296fa4535e3f2b7e",
    ),
    "immersed-eight-left": (
        {"preset": "immersed-circle-to-eight", "grid": "left"}, {},
        "immersed-cylinder",
        "c2b2e5a549ae9fbeca459e3b2348b90a18b5a46bdd7096e4625cc17a2024d429",
        "68b46f86f95b23bd8e9c8ef849e26eab989b6e5d5579b301cce3ff07fb44afc8",
    ),
    "eight-symmetric": (
        {"preset": "circle-to-eight"}, {},
        "immersed-cylinder",
        "c2b2e5a549ae9fbeca459e3b2348b90a18b5a46bdd7096e4625cc17a2024d429",
        "68b46f86f95b23bd8e9c8ef849e26eab989b6e5d5579b301cce3ff07fb44afc8",
    ),
    "eight-row-anchored": (
        {"preset": "circle-to-eight", "convention": "row-anchored"}, {},
        "circle-to-eight",
        "2e0980b6ff34877161d065ea7e611b2f94017d25326da8273019c21aca2f7a84",
        "ddf8ebd026eadc1f21074fcd47d9ed9013ecf855d76c8de8eba216f9c362646f",
    ),
    "double-cylinder-1": (
        {"preset": "double-cylinder", "member": 1}, {},
        "cylinder-1",
        "f9b57280955a51e10f85ef5a9ee08177c0b85175d4b6a3456bde17744284e664",
        "773418b5d46489d6ba40ebe27aee420de8fbe58d4b08cf0cea289f1137e8acc2",
    ),
    "double-cylinder-2": (
        {"preset": "double-cylinder", "member": 2}, {},
        "cylinder-2",
        "ba2ba8908165000a1d2804def7a86f20fa6e4e96b6dc00ec4b9e98a14d512da0",
        "a665b283787aa23c766f58c09991544cb378c688f47285694b5a0dabb692a3b4",
    ),
}


def export(tmp_path, space, surface):
    cfg = tmp_path / "surface.json"
    cfg.write_text(json.dumps({"space": space, "surface": surface}), encoding="utf-8")
    assert run_cli(["surface", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def schedule_calls(monkeypatch):
    """Every `regularize_schedule` call, through each module that binds it."""
    calls = []
    real = regularize.regularize_schedule

    def counted(functions, grids):
        calls.append(len(tuple(functions)))
        return real(functions, grids)

    for module in (regularize, verify):
        monkeypatch.setattr(module, "regularize_schedule", counted)
    return calls


@pytest.mark.parametrize("case", list(SURFACES))
def test_surface_bytes_are_pinned(tmp_path, capsys, case):
    space, surface, name, csv_sha, meta_sha = SURFACES[case]
    export(tmp_path, space, surface)
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [f"{name}-surface.csv",
                                                    f"{name}-surface.meta.json"]
    assert digest(out / f"{name}-surface.csv") == csv_sha
    assert digest(out / f"{name}-surface.meta.json") == meta_sha
    assert capsys.readouterr().out == f"{out / name}-surface.csv\n"


@pytest.mark.parametrize("case", list(SURFACES))
def test_surface_never_regularizes(tmp_path, schedule_calls, case):
    space, surface, *_ = SURFACES[case]
    export(tmp_path, space, surface)
    assert schedule_calls == []


@pytest.mark.parametrize("member", [1, 2])
def test_double_cylinder_regularizes_the_requested_member_only(schedule_calls, member):
    space = build_space({"preset": "double-cylinder", "member": member, "n": 12})
    assert schedule_calls == [1, 1, 1]  # x, y and z of one member
    want = build_double_cylinder(DoubleCylinderSpec((-1.0, 3.0), AffineProfile(0.7, 0.3), 1.0), 12)
    for got, ref in zip(space.coordinates, want[member - 1].coordinates):
        assert got.offsets == ref.offsets
        assert np.array_equal(got.data.view(np.int64), ref.data.view(np.int64))
    assert space.name == want[member - 1].name and space.grid == want[member - 1].grid
