"""Byte pins for the sweep reports.

Each case runs the `sweep` subcommand on a config under `configs/`, or on
`eight_poisson.json` with one key changed (its product kind, its left and
row-anchored rules, a schedule up to N = 16384), and compares the sha256 of
the `-report.json` and `-report.txt` files it writes with digests recorded
from an earlier implementation.  The JSON report writes every norm by its
shortest round-trip repr, so any bit that moves in the evaluated
coefficients or in the band products behind them moves a digest.
"""

import hashlib
import json

import pytest

from fuzzyreg.cli import run_cli

from refs import CONFIGS

EIGHT = json.loads((CONFIGS / "eight_poisson.json").read_text())["sweep"]

CASES = {
    "eight-poisson": EIGHT,
    "eight-product": {**EIGHT, "kind": "product"},
    "eight-left": {**EIGHT, "rule": "left"},
    "eight-row-anchored": {**EIGHT, "rule": "row-anchored"},
    "eight-4096-16384": {**EIGHT, "schedule": [4096, 8192, 16384]},
    "vertex-decay": json.loads((CONFIGS / "vertex_decay.json").read_text())["sweep"],
}

DIGESTS = {
    "eight-4096-16384": {".json": "d24c2b5a6f7ba57fcd63863a20bb5c3cb80d6399c256be691b2fe5983ca502d2",
                         ".txt": "5881647caa6c8367be9d8b7953f7850f59258c116123927ea3a80f6cd2f02bd4"},
    "eight-left": {".json": "0086ba71629f1508c432f1a6cc36f70071e1157b9f7b949a0d1657685efccad3",
                   ".txt": "f76fb71382a63a84159b271bc0b7a1e1b14b6743260da5c160337f4d596c60e4"},
    "eight-poisson": {".json": "7c2a872941b4a9fc46f16720881c03424eaa2e748d83f12f39010b040bfa85c7",
                      ".txt": "795fba9bc58043188461180b44031bc845b3103149ffa11f1f688f1a6d658b10"},
    "eight-product": {".json": "8aa7fef84c7cbd14a724782db2688ccbaee883b773f96da27b92aa6bf1a2e381",
                      ".txt": "2eafda31d54abcfba4d569cc00f57dba4fb9e354bb48ef9b1fb5c9af8eed3b2d"},
    "eight-row-anchored": {".json": "dcebcc2e402e0fc231f05abec753dd3b33f4dbfd5f7bb2676a292e501f6bcfc3",
                           ".txt": "5ab598bf731c19026811e838d7c59d1506741d0f1ffe9d5d97af66fe26a0bea1"},
    "vertex-decay": {".json": "0950886a654542b2eb7f3bb3321d2545509d0b9cb8275732ff8cb545488e8b6f",
                     ".txt": "fea9ce9626e481653c1d4c837a0e145f663188eb9865d39ba00ffb4a5421d634"},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_report_bytes(tmp_path, capsys, name):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": CASES[name]}))
    out = tmp_path / "out"
    run_cli(["sweep", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    (report,) = out.glob("*-report.json")
    digests = {suffix: hashlib.sha256(report.with_suffix(suffix).read_bytes()).hexdigest()
               for suffix in (".json", ".txt")}
    assert digests == DIGESTS[name]
