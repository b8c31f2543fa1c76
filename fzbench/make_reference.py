"""Regenerate the committed seed-0 references from the current program.

    python3 fzbench/make_reference.py

Run it only when a change to the program is meant to change its outputs,
and review the diff of reference/ with that change.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

import run
from check import REFERENCE_DIR, REFERENCE_FILE, SURFACE_ROWS_FILE, digest_tree, extract_numeric
from workloads import WORKLOADS, make_workload


class _Unchecked:
    def check(self, _out):
        return []


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from fuzzyreg import cli

    work = run.HERE / ".work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference = {"seed": 0, "workloads": {}}
    for name in WORKLOADS:
        workload = make_workload(name, 0, run.ROOT, work / name)
        runner = run.Runner(cli, workload, _Unchecked(), work / name / "out")
        runner.op()
        if runner.failed:
            print(f"error: {name}: {runner.failures}", file=sys.stderr)
            return 1
        out = work / name / "out"
        entry = {"digests": digest_tree(out)}
        numeric = extract_numeric(workload, out)
        if numeric:
            entry["numeric"] = numeric
        reference["workloads"][name] = entry
        if name == "vertex-study":
            text = (out / "surface" / "string-vertex-surface.csv").read_bytes()
            with open(REFERENCE_DIR / SURFACE_ROWS_FILE, "wb") as fh:
                fh.write(gzip.compress(text, mtime=0))
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
