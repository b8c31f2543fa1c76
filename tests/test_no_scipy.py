"""The runtime needs numpy only: every subcommand runs with scipy refused.

A fresh interpreter installs an import hook that raises on any `scipy`
module, then runs build, render, surface, vertex, transform and sweep on the
shipped configs.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent("""
    import sys

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"scipy is not a runtime dependency: import of {name}")

    sys.meta_path.insert(0, RefuseScipy())

    from fuzzyreg.cli import run_cli

    configs, out = sys.argv[1], sys.argv[2]
    jobs = [
        ["build", "--config", f"{configs}/eight_surface.json", "--out", f"{out}/build"],
        ["render", f"{out}/build/immersed-cylinder-x1.fzmb", "--out", f"{out}/render"],
        ["surface", "--config", f"{configs}/eight_surface.json", "--out", f"{out}/surface"],
        ["vertex", "--n", "8", "--out", f"{out}/vertex"],
        ["transform", "--config", f"{configs}/parabola_transform.json", "--out", f"{out}/transform"],
        ["sweep", "--config", f"{configs}/vertex_decay.json", "--out", f"{out}/sweep"],
    ]
    for job in jobs:
        code = run_cli(job)
        if code != 0:
            sys.exit(f"{job[0]} exited {code}")
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    if loaded:
        sys.exit(f"scipy modules loaded: {loaded}")
""")


def test_every_subcommand_runs_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "configs"), str(tmp_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    for sub in ("build", "render", "surface", "vertex", "transform", "sweep"):
        assert any((tmp_path / sub).iterdir()), sub
