"""Benchmark of the fuzzyreg CLI.

One process is one closed-loop client: it runs an operation (a fixed list
of CLI jobs, each through `fuzzyreg.cli.run_cli(argv)` in-process) as soon
as the previous one finished, with no think time, for `--seconds` seconds.
BLAS is pinned to one thread. Every operation's artifacts are checked (see
check.py); a nonzero exit, an exception or a wrong output fails it.

    python3 fzbench/run.py --workload vertex-study --seed 0 --seconds 30 --trace 0

Run from the repository root; inputs are generated from --seed into
fzbench/.work/. The last line of standard output is the result as JSON.

--trace 0 reports the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter importing fuzzyreg.cli
  job_s.p50    median wall time of one operation, at reference CPU speed
  job_s.tail   highest nearest-rank percentile of the same times with at
               least ten samples beyond it, but never below the median; the
               percentile and the sample count are printed before the result
  peak_rss_mb  ru_maxrss of this process

On a shared host each vCPU runs, for seconds at a time, up to 1.6x slower
while a neighbour is busy, so the median wall time of a 30 s run moves by
up to 25% between runs of the same code. A fixed pure-Python loop (probe())
is timed before and after every operation, and the operation times are
scaled by REFERENCE_PROBE_S / (median probe time of the run). That halves
the spread between runs; the unscaled times and the scale factor are
printed on the line before the result.
Failures are reported as `failed` out of `attempted` operations, and
failed_frac = failed / attempted on the line before the result; it is not
a metric, because a metric must never read 0.

--trace 1 runs half the time untraced and half traced, then a layer scan,
and reports the per-layer metrics (see tracing.py and scan.py), including the
tracing overhead as traced minus untraced median operation time (both
scaled as below). Layer times are unscaled wall times.
"""

import os

# Before numpy is imported anywhere, here and in every child interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
MIN_BEYOND_TAIL = 10
PROBE_LOOPS = 100_000
# Median probe() time on the 2.1 GHz x86-64 host this benchmark was defined
# on; operation times are scaled to that speed.
REFERENCE_PROBE_S = 0.0075

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="fuzzyreg CLI benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def probe() -> float:
    """Wall time of a fixed pure-Python loop: the current speed of this CPU."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def speed_scale(runner, ops) -> float:
    """REFERENCE_PROBE_S over the median probe time around the operations."""
    return REFERENCE_PROBE_S / statistics.median(runner.probes[k] for k in ops)


def measure_setup(env) -> list:
    """Wall time of fresh interpreters importing fuzzyreg.cli, spawn to exit.

    In a fresh checkout the first sample also compiles the bytecode; the
    median of the samples leaves that one out."""
    cmd = [sys.executable, "-c", "import fuzzyreg.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def tail(samples) -> tuple:
    """(value, percentile, samples beyond it) by nearest rank."""
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 1 - MIN_BEYOND_TAIL, n // 2)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


class Runner:
    """Runs and checks operations; counts attempts and failures."""

    def __init__(self, cli, workload, checker, out: Path):
        self.cli = cli
        self.jobs = workload.jobs(out)
        self.checker = checker
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.probes = {}  # operation id -> probe() time around it

    def op(self, tracer=None) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        sink = io.StringIO()
        error = None
        before = probe()
        if tracer is not None:
            tracer.op = self.attempted
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for job, argv in self.jobs:
                try:
                    rc = self.cli.run_cli(argv)
                except Exception:  # a crashing job fails the operation, not the run
                    error = f"{job}: {traceback.format_exc(limit=4)}"
                    break
                if rc != 0:
                    error = f"{job}: exit code {rc}: {sink.getvalue()[-400:]}"
                    break
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        self.probes[self.attempted] = 0.5 * (before + probe())
        problems = [error] if error else self.checker.check(self.out)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(problems)
        return dt

    def loop(self, seconds, tracer=None) -> dict:
        """Operation id -> wall seconds, for at least `seconds`."""
        times = {}
        deadline = time.perf_counter() + seconds
        while True:
            k = self.attempted
            times[k] = self.op(tracer)
            if time.perf_counter() >= deadline:
                return times


def report(line_tag, obj):
    print(f"{line_tag}: {json.dumps(obj, sort_keys=True)}")


def traced_metrics(runner, args, env, work) -> dict:
    from scan import import_breakdown, layer_scan, scan_metrics, source_lines
    from tracing import Tracer, design_check

    untraced = runner.loop(args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.loop(args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced)
    metrics["trace.overhead_s"] = (
        statistics.median(traced.values()) * speed_scale(runner, traced)
        - statistics.median(untraced.values()) * speed_scale(runner, untraced))
    with open(work / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    report("sweep steps (N: s)", tracer.step_times())
    report("design shares", design_check(args.workload, metrics))

    imports = import_breakdown(env, ROOT)
    report("importtime cumulative s", imports)
    metrics["profiles.import_s"] = imports.get("fuzzyreg.profiles", 0.0)

    rows = layer_scan(work)
    report("layer scan (N: s)", rows)
    metrics.update(scan_metrics(rows))
    metrics["scan.src_lines"] = source_lines(ROOT)
    report("tracing overhead", {"untraced": len(untraced), "traced": len(traced),
                                "untraced_p50_s": statistics.median(untraced.values()),
                                "traced_p50_s": statistics.median(traced.values())})
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fuzzyreg" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print("error: src/fuzzyreg and configs/ not found next to fzbench/; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    env = child_env()
    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = None if args.trace else measure_setup(env)
    sys.path.insert(0, str(ROOT / "src"))
    from fuzzyreg import cli

    from check import Checker, load_reference
    from metrics import END_TO_END, per_layer
    from scan import environment
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, ROOT, work)
    runner = Runner(cli, workload, Checker(workload, load_reference()), work / "out")
    report("env", environment())
    report("params", workload.params)

    runner.op()  # warm-up: checked in full, not timed
    if args.trace:
        values = traced_metrics(runner, args, env, work)
        units = {name: unit for name, (unit, _better) in per_layer().items()}
    else:
        ops = runner.loop(args.seconds)
        times = list(ops.values())
        speed = speed_scale(runner, ops)
        with open(work / "job_times.json", "w", encoding="utf-8") as fh:
            json.dump({"job_s": times, "probe_s": [runner.probes[k] for k in ops]}, fh)
        tail_s, pct, beyond = tail(times)
        report("job_s.tail", {"percentile": pct, "samples": len(times), "beyond": beyond})
        report("wall time before scaling", {"job_s.p50": statistics.median(times),
                                            "job_s.tail": tail_s, "scale": speed})
        values = {
            "setup_s": statistics.median(setup),
            "job_s.p50": statistics.median(times) * speed,
            "job_s.tail": tail_s * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from the declared set: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report("checked outputs", runner.checker.facts)
    report("operations", {"attempted": runner.attempted, "failed": runner.failed,
                          "failed_frac": runner.failed / runner.attempted})
    for problems in runner.failures[:5]:
        print("failed operation: " + "; ".join(problems), file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
