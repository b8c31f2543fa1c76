"""Outside-in span tracing of the fuzzyreg layers.

Spans are recorded around the public functions of each layer by rebinding
them, without touching the program's source. A function is replaced at
every module that bound it (`from .x import y` copies the reference into
the importing module, so patching only the defining module misses those
calls); methods are replaced on their class. A call made while a span of
the same name is open is not a new span, so `profiles.eval` records only
the outermost `ComplexProfile.__call__`.

Each span is [name, start, end, parent index, operation id]; spans are kept
in memory and aggregated when the run ends. Work counts are recorded at the
same boundaries. Counts that need more than a field read run inside a
`trace.bookkeeping` span, so their cost is reported and is not charged to
the layer that was being measured.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

BOOKKEEPING = "trace.bookkeeping"

# Span name -> (module, attribute) targets. A target "module:Class.method"
# names a method.
LAYERS = {
    "profiles.eval": ["fuzzyreg.profiles:ComplexProfile.__call__"],
    "fourier.hermitian_probe": ["fuzzyreg.fourier:MatrixFourierFunction.is_hermitian",
                                "fuzzyreg.fourier:FourierFunction.is_real_valued"],
    "fourier.eval": ["fuzzyreg.fourier:FourierFunction.eval",
                     "fuzzyreg.fourier:MatrixFourierFunction.eval"],
    "fourier.algebra": ["fuzzyreg.fourier:mul", "fuzzyreg.fourier:poisson_bracket"],
    "interpolate.coeff": ["fuzzyreg.interpolate:interp_fourier_coeff"],
    "interpolate.vertex": ["fuzzyreg.interpolate:build_string_vertex"],
    "regularize.regularize": ["fuzzyreg.regularize:regularize_scalar",
                              "fuzzyreg.regularize:regularize_matrix"],
    "regularize.commutator": ["fuzzyreg.regularize:commutator"],
    "regularize.norms": ["fuzzyreg.regularize:within_border_norm",
                         "fuzzyreg.regularize:interior_max_entry"],
    "spaces.build": ["fuzzyreg.spaces:build_generalized_cylinder",
                     "fuzzyreg.spaces:build_immersed_cylinder",
                     "fuzzyreg.spaces:build_circle_to_eight",
                     "fuzzyreg.spaces:build_double_cylinder",
                     "fuzzyreg.spaces:build_clifford_torus",
                     "fuzzyreg.spaces:build_graph_vertex"],
    "transforms.poly": ["fuzzyreg.transforms:matrix_poly_transform"],
    "transforms.diagonalize": ["fuzzyreg.transforms:diagonalize_coordinate"],
    "verify.sweep": ["fuzzyreg.verify:check_commutator_decay",
                     "fuzzyreg.verify:check_poisson_convergence",
                     "fuzzyreg.verify:check_product_convergence",
                     "fuzzyreg.verify:check_norm_convergence"],
    "verify.commutator_sup": ["fuzzyreg.verify:matrix_fn_commutator_sup"],
    "surface.export": ["fuzzyreg.surface:export_classical_surface"],
    "surface.commutation_probe": ["fuzzyreg.surface:check_commutation"],
    "render.render": ["fuzzyreg.render:render_dot_matrix"],
    "matrixio.write": ["fuzzyreg.matrixio:write_matrix"],
    "matrixio.read": ["fuzzyreg.matrixio:read_matrix"],
    "cli.job": ["fuzzyreg.cli:run_cli"],
}

# Counts reported per operation; the name is the metric name.
COUNTS = (
    "profiles.eval.points",
    "regularize.regularize.bands",
    "regularize.regularize.entries",
    "regularize.commutator.flops_computed",
    "regularize.commutator.bytes_computed",
    "surface.export.eigh_calls",
    "render.render.entries",
    "render.render.bytes",
    "matrixio.write.bytes",
    "matrixio.read.bytes",
)

# Design shares: the union of these spans' time over operation wall time.
SHARES = {
    "share.commutator": ("regularize.commutator",),
    "share.render_matrixio": ("render.render", "matrixio.write", "matrixio.read"),
    "share.vertex_path": ("fourier.hermitian_probe", "regularize.regularize", "surface.export"),
}

# Workload design: the share each workload is built to stress is at least
# the stated floor; the shares of layers it is meant to bypass stay at most
# BYPASS_CEILING. Reported, not gated.
DESIGN = {
    "vertex-study": ("share.vertex_path", 0.6),
    "eight-scaling": ("share.commutator", 0.8),
    "artifacts-io": ("share.render_matrixio", 0.6),
}
BYPASS_CEILING = 0.1

_CHILD_ATTRS = ("outer", "base", "left", "right", "mirror")


def tree_nodes(profile) -> int:
    """Node count of a Profile tree (shared subtrees counted each time)."""
    n = 1
    for attr in _CHILD_ATTRS:
        child = getattr(profile, attr, None)
        if child is not None:
            n += tree_nodes(child)
    for t in getattr(profile, "terms", ()):
        n += tree_nodes(t)
    return n


def design_check(workload: str, metrics: dict) -> dict:
    """share -> [value, expectation, met] for one workload's traced run."""
    stressed, floor = DESIGN[workload]
    out = {}
    for share in SHARES:
        value = metrics[share]
        if share == stressed:
            out[share] = [value, f">= {floor}", value >= floor]
        else:
            out[share] = [value, f"<= {BYPASS_CEILING}", value <= BYPASS_CEILING]
    return out


def _resolve(target):
    mod_name, _, attr = target.partition(":")
    mod = sys.modules[mod_name]
    owner, _, meth = attr.rpartition(".")
    if owner:
        return getattr(mod, owner), meth
    return mod, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = defaultdict(int)
        self.counts = defaultdict(float)
        self.trees = []  # node count of each coefficient tree handed to regularization
        self.useful_madds = 0.0  # multiply-adds a band-aware product needs
        self.dense_madds = 0.0  # multiply-adds of the dense products
        self.steps = []  # (sweep span index, N, time)
        self.op = None
        self._restore = []

    # --- recording ---------------------------------------------------------

    def count(self, name, value):
        self.counts[name] += value

    def _bookkeep(self, fn, *args):
        clock = time.perf_counter
        rec = [BOOKKEEPING, clock(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        fn(*args)
        rec[2] = clock()
        self.spans.append(rec)

    def wrap(self, name, fn, before=None, after=None, inline=None):
        """Span around fn. inline(args) runs untimed field reads; before and
        after run as bookkeeping."""
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None or depth[name]:
                return fn(*args, **kwargs)
            if inline is not None:
                inline(args)
            if before is not None:
                tracer._bookkeep(before, args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                depth[name] -= 1
            if after is not None:
                tracer._bookkeep(after, args, result)
            return result

        return wrapper

    def _mark_step(self, n):
        if self.depth["verify.sweep"]:
            sweep = next(i for i in reversed(self.stack) if self.spans[i][0] == "verify.sweep")
            self.steps.append((sweep, int(n), time.perf_counter()))

    # --- work counts -------------------------------------------------------

    def _eval_points(self, args):
        self.count("profiles.eval.points", np.size(args[1]))

    def _regularize_counts(self, args):
        f, grid = args[0], args[1]
        entries = [e for row in f.entries for e in row] if hasattr(f, "entries") else [f]
        for e in entries:
            for band, c in e.coeffs.items():
                self.count("regularize.regularize.bands", 1)
                self.count("regularize.regularize.entries", grid.N - abs(band))
                self.trees.append(tree_nodes(c.re) + tree_nodes(c.im))

    def _commutator_counts(self, args, _result):
        A, B = args[0].data, args[1].data
        d = A.shape[0]
        # complex multiply-add = 8 real flops; two products and a difference
        self.count("regularize.commutator.flops_computed", 16.0 * d**3 + 2.0 * d * d)
        # read A and B for each product, write both products, read them
        # back for the difference and write the result: 7 complex arrays
        self.count("regularize.commutator.bytes_computed", 7.0 * 16 * d * d)
        nzA, nzB = A != 0, B != 0
        self.useful_madds += float(nzA.sum(0) @ nzB.sum(1) + nzB.sum(0) @ nzA.sum(1))
        self.dense_madds += 2.0 * d**3

    def _render_counts(self, args, result):
        self.count("render.render.entries", args[0].dim ** 2)
        self.count("render.render.bytes", len(result))

    def _write_bytes(self, args, _result):
        self.count("matrixio.write.bytes", os.path.getsize(args[0]))

    def _read_bytes(self, args):
        self.count("matrixio.read.bytes", os.path.getsize(args[0]))

    # --- installation ------------------------------------------------------

    def install(self):
        hooks = {
            "profiles.eval": {"inline": self._eval_points},
            "regularize.regularize": {"before": self._regularize_counts},
            "regularize.commutator": {"after": self._commutator_counts},
            "render.render": {"after": self._render_counts},
            "matrixio.write": {"after": self._write_bytes},
            "matrixio.read": {"before": self._read_bytes},
        }
        mods = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fuzzyreg" and m]
        for name, targets in LAYERS.items():
            for target in targets:
                owner, attr = _resolve(target)
                orig = getattr(owner, attr)
                wrapped = self.wrap(name, orig, **hooks.get(name, {}))
                if isinstance(owner, type):
                    self._rebind(owner, attr, wrapped)
                    continue
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._rebind(mod, key, wrapped)

        # Step boundaries of a sweep: each per-N step starts with make_grid
        # (product and Poisson sweeps) or with the CLI's space builder
        # (commutator-decay sweeps).
        verify, cli = sys.modules["fuzzyreg.verify"], sys.modules["fuzzyreg.cli"]
        make_grid, build_space = verify.make_grid, cli.build_space

        def marked_make_grid(n, *args, **kwargs):
            self._mark_step(n)
            return make_grid(n, *args, **kwargs)

        def marked_build_space(spec, n=None):
            if n is not None:
                self._mark_step(n)
            return build_space(spec, n=n)

        self._rebind(verify, "make_grid", functools.wraps(make_grid)(marked_make_grid))
        self._rebind(cli, "build_space", functools.wraps(build_space)(marked_build_space))

        import numpy.linalg as la

        orig_eigh = la.eigh

        def eigh(*args, **kwargs):
            if self.depth["surface.export"]:
                self.count("surface.export.eigh_calls", 1)
            return orig_eigh(*args, **kwargs)

        self._rebind(la, "eigh", eigh)

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- aggregation -------------------------------------------------------

    def metrics(self, op_times: dict) -> dict:
        """Per-operation means over the traced operations in op_times
        (operation id -> wall seconds)."""
        n_ops = len(op_times)
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for k, rec in enumerate(spans):
            a = agg[rec[0]]
            a[0] += 1
            a[1] += rec[2] - rec[1]
            a[2] += rec[2] - rec[1] - child[k]
        out = {}
        for name in LAYERS:
            calls, total, self_s = agg[name]
            out[f"{name}.calls"] = calls / n_ops
            out[f"{name}.total_s"] = total / n_ops
            out[f"{name}.self_s"] = self_s / n_ops
        for name in COUNTS:
            out[name] = self.counts[name] / n_ops
        trees = self.trees
        out["profiles.tree_nodes"] = sum(trees) / len(trees) if trees else 0.0
        out["profiles.tree_nodes.max"] = float(max(trees, default=0))
        out["regularize.commutator.useful_frac"] = (
            self.useful_madds / self.dense_madds if self.dense_madds else 0.0)
        out["trace.bookkeeping_s"] = agg[BOOKKEEPING][1] / n_ops
        wall = sum(op_times.values())
        for share, names in SHARES.items():
            out[share] = self._covered(names) / wall
        out["verify.sweep.step_exponent"] = self.step_exponent()
        return out

    def _covered(self, names) -> float:
        """Time covered by the union of the named spans."""
        ivs = sorted((r[1], r[2]) for r in self.spans if r[0] in names)
        total, end = 0.0, -math.inf
        for a, b in ivs:
            if b > end:
                total += b - max(a, end)
                end = b
        return total

    def step_times(self) -> dict:
        """Mean wall time of one sweep step, by N."""
        by_sweep = defaultdict(list)
        for sweep, n, t in self.steps:
            by_sweep[sweep].append((t, n))
        per_n = defaultdict(list)
        for sweep, marks in by_sweep.items():
            marks.sort()
            ends = [t for t, _n in marks[1:]] + [self.spans[sweep][2]]
            for (t, n), end in zip(marks, ends):
                per_n[n].append(end - t)
        return {n: sum(v) / len(v) for n, v in sorted(per_n.items())}

    def step_exponent(self) -> float:
        steps = self.step_times()
        if len(steps) < 2:
            return 0.0
        ns = np.log(np.array(list(steps), dtype=float))
        ts = np.log(np.array(list(steps.values())))
        return float(np.polyfit(ns, ts, 1)[0])
