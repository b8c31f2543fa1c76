"""Convergence checks across matrix-size sweeps.

Every check runs a builder or function pair over a schedule of sizes,
records one scalar per size, and judges decay against documented thresholds
(0.6 per doubling for first-order quantities, 0.35 for second-order ones,
5% slack for monotonicity).  Reports serialize to JSON-ready dicts and a
plain text table, and carry an exit code for the CLI.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StructureError
from .fourier import (
    MatrixFourierFunction,
    _check_same_interval,
    mul,
    poisson_bracket,
)
from .regularize import (
    FuzzyMatrix,
    as_csr,
    commutator,
    interior_max_entry,
    make_grid,
    regularize_scalar,
    within_border_norm,
)

FIRST_ORDER_RATIO = 0.6
SECOND_ORDER_RATIO = 0.35
MONOTONE_SLACK = 1.05
_ZERO = 1e-14


@dataclass(frozen=True)
class SweepReport:
    """One verifier run: schedule, per-size scalars, verdicts, fit."""

    builder_id: str
    criterion: str
    schedule: tuple
    values: tuple
    delta: int
    verdicts: tuple
    passed: bool
    fitted_order: float | None = None
    scaling_note: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        sched = _schedule(self.schedule)
        vals = tuple(float(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise DomainError("recorded residuals must be nonnegative")
        object.__setattr__(self, "schedule", sched)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "verdicts", tuple(bool(v) for v in self.verdicts))

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json_dict(self) -> dict:
        return {
            "builder": self.builder_id,
            "criterion": self.criterion,
            "schedule": list(self.schedule),
            "values": list(self.values),
            "delta": self.delta,
            "verdicts": list(self.verdicts),
            "passed": self.passed,
            "fitted_order": self.fitted_order,
            "scaling_note": self.scaling_note,
            "extras": {k: list(v) for k, v in self.extras.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"criterion: {self.criterion}",
            f"builder:   {self.builder_id}",
            f"border:    {self.delta}",
        ]
        if self.scaling_note:
            lines.append(f"scaling:   {self.scaling_note}")
        row_sums = self.extras.get("row_sum_norm")
        if row_sums:
            rising = len(row_sums) > 1 and all(b > a for a, b in zip(row_sums, row_sums[1:]))
            values = " ".join(f"{v:.6e}" for v in row_sums)
            lines.append(f"row sums:  {values} ({'rising' if rising else 'not rising'})")
        lines.append(f"{'N':>8}  {'value':>14}  verdict")
        for k, (n, v) in enumerate(zip(self.schedule, self.values)):
            verdict = "pass" if self.verdicts[k] else "FAIL"
            lines.append(f"{n:>8}  {v:>14.6e}  {verdict}")
        if self.fitted_order is not None:
            lines.append(f"fitted decay order: {self.fitted_order:.2f}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"


def _schedule(Ns) -> tuple:
    """The sizes of a sweep as ints: at least two (a decay claim compares
    sizes), strictly increasing."""
    sched = tuple(int(n) for n in Ns)
    if len(sched) < 2:
        raise DomainError(f"sweep schedule must not be empty or a single size, got {sched}")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise DomainError("sweep schedule must be strictly increasing")
    return sched


def _builder_id(builder, label=None) -> str:
    if label:
        return str(label)
    return getattr(builder, "__name__", repr(builder))


def _fit_order(schedule, values):
    """Least-squares slope of -log(value) against log(N), positive = decay."""
    ns, vs = [], []
    for n, v in zip(schedule, values):
        if v > _ZERO:
            ns.append(np.log(float(n)))
            vs.append(np.log(v))
    if len(ns) < 2:
        return None
    slope = np.polyfit(ns, vs, 1)[0]
    return float(-slope)


def _ratio_verdicts(schedule, values, ratio):
    """Per-step pass flags: value must drop by ratio^(log2 size step).

    Zero residuals (below 1e-14) pass by themselves; the first entry is
    always marked pass (nothing to compare against).
    """
    flags = [True]
    for k in range(len(values) - 1):
        step = np.log2(schedule[k + 1] / schedule[k])
        target = ratio**step
        if values[k] <= _ZERO:
            flags.append(values[k + 1] <= 10 * _ZERO)
        else:
            flags.append(values[k + 1] <= values[k] * target + 1e-12)
    return flags


def _monotone_verdicts(values, slack=MONOTONE_SLACK):
    flags = [True]
    for k in range(len(values) - 1):
        flags.append(values[k + 1] <= values[k] * slack + _ZERO)
    return flags


def check_norm_convergence(builder, Ns, delta, label=None) -> SweepReport:
    """Record within-border norms of builder(N) and require the successive
    differences to settle (non-increasing over the last three steps)."""
    Ns = _schedule(Ns)
    values = []
    for n in Ns:
        M = builder(n)
        if not isinstance(M, FuzzyMatrix):
            raise StructureError("norm sweep builder must return a FuzzyMatrix")
        values.append(within_border_norm(M, delta))
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    tail = diffs[-3:]
    passed = all(b <= a * MONOTONE_SLACK + _ZERO for a, b in zip(tail, tail[1:]))
    verdicts = [True] * len(values)
    if not passed:
        verdicts[-1] = False
    return SweepReport(
        builder_id=_builder_id(builder, label),
        criterion="norm-convergence",
        schedule=Ns,
        values=tuple(values),
        delta=int(delta),
        verdicts=tuple(verdicts),
        passed=bool(passed),
        fitted_order=None,
        extras={"diffs": tuple(diffs)},
    )


def _first_order_sweep(kind, f, g, rule, Ns, delta, label, residual, scaling_note=""):
    """Within-border norms of residual(grid, Q(f), Q(g)) over the schedule,
    judged for first-order decay; delta defaults to the summed cutoffs."""
    delta = f.cutoff + g.cutoff if delta is None else int(delta)
    Ns = _schedule(Ns)
    values = []
    for n in Ns:
        grid = make_grid(n, f.interval, rule)
        Qf, Qg = regularize_scalar(f, grid), regularize_scalar(g, grid)
        resid = FuzzyMatrix(residual(grid, Qf, Qg), grid.N, 1)
        values.append(within_border_norm(resid, delta))
    verdicts = _ratio_verdicts(Ns, values, FIRST_ORDER_RATIO)
    return SweepReport(
        builder_id=str(label or kind),
        criterion=f"{kind}-convergence",
        schedule=Ns,
        values=tuple(values),
        delta=delta,
        verdicts=tuple(verdicts),
        passed=all(verdicts),
        fitted_order=_fit_order(Ns, values),
        scaling_note=scaling_note,
    )


def check_product_convergence(f, g, rule="symmetric", Ns=(16, 32, 64), delta=None, label=None) -> SweepReport:
    """Within-border norm of Q(f)Q(g) - Q(fg); first-order decay expected."""

    def residual(grid, Qf, Qg):
        return (as_csr(Qf) @ as_csr(Qg)).toarray() - regularize_scalar(mul(f, g), grid).data

    return _first_order_sweep("product", f, g, rule, Ns, delta, label, residual)


def check_poisson_convergence(f, g, rule="symmetric", Ns=(16, 32, 64), delta=None, label=None) -> SweepReport:
    """Within-border norm of i s(N) [Q(f), Q(g)] - Q({f, g}).

    The commutator of regularizations carries the bracket at order 1/N with
    prefactor -i (superdiagonal convention for e^{i phi}), so the rescaled
    combination above converges to zero; s(N) = N / (beta_left + beta_right).
    """

    def residual(grid, Qf, Qg):
        comm = commutator(Qf, Qg)
        s = grid.N / (grid.beta_left + grid.beta_right)
        target = regularize_scalar(poisson_bracket(f, g), grid)
        return 1j * s * comm.data - target.data

    return _first_order_sweep(
        "poisson", f, g, rule, Ns, delta, label, residual,
        scaling_note="s(N) = N/(beta_left+beta_right), bracket carried with -i/s(N)",
    )


def semiclassical_residual(f, g, rule="symmetric", N=64, delta=None) -> float:
    """Norm of Q(f)Q(g) - Q(fg) - correction, where the correction is the
    exact first-order term -(i/N) Q(beta_l f_phi g_q - beta_r f_q g_phi)
    (equal to -(i beta/N) Q({f, g}) on symmetric grids).  Second-order small
    for smooth coefficient profiles."""
    delta = f.cutoff + g.cutoff if delta is None else int(delta)
    N = int(N)
    grid = make_grid(N, f.interval, rule)
    Qf = regularize_scalar(f, grid)
    Qg = regularize_scalar(g, grid)
    Qfg = regularize_scalar(mul(f, g), grid)
    corr_fn = mul(f.d_phi(), g.d_q()) * grid.beta_left - mul(f.d_q(), g.d_phi()) * grid.beta_right
    Qcorr = regularize_scalar(corr_fn, grid)
    resid = (as_csr(Qf) @ as_csr(Qg)).toarray() - Qfg.data + (1j / N) * Qcorr.data
    return within_border_norm(FuzzyMatrix(resid, N, 1), delta)


def check_commutator_decay(space_builder, Ns, delta=5, label=None) -> SweepReport:
    """Max interior |entry| over all coordinate-pair commutators, per size.

    Passes when the sequence is non-increasing within 5% slack.  The row-sum
    norm of the same interior block is recorded alongside.
    """
    Ns = _schedule(Ns)
    values = []
    row_sums = []
    for n in Ns:
        space = space_builder(n)
        coords = space.coordinates
        if len(coords) < 2:
            raise StructureError("commutator decay needs at least two coordinates")
        worst = 0.0
        worst_rs = 0.0
        for A, B in itertools.combinations(coords, 2):
            comm = commutator(A, B)
            worst = max(worst, interior_max_entry(comm, delta))
            worst_rs = max(worst_rs, within_border_norm(comm, delta))
        values.append(worst)
        row_sums.append(worst_rs)
    verdicts = _monotone_verdicts(values)
    return SweepReport(
        builder_id=_builder_id(space_builder, label),
        criterion="commutator-decay",
        schedule=Ns,
        values=tuple(values),
        delta=int(delta),
        verdicts=tuple(verdicts),
        passed=all(verdicts),
        fitted_order=_fit_order(Ns, values),
        extras={"row_sum_norm": tuple(row_sums)},
    )


def matrix_fn_commutator_sup(F: MatrixFourierFunction, G: MatrixFourierFunction, samples=64) -> float:
    """Sup of the pointwise commutator's operator norm over a (q, phi) grid."""
    _check_same_interval(F, G)
    samples = int(samples)
    qs = np.linspace(F.interval[0], F.interval[1], samples)
    phis = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    FV = F.eval(qs[:, None], phis[None, :])
    GV = G.eval(qs[:, None], phis[None, :])
    comm = FV @ GV - GV @ FV
    svals = np.linalg.svd(comm, compute_uv=False)
    return float(np.max(svals))
