"""Convergence checks across matrix-size sweeps.

Every check runs a builder or function pair over a schedule of sizes,
records one scalar per size, and judges decay against documented thresholds
(0.6 per doubling for first-order quantities, 5% slack for monotonicity).
Reports serialize to JSON-ready dicts and a plain text table, and carry an
exit code for the CLI.

`sample_on_grids` samples matrix functions of one block size into one
(d, nq, nphi, S, S) array per (q, phi) grid, for the pointwise commutator sup
and the surface export, from one `fourier.coefficient_values` table per
function.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StructureError
from .fourier import (
    MatrixFourierFunction,
    coefficient_values,
    mul,
    poisson_bracket,
    same_interval,
)
from .regularize import (
    FuzzyMatrix,
    commutator,
    interior_max_entry,
    lincomb,
    make_grid,
    product,
    regularize_schedule,
    within_border_norm,
)

FIRST_ORDER_RATIO = 0.6
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
        for n, v in zip(sched, vals):
            if not np.isfinite(v):
                raise DomainError(f"sweep value at N = {n} is not finite: {v}")
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
    return [True] + [b <= a * slack + _ZERO for a, b in zip(values, values[1:])]


def _report(builder_id, criterion, Ns, values, delta, verdicts, **fields) -> SweepReport:
    """The sweep's report: it passes when every step does, and carries the
    fitted decay order of its values unless `fields` sets one."""
    if "fitted_order" not in fields:
        fields["fitted_order"] = _fit_order(Ns, values)
    return SweepReport(builder_id=builder_id, criterion=criterion, schedule=Ns,
                       values=tuple(values), delta=int(delta), verdicts=tuple(verdicts),
                       passed=all(verdicts), **fields)


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
    verdicts = [True] * (len(values) - 1) + [all(_monotone_verdicts(diffs[-3:]))]
    # norms settle rather than decay, so no decay order is fitted
    return _report(_builder_id(builder, label), "norm-convergence", Ns, values, delta, verdicts,
                   fitted_order=None, extras={"diffs": tuple(diffs)})


def _first_order_sweep(kind, f, g, target, rule, Ns, delta, label, residual, scaling_note=""):
    """Within-border norms of residual(grid, Q(f), Q(g), Q(target)) over the
    schedule, judged for first-order decay; delta defaults to the summed
    cutoffs.  The target function is built once per sweep, and the three
    matrices of every size come from one `regularize_schedule` call, one
    size at a time."""
    delta = f.cutoff + g.cutoff if delta is None else int(delta)
    Ns = _schedule(Ns)
    grids = [make_grid(n, f.interval, rule) for n in Ns]
    sizes = regularize_schedule([MatrixFourierFunction.from_scalar(h) for h in (f, g, target(f, g))],
                                grids)
    values = [within_border_norm(residual(grid, *next(sizes)), delta) for grid in grids]
    verdicts = _ratio_verdicts(Ns, values, FIRST_ORDER_RATIO)
    return _report(str(label or kind), f"{kind}-convergence", Ns, values, delta, verdicts,
                   scaling_note=scaling_note)


def check_product_convergence(f, g, rule="symmetric", Ns=(16, 32, 64), delta=None, label=None) -> SweepReport:
    """Within-border norm of Q(f)Q(g) - Q(fg); first-order decay expected.
    fg is built once and regularized with f and g, size by size."""

    def residual(grid, Qf, Qg, Qfg):
        return lincomb((1, product(Qf, Qg)), (-1, Qfg))

    return _first_order_sweep("product", f, g, mul, rule, Ns, delta, label, residual)


def check_poisson_convergence(f, g, rule="symmetric", Ns=(16, 32, 64), delta=None, label=None) -> SweepReport:
    """Within-border norm of i s(N) [Q(f), Q(g)] - Q({f, g}).

    The commutator of regularizations carries the bracket at order 1/N with
    prefactor -i (superdiagonal convention for e^{i phi}), so the rescaled
    combination above converges to zero; s(N) = N / (beta_left + beta_right).
    {f, g} is built once and regularized with f and g, size by size.
    """

    def residual(grid, Qf, Qg, Qbracket):
        s = grid.N / (grid.beta_left + grid.beta_right)
        return lincomb((1j * s, commutator(Qf, Qg)), (-1, Qbracket))

    return _first_order_sweep(
        "poisson", f, g, poisson_bracket, rule, Ns, delta, label, residual,
        scaling_note="s(N) = N/(beta_left+beta_right), bracket carried with -i/s(N)",
    )


def semiclassical_residual(f, g, rule="symmetric", N=64, delta=None) -> float:
    """Norm of Q(f)Q(g) - Q(fg) - correction, where the correction is the
    exact first-order term -(i/N) Q(beta_l f_phi g_q - beta_r f_q g_phi)
    (equal to -(i beta/N) Q({f, g}) on symmetric grids).  Second-order small
    for smooth coefficient profiles.  The four matrices come from one
    `regularize_schedule` call on the one grid.  The row-anchored rule is
    refused: its beta_l and beta_r swap between the two triangles."""
    delta = f.cutoff + g.cutoff if delta is None else int(delta)
    grid = make_grid(int(N), f.interval, rule)
    if grid.rule == "row-anchored":
        raise DomainError("the semiclassical residual splits beta_l from beta_r, "
                          "which swap between the triangles of the row-anchored grid")
    corr = mul(f.d_phi(), g.d_q()) * grid.beta_left - mul(f.d_q(), g.d_phi()) * grid.beta_right
    fns = [MatrixFourierFunction.from_scalar(h) for h in (f, g, mul(f, g), corr)]
    Qf, Qg, Qfg, Qcorr = next(regularize_schedule(fns, [grid]))
    residual = lincomb((1, product(Qf, Qg)), (-1, Qfg), (1j / grid.N, Qcorr))
    return within_border_norm(residual, delta)


def check_commutator_decay(space_builder, Ns, delta=5, label=None) -> SweepReport:
    """Max interior |entry| over all coordinate-pair commutators, per size.

    Passes when the sequence is non-increasing within 5% slack.  The row-sum
    norm of the same interior block is recorded alongside.
    """
    Ns = _schedule(Ns)
    values, row_sums = [], []
    for n in Ns:
        space = space_builder(n)
        coords = space.coordinates
        if len(coords) < 2:
            raise StructureError("commutator decay needs at least two coordinates")
        worst = worst_rs = 0.0
        for A, B in itertools.combinations(coords, 2):
            comm = commutator(A, B)
            worst = max(worst, interior_max_entry(comm, delta))
            worst_rs = max(worst_rs, within_border_norm(comm, delta))
        values.append(worst)
        row_sums.append(worst_rs)
    return _report(_builder_id(space_builder, label), "commutator-decay", Ns, values, delta,
                   _monotone_verdicts(values), extras={"row_sum_norm": tuple(row_sums)})


def sample_on_grids(functions, shapes) -> list:
    """[(qs, phis, values)] for each shape = (nq, nphi): the grid over the functions' shared
    interval, where values holds every function's samples in one (d, nq, nphi, S, S) array.
    The d >= 1 functions must share their block size S and their interval.

    One coefficient pass serves every grid: each coefficient is evaluated once, in one
    `coefficient_values` call, on the q values of all the grids in a row, and its modes are
    then summed grid by grid, bit for bit what `MatrixFourierFunction.eval` gives on each grid.
    A coefficient that is not finite there is refused, as the regularization refuses it,
    naming function k of `functions`, the entry (a, b) and the band n.
    """
    for shape in shapes:
        if len(shape) != 2 or min(shape) < 1:
            raise DomainError(f"surface grid must be (nq, nphi) with at least one sample "
                              f"per axis, got {shape}")
    if not functions:
        raise DomainError("need at least one function to sample")
    first = functions[0]
    for F in functions[1:]:
        if F.S != first.S or not same_interval(first, F):
            raise DomainError(f"functions sampled together must share block size and interval: "
                              f"S = {first.S} on {first.interval}, S = {F.S} on {F.interval}")
    q1, q2 = first.interval
    axes = [(np.linspace(q1, q2, nq), np.linspace(0.0, 2.0 * np.pi, nphi, endpoint=False))
            for nq, nphi in shapes]
    q = np.concatenate([qs for qs, _ in axes])
    ends = np.cumsum([len(qs) for qs, _ in axes]).tolist()
    parts = [slice(end - len(qs), end) for (qs, _), end in zip(axes, ends)]  # each grid's q
    samples = [(qs, phis, np.zeros((len(functions), len(qs), len(phis), first.S, first.S), complex))
               for qs, phis in axes]
    for k, table in enumerate(coefficient_values(functions, [q] * len(functions))):
        for (a, b, n), cq in table.items():
            if not np.all(np.isfinite(cq)):
                raise DomainError(f"coefficient of function {k}, entry ({a}, {b}), band {n} "
                                  "is not finite on the grid")
            for (_, phis, values), part in zip(samples, parts):
                values[k, ..., a, b] += cq[part, None] * np.exp(1j * n * phis)
    return samples


def pointwise_commutator_sup(FV: np.ndarray, GV: np.ndarray) -> float:
    """Sup over stacked samples of the largest singular value of C = FV GV - GV FV.

    Each sample is divided first by its largest |entry| (an all-zero one by 1), so that
    C^H C neither underflows nor overflows, and sigma_max is sqrt(lambda_max(C^H C)) from
    one batched `eigvalsh` (for any C), run only on the samples that can attain the sup:
    sigma_max <= ||C||_F <= sqrt(S) sigma_max, so below max ||C||_F / sqrt(S) (less a
    relative 1e-9, far above the rounding of the norms) no sample holds it, and the sup is
    the same float.  A stack whose largest |entry| is 0, inf or NaN keeps every sample.
    The products run on blocks of 512 samples copied to the last, contiguous axis, where
    `einsum` is fastest, in the same sums as on the stacked layout, so FV GV and GV FV
    stay bitwise equal at S = 1.
    """
    S = FV.shape[-1]
    FV, GV = FV.reshape(-1, S, S), GV.reshape(-1, S, S)
    C = np.empty((S, S, len(FV)), dtype=np.result_type(FV, GV))
    for start in range(0, len(FV), 512):  # a block at a time, so the copies stay small
        F, G = (np.ascontiguousarray(np.moveaxis(V[start:start + 512], 0, -1)) for V in (FV, GV))
        C[..., start:start + 512] = np.einsum("ijn,jkn->ikn", F, G) - np.einsum("ijn,jkn->ikn", G, F)
    scale = np.max(np.abs(C), axis=(0, 1))
    C /= np.where(scale > 0, scale, 1.0)
    top = np.max(scale)
    if np.isfinite(top) and top > 0:
        frobenius = scale / top * np.sqrt(np.sum(C.real ** 2 + C.imag ** 2, axis=(0, 1)))
        keep = frobenius >= np.max(frobenius) * (1.0 - 1e-9) / np.sqrt(S)
        C, scale = C[..., keep], scale[keep]
    gram = np.moveaxis(np.einsum("jin,jkn->ikn", C.conj(), C), -1, 0)
    lam = np.linalg.eigvalsh(gram)[..., -1]
    return float(np.max(scale * np.sqrt(np.maximum(lam, 0.0))))


def matrix_fn_commutator_sup(F: MatrixFourierFunction, G: MatrixFourierFunction, samples=64) -> float:
    """Sup of the pointwise commutator's operator norm over a (q, phi) grid."""
    return pointwise_commutator_sup(*sample_on_grids((F, G), [(samples, samples)])[0][2])
