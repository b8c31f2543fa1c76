"""The planned coefficient evaluator against a plain recursive walk.

`fourier.coefficient_values` plans the sums, products and scalings of the
trees it reads: each distinct one that several readers share runs once per
q array, and its value is dropped after its last reader.  Every table it
gives must equal `refs.walked_values`, which runs each node wherever it is
reached, bit for bit; the plan must run far fewer nodes than the walk on
the eight's Poisson bracket, keep no value past the call, and leave the
vertex's unshared coefficients to their plain calls.
"""

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from fuzzyreg import profiles, regularize
from fuzzyreg.cli import function_from_config
from fuzzyreg.fourier import FourierFunction, MatrixFourierFunction, coefficient_values, mul, poisson_bracket
from fuzzyreg.interpolate import VertexParams, build_string_vertex, close_caps, make_profile, mirror_concat
from fuzzyreg.profiles import (
    AffineProfile,
    ComplexProfile,
    ComposedProfile,
    ConstantProfile,
    ProductProfile,
    ScaledProfile,
    SumProfile,
    smooth_step,
)
from fuzzyreg.regularize import make_grid, regularize_schedule
from refs import walked_values

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
STRUCTURED = (SumProfile, ProductProfile, ScaledProfile)


def eight_functions():
    """f, g, {f, g} and f g of the eight's Poisson sweep config, as 1 x 1 matrix functions."""
    cfg = json.loads((CONFIGS / "eight_poisson.json").read_text())["sweep"]
    f, g = function_from_config(cfg["f"]), function_from_config(cfg["g"])
    return [MatrixFourierFunction.from_scalar(h) for h in (f, g, poisson_bracket(f, g), mul(f, g))]


def assert_tables_bitwise(got, want):
    assert len(got) == len(want)
    for tg, tw in zip(got, want):
        assert list(tg) == list(tw)
        for key in tw:
            assert tg[key].shape == tw[key].shape
            assert np.array_equal(tg[key].view(np.int64), tw[key].view(np.int64)), key


def schedule_calls(monkeypatch, functions, grids):
    """Run `regularize_schedule` and return the (functions, qs, tables) of its
    one `coefficient_values` call."""
    calls = []

    def recorded(fns, qs):
        tables = coefficient_values(fns, qs)
        calls.append((fns, qs, tables))
        return tables

    monkeypatch.setattr(regularize, "coefficient_values", recorded)
    list(regularize_schedule(functions, grids))
    (call,) = calls
    return call


def cap_window():
    h = smooth_step()
    return ComposedProfile(h, 2.0, 1.0) * ComposedProfile(h, -2.0, 5.0)


def vertex_functions(case):
    if case == "mirrored":
        return mirror_concat(build_string_vertex(VertexParams(N=12)), 2.5).generators
    if case == "close-caps":
        X = build_string_vertex(VertexParams(N=12)).generators[0]
        return [close_caps(X, cap_window())]
    return build_string_vertex(VertexParams(N=12, profile=make_profile(case))).generators


@pytest.mark.parametrize("rule", ["symmetric", "left", "row-anchored"])
def test_eight_schedule_tables_equal_the_walk_bitwise(monkeypatch, rule):
    functions = eight_functions()
    grids = [make_grid(n, functions[0].interval, rule) for n in (16, 32, 64)]
    fns, qs, tables = schedule_calls(monkeypatch, functions, grids)
    assert_tables_bitwise(tables, walked_values(fns, qs))


@pytest.mark.parametrize("case", ["explicit-spline", "derived-lambda", "mirrored", "close-caps"])
def test_vertex_schedule_tables_equal_the_walk_bitwise(monkeypatch, case):
    functions = vertex_functions(case)
    grids = [make_grid(n, functions[0].interval) for n in (12, 20)]
    fns, qs, tables = schedule_calls(monkeypatch, functions, grids)
    assert_tables_bitwise(tables, walked_values(fns, qs))


def test_signed_zeros_are_distinct_structures(monkeypatch):
    # x * (+0) and x * (-0), 0 x and -0 x differ in the sign of their zeros: merged,
    # one would take the other's bits
    x = AffineProfile(-1.0, 2.0)
    parts = [ProductProfile(x, ConstantProfile(0.0)), ProductProfile(x, ConstantProfile(-0.0)),
             ScaledProfile(0.0, x), ScaledProfile(-0.0, x)]
    parts = [SumProfile((p, x)) for p in parts] + parts  # each read twice, so planned
    F = MatrixFourierFunction.from_scalar(FourierFunction(
        (0.0, 1.0), {n: ComplexProfile(p, parts[-1 - n]) for n, p in enumerate(parts)}))
    q = np.linspace(0.0, 1.0, 9)
    walked = walked_values([F], [q])
    runs = counted_structured_runs(monkeypatch)
    (table,) = coefficient_values([F], [q])
    assert_tables_bitwise([table], walked)
    # the four roots with no structured child are numbered by their sums, and
    # their reads as roots are counted too: each of the 8 runs once
    assert sorted(runs) == list(range(8))
    signs = [np.signbit(table[(0, 0, n)].real).any() for n in range(4, 8)]
    assert signs == [True, False, True, False]  # x < 0 below q = 1/2


def counted_structured_runs(monkeypatch):
    """A list that grows by one for each sum, product or scaling run, plainly or by the plan."""
    runs = []
    for cls in STRUCTURED:
        call = cls.__call__
        monkeypatch.setattr(cls, "__call__", lambda self, q, call=call: runs.append(self) or call(self, q))
    computed = profiles._Plan._computed
    monkeypatch.setattr(profiles._Plan, "_computed",
                        lambda plan, n, qa, group: runs.append(n) or computed(plan, n, qa, group))
    return runs


def test_the_bracket_runs_each_distinct_structure_once(monkeypatch):
    bracket = eight_functions()[2]
    q = np.linspace(-1.0, 1.0, 257)
    runs = counted_structured_runs(monkeypatch)
    walked = walked_values([bracket], [q])
    walk_runs = len(runs)
    runs.clear()
    assert_tables_bitwise(coefficient_values([bracket], [q]), walked)
    assert len(runs) <= 238
    assert walk_runs > 4 * len(runs)


def test_unshared_vertex_coefficients_take_the_plain_path(monkeypatch):
    # the parts of the vertex's X and Y are opaque leaves, or a conjugate
    # part -1 * leaf read once: nothing is worth planning
    X, Y, _ = build_string_vertex(VertexParams(N=12)).generators
    q = np.linspace(-1.0, 3.0, 33)
    runs = counted_structured_runs(monkeypatch)
    coefficient_values([X, Y], [q, q])
    assert runs and not any(isinstance(r, int) for r in runs)


def test_no_planned_value_outlives_the_call(monkeypatch):
    bracket = eight_functions()[2]
    q = np.linspace(-1.0, 1.0, 257)
    planned = []
    computed = profiles._Plan._computed
    monkeypatch.setattr(profiles._Plan, "_computed", lambda plan, n, qa, group: planned.append(
        weakref.ref(v := computed(plan, n, qa, group))) or v)
    gc.disable()  # dead by reference counts alone: the plan holds no cycle
    try:
        tables = coefficient_values([bracket], [q])
        assert planned and all(r() is None for r in planned)
    finally:
        gc.enable()
    assert profiles._plan.get() is None and profiles._memo.get() is None
    assert len(tables[0]) == len(bracket.entries[0][0].coeffs)
