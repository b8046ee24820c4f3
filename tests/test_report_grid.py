"""``metrics.Reports`` against row-wise reports.

A grid is checked cell by cell at construction; its CSV text and its
``summarize`` must equal, bit for bit, what the row-wise writer and
``summarize`` of ``report_oracle`` give on the grid's rows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proadapt.metrics import Cell, Reports, reports_to_csv_text, summarize
from report_oracle import Row, grid_rows, rows_to_csv_text, summarize_rows

NAMES = ("persistence", "arima", "mra", "brr", "baseline_mean", "b")


@st.composite
def grid_fields(draw, min_runs: int = 1):
    """Constructor arguments of a valid grid: 1-4 distinct models in a drawn
    order, drawn seeds, scores from 0 to 1e6 (rmse >= mae, ties included) and
    a drawn error mask, from none to every cell."""
    models = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                                 unique=True)))
    n_runs = draw(st.integers(min_runs, 30))
    shape = (n_runs, len(models))
    cells = n_runs * len(models)
    maes = draw(st.lists(st.floats(0.0, 1e6), min_size=cells, max_size=cells))
    extra = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.5, 7.0]), min_size=cells,
                          max_size=cells))
    mae = np.array(maes).reshape(shape)
    rmse = mae * (1.0 + np.array(extra).reshape(shape))
    rate = draw(st.sampled_from([0.0, 0.2, 0.7, 1.0]))
    failed = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape) < rate
    rmse[failed] = mae[failed] = math.nan
    errors = {(models[k], run): f"run {run} failed"
              for run, k in zip(*np.nonzero(failed))}
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=n_runs, max_size=n_runs))
    fraction = draw(st.sampled_from([0.9, 0.5, 0.75, 1e-9, 1 - 1e-9]))
    return models, seeds, rmse, mae, fraction, errors


@settings(max_examples=300, deadline=None)
@given(grid_fields(), grid_fields())
def test_csv_and_summary_equal_the_row_wise_ones(fields, other_fields):
    grid, other = Reports(*fields), Reports(*other_fields)
    rows, other_rows = grid_rows(grid), grid_rows(other)
    assert reports_to_csv_text(grid) == rows_to_csv_text(rows)
    assert reports_to_csv_text(grid, other) == rows_to_csv_text(rows + other_rows)
    # repr tells every float apart bit for bit (NaN included, -0.0 from 0.0).
    assert repr(summarize(grid)) == repr(summarize_rows(rows))
    assert [tuple(cell) for cell in grid] == rows


@settings(max_examples=200, deadline=None)
@given(grid_fields(), st.data())
def test_a_nan_without_an_error_is_rejected(fields, data):
    models, seeds, rmse, mae, fraction, errors = fields
    scored = np.argwhere(~np.isnan(rmse))
    if not scored.size:
        return
    run, k = scored[data.draw(st.integers(0, len(scored) - 1))]
    scores = data.draw(st.sampled_from([rmse, mae]))
    scores[run, k] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    with pytest.raises(ValueError, match="^scores must be finite$"):
        Reports(models, seeds, rmse, mae, fraction, errors)


@settings(max_examples=200, deadline=None)
@given(grid_fields(), st.data())
def test_an_error_with_a_score_is_rejected(fields, data):
    models, seeds, rmse, mae, fraction, errors = fields
    run = data.draw(st.integers(0, len(seeds) - 1))
    k = data.draw(st.integers(0, len(models) - 1))
    errors = {**errors, (models[k], run): "boom"}
    rmse[run, k] = mae[run, k] = data.draw(st.sampled_from([0.0, 1.5]))
    if data.draw(st.booleans()):  # only one of the two scores is set
        data.draw(st.sampled_from([rmse, mae]))[run, k] = math.nan
    with pytest.raises(ValueError, match="^an errored cell must have NaN scores$"):
        Reports(models, seeds, rmse, mae, fraction, errors)


def small(rmse=((0.5, 0.25), (0.75, math.nan)), mae=((0.25, 0.25), (0.5, math.nan)),
          fraction=0.9, errors=None, models=("a", "b"), seeds=(11, 12)) -> Reports:
    errors = {("b", 1): "boom"} if errors is None else errors
    return Reports(models, seeds, np.array(rmse), np.array(mae), fraction, errors)


@pytest.mark.parametrize("change, message", [
    ({"fraction": 1.0}, r"^train_fraction must lie in \(0, 1\)$"),
    ({"fraction": math.nan}, r"^train_fraction must lie in \(0, 1\)$"),
    ({"models": ("a", "a")}, "^model names must be distinct"),
    ({"seeds": (11,)}, r"^rmse and mae must have shape \(runs, models\) = \(1, 2\)"),
    ({"mae": ((0.25, 0.25),)}, r"got \(2, 2\) and \(1, 2\)$"),
    ({"errors": {("c", 0): "boom"}}, "^error of model 'c' on run 0 is outside the grid$"),
    ({"errors": {("b", 1): "boom", ("a", 2): "boom"}}, "^error of model 'a' on run 2"),
    ({"errors": {("b", 1): "boom", ("a", -1): "boom"}}, "^error of model 'a' on run -1"),
    ({"errors": {}}, "^scores must be finite$"),
    ({"mae": ((-0.25, 0.25), (0.5, math.nan))}, "^expected rmse >= mae >= 0$"),
    ({"rmse": ((0.5, 0.2), (0.75, math.nan))}, "^expected rmse >= mae >= 0$"),
])
def test_constructor_checks(change, message):
    with pytest.raises(ValueError, match=message):
        small(**change)


def test_rmse_may_fall_below_mae_by_rounding_only():
    small(rmse=((0.25 - 1e-13, 0.25), (0.75, math.nan)))
    with pytest.raises(ValueError, match="^expected rmse >= mae >= 0$"):
        small(rmse=((0.25 - 1e-11, 0.25), (0.75, math.nan)))


def test_arrays_are_read_only_copies():
    rmse = np.array(((0.5, 0.25), (0.75, math.nan)))
    grid = small(rmse=rmse)
    rmse[0, 0] = 9.0
    assert grid.rmse[0, 0] == 0.5
    for scores in (grid.rmse, grid.mae):
        with pytest.raises(ValueError, match="read-only"):
            scores[0, 0] = 1.0
    with pytest.raises(TypeError):
        grid.errors["a", 0] = "boom"


def test_iteration_yields_cells_in_run_order():
    assert list(small()) == [Cell(0, "a", 0.5, 0.25, 0.9, 11, None),
                             Cell(0, "b", 0.25, 0.25, 0.9, 11, None),
                             Cell(1, "a", 0.75, 0.5, 0.9, 12, None),
                             Cell(1, "b", None, None, 0.9, 12, "boom")]


def test_select_keeps_and_renames_columns_in_their_order():
    grid = Reports(("m", "s", "x", "y"), (5, 6),
                   np.array([[1.0, 2.0, 3.0, math.nan], [4.0, math.nan, 6.0, 7.0]]),
                   np.array([[1.0, 2.0, 3.0, math.nan], [4.0, math.nan, 6.0, 7.0]]),
                   0.9, {("y", 0): "y failed", ("s", 1): "s failed"})
    # The mapping's order does not matter; the grid's does.
    kept = grid.select({"y": "why", "m": "em", "s": "s"})
    assert kept.models == ("em", "s", "why")
    assert kept.seeds == grid.seeds and kept.train_fraction == grid.train_fraction
    assert dict(kept.errors) == {("why", 0): "y failed", ("s", 1): "s failed"}
    assert grid_rows(kept) == [
        Row(r.run, {"m": "em", "y": "why"}.get(r.model, r.model), r.rmse, r.mae,
            r.train_fraction, r.seed, r.error)
        for r in grid_rows(grid) if r.model != "x"]
    assert kept.select({}).rmse.shape == (2, 0)
    with pytest.raises(ValueError, match="^model names must be distinct"):
        grid.select({"m": "z", "s": "z"})
