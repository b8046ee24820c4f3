"""``metrics.Reports`` against row-wise reports.

A grid writes NaN at its errored cells and checks every other cell at
construction, naming the first one whose scores are not finite. Its CSV
text and its ``summarize`` must equal, bit for bit, what the row-wise
writer and ``summarize`` of ``report_oracle`` give on the grid's rows.
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
    return models, seeds, rmse, mae, errors


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
    """NaN or an infinity in one to three scored cells raises, naming the
    first of them in run-then-column order and its two scores."""
    models, seeds, rmse, mae, errors = fields
    scored = np.argwhere(~np.isnan(rmse)).tolist()
    if not scored:
        return
    cells = data.draw(st.lists(st.sampled_from(scored), min_size=1, max_size=3))
    for run, k in cells:
        scores = data.draw(st.sampled_from([rmse, mae]))
        scores[run, k] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    run, k = min(cells)
    with pytest.raises(ValueError) as raised:
        Reports(models, seeds, rmse, mae, errors)
    assert str(raised.value) == (f"run {run}, model {models[k]!r}: scores overflow "
                                 f"(rmse={float(rmse[run, k])!r}, "
                                 f"mae={float(mae[run, k])!r})")


@settings(max_examples=200, deadline=None)
@given(grid_fields(), st.data())
def test_an_errored_cell_reads_nan_whatever_its_scores(fields, data):
    """Whatever scores an errored cell is given, finite or not, the grid
    reads NaN there and keeps every other cell's scores; a ``select`` of the
    grid keeps both: NaN exactly at its errors, the grid's scores elsewhere."""
    models, seeds, rmse, mae, errors = fields
    failed = np.isnan(rmse)
    given_scores = st.sampled_from([0.0, 1.5, -2.0, math.nan, math.inf, -math.inf])
    for run, k in np.argwhere(failed).tolist():
        rmse[run, k], mae[run, k] = data.draw(given_scores), data.draw(given_scores)
    grid = Reports(models, seeds, rmse, mae, errors)
    for got, scores in ((grid.rmse, rmse), (grid.mae, mae)):
        assert np.array_equal(np.isnan(got), failed)
        assert np.array_equal(got[~failed], scores[~failed])
    kept = data.draw(st.lists(st.sampled_from(models), unique=True))
    kept_grid = grid.select({model: model.upper() for model in kept})
    keep = [k for k, model in enumerate(models) if model in kept]
    kept_failed = np.zeros((len(seeds), len(keep)), dtype=bool)
    for model, run in kept_grid.errors:
        kept_failed[run, kept_grid.models.index(model)] = True
    assert np.array_equal(kept_failed, failed[:, keep])
    for got, scores in ((kept_grid.rmse, grid.rmse), (kept_grid.mae, grid.mae)):
        assert np.array_equal(got, scores[:, keep], equal_nan=True)


def small(rmse=((0.5, 0.25), (0.75, math.nan)), mae=((0.25, 0.25), (0.5, math.nan)),
          errors=None, models=("a", "b"), seeds=(11, 12)) -> Reports:
    errors = {("b", 1): "boom"} if errors is None else errors
    return Reports(models, seeds, np.array(rmse), np.array(mae), errors)


@pytest.mark.parametrize("change, message", [
    # a's infinity on run 0 is errored, so b's is named.
    ({"errors": {("b", 1): "boom", ("a", 0): "boom"},
      "rmse": ((math.inf, math.inf), (0.75, math.nan))},
     "^run 0, model 'b': scores overflow"),
    ({"mae": ((0.25, 0.25), (-math.inf, math.nan))},
     "^run 1, model 'a': scores overflow"),
    ({"models": ("a", "a")}, "^model names must be distinct"),
    ({"seeds": (11,)}, r"^rmse and mae must have shape \(runs, models\) = \(1, 2\)"),
    ({"mae": ((0.25, 0.25),)}, r"got \(2, 2\) and \(1, 2\)$"),
    ({"errors": {("c", 0): "boom"}}, "^error of model 'c' on run 0 is outside the grid$"),
    ({"errors": {("b", 1): "boom", ("a", 2): "boom"}}, "^error of model 'a' on run 2"),
    ({"errors": {("b", 1): "boom", ("a", -1): "boom"}}, "^error of model 'a' on run -1"),
    ({"errors": {}}, "^run 1, model 'b': scores overflow"),
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
    assert list(small()) == [Cell(0, "a", 0.5, 0.25, 11, None),
                             Cell(0, "b", 0.25, 0.25, 11, None),
                             Cell(1, "a", 0.75, 0.5, 12, None),
                             Cell(1, "b", None, None, 12, "boom")]


def test_select_keeps_and_renames_columns_in_their_order():
    grid = Reports(("m", "s", "x", "y"), (5, 6),
                   np.array([[1.0, 2.0, 3.0, math.nan], [4.0, math.nan, 6.0, 7.0]]),
                   np.array([[1.0, 2.0, 3.0, math.nan], [4.0, math.nan, 6.0, 7.0]]),
                   {("y", 0): "y failed", ("s", 1): "s failed"})
    # The mapping's order does not matter; the grid's does.
    kept = grid.select({"y": "why", "m": "em", "s": "s"})
    assert kept.models == ("em", "s", "why")
    assert kept.seeds == grid.seeds
    assert dict(kept.errors) == {("why", 0): "y failed", ("s", 1): "s failed"}
    assert grid_rows(kept) == [
        Row(r.run, {"m": "em", "y": "why"}.get(r.model, r.model), r.rmse, r.mae, r.seed,
            r.error)
        for r in grid_rows(grid) if r.model != "x"]
    assert kept.select({}).rmse.shape == (2, 0)
    with pytest.raises(ValueError, match="^model names must be distinct"):
        grid.select({"m": "z", "s": "z"})
