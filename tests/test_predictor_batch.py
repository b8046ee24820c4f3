"""The batched predictor harness against the per-run reference harness,
and each response of a shared split against its one-response call.

``metrics.run_predictor_experiments`` fits each batch of runs from
downdated Gram statistics and falls back to ``fit_mra`` or
``fit_bayesian_ridge`` on a run's rows when the statistics cannot be
trusted; ``predictor_oracle.reference_predictor_experiments`` fits every
run on its rows. Report keys, errors and static-baseline scores must be
equal; the running-mean baseline takes its training mean from downdated
sums, so its scores must agree within ``mean_baseline_tolerance``, and
the least-squares and ridge scores within ``SCORE_RTOL``
relative plus eps * cond * rms(t) absolute, cond being lambda_max over the
smallest eigenvalue of X'X above lambda_max / ``CONDITION_LIMIT`` (both
harnesses regularise the directions below it). The absolute part is the
textbook forward-error bound of a prediction, which is all either harness
can promise on an ill-conditioned design (against a 60-digit reference,
both ridge scores of one design with cond(X'X) = 2.6e8 were 2e-9 to 4e-9
off) or for an exact fit, whose scores are rounding noise.

The harness scores all of its responses on one split per run. Each
response's columns must equal, bit for bit, those of a call given that
response alone under the same seed, and its scores must agree with the
reference on that response as above. A call whose scores overflow names
the first such cell in run-then-column order, by its column
``<model>_<response>``: of the cells the one-response calls name, the
lowest run's, and on that run the first response's.
"""

from __future__ import annotations

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from predictor_oracle import reference_predictor_experiments
from proadapt import metrics, regression
from proadapt.emulator import generate_trace, to_regression_dataset
from proadapt.metrics import (BRR_MODEL, MEAN_BASELINE, MRA_MODEL, PASS_CELLS,
                              PREDICTOR_MODELS, STATIC_BASELINE, run_predictor_experiments)
from proadapt.regression import (BRR_OVERFLOW, CONDITION_LIMIT, DesignMatrix, ResponseVector,
                                 fit_bayesian_ridge, fit_gram_batch)
from proadapt.types import subseeds
from report_oracle import grid_rows

SCORE_RTOL = 1e-9
WEIGHT_RTOL = 1e-9
KINDS = ("well", "scaled", "near_collinear", "collinear", "constant_lag", "exact", "huge_rows",
         "huge_responses")


def build_design(kind: str, n: int, m: int, rng: np.random.Generator,
                 noise: float = 0.3) -> tuple[DesignMatrix, ResponseVector]:
    """An (n, m) design with an intercept column and its responses.

    ``well``: independent normal columns at scales within a factor of 100
    of each other and noisy responses. ``scaled``: the same at scales up to
    1e6 apart, so some X'X exceed the Gram path's condition bound.
    ``near_collinear``: the last column is another plus a small
    perturbation. ``collinear``: the last column is a sum of two others
    (the least-squares fit needs the ridge fallback). ``constant_lag``: one
    column is constant. ``exact``: responses are exactly linear in the
    columns. ``huge_rows``/``huge_responses``: columns or responses near
    1e200, so X'X or the baseline scores overflow.
    """
    spread = 3.0 if kind == "scaled" else 1.0
    scales = 10.0 ** rng.uniform(-spread, spread, size=m - 1)
    columns = rng.normal(size=(n, m - 1)) * scales + rng.normal(size=m - 1) * scales
    if kind == "near_collinear" and m >= 2:
        base = columns[:, 0] if m >= 3 else rng.uniform(0.5, 2.0)
        columns[:, -1] = base + 10.0 ** rng.uniform(-4.0, -1.0) * rng.normal(size=n)
    elif kind == "collinear" and m >= 4:
        columns[:, -1] = columns[:, 0] + columns[:, 1]
    elif kind in ("collinear", "constant_lag") and m >= 2:
        columns[:, -1] = rng.uniform(0.5, 2.0)
    rows = np.column_stack([np.ones(n), columns])
    t = rows @ rng.normal(size=m)
    if kind != "exact":
        t = t + rng.normal(0.0, noise * (1.0 + np.std(t)), size=n)
    if kind == "huge_rows":
        rows[:, 1:] = columns / scales * 1e200
    elif kind == "huge_responses":
        t = t * 1e200
    return DesignMatrix(rows), ResponseVector(t)


def outcome(harness, *args, **kwargs):
    try:
        return harness(*args, **kwargs), None
    except ValueError as exc:
        return None, str(exc)


def columns(grid, name: str):
    """Response ``name``'s columns of a harness grid, named by model alone
    as the reference names them."""
    return grid.select({f"{model}_{name}": model for model in PREDICTOR_MODELS})


def one_response(X: DesignMatrix, t: ResponseVector, n_runs: int, seed: int,
                 static_value: float, name: str = "t"):
    """The harness on the one response ``t``, named ``name``, with its
    columns named by model alone."""
    return columns(run_predictor_experiments(X, {name: (t, static_value)}, n_runs, seed), name)


def reference(*args, **kwargs):
    # The reference ridge warns on X'X overflow; the library must not.
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        return outcome(reference_predictor_experiments, *args, **kwargs)


def pairwise_roundings(m: int) -> int:
    """The most roundings one term takes in NumPy's pairwise sum of m
    contiguous doubles: below 8 terms one running sum; up to 128, eight
    running lanes, each started by a term, joined in three levels, and then
    the last m % 8 terms added one at a time; above 128, one more rounding
    for the join of two halves, the first a multiple of 8 terms long."""
    if m < 8:
        return max(m - 1, 0)
    if m <= 128:
        return m // 8 - 1 + 3 + m % 8
    half = m // 2 - m // 2 % 8
    return 1 + max(pairwise_roundings(half), pairwise_roundings(m - half))


def sum_roundings(k: int) -> int:
    """The most roundings one term takes in ``np.add.reduce`` of k
    contiguous doubles, the first term plus the pairwise sum of the rest."""
    return 1 + pairwise_roundings(k - 1) if k > 1 else 0


def mean_baseline_tolerance(t: ResponseVector, score: float) -> float:
    """How far a running-mean score may lie from the per-run oracle's.

    The oracle's mean is sum(training t) / d, d = n - n_test; the library's
    is (sum(t) - sum(held-out t)) / d. With u = eps / 2 and D(k) =
    ``sum_roundings(k)``, pairwise summation (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 4) puts the oracle's mean within
    (D(d) + 1) u sum|t| / d of the exact one and the library's within
    (D(n) + D(n_test) + 2) u sum|t| / d (the subtraction and the division
    round once each), so the two means differ by at most
    c u sum|t| / d, c = D(n) + D(n_test) + D(d) + 3. Both scores are
    1-Lipschitz in that mean. Each score also carries its own rounding,
    relative to the score: for mae, the residuals' (u), the pairwise sum's
    of n_test non-negative terms (D(n_test) u) and the division's (u); for
    rmse, half of the residuals' (2 u once squared), the squares', the
    sum's and the division's, plus the square root's (u). Either is below
    (D(n_test) + 6) u, once for each of the two scores compared.
    First-order terms only; the factor 1 + 1e-9 covers the rest."""
    n = len(t)
    n_test = held_out_rows(n)
    d = n - n_test
    u = np.finfo(float).eps / 2
    c = sum_roundings(n) + sum_roundings(n_test) + sum_roundings(d) + 3
    rounding = 2 * (sum_roundings(n_test) + 6) * u * abs(score)
    return (1 + 1e-9) * (c * u * float(np.abs(t.t).sum()) / d + rounding)


MEAN_OVERFLOW = re.compile(r"(run \d+, model 'baseline_mean_\w+': scores overflow) "
                           r"\(rmse=(\S+), mae=(\S+)\)")


def assert_errors_agree(got: str | None, want: str | None, t: ResponseVector,
                        name: str = "t") -> None:
    """Equal harness errors, where the library names an overflowing cell by
    its grid column, ``<model>_<name>``, and the reference by its model; a
    running-mean overflow names its scores, so they agree as the scores
    do."""
    if want is not None and "scores overflow" in want:
        want = re.sub(r"model '(\w+)'", rf"model '\1_{name}'", want, count=1)
    got_mean, want_mean = (MEAN_OVERFLOW.fullmatch(error or "") for error in (got, want))
    if got_mean is None or want_mean is None:
        assert got == want
        return
    assert got_mean[1] == want_mean[1]
    for a, b in zip(map(float, got_mean.groups()[1:]), map(float, want_mean.groups()[1:])):
        assert a == b or abs(a - b) <= mean_baseline_tolerance(t, b), (got, want)


def assert_reports_agree(grid, want, X: DesignMatrix, t: ResponseVector) -> None:
    with np.errstate(over="ignore", invalid="ignore"):
        gram = X.rows.T @ X.rows
        atol = np.inf
        if np.isfinite(gram).all():
            spectrum = np.linalg.eigvalsh(gram)
            top = spectrum[-1]
            cond = top / spectrum[spectrum > top / CONDITION_LIMIT][0]
            atol = np.finfo(float).eps * cond * float(np.sqrt(np.mean(t.t**2)))
    got = grid_rows(grid)
    assert len(got) == len(want)
    for new, old in zip(got, want):
        assert (new.run, new.model, new.seed) == (old.run, old.model, old.seed)
        if new.model == BRR_MODEL and old.error is not None:
            # The per-run ridge failed with whatever LAPACK or the weight
            # check said about a non-finite X'X; the library names it.
            assert new.error == BRR_OVERFLOW
            continue
        assert new.error == old.error
        if old.error is not None:
            continue
        if new.model == STATIC_BASELINE:
            assert (new.rmse, new.mae) == (old.rmse, old.mae)
        elif new.model == MEAN_BASELINE:
            for a, b in ((new.rmse, old.rmse), (new.mae, old.mae)):
                assert abs(a - b) <= mean_baseline_tolerance(t, b), (new, old)
        else:
            for a, b in ((new.rmse, old.rmse), (new.mae, old.mae)):
                assert abs(a - b) <= SCORE_RTOL * abs(b) + atol, (new, old)


def held_out_rows(n: int) -> int:
    return max(1, int(round((1.0 - metrics.TRAIN_FRACTION) * n)))


def extra_response(X: DesignMatrix, rng: np.random.Generator, noise: float,
                   huge: bool) -> ResponseVector:
    """Another response on the design ``X``: linear in its columns, each
    scaled to a largest magnitude of 1, plus noise; if ``huge``, that times
    1e200, so that its scores overflow."""
    rows = X.rows / np.abs(X.rows).max(axis=0)
    t = rows @ rng.normal(size=X.m)
    t = t + rng.normal(0.0, noise * (1.0 + np.std(t)), size=X.n)
    return ResponseVector(t * 1e200 if huge else t)


STATIC_VALUES = st.sampled_from([0.0, 2.5, 1e3])


@st.composite
def experiments(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(40, 400))  # 4 to 40 held-out rows
    m = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    X, t = build_design(kind, n, m, rng, noise=noise)
    # One to three responses: the design's own, then others on its rows,
    # about one in eight of them overflowing.
    responses = {"t": (t, draw(STATIC_VALUES))}
    for name in draw(st.sampled_from([(), ("u",), ("u", "v")])):
        huge = draw(st.integers(0, 7)) == 0
        responses[name] = (extra_response(X, rng, noise, huge), draw(STATIC_VALUES))
    n_test = held_out_rows(n)
    # One-run batches, three-run batches of one-run passes, three-run
    # passes in batches of 3 (M + 1) runs, or the default budget (one
    # batch at these sizes): the small budgets cross batch and pass
    # boundaries within the 35 runs.
    cells = draw(st.sampled_from([n_test, 3 * n_test, 3 * n_test * (m + 1),
                                  PASS_CELLS]))
    return {"kind": kind, "X": X, "responses": responses, "cells": cells,
            "n_runs": draw(st.integers(1, 35)),
            "seed": draw(st.integers(0, 2**31))}


def assert_same_grid(got, want) -> None:
    """Equal grids, to the last bit of every score."""
    assert (got.models, got.seeds) == (want.models, want.seeds)
    assert got.rmse.tobytes() == want.rmse.tobytes()
    assert got.mae.tobytes() == want.mae.tobytes()
    assert dict(got.errors) == dict(want.errors)


def first_overflow(errors) -> str | None:
    """The error of a call on several responses, from each response's own
    error in the call's order: the first cell in run-then-column order whose
    scores overflow, so the lowest run's and, on that run, the first
    response's."""
    overflows = [(int(re.match(r"run (\d+), ", error)[1]), i, error)
                 for i, error in enumerate(errors) if error is not None]
    return min(overflows)[2] if overflows else None


def assert_shared_split_matches(X: DesignMatrix, responses, n_runs: int, seed: int):
    """The harness on all of ``responses`` against one call per response:
    each response's columns equal, bit for bit, and the error, if any, is
    ``first_overflow`` of theirs. Returns each response's own grid and
    error, by name."""
    got, got_error = outcome(run_predictor_experiments, X, responses, n_runs, seed)
    alone = {name: outcome(run_predictor_experiments, X, {name: pair}, n_runs, seed)
             for name, pair in responses.items()}
    assert got_error == first_overflow(error for _, error in alone.values())
    if got is not None:
        assert got.models == tuple(f"{model}_{name}" for name in responses
                                   for model in PREDICTOR_MODELS)
        for name, (grid, _) in alone.items():
            names = {f"{model}_{name}": f"{model}_{name}" for model in PREDICTOR_MODELS}
            assert_same_grid(got.select(names), grid)
    return alone


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(experiments())
def test_chunked_harness_matches_per_run_reference(case):
    X, responses, n_runs, seed = case["X"], case["responses"], case["n_runs"], case["seed"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "PASS_CELLS", case["cells"])
        alone = assert_shared_split_matches(X, responses, n_runs, seed)
    for name, (t, static_value) in responses.items():
        got, got_error = alone[name]
        want, want_error = reference(X, t, n_runs, seed, static_value=static_value)
        assert_errors_agree(got_error, want_error, t, name)
        if want is not None:
            assert_reports_agree(columns(got, name), want, X, t)


@pytest.mark.parametrize("kind", KINDS)
def test_each_design_kind_matches_reference(kind, monkeypatch):
    # 10 held-out rows of width 7: two-run passes in 14-run batches, so
    # the 21 runs cross a batch and several pass boundaries.
    monkeypatch.setattr(metrics, "PASS_CELLS", 140)
    X, t = build_design(kind, 97, 6, np.random.default_rng(7))
    got, got_error = outcome(one_response, X, t, 21, 3, static_value=1.0)
    want, want_error = reference(X, t, 21, 3, static_value=1.0)
    assert_errors_agree(got_error, want_error, t)
    if kind == "huge_responses":
        assert got_error.startswith("run 0, model 'baseline_mean_t': scores overflow")
        return
    assert_reports_agree(got, want, X, t)
    if kind == "huge_rows":
        assert {r.error for r in grid_rows(got) if r.model == MRA_MODEL} == {
            "least-squares fit overflows: the weights or the training error are not finite"}
        assert {r.error for r in grid_rows(got) if r.model == BRR_MODEL} == {BRR_OVERFLOW}


def test_shared_split_refits_each_response_on_a_collinear_design(monkeypatch):
    """On a collinear design every least-squares fit is refitted from its
    rows, once per response; an overflowing response fails the call with
    its first overflowing cell, and each other response keeps its
    one-response bits in every fit batch and gather pass."""
    monkeypatch.setattr(metrics, "PASS_CELLS", 3 * 8)  # 8 held-out rows of width 6
    rng = np.random.default_rng(21)
    X, t = build_design("collinear", 80, 5, rng)
    u, huge = extra_response(X, rng, 0.3, False), extra_response(X, rng, 0.3, True)
    calls = []
    original = metrics.fit_mra

    def counting(X, t):
        calls.append(X.n)
        return original(X, t)

    monkeypatch.setattr(metrics, "fit_mra", counting)
    grid = run_predictor_experiments(X, {"t": (t, 1.0), "u": (u, 2.0)}, 23, 6)
    assert len(calls) == 2 * 23 and not grid.errors
    alone = assert_shared_split_matches(
        X, {"t": (t, 1.0), "huge": (huge, 0.0), "u": (u, 2.0)}, 23, 6)
    assert alone["huge"][1].startswith("run 0, model 'baseline_mean_huge': "
                                       "scores overflow (rmse=inf")
    for name, response, static_value in (("t", t, 1.0), ("u", u, 2.0)):
        want, _ = reference(X, response, 23, 6, static_value=static_value)
        assert_reports_agree(columns(grid, name), want, X, response)


def test_the_first_overflowing_response_is_named():
    """The error names the first overflowing cell in run-then-column order.
    Two responses whose scores overflow from run 0: the first in the
    mapping's order, not in name order. A response that overflows only
    from run 2 (one response of 1e155, held out in run 2 but not in runs 0
    and 1) before one that overflows from run 0: the later response."""
    rng = np.random.default_rng(22)
    X, _ = build_design("well", 60, 3, rng)
    b, a = (extra_response(X, rng, 0.3, True) for _ in range(2))
    _, error = outcome(run_predictor_experiments, X, {"b": (b, 1.0), "a": (a, 1.0)}, 4, 2)
    _, alone = outcome(run_predictor_experiments, X, {"b": (b, 1.0)}, 4, 2)
    assert error == alone
    assert error.startswith("run 0, model 'baseline_mean_b': scores overflow")
    held_out = [set(np.random.default_rng(run_seed).choice(X.n, held_out_rows(X.n),
                                                           replace=False).tolist())
                for run_seed in subseeds(2, range(4))]
    late = extra_response(X, rng, 0.3, False).t.copy()
    late[min(held_out[2] - held_out[0] - held_out[1])] = 1e155
    late = ResponseVector(late)
    _, alone = outcome(run_predictor_experiments, X, {"late": (late, 1.0)}, 4, 2)
    assert alone.startswith("run 2, model 'baseline_mean_late': scores overflow (rmse=inf")
    _, error = outcome(run_predictor_experiments, X, {"late": (late, 1.0), "a": (a, 1.0)},
                       4, 2)
    assert error.startswith("run 0, model 'baseline_mean_a': scores overflow")


def training_statistics(rows: np.ndarray, t: np.ndarray):
    with np.errstate(over="ignore"):
        return rows.T @ rows, rows.T @ t, t @ t


def stacked_fits(kind: str, k: int, n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    designs = [build_design(kind, n, m, rng) for _ in range(k)]
    stats = [training_statistics(X.rows, t.t) for X, t in designs]
    gram, xt, tt = (np.array(column) for column in zip(*stats))
    return designs, tuple(fit[0] for fit in fit_gram_batch(gram, xt[None], tt[None], n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(20, 200), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_gram_weights_match_lstsq_and_the_explicit_ridge(k, n, m, seed):
    """Every least-squares weight vector the statistics are trusted with is
    within WEIGHT_RTOL of ``lstsq``; on well-conditioned designs the ridge
    weights are within WEIGHT_RTOL of ``fit_bayesian_ridge``."""
    for kind in ("well", "scaled", "near_collinear"):
        designs, (mra, mra_ok, brr, brr_ok) = stacked_fits(kind, k, n, m, seed)
        if kind == "well":
            assert mra_ok.all() and brr_ok.all()
        for (X, t), w_mra, w_brr, trust_mra in zip(designs, mra, brr, mra_ok):
            if trust_mra:
                w_lstsq = np.linalg.lstsq(X.rows, t.t, rcond=None)[0]
                assert np.linalg.norm(w_mra - w_lstsq) <= \
                    WEIGHT_RTOL * np.linalg.norm(w_lstsq)
            if kind == "well":
                w_ridge = np.asarray(fit_bayesian_ridge(X, t).weights)
                assert np.linalg.norm(w_brr - w_ridge) <= \
                    WEIGHT_RTOL * np.linalg.norm(w_ridge)


def test_ill_conditioned_and_exact_fits_are_not_trusted():
    _, (_, mra_ok, _, brr_ok) = stacked_fits("collinear", 5, 60, 5, 1)
    assert not mra_ok.any() and brr_ok.all()
    _, (_, mra_ok, _, brr_ok) = stacked_fits("exact", 5, 60, 5, 2)
    assert not mra_ok.any() and not brr_ok.any()
    _, (_, mra_ok, _, brr_ok) = stacked_fits("huge_rows", 5, 60, 5, 3)
    assert not mra_ok.any() and not brr_ok.any()


@pytest.mark.parametrize("kind, explicit_fits", [("well", 0), ("collinear", 23)])
def test_explicit_least_squares_only_where_the_gram_path_is_refused(kind, explicit_fits,
                                                                    monkeypatch):
    calls = []
    original = metrics.fit_mra

    def counting(X, t):
        calls.append(X.n)
        return original(X, t)

    monkeypatch.setattr(metrics, "fit_mra", counting)
    X, t = build_design(kind, 80, 5, np.random.default_rng(4))
    reports = one_response(X, t, 23, 6, static_value=1.0)
    assert len(calls) == explicit_fits
    assert not reports.errors


def emulated_design(minutes: int = 1440, seed: int = 11):
    X, latency, _ = to_regression_dataset(generate_trace(minutes, seed))
    return X, latency


@pytest.mark.parametrize("design, refits", [("emulated", 0), ("collinear", 23)])
def test_rows_are_masked_only_for_untrusted_refits(design, refits, monkeypatch):
    """The training means come from downdated sums, so a run's training
    mask is built only to refit a fit the statistics are not trusted with:
    none on a 1,440-minute emulated design (4,305 rows), 400 runs."""
    masks, untrusted = [], []
    training_rows, fit_gram = metrics._training_rows, metrics.fit_gram_batch

    def counting_rows(test_idx, n):
        masks.append(n)
        return training_rows(test_idx, n)

    def recording_trust(gram, xt, tt, n):
        mra, mra_ok, brr, brr_ok = fit_gram(gram, xt, tt, n)
        untrusted.append(int(np.count_nonzero(~mra_ok) + np.count_nonzero(~brr_ok)))
        return mra, mra_ok, brr, brr_ok

    monkeypatch.setattr(metrics, "_training_rows", counting_rows)
    monkeypatch.setattr(metrics, "fit_gram_batch", recording_trust)
    if design == "emulated":
        X, t = emulated_design()
        n_runs = 400
    else:
        X, t = build_design(design, 80, 5, np.random.default_rng(4))
        n_runs = 23
    one_response(X, t, n_runs, 6, static_value=1.0)
    assert len(masks) == sum(untrusted) == refits


def test_an_overflowing_sum_takes_the_mean_of_the_training_rows():
    """Two responses of 1.5e308 overflow sum(t), so every run's downdated
    mean is not finite; each run's mean is then that of its rows, finite,
    and the scores overflow with the oracle's mae, to the last bit."""
    X, t = build_design("well", 60, 3, np.random.default_rng(14))
    responses = t.t.copy()
    responses[[3, 10]] = 1.5e308
    t = ResponseVector(responses)
    got, got_error = outcome(one_response, X, t, 4, 2, static_value=1.0)
    want, want_error = reference(X, t, 4, 2, static_value=1.0)
    assert got is None
    assert got_error == want_error.replace("'baseline_mean'", "'baseline_mean_t'")
    assert got_error.startswith("run 0, model 'baseline_mean_t': scores overflow "
                                "(rmse=inf, mae=")
    assert not got_error.endswith("mae=inf)")


def test_mean_baseline_is_within_its_bound_on_an_emulated_design():
    """4,305 rows, so every sum is pairwise over several levels."""
    X, t = emulated_design()
    got = one_response(X, t, 30, 7, static_value=2.5)
    want, _ = reference(X, t, 30, 7, static_value=2.5)
    assert_reports_agree(got, want, X, t)


def test_runs_are_fitted_in_batches_of_the_cell_budget(monkeypatch):
    """Each batch of PASS_CELLS // n_test runs reaches the batched fit
    in one call, so its arrays never grow with the number of runs."""
    shapes = []
    original = metrics.fit_gram_batch

    def recording(gram, xt, tt, n):
        shapes.append(gram.shape)
        return original(gram, xt, tt, n)

    monkeypatch.setattr(metrics, "fit_gram_batch", recording)
    X, t = build_design("well", 4300, 4, np.random.default_rng(5))
    size = max(1, PASS_CELLS // held_out_rows(X.n))
    assert size == 152
    one_response(X, t, 2 * size + 1, 9, static_value=1.0)
    assert shapes == [(size, 4, 4)] * 2 + [(1, 4, 4)]


def test_a_question_peaks_under_three_mib_traced():
    """400 runs on an emulated 1,440-minute design (430 held-out rows of
    width 9): a 152-run fit batch's (152, 430) indices and statistics and a
    16-run pass's (16, 430, 9) gather, about 2.4 MiB at peak."""
    X, t = emulated_design()
    tracemalloc.start()
    try:
        one_response(X, t, 400, 5, static_value=3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@pytest.mark.parametrize("design", ["emulated", "collinear", "huge_rows"])
def test_reports_are_bit_identical_for_every_cell_budget(design, monkeypatch):
    """One-run batches, one-run passes, the default budget and one batch for
    all runs give equal reports, down to the last bit of every score."""
    if design == "emulated":
        X, t = emulated_design()
    else:
        X, t = build_design(design, 300, 6, np.random.default_rng(8))
    n_runs, n_test = 40, held_out_rows(X.n)
    budgets = [n_test, n_test * (X.m + 1), PASS_CELLS, n_runs * n_test * (X.m + 1)]
    results = []
    for cells in budgets:
        monkeypatch.setattr(metrics, "PASS_CELLS", cells)
        results.append(grid_rows(one_response(X, t, n_runs, 4, static_value=2.0)))
    assert all(rows == results[0] for rows in results[1:])
    assert all(r.error is None for r in results[0]) == (design != "huge_rows")


def test_a_singular_system_clears_only_its_own_flag():
    rng = np.random.default_rng(12)
    systems = rng.normal(size=(3, 5, 5)) + 5.0 * np.eye(5)
    systems[1] = 0.0
    rhs = rng.normal(size=(3, 5))
    ok = np.ones(3, dtype=bool)
    solutions = regression._solve_flagged(systems, rhs, ok)
    assert ok.tolist() == [True, False, True]
    for i in (0, 2):
        alone = regression._solve_flagged(systems[i:i + 1], rhs[i:i + 1], np.ones(1, bool))
        assert np.array_equal(solutions[i], alone[0])
    assert not solutions[1].any()


def test_an_unconverged_eigh_clears_only_its_own_fit(monkeypatch):
    """LAPACK refuses a whole stack when one eigendecomposition does not
    converge; the other fits keep their flags and their bits."""
    designs, _ = stacked_fits("well", 3, 60, 4, 13)
    gram, xt, tt = (np.array(column) for column in
                    zip(*(training_statistics(X.rows, t.t) for X, t in designs)))
    eigh = np.linalg.eigh
    poisoned = gram[1, -1, -1]

    def failing(a):
        if (a[:, -1, -1] == poisoned).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    mra, mra_ok, brr, brr_ok = (fit[0] for fit in fit_gram_batch(gram, xt[None], tt[None], 60))
    assert mra_ok.tolist() == brr_ok.tolist() == [True, False, True]
    for i in (0, 2):
        alone = [fit[0] for fit in fit_gram_batch(gram[i:i + 1], xt[None, i:i + 1],
                                                  tt[None, i:i + 1], 60)]
        assert np.array_equal(mra[i], alone[0][0]) and np.array_equal(brr[i], alone[2][0])


@st.composite
def shared_gram_fits(draw):
    """A stack of k training sets of one design kind, each with R responses
    (the design's own and others on its rows), and a statistic set to inf
    or NaN, and a set whose ``eigh`` LAPACK refuses, each sometimes."""
    kind = draw(st.sampled_from(KINDS))
    k, n, m = draw(st.integers(1, 6)), draw(st.integers(20, 120)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    responses = draw(st.integers(2, 3))
    gram, xt, tt = np.empty((k, m, m)), np.empty((responses, k, m)), np.empty((responses, k))
    for i in range(k):
        X, t = build_design(kind, n, m, rng)
        ts = [t] + [extra_response(X, rng, 0.3, huge=False) for _ in range(responses - 1)]
        for r, response in enumerate(ts):
            gram[i], xt[r, i], tt[r, i] = training_statistics(X.rows, response.t)
    for _ in range(draw(st.integers(0, 2))):
        bad = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        i, j, r = (draw(st.integers(0, size - 1)) for size in (k, m, responses))
        where = draw(st.sampled_from(["gram", "xt", "tt"]))
        if where == "gram":
            gram[i, j, j] = bad
        elif where == "xt":
            xt[r, i, j] = bad
        else:
            tt[r, i] = bad
    refused = draw(st.none() | st.integers(0, k - 1))
    return gram, xt, tt, n, refused


@settings(max_examples=200, deadline=None)
@given(shared_gram_fits())
def test_responses_sharing_one_gram_fit_as_each_alone(case):
    """A call on R responses over one X'X stack (one ``eigh`` per set for
    all of them) gives each response, bit for bit, the weights and flags of
    a call on that response alone: with statistics that are not finite,
    X'X that overflows (huge rows) and a set whose ``eigh`` LAPACK refuses."""
    gram, xt, tt, n, refused = case
    eigh = np.linalg.eigh

    def refusing(a):
        if refused is not None and (a == gram[refused]).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh", refusing)
        shared = fit_gram_batch(gram, xt, tt, n)
        alone = [fit_gram_batch(gram, xt[r:r + 1], tt[r:r + 1], n) for r in range(len(xt))]
    for got, want in zip(shared, zip(*alone)):
        assert got.shape == (len(xt),) + want[0].shape[1:]
        assert got.tobytes() == np.concatenate(want).tobytes()
    if refused is not None and np.isfinite(gram[refused]).all():
        assert not shared[1][:, refused].any() and not shared[3][:, refused].any()


@pytest.mark.parametrize("kind", KINDS)
def test_every_response_downdates_the_first_responses_gram(kind, monkeypatch):
    """The harness decomposes only the first response's X'X block of each
    run: each response's (M + 1)-wide product differs from the first's only
    in its last column, so its block is the first's, bit for bit. The
    workspace keeps the statistics of the call's last fit batch (here its
    only one, of 21 runs in passes of 3)."""
    X, t = build_design(kind, 97, 6, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    u, v = (extra_response(X, rng, 0.3, huge) for huge in (False, kind == "huge_responses"))
    monkeypatch.setattr(metrics, "PASS_CELLS", 3 * held_out_rows(X.n) * (X.m + 1))
    workspaces = []
    sized = metrics._PredictorWork.sized

    def keeping(*args):
        workspaces.append(sized(*args))
        return workspaces[-1]

    monkeypatch.setattr(metrics._PredictorWork, "sized", keeping)
    outcome(run_predictor_experiments, X, {"t": (t, 1.0), "u": (u, 2.0), "v": (v, 0.0)},
            21, 3)
    (work,) = workspaces
    assert work.stats.shape[:2] == (3, 21)
    blocks = work.stats[:, :, :-1, :-1]
    for r in (1, 2):
        assert blocks[r].tobytes() == blocks[0].tobytes()
    assert not np.array_equal(work.stats[1, :, -1], work.stats[0, :, -1])


def extended_precision_ridge(X: DesignMatrix, t: ResponseVector, digits: int = 60):
    """``fit_bayesian_ridge``'s evidence iterations in mpmath at ``digits``
    significant digits, with a fresh solve per iteration."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        rows, responses = mpmath.matrix(X.rows.tolist()), mpmath.matrix(t.t.tolist())
        gram, xt = rows.T * rows, rows.T * responses
        spectrum = [max(value, 0) for value in mpmath.eigsy(gram)[0]]
        alpha, beta = mpmath.mpf(1), mpmath.mpf(1)
        cap = mpmath.mpf(1e150)

        def posterior(alpha, beta):
            return mpmath.lu_solve(alpha * mpmath.eye(X.m) + beta * gram, beta * xt)

        mean = posterior(alpha, beta)
        for _ in range(10):
            gamma = sum(beta * value / (alpha + beta * value) for value in spectrum)
            residuals = responses - rows * mean
            alpha = min(gamma / sum(w**2 for w in mean), cap)
            beta = min((X.n - gamma) / sum(r**2 for r in residuals), cap)
            mean = posterior(alpha, beta)
        return np.array([float(w) for w in mean])


@pytest.mark.parametrize("seed", [72, 111, 249])
def test_ridge_mean_is_accurate_on_badly_scaled_designs(seed):
    """Columns up to 1e6 apart in scale and small noise: the eigenbasis
    mean alone is 1e-8 to 6e-8 of the residual RMS off a 60-digit
    reference on these designs, the final solve 1e-10 to 7e-10."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 9)), int(rng.integers(30, 120))
    X, t = build_design("scaled", n, m, rng, noise=1e-3)
    exact = X.rows @ extended_precision_ridge(X, t)
    scale = float(np.sqrt(np.mean((exact - t.t) ** 2)))
    fitted = X.rows @ np.asarray(fit_bayesian_ridge(X, t).weights)
    assert np.abs(fitted - exact).max() <= 5e-9 * scale
