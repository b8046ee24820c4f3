import numpy as np
import pytest
from hypothesis import given, strategies as st

from proadapt import (ArimaModel, FitError, TimeSeries, acf,
                      check_residuals, difference, fit_arima, fit_arima_windows,
                      forecast, pacf)
from proadapt import arima


def brute_acf(values, max_lag):
    """Independent estimator: plain-loop mean-centred covariances."""
    x = list(values)
    n = len(x)
    mean = sum(x) / n
    c0 = sum((v - mean) ** 2 for v in x)
    out = []
    for k in range(1, max_lag + 1):
        ck = sum((x[t] - mean) * (x[t + k] - mean) for t in range(n - k))
        out.append(ck / c0)
    return out


def brute_pacf(values, max_lag):
    """Independent oracle: solve each Yule-Walker system directly."""
    r = brute_acf(values, max_lag)
    rho = [1.0] + r
    out = []
    for k in range(1, max_lag + 1):
        toeplitz = np.array([[rho[abs(i - j)] for j in range(k)] for i in range(k)])
        coeffs = np.linalg.solve(toeplitz, np.array(r[:k]))
        out.append(float(coeffs[-1]))
    return out


def arima_110_series(phi, n, seed, noise_sd=1.0, c=0.0):
    """Generate y whose first difference is AR(1) with the given phi."""
    rng = np.random.default_rng(seed)
    z = np.zeros(n - 1)
    for i in range(1, n - 1):
        z[i] = c + phi * z[i - 1] + rng.normal(0.0, noise_sd)
    return TimeSeries(np.concatenate(([0.0], np.cumsum(z))))


class TestDifference:
    def test_first_order(self):
        out = difference(TimeSeries([1.0, 2.0, 4.0, 7.0]))
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_constant_series(self):
        out = difference(TimeSeries([5.0, 5.0, 5.0, 5.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 0.0])

    def test_too_short_and_bad_degree(self):
        for values in ([1.0], []):
            with pytest.raises(ValueError):
                difference(TimeSeries(values))
        # Only the first difference exists: a degree is rejected, not ignored.
        with pytest.raises(TypeError):
            difference(TimeSeries([1.0, 2.0, 3.0]), 2)

    def test_integration_inverts_differencing_bitwise(self):
        # Values in [1, 2) keep every subtraction exact (Sterbenz), so the
        # cumulative sum must reconstruct the series bit for bit.
        rng = np.random.default_rng(8)
        for _ in range(100):
            values = rng.uniform(1.0, 2.0, size=int(rng.integers(3, 120)))
            diffed = difference(TimeSeries(values)).values
            rebuilt = np.concatenate(([values[0]], values[0] + np.cumsum(diffed)))
            assert np.array_equal(rebuilt, values)


class TestAcf:
    def test_matches_brute_force_on_decay_sequence(self):
        x = [1.0]
        for _ in range(199):
            x.append(0.8 * x[-1])
        got = acf(TimeSeries(x), 1)
        assert got[0] == pytest.approx(brute_acf(x, 1)[0], abs=1e-12)
        assert got[0] == pytest.approx(0.799764397905759, abs=1e-12)
        assert abs(got[0] - 0.8) < 0.05

    def test_alternating_series(self):
        x = [1.0, -1.0] * 50
        assert acf(TimeSeries(x), 1)[0] == pytest.approx(-0.99, abs=0.05)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            acf(TimeSeries([3.0, 3.0, 3.0]), 1)

    def test_bounds_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        values = acf(TimeSeries(x), 10)
        assert all(-1.0 <= v <= 1.0 for v in values)
        shifted = acf(TimeSeries(x + 17.5), 10)
        np.testing.assert_allclose(values, shifted, atol=1e-9)

    def test_matches_brute_force_on_noise(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=150)
        np.testing.assert_allclose(acf(TimeSeries(x), 6), brute_acf(x, 6), atol=1e-12)


class TestPacf:
    def test_first_value_equals_acf(self):
        rng = np.random.default_rng(5)
        series = TimeSeries(rng.normal(size=200))
        assert pacf(series, 4)[0] == acf(series, 4)[0]

    def test_ar1_truncates_after_lag_one(self):
        rng = np.random.default_rng(6)
        x = np.zeros(2000)
        for i in range(1, 2000):
            x[i] = 0.6 * x[i - 1] + rng.normal()
        series = TimeSeries(x)
        got = pacf(series, 3)
        np.testing.assert_allclose(got, brute_pacf(x, 3), atol=1e-10)
        assert abs(got[1]) < 0.1

    def test_white_noise_all_small(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=2000)
        got = pacf(TimeSeries(x), 5)
        np.testing.assert_allclose(got, brute_pacf(x, 5), atol=1e-10)
        assert all(abs(v) < 0.1 for v in got)


class TestFitArima:
    def test_deterministic_ramp(self):
        # Unit differences make the lag design rank-deficient: the
        # minimum-norm solution of c + phi * 1 = 1 is c = phi = 0.5.
        model = fit_arima(TimeSeries(np.arange(1.0, 51.0)))
        assert model.c == pytest.approx(0.5, abs=1e-12)
        assert model.phi == pytest.approx(0.5, abs=1e-12)
        assert model.residual_variance == pytest.approx(0.0, abs=1e-20)

    def test_recovers_generating_coefficient(self):
        series = arima_110_series(phi=0.5, n=2000, seed=12)
        model = fit_arima(series)
        assert model.phi == pytest.approx(0.5, abs=0.05)

    def test_too_short(self):
        with pytest.raises(FitError):
            fit_arima(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]))

    @pytest.mark.parametrize("values", [[], [1.0]])
    def test_too_short_to_difference(self, values):
        with pytest.raises(FitError) as raised:
            fit_arima(TimeSeries(values))
        assert str(raised.value) == "series too short to difference"

    def test_overflowing_fit_is_rejected(self):
        # Near the float maximum the sums of squares overflow; differences
        # of huge values of opposite sign overflow themselves.
        ramp = 1.6e308 + 1e306 * np.arange(20.0)
        alternating = np.resize([1.7e308, -1.7e308], 20)
        for values in (ramp, alternating):
            with pytest.raises(FitError):
                fit_arima(TimeSeries(values))
            *_, [error] = fit_arima_windows(TimeSeries(values), 12, [3])
            assert isinstance(error, FitError)

    def test_overflow_error_names_the_overflow(self):
        # The differences of +-1.7e308 overflow to inf, so phi comes out NaN:
        # the error must name the overflow, not stationarity.
        alternating = TimeSeries(np.resize([1.7e308, -1.7e308], 20))
        with pytest.raises(FitError, match="fit overflows") as raised:
            fit_arima(alternating)
        assert "stationary" not in str(raised.value)
        *_, [error] = fit_arima_windows(alternating, 12, [3])
        assert "fit overflows" in str(error) and "stationary" not in str(error)

    def test_explosive_fit_rejected(self):
        values = 1.5 ** np.arange(40)
        with pytest.raises(FitError):
            fit_arima(TimeSeries(values))

    def test_fit_is_deterministic(self):
        series = arima_110_series(phi=0.3, n=500, seed=9)
        a, b = fit_arima(series), fit_arima(series)
        assert (a.phi, a.c, a.residual_variance) == (b.phi, b.c, b.residual_variance)
        assert a.last_observations == b.last_observations

    def test_stores_trailing_observations(self):
        series = TimeSeries(np.arange(1.0, 31.0))
        model = fit_arima(series)
        assert model.last_observations == (29.0, 30.0)


class TestForecast:
    def test_ramp_extends(self):
        model = fit_arima(TimeSeries(np.arange(1.0, 51.0)))
        assert forecast(model, 3) == pytest.approx([51.0, 52.0, 53.0])

    def test_random_walk_holds_last_value(self):
        model = ArimaModel(phi=0.0, c=0.0, last_observations=(3.0, 7.0),
                           residual_variance=0.0)
        assert forecast(model, 2) == [7.0, 7.0]

    def test_hand_iterated_recursion(self):
        # last raw value 10, last differenced value 2: z-hats are 1 then 0.5
        model = ArimaModel(phi=0.5, c=0.0, last_observations=(8.0, 10.0),
                           residual_variance=0.0)
        assert forecast(model, 2) == pytest.approx([11.0, 11.5])

    def test_driftless_random_walk_constant_at_any_horizon(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            before, last = (float(v) for v in rng.normal(size=2))
            model = ArimaModel(0.0, 0.0, (before, last), 0.0)
            assert forecast(model, 7) == [last] * 7

    def test_bad_horizon(self):
        model = ArimaModel(0.0, 0.0, (1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            forecast(model, 0)

    def test_overflowing_step_raises(self):
        model = ArimaModel(phi=0.5, c=1e307, last_observations=(1.5e308, 1.7e308),
                           residual_variance=0.0)
        with pytest.raises(ValueError, match="forecast step 1 is not finite"):
            forecast(model, 3)
        model = ArimaModel(0.0, 4e307, (1e308, 1e308), 0.0)
        with pytest.raises(ValueError, match="forecast step 2 is not finite"):
            forecast(model, 3)

    def test_last_observations_must_be_two_values(self):
        for last in ((1.0,), (1.0, 2.0, 3.0)):
            with pytest.raises(ValueError, match="exactly 2 values"):
                ArimaModel(0.0, 0.0, last, 0.0)


class TestCheckResiduals:
    def test_perfect_fit_is_clear(self):
        series = TimeSeries(np.arange(1.0, 51.0))
        model = fit_arima(series)
        report = check_residuals(model, series)
        assert report.mean == pytest.approx(0.0, abs=1e-12)
        assert not report.suspect

    def test_well_specified_fit_is_clear(self):
        series = arima_110_series(phi=0.5, n=2000, seed=13)
        model = fit_arima(series)
        assert not check_residuals(model, series).suspect

    def test_misspecified_fit_is_flagged(self):
        # A driftless random walk (phi = 0) fitted to differences with
        # phi = 0.9 leaves the AR structure in the residuals.
        series = arima_110_series(phi=0.9, n=2000, seed=14)
        z = np.diff(series.values)
        model = ArimaModel(phi=0.0, c=float(z.mean()),
                           last_observations=series.tail(2), residual_variance=0.0)
        report = check_residuals(model, series)
        assert report.suspect
        # the reported autocorrelation is exactly the acf of the residual series
        residuals = z[1:] - model.c
        assert report.lag1_autocorr == pytest.approx(
            brute_acf(residuals, 1)[0], abs=1e-12)

    def test_length_mismatch(self):
        model = fit_arima(TimeSeries(np.arange(1.0, 31.0)))
        with pytest.raises(ValueError):
            check_residuals(model, TimeSeries([1.0, 2.0, 3.0]))


EPS = np.finfo(float).eps


def lstsq_oracle(z):
    """Independent CLS fit of z_t = c + phi*z_{t-1}: (c, phi, residual
    variance, condition number of the lag design)."""
    design = np.column_stack([np.ones(z.size - 1), z[:-1]])
    coef, *_ = np.linalg.lstsq(design, z[1:], rcond=None)
    residuals = z[1:] - design @ coef
    sv = np.linalg.svd(design, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    return coef[0], coef[1], np.mean(residuals**2), cond


@st.composite
def window_cases(draw):
    """A raw series whose differences are a random walk's steps, a ramp's
    (near-)constant steps, a near-unit-root alternation, or a near-unit-root
    AR(1); plus a window length and the window starts."""
    kind = draw(st.sampled_from(["walk", "ramp", "alternating", "unit_root"]))
    n = draw(st.integers(12, 90))
    scale = draw(st.sampled_from([1e-4, 1.0, 1e4]))
    jitter = 10.0 ** draw(st.integers(-14, -1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "walk":
        steps = rng.normal(draw(st.floats(-2.0, 2.0)), 1.0, n)
    elif kind == "ramp":
        steps = draw(st.floats(-3.0, 3.0)) * (1.0 + jitter * rng.normal(size=n))
    elif kind == "alternating":
        steps = np.arange(n) % 2 + jitter * rng.normal(size=n)
    else:
        phi = draw(st.floats(0.98, 1.02))
        steps = np.zeros(n)
        for i in range(1, n):
            steps[i] = phi * steps[i - 1] + rng.normal()
    values = draw(st.floats(-1e3, 1e3)) + scale * np.cumsum(steps)
    window = draw(st.integers(2, n))
    starts = draw(st.lists(st.integers(0, n - window), min_size=1, max_size=8))
    return TimeSeries(values), window, starts


class TestFitArimaWindows:
    @given(window_cases())
    def test_cls_kernel_matches_lstsq_oracle(self, case):
        series, window, starts = case
        fits = fit_arima_windows(series, window, starts)
        for start, got_phi, got_c, got_variance, error in zip(starts, *fits):
            z = np.diff(series.values[start:start + window])
            if z.size < arima.MIN_FIT_LENGTH:
                assert isinstance(error, FitError)
                continue
            c, phi, variance, cond = lstsq_oracle(z)
            if cond > 1e9:  # rank-deficient: lstsq's own minimum-norm answer
                got = None if error is not None else (got_c, got_phi, got_variance)
                assert got == ((c, phi, variance) if abs(phi) < 1.0 else None)
                continue
            # Both solutions lie within a few eps * cond of the exact one;
            # c and the variance are compared on the scale of the data.
            tol = 16 * EPS * cond
            scale = np.abs(z).max()
            if error is not None:
                assert "not stationary" in str(error)
                assert not abs(phi) < 1.0 - tol
                continue
            assert abs(phi) < 1.0 + tol
            assert abs(got_phi - phi) <= tol
            assert abs(got_c - c) <= tol * scale
            assert abs(got_variance - variance) <= tol * scale**2

    @given(window_cases())
    def test_each_window_is_fit_arima_on_it(self, case):
        series, window, starts = case
        phi, c, variance, errors = fit_arima_windows(series, window, starts)
        assert len(phi) == len(c) == len(variance) == len(errors) == len(starts)
        for i, start in enumerate(starts):
            try:
                expected = fit_arima(TimeSeries(series.values[start:start + window]))
            except FitError as exc:
                assert isinstance(errors[i], FitError) and str(errors[i]) == str(exc)
                continue
            assert errors[i] is None
            assert phi[i] == expected.phi and c[i] == expected.c
            assert variance[i] == expected.residual_variance

    def test_fit_error_is_built_only_for_failing_windows(self, monkeypatch):
        # A walk, then an exact alternation (phi = -1), then a ramp near the
        # float maximum whose fits overflow.
        walk = np.cumsum(np.random.default_rng(2).normal(size=80))
        alternation = walk[-1] + np.arange(40) % 2
        values = np.concatenate([walk, alternation, 1.6e308 + 1e306 * np.arange(20)])
        calls, fit_error = [], arima._fit_error

        def spy(c, phi, variance):
            calls.append(phi)
            return fit_error(c, phi, variance)

        monkeypatch.setattr(arima, "_fit_error", spy)
        starts = range(0, values.size - 12 + 1)
        phi, c, variance, errors = fit_arima_windows(TimeSeries(values), 12, starts)
        failed = [i for i, error in enumerate(errors) if error is not None]
        assert len(calls) == len(failed) and 0 < len(failed) < len(starts)
        assert np.array_equal(calls, phi[failed], equal_nan=True)
        monkeypatch.undo()
        for start, error in zip(starts, errors):
            try:
                fit_arima(TimeSeries(values[start:start + 12]))
            except FitError as exc:
                assert str(error) == str(exc)
            else:
                assert error is None
        assert any("not stationary" in str(e) for e in errors)
        assert any("fit overflows" in str(e) for e in errors)

    def test_ramp_keeps_lstsq_minimum_norm_answer(self):
        # Constant differences make the lag design rank-deficient.
        values = 0.30 + 0.004 * np.arange(200.0)
        fits = fit_arima_windows(TimeSeries(values), 60, range(141))
        assert fits[3] == [None] * 141
        for start, got_phi, got_c, got_variance in zip(range(141), *fits[:3]):
            c, phi, variance, _ = lstsq_oracle(np.diff(values[start:start + 60]))
            assert (got_c, got_phi, got_variance) == (c, phi, variance)

    def test_differences_only_the_span_the_starts_cover(self, monkeypatch):
        diffs = []
        diff = np.diff

        def spy(values):
            diffs.append(len(values))
            return diff(values)

        series = arima_110_series(0.4, 5000, seed=17)
        monkeypatch.setattr(arima.np, "diff", spy)
        fits = fit_arima_windows(series, 60, [4000, 4100, 4003])
        assert diffs == [4100 + 60 - 4000]
        monkeypatch.undo()
        for start, phi, error in zip([4000, 4100, 4003], fits[0], fits[3]):
            assert error is None
            assert phi == fit_arima(TimeSeries(series.values[start:start + 60])).phi

    def test_no_starts_give_empty_fits(self):
        for window in (5, 60):
            phi, c, variance, errors = fit_arima_windows(TimeSeries(np.arange(70.0)),
                                                         window, [])
            assert phi.size == c.size == variance.size == 0 and errors == []

    @pytest.mark.parametrize("starts", [[0.5], [np.nan], [0, 1.0], [True], np.array([2.0]),
                                        [None]])
    def test_starts_must_be_integers(self, starts):
        # [0.5] used to fit the window at 0, and [nan] failed with "cannot
        # convert float NaN to integer".
        with pytest.raises(TypeError, match="^starts must be integers, got an array of "):
            fit_arima_windows(TimeSeries(np.arange(70.0)), 20, starts)

    def test_integer_starts_of_any_width_accepted(self):
        series = TimeSeries(np.arange(70.0) ** 1.5)
        want = fit_arima_windows(series, 20, [0, 7])
        for starts in (np.array([0, 7], dtype=np.uint8), np.array([0, 7], dtype=np.int32),
                       range(0, 8, 7), (np.int64(0), 7)):
            got = fit_arima_windows(series, 20, starts)
            assert all(np.array_equal(a, b) for a, b in zip(got[:3], want[:3]))

    def test_short_window_yields_fit_error_per_start(self):
        series = TimeSeries(np.arange(30.0))
        phi, c, variance, errors = fit_arima_windows(series, 5, [0, 3, 25])
        assert phi.size == c.size == variance.size == 3
        assert len(errors) == 3 and all(isinstance(e, FitError) for e in errors)
        assert all(str(e) == "need at least 10 differenced observations, got 4"
                   for e in errors)

    @given(st.one_of(
        window_cases().map(lambda case: case[0].values),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
        st.lists(st.floats(-1.7e308, 1.7e308), min_size=11, max_size=40)))
    def test_fit_arima_is_the_whole_series_window(self, values):
        # Walks, ramps, alternations and near-unit roots; series too short to
        # fit; and values whose differences or sums overflow.
        series = TimeSeries(values)
        phi, c, variance, [error] = fit_arima_windows(series, len(series), [0])
        try:
            model = fit_arima(series)
        except FitError as exc:
            assert error is not None and str(exc) == str(error)
            return
        assert error is None
        assert model.phi == phi[0] and model.c == c[0]
        assert model.residual_variance == variance[0]

    def test_bad_arguments_raise_at_call(self):
        series = TimeSeries(np.arange(30.0))
        for window, starts in ((20, [11]), (20, [-1]), (0, [0]), (31, [0])):
            with pytest.raises(ValueError):
                fit_arima_windows(series, window, starts)


def numpy_ladder_forecast(model, horizon):
    """The NumPy differencing ladder ``forecast`` used before it moved to
    plain float arithmetic, restricted to ARIMA(1, 1, 0) and kept as a
    bit-exact reference."""
    ladder = [np.asarray(model.last_observations, dtype=float)]
    ladder.append(np.diff(ladder[-1]))
    heads = [float(ladder[0][-1])]
    z_prev = float(ladder[1][-1])
    out = []
    for _ in range(horizon):
        z_hat = model.c + model.phi * z_prev
        z_prev = z_hat
        value = z_hat
        heads[0] += value
        value = heads[0]
        out.append(float(value))
    return out


@st.composite
def arima_models(draw):
    """Models whose drift c reaches up to the largest float, so that some
    forecasts overflow within the horizon."""
    finite = st.floats(-1e6, 1e6)
    phi = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    last = draw(st.lists(finite, min_size=2, max_size=2))
    c = draw(st.one_of(finite, st.floats(-1.7e308, 1.7e308)))
    return ArimaModel(phi=phi, c=c, last_observations=last, residual_variance=0.0)


def bits(values):
    """The bytes of ``values`` as float64, with every NaN as one pattern."""
    values = np.array(values, dtype=float)
    values[np.isnan(values)] = np.nan
    return values.tobytes()


@given(st.lists(arima_models(), min_size=1, max_size=5), st.integers(1, 12))
def test_forecast_matches_numpy_ladder_bitwise(models, horizon):
    paths, nonfinite_step = arima.forecast_paths(
        [m.last_observations[1] for m in models], [m.last_observations[0] for m in models],
        [m.phi for m in models], [m.c for m in models], horizon)
    assert paths.shape == (horizon, len(models))
    for model, path, step in zip(models, paths.T, nonfinite_step.tolist()):
        assert bits(path) == bits(numpy_ladder_forecast(model, horizon))
        try:
            values = forecast(model, horizon)
        except ValueError as exc:
            assert str(exc) == f"forecast step {step} is not finite"
        else:
            assert step == 0
            assert bits(values) == bits(path)


def test_forecast_paths_rejects_an_empty_horizon():
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        arima.forecast_paths([1.0], [0.0], [0.5], [0.0], 0)
