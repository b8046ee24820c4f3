import json

import numpy as np
import pytest

from proadapt import (ArimaModel, Direction, RegressionModel, SlaSpec, SpecStatus,
                      TacticEstimate, TacticModels, TimeSeries, UtilityParams, fit_arima,
                      generate_trace, order_specs_by_reward, price_tactics, rank_tactics,
                      to_regression_dataset, fit_mra)
from proadapt import cli, regression, workflow
from proadapt.arima import forecast_error

UPPER = SlaSpec("response_time", 0.7, direction=Direction.UPPER_BOUND,
                penalty=3.0, reward=10.0)


def ramp(start, step, n):
    return TimeSeries(start + step * np.arange(n))


def monitor_tick(specs, history, estimates=(), horizon=5, risk_margin=0.10, model=None):
    """The decoded JSON lines of one ``monitor`` tick at the end of
    ``history``, one per spec in descending-reward order, as ``monitor``
    makes them at its default six-second tick: ``model`` (by default
    ``fit_arima(history)``) forecasts the tick in a one-tick
    ``workflow_block``, and ``cli._TickLines`` ranks the estimates and
    writes the lines."""
    ordered = order_specs_by_reward(specs)
    lines = cli._TickLines(ordered, estimates, 6.0)
    try:
        model = model or fit_arima(history)
    except ValueError as exc:
        text = lines.errors(0, str(exc))
    else:
        previous, last = history.tail(2)
        forecasts, nonfinite_step, status, first_step = workflow.workflow_block(
            ordered, [last], [previous], [model.phi], [model.c], horizon, risk_margin)
        step = int(nonfinite_step[0])
        text = (lines.errors(0, forecast_error(step)) if step else lines.entries(
            0, forecasts[0].tolist(), (status + 3 * first_step)[0].tolist()))
    return [json.loads(line) for line in text.splitlines()]


def block_of_one(horizon=5, risk_margin=0.10):
    """A one-tick, one-spec ``workflow_block`` under ``horizon`` and
    ``risk_margin``."""
    return workflow.workflow_block([UPPER], [0.5], [0.4], [0.5], [0.0], horizon, risk_margin)


def analyze(spec, history, horizon, risk_margin):
    """The one spec's line from a tick without tactics."""
    [entry] = monitor_tick([spec], history, horizon=horizon, risk_margin=risk_margin)
    return entry


class TestAnalyzeSpecification:
    def test_flat_history_is_healthy(self):
        history = TimeSeries(np.full(60, 0.3))
        analysis = analyze(UPPER, history, horizon=5, risk_margin=0.1)
        assert analysis["status"] == "healthy"
        assert analysis["first_violation_step"] is None

    def test_ramp_toward_threshold_is_at_risk(self):
        # climbing 0.05 per six-second tick, currently at 0.65: the drift
        # forecast reaches the 0.63 risk band immediately
        history = ramp(0.50, 0.05, 4)
        padded = TimeSeries(np.concatenate([np.full(20, 0.50), history.values]))
        analysis = analyze(UPPER, padded, horizon=3, risk_margin=0.1)
        assert analysis["status"] == "at_risk"
        assert analysis["first_violation_step"] in (1, 2)

    def test_current_violation_dominates(self):
        values = np.concatenate([np.full(30, 0.4), [0.9]])
        analysis = analyze(UPPER, TimeSeries(values), horizon=5, risk_margin=0.1)
        assert analysis["status"] == "broken"
        assert analysis["first_violation_step"] is None

    def test_spec_violation_directions(self):
        # A last value exactly at the threshold is not broken; the next
        # float past it, on the violating side, is. Flat forecasts at a
        # zero margin stay out of the risk band.
        for direction, past in ((Direction.UPPER_BOUND, np.inf),
                                (Direction.LOWER_BOUND, -np.inf)):
            spec = SlaSpec("s", 0.7, direction=direction)
            last = [0.7, np.nextafter(0.7, past)]
            _, _, status, _ = workflow.workflow_block([spec], last, last, [0.0, 0.0],
                                                      [0.0, 0.0], 5, 0.0)
            assert [workflow.STATUSES[code] for code in status[:, 0]] == [
                SpecStatus.HEALTHY, SpecStatus.BROKEN]

    def test_zero_margin_single_step_equals_forecast_violation(self):
        steep = TimeSeries(np.concatenate([np.full(15, 0.40),
                                           0.40 + 0.04 * np.arange(1, 8)]))
        analysis = analyze(UPPER, steep, horizon=1, risk_margin=0.0)
        assert analysis["status"] == "at_risk"  # next value forecast > 0.7
        gentle = ramp(0.10, 0.001, 60)
        analysis = analyze(UPPER, gentle, horizon=1, risk_margin=0.0)
        assert analysis["status"] == "healthy"

    @pytest.mark.parametrize("direction, step", [(Direction.UPPER_BOUND, 0.2),
                                                  (Direction.LOWER_BOUND, -0.2)])
    def test_zero_threshold_has_a_zero_width_risk_band(self, direction, step):
        # A ramp ending 0.5 on the safe side of 0 forecasts -0.3, -0.1, 0.1, ...
        # (mirrored for a lower bound): only step 3 violates, at any margin.
        spec = SlaSpec("zero", 0.0, direction=direction)
        history = ramp(-21.5 * step, step, 20)
        for margin in (0.0, 0.5, 0.99):
            analysis = analyze(spec, history, horizon=5, risk_margin=margin)
            assert analysis["status"] == "at_risk"
            # A step violates when it lies past 0 on the side the ramp climbs toward.
            violating = [v * step > 0 for v in analysis["forecast"]]
            assert analysis["first_violation_step"] == violating.index(True) + 1 == 3

    def test_lower_bound_direction(self):
        spec = SlaSpec("throughput", 100.0, direction=Direction.LOWER_BOUND)
        falling = ramp(130.0, -1.0, 25)
        analysis = analyze(spec, falling, horizon=10, risk_margin=0.0)
        assert analysis["status"] == "at_risk"
        # forecasts 105, 104, ...: the first value strictly below 100 is step 7
        assert analysis["first_violation_step"] == 7

    def test_validation(self):
        with pytest.raises(ValueError, match="^horizon must "):
            block_of_one(horizon=0)
        with pytest.raises(ValueError, match=r"^risk_margin must lie in \[0, 1\), got 1.0$"):
            block_of_one(risk_margin=1.0)

    @pytest.mark.parametrize("name", ["risk_margin", "--risk-margin"])
    @pytest.mark.parametrize("value, error, message", [
        (1, ValueError, "must lie in [0, 1), got 1"),
        (1.5, ValueError, "must lie in [0, 1), got 1.5"),
        (-0.25, ValueError, "must be finite and >= 0, got -0.25"),
        (float("nan"), ValueError, "must be finite and >= 0, got nan"),
        (True, TypeError, "must be a real number, got True")])
    def test_risk_margin_rule_names_its_argument(self, name, value, error, message):
        # One rule for workflow_block's argument and monitor's flag.
        with pytest.raises(error) as raised:
            workflow.check_risk_margin(name, value)
        assert str(raised.value) == f"{name} {message}"

    @pytest.mark.parametrize("horizon, error, message", [
        (2.5, TypeError, "horizon must be an integer, got 2.5"),
        (True, TypeError, "horizon must be an integer, got True"),
        (3.0, TypeError, "horizon must be an integer, got 3.0"),
        (0, ValueError, "horizon must be >= 1, got 0")])
    def test_horizon_must_be_an_integer_of_at_least_1(self, horizon, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            block_of_one(horizon=horizon)

    def test_numpy_integer_horizon_accepted(self):
        forecasts, _, _, _ = block_of_one(horizon=np.int64(3))
        assert forecasts.shape == (1, 3)


def price(x, latency_model, cost_model):
    """The one tactic's estimate from ``price_tactics``."""
    [priced] = price_tactics({"t": TacticModels(latency_model, cost_model, x)})
    return priced


class TestEstimates:
    def test_constant_history_predicts_constant(self):
        rows = np.column_stack([np.ones(50), np.random.default_rng(1).normal(size=50)])
        from proadapt import DesignMatrix, ResponseVector
        model = fit_mra(DesignMatrix(rows), ResponseVector(np.full(50, 4.2)))
        priced = price([1.0, 0.3], model, model)
        assert priced.predicted_latency == pytest.approx(4.2)
        assert priced.predicted_cost == pytest.approx(4.2)

    def test_zero_weight_model(self):
        model = RegressionModel(weights=(0.0,))
        priced = price([1.0], model, model)
        assert (priced.predicted_latency, priced.predicted_cost) == (0.0, 0.0)

    def test_peak_hour_beats_off_peak_for_same_lags(self):
        trace = generate_trace(1440, seed=20)
        X, latency, energy = to_regression_dataset(trace)
        latency_model = fit_mra(X, latency)
        cost_model = fit_mra(X, energy)
        base = list(X.rows[-1])
        sin_col = X.column_names.index("hour_sin")
        cos_col = X.column_names.index("hour_cos")

        def at_hour(hour):
            x = list(base)
            x[sin_col] = np.sin(2 * np.pi * hour / 24)
            x[cos_col] = np.cos(2 * np.pi * hour / 24)
            return x

        peak = price(at_hour(20), latency_model, cost_model)
        trough = price(at_hour(8), latency_model, cost_model)
        assert peak.predicted_latency > trough.predicted_latency
        assert peak.predicted_cost > trough.predicted_cost

    def test_missing_model_rejected(self):
        model = RegressionModel(weights=(0.0,))
        with pytest.raises(ValueError, match="latency_model must be a RegressionModel"):
            TacticModels(None, model, (1.0,))
        with pytest.raises(ValueError, match="cost_model must be a RegressionModel"):
            TacticModels(model, None, (1.0,))

    def test_feature_width_mismatch_names_the_tactic(self):
        for features in ((1.0, 2.0), ()):
            tactics = {"t": TacticModels(RegressionModel(weights=(1.0,)),
                                         RegressionModel(weights=(2.0,)), features)}
            with pytest.raises(ValueError, match="tactic 't': expected a feature vector"):
                price_tactics(tactics)

    def test_features_are_a_read_only_float_copy(self):
        x = np.array([1, 2])
        model = RegressionModel(weights=(1.0, 1.0))
        models = TacticModels(model, model, x)
        x[0] = 7
        assert models.features.dtype == float and models.features.tolist() == [1.0, 2.0]
        assert not models.features.flags.writeable

    def test_tactics_are_priced_in_mapping_order(self):
        one, two = RegressionModel(weights=(1.0,)), RegressionModel(weights=(2.0,))
        tactics = {"b": TacticModels(two, two, (1.0,)), "a": TacticModels(one, one, (1.0,))}
        assert [(e.tactic_name, e.predicted_cost) for e in price_tactics(tactics)] == [
            ("b", 2.0), ("a", 1.0)]


def estimate(name, latency, cost, score):
    return TacticEstimate(name, latency, cost, score)


AT_RISK = (SpecStatus.AT_RISK, 2)  # the status and first violation step of an at-risk spec


class TestRankTactics:
    def test_feasibility_dominates(self):
        # deadline is 2 ticks * 6 s = 12 s
        slow = estimate("slow", 60.0, 1.0, 100.0)
        fast = estimate("fast", 5.0, 9.0, 1.0)
        ranked = rank_tactics([slow, fast], *AT_RISK, tick_seconds=6.0)
        assert [e.tactic_name for e in ranked] == ["fast", "slow"]

    def test_utility_orders_within_group(self):
        a = estimate("a", 1.0, 5.0, 10.0)
        b = estimate("b", 1.0, 5.0, 7.0)
        ranked = rank_tactics([b, a], *AT_RISK, tick_seconds=6.0)
        assert [e.tactic_name for e in ranked] == ["a", "b"]

    def test_cost_breaks_utility_ties(self):
        cheap = estimate("cheap", 1.0, 5.0, 3.0)
        dear = estimate("dear", 1.0, 7.0, 3.0)
        ranked = rank_tactics([dear, cheap], *AT_RISK, tick_seconds=6.0)
        assert [e.tactic_name for e in ranked] == ["cheap", "dear"]

    def test_input_order_breaks_remaining_ties(self):
        first = estimate("first", 1.0, 5.0, 3.0)
        second = estimate("second", 1.0, 5.0, 3.0)
        ranked = rank_tactics([first, second], *AT_RISK, tick_seconds=6.0)
        assert [e.tactic_name for e in ranked] == ["first", "second"]

    def test_permutation_and_rescale_invariance(self):
        rng = np.random.default_rng(27)
        estimates = [estimate(f"t{i}", float(rng.uniform(0, 30)),
                              float(rng.uniform(0, 10)), float(rng.uniform(-5, 5)))
                     for i in range(8)]
        ranked = rank_tactics(estimates, *AT_RISK, tick_seconds=6.0)
        assert sorted(e.tactic_name for e in ranked) == sorted(e.tactic_name
                                                               for e in estimates)
        scaled = [estimate(e.tactic_name, e.predicted_latency, e.predicted_cost,
                           e.utility_score * 3.5) for e in estimates]
        rescaled = rank_tactics(scaled, *AT_RISK, tick_seconds=6.0)
        assert [e.tactic_name for e in rescaled] == [e.tactic_name for e in ranked]

    def test_broken_spec_leaves_no_lead_time(self):
        instant = estimate("instant", 0.0, 1.0, 0.0)
        slow = estimate("slow", 0.5, 1.0, 10.0)
        ranked = rank_tactics([slow, instant], SpecStatus.BROKEN, None, tick_seconds=6.0)
        assert ranked[0].tactic_name == "instant"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_tactics([], *AT_RISK, tick_seconds=6.0)

    @pytest.mark.parametrize("status, step", [(SpecStatus.AT_RISK, None),
                                              (SpecStatus.HEALTHY, 2),
                                              (SpecStatus.BROKEN, 1)])
    def test_first_step_is_given_exactly_for_at_risk(self, status, step):
        with pytest.raises(ValueError, match="exactly for AT_RISK"):
            rank_tactics([estimate("t", 1.0, 1.0, 0.0)], status, step, tick_seconds=6.0)

    def test_healthy_spec_imposes_no_deadline(self):
        slow = estimate("slow", 1e9, 1.0, 10.0)
        fast = estimate("fast", 0.0, 1.0, 0.0)
        ranked = rank_tactics([fast, slow], SpecStatus.HEALTHY, None, tick_seconds=6.0)
        assert [e.tactic_name for e in ranked] == ["slow", "fast"]

    @pytest.mark.parametrize("tick_seconds", [float("nan"), float("inf"), 0.0])
    def test_tick_seconds_must_be_finite_and_positive(self, tick_seconds):
        with pytest.raises(ValueError, match="finite and > 0"):
            rank_tactics([estimate("t", 1.0, 1.0, 0.0)], *AT_RISK,
                         tick_seconds=tick_seconds)


class TickFixture:
    """One rising series (0.50 to 0.89 in steps of 0.01) that "hot" and
    "warm" watch against 0.7 and "cool" against 10, and tactics whose
    intercept-only models predict fixed latencies and costs."""

    def __init__(self, n_tactics=3):
        self.spec_hot = SlaSpec("hot", 0.7, reward=10.0)
        self.spec_warm = SlaSpec("warm", 0.7, reward=7.0)
        self.spec_cool = SlaSpec("cool", 10.0, reward=1.0)
        self.history = ramp(0.50, 0.01, 40)
        self.tactics = {f"t{i}": TacticModels(RegressionModel(weights=(float(i + 1),)),
                                              RegressionModel(weights=(float(i + 2),)), (1.0,))
                        for i in range(n_tactics)}

    def run(self, specs, utility_params=None):
        estimates = price_tactics(self.tactics, utility_params)
        return monitor_tick(specs, self.history, estimates)


class TestWorkflowTick:
    def test_healthy_specs_produce_no_estimates(self):
        fx = TickFixture()
        entries = fx.run([fx.spec_cool])
        assert entries[0]["status"] == "healthy"
        assert entries[0]["tactics"] == []

    def test_at_risk_spec_estimates_every_tactic(self):
        fx = TickFixture(n_tactics=3)
        entries = fx.run([fx.spec_hot])
        assert entries[0]["status"] in ("at_risk", "broken")
        assert len(entries[0]["tactics"]) == 3

    def test_specs_processed_in_reward_order(self):
        fx = TickFixture()
        entries = fx.run([fx.spec_warm, fx.spec_hot])
        assert [e["name"] for e in entries] == ["hot", "warm"]

    def test_pure_function_of_inputs(self):
        fx = TickFixture()
        specs = [fx.spec_hot, fx.spec_cool]
        assert fx.run(specs) == fx.run(specs)

    def test_utility_params_score_tactics(self):
        fx = TickFixture(n_tactics=2)
        params = UtilityParams(tau=60.0, rate=10.0, response_time=0.5, target=0.7,
                               max_rate=20.0, dimmer=0.5, reward_optional=2.0,
                               reward_mandatory=1.0, cost=1.0)
        entries = fx.run([fx.spec_hot], utility_params=params)
        scores = [t["utility"] for t in entries[0]["tactics"]]
        assert all(s > 0 for s in scores)
        # cheaper predicted cost means higher utility, so ranking follows it
        costs = [t["cost"] for t in entries[0]["tactics"]]
        assert costs == sorted(costs)

    def test_json_lines_round_trip(self):
        fx = TickFixture(n_tactics=2)
        decoded = fx.run([fx.spec_hot, fx.spec_cool])
        assert len(decoded) == 2
        assert decoded[0]["name"] == "hot"
        assert {"name", "status", "first_violation_step", "forecast",
                "tactics"} <= decoded[0].keys()
        assert [t["rank"] for t in decoded[0]["tactics"]] == [1, 2]

    def test_a_k_spec_block_equals_k_one_spec_blocks(self):
        # Every spec is classified from its tick's one forecast row, so a
        # block of k specs is k one-spec blocks side by side.
        rng = np.random.default_rng(31)
        last = rng.normal(1.0, 0.3, 60)
        previous = last - rng.normal(0.0, 0.05, 60)
        phi, c = rng.uniform(-0.9, 0.9, 60), rng.normal(0.0, 0.02, 60)
        specs = [SlaSpec("a", 1.0), SlaSpec("b", 1.2), SlaSpec("zero", 0.0),
                 SlaSpec("low", 0.8, direction=Direction.LOWER_BOUND)]
        forecasts, nonfinite_step, status, first_step = workflow.workflow_block(
            specs, last, previous, phi, c, 4, 0.1)
        assert forecasts.shape == (60, 4)
        assert status.shape == first_step.shape == (60, len(specs))
        assert set(status.ravel().tolist()) == {0, 1, 2}
        for j, spec in enumerate(specs):
            one_forecasts, one_nonfinite, one_status, one_first = workflow.workflow_block(
                [spec], last, previous, phi, c, 4, 0.1)
            assert one_forecasts.tobytes() == forecasts.tobytes()
            assert one_nonfinite.tolist() == nonfinite_step.tolist()
            assert one_status[:, 0].tolist() == status[:, j].tolist()
            assert one_first[:, 0].tolist() == first_step[:, j].tolist()

    def test_shared_series_and_model_forecast_once(self):
        series = ramp(0.50, 0.01, 40)
        specs = [SlaSpec("a", 0.7, reward=3.0), SlaSpec("b", 0.9, reward=2.0),
                 SlaSpec("c", 2.0, reward=1.0)]
        entries = monitor_tick(specs, series)
        # Each spec's line is the line of a tick that watches it alone.
        for spec, entry in zip(specs, entries):
            assert entry == analyze(spec, series, 5, 0.10)
        assert {e["status"] for e in entries} == {"broken", "at_risk", "healthy"}

    def test_shared_forecast_failure_lands_on_each_spec(self):
        specs = [SlaSpec("a", 0.7, reward=2.0), SlaSpec("b", 0.9, reward=1.0)]
        with pytest.raises(ValueError) as failure:
            fit_arima(TimeSeries([0.5]))
        entries = monitor_tick(specs, TimeSeries([0.5]))
        assert entries == [{"tick": 0, "name": name, "error": str(failure.value)}
                           for name in ("a", "b")]
        # A drift of 1e308 per step leaves the float range at step 2.
        history = ramp(0.40, 0.012, 40)
        previous, last = history.tail(2)
        _, nonfinite_step, _, _ = workflow.workflow_block(specs, [last], [previous], [0.5],
                                                          [1e308], 5, 0.1)
        assert nonfinite_step.tolist() == [2]
        entries = monitor_tick(specs, history,
                               model=ArimaModel(0.5, 1e308, history.tail(2), 1.0))
        assert forecast_error(2) == "forecast step 2 is not finite"
        assert entries == [{"tick": 0, "name": name, "error": forecast_error(2)}
                           for name in ("a", "b")]


class PricingFixture:
    """One rising series (0.50 to 0.89 in steps of 0.01) and tactics whose
    intercept-only models predict fixed latencies and costs."""

    def __init__(self, prices=None):
        prices = prices or {f"t{i}": (1.0 + i, 4.0 - i) for i in range(4)}
        self.series = ramp(0.50, 0.01, 40)
        self.tactics = {name: TacticModels(RegressionModel(weights=(latency,)),
                                           RegressionModel(weights=(cost,)), (1.0,))
                        for name, (latency, cost) in prices.items()}

    def price(self):
        return price_tactics(self.tactics)

    def run(self, specs, risk_margin=0.10):
        return monitor_tick(specs, self.series, self.price(), risk_margin=risk_margin)


def count_predictions(monkeypatch):
    calls = []
    original = regression.predict
    monkeypatch.setattr(regression, "predict",
                        lambda model, x: calls.append(model) or original(model, x))
    return calls


class TestOncePerTickPricing:
    """Tactics are priced once, before any tick; a tick only ranks the
    estimates it is given and prices nothing itself."""

    def test_three_priced_specs_price_each_tactic_once(self, monkeypatch):
        fx = PricingFixture()
        calls = count_predictions(monkeypatch)
        specs = [SlaSpec("a", 0.7, reward=3.0), SlaSpec("b", 0.8, reward=2.0),
                 SlaSpec("c", 0.95, reward=1.0)]
        entries = fx.run(specs)
        assert all(e["status"] != "healthy" for e in entries)
        assert len(calls) == 2 * len(fx.tactics)
        assert all(len(e["tactics"]) == len(fx.tactics) for e in entries)

    def test_all_healthy_tick_prices_nothing(self, monkeypatch):
        fx = PricingFixture()
        estimates = fx.price()
        calls = count_predictions(monkeypatch)
        entries = monitor_tick([SlaSpec("a", 10.0, reward=2.0),
                                SlaSpec("b", 20.0, reward=1.0)], fx.series, estimates)
        assert all(e["status"] == "healthy" for e in entries)
        assert all(e["tactics"] == [] for e in entries)
        assert calls == []

    def test_rankings_follow_each_specs_deadline(self):
        # "instant" is ready even for a broken spec; "cheap" needs 10 s,
        # which fits before a violation at step 2 or later (12 s and up).
        fx = PricingFixture({"instant": (0.0, 5.0), "cheap": (10.0, 1.0)})
        broken, late = SlaSpec("broken", 0.7, reward=2.0), SlaSpec("late", 0.925, reward=1.0)
        entries = fx.run([broken, late], risk_margin=0.0)
        assert entries[0]["status"] == "broken"
        assert entries[1]["status"] == "at_risk"
        assert entries[1]["first_violation_step"] >= 2
        assert [t["name"] for t in entries[0]["tactics"]] == ["instant", "cheap"]
        assert [t["name"] for t in entries[1]["tactics"]] == ["cheap", "instant"]
