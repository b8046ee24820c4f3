import json

import numpy as np
import pytest

from proadapt import (ArimaModel, Direction, RegressionModel, SlaSpec, SpecStatus,
                      TacticEstimate, TacticModels, Tactic, TimeSeries, UtilityParams,
                      WorkflowConfig, fit_arima, generate_trace, price_tactics,
                      rank_tactics, to_regression_dataset, workflow_tick, fit_mra)
from proadapt import regression, workflow

from monitor_oracle import tick_entry_to_dict

UPPER = SlaSpec("response_time", 0.7, direction=Direction.UPPER_BOUND,
                penalty=3.0, reward=10.0)


def ramp(start, step, n):
    return TimeSeries(start + step * np.arange(n))


def analyze(spec, history, horizon, risk_margin):
    """The one spec's analysis from a tick without tactics."""
    config = WorkflowConfig(horizon=horizon, risk_margin=risk_margin)
    [entry] = workflow_tick([spec], history, config=config)
    return entry.analysis


class TestAnalyzeSpecification:
    def test_flat_history_is_healthy(self):
        history = TimeSeries(np.full(60, 0.3))
        analysis = analyze(UPPER, history, horizon=5, risk_margin=0.1)
        assert analysis.status is SpecStatus.HEALTHY
        assert analysis.first_violation_step is None

    def test_ramp_toward_threshold_is_at_risk(self):
        # climbing 0.05 per six-second tick, currently at 0.65: the drift
        # forecast reaches the 0.63 risk band immediately
        history = ramp(0.50, 0.05, 4)
        padded = TimeSeries(np.concatenate([np.full(20, 0.50), history.values]))
        analysis = analyze(UPPER, padded, horizon=3, risk_margin=0.1)
        assert analysis.status is SpecStatus.AT_RISK
        assert analysis.first_violation_step in (1, 2)

    def test_current_violation_dominates(self):
        values = np.concatenate([np.full(30, 0.4), [0.9]])
        analysis = analyze(UPPER, TimeSeries(values), horizon=5, risk_margin=0.1)
        assert analysis.status is SpecStatus.BROKEN
        assert analysis.first_violation_step is None

    def test_spec_violation_directions(self):
        # A last value exactly at the threshold is not broken; the next
        # float past it, on the violating side, is. Flat forecasts at a
        # zero margin stay out of the risk band.
        for direction, past in ((Direction.UPPER_BOUND, np.inf),
                                (Direction.LOWER_BOUND, -np.inf)):
            spec = SlaSpec("s", 0.7, direction=direction)
            last = [0.7, np.nextafter(0.7, past)]
            block = workflow.workflow_block([spec], last, last, [0.0, 0.0], [0.0, 0.0],
                                            WorkflowConfig(risk_margin=0.0))
            assert [workflow.STATUSES[code] for code in block.status[:, 0]] == [
                SpecStatus.HEALTHY, SpecStatus.BROKEN]

    def test_zero_margin_single_step_equals_forecast_violation(self):
        steep = TimeSeries(np.concatenate([np.full(15, 0.40),
                                           0.40 + 0.04 * np.arange(1, 8)]))
        analysis = analyze(UPPER, steep, horizon=1, risk_margin=0.0)
        assert analysis.status is SpecStatus.AT_RISK  # next value forecast > 0.7
        gentle = ramp(0.10, 0.001, 60)
        analysis = analyze(UPPER, gentle, horizon=1, risk_margin=0.0)
        assert analysis.status is SpecStatus.HEALTHY

    @pytest.mark.parametrize("direction, step", [(Direction.UPPER_BOUND, 0.2),
                                                  (Direction.LOWER_BOUND, -0.2)])
    def test_zero_threshold_has_a_zero_width_risk_band(self, direction, step):
        # A ramp ending 0.5 on the safe side of 0 forecasts -0.3, -0.1, 0.1, ...
        # (mirrored for a lower bound): only step 3 violates, at any margin.
        spec = SlaSpec("zero", 0.0, direction=direction)
        history = ramp(-21.5 * step, step, 20)
        for margin in (0.0, 0.5, 0.99):
            analysis = analyze(spec, history, horizon=5, risk_margin=margin)
            assert analysis.status is SpecStatus.AT_RISK
            # A step violates when it lies past 0 on the side the ramp climbs toward.
            violating = [v * step > 0 for v in analysis.forecast_values]
            assert analysis.first_violation_step == violating.index(True) + 1 == 3

    def test_lower_bound_direction(self):
        spec = SlaSpec("throughput", 100.0, direction=Direction.LOWER_BOUND)
        falling = ramp(130.0, -1.0, 25)
        analysis = analyze(spec, falling, horizon=10, risk_margin=0.0)
        assert analysis.status is SpecStatus.AT_RISK
        # forecasts 105, 104, ...: the first value strictly below 100 is step 7
        assert analysis.first_violation_step == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkflowConfig(horizon=0)
        with pytest.raises(ValueError):
            WorkflowConfig(risk_margin=1.0)

    @pytest.mark.parametrize("horizon, error, message", [
        (2.5, TypeError, "horizon must be an integer, got 2.5"),
        (True, TypeError, "horizon must be an integer, got True"),
        (3.0, TypeError, "horizon must be an integer, got 3.0"),
        (0, ValueError, "horizon must be >= 1")])
    def test_horizon_must_be_an_integer_of_at_least_1(self, horizon, error, message):
        # 2.5 used to be accepted and fail later inside forecast_paths.
        with pytest.raises(error, match=f"^{message}$"):
            WorkflowConfig(horizon=horizon)

    def test_numpy_integer_horizon_accepted(self):
        assert WorkflowConfig(horizon=np.int64(3)).horizon == 3


def price(tactic, x, latency_model, cost_model):
    """The one tactic's estimate from ``price_tactics``."""
    registry = {tactic.name: TacticModels(latency_model, cost_model)}
    [priced] = price_tactics([tactic], registry, {tactic.name: x})
    return priced


class TestEstimates:
    def test_constant_history_predicts_constant(self):
        rows = np.column_stack([np.ones(50), np.random.default_rng(1).normal(size=50)])
        from proadapt import DesignMatrix, ResponseVector
        model = fit_mra(DesignMatrix(rows), ResponseVector(np.full(50, 4.2)))
        tactic = Tactic("t", 1.0, 1.0)
        priced = price(tactic, [1.0, 0.3], model, model)
        assert priced.predicted_latency == pytest.approx(4.2)
        assert priced.predicted_cost == pytest.approx(4.2)

    def test_zero_weight_model(self):
        tactic = Tactic("t", 1.0, 1.0)
        model = RegressionModel(weights=(0.0,))
        priced = price(tactic, [1.0], model, model)
        assert (priced.predicted_latency, priced.predicted_cost) == (0.0, 0.0)

    def test_peak_hour_beats_off_peak_for_same_lags(self):
        trace = generate_trace(1440, seed=20)
        X, latency, energy = to_regression_dataset(trace)
        latency_model = fit_mra(X, latency)
        cost_model = fit_mra(X, energy)
        tactic = Tactic("download", 3.0, 30.0)
        base = list(X.rows[-1])
        sin_col = X.column_names.index("hour_sin")
        cos_col = X.column_names.index("hour_cos")

        def at_hour(hour):
            x = list(base)
            x[sin_col] = np.sin(2 * np.pi * hour / 24)
            x[cos_col] = np.cos(2 * np.pi * hour / 24)
            return x

        peak = price(tactic, at_hour(20), latency_model, cost_model)
        trough = price(tactic, at_hour(8), latency_model, cost_model)
        assert peak.predicted_latency > trough.predicted_latency
        assert peak.predicted_cost > trough.predicted_cost

    def test_missing_model_rejected(self):
        model = RegressionModel(weights=(0.0,))
        with pytest.raises(ValueError, match="latency_model must be a RegressionModel"):
            TacticModels(None, model)
        with pytest.raises(ValueError, match="cost_model must be a RegressionModel"):
            TacticModels(model, None)
        tactic = Tactic("t", 1.0, 1.0)
        with pytest.raises(ValueError, match="tactic 't': no trained models"):
            price_tactics([tactic], {}, {"t": (1.0,)})

    def test_feature_width_mismatch_names_the_tactic(self):
        tactic = Tactic("t", 1.0, 1.0)
        registry = {"t": TacticModels(RegressionModel(weights=(1.0,)),
                                      RegressionModel(weights=(2.0,)))}
        for features in ({"t": (1.0, 2.0)}, {}):
            with pytest.raises(ValueError, match="tactic 't': expected a feature vector"):
                price_tactics([tactic], registry, features)


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
        with pytest.raises(ValueError, match="finite and > 0"):
            WorkflowConfig(tick_seconds=tick_seconds)


class TickFixture:
    """One rising series (0.50 to 0.89 in steps of 0.01) that "hot" and
    "warm" watch against 0.7 and "cool" against 10, and tactics whose
    intercept-only models predict fixed latencies and costs."""

    def __init__(self, n_tactics=3):
        self.spec_hot = SlaSpec("hot", 0.7, reward=10.0)
        self.spec_warm = SlaSpec("warm", 0.7, reward=7.0)
        self.spec_cool = SlaSpec("cool", 10.0, reward=1.0)
        self.history = ramp(0.50, 0.01, 40)
        self.tactics = [Tactic(f"t{i}", 1.0, 1.0) for i in range(n_tactics)]
        self.registry = {t.name: TacticModels(RegressionModel(weights=(float(i + 1),)),
                                              RegressionModel(weights=(float(i + 2),)))
                         for i, t in enumerate(self.tactics)}
        self.features = {t.name: (1.0,) for t in self.tactics}

    def run(self, specs, config=None, utility_params=None):
        estimates = price_tactics(self.tactics, self.registry, self.features,
                                  utility_params)
        return workflow_tick(specs, self.history, estimates, config)


class TestWorkflowTick:
    def test_healthy_specs_produce_no_estimates(self):
        fx = TickFixture()
        entries = fx.run([fx.spec_cool])
        assert entries[0].analysis.status is SpecStatus.HEALTHY
        assert entries[0].estimates == ()

    def test_at_risk_spec_estimates_every_tactic(self):
        fx = TickFixture(n_tactics=3)
        entries = fx.run([fx.spec_hot])
        assert entries[0].analysis.status in (SpecStatus.AT_RISK, SpecStatus.BROKEN)
        assert len(entries[0].estimates) == 3

    def test_specs_processed_in_reward_order(self):
        fx = TickFixture()
        entries = fx.run([fx.spec_warm, fx.spec_hot])
        assert [e.spec_name for e in entries] == ["hot", "warm"]

    def test_pure_function_of_inputs(self):
        fx = TickFixture()
        specs = [fx.spec_hot, fx.spec_cool]
        assert fx.run(specs) == fx.run(specs)

    def test_duplicate_spec_names_rejected(self):
        fx = TickFixture()
        with pytest.raises(ValueError):
            fx.run([fx.spec_hot, SlaSpec("hot", 0.9, reward=2.0)])

    def test_utility_params_score_tactics(self):
        fx = TickFixture(n_tactics=2)
        params = UtilityParams(tau=60.0, rate=10.0, response_time=0.5, target=0.7,
                               max_rate=20.0, dimmer=0.5, reward_optional=2.0,
                               reward_mandatory=1.0, cost=1.0)
        entries = fx.run([fx.spec_hot], utility_params=params)
        scores = [e.utility_score for e in entries[0].estimates]
        assert all(s > 0 for s in scores)
        # cheaper predicted cost means higher utility, so ranking follows it
        costs = [e.predicted_cost for e in entries[0].estimates]
        assert costs == sorted(costs)

    def test_json_lines_round_trip(self):
        fx = TickFixture(n_tactics=2)
        entries = fx.run([fx.spec_hot, fx.spec_cool])
        lines = [json.dumps(tick_entry_to_dict(e)) for e in entries]
        assert len(lines) == 2
        decoded = [json.loads(line) for line in lines]
        assert decoded[0]["name"] == "hot"
        assert {"name", "status", "first_violation_step", "forecast",
                "tactics"} <= decoded[0].keys()
        assert [t["rank"] for t in decoded[0]["tactics"]] == [1, 2]

    def test_shared_series_and_model_forecast_once(self, monkeypatch):
        series = ramp(0.50, 0.01, 40)
        specs = [SlaSpec("a", 0.7, reward=3.0), SlaSpec("b", 0.9, reward=2.0),
                 SlaSpec("c", 2.0, reward=1.0)]
        fits, calls = [], []
        fit, original = workflow.fit_arima, workflow.workflow_block
        monkeypatch.setattr(workflow, "fit_arima",
                            lambda history: fits.append(len(history)) or fit(history))
        monkeypatch.setattr(workflow, "workflow_block",
                            lambda s, last, *rest: calls.append(len(last))
                            or original(s, last, *rest))
        entries = workflow_tick(specs, series)
        assert fits == [40] and calls == [1]
        for spec, entry in zip(specs, entries):
            assert entry.analysis == analyze(spec, series, 5, 0.10)
        assert {e.analysis.status for e in entries} == {
            SpecStatus.BROKEN, SpecStatus.AT_RISK, SpecStatus.HEALTHY}

    def test_shared_forecast_failure_lands_on_each_spec(self, monkeypatch):
        specs = [SlaSpec("a", 0.7, reward=2.0), SlaSpec("b", 0.9, reward=1.0)]
        with pytest.raises(ValueError) as failure:
            fit_arima(TimeSeries([0.5]))
        entries = workflow_tick(specs, TimeSeries([0.5]))
        assert [e.spec_name for e in entries] == ["a", "b"]
        assert all(e.analysis is None and e.error == str(failure.value) for e in entries)
        # A drift of 1e308 per step leaves the float range at step 2.
        monkeypatch.setattr(workflow, "fit_arima", lambda history: ArimaModel(
            0.5, 1e308, history.tail(2), 1.0))
        entries = workflow_tick(specs, ramp(0.40, 0.012, 40))
        assert [e.spec_name for e in entries] == ["a", "b"]
        assert all(e.analysis is None and e.error == "forecast step 2 is not finite"
                   for e in entries)


class PricingFixture:
    """One rising series (0.50 to 0.89 in steps of 0.01) and tactics whose
    intercept-only models predict fixed latencies and costs."""

    def __init__(self, prices=None):
        prices = prices or {f"t{i}": (1.0 + i, 4.0 - i) for i in range(4)}
        self.series = ramp(0.50, 0.01, 40)
        self.tactics = [Tactic(name, 1.0, 1.0) for name in prices]
        self.registry = {name: TacticModels(RegressionModel(weights=(latency,)),
                                            RegressionModel(weights=(cost,)))
                         for name, (latency, cost) in prices.items()}
        self.features = dict.fromkeys(prices, (1.0,))

    def price(self):
        return price_tactics(self.tactics, self.registry, self.features)

    def run(self, specs, config=None):
        return workflow_tick(specs, self.series, self.price(), config)


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
        assert all(e.analysis.status is not SpecStatus.HEALTHY for e in entries)
        assert len(calls) == 2 * len(fx.tactics)
        assert all(len(e.estimates) == len(fx.tactics) for e in entries)

    def test_all_healthy_tick_prices_nothing(self, monkeypatch):
        fx = PricingFixture()
        estimates = fx.price()
        calls = count_predictions(monkeypatch)
        entries = workflow_tick([SlaSpec("a", 10.0, reward=2.0),
                                 SlaSpec("b", 20.0, reward=1.0)], fx.series, estimates)
        assert all(e.analysis.status is SpecStatus.HEALTHY for e in entries)
        assert all(e.estimates == () for e in entries)
        assert calls == []

    def test_rankings_follow_each_specs_deadline(self):
        # "instant" is ready even for a broken spec; "cheap" needs 10 s,
        # which fits before a violation at step 2 or later (12 s and up).
        fx = PricingFixture({"instant": (0.0, 5.0), "cheap": (10.0, 1.0)})
        broken, late = SlaSpec("broken", 0.7, reward=2.0), SlaSpec("late", 0.925, reward=1.0)
        entries = fx.run([broken, late], WorkflowConfig(risk_margin=0.0))
        assert entries[0].analysis.status is SpecStatus.BROKEN
        assert entries[1].analysis.status is SpecStatus.AT_RISK
        assert entries[1].analysis.first_violation_step >= 2
        assert [e.tactic_name for e in entries[0].estimates] == ["instant", "cheap"]
        assert [e.tactic_name for e in entries[1].estimates] == ["cheap", "instant"]
