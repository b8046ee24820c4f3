import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proadapt import (Mirror, Phase, SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, Trace,
                      TraceFormatError, emulator, fit_mra, generate_trace, ingest_trace_csv,
                      run_cost_impact_simulation, to_idle_series, to_regression_dataset,
                      write_trace_csv)
from proadapt.emulator import LAG_WINDOW, LatencyShape, TacticProfile, sample_latency
from limited_child import run_limited
from trace_oracle import (TraceRecord, hour_of_day, records_to_trace,
                          reference_regression_dataset, same_columns, trace_records)


class TestGenerateTrace:
    def test_full_day_record_counts(self):
        trace = generate_trace(1440, seed=42)
        downloads = np.count_nonzero(trace.phase_is(Phase.DOWNLOAD))
        assert downloads >= 1400
        assert downloads == 3 * 1440
        assert np.count_nonzero(trace.phase_is(Phase.IDLE)) == 1440
        assert len(trace) == 4 * 1440

    def test_deterministic(self):
        assert same_columns(generate_trace(120, seed=7), generate_trace(120, seed=7))
        assert not same_columns(generate_trace(120, seed=7), generate_trace(120, seed=8))

    def test_degenerate_config_is_exactly_diurnal(self, monkeypatch):
        # Without noise and spikes a download's latency is its mirror's base
        # latency times 1 + 0.3 cos(2 pi (hour - 20) / 24), peaking at 20:00.
        base = {Mirror.GERMANY: 3.4, Mirror.MASSACHUSETTS: 2.6, Mirror.ONTARIO: 3.0}
        monkeypatch.setattr(emulator, "MIRRORS",
                            tuple((mirror, b, 0.0, 0.0) for mirror, b in base.items()))
        monkeypatch.setattr(emulator, "LATENCY_NOISE_SIGMA", 0.0)
        downloads = [r for r in trace_records(generate_trace(1440, seed=1))
                     if r.phase is Phase.DOWNLOAD]
        assert len(downloads) == 3 * 1440
        for record in downloads:
            hour = int((record.timestamp % 86400) // 3600)
            expected = base[record.mirror] * (1.0 + 0.3 * np.cos(np.pi * (hour - 20) / 12))
            assert record.latency_seconds == pytest.approx(expected, abs=5e-7)
            if hour == 20:
                assert record.latency_seconds == round(1.3 * base[record.mirror], 6)

    def test_timestamps_strictly_increase(self):
        stamps = generate_trace(90, seed=3).timestamp.tolist()
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_nonnegative_values(self):
        trace = generate_trace(240, seed=9)
        assert np.all(trace.latency_seconds >= 0) and np.all(trace.energy_joules >= 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            generate_trace(0, seed=1)

    @pytest.mark.parametrize("minutes, seed, error, message", [
        # None drew a fresh trace from OS entropy on every call.
        (5, None, TypeError, "seed must be an integer, got None"),
        # True ran as one minute.
        (True, 1, TypeError, "duration_minutes must be an integer, got True"),
        # 2.5 and seed -1 failed with messages that named no argument.
        (2.5, 1, TypeError, "duration_minutes must be an integer, got 2.5"),
        (5, -1, ValueError, "seed must be >= 0, got -1"),
        (5, 1.0, TypeError, "seed must be an integer, got 1.0")])
    def test_arguments_checked_before_any_work(self, monkeypatch, minutes, seed, error,
                                               message):
        monkeypatch.setattr(emulator.np.random, "default_rng", no_work)
        with pytest.raises(error, match=f"^{message}$"):
            generate_trace(minutes, seed)

    def test_numpy_integer_arguments_accepted(self):
        assert same_columns(generate_trace(np.int64(30), np.uint32(4)), generate_trace(30, 4))


def no_work(*args, **kwargs):
    raise AssertionError("the function did work before checking its arguments")


def same_bits(got: np.ndarray, values: list[float]) -> bool:
    want = np.array([round(v, 6) for v in values])
    return np.array_equal(got.view(np.int64), want.view(np.int64))


class TestRoundToSixDecimals:
    """``emulator._round6`` is ``round(v, 6)`` on each value, bit for bit."""

    @settings(max_examples=2000)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=8))
    def test_matches_round_on_any_finite_floats(self, values):
        assert same_bits(emulator._round6(values), values)

    @settings(max_examples=500)
    @given(st.integers(-2**52, 2**52), st.integers(-6, 6))
    def test_matches_round_near_half_integers(self, k, steps):
        # (k + 0.5) / 10^6 and its neighbours a few ulps away: the scaled
        # value lies on or beside a half-integer, where rint alone can be off.
        values = [(k + 0.5) / 1e6]
        for _ in range(abs(steps)):
            values.append(float(np.nextafter(values[-1], math.copysign(math.inf, steps))))
        assert same_bits(emulator._round6(values), values)

    def test_ties_zeros_and_non_finite_values(self):
        values = [0.0, -0.0, 5e-7, -5e-7, 1.5e-6, 2.5e-6, 0.0000025, 1e-320, -1e-320,
                  2.0**52 / 1e6, 2.0**53, 1e300, -1e300, math.inf, -math.inf]
        assert same_bits(emulator._round6(values), values)
        assert np.isnan(emulator._round6([math.nan])).all()

    def test_emulated_values_match_round(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.uniform(0.0, 60.0, 20000),
                                 rng.lognormal(0.0, 4.0, 20000)]).tolist()
        assert same_bits(emulator._round6(values), values)


class TestTrace:
    def columns(self, n=3):
        return ([1.0 * i for i in range(n)], [0] * n, [1] * n, [0.0] * n, [5.0] * n)

    def test_columns_are_read_only_copies(self):
        latency = np.array([1.0, 2.0])
        trace = Trace([0.0, 1.0], [0, 2], [0, 0], latency, [3.0, 4.0])
        latency[0] = 9.0
        assert trace.latency_seconds.tolist() == [1.0, 2.0]
        assert trace.mirror.dtype == trace.phase.dtype == np.int8
        with pytest.raises(ValueError):
            trace.latency_seconds[0] = 0.0
        assert len(trace) == 2

    @pytest.mark.parametrize("index, value, message", [
        (0, [[0.0, 1.0, 2.0]], "one-dimensional and of equal length"),
        (3, [0.0, 0.0], "one-dimensional and of equal length"),
        (1, [0, 3, 0], r"mirror codes must be integers in 0\.\.2"),
        (2, [0, -1, 0], r"phase codes must be integers in 0\.\.2"),
        (1, [0.0, 1.0, 0.0], "mirror codes must be integers"),
        (3, [0.0, -1.0, 0.0], "latency_seconds must be finite and >= 0"),
        (4, [0.0, np.inf, 0.0], "energy_joules must be finite and >= 0"),
        (0, [0.0, np.nan, 1.0], "timestamp must be finite")])
    def test_invalid_columns(self, index, value, message):
        columns = list(self.columns())
        columns[index] = value
        with pytest.raises(ValueError, match=message):
            Trace(*columns)

    def test_first_failing_record_names_the_error(self):
        # Record 1 fails its timestamp check, record 2 its latency check.
        with pytest.raises(ValueError, match="^timestamp must be finite$"):
            Trace([0.0, np.inf, 2.0], [0] * 3, [0] * 3, [1.0, 1.0, -1.0], [1.0] * 3)

    def test_empty_and_unsorted_traces_are_accepted(self):
        assert len(Trace([], [], [], [], [])) == 0
        trace = Trace([5.0, 1.0, 1.0], [2, 1, 0], [0, 1, 2], [1.0, 0.0, 0.5], [1.0] * 3)
        assert trace.timestamp.tolist() == [5.0, 1.0, 1.0]

    def test_masks_and_select(self):
        trace = Trace([0.0, 1.0, 2.0, 3.0], [0, 1, 2, 1], [0, 0, 1, 2],
                      [1.0, 2.0, 0.0, 4.0], [5.0, 6.0, 7.0, 8.0])
        assert trace.phase_is(Phase.DOWNLOAD).tolist() == [True, True, False, False]
        assert trace.mirror_is(Mirror.MASSACHUSETTS).tolist() == [False, True, False, True]
        kept = trace.select(~trace.phase_is(Phase.DOWNLOAD) | trace.mirror_is(Mirror.GERMANY))
        assert kept.timestamp.tolist() == [0.0, 2.0, 3.0]
        assert kept.energy_joules.tolist() == [5.0, 7.0, 8.0]
        assert kept.mirror.tolist() == [0, 2, 1] and kept.phase.tolist() == [0, 1, 2]


class TestSampleLatency:
    def test_normal_moments(self):
        profile = TacticProfile("b", 7.0, LatencyShape.NORMAL, 3.0, 0.5)
        draws = sample_latency(profile, seed=0, n=10000)
        assert abs(draws.mean() - 3.0) < 0.02
        assert abs(draws.std(ddof=1) - 0.5) < 0.02
        assert np.all(draws >= 0)

    def test_skewed_mean_matched_and_right_tailed(self):
        profile = TacticProfile("a", 5.0, LatencyShape.POSITIVE_SKEW, 3.0, 0.5)
        draws = sample_latency(profile, seed=0, n=10000)
        assert abs(draws.mean() - 3.0) < 0.02
        centered = (draws - draws.mean()) / draws.std(ddof=0)
        assert float(np.mean(centered**3)) > 0.0

    def test_zero_spread_rejected_at_construction(self):
        with pytest.raises(ValueError):
            TacticProfile("a", 5.0, LatencyShape.NORMAL, 3.0, 0.0)

    @pytest.mark.parametrize("field, value", [
        ("mean", math.nan), ("mean", math.inf), ("mean", 0.0), ("mean", -1.0),
        ("sd", math.nan), ("sd", math.inf), ("sd", 0.0),
        ("cost_per_unit_latency", math.nan), ("cost_per_unit_latency", math.inf),
        ("cost_per_unit_latency", -1.0)])
    def test_non_finite_or_out_of_range_fields_rejected(self, field, value):
        fields = {"cost_per_unit_latency": 5.0, "mean": 3.0, "sd": 0.5, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TacticProfile("a", shape=LatencyShape.NORMAL, **fields)

    @pytest.mark.parametrize("field, value", [
        ("mean", True), ("mean", "3.0"), ("mean", None), ("mean", 3 + 0j),
        ("sd", False), ("sd", "0.5"),
        ("cost_per_unit_latency", True), ("cost_per_unit_latency", [5.0])])
    def test_bool_or_non_real_fields_rejected(self, field, value):
        fields = {"cost_per_unit_latency": 5.0, "mean": 3.0, "sd": 0.5, field: value}
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got "):
            TacticProfile("a", shape=LatencyShape.NORMAL, **fields)

    @pytest.mark.parametrize("shape", ["normal", "positive_skew", None, 0])
    def test_shape_must_be_a_latency_shape(self, shape):
        # A string used to pass and draw lognormal values.
        with pytest.raises(TypeError, match="^shape must be a LatencyShape, got "):
            TacticProfile("a", 1.0, shape, 3.0, 0.5)

    def test_integer_and_numpy_fields_accepted(self):
        profile = TacticProfile("a", 5, LatencyShape.NORMAL, np.float64(3.0), np.int64(1))
        assert sample_latency(profile, seed=0, n=3).shape == (3,)

    def test_zero_cost_accepted(self):
        assert TacticProfile("a", 0.0, LatencyShape.NORMAL, 3.0, 0.5).cost_per_unit_latency == 0

    def test_means_converge(self):
        n = 100000
        tolerance = 3 * 0.5 / math.sqrt(n) * 1.5
        for shape in LatencyShape:
            profile = TacticProfile("p", 1.0, shape, 3.0, 0.5)
            draws = sample_latency(profile, seed=0, n=n)
            assert abs(draws.mean() - 3.0) < tolerance

    def test_deterministic(self):
        profile = SAMPLE_TACTIC_A
        np.testing.assert_array_equal(sample_latency(profile, 5, 100),
                                      sample_latency(profile, 5, 100))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            sample_latency(SAMPLE_TACTIC_A, seed=1, n=0)

    @pytest.mark.parametrize("seed, n, error, message", [
        # None drew fresh OS entropy on every call; True and 2.5 failed in
        # NumPy with messages that named no argument.
        (None, 3, TypeError, "seed must be an integer, got None"),
        (-1, 3, ValueError, "seed must be >= 0, got -1"),
        (1, True, TypeError, "n must be an integer, got True"),
        (1, 2.5, TypeError, "n must be an integer, got 2.5")])
    def test_arguments_checked_before_any_work(self, monkeypatch, seed, n, error, message):
        monkeypatch.setattr(emulator.np.random, "default_rng", no_work)
        with pytest.raises(error, match=f"^{message}$"):
            sample_latency(SAMPLE_TACTIC_A, seed, n)


class TestCostImpactSimulation:
    def test_sample_counts(self):
        costs_a, costs_b = run_cost_impact_simulation(SAMPLE_TACTIC_A, SAMPLE_TACTIC_B,
                                                      100, seed=1)
        assert costs_a.shape == (100,)
        assert costs_b.shape == (100,)

    def test_near_deterministic_limit(self):
        a = TacticProfile("a", 5.0, LatencyShape.POSITIVE_SKEW, 3.0, 1e-9)
        b = TacticProfile("b", 7.0, LatencyShape.NORMAL, 3.0, 1e-9)
        costs_a, costs_b = run_cost_impact_simulation(a, b, 50, seed=2)
        np.testing.assert_allclose(costs_a, 15.0, atol=1e-6)
        np.testing.assert_allclose(costs_b, 21.0, atol=1e-6)

    def test_skewed_tactic_is_more_dispersed(self):
        # direct sampling comparison: the multiplicative-volatility tactic
        # produces the wider overall-cost spread despite its lower unit cost
        costs_a, costs_b = run_cost_impact_simulation(SAMPLE_TACTIC_A, SAMPLE_TACTIC_B,
                                                      10000, seed=3)
        assert costs_a.std(ddof=1) > costs_b.std(ddof=1)

    @pytest.mark.parametrize("n_runs, seed, error, message", [
        # seed was not checked; 2.5 runs failed with a NumPy message.
        (10, None, TypeError, "seed must be an integer, got None"),
        (10, -1, ValueError, "seed must be >= 0, got -1"),
        (10, True, TypeError, "seed must be an integer, got True"),
        (2.5, 1, TypeError, "n_runs must be an integer, got 2.5"),
        (True, 1, TypeError, "n_runs must be an integer, got True"),
        (0, 1, ValueError, "n_runs must be >= 1, got 0")])
    def test_arguments_checked_before_any_work(self, monkeypatch, n_runs, seed, error,
                                               message):
        monkeypatch.setattr(emulator, "subseeds", no_work)
        monkeypatch.setattr(emulator, "sample_latency", no_work)
        with pytest.raises(error, match=f"^{message}$"):
            run_cost_impact_simulation(SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, n_runs, seed)

    def test_costs_far_from_zero_need_no_memory_of_their_size(self):
        # Width-5 bins from 0 to a cost of 1e12 once asked for 1.46 TiB of
        # edges. The child's lowered limit keeps that off the host.
        code = ("import numpy as np\n"
                "from proadapt.emulator import (LatencyShape, TacticProfile,\n"
                "                               run_cost_impact_simulation)\n"
                "big = TacticProfile('big', 1.0, LatencyShape.NORMAL, 1e12, 1.0)\n"
                "costs = run_cost_impact_simulation(big, big, 10, 0)\n"
                "print([c.shape == (10,) and bool(np.isfinite(c).all()) for c in costs])\n")
        result = run_limited("-c", code)
        assert (result.returncode, result.stdout) == (0, "[True, True]\n"), result.stderr


class TestTraceCsv:
    def test_round_trip_is_exact(self, tmp_path):
        trace = generate_trace(30, seed=11)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert same_columns(ingest_trace_csv(path), trace)

    def test_small_well_formed_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,mirror,phase,latency_seconds,energy_joules\n"
                        "1.000000,germany,download,2.000000,24.000000\n"
                        "2.000000,ontario,idle,0.000000,5.000000\n"
                        "3.000000,germany,grep,0.100000,1.000000\n")
        trace = ingest_trace_csv(path)
        assert len(trace) == 3
        assert trace_records(trace)[2].phase is Phase.GREP
        assert trace.phase.tolist() == [0, 1, 2] and trace.mirror.tolist() == [0, 2, 0]

    def test_negative_latency_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,mirror,phase,latency_seconds,energy_joules\n"
                        "1.000000,germany,download,-1.200000,24.000000\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            ingest_trace_csv(path)

    def test_crlf_parses_identically(self, tmp_path):
        trace = generate_trace(10, seed=12)
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        write_trace_csv(trace, lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert same_columns(ingest_trace_csv(crlf), ingest_trace_csv(lf))

    def test_header_and_field_validation(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,mirror\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            ingest_trace_csv(path)
        path.write_text("timestamp,mirror,phase,latency_seconds,energy_joules\n"
                        "1.0,mars,download,1.0,1.0\n")
        with pytest.raises(TraceFormatError, match="mirror"):
            ingest_trace_csv(path)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,mirror,phase,latency_seconds,energy_joules\n"
                        "2.000000,germany,download,1.000000,1.000000\n"
                        "1.000000,germany,download,1.000000,1.000000\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            ingest_trace_csv(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            ingest_trace_csv(tmp_path / "absent.csv")


def single_mirror_records(n, latency=lambda i: 2.0 + 0.01 * i):
    return [TraceRecord(60.0 * i, Mirror.GERMANY, Phase.DOWNLOAD,
                        latency(i), 10.0 + 0.1 * i) for i in range(n)]


def single_mirror_trace(n, latency=lambda i: 2.0 + 0.01 * i):
    return records_to_trace(single_mirror_records(n, latency))


class TestRegressionDataset:
    def test_single_mirror_row_count_and_intercept(self):
        X, latency, cost = to_regression_dataset(single_mirror_trace(100))
        assert X.n == 100 - 5
        assert np.all(X.rows[:, 0] == 1.0)
        assert len(latency) == len(cost) == X.n
        assert "mirror_" not in "".join(X.column_names)

    def test_mixed_trace_has_mirror_dummies(self):
        records = generate_trace(60, seed=13)
        X, _, _ = to_regression_dataset(records)
        assert "mirror_massachusetts" in X.column_names
        assert "mirror_ontario" in X.column_names
        assert X.n == 3 * (60 - 5)

    def test_identical_records_degrade_to_ridge_fallback(self):
        X, latency, _ = to_regression_dataset(single_mirror_trace(40, lambda i: 2.0))
        model = fit_mra(X, latency)
        assert model.ridge_lambda > 0.0

    def test_hour_coordinates_invert_to_timestamp_hour(self):
        trace = generate_trace(600, seed=14)
        X, _, _ = to_regression_dataset(trace)
        downloads = [r for r in trace_records(trace) if r.phase is Phase.DOWNLOAD]
        # rows drop the first LAG_WINDOW downloads of each of the 3 mirrors
        kept = [r for r in downloads
                if sum(1 for q in downloads
                       if q.mirror is r.mirror and q.timestamp < r.timestamp) >= 5]
        sin_col = X.column_names.index("hour_sin")
        cos_col = X.column_names.index("hour_cos")
        for row, record in zip(X.rows, kept):
            angle = math.atan2(row[sin_col], row[cos_col])
            hour = round(angle / (2 * math.pi) * 24) % 24
            assert hour == int((record.timestamp % 86400) // 3600)

    def test_too_few_downloads(self):
        with pytest.raises(ValueError):
            to_regression_dataset(single_mirror_trace(7))


def dataset_outcome(build, records):
    try:
        X, latency, energy = build(records)
    except ValueError as exc:
        return str(exc)
    return X.column_names, X.rows, latency.t, energy.t


def assert_same_dataset(trace):
    got = dataset_outcome(to_regression_dataset, trace)
    want = dataset_outcome(reference_regression_dataset, trace)
    if isinstance(want, str):
        assert got == want
        return
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.shape == b.shape and np.array_equal(a, b)


@st.composite
def download_traces(draw):
    """Records of one to three mirrors (some with fewer than LAG_WINDOW + 1
    downloads), idle rows mixed in, repeated and negative timestamps."""
    mirrors = draw(st.lists(st.sampled_from(list(Mirror)), min_size=1, max_size=3,
                            unique=True))
    n = draw(st.integers(0, 60))
    stamps = draw(st.lists(st.sampled_from([-86400.0 * 3 - 1.5, 0.0, 59.9, 3600.0])
                           | st.floats(-1e6, 1e6), min_size=n, max_size=n))
    values = st.floats(0.0, 1e3)
    return records_to_trace([
        TraceRecord(stamp, draw(st.sampled_from(mirrors)),
                    draw(st.sampled_from([Phase.DOWNLOAD] * 4 + [Phase.IDLE])),
                    draw(values), draw(values)) for stamp in stamps])


class TestVectorisedRegressionDataset:
    @settings(max_examples=200, deadline=None)
    @given(download_traces())
    def test_matches_per_record_loop(self, trace):
        assert_same_dataset(trace)

    @pytest.mark.parametrize("minutes, seed", [(1440, 1), (1440, 2), (97, 3), (300, 4)])
    def test_emulated_traces_match_per_record_loop(self, minutes, seed):
        assert_same_dataset(generate_trace(minutes, seed))

    def test_single_mirror_and_short_mirrors(self):
        rng = np.random.default_rng(8)
        records = single_mirror_records(30, lambda i: float(rng.uniform(0.5, 4.0)))
        assert_same_dataset(records_to_trace(records))
        # Ontario has 3 downloads and Massachusetts exactly LAG_WINDOW: no rows.
        extra = [TraceRecord(5.0 + 60.0 * i, mirror, Phase.DOWNLOAD, 1.0 + i, 2.0)
                 for mirror, count in ((Mirror.ONTARIO, 3), (Mirror.MASSACHUSETTS, 5))
                 for i in range(count)]
        assert_same_dataset(records_to_trace(records + extra))
        X, _, _ = to_regression_dataset(records_to_trace(records + extra))
        assert X.n == 30 - LAG_WINDOW
        assert X.column_names[-2:] == ("mirror_massachusetts", "mirror_ontario")
        assert not X.rows[:, -2:].any()

    def test_tiny_negative_timestamp_has_hour_0(self):
        # -1e-300 % 86400.0 rounds to 86400.0, which is midnight: hour 0.
        # The downloads before it, at -480 to -60 s, give it a full lag window.
        stamps = [-60.0 * k for k in range(8, 0, -1)] + [-1e-300]
        records = [TraceRecord(t, Mirror.GERMANY, Phase.DOWNLOAD, 2.0 + 0.01 * i, 10.0)
                   for i, t in enumerate(stamps)][::-1]
        assert hour_of_day(-1e-300) == 0
        assert_same_dataset(records_to_trace(records))
        X, _, _ = to_regression_dataset(records_to_trace(records))
        hour = [X.column_names.index("hour_sin"), X.column_names.index("hour_cos")]
        assert tuple(X.rows[-1, hour].tolist()) == (0.0, 1.0)


class TestIdleSeries:
    def test_filters_to_idle_rows(self):
        trace = generate_trace(45, seed=15)
        series = to_idle_series(trace)
        assert len(series) == 45
        idle_energy = [r.energy_joules for r in trace_records(trace) if r.phase is Phase.IDLE]
        np.testing.assert_array_equal(series.values, idle_energy)

    def test_no_idle_rows_rejected(self):
        with pytest.raises(ValueError):
            to_idle_series(single_mirror_trace(10))

    def test_partition_of_non_grep_records(self):
        records = trace_records(generate_trace(30, seed=16))
        downloads = sum(1 for r in records if r.phase is Phase.DOWNLOAD)
        idle = len(to_idle_series(records_to_trace(records)))
        non_grep = sum(1 for r in records if r.phase is not Phase.GREP)
        assert downloads + idle == non_grep
