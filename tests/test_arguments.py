"""One rule each for integer, real and array arguments across the public API.

Every integer argument rejects a bool and a float with ``TypeError`` and a
value below its least value with ``ValueError``, for tabled and for drawn
values (bools, non-integral reals, values below the bound, and values
beyond 64 bits, which a seed accepts); so does each entry of a per-entry
integer argument (``types.integer_array``). Every real argument
(``types.check_real``) rejects a bool, a string and a complex number with
``TypeError``, and NaN, the infinities and a value below its bound with
``ValueError``. Every array argument (``types.check_array``) rejects bool,
complex and string entries, a non-finite entry and a wrong number of axes
with ``ValueError``, and so does every sequence argument of the public
functions. Each message starts with the argument's name.

The real fields are found, not listed: each public dataclass that
validates itself has one valid instance in ``VALID``, and every field of
it annotated ``float`` is drawn out of its domain.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import proadapt
from proadapt import (SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, ArimaModel, DesignMatrix,
                      RegressionModel, ResponseVector, SlaSpec, TimeSeries,
                      UtilityParams, WorkflowConfig, acf, fit_arima_windows, forecast,
                      generate_trace, pacf, run_cost_impact_simulation,
                      run_forecast_experiments, run_predictor_experiments)
from proadapt.arima import forecast_paths
from proadapt.emulator import sample_latency
from proadapt.metrics import mae, rmse
from proadapt.regression import predict
from proadapt.types import check_array, check_real
from proadapt.workflow import TacticEstimate, TacticModels, workflow_block

SERIES = TimeSeries(np.sin(np.arange(40.0)))
MODEL = ArimaModel(0.5, 0.0, (1.0, 2.0), 0.0)
X = DesignMatrix(np.column_stack([np.ones(40), np.arange(40.0)]))
T = ResponseVector(np.arange(40.0))

# (argument name, least value, the call with the argument set to a value)
INTEGER_ARGUMENTS = [
    pytest.param("duration_minutes", 1, lambda v: generate_trace(v, 0),
                 id="generate_trace-duration_minutes"),
    pytest.param("seed", 0, lambda v: generate_trace(1, v), id="generate_trace-seed"),
    pytest.param("seed", 0, lambda v: sample_latency(SAMPLE_TACTIC_A, v, 3),
                 id="sample_latency-seed"),
    pytest.param("n", 1, lambda v: sample_latency(SAMPLE_TACTIC_A, 0, v),
                 id="sample_latency-n"),
    pytest.param("n_runs", 1, lambda v: run_cost_impact_simulation(
        SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, v, 0), id="run_cost_impact_simulation-n_runs"),
    pytest.param("seed", 0, lambda v: run_cost_impact_simulation(
        SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, 3, v), id="run_cost_impact_simulation-seed"),
    pytest.param("n_runs", 1, lambda v: run_forecast_experiments(SERIES, v, 0),
                 id="run_forecast_experiments-n_runs"),
    pytest.param("seed", 0, lambda v: run_forecast_experiments(SERIES, 3, v),
                 id="run_forecast_experiments-seed"),
    pytest.param("n_runs", 1, lambda v: run_predictor_experiments(X, {"t": (T, 1.0)}, v, 0),
                 id="run_predictor_experiments-n_runs"),
    pytest.param("seed", 0, lambda v: run_predictor_experiments(X, {"t": (T, 1.0)}, 3, v),
                 id="run_predictor_experiments-seed"),
    pytest.param("horizon", 1, lambda v: WorkflowConfig(horizon=v),
                 id="WorkflowConfig-horizon"),
    pytest.param("max_lag", 1, lambda v: acf(SERIES, v), id="acf-max_lag"),
    pytest.param("max_lag", 1, lambda v: pacf(SERIES, v), id="pacf-max_lag"),
    pytest.param("horizon", 1, lambda v: forecast(MODEL, v), id="forecast-horizon"),
    pytest.param("horizon", 1, lambda v: forecast_paths([2.0], [1.0], [0.5], [0.0], v),
                 id="forecast_paths-horizon"),
    pytest.param("window", 1, lambda v: fit_arima_windows(SERIES, v, [0]),
                 id="fit_arima_windows-window"),
    pytest.param("starts", 0, lambda v: fit_arima_windows(SERIES, 20, [v]),
                 id="fit_arima_windows-starts"),
]


@pytest.mark.parametrize("name, least, call", INTEGER_ARGUMENTS)
@pytest.mark.parametrize("value", ["bool", "float", "below"])
def test_integer_arguments_follow_one_rule(name, least, call, value):
    value = {"bool": True, "float": 2.5, "below": least - 1}[value]
    with pytest.raises((TypeError, ValueError)) as raised:
        call(value)
    assert str(raised.value).startswith(f"{name} must ")


# Integer arguments that follow the rule entry by entry
# (``types.integer_array``): the call with one entry set to a value.
INTEGER_ENTRIES = [
    pytest.param("window", 1, lambda v: fit_arima_windows(SERIES, [20, v], [0, 1]),
                 id="fit_arima_windows-window-entry"),
    pytest.param("starts", 0, lambda v: fit_arima_windows(SERIES, [20, 20], [0, v]),
                 id="fit_arima_windows-starts-entry"),
]


def not_integers():
    """Bools and reals that are not integers, whatever their value."""
    return st.one_of(st.booleans(), st.just(np.True_), st.floats(),
                     st.floats(width=32).map(np.float32), st.fractions(),
                     st.decimals(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("name, least, call", INTEGER_ARGUMENTS + INTEGER_ENTRIES)
@given(data=st.data())
def test_drawn_integer_arguments_follow_one_rule(name, least, call, data):
    kind = data.draw(st.sampled_from(["not integer", "below", "beyond 64 bits"]))
    if kind == "not integer":
        with pytest.raises(TypeError) as raised:
            call(data.draw(not_integers()))
    elif kind == "below":
        with pytest.raises(ValueError) as raised:
            call(data.draw(st.integers(max_value=least - 1)))
    else:
        # A seed of any size is valid, and NumPy refuses a size beyond 64
        # bits with a ValueError of its own; no other exception may escape.
        try:
            call(data.draw(st.integers(2**64, 2**200)))
        except (TypeError, ValueError):
            pass
        return
    assert str(raised.value).startswith(f"{name} must ")


@pytest.mark.parametrize("value, error, message", [
    (True, TypeError, "x must be a real number, got True"),
    ("1.0", TypeError, "x must be a real number, got '1.0'"),
    (1 + 0j, TypeError, "x must be a real number, got (1+0j)"),
    (math.nan, ValueError, "x must be finite, got nan"),
    (-math.inf, ValueError, "x must be finite, got -inf")])
def test_check_real_rejects(value, error, message):
    with pytest.raises(error) as raised:
        check_real("x", value)
    assert str(raised.value) == message


@pytest.mark.parametrize("value", [0, -3, 2.5, np.float32(1.5), np.int64(7), -1e308])
def test_check_real_accepts_finite_reals(value):
    check_real("x", value)


@pytest.mark.parametrize("value, least, strict, message", [
    (-1.0, 0, False, "x must be finite and >= 0, got -1.0"),
    (0.0, 0, True, "x must be finite and > 0, got 0.0"),
    (math.nan, 0, False, "x must be finite and >= 0, got nan"),
    (math.inf, 0, True, "x must be finite and > 0, got inf"),
    (-math.inf, -1.5, False, "x must be finite and >= -1.5, got -inf")])
def test_bounded_check_real_rejects(value, least, strict, message):
    with pytest.raises(ValueError) as raised:
        check_real("x", value, least, strict)
    assert str(raised.value) == message


MODULES = [importlib.import_module(f"proadapt.{info.name}")
           for info in pkgutil.iter_modules(proadapt.__path__)]
# Names a module imports only for type checking resolve from the others.
NAMESPACE = {name: value for module in MODULES for name, value in vars(module).items()}

# One valid instance of each public dataclass that validates a real field.
VALID = [
    SlaSpec("s", 1.0, penalty=1.0, reward=1.0),
    UtilityParams(tau=1.0, rate=1.0, response_time=0.5, target=1.0, max_rate=2.0,
                  dimmer=0.5, reward_optional=2.0, reward_mandatory=1.0, cost=1.0),
    WorkflowConfig(),
    TacticEstimate("t", 1.0, 1.0, 0.5),
    SAMPLE_TACTIC_A,
    MODEL,
    RegressionModel((1.0, 2.0), 0.0, 0.0),
]
# (least, strict) of each bounded real field; the other real fields need
# only be finite.
BOUNDS = {
    "SlaSpec.penalty": (0, False), "SlaSpec.reward": (0, False),
    "UtilityParams.tau": (0, True), "UtilityParams.rate": (0, False),
    "UtilityParams.max_rate": (0, False), "UtilityParams.dimmer": (0, False),
    "UtilityParams.cost": (0, True),
    "WorkflowConfig.risk_margin": (0, False), "WorkflowConfig.tick_seconds": (0, True),
    "TacticEstimate.predicted_latency": (0, False),
    "TacticEstimate.predicted_cost": (0, False),
    "TacticProfile.cost_per_unit_latency": (0, False), "TacticProfile.mean": (0, True),
    "TacticProfile.sd": (0, True),
    "ArimaModel.residual_variance": (0, False),
    "RegressionModel.ridge_lambda": (0, False), "RegressionModel.training_error": (0, False),
}


def real_fields(cls: type) -> list[str]:
    hints = typing.get_type_hints(cls, localns=NAMESPACE)
    return [field.name for field in dataclasses.fields(cls) if hints[field.name] is float]


REAL_FIELDS = [pytest.param(instance, name, BOUNDS.get(f"{type(instance).__name__}.{name}"),
                            id=f"{type(instance).__name__}.{name}")
               for instance in VALID for name in real_fields(type(instance))]


def test_valid_covers_every_validated_dataclass_with_a_real_field():
    validated = {obj for module in MODULES for obj in map(module.__dict__.get,
                                                          getattr(module, "__all__", ()))
                 if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                 and "__post_init__" in vars(obj) and real_fields(obj)}
    assert validated == {type(instance) for instance in VALID}
    assert set(BOUNDS) <= {param.id for param in REAL_FIELDS}


def out_of_domain(bound):
    """NaN, the infinities, bools, strings, complex numbers and, for a
    bounded field, values below (or, strictly, at) its bound."""
    cases = [st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
             st.text(max_size=5), st.complex_numbers(allow_nan=False)]
    if bound is not None:
        least, strict = bound
        cases.append(st.floats(max_value=least, allow_nan=False).filter(
            lambda value: strict or value < least))
    return st.one_of(cases)


@pytest.mark.parametrize("instance, name, bound", REAL_FIELDS)
@given(data=st.data())
def test_real_fields_follow_one_rule(instance, name, bound, data):
    value = data.draw(out_of_domain(bound))
    with pytest.raises((TypeError, ValueError)) as raised:
        dataclasses.replace(instance, **{name: value})
    assert str(raised.value).startswith(f"{name} must ")


@pytest.mark.parametrize("instance, name, bound", [
    param for param in REAL_FIELDS if param.values[2] is not None])
def test_bounded_real_fields_accept_the_bound_unless_strict(instance, name, bound):
    least, strict = bound
    if strict:
        with pytest.raises(ValueError, match=f"^{name} must be finite and > {least}, got "):
            dataclasses.replace(instance, **{name: least})
    else:
        assert getattr(dataclasses.replace(instance, **{name: least}), name) == least


@given(out_of_domain(None))
def test_static_value_follows_the_real_rule(value):
    with pytest.raises((TypeError, ValueError)) as raised:
        run_predictor_experiments(X, {"t": (T, value)}, 1, 0)
    assert str(raised.value).startswith("static_value must ")


# (argument name, axes, the constructor)
ARRAY_ARGUMENTS = [pytest.param("values", 1, TimeSeries, id="TimeSeries.values"),
                   pytest.param("t", 1, ResponseVector, id="ResponseVector.t"),
                   pytest.param("rows", 2, DesignMatrix, id="DesignMatrix.rows")]


@pytest.mark.parametrize("name, ndim, build", ARRAY_ARGUMENTS)
@given(data=st.data())
def test_array_arguments_follow_one_rule(name, ndim, build, data):
    shape = data.draw(st.tuples(*[st.integers(1, 4)] * ndim))
    values = np.ones(shape)
    if data.draw(st.booleans()):  # a non-finite entry
        index = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
        values[index] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:  # no axes, one axis too many or, for a matrix, one too few
        values = data.draw(st.sampled_from(
            [np.ones(()), values[..., None]] + ([values[0]] if ndim > 1 else [])))
    with pytest.raises((TypeError, ValueError)) as raised:
        build(values)
    assert str(raised.value).startswith(f"{name} ")


@pytest.mark.parametrize("name, ndim, build", ARRAY_ARGUMENTS)
def test_array_arguments_are_read_only_float_copies(name, ndim, build):
    values = np.ones((3,) * ndim, dtype=int)
    stored = getattr(build(values), name)
    assert stored.dtype == float and not stored.flags.writeable
    values[0] = 7
    assert (stored == 1).all()


def test_time_series_accepts_any_iterable():
    assert TimeSeries(float(v) for v in range(3)).values.tolist() == [0.0, 1.0, 2.0]
    assert TimeSeries(range(3)).values.tolist() == [0.0, 1.0, 2.0]


def test_check_array_names_values_that_are_not_reals():
    # A complex ndarray used to lose its imaginary part with only a
    # ComplexWarning, and strings and bools in a list were read as floats.
    for values in (5.0, ["a"], [[1.0], [2.0, 3.0]], [10**400], np.array([1 + 2j]), [1 + 2j],
                   ["1.5", True], [True], np.array([True, False]), np.array(["1.5"]), [b"1"],
                   np.array([1.0], dtype=object), [None]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x must be an array of real numbers: "):
                check_array("x", values)


def test_check_array_reads_bools_mixed_with_floats_as_floats():
    # NumPy infers floats for such a list, so no dtype is left to reject.
    assert check_array("x", [1.5, True]).tolist() == [1.5, 1.0]


MODEL_2 = RegressionModel((1.0, 2.0))
SPECS = [SlaSpec("s", 1.0)]
PER_TICK = ("last", "previous", "phi", "c")

# (argument names, the call given each argument's value, which corruptions
# apply). "length" makes one argument empty or longer than the others;
# "empty" makes every argument empty.
SEQUENCE_ARGUMENTS = [
    pytest.param(("x",), lambda x: predict(MODEL_2, x), ("entries",), id="predict-x"),
    pytest.param(("features",), lambda features: TacticModels(MODEL_2, MODEL_2, features),
                 ("entries",), id="TacticModels-features"),
    pytest.param(PER_TICK, lambda *per_tick: forecast_paths(*per_tick, 3),
                 ("entries", "length"), id="forecast_paths"),
    pytest.param(PER_TICK, lambda *per_tick: workflow_block(SPECS, *per_tick, WorkflowConfig()),
                 ("entries", "length"), id="workflow_block"),
    pytest.param(("starts",), lambda starts: fit_arima_windows(SERIES, 20, starts),
                 ("entries",), id="fit_arima_windows-starts"),
    pytest.param(("window", "starts"), lambda window, starts: fit_arima_windows(
        SERIES, window, starts), ("entries", "length"), id="fit_arima_windows-per-start"),
    # The docstrings leave the non-finite score of a NaN or infinite entry
    # to the caller, so only the entries' kind is drawn.
    pytest.param(("predicted", "actual"), rmse, ("kind", "length", "empty"), id="rmse"),
    pytest.param(("predicted", "actual"), mae, ("kind", "length", "empty"), id="mae"),
]


def corrupted(data, values, applies):
    """The valid list ``values`` drawn out of the domain in one of the ways
    that ``applies``: a non-finite entry, bool, complex or string entries,
    empty or one entry longer."""
    kinds = {"entries": ["nonfinite", "bool", "complex", "string"],
             "kind": ["bool", "complex", "string"], "length": ["empty", "longer"]}
    kind = data.draw(st.sampled_from(sorted({k for a in applies for k in kinds.get(a, ())})))
    i = data.draw(st.integers(0, len(values) - 1))
    if kind == "nonfinite":
        return values[:i] + [data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))] \
            + values[i + 1:]
    if kind == "bool":
        return data.draw(st.sampled_from([[True] * len(values), np.ones(len(values), bool)]))
    if kind == "complex":
        return data.draw(st.sampled_from([values[:i] + [1 + 2j] + values[i + 1:],
                                          np.array(values, dtype=complex)]))
    if kind == "string":
        return values[:i] + [data.draw(st.sampled_from(["1.5", "a", ""]))] + values[i + 1:]
    return [] if kind == "empty" else values + [1.0]


def valid(names, n):
    """In-domain values of the arguments ``names``: n of each (two, the
    width of ``MODEL_2``, for a feature vector; integers for the starts and
    window lengths of ``fit_arima_windows``)."""
    if names in (("x",), ("features",)):
        n = 2
    integers = {"starts": list(range(n)), "window": list(range(20, 20 + n))}
    return {name: integers.get(name, [float(v) for v in range(n)]) for name in names}


@pytest.mark.parametrize("names, call, applies", SEQUENCE_ARGUMENTS)
def test_sequence_arguments_accept_valid_values(names, call, applies):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(*valid(names, 3).values())


@pytest.mark.parametrize("names, call, applies", SEQUENCE_ARGUMENTS)
@given(data=st.data())
def test_sequence_arguments_follow_one_rule(names, call, applies, data):
    arguments = valid(names, data.draw(st.integers(1, 3)))
    name = data.draw(st.sampled_from(names))
    arguments[name] = corrupted(data, arguments[name], applies)
    if "empty" in applies and data.draw(st.booleans()):
        arguments = dict.fromkeys(names, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((TypeError, ValueError)) as raised:
            call(*arguments.values())
    assert str(raised.value).startswith(names), str(raised.value)
