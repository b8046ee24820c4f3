"""The columnar trace layer against the per-record oracle.

``trace_oracle`` keeps the trace code as it ran on one ``TraceRecord`` per
row: a generator that builds the records one draw at a time and an
ingester that checks the CSV line by line. The columnar ``generate_trace``
must give the same columns bit for bit, and ``ingest_trace_csv`` the same
columns or the same error text, which names the first failing line and
its first failing check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from proadapt import emulator
from proadapt.emulator import (Mirror, Phase, Trace, TraceFormatError, generate_trace,
                               ingest_trace_csv, to_idle_series, trace_csv_text)
from trace_oracle import (TraceRecord, records_to_trace, reference_generate_trace,
                          reference_ingest_trace_csv, same_columns, trace_records)

VALID_LINES = trace_csv_text(generate_trace(12, 5)).splitlines()


@pytest.mark.parametrize("minutes, seed", [(1, 0), (2, 1), (59, 7), (61, 8), (300, 3),
                                           (1440, 42), (1500, 2**40)])
def test_generate_trace_matches_the_per_record_generator(minutes, seed):
    trace = generate_trace(minutes, seed)
    assert same_columns(trace, records_to_trace(reference_generate_trace(minutes, seed)))
    assert trace_csv_text(trace) == "".join(
        [emulator.TRACE_HEADER + "\n"]
        + [f"{r.timestamp:.6f},{r.mirror.value},{r.phase.value},"
           f"{r.latency_seconds:.6f},{r.energy_joules:.6f}\n" for r in trace_records(trace)])


def test_patched_parameters_apply_to_both_generators(monkeypatch):
    monkeypatch.setattr(emulator, "MIRRORS", tuple((m, 1.0, 0.5, 4.0) for m in Mirror))
    monkeypatch.setattr(emulator, "LATENCY_NOISE_SIGMA", 0.0)
    trace = generate_trace(90, 6)
    assert same_columns(trace, records_to_trace(reference_generate_trace(90, 6)))


cells = (st.floats(allow_nan=True, allow_infinity=True).map(repr)
         | st.sampled_from(["", "nan", "-inf", "1e999", "-0.0", "0x10", " 1.5 ", "1_0",
                            '"2.5"', '"1,5"', "germany", "ontario", "mars", "idle",
                            "download", "grep", "GERMANY"])
         | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))


@st.composite
def trace_texts(draw):
    """A valid trace with cells, rows or the header replaced, lines blanked,
    duplicated or moved, each at a random position."""
    lines = list(draw(st.sampled_from([VALID_LINES, VALID_LINES[:9], VALID_LINES[:1]])))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["cell", "row", "blank", "duplicate", "move"]))
        if action == "cell":
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(cells)
            lines[i] = ",".join(fields)
        elif action == "row":
            lines[i] = ",".join(draw(st.lists(cells, max_size=6)))
        elif action == "blank":
            lines.insert(i, "")
        elif action == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def outcome(ingest, path):
    """The ingested columns, or the type and text of the error."""
    try:
        result = ingest(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return result if isinstance(result, Trace) else records_to_trace(result)


def assert_same_outcome(path):
    got, want = outcome(ingest_trace_csv, path), outcome(reference_ingest_trace_csv, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, Trace) and same_columns(got, want)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace_texts())
@example("\n".join(VALID_LINES[:4] + ["1.0,mars,nope,-1,x", "1,2"]))
@example("\n".join(VALID_LINES[:3] + VALID_LINES[2:3]))
@example("\n".join(VALID_LINES[:3] + ["", VALID_LINES[1]]))
@example("")
def test_ingest_matches_the_per_line_ingester(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ingest") / "trace.csv"
    path.write_text(text, encoding="utf-8")
    assert_same_outcome(path)


@pytest.mark.parametrize("tail, read_error", [
    (b"2" * 200_000, TraceFormatError),      # the CSV reader rejects an over-long field
    (b"\xff\xfe,germany\n", UnicodeDecodeError),  # the UTF-8 decoder fails
])
@pytest.mark.parametrize("bad_line", [None, "1.0,germany,download,-1.0,1.0"])
def test_a_line_error_comes_before_a_later_read_error(tmp_path, tail, read_error, bad_line):
    """The per-line ingester checks each line as it reads it, so a failing
    line before the point the file cannot be read at is the error, and the
    read error only if no line before it fails. The read error comes after
    80 kB, past the file object's first read."""
    lines = trace_csv_text(generate_trace(400, 5)).splitlines()
    if bad_line:
        lines.insert(5, bad_line)
    path = tmp_path / "trace.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode() + tail)
    assert_same_outcome(path)
    with pytest.raises(ValueError) as raised:
        ingest_trace_csv(path)
    if bad_line:
        assert str(raised.value) == "line 6: latency_seconds must be finite and >= 0"
    else:
        assert type(raised.value) is read_error


values = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, -1e-300, 1.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(values, values, values), max_size=12))
def test_trace_checks_match_the_first_failing_record(rows):
    """``Trace`` rejects its columns with the message of the first failing
    record's first failing check."""
    stamps, latencies, energies = (np.array([row[k] for row in rows], dtype=float)
                                   for k in range(3))
    codes = np.zeros(len(rows), dtype=int)
    try:
        records = [TraceRecord(t, Mirror.GERMANY, Phase.DOWNLOAD, latency, energy)
                   for t, latency, energy in rows]
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            Trace(stamps, codes, codes, latencies, energies)
        assert str(raised.value) == str(exc)
        return
    assert same_columns(Trace(stamps, codes, codes, latencies, energies),
                        records_to_trace(records))


def test_consumers_read_unsorted_traces_in_stable_timestamp_order():
    # Idle readings at 3, 1, 1, 2 s: the two at 1 s keep their order.
    trace = Trace([3.0, 1.0, 1.0, 2.0, 0.5], [0, 0, 1, 2, 0], [1, 1, 1, 1, 0],
                  [0.0, 0.0, 0.0, 0.0, 2.0], [30.0, 10.0, 11.0, 20.0, 5.0])
    assert to_idle_series(trace).values.tolist() == [10.0, 11.0, 20.0, 30.0]
