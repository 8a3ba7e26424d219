import json
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from presage.data_io import (
    REPORT_COLUMNS,
    read_labels,
    read_report,
    read_series,
    write_summary,
)
from presage.detector import DetectionRecord, DetectorConfig, Phase, Verdict, _phase_of
from presage.errors import DataError, OrderingError
from presage.evaluation import summarize_run

from helpers import (
    CPU_B3B_KEY,
    LABELS_PATH,
    MTSF_KEY,
    make_record,
    reference_report_bytes,
    write_records,
    write_series_csv,
)


class TestReadSeries:
    def test_round_trips_a_synthetic_series(self, tmp_path):
        path = tmp_path / "series.csv"
        values = [10.0, 10.5, 11.25, 9.875]
        start = datetime(2021, 5, 1, 12, 0)
        write_series_csv(path, values, start=start)
        observations = list(read_series(path))
        assert [value for _, value in observations] == values
        assert [timestamp for timestamp, _ in observations] == [
            start + k * timedelta(minutes=5) for k in range(4)
        ]

    def test_two_line_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("timestamp,value\n2014-04-10 00:02:00,51.846\n")
        observations = list(read_series(path))
        assert len(observations) == 1
        _, value = observations[0]
        assert value == 51.846

    def test_minute_resolution_timestamps(self, tmp_path):
        path = tmp_path / "minutes.csv"
        path.write_text("timestamp,value\n2014-04-10 00:02,1.0\n2014-04-10 00:07,2.0\n")
        observations = list(read_series(path))
        timestamp, _ = observations[0]
        assert timestamp == datetime(2014, 4, 10, 0, 2)
        # the other ISO 8601 forms datetime.fromisoformat reads on Python 3.11+
        for text, expected in [
            ("2014-01-01T00:05Z", datetime(2014, 1, 1, 0, 5, tzinfo=timezone.utc)),
            ("20140101T0005", datetime(2014, 1, 1, 0, 5)),
            ("2014-W01-3 00:05", datetime(2014, 1, 1, 0, 5)),
            ("2014-01-01", datetime(2014, 1, 1)),
        ]:
            path.write_text(f"timestamp,value\n{text},1.0\n")
            assert list(read_series(path)) == [(expected, 1.0)]

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("label,timestamp,value\nx,2020-01-01 00:00:00,3.5\n")
        _, value = list(read_series(path))[0]
        assert value == 3.5

    def test_missing_value_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,reading\n2020-01-01 00:00:00,3.5\n")
        with pytest.raises(DataError):
            read_series(path)

    def test_unparsable_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n2020-01-01 00:00:00,1.0\nnot-a-time,2.0\n")
        with pytest.raises(DataError, match=":3"):
            list(read_series(path))

    def test_unparsable_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n2020-01-01 00:00:00,oops\n")
        with pytest.raises(DataError, match=":2"):
            list(read_series(path))

    def test_blank_rows_are_skipped_but_keep_their_line_numbers(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(
            "timestamp,value\n\n2020-01-01 00:00:00,1.0\n\n\n2020-01-01 00:05:00,2.0\n"
        )
        assert [value for _, value in read_series(path)] == [1.0, 2.0]
        path.write_text("timestamp,value\n2020-01-01 00:00:00,1.0\n\n2020-01-01 00:05:00,oops\n")
        with pytest.raises(DataError, match=":4:"):
            list(read_series(path))

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n2020-01-01 00:00:00,inf\n")
        with pytest.raises(DataError):
            list(read_series(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_series(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("timestamp,value\n")
        with pytest.raises(DataError, match="no data rows"):
            list(read_series(path))

    def test_decreasing_timestamp_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "timestamp,value\n"
            "2020-01-01 00:10:00,1.0\n"
            "2020-01-01 00:05:00,2.0\n"
        )
        with pytest.raises(DataError, match=":3"):
            list(read_series(path))

    def test_byte_order_mark_before_header_is_skipped(self, tmp_path):
        plain = tmp_path / "plain.csv"
        write_series_csv(plain, [10.0, 10.5, 11.25])
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert list(read_series(bom)) == list(read_series(plain))

    @pytest.mark.parametrize(
        "stamps",
        [
            ("2020-01-01 00:00:00+00:00", "2020-01-01 00:05:00"),
            ("2020-01-01 00:00:00", "2020-01-01 00:05:00+01:00"),
        ],
    )
    def test_mixed_timezone_awareness_reports_line(self, tmp_path, stamps):
        path = tmp_path / "mixed.csv"
        first, second = stamps
        path.write_text(f"timestamp,value\n{first},1.0\n{first},1.5\n{second},2.0\n")
        with pytest.raises(DataError, match=":4.*timezone"):
            list(read_series(path))

    def test_duplicate_timestamps_accepted_in_order(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "timestamp,value\n"
            "2020-01-01 00:00:00,1.0\n"
            "2020-01-01 00:00:00,2.0\n"
        )
        assert [value for _, value in read_series(path)] == [1.0, 2.0]

    def test_irregular_cadence_warns(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "timestamp,value\n"
            "2020-01-01 00:00:00,1.0\n"
            "2020-01-01 00:05:00,2.0\n"
            "2020-01-01 00:10:00,3.0\n"
            "2020-01-01 00:25:00,4.0\n"
        )
        with pytest.warns(UserWarning, match="modal cadence"):
            list(read_series(path))


    def test_modal_cadence_after_a_leading_gap(self, tmp_path):
        path = tmp_path / "gap-first.csv"
        start = datetime(2020, 1, 1)
        stamps = [start] + [start + timedelta(hours=1, minutes=5 * k) for k in range(6)]
        path.write_text(
            "timestamp,value\n" + "".join(f"{ts.isoformat(sep=' ')},1.0\n" for ts in stamps)
        )
        with pytest.warns(UserWarning, match="1 of 6 intervals deviate from the modal cadence 0:05:00"):
            list(read_series(path))

    def test_rows_are_parsed_as_they_are_consumed(self, tmp_path):
        path = tmp_path / "late-error.csv"
        path.write_text(
            "timestamp,value\n2020-01-01 00:00:00,1.0\n2020-01-01 00:05:00,2.0\nbad,3.0\n"
        )
        observations = read_series(path)
        assert [next(observations)[1], next(observations)[1]] == [1.0, 2.0]
        with pytest.raises(DataError, match=":4: unparsable timestamp"):
            next(observations)

    def test_jittered_cadence_keeps_a_bounded_tally(self, tmp_path):
        # Every interval differs, so a tally of all intervals grows with the
        # file; the reader's peak memory must not.
        def peak(n):
            path = tmp_path / f"jitter{n}.csv"
            start = datetime(2020, 1, 1)
            with open(path, "w") as fh:
                fh.write("timestamp,value\n")
                for k in range(n):
                    ts = start + timedelta(minutes=5 * k, microseconds=k * k)
                    fh.write(f"{ts.isoformat(sep=' ')},{k % 7}.5\n")
            tracemalloc.start()
            try:
                with pytest.warns(UserWarning, match=f"{n - 2} of {n - 1} intervals deviate"):
                    for _ in read_series(path):
                        pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-call allocations
        assert peak(8000) - peak(2000) < 16 * 1024


class TestReadLabels:
    def test_shipped_labels_for_cpu_series(self):
        labels = read_labels(LABELS_PATH, CPU_B3B_KEY)
        assert len(labels) == 2

    def test_shipped_labels_for_machine_temperature_series(self):
        labels = read_labels(LABELS_PATH, MTSF_KEY)
        assert len(labels) == 3

    def test_signs_are_checked_but_only_anomalies_returned(self, tmp_path):
        path = tmp_path / "labels.json"
        entry = {"anomalies": ["2020-01-03 00:00:00"], "signs": ["2020-01-02 00:00:00"]}
        path.write_text(json.dumps({"k": entry}))
        assert read_labels(path, "k") == [datetime(2020, 1, 3)]

    def test_decreasing_signs_rejected(self, tmp_path):
        path = tmp_path / "labels.json"
        entry = {"anomalies": [], "signs": ["2020-01-02 00:00:00", "2020-01-01 00:00:00"]}
        path.write_text(json.dumps({"k": entry}))
        with pytest.raises(DataError, match="strictly increasing"):
            read_labels(path, "k")

    def test_unknown_entry_key_rejected(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"x.csv": {"anomaly": ["2020-01-01 00:00:00"]}}))
        with pytest.raises(DataError, match="unknown entry key 'anomaly'"):
            read_labels(path, "x.csv")

    def test_unknown_entry_key_beside_anomalies_rejected(self, tmp_path):
        path = tmp_path / "labels.json"
        entry = {"anomalies": ["2020-01-01 00:00:00"], "note": "checked by hand"}
        path.write_text(json.dumps({"x.csv": entry}))
        with pytest.raises(DataError, match="unknown entry key 'note'"):
            read_labels(path, "x.csv")

    def test_plain_list_mode(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(["2020-01-01 10:00:00", "2020-01-02 10:00:00"]))
        labels = read_labels(path)
        assert len(labels) == 2

    def test_empty_plain_list(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text("[]")
        labels = read_labels(path)
        assert labels == []

    def test_missing_key(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"known.csv": []}))
        with pytest.raises(DataError, match="dataset key 'unknown.csv' not found"):
            read_labels(path, "unknown.csv")

    def test_malformed_timestamp(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"k": ["yesterday"]}))
        with pytest.raises(DataError):
            read_labels(path, "k")

    def test_non_increasing_labels_rejected(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(["2020-01-02 00:00:00", "2020-01-01 00:00:00"]))
        with pytest.raises(DataError):
            read_labels(path)

    def test_repeated_label_rejected(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(["2020-01-01 00:00:00", "2020-01-01 00:00:00"]))
        with pytest.raises(OrderingError, match="repeats the previous one"):
            read_labels(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text("{nope")
        with pytest.raises(DataError):
            read_labels(path)

    def test_integer_past_the_digit_limit_anywhere_in_the_file(self, tmp_path):
        # json.load raises a plain ValueError for an int literal of more than
        # 4300 digits, under any key
        path = tmp_path / "labels.json"
        path.write_text('{"other": %s, "k": []}' % ("1" * 5000))
        with pytest.raises(DataError, match="invalid JSON"):
            read_labels(path, "k")

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text("[" * 100_000)
        with pytest.raises(DataError):
            read_labels(path)

    @pytest.mark.parametrize("entry", [20200101, 2021, None, ["2020-01-01"]])
    @pytest.mark.parametrize("layout", ["list", "entry", "anomalies", "signs"])
    def test_label_that_is_no_json_string_rejected(self, tmp_path, entry, layout):
        # 20200101 once read as 2020-01-01 00:00 through str(), while 2021 was refused
        stamps = ["2019-12-31 00:00:00", entry]
        payload = {
            "list": stamps,
            "entry": {"k": stamps},
            "anomalies": {"k": {"anomalies": stamps}},
            "signs": {"k": {"anomalies": [], "signs": stamps}},
        }[layout]
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError) as exc:
            read_labels(path, "k")
        where = {"list": path, "entry": f"{path}[k]"}.get(layout, f"{path}[k].{layout}")
        assert str(exc.value) == f"{where}: unparsable timestamp {entry!r}"

    @pytest.mark.parametrize("field", ["anomalies", "signs"])
    def test_an_entry_field_that_is_no_list_is_named(self, tmp_path, field):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"k": {"anomalies": [], field: "2020"}}))
        with pytest.raises(DataError) as exc:
            read_labels(path, "k")
        assert str(exc.value) == f"{path}[k].{field}: expected a list of timestamps, got str"

    @pytest.mark.parametrize(
        "stamps",
        [
            ["2020-01-01 00:00:00+00:00", "2020-01-02 00:00:00"],
            ["2020-01-01 00:00:00", "2020-01-02 00:00:00+01:00"],
        ],
    )
    def test_mixed_timezone_awareness(self, tmp_path, stamps):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"k": stamps}))
        with pytest.raises(DataError, match="timezone"):
            read_labels(path, "k")


# Report fields over their declared types, with the edges of float repr
# and of timestamp formatting (fixed offsets down to microseconds).
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, -5e-324, 1.7e308, 1e16, 1e-5]))
OFFSETS = st.timedeltas(
    min_value=-timedelta(hours=23, minutes=59, seconds=59, microseconds=999999),
    max_value=timedelta(hours=23, minutes=59, seconds=59, microseconds=999999),
).map(timezone)
RECORDS = st.builds(
    DetectionRecord,
    time_index=st.one_of(st.integers(0, 10**6), st.integers(0, 10**40)),
    timestamp=st.one_of(st.none(), st.datetimes(timezones=st.one_of(st.none(), OFFSETS))),
    value=FLOATS,
    predicted=st.one_of(st.none(), FLOATS),
    aare=st.one_of(st.none(), FLOATS),
    threshold=st.one_of(st.none(), FLOATS),
    phase=st.sampled_from(Phase),
    verdict=st.sampled_from(Verdict),
    retrained=st.booleans(),
    decision_time=FLOATS,
)


def sample_records():
    base = datetime(2022, 2, 2, 0, 0)
    tick = timedelta(minutes=5)
    records = []
    for k in range(10):
        phase = Phase.COLLECTING if k < 2 else (
            Phase.WARMUP if k < 5 else (Phase.BOOTSTRAP if k < 7 else Phase.DETECTING)
        )
        records.append(
            make_record(
                time_index=k,
                timestamp=base + k * tick,
                value=50.0 + k * 0.125,
                phase=phase,
                verdict=(
                    Verdict.PENDING
                    if phase is not Phase.DETECTING
                    else (Verdict.ANOMALY if k == 8 else Verdict.NORMAL)
                ),
                predicted=None if k < 3 else 50.0 + k * 0.126,
                aare=None if k < 5 else 0.01 * k,
                threshold=None if k < 7 else 0.5,
                retrained=k == 8,
                decision_time=0.001 * (k + 1),
            )
        )
    return records


class TestReport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        records = sample_records()
        write_records(records, path)
        assert read_report(path) == records

    def test_row_count(self, tmp_path):
        path = tmp_path / "report.csv"
        write_records(sample_records(), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 11  # header + one row per record

    def test_pending_rows_have_empty_score_fields(self, tmp_path):
        path = tmp_path / "report.csv"
        write_records(sample_records(), path)
        first_data_row = path.read_text().splitlines()[1].split(",")
        # predicted, aare, threshold are all undefined at t = 0
        assert first_data_row[3] == "" and first_data_row[4] == "" and first_data_row[5] == ""
        assert first_data_row[7] == "pending"

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DataError):
            read_report(path)

    def test_unparsable_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "report.csv"
        write_records(sample_records()[:3], path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split(",")[1], " noon ")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            read_report(path)
        assert str(exc.value) == f"{path}:3: unparsable timestamp ' noon '"

    @pytest.mark.parametrize(
        "column, cell", [("value", "nan"), ("predicted", "inf"), ("aare", "-1e999"), ("threshold", "-Infinity")]
    )
    def test_non_finite_number_rejected(self, tmp_path, column, cell):
        # detect never writes one; only decision_time_s is left to summarize_run
        path = tmp_path / "report.csv"
        write_records(sample_records(), path)
        lines = path.read_text().splitlines()
        row = lines[9].split(",")  # a detecting row, every number column filled
        row[REPORT_COLUMNS.index(column)] = cell
        lines[9] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            read_report(path)
        assert str(exc.value) == f"{path}:10: non-finite {column} {float(cell)}"

    @pytest.mark.parametrize("cell", ["yes", "True", "1", ""])
    def test_retrained_other_than_true_or_false_rejected(self, tmp_path, cell):
        path = tmp_path / "report.csv"
        write_records(sample_records()[:3], path)
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[8] = cell
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            read_report(path)
        assert str(exc.value) == f"{path}:4: retrained must be true or false, got {cell!r}"

    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(RECORDS, max_size=6))
    def test_bytes_equal_the_csv_writer_reference(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.csv"
            write_records(records, path)
            assert path.read_bytes() == reference_report_bytes(records)


class TestSummary:
    def test_retraining_ratio_denominator(self):
        records = [
            make_record(k, retrained=(k < 38), decision_time=0.002, phase=_phase_of(k, 3))
            for k in range(4032)
        ]
        summary = summarize_run(records)
        assert summary.retrain_count == 38
        assert summary.eligible_points == 4027
        assert summary.retraining_ratio == pytest.approx(38 / 4027)
        assert summary.retraining_ratio == pytest.approx(0.0094, abs=5e-4)

    def test_anomaly_events_collected(self):
        base = datetime(2022, 1, 1)
        records = [
            make_record(
                k,
                timestamp=base + k * timedelta(minutes=5),
                verdict=Verdict.ANOMALY if k in (7, 9) else Verdict.NORMAL,
            )
            for k in range(12)
        ]
        summary = summarize_run(records)
        assert [record.time_index for record in summary.anomalies] == [7, 9]

    def test_short_run_reports_zero_ratio(self):
        records = [make_record(k, phase=Phase.COLLECTING, verdict=Verdict.PENDING) for k in range(3)]
        summary = summarize_run(records)
        assert summary.retraining_ratio == 0.0
        assert summary.eligible_points == 0

    def test_json_shape(self, tmp_path):
        summary = summarize_run(sample_records())
        path = tmp_path / "summary.json"
        write_summary(summary, DetectorConfig(), 7, path)  # the seed the engine ran with
        payload = json.loads(path.read_text())
        assert payload["config"] == {
            "look_back": 3,
            "predict_forward": 1,
            "seed": 7,
            "epsilon": 1e-8,
        }
        assert payload["total_points"] == 10
        assert payload["anomalies"][0]["index"] == 8

    @pytest.mark.parametrize("epsilon", [np.float32(1e-6), Fraction(1, 10**6)])
    def test_any_real_epsilon_the_config_takes_is_written_as_a_float(self, tmp_path, epsilon):
        path = tmp_path / "summary.json"
        write_summary(summarize_run(sample_records()), DetectorConfig(epsilon=epsilon), 42, path)
        assert json.loads(path.read_text())["config"]["epsilon"] == float(epsilon)


READERS = {
    "series": lambda path: list(read_series(path)),
    "labels": lambda path: read_labels(path, "k"),
    "report": read_report,
}


class TestMalformedInput:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_bytes_that_are_not_utf8(self, tmp_path, reader):
        path = tmp_path / "latin1.txt"
        path.write_bytes("timestamp,value\n2020-01-01 00:00:00,1.0 \u00b0C\n".encode("latin-1"))
        with pytest.raises(DataError, match="UTF-8"):
            READERS[reader](path)

    @pytest.mark.parametrize("reader", ["series", "report"])
    def test_field_past_the_csv_size_limit(self, tmp_path, reader):
        header = ",".join(REPORT_COLUMNS) if reader == "report" else "timestamp,value"
        path = tmp_path / "wide.csv"
        path.write_text(f"{header}\n" + "9" * 200_000 + ",1.0\n")
        with pytest.raises(DataError):
            READERS[reader](path)


# Fragments that reach past each reader's first checks: well-formed and
# broken timestamps (naive and with offsets), numbers, and stray bytes.
STAMPS = st.sampled_from(
    [
        "2020-01-01 00:00:00",
        "2020-01-01 00:05:00",
        "2020-01-01 00:05:00+00:00",
        "2020-01-01 00:10:00+05:30",
        "0001-01-01 00:00:00+23:59",
        "9999-12-31 23:59:59-23:59",
        "2020-13-01 00:00:00",
        "",
    ]
)
CELLS = st.one_of(
    STAMPS,
    st.sampled_from(["1.0", "-2.5e3", "nan", "inf", "1e999", "true", "false", "7"]),
    st.sampled_from([p.value for p in Phase] + [v.value for v in Verdict]),
    st.text(max_size=8),
)
TAILS = st.sampled_from([b"", b"\xff", b"\xc3", b"\x00", b"\r", b'"'])


def _fuzz_file(data: bytes, suffix: str) -> Path:
    handle = tempfile.NamedTemporaryFile(suffix=suffix, delete=False)
    with handle:
        handle.write(data)
    return Path(handle.name)


def _parses_or_data_error(read, data: bytes, suffix: str):
    path = _fuzz_file(data, suffix)
    try:
        read(path)
    except DataError:
        pass
    finally:
        path.unlink()


class TestReaderFuzz:
    """Every input either parses or raises ``DataError``."""

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from(["timestamp,value", "value,timestamp", "Timestamp,Value,x", "t,v"]),
        rows=st.lists(st.lists(CELLS, min_size=1, max_size=3), max_size=6),
        tail=TAILS,
    )
    def test_read_series(self, header, rows, tail):
        text = "\n".join([header] + [",".join(row) for row in rows])
        _parses_or_data_error(READERS["series"], text.encode() + tail, ".csv")

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.one_of(
                st.tuples(st.integers(-3, 30).map(str), STAMPS, *[CELLS] * 8).map(list),
                st.lists(CELLS, max_size=12),
            ),
            max_size=5,
        ),
        tail=TAILS,
    )
    def test_read_report(self, rows, tail):
        text = "\n".join([",".join(REPORT_COLUMNS)] + [",".join(row) for row in rows])
        _parses_or_data_error(read_report, text.encode() + tail, ".csv")

    @settings(max_examples=300, deadline=None)
    @given(
        payload=st.recursive(
            st.one_of(STAMPS, st.none(), st.booleans(), st.integers(), st.floats()),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.dictionaries(st.sampled_from(["k", "anomalies", "signs", "x"]), inner, max_size=3),
            ),
            max_leaves=10,
        ),
        tail=TAILS,
    )
    def test_read_labels(self, payload, tail):
        data = json.dumps(payload).encode() + tail
        path = _fuzz_file(data, ".json")
        try:
            read_labels(path, "k")
        except DataError as exc:
            if "not found" in str(exc) or "pass --dataset-key" in str(exc):
                # a well-formed map that merely lacks the requested key
                assert isinstance(payload, dict) and "k" not in payload
        finally:
            path.unlink()
