"""CSV ingestion/serialization, run manifests and the JSON artifact envelope."""

import csv
import io
import json

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faultcast.io
import oracles

from conftest import csv_text
from faultcast.baseline import BaselineModel, UnivariateBaseline
from faultcast.core import (
    NORMAL_CLASS,
    CsvParseError,
    DuplicateSampleError,
    FaultType,
    KpiId,
    SchemaVersionError,
    TimeSeries,
    format_timestamp,
    parse_timestamp,
)
from faultcast.evaluate import SuiteConfig
from faultcast.io import (
    CSV_HEADER,
    MAX_CSV_TIMESTAMP,
    MIN_CSV_TIMESTAMP,
    InjectedFault,
    RunManifest,
    ingest_csv,
    write_csv,
)
from faultcast.signature import SignatureModel, Vocabulary, train_signature
from faultcast.sim import WorkloadModel, default_topology, gen_run, load_scenario


HEADER = "timestamp,resource,metric,value\n"


def test_ingest_single_row():
    text = HEADER + "2016-12-20T22:22:35Z,Homer,BytesSentPerSec,101376\n"
    series_map = ingest_csv(io.StringIO(text))
    kpi = KpiId("Homer", "BytesSentPerSec")
    assert set(series_map) == {kpi}
    series = series_map[kpi]
    assert series.timestamps.tolist() == [parse_timestamp("2016-12-20T22:22:35Z")]
    assert series.values.tolist() == [101376.0]


def test_round_trip_is_byte_stable():
    kpi_a = KpiId("Homer", "CpuIdlePct")
    kpi_b = KpiId("Sprout", "MemUsedPct")
    series_map = {
        kpi_a: TimeSeries(kpi_a, [0, 60, 120], [99.5, 98.25, 97.125]),
        kpi_b: TimeSeries(kpi_b, [0, 60], [10.1, 10.2]),
    }
    text = csv_text(series_map)
    again = ingest_csv(io.StringIO(text))
    assert set(again) == set(series_map)
    for kpi in series_map:
        assert again[kpi].timestamps.tolist() == series_map[kpi].timestamps.tolist()
        assert again[kpi].values.tolist() == series_map[kpi].values.tolist()
    assert csv_text(again) == text


def test_ingest_sorts_out_of_order_rows():
    text = (
        HEADER
        + "1970-01-01T00:02:00Z,Homer,CpuIdlePct,2\n"
        + "1970-01-01T00:00:00Z,Homer,CpuIdlePct,0\n"
        + "1970-01-01T00:01:00Z,Homer,CpuIdlePct,1\n"
    )
    series = ingest_csv(io.StringIO(text))[KpiId("Homer", "CpuIdlePct")]
    assert series.timestamps.tolist() == [0, 60, 120]
    assert series.values.tolist() == [0.0, 1.0, 2.0]


def test_ingest_rejects_bad_header():
    with pytest.raises(CsvParseError) as exc:
        ingest_csv(io.StringIO("time,resource,metric,value\n"))
    assert exc.value.line_no == 1


def test_ingest_rejects_malformed_rows_with_line_numbers():
    cases = [
        ("1970-01-01T00:00:00Z,Homer,CpuIdlePct\n", "expected 4 fields"),
        ("yesterday,Homer,CpuIdlePct,5\n", "bad timestamp"),
        ("1970-01-01T00:00:00Z,Homer,CpuIdlePct,five\n", "bad value"),
        ("1970-01-01T00:00:00Z,Homer,CpuIdlePct,nan\n", "non-finite"),
        ("1970-01-01T00:00:00Z,,CpuIdlePct,5\n", "non-empty"),
    ]
    for row, fragment in cases:
        with pytest.raises(CsvParseError) as exc:
            ingest_csv(io.StringIO(HEADER + row))
        assert exc.value.line_no == 2, f"wrong line for {row!r}"
        assert fragment in str(exc.value)


def test_ingest_rejects_duplicate_samples():
    text = (
        HEADER
        + "1970-01-01T00:00:00Z,Homer,CpuIdlePct,5\n"
        + "1970-01-01T00:00:00Z,Homer,CpuIdlePct,6\n"
    )
    with pytest.raises(DuplicateSampleError):
        ingest_csv(io.StringIO(text))


def test_ingest_empty_body_gives_empty_map():
    assert ingest_csv(io.StringIO(HEADER)) == {}


def test_write_csv_to_path(tmp_path):
    kpi = KpiId("Homer", "CpuIdlePct")
    series_map = {kpi: TimeSeries(kpi, [0], [1.0])}
    path = tmp_path / "out.csv"
    write_csv(series_map, path)
    assert path.read_text() == HEADER + "1970-01-01T00:00:00Z,Homer,CpuIdlePct,1.0\n"


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        run_id="run-1",
        start=1000,
        end=4000,
        fault=InjectedFault(FaultType.MEMORY_LEAK, "Sprout", "Constant", 1600),
        failure_time=3300,
    )
    path = tmp_path / "manifest.json"
    manifest.save(path)
    again = RunManifest.load(path)
    assert again == manifest
    # fault-free manifests round trip their None fields
    clean = RunManifest(run_id="run-2", start=0, end=600)
    clean.save(path)
    assert RunManifest.load(path) == clean


def test_manifest_rejects_wrong_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "something-else", "schema_version": 1}')
    with pytest.raises(SchemaVersionError):
        RunManifest.load(path)


def tiny_baseline() -> dict:
    kpi = KpiId("Homer", "CpuIdlePct")
    flat = UnivariateBaseline(kpi, np.zeros(168), np.ones(168), 3.0, 1e-12, 0.0, 1.0)
    return BaselineModel({kpi: flat}, ()).to_dict()


def tiny_signature() -> dict:
    vocab = Vocabulary([KpiId("Homer", "CpuIdlePct")])
    return train_signature(oracles.pool_of([(0, 600, frozenset(), NORMAL_CLASS)]), vocab).to_dict()


def tiny_scenario() -> dict:
    return {
        "kind": "faultcast-scenario",
        "schema_version": 1,
        "run_id": "tiny",
        "start": "2026-01-05T00:00:00Z",
        "duration_min": 10,
        "seed": 1,
    }


#: format -> (loader, a valid document, one key the loader requires)
JSON_ARTIFACTS = {
    "baseline": (BaselineModel.load, tiny_baseline, "config"),
    "signature": (SignatureModel.load, tiny_signature, "classes"),
    "suite": (SuiteConfig.load, lambda: SuiteConfig().to_dict(), "training_start"),
    "manifest": (RunManifest.load, lambda: RunManifest("run-1", 0, 600).to_dict(), "run_id"),
    "scenario": (load_scenario, tiny_scenario, "duration_min"),
}


@pytest.mark.parametrize("fmt", sorted(JSON_ARTIFACTS))
def test_json_artifacts_reject_malformed_files(tmp_path, fmt):
    load, make, required = JSON_ARTIFACTS[fmt]
    good = make()
    path = tmp_path / f"{fmt}.json"
    path.write_text(json.dumps(good), encoding="utf-8")
    load(path)
    for foreign in ({**good, "kind": "something-else"}, {**good, "schema_version": 99}, [good]):
        path.write_text(json.dumps(foreign), encoding="utf-8")
        with pytest.raises(SchemaVersionError):
            load(path)
    del good[required]
    path.write_text(json.dumps(good), encoding="utf-8")
    with pytest.raises(ValueError, match=f"{fmt}.json.*{required}"):
        load(path)


def test_manifest_validation():
    with pytest.raises(ValueError):
        RunManifest(run_id="x", start=100, end=100)
    with pytest.raises(ValueError):
        RunManifest(run_id="", start=0, end=10)


def test_write_csv_timestamp_range_edges():
    kpi = KpiId("Homer", "CpuIdlePct")
    inside = {kpi: TimeSeries(kpi, [MIN_CSV_TIMESTAMP, MAX_CSV_TIMESTAMP], [1.0, 2.0])}
    text = csv_text(inside)
    assert text.splitlines()[1:] == [
        "1000-01-01T00:00:00Z,Homer,CpuIdlePct,1.0",
        "9999-12-31T23:59:59Z,Homer,CpuIdlePct,2.0",
    ]
    assert ingest_csv(io.StringIO(text)) == inside
    for outside in ([MIN_CSV_TIMESTAMP - 1, 0], [0, MAX_CSV_TIMESTAMP + 1], [-62101036800, 0]):
        other = KpiId("Sprout", "MemUsedPct")
        series_map = {**inside, other: TimeSeries(other, outside, [1.0, 2.0])}
        buf = io.StringIO()
        with pytest.raises(ValueError, match="Sprout/MemUsedPct"):
            write_csv(series_map, buf)
        assert buf.getvalue() == "", "nothing is written for a rejected map"


# ---------------------------------------------------------------------------
# the array-shaped reader and writer against the row-at-a-time oracles

NAME = st.text(alphabet='ab Z"\'é;\t', min_size=1, max_size=6)
VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e-300, 123456789.125]
    ),
)


@st.composite
def series_maps(draw, max_kpis=4, max_len=8, names=NAME):
    kpis = draw(st.lists(st.builds(KpiId, names, names), min_size=1, max_size=max_kpis, unique=True))
    out = {}
    for kpi in kpis:
        stamps = draw(
            st.lists(
                st.integers(MIN_CSV_TIMESTAMP, MAX_CSV_TIMESTAMP) | st.integers(0, 600),
                min_size=1,
                max_size=max_len,
                unique=True,
            )
        )
        values = draw(st.lists(VALUE, min_size=len(stamps), max_size=len(stamps)))
        out[kpi] = TimeSeries(kpi, sorted(stamps), values)
    return out


def reference_text(series_map):
    buf = io.StringIO()
    oracles.write_csv_rows(series_map, buf)
    return buf.getvalue()


def outcome(reader, text, newline=""):
    """The (KPI, series) pairs a reader returns in order, or the type, line
    and message it raises.  ``newline`` is the stream's, as for ``open``."""
    try:
        return list(reader(io.StringIO(text, newline=newline)).items())
    except CsvParseError as exc:
        return type(exc), exc.line_no, str(exc)


def in_blocks(block_chars):
    """``ingest_csv`` reading blocks of about ``block_chars`` characters:
    small blocks put block boundaries between every few lines, and batch
    boundaries between every few rows from ``csv.reader``."""

    def read(stream):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(faultcast.io, "_BLOCK_CHARS", block_chars)
            patch.setattr(faultcast.io, "_BATCH_ROWS", 1 + block_chars // 50)
            return ingest_csv(stream)

    return read


#: one line to a few lines per block
BLOCK_CHARS = st.integers(1, 200)


def same_outcome(text, block_chars, newline=""):
    expected = outcome(oracles.ingest_csv_rows, text, newline)
    assert outcome(in_blocks(block_chars), text, newline) == expected
    return expected


@settings(max_examples=60, deadline=None)
@given(series_maps())
def test_writer_bytes_match_row_at_a_time_oracle(series_map):
    assert csv_text(series_map) == reference_text(series_map)


@settings(max_examples=60, deadline=None)
@given(series_maps(), st.randoms(use_true_random=False), BLOCK_CHARS)
def test_shuffled_rows_ingest_to_an_equal_map(series_map, rnd, block_chars):
    header, *body = reference_text(series_map).splitlines(keepends=True)
    rnd.shuffle(body)
    text = header + "".join(body)
    assert ingest_csv(io.StringIO(text)) == series_map
    assert dict(same_outcome(text, block_chars)) == series_map


BAD_FIELDS = st.sampled_from(
    [
        ("timestamp", "2016-13-01T00:00:00Z"),
        ("timestamp", "2-02-05T00:00:00Z"),
        ("timestamp", "2016-1-5T1:2:3Z"),  # strptime takes one-digit fields
        ("timestamp", "2016-01-05 00:00:00Z"),
        ("timestamp", ""),
        ("resource", ""),
        ("metric", ""),
        ("value", "five"),
        ("value", "nan"),
        ("value", "-inf"),
        ("value", " 7 "),
        ("value", "1_0"),
        ("value", "1\n2"),  # a quoted newline: one row over two physical lines
        ("fields", None),
        ("shift", None),  # a row's last field moved to the next row: 5 fields, then 3
        ("duplicate", None),
        ("blank", None),
    ]
)


@settings(max_examples=120, deadline=None)
@given(
    series_maps(max_kpis=3, max_len=5),
    st.lists(st.tuples(st.integers(0, 10**6), BAD_FIELDS), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
    BLOCK_CHARS,
)
def test_malformed_input_fails_like_the_oracle(series_map, damage, rnd, block_chars):
    header, *body = reference_text(series_map).splitlines(keepends=True)
    rnd.shuffle(body)
    rows = list(csv.reader(body))
    for where, (part, text) in damage:
        i = where % len(rows)
        if part == "fields":
            rows[i] = rows[i][:3]
        elif part == "shift":
            if i + 1 < len(rows) and rows[i + 1]:
                rows[i], rows[i + 1] = rows[i] + rows[i + 1][:1], rows[i + 1][1:]
        elif part == "duplicate":
            rows.insert(i, rows[(where // 7) % len(rows)][:3] + ["1.5"])
        elif part == "blank":
            rows.insert(i, [])
        else:
            rows[i] = (rows[i] + [""] * 4)[:4]
            rows[i][CSV_HEADER.index(part)] = text
    buf = io.StringIO(header)
    buf.seek(0, io.SEEK_END)
    csv.writer(buf, lineterminator="\n").writerows(rows)
    same_outcome(buf.getvalue(), block_chars)


@settings(max_examples=60, deadline=None)
@given(
    series_maps(),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
    BLOCK_CHARS,
)
def test_duplicates_fail_like_the_oracle(series_map, copies, rnd, block_chars):
    header, *body = reference_text(series_map).splitlines(keepends=True)
    body += [body[i % len(body)] for i in copies]
    rnd.shuffle(body)
    assert same_outcome(header + "".join(body), block_chars)[0] is DuplicateSampleError


# names without a quote, so that the reader's first quote is the one a test puts in
PLAIN_NAME = st.text(alphabet="ab Zé;\t", min_size=1, max_size=6)


def plain_body(series_map, rnd):
    """The header and the shuffled body lines of a map's CSV."""
    header, *body = reference_text(series_map).splitlines(keepends=True)
    rnd.shuffle(body)
    return header, body


@settings(max_examples=80, deadline=None)
@given(
    series_maps(names=PLAIN_NAME),
    st.randoms(use_true_random=False),
    BLOCK_CHARS,
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
    st.sampled_from(["", "\n", None]),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3)), max_size=2),
)
def test_line_endings_read_like_the_oracle(series_map, rnd, block_chars, endings, newline, strays):
    """CR and CRLF endings, mixed, and a stray CR at the start of a field
    (``float`` would take ``"\\r1"``, csv.reader ends the row there)."""
    header, body = plain_body(series_map, rnd)
    for where, field in strays:
        i = where % len(body)
        cut = ([0] + [k + 1 for k, ch in enumerate(body[i]) if ch == ","])[field]
        body[i] = body[i][:cut] + "\r" + body[i][cut:]
    lines = [header] + body
    text = "".join(line[:-1] + endings[i % len(endings)] for i, line in enumerate(lines))
    result = same_outcome(text, block_chars, newline)
    if not strays and (endings == ["\r\n"] or newline is None):
        assert dict(result) == series_map


@pytest.mark.parametrize(
    "body, expected",
    [
        # split on commas, these rows read as two good ones
        (
            "1970-01-01T00:00:00Z,Homer,CpuIdlePct,1,1970-01-01T00:01:00Z\nHomer,CpuIdlePct,2\n",
            (CsvParseError, 2, "line 2: expected 4 fields, got 5"),
        ),
        # float takes "\r1", csv.reader ends the row at the CR and fails
        ("1970-01-01T00:00:00Z,Homer,CpuIdlePct,\r1\n", (CsvParseError, 2, "line 2: new-line character seen")),
    ],
    ids=["five-then-three-fields", "cr-before-a-value"],
)
def test_rows_that_split_like_good_ones_fail_like_the_oracle(body, expected):
    result = same_outcome(HEADER + body, 1 << 16, newline="\n")
    assert result[: len(expected) - 1] == expected[:-1] and result[-1].startswith(expected[-1])


@settings(max_examples=60, deadline=None)
@given(
    series_maps(names=PLAIN_NAME),
    st.randoms(use_true_random=False),
    BLOCK_CHARS,
    st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["\n", "\r\n"])), min_size=1, max_size=6),
    st.booleans(),
    st.sampled_from(["\n", "\r\n"]),
)
def test_blank_lines_are_skipped_but_counted(series_map, rnd, block_chars, blanks, duplicate, ending):
    """Blank lines, LF or CRLF, hold no row but keep their line numbers, so a
    later duplicate is reported at its own line."""
    header, body = plain_body(series_map, rnd)
    body = [line[:-1] + ending for line in body]
    for where, blank in blanks:
        body.insert(where % (len(body) + 1), blank)
    if duplicate:
        body.append(next(line for line in body if line not in ("\n", "\r\n")))
    result = same_outcome(header + "".join(body), block_chars)
    if duplicate:
        assert result[:2] == (DuplicateSampleError, len(body) + 1)
    else:
        assert dict(result) == series_map


@settings(max_examples=60, deadline=None)
@given(series_maps(names=PLAIN_NAME), st.randoms(use_true_random=False), BLOCK_CHARS, st.integers(0, 10**6))
def test_a_nul_in_a_name_reads_like_the_oracle(series_map, rnd, block_chars, where):
    header, body = plain_body(series_map, rnd)
    i = where % len(body)
    comma = body[i].index(",")
    body[i] = body[i][: comma + 1] + "\0" + body[i][comma + 1 :]
    same_outcome(header + "".join(body), block_chars)


@settings(max_examples=60, deadline=None)
@given(series_maps(names=PLAIN_NAME), st.randoms(use_true_random=False), BLOCK_CHARS)
def test_no_final_newline_reads_like_the_oracle(series_map, rnd, block_chars):
    header, body = plain_body(series_map, rnd)
    text = (header + "".join(body))[:-1]
    assert dict(same_outcome(text, block_chars)) == series_map


@settings(max_examples=80, deadline=None)
@given(
    series_maps(max_len=12, names=PLAIN_NAME),
    st.randoms(use_true_random=False),
    BLOCK_CHARS,
    st.integers(0, 10**6),
    st.sampled_from(['"{}"', '"{}\n"', '"\n{}"', '"{}""x"']),
)
def test_a_late_quote_reads_like_the_oracle(series_map, rnd, block_chars, where, quoted):
    """The first quote comes after the first block; a quoted newline makes
    one record of two lines, which may straddle a block boundary."""
    header, body = plain_body(series_map, rnd)
    i = len(body) // 2 + where % (len(body) - len(body) // 2)
    ts, rest = body[i].split(",", 1)
    body[i] = quoted.format(ts) + "," + rest
    same_outcome(header + "".join(body), block_chars)


@settings(max_examples=60, deadline=None)
@given(
    series_maps(names=PLAIN_NAME),
    st.randoms(use_true_random=False),
    BLOCK_CHARS,
    st.integers(1, 60),
)
def test_fields_over_the_size_limit_fail_like_the_oracle(series_map, rnd, block_chars, limit):
    header, body = plain_body(series_map, rnd)
    text = header + "".join(body)
    old = csv.field_size_limit(limit)
    try:
        same_outcome(text, block_chars)
    finally:
        csv.field_size_limit(old)


def test_a_field_over_the_default_size_limit_fails_like_the_oracle():
    limit = csv.field_size_limit()
    rows = [HEADER, "1970-01-01T00:00:00Z,Homer,CpuIdlePct,1\n"]
    rows.append("1970-01-01T00:01:00Z,Homer," + "m" * (limit + 1) + ",2\n")
    result = same_outcome("".join(rows), 1 << 16)
    assert result == (CsvParseError, 3, f"line 3: field larger than field limit ({limit})")


@pytest.mark.parametrize("first", ["bad-value", "over-the-limit"])
def test_a_batch_raises_its_first_error_first(first):
    """A bad row and a record csv.reader cannot split, in one batch of rows:
    the error of the earlier line is raised."""
    bad = "1970-01-01T00:01:00Z,Homer,CpuIdlePct,five\n"
    over = "1970-01-01T00:02:00Z,Homer," + "m" * (csv.field_size_limit() + 1) + ",2\n"
    body = [bad, over] if first == "bad-value" else [over, bad]
    result = same_outcome(HEADER + "1970-01-01T00:00:00Z,Homer,CpuIdlePct,1\n" + "".join(body), 1 << 16)
    assert result[:2] == (CsvParseError, 3)


# ---------------------------------------------------------------------------
# timestamp texts and line endings on the column path


@st.composite
def timestamp_texts(draw):
    """Canonical texts, and near misses: fields out of range or unpadded,
    other separators, a missing or lower-case Z, years below 1000."""
    fields = [
        draw(st.integers(0, 9999)),
        draw(st.integers(0, 13)),
        draw(st.integers(0, 32)),
        draw(st.integers(0, 25)),
        draw(st.integers(0, 61)),
        draw(st.integers(0, 62)),
    ]
    widths = [4, 2, 2, 2, 2, 2]
    if draw(st.booleans()):
        widths[draw(st.integers(0, 5))] = 1
    y, mo, d, h, mi, s = (f"{v:0{w}d}" for v, w in zip(fields, widths))
    sep = draw(st.sampled_from(["T", "T", "T", " ", "t"]))
    suffix = draw(st.sampled_from(["Z", "Z", "Z", "z", "", "Z "]))
    return f"{y}-{mo}-{d}{sep}{h}:{mi}:{s}{suffix}"


TIMESTAMP_TEXT = st.one_of(
    st.integers(MIN_CSV_TIMESTAMP, MAX_CSV_TIMESTAMP).map(format_timestamp),
    timestamp_texts(),
    st.text(alphabet="0123456789-T:Z ٣", max_size=21),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(TIMESTAMP_TEXT, min_size=1, max_size=8))
def test_timestamp_batches_parse_like_parse_timestamp(texts):
    def one(text):
        try:
            return parse_timestamp(text)
        except ValueError:
            return None

    expected = [one(text) for text in texts]
    valid = [text for text, ts in zip(texts, expected) if ts is not None]
    assert faultcast.io._parse_timestamps(valid) == [ts for ts in expected if ts is not None]
    for text, ts in zip(texts, expected):
        if ts is None:
            with pytest.raises(ValueError):
                faultcast.io._parse_timestamps(valid + [text])


@pytest.mark.parametrize(
    "damage",
    [None, ("value", "five"), ("timestamp", "2026-02-30T00:00:00Z"), ("timestamp", "2026-1-5T1:2:3Z"), "duplicate"],
)
def test_a_crlf_copy_of_a_simulated_csv_reads_alike(damage):
    """CRLF blocks take the column path: the same series, or the same error
    at the same line, as the LF original and the row-at-a-time oracle."""
    series_map, _ = gen_run(default_topology(), WorkloadModel(), None, 0, 3600, seed=3)
    header, *body = csv_text(series_map).splitlines(keepends=True)
    i = len(body) * 2 // 3
    if damage == "duplicate":
        body.append(body[i])
    elif damage is not None:
        row = body[i].rstrip("\n").split(",")
        row[CSV_HEADER.index(damage[0])] = damage[1]
        body[i] = ",".join(row) + "\n"
    text = header + "".join(body)
    crlf = text.replace("\n", "\r\n")
    expected = outcome(ingest_csv, text)
    assert outcome(ingest_csv, crlf) == expected
    assert outcome(oracles.ingest_csv_rows, crlf) == expected
    if damage is None:
        assert dict(expected) == series_map
    elif damage[1] == "2026-1-5T1:2:3Z":  # strptime's leniency stays
        assert dict(expected)[KpiId(*body[i].split(",")[1:3])].timestamps[-1] == parse_timestamp(damage[1])
    else:
        assert expected[1] == (len(body) + 1 if damage == "duplicate" else i + 2)

