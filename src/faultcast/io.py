"""File formats: the KPI sample CSV, the JSON run manifest, and the envelope
every JSON artifact shares."""

from __future__ import annotations

import csv
import io
import json
import math
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain, repeat
from typing import Dict, Iterator, List, Optional, TextIO, Union

import numpy as np

from .core import (
    CsvParseError,
    DuplicateSampleError,
    FaultType,
    KpiId,
    SchemaVersionError,
    TimeSeries,
    format_timestamp,
    parse_timestamp,
)

CSV_HEADER = ["timestamp", "resource", "metric", "value"]

#: Timestamps the CSV can carry: years 1000-9999, which the reader's
#: four-digit ``%Y`` accepts (1000-01-01T00:00:00Z .. 9999-12-31T23:59:59Z).
MIN_CSV_TIMESTAMP = -30610224000
MAX_CSV_TIMESTAMP = 253402300799

MANIFEST_KIND = "faultcast-run-manifest"
MANIFEST_SCHEMA_VERSION = 1


@contextmanager
def _open_text(path_or_stream, mode: str) -> Iterator[TextIO]:
    """A path opened as UTF-8 text and closed on exit, or a caller's own
    stream passed through and left open."""
    if isinstance(path_or_stream, (str, os.PathLike)):
        with open(path_or_stream, mode, encoding="utf-8", newline="") as stream:
            yield stream
    else:
        yield path_or_stream


#: Characters of CSV body read per block.  Larger blocks save little time
#: and raise peak memory.
_BLOCK_CHARS = 1 << 16

#: Rows from :func:`csv.reader` checked at once, about a block's worth.
_BATCH_ROWS = 1 << 10


def ingest_csv(source: Union[str, os.PathLike, TextIO]) -> Dict[KpiId, TimeSeries]:
    """Read a KPI sample CSV into a map KpiId -> TimeSeries.

    The header must be exactly ``timestamp,resource,metric,value``.  Rows may
    arrive in any order; samples are sorted per KPI.  Malformed rows raise
    :class:`CsvParseError` (:func:`read_rows`), a non-finite value too; a
    repeated (timestamp, KPI) pair raises :class:`DuplicateSampleError`.
    """
    return read_rows(source, CSV_HEADER, _finite_values, "d").series_map()


def read_rows(source: Union[str, os.PathLike, TextIO], header: List[str], parse, types: str) -> "_Columns":
    """Read a CSV whose header is exactly ``header`` and whose rows are
    ``timestamp,resource,metric`` then one field per typecode of ``types``,
    typed by ``parse``, into :class:`_Columns`.  A malformed row raises
    :class:`CsvParseError` with its line number: a row of another width, a
    bad timestamp or KPI, a field ``parse`` rejects, or a record
    :func:`csv.reader` cannot split, such as a field over
    ``csv.field_size_limit()``.  Blank lines hold no row but are counted.

    The body is read in blocks of lines.  A block without ``"``, NUL, a CR
    but in CRLF line endings or a line longer than the field size limit,
    whose every line holds a row's commas, splits on commas exactly as
    :func:`csv.reader` would.  Any other block goes through
    :func:`csv.reader`, and so does everything from the first ``"`` on, since
    a quoted field may span lines.  Either way rows are checked column by
    column, and a batch that fails a check is checked again row by row,
    which raises the first error in row order.
    """
    with _open_text(source, "r") as stream:
        try:
            found = next(csv.reader(stream), None)
        except csv.Error as exc:
            raise CsvParseError(1, str(exc)) from None
        if found != header:
            raise CsvParseError(1, f"expected header {','.join(header)!r}, got {found!r}")
        columns = _Columns(parse, types)
        limit = csv.field_size_limit()
        line_no = 2
        while block := stream.readlines(_BLOCK_CHARS):
            text = "".join(block)
            if '"' in text:
                columns.add_rows(csv.reader(chain(block, stream)), line_no)
                break
            # a CR that ends a CRLF line ending reads as a LF in csv.reader
            stray_cr = "\r" in text and text.count("\r") != text.count("\r\n")
            # a blank line holds no comma
            widths = list(map(str.count, block, repeat(","))).count(columns.width - 1)
            if stray_cr or "\0" in text or max(map(len, block)) > limit or widths != len(block):
                columns.add_rows(csv.reader(block), line_no)
            else:
                fields = text.replace("\r\n", ",").replace("\n", ",").split(",")
                columns.add(fields, range(line_no, line_no + len(block)))
            # outside quotes every line is one record
            line_no += len(block)
    return columns


def _finite_values(texts: List[str]):
    """The value column of KPI CSV rows, as floats.  A text that is not a
    finite number raises :class:`ValueError`; its message names the first
    text, the row's own when the column holds one row."""
    try:
        values = list(map(float, texts))
    except ValueError:
        raise ValueError(f"bad value {texts[0]!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite value {texts[0]!r}")
    return (values,)


def _parse_timestamps(texts: List[str]) -> List[int]:
    """:func:`parse_timestamp` of each text.

    Canonical texts, ``YYYY-MM-DDTHH:MM:SSZ`` with a year from 1000, are
    parsed by one numpy call, and a result is kept only if it renders back to
    its text.  Every other text, and every text of a batch numpy rejects, goes
    through :func:`parse_timestamp`, which keeps strptime's leniency and errors.
    """
    canonical = [
        i for i, text in enumerate(texts) if len(text) == 20 and text[19] == "Z" and "1" <= text[0] <= "9"
    ]
    heads = np.array([texts[i][:19] for i in canonical], dtype="U19")
    found = {}
    try:
        parsed = heads.astype("datetime64[s]")
    except ValueError:  # a field out of range: parse_timestamp raises its error
        pass
    else:
        exact = np.datetime_as_string(parsed, unit="s") == heads
        found = {i: ts for i, ts, ok in zip(canonical, parsed.astype(np.int64).tolist(), exact.tolist()) if ok}
    return [found[i] if i in found else parse_timestamp(text) for i, text in enumerate(texts)]


class _Columns:
    """The rows of one CSV body as typed ``columns``: line numbers,
    timestamps, numbers into ``kpis``, then the fields after
    ``timestamp,resource,metric`` as ``parse`` types them, in arrays of the
    typecodes in ``types``.  Like ``parse``, each column check raises
    :class:`ValueError` naming its first bad text, the row's own when it
    checks one row.  A file repeats few distinct timestamps and KPIs over
    many rows, so each distinct text is parsed and validated once."""

    def __init__(self, parse, types: str):
        self.parse, self.width = parse, 3 + len(types)
        self.ts_memo: Dict[str, int] = {}
        # resource -> metric -> KPI number: no (resource, metric) tuple a row
        self.kpi_memo: Dict[str, Dict[str, int]] = {}
        self.kpis: List[KpiId] = []
        # typed columns hold 8 bytes a row, not a Python object each
        self.columns = [array("q"), array("q"), array("q")] + [array(code) for code in types]

    def _timestamps(self, texts: List[str]) -> List[int]:
        """Epoch seconds of each text, parsing only texts not seen before."""
        try:
            return list(map(self.ts_memo.__getitem__, texts))
        except KeyError:
            new = [text for text in dict.fromkeys(texts) if text not in self.ts_memo]
            try:
                self.ts_memo.update(zip(new, _parse_timestamps(new)))
            except ValueError:
                raise ValueError(f"bad timestamp {texts[0]!r}") from None
            return list(map(self.ts_memo.__getitem__, texts))

    def _kpis(self, resources: List[str], metrics: List[str]) -> List[int]:
        """The number of each (resource, metric) pair, validating new ones."""
        try:
            return list(map(dict.__getitem__, map(self.kpi_memo.__getitem__, resources), metrics))
        except KeyError:
            # validated and numbered in order of first appearance
            for resource, metric in dict.fromkeys(zip(resources, metrics)):
                if metric not in self.kpi_memo.get(resource, ()):
                    self.kpis.append(KpiId(resource, metric))
                    self.kpi_memo.setdefault(resource, {})[metric] = len(self.kpis) - 1
            return list(map(dict.__getitem__, map(self.kpi_memo.__getitem__, resources), metrics))

    def add_rows(self, rows, line_no: int) -> None:
        """Check and append rows from :func:`csv.reader`, numbered from
        ``line_no``, column by column in batches of ``_BATCH_ROWS``.  A row of
        another width, or a record the reader cannot split, raises
        :class:`CsvParseError` at its number once the rows before it pass."""
        fields, numbers = [], []
        try:
            for row in rows:
                if len(row) == self.width:
                    fields += row
                    numbers.append(line_no)
                elif row:
                    self.add(fields, numbers)
                    raise CsvParseError(line_no, f"expected {self.width} fields, got {len(row)}")
                line_no += 1
                if len(numbers) == _BATCH_ROWS:
                    self.add(fields, numbers)
                    fields, numbers = [], []
        except csv.Error as exc:
            self.add(fields, numbers)
            raise CsvParseError(line_no, str(exc)) from None
        self.add(fields, numbers)

    def add(self, fields: List[str], numbers) -> None:
        """Check and append the rows of ``fields``, ``width`` fields to a row
        and numbered by ``numbers``, column by column.  Rows that fail a check
        are checked again one at a time, which raises the first error in row
        order as a :class:`CsvParseError`."""
        w, n = self.width, len(numbers)
        try:
            stamps = self._timestamps(fields[0 : w * n : w])
            kids = self._kpis(fields[1 : w * n : w], fields[2 : w * n : w])
            tail = self.parse(*(fields[i : w * n : w] for i in range(3, w)))
        except ValueError as exc:
            if n == 1:
                raise CsvParseError(numbers[0], str(exc)) from None
            for i, number in enumerate(numbers):
                self.add(fields[w * i : w * (i + 1)], [number])
            return
        for column, values in zip(self.columns, (numbers, stamps, kids, *tail)):
            column.extend(values)

    def series_map(self) -> Dict[KpiId, TimeSeries]:
        """The map KpiId -> TimeSeries, or :class:`DuplicateSampleError` at
        the first repeated (KPI, timestamp) pair.  This consumes the columns."""
        if not self.kpis:
            return {}
        kpis = self.kpis
        columns, self.columns = self.columns, None
        # KPIs are numbered in order of first appearance; sorting by (KPI,
        # timestamp, line) groups each KPI's samples in time order.
        order = np.lexsort([np.frombuffer(col, dtype=col.typecode) for col in columns[:3]])
        # each column is freed once sorted, so one sorted copy at a time sits
        # beside the unsorted columns
        sorted_columns = []
        while columns:
            col = columns.pop(0)
            sorted_columns.append(np.frombuffer(col, dtype=col.typecode)[order])
            del col
        lines, stamps, kids, values = sorted_columns
        repeated = np.flatnonzero((stamps[1:] == stamps[:-1]) & (kids[1:] == kids[:-1]))
        if len(repeated):
            at = repeated[0] + 1
            raise DuplicateSampleError(
                int(lines[at]),
                f"duplicate sample for {kpis[kids[at]]} at {format_timestamp(stamps[at])}",
            )
        bounds = np.searchsorted(kids, np.arange(len(kpis) + 1))
        return {
            kpi: TimeSeries(kpi, stamps[lo:hi], values[lo:hi])
            for kpi, lo, hi in zip(kpis, bounds[:-1], bounds[1:])
        }


def _kpi_fields(kpi: KpiId) -> str:
    """The ``,resource,metric,`` middle of a CSV row, quoted by the csv writer."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(["", kpi.resource, kpi.metric, ""])
    return buf.getvalue()


def write_csv(series_map: Dict[KpiId, TimeSeries], target: Union[str, os.PathLike, TextIO]) -> None:
    """Serialize a KPI map to CSV, grouped by KPI in sorted order.

    The output re-ingests to an equal map and is byte-stable for equal input.
    Timestamps must lie in years 1000-9999, the range the reader accepts;
    otherwise :class:`ValueError` names the first offending KPI and nothing
    is written.

    Each KPI's rows are built by one join: its values rendered by one
    ``repr`` of the whole list, its timestamps formatted once for each run
    of consecutive KPIs that share them.
    """
    kpis = sorted(series_map)
    for kpi in kpis:
        timestamps = series_map[kpi].timestamps
        if timestamps.min() < MIN_CSV_TIMESTAMP or timestamps.max() > MAX_CSV_TIMESTAMP:
            raise ValueError(
                f"timestamps of {kpi} fall outside {format_timestamp(MIN_CSV_TIMESTAMP)}"
                f" .. {format_timestamp(MAX_CSV_TIMESTAMP)}"
            )
    with _open_text(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        timestamps, stamps = None, []
        for kpi in kpis:
            series = series_map[kpi]
            if timestamps is None or not np.array_equal(series.timestamps, timestamps):
                timestamps = series.timestamps
                stamps = timestamps.astype("datetime64[s]").astype(str).tolist()
            # repr of a list of floats is the repr of each, joined by ", "
            values = repr(series.values.tolist())[1:-1].split(", ")
            # one KPI at a time: a whole-file string would double peak memory
            stream.write("\n".join(map(("Z" + _kpi_fields(kpi)).join, zip(stamps, values))))
            stream.write("\n")


# ---------------------------------------------------------------------------
# JSON artifacts: models, suite configs, run manifests and scenarios are JSON
# objects tagged with a "kind" and a "schema_version"


def save_json(data: dict, path) -> None:
    """Write an artifact as JSON indented by two spaces, with a final newline."""
    with _open_text(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def check_kind(data, kind: str, version: int) -> None:
    """Raise :class:`SchemaVersionError` unless ``data`` is a JSON object with
    the given ``kind`` and ``schema_version``."""
    if not isinstance(data, dict):
        raise SchemaVersionError(f"not a {kind} file: the top-level value is not a JSON object")
    if data.get("kind") != kind:
        raise SchemaVersionError(f"not a {kind} file: kind={data.get('kind')!r}")
    if data.get("schema_version") != version:
        raise SchemaVersionError(f"unsupported {kind} schema_version {data.get('schema_version')!r}")


def typed(name: str, value, kind: type):
    """``value`` as a ``kind``, int, float or bool (an int is a float too, a
    bool neither); any other value raises :class:`ValueError` naming ``name``."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{name} {value!r} must be true or false")
    elif isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ValueError(f"{name} {value!r} must be {'an integer' if kind is int else 'a number'}")
    return kind(value)


#: The field annotations :func:`check_types` checks; the dataclasses it is
#: given use ``from __future__ import annotations``, so annotations are text.
_TYPED_FIELDS = {"int": int, "float": float, "bool": bool}


def check_types(obj) -> None:
    """Raise :func:`typed`'s :class:`ValueError` for the first int, float or
    bool field of the dataclass ``obj`` that holds another type: a JSON
    ``2.7`` minutes, ``true`` sigmas or ``"false"`` flag is not cast."""
    for f in fields(obj):
        if f.type in _TYPED_FIELDS:
            typed(f.name, getattr(obj, f.name), _TYPED_FIELDS[f.type])


def load_json(path, from_dict):
    """Read an artifact file and decode it with ``from_dict``.  Bytes that are
    not UTF-8, text that is not JSON, a missing key and a value of the wrong
    type, shape or range become a :class:`ValueError` naming the file; a
    foreign kind or schema version stays a :class:`SchemaVersionError`, and
    names the file too."""
    try:
        with _open_text(path, "r") as fh:
            return from_dict(json.load(fh))
    except SchemaVersionError as exc:
        raise SchemaVersionError(f"{os.fspath(path)}: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {os.fspath(path)}: {type(exc).__name__} {exc}") from exc


# ---------------------------------------------------------------------------
# run manifests


@dataclass(frozen=True)
class InjectedFault:
    """The fault a run was seeded with.  ``injection_time`` is the instant the
    fault first became active (for intermittent activation this is the first
    active interval, not the nominal start)."""

    fault_type: FaultType
    resource: str
    pattern: str
    injection_time: int


@dataclass(frozen=True)
class RunManifest:
    """Ground truth for one run: identity, time range, seeded fault, failure."""

    run_id: str
    start: int
    end: int
    fault: Optional[InjectedFault] = None
    failure_time: Optional[int] = None

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("run end must be after start")
        if not self.run_id:
            raise ValueError("run_id must be non-empty")

    def to_dict(self) -> dict:
        fault = None
        if self.fault is not None:
            fault = {
                "fault_type": self.fault.fault_type.value,
                "resource": self.fault.resource,
                "pattern": self.fault.pattern,
                "injection_time": format_timestamp(self.fault.injection_time),
            }
        return {
            "kind": MANIFEST_KIND,
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "run_id": self.run_id,
            "start": format_timestamp(self.start),
            "end": format_timestamp(self.end),
            "fault": fault,
            "failure_time": (
                None if self.failure_time is None else format_timestamp(self.failure_time)
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        check_kind(data, MANIFEST_KIND, MANIFEST_SCHEMA_VERSION)
        fault = None
        if data.get("fault") is not None:
            f = data["fault"]
            fault = InjectedFault(
                fault_type=FaultType(f["fault_type"]),
                resource=f["resource"],
                pattern=f["pattern"],
                injection_time=parse_timestamp(f["injection_time"]),
            )
        failure = data.get("failure_time")
        return cls(
            run_id=data["run_id"],
            start=parse_timestamp(data["start"]),
            end=parse_timestamp(data["end"]),
            fault=fault,
            failure_time=None if failure is None else parse_timestamp(failure),
        )

    def save(self, path) -> None:
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "RunManifest":
        return load_json(path, cls.from_dict)
