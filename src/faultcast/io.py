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
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, TextIO, Tuple, Union

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


def ingest_csv(source: Union[str, os.PathLike, TextIO]) -> Dict[KpiId, TimeSeries]:
    """Read a KPI sample CSV into a map KpiId -> TimeSeries.

    The header must be exactly ``timestamp,resource,metric,value``.  Rows may
    arrive in any order; samples are sorted per KPI.  Malformed rows raise
    :class:`CsvParseError` with the offending line number, a repeated
    (timestamp, KPI) pair raises :class:`DuplicateSampleError`.
    """
    with _open_text(source, "r") as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise CsvParseError(1, f"expected header {','.join(CSV_HEADER)!r}, got {header!r}")
        # A file repeats few distinct timestamps and KPIs over many rows, so
        # each distinct text is parsed and validated once.
        ts_memo: Dict[str, int] = {}
        kpi_memo: Dict[Tuple[str, str], int] = {}
        kpis: List[KpiId] = []
        # typed columns hold 8 bytes a row, not a Python object each
        ts_col, kpi_col, line_col, value_col = array("q"), array("q"), array("q"), array("d")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise CsvParseError(line_no, f"expected 4 fields, got {len(row)}")
            ts_text, resource, metric, value_text = row
            ts = ts_memo.get(ts_text)
            if ts is None:
                try:
                    ts = ts_memo[ts_text] = parse_timestamp(ts_text)
                except ValueError:
                    raise CsvParseError(line_no, f"bad timestamp {ts_text!r}") from None
            kid = kpi_memo.get((resource, metric))
            if kid is None:
                try:
                    kpis.append(KpiId(resource, metric))
                except ValueError as exc:
                    raise CsvParseError(line_no, str(exc)) from None
                kid = kpi_memo[(resource, metric)] = len(kpis) - 1
            try:
                value = float(value_text)
            except ValueError:
                raise CsvParseError(line_no, f"bad value {value_text!r}") from None
            if not math.isfinite(value):
                raise CsvParseError(line_no, f"non-finite value {value_text!r}")
            ts_col.append(ts)
            kpi_col.append(kid)
            value_col.append(value)
            line_col.append(line_no)
        if not kpis:
            return {}
        # KPIs are numbered in order of first appearance; sorting by (KPI,
        # timestamp, line) groups each KPI's samples in time order.
        lines, stamps, kids, values = (
            np.frombuffer(col, dtype=col.typecode) for col in (line_col, ts_col, kpi_col, value_col)
        )
        order = np.lexsort((lines, stamps, kids))
        lines, stamps, kids, values = lines[order], stamps[order], kids[order], values[order]
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
        for kpi in kpis:
            series = series_map[kpi]
            # one KPI at a time: a whole-file string would double peak memory
            middle = "Z" + _kpi_fields(kpi)
            stamps = series.timestamps.astype("datetime64[s]").astype(str).tolist()
            stream.write(
                "".join(
                    f"{ts}{middle}{value!r}\n"
                    for ts, value in zip(stamps, series.values.tolist())
                )
            )


def csv_to_string(series_map: Dict[KpiId, TimeSeries]) -> str:
    buf = io.StringIO()
    write_csv(series_map, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# JSON artifacts: models, suite configs, run manifests and scenarios are JSON
# objects tagged with a "kind" and a "schema_version"


def save_json(data: dict, path) -> None:
    """Write an artifact as JSON indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
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


def load_json(path, from_dict):
    """Read an artifact file and decode it with ``from_dict``.  A missing key or
    a value of the wrong type or shape becomes a :class:`ValueError` naming the
    file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
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
