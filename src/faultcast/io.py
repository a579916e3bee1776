"""File formats: the KPI sample CSV, the JSON run manifest, and the codec
of the JSON artifacts: their envelope and their dataclass-shaped objects."""

from __future__ import annotations

import csv
import io
import json
import os
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from functools import cache
from itertools import chain
from typing import Annotated, Dict, Iterator, List, Optional, TextIO, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .core import (
    CsvParseError,
    DuplicateSampleError,
    FailureClass,
    FaultType,
    KpiId,
    Pattern,
    SchemaVersionError,
    TimeSeries,
    format_timestamp,
    kpi_id,
    parse_timestamp,
    typed,
)

CSV_HEADER = ["timestamp", "resource", "metric", "value"]

#: Timestamps the CSV can carry: years 1000-9999, which the reader's
#: four-digit ``%Y`` accepts (1000-01-01T00:00:00Z .. 9999-12-31T23:59:59Z).
MIN_CSV_TIMESTAMP = -30610224000
MAX_CSV_TIMESTAMP = 253402300799


@contextmanager
def _open_text(path_or_stream, mode: str) -> Iterator[TextIO]:
    """A path opened as UTF-8 text and closed on exit, or a caller's own
    stream passed through and left open.  A :class:`CsvParseError` raised
    while a path is open gains the file's name, keeping its type and line."""
    if isinstance(path_or_stream, (str, os.PathLike)):
        with open(path_or_stream, mode, encoding="utf-8", newline="") as stream:
            try:
                yield stream
            except CsvParseError as exc:
                raise type(exc)(exc.line_no, exc.message, path_or_stream) from None
    else:
        yield path_or_stream


#: Characters of CSV body read per block.  Reading the 2-day simulated CSV
#: (187,200 rows) with blocks of 64 KB, 128 KB, 256 KB, 512 KB and 1 MB
#: took 127, 127, 117, 114 and 110 ms (two shared x86 cores, Python 3.11,
#: numpy 2.4) and peaked at 25, 25, 28, 36 and 52 traced bytes a row.
#: Below 128 KiB a block's text and byte buffers stay under glibc's default
#: mmap threshold: in six runs each of the benchmark's offline pass, 256 KB
#: blocks held about 1 MB more resident memory than 120 KB blocks, at the
#: same speed.
_BLOCK_CHARS = 120 << 10

#: Rows from :func:`csv.reader` checked at once, about a block's worth.
_BATCH_ROWS = 1 << 10


def ingest_csv(source: Union[str, os.PathLike, TextIO]) -> Dict[KpiId, TimeSeries]:
    """Read a KPI sample CSV into a map KpiId -> TimeSeries.

    The header must be exactly ``timestamp,resource,metric,value``.  Rows may
    arrive in any order, at the cost of one sort; rows grouped by KPI in time
    order, as :func:`write_csv` writes them, need none.  Malformed rows raise
    :class:`CsvParseError` (:func:`read_rows`), a non-finite value too; a
    repeated (timestamp, KPI) pair raises :class:`DuplicateSampleError`.
    Either names the file when ``source`` is a path.
    """
    with _open_text(source, "r") as stream:
        return read_rows(stream, CSV_HEADER, _finite_values, "d").series_map()


def read_rows(stream: TextIO, header: List[str], parse, types: str) -> "_Columns":
    """Read a CSV stream whose header is exactly ``header`` and whose rows are
    ``timestamp,resource,metric`` then one field per typecode of ``types``,
    typed by ``parse``, into :class:`_Columns`.  A malformed row raises
    :class:`CsvParseError` with its line number: a row of another width, a
    bad timestamp or KPI, a field ``parse`` rejects, or a record
    :func:`csv.reader` cannot split, such as a field over
    ``csv.field_size_limit()``.  Blank lines hold no row but are counted.

    The body is read in blocks of whole lines.  A block without ``"``, NUL,
    a CR but in CRLF line endings or a line longer than the field size
    limit or four times the block's mean line, whose every line holds a
    row's commas, splits on commas exactly as :func:`csv.reader` would, and
    is checked as arrays over its UTF-8 bytes (:meth:`_Columns.add_block`).
    Any other block goes through :func:`csv.reader`, and so does everything
    from the first ``"`` on, since a quoted field may span lines.  So does
    a block that fails a check, such as one holding a value that ``float``
    reads only as text, like a non-ASCII digit.  Rows from
    :func:`csv.reader` are checked column by column in batches, and a batch
    that fails a check is checked again row by row, which raises the first
    error in row order.
    """
    try:
        found = next(csv.reader(stream), None)
    except csv.Error as exc:
        raise CsvParseError(1, str(exc)) from None
    if found != header:
        raise CsvParseError(1, f"expected header {','.join(header)!r}, got {found!r}")
    columns = _Columns(parse, types)
    line_no = 2
    for text, lines in _blocks(stream):
        if '"' not in text and lines is None:
            count = columns.add_block(text, line_no)
            if count:
                line_no += count
                continue
        if lines is None:
            lines = io.StringIO(text, newline="").readlines()
        if '"' in text:
            columns.add_rows(csv.reader(chain(lines, stream)), line_no)
            break
        columns.add_rows(csv.reader(lines), line_no)
        # outside quotes every line is one record
        line_no += len(lines)
    return columns


def _blocks(stream: TextIO) -> Iterator[Tuple[str, Optional[List[str]]]]:
    """The rest of ``stream`` in blocks of whole lines: the text of each,
    and the lines that iterating the stream gives, or None where they are
    the text split with universal newlines (at LF, CRLF and a lone CR).

    A stream that records the newlines it reads (opened with ``newline``
    None or ``""``) splits lines so, and is read in large pieces: on the
    2-day and the 2-week simulated CSV that reads 16 % and 20 % faster
    than ``readlines`` and a join.  Any other stream is read by lines,
    given unless an LF ends each of them and a CR only comes before an LF."""
    if getattr(stream, "newlines", None) is not None:
        while text := stream.read(_BLOCK_CHARS):
            if not text.endswith("\n"):  # the stream's own readline ends the last line
                text += stream.readline()
            yield text, None
    else:
        while lines := stream.readlines(_BLOCK_CHARS):
            text = "".join(lines)
            lone_cr = "\r" in text and text.count("\r") != text.count("\r\n")
            lf_ends = text.count("\n") == len(lines) - (not text.endswith("\n"))
            yield text, lines if lone_cr or not lf_ends else None


def _finite_values(texts: np.ndarray):
    """The value column of KPI CSV rows, an array of texts, as floats.  A
    text that is not a finite number raises :class:`ValueError`; its message
    names the first text, the row's own when the column holds one row."""
    try:
        values = texts.astype(np.float64)
    except ValueError:
        raise ValueError(f"bad value {texts[0]!r}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite value {texts[0]!r}")
    return (values,)


def _parse_timestamps(texts: List[str]) -> List[int]:
    """:func:`parse_timestamp` of each text: canonical texts at once
    (:func:`_canonical_timestamps`), every other text through
    :func:`parse_timestamp`, which keeps strptime's leniency and errors."""
    heads = [i for i, text in enumerate(texts) if len(text) == 20 and text.isascii()]
    block = "".join(texts[i] for i in heads).encode()
    stamps, canonical = _canonical_timestamps(np.frombuffer(block, np.uint8).reshape(-1, 20))
    found = {i: ts for i, ts, ok in zip(heads, stamps.tolist(), canonical.tolist()) if ok}
    return [found[i] if i in found else parse_timestamp(text) for i, text in enumerate(texts)]


#: A canonical timestamp's bytes, less b"0000-00-00T00:00:00Z", are at
#: most 9 at a digit and 0 elsewhere; ``_TS_FIELDS`` turns them into the
#: year, month, day, hour, minute and second (a float32 product, exact for
#: these integers, so that BLAS computes it)
_TS_ZERO = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)
_TS_BOUND = np.where(_TS_ZERO == ord("0"), 9, 0).astype(np.uint8)
_TS_LAYOUT = "YYYY-MM-DDThh:mm:ssZ"
_TS_FIELDS = np.array(
    [[10.0 ** _TS_LAYOUT.count(f, i + 1) if ch == f else 0.0 for i, ch in enumerate(_TS_LAYOUT)] for f in "YMDhms"],
    np.float32,
)

#: Days from 1970-01-01 to 1 January of each year from 0 to 10000, by
#: numpy's proleptic Gregorian calendar
_YEAR_DAYS = (np.arange(10001) - 1970).astype("datetime64[Y]").astype("datetime64[D]").astype(np.int64)

#: Days in each month of a common year, and before it; no month 0 or 13
#: has a day
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])
_MONTH_START = np.concatenate(([0], np.cumsum(_MONTH_DAYS[:-1])))


def _canonical_timestamps(heads: np.ndarray):
    """Epoch seconds of each row of ``heads``, 20 bytes a row, and whether
    the row is canonical: ``YYYY-MM-DDTHH:MM:SSZ`` with a year from 1000 and
    a date and time that exist: exactly the texts whose first 19 characters
    numpy parses as a ``datetime64`` that renders back to them, and at the
    same second.  The seconds of any other row are meaningless."""
    offsets = heads - _TS_ZERO  # a byte below the template's wraps past 9
    ok = (offsets <= _TS_BOUND).all(axis=1)
    year, month, day, hour, minute, second = (_TS_FIELDS @ offsets.T).astype(np.int32)
    # a row whose year or month is out of range is not canonical: a day
    # within a month 0 or 13 is none
    year, month = np.minimum(year, 9999), np.minimum(month, 13)
    leap = _YEAR_DAYS[year + 1] - _YEAR_DAYS[year] == 366
    ok &= (year >= 1000) & (day >= 1) & (day <= _MONTH_DAYS[month] + (leap & (month == 2)))
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    days = _YEAR_DAYS[year] + _MONTH_START[month] + (leap & (month > 2)) + day - 1
    return days * 86400 + hour * 3600 + minute * 60 + second, ok


def _windows(buf: np.ndarray, width: int) -> np.ndarray:
    """Every ``width`` consecutive bytes of ``buf``, one a row: a view, as
    ``sliding_window_view`` makes it but without its checks' fixed cost."""
    return np.ndarray((len(buf) - width + 1, width), np.uint8, buf, strides=(1, 1))


def _texts(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The bytes ``buf[lo:hi]`` of each row as one array of dtype ``S``,
    padded with NULs; ``buf`` runs on for at least the longest text."""
    sizes = (hi - lo).astype(np.int32)  # a narrow compare is faster
    width = max(int(sizes.max()), 1)
    out = _windows(buf, width)[lo]
    out *= np.arange(width, dtype=np.int32) < sizes[:, None]
    return out.view(f"S{width}")[:, 0]


class _Columns:
    """The rows of one CSV body as typed ``columns``: timestamps, numbers
    into ``kpis``, then the fields after ``timestamp,resource,metric`` as
    ``parse`` types them, in arrays of the typecodes in ``types``.  ``parse``
    takes each of those fields as an array of texts, ``bytes`` from a block
    of bytes and ``str`` objects from :func:`csv.reader`, and like it each
    column check raises :class:`ValueError` naming its first bad text, the
    row's own when it checks one row.  A file repeats few distinct
    timestamps and KPIs over many rows, so each distinct text is parsed and
    validated once.  Line numbers are kept as runs of rows on consecutive
    lines: ``run_rows`` holds the first row of each, ``run_lines`` its
    line."""

    def __init__(self, parse, types: str):
        self.parse, self.width = parse, 3 + len(types)
        self.ts_memo: Dict[str, int] = {}
        # resource -> metric -> KPI number: no (resource, metric) tuple a row
        self.kpi_memo: Dict[str, Dict[str, int]] = {}
        self.kpis: List[KpiId] = []
        # typed columns hold 20 bytes a KPI CSV row, not a Python object each
        self.columns = [array("q"), array("i")] + [array(code) for code in types]
        self.run_rows, self.run_lines = array("q"), array("q")

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
                    self.kpis.append(kpi_id(resource, metric))
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
        if not n:
            return
        try:
            stamps = self._timestamps(fields[0 : w * n : w])
            kids = self._kpis(fields[1 : w * n : w], fields[2 : w * n : w])
            # object arrays: float and str compare see each text as it is
            tail = self.parse(*(np.array(fields[i : w * n : w], dtype=object) for i in range(3, w)))
        except ValueError as exc:
            if n == 1:
                raise CsvParseError(numbers[0], str(exc)) from None
            for i, number in enumerate(numbers):
                self.add(fields[w * i : w * (i + 1)], [number])
            return
        self._append(numbers, stamps, kids, *tail)

    def add_block(self, text: str, line_no: int) -> int:
        """Check and append the whole lines of ``text``, numbered from
        ``line_no``, by array operations on its UTF-8 bytes: line ends and
        commas found at once, timestamps from their fixed 20-byte heads, KPIs
        as runs of equal ``resource,metric`` bytes, and the fields after them
        handed to ``parse`` as arrays of bytes.  Return the number of lines,
        or 0 for a block that needs :func:`csv.reader` (see
        :func:`read_rows`) or fails any check, and is not appended."""
        # a CR that ends a CRLF line ending reads as a LF in csv.reader
        if "\0" in text or ("\r" in text and text.count("\r") != text.count("\r\n")):
            return 0
        try:
            raw = text.encode()
        except UnicodeEncodeError:  # a lone surrogate, from a caller's str
            return 0
        buf = np.frombuffer(raw, np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        if not text.endswith("\n"):  # the last line has no newline
            ends = np.append(ends, len(buf))
        lines = len(ends)
        starts = np.concatenate(([0], ends[:-1] + 1))
        commas = np.flatnonzero(buf == ord(","))
        # every line holds a row's commas, so a blank line holds none
        if len(commas) != lines * (self.width - 1):
            return 0
        commas = commas.reshape(lines, self.width - 1)
        longest = int((ends - starts).max())
        within = (commas[:, 0] >= starts).all() and (commas[:, -1] < ends).all()
        # a field's texts are gathered at the width of its longest: a line
        # over four times the mean would gather that many times the block
        if not within or longest > min(csv.field_size_limit(), 4 * len(buf) / lines):
            return 0
        ends -= buf[ends - 1] == ord("\r")
        # each field's first byte and the byte after it, a row a field;
        # NULs past the last line let every text be read as one window
        lo = np.vstack((starts, commas.T + 1))
        hi = np.vstack((commas.T, ends))
        buf = np.concatenate((buf, np.zeros(max(longest, 20), np.uint8)))
        del raw  # the bytes live on in buf
        try:
            stamps = self._block_timestamps(buf, lo[0], hi[0])
            kids = self._block_kpis(_texts(buf, lo[1], hi[2]))
            # float takes a non-ASCII text only as str, so such a value
            # fails here and its block goes through csv.reader
            values = self.parse(*(_texts(buf, lo[i], hi[i]) for i in range(3, self.width)))
        except ValueError:
            return 0
        self._append(range(line_no, line_no + lines), stamps, kids, *values)
        return lines

    def _block_timestamps(self, buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Epoch seconds of the timestamp texts ``buf[lo:hi]``: canonical
        ones at once from their first 20 bytes, the others one distinct
        text at a time through :meth:`_timestamps`."""
        stamps, canonical = _canonical_timestamps(_windows(buf, 20)[lo])
        canonical &= hi - lo == 20
        if not canonical.all():
            rows = np.flatnonzero(~canonical)
            texts = [buf[a:b].tobytes().decode() for a, b in zip(lo[rows].tolist(), hi[rows].tolist())]
            stamps[rows] = self._timestamps(texts)
        return stamps

    def _block_kpis(self, names: np.ndarray) -> np.ndarray:
        """The KPI number of each ``resource,metric`` text of ``names``,
        found once for each distinct text among the runs of equal ones."""
        runs = np.flatnonzero(np.concatenate(([True], names[1:] != names[:-1])))
        distinct, first, at = np.unique(names[runs], return_index=True, return_inverse=True)
        # validated and numbered in order of first appearance, like rows
        # from csv.reader
        order = np.argsort(first)
        resources, metrics = zip(*(name.decode().split(",") for name in distinct[order].tolist()))
        numbers = np.empty(len(distinct), np.int32)
        numbers[order] = self._kpis(resources, metrics)
        return np.repeat(numbers[at], np.diff(np.append(runs, len(names))))

    def _append(self, numbers, *columns) -> None:
        """Append checked rows, numbered by ``numbers``: each column's values
        to its typed array, and the rows' line runs."""
        row = len(self.columns[0])
        # a block's lines are all rows, one run; a blank line between
        # csv.reader's rows starts another
        for i, line in [(0, numbers[0])] if isinstance(numbers, range) else enumerate(numbers):
            if not self.run_rows or line - self.run_lines[-1] != row + i - self.run_rows[-1]:
                self.run_rows.append(row + i)
                self.run_lines.append(line)
        for column, values in zip(self.columns, columns):
            column.frombytes(np.ascontiguousarray(values, dtype=column.typecode).view(np.uint8))

    def series_map(self) -> Dict[KpiId, TimeSeries]:
        """The map KpiId -> TimeSeries, or :class:`DuplicateSampleError` at
        the first repeated (KPI, timestamp) pair.  This consumes the columns.

        A body grouped by KPI in time order, as :func:`write_csv` writes it,
        is read in place: each series' values are a view of the value column.
        Any other order is sorted first.  KPIs with equal timestamps share
        one read-only copy of them, and the timestamp column is freed."""
        if not self.kpis:
            return {}
        kpis = self.kpis
        stamps, kids, values = (np.frombuffer(col, dtype=col.typecode) for col in self.columns)
        self.columns = None
        # KPIs are numbered in order of first appearance, so a grouped body
        # has (KPI, timestamp) strictly increasing
        if not ((kids[1:] > kids[:-1]) | ((kids[1:] == kids[:-1]) & (stamps[1:] > stamps[:-1]))).all():
            # lexsort is stable: equal (KPI, timestamp) rows keep line order
            order = np.lexsort((stamps, kids))
            # a column is freed once sorted: one sorted copy at a time sits
            # beside the unsorted columns
            kids = kids[order]
            stamps = stamps[order]
            values = values[order]
            repeated = np.flatnonzero((stamps[1:] == stamps[:-1]) & (kids[1:] == kids[:-1]))
            if len(repeated):
                at = repeated[0] + 1
                row = int(order[at])
                run = bisect_right(self.run_rows, row) - 1  # the run of lines it lies in
                raise DuplicateSampleError(
                    self.run_lines[run] + row - self.run_rows[run],
                    f"duplicate sample for {kpis[kids[at]]} at {format_timestamp(stamps[at])}",
                )
        bounds = np.searchsorted(kids, np.arange(len(kpis) + 1, dtype=kids.dtype))  # int64 would copy kids
        grids: Dict[int, np.ndarray] = {}  # hash of a grid's bytes -> the grid
        out = {}
        for kpi, lo, hi in zip(kpis, bounds[:-1].tolist(), bounds[1:].tolist()):
            grid = stamps[lo:hi]
            key = hash(grid.tobytes())
            if key not in grids or not np.array_equal(grids[key], grid):
                grids[key] = grid.astype(np.int64)  # a copy, of the dtype TimeSeries keeps as is
            out[kpi] = TimeSeries(kpi, grids[key], values[lo:hi])
        return out


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

#: An epoch-seconds field that a JSON file holds as ISO-8601 UTC text
Timestamp = Annotated[int, "ISO-8601 UTC text in JSON"]


def check_kind(data, kind: str, version: int) -> None:
    """Raise :class:`SchemaVersionError` unless ``data`` is a JSON object with
    the given ``kind`` and ``schema_version``."""
    if not isinstance(data, dict):
        raise SchemaVersionError(f"not a {kind} file: the top-level value is not a JSON object")
    if data.get("kind") != kind:
        raise SchemaVersionError(f"not a {kind} file: kind={data.get('kind')!r}")
    if data.get("schema_version") != version:
        raise SchemaVersionError(f"unsupported {kind} schema_version {data.get('schema_version')!r}")


def typed_array(name, values: list, kind: type = float) -> np.ndarray:
    """``values`` as one array of ``kind``, int or float, checked as
    :func:`typed` checks one value but by one pass over their types: the
    first that is not a ``kind`` (a bool, text or null) raises typed's
    :class:`ValueError`, naming ``name(i)``, i its position."""
    if not set(map(type, values)) <= ({int} if kind is int else {int, float}):
        for i, value in enumerate(values):
            typed(name(i), value, kind)
    return np.array(values, dtype=kind)


@cache
def _fields(cls) -> tuple:
    """(name, annotation, required) of each field of the dataclass ``cls``,
    resolved once.  A file must give a field without a default, and a
    timestamp, which places its data in time."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple(
        (f.name, hints[f.name], hints[f.name] == Timestamp or f.default is f.default_factory is MISSING)
        for f in fields(cls)
    )


def check_fields(obj) -> None:
    """Raise :func:`typed`'s :class:`ValueError` for the first int, float,
    bool, str or timestamp field of the dataclass ``obj`` that holds another
    type: a JSON ``2.7`` minutes or ``"false"`` flag is not cast."""
    for name, hint, _ in _fields(type(obj)):
        kind = int if hint == Timestamp else hint
        if kind in (int, float, bool, str):
            typed(name, getattr(obj, name), kind)


def check_ranges(obj, *rules) -> None:
    """Raise ``<field> <value> must be <rule>`` for the first (field, ok,
    rule) of ``rules`` whose ``ok`` is false, the value read from ``obj``."""
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(f"{name} {getattr(obj, name)!r} must be {rule}")


def from_json(cls, data: dict, kind: Optional[str] = None, version: int = 1, prefix: str = "", **given):
    """The dataclass ``cls`` that the JSON object ``data`` holds, in a
    ``kind`` and schema ``version`` envelope if one is named: each field not
    ``given`` read by its annotation (:func:`_read`), names in messages led
    by ``prefix``.  A key that is no field, or a given one, raises
    :class:`ValueError`, a missing one :class:`KeyError` unless its field
    has a default (:func:`_fields`)."""
    known = {name for name, _, _ in _fields(cls) if name not in given}
    if kind is not None:
        check_kind(data, kind, version)
        known |= {"kind", "schema_version"}
    for key in data:
        if key not in known:
            raise ValueError(f"unknown {prefix}key {key!r}")
    for name, hint, required in _fields(cls):
        if name in data:
            given[name] = _read(hint, data[name], prefix + name, prefix)
        elif required and name not in given:
            raise KeyError(name)
    return cls(**given)


def _read(hint, value, name: str, prefix: str):
    """A field's JSON ``value`` as its annotation ``hint`` has it: a scalar
    checked by :func:`typed`, a timestamp parsed, an enum by its value, a
    dataclass from its object, a tuple from a list; any other shape is left
    to the class's own checks."""
    if get_origin(hint) is Union:  # Optional[X]
        return None if value is None else _read(get_args(hint)[0], value, name, prefix)
    if hint == Timestamp:
        return parse_timestamp(value)
    if hint in (int, float, bool, str):
        typed(name, value, hint)  # not cast: an integer number stays as the file gives it
        return value
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(value)
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(f"{name} {value!r} must be a JSON object")
        return from_json(hint, value, prefix=prefix)
    return tuple(value) if isinstance(value, list) else value  # a tuple


def to_json(obj, kind: Optional[str] = None, version: int = 1) -> dict:
    """The JSON object of the dataclass ``obj`` that :func:`from_json` reads,
    in a ``kind`` and schema ``version`` envelope if one is named."""
    body = {name: _write(hint, getattr(obj, name)) for name, hint, _ in _fields(type(obj))}
    return body if kind is None else {"kind": kind, "schema_version": version, **body}


def _write(hint, value):
    """A field's ``value`` as JSON holds it, by its annotation ``hint``."""
    hint = get_args(hint)[0] if get_origin(hint) is Union else hint  # Optional[X]
    if value is None or hint in (int, float, bool, str) or get_origin(hint) is tuple:
        return value
    if hint == Timestamp:
        return format_timestamp(value)
    return to_json(value) if is_dataclass(hint) else hint(value).value  # a dataclass, or an enum


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
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed {os.fspath(path)}: {type(exc).__name__} {exc}") from exc


class Artifact:
    """A dataclass kept as a JSON file: :func:`to_json` writes it and
    :func:`from_json` reads it, in its class's ``KIND`` and
    ``SCHEMA_VERSION`` envelope.  A class with another layout defines its
    own ``to_dict`` and ``from_dict``."""

    def to_dict(self) -> dict:
        return to_json(self, self.KIND, self.SCHEMA_VERSION)

    @classmethod
    def from_dict(cls, data: dict):
        return from_json(cls, data, cls.KIND, cls.SCHEMA_VERSION)

    def save(self, path) -> None:
        """Write the file: JSON indented by two spaces, with a final newline."""
        with _open_text(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        return load_json(path, cls.from_dict)


# ---------------------------------------------------------------------------
# run manifests


@dataclass(frozen=True)
class InjectedFault:
    """The fault a run was seeded with.  ``injection_time`` is the instant the
    fault first became active (for intermittent activation this is the first
    active interval, not the nominal start).  It names the class a run's
    windows are labelled with, so it is never Normal."""

    fault_type: FaultType
    resource: str
    pattern: Pattern
    injection_time: Timestamp

    def __post_init__(self):
        if self.fault_type is FaultType.NORMAL:
            raise ValueError("a run's fault cannot be Normal")
        FailureClass(self.fault_type, self.resource)  # a pair the class refuses raises


@dataclass(frozen=True)
class RunManifest(Artifact):
    """Ground truth for one run: identity, time range, seeded fault, failure."""

    KIND, SCHEMA_VERSION = "faultcast-run-manifest", 1

    run_id: str
    start: Timestamp
    end: Timestamp
    fault: Optional[InjectedFault] = None
    failure_time: Optional[Timestamp] = None

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("run end must be after start")
        if not self.run_id:
            raise ValueError("run_id must be non-empty")
        injection = self.fault and self.fault.injection_time
        for name, at in (("fault injection_time", injection), ("failure_time", self.failure_time)):
            if at is not None and not self.start <= at <= self.end:
                raise ValueError(f"{name} {format_timestamp(at)} must lie within the run")
