"""Online anomaly detection against a trained baseline model."""

from __future__ import annotations

import csv
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence, TextIO, Tuple, Union

import numpy as np

from .baseline import BaselineModel, GrangerEdge
from .core import (
    CADENCE_S,
    INTERVAL_S,
    AnomalyKind,
    CsvParseError,
    KpiId,
    TimeSeries,
    format_timestamp,
    parse_timestamp,
)
from .io import _open_text

logger = logging.getLogger(__name__)

DEFAULT_TAU = 3.0

ANOMALY_LOG_HEADER = ["interval_start", "resource", "metric", "kind", "score"]

#: Cells of one [edges, samples] block scored at once by the multivariate
#: detector (2 MB of float64 per temporary).
_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True, order=True, slots=True)
class AnomalyEvent:
    """One KPI flagged anomalous in one collection interval."""

    interval_start: int
    kpi: KpiId
    kind: AnomalyKind
    score: float

    def __post_init__(self):
        if self.score < 0 or not math.isfinite(self.score):
            raise ValueError("anomaly score must be finite and non-negative")


def _interval_bins(timestamps: np.ndarray, run_start: int, interval_s: int):
    """(start, lo, hi) arrays: the start time and the ``[lo, hi)`` index range
    of every ``run_start``-aligned interval that holds a sample.

    Samples before ``run_start`` fall in no interval; they still count as
    positions, so they serve as lag history.
    """
    first = run_start + max(0, (int(timestamps[0]) - run_start) // interval_s) * interval_s
    m0 = int(np.searchsorted(timestamps, first))
    k = (timestamps[m0:] - first) // interval_s
    lo = m0 + np.flatnonzero(np.diff(k, prepend=-1))
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[-1:] = len(timestamps)
    return first + k[lo - m0] * interval_s, lo, hi


def _edge_scores(
    edges: Sequence[GrangerEdge], x: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """RMS(one-step residuals) / residual_std of every edge over every
    ``[lo, hi)`` interval, as an [edges, intervals] matrix.

    Row i of ``x`` and ``y`` holds edge i's aligned cause and effect values;
    every edge has the same lag order p and every ``lo`` is at least p.  The
    prediction adds the lag terms in a fixed order and each interval's squares
    are summed as one contiguous row, so a score does not depend on how many
    edges or intervals are scored together.
    """
    p = edges[0].lag_order
    n = y.shape[1]
    coef = np.array([edge.coefficients for edge in edges])
    pred = np.empty((len(edges), n - p))
    pred[:] = coef[:, :1]
    for i in range(1, p + 1):
        pred += coef[:, i : i + 1] * y[:, p - i : n - i]
        pred += coef[:, p + i : p + i + 1] * x[:, p - i : n - i]
    sq = (y[:, p:] - pred) ** 2
    h = hi - lo
    sums = np.empty((len(edges), len(lo)))
    for width in np.unique(h):
        at = np.flatnonzero(h == width)
        cols = (lo[at] - p)[:, None] + np.arange(width)
        sums[:, at] = np.add.reduce(np.take(sq, cols, axis=1), axis=-1)
    std = np.array([edge.residual_std for edge in edges])
    return np.sqrt(sums / h) / std[:, None]


def detect_stream(
    model: BaselineModel,
    series_map: Dict[KpiId, TimeSeries],
    run_start: int,
    *,
    interval_s: int = INTERVAL_S,
    tau: float = DEFAULT_TAU,
    cadence_s: int = CADENCE_S,
) -> List[AnomalyEvent]:
    """Run both detectors over a run, one verdict per KPI per interval.

    Intervals are aligned to ``run_start``.  A KPI is evaluated in an interval
    only when at least half of the expected samples are present; KPIs without
    a baseline entry are skipped with a warning.

    Univariate: an interval is anomalous when the largest z-score
    |y - expected| / bucket std of its samples exceeds the baseline's k_sigma;
    the score is that z.  Multivariate: each edge predicts its effect one step
    ahead from the p preceding aligned samples of both KPIs; the score is
    RMS(residuals over the interval) / residual_std, raised on the effect
    when it exceeds ``tau``.  An interval needs p aligned samples before it.
    Events come back sorted by (interval start, KPI, kind).
    """
    if cadence_s <= 0 or interval_s <= 0 or interval_s % cadence_s != 0:
        raise ValueError("interval must be a positive multiple of the cadence")
    events: List[AnomalyEvent] = []
    expected = interval_s // cadence_s
    # KPIs sampled at identical timestamps share one interval binning and,
    # for the edges between two such groups, one alignment.
    stamps = {kpi: series.timestamps.tobytes() for kpi, series in series_map.items()}
    bins: Dict[bytes, tuple] = {}
    # the events of one interval share one int for its start
    shared: Dict[int, int] = {}

    def start_of(value) -> int:
        value = int(value)
        return shared.setdefault(value, value)

    for kpi in sorted(series_map):
        baseline = model.baselines.get(kpi)
        if baseline is None:
            logger.warning("detect: no baseline for %s; skipping", kpi)
            continue
        series = series_map[kpi]
        if stamps[kpi] not in bins:
            bins[stamps[kpi]] = _interval_bins(series.timestamps, run_start, interval_s)
        starts, lo, hi = bins[stamps[kpi]]
        peaks = np.maximum.reduceat(baseline.zscores(series.timestamps, series.values), lo)
        for i in np.flatnonzero((2 * (hi - lo) >= expected) & (peaks > baseline.k_sigma)):
            events.append(AnomalyEvent(start_of(starts[i]), kpi, AnomalyKind.UNIVARIATE, float(peaks[i])))

    blocks: Dict[Tuple[bytes, bytes, int], List[GrangerEdge]] = {}
    for edge in model.edges:
        if edge.cause in series_map and edge.effect in series_map:
            blocks.setdefault((stamps[edge.cause], stamps[edge.effect], edge.lag_order), []).append(edge)
    # Several causes can point at one effect KPI; keep a single verdict per
    # (interval, effect) carrying the worst score over its incoming edges.
    worst: Dict[Tuple[int, KpiId], float] = {}
    for (cause_key, effect_key, p), edges in blocks.items():
        cause_ts = series_map[edges[0].cause].timestamps
        if cause_key == effect_key:
            common, ic, ie = cause_ts, slice(None), slice(None)
        else:
            common, ic, ie = np.intersect1d(
                cause_ts, series_map[edges[0].effect].timestamps, assume_unique=True, return_indices=True
            )
        if len(common) == 0:
            continue
        starts, lo, hi = _interval_bins(common, run_start, interval_s)
        keep = (2 * (hi - lo) >= expected) & (lo >= p)
        starts, lo, hi = starts[keep], lo[keep], hi[keep]
        if len(lo) == 0:
            continue
        step = max(1, _CHUNK_CELLS // len(common))  # bounds the [edges, samples] temporaries
        for first in range(0, len(edges), step):
            chunk = edges[first : first + step]
            x = np.stack([series_map[edge.cause].values for edge in chunk])[:, ic]
            y = np.stack([series_map[edge.effect].values for edge in chunk])[:, ie]
            scores = _edge_scores(chunk, x, y, lo, hi)
            for e, s in zip(*np.nonzero(scores > tau)):
                key = (start_of(starts[s]), chunk[e].effect)
                score = float(scores[e, s])
                if score > worst.get(key, -math.inf):
                    worst[key] = score
    for (start, kpi), score in worst.items():
        events.append(AnomalyEvent(start, kpi, AnomalyKind.MULTIVARIATE, score))

    events.sort()
    return events


# ---------------------------------------------------------------------------
# the anomaly log


def write_anomaly_log(events: Sequence[AnomalyEvent], target: Union[str, os.PathLike, TextIO]) -> None:
    """Write events as CSV: interval_start,resource,metric,kind,score."""
    with _open_text(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(ANOMALY_LOG_HEADER)
        for event in events:
            writer.writerow(
                [
                    format_timestamp(event.interval_start),
                    event.kpi.resource,
                    event.kpi.metric,
                    event.kind.value,
                    repr(event.score),
                ]
            )


def read_anomaly_log(source: Union[str, os.PathLike, TextIO]) -> List[AnomalyEvent]:
    with _open_text(source, "r") as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header != ANOMALY_LOG_HEADER:
            raise CsvParseError(1, f"expected header {','.join(ANOMALY_LOG_HEADER)!r}, got {header!r}")
        events = []
        # a log repeats few distinct timestamps and KPIs: parse each once and
        # let the events share the KpiId objects, whose names are interned
        ts_memo: Dict[str, int] = {}
        kpi_memo: Dict[Tuple[str, str], KpiId] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise CsvParseError(line_no, f"expected 5 fields, got {len(row)}")
            try:
                ts = ts_memo.get(row[0])
                if ts is None:
                    ts = ts_memo[row[0]] = parse_timestamp(row[0])
                kpi = kpi_memo.get((row[1], row[2]))
                if kpi is None:
                    kpi = kpi_memo[(row[1], row[2])] = KpiId(sys.intern(row[1]), sys.intern(row[2]))
                events.append(AnomalyEvent(ts, kpi, AnomalyKind(row[3]), float(row[4])))
            except ValueError as exc:
                raise CsvParseError(line_no, str(exc)) from None
        return events
