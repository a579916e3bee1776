"""Online anomaly detection against a trained baseline model."""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .baseline import BaselineModel, GrangerEdge, UnivariateBaseline
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


@dataclass(frozen=True, order=True)
class AnomalyEvent:
    """One KPI flagged anomalous in one collection interval."""

    interval_start: int
    kpi: KpiId
    kind: AnomalyKind
    score: float

    def __post_init__(self):
        if self.score < 0 or not math.isfinite(self.score):
            raise ValueError("anomaly score must be finite and non-negative")


def detect_univariate(
    baseline: UnivariateBaseline,
    timestamps: Sequence[int],
    values: Sequence[float],
    interval_start: Optional[int] = None,
) -> Optional[AnomalyEvent]:
    """Check one interval's samples against the seasonal band.

    The interval is anomalous iff the largest z-score |y - expected| / bucket
    std exceeds the model's k_sigma; the score is that largest z.
    """
    timestamps = np.asarray(timestamps, dtype=np.int64)
    if len(timestamps) == 0:
        return None
    z = baseline.zscores(timestamps, values)
    peak = float(z.max())
    if peak > baseline.k_sigma:
        start = int(timestamps[0]) if interval_start is None else int(interval_start)
        return AnomalyEvent(start, baseline.kpi, AnomalyKind.UNIVARIATE, peak)
    return None


def predict_from_edge(edge: GrangerEdge, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One-step predictions of the effect series over its last positions.

    ``x`` and ``y`` are aligned histories ending at the prediction horizon;
    predictions are produced for every position with a full set of lags.
    """
    p = edge.lag_order
    if len(y) <= p:
        return np.empty(0)
    coef = np.asarray(edge.coefficients)
    n = len(y)
    pred = np.full(n - p, coef[0])
    for i in range(1, p + 1):
        pred += coef[i] * y[p - i : n - i]
        pred += coef[p + i] * x[p - i : n - i]
    return pred


def detect_multivariate(
    edge: GrangerEdge,
    x_recent: Sequence[float],
    y_recent: Sequence[float],
    h: int,
    tau: float = DEFAULT_TAU,
    interval_start: Optional[int] = None,
) -> Optional[AnomalyEvent]:
    """Score the effect KPI of one edge over its last ``h`` samples.

    The score is RMS(one-step residuals) / residual_std; an event is raised on
    the effect KPI when it exceeds ``tau``.  Returns None (with a log entry)
    when the history is too short for ``h`` predictions.
    """
    x = np.asarray(x_recent, dtype=float)
    y = np.asarray(y_recent, dtype=float)
    if h <= 0:
        raise ValueError("h must be positive")
    p = edge.lag_order
    if len(y) < p + h or len(x) < p + h:
        logger.debug(
            "multivariate %s -> %s skipped: need %d samples, have %d",
            edge.cause,
            edge.effect,
            p + h,
            min(len(x), len(y)),
        )
        return None
    pred = predict_from_edge(edge, x, y)[-h:]
    resid = y[-h:] - pred
    score = float(np.sqrt(np.mean(resid**2)) / edge.residual_std)
    if score > tau:
        start = 0 if interval_start is None else int(interval_start)
        return AnomalyEvent(start, edge.effect, AnomalyKind.MULTIVARIATE, score)
    return None


def _interval_slices(timestamps: np.ndarray, run_start: int, interval_s: int):
    """Yield (interval_start, lo, hi) index ranges per collection interval,
    from the first ``run_start``-aligned interval that holds a sample."""
    if len(timestamps) == 0:
        return
    end = int(timestamps[-1]) + 1
    start = run_start + max(0, (int(timestamps[0]) - run_start) // interval_s) * interval_s
    while start < end:
        lo = np.searchsorted(timestamps, start, side="left")
        hi = np.searchsorted(timestamps, start + interval_s, side="left")
        yield start, int(lo), int(hi)
        start += interval_s


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
    a baseline entry are skipped with a warning.  Events come back sorted by
    (interval start, KPI, kind).
    """
    if interval_s <= 0 or interval_s % cadence_s != 0:
        raise ValueError("interval must be a positive multiple of the cadence")
    events: List[AnomalyEvent] = []
    expected = interval_s // cadence_s

    for kpi in sorted(series_map):
        if kpi not in model.baselines:
            logger.warning("detect: no baseline for %s; skipping", kpi)
            continue
        baseline = model.baselines[kpi]
        series = series_map[kpi]
        for interval_start, lo, hi in _interval_slices(series.timestamps, run_start, interval_s):
            if 2 * (hi - lo) < expected:
                continue
            event = detect_univariate(
                baseline,
                series.timestamps[lo:hi],
                series.values[lo:hi],
                interval_start=interval_start,
            )
            if event is not None:
                events.append(event)

    # Several causes can point at one effect KPI; keep a single verdict per
    # (interval, effect) carrying the worst score over its incoming edges.
    worst: Dict[Tuple[int, KpiId], AnomalyEvent] = {}
    for edge in model.edges:
        if edge.cause not in series_map or edge.effect not in series_map:
            continue
        cause = series_map[edge.cause]
        effect = series_map[edge.effect]
        common, ic, ie = np.intersect1d(
            cause.timestamps, effect.timestamps, return_indices=True
        )
        if len(common) == 0:
            continue
        x = cause.values[ic]
        y = effect.values[ie]
        p = edge.lag_order
        for interval_start, lo, hi in _interval_slices(common, run_start, interval_s):
            h = hi - lo
            if 2 * h < expected or lo < p:
                continue
            event = detect_multivariate(
                edge, x[:hi], y[:hi], h, tau=tau, interval_start=interval_start
            )
            if event is not None:
                key = (interval_start, edge.effect)
                seen = worst.get(key)
                if seen is None or event.score > seen.score:
                    worst[key] = event
    events.extend(worst.values())

    events.sort()
    return events


# ---------------------------------------------------------------------------
# the anomaly log


def write_anomaly_log(events: Sequence[AnomalyEvent], target: Union[str, os.PathLike, TextIO]) -> None:
    """Write events as CSV: interval_start,resource,metric,kind,score."""
    stream, owned = _open_text(target, "w")
    try:
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
    finally:
        if owned:
            stream.close()


def read_anomaly_log(source: Union[str, os.PathLike, TextIO]) -> List[AnomalyEvent]:
    stream, owned = _open_text(source, "r")
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header != ANOMALY_LOG_HEADER:
            raise CsvParseError(1, f"expected header {','.join(ANOMALY_LOG_HEADER)!r}, got {header!r}")
        events = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise CsvParseError(line_no, f"expected 5 fields, got {len(row)}")
            try:
                events.append(
                    AnomalyEvent(
                        interval_start=parse_timestamp(row[0]),
                        kpi=KpiId(row[1], row[2]),
                        kind=AnomalyKind(row[3]),
                        score=float(row[4]),
                    )
                )
            except ValueError as exc:
                raise CsvParseError(line_no, str(exc)) from None
        return events
    finally:
        if owned:
            stream.close()
