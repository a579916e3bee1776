"""Online anomaly detection against a trained baseline model."""

from __future__ import annotations

import logging
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, TextIO, Union

import numpy as np

from .baseline import BaselineModel
from .core import (
    CADENCE_S,
    INTERVAL_S,
    AnomalyKind,
    FaultcastError,
    Frame,
    KpiId,
    TimeSeries,
    format_timestamp,
    hour_of_week,
    lags,
)
from .io import _kpi_fields, _open_text, read_rows

logger = logging.getLogger(__name__)

DEFAULT_TAU = 3.0

ANOMALY_LOG_HEADER = ["interval_start", "resource", "metric", "kind", "score"]

#: Cells of one [edges, samples] block scored at once by the multivariate
#: detector (2 MB of float64 per temporary).
_CHUNK_CELLS = 1 << 18

_SCORE_ERROR = "anomaly score must be finite and non-negative"


@dataclass(frozen=True, order=True, slots=True)
class AnomalyEvent:
    """One KPI flagged anomalous in one collection interval."""

    interval_start: int
    kpi: KpiId
    kind: AnomalyKind
    score: float

    def __post_init__(self):
        if self.score < 0 or not math.isfinite(self.score):
            raise ValueError(_SCORE_ERROR)


#: An event column's kind codes index this tuple; it is in the order
#: AnomalyEvent sorts kinds, so sorting codes sorts events.
_KINDS = (AnomalyKind.MULTIVARIATE, AnomalyKind.UNIVARIATE)
_MULTIVARIATE, _UNIVARIATE = range(len(_KINDS))
_KIND_CODES = {kind.value: code for code, kind in enumerate(_KINDS)}


class AnomalyEvents(Sequence):
    """An immutable sequence of :class:`AnomalyEvent` held as columns.

    Event i is KPI ``kpis[kpi[i]]`` flagged in the interval starting at
    ``start[i]`` by the detector ``kind[i]`` (0 Multivariate, 1 Univariate)
    with ``score[i]``.  Iterating or indexing builds the events on demand;
    the events of one interval share one int for its start.  Compares equal
    to any sequence of equal events.
    """

    __slots__ = ("kpis", "start", "kpi", "kind", "score")

    def __init__(self, kpis, start, kpi, kind, score):
        columns = [  # copies: the caller's arrays stay writable
            np.array(start, dtype=np.int64),
            np.array(kpi, dtype=np.int32),
            np.array(kind, dtype=np.int8),
            np.array(score, dtype=np.float64),
        ]
        if any(column.shape != (len(columns[0]),) for column in columns):
            raise ValueError("event columns must be 1-d and of equal length")
        if not ((0 <= columns[1]) & (columns[1] < len(kpis))).all():
            raise ValueError("event KPI numbers must index the KPI tuple")
        if not ((0 <= columns[2]) & (columns[2] < len(_KINDS))).all():
            raise ValueError("event kind codes must be 0 or 1")
        if not ((columns[3] >= 0) & (columns[3] < math.inf)).all():
            raise ValueError(_SCORE_ERROR)
        object.__setattr__(self, "kpis", tuple(kpis))
        for name, column in zip(self.__slots__[1:], columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @classmethod
    def of(cls, events: Sequence[AnomalyEvent]) -> "AnomalyEvents":
        """``events`` as columns; an :class:`AnomalyEvents` is returned as is."""
        if isinstance(events, cls):
            return events
        numbers: Dict[KpiId, int] = {}
        kpi = [numbers.setdefault(event.kpi, len(numbers)) for event in events]
        return cls(
            tuple(numbers),
            [event.interval_start for event in events],
            kpi,
            [_KINDS.index(event.kind) for event in events],
            [event.score for event in events],
        )

    def __setattr__(self, name, value):
        raise AttributeError("AnomalyEvents is immutable")

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return AnomalyEvents(self.kpis, self.start[i], self.kpi[i], self.kind[i], self.score[i])
        start, kpi, kind, score = int(self.start[i]), self.kpi[i], self.kind[i], float(self.score[i])
        return AnomalyEvent(start, self.kpis[kpi], _KINDS[kind], score)

    def __iter__(self):
        shared: Dict[int, int] = {}
        return map(
            AnomalyEvent,
            [shared.setdefault(start, start) for start in self.start.tolist()],
            map(self.kpis.__getitem__, self.kpi.tolist()),
            map(_KINDS.__getitem__, self.kind.tolist()),
            self.score.tolist(),
        )

    def __eq__(self, other):
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"AnomalyEvents({list(self)!r})"


def _interval_bins(timestamps: np.ndarray, run_start: int):
    """(start, lo) arrays: the start time and the first index of every
    ``run_start``-aligned interval that holds a sample; it ends where the
    next begins.

    Samples before ``run_start`` fall in no interval; they still serve as
    lag history.
    """
    first = run_start + max(0, (int(timestamps[0]) - run_start) // INTERVAL_S) * INTERVAL_S
    m0 = int(np.searchsorted(timestamps, first))
    k = (timestamps[m0:] - first) // INTERVAL_S
    lo = m0 + np.flatnonzero(np.diff(k, prepend=-1))
    return first + k[lo - m0] * INTERVAL_S, lo


def _edge_scores(coef: np.ndarray, x: np.ndarray, y: np.ndarray, full: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Sums of squared one-step residuals of every edge over every interval
    starting at ``lo``, as an [edges, intervals] matrix: row i of ``x``, ``y``
    and ``coef`` holds edge i's cause and effect frame rows and its 2p + 1
    coefficients, and only the columns where row i of ``full`` holds count.
    The prediction adds the lag terms in a fixed order and each interval's
    squares, 0 where not counted, are summed as one contiguous row, so a sum
    does not depend on how many edges or intervals are scored together.
    """
    p = coef.shape[1] // 2
    y_lags, x_lags = lags(y, p), lags(x, p)
    pred = np.empty((len(coef), y.shape[1] - p))
    pred[:] = coef[:, :1]
    for i in range(p):
        pred += coef[:, 1 + i, None] * y_lags[:, i]
        pred += coef[:, p + 1 + i, None] * x_lags[:, i]
    sq = np.zeros(y.shape)
    np.copyto(sq[:, p:], (y[:, p:] - pred) ** 2, where=full[:, p:])
    h = np.diff(lo, append=y.shape[1])
    sums = np.empty((len(coef), len(lo)))
    for width in np.unique(h):
        at = np.flatnonzero(h == width)
        cols = lo[at][:, None] + np.arange(width)
        sums[:, at] = np.add.reduce(np.take(sq, cols, axis=1), axis=-1)
    return sums


def check_tau(tau: float) -> None:
    """Reject a multivariate threshold that is negative, which flags every
    edge, or not finite, which switches the detector off."""
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau {tau!r} must be finite and non-negative")


def detect_stream(
    model: BaselineModel,
    series_map: Dict[KpiId, TimeSeries],
    run_start: int,
    *,
    tau: float = DEFAULT_TAU,
) -> AnomalyEvents:
    """Run both detectors over a run, one verdict per KPI per interval.

    The run must hold every KPI of the model and lie on one cadence grid
    (:meth:`~faultcast.core.Frame.of`), or :class:`FaultcastError` says
    which does not; KPIs without a baseline entry are skipped with a
    warning.  Intervals are aligned to ``run_start``.

    Univariate: a KPI is evaluated in an interval holding at least half of
    the expected samples; the score is the largest z-score |y - expected| /
    bucket std, raised when it exceeds the baseline's k_sigma.
    Multivariate: each edge predicts its effect one step ahead from both
    KPIs' samples 1..p cadences earlier, p being the model's lag order.  An
    (edge, interval) is scored when at least half of the expected samples
    hold both KPIs and each of them has its p lags; the score, RMS(residuals)
    / residual_std, is raised on the effect when it exceeds ``tau``, which
    must be finite and non-negative.

    The work is done on the model's :class:`~faultcast.baseline.DetectionPlan`
    and the run's :class:`~faultcast.core.Frame`, edges in blocks.  The
    events come back as :class:`AnomalyEvents` columns over the plan's KPIs,
    sorted by (interval start, KPI, kind), with the worst score over an
    effect's incoming edges.
    """
    check_tau(tau)
    plan = model.plan
    frame = Frame.of(series_map, plan.kpis)
    present = np.isfinite(frame.values)
    missing = np.flatnonzero(~present.any(axis=1))  # a series holds a sample
    if len(missing):
        raise FaultcastError(f"the data lacks {len(missing)} of the baseline's KPIs, first {plan.kpis[missing[0]]}")
    if len(series_map) > len(plan.kpis):
        for kpi in sorted(series_map.keys() - model.baselines.keys()):
            logger.warning("detect: no baseline for %s; skipping", kpi)
    if not len(frame.timestamps):
        return AnomalyEvents(plan.kpis, [], [], [], [])
    expected = INTERVAL_S // CADENCE_S
    starts, lo = _interval_bins(frame.timestamps, run_start)
    bucket = hour_of_week(frame.timestamps)
    z = np.abs(frame.values - plan.bucket_means[:, bucket]) / plan.bucket_stds[:, bucket]
    peaks = np.fmax.reduceat(z, lo, axis=1)
    coverage = np.add.reduceat(present, lo, axis=1, dtype=np.intp)
    r, i = np.nonzero((2 * coverage >= expected) & (peaks > plan.k_sigma[:, None]))
    # exceedance columns: (start, KPI, kind, score)
    found = [(starts[i], r, _UNIVARIATE, peaks[r, i])]

    edges, p = plan.edges, plan.lag_order
    history = frame.history(p)
    step = max(1, _CHUNK_CELLS // len(frame.timestamps))  # bounds the [edges, timestamps] temporaries
    for chunk in np.split(np.arange(len(edges.cause)), np.arange(step, len(edges.cause), step)):
        cause, effect = edges.cause[chunk], edges.effect[chunk]
        full = history[cause] & history[effect]
        aligned = np.add.reduceat(present[cause] & present[effect], lo, axis=1, dtype=np.intp)
        scored = np.add.reduceat(full, lo, axis=1, dtype=np.intp)
        # at least half the expected samples aligned, and none of them short of lags
        ok = (2 * scored >= expected) & (scored == aligned)
        if not ok.any():
            continue
        sums = _edge_scores(edges.coefficients[chunk], frame.values[cause], frame.values[effect], full, lo)
        scores = np.sqrt(sums / np.maximum(scored, 1)) / edges.residual_std[chunk, None]
        e, i = np.nonzero(ok & (scores > tau))
        found.append((starts[i], effect[e], _MULTIVARIATE, scores[e, i]))

    start = np.concatenate([part[0] for part in found])
    kpi = np.concatenate([part[1] for part in found])
    kind = np.concatenate([np.full(len(part[0]), part[2], np.int8) for part in found])
    score = np.concatenate([part[3] for part in found])
    # one verdict per (start, KPI, kind) cell: the first in this order, the
    # worst score over an effect's incoming edges
    order = np.lexsort((-score, kind, kpi, start))
    start, kpi, kind, score = start[order], kpi[order], kind[order], score[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(start) != 0) | (np.diff(kpi) != 0) | (np.diff(kind) != 0)
    return AnomalyEvents(plan.kpis, start[first], kpi[first], kind[first], score[first])


# ---------------------------------------------------------------------------
# the anomaly log


def write_anomaly_log(events: Sequence[AnomalyEvent], target: Union[str, os.PathLike, TextIO]) -> None:
    """Write events as CSV: interval_start,resource,metric,kind,score.

    Each distinct interval start is formatted once, each KPI's names once
    (quoted by the csv writer) and the scores by one ``repr`` of the whole
    column.
    """
    events = AnomalyEvents.of(events)
    starts, at = np.unique(events.start, return_inverse=True)
    stamps = [format_timestamp(ts) + "," for ts in starts.tolist()]
    names = [_kpi_fields(kpi)[1:] for kpi in events.kpis]
    kinds = [kind.value + "," for kind in _KINDS]
    # repr of a list of floats is the repr of each, joined by ", "
    scores = repr(events.score.tolist())[1:-1].split(", ")
    with _open_text(target, "w") as stream:
        stream.write(",".join(ANOMALY_LOG_HEADER) + "\n")
        rows = zip(at.tolist(), events.kpi.tolist(), events.kind.tolist(), scores)
        stream.writelines(f"{stamps[s]}{names[k]}{kinds[c]}{score}\n" for s, k, c, score in rows)


def _kinds_and_scores(kinds: List[str], scores: List[str]):
    """The kind codes and scores of anomaly log rows.  An unknown kind, then
    a score that is not a finite and non-negative number, raises
    :class:`ValueError`, naming the first text where it can."""
    try:
        codes = list(map(_KIND_CODES.__getitem__, kinds))
    except KeyError as exc:
        AnomalyKind(exc.args[0])  # the text is no kind: this raises, naming it
    values = list(map(float, scores))
    if not (all(map(math.isfinite, values)) and min(values, default=0.0) >= 0.0):
        raise ValueError(_SCORE_ERROR)
    return codes, values


def read_anomaly_log(source: Union[str, os.PathLike, TextIO]) -> AnomalyEvents:
    """Read a log written by :func:`write_anomaly_log`, in file order, by the
    KPI CSV's row reader :func:`~faultcast.io.read_rows`.  A malformed row
    raises :class:`CsvParseError` with its line number."""
    rows = read_rows(source, ANOMALY_LOG_HEADER, _kinds_and_scores, "bd")
    _, start, kpi, kind, score = rows.columns
    return AnomalyEvents(rows.kpis, start, kpi, kind, score)
