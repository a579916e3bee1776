"""Online anomaly detection against a trained baseline model."""

from __future__ import annotations

import csv
import logging
import math
import operator
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, TextIO, Tuple, Union

import numpy as np

from .baseline import BaselineModel
from .core import (
    CADENCE_S,
    INTERVAL_S,
    AnomalyKind,
    CsvParseError,
    Grids,
    KpiId,
    TimeSeries,
    format_timestamp,
    hour_of_week,
    lags,
    parse_timestamp,
)
from .io import _kpi_fields, _open_text

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
    """(start, lo, hi) arrays: the start time and the ``[lo, hi)`` index range
    of every ``run_start``-aligned interval that holds a sample.

    Samples before ``run_start`` fall in no interval; they still count as
    positions, so they serve as lag history.
    """
    first = run_start + max(0, (int(timestamps[0]) - run_start) // INTERVAL_S) * INTERVAL_S
    m0 = int(np.searchsorted(timestamps, first))
    k = (timestamps[m0:] - first) // INTERVAL_S
    lo = m0 + np.flatnonzero(np.diff(k, prepend=-1))
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[-1:] = len(timestamps)
    return first + k[lo - m0] * INTERVAL_S, lo, hi


def _edge_scores(
    coef: np.ndarray, residual_std: np.ndarray, x: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """RMS(one-step residuals) / residual_std of every edge over every
    ``[lo, hi)`` interval, as an [edges, intervals] matrix.

    Row i of ``x`` and ``y`` holds edge i's aligned cause and effect values
    and row i of ``coef`` its 2p + 1 coefficients; every ``lo`` is at least
    p.  The prediction adds the lag terms in a fixed order and each
    interval's squares are summed as one contiguous row, so a score does not
    depend on how many edges or intervals are scored together.
    """
    p = coef.shape[1] // 2
    y_lags, x_lags = lags(y, p), lags(x, p)
    pred = np.empty((len(coef), y.shape[1] - p))
    pred[:] = coef[:, :1]
    for i in range(p):
        pred += coef[:, 1 + i, None] * y_lags[:, i]
        pred += coef[:, p + 1 + i, None] * x_lags[:, i]
    sq = (y[:, p:] - pred) ** 2
    h = hi - lo
    sums = np.empty((len(coef), len(lo)))
    for width in np.unique(h):
        at = np.flatnonzero(h == width)
        cols = (lo[at] - p)[:, None] + np.arange(width)
        sums[:, at] = np.add.reduce(np.take(sq, cols, axis=1), axis=-1)
    return np.sqrt(sums / h) / residual_std[:, None]


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

    Intervals are aligned to ``run_start``.  A KPI is evaluated in an interval
    only when at least half of the expected samples are present; KPIs without
    a baseline entry are skipped with a warning.

    Univariate: an interval is anomalous when the largest z-score
    |y - expected| / bucket std of its samples exceeds the baseline's k_sigma;
    the score is that z.  Multivariate: each edge predicts its effect one step
    ahead from the p preceding aligned samples of both KPIs; the score is
    RMS(residuals over the interval) / residual_std, raised on the effect
    when it exceeds ``tau``, which must be finite and non-negative.  p is the
    model's lag order; an interval needs p aligned samples before it.

    The work is done on the model's :class:`~faultcast.baseline.DetectionPlan`:
    the input's KPIs are numbered once, KPIs sampled at identical timestamps
    are scored as one [KPIs, samples] block, and edges are scored in blocks
    taken from the plan's arrays.  The events come back as
    :class:`AnomalyEvents` columns over the plan's KPIs, sorted by (interval
    start, KPI, kind), with the worst score over an effect's incoming edges.
    """
    check_tau(tau)
    plan = model.plan
    expected = INTERVAL_S // CADENCE_S
    grids = Grids(series_map, plan.kpis)
    if np.count_nonzero(grids.grid_of >= 0) < len(series_map):
        for kpi in sorted(series_map.keys() - model.baselines.keys()):
            logger.warning("detect: no baseline for %s; skipping", kpi)
    # one [KPIs, samples] block per grid; a KPI's row in its block
    blocks = [np.array([grids.series[k].values for k in ks]) for ks in grids.members]
    row_of = np.zeros(len(plan.kpis), dtype=np.intp)
    # exceedance columns: (start, KPI, kind, score)
    found = [(np.empty(0, np.int64), np.empty(0, np.intp), _UNIVARIATE, np.empty(0))]
    for ks, timestamps, values in zip(grids.members, grids.timestamps, blocks):
        row_of[ks] = np.arange(len(ks))
        starts, lo, hi = _interval_bins(timestamps, run_start)
        bucket = hour_of_week(timestamps)
        z = np.abs(values - plan.bucket_means[ks[:, None], bucket]) / plan.bucket_stds[ks[:, None], bucket]
        peaks = np.maximum.reduceat(z, lo, axis=1)
        r, i = np.nonzero((2 * (hi - lo) >= expected) & (peaks > plan.k_sigma[ks, None]))
        found.append((starts[i], ks[r], _UNIVARIATE, peaks[r, i]))

    edges, p = plan.edges, plan.lag_order
    cause_grid, effect_grid = grids.grid_of[edges.cause], grids.grid_of[edges.effect]
    # each edge's (cause grid, effect grid) as one number; -1: an endpoint is missing
    present = (cause_grid >= 0) & (effect_grid >= 0)
    pair = np.where(present, cause_grid * len(blocks) + effect_grid, -1)
    for key in np.unique(pair[pair >= 0]):
        cause_g, effect_g = divmod(int(key), len(blocks))
        common, ic, ie = grids.common(cause_g, effect_g)
        if len(common) == 0:
            continue
        starts, lo, hi = _interval_bins(common, run_start)
        keep = (2 * (hi - lo) >= expected) & (lo >= p)
        starts, lo, hi = starts[keep], lo[keep], hi[keep]
        if len(lo) == 0:
            continue
        at = np.flatnonzero(pair == key)
        step = max(1, _CHUNK_CELLS // len(common))  # bounds the [edges, samples] temporaries
        for chunk in np.split(at, np.arange(step, len(at), step)):
            cause, effect = edges.cause[chunk], edges.effect[chunk]
            x = blocks[cause_g][row_of[cause]][:, ic]
            y = blocks[effect_g][row_of[effect]][:, ie]
            scores = _edge_scores(edges.coefficients[chunk], edges.residual_std[chunk], x, y, lo, hi)
            e, i = np.nonzero(scores > tau)
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


def read_anomaly_log(source: Union[str, os.PathLike, TextIO]) -> AnomalyEvents:
    """Read a log written by :func:`write_anomaly_log`.  A malformed row
    raises :class:`CsvParseError` with its line number."""
    with _open_text(source, "r") as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header != ANOMALY_LOG_HEADER:
            raise CsvParseError(1, f"expected header {','.join(ANOMALY_LOG_HEADER)!r}, got {header!r}")
        # a log repeats few distinct timestamps and KPIs: parse each once;
        # the KPIs' names are interned
        ts_memo: Dict[str, int] = {}
        kpi_memo: Dict[Tuple[str, str], int] = {}
        kpis: List[KpiId] = []
        starts, numbers, kinds, scores = [], [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise CsvParseError(line_no, f"expected 5 fields, got {len(row)}")
            try:
                ts = ts_memo.get(row[0])
                if ts is None:
                    ts = ts_memo[row[0]] = parse_timestamp(row[0])
                k = kpi_memo.get((row[1], row[2]))
                if k is None:
                    kpis.append(KpiId(sys.intern(row[1]), sys.intern(row[2])))
                    k = kpi_memo[(row[1], row[2])] = len(kpis) - 1
                kind = _KIND_CODES.get(row[3])
                if kind is None:
                    AnomalyKind(row[3])  # raises, naming the text
                score = float(row[4])
                if not 0.0 <= score < math.inf:
                    raise ValueError(_SCORE_ERROR)
            except ValueError as exc:
                raise CsvParseError(line_no, str(exc)) from None
            starts.append(ts)
            numbers.append(k)
            kinds.append(kind)
            scores.append(score)
        return AnomalyEvents(kpis, starts, numbers, kinds, scores)
