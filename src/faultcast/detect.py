"""Online anomaly detection against a trained baseline model."""

from __future__ import annotations

import logging
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, TextIO, Union

import numpy as np

from .baseline import BaselineModel
from .core import (
    _KIND_CODES,
    _KINDS,
    _MULTIVARIATE,
    _UNIVARIATE,
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
#: detector: 256 kB of float64 per buffer, so that a block's five buffers
#: stay within a core's cache.
_CHUNK_CELLS = 1 << 15

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


def _kind_pairs(model: BaselineModel, history: np.ndarray, present: np.ndarray, lo: np.ndarray):
    """The edges' masks, computed once per (cause kind, effect kind) pair:
    KPIs share a kind when their ``history`` and ``present`` rows are equal,
    so a run without gaps has one pair.  Returns each edge's pair number and,
    by pair, the [P, T] ``full`` columns where both KPIs and their p lags
    hold a sample, the [P, intervals] ``scored`` count of those and ``ok``,
    where an edge is scored: at least half the expected samples aligned, and
    none of them short of lags."""
    kinds: Dict[bytes, int] = {}
    kind = np.array([kinds.setdefault(h.tobytes() + q.tobytes(), k) for k, (h, q) in enumerate(zip(history, present))])
    pairs, pair = np.unique(kind[model.cause] * len(kind) + kind[model.effect], return_inverse=True)
    cause, effect = np.divmod(pairs, len(kind))
    full = history[cause] & history[effect]
    aligned = np.add.reduceat(present[cause] & present[effect], lo, axis=1, dtype=np.intp)
    scored = np.add.reduceat(full, lo, axis=1, dtype=np.intp)
    ok = (2 * scored >= INTERVAL_S // CADENCE_S) & (scored == aligned)
    return pair, full, scored, ok


def _edge_worst(model: BaselineModel, values: np.ndarray, present: np.ndarray, history: np.ndarray, lo: np.ndarray):
    """The worst multivariate score of each KPI over its incoming edges in
    each interval starting at ``lo``, as a [K, intervals] matrix, -inf where
    no edge is scored; and the (edge, interval) of the first score, in model
    order, that is not finite, or None.

    Each edge predicts its effect's row of ``values`` one step ahead, adding
    the lag terms in a fixed order; its squared residuals, 0 in the columns
    that do not count, are summed per interval as one contiguous row, so a
    score does not depend on which edges are scored together.  The edges are
    taken in effect order, in blocks of at most ``_CHUNK_CELLS`` cells
    through reused buffers, and each block's effects are reduced at once.
    """
    p, n = model.config.lag_order, values.shape[1]
    pair, full, scored, ok = _kind_pairs(model, history, present, lo)
    worst = np.full((len(model.kpis), len(lo)), -np.inf)
    edges = model.effect_order[ok.any(axis=1)[pair[model.effect_order]]]
    if not len(edges):
        return worst, None
    holes = p + np.flatnonzero(~full[:, p:].all(axis=0))  # columns some pair does not count
    count = np.maximum(scored, 1)
    h = np.diff(lo, append=n)
    widths = [(int(w), np.flatnonzero(h == w)) for w in np.unique(h)]
    step = max(1, _CHUNK_CELLS // n)
    rows = min(step, len(edges))
    pred, term, sq = np.empty((rows, n - p)), np.empty((rows, n - p)), np.zeros((rows, n))
    bad = []
    for first in range(0, len(edges), step):
        chunk = edges[first : first + step]
        m, on = len(chunk), pair[chunk]
        coef, y = model.coefficients[chunk], values[model.effect[chunk]]
        y_lags, x_lags = lags(y, p), lags(values[model.cause[chunk]], p)
        guess, lag, squares = pred[:m], term[:m], sq[:m]
        guess[:] = coef[:, :1]
        for i in range(p):
            guess += np.multiply(coef[:, 1 + i, None], y_lags[:, i], out=lag)
            guess += np.multiply(coef[:, p + 1 + i, None], x_lags[:, i], out=lag)
        residual = squares[:, p:]
        np.square(np.subtract(y[:, p:], guess, out=residual), out=residual)
        if len(holes):
            squares[:, holes] = np.where(full[on[:, None], holes], squares[:, holes], 0.0)
        sums = np.empty((m, len(lo)))
        for width, at in widths:
            if at[-1] - at[0] == len(at) - 1:  # consecutive intervals: one view
                cols = squares[:, lo[at[0]] : lo[at[0]] + len(at) * width].reshape(m, len(at), width)
                np.add.reduce(cols, axis=-1, out=sums[:, at[0] : at[-1] + 1])
            else:
                sums[:, at] = np.add.reduce(np.take(squares, lo[at][:, None] + np.arange(width), axis=1), axis=-1)
        scores = np.sqrt(sums / count[on]) / model.residual_std[chunk, None]
        counted = ok[on]
        e, i = np.nonzero(counted & ~np.isfinite(scores))
        bad += zip(chunk[e].tolist(), i.tolist())
        scores[~counted] = -np.inf
        effect = model.effect[chunk]
        heads = np.flatnonzero(np.diff(effect, prepend=-1))
        kpi = effect[heads]
        worst[kpi] = np.maximum(worst[kpi], np.maximum.reduceat(scores, heads, axis=0))
    return worst, min(bad, default=None)


def _too_large(name: str, start) -> FaultcastError:
    at = format_timestamp(int(start))
    return FaultcastError(f"{name}: a value in the interval at {at} is too large to score")


def _check_scores(counted: np.ndarray, scores: np.ndarray, starts: np.ndarray, name) -> None:
    """Raise :class:`FaultcastError` at the first counted [rows, intervals]
    score that is not finite: the data holds a value too large to score."""
    bad = np.argwhere(counted & ~np.isfinite(scores))
    if len(bad):
        row, i = bad[0]
        raise _too_large(name(row), starts[i])


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

    The work is done on the model's arrays
    (:class:`~faultcast.baseline.BaselineModel`) and the run's
    :class:`~faultcast.core.Frame`, edges in blocks (:func:`_edge_worst`).
    The events come back as :class:`AnomalyEvents` columns over the model's
    KPIs, sorted by (interval start, KPI, kind), with the worst score over an
    effect's incoming edges.
    """
    check_tau(tau)
    frame = Frame.of(series_map, model.kpis)
    present = np.isfinite(frame.values)
    missing = np.flatnonzero(~present.any(axis=1))  # a series holds a sample
    if len(missing):
        raise FaultcastError(f"the data lacks {len(missing)} of the baseline's KPIs, first {model.kpis[missing[0]]}")
    if len(series_map) > len(model.kpis):
        for kpi in sorted(series_map.keys() - model.baselines.keys()):
            logger.warning("detect: no baseline for %s; skipping", kpi)
    if not len(frame.timestamps):
        return AnomalyEvents(model.kpis, [], [], [], [])
    expected = INTERVAL_S // CADENCE_S
    starts, lo = _interval_bins(frame.timestamps, run_start)
    bucket = hour_of_week(frame.timestamps)
    with np.errstate(over="ignore", invalid="ignore"):  # a score beyond a float is reported below
        z = np.abs(frame.values - model.bucket_means[:, bucket]) / model.bucket_stds[:, bucket]
    peaks = np.fmax.reduceat(z, lo, axis=1)
    coverage = np.add.reduceat(present, lo, axis=1, dtype=np.intp)
    evaluated = 2 * coverage >= expected
    _check_scores(evaluated, peaks, starts, lambda r: str(model.kpis[r]))
    with np.errstate(over="ignore", invalid="ignore"):
        worst, bad = _edge_worst(model, frame.values, present, frame.history(model.config.lag_order), lo)
    if bad is not None:
        e, i = bad
        raise _too_large(f"edge {model.kpis[model.cause[e]]} -> {model.kpis[model.effect[e]]}", starts[i])
    # one verdict per (interval, KPI, kind) cell, in that order
    flags = np.zeros((len(starts), len(model.kpis), len(_KINDS)), dtype=bool)
    flags[..., _MULTIVARIATE] = (worst > tau).T
    flags[..., _UNIVARIATE] = (evaluated & (peaks > model.k_sigma[:, None])).T
    i, kpi, kind = np.nonzero(flags)
    score = np.where(kind == _MULTIVARIATE, worst[kpi, i], peaks[kpi, i])
    return AnomalyEvents(model.kpis, starts[i], kpi, kind, score)


# ---------------------------------------------------------------------------
# the anomaly log


def write_anomaly_log(events: Sequence[AnomalyEvent], target: Union[str, os.PathLike, TextIO]) -> None:
    """Write events as CSV: interval_start,resource,metric,kind,score.

    Each distinct interval start is formatted once, the names of each KPI
    the events name once (quoted by the csv writer) and the scores by one
    ``repr`` of the whole column.
    """
    events = AnomalyEvents.of(events)
    starts, at = np.unique(events.start, return_inverse=True)
    stamps = [format_timestamp(ts) + "," for ts in starts.tolist()]
    names = {k: _kpi_fields(events.kpis[k])[1:] for k in np.unique(events.kpi).tolist()}
    kinds = [kind.value + "," for kind in _KINDS]
    # repr of a list of floats is the repr of each, joined by ", "
    scores = repr(events.score.tolist())[1:-1].split(", ")
    with _open_text(target, "w") as stream:
        stream.write(",".join(ANOMALY_LOG_HEADER) + "\n")
        rows = zip(at.tolist(), events.kpi.tolist(), events.kind.tolist(), scores)
        stream.writelines(f"{stamps[s]}{names[k]}{kinds[c]}{score}\n" for s, k, c, score in rows)


def _kinds_and_scores(kinds: np.ndarray, scores: np.ndarray):
    """The kind codes and scores of anomaly log rows, from arrays of texts.
    An unknown kind, then a score that is not a finite and non-negative
    number, raises :class:`ValueError`, naming a bad text where it can."""
    names, at = np.unique(kinds, return_inverse=True)
    codes = []
    for name in names.tolist():
        name = name.decode() if isinstance(name, bytes) else name
        if name not in _KIND_CODES:
            AnomalyKind(name)  # the text is no kind: this raises, naming it
        codes.append(_KIND_CODES[name])
    values = scores.astype(np.float64)
    if not (np.isfinite(values).all() and (values >= 0.0).all()):
        raise ValueError(_SCORE_ERROR)
    return np.array(codes, np.int8)[at], values


def read_anomaly_log(source: Union[str, os.PathLike, TextIO]) -> AnomalyEvents:
    """Read a log written by :func:`write_anomaly_log`, in file order, by the
    KPI CSV's row reader :func:`~faultcast.io.read_rows`.  A malformed row
    raises :class:`CsvParseError` with its line number, and the file's name
    when ``source`` is a path."""
    with _open_text(source, "r") as stream:
        rows = read_rows(stream, ANOMALY_LOG_HEADER, _kinds_and_scores, "bd")
    start, kpi, kind, score = rows.columns
    return AnomalyEvents(rows.kpis, start, kpi, kind, score)
