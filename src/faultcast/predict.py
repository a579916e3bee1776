"""Online failure prediction: the alert state machine and earliness measures."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .baseline import BaselineModel
from .core import (
    _KINDS,
    INTERVAL_S,
    FailureClass,
    KpiId,
    OrderingError,
    TimeSeries,
    format_timestamp,
)
from .detect import DEFAULT_TAU, AnomalyEvent, AnomalyEvents, detect_stream
from .io import RunManifest, _open_text
from .signature import SignatureModel, Windows, window_cells

DEFAULT_CONFIDENCE = 0.9
DEFAULT_STREAK = 4

ALERT_LOG_HEADER = ["raised_at", "kind", "fault_type", "resource", "confidence", "evidence_count"]


class AlertKind(str, Enum):
    GENERAL = "General"
    FAILURE_SPECIFIC = "FailureSpecific"


@dataclass(frozen=True)
class Alert:
    """A prediction raised online.

    General alerts say "something non-nominal is building up" and carry no
    class; failure-specific alerts name the (fault type, resource) pair and
    are only raised at or above the confidence threshold.  ``evidence`` is the
    window's feature set: its distinct (KpiId, AnomalyKind) pairs.
    """

    kind: AlertKind
    raised_at: int
    failure_class: Optional[FailureClass]
    confidence: float
    evidence: frozenset

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        if self.kind is AlertKind.FAILURE_SPECIFIC:
            if self.failure_class is None or self.failure_class.is_normal:
                raise ValueError("failure-specific alerts must carry a non-Normal class")


@dataclass(frozen=True)
class PredictorState:
    """Immutable predictor state threaded through :func:`step`.

    ``events`` holds the anomaly events of the window ending with the last
    interval stepped, each stamped with the start of the interval it came
    in, over KPIs in or outside the vocabulary.  The streak counts
    consecutive intervals whose top class stayed the same at or above the
    confidence threshold.
    """

    window_min: int
    events: AnomalyEvents = field(default_factory=lambda: AnomalyEvents((), [], [], [], []))
    last_interval: Optional[int] = None
    streak_class: Optional[FailureClass] = None
    streak_len: int = 0
    active_class: Optional[FailureClass] = None
    fs_fired: bool = False


def new_state(window_min: int) -> PredictorState:
    if window_min <= 0:
        raise ValueError("window length must be positive")
    return PredictorState(window_min=window_min)


def check_alert_rule(confidence_threshold: float, streak_needed: int) -> None:
    """Reject a rule under which a FailureSpecific alert could fire on every
    interval or below any confidence: the threshold must lie in [0, 1] and
    the streak be at least 1."""
    if not 0.0 <= confidence_threshold <= 1.0:
        raise ValueError(f"confidence {confidence_threshold!r} must lie in [0, 1]")
    if streak_needed < 1:
        raise ValueError(f"streak {streak_needed!r} must be at least 1")


def _advance(state: PredictorState, interval_start: int, top, rule) -> Tuple[PredictorState, Optional[AlertKind]]:
    """One interval of the alert lifecycle, whose window's top class and
    its probability are ``top``: the successor and the kind of alert the
    interval raises, if any."""
    (top_class, top_p), (confidence_threshold, streak_needed) = top, rule
    if top_class.is_normal:
        reset = dict(streak_class=None, streak_len=0, active_class=None, fs_fired=False)
        return replace(state, last_interval=interval_start, **reset), None

    # streak bookkeeping: reset on class change or low confidence
    if top_p >= confidence_threshold:
        if state.streak_class == top_class:
            streak_class, streak_len, fs_fired = top_class, state.streak_len + 1, state.fs_fired
        else:
            streak_class, streak_len, fs_fired = top_class, 1, False
    else:
        streak_class, streak_len, fs_fired = None, 0, False

    active_class, kind = state.active_class, None
    if active_class != top_class:
        # lifecycle (re)starts with a General alert for the new class context
        kind, active_class = AlertKind.GENERAL, top_class
    elif streak_len >= streak_needed and not fs_fired:
        kind, fs_fired = AlertKind.FAILURE_SPECIFIC, True
    fields = dict(streak_class=streak_class, streak_len=streak_len, active_class=active_class, fs_fired=fs_fired)
    return replace(state, last_interval=interval_start, **fields), kind


def _replay(state: PredictorState, events: AnomalyEvents, start: int, end: int, signature: SignatureModel, rule):
    """Run the alert lifecycle from ``state`` over the intervals ``start``,
    ``start + 5 min``, ... before ``end``; returns the successor, whose
    events are the last interval's window, and the alerts raised.

    ``events`` are sorted by start, on the intervals' grid; those before
    ``start`` are history.  The window of the interval at ``s`` holds the
    events in ``[min(s + 5 min - W, s), s + 5 min)``: it changes only at the
    first interval, where an event starts and where it leaves, ``max(1, W //
    5 min)`` intervals later.  One :meth:`SignatureModel.top` call
    classifies each window between two changes.  Over a stretch of equal
    windows the lifecycle settles within ``streak_needed + 1`` intervals,
    and only the streak grows over the rest.  The work is bounded by the
    events, not the span.
    """
    check_alert_rule(*rule)
    n = -(-(end - start) // INTERVAL_S)
    if n <= 0:
        return state, []
    w = state.window_min * 60
    stay = max(1, w // INTERVAL_S)
    entered = (events.start - start) // INTERVAL_S
    changes = np.unique(np.concatenate([[0], entered, entered + stay]))
    changes = changes[(changes >= 0) & (changes < n)]
    lengths = np.diff(changes, append=n).tolist()
    at = start + changes * INTERVAL_S
    bounds = np.stack([np.minimum(at + INTERVAL_S - w, at), at + INTERVAL_S], axis=1)
    cells = window_cells(events, events.kpi, len(events.kpis), bounds)
    tops = signature.top(Windows(events.kpis, cells, bounds[:, 0], bounds[:, 1], ()))
    alerts: List[Alert] = []
    for i, (top, steps) in enumerate(zip(tops, lengths)):
        ran = min(steps, rule[1] + 1)
        for j in range(ran):
            state, kind = _advance(state, int(at[i]) + j * INTERVAL_S, top, rule)
            if kind is not None:
                evidence = frozenset((events.kpis[k], _KINDS[c]) for k, c in zip(*np.nonzero(cells[i])))
                fs_class = top[0] if kind is AlertKind.FAILURE_SPECIFIC else None
                alerts.append(Alert(kind, state.last_interval + INTERVAL_S, fs_class, top[1], evidence))
        if steps > ran:  # settled: only a running streak grows
            grown = state.streak_len + (steps - ran) * (state.streak_class is not None)
            state = replace(state, last_interval=int(at[i]) + (steps - 1) * INTERVAL_S, streak_len=grown)
    lo, hi = np.searchsorted(events.start, bounds[-1])
    return replace(state, events=events[lo:hi]), alerts


def step(
    state: PredictorState,
    interval_start: int,
    events: Sequence[AnomalyEvent],
    signature: SignatureModel,
    *,
    confidence_threshold: float = DEFAULT_CONFIDENCE,
    streak_needed: int = DEFAULT_STREAK,
) -> Tuple[PredictorState, Optional[Alert]]:
    """Consume one collection interval's anomaly events.

    Pure: returns the successor state and at most one alert.  A General alert
    fires when the window's top class turns non-Normal (or switches to a new
    class, which restarts the lifecycle); a FailureSpecific alert fires once
    per streak after ``streak_needed`` consecutive intervals of the same class
    at or above ``confidence_threshold``.  All-Normal input never alerts.
    The rule is checked by :func:`check_alert_rule`.  The events join the
    window stamped with ``interval_start``, and :func:`_replay` judges it.
    """
    if state.last_interval is not None and interval_start <= state.last_interval:
        raise OrderingError(
            f"interval {format_timestamp(interval_start)} is not after "
            f"{format_timestamp(state.last_interval)}"
        )
    window = state.events
    if len(events):
        events = AnomalyEvents.of(events)
        kpis, numbers = window.kpis, events.kpi
        if events.kpis != kpis:  # number the KPIs the window has not seen after its own
            index = {kpi: k for k, kpi in enumerate(kpis)}
            numbers = np.array([index.setdefault(kpi, len(index)) for kpi in events.kpis], dtype=np.intp)[numbers]
            kpis = tuple(index)
        window = AnomalyEvents(
            kpis,
            np.concatenate([window.start, np.full(len(events), interval_start)]),
            np.concatenate([window.kpi, numbers]),
            np.concatenate([window.kind, events.kind]),
            np.concatenate([window.score, events.score]),
        )
    rule = (confidence_threshold, streak_needed)
    state, alerts = _replay(state, window, interval_start, interval_start + INTERVAL_S, signature, rule)
    return state, (alerts[0] if alerts else None)


def run_predictor(
    baseline: BaselineModel,
    signature: SignatureModel,
    series_map: Dict[KpiId, TimeSeries],
    run_start: int,
    run_end: int,
    *,
    tau: float = DEFAULT_TAU,
    confidence_threshold: float = DEFAULT_CONFIDENCE,
    streak_needed: int = DEFAULT_STREAK,
) -> List[Alert]:
    """Detect anomalies over a run and replay them through the predictor."""
    events = detect_stream(baseline, series_map, run_start, tau=tau)  # sorted by interval start
    rule = (confidence_threshold, streak_needed)
    return _replay(new_state(signature.window_min), events, run_start, run_end, signature, rule)[1]


# ---------------------------------------------------------------------------
# earliness


@dataclass(frozen=True)
class EarlinessReport:
    """Time-to-prediction and time-to-failure measures for one faulty run.

    Times are in seconds.  A measure is None when the corresponding alert was
    never raised; the time-to-failure measures are None with
    ``failure_observed`` False when no failure landed inside the horizon (and
    render as "> horizon").  Alerts raised before the fault became active do
    not produce negative times; they are tallied in ``false_alarms``.
    """

    ttgp_s: Optional[int]
    ttfsp_s: Optional[int]
    ttf_gp_s: Optional[int]
    ttf_fsp_s: Optional[int]
    failure_observed: bool
    horizon_s: int
    false_alarms: int

    @staticmethod
    def _minutes(seconds: Optional[int]) -> str:
        return f"{seconds / 60:.0f} mins"

    def render_ttgp(self) -> str:
        return "none" if self.ttgp_s is None else self._minutes(self.ttgp_s)

    def render_ttfsp(self) -> str:
        return "none" if self.ttfsp_s is None else self._minutes(self.ttfsp_s)

    def _render_ttf(self, value: Optional[int], alerted: bool) -> str:
        if not alerted:
            return "none"
        if not self.failure_observed:
            return f"> {self.horizon_s // 60} mins"
        return self._minutes(value)

    def render_ttf_gp(self) -> str:
        return self._render_ttf(self.ttf_gp_s, self.ttgp_s is not None)

    def render_ttf_fsp(self) -> str:
        return self._render_ttf(self.ttf_fsp_s, self.ttfsp_s is not None)


def measure_earliness(alerts: Sequence[Alert], manifest: RunManifest) -> EarlinessReport:
    """Compare the alert stream against a faulty run's ground truth.

    TTGP/TTFSP measure injection-to-alert delay for the first General and
    FailureSpecific alert at or after the fault became active; TTF measures
    alert-to-failure lead time when the run failed inside the horizon, the
    run's length.
    """
    if manifest.fault is None:
        raise ValueError(f"run {manifest.run_id} seeded no fault; earliness is undefined")
    injection = manifest.fault.injection_time

    false_alarms = sum(1 for a in alerts if a.raised_at < injection)
    first_gp = next(
        (a for a in alerts if a.kind is AlertKind.GENERAL and a.raised_at >= injection), None
    )
    first_fsp = next(
        (
            a
            for a in alerts
            if a.kind is AlertKind.FAILURE_SPECIFIC and a.raised_at >= injection
        ),
        None,
    )
    failure = manifest.failure_time
    ttgp = None if first_gp is None else first_gp.raised_at - injection
    ttfsp = None if first_fsp is None else first_fsp.raised_at - injection
    ttf_gp = None
    ttf_fsp = None
    if failure is not None:
        if first_gp is not None:
            ttf_gp = failure - first_gp.raised_at
        if first_fsp is not None:
            ttf_fsp = failure - first_fsp.raised_at
    return EarlinessReport(
        ttgp_s=ttgp,
        ttfsp_s=ttfsp,
        ttf_gp_s=ttf_gp,
        ttf_fsp_s=ttf_fsp,
        failure_observed=failure is not None,
        horizon_s=manifest.end - manifest.start,
        false_alarms=false_alarms,
    )


# ---------------------------------------------------------------------------
# the alert log


def write_alert_log(alerts: Sequence[Alert], target: Union[str, os.PathLike, TextIO]) -> None:
    """Write alerts as CSV: raised_at,kind,fault_type,resource,confidence,evidence_count."""
    with _open_text(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(ALERT_LOG_HEADER)
        for alert in alerts:
            cls = alert.failure_class
            writer.writerow(
                [
                    format_timestamp(alert.raised_at),
                    alert.kind.value,
                    "" if cls is None else cls.fault_type.value,
                    "" if cls is None else cls.resource,
                    repr(alert.confidence),
                    len(alert.evidence),
                ]
            )
