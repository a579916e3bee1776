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
from .signature import SignatureModel

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


#: ``last_seen`` of a cell that never fired.
_NEVER = np.iinfo(np.int64).min


@dataclass(frozen=True, eq=False)
class PredictorState:
    """Immutable predictor state threaded through :func:`step`.

    ``last_seen[k, c]`` is the last interval start at which KPI ``kpis[k]``
    was flagged by the detector of kind code ``c`` (``_NEVER`` if it was
    not); ``kpis`` holds every KPI the events carried, in or outside the
    vocabulary.  The window's cells are those seen at or after its start.
    The streak counts consecutive intervals whose top class stayed the same
    at or above the confidence threshold.
    """

    window_min: int
    kpis: Tuple[KpiId, ...] = ()
    last_seen: np.ndarray = field(default_factory=lambda: np.full((0, 2), _NEVER))
    last_interval: Optional[int] = None
    streak_class: Optional[FailureClass] = None
    streak_len: int = 0
    active_class: Optional[FailureClass] = None
    fs_fired: bool = False

    @property
    def cells(self) -> np.ndarray:
        """The bool [K, 2] cells of the window ending with the last interval
        stepped; that interval's own cells are in it even when the window is
        shorter."""
        window_start = self.last_interval + INTERVAL_S - self.window_min * 60
        return self.last_seen >= min(window_start, self.last_interval)

    def evidence(self) -> frozenset:
        """The window's distinct (KpiId, AnomalyKind) pairs."""
        return frozenset((self.kpis[k], _KINDS[c]) for k, c in zip(*np.nonzero(self.cells)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PredictorState):
            return NotImplemented
        rest = {**vars(self), "last_seen": None} == {**vars(other), "last_seen": None}
        return rest and np.array_equal(self.last_seen, other.last_seen)


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
    The rule is checked by :func:`check_alert_rule`.
    """
    check_alert_rule(confidence_threshold, streak_needed)
    if state.last_interval is not None and interval_start <= state.last_interval:
        raise OrderingError(
            f"interval {format_timestamp(interval_start)} is not after "
            f"{format_timestamp(state.last_interval)}"
        )
    kpis, last_seen = state.kpis, state.last_seen
    if len(events):
        events = AnomalyEvents.of(events)
        numbers = events.kpi
        if events.kpis != kpis:  # number the KPIs this state has not seen after its own
            index = {kpi: k for k, kpi in enumerate(kpis)}
            numbers = np.array([index.setdefault(kpi, len(index)) for kpi in events.kpis], dtype=np.intp)[numbers]
            kpis = tuple(index)
        if len(kpis) > len(last_seen):
            last_seen = np.concatenate([last_seen, np.full((len(kpis) - len(last_seen), 2), _NEVER)])
        else:
            last_seen = last_seen.copy()  # the state before keeps its read-only array
        last_seen[numbers, events.kind] = interval_start
        last_seen.setflags(write=False)
    interim = replace(state, kpis=kpis, last_seen=last_seen, last_interval=interval_start)
    ((top_class, top_p),) = signature.top(interim)

    if top_class.is_normal:
        return replace(interim, streak_class=None, streak_len=0, active_class=None, fs_fired=False), None

    # streak bookkeeping: reset on class change or low confidence
    if top_p >= confidence_threshold:
        if state.streak_class == top_class:
            streak_class, streak_len, fs_fired = top_class, state.streak_len + 1, state.fs_fired
        else:
            streak_class, streak_len, fs_fired = top_class, 1, False
    else:
        streak_class, streak_len, fs_fired = None, 0, False

    active_class, alert = state.active_class, None
    if active_class != top_class:
        # lifecycle (re)starts with a General alert for the new class context
        alert = Alert(AlertKind.GENERAL, interval_start + INTERVAL_S, None, top_p, interim.evidence())
        active_class = top_class
    elif streak_len >= streak_needed and not fs_fired:
        alert = Alert(AlertKind.FAILURE_SPECIFIC, interval_start + INTERVAL_S, top_class, top_p, interim.evidence())
        fs_fired = True
    successor = replace(
        interim, streak_class=streak_class, streak_len=streak_len, active_class=active_class, fs_fired=fs_fired
    )
    return successor, alert


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
    state = new_state(signature.window_min)
    alerts: List[Alert] = []
    for start in range(run_start, run_end, INTERVAL_S):
        lo, hi = np.searchsorted(events.start, [start, start + 1])
        state, alert = step(
            state,
            start,
            events[lo:hi],
            signature,
            confidence_threshold=confidence_threshold,
            streak_needed=streak_needed,
        )
        if alert is not None:
            alerts.append(alert)
    return alerts


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
