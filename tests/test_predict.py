"""Online alerting: sliding-window state machine and earliness measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from faultcast.core import (
    AnomalyKind,
    FailureClass,
    FaultType,
    KpiId,
    NORMAL_CLASS,
    OrderingError,
)
from faultcast.detect import AnomalyEvent, AnomalyEvents
from faultcast.io import InjectedFault, RunManifest
from faultcast.predict import (
    _NEVER,
    Alert,
    AlertKind,
    EarlinessReport,
    measure_earliness,
    new_state,
    step,
    write_alert_log,
)
from faultcast.signature import ClassDistribution, Vocabulary, train_signature

LEAK_SPROUT = FailureClass(FaultType.MEMORY_LEAK, "Sprout")
HOG_HOMER = FailureClass(FaultType.CPU_HOG, "Homer")
KPIS = (KpiId("Homer", "m"), KpiId("Homer", "n"), KpiId("Sprout", "m"))


class ScriptedSignature:
    """Stands in for a trained model: returns pre-scripted distributions."""

    vocabulary = Vocabulary(KPIS)

    def __init__(self, outputs):
        self.outputs = list(outputs)

    def classify_bits(self, bits):
        return self.outputs.pop(0)


def verdict(cls, confidence):
    if cls == NORMAL_CLASS:
        return ClassDistribution({NORMAL_CLASS: confidence, LEAK_SPROUT: 1 - confidence})
    return ClassDistribution({cls: confidence, NORMAL_CLASS: 1 - confidence})


def drive(confidences, classes=None, **kwargs):
    """Feed scripted verdicts through the state machine, collecting alerts."""
    if classes is None:
        classes = [LEAK_SPROUT] * len(confidences)
    signature = ScriptedSignature(
        [verdict(cls, conf) for cls, conf in zip(classes, confidences)]
    )
    state = new_state(window_min=90)
    alerts = []
    for i in range(len(confidences)):
        state, alert = step(state, i * 300, [], signature, **kwargs)
        alerts.append(alert)
    return state, alerts


def test_streak_fires_failure_specific_on_the_seventh_interval():
    # the dip below the confidence bar in the third interval restarts the
    # streak, so four qualifying intervals complete only at the seventh
    confidences = [0.95, 0.95, 0.85, 0.95, 0.95, 0.95, 0.95]
    _, alerts = drive(confidences)
    kinds = [None if a is None else a.kind for a in alerts]
    assert kinds == [
        AlertKind.GENERAL,
        None,
        None,
        None,
        None,
        None,
        AlertKind.FAILURE_SPECIFIC,
    ]
    fsp = alerts[-1]
    assert fsp.failure_class == LEAK_SPROUT
    assert fsp.confidence == 0.95
    # window end of the seventh interval: 6 * 300 + 300
    assert fsp.raised_at == 6 * 300 + 300


def test_failure_specific_fires_once_per_streak():
    _, alerts = drive([0.95] * 10)
    fs = [a for a in alerts if a is not None and a.kind is AlertKind.FAILURE_SPECIFIC]
    assert len(fs) == 1
    # the General interval itself starts the streak, so the fourth qualifying
    # interval is index 3
    assert alerts[3] is not None and alerts[3].kind is AlertKind.FAILURE_SPECIFIC
    # a confidence dip breaks the streak; four more qualifying intervals
    # earn a second failure-specific alert
    _, alerts = drive([0.95] * 5 + [0.6] + [0.95] * 4)
    fs = [a for a in alerts if a is not None and a.kind is AlertKind.FAILURE_SPECIFIC]
    assert len(fs) == 2


def test_failure_specific_needs_four_qualifying_intervals():
    for confidences in ([0.95, 0.95, 0.95], [0.95, 0.89, 0.95, 0.95, 0.89]):
        _, alerts = drive(confidences)
        assert not any(
            a is not None and a.kind is AlertKind.FAILURE_SPECIFIC for a in alerts
        ), f"premature alert for {confidences}"


def test_general_alert_marks_each_class_change():
    classes = [LEAK_SPROUT, LEAK_SPROUT, HOG_HOMER, HOG_HOMER]
    _, alerts = drive([0.95] * 4, classes=classes)
    generals = [a for a in alerts if a is not None]
    assert [a.kind for a in generals] == [AlertKind.GENERAL, AlertKind.GENERAL]
    assert all(a.failure_class is None for a in generals)
    assert [a.raised_at for a in generals] == [300, 2 * 300 + 300]


def test_normal_windows_never_alert_and_reset_the_lifecycle():
    _, alerts = drive([0.99] * 8, classes=[NORMAL_CLASS] * 8)
    assert alerts == [None] * 8
    # fault -> normal -> fault raises a fresh General for the second episode
    classes = [LEAK_SPROUT] * 3 + [NORMAL_CLASS] + [LEAK_SPROUT] * 3
    _, alerts = drive([0.95] * 7, classes=classes)
    generals = [i for i, a in enumerate(alerts) if a is not None and a.kind is AlertKind.GENERAL]
    assert generals == [0, 4]
    # the streak also restarted: three post-reset intervals are not enough
    assert not any(a is not None and a.kind is AlertKind.FAILURE_SPECIFIC for a in alerts)


def test_low_confidence_still_raises_general():
    # the class context changes even though the streak cannot build
    _, alerts = drive([0.55, 0.55, 0.55, 0.55, 0.55])
    generals = [a for a in alerts if a is not None]
    assert len(generals) == 1 and generals[0].kind is AlertKind.GENERAL
    assert generals[0].raised_at == 300
    assert generals[0].confidence == 0.55


def test_step_is_pure_and_replayable():
    events = [
        [AnomalyEvent(0, KpiId("Homer", "m"), AnomalyKind.UNIVARIATE, 4.0)],
        [],
        [AnomalyEvent(600, KpiId("Homer", "m"), AnomalyKind.MULTIVARIATE, 5.0)],
    ]

    def replay():
        signature = ScriptedSignature([verdict(LEAK_SPROUT, 0.95)] * 3)
        state = new_state(window_min=90)
        out = []
        for i, evs in enumerate(events):
            state, alert = step(state, i * 300, evs, signature)
            out.append((state, alert))
        return out

    first, second = replay(), replay()
    assert [s for s, _ in first] == [s for s, _ in second]
    assert [a for _, a in first] == [a for _, a in second]


def test_step_rejects_out_of_order_intervals():
    signature = ScriptedSignature([verdict(NORMAL_CLASS, 0.9)] * 2)
    state = new_state(window_min=90)
    state, _ = step(state, 600, [], signature)
    with pytest.raises(OrderingError):
        step(state, 600, [], signature)


def test_window_buffer_evicts_old_intervals():
    # a 10-minute window over 5-minute intervals holds two interval slots
    signature = ScriptedSignature([verdict(NORMAL_CLASS, 0.9)] * 3)
    state = new_state(window_min=10)
    old_event = AnomalyEvent(0, KpiId("Homer", "m"), AnomalyKind.UNIVARIATE, 4.0)
    state, _ = step(state, 0, [old_event], signature)
    state, _ = step(state, 300, [], signature)
    assert {kpi for kpi, _ in state.evidence()} == {KpiId("Homer", "m")}
    state, _ = step(state, 600, [], signature)
    assert state.evidence() == frozenset()
    # the cell keeps its last sighting: (Homer/m, Univariate) at 0
    assert state.kpis == (KpiId("Homer", "m"),) and state.last_seen.tolist() == [[_NEVER, 0]]


events_at = st.builds(
    AnomalyEvent,
    st.integers(0, 20).map(lambda i: 300 * i),
    st.sampled_from(KPIS + (KpiId("Bono", "x"),)),  # Bono/x is in no vocabulary
    st.sampled_from(list(AnomalyKind)),
    st.floats(0.0, 10.0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20).map(lambda i: 300 * i), st.lists(events_at, max_size=6)), max_size=18))
def test_window_anomalies_equal_the_buffer_scan(buffer):
    # events may repeat and carry interval starts other than their slot's;
    # slots fed in time order, one step per start, in a window holding all
    signature = ScriptedSignature([verdict(NORMAL_CLASS, 0.9)] * len(buffer))
    state = new_state(window_min=200)
    for start in sorted({start for start, _ in buffer}):
        state, _ = step(state, start, [e for s, evs in buffer if s == start for e in evs], signature)
    if buffer:
        assert state.evidence() == oracles.buffer_anomalies(buffer)


class RecordingSignature:
    """Answers Normal and keeps every window it was asked to classify, as
    the feature set its split-kinds bits stand for."""

    vocabulary = Vocabulary(KPIS + (KpiId("Bono", "x"),), split_kinds=True)

    def __init__(self):
        self.windows = []

    def classify_bits(self, bits):
        kinds = (AnomalyKind.UNIVARIATE, AnomalyKind.MULTIVARIATE)
        self.windows.append(frozenset((self.vocabulary.kpis[b // 2], kinds[b % 2]) for b in np.flatnonzero(bits)))
        return verdict(NORMAL_CLASS, 0.9)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.lists(events_at, max_size=6)), max_size=30),
    st.sampled_from([1, 5, 10, 30, 90]),
)
def test_each_step_classifies_the_scan_of_its_window(intervals, window_min):
    # gaps between intervals, and events stamped with other intervals' starts
    signature = RecordingSignature()
    state = new_state(window_min=window_min)
    fed, start = [], 0
    for gap, evs in intervals:
        start += 300 * gap
        state, _ = step(state, start, evs, signature)
        fed.append((start, evs))
        window_start = min(start + 300 - 60 * window_min, start)
        assert signature.windows[-1] == oracles.buffer_anomalies([(s, e) for s, e in fed if s >= window_start])


def trained_signature(algorithm, split_kinds):
    """A signature that tells leak, hog and Normal windows apart by their
    (KPI, kind) features, with some windows left to chance."""
    windows, uni, multi = [], AnomalyKind.UNIVARIATE, AnomalyKind.MULTIVARIATE
    for i in range(4):
        windows.append((0, 300, frozenset([(KPIS[0], uni)] + [(KPIS[2], multi)] * (i % 2)), LEAK_SPROUT))
        windows.append((0, 300, frozenset([(KPIS[1], multi)] + [(KPIS[2], uni)] * (i % 3 == 0)), HOG_HOMER))
        windows.append((0, 300, frozenset([(KPIS[2], uni)] * (i == 1)), NORMAL_CLASS))
    return train_signature(oracles.pool_of(windows), Vocabulary(KPIS, split_kinds), algorithm, 15, min_leaf=1)


def as_input(events, form, order):
    """One interval's events as a list, as columns numbered in first-seen
    order, or as columns over a KPI tuple of their own."""
    if form == 0:
        return events
    if form == 1:
        return AnomalyEvents.of(events)
    kpis = list(order)
    for event in events:
        if event.kpi not in kpis:
            kpis.append(event.kpi)
    numbers = [kpis.index(e.kpi) for e in events]
    codes = [0 if e.kind is AnomalyKind.MULTIVARIATE else 1 for e in events]
    return AnomalyEvents(kpis, [e.interval_start for e in events], numbers, codes, [e.score for e in events])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.lists(events_at, max_size=5), st.integers(0, 2), st.permutations(KPIS)),
        max_size=30,
    ),
    st.sampled_from(["tree", "nb"]),
    st.booleans(),
    st.sampled_from([1, 5, 15, 20]),
    st.sampled_from([0.0, 0.6, 0.9, 1.0]),
    st.integers(1, 4),
)
def test_step_equals_the_buffered_oracle(intervals, algorithm, split_kinds, window_min, confidence, streak):
    # lists of events and columns whose KPI tuple changes between steps, over
    # KPIs in and outside the vocabulary, with gaps between intervals
    signature = trained_signature(algorithm, split_kinds)
    rule = dict(confidence_threshold=confidence, streak_needed=streak)
    state, expected = new_state(window_min), oracles.BufferedState(window_min)
    start = 0
    for gap, events, form, order in intervals:
        start += 300 * gap
        state, alert = step(state, start, as_input(events, form, order), signature, **rule)
        expected, want = oracles.step_buffered(expected, start, events, signature, **rule)
        assert alert == want
        assert state.evidence() == expected.window_anomalies()
        for name in ("last_interval", "streak_class", "streak_len", "active_class", "fs_fired"):
            assert getattr(state, name) == getattr(expected, name), name


def test_alert_validation():
    with pytest.raises(ValueError):
        Alert(AlertKind.GENERAL, 0, None, 1.5, frozenset())
    with pytest.raises(ValueError):
        Alert(AlertKind.FAILURE_SPECIFIC, 0, None, 0.95, frozenset())
    with pytest.raises(ValueError):
        Alert(AlertKind.FAILURE_SPECIFIC, 0, NORMAL_CLASS, 0.95, frozenset())
    Alert(AlertKind.FAILURE_SPECIFIC, 0, LEAK_SPROUT, 0.95, frozenset())


# ---------------------------------------------------------------------------
# earliness


def leaky_manifest(failure_time=6000, end=10800):
    return RunManifest(
        run_id="run-x",
        start=0,
        end=end,
        fault=InjectedFault(FaultType.MEMORY_LEAK, "Sprout", "Constant", 900),
        failure_time=failure_time,
    )


def general(raised_at, confidence=0.6):
    return Alert(AlertKind.GENERAL, raised_at, None, confidence, frozenset())


def specific(raised_at, confidence=0.95):
    return Alert(AlertKind.FAILURE_SPECIFIC, raised_at, LEAK_SPROUT, confidence, frozenset())


def test_earliness_happy_path():
    report = measure_earliness([general(1200), specific(1800)], leaky_manifest())
    assert report.ttgp_s == 300
    assert report.ttfsp_s == 900
    assert report.ttf_gp_s == 6000 - 1200
    assert report.ttf_fsp_s == 6000 - 1800
    assert report.failure_observed
    assert report.false_alarms == 0
    assert report.render_ttgp() == "5 mins"
    assert report.render_ttfsp() == "15 mins"
    assert report.render_ttf_gp() == "80 mins"
    assert report.render_ttf_fsp() == "70 mins"


def test_earliness_alert_on_the_injection_boundary_counts_as_zero():
    report = measure_earliness([general(900)], leaky_manifest())
    assert report.ttgp_s == 0
    assert report.render_ttgp() == "0 mins"


def test_earliness_pre_injection_alerts_are_false_alarms():
    alerts = [general(600), general(1200)]
    report = measure_earliness(alerts, leaky_manifest())
    assert report.false_alarms == 1
    # the pre-injection alert never produces a negative time-to-prediction
    assert report.ttgp_s == 300


def test_earliness_without_any_alert():
    report = measure_earliness([], leaky_manifest())
    assert report.ttgp_s is None and report.ttfsp_s is None
    assert report.render_ttgp() == "none"
    assert report.render_ttf_gp() == "none"
    assert report.render_ttf_fsp() == "none"


def test_earliness_alert_without_failure_renders_the_horizon():
    report = measure_earliness([general(1200)], leaky_manifest(failure_time=None))
    assert not report.failure_observed
    assert report.ttf_gp_s is None
    assert report.render_ttf_gp() == "> 180 mins"
    # the FSP side never alerted, so it reads "none" rather than the horizon
    assert report.render_ttf_fsp() == "none"


def test_earliness_respects_horizon_override():
    # the horizon is the run's length: a 60-minute run gives 60 minutes
    report = measure_earliness([general(1200)], leaky_manifest(failure_time=None, end=3600))
    assert report.render_ttf_gp() == "> 60 mins"


def test_earliness_requires_a_seeded_fault():
    manifest = RunManifest(run_id="clean", start=0, end=10800)
    with pytest.raises(ValueError):
        measure_earliness([], manifest)


# ---------------------------------------------------------------------------
# alert log


def test_alert_log_format(tmp_path):
    path = tmp_path / "alerts.csv"
    write_alert_log([general(1200), specific(1800)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "raised_at,kind,fault_type,resource,confidence,evidence_count"
    assert lines[1].startswith("1970-01-01T00:20:00Z,General,,")
    assert lines[2].startswith("1970-01-01T00:30:00Z,FailureSpecific,MemoryLeak,Sprout,")
    write_alert_log([], path)
    assert path.read_text().splitlines() == [
        "raised_at,kind,fault_type,resource,confidence,evidence_count"
    ]
