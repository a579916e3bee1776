"""Interval detectors: seasonal-band checks, edge-residual checks, streaming."""

import csv
import io
import logging
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import detect_multivariate, detect_univariate, predict_from_edge

import faultcast.io
from faultcast import detect
from faultcast.baseline import BaselineConfig, BaselineModel, GrangerEdge, UnivariateBaseline
from faultcast.core import (
    CADENCE_S,
    HOURS_PER_WEEK,
    AnomalyKind,
    CsvParseError,
    FaultcastError,
    KpiId,
    TimeSeries,
    format_timestamp,
)
from faultcast.detect import (
    AnomalyEvent,
    AnomalyEvents,
    detect_stream,
    read_anomaly_log,
    write_anomaly_log,
)
from faultcast.evaluate import default_run_specs
from faultcast.sim import default_topology, gen_run, load_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def flat_baseline(kpi, mean, std, k_sigma=3.0):
    return UnivariateBaseline(
        kpi=kpi,
        bucket_means=np.full(HOURS_PER_WEEK, float(mean)),
        bucket_stds=np.full(HOURS_PER_WEEK, float(std)),
        k_sigma=k_sigma,
        std_floor=1e-12,
        global_mean=float(mean),
        global_std=float(std),
    )


# ---------------------------------------------------------------------------
# univariate


def test_univariate_peak_score():
    baseline = flat_baseline(KpiId("Homer", "CpuIdlePct"), 100.0, 2.0)
    event = detect_univariate(baseline, [0, 60, 120], [101.0, 107.0, 99.0])
    assert event is not None
    assert event.score == pytest.approx(3.5)
    assert event.kind is AnomalyKind.UNIVARIATE
    assert event.interval_start == 0
    event = detect_univariate(baseline, [0, 60, 120], [101.0, 107.0, 99.0], interval_start=600)
    assert event.interval_start == 600


def test_univariate_threshold_is_strict():
    baseline = flat_baseline(KpiId("Homer", "CpuIdlePct"), 100.0, 2.0)
    # |106 - 100| / 2 == 3.0 exactly: on the line is not an anomaly
    assert detect_univariate(baseline, [0, 60], [106.0, 100.0]) is None
    assert detect_univariate(baseline, [0, 60], [106.001, 100.0]) is not None
    # the band is symmetric
    assert detect_univariate(baseline, [0], [93.9]) is not None
    assert detect_univariate(baseline, [], []) is None


# ---------------------------------------------------------------------------
# multivariate


def make_edge(residual_std=0.25, coefficients=(1.0, 0.5, 2.0)):
    return GrangerEdge(
        cause=KpiId("A", "x"),
        effect=KpiId("B", "y"),
        weight=0.999,
        lag_order=(len(coefficients) - 1) // 2,
        coefficients=coefficients,
        residual_std=residual_std,
    )


def follow_edge(edge, x, offset=0.0, y0=0.0):
    """Build y so each step matches the edge's regression plus an offset."""
    c0, a1, b1 = edge.coefficients
    y = [y0]
    for t in range(1, len(x)):
        y.append(c0 + a1 * y[t - 1] + b1 * x[t - 1] + offset)
    return np.asarray(y)


def test_multivariate_exact_fit_scores_zero():
    edge = make_edge()
    x = np.array([0.4, -1.2, 0.7, 2.0, -0.3, 1.1])
    y = follow_edge(edge, x)
    pred = predict_from_edge(edge, x, y)
    assert np.allclose(y[1:], pred, atol=1e-12)
    # score 0 clears no threshold, not even zero
    assert detect_multivariate(edge, x, y, h=4, tau=0.0) is None


def test_multivariate_five_sigma_offset():
    edge = make_edge(residual_std=0.25)
    x = np.array([0.4, -1.2, 0.7, 2.0, -0.3, 1.1])
    y = follow_edge(edge, x, offset=5 * edge.residual_std)
    event = detect_multivariate(edge, x, y, h=4, tau=3.0, interval_start=900)
    assert event is not None
    assert event.score == pytest.approx(5.0, abs=1e-9)
    assert event.kpi == edge.effect
    assert event.kind is AnomalyKind.MULTIVARIATE
    assert event.interval_start == 900
    # the same deviation clears a loose threshold but not a tight one
    assert detect_multivariate(edge, x, y, h=4, tau=5.0) is None


def test_multivariate_input_gates():
    edge = make_edge()
    x = np.zeros(3)
    with pytest.raises(ValueError):
        detect_multivariate(edge, x, x, h=0)
    # p + h = 1 + 4 exceeds the 3 available samples
    assert detect_multivariate(edge, x, x, h=4) is None


# ---------------------------------------------------------------------------
# streaming over a run


def test_stream_empty_input():
    model = BaselineModel(baselines={}, edges=())
    assert detect_stream(model, {}, 0) == []


def test_stream_skips_unknown_kpi(caplog):
    known = KpiId("Homer", "CpuIdlePct")
    unknown = KpiId("Homer", "Mystery")
    model = BaselineModel(baselines={known: flat_baseline(known, 0.0, 1.0)}, edges=())
    ts = 60 * np.arange(5, dtype=np.int64)
    series = {known: TimeSeries(known, ts, np.zeros(5)), unknown: TimeSeries(unknown, ts, np.full(5, 99.0))}
    with caplog.at_level(logging.WARNING):
        events = detect_stream(model, series, 0)
    assert events == []
    assert "no baseline" in caplog.text


def test_stream_rejects_a_run_that_lacks_a_baseline_kpi():
    kpis = [KpiId("Homer", "CpuIdlePct"), KpiId("Sprout", "CpuIdlePct"), KpiId("Sprout", "MemUsedPct")]
    model = BaselineModel(baselines={kpi: flat_baseline(kpi, 0.0, 1.0) for kpi in kpis}, edges=())
    ts = 60 * np.arange(5, dtype=np.int64)
    with pytest.raises(FaultcastError, match="lacks 2 of the baseline's KPIs, first Sprout/CpuIdlePct"):
        detect_stream(model, {kpis[0]: TimeSeries(kpis[0], ts, np.zeros(5))}, 0)


def test_stream_coverage_rule():
    kpi = KpiId("Homer", "CpuIdlePct")
    model = BaselineModel(baselines={kpi: flat_baseline(kpi, 0.0, 1.0)}, edges=())
    # two of the expected five samples: below half coverage, stays silent
    # even though the values are far outside the band
    sparse = TimeSeries(kpi, [0, 60], [50.0, 50.0])
    assert detect_stream(model, {kpi: sparse}, 0) == []
    # three of five is enough
    dense = TimeSeries(kpi, [0, 60, 120], [50.0, 50.0, 50.0])
    events = detect_stream(model, {kpi: dense}, 0)
    assert len(events) == 1 and events[0].score == pytest.approx(50.0)


def test_stream_keeps_worst_verdict_per_effect():
    kx1, kx2, ky = KpiId("A", "x1"), KpiId("A", "x2"), KpiId("B", "y")
    baselines = {
        kx1: flat_baseline(kx1, 0.0, 1000.0),
        kx2: flat_baseline(kx2, 0.0, 1000.0),
        ky: flat_baseline(ky, 1.0, 1000.0),
    }
    # identical regressions, different residual scales -> the second edge
    # scores the same deviation twice as high
    shared = dict(weight=0.99, lag_order=1, coefficients=(0.0, 0.0, 1.0))
    edges = (
        GrangerEdge(cause=kx1, effect=ky, residual_std=1.0, **shared),
        GrangerEdge(cause=kx2, effect=ky, residual_std=0.5, **shared),
    )
    model = BaselineModel(baselines=baselines, edges=edges, config=BaselineConfig(lag_order=1))
    ts = 60 * np.arange(15, dtype=np.int64)
    series = {
        kx1: TimeSeries(kx1, ts, np.zeros(15)),
        kx2: TimeSeries(kx2, ts, np.zeros(15)),
        ky: TimeSeries(ky, ts, np.ones(15)),
    }
    events = detect_stream(model, series, 0, tau=0.5)
    multivariate = [e for e in events if e.kind is AnomalyKind.MULTIVARIATE]
    # the first interval lacks a full lag history; the later two each carry
    # exactly one verdict for the effect KPI, at the worse of the two scores
    assert [e.interval_start for e in multivariate] == [300, 600]
    for event in multivariate:
        assert event.kpi == ky
        assert event.score == pytest.approx(2.0)


def test_stream_results_are_sorted():
    kpi_a, kpi_b = KpiId("A", "m"), KpiId("B", "m")
    model = BaselineModel(
        baselines={kpi_a: flat_baseline(kpi_a, 0.0, 1.0), kpi_b: flat_baseline(kpi_b, 0.0, 1.0)},
        edges=(),
    )
    ts = 60 * np.arange(10, dtype=np.int64)
    series = {
        kpi_b: TimeSeries(kpi_b, ts, np.full(10, 9.0)),
        kpi_a: TimeSeries(kpi_a, ts, np.full(10, 9.0)),
    }
    events = detect_stream(model, series, 0)
    assert events == sorted(events)
    assert {e.kpi for e in events} == {kpi_a, kpi_b}


# ---------------------------------------------------------------------------
# log round trip


def test_anomaly_log_round_trip(tmp_path):
    events = [
        AnomalyEvent(0, KpiId("Homer", "CpuIdlePct"), AnomalyKind.UNIVARIATE, 3.5),
        AnomalyEvent(300, KpiId("Sprout", "MemUsedPct"), AnomalyKind.MULTIVARIATE, 7.25),
    ]
    path = tmp_path / "anomalies.csv"
    write_anomaly_log(events, path)
    assert read_anomaly_log(path) == events
    write_anomaly_log([], path)
    assert read_anomaly_log(path) == []


def test_anomaly_log_rejects_bad_header(tmp_path):
    path = tmp_path / "anomalies.csv"
    path.write_text("interval,resource,metric,kind,score\n")
    with pytest.raises(CsvParseError):
        read_anomaly_log(path)


def test_event_validation():
    kpi = KpiId("Homer", "CpuIdlePct")
    with pytest.raises(ValueError):
        AnomalyEvent(0, kpi, AnomalyKind.UNIVARIATE, -1.0)
    with pytest.raises(ValueError):
        AnomalyEvent(0, kpi, AnomalyKind.UNIVARIATE, float("nan"))


# ---------------------------------------------------------------------------
# detector noise floor on clean traffic


def test_fault_free_event_rate_stays_below_two_percent(suite_data):
    """On nominal fault-free runs the detectors may flag at most 2% of the
    (KPI x interval) slots."""
    checked = 0
    for rec in suite_data.runs:
        if rec.manifest.fault is not None or "dev" in rec.manifest.run_id:
            continue
        manifest = rec.manifest
        n_intervals = (manifest.end - manifest.start) // 300
        slots = len(suite_data.baseline.kpis) * n_intervals
        rate = len(rec.events) / slots
        assert rate <= 0.02, f"{manifest.run_id}: {rate:.4f} of {slots} slots flagged"
        checked += 1
    assert checked >= 3


def test_stream_early_run_start_skips_empty_intervals():
    # a run_start 10^5 intervals before the data lands on the same interval
    # grid, so the verdicts are the same; the empty intervals are not walked
    kx, ky = KpiId("A", "x"), KpiId("B", "y")
    model = BaselineModel(
        baselines={kx: flat_baseline(kx, 0.0, 1.0), ky: flat_baseline(ky, 0.0, 1.0)},
        edges=(GrangerEdge(cause=kx, effect=ky, weight=0.99, lag_order=1,
                           coefficients=(0.0, 0.0, 1.0), residual_std=0.5),),
        config=BaselineConfig(lag_order=1),
    )
    rng = np.random.default_rng(3)
    ts = 120 + 60 * np.concatenate([np.arange(20), np.arange(31, 60)]).astype(np.int64)
    series = {
        kx: TimeSeries(kx, ts, rng.standard_normal(len(ts))),
        ky: TimeSeries(ky, ts, 4.0 * rng.standard_normal(len(ts))),
    }
    expected = detect_stream(model, series, 0)
    assert {e.kind for e in expected} == set(AnomalyKind)
    t0 = time.perf_counter()
    early = detect_stream(model, series, -(10**5) * 300)
    assert time.perf_counter() - t0 < 1.0
    assert early == expected


# ---------------------------------------------------------------------------
# the batched detector against the per-(edge, interval) oracle


@st.composite
def detection_cases(draw, gaps=False):
    """A model, a run, its start and tau, drawn to reach the corners of
    interval binning and alignment: KPIs present in only part of the run,
    KPIs without a baseline, samples before ``run_start`` or a far-early
    ``run_start``, lag orders 1 to 3 and runs shorter than p.  Every sample
    is on the cadence grid.  Without ``gaps`` each KPI's samples are one
    unbroken run of it, where lags by position are lags by timestamp; with
    ``gaps`` missing minutes and missing spans cut them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kpis = [KpiId(f"R{i}", "m") for i in range(draw(st.integers(2, 5)))]
    t0 = 1_700_000_000 + draw(st.integers(0, 299))
    n = draw(st.one_of(st.integers(1, 6), st.integers(7, 60)))
    base = t0 + CADENCE_S * np.arange(n, dtype=np.int64)
    keep = draw(st.sampled_from([1.0, 0.9, 0.5])) if gaps else 1.0
    scale = draw(st.sampled_from([0.5, 2.0, 10.0]))
    series = {}
    for kpi in kpis + [KpiId("Stray", "m")]:  # the stray KPI has no baseline
        lo, hi = (0, n) if rng.random() < 0.5 else sorted(rng.choice(n + 1, size=2, replace=False))
        present = np.zeros(n, dtype=bool)
        present[lo:hi] = rng.random(hi - lo) < keep
        if gaps and rng.random() < 0.3:  # a missing span
            cut = int(rng.integers(n))
            present[cut : cut + int(rng.integers(1, 12))] = False
        if not present.any():
            present[int(rng.integers(lo, hi))] = True
        stamps = base[present]
        series[kpi] = TimeSeries(kpi, stamps, rng.normal(0.0, scale, len(stamps)))
    baselines = {
        kpi: UnivariateBaseline(
            kpi=kpi,
            bucket_means=rng.normal(0.0, 1.0, HOURS_PER_WEEK),
            bucket_stds=rng.uniform(0.5, 2.0, HOURS_PER_WEEK),
            k_sigma=draw(st.sampled_from([0.5, 1.0, 3.0])),
            std_floor=1e-12,
            global_mean=0.0,
            global_std=1.0,
        )
        for kpi in kpis
    }
    p = draw(st.integers(1, 3))
    edges = []
    for _ in range(draw(st.integers(1, 8))):
        cause, effect = rng.choice(len(kpis), size=2, replace=False)
        edges.append(
            GrangerEdge(
                cause=kpis[cause],
                effect=kpis[effect],
                weight=0.99,
                lag_order=p,
                coefficients=tuple(rng.normal(0.0, 0.5, 2 * p + 1)),
                residual_std=float(rng.uniform(0.2, 2.0)),
            )
        )
    run_start = draw(
        st.sampled_from(
            [
                t0 - 600,  # aligned before the data
                t0 + 150,  # some samples before run_start
                t0 - (10**5) * 300 + 17,  # far early, off the data's grid
                t0 + CADENCE_S * n + 300,  # after every sample
            ]
        )
    )
    tau = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    model = BaselineModel(baselines=baselines, edges=tuple(edges), config=BaselineConfig(lag_order=p))
    return model, series, run_start, tau


@settings(max_examples=300, deadline=None)
@given(detection_cases(), st.sampled_from([detect._CHUNK_CELLS, 1, 40]))
def test_batched_stream_equals_the_per_edge_oracle(case, chunk_cells):
    model, series, run_start, tau = case
    # small blocks split the edges over several scoring passes
    with mock.patch.object(detect, "_CHUNK_CELLS", chunk_cells):
        batched = detect_stream(model, series, run_start, tau=tau)
    expected = oracles.detect_stream_loop(model, series, run_start, tau=tau)
    assert batched == expected  # equal events compare their scores with ==
    assert batched == oracles.detect_stream_by_timestamp(model, series, run_start, tau=tau)


@settings(max_examples=300, deadline=None)
@given(detection_cases(), st.sampled_from([detect._CHUNK_CELLS, 1, 40]))
def test_planned_stream_equals_the_kpi_keyed_batched_oracle(case, chunk_cells):
    model, series, run_start, tau = case
    with mock.patch.object(detect, "_CHUNK_CELLS", chunk_cells):
        planned = detect_stream(model, series, run_start, tau=tau)
    expected = oracles.detect_stream_batched(model, series, run_start, tau=tau, chunk_cells=chunk_cells)
    assert isinstance(planned, AnomalyEvents)
    assert planned == expected and list(planned) == expected
    assert planned.kpis == tuple(sorted(model.baselines))


@settings(max_examples=300, deadline=None)
@given(detection_cases(gaps=True), st.sampled_from([detect._CHUNK_CELLS, 1, 40]))
def test_stream_with_gaps_equals_the_by_timestamp_oracle(case, chunk_cells):
    model, series, run_start, tau = case
    with mock.patch.object(detect, "_CHUNK_CELLS", chunk_cells):
        events = detect_stream(model, series, run_start, tau=tau)
    assert events == oracles.detect_stream_by_timestamp(model, series, run_start, tau=tau)


def outcome(detector, *args, **kwargs):
    """The KPIs and the bytes of each event column, or the message of the
    error raised."""
    try:
        events = detector(*args, **kwargs)
    except FaultcastError as exc:
        return str(exc)
    return events.kpis, *(column.tobytes() for column in (events.start, events.kpi, events.kind, events.score))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(detection_cases(), detection_cases(gaps=True)),
    st.sampled_from([detect._CHUNK_CELLS, 1, 40]),
    st.data(),
)
def test_kind_pair_stream_equals_the_per_edge_mask_oracle_bit_for_bit(case, chunk_cells, data):
    # the same columns bit for bit, or the same overflow naming the first
    # edge in model order, whichever block scores it
    model, series, run_start, tau = case
    if data.draw(st.booleans()):  # a value whose square overflows
        for kpi in data.draw(st.lists(st.sampled_from(sorted(series)), min_size=1, max_size=3)):
            values = series[kpi].values.copy()
            values[data.draw(st.integers(0, len(values) - 1))] = 1e200
            series[kpi] = TimeSeries(kpi, series[kpi].timestamps, values)
    with mock.patch.object(detect, "_CHUNK_CELLS", chunk_cells):
        got = outcome(detect_stream, model, series, run_start, tau=tau)
    assert got == outcome(oracles.detect_stream_edge_masks, model, series, run_start, tau=tau)


def test_kpis_that_differ_in_their_gaps_are_scored_in_several_kind_pairs(suite_data):
    # the leak run with a different span cut from each of three KPIs: their
    # edges fall into several (cause kind, effect kind) pairs
    scenario = load_scenario(CONFIGS / "leak-sprout-constant.json")
    series, _ = scenario.generate(default_topology())
    cuts = {
        KpiId("Sprout", "CpuIdlePct"): (60, 70),
        KpiId("Homer", "CpuIdlePct"): (20, 24),
        KpiId("Sprout", "MemUsedPct"): (100, 101),
    }
    for kpi, (lo, hi) in cuts.items():
        rows = np.r_[0:lo, hi : len(series[kpi])]
        series[kpi] = TimeSeries(kpi, series[kpi].timestamps[rows], series[kpi].values[rows])
    real, pairs = detect._kind_pairs, []

    def kind_pairs(*args):
        pair, full, scored, ok = real(*args)
        pairs.append(len(full))
        return pair, full, scored, ok

    with mock.patch.object(detect, "_kind_pairs", kind_pairs):
        got = outcome(detect_stream, suite_data.baseline, series, scenario.start, tau=0.0)
    assert pairs[0] > 4, pairs
    expected = outcome(oracles.detect_stream_edge_masks, suite_data.baseline, series, scenario.start, tau=0.0)
    assert got == expected
    with mock.patch.object(detect, "_kind_pairs", kind_pairs):
        unbroken = detect_stream(suite_data.baseline, scenario.generate(default_topology())[0], scenario.start)
    assert pairs[1] == 1 and unbroken


def test_detect_stream_finds_every_kpi_by_identity(quick_start_files, suite_data):
    # a KPI equal to a dict key but another object costs a Python-level
    # __eq__ on every lookup: a loaded baseline, a read CSV and a simulated
    # run share one KpiId a name pair, so a lookup never compares fields
    loaded = BaselineModel.load(quick_start_files["baseline.json"])
    ingested = faultcast.io.ingest_csv(quick_start_files["leak.csv"])
    scenario = load_scenario(CONFIGS / "leak-sprout-constant.json")
    simulated, _ = scenario.generate()
    compare, calls = KpiId.__eq__, []

    def counted(self, other):
        calls.append((self, other))
        return compare(self, other)

    with mock.patch.object(KpiId, "__eq__", counted):
        detect_stream(loaded, ingested, scenario.start)
        detect_stream(suite_data.baseline, simulated, scenario.start)
    assert calls == []


def test_an_overflow_names_the_first_edge_in_model_order():
    # C -> B comes first in effect order, A -> C first in the model's; a
    # value too large in C overflows both in the interval at minute 10
    ka, kb, kc = KpiId("A", "m"), KpiId("B", "m"), KpiId("C", "m")
    baselines = {kpi: flat_baseline(kpi, 0.0, 1.0) for kpi in (ka, kb, kc)}
    shared = dict(weight=0.99, lag_order=1, coefficients=(0.0, 0.5, 0.5), residual_std=1.0)
    edges = (GrangerEdge(cause=ka, effect=kc, **shared), GrangerEdge(cause=kc, effect=kb, **shared))
    model = BaselineModel(baselines=baselines, edges=edges, config=BaselineConfig(lag_order=1))
    assert model.effect_order.tolist() == [1, 0]
    ts = 60 * np.arange(20, dtype=np.int64)
    values = np.zeros(20)
    values[12] = 1e200
    series = {kpi: TimeSeries(kpi, ts, np.zeros(20)) for kpi in (ka, kb)}
    series[kc] = TimeSeries(kc, ts, values)
    message = r"^edge A/m -> C/m: a value in the interval at 1970-01-01T00:10:00Z is too large"
    for chunk_cells in (detect._CHUNK_CELLS, 1):
        with mock.patch.object(detect, "_CHUNK_CELLS", chunk_cells), pytest.raises(FaultcastError, match=message):
            detect_stream(model, series, 0)


@settings(max_examples=100, deadline=None)
@given(detection_cases(), st.sampled_from(["shifted", "sub-cadence", "dropped"]), st.data())
def test_stream_rejects_off_cadence_samples_and_missing_kpis(case, fault, data):
    model, series, run_start, tau = case
    kpi = data.draw(st.sampled_from(sorted(series)))
    s = series[kpi]
    if fault == "dropped":
        if kpi not in model.baselines:
            return
        del series[kpi]
        message = f"lacks 1 of the baseline's KPIs, first {kpi}"
    else:
        # 7 s off every other sample, or a 30-, 20-, 10- or 1-second cadence
        step = 7 if fault == "shifted" else data.draw(st.sampled_from([30, 20, 10, 1]))
        series[kpi] = TimeSeries(kpi, np.union1d(s.timestamps, s.timestamps + step), np.arange(2 * len(s), dtype=float))
        first = min(int(other.timestamps[0]) for other in series.values())
        late = next(int(t) for t in series[kpi].timestamps if (t - first) % CADENCE_S)
        message = f"{kpi} has a sample at {format_timestamp(late)}, off the data's 60-second cadence"
    with pytest.raises(FaultcastError, match=message):
        detect_stream(model, series, run_start, tau=tau)


def test_a_gap_removes_the_intervals_whose_lags_it_holds(suite_data):
    # with minutes 60-69 of Sprout/CpuIdlePct cut from the leak run, "lag 1"
    # of minute 70 was once minute 59: every edge touching the KPI was
    # scored in the interval at minute 70.  At tau 0 every scored edge
    # raises its effect, so the model's edges that touch the KPI must raise
    # nothing in the intervals at minutes 60, 65 and 70, and do so again at 75.
    scenario = load_scenario(CONFIGS / "leak-sprout-constant.json")
    series, _ = scenario.generate(default_topology())
    gappy = KpiId("Sprout", "CpuIdlePct")
    rows = np.r_[0:60, 70 : len(series[gappy])]
    series[gappy] = TimeSeries(gappy, series[gappy].timestamps[rows], series[gappy].values[rows])
    baseline = suite_data.baseline
    touching = tuple(edge for edge in baseline.edges if gappy in (edge.cause, edge.effect))
    assert len(touching) > 5
    model = BaselineModel(baselines=baseline.baselines, edges=touching, config=baseline.config)
    events = detect_stream(model, series, scenario.start, tau=0.0)
    minutes = {(e.interval_start - scenario.start) // 60 for e in events if e.kind is AnomalyKind.MULTIVARIATE}
    assert minutes.isdisjoint({60, 65, 70})
    assert {55, 75} <= minutes
    assert events == oracles.detect_stream_by_timestamp(model, series, scenario.start, tau=0.0)


def test_batched_stream_equals_the_oracle_on_faulty_suite_runs(suite_data):
    config = suite_data.config
    faulty = [spec for spec in default_run_specs(config) if spec.fault is not None][::7]
    for spec in faulty[:3]:
        series, _ = gen_run(
            default_topology(), config.workload, spec.fault, spec.start, spec.duration_s, spec.seed
        )
        batched = detect_stream(suite_data.baseline, series, spec.start, tau=config.tau)
        assert batched == oracles.detect_stream_loop(suite_data.baseline, series, spec.start, tau=config.tau)
        assert {e.kind for e in batched} == set(AnomalyKind), spec.run_id


def test_long_run_detection_is_not_quadratic(suite_data):
    # Scoring every interval by re-predicting the whole prefix took 18.7 s
    # for two days; one pass over the run takes well under a second.
    config = suite_data.config
    spec = next(spec for spec in default_run_specs(config) if spec.fault is not None)
    series, _ = gen_run(default_topology(), config.workload, spec.fault, spec.start, 2880 * 60, spec.seed)
    t0 = time.perf_counter()
    events = detect_stream(suite_data.baseline, series, spec.start, tau=config.tau)
    assert time.perf_counter() - t0 < 3.0
    assert events


def test_anomaly_log_reader_shares_kpis_and_keeps_error_lines():
    text = (
        "interval_start,resource,metric,kind,score\n"
        "2026-01-01T00:00:00Z,Homer,m,Univariate,4.0\n"
        "2026-01-01T00:00:00Z,Homer,m,Multivariate,5.0\n"
        "2026-01-01T00:05:00Z,Homer,m,Univariate,4.5\n"
    )
    events = read_anomaly_log(io.StringIO(text))
    assert [e.interval_start for e in events] == [1767225600, 1767225600, 1767225900]
    assert events[0].kpi is events[1].kpi is events[2].kpi
    # one object for the names over every file read, the row reader's too
    again = read_anomaly_log(io.StringIO(text.replace("Homer,m,Multivariate", '"Homer",m,Multivariate')))
    assert again[0].kpi is again[1].kpi is events[0].kpi
    # a bad repeat of a good timestamp or KPI still fails at its own line
    for bad, message in [
        ("2026-01-01T00:00:00,Homer,m,Univariate,1.0", "line 5"),
        ("2026-01-01T00:00:00Z,,m,Univariate,1.0", "line 5"),
        ("2026-01-01T00:00:00Z,Homer,m,Sideways,1.0", "line 5"),
        ("2026-01-01T00:00:00Z,Homer,m,Univariate,-1.0", "line 5"),
    ]:
        with pytest.raises(CsvParseError, match=message):
            read_anomaly_log(io.StringIO(text + bad + "\n"))


# ---------------------------------------------------------------------------
# the model's arrays and the event columns


def test_the_model_is_stacked_once_into_read_only_arrays():
    kx, ky = KpiId("A", "x"), KpiId("B", "y")
    baselines = {kx: flat_baseline(kx, 0.0, 1.0), ky: flat_baseline(ky, 5.0, 2.0, k_sigma=4.0)}
    edges = (GrangerEdge(cause=kx, effect=ky, weight=0.99, lag_order=1,
                         coefficients=(0.5, 0.25, 2.0), residual_std=0.5),)
    model = BaselineModel(baselines=baselines, edges=edges, config=BaselineConfig(lag_order=1))
    twin = BaselineModel(baselines=baselines, edges=edges, config=BaselineConfig(lag_order=1))
    names = ("bucket_means", "bucket_stds", "k_sigma", "cause", "effect", "coefficients", "residual_std")
    arrays = [getattr(model, name) for name in names]
    assert not any(array.flags.writeable for array in arrays)
    assert all(getattr(twin, name) is not array for name, array in zip(names, arrays))
    assert model == twin  # the arrays are not fields
    assert model.kpis == (kx, ky)
    assert model.bucket_means[1, 0] == 5.0 and model.bucket_stds[1, 0] == 2.0
    assert model.k_sigma.tolist() == [3.0, 4.0]
    assert model.config.lag_order == 1
    assert model.cause.tolist() == [0] and model.effect.tolist() == [1]
    assert model.coefficients.tolist() == [[0.5, 0.25, 2.0]]
    assert model.residual_std.tolist() == [0.5]
    ts = 60 * np.arange(10, dtype=np.int64)
    series = {kx: TimeSeries(kx, ts, np.zeros(10)), ky: TimeSeries(ky, ts, np.full(10, 40.0))}
    detect_stream(model, series, 0)
    detect_stream(model, series, 0)
    assert all(getattr(model, name) is array for name, array in zip(names, arrays))


def test_anomaly_events_behave_like_a_tuple_of_events():
    ka, kb = KpiId("A", "m"), KpiId("B", "m")
    events = AnomalyEvents((kb, ka), [0, 0, 300], [1, 0, 1], [1, 0, 1], [3.5, 4.0, 5.25])
    listed = [
        AnomalyEvent(0, ka, AnomalyKind.UNIVARIATE, 3.5),
        AnomalyEvent(0, kb, AnomalyKind.MULTIVARIATE, 4.0),
        AnomalyEvent(300, ka, AnomalyKind.UNIVARIATE, 5.25),
    ]
    assert len(events) == 3
    assert list(events) == listed  # iteration keeps the column order
    assert events == listed and listed == events and events == tuple(listed)
    assert events != listed[:2] and events != listed[::-1] and events != []
    assert events[1] == listed[1] and events[-1] == listed[-1]
    with pytest.raises(IndexError):
        events[3]
    assert isinstance(events[1:], AnomalyEvents) and events[1:] == listed[1:]
    assert events[::2] == listed[::2]
    first, second, _ = events
    assert first.interval_start is second.interval_start  # one int per interval start
    # equal columns over differently numbered KPIs are equal events
    renumbered = AnomalyEvents((ka, kb), [0, 0, 300], [0, 1, 0], [1, 0, 1], [3.5, 4.0, 5.25])
    assert events == renumbered and renumbered == events
    assert events != AnomalyEvents((ka, kb), [0, 0, 300], [0, 1, 0], [1, 0, 1], [3.5, 4.0, 5.5])
    assert events != AnomalyEvents((ka,), [0, 0, 300], [0, 0, 0], [1, 0, 1], [3.5, 4.0, 5.25])
    assert AnomalyEvents.of(listed) == events and AnomalyEvents.of(events) is events
    assert events.index(listed[2]) == 2 and listed[0] in events
    with pytest.raises(AttributeError):
        events.score = np.zeros(3)
    with pytest.raises(ValueError):
        events.score[0] = 1.0  # the columns are read-only


def test_empty_anomaly_events():
    empty = AnomalyEvents((), [], [], [], [])
    assert len(empty) == 0 and list(empty) == [] and empty == [] and [] == empty
    assert empty == AnomalyEvents.of([]) and empty == ()
    assert empty[:5] == [] and not empty
    assert repr(empty) == "AnomalyEvents([])"
    model = BaselineModel(baselines={}, edges=())
    assert detect_stream(model, {}, 0) == empty


def test_anomaly_events_validate_their_columns():
    kpi = KpiId("Homer", "CpuIdlePct")
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^anomaly score must be finite and non-negative$"):
            AnomalyEvents((kpi,), [0], [0], [1], [bad])
    AnomalyEvents((kpi,), [0], [0], [1], [-0.0])  # as AnomalyEvent, -0.0 passes
    with pytest.raises(ValueError):
        AnomalyEvents((kpi,), [0], [1], [1], [1.0])  # no KPI number 1
    with pytest.raises(ValueError):
        AnomalyEvents((kpi,), [0], [0], [2], [1.0])  # no kind code 2
    with pytest.raises(ValueError):
        AnomalyEvents((kpi,), [0, 300], [0], [1], [1.0])


# KPI names a CSV writer must quote, and scores whose repr is unusual
log_kpis = st.sampled_from(
    [KpiId("Homer", "CpuIdlePct"), KpiId("Sprout", "Mem Used"), KpiId('Ralph "db"', "m"), KpiId(" x", "y ")]
)
log_events = st.builds(
    AnomalyEvent,
    st.integers(-(10**9), 253402300799),  # 1938 .. 9999-12-31T23:59:59Z
    log_kpis,
    st.sampled_from(list(AnomalyKind)),
    st.one_of(
        st.floats(min_value=0.0, allow_infinity=False, allow_nan=False),
        st.sampled_from([0.0, 5e-324, 1e16, 1e300, 3.0000000000000004]),
    ),
)


def in_blocks(block_chars):
    """``read_anomaly_log`` reading blocks of about ``block_chars``
    characters: small blocks put block boundaries between every few lines,
    and batch boundaries between every few rows from ``csv.reader``."""

    def read(stream):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(faultcast.io, "_BLOCK_CHARS", block_chars)
            patch.setattr(faultcast.io, "_BATCH_ROWS", 1 + block_chars // 50)
            return read_anomaly_log(stream)

    return read


#: one line to a few lines per block
BLOCK_CHARS = st.integers(1, 200)


def unquoted(events, plain):
    """``events``, or when ``plain`` those whose KPI the csv writer does not
    quote, so that the reader takes the column path."""
    return [event for event in events if not plain or '"' not in event.kpi.resource]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(log_events, max_size=40),
    st.booleans(),
    st.sampled_from(["\n", "\r\n"]),
    st.lists(st.integers(0, 10**6), max_size=3),
    BLOCK_CHARS,
    st.sampled_from(["\n", ""]),
)
def test_anomaly_log_round_trips_with_the_row_writers_bytes(events, plain, ending, blanks, block_chars, newline):
    events = unquoted(events, plain)
    expected = io.StringIO()
    oracles.write_anomaly_log_rows(events, expected)
    for given_events in (events, AnomalyEvents.of(events)):
        buf = io.StringIO()
        write_anomaly_log(given_events, buf)
        assert buf.getvalue() == expected.getvalue()
        back = read_anomaly_log(io.StringIO(buf.getvalue()))
        assert back == given_events and back == events
        assert back == oracles.read_anomaly_log_rows(io.StringIO(buf.getvalue()))
    # CRLF endings and blank lines, read a few lines at a time from a
    # stream that splits lines at LF or one that records its newlines
    header, *body = buf.getvalue().split("\n")[:-1]
    for where in blanks:
        body.insert(where % (len(body) + 1), "")
    text = ending.join([header, *body, ""])
    back = in_blocks(block_chars)(io.StringIO(text, newline=newline))
    assert back == events and back == oracles.read_anomaly_log_rows(io.StringIO(text, newline=newline))
    assert back == oracles.read_anomaly_log_split(io.StringIO(text, newline=newline), block_chars)


#: A bad value for one field of a log row; field 5 is one field too many
bad_fields = st.sampled_from(
    [
        (0, "2026-01-01T00:00:00"),
        (0, "2026-13-01T00:00:00Z"),
        (0, ""),
        (1, ""),
        (1, 'Ralph "db"'),  # quoted: the rest of the log goes through csv.reader
        (2, "a\rb"),
        (2, "a\0b"),
        (3, "univariate"),
        (3, "Sideways"),
        (4, "-1.0"),
        (4, "nan"),
        (4, "inf"),
        (4, "1e999"),
        (4, "3,5"),
        (4, "x"),
        (5, "4.0"),
    ]
)


def log_outcome(read, text, newline="\n"):
    """The events a reader returns, or the type and message it raises.
    ``newline`` is the stream's, as for ``open``."""
    try:
        return list(read(io.StringIO(text, newline=newline)))
    except CsvParseError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(log_events, min_size=1, max_size=12), st.booleans(), st.data())
def test_anomaly_log_reader_errors_match_the_row_reader(events, plain, data):
    events = unquoted(events, plain) or events[:1]
    buf = io.StringIO()
    oracles.write_anomaly_log_rows(events, buf)
    lines = buf.getvalue().split("\n")
    line = data.draw(st.integers(1, len(events)))
    field, value = data.draw(bad_fields)
    row = next(csv.reader([lines[line]]))
    row[field : field + 1] = [value]
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(row)
    lines[line] = out.getvalue()
    # a stray CR or a NUL after the first comma, unquoted
    stray = data.draw(st.sampled_from(["", "\r", "\0"]))
    lines[line] = lines[line].replace(",", "," + stray, 1)
    if data.draw(st.booleans()):
        lines.insert(line, "")  # a blank line still counts
    text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    block_chars = data.draw(BLOCK_CHARS)
    newline = data.draw(st.sampled_from(["\n", ""]))
    got = log_outcome(in_blocks(block_chars), text, newline)
    assert got == log_outcome(read_anomaly_log, text, newline)
    assert got == log_outcome(oracles.read_anomaly_log_rows, text, newline)
    assert got == log_outcome(lambda stream: oracles.read_anomaly_log_split(stream, block_chars), text, newline)


@pytest.mark.parametrize(
    "damage",
    [None, (0, "2026-13-01T00:00:00Z"), (2, ""), (3, "Sideways"), (4, "nan"), (4, "1,5"), (4, "1\0"), (3, 'Uni"variate')],
)
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_a_log_of_several_blocks_reads_like_the_row_reader(damage, ending, monkeypatch):
    """A log longer than four blocks of 64 KB, damaged five eighths of the
    way in."""
    monkeypatch.setattr(faultcast.io, "_BLOCK_CHARS", 1 << 16)
    kpis = [KpiId("Homer", "CpuIdlePct"), KpiId("Sprout", "MemUsedPct"), KpiId("Ralph", "Mem Used")]
    events = [AnomalyEvent(300 * (i // 3), kpis[i % 3], list(AnomalyKind)[i // 3 % 2], i / 7) for i in range(4500)]
    buf = io.StringIO()
    write_anomaly_log(events, buf)
    lines = buf.getvalue().split("\n")
    assert len(buf.getvalue()) > 4 * faultcast.io._BLOCK_CHARS
    at = len(lines) * 5 // 8
    if damage is not None:
        row = lines[at].split(",")
        row[damage[0]] = damage[1]
        lines[at] = ",".join(row)
    text = ending.join(lines)
    got = log_outcome(read_anomaly_log, text)
    assert got == log_outcome(oracles.read_anomaly_log_rows, text)
    if damage is None:
        assert got == events
    else:
        assert got[0] is CsvParseError and got[1].startswith(f"line {at + 1}: ")
