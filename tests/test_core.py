"""Core vocabulary: identifiers, time handling, series and window arithmetic."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultcast.core import (
    CADENCE_S,
    NORMAL_CLASS,
    SYSTEM_RESOURCE,
    FailureClass,
    FaultType,
    FaultcastError,
    Frame,
    KpiId,
    TimeSeries,
    format_timestamp,
    hour_of_week,
    kpi_id,
    lags,
    parse_timestamp,
    slide_windows,
)


def test_parse_timestamp_known_value():
    ts = parse_timestamp("2016-12-20T22:22:35Z")
    expected = int(datetime(2016, 12, 20, 22, 22, 35, tzinfo=timezone.utc).timestamp())
    assert ts == expected


def test_timestamp_round_trip():
    rng = np.random.default_rng(7)
    for ts in rng.integers(0, 2_000_000_000, size=200):
        text = format_timestamp(int(ts))
        assert parse_timestamp(text) == int(ts), f"round trip broke for {text}"


def test_parse_timestamp_rejects_junk():
    for bad in ("2016-12-20 22:22:35", "2016-12-20T22:22:35", "not-a-time", ""):
        with pytest.raises(ValueError):
            parse_timestamp(bad)


def test_hour_of_week_matches_datetime_oracle():
    rng = np.random.default_rng(11)
    for ts in rng.integers(0, 2_000_000_000, size=500):
        dt = datetime.fromtimestamp(int(ts), tz=timezone.utc)
        expected = dt.weekday() * 24 + dt.hour
        assert hour_of_week(int(ts)) == expected, f"wrong bucket for {dt}"


def test_hour_of_week_vectorized():
    ts = np.array([0, 3600, 86400, 6 * 86400 + 23 * 3600], dtype=np.int64)
    got = hour_of_week(ts)
    assert isinstance(got, np.ndarray)
    assert got.tolist() == [hour_of_week(int(t)) for t in ts]
    assert got.min() >= 0 and got.max() < 168


def test_kpi_id_basics():
    kpi = KpiId("Homer", "BytesSentPerSec")
    assert str(kpi) == "Homer/BytesSentPerSec"
    assert KpiId("A", "b") < KpiId("A", "c") < KpiId("B", "a")
    with pytest.raises(ValueError):
        KpiId("", "metric")
    with pytest.raises(ValueError):
        KpiId("host", "")
    with pytest.raises(ValueError):
        KpiId("host,a", "metric")
    with pytest.raises(ValueError):
        KpiId("host", "metric\n")


def test_kpi_id_hash_is_cached_and_keeps_the_dataclass_behaviour():
    kpi = KpiId("Homer", "BytesSentPerSec")
    # the dataclass hash, so set and frozenset iteration orders are unchanged
    assert hash(kpi) == hash(("Homer", "BytesSentPerSec"))
    assert [f.name for f in dataclasses.fields(KpiId)] == ["resource", "metric"]
    assert repr(kpi) == "KpiId(resource='Homer', metric='BytesSentPerSec')"
    assert kpi == KpiId("Homer", "BytesSentPerSec") and kpi != KpiId("Homer", "CpuIdlePct")
    assert kpi != ("Homer", "BytesSentPerSec")
    assert sorted([KpiId("B", "a"), KpiId("A", "c"), KpiId("A", "b")]) == [
        KpiId("A", "b"),
        KpiId("A", "c"),
        KpiId("B", "a"),
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        kpi.resource = "Sprout"
    assert dataclasses.replace(kpi, metric="CpuIdlePct") == KpiId("Homer", "CpuIdlePct")
    for again in (copy.copy(kpi), copy.deepcopy(kpi), pickle.loads(pickle.dumps(kpi))):
        assert again == kpi and hash(again) == hash(kpi) and repr(again) == repr(kpi)


def test_kpi_id_gives_one_checked_object_a_name_pair():
    assert kpi_id("Homer", "CpuIdlePct") is kpi_id("Homer", "CpuIdlePct") == KpiId("Homer", "CpuIdlePct")
    assert kpi_id("Homer", "CpuIdlePct") is not kpi_id("Homer", "MemUsedPct")
    # a bad name gets KpiId's own message, an unhashable one too
    for resource, metric, said in (
        (["x"], "m", r"^KpiId.resource \['x'\] must be a string$"),
        ("Homer", 5, r"^KpiId.metric 5 must be a string$"),
        ("Homer", "", r"^KpiId.metric must be non-empty$"),
    ):
        with pytest.raises(ValueError, match=said):
            kpi_id(resource, metric)


def test_a_pickled_kpi_id_hashes_as_in_the_loading_process():
    # string hashes differ between processes: a stored hash would be stale
    code = (
        "import pickle, sys; from faultcast.core import KpiId;"
        "kpi = pickle.loads(sys.stdin.buffer.read());"
        "print(hash(kpi) == hash(('Homer', 'CpuIdlePct')), {kpi: 1}[KpiId('Homer', 'CpuIdlePct')])"
    )
    data = pickle.dumps(KpiId("Homer", "CpuIdlePct"))
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], input=data, capture_output=True, env=env, check=True)
    assert out.stdout.decode().split() == ["True", "1"]


def test_time_series_validation():
    kpi = KpiId("Homer", "CpuIdlePct")
    with pytest.raises(ValueError):
        TimeSeries(kpi, [], [])
    with pytest.raises(ValueError):
        TimeSeries(kpi, [10, 10], [1.0, 2.0])  # duplicate timestamp
    with pytest.raises(ValueError):
        TimeSeries(kpi, [10, 5], [1.0, 2.0])  # out of order
    with pytest.raises(ValueError):
        TimeSeries(kpi, [10, 20], [1.0, float("nan")])
    series = TimeSeries(kpi, [10, 20, 30], [1.0, 2.0, 3.0])
    assert series.start == 10 and series.end == 30
    assert series.span_s == 20
    assert not series.timestamps.flags.writeable
    assert not series.values.flags.writeable


@pytest.mark.parametrize(
    "timestamps, values, message",
    [
        ([[10, 20]], [[1.0, 2.0]], "timestamps and values must be 1-d"),
        ([10, 20], [[1.0, 2.0]], "timestamps and values must be 1-d"),
        ([10, 20, 30], [1.0, 2.0], "timestamps and values must have equal length"),
        ([], [], "empty series for Homer/CpuIdlePct"),
        ([10, 10], [1.0, 2.0], "timestamps for Homer/CpuIdlePct must be strictly increasing"),
        ([10, 20, 5], [1.0, 2.0, 3.0], "timestamps for Homer/CpuIdlePct must be strictly increasing"),
        ([10, 20], [1.0, float("nan")], "series for Homer/CpuIdlePct contains non-finite values"),
        ([10], [float("inf")], "series for Homer/CpuIdlePct contains non-finite values"),
        ([10, 20], [-float("inf"), 1.0], "series for Homer/CpuIdlePct contains non-finite values"),
    ],
)
def test_time_series_rejections_keep_their_messages(timestamps, values, message):
    with pytest.raises(ValueError) as excinfo:
        TimeSeries(KpiId("Homer", "CpuIdlePct"), timestamps, values)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("n", [1, 2, 50])
def test_time_series_arrays_are_read_only(n):
    series = TimeSeries(KpiId("Homer", "CpuIdlePct"), 60 * np.arange(n), np.arange(n, dtype=float))
    for array in (series.timestamps, series.values):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@st.composite
def grid_maps(draw):
    """(series map, KPI list): KPIs on a shared run of the cadence grid, an
    equal copy of it, a gappy subset, a shifted run, or absent from the map;
    plus a mapped KPI outside the list.  Every sample is on the grid."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = 60 * np.arange(n)
    gappy = np.sort(rng.choice(base, size=draw(st.integers(1, n)), replace=False))
    layouts = [base, base.copy(), gappy, base + 60 * draw(st.integers(1, n))]
    kpis = [KpiId("R", f"m{i}") for i in range(draw(st.integers(0, 8)))]
    series_map = {}
    for kpi in kpis + [KpiId("R", "unlisted")]:
        layout = draw(st.integers(-1, len(layouts) - 1))  # -1: absent
        if layout >= 0:
            series_map[kpi] = TimeSeries(kpi, layouts[layout], rng.standard_normal(len(layouts[layout])))
    return series_map, draw(st.permutations(kpis))


@settings(max_examples=200, deadline=None)
@given(grid_maps(), st.integers(1, 3))
def test_frame_holds_every_sample_at_its_timestamp(case, p):
    series_map, kpis = case
    frame = Frame.of(series_map, kpis)
    listed = [series_map[kpi] for kpi in kpis if kpi in series_map]
    assert frame.kpis == tuple(kpis)
    assert frame.timestamps.tolist() == sorted({t for s in listed for t in s.timestamps.tolist()})
    assert frame.values.shape == (len(kpis), len(frame.timestamps))
    assert not frame.timestamps.flags.writeable and not frame.values.flags.writeable
    history = frame.history(p)
    for k, kpi in enumerate(kpis):
        s = series_map.get(kpi)
        samples = {} if s is None else dict(zip(s.timestamps.tolist(), s.values.tolist()))
        row = [samples.get(t, np.nan) for t in frame.timestamps.tolist()]
        assert np.array_equal(frame.values[k], row, equal_nan=True)
        # a sample at t and at each of the p cadences before it
        full = [all(t - i * CADENCE_S in samples for i in range(p + 1)) for t in frame.timestamps.tolist()]
        assert history[k].tolist() == full


@settings(max_examples=100, deadline=None)
@given(grid_maps(), st.sampled_from([7, 30, 20, 10, 1]))
def test_frame_rejects_samples_off_the_cadence_grid(case, step):
    # off by 7 s, or a sub-cadence of 30, 20, 10 or 1 s; checked on every
    # KPI of the map, listed or not
    series_map, kpis = case
    first = min((int(s.timestamps[0]) for s in series_map.values()), default=0)
    off = KpiId("R", "off")
    series_map[off] = TimeSeries(off, [first, first + step], [0.0, 1.0])
    message = f"R/off has a sample at {format_timestamp(first + step)}, off the data's 60-second cadence"
    with pytest.raises(FaultcastError, match=message):
        Frame.of(series_map, kpis)


@pytest.mark.parametrize("shape", [(12,), (3, 12)])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_lags_are_views_of_the_lag_slices(shape, p):
    values = np.random.default_rng(p).standard_normal(shape)
    n = shape[-1]
    view = lags(values, p)
    assert view.shape == shape[:-1] + (p, n - p)
    assert np.shares_memory(view, values) and not view.flags.writeable
    for i in range(1, p + 1):
        assert np.array_equal(view[..., i - 1, :], values[..., p - i : n - i])


def test_failure_class_validation():
    assert NORMAL_CLASS.label() == "Normal"
    assert FailureClass(FaultType.PACKET_LOSS, "Homer").label() == "PacketLoss(Homer)"
    assert (
        FailureClass(FaultType.EXCESSIVE_WORKLOAD, SYSTEM_RESOURCE).label()
        == "ExcessiveWorkload(SYSTEM)"
    )
    with pytest.raises(ValueError):
        FailureClass(FaultType.NORMAL, "Homer")
    with pytest.raises(ValueError):
        FailureClass(FaultType.EXCESSIVE_WORKLOAD, "Homer")
    with pytest.raises(ValueError):
        FailureClass(FaultType.CPU_HOG, "")


def test_slide_windows_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        duration_min = int(rng.integers(1, 400))
        l_min = int(rng.integers(1, 200))
        step_min = int(rng.integers(1, 60))
        start = int(rng.integers(0, 10**9))
        end = start + duration_min * 60
        got = slide_windows(start, end, l_min, step_min)
        l_s, step_s = l_min * 60, step_min * 60
        if duration_min * 60 < l_s:
            expected = []
        else:
            expected = [
                (start + off, start + off + l_s)
                for off in range(0, duration_min * 60 - l_s + 1, step_s)
            ]
        assert got == expected, f"dur={duration_min} l={l_min} step={step_min}"


def test_slide_windows_fixed_cases():
    # 100-minute run, 90-minute windows advancing by 7 -> offsets 0 and 7 only
    got = slide_windows(0, 100 * 60, 90, 7)
    assert [(s // 60, e // 60) for s, e in got] == [(0, 90), (7, 97)]
    # run exactly one window long -> a single window
    assert slide_windows(500, 500 + 90 * 60, 90, 5) == [(500, 500 + 90 * 60)]
    # run shorter than the window -> nothing
    assert slide_windows(0, 89 * 60, 90, 5) == []
    with pytest.raises(ValueError):
        slide_windows(0, 6000, 0, 5)
    with pytest.raises(ValueError):
        slide_windows(0, 6000, 90, 0)


def test_cadence_constant():
    assert CADENCE_S == 60


def test_the_offline_layers_import_no_online_module():
    # the package root re-exports nothing, so simulating, CSV I/O and
    # fitting a baseline do not pay to import detection or prediction
    code = (
        "import sys, faultcast.sim, faultcast.io, faultcast.baseline;"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('faultcast'))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    loaded = set(out.stdout.decode().split())
    online = {f"faultcast.{name}" for name in ("detect", "evaluate", "predict", "signature", "metrics", "cli")}
    assert {"faultcast.sim", "faultcast.io", "faultcast.baseline"} <= loaded
    assert not loaded & online, f"loaded {sorted(loaded & online)}"
