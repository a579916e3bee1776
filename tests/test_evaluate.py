"""Suite configuration, run scheduling, labeling and report rendering."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from faultcast.core import (
    DAY_S,
    NORMAL_CLASS,
    SYSTEM_RESOURCE,
    AnomalyKind,
    FailureClass,
    FaultType,
    KpiId,
    SchemaVersionError,
    hour_of_week,
    parse_timestamp,
    slide_windows,
)
from faultcast.detect import AnomalyEvent, AnomalyEvents
from faultcast.io import InjectedFault, RunManifest
from faultcast.metrics import Contingency, EffectivenessMetrics, metrics
from faultcast.evaluate import (
    RQ3_DEVIATIONS,
    RQ3_RUN_MIN,
    RQ3_RUNS_PER_DEVIATION,
    RQ4_TARGET,
    Rq1Row,
    Rq3Run,
    RunRecord,
    SuiteConfig,
    assemble_windows,
    default_run_specs,
    failure_class_of,
    render_rq1,
    render_rq3,
    rq3_overall_fraction,
    rq3_run_specs,
    rq4_run_specs,
    run_day,
    window_label,
)
from faultcast.signature import cross_validate
from faultcast.sim import default_topology

CONFIGS = Path(__file__).parent.parent / "configs"
APP_VMS = default_topology().app_vms

LEAK_SPROUT = FailureClass(FaultType.MEMORY_LEAK, "Sprout")


def test_config_round_trip(tmp_path):
    config = SuiteConfig()
    path = tmp_path / "suite.json"
    config.save(path)
    assert SuiteConfig.load(path) == config
    # the bundled default configuration file is what the in-code defaults save
    assert path.read_bytes() == (CONFIGS / "suite-default.json").read_bytes()


@pytest.mark.parametrize(
    "field, value",
    [
        ("run_hour", 24),
        ("run_hour", -1),
        ("quiet_hour", 30),
        ("folds", 1),
        ("step_min", 0),
        ("window_min", 0),
        ("training_days", 0),
        ("injection_min", 180),
        ("injection_min", -5),
        ("k_sigma", 0.0),
        ("k_sigma", math.nan),
        ("lag_order", 0),
        ("alpha", 1.0),
        ("prefilter_r", math.nan),
        ("tau", -1.0),
        ("tau", math.inf),
        ("seed", -1),
    ],
)
def test_config_rejects_an_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=rf"^{field} {value} "):
        SuiteConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("folds", 2.5),
        ("training_days", True),
        ("window_min", 90.0),
        ("lag_order", "3"),
        ("seed", None),
        ("training_start", 1.5e9),
        ("run_duration_min", False),
    ],
)
def test_config_rejects_a_count_that_is_not_an_integer(field, value):
    # 2.5 folds failed in numpy after the build; true training days ran one
    with pytest.raises(ValueError, match=rf"^{field} {value!r} must be an integer$"):
        SuiteConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("tau", True), ("tau", "3"), ("k_sigma", True), ("alpha", "0.01"), ("prefilter_r", None)],
)
def test_config_rejects_a_float_field_that_is_not_a_number(field, value):
    # a true tau evaluated with tau = 1; "3" failed in the range check with a
    # TypeError about '<='
    with pytest.raises(ValueError, match=rf"^{field} {re.escape(repr(value))} must be a number$"):
        SuiteConfig(**{field: value})
    assert SuiteConfig(tau=0, k_sigma=2).tau == 0  # an int is a number


@st.composite
def suite_configs(draw):
    """Suite configs that differ in everything the run schedules read."""
    duration = draw(st.integers(1, 400))
    # any other targets, in any order, beside RQ4's
    others = [vm for vm in APP_VMS if vm != RQ4_TARGET]
    targets = draw(st.permutations(others))[: draw(st.integers(0, len(others)))]
    targets.insert(draw(st.integers(0, len(targets))), RQ4_TARGET)
    earliest, latest = parse_timestamp("2000-01-01T00:00:00Z"), parse_timestamp("2100-01-01T00:00:00Z")
    return SuiteConfig(
        training_start=draw(st.integers(earliest, latest)),
        training_days=draw(st.integers(1, 60)),
        run_duration_min=duration,
        injection_min=draw(st.integers(0, duration - 1)),
        run_hour=draw(st.integers(0, 23)),
        quiet_hour=draw(st.integers(0, 23)),
        fault_targets=tuple(targets),
        window_min=min(90, duration),
        seed=draw(st.integers(0, 2**31)),
    )


@settings(max_examples=150, deadline=None)
@given(suite_configs(), st.integers(0, 3), st.integers(1, 300), st.sampled_from(APP_VMS))
def test_run_schedules_equal_the_loops(config, repeats, duration_min, target):
    assert default_run_specs(config) == oracles.default_run_specs_loops(config)
    rq3 = oracles.rq3_run_specs_loops(config, RQ3_DEVIATIONS, RQ3_RUNS_PER_DEVIATION, RQ3_RUN_MIN)
    assert rq3_run_specs(config) == rq3
    rq4 = rq4_run_specs(config, repeats, duration_min, target)
    assert rq4 == oracles.rq4_run_specs_loops(config, repeats, duration_min, target)


@pytest.mark.parametrize(
    "targets",
    ["Sprout", ("Sprout", "Sprout"), ("Sprout", 3), ["Sprout"], None],
    ids=["text", "repeated", "not-text", "list", "null"],
)
def test_config_rejects_fault_targets_that_are_not_distinct_names(targets):
    # "Sprout" once ran as the targets 'S', 'p', 'r', 'o', 'u' and 't', and a
    # repeated target built its runs twice under the same run ids
    with pytest.raises(ValueError, match=rf"^fault_targets {re.escape(repr(targets))} must be a tuple of distinct"):
        SuiteConfig(fault_targets=targets)


@pytest.mark.parametrize(
    "targets", ["Sprout", ["Sprout", "Sprout"], ["Sprout", 3], None], ids=["text", "repeated", "not-text", "null"]
)
def test_a_config_file_gives_fault_targets_as_a_list_of_distinct_names(targets):
    data = SuiteConfig().to_dict()
    data["fault_targets"] = targets
    with pytest.raises(ValueError, match="^fault_targets "):
        SuiteConfig.from_dict(data)
    del data["fault_targets"]  # an absent key is the default
    assert SuiteConfig.from_dict(data).fault_targets == SuiteConfig().fault_targets


@pytest.mark.parametrize("targets", [(), ("Homer",), ("Homer", "Bono")], ids=["none", "homer", "two-others"])
def test_config_rejects_fault_targets_without_the_rq4_target(targets):
    # RQ4 injects its host faults on Sprout: without a Sprout class in
    # training, every one of its 30 host-fault rows read "none"
    with pytest.raises(ValueError, match=rf"^fault_targets {re.escape(repr(targets))} must include 'Sprout'"):
        SuiteConfig(fault_targets=targets)
    data = SuiteConfig().to_dict()
    data["fault_targets"] = list(targets)
    with pytest.raises(ValueError, match="must include 'Sprout'"):
        SuiteConfig.from_dict(data)
    assert SuiteConfig(fault_targets=targets + (RQ4_TARGET,)).fault_targets[-1] == RQ4_TARGET


def test_config_training_window():
    config = SuiteConfig()
    assert config.training_start == parse_timestamp("2026-01-05T00:00:00Z")
    assert config.training_end == config.training_start + 28 * DAY_S
    assert hour_of_week(config.training_start) == 0, "training starts on a Monday"


def test_config_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "faultcast-run-manifest", "schema_version": 1}))
    with pytest.raises(SchemaVersionError):
        SuiteConfig.load(path)


def test_run_day_walks_weekdays():
    config = SuiteConfig()
    days = [run_day(config, i) for i in range(12)]
    for day in days:
        assert hour_of_week(day) % 24 == 0, "runs start at midnight offsets"
        assert hour_of_week(day) // 24 < 5, "runs land on weekdays"
    # the cycle repeats over five weekdays
    assert days[0] == days[5] and days[1] == days[6]
    assert len(set(days[:5])) == 5


def test_default_run_specs_composition():
    config = SuiteConfig()
    specs = default_run_specs(config)
    assert len(specs) == 39
    run_ids = [s.run_id for s in specs]
    assert len(set(run_ids)) == 39, "run ids must be unique"
    faulty = [s for s in specs if s.fault is not None]
    passing = [s for s in specs if s.fault is None]
    assert len(faulty) == 33 and len(passing) == 6

    # 5 host fault types x 2 targets x 3 patterns
    host = [s for s in faulty if s.fault.resource != SYSTEM_RESOURCE]
    assert len(host) == 30
    combos = {(s.fault.fault_type, s.fault.resource, s.fault.pattern) for s in host}
    assert len(combos) == 30
    assert {s.fault.resource for s in host} == {"Sprout", "Homer"}

    # the workload fault targets the system as a whole, once per pattern
    system = [s for s in faulty if s.fault.resource == SYSTEM_RESOURCE]
    assert len(system) == 3
    assert all(s.fault.fault_type is FaultType.EXCESSIVE_WORKLOAD for s in system)

    # two of the passing runs deviate the workload on purpose
    assert sum(1 for s in passing if s.deviation > 0) == 3
    assert sum(1 for s in passing if s.deviation == 0) == 3

    for spec in specs:
        assert spec.start >= config.training_end, "runs come after training"
        assert hour_of_week(spec.start) // 24 < 5
        if spec.fault is not None:
            assert spec.fault.injection_time == spec.start + config.injection_min * 60
    assert len({s.seed for s in specs}) == 39, "every run draws fresh randomness"


def test_failure_class_of_manifest():
    base = dict(run_id="r", start=0, end=600)
    assert failure_class_of(RunManifest(**base)) == NORMAL_CLASS
    leaky = RunManifest(
        fault=InjectedFault(FaultType.MEMORY_LEAK, "Sprout", "Constant", 300), **base
    )
    assert failure_class_of(leaky) == LEAK_SPROUT
    flooded = RunManifest(
        fault=InjectedFault(FaultType.EXCESSIVE_WORKLOAD, SYSTEM_RESOURCE, "Constant", 300),
        **base,
    )
    assert failure_class_of(flooded) == FailureClass(
        FaultType.EXCESSIVE_WORKLOAD, SYSTEM_RESOURCE
    )


def test_window_label_boundary():
    manifest = RunManifest(
        run_id="r",
        start=0,
        end=7200,
        fault=InjectedFault(FaultType.MEMORY_LEAK, "Sprout", "Constant", 5400),
    )
    # a window is faulty from the moment its end reaches the injection
    assert window_label(manifest, 0, 5399) == NORMAL_CLASS
    assert window_label(manifest, 0, 5400) == LEAK_SPROUT
    assert window_label(manifest, 600, 6000) == LEAK_SPROUT
    clean = RunManifest(run_id="c", start=0, end=7200)
    assert window_label(clean, 0, 7200) == NORMAL_CLASS


def fake_rq1_row(window_min, f_measure, algorithm="tree"):
    return Rq1Row(
        window_min=window_min,
        algorithm=algorithm,
        n_windows=100,
        windows_per_run=19,
        micro=EffectivenessMetrics(
            precision=f_measure, recall=f_measure, f_measure=f_measure,
            accuracy=f_measure, fpr=0.01,
        ),
        alarm_rate=0.0,
    )


def test_a_run_record_holds_its_events_as_columns():
    ka, kb = KpiId("Sprout", "CpuIdlePct"), KpiId("Homer", "MemUsedPct")
    events = [
        AnomalyEvent(0, kb, AnomalyKind.UNIVARIATE, 4.5),
        AnomalyEvent(300, ka, AnomalyKind.MULTIVARIATE, 3.25),
        AnomalyEvent(300, kb, AnomalyKind.UNIVARIATE, 6.0),
    ]
    columns = AnomalyEvents.of(events)
    manifest = RunManifest("run", 0, 900)
    for given_events in (tuple(events), list(events), columns):
        record = RunRecord(manifest, given_events)
        assert type(record.events) is AnomalyEvents
        assert record.events == events and record.events.kpis == (kb, ka)
    assert RunRecord(manifest, columns).events is columns  # converted once, not copied
    assert RunRecord(manifest, ()).events == [] and RunRecord(manifest, ()) == RunRecord(manifest, [])


def test_rq1_f_gap_measures_distance_to_the_best_length():
    rows = [fake_rq1_row(60, 0.97), fake_rq1_row(90, 0.95), fake_rq1_row(120, 0.96)]
    assert oracles.rq1_f_gap(rows, 90) == pytest.approx(0.02)
    assert oracles.rq1_f_gap(rows, 60) == pytest.approx(0.0)
    with pytest.raises(KeyError):
        oracles.rq1_f_gap(rows, 75)


def test_render_rq1_reports_both_window_count_conventions():
    rows = [fake_rq1_row(60, 0.97), fake_rq1_row(90, 0.95)]
    text = render_rq1(rows)
    assert "19" in text and "18" in text
    assert "90" in text and "tree" in text


def test_render_rq3_summarizes_fractions():
    rows = [
        Rq3Run(run_id="random40-1", deviation=0.4, n_windows=7, n_normal=7),
        Rq3Run(run_id="random100-1", deviation=1.0, n_windows=7, n_normal=6),
    ]
    assert rq3_overall_fraction(rows) == pytest.approx(13 / 14)
    text = render_rq3(rows)
    assert "random40-1" in text and "random100-1" in text
    assert "92.86%" in text


def test_metrics_render_width_for_reports():
    line = metrics(Contingency(10, 0, 0, 90)).render("PacketLoss(Homer)")
    assert line.startswith("PacketLoss(Homer)")
    assert "100.000" in line


def test_rq1_windows_and_cross_validation_equal_the_oracles(suite_data):
    config = suite_data.config
    for l_min in (60, 90, 120):
        pool = assemble_windows(suite_data.runs, l_min, config.step_min)
        scanned, bounds, labels = [], [], []
        for rec in suite_data.runs:
            windows = slide_windows(rec.manifest.start, rec.manifest.end, l_min, config.step_min)
            scanned += oracles.windowize_events_scan(rec.events, windows)
            bounds += windows
            labels += [window_label(rec.manifest, start, end) for start, end in windows]
        assert oracles.pool_features(pool) == scanned
        assert list(zip(pool.start.tolist(), pool.end.tolist())) == bounds
        assert pool.labels == tuple(labels)
        for algorithm in ("tree", "nb"):
            cv = cross_validate(pool, suite_data.vocab, k=config.folds, seed=config.seed, algorithm=algorithm)
            expected = oracles.cross_validate_rows(
                pool, suite_data.vocab, k=config.folds, seed=config.seed, algorithm=algorithm
            )
            assert cv.predictions == expected, f"{l_min}-min {algorithm}"
