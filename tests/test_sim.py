"""The deterministic testbed simulator and its ground-truth oracle."""

import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import csv_text
from faultcast.core import (
    FaultType,
    SYSTEM_RESOURCE,
    KpiId,
    SchemaVersionError,
    TimeSeries,
    hour_of_week,
    kpi_id,
    parse_timestamp,
)
from faultcast.evaluate import SuiteConfig
from faultcast.io import MAX_CSV_TIMESTAMP, MIN_CSV_TIMESTAMP, RunManifest, write_csv
from faultcast.sim import (
    BYTES_RECV,
    BYTES_SENT,
    CALLS,
    CPU_IDLE,
    ERRORS,
    INCOMING,
    LATENCY,
    MEM_USED,
    QUEUE,
    REJECTED,
    RETRANS,
    RUN_QUEUE,
    SUCCESS_RATE,
    SWAP,
    FaultSpec,
    Pattern,
    Scenario,
    WorkloadModel,
    activation_profile,
    default_topology,
    failure_oracle,
    fault_footprint,
    gen_run,
    load_scenario,
    timeouts_metric,
)

MONDAY = parse_timestamp("2026-01-05T00:00:00Z")
BUSY_MONDAY = parse_timestamp("2026-01-19T10:00:00Z")
SUCCESS = KpiId("SYSTEM", "SuccessfulCallRate")


def catalog(topology):
    """Every KPI a run of ``topology`` emits, sorted."""
    kpis = []
    for vm in topology.app_vms:
        for metric in (CPU_IDLE, MEM_USED, BYTES_RECV, BYTES_SENT, ERRORS, RETRANS, RUN_QUEUE):
            kpis.append(KpiId(vm, metric))
    for caller, targets in topology.callees.items():
        for callee in targets:
            kpis.append(KpiId(caller, timeouts_metric(callee)))
    for vm in topology.call_path:
        for metric in (LATENCY, INCOMING, REJECTED):
            kpis.append(KpiId(vm, metric))
    for vm in topology.queue_vms:
        kpis.append(KpiId(vm, QUEUE))
    for node in topology.compute_nodes:
        for metric in (CPU_IDLE, MEM_USED, SWAP):
            kpis.append(KpiId(node, metric))
    kpis.append(KpiId(SYSTEM_RESOURCE, CALLS))
    kpis.append(KpiId(SYSTEM_RESOURCE, SUCCESS_RATE))
    return tuple(sorted(kpis))


def host_fault(fault_type, resource="Sprout", pattern=Pattern.CONSTANT, injection=None, **kw):
    return FaultSpec(
        fault_type=fault_type,
        resource=resource,
        pattern=pattern,
        injection_time=BUSY_MONDAY + 15 * 60 if injection is None else injection,
        **kw,
    )


# ---------------------------------------------------------------------------
# workload


def calls_per_sec(model, days, seed, **kw):
    """The SYSTEM/CallsPerSec series of a fault-free run starting on a Monday."""
    series, _ = gen_run(default_topology(), model, None, MONDAY, days * 86400, seed, **kw)
    return series[KpiId("SYSTEM", "CallsPerSec")]


def test_noiseless_workload_follows_the_closed_form():
    model = WorkloadModel()
    series = calls_per_sec(model, 7, seed=1, zero_noise=True)
    how = hour_of_week(series.timestamps)
    day_factor = np.where(how // 24 >= 5, model.weekend_factor, model.weekday_factor)
    expected = model.base_rate * day_factor * np.asarray(model.hourly_profile)[how % 24]
    assert np.array_equal(series.values, expected)


def test_workday_peaks_at_nine_and_nineteen():
    series = calls_per_sec(WorkloadModel(), 1, seed=1, zero_noise=True)
    hours = (series.timestamps % 86400) // 3600
    hourly = [series.values[hours == h][0] for h in range(24)]
    peak = max(hourly)
    assert {h for h in range(24) if hourly[h] == peak} == {9, 19}


def test_weekday_weekend_ratio_over_four_weeks():
    model = WorkloadModel()
    series = calls_per_sec(model, 28, seed=5)
    weekend = hour_of_week(series.timestamps) // 24 >= 5
    ratio = series.values[~weekend].mean() / series.values[weekend].mean()
    expected = model.weekday_factor / model.weekend_factor
    assert abs(ratio / expected - 1.0) < 0.02


def test_workload_noise_is_bounded():
    model = WorkloadModel(noise_std=0.08)
    series = calls_per_sec(model, 7, seed=9)
    clean = calls_per_sec(model, 7, seed=9, zero_noise=True)
    rel = series.values / clean.values - 1.0
    assert np.abs(rel).max() <= 0.08 * 2.6 + 1e-9


def test_perturbation_identity_at_zero_deviation():
    model = WorkloadModel()
    base = calls_per_sec(model, 1, seed=3)
    same = calls_per_sec(model, 1, seed=3, workload_deviation=0.0)
    assert np.array_equal(base.values, same.values)
    moved = calls_per_sec(model, 1, seed=3, workload_deviation=0.4)
    rel = moved.values / base.values
    assert not np.allclose(rel, 1.0)
    assert rel.min() >= 0.6 - 1e-9 and rel.max() <= 1.4 + 1e-9
    # deviations apply per five-minute block
    blocks = rel.reshape(-1, 5)
    assert np.allclose(blocks, blocks[:, :1])


def test_workload_model_validation():
    with pytest.raises(ValueError):
        WorkloadModel(base_rate=0.0)
    with pytest.raises(ValueError):
        WorkloadModel(hourly_profile=(1.0,) * 23)
    with pytest.raises(ValueError):
        WorkloadModel(noise_std=-0.1)


# ---------------------------------------------------------------------------
# fault activation


def test_constant_activation_is_a_step():
    fault = host_fault(FaultType.CPU_HOG, injection=BUSY_MONDAY + 600, constant_level=0.6)
    a = activation_profile(fault, BUSY_MONDAY, 30, np.random.default_rng(0))
    assert np.array_equal(a[:10], np.zeros(10))
    assert np.array_equal(a[10:], np.full(20, 0.6))


def test_exponential_activation_doubles_until_saturation():
    fault = host_fault(
        FaultType.CPU_HOG,
        pattern=Pattern.EXPONENTIAL,
        injection=BUSY_MONDAY,
        exp_a0=0.1,
        exp_double_min=10.0,
    )
    a = activation_profile(fault, BUSY_MONDAY, 60, np.random.default_rng(0))
    assert a[0] == pytest.approx(0.1)
    assert a[10] == pytest.approx(0.2)
    assert a[20] == pytest.approx(0.4)
    assert np.all(np.diff(a) >= 0), "intensity must never decay"
    assert a[-1] == 1.0


def test_random_activation_uses_bernoulli_blocks():
    fault = host_fault(
        FaultType.CPU_HOG,
        pattern=Pattern.RANDOM,
        injection=BUSY_MONDAY,
        random_q=0.5,
        random_block_min=5,
    )
    a = activation_profile(fault, BUSY_MONDAY, 200, np.random.default_rng(42))
    assert set(np.unique(a)) <= {0.0, 1.0}
    blocks = a.reshape(-1, 5)
    assert np.allclose(blocks, blocks[:, :1]), "activation flips only on block edges"
    assert 0.0 < a.mean() < 1.0


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        host_fault(FaultType.NORMAL)
    with pytest.raises(ValueError):
        host_fault(FaultType.EXCESSIVE_WORKLOAD, resource="Sprout")
    with pytest.raises(ValueError):
        FaultSpec(
            fault_type=FaultType.CPU_HOG,
            resource="SYSTEM",
            pattern=Pattern.CONSTANT,
            injection_time=0,
        )
    with pytest.raises(ValueError):
        host_fault(FaultType.CPU_HOG, constant_level=0.0)
    with pytest.raises(ValueError):
        host_fault(FaultType.CPU_HOG, severity=-1.0)


# ---------------------------------------------------------------------------
# run generation


def test_runs_are_deterministic_to_the_byte():
    fault = host_fault(FaultType.PACKET_LOSS, resource="Homer")
    first = gen_run(default_topology(), WorkloadModel(), fault, BUSY_MONDAY, 3600, seed=12)
    second = gen_run(default_topology(), WorkloadModel(), fault, BUSY_MONDAY, 3600, seed=12)
    assert csv_text(first[0]) == csv_text(second[0])
    assert first[1] == second[1]
    third = gen_run(default_topology(), WorkloadModel(), fault, BUSY_MONDAY, 3600, seed=13)
    assert csv_text(third[0]) != csv_text(first[0])


def test_run_emits_exactly_the_catalog():
    topology = default_topology()
    series, manifest = gen_run(topology, WorkloadModel(), None, BUSY_MONDAY, 1800, seed=4)
    assert set(series) == set(catalog(topology))
    assert len(series) == 65
    n = 1800 // 60
    for kpi, s in series.items():
        assert len(s) == n, f"{kpi} has {len(s)} samples"
        assert s.start == BUSY_MONDAY
    assert manifest.fault is None and manifest.failure_time is None
    assert manifest.end == BUSY_MONDAY + 1800


def test_fault_free_runs_stay_healthy():
    series, manifest = gen_run(
        default_topology(), WorkloadModel(), None, BUSY_MONDAY, 180 * 60, seed=11
    )
    assert manifest.failure_time is None
    assert series[SUCCESS].values.min() >= 0.95


def test_fault_free_runs_never_fail_across_seeds():
    topology = default_topology()
    for seed in range(50):
        _, manifest = gen_run(topology, WorkloadModel(), None, BUSY_MONDAY, 3600, seed=seed)
        assert manifest.failure_time is None, f"seed {seed} failed spontaneously"


def test_noiseless_constant_leak_grows_monotonically():
    fault = host_fault(FaultType.MEMORY_LEAK, resource="Sprout")
    series, manifest = gen_run(
        default_topology(),
        WorkloadModel(noise_std=0.0),
        fault,
        BUSY_MONDAY,
        120 * 60,
        seed=6,
        zero_noise=True,
    )
    mem = series[KpiId("Sprout", "MemUsedPct")]
    active = mem.timestamps >= fault.injection_time
    assert np.all(np.diff(mem.values[active]) >= 0)
    assert mem.values[active].max() > mem.values[~active].max()
    # with all noise off nothing moves before the injection
    assert np.allclose(np.diff(mem.values[~active]), 0.0)


def test_corruption_fails_gradually_while_hog_stays_alive():
    topology = default_topology()
    corrupted = host_fault(FaultType.PACKET_CORRUPTION)
    series, manifest = gen_run(topology, WorkloadModel(), corrupted, BUSY_MONDAY, 180 * 60, seed=97)
    assert manifest.failure_time is not None
    # gradual degradation: the service dies well after the fault appears
    assert manifest.failure_time - corrupted.injection_time > 30 * 60
    assert manifest.failure_time == failure_oracle(series[SUCCESS])

    hog = host_fault(FaultType.CPU_HOG)
    _, manifest = gen_run(topology, WorkloadModel(), hog, BUSY_MONDAY, 180 * 60, seed=97)
    assert manifest.failure_time is None


def test_manifest_reports_first_active_minute_for_random_pattern():
    nominal = BUSY_MONDAY + 15 * 60
    fault = host_fault(
        FaultType.PACKET_LOSS, pattern=Pattern.RANDOM, injection=nominal, random_q=0.3
    )
    _, manifest = gen_run(
        default_topology(), WorkloadModel(), fault, BUSY_MONDAY, 120 * 60, seed=21
    )
    recorded = manifest.fault.injection_time
    assert recorded >= nominal
    assert (recorded - nominal) % (fault.random_block_min * 60) == 0
    constant = host_fault(FaultType.PACKET_LOSS, injection=nominal)
    _, manifest = gen_run(
        default_topology(), WorkloadModel(), constant, BUSY_MONDAY, 120 * 60, seed=21
    )
    assert manifest.fault.injection_time == nominal


def test_a_run_lies_within_the_csv_timestamps(tmp_path):
    topology, model = default_topology(), WorkloadModel()
    for start in (MIN_CSV_TIMESTAMP, MAX_CSV_TIMESTAMP - 7200):
        series, manifest = gen_run(topology, model, None, start, 7200, seed=2)
        write_csv(series, tmp_path / "run.csv")
        manifest.save(tmp_path / "run.manifest.json")
        assert RunManifest.load(tmp_path / "run.manifest.json") == manifest
    # checked before anything is allocated: 10**13 minutes would be 73 TiB
    for start, duration_s in ((MIN_CSV_TIMESTAMP - 1, 7200), (MAX_CSV_TIMESTAMP - 7199, 7200), (0, 60 * 10**13)):
        with pytest.raises(ValueError, match=r"^a run must lie within 1000-01-01T00:00:00Z \.\. 9999-12-31"):
            gen_run(topology, model, None, start, duration_s, seed=2)


@st.composite
def footprint_cases(draw):
    """A fault of any type on any target it may hit, and any activation."""
    topology = default_topology()
    fault_type = draw(st.sampled_from([t for t in FaultType if t is not FaultType.NORMAL]))
    hosts = topology.app_vms + topology.compute_nodes
    resource = SYSTEM_RESOURCE if fault_type is FaultType.EXCESSIVE_WORKLOAD else draw(st.sampled_from(hosts))
    severity = draw(st.floats(min_value=1e-3, max_value=1e3))
    fault = FaultSpec(fault_type, resource, draw(st.sampled_from(list(Pattern))), 0, severity=severity)
    values = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
    idle = st.lists(st.just(0.0), min_size=1, max_size=5)
    a = np.array(draw(idle | st.lists(values, min_size=1, max_size=40)))
    return topology, fault, a


@settings(max_examples=300, deadline=None)
@given(footprint_cases())
def test_the_sparse_footprint_matches_the_dense_effects_bit_for_bit(case):
    topology, fault, a = case
    dense = oracles.FaultEffects(topology, fault, a, len(a))
    expected = {
        ("workload", SYSTEM_RESOURCE): dense.workload_mult,
        ("immediate", SYSTEM_RESOURCE): dense.immediate,
        ("cumulative", SYSTEM_RESOURCE): dense.cumulative,
    }
    for term, per_resource in (
        ("net", dense.net_factor),
        ("latency", dense.latency_add),
        ("errors", dense.errors_add),
        ("retrans", dense.retrans_add),
        ("timeout", dense.timeout_add),
        ("busy", dense.busy_add),
        ("leak", dense.leak),
    ):
        expected.update(((term, resource), values) for resource, values in per_resource.items())
    got = fault_footprint(topology, fault, a)
    assert set(got) <= set(expected)
    assert got or not np.any(a > 0)
    for (term, resource), values in expected.items():
        absent = np.full(len(a), 1.0 if term in ("net", "workload") else 0.0)
        assert got.get((term, resource), absent).tobytes() == values.tobytes(), (term, resource)


def test_a_fault_free_run_peaks_under_1_75_times_the_bytes_it_returns():
    # the footprint holds only the terms a fault sets: a fault-free run
    # allocates no per-resource arrays of zeros and ones
    tracemalloc.start()
    try:
        series, _ = gen_run(default_topology(), WorkloadModel(), None, MONDAY, 2 * 86400, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = {id(a): a.nbytes for s in series.values() for a in (s.timestamps, s.values)}
    assert all(a.base is None for s in series.values() for a in (s.timestamps, s.values))
    assert peak <= 1.75 * sum(buffers.values()), peak / sum(buffers.values())


def test_a_run_shares_one_kpi_id_a_name_pair_with_every_other():
    first, _ = gen_run(default_topology(), WorkloadModel(), None, MONDAY, 600, seed=3)
    second, _ = gen_run(default_topology(), WorkloadModel(), None, BUSY_MONDAY, 600, seed=4)
    assert all(kpi is series.kpi for kpi, series in first.items())
    assert [id(kpi) for kpi in first] == [id(kpi) for kpi in second]
    assert all(kpi is kpi_id(kpi.resource, kpi.metric) for kpi in first)


# ---------------------------------------------------------------------------
# failure oracle


def success_series(values, start=0):
    ts = start + 60 * np.arange(len(values), dtype=np.int64)
    return TimeSeries(SUCCESS, ts, np.asarray(values, dtype=float))


def test_failure_oracle_ignores_short_dips():
    assert failure_oracle(success_series([0.99] * 30)) is None
    # four consecutive minutes below the bar is one short of a failure
    dipped = [0.99] * 10 + [0.55] * 4 + [0.99] * 10
    assert failure_oracle(success_series(dipped)) is None


def test_failure_oracle_flags_a_five_minute_outage():
    values = [0.99] * 10 + [0.55] * 5 + [0.99] * 10
    assert failure_oracle(success_series(values)) == 10 * 60
    # exactly on the threshold does not count as below it
    assert failure_oracle(success_series([0.99] * 10 + [0.6] * 5)) is None


def test_failure_oracle_matches_brute_force_scan():
    rng = np.random.default_rng(30)
    for trial in range(200):
        values = rng.uniform(0.4, 1.0, size=40)
        series = success_series(values)
        expected = None
        for i in range(len(values) - 4):
            if np.all(values[i : i + 5] < 0.6):
                expected = i * 60
                break
        assert failure_oracle(series) == expected, f"trial {trial}"


# ---------------------------------------------------------------------------
# topology and scenarios


def test_topology_validation():
    topology = default_topology()
    assert topology.compute_nodes == ("Compute1", "Compute2")
    assert topology.hosted("Compute2") == ("Homer", "Ralf", "Ellis")
    assert len(catalog(topology)) == 65


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        """{
  "kind": "faultcast-scenario",
  "schema_version": 1,
  "run_id": "demo",
  "start": "2026-01-19T10:00:00Z",
  "duration_min": 60,
  "seed": 5,
  "fault": {
    "fault_type": "PacketLatency",
    "resource": "Homer",
    "pattern": "Exponential",
    "injection_min": 10,
    "exp_a0": 0.2
  }
}
""",
        encoding="utf-8",
    )
    scenario = load_scenario(path)
    assert scenario.run_id == "demo"
    assert scenario.start == BUSY_MONDAY
    assert scenario.duration_s == 3600
    assert scenario.fault.fault_type is FaultType.PACKET_LATENCY
    assert scenario.fault.injection_time == BUSY_MONDAY + 600
    assert scenario.fault.exp_a0 == 0.2
    series, manifest = scenario.generate()
    assert manifest.run_id == "demo"
    assert len(series) == 65


def test_scenario_accepts_absolute_injection_time(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        """{
  "kind": "faultcast-scenario",
  "schema_version": 1,
  "run_id": "demo",
  "start": "2026-01-19T10:00:00Z",
  "duration_min": 60,
  "seed": 5,
  "fault": {
    "fault_type": "CpuHog",
    "resource": "Sprout",
    "pattern": "Constant",
    "injection_time": "2026-01-19T10:30:00Z"
  }
}
""",
        encoding="utf-8",
    )
    scenario = load_scenario(path)
    assert scenario.fault.injection_time == BUSY_MONDAY + 1800


def test_scenario_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "faultcast-run-manifest", "schema_version": 1}')
    with pytest.raises(SchemaVersionError):
        load_scenario(path)
    path.write_text('{"kind": "faultcast-scenario", "schema_version": 99}')
    with pytest.raises(SchemaVersionError):
        load_scenario(path)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
LOADERS = {"faultcast-scenario": load_scenario, "faultcast-suite": SuiteConfig.load}

#: sha256 of each bundled scenario's simulated CSV, as ``write_csv`` renders it
SCENARIO_CSV_SHA256 = {
    "deviated-healthy": "b3d3aa2269768323ef5b095f519f566854f21d226ceab35fdea2163b5fbf71dd",
    "hog-homer-exponential": "976d67c48c1858d6be7ca721592e25a5e3a9a18d92e6b4a3d4a32778d39b9e7c",
    "leak-sprout-constant": "fa5bb4e78445e1d4ad67288de8b316ed3a4f51cefc9a0bcdc680b652a3d3c187",
    "training-fortnight": "645aef300e9b1bf2eab99ab77ad82f024d965630552e4641c5a95592695e3bcb",
}


class _Sha256Stream:
    """A text sink that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self.digest.update(text.encode("utf-8"))
        return len(text)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_every_bundled_config_loads_and_each_scenario_simulates_its_recorded_csv(path):
    loaded = LOADERS[json.loads(path.read_text(encoding="utf-8"))["kind"]](path)
    if isinstance(loaded, Scenario):
        series, manifest = loaded.generate()
        sink = _Sha256Stream()
        write_csv(series, sink)
        assert manifest.run_id == path.stem
        assert sink.digest.hexdigest() == SCENARIO_CSV_SHA256[path.stem]


#: Values a scenario file once loaded by casting or without a check; the CLI
#: tests cover ``zero_noise``, ``duration_min``, ``injection_min`` and
#: ``noise_std``
SCENARIO_PROBES = {
    "string-seed": (lambda d: d.update(seed="42"), "seed '42' must be an integer"),
    "string-severity": (lambda d: d["fault"].update(severity="2"), "severity '2' must be a number"),
    "boolean-block": (lambda d: d["fault"].update(random_block_min=True), "random_block_min True must be an integer"),
    "string-deviation": (lambda d: d.update(workload_deviation="1"), "workload_deviation '1' must be a number"),
    "boolean-profile": (
        lambda d: d.update(workload={"hourly_profile": [True] * 24}),
        "hourly_profile True must be a number",
    ),
}


#: Values a scenario file once loaded without a range check, as JSON
#: ``NaN``, ``Infinity`` or a negative number: each was ignored, dropped the
#: fault, zeroed the weekend's calls or failed later in numpy
NAN, INF = float("nan"), float("inf")
PROFILE = (1.0,) * 23 + (NAN,)
POSITIVE, NON_NEGATIVE = "must be finite and positive", "must be finite and non-negative"
SCENARIO_RANGE_PROBES = {
    "nan-deviation": (lambda d: d.update(workload_deviation=NAN), f"workload_deviation nan {NON_NEGATIVE}"),
    "negative-deviation": (lambda d: d.update(workload_deviation=-0.5), f"workload_deviation -0.5 {NON_NEGATIVE}"),
    "nan-doubling": (lambda d: d["fault"].update(exp_double_min=NAN), f"exp_double_min nan {POSITIVE}"),
    "negative-weekend": (lambda d: d.update(workload={"weekend_factor": -1.0}), f"weekend_factor -1.0 {POSITIVE}"),
    "nan-weekday": (lambda d: d.update(workload={"weekday_factor": NAN}), f"weekday_factor nan {POSITIVE}"),
    "nan-hour": (
        lambda d: d.update(workload={"hourly_profile": list(PROFILE)}),
        f"hourly_profile {PROFILE!r} must be 24 finite and positive multipliers",
    ),
    "infinite-base-rate": (lambda d: d.update(workload={"base_rate": INF}), f"base_rate inf {POSITIVE}"),
    "nan-noise": (lambda d: d.update(workload={"noise_std": NAN}), f"noise_std nan {NON_NEGATIVE}"),
    "infinite-severity": (lambda d: d["fault"].update(severity=INF), f"severity inf {POSITIVE}"),
    "nan-severity": (lambda d: d["fault"].update(severity=NAN), f"severity nan {POSITIVE}"),
    "negative-seed": (lambda d: d.update(seed=-1), "seed -1 must be non-negative"),
}


def assert_scenario_rejected(tmp_path, edit, named):
    data = json.loads((CONFIGS / "leak-sprout-constant.json").read_text(encoding="utf-8"))
    edit(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^malformed {re.escape(str(path))}: ValueError {re.escape(named)}$"):
        load_scenario(path)


@pytest.mark.parametrize("probe", sorted(SCENARIO_PROBES))
def test_scenario_fields_of_the_wrong_type_are_rejected(tmp_path, probe):
    assert_scenario_rejected(tmp_path, *SCENARIO_PROBES[probe])


@pytest.mark.parametrize("probe", sorted(SCENARIO_RANGE_PROBES))
def test_scenario_values_out_of_range_are_rejected(tmp_path, probe):
    assert_scenario_rejected(tmp_path, *SCENARIO_RANGE_PROBES[probe])
