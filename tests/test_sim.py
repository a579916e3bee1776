"""The deterministic testbed simulator and its ground-truth oracle."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import csv_text
from faultcast.core import (
    FaultType,
    KpiId,
    SchemaVersionError,
    TimeSeries,
    hour_of_week,
    parse_timestamp,
)
from faultcast.evaluate import SuiteConfig
from faultcast.io import write_csv
from faultcast.sim import (
    FaultSpec,
    Pattern,
    Scenario,
    Topology,
    WorkloadModel,
    activation_profile,
    default_topology,
    failure_oracle,
    gen_run,
    load_scenario,
)

MONDAY = parse_timestamp("2026-01-05T00:00:00Z")
BUSY_MONDAY = parse_timestamp("2026-01-19T10:00:00Z")
SUCCESS = KpiId("SYSTEM", "SuccessfulCallRate")


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
    assert set(series) == set(topology.catalog())
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
    assert len(topology.catalog()) == 65
    with pytest.raises(ValueError):
        Topology(
            app_vms=("A",),
            call_path=("A",),
            queue_vms=(),
            placement={"A": "C1"},
            load_share={"A": 1.0},
            peak_util={"A": 0.5},
            mem_base={"A": 40.0},
            recv_gain={"A": 100.0},
            latency_base={"A": 30.0},
            incoming_gain={"A": 1.0},
            callees={"A": ("Ghost",)},
        )


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


@pytest.mark.parametrize("probe", sorted(SCENARIO_PROBES))
def test_scenario_fields_of_the_wrong_type_are_rejected(tmp_path, probe):
    edit, named = SCENARIO_PROBES[probe]
    data = json.loads((CONFIGS / "leak-sprout-constant.json").read_text(encoding="utf-8"))
    edit(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^malformed {re.escape(str(path))}: ValueError {re.escape(named)}$"):
        load_scenario(path)
