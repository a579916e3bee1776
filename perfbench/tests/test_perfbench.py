"""Smoke tests of the benchmark itself, at reduced size.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from check import Checker, golden_path, load_golden, save_golden  # noqa: E402
from spans import Tracer  # noqa: E402

CATALOGUE = json.loads((HERE / "metrics.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "smoke", "--seconds", "1", *args],
        capture_output=True,
        text=True,
        timeout=170,
    )


def metric_lines(stdout: str):
    return [line.split() for line in stdout.splitlines() if line.startswith("metric ")]


@pytest.fixture(scope="module")
def goldens(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("goldens")
    subprocess.run(
        [sys.executable, str(HERE / "make_goldens.py"), "--size", "smoke", "--sets", "0", "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=170,
    )
    return out


def test_benchmark_json_agrees_with_the_catalogue():
    by_name = {m["name"]: m for m in CATALOGUE["metrics"]}
    for kind in ("end_to_end", "per_layer"):
        for m in BENCHMARK[kind]:
            assert by_name[m["name"]]["kind"] == kind
            assert (by_name[m["name"]]["unit"], by_name[m["name"]]["better"]) == (m["unit"], m["better"])
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(CATALOGUE["workloads"])
    # every metric the catalogue bounds is bounded with the same share
    bounded = {m["name"]: m["bound"] for m in CATALOGUE["metrics"] if "bound" in m}
    assert bounded == {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric_once_with_its_unit(goldens, trace):
    proc = run_bench("--workload", "all", "--trace", str(trace), "--golden-dir", str(goldens))
    assert proc.returncode == 0, proc.stderr
    lines = metric_lines(proc.stdout)
    kinds = ("per_layer",) if trace else ("end_to_end", "reported")
    for m in CATALOGUE["metrics"]:
        if m["kind"] not in kinds:
            continue
        for workload in m["workloads"]:
            found = [ln for ln in lines if ln[1] == workload and ln[2] == m["name"]]
            assert len(found) == 1, (workload, m["name"])
            assert found[0][4] == m["unit"]
            float(found[0][3])
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    for workload in CATALOGUE["workloads"]:
        for m in listed:
            assert result["metrics"][f"{workload}/{m['name']}"]["unit"] == m["unit"]
    failed_ratio = [ln for ln in lines if ln[2] == "failed_ratio"]
    assert trace or [float(ln[3]) for ln in failed_ratio] == [0.0, 0.0]


def test_a_flipped_golden_event_is_one_failed_operation(goldens, tmp_path):
    golden = load_golden(golden_path(goldens, "smoke", 0))
    run = next(r for r in golden["suite"].values() if r["events"])
    kinds = {"Univariate": "Multivariate", "Multivariate": "Univariate"}
    run["events"][0][2] = kinds[run["events"][0][2]]
    save_golden(golden_path(tmp_path, "smoke", 0), golden)

    proc = run_bench("--workload", "pipeline", "--golden-dir", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    # the smoke size makes one suite pass, so the flipped run's events are checked once
    assert [ln[3] for ln in metric_lines(proc.stdout) if ln[2] == "suite_passes"] == ["1"]
    assert result["failed"] == 1 and result["attempted"] > 1
    failed = [line for line in proc.stdout.splitlines() if line.startswith("failed ")]
    assert len(failed) == 1 and "detect.events[" in failed[0]


def test_a_raising_output_is_a_failed_operation_not_a_crash():
    checker = Checker()
    checker.exact("ok", lambda: [1, 2], [1, 2])
    checker.exact("raises", lambda: 1 / 0, 0)
    checker.floats("close", lambda: [[1.0, 2.0 + 1e-12]], [[1.0, 2.0]])
    checker.floats("far", lambda: [1.0 + 1e-6], [1.0])
    assert (checker.attempted, checker.failed) == (4, 2)
    assert checker.failures[0].startswith("raises: ZeroDivisionError")


def test_online_replay_raises_exactly_the_alerts_of_run_predictor(tmp_path, monkeypatch):
    # more online runs than the smoke size, long enough for FailureSpecific alerts
    size = dataclasses.replace(workloads.SIZES["smoke"], online_runs=6, online_run_min=120)
    monkeypatch.setitem(workloads.SIZES, "smoke", size)
    inputs = workloads.make_inputs(0, "smoke")
    off = Tracer(False, "")
    state = workloads.pipeline_setup(inputs, off)
    signature = workloads.suite_pass(state, inputs.config, off, tmp_path).signature
    raised = 0
    for run in state.online:
        streamed = workloads.replay(state, run, signature, inputs.config.tau, off, [])
        assert streamed == workloads.batch_alerts(state, run, signature, inputs.config.tau), run.spec.run_id
        raised += len(streamed)
    assert raised > 0


def test_spans_give_self_time_per_layer():
    tracer = Tracer(True, "t")
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            with tracer.span("b"):
                pass
    (totals,) = tracer.per_root("root")
    spans = {s.id: s for s in tracer.spans}
    own = tracer.self_times()
    assert set(totals) == {"root", "a", "b"}
    assert own[2] == pytest.approx((spans[2].end - spans[2].start) - (spans[3].end - spans[3].start))
    assert sum(totals.values()) == pytest.approx(spans[0].end - spans[0].start)
    assert all(s.run == "t" for s in tracer.spans) and spans[3].parent == 2
