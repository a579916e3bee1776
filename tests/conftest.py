"""Shared fixtures.

Building the full evaluation suite (four weeks of training data, the causal
graph, 39 replayed runs and a fitted signature model) costs tens of seconds,
so it happens once per session.  The wall-clock cost is recorded because one
acceptance check asserts an end-to-end runtime budget.
"""

import io
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

import pytest

from faultcast.evaluate import SuiteConfig, SuiteData, build_suite
from faultcast.io import write_csv


@pytest.fixture(scope="session")
def suite_build() -> Tuple[SuiteData, float]:
    """(suite data, seconds it took to build) under the default configuration."""
    t0 = time.perf_counter()
    data = build_suite(SuiteConfig())
    return data, time.perf_counter() - t0


@pytest.fixture(scope="session")
def suite_data(suite_build) -> SuiteData:
    return suite_build[0]


def csv_text(series_map) -> str:
    """A KPI map as the text ``write_csv`` writes."""
    buf = io.StringIO()
    write_csv(series_map, buf)
    return buf.getvalue()


def run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Invoke the command-line interface in a subprocess and capture output."""
    return subprocess.run(
        [sys.executable, "-m", "faultcast.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="session")
def short_pipeline(tmp_path_factory) -> dict:
    """Artifacts from a small end-to-end CLI pass: a one-day fault-free
    training run, a baseline fitted from it (short-history override), and a
    faulty run with its manifest.  Shared by the CLI tests and the
    determinism check."""
    root = tmp_path_factory.mktemp("short-pipeline")
    train_scenario = root / "train.json"
    train_scenario.write_text(
        """{
  "kind": "faultcast-scenario",
  "schema_version": 1,
  "run_id": "short-training",
  "start": "2026-01-05T00:00:00Z",
  "duration_min": 1440,
  "seed": 71
}
""",
        encoding="utf-8",
    )
    fault_scenario = root / "fault.json"
    fault_scenario.write_text(
        """{
  "kind": "faultcast-scenario",
  "schema_version": 1,
  "run_id": "short-leak",
  "start": "2026-01-06T10:00:00Z",
  "duration_min": 180,
  "seed": 72,
  "fault": {
    "fault_type": "MemoryLeak",
    "resource": "Sprout",
    "pattern": "Constant",
    "injection_min": 15
  }
}
""",
        encoding="utf-8",
    )
    train_csv = root / "train.csv"
    baseline = root / "baseline.json"
    fault_csv = root / "fault.csv"
    fault_manifest = root / "fault.manifest.json"

    for args in (
        ("simulate", "--scenario", str(train_scenario), "--out", str(train_csv)),
        (
            "train-baseline",
            "--data",
            str(train_csv),
            "--out",
            str(baseline),
            "--allow-short",
        ),
        (
            "simulate",
            "--scenario",
            str(fault_scenario),
            "--out",
            str(fault_csv),
            "--manifest",
            str(fault_manifest),
        ),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 0, f"{args[0]} failed: {proc.stderr}"

    return {
        "root": root,
        "train_scenario": train_scenario,
        "fault_scenario": fault_scenario,
        "train_csv": train_csv,
        "baseline": baseline,
        "fault_csv": fault_csv,
        "fault_manifest": fault_manifest,
        "run_start": "2026-01-06T10:00:00Z",
    }
