"""End-to-end exercises of the command-line interface.

Everything here goes through a subprocess (``python -m faultcast.cli``) so
argument wiring, exit codes, and the stdout/stderr contracts are covered
along with the pipeline underneath.  The expensive artifacts (a one-day
training run, its baseline model, and a faulty run) come from the shared
``short_pipeline`` session fixture.
"""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from faultcast.baseline import BaselineModel, fit_baseline_model
from faultcast.core import (
    NORMAL_CLASS,
    AnomalyKind,
    FailureClass,
    FaultType,
    format_timestamp,
    parse_timestamp,
)
from faultcast.detect import detect_stream, read_anomaly_log, write_anomaly_log
from faultcast.evaluate import RunRecord, SuiteConfig, assemble_windows, build_suite, render_rq2, run_rq2
from faultcast.io import RunManifest, ingest_csv
from faultcast.predict import run_predictor, write_alert_log
from faultcast.signature import SignatureModel, Vocabulary, train_signature

import oracles
from conftest import run_cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_help_lists_subcommands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("simulate", "train-baseline", "detect", "train-signature", "predict", "evaluate"):
        assert name in proc.stdout, f"--help does not mention {name}"


def test_missing_subcommand_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2
    assert "usage:" in proc.stderr


def test_simulate_is_deterministic(short_pipeline, tmp_path):
    """The same scenario and seed must reproduce the run byte for byte."""
    out = tmp_path / "again.csv"
    manifest = tmp_path / "again.manifest.json"
    proc = run_cli(
        "simulate",
        "--scenario",
        str(short_pipeline["fault_scenario"]),
        "--out",
        str(out),
        "--manifest",
        str(manifest),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == short_pipeline["fault_csv"].read_bytes()
    assert manifest.read_bytes() == short_pipeline["fault_manifest"].read_bytes()


def test_simulate_seed_override_changes_the_data(short_pipeline, tmp_path):
    out = tmp_path / "reseeded.csv"
    proc = run_cli(
        "simulate",
        "--scenario",
        str(short_pipeline["fault_scenario"]),
        "--seed",
        "73",
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() != short_pipeline["fault_csv"].read_bytes()


def test_detect_flags_the_faulty_run(short_pipeline, tmp_path):
    out = tmp_path / "anomalies.csv"
    proc = run_cli(
        "detect",
        "--baseline",
        str(short_pipeline["baseline"]),
        "--data",
        str(short_pipeline["fault_csv"]),
        "--out",
        str(out),
        "--run-start",
        short_pipeline["run_start"],
    )
    assert proc.returncode == 0, proc.stderr
    assert re.match(r"\d+ anomalous \(KPI, interval\) verdicts -> ", proc.stdout)
    events = read_anomaly_log(out)
    assert events, "a memory leak run should produce anomaly verdicts"
    assert all(ev.interval_start % 300 == 0 for ev in events)
    assert any(ev.kpi.resource == "Sprout" for ev in events), (
        "expected at least one verdict on the leaking VM, got "
        f"{sorted({str(ev.kpi) for ev in events})}"
    )


def test_detect_handles_a_run_with_no_samples(short_pipeline, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("timestamp,resource,metric,value\n", encoding="utf-8")
    out = tmp_path / "anomalies.csv"
    proc = run_cli(
        "detect",
        "--baseline",
        str(short_pipeline["baseline"]),
        "--data",
        str(empty),
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("0 anomalous")
    assert read_anomaly_log(out) == []


def test_train_signature_then_predict(short_pipeline, tmp_path):
    """Full tail of the pipeline: detect both runs, fit a signature model on
    their labelled windows, then replay the faulty run through the alert
    lifecycle."""
    train_anoms = tmp_path / "train-anomalies.csv"
    fault_anoms = tmp_path / "fault-anomalies.csv"
    signature = tmp_path / "signature.json"
    alerts = tmp_path / "alerts.csv"
    train_manifest = short_pipeline["train_csv"].with_suffix(".manifest.json")

    for data, out, start in (
        (short_pipeline["train_csv"], train_anoms, "2026-01-05T00:00:00Z"),
        (short_pipeline["fault_csv"], fault_anoms, short_pipeline["run_start"]),
    ):
        proc = run_cli(
            "detect",
            "--baseline",
            str(short_pipeline["baseline"]),
            "--data",
            str(data),
            "--out",
            str(out),
            "--run-start",
            start,
        )
        assert proc.returncode == 0, proc.stderr

    proc = run_cli(
        "train-signature",
        "--baseline",
        str(short_pipeline["baseline"]),
        "--run",
        str(train_anoms),
        str(train_manifest),
        "--run",
        str(fault_anoms),
        str(short_pipeline["fault_manifest"]),
        "--out",
        str(signature),
    )
    assert proc.returncode == 0, proc.stderr
    match = re.match(r"trained tree signature classifier on (\d+) windows \((\d+) classes\)", proc.stdout)
    assert match, proc.stdout
    # 1440-minute run -> 271 windows, 180-minute run -> 19 windows.
    assert int(match.group(1)) == 271 + 19
    assert int(match.group(2)) == 2

    proc = run_cli(
        "predict",
        "--baseline",
        str(short_pipeline["baseline"]),
        "--signature",
        str(signature),
        "--data",
        str(short_pipeline["fault_csv"]),
        "--out",
        str(alerts),
        "--run-start",
        short_pipeline["run_start"],
    )
    assert proc.returncode == 0, proc.stderr
    assert re.match(r"\d+ alerts \(\d+ general\) -> ", proc.stdout)
    lines = alerts.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "raised_at,kind,fault_type,resource,confidence,evidence_count"
    assert len(lines) >= 2, "the leak run should raise at least one alert"
    assert lines[1].split(",")[1] == "General"
    for row in lines[1:]:
        fields = row.split(",")
        if fields[1] == "FailureSpecific":
            assert fields[2] == "MemoryLeak" and fields[3] == "Sprout", row


def _tiny_signature(vocab, algorithm="tree"):
    """A tree, or naive Bayes, trained on four hand-made windows over ``vocab``."""
    leak = FailureClass(FaultType.MEMORY_LEAK, "Sprout")
    marked = frozenset([(vocab.kpis[0], AnomalyKind.UNIVARIATE)])
    windows = [(0, 5400, marked, leak)] * 2 + [(0, 5400, frozenset(), NORMAL_CLASS)] * 2
    return train_signature(oracles.pool_of(windows), vocab, algorithm, 90)


def _online_args(command, short_pipeline, tmp_path, run_start):
    """``detect`` or ``predict`` arguments for the faulty run (predict with a
    tiny signature written to ``tmp_path``)."""
    baseline = short_pipeline["baseline"]
    args = [command, "--baseline", str(baseline), "--data", str(short_pipeline["fault_csv"])]
    if command == "predict":
        signature = tmp_path / "signature.json"
        _tiny_signature(Vocabulary(BaselineModel.load(baseline).baselines.keys())).save(signature)
        args += ["--signature", str(signature)]
    return args + ["--out", str(tmp_path / "out.csv"), "--run-start", run_start]


@pytest.mark.parametrize("command", ["detect", "predict"])
def test_run_start_after_the_last_sample_is_rejected(short_pipeline, tmp_path, command):
    proc = run_cli(*_online_args(command, short_pipeline, tmp_path, "2026-02-06T10:00:00Z"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:"), proc.stderr
    # the 180-minute run starting 2026-01-06T10:00:00Z ends with this minute
    assert "2026-01-06T12:59:00Z" in proc.stderr, proc.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["detect", "predict"])
def test_data_missing_a_baseline_kpi_is_rejected(short_pipeline, tmp_path, command):
    lines = short_pipeline["fault_csv"].read_text(encoding="utf-8").splitlines(keepends=True)
    leaky = tmp_path / "no-sprout-memory.csv"
    leaky.write_text("".join(line for line in lines if ",Sprout,MemUsedPct," not in line), encoding="utf-8")
    args = _online_args(command, short_pipeline, tmp_path, short_pipeline["run_start"])
    args[args.index("--data") + 1] = str(leaky)
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "lacks 1 of" in proc.stderr and "Sprout/MemUsedPct" in proc.stderr, proc.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["detect", "train-signature"])
def test_a_field_over_the_csv_size_limit_is_an_error_line(short_pipeline, tmp_path, command):
    """A 200 000-character metric name in the KPI CSV that detect reads, or
    in the anomaly log that train-signature reads."""
    name, out = "m" * 200_000, tmp_path / "out"
    baseline = str(short_pipeline["baseline"])
    if command == "detect":
        lines = short_pipeline["fault_csv"].read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(2, f"2026-01-06T10:00:00Z,Homer,{name},1.0\n")
        data = tmp_path / "data.csv"
        data.write_text("".join(lines), encoding="utf-8")
        args = ["detect", "--baseline", baseline, "--data", str(data)]
    else:
        log = tmp_path / "anomalies.csv"
        rows = ["2026-01-06T10:00:00Z,Homer,CpuIdlePct,Univariate,4.0", f"2026-01-06T10:05:00Z,Homer,{name},Univariate,4.0"]
        log.write_text("interval_start,resource,metric,kind,score\n" + "\n".join(rows) + "\n", encoding="utf-8")
        args = ["train-signature", "--baseline", baseline, "--run", str(log), str(short_pipeline["fault_manifest"])]
    proc = run_cli(*args, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == "error: line 3: field larger than field limit (131072)\n", proc.stderr[-300:]
    assert not out.exists()


def _data_args(command, short_pipeline, tmp_path, edit):
    """``command`` on the faulty run, or train-baseline on the training run,
    with the data file's lines passed through ``edit``."""
    source = short_pipeline["train_csv" if command == "train-baseline" else "fault_csv"]
    data = tmp_path / "data.csv"
    text = source.read_text(encoding="utf-8")
    data.write_text("".join(edit(text.splitlines(keepends=True))), encoding="utf-8")
    if command == "train-baseline":
        return ["train-baseline", "--data", str(data), "--out", str(tmp_path / "out.csv"), "--allow-short"]
    args = _online_args(command, short_pipeline, tmp_path, short_pipeline["run_start"])
    args[args.index("--data") + 1] = str(data)
    return args


@pytest.mark.parametrize("command", ["detect", "predict", "train-baseline"])
def test_samples_off_the_cadence_grid_are_rejected(short_pipeline, tmp_path, command):
    def ragged(lines):  # a copy of each Sprout/CpuIdlePct sample 30 s later
        extra = []
        for line in lines:
            ts, resource, metric, value = line.split(",")
            if (resource, metric) == ("Sprout", "CpuIdlePct"):
                extra.append(f"{format_timestamp(parse_timestamp(ts) + 30)},{resource},{metric},{value}")
        return lines + extra

    proc = run_cli(*_data_args(command, short_pipeline, tmp_path, ragged))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1, proc.stderr
    first = "2026-01-05T00:00:30Z" if command == "train-baseline" else "2026-01-06T10:00:30Z"
    assert "Sprout/CpuIdlePct" in proc.stderr and first in proc.stderr, proc.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["detect", "predict", "train-baseline"])
def test_a_gap_on_the_cadence_grid_is_accepted(short_pipeline, tmp_path, command):
    def gappy(lines):  # ten minutes of Sprout/CpuIdlePct missing
        rows = [i for i, line in enumerate(lines) if ",Sprout,CpuIdlePct," in line]
        dropped = set(rows[60:70])
        return [line for i, line in enumerate(lines) if i not in dropped]

    proc = run_cli(*_data_args(command, short_pipeline, tmp_path, gappy))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").exists()


# each setting once silently gave a wrong result: --tau -1 flagged every edge,
# --tau nan, --k-sigma nan or inf and --prefilter-r nan switched a detector or
# the prefilter off, and --streak -3 --confidence 7 alerted every interval
@pytest.mark.parametrize(
    "command, setting, value",
    [
        ("detect", "--tau", "-1"),
        ("detect", "--tau", "nan"),
        ("predict", "--tau", "inf"),
        ("predict", "--streak", "-3"),
        ("predict", "--confidence", "7"),
        ("train-baseline", "--k-sigma", "nan"),
        ("train-baseline", "--k-sigma", "inf"),
        ("train-baseline", "--prefilter-r", "nan"),
    ],
)
def test_a_setting_out_of_range_or_not_finite_is_rejected(short_pipeline, tmp_path, command, setting, value):
    args = _data_args(command, short_pipeline, tmp_path, lambda lines: lines)
    if command != "train-baseline":
        # detect and predict check their settings before they read the data
        args[args.index("--data") + 1] = str(tmp_path / "missing.csv")
    proc = run_cli(*args, setting, value)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert f"{setting[2:].replace('-', '_')} {value}" in proc.stderr, proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_a_baseline_whose_edges_differ_in_lag_order_is_rejected(short_pipeline, tmp_path):
    model = BaselineModel.load(short_pipeline["baseline"])
    edge = model.edges[0]
    with pytest.raises(ValueError, match=f"edge {re.escape(str(edge.cause))} -> .* lag order 3, the model's is 2"):
        BaselineModel(model.baselines, model.edges, dataclasses.replace(model.config, lag_order=2))
    # a hand-edited file: one edge refitted at p = 2, the rest and the config at 3
    data = model.to_dict()
    data["edges"][0].update(lag_order=2, coefficients=data["edges"][0]["coefficients"][:5])
    edited = tmp_path / "baseline.json"
    edited.write_text(json.dumps(data), encoding="utf-8")
    args = _online_args("detect", short_pipeline, tmp_path, short_pipeline["run_start"])
    args[args.index("--baseline") + 1] = str(edited)
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:"), proc.stderr
    assert f"edge {edge.cause} -> {edge.effect} has lag order 2, the model's is 3" in proc.stderr, proc.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda data: data["baselines"][0].update(k_sigma=True), "k_sigma True must be a number"),
        (lambda data: data["config"].update(lag_order="3"), "config lag_order '3' must be an integer"),
    ],
    ids=["boolean-band-k-sigma", "string-lag-order"],
)
def test_a_baseline_value_of_the_wrong_type_is_rejected(short_pipeline, tmp_path, edit, named):
    # a true k_sigma loaded as 1.0: detect on the quick start's leak run gave
    # 481 verdicts where the true file gives 452; "3" loaded as 3
    data = BaselineModel.load(short_pipeline["baseline"]).to_dict()
    edit(data)
    with pytest.raises(ValueError, match=re.escape(named)):
        BaselineModel.from_dict(data)
    edited = tmp_path / "baseline.json"
    edited.write_text(json.dumps(data), encoding="utf-8")
    args = _online_args("detect", short_pipeline, tmp_path, short_pipeline["run_start"])
    args[args.index("--baseline") + 1] = str(edited)
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert named in proc.stderr, proc.stderr
    assert not (tmp_path / "out.csv").exists()


def _spoil_json(text: str, spoil: str) -> bytes:
    """An artifact's bytes, spoiled in their encoding, their JSON syntax or
    one typed value."""
    if spoil == "syntax":
        return b"notjson"
    if spoil == "bytes":
        return b"\xff" + text.encode("utf-8")
    data = json.loads(text)
    if data["kind"] == "faultcast-baseline":
        data["baselines"][0]["k_sigma"] = True
    else:
        data["window_min"] = True
    return json.dumps(data).encode("utf-8")


@pytest.mark.parametrize("artifact", ["--baseline", "--signature"])
@pytest.mark.parametrize(
    "spoil, said",
    [
        ("syntax", "JSONDecodeError Expecting value: line 1 column 1 (char 0)"),
        ("bytes", "UnicodeDecodeError 'utf-8' codec can't decode byte 0xff"),
        ("typed", "True must be"),
    ],
    ids=["syntax", "bytes", "typed"],
)
def test_predict_names_the_file_an_intake_error_is_in(short_pipeline, tmp_path, artifact, spoil, said):
    # predict reads two artifacts: the error must say which one is bad
    args = _online_args("predict", short_pipeline, tmp_path, short_pipeline["run_start"])
    good = Path(args[args.index(artifact) + 1])
    bad = tmp_path / f"bad-{good.name}"
    bad.write_bytes(_spoil_json(good.read_text(encoding="utf-8"), spoil))
    args[args.index(artifact) + 1] = str(bad)
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: malformed {bad}: ") and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert said in proc.stderr, proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_predict_rejects_a_run_start_a_window_before_the_data(short_pipeline, tmp_path):
    # the run's first sample is at 2026-01-06T10:00:00Z, the signature's window is 90 min
    for early in ("2025-12-06T10:00:00Z", "2026-01-06T08:29:00Z"):
        proc = run_cli(*_online_args("predict", short_pipeline, tmp_path, early))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:"), proc.stderr
        assert early in proc.stderr and "2026-01-06T10:00:00Z" in proc.stderr, proc.stderr
        assert not (tmp_path / "out.csv").exists()
    # one window ahead is still replayed, with the library's alerts
    start = "2026-01-06T08:30:00Z"
    proc = run_cli(*_online_args("predict", short_pipeline, tmp_path, start))
    assert proc.returncode == 0, proc.stderr
    series_map = ingest_csv(short_pipeline["fault_csv"])
    alerts = run_predictor(
        BaselineModel.load(short_pipeline["baseline"]),
        SignatureModel.load(tmp_path / "signature.json"),
        series_map,
        parse_timestamp(start),
        max(s.end for s in series_map.values()) + 60,
    )
    write_alert_log(alerts, tmp_path / "library.csv")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


# cli.main in a fresh interpreter, then the scipy modules it left loaded
_MAIN_THEN_SCIPY = (
    "import json, sys; from faultcast import cli; rc = cli.main(sys.argv[1:]); "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))); sys.exit(rc)"
)


def _scipy_after_main(*args):
    proc = subprocess.run([sys.executable, "-c", _MAIN_THEN_SCIPY, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# with scipy installed, a command must still not import it: a fallback import
# that test_no_command_needs_scipy's blocked scipy would forgive fails here
@pytest.mark.parametrize("command", ["detect", "predict"])
def test_commands_that_fit_no_graph_leave_scipy_unloaded(short_pipeline, tmp_path, command):
    args = _online_args(command, short_pipeline, tmp_path, short_pipeline["run_start"])
    assert _scipy_after_main(*args) == []
    assert (tmp_path / "out.csv").stat().st_size > 0


def test_train_baseline_loads_scipy_and_matches_the_library(short_pipeline, tmp_path):
    # fitting the graph once loaded scipy.special for its p-values; they are
    # computed in numpy now, so train-baseline must load no scipy module at all
    out = tmp_path / "baseline.json"
    train_csv = str(short_pipeline["train_csv"])
    loaded = _scipy_after_main("train-baseline", "--data", train_csv, "--out", str(out), "--allow-short")
    assert loaded == []
    library = tmp_path / "library.json"
    fit_baseline_model(ingest_csv(train_csv), allow_short=True).save(library)
    assert out.read_bytes() == library.read_bytes()


# cli.main in a fresh interpreter whose imports of scipy fail: every argument
# list in the JSON of argv[1] runs in turn, and their exit codes print
_MAIN_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, NoScipy())
from faultcast import cli
print(json.dumps([cli.main(args) for args in json.loads(sys.argv[1])]))
"""


def test_no_command_needs_scipy(short_pipeline, tmp_path):
    # fitting the graph, detecting, training a signature, replaying a run and
    # evaluating all run with scipy unimportable, and write the library's bytes
    train_csv, fault_csv = short_pipeline["train_csv"], short_pipeline["fault_csv"]
    run_start = short_pipeline["run_start"]
    detected = [  # (data, anomaly log, run start, manifest) of each run
        (train_csv, "train-anomalies.csv", "2026-01-05T00:00:00Z", train_csv.with_suffix(".manifest.json")),
        (fault_csv, "fault-anomalies.csv", run_start, short_pipeline["fault_manifest"]),
    ]
    config = SuiteConfig(training_days=2, run_duration_min=130, allow_short_training=True)
    config.save(tmp_path / "suite.json")
    cli_dir, lib_dir = tmp_path / "cli", tmp_path / "library"
    cli_dir.mkdir()
    lib_dir.mkdir()
    baseline_json = cli_dir / "baseline.json"
    commands = [["train-baseline", "--data", train_csv, "--out", baseline_json, "--allow-short"]]
    for data, log, start, _ in detected:
        commands.append(["detect", "--baseline", baseline_json, "--data", data, "--out", cli_dir / log])
        commands[-1] += ["--run-start", start]
    commands.append(["train-signature", "--baseline", baseline_json, "--out", cli_dir / "signature.json"])
    for _, log, _, manifest in detected:
        commands[-1] += ["--run", cli_dir / log, manifest]
    commands.append(
        ["predict", "--baseline", baseline_json, "--signature", cli_dir / "signature.json", "--data", fault_csv]
        + ["--out", cli_dir / "alerts.csv", "--run-start", run_start]
    )
    commands.append(["evaluate", "--suite", "rq2", "--config", tmp_path / "suite.json"])
    commands[-1] += ["--out", cli_dir / "report.txt"]
    argv = json.dumps([[str(arg) for arg in command] for command in commands])
    proc = subprocess.run([sys.executable, "-c", _MAIN_WITHOUT_SCIPY, argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(commands)

    baseline = fit_baseline_model(ingest_csv(train_csv), allow_short=True)
    baseline.save(lib_dir / "baseline.json")
    runs = []
    for data, log, start, manifest in detected:
        write_anomaly_log(detect_stream(baseline, ingest_csv(data), parse_timestamp(start)), lib_dir / log)
        runs.append(RunRecord(events=read_anomaly_log(lib_dir / log), manifest=RunManifest.load(manifest)))
    signature = train_signature(assemble_windows(runs, 90, 5), Vocabulary(baseline.baselines.keys()), "tree", 90)
    signature.save(lib_dir / "signature.json")
    series_map = ingest_csv(fault_csv)
    run_end = max(s.end for s in series_map.values()) + 60
    alerts = run_predictor(baseline, signature, series_map, parse_timestamp(run_start), run_end)
    write_alert_log(alerts, lib_dir / "alerts.csv")
    (lib_dir / "report.txt").write_text(render_rq2(run_rq2(build_suite(config))) + "\n", encoding="utf-8")
    for path in sorted(lib_dir.iterdir()):
        assert (cli_dir / path.name).read_bytes() == path.read_bytes(), path.name


def _spoil_leaves(node):
    if "feature" in node:
        _spoil_leaves(node["nominal"])
        _spoil_leaves(node["anomalous"])
    else:
        node.update(total=0, correct=0)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda data, vocab: data["model"]["root"].update(feature=vocab.dimension),
        lambda data, vocab: _spoil_leaves(data["model"]["root"]),
        lambda data, vocab: data["model"]["root"].pop("nominal"),
        lambda data, vocab: data.update(algorithm="forest"),
    ],
    ids=["feature-outside-vocabulary", "empty-leaves", "split-without-nominal", "algorithm-forest"],
)
def test_predict_rejects_a_malformed_signature_file(short_pipeline, tmp_path, spoil):
    vocab = Vocabulary(BaselineModel.load(short_pipeline["baseline"]).baselines.keys())
    data = _tiny_signature(vocab).to_dict()
    spoil(data, vocab)
    signature = tmp_path / "signature.json"
    signature.write_text(json.dumps(data), encoding="utf-8")
    proc = run_cli(
        "predict",
        "--baseline",
        str(short_pipeline["baseline"]),
        "--signature",
        str(signature),
        "--data",
        str(short_pipeline["fault_csv"]),
        "--out",
        str(tmp_path / "alerts.csv"),
        "--run-start",
        short_pipeline["run_start"],
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:"), proc.stderr


@pytest.mark.parametrize(
    "algorithm, path, value, named",
    [
        ("tree", ["split_kinds"], "false", "split_kinds 'false' must be true or false"),
        ("tree", ["window_min"], 90.7, "window_min 90.7 must be an integer"),
        ("tree", ["window_min"], True, "window_min True must be an integer"),
        ("tree", ["window_min"], "90", "window_min '90' must be an integer"),
        ("nb", ["model", "theta", 0, 0], "0.5", "theta '0.5' must be a number"),
        ("nb", ["model", "theta", 0, 0], True, "theta True must be a number"),
        ("nb", ["model", "theta", 0, 0], 7.0, "priors and theta must lie in [0, 1]"),
        ("nb", ["model", "alpha"], True, "alpha True must be a number"),
        ("nb", ["model", "priors", 0], float("nan"), "priors and theta must lie in [0, 1]"),
        ("tree", ["model", "min_leaf"], 2.7, "min_leaf 2.7 must be an integer"),
        ("tree", ["model", "min_leaf"], True, "min_leaf True must be an integer"),
        ("tree", ["model", "max_depth"], "3", "max_depth '3' must be an integer"),
    ],
    ids=[
        "split-kinds-string",
        "window-min-fraction",
        "window-min-bool",
        "window-min-string",
        "theta-string",
        "theta-bool",
        "theta-above-one",
        "alpha-bool",
        "prior-nan",
        "min-leaf-fraction",
        "min-leaf-bool",
        "max-depth-string",
    ],
)
def test_predict_rejects_a_signature_field_of_the_wrong_type(short_pipeline, tmp_path, algorithm, path, value, named):
    vocab = Vocabulary(BaselineModel.load(short_pipeline["baseline"]).baselines.keys())
    data = _tiny_signature(vocab, algorithm).to_dict()
    *keys, last = path
    target = data
    for key in keys:
        target = target[key]
    target[last] = value
    signature = tmp_path / "signature.json"
    signature.write_text(json.dumps(data), encoding="utf-8")
    proc = run_cli(
        "predict",
        "--baseline",
        str(short_pipeline["baseline"]),
        "--signature",
        str(signature),
        "--data",
        str(short_pipeline["fault_csv"]),
        "--out",
        str(tmp_path / "alerts.csv"),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: malformed {signature}: ") and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert named in proc.stderr, proc.stderr


def test_missing_input_file_exits_nonzero(tmp_path):
    proc = run_cli(
        "detect",
        "--baseline",
        str(tmp_path / "nope.json"),
        "--data",
        str(tmp_path / "nope.csv"),
        "--out",
        str(tmp_path / "out.csv"),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_foreign_scenario_file_exits_nonzero(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"kind": "something-else", "schema_version": 1}', encoding="utf-8")
    proc = run_cli("simulate", "--scenario", str(bogus), "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {bogus}: not a faultcast-scenario file: kind='something-else'\n"


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: d.update(zero_noise="false"), "zero_noise 'false' must be true or false"),
        (lambda d: d.update(duration_min=2.7), "duration_min 2.7 must be an integer"),
        (lambda d: d["fault"].update(injection_min=True), "injection_min True must be an integer"),
        (lambda d: d.update(workload={"noise_std": True}), "noise_std True must be a number"),
    ],
    ids=["string-zero-noise", "fractional-duration", "boolean-injection", "boolean-noise-std"],
)
def test_simulate_rejects_a_scenario_field_of_the_wrong_type(tmp_path, edit, named):
    # each of these once simulated: noise-free data, a 2-minute run, a fault
    # at minute 1, a workload noise scale of 1.0
    data = json.loads((CONFIGS / "leak-sprout-constant.json").read_text(encoding="utf-8"))
    edit(data)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data), encoding="utf-8")
    proc = run_cli("simulate", "--scenario", str(scenario), "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 1
    assert proc.stderr == f"error: malformed {scenario}: ValueError {named}\n"
    assert not (tmp_path / "x.csv").exists()


def test_evaluate_rejects_a_config_that_is_not_an_object(tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[]", encoding="utf-8")
    proc = run_cli("evaluate", "--suite", "rq3", "--config", str(cfg))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:"), proc.stderr


def test_short_training_without_override_exits_nonzero(short_pipeline, tmp_path):
    proc = run_cli(
        "train-baseline",
        "--data",
        str(short_pipeline["train_csv"]),
        "--out",
        str(tmp_path / "model.json"),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "training" in proc.stderr


@pytest.mark.parametrize("suite", ["rq1", "all"])
def test_evaluate_rejects_runs_shorter_than_rq1_windows_before_building(tmp_path, suite):
    cfg = tmp_path / "short-runs.json"
    SuiteConfig(training_days=4, run_duration_min=100, allow_short_training=True).save(cfg)
    proc = run_cli("-v", "evaluate", "--suite", suite, "--config", str(cfg))
    assert proc.returncode == 1
    # the suite's progress is logged at info level: nothing was built
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "100" in proc.stderr and "120" in proc.stderr, proc.stderr


def test_evaluate_rejects_a_window_longer_than_the_runs_before_building(tmp_path):
    with pytest.raises(ValueError, match="window_min 140"):
        SuiteConfig(training_days=4, run_duration_min=130, window_min=140, allow_short_training=True)
    data = SuiteConfig(training_days=4, run_duration_min=130, allow_short_training=True).to_dict()
    data["window_min"] = 140
    cfg = tmp_path / "long-window.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    proc = run_cli("-v", "evaluate", "--suite", "rq3", "--config", str(cfg))
    assert proc.returncode == 1
    # the suite's progress is logged at info level: nothing was built
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "140" in proc.stderr and "130" in proc.stderr, proc.stderr


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("run_hour", 30, "run_hour 30"),
        ("fault_targets", ["Nope"], "'Nope'"),
        ("tau", -1.0, "tau -1.0"),
        ("folds", 2.5, "folds 2.5 must be an integer"),
        ("training_days", True, "training_days True must be an integer"),
        ("tau", True, "tau True must be a number"),
        ("tau", "3", "tau '3' must be a number"),
        ("allow_short_training", "false", "allow_short_training 'false' must be true or false"),
    ],
    ids=[
        "run-hour-30",
        "unknown-fault-target",
        "negative-tau",
        "fractional-folds",
        "boolean-training-days",
        "boolean-tau",
        "string-tau",
        "string-allow-short-training",
    ],
)
def test_evaluate_rejects_a_bad_config_value_before_building(tmp_path, field, value, named):
    data = SuiteConfig(training_days=2, run_duration_min=130, allow_short_training=True).to_dict()
    data[field] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    proc = run_cli("-v", "evaluate", "--suite", "rq2", "--config", str(cfg))
    assert proc.returncode == 1
    # the suite's progress is logged at info level: nothing was built
    assert proc.stderr.startswith("error:"), proc.stderr
    assert named in proc.stderr, proc.stderr


def test_evaluate_with_a_small_config(tmp_path):
    """A downsized suite config keeps the evaluate subcommand affordable."""
    cfg = tmp_path / "small.json"
    SuiteConfig(training_days=4, run_duration_min=100, allow_short_training=True).save(cfg)
    report_path = tmp_path / "report.txt"
    proc = run_cli(
        "evaluate",
        "--suite",
        "rq3",
        "--config",
        str(cfg),
        "--out",
        str(report_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert f"wrote report to {report_path}" in proc.stdout
    report = report_path.read_text(encoding="utf-8")
    assert report.startswith("RQ3: fault-free runs under random workload deviation")
    assert "overall:" in report
