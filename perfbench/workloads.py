"""The benchmark's two workloads, driven through faultcast's public functions.

``offline-train`` is the README quick start's offline step: simulate the
training scenario, write it as CSV, ingest it, fit the baseline model and
save it.  ``pipeline`` fits a baseline in set-up, then runs the paper's
offline phase 3 (detect a pool of runs, round-trip their anomaly logs,
window them, train a signature and cross-validate an RQ1-shaped sweep) and
its online phase 4 (replay fresh faulty runs interval by interval through
``detect_stream`` and ``step``, one client in a closed loop).

Every input is generated from the seed before timing starts.  Each call into
a layer sits in ``tracer.span``; with tracing off that is a no-op, so the
traced and untraced runs execute the same code.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from faultcast.baseline import (
    BaselineConfig,
    BaselineModel,
    build_graph,
    fit_baseline_model,
    fit_univariate,
)
from faultcast.core import INTERVAL_S, SYSTEM_RESOURCE, AnomalyKind, FaultType, TimeSeries
from faultcast.detect import detect_stream, read_anomaly_log, write_anomaly_log
from faultcast.evaluate import (
    _HOST_FAULTS,
    RunRecord,
    RunSpec,
    SuiteConfig,
    assemble_windows,
    default_run_specs,
    run_day,
)
from faultcast.io import ingest_csv, write_csv
from faultcast.predict import AlertKind, new_state, run_predictor, step
from faultcast.signature import Vocabulary, cross_validate, train_signature
from faultcast.sim import FaultSpec, Pattern, default_topology, gen_run, load_scenario

from check import (
    Checker,
    alert_confidences,
    alert_keys,
    check_model,
    cv_predictions,
    edge_floats,
    edge_pairs,
    event_keys,
    event_scores,
    rounded,
)
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "configs" / "training-fortnight.json"
INPUT_SETS = 5  # --seed n selects input set n mod INPUT_SETS; each has a golden
WINDOW_SWEEP = (60, 90, 120)
ALGORITHMS = ("tree", "nb")
COLD_START = "import faultcast.sim, faultcast.io, faultcast.baseline"
ONLINE_CHUNKS = 3  # online runs are replayed in this many chunks between suite passes


@dataclass(frozen=True)
class Size:
    training_days: int
    suite_runs: int  # one run per failure class, Normal and the workload fault first
    suite_run_min: int
    online_runs: int  # RQ4's schedule: one run per fault type x pattern
    online_run_min: int
    min_intervals: int
    setup_repeats: int


SIZES = {
    "bench": Size(2, 12, 130, 18, 60, 200, 3),
    # for the benchmark's own tests: every stage runs, in a few seconds
    "smoke": Size(1, 4, 135, 1, 60, 1, 1),
}


@dataclass(frozen=True)
class Inputs:
    size_name: str
    size: Size
    input_set: int
    scenario: object  # sim.Scenario for the training data
    config: SuiteConfig
    suite: Tuple[RunSpec, ...]
    online: Tuple[RunSpec, ...]


def make_inputs(seed: int, size_name: str) -> Inputs:
    size = SIZES[size_name]
    k = seed % INPUT_SETS
    base = load_scenario(SCENARIO)
    scenario = replace(base, seed=base.seed + k, duration_s=size.training_days * 86400)
    config = SuiteConfig(
        seed=SuiteConfig().seed + k,
        training_start=scenario.start,
        training_days=size.training_days,
        run_duration_min=size.suite_run_min,
        allow_short_training=True,
    )
    return Inputs(size_name, size, k, scenario, config, _suite_specs(config, size, k), _online_specs(config, size))


def _suite_specs(config: SuiteConfig, size: Size, k: int) -> Tuple[RunSpec, ...]:
    """One run of ``default_run_specs`` per failure class; the seed picks which."""
    by_class: Dict[object, List[RunSpec]] = {}
    for spec in default_run_specs(config):
        key = None if spec.fault is None else (spec.fault.fault_type, spec.fault.resource)
        by_class.setdefault(key, []).append(spec)

    def rank(cls) -> int:  # Normal, the workload fault, then host faults in spec order
        return 0 if cls is None else 1 if cls[0] is FaultType.EXCESSIVE_WORKLOAD else 2

    order = sorted(by_class, key=rank)
    return tuple(by_class[c][k % len(by_class[c])] for c in order[: size.suite_runs])


def _online_specs(config: SuiteConfig, size: Size) -> Tuple[RunSpec, ...]:
    """Fresh faulty runs on RQ4's schedule (``evaluate.run_rq4``), one seed per combination."""
    specs = []
    for fault_type in _HOST_FAULTS + (FaultType.EXCESSIVE_WORKLOAD,):
        resource_name = SYSTEM_RESOURCE if fault_type is FaultType.EXCESSIVE_WORKLOAD else "Sprout"
        for pattern in Pattern:
            idx = len(specs)
            start = run_day(config, idx) + config.run_hour * 3600
            fault = FaultSpec(fault_type, resource_name, pattern, start + config.injection_min * 60)
            run_id = f"rq4-{fault_type.value}-{pattern.value}-1".lower()
            specs.append(RunSpec(run_id, start, size.online_run_min * 60, config.seed * 31013 + idx, fault))
    stride = max(1, len(specs) // size.online_runs)
    return tuple(specs[::stride][: size.online_runs])


def generate(config: SuiteConfig, topology, spec: RunSpec):
    return gen_run(
        topology,
        config.workload,
        spec.fault,
        spec.start,
        spec.duration_s,
        spec.seed,
        run_id=spec.run_id,
        workload_deviation=spec.deviation,
    )


def fit_model(training, config: SuiteConfig, tracer: Tracer) -> BaselineModel:
    """``fit_baseline_model``; traced, its parts in the same order."""
    if not tracer.enabled:
        return fit_baseline_model(
            training,
            k_sigma=config.k_sigma,
            lag_order=config.lag_order,
            alpha=config.alpha,
            prefilter_r=config.prefilter_r,
            allow_short=config.allow_short_training,
        )
    baselines = {}
    for kpi, series in training.items():
        with tracer.span("baseline.univariate"):
            baselines[kpi] = fit_univariate(series, config.k_sigma, allow_short=config.allow_short_training)
    with tracer.span("baseline.graph"):
        edges = tuple(build_graph(training, p=config.lag_order, alpha=config.alpha, prefilter_r=config.prefilter_r))
    model_config = BaselineConfig(
        lag_order=config.lag_order, alpha=config.alpha, k_sigma=config.k_sigma, prefilter_r=config.prefilter_r
    )
    return BaselineModel(baselines=baselines, edges=edges, config=model_config)


def repeat(fn: Callable[[], object], budget: float, at_least: int) -> List[float]:
    """Call ``fn`` at least ``at_least`` times, then while another call still
    fits in ``budget`` seconds; returns each call's wall time."""
    times: List[float] = []
    t_end = time.perf_counter() + budget
    while True:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if len(times) >= at_least and time.perf_counter() + statistics.median(times) > t_end:
            return times


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def n_pairs(model: BaselineModel) -> int:
    k = len(model.baselines)
    return k * (k - 1)


@dataclass
class Result:
    checker: Checker
    end_to_end: Dict[str, float]  # the metrics BENCHMARK.json bounds
    named: Dict[str, float]  # everything the workload reports untraced
    per_layer: Dict[str, float]  # traced runs only
    samples: Dict[str, List[float]]  # raw untraced timings behind the medians
    tracer: Tracer


def _halves(seconds: float, tracer: Tracer) -> List[Tuple[Tracer, float]]:
    """The whole budget untraced; when tracing, an untraced then a traced half."""
    off = Tracer(False, "")
    return [(off, seconds / 2), (tracer, seconds / 2)] if tracer.enabled else [(off, seconds)]


def _overhead_pct(untraced: List[float], traced: List[float]) -> float:
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


def _trace_summary(tracer: Tracer, root: str, untraced, traced) -> Dict[str, float]:
    passes = tracer.per_root(root)
    durations = tracer.durations(root)
    return {
        "trace.overhead_pct": _overhead_pct(untraced, traced),
        "trace.glue_s": statistics.median(p.get(root, 0.0) for p in passes),
        "trace.coverage_pct": statistics.median(
            100.0 * (1.0 - p.get(root, 0.0) / d) for p, d in zip(passes, durations)
        ),
    }


# ---------------------------------------------------------------------------
# offline-train


def offline_setup() -> float:
    """A fresh interpreter importing the layers, then the scenario file."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START], check=True)
    load_scenario(SCENARIO)
    return time.perf_counter() - t0


def offline_pass(inputs: Inputs, tracer: Tracer, workdir: Path):
    with tracer.span("offline-train.pass"):
        with tracer.span("sim.gen"):
            series, _ = inputs.scenario.generate()
        with tracer.span("io.csv_write"):
            write_csv(series, workdir / "training.csv")
        with tracer.span("io.csv_ingest"):
            ingested = ingest_csv(workdir / "training.csv")
        model = fit_model(ingested, inputs.config, tracer)
        with tracer.span("baseline.save"):
            model.save(workdir / "baseline.json")
    return series, ingested, model


def run_offline(inputs: Inputs, golden: dict, workdir: Path, seconds: float, trace: bool, run_id: str):
    checker = Checker()
    setups = [offline_setup() for _ in range(inputs.size.setup_repeats)]
    shape: Dict[str, float] = {}

    def one_pass(tracer):
        series, ingested, model = offline_pass(inputs, tracer, workdir)
        checker.exact("io.csv_round_trip", lambda: ingested == series, True)
        check_model(checker, model, golden)
        shape.update(
            rows=sum(len(s) for s in series.values()),
            bytes=(workdir / "training.csv").stat().st_size,
            edges=len(model.edges),
            pairs=n_pairs(model),
        )

    tracer = Tracer(trace, run_id)
    times = [repeat(lambda: one_pass(t), budget, 1) for t, budget in _halves(seconds, tracer)]
    rows = shape["rows"]
    # throughput is work over time summed across passes: steadier than a
    # median of a few passes when the host's speed changes within a run
    e2e = {
        "rows_per_s": rows * len(times[0]) / sum(times[0]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    named = {
        **e2e,
        "train_rows_per_s": e2e["rows_per_s"],
        "train_passes": len(times[0]),
        "failed_ratio": checker.ratio,
    }
    layers = {}
    if trace:
        root = "offline-train.pass"
        med = lambda name: tracer.median_self(root, name)  # noqa: E731
        layers = {
            "sim.gen_s": med("sim.gen"),
            "io.csv_write_s": med("io.csv_write"),
            "io.csv_write_rows_per_s": rows / med("io.csv_write"),
            "io.csv_ingest_s": med("io.csv_ingest"),
            "io.csv_ingest_rows_per_s": rows / med("io.csv_ingest"),
            "io.csv_rows": rows,
            "io.csv_bytes": shape["bytes"],
            "baseline.univariate_s": med("baseline.univariate"),
            "baseline.graph_s": med("baseline.graph"),
            "baseline.graph_pairs_per_s": shape["pairs"] / med("baseline.graph"),
            "baseline.edges": shape["edges"],
            "baseline.edge_ratio": shape["edges"] / shape["pairs"],
            "baseline.save_s": med("baseline.save"),
            **_trace_summary(tracer, root, times[0], times[1]),
        }
    return Result(checker, e2e, named, layers, {"pass_s": times[0]}, tracer)


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class OnlineRun:
    spec: RunSpec
    series: Dict  # the whole run, for the batch reference in tests and goldens
    intervals: List[Tuple[int, Dict]]  # (interval start, that interval's samples plus lag_order before)


@dataclass
class PipelineState:
    model: BaselineModel
    vocab: Vocabulary
    suite: List[Tuple[RunSpec, Dict, object]]  # (spec, series, manifest)
    online: List[OnlineRun]


def cut_intervals(spec: RunSpec, series: Dict, lag: int) -> List[Tuple[int, Dict]]:
    out = []
    for start in range(spec.start, spec.start + spec.duration_s, INTERVAL_S):
        cut = {}
        for kpi, s in series.items():
            lo = int(np.searchsorted(s.timestamps, start, side="left"))
            hi = int(np.searchsorted(s.timestamps, start + INTERVAL_S, side="left"))
            cut[kpi] = TimeSeries(kpi, s.timestamps[max(lo - lag, 0) : hi], s.values[max(lo - lag, 0) : hi])
        out.append((start, cut))
    return out


def pipeline_setup(inputs: Inputs, tracer: Tracer) -> PipelineState:
    config = inputs.config
    topology = default_topology()
    with tracer.span("pipeline.setup"):
        with tracer.span("sim.gen"):
            training, _ = inputs.scenario.generate(topology)
        model = fit_model(training, config, tracer)
        suite = []
        for spec in inputs.suite:
            with tracer.span("sim.gen"):
                series, manifest = generate(config, topology, spec)
            suite.append((spec, series, manifest))
        online = []
        for spec in inputs.online:
            with tracer.span("sim.gen"):
                series, _ = generate(config, topology, spec)
            online.append(OnlineRun(spec, series, cut_intervals(spec, series, model.config.lag_order)))
    return PipelineState(model, Vocabulary(model.baselines.keys(), split_kinds=False), suite, online)


@dataclass
class SuiteOutput:
    events: Dict[str, list]  # run id -> detect_stream events
    logged: Dict[str, list]  # run id -> the same events read back from the anomaly log
    signature: object
    cv: Dict[str, object]  # "<window>-<algorithm>" -> CrossValidationResult
    windows: int


def suite_pass(state: PipelineState, config: SuiteConfig, tracer: Tracer, workdir: Path) -> SuiteOutput:
    events, logged, records = {}, {}, []
    with tracer.span("pipeline.suite"):
        for spec, series, manifest in state.suite:
            with tracer.span("detect.batch"):
                found = detect_stream(state.model, series, spec.start, tau=config.tau)
            path = workdir / f"{spec.run_id}.anomalies.csv"
            with tracer.span("detect.log_write"):
                write_anomaly_log(found, path)
            with tracer.span("detect.log_read"):
                back = read_anomaly_log(path)
            events[spec.run_id], logged[spec.run_id] = found, back
            records.append(RunRecord(manifest=manifest, events=tuple(back)))
        with tracer.span("signature.windowize"):
            pool = assemble_windows(records, config.window_min, config.step_min)
        with tracer.span("signature.train"):
            signature = train_signature(pool, state.vocab, "tree", config.window_min)
        windows = len(pool)
        cv = {}
        for l_min in WINDOW_SWEEP:
            with tracer.span("signature.windowize"):
                samples = assemble_windows(records, l_min, config.step_min)
            windows += len(samples)
            for algorithm in ALGORITHMS:
                with tracer.span("signature.cv"):
                    cv[f"{l_min}-{algorithm}"] = cross_validate(
                        samples, state.vocab, k=config.folds, seed=config.seed, algorithm=algorithm
                    )
    return SuiteOutput(events, logged, signature, cv, windows)


def replay(state: PipelineState, run: OnlineRun, signature, tau: float, tracer: Tracer, latencies: List[float]):
    """One client replaying one run interval by interval; returns its alerts."""
    pstate = new_state(signature.window_min)
    alerts = []
    for start, cut in run.intervals:
        t0 = time.perf_counter()
        with tracer.span("pipeline.interval"):
            with tracer.span("detect.call"):
                events = detect_stream(state.model, cut, start, tau=tau)
            with tracer.span("predict.step"):
                pstate, alert = step(pstate, start, events, signature)
        latencies.append(time.perf_counter() - t0)
        if alert is not None:
            alerts.append(alert)
    return alerts


def batch_alerts(state: PipelineState, run: OnlineRun, signature, tau: float):
    """The CLI's ``predict`` path over the same run: the reference for replay."""
    spec = run.spec
    return run_predictor(state.model, signature, run.series, spec.start, spec.start + spec.duration_s, tau=tau)


def check_suite(checker: Checker, out: SuiteOutput, golden: dict) -> None:
    for run_id, want in golden["suite"].items():
        found = out.events.get(run_id, [])
        checker.exact(f"detect.events[{run_id}]", lambda: event_keys(found), want["events"])
        checker.floats(f"detect.scores[{run_id}]", lambda: event_scores(found), want["scores"])
        checker.exact(f"detect.log_round_trip[{run_id}]", lambda: out.logged.get(run_id) == found, True)
    for key, want in golden["cv"].items():
        checker.exact(f"signature.cv[{key}]", lambda: cv_predictions(out.cv[key]), want)


def check_alerts(checker: Checker, run_id: str, alerts, golden: dict) -> None:
    want = golden["alerts"][run_id]
    checker.exact(f"predict.alerts[{run_id}]", lambda: alert_keys(alerts), want["alerts"])
    checker.floats(f"predict.confidence[{run_id}]", lambda: alert_confidences(alerts), want["confidence"])


def run_pipeline(inputs: Inputs, golden: dict, workdir: Path, seconds: float, trace: bool, run_id: str):
    config = inputs.config
    checker = Checker()
    tracer = Tracer(trace, run_id)
    setups = []
    if trace:  # one traced set-up for the layer metrics; setup_s comes from untraced runs
        state = pipeline_setup(inputs, tracer)
    else:
        for _ in range(inputs.size.setup_repeats):
            t0 = time.perf_counter()
            state = pipeline_setup(inputs, tracer)
            setups.append(time.perf_counter() - t0)
    check_model(checker, state.model, golden)

    outputs: List[SuiteOutput] = []
    alert_counts = {AlertKind.GENERAL: 0, AlertKind.FAILURE_SPECIFIC: 0}
    n_online = len(state.online)
    per_run = len(state.online[0].intervals)
    at_least = max(n_online, -(-inputs.size.min_intervals // per_run))
    chunk = -(-n_online // ONLINE_CHUNKS)

    def measure(t: Tracer, budget: float):
        """Rounds of one suite pass then ``chunk`` online replays, so both
        stages sample the whole measuring time; at least one pass, one replay
        of every online run and ``min_intervals`` intervals."""
        suite_times: List[float] = []
        latencies: List[float] = []
        replayed = 0

        def one_round():
            nonlocal replayed
            t0 = time.perf_counter()
            out = suite_pass(state, config, t, workdir)
            suite_times.append(time.perf_counter() - t0)
            check_suite(checker, out, golden)
            outputs.append(out)
            for _ in range(chunk):
                run = state.online[replayed % n_online]
                alerts = replay(state, run, outputs[0].signature, config.tau, t, latencies)
                check_alerts(checker, run.spec.run_id, alerts, golden)
                if not t.enabled and replayed < n_online:  # one replay of every run, untraced
                    for alert in alerts:
                        alert_counts[alert.kind] += 1
                replayed += 1

        repeat(one_round, budget, -(-at_least // chunk))
        return suite_times, latencies

    suite_times, online = zip(*(measure(t, budget) for t, budget in _halves(seconds, tracer)))

    suite = outputs[0]
    kpis = len(state.model.baselines)
    intervals = sum(spec.duration_s // INTERVAL_S for spec, _, _ in state.suite)
    kpi_intervals = kpis * intervals
    suite_rows = sum(len(s) for _, series, _ in state.suite for s in series.values())
    e2e = {  # throughput over all passes, as in offline-train
        "rows_per_s": suite_rows * len(suite_times[0]) / sum(suite_times[0]),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    named = {
        **e2e,
        "suite_kpi_intervals_per_s": kpi_intervals * len(suite_times[0]) / sum(suite_times[0]),
        "suite_passes": len(suite_times[0]),
        "interval_p50_ms": 1e3 * percentile(online[0], 50),
        "interval_p95_ms": 1e3 * percentile(online[0], 95),
        "interval_samples": len(online[0]),
        "failed_ratio": checker.ratio,
    }
    layers = {}
    if trace:
        setup = tracer.per_root("pipeline.setup")[0]
        med = lambda name: tracer.median_self("pipeline.suite", name)  # noqa: E731
        edges = len(state.model.edges)
        pairs = n_pairs(state.model)
        # every interval but the first has lag history, so each edge is scored there
        edge_intervals = edges * sum(spec.duration_s // INTERVAL_S - 1 for spec, _, _ in state.suite)
        events = [e for found in suite.events.values() for e in found]
        calls = tracer.durations("detect.call")
        steps = tracer.durations("predict.step")
        layers = {
            "sim.gen_s": setup.get("sim.gen", 0.0),
            "baseline.univariate_s": setup.get("baseline.univariate", 0.0),
            "baseline.graph_s": setup["baseline.graph"],
            "baseline.graph_pairs_per_s": pairs / setup["baseline.graph"],
            "baseline.edges": edges,
            "baseline.edge_ratio": edges / pairs,
            "detect.batch_s": med("detect.batch"),
            "detect.kpi_intervals_per_s": kpi_intervals / med("detect.batch"),
            "detect.edge_intervals_per_s": edge_intervals / med("detect.batch"),
            "detect.kpi_intervals": kpi_intervals,
            "detect.edge_intervals": edge_intervals,
            "detect.events_univariate": sum(e.kind is AnomalyKind.UNIVARIATE for e in events),
            "detect.events_multivariate": sum(e.kind is AnomalyKind.MULTIVARIATE for e in events),
            "detect.log_write_s": med("detect.log_write"),
            "detect.log_read_s": med("detect.log_read"),
            "detect.log_rows": len(events),
            "signature.windowize_s": med("signature.windowize"),
            "signature.windows": suite.windows,
            "signature.train_s": med("signature.train"),
            "signature.cv_s": med("signature.cv"),
            "signature.cv_fits": len(suite.cv) * config.folds,
            "detect.call_p50_ms": 1e3 * percentile(calls, 50),
            "detect.call_p95_ms": 1e3 * percentile(calls, 95),
            "detect.calls": len(calls),
            "predict.step_p50_us": 1e6 * percentile(steps, 50),
            "predict.step_p95_us": 1e6 * percentile(steps, 95),
            "predict.steps": len(steps),
            "predict.alerts_general": alert_counts[AlertKind.GENERAL],
            "predict.alerts_specific": alert_counts[AlertKind.FAILURE_SPECIFIC],
            **_trace_summary(tracer, "pipeline.suite", suite_times[0], suite_times[1]),
            "trace.interval_overhead_pct": _overhead_pct(online[0], online[1]),
        }
    return Result(checker, e2e, named, layers, {"pass_s": suite_times[0], "interval_s": online[0]}, tracer)


WORKLOADS = {"offline-train": run_offline, "pipeline": run_pipeline}


def make_golden(inputs: Inputs, workdir: Path) -> dict:
    """Every checked output of both workloads for one input set, from the
    straightforward paths: whole-run ``run_predictor`` gives the alerts."""
    off = Tracer(False, "")
    state = pipeline_setup(inputs, off)
    out = suite_pass(state, inputs.config, off, workdir)
    alerts = {}
    for run in state.online:
        found = batch_alerts(state, run, out.signature, inputs.config.tau)
        alerts[run.spec.run_id] = {"alerts": alert_keys(found), "confidence": rounded(alert_confidences(found))}
    return {
        "size": inputs.size_name,
        "input_set": inputs.input_set,
        "edges": edge_pairs(state.model),
        "edge_floats": [rounded(v) for v in edge_floats(state.model)],
        "suite": {
            run_id: {"events": event_keys(found), "scores": rounded(event_scores(found))}
            for run_id, found in out.events.items()
        },
        "cv": {key: cv_predictions(result) for key, result in out.cv.items()},
        "alerts": alerts,
    }
