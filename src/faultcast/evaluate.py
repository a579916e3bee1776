"""Evaluation harness: builds a simulated suite and answers four questions.

RQ1  how the sliding-window length and the classifier family affect window
     classification, under seeded stratified cross-validation;
RQ2  per-class and micro effectiveness of the default configuration;
RQ3  whether fault-free runs with large random workload deviations stay
     classified as Normal;
RQ4  how early alerts precede the eventual failure, per fault type and
     activation pattern.

Every run takes one path.  A :class:`RunSpec` names it: the training span,
a row of ``default_run_specs``, ``rq3_run_specs`` or ``rq4_run_specs``.
``generate`` simulates it, ``detect_run`` turns it into anomaly events and
``assemble_windows`` into a pool of labeled windows; RQ4 replays
``generate``'s series through the online predictor instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .baseline import DEFAULT_ALPHA, DEFAULT_K_SIGMA, DEFAULT_LAG_ORDER, DEFAULT_PREFILTER_R
from .baseline import BaselineConfig, BaselineModel, fit_baseline_model
from .core import (
    DAY_S,
    DEFAULT_STEP_MIN,
    DEFAULT_WINDOW_MIN,
    FailureClass,
    FaultType,
    KpiId,
    NORMAL_CLASS,
    SYSTEM_RESOURCE,
    TimeSeries,
    hour_of_week,
    parse_timestamp,
    slide_windows,
)
from .detect import DEFAULT_TAU, AnomalyEvent, AnomalyEvents, check_tau, detect_stream
from .io import Artifact, RunManifest, Timestamp, check_fields, check_ranges
from .metrics import Contingency, EffectivenessMetrics, metrics, micro_contingency
from .predict import EarlinessReport, measure_earliness, run_predictor
from .sim import (
    FaultSpec,
    Pattern,
    WorkloadModel,
    default_topology,
    gen_run,
)
from .signature import (
    SignatureModel,
    Vocabulary,
    Windows,
    cross_validate,
    train_signature,
    window_cells,
)

logger = logging.getLogger(__name__)

_HOST_FAULTS = (
    FaultType.PACKET_LOSS,
    FaultType.PACKET_LATENCY,
    FaultType.PACKET_CORRUPTION,
    FaultType.MEMORY_LEAK,
    FaultType.CPU_HOG,
)


@dataclass(frozen=True)
class SuiteConfig(Artifact):
    """Everything that determines a suite: topology-independent knobs only."""

    KIND, SCHEMA_VERSION = "faultcast-suite", 1

    training_start: Timestamp = parse_timestamp("2026-01-05T00:00:00Z")  # a Monday
    training_days: int = 28
    run_duration_min: int = 180
    injection_min: int = 15
    run_hour: int = 10  # start hour of the faulty and clean runs
    quiet_hour: int = 22  # start hour of the random-deviation runs
    fault_targets: Tuple[str, ...] = ("Sprout", "Homer")
    window_min: int = DEFAULT_WINDOW_MIN
    step_min: int = DEFAULT_STEP_MIN
    folds: int = 10
    k_sigma: float = DEFAULT_K_SIGMA
    lag_order: int = DEFAULT_LAG_ORDER
    alpha: float = DEFAULT_ALPHA
    prefilter_r: float = DEFAULT_PREFILTER_R
    tau: float = DEFAULT_TAU
    seed: int = 2026
    allow_short_training: bool = False
    workload: WorkloadModel = field(default_factory=WorkloadModel)

    def __post_init__(self) -> None:
        # 2.5 folds would fail in numpy after the build; true days run one
        # and a true tau is 1
        check_fields(self)
        minutes, targets = self.run_duration_min, self.fault_targets
        all_text = isinstance(targets, tuple) and all(isinstance(target, str) for target in targets)
        check_ranges(
            self,
            ("fault_targets", all_text and len(set(targets)) == len(targets), "a tuple of distinct resource names"),
            ("run_hour", 0 <= self.run_hour <= 23, "an hour from 0 to 23"),
            ("quiet_hour", 0 <= self.quiet_hour <= 23, "an hour from 0 to 23"),
            ("folds", self.folds >= 2, "at least 2"),
            ("step_min", self.step_min > 0, "positive"),
            ("window_min", self.window_min > 0, "positive"),
            ("training_days", self.training_days > 0, "positive"),
            ("injection_min", 0 <= self.injection_min < minutes, f"in [0, {minutes}), inside the run"),
            ("seed", self.seed >= 0, "non-negative"),
        )
        if RQ4_TARGET not in targets:  # else RQ4's host faults hit a class never trained
            raise ValueError(f"fault_targets {targets!r} must include {RQ4_TARGET!r}, RQ4's host fault target")
        BaselineConfig(self.lag_order, self.alpha, self.k_sigma, self.prefilter_r)  # the baseline's own rules
        check_tau(self.tau)
        if self.window_min > minutes:
            raise ValueError(f"window_min {self.window_min} exceeds run_duration_min {minutes}")

    @property
    def training_end(self) -> int:
        return self.training_start + self.training_days * DAY_S


@dataclass(frozen=True)
class RunSpec:
    """One run to generate: its fault (if any), schedule and seed."""

    run_id: str
    start: int
    duration_s: int
    seed: int
    fault: Optional[FaultSpec] = None
    deviation: float = 0.0


@dataclass(frozen=True)
class RunRecord:
    """A generated run reduced to what the classifiers need; the events are
    held as :class:`AnomalyEvents` columns, converted once here."""

    manifest: RunManifest
    events: Sequence[AnomalyEvent]

    def __post_init__(self):
        object.__setattr__(self, "events", AnomalyEvents.of(self.events))


@dataclass
class SuiteData:
    """A built suite: the offline models plus the detected run pool."""

    config: SuiteConfig
    baseline: BaselineModel
    vocab: Vocabulary
    runs: List[RunRecord]
    signature: SignatureModel


def _weekday_on_or_after(ts: int) -> int:
    """Midnight of the first Monday-to-Friday day at or after ``ts``."""
    day = (ts // DAY_S) * DAY_S
    while hour_of_week(day) // 24 >= 5:
        day += DAY_S
    return day


def run_day(config: SuiteConfig, index: int) -> int:
    """Scheduling helper: runs cycle over the five weekdays after training."""
    day = _weekday_on_or_after(config.training_end)
    for _ in range(index % 5):
        day = _weekday_on_or_after(day + DAY_S)
    return day


def failure_class_of(manifest: RunManifest) -> FailureClass:
    if manifest.fault is None:
        return NORMAL_CLASS
    return FailureClass(manifest.fault.fault_type, manifest.fault.resource)


def window_label(manifest: RunManifest, start: int, end: int) -> FailureClass:
    """A window carries the run's fault class once it reaches the injection:
    fault iff the window end is at or after the fault became active."""
    if manifest.fault is None or end < manifest.fault.injection_time:
        return NORMAL_CLASS
    return failure_class_of(manifest)


def _scheduled(
    config: SuiteConfig,
    idx: int,
    run_id: str,
    hour: int,
    duration_s: int,
    seed: int,
    fault: Optional[Tuple[FaultType, str, Pattern]] = None,
    deviation: float = 0.0,
) -> RunSpec:
    """Run ``idx`` of a schedule: on ``run_day(config, idx)`` at ``hour``, with
    its (fault type, resource, pattern) injected ``injection_min`` in."""
    start = run_day(config, idx) + hour * 3600
    injected = None if fault is None else FaultSpec(*fault, injection_time=start + config.injection_min * 60)
    return RunSpec(run_id, start, duration_s, seed, injected, deviation)


def default_run_specs(config: SuiteConfig) -> List[RunSpec]:
    """The bundled run pool: every host fault on each target VM under all
    three activation patterns, the workload fault, and six passing runs (three
    of them with deliberate random workload deviation, so that healthy load
    swings are part of the Normal training signature)."""
    busy, quiet, flood = config.run_hour, config.quiet_hour, FaultType.EXCESSIVE_WORKLOAD
    host = product(_HOST_FAULTS, config.fault_targets, Pattern)
    rows = [(f"{t.value}-{vm}-{p.value}".lower(), busy, (t, vm, p), 0.0) for t, vm, p in host]
    rows += [(f"{flood.value}-{p.value}".lower(), busy, (flood, SYSTEM_RESOURCE, p), 0.0) for p in Pattern]
    rows += [
        ("passing-1", busy, None, 0.0),
        ("passing-2", busy, None, 0.0),
        ("passing-3", quiet, None, 0.0),
        ("passing-dev-1", busy, None, 0.5),
        ("passing-dev-2", quiet, None, 0.5),
        ("passing-dev-3", quiet, None, 0.5),
    ]
    duration_s = config.run_duration_min * 60
    return [
        _scheduled(config, idx, run_id, hour, duration_s, config.seed * 1009 + idx, fault, deviation)
        for idx, (run_id, hour, fault, deviation) in enumerate(rows)
    ]


def generate(config: SuiteConfig, spec: RunSpec) -> Tuple[Dict[KpiId, TimeSeries], RunManifest]:
    """The series and manifest of the run ``spec`` names, on the bundled
    topology under the suite's workload."""
    return gen_run(
        default_topology(),
        config.workload,
        spec.fault,
        spec.start,
        spec.duration_s,
        spec.seed,
        run_id=spec.run_id,
        workload_deviation=spec.deviation,
    )


def detect_run(config: SuiteConfig, baseline: BaselineModel, spec: RunSpec) -> RunRecord:
    series, manifest = generate(config, spec)
    return RunRecord(manifest=manifest, events=detect_stream(baseline, series, spec.start, tau=config.tau))


def assemble_windows(runs: Sequence[RunRecord], l_min: int, step_min: int) -> Windows:
    """The pool of labeled sliding windows over every run.

    An event belongs to every window whose range holds its interval start,
    so anomalies persist across overlapping windows until they slide out.
    Each run's windows come from :func:`window_cells` over the pool's
    sorted KPIs.
    """
    kpis = tuple(sorted(set().union(*(rec.events.kpis for rec in runs))))
    index = {kpi: i for i, kpi in enumerate(kpis)}
    cells, bounds, labels = [np.zeros((0, len(kpis), 2), dtype=bool)], [], []
    for rec in runs:
        windows = slide_windows(rec.manifest.start, rec.manifest.end, l_min, step_min)
        numbers = np.array([index[kpi] for kpi in rec.events.kpis], dtype=np.intp)[rec.events.kpi]
        cells.append(window_cells(rec.events, numbers, len(kpis), windows))
        bounds += windows
        labels += [window_label(rec.manifest, start, end) for start, end in windows]
    start, end = np.array(bounds, dtype=np.int64).reshape(-1, 2).T
    return Windows(kpis, np.concatenate(cells), start, end, tuple(labels))


def build_suite(config: SuiteConfig) -> SuiteData:
    """Generate training data, fit the offline models, run detection over the
    bundled run pool, and train the default signature classifier."""
    app_vms = default_topology().app_vms
    for target in config.fault_targets:
        if target not in app_vms:
            raise ValueError(f"fault target {target!r} is not an app VM of the topology {app_vms}")
    logger.info("suite: generating %d days of training data", config.training_days)
    training_spec = RunSpec("training", config.training_start, config.training_days * DAY_S, config.seed)
    training, _ = generate(config, training_spec)
    baseline = fit_baseline_model(
        training,
        k_sigma=config.k_sigma,
        lag_order=config.lag_order,
        alpha=config.alpha,
        prefilter_r=config.prefilter_r,
        allow_short=config.allow_short_training,
    )
    logger.info("suite: baseline over %d KPIs, %d causal edges", len(baseline.baselines), len(baseline.edges))
    vocab = Vocabulary(baseline.baselines.keys(), split_kinds=False)
    runs = [detect_run(config, baseline, spec) for spec in default_run_specs(config)]
    pool = assemble_windows(runs, config.window_min, config.step_min)
    signature = train_signature(pool, vocab, "tree", config.window_min)
    logger.info("suite: %d runs, %d labeled windows", len(runs), len(pool))
    return SuiteData(
        config=config,
        baseline=baseline,
        vocab=vocab,
        runs=runs,
        signature=signature,
    )


# ---------------------------------------------------------------------------
# RQ1: window length and classifier family


@dataclass(frozen=True)
class Rq1Row:
    window_min: int
    algorithm: str
    n_windows: int
    windows_per_run: int  # sliding count, offset zero included
    micro: EffectivenessMetrics
    alarm_rate: Optional[float]  # share of truly-Normal windows classified faulty


def _alarm_rate(per_class: Dict[FailureClass, Contingency]) -> Optional[float]:
    cont = per_class.get(NORMAL_CLASS)
    if cont is None or cont.tp + cont.fn == 0:
        return None
    return cont.fn / (cont.tp + cont.fn)


#: RQ1's window lengths in minutes; a run must be at least as long as the
#: longest of them to yield its windows.
RQ1_WINDOW_LENGTHS = (60, 90, 120)


def run_rq1(data: SuiteData) -> List[Rq1Row]:
    config = data.config
    rows: List[Rq1Row] = []
    duration = config.run_duration_min
    for l_min in RQ1_WINDOW_LENGTHS:
        pool = assemble_windows(data.runs, l_min, config.step_min)
        per_run = (duration - l_min) // config.step_min + 1
        for algorithm in ("tree", "nb"):
            cv = cross_validate(pool, data.vocab, k=config.folds, seed=config.seed, algorithm=algorithm)
            rows.append(
                Rq1Row(
                    window_min=l_min,
                    algorithm=algorithm,
                    n_windows=len(pool),
                    windows_per_run=per_run,
                    micro=metrics(micro_contingency(cv.per_class)),
                    alarm_rate=_alarm_rate(cv.per_class),
                )
            )
    return rows


def render_rq1(rows: Sequence[Rq1Row]) -> str:
    lines = [
        "RQ1: window length / classifier comparison (stratified CV)",
        f"{'window':>7} {'algo':>5} {'windows':>8} {'per-run':>8} {'accuracy':>9} "
        f"{'micro-F':>9} {'alarms':>7}",
    ]
    for r in rows:
        acc = "--" if r.micro.accuracy is None else f"{100 * r.micro.accuracy:8.3f}%"
        f = "--" if r.micro.f_measure is None else f"{100 * r.micro.f_measure:8.3f}%"
        alarms = "--" if r.alarm_rate is None else f"{100 * r.alarm_rate:6.2f}%"
        lines.append(
            f"{r.window_min:>7} {r.algorithm:>5} {r.n_windows:>8} {r.windows_per_run:>8} {acc} {f} {alarms}"
        )
    if rows:
        r = rows[0]
        lines.append(
            f"(a {r.window_min}-min window sliding by 5 gives {r.windows_per_run} windows "
            f"per run counting the start itself, {r.windows_per_run - 1} counting only later offsets)"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# RQ2: per-class effectiveness of the default configuration


@dataclass(frozen=True)
class Rq2Report:
    per_class: Dict[FailureClass, Contingency]
    micro: EffectivenessMetrics
    alarm_rate: Optional[float]
    n_windows: int
    n_correct: int


def run_rq2(data: SuiteData) -> Rq2Report:
    config = data.config
    pool = assemble_windows(data.runs, config.window_min, config.step_min)
    cv = cross_validate(pool, data.vocab, k=config.folds, seed=config.seed, algorithm="tree")
    return Rq2Report(
        per_class=cv.per_class,
        micro=metrics(micro_contingency(cv.per_class)),
        alarm_rate=_alarm_rate(cv.per_class),
        n_windows=len(pool),
        n_correct=cv.n_correct,
    )


def render_rq2(report: Rq2Report) -> str:
    header = f"{'class':<34} {'prec':>7} {'recall':>7} {'F':>7} {'acc':>7} {'FPR':>7}"
    lines = [
        "RQ2: per-class effectiveness, default configuration "
        f"({report.n_correct}/{report.n_windows} windows correct)",
        header,
    ]
    for cls in sorted(report.per_class):
        lines.append(metrics(report.per_class[cls]).render(cls.label()))
    lines.append(report.micro.render("micro"))
    if report.alarm_rate is not None:
        lines.append(f"false-alarm rate on Normal windows: {100 * report.alarm_rate:.3f}%")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# RQ3: fault-free runs under random workload deviation


@dataclass(frozen=True)
class Rq3Run:
    run_id: str
    deviation: float
    n_windows: int
    n_normal: int

    @property
    def fraction_normal(self) -> float:
        return self.n_normal / self.n_windows if self.n_windows else 1.0


def rq3_run_specs(config: SuiteConfig) -> List[RunSpec]:
    """RQ3's fault-free runs: ``RQ3_RUNS_PER_DEVIATION`` per deviation level, in the quiet slot."""
    return [
        _scheduled(
            config,
            idx,
            f"random{int(round(100 * deviation))}-{i + 1}",
            config.quiet_hour,
            RQ3_RUN_MIN * 60,
            config.seed * 7177 + idx,
            deviation=deviation,
        )
        for idx, (deviation, i) in enumerate(product(RQ3_DEVIATIONS, range(RQ3_RUNS_PER_DEVIATION)))
    ]


#: RQ3's workload deviation levels, runs per level and run length in minutes.
RQ3_DEVIATIONS = (0.4, 1.0)
RQ3_RUNS_PER_DEVIATION = 2
RQ3_RUN_MIN = 120


def run_rq3(data: SuiteData) -> List[Rq3Run]:
    """Classify windows of fresh fault-free runs whose call rate deviates
    randomly per five-minute block, scheduled in a low-traffic slot."""
    config = data.config
    specs = rq3_run_specs(config)
    runs = [detect_run(config, data.baseline, spec) for spec in specs]
    top = [cls for cls, _ in data.signature.top(assemble_windows(runs, config.window_min, config.step_min))]
    results: List[Rq3Run] = []
    at = 0
    for spec in specs:  # the pool holds each run's windows in turn
        n = len(slide_windows(spec.start, spec.start + spec.duration_s, config.window_min, config.step_min))
        results.append(Rq3Run(spec.run_id, spec.deviation, n, top[at : at + n].count(NORMAL_CLASS)))
        at += n
    return results


def rq3_overall_fraction(rows: Sequence[Rq3Run]) -> float:
    total = sum(r.n_windows for r in rows)
    normal = sum(r.n_normal for r in rows)
    return normal / total if total else 1.0


def render_rq3(rows: Sequence[Rq3Run]) -> str:
    lines = [
        "RQ3: fault-free runs under random workload deviation",
        f"{'run':<16} {'deviation':>9} {'windows':>8} {'Normal':>7} {'fraction':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r.run_id:<16} {100 * r.deviation:>8.0f}% {r.n_windows:>8} "
            f"{r.n_normal:>7} {100 * r.fraction_normal:>8.2f}%"
        )
    lines.append(f"overall: {100 * rq3_overall_fraction(rows):.2f}% of windows classified Normal")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# RQ4: prediction earliness


@dataclass(frozen=True)
class Rq4Row:
    run_id: str
    fault_type: FaultType
    pattern: Pattern
    seed: int
    report: EarlinessReport


def rq4_run_specs(config: SuiteConfig, seeds_per_combo: int, duration_min: int, target: str) -> List[RunSpec]:
    """RQ4's faulty runs: ``seeds_per_combo`` per fault type and pattern, host
    faults on ``target``."""
    specs: List[RunSpec] = []
    combos = product(_HOST_FAULTS + (FaultType.EXCESSIVE_WORKLOAD,), Pattern, range(seeds_per_combo))
    for idx, (fault_type, pattern, i) in enumerate(combos):
        resource = SYSTEM_RESOURCE if fault_type is FaultType.EXCESSIVE_WORKLOAD else target
        run_id = f"rq4-{fault_type.value}-{pattern.value}-{i + 1}".lower()
        seed = config.seed * 31013 + idx
        fault = (fault_type, resource, pattern)
        specs.append(_scheduled(config, idx, run_id, config.run_hour, duration_min * 60, seed, fault))
    return specs


#: RQ4's seeds per (fault type, pattern), run length in minutes and host fault target.
RQ4_SEEDS_PER_COMBO = 2
RQ4_RUN_MIN = 180
RQ4_TARGET = "Sprout"


def run_rq4(data: SuiteData) -> List[Rq4Row]:
    """Replay the online predictor over fresh faulty runs and measure how
    early it warns relative to the eventual failure."""
    config = data.config
    rows: List[Rq4Row] = []
    for spec in rq4_run_specs(config, RQ4_SEEDS_PER_COMBO, RQ4_RUN_MIN, RQ4_TARGET):
        series, manifest = generate(config, spec)
        end = spec.start + spec.duration_s
        alerts = run_predictor(data.baseline, data.signature, series, spec.start, end, tau=config.tau)
        report = measure_earliness(alerts, manifest)
        rows.append(Rq4Row(spec.run_id, spec.fault.fault_type, spec.fault.pattern, spec.seed, report))
    return rows


def render_rq4(rows: Sequence[Rq4Row]) -> str:
    lines = [
        "RQ4: prediction earliness (per run)",
        f"{'fault':<20} {'pattern':<12} {'TTGP':>9} {'TTFSP':>9} "
        f"{'TTF(GP)':>10} {'TTF(FSP)':>10} {'false':>6}",
    ]
    for r in rows:
        rep = r.report
        lines.append(
            f"{r.fault_type.value:<20} {r.pattern.value:<12} {rep.render_ttgp():>9} "
            f"{rep.render_ttfsp():>9} {rep.render_ttf_gp():>10} {rep.render_ttf_fsp():>10} "
            f"{rep.false_alarms:>6}"
        )
    return "\n".join(lines)
