"""Command-line interface: simulate, train, detect, predict, evaluate."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path
from typing import List, Optional

from .baseline import BaselineModel, fit_baseline_model
from .core import CADENCE_S, FaultcastError, format_timestamp, parse_timestamp
from .detect import check_tau, detect_stream, read_anomaly_log, write_anomaly_log
from .evaluate import (
    RQ1_WINDOW_LENGTHS,
    RunRecord,
    SuiteConfig,
    assemble_windows,
    build_suite,
    render_rq1,
    render_rq2,
    render_rq3,
    render_rq4,
    run_rq1,
    run_rq2,
    run_rq3,
    run_rq4,
)
from .io import RunManifest, _open_text, ingest_csv, write_csv
from .predict import check_alert_rule, run_predictor, write_alert_log
from .sim import default_topology, load_scenario
from .signature import SignatureModel, Vocabulary, train_signature

logger = logging.getLogger(__name__)


def _add_verbosity(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress (-v: info, -vv: debug)",
    )


def _read_run(path: str, args_start: Optional[str]):
    """Ingest a run's KPI CSV.  Returns the series, the run start
    (``args_start``, by default the first sample) and the first and last
    sample times, or None when the file holds no sample."""
    series_map = ingest_csv(path)
    if not series_map:
        return None
    first = min(int(s.timestamps[0]) for s in series_map.values())
    last = max(int(s.timestamps[-1]) for s in series_map.values())
    run_start = first if args_start is None else parse_timestamp(args_start)
    if run_start > last:
        raise FaultcastError(f"--run-start {args_start} is after the last sample ({format_timestamp(last)})")
    return series_map, run_start, first, last


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    series, manifest = scenario.generate(default_topology())
    write_csv(series, args.out)
    manifest_path = args.manifest or str(Path(args.out).with_suffix("")) + ".manifest.json"
    manifest.save(manifest_path)
    print(f"wrote {sum(len(s) for s in series.values())} samples to {args.out}")
    print(f"wrote manifest to {manifest_path}")
    return 0


def cmd_train_baseline(args: argparse.Namespace) -> int:
    training = {}
    for path in args.data:
        for kpi, series in ingest_csv(path).items():
            if kpi in training:
                raise FaultcastError(f"KPI {kpi} appears in more than one training file")
            training[kpi] = series
    model = fit_baseline_model(
        training,
        k_sigma=args.k_sigma,
        lag_order=args.lag_order,
        alpha=args.alpha,
        prefilter_r=args.prefilter_r,
        allow_short=args.allow_short,
    )
    model.save(args.out)
    print(f"trained baselines for {len(model.baselines)} KPIs, {len(model.edges)} causal edges -> {args.out}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    check_tau(args.tau)
    model = BaselineModel.load(args.baseline)
    run = _read_run(args.data, args.run_start)
    events = [] if run is None else detect_stream(model, run[0], run[1], tau=args.tau)
    write_anomaly_log(events, args.out)
    print(f"{len(events)} anomalous (KPI, interval) verdicts -> {args.out}")
    return 0


def cmd_train_signature(args: argparse.Namespace) -> int:
    baseline = BaselineModel.load(args.baseline)
    vocab = Vocabulary(baseline.baselines.keys(), split_kinds=args.split_kinds)
    runs = [
        RunRecord(events=read_anomaly_log(anomalies_path), manifest=RunManifest.load(manifest_path))
        for anomalies_path, manifest_path in args.run
    ]
    pool = assemble_windows(runs, args.window_min, args.step_min)
    model = train_signature(pool, vocab, args.algo, args.window_min)
    model.save(args.out)
    print(
        f"trained {args.algo} signature classifier on {len(pool)} windows "
        f"({len(model.classes)} classes) -> {args.out}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    check_tau(args.tau)
    check_alert_rule(args.confidence, args.streak)
    baseline = BaselineModel.load(args.baseline)
    signature = SignatureModel.load(args.signature)
    run = _read_run(args.data, args.run_start)
    alerts = []
    if run is not None:
        series_map, run_start, first, last = run
        if run_start < first - signature.window_min * 60:
            # every window further ahead of the data is empty
            raise FaultcastError(
                f"--run-start {args.run_start} is more than the signature's {signature.window_min}-minute"
                f" window before the first sample ({format_timestamp(first)})"
            )
        alerts = run_predictor(
            baseline,
            signature,
            series_map,
            run_start,
            last + CADENCE_S,
            tau=args.tau,
            confidence_threshold=args.confidence,
            streak_needed=args.streak,
        )
    write_alert_log(alerts, args.out)
    general = sum(1 for a in alerts if a.failure_class is None)
    print(f"{len(alerts)} alerts ({general} general) -> {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = SuiteConfig.load(args.config) if args.config else SuiteConfig()
    wanted = ("rq1", "rq2", "rq3", "rq4") if args.suite == "all" else (args.suite,)
    longest = max(RQ1_WINDOW_LENGTHS)
    if "rq1" in wanted and config.run_duration_min < longest:
        raise ValueError(
            f"run_duration_min {config.run_duration_min} is shorter than RQ1's longest window ({longest} min)"
        )
    data = build_suite(config)
    sections: List[str] = []
    if "rq1" in wanted:
        sections.append(render_rq1(run_rq1(data)))
    if "rq2" in wanted:
        sections.append(render_rq2(run_rq2(data)))
    if "rq3" in wanted:
        sections.append(render_rq3(run_rq3(data)))
    if "rq4" in wanted:
        sections.append(render_rq4(run_rq4(data)))
    report = "\n\n".join(sections) + "\n"
    if args.out:
        with _open_text(args.out, "w") as fh:
            fh.write(report)
        print(f"wrote report to {args.out}")
    else:
        print(report, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultcast",
        description="Failure prediction for multi-tier systems: seasonal KPI "
        "baselines, causality-aware anomaly detection, and signature-based alerts.",
    )
    _add_verbosity(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a testbed run from a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", required=True, help="output KPI CSV path")
    p.add_argument("--manifest", default=None, help="output manifest path (default: <out>.manifest.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-baseline", help="fit per-KPI baselines and the causality graph")
    p.add_argument("--data", required=True, nargs="+", help="training KPI CSV file(s)")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--k-sigma", type=float, default=3.0, help="tolerance band width (default 3.0)")
    p.add_argument("--lag-order", type=int, default=3, help="causality test lag order (default 3)")
    p.add_argument("--alpha", type=float, default=0.01, help="causality significance level (default 0.01)")
    p.add_argument(
        "--prefilter-r", type=float, default=0.2, help="minimum |Pearson r| to test a pair (default 0.2)"
    )
    p.add_argument(
        "--allow-short",
        action="store_true",
        help="accept training series shorter than the two-week minimum",
    )
    p.set_defaults(func=cmd_train_baseline)

    p = sub.add_parser("detect", help="flag anomalous (KPI, interval) pairs in a run")
    p.add_argument("--baseline", required=True, help="baseline model JSON")
    p.add_argument("--data", required=True, help="run KPI CSV")
    p.add_argument("--out", required=True, help="output anomaly CSV path")
    p.add_argument("--run-start", default=None, help="run start (ISO UTC); default: first sample")
    p.add_argument("--tau", type=float, default=3.0, help="causality residual threshold (default 3.0)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("train-signature", help="train the window classifier from detected runs")
    p.add_argument("--baseline", required=True, help="baseline model JSON (provides the KPI vocabulary)")
    p.add_argument(
        "--run",
        required=True,
        nargs=2,
        action="append",
        metavar=("ANOMALIES", "MANIFEST"),
        help="anomaly CSV plus run manifest; repeat per run",
    )
    p.add_argument("--algo", choices=("tree", "nb"), default="tree", help="classifier family")
    p.add_argument("--window-min", type=int, default=90, help="sliding window length in minutes")
    p.add_argument("--step-min", type=int, default=5, help="window step in minutes")
    p.add_argument(
        "--split-kinds",
        action="store_true",
        help="use separate features for band and causality anomalies",
    )
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_train_signature)

    p = sub.add_parser("predict", help="replay a run through detection and the alert lifecycle")
    p.add_argument("--baseline", required=True, help="baseline model JSON")
    p.add_argument("--signature", required=True, help="signature model JSON")
    p.add_argument("--data", required=True, help="run KPI CSV")
    p.add_argument("--out", required=True, help="output alert CSV path")
    p.add_argument("--run-start", default=None, help="run start (ISO UTC); default: first sample")
    p.add_argument("--tau", type=float, default=3.0, help="causality residual threshold (default 3.0)")
    p.add_argument(
        "--confidence", type=float, default=0.9, help="confidence needed to build an alert streak"
    )
    p.add_argument(
        "--streak", type=int, default=4, help="consecutive confident windows before a specific alert"
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="build the bundled suite and report the evaluation")
    p.add_argument(
        "--suite", choices=("rq1", "rq2", "rq3", "rq4", "all"), default="all", help="which section to run"
    )
    p.add_argument("--config", default=None, help="suite config JSON (default: built-in)")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (FaultcastError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
