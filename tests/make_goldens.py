"""Write the study outputs that ``tests/test_goldens.py`` pins.

    PYTHONPATH=src python3 tests/make_goldens.py              # into tests/goldens/
    PYTHONPATH=src python3 tests/make_goldens.py --out DIR

The goldens are the default ``evaluate --suite all`` report, the default
suite's causal edges and a digest of each of its runs' anomaly events, a
digest of each RQ4 run's alerts under a naive-Bayes and a split-kinds
naive-Bayes signature trained on the suite pool, and the README quick start: its tree ``signature.json`` and, of its leak run, the
anomaly log and ``alerts.csv``.
The quick start is computed in process with the calls and defaults the CLI
commands make; the CSV, anomaly log and model files they write round-trip
every value exactly, so the outputs are the CLI's.  Run it only on a commit whose outputs are known good, and say in
CHANGES.md what changed in a golden and why.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import logging
import math
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
GOLDENS = HERE / "goldens"

#: The quick start's ``--run-start`` of each detected run.
LEAK_START = "2026-01-19T10:00:00Z"
TRAINING_START = "2026-01-05T00:00:00Z"


def anomaly_rows(text: str):
    """The keys (interval_start,resource,metric,kind) and float scores of an
    anomaly log's rows."""
    rows = [line.rsplit(",", 1) for line in text.splitlines()[1:]]
    return [key for key, _ in rows], [float(score) for _, score in rows]


def run_digest(events) -> str:
    """One run's anomaly events as ``events,keys_sha256,score_fsum``: a
    single event flipped across τ changes the count and the digest."""
    from faultcast.detect import write_anomaly_log

    log = io.StringIO()
    write_anomaly_log(events, log)
    keys, scores = anomaly_rows(log.getvalue())
    digest = hashlib.sha256("".join(key + "\n" for key in keys).encode("utf-8")).hexdigest()
    return f"{len(keys)},{digest},{math.fsum(scores)!r}"


def alert_digest(alerts) -> str:
    """One run's alerts as ``alerts,sha256`` over each alert's kind,
    ``raised_at``, class, ``repr(confidence)`` and sorted evidence."""
    rows = []
    for a in alerts:
        evidence = " ".join(sorted(f"{kpi}:{kind.value}" for kpi, kind in a.evidence))
        rows.append(f"{a.kind.value},{a.raised_at},{a.failure_class},{a.confidence!r},{evidence}\n")
    return f"{len(rows)},{hashlib.sha256(''.join(rows).encode('utf-8')).hexdigest()}"


def rq4_nb_alerts(data) -> str:
    """Each RQ4 run's alert digest under naive-Bayes signatures, one-bit and
    split-kinds, trained on the suite's pool: the online path of a model
    whose confidences vary from window to window."""
    from faultcast.evaluate import RQ4_RUN_MIN, RQ4_SEEDS_PER_COMBO, RQ4_TARGET
    from faultcast.evaluate import assemble_windows, generate, rq4_run_specs
    from faultcast.predict import run_predictor
    from faultcast.signature import Vocabulary, train_signature

    config = data.config
    pool = assemble_windows(data.runs, config.window_min, config.step_min)
    lines = ["signature,run_id,alerts,sha256\n"]
    for name, split_kinds in (("nb", False), ("nb-split", True)):
        vocab = Vocabulary(data.baseline.baselines.keys(), split_kinds=split_kinds)
        signature = train_signature(pool, vocab, "nb", config.window_min)
        for spec in rq4_run_specs(config, RQ4_SEEDS_PER_COMBO, RQ4_RUN_MIN, RQ4_TARGET):
            series, _ = generate(config, spec)
            end = spec.start + spec.duration_s
            alerts = run_predictor(data.baseline, signature, series, spec.start, end, tau=config.tau)
            lines.append(f"{name},{spec.run_id},{alert_digest(alerts)}\n")
    return "".join(lines)


def study_outputs(data) -> Dict[str, str]:
    """The report ``evaluate --suite all`` writes, the suite's edges and its
    runs' anomaly digests, of a suite built under the default config."""
    from faultcast.evaluate import render_rq1, render_rq2, render_rq3, render_rq4, run_rq1, run_rq2, run_rq3, run_rq4

    sections = [
        render_rq1(run_rq1(data)),
        render_rq2(run_rq2(data)),
        render_rq3(run_rq3(data)),
        render_rq4(run_rq4(data)),
    ]
    edges = "".join(f"{edge.cause},{edge.effect}\n" for edge in data.baseline.edges)
    digests = "".join(f"{run.manifest.run_id},{run_digest(run.events)}\n" for run in data.runs)
    return {
        "report.txt": "\n\n".join(sections) + "\n",
        "edges.csv": "cause,effect\n" + edges,
        "suite-anomalies.csv": "run_id,events,keys_sha256,score_fsum\n" + digests,
        "rq4-nb-alerts.csv": rq4_nb_alerts(data),
    }


def quick_start_models():
    """The README quick start's models and leak run: the baseline fitted on
    the fortnight, the tree signature trained on the training and leak runs,
    the leak run's series and its anomaly events."""
    from faultcast.baseline import fit_baseline_model
    from faultcast.core import parse_timestamp
    from faultcast.detect import detect_stream
    from faultcast.evaluate import RunRecord, assemble_windows
    from faultcast.signature import Vocabulary, train_signature
    from faultcast.sim import load_scenario

    training, training_manifest = load_scenario(CONFIGS / "training-fortnight.json").generate()
    leak, leak_manifest = load_scenario(CONFIGS / "leak-sprout-constant.json").generate()
    baseline = fit_baseline_model(training)
    leak_events = detect_stream(baseline, leak, parse_timestamp(LEAK_START))
    runs = [
        RunRecord(manifest=training_manifest, events=detect_stream(baseline, training, parse_timestamp(TRAINING_START))),
        RunRecord(manifest=leak_manifest, events=leak_events),
    ]
    signature = train_signature(assemble_windows(runs, 90, 5), Vocabulary(baseline.baselines.keys()), "tree", 90)
    return baseline, signature, leak, leak_events


def quick_start() -> Dict[str, str]:
    """The tree ``signature.json`` and the leak run's anomaly log and
    ``alerts.csv`` from the README's quick start: baseline on the fortnight,
    signature on the training and leak runs, then ``predict`` over the leak
    run."""
    from faultcast.core import CADENCE_S, parse_timestamp
    from faultcast.detect import write_anomaly_log
    from faultcast.predict import run_predictor, write_alert_log

    baseline, signature, leak, leak_events = quick_start_models()
    last = max(int(series.timestamps[-1]) for series in leak.values())
    alerts = run_predictor(baseline, signature, leak, parse_timestamp(LEAK_START), last + CADENCE_S)
    log, alert_log, model = io.StringIO(), io.StringIO(), io.StringIO()
    write_anomaly_log(leak_events, log)
    write_alert_log(alerts, alert_log)
    signature.save(model)
    return {
        "leak-anomalies.csv": log.getvalue(),
        "leak-alerts.csv": alert_log.getvalue(),
        "signature.json": model.getvalue(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", type=Path, default=GOLDENS)
    args = ap.parse_args(argv)
    logging.getLogger("faultcast").setLevel(logging.ERROR)
    from faultcast.evaluate import SuiteConfig, build_suite

    outputs = {**study_outputs(build_suite(SuiteConfig())), **quick_start()}
    args.out.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(outputs.items()):
        path = args.out / name
        path.write_text(text, encoding="utf-8")
        print(f"{path}: {text.count(chr(10))} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
