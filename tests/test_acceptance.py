"""Acceptance checklist: nine go/no-go checks for the package.

Each test covers one release criterion, so ``pytest -v tests/test_acceptance.py``
prints one pass/fail line per criterion:

  C1  causality test recovers direction and holds its significance level
  C2  classifier posteriors match hand computation exactly
  C3  effectiveness formulas match an exact-arithmetic oracle
  C4  sliding-window arithmetic produces the exact offset set
  C5  default-suite cross-validation quality and runtime budget
  C6  deviated fault-free runs stay classified Normal
  C7  general alerts precede specific alerts precede failures
  C8  the default window length is near-optimal in the length sweep
  C9  pipeline reruns are byte-identical

Thresholds are pinned inline; the expensive checks share the session-scoped
suite build from conftest.
"""

from fractions import Fraction
from time import perf_counter

import numpy as np

from faultcast.core import NORMAL_CLASS, FailureClass, FaultType, slide_windows
from faultcast.metrics import Contingency, metrics
from faultcast.sim import Pattern
from faultcast.evaluate import (
    rq3_overall_fraction,
    run_rq1,
    run_rq2,
    run_rq3,
    run_rq4,
)

from conftest import run_cli
from oracles import granger_fit, rq1_f_gap


def test_c1_causality_direction_and_calibration():
    """A one-lag linear dependence must be detected in the right direction in
    at least 18 of 20 seeds each way, and on independent noise the test must
    reject at most 5% of 200 seeds at alpha = 0.01.  Budget: under 10 s."""
    t0 = perf_counter()
    n = 500
    forward = backward = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        noise = rng.standard_normal(n)
        y = np.empty(n)
        y[0] = noise[0]
        y[1:] = 0.8 * x[:-1] + noise[1:]
        if granger_fit(x, y, 3).p_value < 0.01:
            forward += 1
        if granger_fit(y, x, 3).p_value >= 0.01:
            backward += 1

    false_hits = 0
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        if granger_fit(rng.standard_normal(n), rng.standard_normal(n), 3).p_value < 0.01:
            false_hits += 1
    elapsed = perf_counter() - t0

    assert forward >= 18, f"dependence found in only {forward}/20 seeds"
    assert backward >= 18, f"reverse direction rejected in only {backward}/20 seeds"
    assert false_hits / 200 <= 0.05, f"calibration: {false_hits}/200 false hits at alpha=0.01"
    assert elapsed < 10.0, f"causality checks took {elapsed:.1f} s"
    print(
        f"C1: forward {forward}/20, reverse rejected {backward}/20, "
        f"false rate {false_hits / 200:.3f}, {elapsed:.2f} s"
    )


def test_c2_classifier_posteriors_match_hand_computation():
    """Naive Bayes must reproduce the hand-worked posterior exactly (every
    intermediate value is a dyadic rational, so == is legitimate), and the
    tree learner must find the unique positive-gain split."""
    from faultcast.signature import train_nb, train_tree

    classes = (NORMAL_CLASS, FailureClass(FaultType.PACKET_LOSS, "Homer"))
    x = np.array([[1, 0], [1, 1], [0, 0], [0, 1]])
    y = np.array([1, 1, 0, 0])
    nb = train_nb(x, y, classes, alpha=1.0)
    posterior = nb.predict_proba(np.array([1, 0]))
    # priors 1/2 each; theta_1 = (3/4, 1/2), theta_0 = (1/4, 1/2);
    # likelihoods 3/16 vs 1/16 -> posterior exactly (1/4, 3/4).
    assert posterior[1] == 0.75 and posterior[0] == 0.25, posterior

    # Features 0 and 2 are constant (zero gain); only feature 1 separates, so
    # the sole max-gain tree is a depth-1 split with two pure 2-sample leaves.
    # A tie would break toward index 0, so root.feature == 1 proves strict win.
    x = np.array([[0, 0, 1], [0, 0, 1], [0, 1, 1], [0, 1, 1]])
    y = np.array([0, 0, 1, 1])
    tree = train_tree(x, y, classes, min_leaf=1)
    root = tree.to_dict()["root"]
    assert root["feature"] == 1
    for leaf in (root["nominal"], root["anomalous"]):
        assert "feature" not in leaf and leaf["total"] == 2 and leaf["correct"] == 2, leaf
    assert tree.predict_proba(np.array([0, 0, 1]))[0] == 1.0
    assert tree.predict_proba(np.array([0, 1, 1]))[1] == 1.0
    print("C2: naive Bayes posterior exact (0.25, 0.75); tree is the unique depth-1 split")


def _oracle_metrics(tp, fp, fn, tn):
    """Exact-arithmetic reference for the effectiveness formulas."""
    precision = Fraction(tp, tp + fp) if tp + fp else None
    recall = Fraction(tp, tp + fn) if tp + fn else None
    if precision is None or recall is None or precision + recall == 0:
        f_measure = None
    else:
        f_measure = 2 * precision * recall / (precision + recall)
    total = tp + fp + fn + tn
    accuracy = Fraction(tp + tn, total) if total else None
    fpr = Fraction(fp, fp + tn) if fp + tn else None
    return precision, recall, f_measure, accuracy, fpr


def test_c3_effectiveness_formulas_match_exact_oracle():
    """1,000 random contingency tables agree with exact rational arithmetic to
    1e-12, and zero-denominator measures come back undefined, rendered "--"."""
    rng = np.random.default_rng(42)
    for trial in range(1000):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 51, size=4))
        got = metrics(Contingency(tp, fp, fn, tn))
        want = _oracle_metrics(tp, fp, fn, tn)
        pairs = (got.precision, got.recall, got.f_measure, got.accuracy, got.fpr)
        for name, g, w in zip(("precision", "recall", "f", "accuracy", "fpr"), pairs, want):
            if w is None:
                assert g is None, f"trial {trial}: {name} should be undefined, got {g}"
            else:
                assert g is not None and abs(g - float(w)) <= 1e-12, (
                    f"trial {trial}: {name} {g} vs oracle {float(w)} "
                    f"on table ({tp},{fp},{fn},{tn})"
                )

    empty = metrics(Contingency(0, 0, 0, 0))
    assert (empty.precision, empty.recall, empty.f_measure, empty.accuracy, empty.fpr) == (
        None,
    ) * 5
    assert empty.render("empty").count("--") == 5
    print("C3: 1000 random tables within 1e-12 of the exact oracle; undefined renders as --")


def test_c4_sliding_window_offsets_are_exact():
    """A 120-minute run with 90-minute windows stepped by 5 yields offsets
    exactly {0, 5, ..., 30}; 6 = (120 - 90) / 5 of them start strictly later
    than the first."""
    start = 1_700_000_000 - (1_700_000_000 % 60)
    windows = slide_windows(start, start + 120 * 60, 90, 5)
    offsets = [(s - start) // 60 for s, _ in windows]
    assert offsets == [0, 5, 10, 15, 20, 25, 30], offsets
    assert all(e - s == 90 * 60 for s, e in windows)
    strictly_later = sum(1 for s, _ in windows if s > start)
    assert strictly_later == (120 - 90) // 5 == 6
    print(f"C4: offsets {offsets} minutes; {strictly_later} windows start strictly later")


def test_c5_default_suite_quality_and_runtime(suite_build):
    """Ten-fold cross-validation of the tree classifier over the bundled run
    pool: micro F-measure at least 0.90, false-alarm rate on truly-Normal
    windows at most 0.02, and build plus evaluation under 5 minutes."""
    data, build_seconds = suite_build
    t0 = perf_counter()
    report = run_rq2(data)
    eval_seconds = perf_counter() - t0

    assert report.micro.f_measure is not None
    assert report.micro.f_measure >= 0.90, f"micro F {report.micro.f_measure:.4f}"
    assert report.alarm_rate is not None
    assert report.alarm_rate <= 0.02, f"false-alarm rate {report.alarm_rate:.4f}"
    total = build_seconds + eval_seconds
    assert total < 300.0, f"suite build {build_seconds:.0f} s + evaluation {eval_seconds:.0f} s"
    print(
        f"C5: micro F {report.micro.f_measure:.4f}, alarm rate {report.alarm_rate:.4f}, "
        f"{report.n_correct}/{report.n_windows} windows, "
        f"{build_seconds:.0f}+{eval_seconds:.0f} s"
    )


def test_c6_deviated_fault_free_runs_stay_normal(suite_data):
    """Fresh fault-free runs with 40% and 100% random workload deviation must
    be classified Normal in at least 95% of windows, per deviation level and
    overall."""
    rows = run_rq3(suite_data)
    assert rows
    for deviation in (0.4, 1.0):
        group = [r for r in rows if r.deviation == deviation]
        assert group, f"no runs at deviation {deviation}"
        fraction = sum(r.n_normal for r in group) / sum(r.n_windows for r in group)
        assert fraction >= 0.95, f"deviation {deviation:.0%}: only {fraction:.2%} Normal"
    overall = rq3_overall_fraction(rows)
    assert overall >= 0.95, f"overall {overall:.2%}"
    print(f"C6: {overall:.2%} of deviated fault-free windows classified Normal")


def test_c7_alert_ordering_and_earliness(suite_data):
    """On faulty replays whose failure lands inside the horizon, the general
    alert precedes the specific alert and the specific alert precedes the
    failure in at least 90% of runs; the memory-leak Exponential scenario
    warns within 30 simulated minutes of activation."""
    rows = run_rq4(suite_data)
    failing = [r for r in rows if r.report.failure_observed]
    assert failing, "no run failed inside the horizon; earliness is unmeasurable"

    good = 0
    for row in rows:
        rep = row.report
        if rep.ttgp_s is not None and rep.ttfsp_s is not None:
            assert rep.ttgp_s <= rep.ttfsp_s, (
                f"{row.run_id}: general alert after specific ({rep.ttgp_s} > {rep.ttfsp_s})"
            )
    for row in failing:
        rep = row.report
        ordered = rep.ttgp_s is not None and rep.ttfsp_s is not None
        leads = rep.ttf_fsp_s is not None and rep.ttf_fsp_s > 0
        if ordered and leads:
            good += 1
    assert good / len(failing) >= 0.90, f"{good}/{len(failing)} failing runs well-ordered"

    leak_exp = [
        r
        for r in rows
        if r.fault_type is FaultType.MEMORY_LEAK and r.pattern is Pattern.EXPONENTIAL
    ]
    assert leak_exp
    for row in leak_exp:
        ttgp = row.report.ttgp_s
        assert ttgp is not None and ttgp <= 30 * 60, (
            f"{row.run_id}: first general alert at {ttgp} s after activation"
        )
    print(
        f"C7: {good}/{len(failing)} failing runs ordered general <= specific < failure; "
        f"leak/Exponential TTGP " + ", ".join(r.report.render_ttgp() for r in leak_exp)
    )


def test_c8_default_window_length_is_near_optimal(suite_data):
    """Across window lengths 60, 90 and 120 minutes, the 90-minute default
    must sit within 0.01 of the best micro F-measure, both for the tree
    classifier and for the two-classifier average."""
    rows = run_rq1(suite_data)
    tree_gap = rq1_f_gap(rows, 90, "tree")
    assert tree_gap <= 0.01, f"tree: 90-minute windows trail the best by {tree_gap:.4f}"

    scores = {(r.window_min, r.algorithm): r.micro.f_measure for r in rows}
    averages = {
        l: (scores[(l, "tree")] + scores[(l, "nb")]) / 2 for l in (60, 90, 120)
    }
    avg_gap = max(averages.values()) - averages[90]
    assert avg_gap <= 0.01, f"two-classifier average: 90 trails the best by {avg_gap:.4f}"
    print(f"C8: tree gap {tree_gap:.4f}, averaged gap {avg_gap:.4f} (both within 0.01)")


def test_c9_pipeline_reruns_are_byte_identical(short_pipeline, tmp_path):
    """Simulation and detection rerun with identical seeds must reproduce
    their CSV artifacts byte for byte."""
    csvs, manifests, logs = [], [], []
    for i in (1, 2):
        out = tmp_path / f"run{i}.csv"
        manifest = tmp_path / f"run{i}.manifest.json"
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
        csvs.append(out.read_bytes())
        manifests.append(manifest.read_bytes())

        anomalies = tmp_path / f"anomalies{i}.csv"
        proc = run_cli(
            "detect",
            "--baseline",
            str(short_pipeline["baseline"]),
            "--data",
            str(out),
            "--out",
            str(anomalies),
            "--run-start",
            short_pipeline["run_start"],
        )
        assert proc.returncode == 0, proc.stderr
        logs.append(anomalies.read_bytes())

    assert csvs[0] == csvs[1], "run CSVs differ between reruns"
    assert manifests[0] == manifests[1], "manifests differ between reruns"
    assert logs[0] == logs[1], "anomaly logs differ between reruns"
    assert csvs[0] == short_pipeline["fault_csv"].read_bytes()
    assert len(logs[0].splitlines()) > 1, "detection produced no verdicts to compare"
    print(
        f"C9: {len(csvs[0])} CSV bytes and {len(logs[0].splitlines()) - 1} verdicts "
        "reproduced byte-identically"
    )
