"""The study's outputs, pinned: the evaluation report, the default suite's
edges and anomaly digests, its RQ4 runs' alert digests under naive-Bayes
signatures, and the README quick start's anomaly log and alerts.

Text, keys, counts and digests must match exactly; anomaly scores and score
sums to ``REL_TOL`` relative, the benchmark's rule, since QR rounding can
move their last digits between BLAS builds.  ``tests/make_goldens.py``
regenerates the files.
"""

import math

import pytest

from make_goldens import GOLDENS, anomaly_rows, quick_start, study_outputs

REL_TOL = 1e-9


def golden(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


def close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= REL_TOL * abs(want)


@pytest.fixture(scope="module")
def study(suite_data):
    return study_outputs(suite_data)


@pytest.fixture(scope="module")
def quick():
    return quick_start()


def test_the_evaluation_report_is_the_golden(study):
    assert study["report.txt"] == golden("report.txt")


def test_the_default_suite_edges_are_the_golden(study):
    assert study["edges.csv"].splitlines() == golden("edges.csv").splitlines()


def test_the_default_suite_anomalies_are_the_golden(study):
    # run_id,events,keys_sha256,score_fsum per run
    got = [line.rsplit(",", 1) for line in study["suite-anomalies.csv"].splitlines()]
    want = [line.rsplit(",", 1) for line in golden("suite-anomalies.csv").splitlines()]
    assert [key for key, _ in got] == [key for key, _ in want]
    off = [(g[0], g[1], w[1]) for g, w in zip(got[1:], want[1:]) if not close(float(g[1]), float(w[1]))]
    assert not off, f"score sums off by more than {REL_TOL} relative: {off}"


def test_the_quick_start_anomalies_are_the_golden(quick):
    keys, scores = anomaly_rows(quick["leak-anomalies.csv"])
    want_keys, want_scores = anomaly_rows(golden("leak-anomalies.csv"))
    assert keys == want_keys
    off = [(keys[i], got, want) for i, (got, want) in enumerate(zip(scores, want_scores)) if not close(got, want)]
    assert not off, f"{len(off)} scores off by more than {REL_TOL} relative, first {off[0]}"


def test_the_quick_start_alerts_are_the_golden(quick):
    assert quick["leak-alerts.csv"] == golden("leak-alerts.csv")


def test_the_quick_start_signature_is_the_golden(quick):
    assert quick["signature.json"] == golden("signature.json")


def test_the_rq4_naive_bayes_alerts_are_the_golden(study):
    assert study["rq4-nb-alerts.csv"] == golden("rq4-nb-alerts.csv")
