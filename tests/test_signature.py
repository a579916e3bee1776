"""Window encoding, the two classifiers, and cross-validation plumbing."""

import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from faultcast.core import (
    NORMAL_CLASS,
    AnomalyKind,
    FailureClass,
    FaultType,
    KpiId,
    SchemaVersionError,
)
from faultcast.detect import AnomalyEvent, AnomalyEvents
from faultcast.evaluate import RunRecord, assemble_windows, window_label
from faultcast.io import InjectedFault, RunManifest
from faultcast.signature import (
    ClassDistribution,
    NaiveBayesModel,
    SignatureModel,
    Vocabulary,
    _best_feature,
    _entropies,
    _nb_fold_posteriors,
    cross_validate,
    stratified_folds,
    train_nb,
    train_signature,
    train_tree,
)

K = [KpiId("Homer", f"m{i}") for i in range(8)]
LOSS_HOMER = FailureClass(FaultType.PACKET_LOSS, "Homer")
LOSS_SPROUT = FailureClass(FaultType.PACKET_LOSS, "Sprout")
HOG_HOMER = FailureClass(FaultType.CPU_HOG, "Homer")
#: 16 distinct classes for the randomized classifier checks
MANY_CLASSES = (NORMAL_CLASS,) + tuple(
    FailureClass(fault_type, resource)
    for fault_type in (
        FaultType.PACKET_LOSS,
        FaultType.PACKET_LATENCY,
        FaultType.PACKET_CORRUPTION,
        FaultType.MEMORY_LEAK,
        FaultType.CPU_HOG,
    )
    for resource in ("Bono", "Homer", "Sprout")
)


def anomaly(kpi, kind=AnomalyKind.UNIVARIATE):
    return (kpi, kind)


def encode(vocab, features):
    """The bit vector of one window's feature set."""
    return vocab.encode(oracles.pool_of([(0, 300, features, NORMAL_CLASS)]))[0]


def proba(model, fv):
    """class -> probability map from a raw classifier."""
    probs = model.predict_proba(np.asarray(fv, dtype=np.uint8))
    return {cls: float(p) for cls, p in zip(model.classes, probs)}


# ---------------------------------------------------------------------------
# vocabulary and encoding


def test_vocabulary_is_sorted_and_deduplicated():
    vocab = Vocabulary([K[3], K[1], K[3], K[0]])
    assert vocab.kpis == (K[0], K[1], K[3])
    assert vocab.dimension == 3
    with pytest.raises(ValueError):
        Vocabulary([])


def test_encode_matches_membership_oracle():
    vocab = Vocabulary(K)
    rng = np.random.default_rng(31)
    for _ in range(1000):
        chosen = {kpi for kpi in K if rng.random() < 0.4}
        anomalies = frozenset(
            anomaly(kpi, AnomalyKind.UNIVARIATE if rng.random() < 0.5 else AnomalyKind.MULTIVARIATE)
            for kpi in chosen
        )
        bits = encode(vocab, anomalies)
        assert bits.dtype == bool and bits.shape == (len(K),)
        for i, kpi in enumerate(vocab.kpis):
            assert bits[i] == (1 if kpi in chosen else 0), f"bit {i} wrong"


def test_encode_merges_detector_kinds_by_default():
    vocab = Vocabulary([K[0], K[1]])
    uni = encode(vocab, frozenset([anomaly(K[0], AnomalyKind.UNIVARIATE)]))
    multi = encode(vocab, frozenset([anomaly(K[0], AnomalyKind.MULTIVARIATE)]))
    both = encode(
        vocab,
        frozenset(
            [anomaly(K[0], AnomalyKind.UNIVARIATE), anomaly(K[0], AnomalyKind.MULTIVARIATE)]
        ),
    )
    assert uni.tolist() == multi.tolist() == both.tolist() == [1, 0]


def test_encode_split_kinds_doubles_the_dimension():
    vocab = Vocabulary([K[0], K[1]], split_kinds=True)
    assert vocab.dimension == 4
    uni = encode(vocab, frozenset([anomaly(K[0], AnomalyKind.UNIVARIATE)]))
    multi = encode(vocab, frozenset([anomaly(K[0], AnomalyKind.MULTIVARIATE)]))
    assert uni.tolist() == [1, 0, 0, 0]
    assert multi.tolist() == [0, 1, 0, 0]
    # cells in kind-code order (Multivariate, Univariate): the reverse of the bits
    assert vocab.bits((K[1], K[5], K[0])).tolist() == [[3, 2], [-1, -1], [1, 0]]
    assert Vocabulary([K[0], K[1]]).bits((K[1], K[5])).tolist() == [[1, 1], [-1, -1]]
    names = [vocab.feature_name(i) for i in range(4)]
    assert len(set(names)) == 4
    assert all("m0" in n for n in names[:2])


def test_encode_ignores_unknown_kpis():
    vocab = Vocabulary([K[0]])
    stranger = KpiId("Sprout", "other")
    bits = encode(vocab, frozenset([anomaly(stranger)]))
    assert bits.tolist() == [0]


# ---------------------------------------------------------------------------
# events -> windows


def test_windowize_membership_boundaries():
    events = [
        AnomalyEvent(0, K[0], AnomalyKind.UNIVARIATE, 4.0),
        AnomalyEvent(300, K[0], AnomalyKind.UNIVARIATE, 5.0),
        AnomalyEvent(600, K[1], AnomalyKind.MULTIVARIATE, 4.0),
    ]
    # 10-minute windows sliding by 5 over a 15-minute run: (0, 600), (300, 900)
    pool = assemble_windows([RunRecord(RunManifest("run", 0, 900), events)], 10, 5)
    assert pool.start.tolist() == [0, 300] and pool.end.tolist() == [600, 900]
    first, second = oracles.pool_features(pool)
    # an event exactly on the window start belongs to it; one exactly on the
    # end does not, and repeated (kpi, kind) sightings collapse to one
    assert first == {(K[0], AnomalyKind.UNIVARIATE)}
    assert second == {
        (K[0], AnomalyKind.UNIVARIATE),
        (K[1], AnomalyKind.MULTIVARIATE),
    }


#: KPIs 0-3 in every vocabulary below, 4 and 5 in none
events_at = st.builds(
    AnomalyEvent,
    st.one_of(st.integers(-4, 30).map(lambda i: 300 * i), st.integers(-1200, 9000)),
    st.sampled_from(K[:6]),
    st.sampled_from(list(AnomalyKind)),
    st.floats(0.0, 10.0),
)


@st.composite
def runs(draw):
    """Runs of random length and start, with a fault or none, whose events
    repeat, come in any order, fall on or off the 5-minute grid and before,
    inside or after the run, and are numbered by KPI tuples of their own."""
    start = 300 * draw(st.integers(-2, 4))
    end = start + 300 * draw(st.integers(1, 24))
    fault = None
    if draw(st.booleans()):
        fault = InjectedFault(FaultType.CPU_HOG, "Homer", "Constant", draw(st.integers(start, end)))
    events = draw(st.lists(events_at, max_size=30))
    if events:
        events += draw(st.lists(st.sampled_from(events), max_size=8))
    events = draw(st.permutations(events))
    if draw(st.booleans()):  # columns numbering the KPIs in first-seen order
        events = AnomalyEvents.of(events)
    elif draw(st.booleans()):  # columns over a tuple with KPIs no event carries
        extra = draw(st.permutations(K))
        events = AnomalyEvents(
            extra,
            [e.interval_start for e in events],
            [extra.index(e.kpi) for e in events],
            [0 if e.kind is AnomalyKind.MULTIVARIATE else 1 for e in events],
            [e.score for e in events],
        )
    return RunRecord(RunManifest(f"run-{start}-{end}", start, end, fault), events)


@settings(max_examples=200, deadline=None)
@given(st.lists(runs(), max_size=4), st.integers(1, 60), st.integers(1, 20), st.booleans())
def test_windowize_equals_the_per_window_scan(records, l_min, step_min, split_kinds):
    # the pool, and its encoding, against the frozenset windowing, the
    # every-event scan and the dict encoding
    pool = assemble_windows(records, l_min, step_min)
    features, bounds, labels = [], [], []
    for rec in records:
        start, end = rec.manifest.start, rec.manifest.end
        windows = [(s, s + 60 * l_min) for s in range(start, end - 60 * l_min + 1, 60 * step_min)]
        scanned = oracles.windowize_events_scan(rec.events, windows)
        assert oracles.windowize_events(rec.events, windows) == scanned
        features += scanned
        bounds += windows
        labels += [window_label(rec.manifest, s, e) for s, e in windows]
    assert oracles.pool_features(pool) == features
    assert list(zip(pool.start.tolist(), pool.end.tolist())) == bounds
    assert pool.labels == tuple(labels)
    assert list(pool.kpis) == sorted(pool.kpis)
    vocab = Vocabulary(K[:4], split_kinds=split_kinds)
    x = vocab.encode(pool)
    assert x.shape == (len(features), vocab.dimension)
    expected = [oracles.encode_features(vocab, f).tolist() for f in features]
    assert x.astype(np.uint8).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(events_at, max_size=30), st.data())
def test_window_features_of_columns_equal_those_of_the_events(events, data):
    # repeated (KPI, kind) pairs, in any order, with KPIs the columns number
    # in first-seen order
    events += data.draw(st.lists(st.sampled_from(events), max_size=10)) if events else []
    columns = AnomalyEvents.of(events)
    manifest = RunManifest("run", -1200, 9300)
    pools = [assemble_windows([RunRecord(manifest, e)], 175, 5) for e in (columns, list(columns), events)]
    features = [oracles.pool_features(pool) for pool in pools]
    assert features[0] == features[1] == features[2]
    assert features[0][0] == oracles.window_features(columns) == oracles.buffer_anomalies([(0, events)])
    assert all(type(kpi) is KpiId and type(kind) is AnomalyKind for kpi, kind in features[0][0])


# ---------------------------------------------------------------------------
# class distributions


def test_distribution_top_breaks_ties_toward_the_smaller_class():
    dist = ClassDistribution({LOSS_HOMER: 0.5, NORMAL_CLASS: 0.5})
    # "Normal" sorts before "PacketLoss", so the tie resolves to Normal
    cls, conf = dist.top()
    assert cls == NORMAL_CLASS and conf == 0.5
    dist = ClassDistribution({LOSS_HOMER: 0.5, LOSS_SPROUT: 0.5})
    assert dist.top()[0] == LOSS_HOMER
    assert dist[HOG_HOMER] == 0.0


class FixedModel:
    """A classifier whose every row of probabilities is given."""

    def __init__(self, classes, probs):
        self.classes, self.probs = classes, np.asarray(probs, dtype=float).reshape(-1, len(classes))

    def predict_proba(self, bits):
        assert len(bits) == len(self.probs)
        return self.probs


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.data())
def test_top_classes_break_ties_as_the_distribution_top(n_classes, data):
    # RQ3's one predict_proba call over a pool, against ClassDistribution.top
    # per window, on rows where several classes share the top probability
    classes = tuple(sorted(MANY_CLASSES[:n_classes]))
    shares = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    probs = data.draw(st.lists(st.lists(shares, min_size=n_classes, max_size=n_classes), max_size=12))
    pool = oracles.pool_of([(0, 300, frozenset(), NORMAL_CLASS)] * len(probs))
    model = SignatureModel(Vocabulary(K[:1]), "tree", 90, FixedModel(classes, probs))
    assert model.top_classes(pool) == [ClassDistribution(dict(zip(classes, row))).top()[0] for row in probs]


# ---------------------------------------------------------------------------
# naive Bayes: hand-computed fixtures


def test_nb_posterior_matches_bayes_rule_exactly():
    # two features, two samples per class; every quantity is a dyadic
    # rational, so float arithmetic is exact and == is legitimate
    x = np.array([[1, 0], [1, 1], [0, 0], [0, 1]], dtype=np.uint8)
    y = np.array([1, 1, 0, 0])  # index into classes below
    classes = (NORMAL_CLASS, LOSS_HOMER)
    model = train_nb(x, y, classes)
    # smoothed estimates: priors (2+1)/(4+2) each, theta_loss = (3/4, 1/2),
    # theta_normal = (1/4, 1/2)
    dist = proba(model, [1, 0])
    # posterior for the loss class: (1/2 * 3/4 * 1/2) over the same plus
    # (1/2 * 1/4 * 1/2) -> (3/16) / (4/16)
    assert dist[LOSS_HOMER] == 0.75
    assert dist[NORMAL_CLASS] == 0.25


def test_nb_smoothed_priors():
    x = np.zeros((4, 2), dtype=np.uint8)
    y = np.array([1, 1, 1, 0])
    classes = (NORMAL_CLASS, LOSS_HOMER)
    model = train_nb(x, y, classes)
    assert model.priors[1] == pytest.approx(4 / 6)
    assert model.priors[0] == pytest.approx(2 / 6)


def test_nb_uninformative_features_return_the_priors():
    # balanced classes with identical feature rows: the likelihood terms
    # cancel and the posterior equals the (smoothed) prior
    x = np.tile(np.array([1, 0, 1], dtype=np.uint8), (4, 1))
    y = np.array([1, 1, 0, 0])
    model = train_nb(x, y, (NORMAL_CLASS, LOSS_HOMER))
    for fv in ([1, 0, 1], [0, 0, 0], [1, 1, 1]):
        dist = proba(model, fv)
        assert dist[LOSS_HOMER] == pytest.approx(0.5)
        assert dist[NORMAL_CLASS] == pytest.approx(0.5)


def test_nb_is_invariant_to_sample_order():
    rng = np.random.default_rng(13)
    x = (rng.random((40, 6)) < 0.3).astype(np.uint8)
    y = np.array([1 if i % 3 else 0 for i in range(40)])
    classes = (NORMAL_CLASS, LOSS_HOMER)
    model = train_nb(x, y, classes)
    perm = rng.permutation(40)
    shuffled = train_nb(x[perm], y[perm], classes)
    assert np.array_equal(model.priors, shuffled.priors)
    assert np.array_equal(model.theta, shuffled.theta)


def test_nb_survives_many_features_without_underflow():
    # 800 features would underflow a double if the per-feature probabilities
    # were multiplied naively without rescaling
    rng = np.random.default_rng(8)
    x = (rng.random((20, 800)) < 0.5).astype(np.uint8)
    y = np.array([0] * 10 + [1] * 10)
    model = train_nb(x, y, (NORMAL_CLASS, LOSS_HOMER))
    dist = proba(model, x[0])
    assert dist[NORMAL_CLASS] + dist[LOSS_HOMER] == pytest.approx(1.0, abs=1e-9)
    assert dist[NORMAL_CLASS] > 0.0


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.one_of(st.integers(1, 12), st.integers(100, 600)),
    n_classes=st.integers(2, 14),
    certain=st.booleans(),
)
def test_nb_batch_equals_the_per_row_oracle(seed, n_features, n_classes, certain):
    # hundreds of features underflow and rescale rows at different steps
    rng = np.random.default_rng(seed)
    x = (rng.random((60, n_features)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
    y = rng.integers(0, n_classes, 60)
    model = train_nb(x, y, MANY_CLASSES[:n_classes], alpha=float(rng.choice([0.1, 1.0, 3.0])))
    if certain:  # bits a class always or never sets: rows can reach 0 for every class
        theta = model.theta.copy()
        hit = rng.random(theta.shape) < 0.05
        theta[hit] = rng.integers(0, 2, int(hit.sum()))
        model = NaiveBayesModel(model.classes, n_features, model.alpha, model.priors, theta)
    rows = rng.choice(np.array([0, 1, 2], dtype=np.uint8), size=(25, n_features), p=[0.5, 0.45, 0.05])
    batch = model.predict_proba(rows)
    expected = np.stack([oracles.nb_proba_row(model, row) for row in rows])
    assert np.array_equal(batch, expected)
    assert np.array_equal(model.predict_proba(rows[3]), expected[3])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), signed=st.booleans())
def test_trainers_read_any_non_zero_value_as_a_set_bit(seed, signed):
    # as both predict_probas do: a byte above 1, or an int64 that a uint8 cast
    # would wrap to 0 or 1, trains the model its `!= 0` matrix trains, and
    # naive Bayes keeps every theta inside (0, 1)
    rng = np.random.default_rng(seed)
    n, n_features, n_classes = int(rng.integers(1, 60)), int(rng.integers(1, 20)), int(rng.integers(1, 6))
    if signed:
        pool = np.array([1, -1, 2, 256, -256, 257, 2**40, -(2**63)], dtype=np.int64)
    else:
        pool = np.array([1, 2, 3, 128, 255], dtype=np.uint8)
    shape = (n, n_features)
    values = np.where(rng.random(shape) < 0.5, 0, rng.choice(pool, size=shape))
    bits = values != 0
    y = rng.integers(0, n_classes, n)
    classes = MANY_CLASSES[:n_classes]
    nb, nb_bits = train_nb(values, y, classes), train_nb(bits, y, classes)
    assert np.array_equal(nb.priors, nb_bits.priors) and np.array_equal(nb.theta, nb_bits.theta)
    assert np.all((nb.theta > 0.0) & (nb.theta < 1.0))
    assert np.all(np.isfinite(nb.predict_proba(values)))
    for min_leaf in (1, 2):
        tree = train_tree(values, y, classes, min_leaf=min_leaf)
        assert tree == train_tree(bits, y, classes, min_leaf=min_leaf)


def test_nb_input_gates():
    x = np.array([[1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        train_nb(np.empty((0, 2), dtype=np.uint8), np.array([], dtype=int), (NORMAL_CLASS,))
    with pytest.raises(ValueError):
        train_nb(x, np.array([0]), (NORMAL_CLASS,), alpha=0.0)


# ---------------------------------------------------------------------------
# decision tree: fixtures with known shape


def test_tree_single_leaf_distribution():
    # no informative feature: a single leaf carrying 4 windows of which 3
    # agree -> confidence 3/4, remainder to the minority class
    x = np.ones((4, 3), dtype=np.uint8)
    y = np.array([1, 1, 1, 0])
    model = train_tree(x, y, (NORMAL_CLASS, LOSS_HOMER))
    assert model.root.is_leaf
    assert model.root.total == 4 and model.root.correct == 3
    dist = proba(model, [1, 1, 1])
    assert dist[LOSS_HOMER] == pytest.approx(0.75)
    assert dist[NORMAL_CLASS] == pytest.approx(0.25)


def test_tree_separable_fixture_yields_one_split():
    # feature 1 alone separates the classes; features 0 and 2 are constant
    x = np.array([[1, 1, 0], [1, 1, 0], [1, 0, 0], [1, 0, 0]], dtype=np.uint8)
    y = np.array([1, 1, 0, 0])
    model = train_tree(x, y, (NORMAL_CLASS, LOSS_HOMER), min_leaf=1)
    assert model.depth() == 1
    assert model.root.feature == 1
    for leaf in (model.root.nominal, model.root.anomalous):
        assert leaf.is_leaf
        assert (leaf.total, leaf.correct) == (2, 2)
    assert proba(model, x[0])[LOSS_HOMER] == 1.0
    assert proba(model, x[3])[NORMAL_CLASS] == 1.0


def entropy(labels):
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    total = len(labels)
    return -sum(c / total * math.log2(c / total) for c in counts.values())


def best_split_oracle(x, y):
    """(feature, gain) the root must use: highest information gain, ties to
    the lowest feature index."""
    base = entropy(y)
    best = (None, 0.0)
    for j in range(x.shape[1]):
        on = [y[i] for i in range(len(y)) if x[i, j]]
        off = [y[i] for i in range(len(y)) if not x[i, j]]
        if not on or not off:
            continue
        gain = base - (len(on) / len(y)) * entropy(on) - (len(off) / len(y)) * entropy(off)
        if gain > best[1] + 1e-12:
            best = (j, gain)
    return best


def test_tree_root_matches_gain_oracle():
    rng = np.random.default_rng(23)
    classes = (NORMAL_CLASS, LOSS_HOMER, HOG_HOMER)
    for trial in range(30):
        x = (rng.random((60, 7)) < 0.5).astype(np.uint8)
        y = rng.integers(0, 3, size=60)
        expected, gain = best_split_oracle(x, y.tolist())
        model = train_tree(x, y, classes, min_leaf=1)
        if expected is None or gain <= 1e-12:
            assert model.root.is_leaf, f"trial {trial}: split without gain"
        else:
            assert model.root.feature == expected, f"trial {trial}"


def test_tree_tie_break_prefers_the_lower_feature():
    # columns 1 and 3 are identical copies of the separating feature
    x = np.array(
        [[0, 1, 0, 1], [0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 1, 0]], dtype=np.uint8
    )
    y = np.array([1, 1, 0, 0])
    model = train_tree(x, y, (NORMAL_CLASS, LOSS_HOMER), min_leaf=1)
    assert model.root.feature == 1


def collect_leaves(model):
    leaves = []

    def walk(node):
        if node.is_leaf:
            leaves.append(node)
        else:
            walk(node.nominal)
            walk(node.anomalous)

    walk(model.root)
    return leaves


def test_tree_respects_min_leaf():
    rng = np.random.default_rng(5)
    x = (rng.random((50, 6)) < 0.5).astype(np.uint8)
    y = rng.integers(0, 2, size=50)
    model = train_tree(x, y, (NORMAL_CLASS, LOSS_HOMER), min_leaf=5)
    assert all(leaf.total >= 5 for leaf in collect_leaves(model))


def test_tree_max_depth_caps_growth():
    rng = np.random.default_rng(6)
    x = (rng.random((80, 8)) < 0.5).astype(np.uint8)
    y = rng.integers(0, 2, size=80)
    model = train_tree(x, y, (NORMAL_CLASS, LOSS_HOMER), min_leaf=1, max_depth=2)
    assert model.depth() <= 2


def test_tree_distributions_sum_to_one():
    rng = np.random.default_rng(40)
    classes = (NORMAL_CLASS, LOSS_HOMER, LOSS_SPROUT, HOG_HOMER)
    x = (rng.random((120, 9)) < 0.4).astype(np.uint8)
    y = rng.integers(0, 4, size=120)
    model = train_tree(x, y, classes)
    for _ in range(100):
        fv = (rng.random(9) < 0.5).astype(np.uint8)
        total = float(model.predict_proba(fv).sum())
        assert total == pytest.approx(1.0, abs=1e-9)


def test_tree_input_gates():
    with pytest.raises(ValueError):
        train_tree(np.empty((0, 3), dtype=np.uint8), np.array([], dtype=int), (NORMAL_CLASS,))
    with pytest.raises(ValueError):
        train_tree(np.array([[1]], dtype=np.uint8), np.array([0]), (NORMAL_CLASS,), min_leaf=0)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.integers(1, 16).flatmap(
        lambda width: st.lists(st.lists(st.integers(0, 40), min_size=width, max_size=width), min_size=1, max_size=20)
    )
)
@example(counts=[[3] * 16, [0] * 16, [1, 0] * 8, [5] * 8 + [0] * 8, [2] * 7 + [0] * 9])
def test_entropies_equal_the_row_oracle(counts):
    # rows with 8 or more non-zero classes are summed pairwise by numpy
    counts = np.array(counts, dtype=np.int64)
    assert _entropies(counts).tolist() == [oracles.entropy(row) for row in counts]


GAINS = st.one_of(
    st.integers(-3, 8).map(lambda i: 0.25 + i * 0.4e-12),  # gains closer than _GAIN_EPS
    st.sampled_from([-np.inf, 0.0, 0.5e-12, 1e-12, 1.5e-12]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 12).flatmap(
        lambda width: st.lists(st.lists(GAINS, min_size=width, max_size=width), min_size=1, max_size=6)
    )
)
def test_best_feature_equals_the_scan_oracle(gains):
    # every row of a level's [nodes, bits] gain matrix is scanned on its own
    expected = [oracles.best_feature_scan(row) for row in gains]
    assert _best_feature(np.array(gains)).tolist() == [
        -1 if best is None else best for best in expected
    ]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 200),
    n_classes=st.integers(2, 14),
    min_leaf=st.integers(1, 5),
    max_depth=st.sampled_from([None, 1, 3]),
)
@example(seed=7, n=400, n_classes=14, min_leaf=1, max_depth=None)
def test_tree_equals_the_per_feature_oracle(seed, n, n_classes, min_leaf, max_depth):
    rng = np.random.default_rng(seed)
    x = (rng.random((n, int(rng.integers(1, 10)))) < rng.choice([0.1, 0.3, 0.5, 0.8])).astype(np.uint8)
    x[rng.random(x.shape) < 0.02] = 2  # any non-zero value is a set bit, in training as in prediction
    # duplicate and constant columns tie on gain, in shuffled positions
    extra = [x[:, rng.integers(x.shape[1])] for _ in range(rng.integers(0, 4))]
    extra += [np.full(n, rng.integers(0, 2), dtype=np.uint8) for _ in range(rng.integers(0, 3))]
    x = np.column_stack([x, *extra])[:, rng.permutation(x.shape[1] + len(extra))]
    y = rng.integers(0, n_classes, n)
    if rng.random() < 0.5:  # labels partly set by the bits, so the tree grows deep
        y = (x[:, :3].astype(np.intp) @ rng.integers(0, n_classes, min(3, x.shape[1])) + y * (rng.random(n) < 0.2)) % n_classes
    model = train_tree(x, y, MANY_CLASSES[:n_classes], min_leaf=min_leaf, max_depth=max_depth)
    assert model.root == oracles.grow_tree_loop(x, y, n_classes, min_leaf, max_depth)
    rows = rng.integers(0, 3, (30, x.shape[1])).astype(np.uint8)
    batch = model.predict_proba(rows)
    expected = np.stack([oracles.tree_proba_row(model, row) for row in rows])
    assert np.array_equal(batch, expected)
    assert np.array_equal(model.predict_proba(rows[0]), expected[0])


# ---------------------------------------------------------------------------
# the packaged signature model


def window_fixture():
    """Two fault locations with disjoint marker KPIs, plus quiet windows."""
    k_homer, k_sprout = KpiId("Homer", "TcpRetransPerSec"), KpiId("Sprout", "TcpRetransPerSec")
    other = KpiId("Bono", "CpuIdlePct")
    vocab = Vocabulary([k_homer, k_sprout, other])
    windows = []
    for i in range(6):
        windows.append((i * 300, i * 300 + 5400, frozenset([anomaly(k_homer)]), LOSS_HOMER))
        windows.append((i * 300, i * 300 + 5400, frozenset([anomaly(k_sprout)]), LOSS_SPROUT))
        windows.append((i * 300, i * 300 + 5400, frozenset(), NORMAL_CLASS))
    return vocab, oracles.pool_of(windows)


def test_signature_model_separates_fault_locations():
    vocab, pool = window_fixture()
    model = train_signature(pool, vocab, algorithm="tree", window_min=90)
    # one level per location marker
    assert model.model.depth() == 2
    assert model.top_classes(pool)[:3] == [LOSS_HOMER, LOSS_SPROUT, NORMAL_CLASS]
    assert model.classify_bits(np.zeros(vocab.dimension, dtype=bool)).top()[0] == NORMAL_CLASS


def test_signature_round_trip_is_byte_stable(tmp_path):
    vocab, pool = window_fixture()
    for algorithm in ("tree", "nb"):
        model = train_signature(pool, vocab, algorithm=algorithm, window_min=90)
        path = tmp_path / f"{algorithm}.json"
        model.save(path)
        again = SignatureModel.load(path)
        assert again.to_dict() == model.to_dict()
        second = tmp_path / f"{algorithm}-again.json"
        again.save(second)
        assert second.read_bytes() == path.read_bytes()
        # behaviour survives the round trip
        x = vocab.encode(pool)
        assert np.array_equal(again.model.predict_proba(x), model.model.predict_proba(x))
        assert again.top_classes(pool) == model.top_classes(pool)


def test_signature_rejects_wrong_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "something-else", "schema_version": 1}')
    with pytest.raises(SchemaVersionError):
        SignatureModel.load(path)
    vocab, pool = window_fixture()
    with pytest.raises(ValueError):
        train_signature(pool, vocab, algorithm="forest")
    empty = oracles.pool_of([])
    # an unknown algorithm is rejected before the windows are encoded
    with pytest.raises(ValueError, match="unknown algorithm 'forest'"):
        cross_validate(empty, vocab, algorithm="forest")
    with pytest.raises(ValueError, match="no window samples"):
        train_signature(empty, vocab)


@pytest.mark.parametrize("entry", [["Homer", 3], ["Homer", "m", "x"], "Homer/m", ["Homer", None]])
def test_signature_rejects_a_vocabulary_entry_that_is_not_two_strings(tmp_path, entry):
    vocab, pool = window_fixture()
    data = train_signature(pool, vocab).to_dict()
    data["vocabulary"][1] = entry
    path = tmp_path / "signature.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^malformed {re.escape(str(path))}: TypeError vocabulary entry "):
        SignatureModel.load(path)


def first_leaf(node):
    while "feature" in node:
        node = node["nominal"]
    return node


@pytest.mark.parametrize(
    "algorithm, corrupt",
    [
        ("tree", lambda m: m["root"].update(feature=3)),  # the vocabulary has bits 0..2
        ("tree", lambda m: m["root"].update(feature=-1)),
        ("tree", lambda m: first_leaf(m["root"]).update(total=0, correct=0)),
        ("tree", lambda m: first_leaf(m["root"]).update(correct=first_leaf(m["root"])["total"] + 1)),
        ("tree", lambda m: first_leaf(m["root"]).update(correct=-1)),
        ("tree", lambda m: first_leaf(m["root"]).update(class_index=3)),  # 3 classes
        ("tree", lambda m: first_leaf(m["root"]).update(class_index=-1)),
        ("tree", lambda m: first_leaf(m["root"])["counts"].append(0)),
        ("nb", lambda m: m["priors"].pop()),
        ("nb", lambda m: m["theta"].pop()),
        ("nb", lambda m: [row.pop() for row in m["theta"]]),
        ("tree", lambda m: first_leaf(m["root"])["counts"].__setitem__(0, -1)),  # a negative probability
    ],
)
def test_signature_rejects_a_model_it_cannot_evaluate(algorithm, corrupt):
    vocab, pool = window_fixture()
    data = train_signature(pool, vocab, algorithm=algorithm).to_dict()
    corrupt(data["model"])
    with pytest.raises(ValueError):
        SignatureModel.from_dict(data)


# ---------------------------------------------------------------------------
# cross-validation


def test_stratified_folds_partition_the_dataset():
    rng = np.random.default_rng(77)
    labels = [LOSS_HOMER] * 23 + [NORMAL_CLASS] * 41 + [LOSS_SPROUT] * 16
    rng.shuffle(labels)
    folds = stratified_folds(labels, 10, seed=4)
    assert len(folds) == 10
    flat = sorted(i for fold in folds for i in fold)
    assert flat == list(range(80)), "folds must partition the index set"
    sizes = sorted(len(fold) for fold in folds)
    assert sizes[-1] - sizes[0] <= 1
    # same seed, same folds
    again = stratified_folds(labels, 10, seed=4)
    assert all(np.array_equal(a, b) for a, b in zip(folds, again))
    other = stratified_folds(labels, 10, seed=5)
    assert not all(np.array_equal(a, b) for a, b in zip(folds, other))


def test_stratified_folds_spread_every_class():
    labels = [LOSS_HOMER] * 50 + [NORMAL_CLASS] * 50
    folds = stratified_folds(labels, 10, seed=0)
    for fold in folds:
        fold_labels = {labels[i] for i in fold}
        assert fold_labels == {LOSS_HOMER, NORMAL_CLASS}


def test_stratified_folds_warn_on_rare_classes(caplog):
    labels = [LOSS_HOMER] * 30 + [NORMAL_CLASS] * 3
    with caplog.at_level(logging.WARNING):
        folds = stratified_folds(labels, 10, seed=1)
    assert sorted(i for fold in folds for i in fold) == list(range(33))
    assert "unstratified" in caplog.text


def test_stratified_folds_input_gates():
    labels = [NORMAL_CLASS] * 5
    with pytest.raises(ValueError):
        stratified_folds(labels, 1, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(labels, 6, seed=0)


def test_cross_validation_on_separable_data_is_perfect():
    vocab, pool = window_fixture()
    for algorithm in ("tree", "nb"):
        cv = cross_validate(pool, vocab, k=3, seed=9, algorithm=algorithm)
        assert cv.n_correct == len(pool)
        assert sum(cv.fold_sizes) == len(pool)
        for cls, table in cv.per_class.items():
            assert table.fp == 0 and table.fn == 0, f"{algorithm} confused {cls.label()}"
        assert all(truth == pred for truth, pred in cv.predictions)


# ---------------------------------------------------------------------------
# fold-batched cross-validation against the per-fold oracles


def random_dataset(rng, n, n_features, n_classes):
    """Bits and labels with the shapes cross-validation meets: skewed class
    sizes (some below k), repeated rows, all-zero rows and constant bits."""
    x = (rng.random((n, n_features)) < rng.choice([0.05, 0.3, 0.6])).astype(np.uint8)
    if rng.random() < 0.5:  # rows drawn from a few distinct patterns
        x = x[rng.integers(0, max(1, n // 4), n)]
    x[rng.random(n) < 0.2] = 0
    shares = rng.dirichlet(np.full(n_classes, rng.choice([0.3, 3.0])))
    y = rng.choice(n_classes, n, p=shares)
    if rng.random() < 0.5:  # labels partly set by the bits, so trees grow deep
        y = np.where(rng.random(n) < 0.7, (x[:, :3].astype(np.intp).sum(axis=1) * 5) % n_classes, y)
    return x, y


def as_pool(x, y, split_kinds):
    """A pool over a vocabulary whose bit j is KPI j."""
    kpis = [KpiId("Homer", f"m{j:03d}") for j in range(x.shape[1])]
    kinds = (AnomalyKind.UNIVARIATE, AnomalyKind.MULTIVARIATE)
    pool = oracles.pool_of(
        (0, 300, frozenset((kpis[j], kinds[j % 2]) for j in np.flatnonzero(row)), MANY_CLASSES[c])
        for row, c in zip(x, y)
    )
    return pool, Vocabulary(kpis, split_kinds=split_kinds)


def contingencies(pairs, classes):
    return {
        cls: (
            sum(t == cls and p == cls for t, p in pairs),
            sum(t != cls and p == cls for t, p in pairs),
            sum(t == cls and p != cls for t, p in pairs),
            sum(t != cls and p != cls for t, p in pairs),
        )
        for cls in classes
    }


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 10),
    n_features=st.one_of(st.integers(1, 12), st.integers(60, 240)),
    n_classes=st.integers(1, 12),
    min_leaf=st.integers(1, 5),
    max_depth=st.sampled_from([None, 1, 2, 3, 4]),
    split_kinds=st.booleans(),
)
@example(seed=3, k=10, n_features=65, n_classes=12, min_leaf=2, max_depth=None, split_kinds=False)
@example(seed=5, k=2, n_features=4, n_classes=1, min_leaf=1, max_depth=None, split_kinds=False)
def test_cross_validate_equals_the_per_fold_oracle(seed, k, n_features, n_classes, min_leaf, max_depth, split_kinds):
    rng = np.random.default_rng(seed)
    x, y = random_dataset(rng, int(rng.integers(k, 150)), n_features, n_classes)
    pool, vocab = as_pool(x, y, split_kinds)
    for algorithm in ("tree", "nb"):
        options = dict(min_leaf=min_leaf, max_depth=max_depth, alpha=float(rng.choice([0.1, 1.0])))
        cv = cross_validate(pool, vocab, k=k, seed=seed % 7, algorithm=algorithm, **options)
        expected = oracles.cross_validate_rows(pool, vocab, k=k, seed=seed % 7, algorithm=algorithm, **options)
        assert cv.predictions == expected, algorithm
        got = {cls: (t.tp, t.fp, t.fn, t.tn) for cls, t in cv.per_class.items()}
        assert got == contingencies(expected, sorted(set(MANY_CLASSES[c] for c in y))), algorithm


def test_tree_levels_without_a_valid_split_raise_no_float_error():
    classes = (NORMAL_CLASS, LOSS_HOMER, HOG_HOMER)
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    with np.errstate(all="raise"):
        # all-zero rows: no bit leaves a sample on its set side
        assert train_tree(np.zeros((8, 3), dtype=np.uint8), y, classes, min_leaf=1).root.is_leaf
        # a splittable node whose every bit leaves a side under min_leaf
        x = np.eye(8, 4, dtype=np.uint8)
        assert train_tree(x, y, classes, min_leaf=2).root.is_leaf
        # every fold's tree grown over windows without anomalies
        pool, vocab = as_pool(np.zeros((8, 2), dtype=np.uint8), y, False)
        assert cross_validate(pool, vocab, k=4).predictions == oracles.cross_validate_rows(pool, vocab, k=4)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 200),
    n_classes=st.integers(1, 14),
    min_leaf=st.integers(1, 5),
    max_depth=st.sampled_from([None, 1, 2, 3, 4]),
)
@example(seed=11, n=300, n_classes=14, min_leaf=1, max_depth=None)
def test_tree_equals_the_recursive_grower(seed, n, n_classes, min_leaf, max_depth):
    rng = np.random.default_rng(seed)
    x, y = random_dataset(rng, n, int(rng.integers(0, 16)), n_classes)
    x[rng.random(x.shape) < 0.02] = 2  # any non-zero value is a set bit, in training as in prediction
    model = train_tree(x, y, MANY_CLASSES[:n_classes], min_leaf=min_leaf, max_depth=max_depth)
    assert model.root == oracles.train_tree_recursive(x, y, n_classes, min_leaf, max_depth)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 10),
    n_features=st.one_of(st.integers(1, 12), st.integers(100, 600)),
    n_classes=st.integers(1, 14),
)
@example(seed=1, k=3, n_features=1500, n_classes=4)  # would underflow without rescaling
def test_fold_batched_nb_equals_per_fold_predict_proba(seed, k, n_features, n_classes):
    # hundreds of features rescale rows at different steps in different folds
    rng = np.random.default_rng(seed)
    x, y = random_dataset(rng, int(rng.integers(k, 120)), n_features, n_classes)
    classes = MANY_CLASSES[:n_classes]
    alpha = float(rng.choice([0.1, 1.0, 3.0]))
    folds = stratified_folds([classes[c] for c in y], k, seed=seed % 5)
    probs = _nb_fold_posteriors(x, y, classes, folds, alpha)
    for fold in folds:
        model = train_nb(np.delete(x, fold, axis=0), np.delete(y, fold), classes, alpha=alpha)
        assert np.array_equal(probs[fold], model.predict_proba(x[fold]))
        assert np.array_equal(probs[fold], np.stack([oracles.nb_proba_row(model, row) for row in x[fold]]))
