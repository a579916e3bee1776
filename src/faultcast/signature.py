"""Failure signatures: window pools, encoding, classifiers, and cross-validation.

A pool holds each window's (KPI, anomaly kind) cells as one bool matrix; a
fixed KPI vocabulary projects the cells onto a binary vector, and signature
classifiers map those vectors to failure classes with a confidence
distribution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import _MULTIVARIATE, _UNIVARIATE, DEFAULT_WINDOW_MIN, FailureClass, FaultType, KpiId, SchemaVersionError
from .core import kpi_id
from .io import Artifact, check_kind, typed
from .metrics import Contingency

logger = logging.getLogger(__name__)

SIGNATURE_KIND = "faultcast-signature"
SIGNATURE_SCHEMA_VERSION = 1

DEFAULT_MIN_LEAF = 2
DEFAULT_ALPHA = 1.0

#: Gains below this are treated as zero when growing trees.
_GAIN_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class Windows:
    """A pool of sliding windows, as columns.

    Window i covers ``[start[i], end[i])``; ``cells[i, k, c]`` is set when
    KPI ``kpis[k]`` was flagged inside it by the detector of kind code ``c``
    (0 Multivariate, 1 Univariate, the codes of :class:`AnomalyEvents`).  A
    training pool's ``kpis`` are sorted and window i carries ``labels[i]``;
    the windows the predictor classifies carry no labels.
    """

    kpis: Tuple[KpiId, ...]
    cells: np.ndarray  # bool [N, K, 2]
    start: np.ndarray  # int64 [N]
    end: np.ndarray  # int64 [N]
    labels: Tuple[FailureClass, ...]

    def __len__(self) -> int:
        return len(self.start)


def window_cells(events, kpi: np.ndarray, n_kpis: int, bounds) -> np.ndarray:
    """The bool [N, K, 2] cells of the N windows ``[lo, hi)`` in ``bounds``
    over columnar ``events``, ``kpi`` numbering them over the caller's K
    KPIs.  Each distinct start gets one row of a [starts, K, 2] hit matrix;
    a window's cells are those hit between the rows of its bounds, a
    difference of two cumulative sums."""
    starts, row = np.unique(events.start, return_inverse=True)
    hits = np.zeros((len(starts) + 1, n_kpis, 2), dtype=np.int32)  # row 0 stays empty
    hits[row + 1, kpi, events.kind] = 1
    csum = np.cumsum(hits, axis=0)
    lo, hi = np.searchsorted(starts, np.asarray(bounds, dtype=np.int64).reshape(-1, 2).T)
    return csum[hi] > csum[lo]


class Vocabulary:
    """The fixed, ordered KPI vocabulary feature vectors are built over: a
    projection of (KPI, detector kind) cells onto bits.

    One bit per KPI by default, which both kinds of the KPI set; with
    ``split_kinds`` KPI i's univariate detections set bit 2i and its
    multivariate ones bit 2i + 1.  Cells of KPIs outside the vocabulary set
    no bit.
    """

    __slots__ = ("kpis", "split_kinds", "_index")

    def __init__(self, kpis: Iterable[KpiId], split_kinds: bool = False):
        self.kpis: Tuple[KpiId, ...] = tuple(sorted(set(kpis)))
        if not self.kpis:
            raise ValueError("vocabulary must contain at least one KPI")
        self.split_kinds = bool(split_kinds)
        self._index: Dict[KpiId, int] = {kpi: i for i, kpi in enumerate(self.kpis)}

    @property
    def dimension(self) -> int:
        return len(self.kpis) * (2 if self.split_kinds else 1)

    def feature_name(self, bit: int) -> str:
        if self.split_kinds:
            kpi = self.kpis[bit // 2]
            kind = "uni" if bit % 2 == 0 else "multi"
            return f"{kpi} [{kind}]"
        return str(self.kpis[bit])

    def bits(self, kpis: Tuple[KpiId, ...]) -> np.ndarray:
        """The bit of each (KPI, kind code) cell over ``kpis``, as an int
        [K, 2]; -1 for the cells of a KPI outside the vocabulary."""
        i = np.array([self._index.get(kpi, -1) for kpi in kpis], dtype=np.intp)[:, None]
        # columns in kind-code order: Multivariate, Univariate
        return np.where(i >= 0, np.hstack([2 * i + 1, 2 * i] if self.split_kinds else [i, i]), -1)

    def encode(self, pool) -> np.ndarray:
        """The bool bit matrix [..., F] of ``pool``'s cells [..., K, 2] over
        its ``kpis``: a bit is set when a cell projected onto it is."""
        bits, cells = self.bits(pool.kpis), pool.cells
        # bit -1 is a spare last column that collects the cells outside the
        # vocabulary; within one kind every other bit is distinct
        x = np.zeros(cells.shape[:-2] + (self.dimension + 1,), dtype=bool)
        x[..., bits[:, _MULTIVARIATE]] = cells[..., _MULTIVARIATE]
        x[..., bits[:, _UNIVARIATE]] |= cells[..., _UNIVARIATE]
        return x[..., :-1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self.kpis == other.kpis
            and self.split_kinds == other.split_kinds
        )


# ---------------------------------------------------------------------------
# decision tree


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of an [R, C] class-count matrix.

    Each row's value equals ``-(p * log2(p)).sum()`` over its non-zero
    shares taken as a 1-D array, bit for bit: numpy adds fewer than 8 terms
    left to right, which a column-by-column sum reproduces (zero terms add
    nothing), and sums 8 or more pairwise, so rows with that many non-zero
    classes are summed as packed [rows, width] blocks.  An all-zero row has
    entropy 0.
    """
    nonzero = counts > 0
    width = nonzero.sum(axis=1)
    p = counts[nonzero] / np.repeat(counts.sum(axis=1), width)
    terms = np.zeros(counts.shape)
    terms[nonzero] = p * np.log2(p)
    total = np.zeros(len(counts))
    for column in terms.T:
        total += column
    wide = width >= 8
    if wide.any():
        for w in np.unique(width[wide]):
            rows = np.flatnonzero(width == w)
            total[rows] = terms[rows][nonzero[rows]].reshape(len(rows), w).sum(axis=1)
    return -total


def _feature_rows(bits, n_features: int) -> np.ndarray:
    """``bits`` as an [n, n_features] matrix; a 1-D vector is one row."""
    bits = np.asarray(bits)
    if bits.ndim not in (1, 2) or bits.shape[-1] != n_features:
        raise ValueError(
            f"feature vector has dimension {bits.shape}, model expects {n_features}"
        )
    return bits.reshape(-1, n_features)


@dataclass(frozen=True, eq=False)
class DecisionTreeModel:
    """A plain binary decision tree over anomaly bits, as level-order arrays.

    Node 0 is the root (a forest grown together has roots 0..k-1).
    ``feature[i]`` is the bit node i splits on, -1 at a leaf; ``child[i]`` is
    its nominal child, the anomalous child right after it; ``counts[i]`` holds
    a leaf's class counts of training windows, zeros at a split.
    """

    classes: Tuple[FailureClass, ...]
    n_features: int
    min_leaf: int
    max_depth: Optional[int]
    feature: np.ndarray  # int [nodes]
    child: np.ndarray  # int [nodes]
    counts: np.ndarray  # int [nodes, classes]

    @cached_property
    def leaf_proba(self) -> np.ndarray:
        """[nodes, classes]: each leaf's confidence on its class, its counts'
        first largest entry, the rest spread by its other counts."""
        leaf = np.flatnonzero(self.feature < 0)
        counts = self.counts[leaf].astype(float)
        top, rows = counts.argmax(axis=1), np.arange(len(leaf))
        confidence = counts[rows, top] / counts.sum(axis=1)
        counts[rows, top] = 0.0
        # a pure leaf has no other counts, and its share of them is zero
        mass = np.maximum(counts.sum(axis=1), 1.0)
        proba = np.zeros(self.counts.shape)
        proba[leaf] = (1.0 - confidence)[:, None] * counts / mass[:, None]
        proba[leaf, top] = confidence
        return proba

    def leaves(self, on: np.ndarray, node: np.ndarray) -> np.ndarray:
        """The leaf each row of the [n, F] bool matrix ``on`` reaches from its
        start node in ``node``: the rows still at a split step down a level
        at a time, to the nominal child or, when the split's bit is set, the
        anomalous one after it."""
        node = node.copy()
        rows = np.flatnonzero(self.feature[node] >= 0)
        while len(rows):
            at = node[rows]
            at = self.child[at] + on[rows, self.feature[at]]
            node[rows] = at
            rows = rows[self.feature[at] >= 0]
        return node

    def predict_proba(self, bits: np.ndarray) -> np.ndarray:
        """Class probabilities of each row of an [n, F] bit matrix, as
        [n, classes]; a 1-D vector gives one distribution."""
        rows = _feature_rows(bits, self.n_features) != 0
        probs = self.leaf_proba[self.leaves(rows, np.zeros(len(rows), dtype=np.intp))]
        return probs if np.ndim(bits) == 2 else probs[0]

    def to_dict(self) -> dict:
        def node(i: int) -> dict:
            if self.feature[i] >= 0:
                nominal = int(self.child[i])
                return {"feature": int(self.feature[i]), "nominal": node(nominal), "anomalous": node(nominal + 1)}
            counts = self.counts[i].tolist()
            top = counts.index(max(counts))
            return {"class_index": top, "total": sum(counts), "correct": counts[top], "counts": counts}

        return {"min_leaf": self.min_leaf, "max_depth": self.max_depth, "root": node(0)}

    @classmethod
    def from_dict(cls, payload: dict, classes: Tuple[FailureClass, ...], n_features: int) -> "DecisionTreeModel":
        """Read the nodes breadth first, nominal child first: the level order
        trees grow in.  A split must be on a bit of the vocabulary, and a leaf
        must agree with its counts as training writes it."""
        min_leaf, max_depth = typed("min_leaf", payload["min_leaf"], int), payload["max_depth"]
        if min_leaf < 1:
            raise ValueError(f"min_leaf {min_leaf} must be at least 1")
        nodes, rows = [payload["root"]], []  # rows: each node's (feature, child, counts)
        for node in nodes:  # the children appended here are read in turn
            if "feature" in node:
                bit = typed("tree feature", node["feature"], int)
                if not 0 <= bit < n_features:
                    raise ValueError(f"tree splits on bit {bit}; the vocabulary has {n_features}")
                rows.append((bit, len(nodes), [0] * len(classes)))
                nodes += [node["nominal"], node["anomalous"]]
                continue
            c = [typed("tree counts", n, int) for n in node["counts"]]
            leaf = [typed(f"tree {key}", node[key], int) for key in ("class_index", "total", "correct")]
            if not (len(c) == len(classes) and min(c) >= 0 < sum(c) and leaf == [c.index(max(c)), sum(c), max(c)]):
                raise ValueError(
                    f"tree leaf (class_index={leaf[0]}, total={leaf[1]}, correct={leaf[2]}, counts={c}) "
                    f"does not agree with its counts over {len(classes)} classes"
                )
            rows.append((-1, -1, c))
        max_depth = None if max_depth is None else typed("max_depth", max_depth, int)
        arrays = (np.array(column, dtype=np.intp) for column in zip(*rows))
        return cls(classes, n_features, min_leaf, max_depth, *arrays)


def _best_feature(gains: np.ndarray) -> np.ndarray:
    """The feature a scan in bit order picks on each row of an [S, F] gain
    matrix: one replaces the best so far only when its gain is more than
    ``_GAIN_EPS`` higher, so near-ties go to the lower bit.  -1 on a row
    where no gain exceeds ``_GAIN_EPS``."""
    best = np.full(len(gains), -1)
    threshold = np.full(len(gains), _GAIN_EPS)
    bits = np.arange(gains.shape[1])
    while True:
        later = (gains > threshold[:, None]) & (bits > best[:, None])
        found = np.flatnonzero(later.any(axis=1))
        if not len(found):
            return best
        best[found] = later[found].argmax(axis=1)
        threshold[found] = gains[found, best[found]] + _GAIN_EPS


def _split_features(
    on: np.ndarray, y: np.ndarray, rows: np.ndarray, node: np.ndarray, counts: np.ndarray, min_leaf: int
) -> np.ndarray:
    """The split bit of each of S nodes, or -1 for none: ``rows`` are the
    samples in the nodes, ``node`` their node numbers 0..S-1 and ``counts``
    the nodes' [S, C] class counts."""
    n_nodes, n_classes = counts.shape
    # [S, C, F] per-class counts of the samples with each bit set: one
    # reduceat over the samples sorted by (node, class)
    group = node * n_classes + y[rows]
    order = np.argsort(group, kind="stable")
    group = group[order]
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    on_counts = np.zeros((n_nodes * n_classes, on.shape[1]), dtype=np.int64)
    on_counts[group[starts]] = np.add.reduceat(on[rows[order]], starts, axis=0, dtype=np.int64)
    on_counts = on_counts.reshape(n_nodes, n_classes, -1)
    n = counts.sum(axis=1)
    n_on = on_counts.sum(axis=1)
    n_off = n[:, None] - n_on
    valid = (n_on >= min_leaf) & (n_off >= min_leaf)
    pair_node, pair_bit = np.nonzero(valid)
    pairs = len(pair_node)
    on_pairs = on_counts[pair_node, :, pair_bit]
    # one pass over the parents, the on sides and the off sides; every row is
    # summed on its own, so a node's gains equal those of a node grown alone
    h = _entropies(np.concatenate([counts, on_pairs, counts[pair_node] - on_pairs]))
    child = (n_on[valid] * h[n_nodes : n_nodes + pairs] + n_off[valid] * h[n_nodes + pairs :]) / n[pair_node]
    gains = np.full(valid.shape, -np.inf)
    gains[valid] = h[pair_node] - child
    return _best_feature(gains)


def _grow_trees(
    on: np.ndarray,
    y: np.ndarray,
    roots: Sequence[np.ndarray],
    n_classes: int,
    min_leaf: int,
    max_depth: Optional[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One tree over each sample index array of ``roots``, all grown together
    a level at a time: ``on`` is the [N, F] bool matrix of set bits.  Returns
    the forest's ``feature``, ``child`` and ``counts`` arrays in level order
    (:class:`DecisionTreeModel`), tree i rooted at node i.

    A level's frontier nodes are numbered 0..M-1 across the trees; each
    (sample, tree) membership is a row number in ``rows`` and a node number in
    ``node``.  A node splits on its best bit unless it is pure, too small for
    two ``min_leaf`` sides, at the depth cap, or no split gains entropy; its
    children are numbered in frontier order, nominal first.
    """
    rows = np.concatenate(roots)
    node = np.repeat(np.arange(len(roots)), [len(r) for r in roots])
    n_nodes = len(roots)
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # each level's split bits, children and counts
    while n_nodes:
        counts = np.bincount(node * n_classes + y[rows], minlength=n_nodes * n_classes)
        counts = counts.reshape(n_nodes, n_classes)
        n = counts.sum(axis=1)
        feature = np.full(n_nodes, -1, dtype=np.intp)
        splittable = np.flatnonzero((counts.max(axis=1) < n) & (n >= 2 * min_leaf))
        if len(splittable) and (max_depth is None or len(levels) < max_depth):
            renumber = np.full(n_nodes, -1)
            renumber[splittable] = np.arange(len(splittable))
            inside = renumber[node] >= 0
            feature[splittable] = _split_features(
                on, y, rows[inside], renumber[node[inside]], counts[splittable], min_leaf
            )
        split = feature >= 0
        child = 2 * (np.cumsum(split) - 1)
        below = sum(len(level[0]) for level in levels) + n_nodes  # the next level's first node
        levels.append((feature, np.where(split, below + child, -1), np.where(split[:, None], 0, counts)))
        inside = split[node]
        rows, node = rows[inside], node[inside]
        node = child[node] + on[rows, feature[node]]
        n_nodes = 2 * int(split.sum())
    return tuple(np.concatenate(arrays) for arrays in zip(*levels))


def _training_set(x, y, classes) -> Tuple[np.ndarray, np.ndarray, Tuple[FailureClass, ...]]:
    """A trainer's input, checked: ``x`` as a bool bit matrix (any non-zero
    value is a set bit, as in ``predict_proba``), ``y`` as class indices
    and ``classes`` as a tuple."""
    x, y, classes = np.asarray(x) != 0, np.asarray(y, dtype=np.intp), tuple(classes)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be (n_samples, n_features) aligned with y")
    if len(x) == 0:
        raise ValueError("cannot train on an empty sample set")
    if y.min() < 0 or y.max() >= len(classes):
        raise ValueError("label index out of range for the class list")
    return x, y, classes


def train_tree(
    x: np.ndarray,
    y: np.ndarray,
    classes: Sequence[FailureClass],
    min_leaf: int = DEFAULT_MIN_LEAF,
    max_depth: Optional[int] = None,
) -> DecisionTreeModel:
    """Grow a tree by greedy information gain over binary anomaly bits.

    Splits must leave at least ``min_leaf`` samples on each side; growth stops
    on pure nodes, the optional depth cap, or when no split improves entropy.
    Ties between features break toward the lowest bit index.  Single-class
    input yields a single-leaf tree.
    """
    x, y, classes = _training_set(x, y, classes)
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    arrays = _grow_trees(x, y, [np.arange(len(y))], len(classes), min_leaf, max_depth)
    return DecisionTreeModel(classes, int(x.shape[1]), min_leaf, max_depth, *arrays)


# ---------------------------------------------------------------------------
# Bernoulli naive Bayes


@dataclass(frozen=True, eq=False)
class NaiveBayesModel:
    """Bernoulli naive Bayes with Laplace-smoothed priors and likelihoods;
    its arrays are made read-only."""

    classes: Tuple[FailureClass, ...]
    n_features: int
    alpha: float
    priors: np.ndarray
    theta: np.ndarray  # (n_classes, n_features) P(bit = 1 | class)

    def __post_init__(self):
        self.priors.setflags(write=False)
        self.theta.setflags(write=False)

    def predict_proba(self, bits: np.ndarray) -> np.ndarray:
        """Posteriors of each row of an [n, F] bit matrix, as [n, classes];
        a 1-D vector gives one distribution."""
        rows = _feature_rows(bits, self.n_features) != 0
        probs = _nb_posteriors(rows, self.priors, self.theta.T)
        return probs if np.ndim(bits) == 2 else probs[0]

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "priors": self.priors.tolist(), "theta": self.theta.tolist()}

    @classmethod
    def from_dict(cls, payload: dict, classes: Tuple[FailureClass, ...], n_features: int) -> "NaiveBayesModel":
        """A model whose shapes fit the classes and the vocabulary, with a
        positive ``alpha`` and every probability in [0, 1]."""
        alpha = typed("alpha", payload["alpha"], float)
        if not alpha > 0:
            raise ValueError(f"alpha {alpha} must be positive")
        priors = np.array([typed("priors", p, float) for p in payload["priors"]])
        theta = np.array([[typed("theta", t, float) for t in row] for row in payload["theta"]])
        if priors.shape != (len(classes),) or theta.shape != (len(classes), n_features):
            raise ValueError(
                f"naive Bayes priors {priors.shape} and theta {theta.shape} do not fit "
                f"{len(classes)} classes over {n_features} features"
            )
        # NaN fails both comparisons
        if not all(((0.0 <= p) & (p <= 1.0)).all() for p in (priors, theta)):
            raise ValueError("naive Bayes priors and theta must lie in [0, 1]")
        return cls(classes, n_features, alpha, priors, theta)


def _nb_posteriors(rows: np.ndarray, priors: np.ndarray, theta_t: np.ndarray) -> np.ndarray:
    """Naive Bayes posteriors [n, C] of the [n, F] bool matrix ``rows``.

    ``priors`` is [C] or one per row [n, C]; ``theta_t`` holds P(bit = 1 |
    class) by feature, [F, C] or one per row [F, n, C].  Likelihoods multiply
    in feature order, every row on its own, so a row's posterior does not
    depend on the rows beside it.
    """
    probs = np.empty((len(rows), priors.shape[-1]))
    probs[:] = priors
    absent = 1.0 - theta_t
    for j in range(rows.shape[1]):
        probs *= np.where(rows[:, j : j + 1], theta_t[j], absent[j])
        low = probs.max(axis=1) < 1e-100
        if low.any():
            # rescale by an exact power of two: the normalization below
            # cancels it without introducing rounding error
            probs[low] = np.ldexp(probs[low], 340)
    total = probs.sum(axis=1, keepdims=True)
    empty = total[:, 0] == 0.0
    total[empty] = 1.0
    probs /= total
    probs[empty] = 1.0 / probs.shape[1]
    return probs


def train_nb(
    x: np.ndarray,
    y: np.ndarray,
    classes: Sequence[FailureClass],
    alpha: float = DEFAULT_ALPHA,
) -> NaiveBayesModel:
    """Estimate smoothed priors (n_c + a) / (N + aK) and Bernoulli parameters
    (ones_c + a) / (n_c + 2a).  An empty sample set is an error."""
    x, y, classes = _training_set(x, y, classes)
    if not alpha > 0:  # NaN too
        raise ValueError("alpha must be positive")
    k = len(classes)
    n_c = np.bincount(y, minlength=k).astype(float)
    priors = (n_c + alpha) / (len(y) + alpha * k)
    ones = np.eye(k)[y].T @ x  # counts of set bits: exact in float64
    theta = (ones + alpha) / (n_c[:, None] + 2.0 * alpha)
    return NaiveBayesModel(classes, int(x.shape[1]), float(alpha), priors, theta)


# ---------------------------------------------------------------------------
# the packaged signature model


#: Each classifier by the algorithm name a signature file gives it.
_MODELS = {"tree": DecisionTreeModel, "nb": NaiveBayesModel}


@dataclass
class SignatureModel(Artifact):
    """A trained classifier plus the vocabulary and window length it expects;
    its algorithm's name is the one ``_MODELS`` gives the model's class."""

    vocabulary: Vocabulary
    window_min: int
    model: Union[DecisionTreeModel, NaiveBayesModel]

    @property
    def classes(self) -> Tuple[FailureClass, ...]:
        return self.model.classes

    def top(self, pool) -> List[Tuple[FailureClass, float]]:
        """Each window's most likely class and its probability, from one
        ``predict_proba`` call over ``pool``'s cells ([..., K, 2]; one window
        is a list of one).  Ties go to the lowest class index, the smallest
        class, since a model's classes are sorted."""
        x = self.vocabulary.encode(pool)
        probs = self.model.predict_proba(x.reshape(-1, x.shape[-1]))
        return list(zip([self.classes[i] for i in probs.argmax(axis=1).tolist()], probs.max(axis=1).tolist()))

    def to_dict(self) -> dict:
        return {
            "kind": SIGNATURE_KIND,
            "schema_version": SIGNATURE_SCHEMA_VERSION,
            "algorithm": next(name for name, kind in _MODELS.items() if isinstance(self.model, kind)),
            "window_min": self.window_min,
            "split_kinds": self.vocabulary.split_kinds,
            "vocabulary": [[kpi.resource, kpi.metric] for kpi in self.vocabulary.kpis],
            "classes": [[cls.fault_type.value, cls.resource] for cls in self.classes],
            "model": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SignatureModel":
        check_kind(data, SIGNATURE_KIND, SIGNATURE_SCHEMA_VERSION)
        # a wrong type would load as another model: "false" as split kinds,
        # 90.7 or true as a window length, 2.7 as a leaf size
        split_kinds = typed("split_kinds", data["split_kinds"], bool)
        window_min = typed("window_min", data["window_min"], int)
        if window_min <= 0:
            raise ValueError(f"window_min {window_min} must be positive")
        for entry in data["vocabulary"]:
            if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(name, str) for name in entry)):
                raise TypeError(f"vocabulary entry {entry!r} must be two strings, a resource and a metric")
        vocab = Vocabulary((kpi_id(r, m) for r, m in data["vocabulary"]), split_kinds=split_kinds)
        classes = tuple(FailureClass(FaultType(ft), res) for ft, res in data["classes"])
        if not classes or list(classes) != sorted(set(classes)):
            raise ValueError("classes must be listed sorted and distinct, as training writes them")
        algorithm = data["algorithm"]
        if algorithm not in _MODELS:
            raise SchemaVersionError(f"unknown signature algorithm {algorithm!r}")
        model = _MODELS[algorithm].from_dict(data["model"], classes, vocab.dimension)
        return cls(vocabulary=vocab, window_min=window_min, model=model)


def _label_indices(labels: Sequence[FailureClass]) -> Tuple[np.ndarray, Tuple[FailureClass, ...]]:
    """Each label's index among the sorted distinct ``labels``, and those."""
    classes = tuple(sorted(set(labels)))
    index = {cls: i for i, cls in enumerate(classes)}
    return np.asarray([index[label] for label in labels], dtype=np.intp), classes


def _dataset(
    pool: Windows, vocab: Vocabulary, algorithm: str
) -> Tuple[np.ndarray, np.ndarray, Tuple[FailureClass, ...]]:
    """The pool's bit matrix, its label indices and the sorted classes, to
    train ``algorithm`` on; an unknown algorithm fails before the encoding."""
    if algorithm not in _MODELS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected 'tree' or 'nb'")
    if not len(pool):
        raise ValueError("no window samples to train on")
    return (vocab.encode(pool), *_label_indices(pool.labels))


def train_signature(
    pool: Windows,
    vocab: Vocabulary,
    algorithm: str = "tree",
    window_min: int = DEFAULT_WINDOW_MIN,
    *,
    min_leaf: int = DEFAULT_MIN_LEAF,
) -> SignatureModel:
    """Train a signature classifier from a pool of labeled windows: a tree
    of unbounded depth, or naive Bayes with the default smoothing.  The pool
    must hold two classes at least: one class alone would be named for every
    window, fault-free ones too."""
    x, y, classes = _dataset(pool, vocab, algorithm)
    if len(classes) < 2:
        raise ValueError(f"every window is labelled {classes[0]}; a signature needs windows of two classes at least")
    model = train_tree(x, y, classes, min_leaf) if algorithm == "tree" else train_nb(x, y, classes)
    return SignatureModel(vocabulary=vocab, window_min=window_min, model=model)


# ---------------------------------------------------------------------------
# cross-validation


@dataclass
class CrossValidationResult:
    """Aggregated one-vs-rest counts per class plus the raw fold predictions."""

    per_class: Dict[FailureClass, Contingency]
    predictions: List[Tuple[FailureClass, FailureClass]]  # (truth, predicted)

    @property
    def n_correct(self) -> int:
        return sum(1 for truth, pred in self.predictions if truth == pred)


def stratified_folds(labels: Sequence[FailureClass], k: int, seed: int) -> np.ndarray:
    """Deterministic stratified k-fold assignment: each sample's fold.

    Samples are shuffled by the seed, grouped by class in sorted class order
    (a stable sort, so each class keeps its shuffled order), and dealt to
    folds round-robin, the deal carrying across classes, so fold sizes
    differ by at most one overall and per class.  Classes with fewer than k
    samples cannot be represented in every fold; they degrade to plain
    round-robin placement and are reported with a warning.
    """
    n = len(labels)
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"need at least {k} samples for {k}-fold validation")
    y, classes = _label_indices(labels)
    small = sorted(str(classes[c]) for c in np.flatnonzero(np.bincount(y) < k))
    if small:
        logger.warning(
            "cross-validation: classes with fewer than %d samples fall back to "
            "unstratified assignment: %s",
            k,
            ", ".join(small),
        )
    order = np.random.default_rng(seed).permutation(n)
    order = order[np.argsort(y[order], kind="stable")]
    fold = np.empty(n, dtype=np.intp)
    fold[order] = np.arange(n) % k
    return fold


def _nb_fold_posteriors(x, y, classes, fold_of: np.ndarray, alpha: float) -> np.ndarray:
    """The [N, C] posteriors of every sample under naive Bayes trained on the
    other folds, all scored in one pass; sample i is in fold ``fold_of[i]``."""
    priors, theta_t = [], []
    for i in range(fold_of.max() + 1):
        model = train_nb(x[fold_of != i], y[fold_of != i], classes, alpha)
        priors.append(model.priors)
        theta_t.append(model.theta.T)
    # each held-out row carries its own fold's parameters: [N, C] and [F, N, C]
    return _nb_posteriors(x != 0, np.stack(priors)[fold_of], np.stack(theta_t, axis=1)[:, fold_of])


def cross_validate(
    pool: Windows,
    vocab: Vocabulary,
    k: int = 10,
    seed: int = 0,
    algorithm: str = "tree",
    *,
    min_leaf: int = DEFAULT_MIN_LEAF,
    max_depth: Optional[int] = None,
    alpha: float = DEFAULT_ALPHA,
) -> CrossValidationResult:
    """Seeded stratified k-fold evaluation of a signature algorithm.

    Per-class one-vs-rest TP/FP/FN/TN counts are aggregated over all folds;
    each held-out sample is predicted by the top class of the distribution.
    """
    x, y, classes = _dataset(pool, vocab, algorithm)
    fold = stratified_folds(pool.labels, k, seed)
    if algorithm == "tree":
        # every fold's tree grown at once as one forest, tree i rooted at node
        # i; the global class list keeps class indices aligned across folds
        trains = [np.flatnonzero(fold != i) for i in range(k)]
        arrays = _grow_trees(x, y, trains, len(classes), min_leaf, max_depth)
        forest = DecisionTreeModel(classes, x.shape[1], min_leaf, max_depth, *arrays)
        probs = forest.leaf_proba[forest.leaves(x, fold)]
    else:
        probs = _nb_fold_posteriors(x, y, classes, fold, alpha)
    preds = np.argmax(probs, axis=1)
    c = len(classes)
    confusion = np.bincount(y * c + preds, minlength=c * c).reshape(c, c)  # [truth, predicted]
    tp = np.diag(confusion)
    fp, fn = confusion.sum(axis=0) - tp, confusion.sum(axis=1) - tp
    tables = np.stack([tp, fp, fn, len(y) - tp - fp - fn], axis=1).tolist()
    per_class = {cls: Contingency(*table) for cls, table in zip(classes, tables)}
    # samples with the same (truth, predicted) pair share one tuple
    pairs: Dict[Tuple[int, int], Tuple[FailureClass, FailureClass]] = {}
    predictions = [
        pairs.setdefault((t, p), (classes[t], classes[p])) for t, p in zip(y.tolist(), preds.tolist())
    ]
    return CrossValidationResult(per_class=per_class, predictions=predictions)
