"""Failure signatures: window pools, encoding, classifiers, and cross-validation.

A pool holds each window's (KPI, anomaly kind) cells as one bool matrix; a
fixed KPI vocabulary projects the cells onto a binary vector, and signature
classifiers map those vectors to failure classes with a confidence
distribution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import FailureClass, FaultType, KpiId, SchemaVersionError
from .detect import _MULTIVARIATE, _UNIVARIATE
from .io import check_kind, load_json, save_json, typed
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
    """A pool of labeled sliding windows, as columns.

    Window i covers ``[start[i], end[i])`` and carries ``labels[i]``;
    ``cells[i, k, c]`` is set when KPI ``kpis[k]`` was flagged inside it by
    the detector of kind code ``c`` (0 Multivariate, 1 Univariate, the codes
    of :class:`AnomalyEvents`).  ``kpis`` is sorted.
    """

    kpis: Tuple[KpiId, ...]
    cells: np.ndarray  # bool [N, K, 2]
    start: np.ndarray  # int64 [N]
    end: np.ndarray  # int64 [N]
    labels: Tuple[FailureClass, ...]

    def __len__(self) -> int:
        return len(self.labels)


class Vocabulary:
    """The fixed, ordered KPI vocabulary feature vectors are built over: a
    projection of (KPI, detector kind) cells onto bits.

    One bit per KPI by default, which both kinds of the KPI set; with
    ``split_kinds`` KPI i's univariate detections set bit 2i and its
    multivariate ones bit 2i + 1.  Cells of KPIs outside the vocabulary set
    no bit.
    """

    __slots__ = ("kpis", "split_kinds", "_index", "_last")

    def __init__(self, kpis: Iterable[KpiId], split_kinds: bool = False):
        self.kpis: Tuple[KpiId, ...] = tuple(sorted(set(kpis)))
        if not self.kpis:
            raise ValueError("vocabulary must contain at least one KPI")
        self.split_kinds = bool(split_kinds)
        self._index: Dict[KpiId, int] = {kpi: i for i, kpi in enumerate(self.kpis)}
        self._last: Tuple[tuple, np.ndarray] = ((), np.zeros((0, 2), dtype=np.intp))  # bits() of the last tuple

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
        """The bit of each (KPI, kind code) cell over ``kpis``, as a read-only
        int [K, 2]; -1 for the cells of a KPI outside the vocabulary."""
        last, bits = self._last
        if kpis is last:  # the predictor asks for its state's KPIs every step
            return bits
        i = np.array([self._index.get(kpi, -1) for kpi in kpis], dtype=np.intp)[:, None]
        # columns in kind-code order: Multivariate, Univariate
        bits = np.where(i >= 0, np.hstack([2 * i + 1, 2 * i] if self.split_kinds else [i, i]), -1)
        bits.setflags(write=False)
        self._last = (kpis, bits)
        return bits

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


@dataclass(frozen=True)
class ClassDistribution:
    """Probabilities over the model's failure classes; sums to one."""

    probabilities: Dict[FailureClass, float]

    def top(self) -> Tuple[FailureClass, float]:
        """The most likely class; ties break toward the smallest class."""
        best = None
        best_p = -1.0
        for cls in sorted(self.probabilities):
            p = self.probabilities[cls]
            if p > best_p:
                best, best_p = cls, p
        return best, best_p

    def __getitem__(self, cls: FailureClass) -> float:
        return self.probabilities.get(cls, 0.0)


# ---------------------------------------------------------------------------
# decision tree


@dataclass(frozen=True)
class TreeNode:
    """Either a decision on one feature bit or a leaf with its class counts.

    Leaves carry the (total, correct) pair of training samples that reached
    them, plus the full per-class counts used to spread residual mass.
    """

    feature: Optional[int] = None
    nominal: Optional["TreeNode"] = None
    anomalous: Optional["TreeNode"] = None
    class_index: Optional[int] = None
    total: int = 0
    correct: int = 0
    counts: Tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {
                "class_index": self.class_index,
                "total": self.total,
                "correct": self.correct,
                "counts": list(self.counts),
            }
        return {
            "feature": self.feature,
            "nominal": self.nominal.to_dict(),
            "anomalous": self.anomalous.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TreeNode":
        if "feature" in data:
            return cls(
                feature=typed("tree feature", data["feature"], int),
                nominal=cls.from_dict(data["nominal"]),
                anomalous=cls.from_dict(data["anomalous"]),
            )
        return cls(
            class_index=typed("tree class_index", data["class_index"], int),
            total=typed("tree total", data["total"], int),
            correct=typed("tree correct", data["correct"], int),
            counts=tuple(typed("tree counts", c, int) for c in data["counts"]),
        )


def _check_tree(root: TreeNode, n_classes: int, n_features: int) -> None:
    """Reject a loaded tree that could not be evaluated: a split on a bit
    outside the vocabulary, or a leaf whose class or counts do not fit."""
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            if not 0 <= node.feature < n_features:
                raise ValueError(f"tree splits on bit {node.feature}; the vocabulary has {n_features}")
            stack += [node.nominal, node.anomalous]
        elif not (
            0 <= node.class_index < n_classes
            and 0 <= node.correct <= node.total
            and node.total >= 1
            and len(node.counts) == n_classes
            and min(node.counts, default=0) >= 0
        ):
            raise ValueError(
                f"tree leaf (class_index={node.class_index}, total={node.total}, "
                f"correct={node.correct}, {len(node.counts)} counts) does not fit {n_classes} classes"
            )


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


def _leaf_proba(node: TreeNode, k: int) -> np.ndarray:
    """The leaf's confidence on its class, the rest spread by its counts."""
    probs = np.zeros(k)
    confidence = node.correct / node.total
    probs[node.class_index] = confidence
    remainder = 1.0 - confidence
    if remainder > 0.0:
        others = np.asarray(node.counts, dtype=float)
        others[node.class_index] = 0.0
        mass = others.sum()
        if mass > 0.0:
            probs += remainder * others / mass
        elif k > 1:
            spread = remainder / (k - 1)
            for i in range(k):
                if i != node.class_index:
                    probs[i] += spread
        else:
            probs[node.class_index] = 1.0
    return probs


@dataclass(frozen=True)
class DecisionTreeModel:
    """A plain binary decision tree over anomaly bits."""

    classes: Tuple[FailureClass, ...]
    n_features: int
    min_leaf: int
    max_depth: Optional[int]
    root: TreeNode

    def predict_proba(self, bits: np.ndarray) -> np.ndarray:
        """Class probabilities of each row of an [n, F] bit matrix, as
        [n, classes]; a 1-D vector gives one distribution."""
        rows = _feature_rows(bits, self.n_features)
        out = np.empty((len(rows), len(self.classes)))
        leaves: Dict[int, np.ndarray] = {}
        for r, row in enumerate(rows.tolist()):
            node = self.root
            while not node.is_leaf:
                node = node.anomalous if row[node.feature] else node.nominal
            probs = leaves.get(id(node))
            if probs is None:
                probs = leaves[id(node)] = _leaf_proba(node, len(self.classes))
            out[r] = probs
        return out if np.ndim(bits) == 2 else out[0]

    def depth(self) -> int:
        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.nominal), walk(node.anomalous))

        return walk(self.root)


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
) -> List[TreeNode]:
    """One tree over each sample index array of ``roots``, all grown together
    a level at a time: ``on`` is the [N, F] bool matrix of set bits.

    A level's frontier nodes are numbered 0..M-1 across the trees; each
    (sample, tree) membership is a row number in ``rows`` and a node number in
    ``node``.  A node splits on its best bit unless it is pure, too small for
    two ``min_leaf`` sides, at the depth cap, or no split gains entropy; its
    children are numbered in frontier order, nominal first.
    """
    rows = np.concatenate(roots)
    node = np.repeat(np.arange(len(roots)), [len(r) for r in roots])
    n_nodes = len(roots)
    levels: List[Tuple[list, list]] = []  # each level's class counts and split bits
    while n_nodes:
        counts = np.bincount(node * n_classes + y[rows], minlength=n_nodes * n_classes)
        counts = counts.reshape(n_nodes, n_classes)
        n = counts.sum(axis=1)
        feature = np.full(n_nodes, -1)
        splittable = np.flatnonzero((counts.max(axis=1) < n) & (n >= 2 * min_leaf))
        if len(splittable) and (max_depth is None or len(levels) < max_depth):
            renumber = np.full(n_nodes, -1)
            renumber[splittable] = np.arange(len(splittable))
            inside = renumber[node] >= 0
            feature[splittable] = _split_features(
                on, y, rows[inside], renumber[node[inside]], counts[splittable], min_leaf
            )
        levels.append((counts.tolist(), feature.tolist()))
        split = feature >= 0
        child = 2 * (np.cumsum(split) - 1)
        inside = split[node]
        rows, node = rows[inside], node[inside]
        node = child[node] + on[rows, feature[node]]
        n_nodes = 2 * int(split.sum())
    below: List[TreeNode] = []
    for counts, feature in reversed(levels):
        children = iter(below)
        below = []
        for c, f in zip(counts, feature):
            if f >= 0:
                below.append(TreeNode(feature=f, nominal=next(children), anomalous=next(children)))
            else:
                majority = c.index(max(c))
                below.append(TreeNode(class_index=majority, total=sum(c), correct=c[majority], counts=tuple(c)))
    return below


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
    x = np.asarray(x) != 0  # any non-zero value is a set bit, as in predict_proba
    y = np.asarray(y, dtype=np.intp)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be (n_samples, n_features) aligned with y")
    if len(x) == 0:
        raise ValueError("cannot train a tree on an empty sample set")
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    classes = tuple(classes)
    if y.max(initial=-1) >= len(classes):
        raise ValueError("label index out of range for the class list")
    (root,) = _grow_trees(x, y, [np.arange(len(y))], len(classes), min_leaf, max_depth)
    return DecisionTreeModel(
        classes=classes,
        n_features=int(x.shape[1]),
        min_leaf=min_leaf,
        max_depth=max_depth,
        root=root,
    )


# ---------------------------------------------------------------------------
# Bernoulli naive Bayes


@dataclass(frozen=True)
class NaiveBayesModel:
    """Bernoulli naive Bayes with Laplace-smoothed priors and likelihoods."""

    classes: Tuple[FailureClass, ...]
    n_features: int
    alpha: float
    priors: np.ndarray
    theta: np.ndarray  # (n_classes, n_features) P(bit = 1 | class)

    def predict_proba(self, bits: np.ndarray) -> np.ndarray:
        """Posteriors of each row of an [n, F] bit matrix, as [n, classes];
        a 1-D vector gives one distribution."""
        rows = _feature_rows(bits, self.n_features) != 0
        probs = _nb_posteriors(rows, self.priors, self.theta.T)
        return probs if np.ndim(bits) == 2 else probs[0]


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
    x = np.asarray(x) != 0  # any non-zero value is a set bit, as in predict_proba
    y = np.asarray(y, dtype=np.intp)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be (n_samples, n_features) aligned with y")
    if len(x) == 0:
        raise ValueError("cannot train naive Bayes on an empty sample set")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    classes = tuple(classes)
    k = len(classes)
    if y.max(initial=-1) >= k:
        raise ValueError("label index out of range for the class list")
    n_c = np.bincount(y, minlength=k).astype(float)
    priors = (n_c + alpha) / (len(y) + alpha * k)
    ones = np.eye(k)[y].T @ x  # counts of set bits: exact in float64
    theta = (ones + alpha) / (n_c[:, None] + 2.0 * alpha)
    priors.setflags(write=False)
    theta.setflags(write=False)
    return NaiveBayesModel(
        classes=classes,
        n_features=int(x.shape[1]),
        alpha=float(alpha),
        priors=priors,
        theta=theta,
    )


# ---------------------------------------------------------------------------
# the packaged signature model


@dataclass
class SignatureModel:
    """A trained classifier plus the vocabulary and window length it expects."""

    vocabulary: Vocabulary
    algorithm: str  # "tree" | "nb"
    window_min: int
    model: Union[DecisionTreeModel, NaiveBayesModel]

    @property
    def classes(self) -> Tuple[FailureClass, ...]:
        return self.model.classes

    def classify_bits(self, bits: np.ndarray) -> ClassDistribution:
        probs = self.model.predict_proba(bits)
        return ClassDistribution({cls: float(p) for cls, p in zip(self.classes, probs)})

    def top_classes(self, pool: Windows) -> List[FailureClass]:
        """Each window's most likely class, from one ``predict_proba`` call;
        ties break toward the lowest class index, which over a trained
        model's sorted classes is :meth:`ClassDistribution.top`'s rule."""
        probs = self.model.predict_proba(self.vocabulary.encode(pool))
        return [self.classes[i] for i in np.argmax(probs, axis=1).tolist()]

    def to_dict(self) -> dict:
        if self.algorithm == "tree":
            tree: DecisionTreeModel = self.model
            payload = {
                "min_leaf": tree.min_leaf,
                "max_depth": tree.max_depth,
                "root": tree.root.to_dict(),
            }
        elif self.algorithm == "nb":
            nb: NaiveBayesModel = self.model
            payload = {
                "alpha": nb.alpha,
                "priors": [float(p) for p in nb.priors],
                "theta": [[float(t) for t in row] for row in nb.theta],
            }
        else:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        return {
            "kind": SIGNATURE_KIND,
            "schema_version": SIGNATURE_SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "window_min": self.window_min,
            "split_kinds": self.vocabulary.split_kinds,
            "vocabulary": [[kpi.resource, kpi.metric] for kpi in self.vocabulary.kpis],
            "classes": [[cls.fault_type.value, cls.resource] for cls in self.classes],
            "model": payload,
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
        vocab = Vocabulary((KpiId(r, m) for r, m in data["vocabulary"]), split_kinds=split_kinds)
        classes = tuple(FailureClass(FaultType(ft), res) for ft, res in data["classes"])
        algorithm = data["algorithm"]
        payload = data["model"]
        model: Union[DecisionTreeModel, NaiveBayesModel]
        if algorithm == "tree":
            min_leaf, max_depth = typed("min_leaf", payload["min_leaf"], int), payload["max_depth"]
            if min_leaf < 1:
                raise ValueError(f"min_leaf {min_leaf} must be at least 1")
            model = DecisionTreeModel(
                classes=classes,
                n_features=vocab.dimension,
                min_leaf=min_leaf,
                max_depth=None if max_depth is None else typed("max_depth", max_depth, int),
                root=TreeNode.from_dict(payload["root"]),
            )
            _check_tree(model.root, len(classes), vocab.dimension)
        elif algorithm == "nb":
            alpha = typed("alpha", payload["alpha"], float)
            if not alpha > 0:
                raise ValueError(f"alpha {alpha} must be positive")
            priors = np.array([typed("priors", p, float) for p in payload["priors"]])
            theta = np.array([[typed("theta", t, float) for t in row] for row in payload["theta"]])
            if priors.shape != (len(classes),) or theta.shape != (len(classes), vocab.dimension):
                raise ValueError(
                    f"naive Bayes priors {priors.shape} and theta {theta.shape} do not fit "
                    f"{len(classes)} classes over {vocab.dimension} features"
                )
            # NaN fails both comparisons
            if not all(((0.0 <= p) & (p <= 1.0)).all() for p in (priors, theta)):
                raise ValueError("naive Bayes priors and theta must lie in [0, 1]")
            priors.setflags(write=False)
            theta.setflags(write=False)
            model = NaiveBayesModel(
                classes=classes,
                n_features=vocab.dimension,
                alpha=alpha,
                priors=priors,
                theta=theta,
            )
        else:
            raise SchemaVersionError(f"unknown signature algorithm {algorithm!r}")
        return cls(vocabulary=vocab, algorithm=algorithm, window_min=window_min, model=model)

    def save(self, path) -> None:
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "SignatureModel":
        return load_json(path, cls.from_dict)


def _dataset(pool: Windows, vocab: Vocabulary) -> Tuple[np.ndarray, np.ndarray, Tuple[FailureClass, ...]]:
    """The pool's bit matrix, its label indices and the sorted classes."""
    if not len(pool):
        raise ValueError("no window samples to train on")
    classes = tuple(sorted(set(pool.labels)))
    index = {cls: i for i, cls in enumerate(classes)}
    y = np.asarray([index[label] for label in pool.labels], dtype=np.intp)
    return vocab.encode(pool), y, classes


def _fitter(algorithm: str, min_leaf: int, max_depth: Optional[int], alpha: float):
    """The training function ``(x, y, classes) -> model`` of one algorithm."""
    if algorithm == "tree":
        return lambda x, y, classes: train_tree(x, y, classes, min_leaf=min_leaf, max_depth=max_depth)
    if algorithm == "nb":
        return lambda x, y, classes: train_nb(x, y, classes, alpha=alpha)
    raise ValueError(f"unknown algorithm {algorithm!r}; expected 'tree' or 'nb'")


def train_signature(
    pool: Windows,
    vocab: Vocabulary,
    algorithm: str = "tree",
    window_min: int = 90,
    *,
    min_leaf: int = DEFAULT_MIN_LEAF,
    max_depth: Optional[int] = None,
    alpha: float = DEFAULT_ALPHA,
) -> SignatureModel:
    """Train a signature classifier from a pool of labeled windows."""
    fit = _fitter(algorithm, min_leaf, max_depth, alpha)
    model = fit(*_dataset(pool, vocab))
    return SignatureModel(vocabulary=vocab, algorithm=algorithm, window_min=window_min, model=model)


# ---------------------------------------------------------------------------
# cross-validation


@dataclass
class CrossValidationResult:
    """Aggregated one-vs-rest counts per class plus the raw fold predictions."""

    per_class: Dict[FailureClass, Contingency]
    predictions: List[Tuple[FailureClass, FailureClass]]  # (truth, predicted)
    fold_sizes: List[int]

    @property
    def n_correct(self) -> int:
        return sum(1 for truth, pred in self.predictions if truth == pred)


def stratified_folds(
    labels: Sequence[FailureClass], k: int, seed: int
) -> List[np.ndarray]:
    """Deterministic stratified k-fold assignment.

    Samples are shuffled by the seed, grouped by class, and dealt to folds
    round-robin with a cursor that carries across classes, so fold sizes
    differ by at most one overall and per class.  Classes with fewer than k
    samples cannot be represented in every fold; they degrade to plain
    round-robin placement and are reported with a warning.
    """
    n = len(labels)
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"need at least {k} samples for {k}-fold validation")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    by_class: Dict[FailureClass, List[int]] = {}
    for idx in order:
        by_class.setdefault(labels[idx], []).append(int(idx))
    small = sorted(str(cls) for cls, idxs in by_class.items() if len(idxs) < k)
    if small:
        logger.warning(
            "cross-validation: classes with fewer than %d samples fall back to "
            "unstratified assignment: %s",
            k,
            ", ".join(small),
        )
    folds: List[List[int]] = [[] for _ in range(k)]
    cursor = 0
    for cls in sorted(by_class):
        for idx in by_class[cls]:
            folds[cursor].append(idx)
            cursor = (cursor + 1) % k
    return [np.asarray(sorted(fold), dtype=np.intp) for fold in folds]


def _nb_fold_posteriors(x, y, classes, folds, alpha: float) -> np.ndarray:
    """The [N, C] posteriors of every sample under naive Bayes trained on the
    other folds, all scored in one pass."""
    fold_of = np.empty(len(y), dtype=np.intp)
    priors, theta_t = [], []
    for i, fold in enumerate(folds):
        fold_of[fold] = i
        model = train_nb(np.delete(x, fold, axis=0), np.delete(y, fold), classes, alpha)
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
    _fitter(algorithm, min_leaf, max_depth, alpha)  # an unknown algorithm fails before encoding
    x, y, classes = _dataset(pool, vocab)
    folds = stratified_folds(pool.labels, k, seed)
    if algorithm == "tree":
        # every fold's tree grown at once; the global class list keeps class
        # indices aligned across folds
        trains = [np.delete(np.arange(len(y)), fold) for fold in folds]
        roots = _grow_trees(x != 0, y, trains, len(classes), min_leaf, max_depth)
        preds = np.empty(len(y), dtype=np.intp)
        for fold, root in zip(folds, roots):
            model = DecisionTreeModel(classes, x.shape[1], min_leaf, max_depth, root)
            preds[fold] = np.argmax(model.predict_proba(x[fold]), axis=1)
    else:
        preds = np.argmax(_nb_fold_posteriors(x, y, classes, folds, alpha), axis=1)
    per_class: Dict[FailureClass, Contingency] = {}
    for ci, cls in enumerate(classes):
        tp = int(np.sum((preds == ci) & (y == ci)))
        fp = int(np.sum((preds == ci) & (y != ci)))
        fn = int(np.sum((preds != ci) & (y == ci)))
        tn = int(np.sum((preds != ci) & (y != ci)))
        per_class[cls] = Contingency(tp=tp, fp=fp, fn=fn, tn=tn)
    # samples with the same (truth, predicted) pair share one tuple
    pairs: Dict[Tuple[int, int], Tuple[FailureClass, FailureClass]] = {}
    predictions = [
        pairs.setdefault((t, p), (classes[t], classes[p])) for t, p in zip(y.tolist(), preds.tolist())
    ]
    return CrossValidationResult(
        per_class=per_class,
        predictions=predictions,
        fold_sizes=[len(f) for f in folds],
    )
