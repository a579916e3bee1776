"""Straightforward reference implementations kept as test oracles.

These are the row-at-a-time CSV and anomaly log writers and the CSV
reader, the reader that split blocks of lines on commas in Python, the
per-pair causality graph loop, the one-``lstsq``-per-pair graph, the
baseline file reader that typed one value and checked one row at a time,
the per-(edge, interval) detector, the ``KpiId``-keyed batched detector that
the model's arrays replaced, the model-array detector with every edge's
masks of its own that the kind-pair masks replaced, the per-feature and the one-node-at-a-time tree
growers, the tree as a graph of node objects walked one row at a time, the
tree descent through a block's next-node map, the per-sample fold deal, the
per-row and per-fold classifiers, the class distribution's top rule, the
frozenset windowing, the dict encoding, the buffered predictor step and the
per-window event scans that the array-shaped versions in ``faultcast.io``, ``faultcast.baseline``,
``faultcast.detect``, ``faultcast.signature``, ``faultcast.evaluate`` and
``faultcast.predict`` replaced, the nested scheduling loops that ``faultcast.evaluate``'s run
tables replaced, and the dense fault effects, an array of zeros or ones for
every term and resource a fault could touch, that ``faultcast.sim``'s sparse
footprint replaced.  The per-pair graph and the per-(edge, interval) detector
take lags by position, so they are references on gap-free input only; the
by-timestamp graph and detector, which look each lag up at
``t - i * CADENCE_S``, are the references on any on-cadence input.  The
optimized code must match them exactly: the same bytes,
the same maps, the same errors at the same lines, the same edges, the same
events with equal scores, the same trees, equal probabilities, the same
windows and the same runs.  The one exception is the graph's floats: its
projection route rounds differently from ``lstsq``, so they agree to stated
tolerances.
"""

import csv
import itertools
import logging
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields, replace
from itertools import groupby
from operator import attrgetter
from typing import Optional, Tuple

import numpy as np

from faultcast.baseline import (
    BASELINE_KIND,
    BASELINE_SCHEMA_VERSION,
    DEFAULT_LAG_ORDER,
    STD_FLOOR_ABS,
    STD_FLOOR_REL,
    BaselineConfig,
    GrangerEdge,
    UnivariateBaseline,
    _f_survival,
    _granger_from,
    _restricted_fit,
)
from faultcast.core import (
    _KIND_CODES,
    _KINDS,
    _MULTIVARIATE,
    _UNIVARIATE,
    CADENCE_S,
    HOURS_PER_WEEK,
    INTERVAL_S,
    AnomalyKind,
    CsvParseError,
    DuplicateSampleError,
    FailureClass,
    FaultcastError,
    FaultType,
    Frame,
    KpiId,
    OrderingError,
    SYSTEM_RESOURCE,
    TimeSeries,
    format_timestamp,
    hour_of_week,
    lags,
    parse_timestamp,
    typed,
)
from faultcast.detect import (
    _SCORE_ERROR,
    ANOMALY_LOG_HEADER,
    DEFAULT_TAU,
    AnomalyEvent,
    AnomalyEvents,
    _check_scores,
    check_tau,
)
from faultcast.detect import _interval_bins as _frame_bins
from faultcast.evaluate import _HOST_FAULTS, RunSpec, SuiteConfig, run_day
from faultcast.io import CSV_HEADER, InjectedFault, RunManifest, _Columns, check_kind
from faultcast.predict import DEFAULT_CONFIDENCE, DEFAULT_STREAK, Alert, AlertKind, check_alert_rule
from faultcast.sim import SCENARIO_KIND, SCENARIO_SCHEMA_VERSION, FaultSpec, Pattern, Scenario, WorkloadModel
from faultcast.sim import _CUMULATIVE_DROP, _EW_MULTIPLIER, _HOG_BUSY_ADD, _IMMEDIATE_DROP, _LEAK_RATE_PER_MIN
from faultcast.signature import (
    _GAIN_EPS,
    Windows,
    _entropies,
    train_nb,
)

logger = logging.getLogger(__name__)


def csv_records(stream):
    """``csv.reader``'s records; one it cannot split, such as a field over
    ``csv.field_size_limit()``, raises :class:`CsvParseError` at its number,
    the header's being 1."""
    reader = csv.reader(stream)
    for line_no in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise CsvParseError(line_no, str(exc)) from None
        yield row


def write_csv_rows(series_map, stream):
    """One ``csv.writer`` row and one ``strftime`` per sample."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for kpi in sorted(series_map):
        series = series_map[kpi]
        for ts, value in zip(series.timestamps, series.values):
            writer.writerow([format_timestamp(int(ts)), kpi.resource, kpi.metric, repr(float(value))])


def ingest_csv_rows(stream):
    """One ``strptime`` and one ``KpiId`` per row, a tuple sort per KPI."""
    reader = csv_records(stream)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise CsvParseError(1, f"expected header {','.join(CSV_HEADER)!r}, got {header!r}")
    rows = {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise CsvParseError(line_no, f"expected 4 fields, got {len(row)}")
        ts_text, resource, metric, value_text = row
        try:
            ts = parse_timestamp(ts_text)
        except ValueError:
            raise CsvParseError(line_no, f"bad timestamp {ts_text!r}") from None
        try:
            kpi = KpiId(resource, metric)
        except ValueError as exc:
            raise CsvParseError(line_no, str(exc)) from None
        try:
            value = float(value_text)
        except ValueError:
            raise CsvParseError(line_no, f"bad value {value_text!r}") from None
        if not math.isfinite(value):
            raise CsvParseError(line_no, f"non-finite value {value_text!r}")
        rows.setdefault(kpi, []).append((ts, value, line_no))
    result = {}
    for kpi, triples in rows.items():
        triples.sort(key=lambda t: (t[0], t[2]))
        for a, b in zip(triples, triples[1:]):
            if a[0] == b[0]:
                raise DuplicateSampleError(b[2], f"duplicate sample for {kpi} at {format_timestamp(b[0])}")
        result[kpi] = TimeSeries(kpi, [t[0] for t in triples], [t[1] for t in triples])
    return result


class _SplitColumns(_Columns):
    """``io._Columns`` as the split reader checked rows: lists of texts,
    typed by a ``parse`` of lists, timestamps parsed by one numpy call for
    the canonical texts of a list.  Only the KPI memo, ``add_rows`` and
    ``series_map`` are the optimized class's."""

    def _timestamps(self, texts):
        try:
            return list(map(self.ts_memo.__getitem__, texts))
        except KeyError:
            new = [text for text in dict.fromkeys(texts) if text not in self.ts_memo]
            try:
                self.ts_memo.update(zip(new, parse_timestamps_numpy(new)))
            except ValueError:
                raise ValueError(f"bad timestamp {texts[0]!r}") from None
            return list(map(self.ts_memo.__getitem__, texts))

    def add(self, fields, numbers):
        w, n = self.width, len(numbers)
        try:
            stamps = self._timestamps(fields[0 : w * n : w])
            kids = self._kpis(fields[1 : w * n : w], fields[2 : w * n : w])
            tail = self.parse(*(fields[i : w * n : w] for i in range(3, w)))
        except ValueError as exc:
            if n == 1:
                raise CsvParseError(numbers[0], str(exc)) from None
            for i, number in enumerate(numbers):
                self.add(fields[w * i : w * (i + 1)], [number])
            return
        row = len(self.columns[0])
        for i, line in [(0, numbers[0])] if isinstance(numbers, range) else enumerate(numbers):
            if not self.run_rows or line - self.run_lines[-1] != row + i - self.run_rows[-1]:
                self.run_rows.append(row + i)
                self.run_lines.append(line)
        for column, values in zip(self.columns, (stamps, kids, *tail)):
            column.extend(values)


def parse_timestamps_numpy(texts):
    """``parse_timestamp`` of each text: canonical texts by one numpy call,
    kept where they render back to their text, every other text and every
    text of a list numpy rejects through ``parse_timestamp``."""
    canonical = [i for i, text in enumerate(texts) if len(text) == 20 and text[19] == "Z" and "1" <= text[0] <= "9"]
    heads = np.array([texts[i][:19] for i in canonical], dtype="U19")
    found = {}
    try:
        parsed = heads.astype("datetime64[s]")
    except ValueError:
        pass
    else:
        exact = np.datetime_as_string(parsed, unit="s") == heads
        found = {i: ts for i, ts, ok in zip(canonical, parsed.astype(np.int64).tolist(), exact.tolist()) if ok}
    return [found[i] if i in found else parse_timestamp(text) for i, text in enumerate(texts)]


def finite_values_list(texts):
    """The value column of a list of texts as floats, or ``ValueError``
    naming the first text."""
    try:
        values = list(map(float, texts))
    except ValueError:
        raise ValueError(f"bad value {texts[0]!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite value {texts[0]!r}")
    return (values,)


def kinds_and_scores_list(kinds, scores):
    """The kind codes and scores of lists of log texts, or ``ValueError``:
    an unknown kind first, naming it, then a bad score."""
    try:
        codes = list(map(_KIND_CODES.__getitem__, kinds))
    except KeyError as exc:
        AnomalyKind(exc.args[0])
    values = list(map(float, scores))
    if not (all(map(math.isfinite, values)) and min(values, default=0.0) >= 0.0):
        raise ValueError(_SCORE_ERROR)
    return codes, values


def read_rows_split(stream, header, parse, types, block_chars=1 << 16):
    """``io.read_rows`` before its byte scan: a block of lines (``readlines``)
    without ``"``, NUL, a stray CR or a line over the field size limit,
    whose every line holds a row's commas, is split on commas in Python and
    checked as lists of texts (:class:`_SplitColumns`); any other block goes
    through ``csv.reader``, as does everything from the first ``"`` on."""
    try:
        found = next(csv.reader(stream), None)
    except csv.Error as exc:
        raise CsvParseError(1, str(exc)) from None
    if found != header:
        raise CsvParseError(1, f"expected header {','.join(header)!r}, got {found!r}")
    columns = _SplitColumns(parse, types)
    limit = csv.field_size_limit()
    line_no = 2
    while block := stream.readlines(block_chars):
        text = "".join(block)
        if '"' in text:
            columns.add_rows(csv.reader(itertools.chain(block, stream)), line_no)
            break
        # a CR that ends a CRLF line ending reads as a LF in csv.reader
        stray_cr = "\r" in text and text.count("\r") != text.count("\r\n")
        # a blank line holds no comma
        widths = list(map(str.count, block, itertools.repeat(","))).count(columns.width - 1)
        if stray_cr or "\0" in text or max(map(len, block)) > limit or widths != len(block):
            columns.add_rows(csv.reader(block), line_no)
        else:
            fields = text.replace("\r\n", ",").replace("\n", ",").split(",")
            columns.add(fields, range(line_no, line_no + len(block)))
        line_no += len(block)
    return columns


def ingest_csv_split(stream, block_chars=1 << 16):
    """The KPI map as :func:`read_rows_split` reads it."""
    return read_rows_split(stream, CSV_HEADER, finite_values_list, "d", block_chars).series_map()


def read_anomaly_log_split(stream, block_chars=1 << 16):
    """The anomaly log as :func:`read_rows_split` reads it."""
    rows = read_rows_split(stream, ANOMALY_LOG_HEADER, kinds_and_scores_list, "bd", block_chars)
    start, kpi, kind, score = rows.columns
    return AnomalyEvents(rows.kpis, start, kpi, kind, score)


def granger_fit(x_values, y_values, p=DEFAULT_LAG_ORDER):
    """Test whether x's history improves one-step prediction of y: the
    single-pair lstsq reference of ``baseline.build_graph``.

    Fits the restricted autoregression of y on its own p lags and the
    unrestricted one adding x's p lags, then compares residual sums of squares
    with an F test on (p, T - 2p - 1) degrees of freedom, T being the number
    of regression rows.
    """
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if p <= 0:
        raise ValueError("lag order must be positive")
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = len(y)
    if n < 4 * p + 8:
        raise ValueError(f"need at least {4 * p + 8} aligned samples, got {n}")
    return _granger_from(lags(x, p), _restricted_fit(y[p:], lags(y, p)))


def rq1_f_gap(rows, window_min, algorithm="tree"):
    """How far the given window length's micro-F sits below the best one."""
    scores = {(r.window_min, r.algorithm): r.micro.f_measure for r in rows if r.micro.f_measure is not None}
    best = max(v for (_, algo), v in scores.items() if algo == algorithm)
    return best - scores[(window_min, algorithm)]


def band_floor(y):
    """The least band std of values ``y``; a fit whose residual std is at
    most this is exact."""
    return max(STD_FLOOR_REL * float(np.ptp(y)), STD_FLOOR_ABS)


def _alignment_edges_lstsq(kpis, rows, pairs, p, alpha, prefilter_r, degenerate):
    n = len(rows[0])
    if n < 4 * p + 8:
        return []
    sds = [row.std() for row in rows]
    if prefilter_r > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.corrcoef(rows)
    restricted = {}
    edges = []
    for c, e in pairs:
        if sds[c] == 0.0 or sds[e] == 0.0:
            continue
        if prefilter_r > 0.0 and abs(r[c, e]) < prefilter_r:
            continue
        if e not in restricted:
            restricted[e] = _restricted_fit(rows[e][p:], lags(rows[e], p))
        result = _granger_from(lags(rows[c], p), restricted[e])
        if result.degenerate:
            degenerate.append((kpis[c], kpis[e]))
        elif result.p_value < alpha and result.residual_std > band_floor(rows[e]):  # an exact fit is skipped
            edges.append(
                GrangerEdge(
                    cause=kpis[c],
                    effect=kpis[e],
                    weight=1.0 - result.p_value,
                    lag_order=p,
                    coefficients=result.coefficients,
                    residual_std=result.residual_std,
                )
            )
    return edges


def build_graph_lstsq(training, p=3, alpha=0.01, prefilter_r=0.2):
    """The causality graph with one ``lstsq`` fit of the whole unrestricted
    design per pair, each KPI group aligned once; returns the edges and the
    (cause, effect) pairs skipped as degenerate."""
    kpis = sorted(training)
    by_stamps = {}
    for kpi in kpis:
        by_stamps.setdefault(training[kpi].timestamps.tobytes(), []).append(kpi)
    groups = list(by_stamps.values())
    edges, degenerate = [], []
    for i, left in enumerate(groups):
        stamps = training[left[0]].timestamps
        m = len(left)
        rows = [training[kpi].values for kpi in left]
        pairs = [(c, e) for c in range(m) for e in range(m) if c != e]
        edges += _alignment_edges_lstsq(left, rows, pairs, p, alpha, prefilter_r, degenerate)
        for right in groups[i + 1 :]:
            _, il, ir = np.intersect1d(
                stamps, training[right[0]].timestamps, assume_unique=True, return_indices=True
            )
            members = left + right
            rows = [training[kpi].values[il] for kpi in left] + [training[kpi].values[ir] for kpi in right]
            cross = [(c, e) for c in range(m) for e in range(m, len(members))]
            pairs = cross + [(e, c) for c, e in cross]
            edges += _alignment_edges_lstsq(members, rows, pairs, p, alpha, prefilter_r, degenerate)
    return sorted(edges, key=lambda edge: (edge.cause, edge.effect)), degenerate


def build_graph_pairwise(training, p=3, alpha=0.01, prefilter_r=0.2):
    """Every ordered pair aligned with ``intersect1d`` and tested on its own,
    its lags taken by position: the reference on input where every KPI's
    samples are one unbroken run of the cadence grid."""
    kpis = sorted(training)
    edges = []
    for cause in kpis:
        for effect in kpis:
            if cause == effect:
                continue
            _, ic, ie = np.intersect1d(
                training[cause].timestamps, training[effect].timestamps, return_indices=True
            )
            x, y = training[cause].values[ic], training[effect].values[ie]
            if len(x) < 4 * p + 8 or x.std() == 0.0 or y.std() == 0.0:
                continue
            if prefilter_r > 0.0 and abs(float(np.corrcoef(x, y)[0, 1])) < prefilter_r:
                continue
            result = granger_fit(x, y, p)
            if not result.degenerate and result.p_value < alpha and result.residual_std > band_floor(y):
                edges.append(
                    GrangerEdge(
                        cause=cause,
                        effect=effect,
                        weight=1.0 - result.p_value,
                        lag_order=p,
                        coefficients=result.coefficients,
                        residual_std=result.residual_std,
                    )
                )
    return edges


def build_graph_by_timestamp(training, p=3, alpha=0.01, prefilter_r=0.2):
    """Every ordered pair tested on its own, each lag looked up at
    ``t - i * CADENCE_S``: the regression rows are the timestamps where both
    KPIs have a sample and a sample 1..p cadences earlier; the prefilter,
    the constant check and the band floor read those rows and their lags."""
    edges = []
    for cause, effect in itertools.permutations(sorted(training), 2):
        xs = dict(zip(training[cause].timestamps.tolist(), training[cause].values.tolist()))
        ys = dict(zip(training[effect].timestamps.tolist(), training[effect].values.tolist()))
        rows = [
            t
            for t in sorted(xs.keys() & ys.keys())
            if all(t - i * CADENCE_S in xs and t - i * CADENCE_S in ys for i in range(1, p + 1))
        ]
        if len(rows) < 3 * p + 8:
            continue
        read = sorted({t - i * CADENCE_S for t in rows for i in range(p + 1)})
        x, y = np.array([xs[t] for t in read]), np.array([ys[t] for t in read])
        if x.std() == 0.0 or y.std() == 0.0:
            continue
        if prefilter_r > 0.0 and abs(float(np.corrcoef(x, y)[0, 1])) < prefilter_r:
            continue

        def lagged(values):
            return np.array([[values[t - i * CADENCE_S] for t in rows] for i in range(1, p + 1)])

        degenerate, p_value, coefficients, residual_std = lag_test(np.array([ys[t] for t in rows]), lagged(ys), lagged(xs))
        if not degenerate and p_value < alpha and residual_std > band_floor(y):
            edges.append(
                GrangerEdge(
                    cause=cause,
                    effect=effect,
                    weight=1.0 - p_value,
                    lag_order=p,
                    coefficients=coefficients,
                    residual_std=residual_std,
                )
            )
    return edges


def lag_test(target, own, cause):
    """The F test of a cause's lags ``cause`` [p, m] on ``target`` [m] beyond
    its own lags ``own`` [p, m], by two ``lstsq`` fits: (degenerate,
    p-value, unrestricted coefficients, residual std)."""
    m, p = len(target), len(own)
    designs = [np.column_stack([np.ones(m), *own]), np.column_stack([np.ones(m), *own, *cause])]
    fits = [np.linalg.lstsq(design, target, rcond=None) for design in designs]
    if fits[0][2] < p + 1 or fits[1][2] < 2 * p + 1:
        return True, 1.0, (), 0.0
    rss_r, rss_u = (float(np.sum((target - design @ fit[0]) ** 2)) for design, fit in zip(designs, fits))
    rss_u, df = min(rss_u, rss_r), m - 2 * p - 1
    p_value = 0.0 if rss_u <= 0.0 else float(_f_survival(p, df, (rss_r - rss_u) / p / (rss_u / df)))
    return False, p_value, tuple(fits[1][0].tolist()), math.sqrt(rss_u / df)


def baseline_config_from_dict(cfg):
    """The ``config`` block of a baseline file, each value typed by hand."""
    return BaselineConfig(
        typed("config lag_order", cfg["lag_order"], int),
        *(typed(f"config {name}", cfg[name], float) for name in ("alpha", "k_sigma", "prefilter_r")),
    )


def baseline_from_dict(data):
    """``BaselineModel.from_dict`` as it was before a model checked its
    values as whole arrays: each value typed on its own, each band and edge
    checked by its row's rules as it is read, then every edge against the
    model.  Returns what it reads as ``to_dict()`` rendered a model then,
    band by band and edge by edge."""
    check_kind(data, BASELINE_KIND, BASELINE_SCHEMA_VERSION)
    config = baseline_config_from_dict(data["config"])
    baselines = {}
    for item in data["baselines"]:
        kpi = KpiId(item["resource"], item["metric"])
        if kpi in baselines:
            raise ValueError(f"{kpi} has two baselines")
        means, stds = (
            np.array([typed(f"{kpi} {key}", v, float) for v in item[key]]) for key in ("bucket_means", "bucket_stds")
        )
        k_sigma, std_floor, global_mean, global_std = (
            typed(f"{kpi} {key}", item[key], float) for key in ("k_sigma", "std_floor", "global_mean", "global_std")
        )
        if means.shape != (HOURS_PER_WEEK,) or stds.shape != (HOURS_PER_WEEK,):
            raise ValueError("bucket_means and bucket_stds must have 168 entries")
        if not 0.0 < k_sigma < math.inf:
            raise ValueError(f"k_sigma {k_sigma!r} must be finite and positive")
        if not 0.0 < std_floor < math.inf:
            raise ValueError(f"std_floor {std_floor!r} must be finite and positive")
        if not np.isfinite(np.r_[means, stds, global_mean, global_std]).all():
            raise ValueError(f"the bucket and global means and stds of {kpi} must be finite")
        if np.any(stds < std_floor):
            raise ValueError("bucket stds must respect the std floor")
        baselines[kpi] = UnivariateBaseline(kpi, means, stds, k_sigma, std_floor, global_mean, global_std)
    edges = []
    for item in data["edges"]:
        cause, effect = KpiId(*item["cause"]), KpiId(*item["effect"])
        name = f"edge {cause} -> {effect}"
        weight, residual_std = (typed(f"{name} {key}", item[key], float) for key in ("weight", "residual_std"))
        lag_order = typed(f"{name} lag_order", item["lag_order"], int)
        coefficients = tuple(typed(f"{name} coefficients", c, float) for c in item["coefficients"])
        if cause == effect:
            raise ValueError("an edge may not loop onto its own KPI")
        if not (0.0 <= weight <= 1.0):
            raise ValueError("edge weight must lie in [0, 1]")
        if len(coefficients) != 2 * lag_order + 1:
            raise ValueError("expected 2p + 1 regression coefficients")
        if not all(map(math.isfinite, coefficients)):
            raise ValueError("regression coefficients must be finite")
        if not 0.0 < residual_std < math.inf:
            raise ValueError(f"residual_std {residual_std!r} must be finite and positive")
        edges.append(GrangerEdge(cause, effect, weight, lag_order, coefficients, residual_std))
    for edge in edges:
        for endpoint in (edge.cause, edge.effect):
            if endpoint not in baselines:
                raise ValueError(f"edge endpoint {endpoint} has no baseline entry")
        if edge.lag_order != config.lag_order:
            raise ValueError(f"edge {edge.cause} -> {edge.effect} has lag order {edge.lag_order}")
    return {
        "kind": BASELINE_KIND,
        "schema_version": BASELINE_SCHEMA_VERSION,
        "config": {
            "lag_order": config.lag_order,
            "alpha": config.alpha,
            "k_sigma": config.k_sigma,
            "prefilter_r": config.prefilter_r,
        },
        "baselines": [
            {
                "resource": b.kpi.resource,
                "metric": b.kpi.metric,
                "k_sigma": b.k_sigma,
                "std_floor": b.std_floor,
                "global_mean": b.global_mean,
                "global_std": b.global_std,
                "bucket_means": [float(v) for v in b.bucket_means],
                "bucket_stds": [float(v) for v in b.bucket_stds],
            }
            for _, b in sorted(baselines.items())
        ],
        "edges": [
            {
                "cause": [e.cause.resource, e.cause.metric],
                "effect": [e.effect.resource, e.effect.metric],
                "weight": e.weight,
                "lag_order": e.lag_order,
                "coefficients": list(e.coefficients),
                "residual_std": e.residual_std,
            }
            for e in edges
        ],
    }


def zscores(baseline, timestamps, values):
    """|value - expected| / bucket std of a band, element-wise."""
    bucket = hour_of_week(np.asarray(timestamps))
    return np.abs(np.asarray(values, dtype=float) - baseline.bucket_means[bucket]) / baseline.bucket_stds[bucket]


def detect_univariate(baseline, timestamps, values, interval_start=None):
    """One interval against the seasonal band: an event iff the largest
    z-score exceeds k_sigma."""
    timestamps = np.asarray(timestamps, dtype=np.int64)
    if len(timestamps) == 0:
        return None
    z = zscores(baseline, timestamps, values)
    peak = float(z.max())
    if peak > baseline.k_sigma:
        start = int(timestamps[0]) if interval_start is None else int(interval_start)
        return AnomalyEvent(start, baseline.kpi, AnomalyKind.UNIVARIATE, peak)
    return None


def predict_from_edge(edge, x, y):
    """One-step predictions of the effect at every position with p lags."""
    p = edge.lag_order
    if len(y) <= p:
        return np.empty(0)
    coef = np.asarray(edge.coefficients)
    n = len(y)
    pred = np.full(n - p, coef[0])
    for i in range(1, p + 1):
        pred += coef[i] * y[p - i : n - i]
        pred += coef[p + i] * x[p - i : n - i]
    return pred


def detect_multivariate(edge, x_recent, y_recent, h, tau=DEFAULT_TAU, interval_start=None):
    """Score the effect over the last ``h`` samples of aligned histories:
    RMS(residuals) / residual_std, an event iff it exceeds ``tau``."""
    x = np.asarray(x_recent, dtype=float)
    y = np.asarray(y_recent, dtype=float)
    if h <= 0:
        raise ValueError("h must be positive")
    p = edge.lag_order
    if len(y) < p + h or len(x) < p + h:
        return None
    pred = predict_from_edge(edge, x, y)[-h:]
    resid = y[-h:] - pred
    score = float(np.sqrt(np.mean(resid**2)) / edge.residual_std)
    if score > tau:
        start = 0 if interval_start is None else int(interval_start)
        return AnomalyEvent(start, edge.effect, AnomalyKind.MULTIVARIATE, score)
    return None


def _interval_slices(timestamps, run_start):
    """(interval_start, lo, hi) per interval, from the first ``run_start``-aligned
    interval that holds a sample."""
    if len(timestamps) == 0:
        return
    end = int(timestamps[-1]) + 1
    start = run_start + max(0, (int(timestamps[0]) - run_start) // INTERVAL_S) * INTERVAL_S
    while start < end:
        lo = np.searchsorted(timestamps, start, side="left")
        hi = np.searchsorted(timestamps, start + INTERVAL_S, side="left")
        yield start, int(lo), int(hi)
        start += INTERVAL_S


def detect_univariate_loop(model, series_map, run_start):
    """One univariate detector call per (KPI, interval)."""
    events = []
    expected = INTERVAL_S // CADENCE_S
    for kpi in sorted(series_map):
        if kpi not in model.baselines:
            logger.warning("detect: no baseline for %s; skipping", kpi)
            continue
        baseline = model.baselines[kpi]
        series = series_map[kpi]
        for interval_start, lo, hi in _interval_slices(series.timestamps, run_start):
            if 2 * (hi - lo) < expected:
                continue
            event = detect_univariate(
                baseline, series.timestamps[lo:hi], series.values[lo:hi], interval_start=interval_start
            )
            if event is not None:
                events.append(event)
    return events


def _interval_bins(timestamps, run_start):
    """(start, lo, hi) arrays of the intervals of ``_interval_slices`` that
    hold a sample."""
    bins = np.array([b for b in _interval_slices(timestamps, run_start) if b[2] > b[1]], dtype=np.int64)
    return bins.reshape(-1, 3).T


def detect_stream_loop(model, series_map, run_start, *, tau=DEFAULT_TAU):
    """One detector call per (KPI, interval) and per (edge, interval), each
    edge aligned on its own by position and re-predicting the whole prefix:
    the reference on input where every KPI's samples are one unbroken run of
    the cadence grid."""
    events = detect_univariate_loop(model, series_map, run_start)
    expected = INTERVAL_S // CADENCE_S
    worst = {}
    for edge in model.edges:
        if edge.cause not in series_map or edge.effect not in series_map:
            continue
        cause = series_map[edge.cause]
        effect = series_map[edge.effect]
        common, ic, ie = np.intersect1d(cause.timestamps, effect.timestamps, return_indices=True)
        if len(common) == 0:
            continue
        x = cause.values[ic]
        y = effect.values[ie]
        p = edge.lag_order
        for interval_start, lo, hi in _interval_slices(common, run_start):
            h = hi - lo
            if 2 * h < expected or lo < p:
                continue
            event = detect_multivariate(edge, x[:hi], y[:hi], h, tau=tau, interval_start=interval_start)
            if event is not None:
                key = (interval_start, edge.effect)
                seen = worst.get(key)
                if seen is None or event.score > seen.score:
                    worst[key] = event
    events.extend(worst.values())
    events.sort()
    return events


def detect_stream_by_timestamp(model, series_map, run_start, *, tau=DEFAULT_TAU):
    """Per (KPI, interval) and per (edge, interval), each lag looked up at
    ``t - i * CADENCE_S``.  An (edge, interval) is scored when at least half
    the expected samples have both KPIs (aligned) and every aligned sample
    has both KPIs' samples 1..p cadences earlier; its score is RMS(residuals
    of the aligned samples) / residual_std."""
    events = detect_univariate_loop(model, series_map, run_start)
    expected = INTERVAL_S // CADENCE_S
    worst = {}
    for edge in model.edges:
        xs = dict(zip(series_map[edge.cause].timestamps.tolist(), series_map[edge.cause].values.tolist()))
        ys = dict(zip(series_map[edge.effect].timestamps.tolist(), series_map[edge.effect].values.tolist()))
        aligned = np.array(sorted(xs.keys() & ys.keys()), dtype=np.int64)
        p, coef = edge.lag_order, edge.coefficients
        for interval_start, lo, hi in _interval_slices(aligned, run_start):
            rows = aligned[lo:hi].tolist()
            earlier = [t - i * CADENCE_S for t in rows for i in range(1, p + 1)]
            if 2 * len(rows) < expected or any(t not in xs or t not in ys for t in earlier):
                continue
            resid = []
            for t in rows:
                pred = coef[0]
                for i in range(1, p + 1):
                    pred += coef[i] * ys[t - i * CADENCE_S]
                    pred += coef[p + i] * xs[t - i * CADENCE_S]
                resid.append(ys[t] - pred)
            score = float(np.sqrt(np.mean(np.square(resid))) / edge.residual_std)
            key = (interval_start, edge.effect)
            if score > tau and score > worst.get(key, -math.inf):
                worst[key] = score
    events.extend(AnomalyEvent(start, kpi, AnomalyKind.MULTIVARIATE, score) for (start, kpi), score in worst.items())
    return sorted(events)


def _edge_scores_per_edge(edges, x, y, lo, hi):
    """RMS(one-step residuals) / residual_std of ``edges``, one lag order p,
    over every ``[lo, hi)`` interval of their aligned rows ``x`` and ``y``."""
    p = edges[0].lag_order
    n = y.shape[1]
    coef = np.array([edge.coefficients for edge in edges])
    pred = np.empty((len(edges), n - p))
    pred[:] = coef[:, :1]
    for i in range(1, p + 1):
        pred += coef[:, i : i + 1] * y[:, p - i : n - i]
        pred += coef[:, p + i : p + i + 1] * x[:, p - i : n - i]
    sq = (y[:, p:] - pred) ** 2
    h = hi - lo
    sums = np.empty((len(edges), len(lo)))
    for width in np.unique(h):
        at = np.flatnonzero(h == width)
        cols = (lo[at] - p)[:, None] + np.arange(width)
        sums[:, at] = np.add.reduce(np.take(sq, cols, axis=1), axis=-1)
    std = np.array([edge.residual_std for edge in edges])
    return np.sqrt(sums / h) / std[:, None]


def detect_stream_batched(model, series_map, run_start, *, tau=DEFAULT_TAU, chunk_cells=1 << 18):
    """Array passes keyed by ``KpiId``: one z-score call per KPI, edge blocks
    stacked per (cause timestamps, effect timestamps, p) from the model's
    edges, the worst multivariate score per (interval, effect) kept in a
    dict, and one sort of the ``AnomalyEvent`` list."""
    events = []
    expected = INTERVAL_S // CADENCE_S
    stamps = {kpi: series.timestamps.tobytes() for kpi, series in series_map.items()}
    bins = {}
    shared = {}

    def start_of(value):
        value = int(value)
        return shared.setdefault(value, value)

    for kpi in sorted(series_map):
        baseline = model.baselines.get(kpi)
        if baseline is None:
            logger.warning("detect: no baseline for %s; skipping", kpi)
            continue
        series = series_map[kpi]
        if stamps[kpi] not in bins:
            bins[stamps[kpi]] = _interval_bins(series.timestamps, run_start)
        starts, lo, hi = bins[stamps[kpi]]
        peaks = np.maximum.reduceat(zscores(baseline, series.timestamps, series.values), lo)
        for i in np.flatnonzero((2 * (hi - lo) >= expected) & (peaks > baseline.k_sigma)):
            events.append(AnomalyEvent(start_of(starts[i]), kpi, AnomalyKind.UNIVARIATE, float(peaks[i])))

    blocks = {}
    for edge in model.edges:
        if edge.cause in series_map and edge.effect in series_map:
            blocks.setdefault((stamps[edge.cause], stamps[edge.effect], edge.lag_order), []).append(edge)
    worst = {}
    for (cause_key, effect_key, p), edges in blocks.items():
        cause_ts = series_map[edges[0].cause].timestamps
        if cause_key == effect_key:
            common, ic, ie = cause_ts, slice(None), slice(None)
        else:
            common, ic, ie = np.intersect1d(
                cause_ts, series_map[edges[0].effect].timestamps, assume_unique=True, return_indices=True
            )
        if len(common) == 0:
            continue
        starts, lo, hi = _interval_bins(common, run_start)
        keep = (2 * (hi - lo) >= expected) & (lo >= p)
        starts, lo, hi = starts[keep], lo[keep], hi[keep]
        if len(lo) == 0:
            continue
        step = max(1, chunk_cells // len(common))
        for first in range(0, len(edges), step):
            chunk = edges[first : first + step]
            x = np.stack([series_map[edge.cause].values for edge in chunk])[:, ic]
            y = np.stack([series_map[edge.effect].values for edge in chunk])[:, ie]
            scores = _edge_scores_per_edge(chunk, x, y, lo, hi)
            for e, s in zip(*np.nonzero(scores > tau)):
                key = (start_of(starts[s]), chunk[e].effect)
                score = float(scores[e, s])
                if score > worst.get(key, -math.inf):
                    worst[key] = score
    for (start, kpi), score in worst.items():
        events.append(AnomalyEvent(start, kpi, AnomalyKind.MULTIVARIATE, score))
    events.sort()
    return events


def _edge_scores_masked(coef, x, y, full, lo):
    """Sums of squared one-step residuals of every edge over every interval
    starting at ``lo``: row i of ``x``, ``y`` and ``coef`` holds edge i's
    cause and effect frame rows and its 2p + 1 coefficients, and only the
    columns where row i of ``full`` holds count, each interval's squares, 0
    where not counted, summed as one contiguous row."""
    p = coef.shape[1] // 2
    y_lags, x_lags = lags(y, p), lags(x, p)
    pred = np.empty((len(coef), y.shape[1] - p))
    pred[:] = coef[:, :1]
    for i in range(p):
        pred += coef[:, 1 + i, None] * y_lags[:, i]
        pred += coef[:, p + 1 + i, None] * x_lags[:, i]
    sq = np.zeros(y.shape)
    np.copyto(sq[:, p:], (y[:, p:] - pred) ** 2, where=full[:, p:])
    h = np.diff(lo, append=y.shape[1])
    sums = np.empty((len(coef), len(lo)))
    for width in np.unique(h):
        at = np.flatnonzero(h == width)
        cols = lo[at][:, None] + np.arange(width)
        sums[:, at] = np.add.reduce(np.take(sq, cols, axis=1), axis=-1)
    return sums


def detect_stream_edge_masks(model, series_map, run_start, *, tau=DEFAULT_TAU, chunk_cells=1 << 18):
    """The model-array detector with every edge's masks of its own: edges
    scored in model order in blocks of ``chunk_cells`` cells, each block's
    masks from its edges' ``history`` and presence rows, one temporary per
    lag term, the interval sums through ``np.take`` copies, and the worst
    score per (interval, effect) kept by a 4-key sort of every exceedance."""
    check_tau(tau)
    frame = Frame.of(series_map, model.kpis)
    present = np.isfinite(frame.values)
    missing = np.flatnonzero(~present.any(axis=1))
    if len(missing):
        raise FaultcastError(f"the data lacks {len(missing)} of the baseline's KPIs, first {model.kpis[missing[0]]}")
    if not len(frame.timestamps):
        return AnomalyEvents(model.kpis, [], [], [], [])
    expected = INTERVAL_S // CADENCE_S
    starts, lo = _frame_bins(frame.timestamps, run_start)
    bucket = hour_of_week(frame.timestamps)
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.abs(frame.values - model.bucket_means[:, bucket]) / model.bucket_stds[:, bucket]
    peaks = np.fmax.reduceat(z, lo, axis=1)
    coverage = np.add.reduceat(present, lo, axis=1, dtype=np.intp)
    evaluated = 2 * coverage >= expected
    _check_scores(evaluated, peaks, starts, lambda r: str(model.kpis[r]))
    r, i = np.nonzero(evaluated & (peaks > model.k_sigma[:, None]))
    found = [(starts[i], r, _UNIVARIATE, peaks[r, i])]

    history = frame.history(model.config.lag_order)
    step = max(1, chunk_cells // len(frame.timestamps))
    for chunk in np.split(np.arange(len(model.edges)), np.arange(step, len(model.edges), step)):
        cause, effect = model.cause[chunk], model.effect[chunk]
        full = history[cause] & history[effect]
        aligned = np.add.reduceat(present[cause] & present[effect], lo, axis=1, dtype=np.intp)
        scored = np.add.reduceat(full, lo, axis=1, dtype=np.intp)
        ok = (2 * scored >= expected) & (scored == aligned)
        if not ok.any():
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _edge_scores_masked(model.coefficients[chunk], frame.values[cause], frame.values[effect], full, lo)
            scores = np.sqrt(sums / np.maximum(scored, 1)) / model.residual_std[chunk, None]
        _check_scores(ok, scores, starts, lambda e: f"edge {model.kpis[cause[e]]} -> {model.kpis[effect[e]]}")
        e, i = np.nonzero(ok & (scores > tau))
        found.append((starts[i], effect[e], _MULTIVARIATE, scores[e, i]))

    start = np.concatenate([part[0] for part in found])
    kpi = np.concatenate([part[1] for part in found])
    kind = np.concatenate([np.full(len(part[0]), part[2], np.int8) for part in found])
    score = np.concatenate([part[3] for part in found])
    order = np.lexsort((-score, kind, kpi, start))
    start, kpi, kind, score = start[order], kpi[order], kind[order], score[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(start) != 0) | (np.diff(kpi) != 0) | (np.diff(kind) != 0)
    return AnomalyEvents(model.kpis, start[first], kpi[first], kind[first], score[first])


def write_anomaly_log_rows(events, stream):
    """One ``csv.writer`` row and one ``strftime`` per event."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(ANOMALY_LOG_HEADER)
    for event in events:
        writer.writerow(
            [
                format_timestamp(event.interval_start),
                event.kpi.resource,
                event.kpi.metric,
                event.kind.value,
                repr(event.score),
            ]
        )


def read_anomaly_log_rows(stream):
    """One ``AnomalyEvent`` per row, each validated on its own."""
    reader = csv_records(stream)
    header = next(reader, None)
    if header != ANOMALY_LOG_HEADER:
        raise CsvParseError(1, f"expected header {','.join(ANOMALY_LOG_HEADER)!r}, got {header!r}")
    events = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise CsvParseError(line_no, f"expected 5 fields, got {len(row)}")
        try:
            ts = parse_timestamp(row[0])
        except ValueError:
            raise CsvParseError(line_no, f"bad timestamp {row[0]!r}") from None
        try:
            kpi = KpiId(row[1], row[2])
            events.append(AnomalyEvent(ts, kpi, AnomalyKind(row[3]), float(row[4])))
        except ValueError as exc:
            raise CsvParseError(line_no, str(exc)) from None
    return events


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
    def is_leaf(self):
        return self.feature is None

    def to_dict(self):
        if self.is_leaf:
            return {
                "class_index": self.class_index,
                "total": self.total,
                "correct": self.correct,
                "counts": list(self.counts),
            }
        return {"feature": self.feature, "nominal": self.nominal.to_dict(), "anomalous": self.anomalous.to_dict()}


@dataclass(frozen=True)
class NodeTree:
    """A decision tree as a graph of :class:`TreeNode` objects."""

    classes: Tuple[FailureClass, ...]
    n_features: int
    min_leaf: int
    max_depth: Optional[int]
    root: TreeNode

    def to_dict(self):
        return {"min_leaf": self.min_leaf, "max_depth": self.max_depth, "root": self.root.to_dict()}


def distribution_top(classes, probs):
    """The most likely class and its probability: the classes scanned in
    sorted order, a later one taken only when strictly more likely."""
    best, best_p = None, -1.0
    for cls, p in sorted(zip(classes, probs)):
        if p > best_p:
            best, best_p = cls, float(p)
    return best, best_p


def entropy(counts):
    """Entropy in bits of one class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def grow_tree_loop(x, y, n_classes, min_leaf, max_depth, indices=None, depth=0):
    """One ``np.bincount`` and two ``entropy`` calls per feature per node."""
    if indices is None:
        indices = np.arange(len(y))
    counts = np.bincount(y[indices], minlength=n_classes)
    majority = int(np.argmax(counts))

    def leaf():
        return TreeNode(
            class_index=majority,
            total=int(counts.sum()),
            correct=int(counts[majority]),
            counts=tuple(int(c) for c in counts),
        )

    n = len(indices)
    if counts.max() == n:
        return leaf()
    if n < 2 * min_leaf:
        return leaf()
    if max_depth is not None and depth >= max_depth:
        return leaf()

    parent_entropy = entropy(counts)
    best_gain = 0.0
    best_feature = None
    sub = x[indices]
    for f in range(x.shape[1]):
        mask = sub[:, f] != 0
        n_on = int(mask.sum())
        n_off = n - n_on
        if n_on < min_leaf or n_off < min_leaf:
            continue
        on_counts = np.bincount(y[indices[mask]], minlength=n_classes)
        off_counts = counts - on_counts
        child = (n_on * entropy(on_counts) + n_off * entropy(off_counts)) / n
        gain = parent_entropy - child
        if gain > best_gain + _GAIN_EPS:
            best_gain = gain
            best_feature = f
    if best_feature is None or best_gain <= _GAIN_EPS:
        return leaf()
    mask = sub[:, best_feature] != 0
    return TreeNode(
        feature=best_feature,
        nominal=grow_tree_loop(x, y, n_classes, min_leaf, max_depth, indices[~mask], depth + 1),
        anomalous=grow_tree_loop(x, y, n_classes, min_leaf, max_depth, indices[mask], depth + 1),
    )


def grow_tree_recursive(on, one_hot, y, indices, n_classes, min_leaf, max_depth, depth=0):
    """One node at a time: ``on`` is the [N, F] 0/1 matrix of set bits and
    ``one_hot`` the [N, C] labels, both as floats; one matmul gives a node's
    per-class counts of every bit and one ``_entropies`` call its gains."""
    counts = np.bincount(y[indices], minlength=n_classes)
    majority = int(np.argmax(counts))

    def leaf():
        return TreeNode(
            class_index=majority,
            total=int(counts.sum()),
            correct=int(counts[majority]),
            counts=tuple(int(c) for c in counts),
        )

    n = len(indices)
    if counts.max() == n:  # pure node
        return leaf()
    if n < 2 * min_leaf:
        return leaf()
    if max_depth is not None and depth >= max_depth:
        return leaf()

    sub = on[indices]
    on_counts = (sub.T @ one_hot[indices]).astype(np.int64)
    n_on = on_counts.sum(axis=1)
    n_off = n - n_on
    valid = np.flatnonzero((n_on >= min_leaf) & (n_off >= min_leaf))
    gains = np.full(len(n_on), -np.inf)
    if len(valid):
        n_on, n_off, on_counts = n_on[valid], n_off[valid], on_counts[valid]
        h = _entropies(np.concatenate([counts[None], on_counts, counts - on_counts]))
        child = (n_on * h[1 : len(valid) + 1] + n_off * h[len(valid) + 1 :]) / n
        gains[valid] = h[0] - child
    best_feature = best_feature_scan(gains)
    if best_feature is None:
        return leaf()
    mask = sub[:, best_feature] == 1.0

    def grow(part):
        return grow_tree_recursive(on, one_hot, y, part, n_classes, min_leaf, max_depth, depth + 1)

    return TreeNode(feature=best_feature, nominal=grow(indices[~mask]), anomalous=grow(indices[mask]))


def train_tree_recursive(x, y, n_classes, min_leaf, max_depth):
    """The root ``grow_tree_recursive`` grows over every sample."""
    on = (np.asarray(x) != 0).astype(float)
    return grow_tree_recursive(on, np.eye(n_classes)[y], y, np.arange(len(y)), n_classes, min_leaf, max_depth)


def best_feature_scan(gains):
    """The split choice of ``grow_tree_loop`` over precomputed gains."""
    best_gain, best_feature = 0.0, None
    for f, gain in enumerate(gains):
        if gain > best_gain + _GAIN_EPS:
            best_gain, best_feature = gain, f
    return best_feature


def tree_proba_row(model, bits):
    """Walk one bit vector down a :class:`NodeTree`; spread the leaf's
    residual mass."""
    bits = np.asarray(bits)
    if bits.shape != (model.n_features,):
        raise ValueError(f"feature vector has dimension {bits.shape}, model expects {model.n_features}")
    node = model.root
    while not node.is_leaf:
        node = node.anomalous if bits[node.feature] else node.nominal
    k = len(model.classes)
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


def nb_proba_row(model, bits):
    """Multiply one bit vector's likelihoods in feature order, rescaling by
    2**340 whenever every class drops below 1e-100."""
    bits = np.asarray(bits)
    if bits.shape != (model.n_features,):
        raise ValueError(f"feature vector has dimension {bits.shape}, model expects {model.n_features}")
    probs = model.priors.copy()
    for j in range(model.n_features):
        probs = probs * (model.theta[:, j] if bits[j] else 1.0 - model.theta[:, j])
        if probs.max() < 1e-100:
            probs = np.ldexp(probs, 340)
    total = probs.sum()
    if total == 0.0:
        return np.full(len(model.classes), 1.0 / len(model.classes))
    return probs / total


def leaves_block_map(model, on, node, cells=1 << 16):
    """The leaf each row of the [n, F] bool matrix ``on`` reaches from its
    start node in ``node``, in blocks of rows: a block reads every node's bit
    at once into one flat map of each row's next nodes (a leaf's is itself),
    about ``cells`` of them, then steps all its rows down through the map
    as many times as the deepest leaf is deep."""
    split = model.feature >= 0
    nominal = np.where(split, model.child, np.arange(len(split)))
    anomalous, bit = nominal + split, np.where(split, model.feature, 0)
    depth = np.zeros(len(split), dtype=np.intp)
    for i in np.flatnonzero(split).tolist():  # a parent precedes its children
        depth[model.child[i] : model.child[i] + 2] = depth[i] + 1
    node = node.copy()
    size = max(1, cells // len(bit))
    for lo in range(0, len(on), size):
        block = on[lo : lo + size]
        offset = np.arange(len(block)) * len(bit)  # row r's map starts at r * nodes
        step = (np.where(block[:, bit], anomalous, nominal) + offset[:, None]).ravel()
        at = node[lo : lo + size] + offset
        for _ in range(int(depth.max())):
            at = step[at]
        node[lo : lo + size] = at - offset
    return node


def stratified_folds_loop(labels, k, seed):
    """Each fold's sorted sample indices: samples shuffled by the seed,
    grouped by class one at a time, and dealt to folds round-robin with a
    cursor that carries across the classes in sorted order.  Classes with
    fewer than k samples are reported with a warning."""
    n = len(labels)
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"need at least {k} samples for {k}-fold validation")
    order = np.random.default_rng(seed).permutation(n)
    by_class = {}
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
    folds = [[] for _ in range(k)]
    cursor = 0
    for cls in sorted(by_class):
        for idx in by_class[cls]:
            folds[cursor].append(idx)
            cursor = (cursor + 1) % k
    return [np.asarray(sorted(fold), dtype=np.intp) for fold in folds]


def cross_validate_rows(pool, vocab, k=10, seed=0, algorithm="tree", min_leaf=2, max_depth=None, alpha=1.0):
    """(truth, predicted) per window: the windows' feature sets encoded one
    by one, loop-grown trees, one prediction per held-out window."""
    if not len(pool):
        raise ValueError("no window samples to train on")
    classes = tuple(sorted(set(pool.labels)))
    x = np.stack([encode_features(vocab, features) for features in pool_features(pool)])
    y = np.array([classes.index(label) for label in pool.labels], dtype=np.intp)
    folds = stratified_folds_loop(pool.labels, k, seed)
    preds = np.full(len(y), -1, dtype=np.intp)
    for fold in folds:
        train = np.setdiff1d(np.arange(len(y)), fold)
        if algorithm == "tree":
            root = grow_tree_loop(x[train], y[train], len(classes), min_leaf, max_depth)
            model = NodeTree(classes, x.shape[1], min_leaf, max_depth, root)
            proba = tree_proba_row
        else:
            model = train_nb(x[train], y[train], classes, alpha=alpha)
            proba = nb_proba_row
        for idx in fold:
            preds[idx] = int(np.argmax(proba(model, x[idx])))
    return [(classes[t], classes[p]) for t, p in zip(y, preds)]


def encode_features(vocab, features):
    """A feature set as a uint8 bit vector, one dict lookup per (KPI, kind)
    pair; pairs outside the vocabulary set no bit."""
    kinds = (AnomalyKind.UNIVARIATE, AnomalyKind.MULTIVARIATE)
    index = {
        (kpi, kind): 2 * i + offset if vocab.split_kinds else i
        for i, kpi in enumerate(vocab.kpis)
        for offset, kind in enumerate(kinds)
    }
    bits = np.zeros(vocab.dimension, dtype=np.uint8)
    for feature in features:
        if feature in index:
            bits[index[feature]] = 1
    return bits


def _features(events):
    return frozenset((event.kpi, event.kind) for event in events)


def window_features(events):
    """The feature set of anomaly events: their distinct (KPI, kind) pairs,
    read from the columns of :class:`AnomalyEvents`."""
    if isinstance(events, AnomalyEvents):
        pairs = set(zip(events.kpi.tolist(), events.kind.tolist()))
        return frozenset((events.kpis[kpi], _KINDS[kind]) for kpi, kind in pairs)
    return _features(events)


def windowize_events(events, windows):
    """Each (start, end) window's feature set: events grouped by interval
    start, each window the union of the groups bisected into its range."""
    by_start = attrgetter("interval_start")
    starts, per_interval = [], []
    for start, group in groupby(sorted(events, key=by_start), by_start):
        starts.append(start)
        per_interval.append(window_features(group))
    return [
        frozenset().union(*per_interval[bisect_left(starts, start) : bisect_left(starts, end)])
        for start, end in windows
    ]


def windowize_events_scan(events, windows):
    """Every event tested against every window."""
    events = list(events)
    return [_features(e for e in events if start <= e.interval_start < end) for start, end in windows]


def buffer_anomalies(buffer):
    """A predictor buffer of (interval_start, events) pairs, scanned whole."""
    return _features(event for _, events in buffer for event in events)


def pool_features(pool):
    """Each window of a pool as its frozenset of (KpiId, AnomalyKind) pairs."""
    return [
        frozenset((pool.kpis[k], _KINDS[c]) for k, c in zip(*np.nonzero(cells)))
        for cells in pool.cells
    ]


def pool_of(windows):
    """A pool from (start, end, feature set, label) windows."""
    windows = list(windows)
    kpis = tuple(sorted({kpi for _, _, features, _ in windows for kpi, _ in features}))
    cells = np.zeros((len(windows), len(kpis), 2), dtype=bool)
    for i, (_, _, features, _) in enumerate(windows):
        for kpi, kind in features:
            cells[i, kpis.index(kpi), _KINDS.index(kind)] = True
    start = np.array([w[0] for w in windows], dtype=np.int64)
    end = np.array([w[1] for w in windows], dtype=np.int64)
    return Windows(kpis, cells, start, end, tuple(w[3] for w in windows))


@dataclass(frozen=True)
class BufferedState:
    """The predictor state as an (interval_start, feature set) pair per
    interval still inside the window."""

    window_min: int
    buffer: Tuple[Tuple[int, frozenset], ...] = ()
    last_interval: Optional[int] = None
    streak_class: Optional[FailureClass] = None
    streak_len: int = 0
    active_class: Optional[FailureClass] = None
    fs_fired: bool = False

    def window_anomalies(self):
        return frozenset().union(*(features for _, features in self.buffer))


def step_buffered(
    state, interval_start, events, signature, *, confidence_threshold=DEFAULT_CONFIDENCE, streak_needed=DEFAULT_STREAK
):
    """The predictor step over a buffer of per-interval feature sets, each
    window's set encoded by dict lookups."""
    check_alert_rule(confidence_threshold, streak_needed)
    if state.last_interval is not None and interval_start <= state.last_interval:
        raise OrderingError(f"interval {interval_start} is not after {state.last_interval}")
    window_end = interval_start + INTERVAL_S
    window_start = window_end - state.window_min * 60
    buffer = tuple((start, features) for start, features in state.buffer if start >= window_start)
    interim = replace(state, buffer=buffer + ((interval_start, window_features(events)),), last_interval=interval_start)
    anomalies = interim.window_anomalies()
    probs = signature.model.predict_proba(encode_features(signature.vocabulary, anomalies))
    top_class, top_p = distribution_top(signature.classes, probs)
    if top_class.is_normal:
        return replace(interim, streak_class=None, streak_len=0, active_class=None, fs_fired=False), None
    if top_p >= confidence_threshold:
        if state.streak_class == top_class:
            streak_class, streak_len, fs_fired = top_class, state.streak_len + 1, state.fs_fired
        else:
            streak_class, streak_len, fs_fired = top_class, 1, False
    else:
        streak_class, streak_len, fs_fired = None, 0, False
    alert = None
    active_class = state.active_class
    if active_class != top_class:
        alert = Alert(AlertKind.GENERAL, window_end, None, top_p, anomalies)
        active_class = top_class
    elif streak_len >= streak_needed and not fs_fired:
        alert = Alert(AlertKind.FAILURE_SPECIFIC, window_end, top_class, top_p, anomalies)
        fs_fired = True
    return (
        replace(interim, streak_class=streak_class, streak_len=streak_len, active_class=active_class, fs_fired=fs_fired),
        alert,
    )


def default_run_specs_loops(config):
    """The bundled run pool, one nested loop per kind of run."""
    specs = []
    duration_s = config.run_duration_min * 60

    def day(i):
        return run_day(config, i)

    def make_fault(fault_type, resource, pattern, start):
        return FaultSpec(
            fault_type=fault_type,
            resource=resource,
            pattern=pattern,
            injection_time=start + config.injection_min * 60,
        )

    idx = 0
    for fault_type in _HOST_FAULTS:
        for resource in config.fault_targets:
            for pattern in Pattern:
                start = day(idx) + config.run_hour * 3600
                run_id = f"{fault_type.value}-{resource}-{pattern.value}".lower()
                specs.append(
                    RunSpec(
                        run_id=run_id,
                        start=start,
                        duration_s=duration_s,
                        seed=config.seed * 1009 + idx,
                        fault=make_fault(fault_type, resource, pattern, start),
                    )
                )
                idx += 1
    for pattern in Pattern:
        start = day(idx) + config.run_hour * 3600
        run_id = f"{FaultType.EXCESSIVE_WORKLOAD.value}-{pattern.value}".lower()
        specs.append(
            RunSpec(
                run_id=run_id,
                start=start,
                duration_s=duration_s,
                seed=config.seed * 1009 + idx,
                fault=make_fault(FaultType.EXCESSIVE_WORKLOAD, SYSTEM_RESOURCE, pattern, start),
            )
        )
        idx += 1

    passing = (
        ("passing-1", config.run_hour, 0.0),
        ("passing-2", config.run_hour, 0.0),
        ("passing-3", config.quiet_hour, 0.0),
        ("passing-dev-1", config.run_hour, 0.5),
        ("passing-dev-2", config.quiet_hour, 0.5),
        ("passing-dev-3", config.quiet_hour, 0.5),
    )
    for run_id, hour, deviation in passing:
        specs.append(
            RunSpec(
                run_id=run_id,
                start=day(idx) + hour * 3600,
                duration_s=duration_s,
                seed=config.seed * 1009 + idx,
                deviation=deviation,
            )
        )
        idx += 1
    return specs


def rq3_run_specs_loops(config, deviations, runs_per_deviation, duration_min):
    """RQ3's fault-free runs, one loop per deviation level and repeat."""
    specs = []
    idx = 0
    for deviation in deviations:
        for i in range(runs_per_deviation):
            start = run_day(config, idx) + config.quiet_hour * 3600
            run_id = f"random{int(round(100 * deviation))}-{i + 1}"
            specs.append(
                RunSpec(run_id, start, duration_min * 60, config.seed * 7177 + idx, deviation=deviation)
            )
            idx += 1
    return specs


def rq4_run_specs_loops(config, seeds_per_combo, duration_min, target):
    """RQ4's faulty runs, one loop per fault type, pattern and seed."""
    specs = []
    idx = 0
    for fault_type in _HOST_FAULTS + (FaultType.EXCESSIVE_WORKLOAD,):
        resource = SYSTEM_RESOURCE if fault_type is FaultType.EXCESSIVE_WORKLOAD else target
        for pattern in Pattern:
            for i in range(seeds_per_combo):
                start = run_day(config, idx) + config.run_hour * 3600
                seed = config.seed * 31013 + idx
                fault = FaultSpec(
                    fault_type=fault_type,
                    resource=resource,
                    pattern=pattern,
                    injection_time=start + config.injection_min * 60,
                )
                run_id = f"rq4-{fault_type.value}-{pattern.value}-{i + 1}".lower()
                specs.append(RunSpec(run_id, start, duration_min * 60, seed, fault))
                idx += 1
    return specs


# ---------------------------------------------------------------------------
# the JSON intake that io.from_json and io.to_json replaced

#: The field annotations ``check_types`` checked; the dataclasses it is given
#: use ``from __future__ import annotations``, so annotations are text.  A
#: timestamp, once annotated ``int``, is an int.
_TYPED_FIELDS = {"int": int, "Timestamp": int, "float": float, "bool": bool}


def check_types(obj):
    """Raise ``typed``'s ValueError for the first int, float or bool field of
    the dataclass ``obj`` that holds another type."""
    for f in fields(obj):
        if f.type in _TYPED_FIELDS:
            typed(f.name, getattr(obj, f.name), _TYPED_FIELDS[f.type])


def check_topology(topology):
    """The checks a ``Topology`` once made when it was built."""
    for vm in topology.app_vms:
        if vm not in topology.placement:
            raise ValueError(f"VM {vm} has no compute placement")
    for vm in topology.call_path:
        if vm not in topology.app_vms:
            raise ValueError(f"call-path member {vm} is not an app VM")
    for vm in topology.queue_vms:
        if vm not in topology.call_path:
            raise ValueError(f"queue VM {vm} is not on the call path")
    for caller, targets in topology.callees.items():
        if caller not in topology.app_vms:
            raise ValueError(f"caller {caller} is not an app VM")
        for callee in targets:
            if callee not in topology.app_vms:
                raise ValueError(f"callee {callee} is not an app VM")


def workload_from_dict(data):
    kwargs = dict(data)
    if "hourly_profile" in kwargs:
        kwargs["hourly_profile"] = tuple(kwargs["hourly_profile"])
    return WorkloadModel(**kwargs)


def suite_config_to_dict(config):
    fields = asdict(config)
    fields["training_start"] = format_timestamp(config.training_start)
    return {"kind": SuiteConfig.KIND, "schema_version": SuiteConfig.SCHEMA_VERSION, **fields}


def suite_config_from_dict(data):
    check_kind(data, SuiteConfig.KIND, SuiteConfig.SCHEMA_VERSION)
    kwargs = {k: v for k, v in data.items() if k not in ("kind", "schema_version")}
    kwargs["training_start"] = parse_timestamp(kwargs["training_start"])
    if isinstance(kwargs.get("fault_targets"), list):  # JSON has no tuples
        kwargs["fault_targets"] = tuple(kwargs["fault_targets"])
    if "workload" in kwargs:
        kwargs["workload"] = workload_from_dict(kwargs["workload"])
    return SuiteConfig(**kwargs)


def manifest_to_dict(manifest):
    fault = None
    if manifest.fault is not None:
        fault = {
            "fault_type": manifest.fault.fault_type.value,
            "resource": manifest.fault.resource,
            "pattern": manifest.fault.pattern,
            "injection_time": format_timestamp(manifest.fault.injection_time),
        }
    return {
        "kind": RunManifest.KIND,
        "schema_version": RunManifest.SCHEMA_VERSION,
        "run_id": manifest.run_id,
        "start": format_timestamp(manifest.start),
        "end": format_timestamp(manifest.end),
        "fault": fault,
        "failure_time": (None if manifest.failure_time is None else format_timestamp(manifest.failure_time)),
    }


def manifest_from_dict(data):
    check_kind(data, RunManifest.KIND, RunManifest.SCHEMA_VERSION)
    fault = None
    if data.get("fault") is not None:
        f = data["fault"]
        fault = InjectedFault(
            fault_type=FaultType(f["fault_type"]),
            resource=f["resource"],
            pattern=f["pattern"],
            injection_time=parse_timestamp(f["injection_time"]),
        )
    failure = data.get("failure_time")
    return RunManifest(
        run_id=data["run_id"],
        start=parse_timestamp(data["start"]),
        end=parse_timestamp(data["end"]),
        fault=fault,
        failure_time=None if failure is None else parse_timestamp(failure),
    )


def scenario_from_dict(data):
    check_kind(data, SCENARIO_KIND, SCENARIO_SCHEMA_VERSION)
    start = parse_timestamp(data["start"])
    fault = None
    if data.get("fault") is not None:
        f = dict(data["fault"])
        fault_type = FaultType(f.pop("fault_type"))
        resource = f.pop("resource")
        pattern = Pattern(f.pop("pattern"))
        if "injection_min" in f:
            injection = start + 60 * typed("injection_min", f.pop("injection_min"), int)
        else:
            injection = parse_timestamp(f.pop("injection_time"))
        fault = FaultSpec(
            fault_type=fault_type,
            resource=resource,
            pattern=pattern,
            injection_time=injection,
            **f,
        )
    workload = workload_from_dict(data.get("workload", {}))
    return Scenario(
        run_id=data["run_id"],
        start=start,
        duration_s=60 * typed("duration_min", data["duration_min"], int),
        seed=data["seed"],
        workload=workload,
        fault=fault,
        workload_deviation=data.get("workload_deviation", 0.0),
        zero_noise=data.get("zero_noise", False),
    )


# ---------------------------------------------------------------------------
# the dense fault effects that sim.fault_footprint replaced

_CORRUPTION_ERRORS = 22.0
_LOSS_RETRANS = 45.0
_CORRUPTION_RETRANS = 27.0
_LATENCY_TIMEOUTS = 12.0


class FaultEffects:
    """Per-resource activation slices derived from one FaultSpec, one dense
    array a term and resource, zeros or ones where the fault sets nothing."""

    def __init__(self, topology, fault, a, n):
        zero = np.zeros(n)
        self.workload_mult = np.ones(n)
        self.net_factor = {vm: np.ones(n) for vm in topology.app_vms}
        self.latency_add = {vm: zero.copy() for vm in topology.call_path}
        self.errors_add = {vm: zero.copy() for vm in topology.app_vms}
        self.retrans_add = {vm: zero.copy() for vm in topology.app_vms}
        # keyed by the slow callee; emitted on every VM that calls it
        self.timeout_add = {vm: zero.copy() for vm in topology.app_vms}
        self.busy_add = {r: zero.copy() for r in topology.app_vms + topology.compute_nodes}
        self.leak = {r: zero.copy() for r in topology.app_vms + topology.compute_nodes}
        self.immediate = zero.copy()
        self.cumulative = zero.copy()
        if fault is None or not np.any(a > 0):
            return

        sev = fault.severity
        kind = fault.fault_type
        target = fault.resource
        s_min = np.cumsum(a)  # full-intensity minutes of activation

        self.immediate = _IMMEDIATE_DROP[kind] * a * sev
        drop, tau = _CUMULATIVE_DROP[kind]
        if drop > 0:
            self.cumulative = drop * sev * np.minimum(1.0, s_min / tau) ** 2

        compute_targets = ()
        if target in topology.compute_nodes:
            compute_targets = topology.hosted(target)

        if kind is FaultType.EXCESSIVE_WORKLOAD:
            self.workload_mult = 1.0 + _EW_MULTIPLIER * a * sev
        elif kind is FaultType.PACKET_LOSS:
            self._packet(
                topology, target, compute_targets, a, sev,
                loss=0.6, lat_own=150.0, lat_side=120.0, retrans=_LOSS_RETRANS,
            )
        elif kind is FaultType.PACKET_LATENCY:
            self._packet(
                topology, target, compute_targets, a, sev,
                loss=0.12, lat_own=260.0, lat_side=200.0, timeouts=_LATENCY_TIMEOUTS,
            )
        elif kind is FaultType.PACKET_CORRUPTION:
            self._packet(
                topology, target, compute_targets, a, sev,
                loss=-0.08, lat_own=90.0, lat_side=70.0,
                errors=_CORRUPTION_ERRORS, retrans=_CORRUPTION_RETRANS,
            )
        elif kind is FaultType.MEMORY_LEAK:
            self.leak[target] = _LEAK_RATE_PER_MIN * sev * s_min
        elif kind is FaultType.CPU_HOG:
            self.busy_add[target] = _HOG_BUSY_ADD * a * sev

    def _packet(
        self, topology, target, compute_targets, a, sev,
        *, loss, lat_own, lat_side, errors=0.0, retrans=0.0, timeouts=0.0,
    ):
        """Shared footprint builder for the three packet-level faults."""
        vms = compute_targets or (target,)
        strength = 0.5 if compute_targets else 1.0
        for vm in vms:
            self.net_factor[vm] = 1.0 - loss * strength * a * sev
            if errors:
                self.errors_add[vm] = errors * strength * a * sev
            if retrans:
                self.retrans_add[vm] = self.retrans_add[vm] + retrans * strength * a * sev
            if timeouts:
                self.timeout_add[vm] = self.timeout_add[vm] + timeouts * strength * a * sev
            if vm in topology.call_path:
                self.latency_add[vm] = self.latency_add[vm] + lat_own * strength * a * sev
                upstream = {"Sprout": "Bono", "Homestead": "Sprout"}.get(vm)
                if upstream and upstream in self.latency_add:
                    self.latency_add[upstream] = (
                        self.latency_add[upstream] + 0.45 * lat_own * strength * a * sev
                    )
            else:
                # backend VMs surface their trouble on the hub's client side
                for hub in ("Sprout",):
                    if hub in self.latency_add:
                        self.latency_add[hub] = self.latency_add[hub] + lat_side * strength * a * sev
