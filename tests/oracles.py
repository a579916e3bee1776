"""Straightforward reference implementations kept as test oracles.

These are the row-at-a-time CSV writer and reader and the per-pair causality
graph loop that the array-shaped versions in ``faultcast.io`` and
``faultcast.baseline`` replaced.  The optimized code must match them exactly:
the same bytes, the same maps, the same errors at the same lines and the same
edges.
"""

import csv
import math

import numpy as np

from faultcast.baseline import GrangerEdge, granger_fit
from faultcast.core import (
    CsvParseError,
    DuplicateSampleError,
    KpiId,
    TimeSeries,
    format_timestamp,
    parse_timestamp,
)
from faultcast.io import CSV_HEADER


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
    reader = csv.reader(stream)
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


def build_graph_pairwise(training, p=3, alpha=0.01, prefilter_r=0.2):
    """Every ordered pair aligned with ``intersect1d`` and tested on its own."""
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
            if not result.degenerate and result.p_value < alpha:
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
