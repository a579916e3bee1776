"""Shared domain types: KPI identities, time series, windows, failure classes."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Dict, Sequence

import numpy as np

#: Nominal sampling cadence of the monitoring agents, in seconds.
CADENCE_S = 60

#: Anomaly collection interval (anomalous KPIs are reported once per interval).
INTERVAL_S = 300

#: Number of hour-of-week buckets in a seasonal baseline.
HOURS_PER_WEEK = 168

#: Seconds per day, used for scheduling arithmetic.
DAY_S = 86400

#: Minimum span of training data accepted by the baseline learner.  A series
#: sampled every minute for two weeks ends one cadence short of 14 full days,
#: so the check credits the final sample with its cadence interval.
MIN_TRAINING_SPAN_S = 14 * 86400


class FaultcastError(Exception):
    """Base class for every error raised by this package."""


class CsvParseError(FaultcastError):
    """A malformed CSV row.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateSampleError(CsvParseError):
    """Two samples for the same KPI share a timestamp."""


class InsufficientTrainingError(FaultcastError):
    """Training data does not span the required period."""


class SchemaVersionError(FaultcastError):
    """A persisted artifact has an unexpected kind or schema version."""


class OrderingError(FaultcastError):
    """Intervals were fed to the predictor out of order."""


# ---------------------------------------------------------------------------
# timestamps

_TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def parse_timestamp(text: str) -> int:
    """Parse a UTC ISO-8601 timestamp ('2016-12-20T22:22:35Z') to epoch seconds."""
    dt = datetime.strptime(text, _TS_FORMAT)
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def format_timestamp(ts: int) -> str:
    """Render epoch seconds as a UTC ISO-8601 timestamp with a Z suffix."""
    return datetime.fromtimestamp(int(ts), tz=timezone.utc).strftime(_TS_FORMAT)


def hour_of_week(ts) -> "int | np.ndarray":
    """Hour-of-week index in [0, 168): Monday 00:00 UTC is 0.

    Accepts a scalar or an integer array; epoch day 0 was a Thursday.
    """
    ts = np.asarray(ts, dtype=np.int64)
    weekday = (ts // 86400 + 3) % 7
    hour = (ts % 86400) // 3600
    out = weekday * 24 + hour
    return int(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# KPIs and samples


@dataclass(frozen=True, order=True)
class KpiId:
    """A monitored KPI, identified by the pair (resource, metric)."""

    __slots__ = ("resource", "metric", "_hash")

    resource: str
    metric: str

    def __post_init__(self):
        for field_name in ("resource", "metric"):
            value = getattr(self, field_name)
            if not value:
                raise ValueError(f"KpiId.{field_name} must be non-empty")
            if any(ch in value for ch in (",", "\n", "\r")):
                raise ValueError(
                    f"KpiId.{field_name} {value!r} may not contain commas or newlines"
                )
        # the dataclass hash, computed once: feature lookups hash KPIs often
        object.__setattr__(self, "_hash", hash((self.resource, self.metric)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from its fields, so the hash is that of the loading process
        return KpiId, (self.resource, self.metric)

    def __str__(self) -> str:
        return f"{self.resource}/{self.metric}"


class TimeSeries:
    """Samples of one KPI with strictly increasing timestamps.

    Values are stored as parallel numpy arrays; the nominal cadence is one
    sample per minute but gaps are allowed.
    """

    __slots__ = ("kpi", "timestamps", "values")

    def __init__(self, kpi: KpiId, timestamps, values):
        timestamps = np.asarray(timestamps, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if timestamps.ndim != 1 or values.ndim != 1:
            raise ValueError("timestamps and values must be 1-d")
        if len(timestamps) != len(values):
            raise ValueError("timestamps and values must have equal length")
        if len(timestamps) == 0:
            raise ValueError(f"empty series for {kpi}")
        if not (timestamps[1:] > timestamps[:-1]).all():
            raise ValueError(f"timestamps for {kpi} must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValueError(f"series for {kpi} contains non-finite values")
        timestamps.setflags(write=False)
        values.setflags(write=False)
        self.kpi = kpi
        self.timestamps = timestamps
        self.values = values

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TimeSeries)
            and self.kpi == other.kpi
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"TimeSeries({self.kpi}, n={len(self)})"

    @property
    def start(self) -> int:
        return int(self.timestamps[0])

    @property
    def end(self) -> int:
        return int(self.timestamps[-1])

    @property
    def span_s(self) -> int:
        """Elapsed seconds between first and last sample."""
        return self.end - self.start


class Grids:
    """The KPIs ``kpis`` whose series in ``series_map`` have identical
    timestamps share a grid.  ``series[k]`` is KPI k's series and
    ``grid_of[k]`` its grid, None and -1 when the map lacks it; ``members[g]``
    holds grid g's KPI numbers (positions in ``kpis``) in increasing order and
    ``timestamps[g]`` its instants.  Grids are numbered by their first KPI."""

    def __init__(self, series_map: Dict[KpiId, TimeSeries], kpis: Sequence[KpiId]):
        self.series = [series_map.get(kpi) for kpi in kpis]
        numbers: Dict[bytes, int] = {}
        grid_of = [-1 if s is None else numbers.setdefault(s.timestamps.tobytes(), len(numbers)) for s in self.series]
        self.grid_of = np.array(grid_of, dtype=np.intp)
        self.members = [np.flatnonzero(self.grid_of == g) for g in range(len(numbers))]
        self.timestamps = [self.series[ks[0]].timestamps for ks in self.members]

    def common(self, g: int, h: int):
        """(instants, index into grid g, index into grid h) of the instants
        grids g and h share; the indices are whole slices when ``g == h``."""
        if g == h:
            return self.timestamps[g], slice(None), slice(None)
        return np.intersect1d(self.timestamps[g], self.timestamps[h], assume_unique=True, return_indices=True)


def lags(values: np.ndarray, p: int) -> np.ndarray:
    """Lags 1..p of the last axis of ``values`` (length n) as a read-only
    ``[..., p, n - p]`` view whose row i - 1 is ``values[..., p - i : n - i]``."""
    n = values.shape[-1]
    return np.lib.stride_tricks.sliding_window_view(values, n - p, axis=-1)[..., p - 1 :: -1, :]


# ---------------------------------------------------------------------------
# failure classes


class FaultType(str, Enum):
    """Kinds of injected faults, plus the Normal (fault-free) marker."""

    PACKET_LOSS = "PacketLoss"
    EXCESSIVE_WORKLOAD = "ExcessiveWorkload"
    PACKET_LATENCY = "PacketLatency"
    PACKET_CORRUPTION = "PacketCorruption"
    MEMORY_LEAK = "MemoryLeak"
    CPU_HOG = "CpuHog"
    NORMAL = "Normal"


#: Pseudo-resource for system-wide conditions (excessive workload).
SYSTEM_RESOURCE = "SYSTEM"


@dataclass(frozen=True, order=True)
class FailureClass:
    """A prediction label: the pair (fault type, affected resource).

    Normal carries an empty resource; ExcessiveWorkload is system-wide and
    always carries the SYSTEM pseudo-resource.
    """

    fault_type: FaultType
    resource: str = ""

    def __post_init__(self):
        if self.fault_type is FaultType.NORMAL:
            if self.resource:
                raise ValueError("Normal carries no resource")
        elif self.fault_type is FaultType.EXCESSIVE_WORKLOAD:
            if self.resource != SYSTEM_RESOURCE:
                raise ValueError("ExcessiveWorkload must target the SYSTEM resource")
        elif not self.resource:
            raise ValueError(f"{self.fault_type.value} requires a resource")

    @property
    def is_normal(self) -> bool:
        return self.fault_type is FaultType.NORMAL

    def label(self) -> str:
        if self.is_normal:
            return "Normal"
        return f"{self.fault_type.value}({self.resource})"

    def __str__(self) -> str:
        return self.label()


NORMAL_CLASS = FailureClass(FaultType.NORMAL)


class AnomalyKind(str, Enum):
    """How an anomaly was detected: against the seasonal band, or against a
    cross-KPI regression edge."""

    UNIVARIATE = "Univariate"
    MULTIVARIATE = "Multivariate"


def slide_windows(run_start: int, run_end: int, l_min: int, step_min: int):
    """Enumerate sliding windows of length ``l_min`` minutes over a run.

    Windows start at ``run_start`` and advance by ``step_min`` minutes while
    they still fit, producing floor((duration - l) / step) + 1 windows.  A run
    shorter than one window yields an empty list.
    """
    if l_min <= 0 or step_min <= 0:
        raise ValueError("window length and step must be positive")
    duration = run_end - run_start
    l_s = l_min * 60
    step_s = step_min * 60
    if duration < l_s:
        return []
    return [
        (run_start + off, run_start + off + l_s)
        for off in range(0, duration - l_s + 1, step_s)
    ]
