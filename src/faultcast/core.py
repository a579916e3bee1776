"""Shared domain types: KPI identities, time series, windows, failure classes."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Dict, List, Sequence, Tuple

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
    sample per minute but gaps are allowed (see :class:`Frame`).
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


@dataclass(frozen=True, eq=False)
class Frame:
    """One run as a time-aligned matrix, built by :meth:`of`: the KPIs
    ``kpis`` [K], the sorted union ``timestamps`` [T] of their samples and
    read-only ``values`` [K, T] with NaN where a KPI has no sample."""

    kpis: Tuple[KpiId, ...]
    timestamps: np.ndarray  # [T]
    values: np.ndarray  # [K, T]

    @classmethod
    def of(cls, series_map: Dict[KpiId, TimeSeries], kpis: Sequence[KpiId]) -> "Frame":
        """The frame of ``kpis`` in ``series_map``.  A sample anywhere in the
        map that is not a whole number of cadences after the data's first
        one raises :class:`FaultcastError`; gaps are allowed."""
        grids: Dict[bytes, List[Tuple[KpiId, TimeSeries]]] = {}  # the map's KPIs sampled alike
        for kpi, s in series_map.items():
            grids.setdefault(s.timestamps.tobytes(), []).append((kpi, s))
        stamps = [alike[0][1].timestamps for alike in grids.values()]
        first = min((int(t[0]) for t in stamps), default=0)
        off = sorted(
            kpi for t, alike in zip(stamps, grids.values()) if ((t - first) % CADENCE_S).any() for kpi, _ in alike
        )
        if off:
            late = series_map[off[0]].timestamps
            raise FaultcastError(
                f"{off[0]} has a sample at {format_timestamp(late[(late - first) % CADENCE_S != 0][0])}, off the"
                f" data's {CADENCE_S}-second cadence from its first sample ({format_timestamp(first)})"
            )
        number = {kpi: k for k, kpi in enumerate(kpis)}
        rows = [[(k, s.values) for kpi, s in alike if (k := number.get(kpi)) is not None] for alike in grids.values()]
        timestamps = np.unique(np.concatenate([np.empty(0, np.int64), *(t for t, r in zip(stamps, rows) if r)]))
        values = np.full((len(kpis), len(timestamps)), np.nan)
        for t, r in zip(stamps, rows):
            if r:  # every listed KPI sampled at t, placed at once
                ks, samples = zip(*r)
                values[np.ix_(ks, np.searchsorted(timestamps, t))] = samples
        timestamps.setflags(write=False)
        values.setflags(write=False)
        return cls(tuple(kpis), timestamps, values)

    def history(self, p: int) -> np.ndarray:
        """[K, T] bool: KPI k has a sample at column t and at each of the p
        cadences before it, so that ``lags(values, p)`` there are by timestamp."""
        full = np.zeros(self.values.shape, dtype=bool)
        if len(self.timestamps) > p:
            present = np.isfinite(self.values)
            steady = self.timestamps[p:] - self.timestamps[:-p] == p * CADENCE_S
            full[:, p:] = steady & present[:, p:] & lags(present, p).all(axis=-2)
        return full


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
