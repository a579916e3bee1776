"""Deterministic testbed simulator: a small multi-tier VoIP-style deployment.

Six application VMs ride on two compute nodes; every KPI is an affine (plus
saturation) response to a seasonal call workload with per-KPI measurement
noise.  A handful of couplings act with a one-minute lag so that the causality
graph has real structure to find.  Seeded faults modulate the generative
inputs, so their effects propagate through the same couplings the detectors
learned.  Byte-identical output is guaranteed for identical inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .core import (
    CADENCE_S,
    FaultType,
    KpiId,
    SYSTEM_RESOURCE,
    TimeSeries,
    hour_of_week,
    parse_timestamp,
)
from .io import InjectedFault, RunManifest, check_kind, check_types, load_json, typed

SCENARIO_KIND = "faultcast-scenario"
SCENARIO_SCHEMA_VERSION = 1

#: Hourly workload multipliers; the morning and evening peaks at 09:00 and
#: 19:00 share the maximum.
DEFAULT_HOURLY_PROFILE = (
    0.20, 0.16, 0.14, 0.13, 0.14, 0.18,
    0.30, 0.55, 0.85, 1.00, 0.92, 0.85,
    0.80, 0.78, 0.80, 0.83, 0.87, 0.92,
    0.97, 1.00, 0.90, 0.70, 0.45, 0.28,
)

FAILURE_THRESHOLD = 0.6
FAILURE_WINDOW_S = 300

#: A deviated workload keeps one random call-rate multiplier per block of
#: this many seconds.
DEVIATION_BLOCK_S = 300

#: measurement noise is bounded (clipped at +/- this many sigmas), mirroring
#: instrumented counters whose jitter has finite support; healthy KPIs then sit
#: inside a 3-sigma tolerance band except for rare compound fluctuations
_NOISE_CLIP = 2.6

# metric names
CPU_IDLE = "CpuIdlePct"
MEM_USED = "MemUsedPct"
BYTES_RECV = "BytesReceivedPerSec"
BYTES_SENT = "BytesSentPerSec"
ERRORS = "ErrorsPerSec"
LATENCY = "AvgLatencyMs"
INCOMING = "IncomingRequestsPerSec"
REJECTED = "RejectedRequestsPerSec"
QUEUE = "QueueSize"
SWAP = "PagesSwappedPerSec"
CALLS = "CallsPerSec"
SUCCESS_RATE = "SuccessfulCallRate"
RETRANS = "TcpRetransPerSec"
RUN_QUEUE = "RunQueueLen"


def timeouts_metric(callee: str) -> str:
    """Name of the per-destination timeout counter a caller VM exports."""
    return f"TimeoutsTo{callee}PerSec"


class Pattern(str, Enum):
    """How an injected fault's intensity evolves over time."""

    CONSTANT = "Constant"
    EXPONENTIAL = "Exponential"
    RANDOM = "Random"


@dataclass(frozen=True)
class WorkloadModel:
    """Seasonal call-rate model: weekday/weekend factors times an hourly
    profile, with relative Gaussian noise, clipped at zero."""

    base_rate: float = 100.0
    weekday_factor: float = 1.0
    weekend_factor: float = 0.6
    hourly_profile: Tuple[float, ...] = DEFAULT_HOURLY_PROFILE
    noise_std: float = 0.08

    def __post_init__(self):
        check_types(self)
        for value in self.hourly_profile:
            typed("hourly_profile", value, float)
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if len(self.hourly_profile) != 24:
            raise ValueError("hourly_profile needs exactly 24 multipliers")
        if min(self.hourly_profile) <= 0:
            raise ValueError("hourly multipliers must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadModel":
        kwargs = dict(data)
        if "hourly_profile" in kwargs:
            kwargs["hourly_profile"] = tuple(kwargs["hourly_profile"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultSpec:
    """A seeded fault: what, where, and how its intensity is activated.

    ``injection_time`` is the nominal start; for the Random pattern the fault
    first becomes active at the first Bernoulli-selected block from there.
    """

    fault_type: FaultType
    resource: str
    pattern: Pattern
    injection_time: int
    severity: float = 1.0
    constant_level: float = 0.6
    exp_a0: float = 0.1
    exp_double_min: float = 10.0
    random_q: float = 0.5
    random_block_min: int = 5

    def __post_init__(self):
        check_types(self)
        if self.fault_type is FaultType.NORMAL:
            raise ValueError("a FaultSpec cannot seed the Normal class")
        if (self.fault_type is FaultType.EXCESSIVE_WORKLOAD) != (
            self.resource == SYSTEM_RESOURCE
        ):
            raise ValueError(
                "ExcessiveWorkload targets the SYSTEM resource; other faults target a host"
            )
        if self.severity <= 0:
            raise ValueError("severity must be positive")
        if not 0 < self.constant_level <= 1:
            raise ValueError("constant_level must lie in (0, 1]")
        if not 0 < self.exp_a0 <= 1 or self.exp_double_min <= 0:
            raise ValueError("bad exponential activation parameters")
        if not 0 < self.random_q <= 1 or self.random_block_min <= 0:
            raise ValueError("bad random activation parameters")


@dataclass(frozen=True)
class Topology:
    """The deployment: app VMs, their compute hosts, and response constants."""

    app_vms: Tuple[str, ...]
    call_path: Tuple[str, ...]
    queue_vms: Tuple[str, ...]
    placement: Mapping[str, str]
    load_share: Mapping[str, float]
    peak_util: Mapping[str, float]
    mem_base: Mapping[str, float]
    recv_gain: Mapping[str, float]
    latency_base: Mapping[str, float]
    incoming_gain: Mapping[str, float]
    callees: Mapping[str, Tuple[str, ...]]

    def __post_init__(self):
        for vm in self.app_vms:
            if vm not in self.placement:
                raise ValueError(f"VM {vm} has no compute placement")
        for vm in self.call_path:
            if vm not in self.app_vms:
                raise ValueError(f"call-path member {vm} is not an app VM")
        for vm in self.queue_vms:
            if vm not in self.call_path:
                raise ValueError(f"queue VM {vm} is not on the call path")
        for caller, targets in self.callees.items():
            if caller not in self.app_vms:
                raise ValueError(f"caller {caller} is not an app VM")
            for callee in targets:
                if callee not in self.app_vms:
                    raise ValueError(f"callee {callee} is not an app VM")

    @property
    def compute_nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.placement.values())))

    def hosted(self, node: str) -> Tuple[str, ...]:
        return tuple(vm for vm in self.app_vms if self.placement[vm] == node)

    def resources(self) -> Tuple[str, ...]:
        return self.app_vms + self.compute_nodes + (SYSTEM_RESOURCE,)

    def catalog(self) -> Tuple[KpiId, ...]:
        kpis = []
        for vm in self.app_vms:
            for metric in (CPU_IDLE, MEM_USED, BYTES_RECV, BYTES_SENT, ERRORS, RETRANS, RUN_QUEUE):
                kpis.append(KpiId(vm, metric))
        for caller, targets in self.callees.items():
            for callee in targets:
                kpis.append(KpiId(caller, timeouts_metric(callee)))
        for vm in self.call_path:
            for metric in (LATENCY, INCOMING, REJECTED):
                kpis.append(KpiId(vm, metric))
        for vm in self.queue_vms:
            kpis.append(KpiId(vm, QUEUE))
        for node in self.compute_nodes:
            for metric in (CPU_IDLE, MEM_USED, SWAP):
                kpis.append(KpiId(node, metric))
        kpis.append(KpiId(SYSTEM_RESOURCE, CALLS))
        kpis.append(KpiId(SYSTEM_RESOURCE, SUCCESS_RATE))
        return tuple(sorted(kpis))


def default_topology() -> Topology:
    """The bundled six-VM deployment on two compute nodes."""
    return Topology(
        app_vms=("Bono", "Sprout", "Homestead", "Homer", "Ralf", "Ellis"),
        call_path=("Bono", "Sprout", "Homestead"),
        queue_vms=("Sprout",),
        placement={
            "Bono": "Compute1",
            "Sprout": "Compute1",
            "Homestead": "Compute1",
            "Homer": "Compute2",
            "Ralf": "Compute2",
            "Ellis": "Compute2",
        },
        load_share={
            "Bono": 1.0,
            "Sprout": 1.0,
            "Homestead": 0.7,
            "Homer": 0.5,
            "Ralf": 0.35,
            "Ellis": 0.12,
        },
        peak_util={
            "Bono": 0.80,
            "Sprout": 0.78,
            "Homestead": 0.70,
            "Homer": 0.65,
            "Ralf": 0.58,
            "Ellis": 0.50,
        },
        mem_base={
            "Bono": 42.0,
            "Sprout": 48.0,
            "Homestead": 45.0,
            "Homer": 40.0,
            "Ralf": 38.0,
            "Ellis": 34.0,
        },
        recv_gain={
            "Bono": 1400.0,
            "Sprout": 1150.0,
            "Homestead": 900.0,
            "Homer": 760.0,
            "Ralf": 640.0,
            "Ellis": 520.0,
        },
        latency_base={"Bono": 45.0, "Sprout": 38.0, "Homestead": 30.0},
        incoming_gain={"Bono": 1.0, "Sprout": 0.93, "Homestead": 0.84},
        callees={
            "Bono": ("Sprout",),
            "Sprout": ("Homestead", "Homer", "Ralf", "Ellis"),
        },
    )


# ---------------------------------------------------------------------------
# workload


def _seasonal_factors(model: WorkloadModel, timestamps: np.ndarray) -> np.ndarray:
    how = hour_of_week(timestamps)
    weekday = how // 24
    hour = how % 24
    day_factor = np.where(weekday >= 5, model.weekend_factor, model.weekday_factor)
    profile = np.asarray(model.hourly_profile)
    return model.base_rate * day_factor * profile[hour]


def perturbation_factors(n: int, deviation: float, seed: int) -> np.ndarray:
    """Per-block multipliers 1 + U(-deviation, +deviation), expanded to n steps."""
    block = DEVIATION_BLOCK_S // CADENCE_S
    n_blocks = (n + block - 1) // block
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD37]))
    factors = 1.0 + deviation * rng.uniform(-1.0, 1.0, n_blocks)
    return np.repeat(factors, block)[:n]


# ---------------------------------------------------------------------------
# fault activation


def activation_profile(
    fault: FaultSpec, start: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Intensity a(t) in [0, 1] per minute step."""
    timestamps = start + CADENCE_S * np.arange(n, dtype=np.int64)
    rel_min = (timestamps - fault.injection_time) / 60.0
    active = rel_min >= 0
    if fault.pattern is Pattern.CONSTANT:
        a = np.where(active, fault.constant_level, 0.0)
    elif fault.pattern is Pattern.EXPONENTIAL:
        with np.errstate(over="ignore"):
            grow = fault.exp_a0 * np.exp2(np.clip(rel_min, 0.0, None) / fault.exp_double_min)
        a = np.where(active, np.minimum(1.0, grow), 0.0)
    elif fault.pattern is Pattern.RANDOM:
        block = fault.random_block_min
        block_idx = np.floor_divide(np.clip(rel_min, 0.0, None), block).astype(int)
        n_blocks = int(block_idx.max()) + 1 if n else 0
        draws = rng.random(n_blocks) < fault.random_q
        a = np.where(active, draws[block_idx].astype(float), 0.0)
    else:  # pragma: no cover
        raise ValueError(f"unknown pattern {fault.pattern!r}")
    return a


# ---------------------------------------------------------------------------
# run generation


def _lag1(values: np.ndarray) -> np.ndarray:
    if len(values) == 0:
        return values
    return np.concatenate(([values[0]], values[:-1]))


def _relu(values: np.ndarray) -> np.ndarray:
    return np.clip(values, 0.0, None)


#: success-rate damage per fault type: immediate term and cumulative term
_IMMEDIATE_DROP = {
    FaultType.PACKET_LOSS: 0.12,
    FaultType.PACKET_LATENCY: 0.06,
    FaultType.PACKET_CORRUPTION: 0.05,
    FaultType.MEMORY_LEAK: 0.0,
    FaultType.CPU_HOG: 0.015,
    FaultType.EXCESSIVE_WORKLOAD: 0.05,
}
_CUMULATIVE_DROP = {
    FaultType.PACKET_LOSS: (0.55, 70.0),
    FaultType.PACKET_LATENCY: (0.50, 80.0),
    FaultType.PACKET_CORRUPTION: (0.55, 65.0),
    FaultType.MEMORY_LEAK: (0.0, math.inf),
    FaultType.CPU_HOG: (0.0, math.inf),
    FaultType.EXCESSIVE_WORKLOAD: (0.45, 55.0),
}

_LEAK_RATE_PER_MIN = 0.85
_HOG_BUSY_ADD = 72.0
_EW_MULTIPLIER = 2.5
_CORRUPTION_ERRORS = 22.0
_LOSS_RETRANS = 45.0
_CORRUPTION_RETRANS = 27.0
_LATENCY_TIMEOUTS = 12.0

#: system-wide utilization knee above which calls get rejected / success
#: collapses; unreachable without an excessive-workload fault
_CAPACITY_KNEE = 1.55


class _FaultEffects:
    """Per-resource activation slices derived from one FaultSpec."""

    def __init__(self, topology: Topology, fault: Optional[FaultSpec], a: np.ndarray, n: int):
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


def gen_run(
    topology: Topology,
    workload: WorkloadModel,
    fault: Optional[FaultSpec],
    start: int,
    duration_s: int,
    seed: int,
    *,
    run_id: Optional[str] = None,
    zero_noise: bool = False,
    workload_deviation: float = 0.0,
) -> Tuple[Dict[KpiId, TimeSeries], RunManifest]:
    """Generate one run of every catalog KPI plus its ground-truth manifest.

    The same (topology, workload, fault, start, duration, seed) tuple always
    produces identical output, down to CSV bytes.
    """
    if duration_s < CADENCE_S:
        raise ValueError("duration must cover at least one sample")
    n = duration_s // CADENCE_S
    timestamps = start + CADENCE_S * np.arange(n, dtype=np.int64)
    if fault is not None:
        known = set(topology.resources())
        if fault.resource not in known:
            raise ValueError(f"fault resource {fault.resource!r} is not in the topology")
        if not start <= fault.injection_time < start + duration_s:
            raise ValueError("fault injection_time must fall inside the run")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))

    def noise(scale: float) -> np.ndarray:
        eps = np.clip(rng.standard_normal(n), -_NOISE_CLIP, _NOISE_CLIP)
        return np.zeros(n) if zero_noise else scale * eps

    # 1. workload
    w_noise = noise(workload.noise_std)
    w = _seasonal_factors(workload, timestamps) * (1.0 + w_noise)
    w = np.clip(w, 0.0, None)
    if workload_deviation > 0.0:
        factors = perturbation_factors(n, workload_deviation, seed)
        w = np.clip(w * factors, 0.0, None)

    # 2. fault activation
    a = np.zeros(n)
    first_active: Optional[int] = None
    if fault is not None:
        a = activation_profile(fault, start, n, rng)
        nz = np.nonzero(a > 0)[0]
        first_active = int(timestamps[nz[0]]) if len(nz) else fault.injection_time

    fx = _FaultEffects(topology, fault, a, n)
    w_eff = np.clip(w * fx.workload_mult, 0.0, None)
    util_total = 0.8 * w_eff / workload.base_rate

    series: Dict[KpiId, TimeSeries] = {}

    def put(resource: str, metric: str, values: np.ndarray) -> np.ndarray:
        series[KpiId(resource, metric)] = TimeSeries(
            KpiId(resource, metric), timestamps, values
        )
        return values

    # 3. per-VM network and memory KPIs (noise drawn in fixed catalog order)
    recv: Dict[str, np.ndarray] = {}
    mem: Dict[str, np.ndarray] = {}
    for vm in topology.app_vms:
        load = topology.load_share[vm] * w_eff
        gain = topology.recv_gain[vm]
        net = fx.net_factor[vm]
        recv[vm] = put(vm, BYTES_RECV, np.clip(gain * load * (1.0 + noise(0.03)) * net, 0.0, None))
        put(vm, BYTES_SENT, np.clip(0.75 * gain * load * (1.0 + noise(0.03)) * net, 0.0, None))
        mem[vm] = put(
            vm, MEM_USED, np.clip(topology.mem_base[vm] + noise(1.0) + fx.leak[vm], 0.0, 100.0)
        )
        put(vm, ERRORS, np.clip(0.8 + noise(0.25) + fx.errors_add[vm], 0.0, None))
        put(vm, RETRANS, np.clip(1.6 + noise(0.45) + fx.retrans_add[vm], 0.0, None))

    # 4. CPU: utilization tracks the workload; Sprout additionally follows
    #    Homer's ingress bytes with a one-minute lag
    util: Dict[str, np.ndarray] = {
        vm: topology.peak_util[vm] * w_eff / workload.base_rate for vm in topology.app_vms
    }
    busy: Dict[str, np.ndarray] = {}
    for vm in topology.app_vms:
        eff_util = util[vm]
        if vm == "Sprout" and "Homer" in recv:
            homer_util = topology.peak_util["Homer"] * recv["Homer"] / (
                topology.recv_gain["Homer"] * topology.load_share["Homer"] * workload.base_rate
            )
            eff_util = 0.55 * util[vm] + 0.45 * _lag1(homer_util)
        b = 100.0 * np.minimum(eff_util, 1.0) + noise(2.0) + fx.busy_add[vm]
        busy[vm] = np.clip(b, 0.0, 100.0)
        put(vm, CPU_IDLE, 100.0 - busy[vm])

    # scheduler pressure only appears once a core saturates, so the run
    # queue stays flat (and uncorrelated with load) in healthy operation
    for vm in topology.app_vms:
        runq = 0.5 + noise(0.3) + 0.75 * _relu(busy[vm] - 92.0)
        put(vm, RUN_QUEUE, np.clip(runq, 0.0, None))

    # request timeouts per destination, counted on the calling side
    for caller in topology.app_vms:
        for callee in topology.callees.get(caller, ()):
            t = 0.25 + noise(0.15) + fx.timeout_add[callee]
            put(caller, timeouts_metric(callee), np.clip(t, 0.0, None))

    # 5. call-path service KPIs
    for vm in topology.call_path:
        l0 = topology.latency_base[vm]
        lat = l0 * (1.0 + 0.3 * _lag1(util[vm]) + 3.0 * _relu(util[vm] - 0.92))
        lat = lat + fx.latency_add[vm] + 3.0 * _relu(busy[vm] - 88.0)
        # backends dragging: a hogged or hosed backend slows its hub client
        if vm == "Sprout":
            for backend in ("Homer", "Ralf", "Ellis"):
                if backend in busy:
                    lat = lat + 2.5 * _relu(_lag1(busy[backend]) - 90.0)
        put(vm, LATENCY, np.clip(lat + noise(0.08 * l0), 0.0, None))

        load = topology.load_share[vm] * w_eff
        gain = topology.incoming_gain[vm]
        if vm == "Homestead" and "Sprout" in recv:
            sprout_sent_ref = 0.75 * topology.recv_gain["Sprout"] * topology.load_share["Sprout"]
            feed = _lag1(recv["Sprout"] * 0.75) / sprout_sent_ref
            inc = gain * (0.45 * load + 0.55 * topology.load_share[vm] * feed)
        else:
            inc = gain * load * fx.net_factor[vm]
        put(vm, INCOMING, np.clip(inc * (1.0 + noise(0.03)), 0.0, None))

        rej = 0.5 + noise(0.15) + 0.12 * load * _relu(util_total - _CAPACITY_KNEE)
        put(vm, REJECTED, np.clip(rej, 0.0, None))

    for vm in topology.queue_vms:
        q = 3.0 + 0.08 * busy[vm] + 120.0 * _relu(busy[vm] / 100.0 - 0.93)
        put(vm, QUEUE, np.clip(q + noise(1.2), 0.0, None))

    # 6. compute nodes aggregate their guests
    for node in topology.compute_nodes:
        hosted = topology.hosted(node)
        mean_busy = np.mean([busy[vm] for vm in hosted], axis=0)
        node_busy = np.clip(14.0 + 0.48 * mean_busy + noise(2.0) + fx.busy_add[node], 0.0, 100.0)
        put(node, CPU_IDLE, 100.0 - node_busy)
        mean_mem = np.mean([mem[vm] for vm in hosted], axis=0)
        node_mem = np.clip(24.0 + 0.38 * mean_mem + noise(1.0) + fx.leak[node], 0.0, 100.0)
        put(node, MEM_USED, node_mem)
        pressure = sum(_relu(mem[vm] - 90.0) for vm in hosted) + _relu(node_mem - 88.0)
        put(node, SWAP, np.clip(2.0 + noise(0.5) + 4.0 * pressure, 0.0, None))

    # 7. the system-level view
    put(SYSTEM_RESOURCE, CALLS, w_eff)

    drop = fx.immediate + fx.cumulative
    if fault is not None and fault.fault_type is FaultType.MEMORY_LEAK:
        target_mem = series[KpiId(fault.resource, MEM_USED)].values
        drop = drop + 0.55 * np.minimum(1.0, _relu(target_mem - 92.0) / 6.0) ** 2
    over = _relu(util_total - _CAPACITY_KNEE)
    if np.any(over > 0):
        drop = drop + 0.5 * np.minimum(1.0, np.cumsum(over) / 40.0) ** 2
    success = 0.9965 - 0.008 * _lag1(util_total) - drop + noise(0.003)
    put(SYSTEM_RESOURCE, SUCCESS_RATE, np.clip(success, 0.0, 1.0))

    failure_time = failure_oracle(series[KpiId(SYSTEM_RESOURCE, SUCCESS_RATE)])
    manifest_fault = None
    if fault is not None:
        manifest_fault = InjectedFault(
            fault_type=fault.fault_type,
            resource=fault.resource,
            pattern=fault.pattern.value,
            injection_time=first_active if first_active is not None else fault.injection_time,
        )
    manifest = RunManifest(
        run_id=run_id or f"run-{seed}",
        start=start,
        end=start + duration_s,
        fault=manifest_fault,
        failure_time=failure_time,
    )
    return series, manifest


def failure_oracle(success: TimeSeries) -> Optional[int]:
    """First instant the success rate stays below ``FAILURE_THRESHOLD`` for
    ``FAILURE_WINDOW_S`` (five consecutive minutes).  None when the run never
    failed."""
    need = FAILURE_WINDOW_S // CADENCE_S
    run_len = 0
    for i, flag in enumerate(success.values < FAILURE_THRESHOLD):
        run_len = run_len + 1 if flag else 0
        if run_len >= need:
            return int(success.timestamps[i - need + 1])
    return None


# ---------------------------------------------------------------------------
# scenario files


@dataclass(frozen=True)
class Scenario:
    """A declarative run description loadable from JSON."""

    run_id: str
    start: int
    duration_s: int
    seed: int
    workload: WorkloadModel = field(default_factory=WorkloadModel)
    fault: Optional[FaultSpec] = None
    workload_deviation: float = 0.0
    zero_noise: bool = False

    def __post_init__(self):
        check_types(self)

    def generate(self, topology: Optional[Topology] = None):
        return gen_run(
            topology or default_topology(),
            self.workload,
            self.fault,
            self.start,
            self.duration_s,
            self.seed,
            run_id=self.run_id,
            zero_noise=self.zero_noise,
            workload_deviation=self.workload_deviation,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
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
        workload = WorkloadModel.from_dict(data.get("workload", {}))
        return cls(
            run_id=data["run_id"],
            start=start,
            duration_s=60 * typed("duration_min", data["duration_min"], int),
            seed=data["seed"],
            workload=workload,
            fault=fault,
            workload_deviation=data.get("workload_deviation", 0.0),
            zero_noise=data.get("zero_noise", False),
        )


def load_scenario(path) -> Scenario:
    return load_json(path, Scenario.from_dict)
