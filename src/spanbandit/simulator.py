"""Microservice trace simulator with a closed controller-in-the-loop mode.

Latency is composed generatively: every operation draws its own self time
from a lognormal, children are laid out inside the parent (sequential
calls end-to-end, parallel calls from a common start), and the parent's
duration is exactly self time plus the waiting implied by that layout.
Decomposing a generated trace therefore recovers the configured self
times without error, which makes ground truth checkable.

Sampling policies act at span granularity. A span whose recording
decision fails is *not* free: the work still happens, the span is simply
omitted from the trace and its children re-attach to the nearest
recorded ancestor, where the omitted time surfaces as extra self time.
The root span is always recorded so every sampled request yields a
valid trace.
"""
from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence, Union

import numpy as np

from .abs_sampler import SamplingPolicy, VitalSetConfig, build_policy, report
from .belief import BeliefStore, learn_batch, write_json
from .trace_model import SpanIdentity, SpanRecord, Trace, build_trace


class InvalidTopology(ValueError):
    pass


def _check_fields(obj, finite=(), unit=(), non_negative=(), positive=(), text=()) -> None:
    """Raise InvalidTopology naming the first field of `obj` out of its range.

    A `text` field holds a non-empty str, or a non-empty tuple of them.
    """
    for name in text:
        value = getattr(obj, name)
        items = value if isinstance(value, tuple) else (value,)
        if not (items and all(isinstance(v, str) and v for v in items)):
            raise InvalidTopology(
                f"{type(obj).__name__}.{name} must be non-empty text, got {value!r}"
            )
    for name in (*finite, *unit, *non_negative, *positive):
        value = getattr(obj, name)
        if not math.isfinite(value):
            problem = "be finite"
        elif name in unit and not 0.0 <= value <= 1.0:
            problem = "lie in [0, 1]"
        elif name in non_negative and value < 0.0:
            problem = "be >= 0"
        elif name in positive and value <= 0.0:
            problem = "be > 0"
        else:
            continue
        raise InvalidTopology(f"{type(obj).__name__}.{name} must {problem}, got {value!r}")


def _finite_us(value: float, identity: SpanIdentity, what: str) -> int:
    """`value` rounded to whole microseconds; a non-finite draw names the operation."""
    if not math.isfinite(value):
        raise InvalidTopology(f"{identity.label()} drew a non-finite {what} ({value!r})")
    return int(round(value))


@dataclass(frozen=True)
class LatencyModel:
    """Lognormal base latency in microseconds: exp(Normal(mu_log, sigma_log))."""

    mu_log: float
    sigma_log: float

    def __post_init__(self) -> None:
        _check_fields(self, finite=("mu_log",), non_negative=("sigma_log",))

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu_log, self.sigma_log))


def latency_from_median_us(median_us: float, sigma_log: float) -> LatencyModel:
    """Lognormal parameterized by its median, which is easier to read in tables."""
    return LatencyModel(mu_log=float(np.log(median_us)), sigma_log=sigma_log)


@dataclass(frozen=True)
class CallSpec:
    callee: SpanIdentity
    mode: str = "sequential"  # "sequential" or "parallel"

    def __post_init__(self) -> None:
        if self.mode not in ("sequential", "parallel"):
            raise InvalidTopology(f"unknown call mode {self.mode!r}")


@dataclass(frozen=True)
class OperationSpec:
    identity: SpanIdentity
    base: LatencyModel
    calls: tuple[CallSpec, ...] = ()


@dataclass(frozen=True)
class ServiceTagSpec:
    """A tag stamped on every span of a service, drawn uniformly per request."""

    service: str
    key: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_fields(self, text=("service", "key", "values"))


@dataclass(frozen=True)
class TopologySpec:
    """A call DAG over operation identities, expanded to a tree per request.

    An identity may be the callee of several call sites (and of repeated
    call sites); each site becomes its own span instance. The graph must
    be acyclic and every callee must be declared. `ops` indexes the
    operations by identity.
    """

    root: SpanIdentity
    operations: tuple[OperationSpec, ...]
    service_tags: tuple[ServiceTagSpec, ...] = ()
    ops: dict[SpanIdentity, OperationSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ops = {op.identity: op for op in self.operations}
        if len(ops) < len(self.operations):
            ids = [op.identity for op in self.operations]
            twice = next(i for i in ids if ids.count(i) > 1)
            raise InvalidTopology(f"operation {twice.label()} declared twice")
        if self.root not in ops:
            raise InvalidTopology(f"root {self.root.label()} not declared")
        for op in self.operations:
            for call in op.calls:
                if call.callee not in ops:
                    raise InvalidTopology(
                        f"{op.identity.label()} calls undeclared {call.callee.label()}"
                    )
        object.__setattr__(self, "ops", ops)
        # DFS coloring over the identity graph to reject call cycles.
        color: dict[SpanIdentity, int] = {}

        def visit(identity: SpanIdentity) -> None:
            if color.get(identity) == 1:
                raise InvalidTopology(f"call cycle through {identity.label()}")
            if color.get(identity) == 2:
                return
            color[identity] = 1
            for call in ops[identity].calls:
                visit(call.callee)
            color[identity] = 2

        visit(self.root)

    def identities(self) -> tuple[SpanIdentity, ...]:
        return tuple(op.identity for op in self.operations)

    def occurrence_counts(self) -> dict[SpanIdentity, int]:
        """Span instances per identity in one fully-traced request."""
        counts: dict[SpanIdentity, int] = {}

        def walk(identity: SpanIdentity, mult: int) -> None:
            counts[identity] = counts.get(identity, 0) + mult
            for call in self.ops[identity].calls:
                walk(call.callee, mult)

        walk(self.root, 1)
        return counts


@dataclass(frozen=True)
class RandomDelayAnomaly:
    """With probability `probability`, one span instance of `target` gains
    a truncated-Normal extra delay in its self time."""

    target: SpanIdentity
    probability: float = 0.5
    delay_mean_us: float = 5000.0
    delay_std_us: float = 1000.0

    def __post_init__(self) -> None:
        _check_fields(
            self, finite=("delay_mean_us",), unit=("probability",), non_negative=("delay_std_us",)
        )


@dataclass(frozen=True)
class ContentionAnomaly:
    """Inflate base latency of every operation of `service` by `factor`
    while the request index falls inside `window` (None means always)."""

    service: str
    factor: float = 2.0
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        _check_fields(self, positive=("factor",), text=("service",))
        w = self.window
        if w is not None and not (
            isinstance(w, tuple)
            and len(w) == 2
            and all(isinstance(x, numbers.Real) and math.isfinite(x) for x in w)
            and w[0] <= w[1]
        ):
            raise InvalidTopology(
                f"ContentionAnomaly.window must be None or two finite numbers with "
                f"start <= end, got {w!r}"
            )


@dataclass(frozen=True)
class CanaryAnomaly:
    """Route a fraction of requests to a slower canary of `service`.

    Canary-routed requests add a truncated-Normal delay to each span of
    the service and stamp tag_key=canary_value on the service's spans;
    everything else gets tag_key=stable_value.
    """

    service: str
    fraction: float = 0.5
    delay_mean_us: float = 5000.0
    delay_std_us: float = 1000.0
    tag_key: str = "service.version"
    canary_value: str = "canary"
    stable_value: str = "stable"

    def __post_init__(self) -> None:
        _check_fields(
            self,
            finite=("delay_mean_us",),
            unit=("fraction",),
            non_negative=("delay_std_us",),
            text=("service", "tag_key", "canary_value", "stable_value"),
        )


AnomalySpec = Union[RandomDelayAnomaly, ContentionAnomaly, CanaryAnomaly]


def anomaly_label(a: AnomalySpec) -> str:
    if isinstance(a, RandomDelayAnomaly):
        return f"random_delay:{a.target.label()}"
    if isinstance(a, ContentionAnomaly):
        return f"contention:{a.service}"
    return f"canary:{a.service}"


def faulty_identities(
    topology: TopologySpec, anomalies: Iterable[AnomalySpec]
) -> tuple[SpanIdentity, ...]:
    """The operations the anomalies act on; an anomaly that names none of
    the topology's operations raises InvalidTopology."""
    out: set[SpanIdentity] = set()
    for a in anomalies:
        if isinstance(a, RandomDelayAnomaly):
            targets = [a.target] if a.target in topology.ops else []
        else:
            targets = [i for i in topology.identities() if i.service == a.service]
        if not targets:
            raise InvalidTopology(f"anomaly {anomaly_label(a)} names no operation of the topology")
        out.update(targets)
    return tuple(sorted(out))


@dataclass
class GroundTruth:
    """Which identities an anomaly set makes faulty, plus when each fired.

    Activations record the request index per trigger, for sampled
    requests only (head-dropped requests are never simulated in full).
    """

    faulty: tuple[SpanIdentity, ...]
    activations: dict[str, list[int]] = field(default_factory=dict)

    def activation_counts(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.activations.items()}


@dataclass(frozen=True)
class WorkloadSpec:
    num_requests: int = 1000
    request_sampling_rate: float = 1.0
    batch_size: int = 50
    rng_seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.request_sampling_rate <= 1.0:
            raise ValueError("request_sampling_rate must lie in (0, 1]")
        if self.batch_size < 1 or self.num_requests < 1:
            raise ValueError("batch_size and num_requests must be positive")


class _Node:
    __slots__ = ("identity", "self_us", "stages", "duration_us", "tags")

    def __init__(self, identity: SpanIdentity, self_us: int, stages: list[list["_Node"]], tags: dict[str, str]):
        self.identity = identity
        self.self_us = self_us
        self.stages = stages
        self.tags = tags
        self.duration_us = self_us + sum(max(c.duration_us for c in st) for st in stages)


def _split_gaps(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def generate_request(
    topology: TopologySpec,
    anomalies: Sequence[AnomalySpec],
    policy: SamplingPolicy | None,
    rng: np.random.Generator,
    *,
    request_index: int = 0,
    sampling_rate: float = 1.0,
    ground_truth: GroundTruth | None = None,
    self_times_out: dict[str, int] | None = None,
) -> Trace | None:
    """Simulate one request; returns None when head sampling drops it.

    An empty or None policy records every span. The generator consumes
    randomness in a fixed order (head sampling, canary routing, service
    tags, then the call tree in declaration order), and recording
    decisions come from a stream forked off at the end, so the same rng
    seed produces identical latencies under any policy.
    """
    if rng.random() >= sampling_rate:
        return None

    canary_routed: dict[str, bool] = {}
    for a in anomalies:
        if isinstance(a, CanaryAnomaly):
            canary_routed[a.service] = bool(rng.random() < a.fraction)
    request_tags: dict[str, dict[str, str]] = {}
    for spec in topology.service_tags:
        value = spec.values[int(rng.integers(len(spec.values)))]
        request_tags.setdefault(spec.service, {})[spec.key] = value

    def fired(a: AnomalySpec) -> None:
        if ground_truth is not None:
            ground_truth.activations.setdefault(anomaly_label(a), []).append(request_index)

    def extra_delay_us(a: RandomDelayAnomaly | CanaryAnomaly, identity: SpanIdentity) -> int:
        # Normal delay truncated at zero.
        return max(0, _finite_us(rng.normal(a.delay_mean_us, a.delay_std_us), identity, "delay"))

    def build(identity: SpanIdentity) -> _Node:
        op = topology.ops[identity]
        base = op.base.draw(rng)
        for a in anomalies:
            if isinstance(a, ContentionAnomaly) and a.service == identity.service:
                if a.window is None or a.window[0] <= request_index < a.window[1]:
                    base *= a.factor
                    fired(a)
        self_us = max(1, _finite_us(base, identity, "latency"))
        tags = dict(request_tags.get(identity.service, {}))
        for a in anomalies:
            if isinstance(a, RandomDelayAnomaly) and a.target == identity:
                if rng.random() < a.probability:
                    self_us += extra_delay_us(a, identity)
                    fired(a)
            elif isinstance(a, CanaryAnomaly) and a.service == identity.service:
                if canary_routed[a.service]:
                    self_us += extra_delay_us(a, identity)
                    tags[a.tag_key] = a.canary_value
                    fired(a)
                else:
                    tags[a.tag_key] = a.stable_value
        stages: list[list[_Node]] = []
        for call in op.calls:
            child = build(call.callee)
            if not stages or call.mode == "sequential":
                stages.append([child])
            else:
                stages[-1].append(child)
        return _Node(identity, self_us, stages, tags)

    root_node = build(topology.root)

    # Recording decisions on a forked stream: policy choices cannot perturb
    # the latency draws above.
    rec_rng = np.random.Generator(np.random.PCG64(int(rng.integers(2**63))))
    trace_id = f"t{request_index:07d}"
    records: list[SpanRecord] = []

    # Pre-order: record `node` at start_us, then lay its stages out inside
    # it, with its self time split into gaps before, between and after them.
    def emit(node: _Node, recorded_parent: str | None, start_us: int) -> None:
        if recorded_parent is None:
            recorded = True  # the root is always recorded
        else:
            p = policy.probability(node.identity) if policy is not None else 1.0
            recorded = bool(rec_rng.random() < p)
        parent_for_children = recorded_parent
        if recorded:
            span_id = parent_for_children = f"s{len(records):04d}"
            if self_times_out is not None:
                # The drawn self time; under a thinning policy the decomposed
                # self segment of a recorded span may exceed it by whatever
                # dropped descendants left uncovered.
                self_times_out[span_id] = node.self_us
            records.append(
                SpanRecord(
                    trace_id=trace_id,
                    span_id=span_id,
                    parent_id=recorded_parent,
                    identity=node.identity,
                    start_us=start_us,
                    duration_us=node.duration_us,
                    tags=node.tags,
                )
            )
        if not node.stages:
            return
        gaps = _split_gaps(node.self_us, len(node.stages) + 1)
        t = start_us + gaps[0]
        for stage, gap in zip(node.stages, gaps[1:]):
            for child in stage:
                emit(child, parent_for_children, t)
            t += max(c.duration_us for c in stage) + gap

    emit(root_node, None, 0)
    return build_trace(records)


def request_rng(seed: int, request_index: int) -> np.random.Generator:
    """Per-request substream: deterministic in (seed, index), order-free."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 7001, request_index))))


def simulate_workload(
    topology: TopologySpec,
    anomalies: Sequence[AnomalySpec],
    workload: WorkloadSpec,
    policy: SamplingPolicy | None = None,
) -> tuple[list[Trace], GroundTruth]:
    """Open-loop run: fixed policy, num_requests requests, returns traces."""
    truth = GroundTruth(faulty=faulty_identities(topology, anomalies))
    traces = []
    for idx in range(workload.num_requests):
        t = generate_request(
            topology,
            anomalies,
            policy,
            request_rng(workload.rng_seed, idx),
            request_index=idx,
            sampling_rate=workload.request_sampling_rate,
            ground_truth=truth,
        )
        if t is not None:
            traces.append(t)
    return traces, truth


# --- closed loop --------------------------------------------------------


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the learning side of the loop."""

    measure: str = "variance"
    lam: float = 0.3
    mode: str = "verbatim_ewma"
    percentile: float = 75.0
    epsilon: float = 0.05


@dataclass(frozen=True)
class EpochMetrics:
    """One row per epoch.

    fraction_enabled is measured against the policy that *generated* the
    epoch (the instrumentation actually paid for, weighted by per-request
    span occurrence counts under full tracing); faulty_probability and
    the top-k hits reflect the policy learned at the end of the epoch.
    """

    epoch: int
    samples_seen: int
    requests_seen: int
    faulty_probability: float
    fraction_enabled: float
    top1_hit: bool
    top3_hit: bool
    top5_hit: bool
    inference_ms: float


@dataclass
class RunResult:
    rows: list[EpochMetrics]
    policy: SamplingPolicy
    store: BeliefStore

    def cumulative_fraction_enabled(self) -> float:
        return float(np.mean([r.fraction_enabled for r in self.rows])) if self.rows else 1.0


AnomalySchedule = Sequence[tuple[int, tuple[AnomalySpec, ...]]]


def run_closed_loop(
    topology: TopologySpec,
    anomalies: Sequence[AnomalySpec] | AnomalySchedule,
    workload: WorkloadSpec,
    controller: ControllerConfig = ControllerConfig(),
    num_epochs: int = 20,
) -> RunResult:
    """Generate -> score -> update -> re-plan, once per epoch.

    `anomalies` is either a flat anomaly sequence or a schedule of
    (start_epoch, anomalies) pairs for mid-run shifts. Each epoch issues
    requests until batch_size traces are sampled, updates beliefs with
    the batch utilities, and publishes the next sampling policy.
    """
    if num_epochs < 1:
        raise ValueError(f"num_epochs must be at least 1, got {num_epochs}")
    flat = list(anomalies)
    if flat and isinstance(flat[0], tuple):
        schedule = sorted((int(e), tuple(a)) for e, a in flat)  # type: ignore[misc]
    else:
        schedule = [(1, tuple(flat))]  # type: ignore[arg-type]
    if schedule[0][0] > 1:
        schedule.insert(0, (1, ()))

    truths = [GroundTruth(faulty=faulty_identities(topology, phase)) for _, phase in schedule]
    weights = topology.occurrence_counts()
    total_weight = sum(weights.values())
    store = BeliefStore(lam=controller.lam, mode=controller.mode)
    policy: SamplingPolicy | None = None
    rows: list[EpochMetrics] = []
    request_index = 0
    samples_seen = 0
    max_attempts_per_epoch = workload.batch_size * max(
        20, int(8.0 / workload.request_sampling_rate)
    )

    for epoch in range(1, num_epochs + 1):
        phase_i = max(i for i, (start, _) in enumerate(schedule) if start <= epoch)
        active_anomalies = schedule[phase_i][1]
        truth = truths[phase_i]

        traces: list[Trace] = []
        give_up_at = request_index + max_attempts_per_epoch
        while len(traces) < workload.batch_size and request_index < give_up_at:
            t = generate_request(
                topology,
                active_anomalies,
                policy,
                request_rng(workload.rng_seed, request_index),
                request_index=request_index,
                sampling_rate=workload.request_sampling_rate,
                ground_truth=truth,
            )
            request_index += 1
            if t is not None:
                traces.append(t)
        samples_seen += len(traces)

        fraction_enabled = (
            sum(
                w * (policy.probability(i) if policy is not None else 1.0)
                for i, w in weights.items()
            )
            / total_weight
        )

        t0 = time.perf_counter()
        learn_batch(store, traces, controller.measure)
        policy = build_policy(store, VitalSetConfig(controller.percentile, controller.epsilon))
        inference_ms = (time.perf_counter() - t0) * 1000.0

        ranked = report(policy, store)
        faulty = truth.faulty
        top_ids = [r.identity for r in ranked.rows]
        hits = {
            k: (not ranked.ambiguous) and any(i in faulty for i in top_ids[:k])
            for k in (1, 3, 5)
        }
        faulty_probability = (
            float(np.mean([policy.probability(i) for i in faulty])) if faulty else 0.0
        )
        rows.append(
            EpochMetrics(
                epoch=epoch,
                samples_seen=samples_seen,
                requests_seen=request_index,
                faulty_probability=faulty_probability,
                fraction_enabled=fraction_enabled,
                top1_hit=hits[1],
                top3_hit=hits[3],
                top5_hit=hits[5],
                inference_ms=inference_ms,
            )
        )

    return RunResult(rows=rows, policy=policy, store=store)


def shift_anomaly(
    topology: TopologySpec,
    before: Sequence[AnomalySpec],
    after: Sequence[AnomalySpec],
    shift_epoch: int,
    workload: WorkloadSpec,
    controller: ControllerConfig = ControllerConfig(),
    num_epochs: int = 40,
) -> RunResult:
    """Run with `before` active, swapping to `after` at shift_epoch."""
    schedule = [(1, tuple(before)), (shift_epoch, tuple(after))]
    return run_closed_loop(topology, schedule, workload, controller, num_epochs)


# --- one-document spec format --------------------------------------------


def _identity_dict(identity: SpanIdentity) -> dict:
    return {"service": identity.service, "operation": identity.operation, "url": identity.url}


def _identity_from(obj: dict) -> SpanIdentity:
    return SpanIdentity(obj["service"], obj["operation"], obj.get("url", ""))


def _service_tag_from(obj: dict) -> ServiceTagSpec:
    # tuple() of a JSON string would split it into one tag value per character.
    values = obj["values"]
    if not isinstance(values, list):
        raise InvalidTopology(f"ServiceTagSpec.values must be a JSON list, got {values!r}")
    return ServiceTagSpec(obj["service"], obj["key"], tuple(values))


def anomaly_to_dict(a: AnomalySpec) -> dict:
    if isinstance(a, RandomDelayAnomaly):
        return {
            "kind": "random_delay",
            "target": _identity_dict(a.target),
            "probability": a.probability,
            "delayMeanUs": a.delay_mean_us,
            "delayStdUs": a.delay_std_us,
        }
    if isinstance(a, ContentionAnomaly):
        return {
            "kind": "contention",
            "service": a.service,
            "factor": a.factor,
            "window": list(a.window) if a.window else None,
        }
    return {
        "kind": "canary",
        "service": a.service,
        "fraction": a.fraction,
        "delayMeanUs": a.delay_mean_us,
        "delayStdUs": a.delay_std_us,
        "tagKey": a.tag_key,
        "canaryValue": a.canary_value,
        "stableValue": a.stable_value,
    }


def anomaly_from_dict(obj: dict) -> AnomalySpec:
    kind = obj["kind"]
    if kind == "random_delay":
        return RandomDelayAnomaly(
            target=_identity_from(obj["target"]),
            probability=float(obj["probability"]),
            delay_mean_us=float(obj["delayMeanUs"]),
            delay_std_us=float(obj["delayStdUs"]),
        )
    if kind == "contention":
        window = obj.get("window")
        return ContentionAnomaly(
            service=obj["service"],
            factor=float(obj["factor"]),
            window=tuple(window) if isinstance(window, list) else window,
        )
    if kind == "canary":
        return CanaryAnomaly(
            service=obj["service"],
            fraction=float(obj["fraction"]),
            delay_mean_us=float(obj["delayMeanUs"]),
            delay_std_us=float(obj["delayStdUs"]),
            tag_key=obj.get("tagKey", "service.version"),
            canary_value=obj.get("canaryValue", "canary"),
            stable_value=obj.get("stableValue", "stable"),
        )
    raise ValueError(f"unknown anomaly kind {kind!r}")


def spec_to_json_dict(
    topology: TopologySpec, anomalies: Sequence[AnomalySpec], workload: WorkloadSpec
) -> dict:
    return {
        "topology": {
            "root": _identity_dict(topology.root),
            "operations": [
                {
                    **_identity_dict(op.identity),
                    "muLog": op.base.mu_log,
                    "sigmaLog": op.base.sigma_log,
                    "calls": [
                        {**_identity_dict(c.callee), "mode": c.mode} for c in op.calls
                    ],
                }
                for op in topology.operations
            ],
            "serviceTags": [
                {"service": t.service, "key": t.key, "values": list(t.values)}
                for t in topology.service_tags
            ],
        },
        "anomalies": [anomaly_to_dict(a) for a in anomalies],
        "workload": {
            "numRequests": workload.num_requests,
            "requestSamplingRate": workload.request_sampling_rate,
            "batchSize": workload.batch_size,
            "rngSeed": workload.rng_seed,
        },
    }


def spec_from_json_dict(obj: dict) -> tuple[TopologySpec, tuple[AnomalySpec, ...], WorkloadSpec]:
    topo = obj["topology"]
    operations = tuple(
        OperationSpec(
            identity=_identity_from(op),
            base=LatencyModel(float(op["muLog"]), float(op["sigmaLog"])),
            calls=tuple(
                CallSpec(_identity_from(c), c.get("mode", "sequential"))
                for c in op.get("calls", [])
            ),
        )
        for op in topo["operations"]
    )
    topology = TopologySpec(
        root=_identity_from(topo["root"]),
        operations=operations,
        service_tags=tuple(_service_tag_from(t) for t in topo.get("serviceTags", [])),
    )
    anomalies = tuple(anomaly_from_dict(a) for a in obj.get("anomalies", []))
    w = obj.get("workload", {})
    workload = WorkloadSpec(
        num_requests=int(w.get("numRequests", 1000)),
        request_sampling_rate=float(w.get("requestSamplingRate", 1.0)),
        batch_size=int(w.get("batchSize", 50)),
        rng_seed=int(w.get("rngSeed", 1)),
    )
    return topology, anomalies, workload


def save_spec(
    topology: TopologySpec,
    anomalies: Sequence[AnomalySpec],
    workload: WorkloadSpec,
    path: str,
) -> None:
    write_json(spec_to_json_dict(topology, anomalies, workload), path)


def load_spec(path: str) -> tuple[TopologySpec, tuple[AnomalySpec, ...], WorkloadSpec]:
    with open(path) as f:
        return spec_from_json_dict(json.load(f))


def ground_truth_to_json_dict(truth: GroundTruth) -> dict:
    return {
        "faulty": [_identity_dict(i) for i in truth.faulty],
        "activations": {k: v for k, v in sorted(truth.activations.items())},
    }


def with_seed(workload: WorkloadSpec, seed: int) -> WorkloadSpec:
    return replace(workload, rng_seed=seed)
