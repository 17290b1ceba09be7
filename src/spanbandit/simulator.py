"""Microservice trace simulator with a closed controller-in-the-loop mode.

Latency is composed generatively: every operation draws its own self time
from a lognormal, children are laid out inside the parent (sequential
calls end-to-end, parallel calls from a common start), and the parent's
duration is exactly self time plus the waiting implied by that layout.
Decomposing a generated trace therefore recovers the configured self
times without error, which makes ground truth checkable.

Each request is one pre-order walk that draws every operation and lays
out its stages into a flat span list, then one loop over that list that
makes the recording decisions. The trace is valid by construction, so
its recorded rows go to `trace_from_rows`, which lays them out in
preorder, and are not re-validated through `build_trace`.

Sampling policies act at span granularity. A span whose recording
decision fails is *not* free: the work still happens, the span is simply
omitted from the trace and its children re-attach to the nearest
recorded ancestor, where the omitted time surfaces as extra self time.
The root span is always recorded so every sampled request yields a
valid trace.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .abs_sampler import SamplingPolicy, VitalSetConfig, build_policy, report
from .belief import BeliefStore, json_integer, json_list, json_number, json_object, update_epoch, write_json
from .trace_model import (
    SPAN_TIME_LIMIT_US,
    SpanIdentity,
    Trace,
    identity_from_json,
    identity_to_json,
    trace_from_rows,
)
from .utility import DEFAULT_MEASURE, UtilityEstimate, compute_batch_utilities, measure_min_samples


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
        # A bool, a string or a non-finite value is refused; an int is stored as a float.
        value = json_number(getattr(obj, name), f"{type(obj).__name__}.{name}", InvalidTopology)
        object.__setattr__(obj, name, value)
        if name in unit and not 0.0 <= value <= 1.0:
            problem = "lie in [0, 1]"
        elif name in non_negative and value < 0.0:
            problem = "be >= 0"
        elif name in positive and value <= 0.0:
            problem = "be > 0"
        else:
            continue
        raise InvalidTopology(f"{type(obj).__name__}.{name} must {problem}, got {value!r}")


def _finite_us(value: float, identity: SpanIdentity, what: str) -> int:
    """`value` rounded to whole microseconds; a non-finite draw, or one past
    what a span can hold, names the operation."""
    if not math.isfinite(value):
        raise InvalidTopology(f"{identity.label()} drew a non-finite {what} ({value!r})")
    if value >= SPAN_TIME_LIMIT_US:
        raise InvalidTopology(f"{identity.label()} drew a {what} of {value!r} us, past 2**62")
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
    # The callees grouped as they run: a sequential call opens a stage, and a
    # parallel call joins the stage before it.
    stages: tuple[tuple[SpanIdentity, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        stages: list[list[SpanIdentity]] = []
        for call in self.calls:
            if not stages or call.mode == "sequential":
                stages.append([call.callee])
            else:
                stages[-1].append(call.callee)
        object.__setattr__(self, "stages", tuple(map(tuple, stages)))


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


def anomaly_labels(anomalies: Sequence[AnomalySpec]) -> list[str]:
    """One ground-truth key per anomaly: its label, with a positional
    suffix (#2, #3, ...) on the second and later anomalies sharing it."""
    seen: dict[str, int] = {}
    out = []
    for a in anomalies:
        label = anomaly_label(a)
        seen[label] = seen.get(label, 0) + 1
        out.append(label if seen[label] == 1 else f"{label}#{seen[label]}")
    return out


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

    Activations are keyed by `anomaly_labels` and record the request index
    per trigger, for sampled requests only (head-dropped requests are never
    simulated in full).
    """

    faulty: tuple[SpanIdentity, ...]
    activations: dict[str, list[int]] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkloadSpec:
    num_requests: int = 1000
    request_sampling_rate: float = 1.0
    batch_size: int = 50
    rng_seed: int = 1

    def __post_init__(self) -> None:
        # The spec file's rules, naming its keys; numpy draws need a seed >= 0.
        for name, key, least in (
            ("num_requests", "numRequests", 1),
            ("batch_size", "batchSize", 1),
            ("rng_seed", "rngSeed", 0),
        ):
            value = json_integer(getattr(self, name), key, InvalidTopology)
            if value < least:
                raise InvalidTopology(f"{key} must be at least {least}, got {value}")
            object.__setattr__(self, name, value)
        rate = json_number(self.request_sampling_rate, "requestSamplingRate", InvalidTopology)
        object.__setattr__(self, "request_sampling_rate", rate)
        if not 0.0 < rate <= 1.0:
            raise InvalidTopology(
                f"requestSamplingRate must lie in (0, 1], got {rate!r}"
            )


def _extra_delay_us(a: RandomDelayAnomaly | CanaryAnomaly, identity: SpanIdentity, rng) -> int:
    # Normal delay truncated at zero.
    return max(0, _finite_us(rng.normal(a.delay_mean_us, a.delay_std_us), identity, "delay"))


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

    # One routing draw per canary, kept by its position in `anomalies`.
    routed = [isinstance(a, CanaryAnomaly) and bool(rng.random() < a.fraction) for a in anomalies]
    request_tags: dict[str, dict[str, str]] = {}
    for spec in topology.service_tags:
        value = spec.values[int(rng.integers(len(spec.values)))]
        request_tags.setdefault(spec.service, {})[spec.key] = value

    labels = anomaly_labels(anomalies) if ground_truth is not None else []

    def fired(i: int) -> None:
        if ground_truth is not None:
            ground_truth.activations.setdefault(labels[i], []).append(request_index)

    # Pre-order list of [identity, parent index, start, duration, self, tags].
    spans: list[list] = []

    def walk(identity: SpanIdentity, parent: int | None, start_us: int) -> int:
        # Draws one operation and returns its duration; its self time splits
        # into gaps before, between and after its stages.
        op = topology.ops[identity]
        base = op.base.draw(rng)
        for i, a in enumerate(anomalies):
            if isinstance(a, ContentionAnomaly) and a.service == identity.service:
                if a.window is None or a.window[0] <= request_index < a.window[1]:
                    base *= a.factor
                    fired(i)
        self_us = max(1, _finite_us(base, identity, "latency"))
        tags = dict(request_tags.get(identity.service, {}))
        for i, (a, canary_routed) in enumerate(zip(anomalies, routed)):
            if isinstance(a, RandomDelayAnomaly) and a.target == identity:
                if rng.random() < a.probability:
                    self_us += _extra_delay_us(a, identity, rng)
                    fired(i)
            elif isinstance(a, CanaryAnomaly) and a.service == identity.service:
                if canary_routed:
                    self_us += _extra_delay_us(a, identity, rng)
                    tags[a.tag_key] = a.canary_value
                    fired(i)
                else:
                    tags[a.tag_key] = a.stable_value
        span = [identity, parent, start_us, 0, self_us, tags]
        index = len(spans)
        spans.append(span)
        gap, rem = divmod(self_us, len(op.stages) + 1)
        t = start_us + gap + (rem > 0)
        for i, stage in enumerate(op.stages, 1):
            t += max([walk(callee, index, t) for callee in stage]) + gap + (i < rem)
        span[3] = t - start_us
        return span[3]

    walk(topology.root, None, 0)
    if spans[0][3] >= SPAN_TIME_LIMIT_US:  # each draw fits, but their sum, the root's end, may not
        raise InvalidTopology(f"{topology.root.label()} has a duration of {spans[0][3]} us, past 2**62")

    # Recording decisions on a forked stream: policy choices cannot perturb
    # the latency draws above. A dropped span's children attach to its
    # nearest recorded ancestor; the root is always recorded.
    rec_rng = np.random.Generator(np.random.PCG64(int(rng.integers(2**63))))
    span_ids: list[str] = []
    parents: list[int] = []
    identities: list[SpanIdentity] = []
    starts: list[int] = []
    durations: list[int] = []
    recorded_tags: dict[int, dict[str, str]] = {}
    attach_to: list[int] = []  # per walked span: its row if recorded, else its parent's
    for identity, parent, start_us, duration_us, self_us, tags in spans:
        parent_row = -1 if parent is None else attach_to[parent]
        if parent is not None:
            p = policy.probability(identity) if policy is not None else 1.0
            if not rec_rng.random() < p:
                attach_to.append(parent_row)
                continue
        row = len(span_ids)
        span_id = f"s{row:04d}"
        attach_to.append(row)
        if self_times_out is not None:
            # The drawn self time; under a thinning policy the decomposed
            # self segment of a recorded span may exceed it by whatever
            # dropped descendants left uncovered.
            self_times_out[span_id] = self_us
        span_ids.append(span_id)
        parents.append(parent_row)
        identities.append(identity)
        starts.append(start_us)
        durations.append(duration_us)
        if tags:
            recorded_tags[row] = tags
    # Valid by construction: one root, every parent recorded before its children.
    return trace_from_rows(
        f"t{request_index:07d}", span_ids, parents, identities, starts, durations, recorded_tags
    )


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
    """Knobs of the learning side of the loop, defaulting to, and checked by, their owners;
    `learn` and `plan` are the two halves of one epoch step."""

    measure: str = DEFAULT_MEASURE
    lam: float = BeliefStore.lam
    mode: str = BeliefStore.mode
    percentile: float = VitalSetConfig.percentile_p
    epsilon: float = VitalSetConfig.epsilon

    def __post_init__(self) -> None:
        BeliefStore(lam=self.lam, mode=self.mode)
        self._vital_set()
        measure_min_samples(self.measure)

    def _vital_set(self) -> VitalSetConfig:
        return VitalSetConfig(self.percentile, self.epsilon)

    def learn(self, store: BeliefStore, traces: Sequence[Trace]) -> list[UtilityEstimate]:
        """Score the batch, then update `store` in place; returns the estimates applied.

        An estimate from fewer observations than the measure needs (a single
        observation carries no spread) is withheld, so its identity is left
        untouched as if absent instead of being pushed toward zero utility.
        """
        floor = measure_min_samples(self.measure)
        estimates = [e for e in compute_batch_utilities(traces, self.measure) if e.sample_count >= floor]
        update_epoch(store, estimates)
        return estimates

    def plan(self, store: BeliefStore) -> SamplingPolicy:
        """The next sampling policy for `store`'s beliefs."""
        return build_policy(store, self._vital_set())


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
class EpochRecord:
    """One epoch of `closed_loop`: its metrics row, the batch it learned
    from, the store it updated and the policy it planned. `store` is the
    loop's own live store, which later epochs go on updating."""

    metrics: EpochMetrics
    traces: list[Trace]
    store: BeliefStore
    policy: SamplingPolicy


@dataclass
class RunResult:
    rows: list[EpochMetrics]

    def cumulative_fraction_enabled(self) -> float:
        return float(np.mean([r.fraction_enabled for r in self.rows])) if self.rows else 1.0


AnomalySchedule = Sequence[tuple[int, tuple[AnomalySpec, ...]]]


def closed_loop(
    topology: TopologySpec,
    anomalies: Sequence[AnomalySpec] | AnomalySchedule,
    workload: WorkloadSpec,
    controller: ControllerConfig = ControllerConfig(),
) -> Iterator[EpochRecord]:
    """Generate -> score -> update -> re-plan, one `EpochRecord` per epoch, without end.

    `anomalies` is either a flat anomaly sequence or a schedule of
    (start_epoch, anomalies) pairs for mid-run shifts; every phase is
    checked when the first epoch is asked for, before its first request.
    Each epoch issues requests until batch_size traces are sampled (or
    its attempt cap is hit), updates beliefs with the batch utilities,
    and publishes the next sampling policy. Of the workload, only
    batch_size, request_sampling_rate and rng_seed are read:
    `num_requests` bounds the open-loop `simulate_workload`, not this
    loop, which runs for as many epochs as its caller asks for. Epoch k
    depends on no later epoch, so a caller may stop at any epoch.
    """
    flat = list(anomalies)
    if flat and isinstance(flat[0], tuple):
        schedule = sorted((int(e), tuple(a)) for e, a in flat)  # type: ignore[misc]
    else:
        schedule = [(1, tuple(flat))]  # type: ignore[arg-type]
    if schedule[0][0] > 1:
        schedule.insert(0, (1, ()))

    faulty_sets = [faulty_identities(topology, phase) for _, phase in schedule]
    weights = topology.occurrence_counts()
    total_weight = sum(weights.values())
    store = BeliefStore(lam=controller.lam, mode=controller.mode)
    policy: SamplingPolicy | None = None
    request_index = 0
    samples_seen = 0
    max_attempts_per_epoch = workload.batch_size * max(
        20, int(8.0 / workload.request_sampling_rate)
    )

    for epoch in itertools.count(1):
        phase_i = max(i for i, (start, _) in enumerate(schedule) if start <= epoch)
        active_anomalies = schedule[phase_i][1]
        faulty = faulty_sets[phase_i]

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
        controller.learn(store, traces)
        policy = controller.plan(store)
        inference_ms = (time.perf_counter() - t0) * 1000.0

        ranked = report(policy, store)
        top_ids = [r.identity for r in ranked.rows]
        hits = {
            k: (not ranked.ambiguous) and any(i in faulty for i in top_ids[:k])
            for k in (1, 3, 5)
        }
        faulty_probability = (
            float(np.mean([policy.probability(i) for i in faulty])) if faulty else 0.0
        )
        metrics = EpochMetrics(
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
        yield EpochRecord(metrics, traces, store, policy)


def run_closed_loop(
    topology: TopologySpec,
    anomalies: Sequence[AnomalySpec] | AnomalySchedule,
    workload: WorkloadSpec,
    controller: ControllerConfig = ControllerConfig(),
    *,
    num_epochs: int,
) -> RunResult:
    """The metrics rows of `closed_loop`'s first `num_epochs` epochs."""
    if num_epochs < 1:
        raise ValueError(f"num_epochs must be at least 1, got {num_epochs}")
    epochs = closed_loop(topology, anomalies, workload, controller)
    return RunResult([record.metrics for record in itertools.islice(epochs, num_epochs)])


# --- one-document spec format --------------------------------------------


def _objects(value, key: str) -> list[dict]:
    """`value`, read under `key`, as a JSON list of objects."""
    values = json_list(value, key, InvalidTopology)
    return [json_object(v, f"an entry of {key}", InvalidTopology) for v in values]


def _identity_from(value, key: str) -> SpanIdentity:
    return identity_from_json(json_object(value, key, InvalidTopology))


def anomaly_to_dict(a: AnomalySpec) -> dict:
    if isinstance(a, RandomDelayAnomaly):
        return {
            "kind": "random_delay",
            "target": identity_to_json(a.target),
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
            target=_identity_from(obj["target"], "target"),
            probability=obj["probability"],
            delay_mean_us=obj["delayMeanUs"],
            delay_std_us=obj["delayStdUs"],
        )
    if kind == "contention":
        window = obj.get("window")
        return ContentionAnomaly(
            service=obj["service"],
            factor=obj["factor"],
            window=tuple(window) if isinstance(window, list) else window,
        )
    if kind == "canary":
        return CanaryAnomaly(
            service=obj["service"],
            fraction=obj["fraction"],
            delay_mean_us=obj["delayMeanUs"],
            delay_std_us=obj["delayStdUs"],
            tag_key=obj.get("tagKey", CanaryAnomaly.tag_key),
            canary_value=obj.get("canaryValue", CanaryAnomaly.canary_value),
            stable_value=obj.get("stableValue", CanaryAnomaly.stable_value),
        )
    raise ValueError(f"unknown anomaly kind {kind!r}")


def spec_to_json_dict(
    topology: TopologySpec, anomalies: Sequence[AnomalySpec], workload: WorkloadSpec
) -> dict:
    return {
        "topology": {
            "root": identity_to_json(topology.root),
            "operations": [
                {
                    **identity_to_json(op.identity),
                    "muLog": op.base.mu_log,
                    "sigmaLog": op.base.sigma_log,
                    "calls": [
                        {**identity_to_json(c.callee), "mode": c.mode} for c in op.calls
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
        "workload": _workload_to_dict(workload),
    }


def _workload_to_dict(workload: WorkloadSpec) -> dict:
    return {
        "numRequests": workload.num_requests,
        "requestSamplingRate": workload.request_sampling_rate,
        "batchSize": workload.batch_size,
        "rngSeed": workload.rng_seed,
    }


def spec_from_json_dict(obj: dict) -> tuple[TopologySpec, tuple[AnomalySpec, ...], WorkloadSpec]:
    obj = json_object(obj, "a spec file", InvalidTopology)
    topo = json_object(obj["topology"], "topology", InvalidTopology)
    operations = tuple(
        OperationSpec(
            identity=identity_from_json(op),
            base=LatencyModel(op["muLog"], op["sigmaLog"]),
            calls=tuple(
                CallSpec(identity_from_json(c), c.get("mode", CallSpec.mode))
                for c in _objects(op.get("calls", []), "calls")
            ),
        )
        for op in _objects(topo["operations"], "operations")
    )
    topology = TopologySpec(
        root=_identity_from(topo["root"], "root"),
        operations=operations,
        service_tags=tuple(
            # tuple() of a JSON string would split it into one tag value per character.
            ServiceTagSpec(
                t["service"], t["key"], tuple(json_list(t["values"], "ServiceTagSpec.values", InvalidTopology))
            )
            for t in _objects(topo.get("serviceTags", []), "serviceTags")
        ),
    )
    anomalies = tuple(anomaly_from_dict(a) for a in _objects(obj.get("anomalies", []), "anomalies"))
    # A workload key the file leaves out reads as WorkloadSpec's default.
    given = json_object(obj.get("workload", {}), "workload", InvalidTopology)
    w = {**_workload_to_dict(WorkloadSpec()), **given}
    workload = WorkloadSpec(w["numRequests"], w["requestSamplingRate"], w["batchSize"], w["rngSeed"])
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
        "faulty": [identity_to_json(i) for i in truth.faulty],
        "activations": {k: v for k, v in sorted(truth.activations.items())},
    }


def with_seed(workload: WorkloadSpec, seed: int) -> WorkloadSpec:
    return replace(workload, rng_seed=seed)
