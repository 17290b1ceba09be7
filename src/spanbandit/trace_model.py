"""Span records, trace assembly, and latency decomposition.

A trace is a tree of spans, held as its preorder: built once, with each
span's children in (start, span_id) order. Each span's wall-clock
duration splits into time spent waiting on recorded children (the union
of their intervals, clipped to the parent) and a self segment, the
remainder. Because the preorder visits a parent's children in start
order, that union is one sweep over it. All times are integer
microseconds, so the split is exact: for every span,

    self_segment_us + child_waiting_us == duration_us

holds without rounding error.

Spans are kept lean, since a trace file holds far more spans than
distinct identities or traces. `read_traces_jsonl` shares one
`SpanIdentity` object among the spans of each distinct (service,
operation, url) in a read, and one `trace_id` string among the spans of
each trace. `SpanRecord` is slotted, and a `DecomposedSpan` row is a
named tuple, so it also compares equal to a plain tuple of its fields.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple


class TraceError(ValueError):
    """Base class for trace validation and parsing failures."""


class DuplicateSpanId(TraceError):
    pass


class MultipleRoots(TraceError):
    pass


class OrphanSpan(TraceError):
    pass


class CycleDetected(TraceError):
    pass


class TraceFormatError(TraceError):
    """Raised for malformed JSONL input; the message names the line."""


@dataclass(frozen=True, order=True)
class SpanIdentity:
    """What a span *is*: the (service, operation, url) triple.

    Learning state is keyed by identity, never by span instance, so two
    spans of the same endpoint in different traces share one belief.
    The url component is optional and defaults to empty.
    """

    service: str
    operation: str
    url: str = ""

    def __post_init__(self) -> None:
        # One test on the ingest path; the loop only names the bad field.
        if not (
            isinstance(self.service, str)
            and isinstance(self.operation, str)
            and isinstance(self.url, str)
        ):
            for name in ("service", "operation", "url"):
                value = getattr(self, name)
                if not isinstance(value, str):
                    raise ValueError(f"span identity {name} must be a string, got {value!r}")
        if not self.service or not self.operation:
            raise ValueError("span identity needs a non-empty service and operation")

    def label(self) -> str:
        base = f"{self.service}/{self.operation}"
        return f"{base}[{self.url}]" if self.url else base


def identity_to_json(identity: SpanIdentity) -> dict:
    """The {service, operation, url} object of the belief, policy, spec and truth files."""
    return {"service": identity.service, "operation": identity.operation, "url": identity.url}


def identity_from_json(obj: dict) -> SpanIdentity:
    return SpanIdentity(obj["service"], obj["operation"], obj.get("url", ""))


@dataclass(slots=True)
class SpanRecord:
    """One observed span instance inside a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    identity: SpanIdentity
    start_us: int
    duration_us: int
    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The span JSONL rules, naming wire keys; straight-line, as every span passes here.
        if not (isinstance(self.trace_id, str) and self.trace_id):
            raise TraceError(f"traceId must be a non-empty string, got {self.trace_id!r}")
        if not (isinstance(self.span_id, str) and self.span_id):
            raise TraceError(f"spanId must be a non-empty string, got {self.span_id!r}")
        if not (self.parent_id is None or isinstance(self.parent_id, str) and self.parent_id):
            raise TraceError(f"parentId must be null or a non-empty string, got {self.parent_id!r}")
        if not (type(self.start_us) is int and self.start_us >= 0):  # a bool is no int here
            raise TraceError(f"startUs must be a non-negative integer, got {self.start_us!r}")
        if not (type(self.duration_us) is int and self.duration_us >= 0):
            raise TraceError(f"durationUs must be a non-negative integer, got {self.duration_us!r}")
        if not isinstance(self.tags, dict):
            raise TraceError(f"tags must be an object, got {self.tags!r}")

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us


class DecomposedSpan(NamedTuple):
    """Latency split for one span instance: duration = child_waiting + self."""

    identity: SpanIdentity
    span_id: str
    duration_us: int
    child_waiting_us: int
    self_segment_us: int


class Trace:
    """A span tree for one request, held as its preorder.

    The preorder is built here, once: each span is followed by its
    children's subtrees, children in (start, span_id) order, so the order
    never depends on the order of the records. A span that no parent
    chain links to the root is left out; `build_trace` rejects such trees.
    """

    def __init__(self, trace_id: str, spans: dict[str, SpanRecord], root_id: str):
        self.trace_id = trace_id
        self._spans = spans
        self.root_id = root_id
        # Children appended in (start, span_id) order, then walked from the root.
        children: dict[str, list[SpanRecord]] = {}
        for rec in sorted(spans.values(), key=lambda r: (r.start_us, r.span_id)):
            if rec.parent_id is not None:
                children.setdefault(rec.parent_id, []).append(rec)
        order = []
        stack = [spans[root_id]]
        while stack:
            rec = stack.pop()
            order.append(rec)
            stack.extend(reversed(children.get(rec.span_id, ())))
        self._preorder = order

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def root(self) -> SpanRecord:
        return self._spans[self.root_id]

    def span(self, span_id: str) -> SpanRecord:
        return self._spans[span_id]

    def preorder(self) -> list[SpanRecord]:
        return self._preorder

    def end_to_end_latency_us(self) -> int:
        return self.root.duration_us


def build_trace(records: Iterable[SpanRecord], lenient: bool = False) -> Trace:
    """Assemble span records into a validated tree.

    Strict mode rejects duplicate span ids, multiple roots, orphans
    (parent_id that resolves to no span), and parent cycles. With
    lenient=True orphans are re-parented to the root instead, which is
    what partial traces produced by sampling-disabled ancestors need.
    """
    spans: dict[str, SpanRecord] = {}
    trace_id = None
    for rec in records:
        if trace_id is None:
            trace_id = rec.trace_id
        elif rec.trace_id != trace_id:
            raise TraceError(
                f"span {rec.span_id}: trace id {rec.trace_id!r} does not match {trace_id!r}"
            )
        if rec.span_id in spans:
            raise DuplicateSpanId(f"duplicate span id {rec.span_id}")
        spans[rec.span_id] = rec
    if not spans:
        raise TraceError("empty trace")

    roots = [r.span_id for r in spans.values() if r.parent_id is None]
    if len(roots) > 1:
        raise MultipleRoots(f"multiple roots: {', '.join(sorted(roots))}")

    orphans = [r.span_id for r in spans.values() if r.parent_id is not None and r.parent_id not in spans]
    if orphans and not (lenient and roots):
        raise OrphanSpan(f"span {sorted(orphans)[0]} has unknown parent")
    if not roots:
        # Every span has a resolving parent, so some parent chain loops.
        raise CycleDetected(f"no root span; span {sorted(spans)[0]} sits on a parent cycle")
    root_id = roots[0]
    for sid in orphans:
        spans[sid] = replace(spans[sid], parent_id=root_id)

    trace = Trace(trace_id or "", spans, root_id)
    # One root and every parent resolved: a span the root's preorder misses
    # sits on a parent cycle or hangs from one.
    if len(trace.preorder()) < len(spans):
        missed = spans.keys() - {rec.span_id for rec in trace.preorder()}
        raise CycleDetected(f"span {min(missed)} sits on or under a parent cycle")
    return trace


def decompose(trace: Trace) -> list[DecomposedSpan]:
    """Split every span's duration into child-waiting and self time.

    One sweep over the preorder, which visits each parent's children in
    start order: the union of their intervals, each clipped to the
    parent's, grows by the part of a child that lies past how far the
    parent's earlier children already reach. Clipping keeps the self
    segment non-negative when a child overruns its parent. Output follows
    preorder and is independent of the ordering of the records the trace
    was built from.
    """
    order = trace.preorder()
    spans = trace._spans
    waiting: dict[str, int] = {}
    covered: dict[str, int] = {}  # per parent: how far its children's union reaches
    for rec in order[1:]:  # every span after the root has a parent
        pid = rec.parent_id
        parent = spans[pid]
        lo = max(rec.start_us, covered.get(pid, parent.start_us))
        hi = min(rec.start_us + rec.duration_us, parent.start_us + parent.duration_us)
        if hi > lo:
            waiting[pid] = waiting.get(pid, 0) + hi - lo
            covered[pid] = hi
    out = []
    for rec in order:
        w = waiting.get(rec.span_id, 0)
        out.append(DecomposedSpan(rec.identity, rec.span_id, rec.duration_us, w, rec.duration_us - w))
    return out


# --- JSONL wire format ------------------------------------------------------
#
# One span per line:
# {"traceId": ..., "spanId": ..., "parentId": ...?, "service": ...,
#  "operation": ..., "url": ..., "startUs": int, "durationUs": int,
#  "tags": {...}}


def span_to_json(rec: SpanRecord) -> str:
    obj: dict = {"traceId": rec.trace_id, "spanId": rec.span_id}
    if rec.parent_id is not None:
        obj["parentId"] = rec.parent_id
    obj["service"] = rec.identity.service
    obj["operation"] = rec.identity.operation
    obj["url"] = rec.identity.url
    obj["startUs"] = rec.start_us
    obj["durationUs"] = rec.duration_us
    obj["tags"] = dict(sorted(rec.tags.items()))
    return json.dumps(obj, separators=(",", ":"))


def span_from_json(
    line: str, line_no: int = 0, identities: dict[tuple[str, str, str], SpanIdentity] | None = None
) -> SpanRecord:
    """Parse one JSONL line; SpanRecord and SpanIdentity hold the format's rules.

    `identities`, when given, maps (service, operation, url) to the
    SpanIdentity already made for it, and gains any new one. Only three
    str fields are looked up: any other value (a list is not even
    hashable) goes to SpanIdentity, which rejects it.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise TraceFormatError(f"line {line_no}: malformed JSON ({e.msg})") from e
    if not isinstance(obj, dict):
        raise TraceFormatError(f"line {line_no}: expected a JSON object")
    service, operation, url = obj.get("service"), obj.get("operation"), obj.get("url", "")
    try:
        if identities is not None and type(service) is type(operation) is type(url) is str:
            key = (service, operation, url)
            identity = identities.get(key)
            if identity is None:
                identity = identities[key] = SpanIdentity(service, operation, url)
        else:
            identity = SpanIdentity(service, operation, url)
        rec = SpanRecord(
            obj.get("traceId"), obj.get("spanId"), obj.get("parentId"), identity,
            obj.get("startUs"), obj.get("durationUs"), obj.get("tags", {}),
        )
    except ValueError as e:
        raise TraceFormatError(f"line {line_no}: {e}") from e
    rec.tags = {str(k): str(v) for k, v in rec.tags.items()}
    return rec


def write_traces_jsonl(traces: Iterable[Trace], path: str) -> None:
    with open(path, "w") as f:
        for trace in traces:
            for rec in trace.preorder():
                f.write(span_to_json(rec) + "\n")


def read_traces_jsonl(path: str, lenient: bool = False) -> list[Trace]:
    """Read traces from JSONL, grouping lines by traceId in first-seen order.

    One read shares one SpanIdentity per distinct identity, and each
    trace's spans share its first span's trace id string.
    """
    identities: dict[tuple[str, str, str], SpanIdentity] = {}
    groups: dict[str, list[SpanRecord]] = {}
    with open(path) as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            rec = span_from_json(line, i, identities)
            group = groups.setdefault(rec.trace_id, [])
            if group:
                rec.trace_id = group[0].trace_id
            group.append(rec)
    return [build_trace(records, lenient=lenient) for records in groups.values()]
