"""Span records, trace assembly, and latency decomposition.

A trace is a tree of spans. Each span's wall-clock duration splits into
time spent waiting on recorded children (the union of their intervals,
clipped to the parent) and a self segment, the remainder. All times are
integer microseconds, so the split is exact: for every span,

    self_segment_us + child_waiting_us == duration_us

holds without rounding error.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator


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


@dataclass
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
        if not isinstance(self.start_us, int) or not isinstance(self.duration_us, int):
            raise ValueError(f"span {self.span_id}: start_us and duration_us must be integers")
        if self.duration_us < 0:
            raise ValueError(f"span {self.span_id}: negative duration")

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class DecomposedSpan:
    """Latency split for one span instance: duration = child_waiting + self."""

    identity: SpanIdentity
    span_id: str
    duration_us: int
    child_waiting_us: int
    self_segment_us: int


class Trace:
    """A validated span tree for one request."""

    def __init__(self, trace_id: str, spans: dict[str, SpanRecord], root_id: str):
        self.trace_id = trace_id
        self._spans = spans
        self.root_id = root_id
        self._children: dict[str, list[str]] = {sid: [] for sid in spans}
        for rec in spans.values():
            if rec.parent_id is not None:
                self._children[rec.parent_id].append(rec.span_id)
        # Children sorted by (start, span_id) so traversal order never depends
        # on input ordering.
        for sid in self._children:
            self._children[sid].sort(key=lambda c: (spans[c].start_us, c))

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def root(self) -> SpanRecord:
        return self._spans[self.root_id]

    def span(self, span_id: str) -> SpanRecord:
        return self._spans[span_id]

    def children_of(self, span_id: str) -> list[SpanRecord]:
        return [self._spans[c] for c in self._children[span_id]]

    def preorder(self) -> Iterator[SpanRecord]:
        stack = [self.root_id]
        while stack:
            sid = stack.pop()
            yield self._spans[sid]
            stack.extend(reversed(self._children[sid]))

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
    reached = {rec.span_id for rec in trace.preorder()}
    if len(reached) < len(spans):
        raise CycleDetected(f"span {min(spans.keys() - reached)} sits on or under a parent cycle")
    return trace


def union_duration(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by a set of [start, end) intervals, overlaps merged."""
    ivs = sorted(intervals)
    total = 0
    cur_start: int | None = None
    cur_end = 0
    for start, end in ivs:
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def decompose(trace: Trace) -> list[DecomposedSpan]:
    """Split every span's duration into child-waiting and self time.

    Child intervals are clipped to the parent's interval before the union,
    so a child that overruns its parent never drives the self segment
    negative. Output follows preorder and is independent of the ordering
    of the records the trace was built from.
    """
    out = []
    for rec in trace.preorder():
        clipped = []
        for child in trace.children_of(rec.span_id):
            lo = max(child.start_us, rec.start_us)
            hi = min(child.end_us, rec.end_us)
            if hi > lo:
                clipped.append((lo, hi))
        waiting = union_duration(clipped)
        out.append(
            DecomposedSpan(
                identity=rec.identity,
                span_id=rec.span_id,
                duration_us=rec.duration_us,
                child_waiting_us=waiting,
                self_segment_us=rec.duration_us - waiting,
            )
        )
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


def _require_count(obj: dict, key: str, line_no: int) -> int:
    v = obj.get(key)
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise TraceFormatError(f"line {line_no}: {key} must be a non-negative integer")
    return v


def span_from_json(line: str, line_no: int = 0) -> SpanRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise TraceFormatError(f"line {line_no}: malformed JSON ({e.msg})") from e
    if not isinstance(obj, dict):
        raise TraceFormatError(f"line {line_no}: expected a JSON object")
    for key in ("traceId", "spanId", "service", "operation"):
        if not isinstance(obj.get(key), str) or not obj.get(key):
            raise TraceFormatError(f"line {line_no}: missing or invalid {key}")
    parent_id = obj.get("parentId")
    if parent_id is not None and (not isinstance(parent_id, str) or not parent_id):
        raise TraceFormatError(f"line {line_no}: parentId must be null or a non-empty string")
    url = obj.get("url", "")
    if not isinstance(url, str):
        raise TraceFormatError(f"line {line_no}: url must be a string")
    tags = obj.get("tags", {})
    if not isinstance(tags, dict):
        raise TraceFormatError(f"line {line_no}: tags must be an object")
    return SpanRecord(
        trace_id=obj["traceId"],
        span_id=obj["spanId"],
        parent_id=parent_id,
        identity=SpanIdentity(obj["service"], obj["operation"], url),
        start_us=_require_count(obj, "startUs", line_no),
        duration_us=_require_count(obj, "durationUs", line_no),
        tags={str(k): str(v) for k, v in tags.items()},
    )


def write_traces_jsonl(traces: Iterable[Trace], path: str) -> None:
    with open(path, "w") as f:
        for trace in traces:
            for rec in trace.preorder():
                f.write(span_to_json(rec) + "\n")


def read_traces_jsonl(path: str, lenient: bool = False) -> list[Trace]:
    """Read traces from JSONL, grouping lines by traceId in first-seen order."""
    groups: dict[str, list[SpanRecord]] = {}
    with open(path) as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            rec = span_from_json(line, i)
            groups.setdefault(rec.trace_id, []).append(rec)
    return [build_trace(records, lenient=lenient) for records in groups.values()]

