"""Span records, traces held as columns, and latency decomposition.

A trace is a tree of spans, held as columns in its preorder: each span
(a row) is followed by its children's subtrees, children in
(start, span_id) order, so the layout never depends on the order of the
records. The columns of a `Trace`:

- `span_ids`: a list of str;
- `parent`: the parent's row as int64, -1 for the root (row 0); a
  lenient orphan's parent is the root;
- `identities`: a list of `SpanIdentity` objects, one object per
  distinct (service, operation, url) within a read;
- `start_us`, `duration_us`: int64 arrays;
- `tags`: row -> tags, for the spans that carry any.

Each span's wall-clock duration splits into time spent waiting on
recorded children (the union of their intervals, clipped to the parent)
and a self segment, the remainder. `self_segments_us` computes it for a
whole batch with one segmented union over the traces' concatenated rows:
children grouped by parent in sibling order, which the preorder already
gives, each clipped to its parent, each covering what lies past the
running maximum of its earlier siblings' ends. All times are integer
microseconds below 2**62, so every end fits in int64 and the split is
exact: for every span,

    self_segment_us + child_waiting_us == duration_us

holds without rounding error.
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Span times and durations stay below this, so that start + duration fits int64.
SPAN_TIME_LIMIT_US = 2**62


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
        if not (type(self.start_us) is int and 0 <= self.start_us < SPAN_TIME_LIMIT_US):
            raise TraceError(_time_problem("startUs", self.start_us))
        if not (type(self.duration_us) is int and 0 <= self.duration_us < SPAN_TIME_LIMIT_US):
            raise TraceError(_time_problem("durationUs", self.duration_us))
        if not isinstance(self.tags, dict):
            raise TraceError(f"tags must be an object, got {self.tags!r}")
        for key, value in self.tags.items():  # a number, boolean or null reads as its str()
            if isinstance(value, (dict, list)):
                raise TraceError(f"tag {key!r} must be a string, number, boolean or null, got {value!r}")


def _time_problem(key: str, value) -> str:
    if type(value) is int and value >= 0:  # a bool is no int here
        return f"{key} must be below 2**62, got {value!r}"
    return f"{key} must be a non-negative integer, got {value!r}"


class DecomposedSpan(NamedTuple):
    """Latency split for one span instance: duration = child_waiting + self."""

    identity: SpanIdentity
    span_id: str
    duration_us: int
    child_waiting_us: int
    self_segment_us: int


@dataclass(slots=True, eq=False)
class Trace:
    """A span tree for one request, held as columns in preorder.

    `trace_from_rows` builds one from rows in any order; see the module
    docstring for the columns.
    """

    trace_id: str
    span_ids: list[str]
    parent: np.ndarray
    identities: list[SpanIdentity]
    start_us: np.ndarray
    duration_us: np.ndarray
    tags: dict[int, dict[str, str]]

    def __len__(self) -> int:
        return len(self.span_ids)

    def end_to_end_latency_us(self) -> int:
        return int(self.duration_us[0])


def trace_from_rows(
    trace_id: str,
    span_ids: list[str],
    parents: list[int],
    identities: list[SpanIdentity],
    starts: Sequence[int],
    durations: Sequence[int],
    tags: dict[int, dict[str, str]],
    root: int = 0,
) -> Trace:
    """The spans that `root` reaches, as a `Trace` in preorder.

    `parents` holds each row's parent row, -1 for the root. A row whose
    parent chain never reaches `root` is left out; callers that must
    reject such trees compare lengths.
    """
    keys = list(zip(starts, span_ids))
    children: dict[int, list[int]] = {}
    for row in sorted(range(len(keys)), key=keys.__getitem__):
        children.setdefault(parents[row], []).append(row)
    order = []
    stack = [root]
    while stack:
        row = stack.pop()
        order.append(row)
        kids = children.get(row)
        if kids:
            stack.extend(reversed(kids))
    start = np.asarray(starts, dtype=np.int64)
    duration = np.asarray(durations, dtype=np.int64)
    if order != list(range(len(keys))):
        position = dict(zip(order, range(len(order))))
        parents = [-1] + [position[parents[row]] for row in order[1:]]
        span_ids = [span_ids[row] for row in order]
        identities = [identities[row] for row in order]
        start, duration = start[order], duration[order]
        tags = {position[row]: t for row, t in tags.items() if row in position}
    return Trace(trace_id, span_ids, np.array(parents, dtype=np.int64), identities, start, duration, tags)


class _Rows:
    """One trace's spans in arrival order, on their way to a `Trace`.

    A span's parent is resolved to its row on arrival when the trace has
    already shown it, and after the trace's last span otherwise. Nothing
    is raised until `assemble`.
    """

    __slots__ = ("trace_id", "row_of", "span_ids", "parents", "identities", "starts",
                 "durations", "tags", "roots", "pending", "duplicate")

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.row_of: dict[str, int] = {}  # span id -> its first row
        self.span_ids: list[str] = []
        self.parents: list[int] = []  # -1 for a root, -2 while pending
        self.identities: list[SpanIdentity] = []
        self.starts = array("q")  # no int object per time while the file is read
        self.durations = array("q")
        self.tags: dict[int, dict[str, str]] = {}
        self.roots: list[int] = []
        self.pending: list[tuple[int, str]] = []  # (row, parent id) unseen on arrival
        self.duplicate: str | None = None

    def add(self, rec: SpanRecord) -> None:
        row = len(self.span_ids)
        if rec.parent_id is None:
            parent = -1
            self.roots.append(row)
        else:
            parent = self.row_of.get(rec.parent_id, -2)
            if parent == -2:
                self.pending.append((row, rec.parent_id))
        if self.row_of.setdefault(rec.span_id, row) != row and self.duplicate is None:
            self.duplicate = rec.span_id
        self.span_ids.append(rec.span_id)
        self.parents.append(parent)
        self.identities.append(rec.identity)
        self.starts.append(rec.start_us)
        self.durations.append(rec.duration_us)
        if rec.tags:
            self.tags[row] = rec.tags

    def assemble(self, lenient: bool) -> Trace:
        """Validate the tree and lay it out; see `build_trace`."""
        if self.duplicate is not None:
            raise DuplicateSpanId(f"duplicate span id {self.duplicate}")
        span_ids, parents = self.span_ids, self.parents
        if len(self.roots) > 1:
            raise MultipleRoots(f"multiple roots: {', '.join(sorted(span_ids[r] for r in self.roots))}")
        orphans = []
        for row, parent_id in self.pending:
            parent = self.row_of.get(parent_id)
            if parent is None:
                orphans.append(row)
            else:
                parents[row] = parent
        if orphans and not (lenient and self.roots):
            raise OrphanSpan(f"span {min(span_ids[r] for r in orphans)} has unknown parent")
        if not self.roots:
            # Every span has a resolving parent, so some parent chain loops.
            raise CycleDetected(f"no root span; span {min(span_ids)} sits on a parent cycle")
        root = self.roots[0]
        for row in orphans:
            parents[row] = root
        trace = trace_from_rows(self.trace_id, span_ids, parents, self.identities,
                                self.starts, self.durations, self.tags, root)
        # One root and every parent resolved: a span the root's preorder misses
        # sits on a parent cycle or hangs from one.
        if len(trace) < len(span_ids):
            missed = set(span_ids).difference(trace.span_ids)
            raise CycleDetected(f"span {min(missed)} sits on or under a parent cycle")
        return trace


def build_trace(records: Iterable[SpanRecord], lenient: bool = False) -> Trace:
    """Assemble span records into a validated tree.

    Strict mode rejects, in this order, duplicate span ids, multiple
    roots, orphans (parent_id that resolves to no span), and parent
    cycles. With lenient=True orphans are re-parented to the root
    instead, which is what partial traces produced by sampling-disabled
    ancestors need.
    """
    rows = None
    for rec in records:
        if rows is None:
            rows = _Rows(rec.trace_id)
        elif rec.trace_id != rows.trace_id:
            raise TraceError(
                f"span {rec.span_id}: trace id {rec.trace_id!r} does not match {rows.trace_id!r}"
            )
        rows.add(rec)
        if rows.duplicate is not None:
            break  # raised by assemble, before a later record's trace id is checked
    if rows is None:
        raise TraceError("empty trace")
    return rows.assemble(lenient)


def self_segments_us(traces: Sequence[Trace]) -> np.ndarray:
    """Self time of every span of `traces`, in (trace, preorder) order.

    One segmented union over the concatenated rows. Grouped by parent
    with a stable sort, children keep the preorder's (start, span_id)
    order. Each child, its end clipped to its parent's, covers the part
    of it past the reach of the parent's earlier children (or past the
    parent's start, for the first), and the parent's waiting time is the
    sum of those parts. Clipping keeps every self segment non-negative
    when a child overruns its parent.
    """
    if not traces:
        return np.zeros(0, dtype=np.int64)
    if len(traces) == 1:
        parent, start, duration = traces[0].parent, traces[0].start_us, traces[0].duration_us
    else:
        sizes = [len(t) for t in traces]
        parent = np.concatenate([t.parent for t in traces])
        parent = np.where(parent < 0, -1, parent + np.repeat(np.cumsum(sizes) - sizes, sizes))
        start = np.concatenate([t.start_us for t in traces])
        duration = np.concatenate([t.duration_us for t in traces])
    end = start + duration  # each below 2**63, as start and duration are below 2**62
    child = np.flatnonzero(parent >= 0)
    if not child.size:
        return duration.copy()
    child = child[np.argsort(parent[child], kind="stable")]
    up = parent[child]
    hi = np.minimum(end[child], end[up])
    first = np.empty(child.size, dtype=bool)  # where each parent's group starts
    first[0] = True
    np.not_equal(up[1:], up[:-1], out=first[1:])
    # The running maximum of hi within each group, as the running maximum of
    # (group, rank of hi) coded in one int64; ranks keep that code below 2**63.
    by_end = np.argsort(hi)
    rank = np.empty_like(by_end)
    rank[by_end] = np.arange(by_end.size)
    base = (np.cumsum(first) - 1) * by_end.size
    reach = hi[by_end[np.maximum.accumulate(base + rank) - base]]
    before = start[up]
    before[1:] = np.where(first[1:], before[1:], np.maximum(before[1:], reach[:-1]))
    covered = np.maximum(hi - np.maximum(start[child], before), 0)
    waiting = np.zeros(duration.size, dtype=np.int64)
    waiting[up[first]] = np.add.reduceat(covered, np.flatnonzero(first))
    return duration - waiting


def decompose(trace: Trace) -> list[DecomposedSpan]:
    """Split every span's duration into child-waiting and self time, in preorder.

    `self_segments_us` on this one trace; the rows do not depend on the
    order of the records the trace was built from.
    """
    durations = trace.duration_us.tolist()
    return [
        DecomposedSpan(identity, span_id, d, d - s, s)
        for identity, span_id, d, s in zip(
            trace.identities, trace.span_ids, durations, self_segments_us([trace]).tolist()
        )
    ]


# --- JSONL wire format ------------------------------------------------------
#
# One span per line:
# {"traceId": ..., "spanId": ..., "parentId": ...?, "service": ...,
#  "operation": ..., "url": ..., "startUs": int, "durationUs": int,
#  "tags": {...}}

# One encoder and one decoder for every line; json.dumps with separators
# builds a new encoder per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode


def _span_line(trace_id, span_id, parent_id, identity, start_us, duration_us, tags) -> str:
    obj: dict = {"traceId": trace_id, "spanId": span_id}
    if parent_id is not None:
        obj["parentId"] = parent_id
    obj["service"] = identity.service
    obj["operation"] = identity.operation
    obj["url"] = identity.url
    obj["startUs"] = start_us
    obj["durationUs"] = duration_us
    obj["tags"] = dict(sorted(tags.items())) if tags else {}
    return _encode(obj)


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
        obj, end = _raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    if end != len(line):  # json.loads accepts surrounding whitespace, and words the error
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
    if rec.tags:
        rec.tags = {str(k): str(v) for k, v in rec.tags.items()}
    return rec


def write_traces_jsonl(traces: Iterable[Trace], path: str) -> None:
    with open(path, "w") as f:
        for t in traces:
            ids = t.span_ids
            for row, (span_id, parent, identity, start, duration) in enumerate(
                zip(ids, t.parent.tolist(), t.identities, t.start_us.tolist(), t.duration_us.tolist())
            ):
                parent_id = ids[parent] if parent >= 0 else None
                f.write(_span_line(t.trace_id, span_id, parent_id, identity, start, duration,
                                   t.tags.get(row)) + "\n")


def read_traces_jsonl(path: str, lenient: bool = False) -> list[Trace]:
    """Read traces from JSONL, grouping lines by traceId in first-seen order.

    Every line is parsed before any tree is checked, so a malformed line
    anywhere is raised first; then traces are assembled, and their
    structural errors raised, in first-seen order. One read shares one
    SpanIdentity per distinct identity, and each trace keeps its first
    span's trace id string.
    """
    identities: dict[tuple[str, str, str], SpanIdentity] = {}
    traces: dict[str, _Rows] = {}
    with open(path) as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            rec = span_from_json(line, i, identities)
            rows = traces.get(rec.trace_id)
            if rows is None:
                rows = traces[rec.trace_id] = _Rows(rec.trace_id)
            rows.add(rec)
    # Each trace's rows are dropped once it is assembled, so they and the
    # finished traces are not all held at once.
    return [traces.pop(trace_id).assemble(lenient) for trace_id in list(traces)]
