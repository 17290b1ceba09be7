"""Span tree assembly, interval math, and the JSONL wire format."""
import json
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanbandit import (
    CycleDetected,
    DuplicateSpanId,
    MultipleRoots,
    OrphanSpan,
    SpanIdentity,
    SpanRecord,
    Trace,
    TraceFormatError,
    build_trace,
    decompose,
    read_traces_jsonl,
    span_from_json,
    write_traces_jsonl,
)
from spanbandit.utility import pool_self_segments

WEB = SpanIdentity("web", "get")
DB = SpanIdentity("db", "find")


def _span(span_id, parent_id, start, dur, identity=DB, trace_id="t1", tags=None):
    return SpanRecord(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        identity=identity,
        start_us=start,
        duration_us=dur,
        tags=tags or {},
    )


def _columns(trace):
    """Everything a trace holds, as plain values, so traces compare with ==."""
    return (trace.trace_id, trace.span_ids, trace.parent.tolist(), trace.identities,
            trace.start_us.tolist(), trace.duration_us.tolist(), trace.tags)


def test_identity_ordering_and_label():
    a = SpanIdentity("api", "get", "/v1")
    b = SpanIdentity("api", "get")
    assert b < a
    assert a.label() == "api/get[/v1]"
    assert b.label() == "api/get"


def test_span_record_rejects_non_integer_times():
    with pytest.raises(ValueError):
        _span("s1", None, 0.5, 10)
    with pytest.raises(ValueError):
        _span("s1", None, 0, -1)


def _waiting_under_root(root_dur, children):
    recs = [_span("p", None, 0, root_dur, WEB)]
    recs += [_span(f"c{i}", "p", start, end - start) for i, (start, end) in enumerate(children)]
    return decompose(build_trace(recs))[0].child_waiting_us


def test_decompose_union_examples():
    # A parent of [0, 30) waits on the union of its children's intervals.
    assert _waiting_under_root(30, []) == 0
    assert _waiting_under_root(30, [(0, 10)]) == 10
    assert _waiting_under_root(30, [(0, 10), (5, 15), (20, 30)]) == 25
    assert _waiting_under_root(30, [(0, 10), (10, 20)]) == 20
    assert _waiting_under_root(30, [(3, 3)]) == 0
    assert _waiting_under_root(30, [(5, 8), (0, 30), (3, 3)]) == 30
    with pytest.raises(ValueError, match="durationUs must be a non-negative integer"):
        _waiting_under_root(30, [(5, 4)])


@st.composite
def span_trees(draw):
    """Random span records on a coarse grid, so that children often touch,
    overlap, have zero length, start before or overrun their parent.

    Returns (records, parent of each span once orphans are re-parented).
    A span drawn as an orphan names a parent that is not in the trace.
    """
    n = draw(st.integers(1, 12))
    times = st.integers(0, 24).map(lambda t: 5 * t)
    recs = [_span("s0", None, draw(times), draw(times), WEB)]
    parents = {"s0": None}
    for i in range(1, n):
        parent = f"s{draw(st.integers(0, i - 1))}"
        orphan = draw(st.booleans()) and draw(st.booleans())
        tags = draw(st.dictionaries(st.sampled_from("abc"), st.sampled_from(["1", "x", ""]), max_size=2))
        sid = f"s{i}"
        recs.append(_span(sid, f"ghost{i}" if orphan else parent, draw(times), draw(times),
                          draw(st.sampled_from([WEB, DB])), tags=tags))
        parents[sid] = "s0" if orphan else parent
    return recs, parents


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(tree=span_trees(), seed=st.integers(0, 2**32 - 1))
def test_decompose_waiting_matches_brute_force_count(tree, seed):
    recs, parents = tree
    if any(r.parent_id != parents[r.span_id] for r in recs):
        with pytest.raises(OrphanSpan):
            build_trace(recs)
    trace = build_trace(recs, lenient=True)
    rows = decompose(trace)
    assert [d.span_id for d in rows] == trace.span_ids
    assert sorted(d.span_id for d in rows) == sorted(parents)

    # Waiting is the count of microseconds the clipped children cover.
    by_id = {r.span_id: r for r in recs}
    for d in rows:
        p = by_id[d.span_id]
        covered = set()
        for c in recs:
            if parents[c.span_id] == d.span_id:
                covered.update(range(max(c.start_us, p.start_us),
                                     min(c.start_us + c.duration_us, p.start_us + p.duration_us)))
        assert d.child_waiting_us == len(covered)
        assert d.duration_us == d.child_waiting_us + d.self_segment_us
        assert d.self_segment_us >= 0

    shuffled = list(recs)
    random.Random(seed).shuffle(shuffled)
    again = build_trace(shuffled, lenient=True)
    assert decompose(again) == rows
    assert _columns(again) == _columns(trace)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "traces.jsonl")
        write_traces_jsonl([trace], path)
        assert [_columns(t) for t in read_traces_jsonl(path)] == [_columns(trace)]


def test_decompose_two_overlapping_children():
    recs = [
        _span("p", None, 0, 100, WEB),
        _span("c1", "p", 10, 30),
        _span("c2", "p", 30, 40),
    ]
    t = build_trace(recs)
    by_id = {d.span_id: d for d in decompose(t)}
    assert by_id["p"].child_waiting_us == 60
    assert by_id["p"].self_segment_us == 40
    assert by_id["c1"].self_segment_us == 30
    assert by_id["c2"].self_segment_us == 40


def test_decompose_clips_child_overrun():
    # Child runs past the parent's end; only the overlap counts as waiting.
    recs = [
        _span("p", None, 0, 50, WEB),
        _span("c", "p", 40, 40),
    ]
    t = build_trace(recs)
    by_id = {d.span_id: d for d in decompose(t)}
    assert by_id["p"].child_waiting_us == 10
    assert by_id["p"].self_segment_us == 40
    assert by_id["p"].self_segment_us >= 0


def test_decompose_order_insensitive():
    rng = np.random.default_rng(11)
    recs = [_span("p", None, 0, 500, WEB)]
    for i in range(12):
        start = int(rng.integers(0, 400))
        recs.append(_span(f"c{i}", "p", start, int(rng.integers(0, 200))))
    base = decompose(build_trace(recs))
    shuffled = list(recs)
    rng.shuffle(shuffled)
    again = decompose(build_trace(shuffled))
    assert base == again


def test_decompose_conservation_random_trees():
    # duration == child_waiting + self on arbitrary nested intervals,
    # and clipping keeps self non-negative even for overrunning children.
    rng = np.random.default_rng(3)
    for _ in range(100):
        recs = [_span("root", None, 0, 1000, WEB)]
        ids = ["root"]
        for i in range(int(rng.integers(1, 20))):
            parent = ids[int(rng.integers(len(ids)))]
            p = next(r for r in recs if r.span_id == parent)
            start = p.start_us + int(rng.integers(0, max(p.duration_us, 1)))
            sid = f"s{i}"
            recs.append(_span(sid, parent, start, int(rng.integers(0, 400))))
            ids.append(sid)
        for d in decompose(build_trace(recs)):
            assert d.duration_us == d.child_waiting_us + d.self_segment_us
            assert d.self_segment_us >= 0


def test_build_trace_rejects_duplicates_roots_orphans_cycles():
    with pytest.raises(DuplicateSpanId):
        build_trace([_span("a", None, 0, 10), _span("a", None, 0, 10)])
    with pytest.raises(MultipleRoots):
        build_trace([_span("a", None, 0, 10), _span("b", None, 0, 10)])
    with pytest.raises(OrphanSpan):
        build_trace([_span("a", None, 0, 10), _span("b", "ghost", 0, 10)])
    with pytest.raises(CycleDetected):
        build_trace([_span("a", "b", 0, 10), _span("b", "a", 0, 10)])


def test_build_trace_rejects_cycle_detached_from_root():
    # "b" and "c" parent each other and "d" hangs off the loop; all resolve.
    recs = [_span("a", None, 0, 10), _span("b", "c", 0, 10), _span("c", "b", 0, 10),
            _span("d", "c", 0, 10)]
    with pytest.raises(CycleDetected, match="span [bcd] "):
        build_trace(recs)
    with pytest.raises(CycleDetected):
        build_trace(recs, lenient=True)


def test_build_trace_lenient_reparents_orphan():
    t = build_trace(
        [_span("a", None, 0, 100, WEB), _span("b", "ghost", 5, 10)],
        lenient=True,
    )
    assert t.span_ids == ["a", "b"]
    assert t.parent.tolist() == [-1, 0]


def test_preorder_sorted_by_start_then_id():
    recs = [
        _span("p", None, 0, 100, WEB),
        _span("z", "p", 10, 5),
        _span("a", "p", 10, 5),
        _span("m", "p", 5, 5),
    ]
    t = build_trace(recs)
    assert t.span_ids == ["p", "m", "a", "z"]
    assert t.parent.tolist() == [-1, 0, 0, 0]


def test_end_to_end_latency():
    t = build_trace([_span("p", None, 7, 1234, WEB)])
    assert t.end_to_end_latency_us() == 1234


def test_span_json_round_trip(tmp_path):
    trace = build_trace([_span("r", None, 0, 5, WEB), _span("s", "r", 42, 77, tags={"k": "v", "a": "1"})])
    path = tmp_path / "traces.jsonl"
    write_traces_jsonl([trace], str(path))
    root, child = map(json.loads, path.read_text().splitlines())
    assert "parentId" not in root and child["parentId"] == "r"
    assert list(child["tags"]) == ["a", "k"]  # written sorted
    assert [_columns(t) for t in read_traces_jsonl(str(path))] == [_columns(trace)]


def test_span_from_json_rejects_bad_lines():
    with pytest.raises(TraceFormatError):
        span_from_json("{not json", line_no=3)
    with pytest.raises(TraceFormatError):
        span_from_json(json.dumps({"traceId": "t", "spanId": "s"}))
    with pytest.raises(TraceFormatError):
        span_from_json(
            json.dumps(
                {
                    "traceId": "t",
                    "spanId": "s",
                    "service": "w",
                    "operation": "o",
                    "startUs": 1.5,
                    "durationUs": 2,
                }
            )
        )


def _line(**fields):
    obj = {"traceId": "t", "spanId": "s", "service": "w", "operation": "o",
           "startUs": 0, "durationUs": 2}
    obj.update(fields)
    return json.dumps(obj)


@pytest.mark.parametrize("url", [7, None, ["u"]])
def test_span_from_json_rejects_non_string_url(url):
    with pytest.raises(TraceFormatError, match="^line 3: .*url"):
        span_from_json(_line(url=url), line_no=3)


@pytest.mark.parametrize(
    "fields, name",
    [((5, "op", ""), "service"), (("svc", 5, ""), "operation"), (("svc", "op", 7), "url")],
)
def test_identity_fields_must_be_strings(fields, name):
    with pytest.raises(ValueError, match=name):
        SpanIdentity(*fields)


@pytest.mark.parametrize("parent", [5, "", True, ["p"], {"id": "p"}])
def test_span_from_json_rejects_bad_parent_id(parent):
    with pytest.raises(TraceFormatError, match="^line 7: parentId"):
        span_from_json(_line(parentId=parent), line_no=7)


def test_span_from_json_accepts_null_or_string_parent():
    assert span_from_json(_line(parentId=None)).parent_id is None
    assert span_from_json(_line(parentId="p0")).parent_id == "p0"


def test_span_from_json_rejects_negative_start():
    with pytest.raises(TraceFormatError, match="^line 4: startUs"):
        span_from_json(_line(startUs=-100), line_no=4)
    assert span_from_json(_line(startUs=0)).start_us == 0


def test_traces_jsonl_file_round_trip(tmp_path):
    t1 = build_trace(
        [
            _span("p", None, 0, 100, WEB, trace_id="tA"),
            _span("c", "p", 10, 20, DB, trace_id="tA", tags={"shard": "a"}),
        ]
    )
    t2 = build_trace([_span("q", None, 5, 50, DB, trace_id="tB")])
    path = tmp_path / "traces.jsonl"
    write_traces_jsonl([t1, t2], str(path))
    back = read_traces_jsonl(str(path))
    assert len(back) == 2
    assert [t.trace_id for t in back] == ["tA", "tB"]
    assert back[0].span_ids == ["p", "c"]
    assert back[0].tags == {1: {"shard": "a"}}
    assert back[0].end_to_end_latency_us() == 100


# (service, operation, url): a url of None leaves the key out, which reads
# as "", so the two db/find entries are one identity.
IDENTITY_POOL = [
    ("api", "get", "/a"),
    ("api", "get", "/b"),
    ("api", "post", None),
    ("db", "find", None),
    ("db", "find", ""),
]
BAD_IDENTITY_FIELDS = [("url", ["u"]), ("service", None)]


@st.composite
def jsonl_files(draw):
    """Span JSONL lines of interleaved traces drawn from a few identities,
    some with a blank line before them, and maybe one bad identity field.

    Returns (text, {file line number: line}, line number of the bad line or None).
    """
    pending = []
    for k in range(draw(st.integers(1, 5))):
        spans = []
        for i in range(draw(st.integers(1, 6))):
            service, operation, url = draw(st.sampled_from(IDENTITY_POOL))
            obj = {"traceId": f"trace-{k}", "spanId": f"span-{i}", "service": service,
                   "operation": operation, "startUs": draw(st.integers(0, 50)),
                   "durationUs": draw(st.integers(0, 50))}
            if i:
                obj["parentId"] = f"span-{draw(st.integers(0, i - 1))}"
            if url is not None:
                obj["url"] = url
            spans.append(obj)
        pending.append(spans)
    objs = []
    while any(pending):
        k = draw(st.sampled_from([k for k, spans in enumerate(pending) if spans]))
        objs.append(pending[k].pop(0))
    bad = draw(st.none() | st.integers(0, len(objs) - 1))
    if bad is not None:
        key, value = draw(st.sampled_from(BAD_IDENTITY_FIELDS))
        objs[bad][key] = value
    text, numbered, bad_line_no = "", {}, None
    for i, obj in enumerate(objs):
        if draw(st.integers(0, 4)) == 0:
            text += "\n"
        line = json.dumps(obj)
        numbered[text.count("\n") + 1] = line
        if i == bad:
            bad_line_no = text.count("\n") + 1
        text += line + "\n"
    return text, numbered, bad_line_no


def _read_text(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "traces.jsonl")
        with open(path, "w") as f:
            f.write(text)
        return read_traces_jsonl(path)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=jsonl_files())
def test_read_shares_identities_and_trace_ids_and_matches_per_line_parse(case):
    text, numbered, bad_line_no = case
    if bad_line_no is not None:
        with pytest.raises(TraceFormatError, match=f"^line {bad_line_no}: ") as per_line:
            span_from_json(numbered[bad_line_no], bad_line_no)
        with pytest.raises(TraceFormatError) as read:
            _read_text(text)
        assert str(read.value) == str(per_line.value)
        return
    groups = {}
    for line_no, line in numbered.items():
        rec = span_from_json(line, line_no)
        groups.setdefault(rec.trace_id, []).append(rec)
    expected = [build_trace(records) for records in groups.values()]
    traces = _read_text(text)
    assert [t.trace_id for t in traces] == [t.trace_id for t in expected]
    assert [_columns(t) for t in traces] == [_columns(t) for t in expected]
    assert [decompose(t) for t in traces] == [decompose(t) for t in expected]
    # One object per distinct identity across the read.
    first_seen = {}
    for trace in traces:
        for identity in trace.identities:
            assert first_seen.setdefault(identity, identity) is identity
    assert len(first_seen) <= len(IDENTITY_POOL) - 1


def test_trace_is_a_trace_instance():
    t = build_trace([_span("p", None, 0, 1, WEB)])
    assert isinstance(t, Trace)
    assert len(t) == 1


def _write_lines(path, objs):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    return str(path)


def _obj(trace_id, span_id, parent_id=None, start=0, dur=10):
    obj = {"traceId": trace_id, "spanId": span_id, "service": "w", "operation": "o",
           "startUs": start, "durationUs": dur}
    if parent_id is not None:
        obj["parentId"] = parent_id
    return obj


def test_format_errors_come_before_structural_errors_and_traces_in_first_seen_order(tmp_path):
    # A duplicate span id early in the file does not hide a malformed line after it.
    dup = [_obj("a", "r"), _obj("a", "r")]
    path = _write_lines(tmp_path / "dup-then-bad.jsonl", dup)
    with open(path, "a") as f:
        f.write("{not json\n")
    with pytest.raises(TraceFormatError, match="^line 3: malformed JSON"):
        read_traces_jsonl(path)
    # Of two bad traces, the one whose first line comes first raises.
    a_first = [_obj("a", "r"), _obj("b", "q"), _obj("a", "r"), _obj("b", "x", "ghost")]
    with pytest.raises(DuplicateSpanId, match="duplicate span id r"):
        read_traces_jsonl(_write_lines(tmp_path / "a-first.jsonl", a_first))
    b_first = [a_first[1], a_first[0], *a_first[2:]]
    with pytest.raises(OrphanSpan, match="span x has unknown parent"):
        read_traces_jsonl(_write_lines(tmp_path / "b-first.jsonl", b_first))


def test_interleaved_children_first_file_reads_as_the_sorted_file(tmp_path):
    from spanbandit import WorkloadSpec, get_preset, simulate_workload

    preset = get_preset("social")
    traces, _ = simulate_workload(preset.topology, preset.anomalies,
                                  WorkloadSpec(num_requests=12, rng_seed=3))
    sorted_path = tmp_path / "sorted.jsonl"
    write_traces_jsonl(traces, str(sorted_path))
    by_trace = {}
    for line in sorted_path.read_text().splitlines():
        by_trace.setdefault(json.loads(line)["traceId"], []).append(line)
    # Each trace's lines reversed (children before parents), dealt out round-robin:
    # the first line of trace k still comes before the first line of trace k + 1.
    stacks = [lines[::-1] for lines in by_trace.values()]
    mixed = []
    while any(stacks):
        mixed += [stack.pop(0) for stack in stacks if stack]
    mixed_path = tmp_path / "mixed.jsonl"
    mixed_path.write_text("\n".join(mixed) + "\n")
    expected = read_traces_jsonl(str(sorted_path))
    got = read_traces_jsonl(str(mixed_path))
    assert [t.trace_id for t in got] == [t.trace_id for t in expected] == list(by_trace)
    assert [_columns(t) for t in got] == [_columns(t) for t in expected]
    assert [decompose(t) for t in got] == [decompose(t) for t in expected]


IDENTITIES = [WEB, DB, SpanIdentity("cache", "get")]


@st.composite
def span_forests(draw):
    """A batch of span trees whose children overlap, touch, overrun or
    precede their parent, have zero length, or are orphans (re-parented to
    the root), with every time in a trace offset by 0 or by nearly 2**62.

    Returns [(records, parent of each span once orphans are re-parented)].
    """
    forest = []
    for k in range(draw(st.integers(1, 4))):
        base = draw(st.sampled_from([0, 2**62 - 1000]))
        times = st.integers(0, 24).map(lambda t: base + 5 * t)
        lengths = st.integers(0, 24).map(lambda t: 5 * t) | st.just(2**62 - 1)
        recs = [_span("s0", None, draw(times), draw(lengths), draw(st.sampled_from(IDENTITIES)),
                      trace_id=f"t{k}")]
        parents = {"s0": None}
        for i in range(1, draw(st.integers(1, 10))):
            parent = f"s{draw(st.integers(0, i - 1))}"
            orphan = draw(st.integers(0, 5)) == 0
            recs.append(_span(f"s{i}", f"ghost{i}" if orphan else parent, draw(times),
                              draw(lengths), draw(st.sampled_from(IDENTITIES)), trace_id=f"t{k}"))
            parents[f"s{i}"] = "s0" if orphan else parent
        forest.append((recs, parents))
    return forest


def _union_length(intervals):
    """Total length of a union of half-open intervals, by sorting and merging."""
    total, reach = 0, None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(forest=span_forests())
def test_decompose_and_pools_match_an_interval_union_oracle(forest):
    traces = []
    for recs, parents in forest:
        trace = build_trace(recs, lenient=True)
        by_id = {r.span_id: r for r in recs}
        rows = decompose(trace)
        assert [d.span_id for d in rows] == trace.span_ids
        for d in rows:
            p = by_id[d.span_id]
            end = p.start_us + p.duration_us
            clipped = [(max(c.start_us, p.start_us), min(c.start_us + c.duration_us, end))
                       for c in recs if parents[c.span_id] == d.span_id]
            assert d.child_waiting_us == _union_length(clipped)
            assert d.self_segment_us == p.duration_us - d.child_waiting_us >= 0
        traces.append(trace)
    expected = {}
    for trace in traces:
        for d in decompose(trace):
            expected.setdefault(d.identity, []).append(d.self_segment_us)
    pools = pool_self_segments(traces)
    assert {k: list(v) for k, v in pools.items()} == expected
