"""Span tree assembly, interval math, and the JSONL wire format."""
import json

import numpy as np
import pytest

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
    span_to_json,
    union_duration,
    write_traces_jsonl,
)

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


def test_union_duration_examples():
    assert union_duration([]) == 0
    assert union_duration([(0, 10)]) == 10
    assert union_duration([(0, 10), (5, 15), (20, 30)]) == 25
    assert union_duration([(0, 10), (10, 20)]) == 20
    assert union_duration([(3, 3)]) == 0
    with pytest.raises(ValueError):
        union_duration([(5, 4)])


def test_union_duration_matches_grid_count():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        starts = rng.integers(0, 50, size=n)
        lengths = rng.integers(0, 30, size=n)
        ivs = [(int(s), int(s + l)) for s, l in zip(starts, lengths)]
        covered = set()
        for s, e in ivs:
            covered.update(range(s, e))
        assert union_duration(ivs) == len(covered)


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


def test_build_trace_lenient_reparents_orphan():
    t = build_trace(
        [_span("a", None, 0, 100, WEB), _span("b", "ghost", 5, 10)],
        lenient=True,
    )
    assert t.span("b").parent_id == "a"
    assert [r.span_id for r in t.preorder()] == ["a", "b"]


def test_preorder_sorted_by_start_then_id():
    recs = [
        _span("p", None, 0, 100, WEB),
        _span("z", "p", 10, 5),
        _span("a", "p", 10, 5),
        _span("m", "p", 5, 5),
    ]
    t = build_trace(recs)
    assert [r.span_id for r in t.preorder()] == ["p", "m", "a", "z"]


def test_end_to_end_latency():
    t = build_trace([_span("p", None, 7, 1234, WEB)])
    assert t.end_to_end_latency_us() == 1234


def test_span_json_round_trip():
    rec = _span("s1", "p0", 42, 77, WEB, tags={"k": "v", "a": "1"})
    back = span_from_json(span_to_json(rec))
    assert back == rec
    root = _span("r", None, 0, 5, WEB)
    line = span_to_json(root)
    assert "parentId" not in json.loads(line)
    assert span_from_json(line) == root


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
    assert back[0].span("c").tags == {"shard": "a"}
    assert back[0].end_to_end_latency_us() == 100


def test_trace_is_a_trace_instance():
    t = build_trace([_span("p", None, 0, 1, WEB)])
    assert isinstance(t, Trace)
    assert len(t) == 1
