"""Each wire format's writer and reader agree with the type that holds its rules.

Span records, policies, belief stores and workload specs check their own
values, and each reader only parses and constructs. So whatever a type
accepts, its writer writes and its reader reads back equal (derandomized
Hypothesis draws over the whole accepted range), and a value the reader
would refuse cannot be built in the first place: it raises the format's
named error at construction, naming the field by its wire key.
"""
import json
import math
import os
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spanbandit import (
    BeliefStore,
    BetaBelief,
    InvalidBelief,
    InvalidPolicy,
    InvalidTopology,
    SamplingPolicy,
    SpanIdentity,
    SpanRecord,
    TraceError,
    WorkloadSpec,
    build_trace,
    get_preset,
    policy_from_json_dict,
    policy_to_json_dict,
    span_from_json,
    store_from_json_dict,
    store_to_json_dict,
    write_traces_jsonl,
)
from spanbandit.belief import UPDATE_MODES
from spanbandit.simulator import spec_from_json_dict, spec_to_json_dict

_settings = settings(derandomize=True, database=None, max_examples=200, deadline=None)

_text = st.text(min_size=1, max_size=12)
_identities = st.builds(SpanIdentity, _text, _text, st.text(max_size=12))
_unit = st.floats(0.0, 1.0)
ID = SpanIdentity("svc", "op")


def _through_json(obj):
    return json.loads(json.dumps(obj))


@_settings
@given(
    trace_id=_text,
    span_id=_text,
    parent_id=st.none() | _text,
    identity=_identities,
    start_us=st.integers(0, 2**62 - 1),
    duration_us=st.integers(0, 2**62 - 1),
    tags=st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=4),
)
def test_span_record_round_trips(trace_id, span_id, parent_id, identity, start_us, duration_us, tags):
    # A span with a parent is written below a root span of that id.
    records = [SpanRecord(trace_id, span_id, parent_id, identity, start_us, duration_us, tags)]
    if parent_id is not None:
        assume(parent_id != span_id)
        records.insert(0, SpanRecord(trace_id, parent_id, None, ID, 0, 0, {}))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "spans.jsonl")
        write_traces_jsonl([build_trace(records)], path)
        with open(path) as f:
            assert [span_from_json(line) for line in f] == records


@st.composite
def policies(draw):
    identities = draw(st.lists(_identities, max_size=8, unique=True))
    return SamplingPolicy(
        epoch=draw(st.integers()),
        epsilon=draw(st.floats(0.0, 1.0, exclude_max=True)),
        percentile=draw(st.floats(0.0, 100.0, exclude_min=True)),
        entries={i: draw(_unit) for i in identities},
        vital={i: draw(_unit) for i in identities},
    )


@_settings
@given(policy=policies())
def test_policy_round_trips(policy):
    assert policy_from_json_dict(_through_json(policy_to_json_dict(policy))) == policy


_param = st.floats(0.0, exclude_min=True, allow_infinity=False)


@_settings
@given(
    lam=st.floats(0.0, 1.0, exclude_min=True),
    mode=st.sampled_from(UPDATE_MODES),
    epoch=st.integers(),
    beliefs=st.dictionaries(_identities, st.builds(BetaBelief, _param, _param), max_size=8),
)
def test_belief_store_round_trips(lam, mode, epoch, beliefs):
    store = BeliefStore(lam=lam, mode=mode, epoch=epoch, beliefs=beliefs)
    assert store_from_json_dict(_through_json(store_to_json_dict(store))) == store


@_settings
@given(
    workload=st.builds(
        WorkloadSpec,
        num_requests=st.integers(1, 2**40),
        request_sampling_rate=st.floats(0.0, 1.0, exclude_min=True),
        batch_size=st.integers(1, 2**40),
        rng_seed=st.integers(min_value=0),
    ),
    preset=st.sampled_from(["social", "rail", "media-canary"]),
)
def test_workload_spec_round_trips(workload, preset):
    p = get_preset(preset)
    spec = (p.topology, p.anomalies, workload)
    assert spec_from_json_dict(_through_json(spec_to_json_dict(*spec))) == spec


def test_integral_float_counts_are_stored_as_ints():
    assert WorkloadSpec(num_requests=3.0).num_requests == 3
    assert type(BeliefStore(epoch=2.0).epoch) is int
    assert type(SamplingPolicy(epoch=4.0, epsilon=0.1, percentile=50.0).epoch) is int


def _span(trace_id="t", parent_id=None, start_us=0, duration_us=1):
    return SpanRecord(trace_id, "s", parent_id, ID, start_us, duration_us)


# Values each format's reader refuses: (construction, error, wire key named).
UNWRITABLE = [
    pytest.param(lambda: _span(start_us=-5), TraceError, "startUs", id="start_us=-5"),
    pytest.param(lambda: _span(start_us=True), TraceError, "startUs", id="start_us=True"),
    # Span times are held as 64-bit integers, so start + duration must fit.
    pytest.param(lambda: _span(start_us=2**62), TraceError, "startUs", id="start_us=2**62"),
    pytest.param(lambda: _span(start_us=2**63), TraceError, "startUs", id="start_us=2**63"),
    pytest.param(lambda: _span(duration_us=2**62), TraceError, "durationUs", id="duration_us=2**62"),
    pytest.param(lambda: _span(duration_us=2**63), TraceError, "durationUs", id="duration_us=2**63"),
    pytest.param(lambda: _span(trace_id=""), TraceError, "traceId", id="trace_id=''"),
    pytest.param(lambda: _span(parent_id=""), TraceError, "parentId", id="parent_id=''"),
    pytest.param(lambda: SamplingPolicy(0, 0.05, 75.0, entries={ID: 1.5}), InvalidPolicy,
                 "probability", id="entry=1.5"),
    pytest.param(lambda: SamplingPolicy(0, 2.0, 75.0), InvalidPolicy, "epsilon", id="epsilon=2"),
    pytest.param(lambda: WorkloadSpec(num_requests=2.5), InvalidTopology, "numRequests",
                 id="num_requests=2.5"),
    pytest.param(lambda: WorkloadSpec(rng_seed=-1), InvalidTopology, "rngSeed", id="rng_seed=-1"),
    pytest.param(lambda: BeliefStore(epoch=2.5), InvalidBelief, "epoch", id="epoch=2.5"),
]


@pytest.mark.parametrize("build, error, key", UNWRITABLE)
def test_value_its_reader_refuses_cannot_be_built(build, error, key):
    with pytest.raises(error, match=key):
        build()


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"spanId": 7}, "spanId"),
        ({"durationUs": 2.5}, "durationUs"),
        ({"durationUs": -1}, "durationUs"),
        ({"tags": ["a"]}, "tags"),
        ({"traceId": None}, "traceId"),
        ({"startUs": 2**62}, "startUs"),
        ({"durationUs": 2**63}, "durationUs"),
    ],
)
def test_span_reader_names_the_line_and_the_key(fields, key):
    obj = {"traceId": "t", "spanId": "s", "service": "w", "operation": "o",
           "startUs": 0, "durationUs": 2, **fields}
    with pytest.raises(TraceError, match=f"^line 9: {key} "):
        span_from_json(json.dumps(obj), line_no=9)


def test_policy_reader_names_the_key_of_a_nan_vital_probability():
    obj = {"epoch": 1, "epsilon": 0.05, "percentile": 75.0, "entries": [
        {"service": "svc", "operation": "op", "probability": 0.5, "vitalProbability": math.nan}]}
    with pytest.raises(InvalidPolicy, match="svc/op: vitalProbability must be finite"):
        policy_from_json_dict(obj)
