"""Generated traces are valid by construction.

`generate_request` assembles each trace directly from its recorded spans
and skips `build_trace`'s checks, so these tests rebuild every generated
trace through `build_trace` and require the two to agree. The property
test draws small random topologies, policies and seeds with Hypothesis
(derandomized, so a run is reproducible).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanbandit import (
    CallSpec,
    OperationSpec,
    SamplingPolicy,
    SpanIdentity,
    SpanRecord,
    TopologySpec,
    build_trace,
    decompose,
    generate_request,
    get_preset,
    latency_from_median_us,
    preset_names,
)
from spanbandit.simulator import request_rng


def _columns(trace):
    return (trace.trace_id, trace.span_ids, trace.parent.tolist(), trace.identities,
            trace.start_us.tolist(), trace.duration_us.tolist(), trace.tags)


def _assert_equals_build_trace(trace):
    # Span ids number the spans in generation order; build_trace gets the records in that order.
    ids, parents = trace.span_ids, trace.parent.tolist()
    assert sorted(ids) == [f"s{i:04d}" for i in range(len(trace))]
    assert len(parents) == len(trace.identities) == len(trace.start_us) == len(trace.duration_us) == len(ids)
    records = [
        SpanRecord(trace.trace_id, ids[row], ids[parent] if parent >= 0 else None, trace.identities[row],
                   int(trace.start_us[row]), int(trace.duration_us[row]), trace.tags.get(row, {}))
        for row, parent in enumerate(parents)
    ]
    rebuilt = build_trace(sorted(records, key=lambda r: r.span_id))
    assert _columns(rebuilt) == _columns(trace)
    assert decompose(trace) == decompose(rebuilt)
    for d in decompose(trace):
        assert d.duration_us == d.child_waiting_us + d.self_segment_us
        assert d.self_segment_us >= 0


@st.composite
def topologies(draw):
    """1-6 operations; each calls up to three later ones, repeats allowed."""
    n = draw(st.integers(1, 6))
    ids = [SpanIdentity(draw(st.sampled_from("abc")), f"op{i}") for i in range(n)]
    operations = []
    for i, identity in enumerate(ids):
        calls = ()
        if i + 1 < n:
            calls = tuple(
                CallSpec(ids[j], mode)
                for j, mode in draw(
                    st.lists(
                        st.tuples(
                            st.integers(i + 1, n - 1),
                            st.sampled_from(("sequential", "parallel")),
                        ),
                        max_size=3,
                    )
                )
            )
        median = draw(st.floats(1.0, 5000.0))
        sigma = draw(st.floats(0.0, 1.0))
        operations.append(OperationSpec(identity, latency_from_median_us(median, sigma), calls))
    return TopologySpec(root=ids[0], operations=tuple(operations))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    topology=topologies(),
    probabilities=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    request_index=st.integers(0, 10_000),
)
def test_generated_trace_equals_build_trace_of_its_records(
    topology, probabilities, seed, request_index
):
    full_self: dict[str, int] = {}
    full = generate_request(
        topology, (), None, request_rng(seed, request_index),
        request_index=request_index, self_times_out=full_self,
    )
    _assert_equals_build_trace(full)
    assert len(full) == sum(topology.occurrence_counts().values())
    assert {d.span_id: d.self_segment_us for d in decompose(full)} == full_self

    policy = SamplingPolicy(
        epoch=1, epsilon=0.0, percentile=75.0,
        entries=dict(zip(topology.identities(), probabilities)),
    )
    thin = generate_request(
        topology, (), policy, request_rng(seed, request_index), request_index=request_index
    )
    _assert_equals_build_trace(thin)
    assert thin.end_to_end_latency_us() == full.end_to_end_latency_us()


@pytest.mark.parametrize("name", preset_names())
def test_preset_traces_equal_build_trace_of_their_records(name):
    preset = get_preset(name)
    identities = preset.topology.identities()
    thin = SamplingPolicy(
        epoch=1, epsilon=0.05, percentile=75.0,
        entries=dict(zip(identities, np.linspace(0.0, 1.0, len(identities)))),
    )
    for policy in (None, thin):
        for idx in range(40):
            trace = generate_request(
                preset.topology, preset.anomalies, policy, request_rng(3, idx), request_index=idx
            )
            _assert_equals_build_trace(trace)
