"""Utility measures over pooled self segments."""
import pytest

from spanbandit import (
    EmptyBatch,
    SpanIdentity,
    SpanRecord,
    UnknownMeasure,
    build_trace,
    compute_batch_utilities,
    measure_min_samples,
    pool_self_segments,
)

A = SpanIdentity("svc-a", "op")
B = SpanIdentity("svc-b", "op")


def _leaf_trace(trace_id, identity, duration):
    rec = SpanRecord(
        trace_id=trace_id,
        span_id="s0",
        parent_id=None,
        identity=identity,
        start_us=0,
        duration_us=duration,
        tags={},
    )
    return build_trace([rec])


def _two_identity_batch(a_durations, b_durations):
    traces = []
    for i, (da, db) in enumerate(zip(a_durations, b_durations)):
        recs = [
            SpanRecord(f"t{i}", "root", None, A, 0, da + db, {}),
            SpanRecord(f"t{i}", "leaf", "root", B, 0, db, {}),
        ]
        traces.append(build_trace(recs))
    return traces


def test_variance_uses_sample_denominator():
    traces = [_leaf_trace(f"t{i}", A, d) for i, d in enumerate([0, 2])]
    (est,) = compute_batch_utilities(traces, "variance")
    assert est.raw == pytest.approx(2.0)
    assert est.sample_count == 2


def test_p99_linear_interpolation():
    traces = [_leaf_trace(f"t{i}", A, d) for i, d in enumerate(range(100))]
    (est,) = compute_batch_utilities(traces, "p99")
    assert est.raw == pytest.approx(98.01)


def test_coefficient_of_variation():
    traces = [_leaf_trace(f"t{i}", A, d) for i, d in enumerate([1, 2, 3])]
    (est,) = compute_batch_utilities(traces, "coefficient_of_variation")
    assert est.raw == pytest.approx(0.5)


def test_single_observation_scores_zero_for_spread_measures():
    traces = [_leaf_trace("t0", A, 500)]
    (est,) = compute_batch_utilities(traces, "variance")
    assert est.raw == 0.0
    assert est.sample_count == 1
    (mean_est,) = compute_batch_utilities(traces, "mean")
    assert mean_est.raw == pytest.approx(500.0)


def test_normalization_by_batch_max():
    # A's self segments are constant 10 with the leaf excised, B varies.
    traces = _two_identity_batch([10, 10, 10], [100, 200, 600])
    ests = {e.identity: e for e in compute_batch_utilities(traces, "std")}
    assert ests[B].normalized == pytest.approx(1.0)
    assert ests[A].raw == pytest.approx(0.0)
    assert ests[A].normalized == pytest.approx(0.0)


def test_all_constant_batch_normalizes_to_zero():
    traces = [_leaf_trace(f"t{i}", A, 100) for i in range(4)]
    (est,) = compute_batch_utilities(traces, "variance")
    assert est.raw == 0.0
    assert est.normalized == 0.0


def test_results_sorted_by_identity():
    traces = _two_identity_batch([10, 20, 30], [5, 6, 7])
    ests = compute_batch_utilities(traces, "variance")
    assert [e.identity for e in ests] == sorted(e.identity for e in ests)


def test_pooling_counts_every_occurrence():
    recs = [
        SpanRecord("t0", "root", None, A, 0, 100, {}),
        SpanRecord("t0", "c1", "root", B, 0, 10, {}),
        SpanRecord("t0", "c2", "root", B, 20, 30, {}),
    ]
    pools = pool_self_segments([build_trace(recs)])
    assert sorted(pools[B]) == [10, 30]
    assert pools[A] == [60]


def test_unknown_measure_and_empty_batch():
    with pytest.raises(UnknownMeasure):
        compute_batch_utilities([_leaf_trace("t0", A, 1)], "entropy")
    with pytest.raises(UnknownMeasure):
        measure_min_samples("entropy")
    with pytest.raises(EmptyBatch):
        compute_batch_utilities([], "variance")
    # The measure is checked first, so an unknown one is named even on an empty batch.
    with pytest.raises(UnknownMeasure):
        compute_batch_utilities([], "bogus")
