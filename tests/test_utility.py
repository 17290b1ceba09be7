"""Utility measures over pooled self segments."""
import numpy as np
import pytest

from spanbandit import (
    EmptyBatch,
    SpanIdentity,
    SpanRecord,
    UnknownIdentity,
    UnknownMeasure,
    WorkloadSpec,
    available_measures,
    build_trace,
    compute_batch_utilities,
    get_preset,
    measure_comparison,
    measure_min_samples,
    pool_self_segments,
    register_measure,
    simulate_workload,
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


def test_register_custom_measure():
    register_measure("range_width", lambda x: float(np.max(x) - np.min(x)), min_samples=2)
    assert "range_width" in available_measures()
    traces = [_leaf_trace(f"t{i}", A, d) for i, d in enumerate([3, 11])]
    (est,) = compute_batch_utilities(traces, "range_width")
    assert est.raw == pytest.approx(8.0)


def test_measure_comparison_ranks_variable_identity_first():
    rng = np.random.default_rng(5)
    a = rng.normal(5000, 40, size=60).astype(int)
    b = rng.normal(800, 900, size=60)
    b = np.clip(b, 1, None).astype(int)
    traces = _two_identity_batch(a.tolist(), b.tolist())
    rows = {r.measure: r for r in measure_comparison(traces, B, measures=("variance", "std"))}
    assert rows["variance"].fault_rank == 1
    assert rows["variance"].top1
    assert not rows["variance"].ambiguous


def test_measure_comparison_flags_uninformative_batch():
    traces = [_leaf_trace(f"t{i}", A, 100) for i in range(3)]
    (row,) = measure_comparison(traces, A, measures=("variance",))
    assert row.ambiguous
    assert not row.top5


def test_measure_comparison_unknown_identity():
    traces = [_leaf_trace("t0", A, 1)]
    with pytest.raises(UnknownIdentity):
        measure_comparison(traces, B, measures=("mean",))


def _reference_comparison(traces, fault, measures):
    """Each measure ranked from its own compute_batch_utilities call."""
    rows = []
    for name in measures:
        estimates = compute_batch_utilities(traces, name)
        ranked = sorted(estimates, key=lambda e: (-e.raw, e.identity))
        rank = next(i for i, e in enumerate(ranked, start=1) if e.identity == fault)
        raws = [e.raw for e in estimates]
        ambiguous = max(raws) == min(raws)
        rows.append((name, rank, *(not ambiguous and rank <= k for k in (1, 3, 5)), ambiguous))
    return rows


def test_measure_comparison_matches_each_measures_own_scoring():
    preset = get_preset("social")
    traces, _ = simulate_workload(
        preset.topology, preset.anomalies, WorkloadSpec(num_requests=150, rng_seed=2)
    )
    fault = preset.anomalies[0].target
    measures = ("variance", "std", "coefficient_of_variation", "mean", "max", "p99")
    got = [
        (r.measure, r.fault_rank, r.top1, r.top3, r.top5, r.ambiguous)
        for r in measure_comparison(traces, fault)
    ]
    assert got == _reference_comparison(traces, fault, measures)
    assert len({rank for _, rank, *_ in got}) > 1  # the measures disagree somewhere


@pytest.mark.parametrize(
    "batch, fault, measures, error",
    [
        ("empty", A, ("mean",), EmptyBatch),
        ("empty", A, ("bogus",), UnknownMeasure),
        ("one", A, ("mean", "bogus"), UnknownMeasure),
        ("one", B, ("mean", "bogus"), UnknownIdentity),
        ("one", B, ("bogus", "mean"), UnknownMeasure),
    ],
)
def test_measure_comparison_errors_in_measure_order(batch, fault, measures, error):
    traces = [] if batch == "empty" else [_leaf_trace("t0", A, 1)]
    with pytest.raises(error):
        measure_comparison(traces, fault, measures=measures)
