"""Tag encoding and tag-latency correlation."""
import numpy as np
import pytest

from spanbandit import (
    CanaryAnomaly,
    LengthMismatch,
    SpanIdentity,
    SpanRecord,
    WorkloadSpec,
    build_tag_matrix,
    build_trace,
    correlation_report,
    get_preset,
    pearson,
    simulate_workload,
    strongest_tag,
)

IDENT = SpanIdentity("api", "get")


def _tagged_trace(trace_id, duration, tags):
    rec = SpanRecord(trace_id, "s0", None, IDENT, 0, duration, tags)
    return build_trace([rec])


def test_pearson_known_values():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
    x = [1.0, 2.0, 3.0, 4.0]
    y = [1.0, 3.0, 2.0, 4.0]
    assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])


def test_pearson_edge_cases():
    with pytest.raises(LengthMismatch):
        pearson([1, 2], [1, 2, 3])
    assert pearson([5.0], [2.0]) == 0.0
    assert pearson([1, 1, 1], [3, 9, 27]) == 0.0


def test_pearson_affine_invariance():
    rng = np.random.default_rng(19)
    x = rng.normal(size=200)
    y = 2.0 * x + rng.normal(scale=0.5, size=200)
    base = pearson(x, y)
    assert pearson(3.0 * x + 7.0, y) == pytest.approx(base, abs=1e-12)
    assert pearson(-2.0 * x + 1.0, y) == pytest.approx(-base, abs=1e-12)


def test_label_columns_coded_lexicographically():
    traces = [
        _tagged_trace("t0", 100, {"shard": "b"}),
        _tagged_trace("t1", 200, {"shard": "a"}),
        _tagged_trace("t2", 300, {"shard": "c"}),
        _tagged_trace("t3", 400, {}),
    ]
    m = build_tag_matrix(traces, IDENT)
    assert m.kinds["shard"] == "label"
    assert m.code_books["shard"] == ("a", "b", "c")
    # b -> 1, a -> 0, c -> 2, missing -> 3
    assert m.columns["shard"].tolist() == [1.0, 0.0, 2.0, 3.0]
    assert m.num_rows == 4


def test_numeric_column_detection():
    traces = [
        _tagged_trace("t0", 100, {"weight": "1.5", "mixed": "2"}),
        _tagged_trace("t1", 200, {"weight": "2.5", "mixed": "x"}),
    ]
    m = build_tag_matrix(traces, IDENT)
    assert m.kinds["weight"] == "numeric"
    assert m.code_books["weight"] is None
    assert m.columns["weight"].tolist() == [1.5, 2.5]
    assert m.kinds["mixed"] == "label"


def test_numeric_requires_all_rows_present():
    traces = [
        _tagged_trace("t0", 100, {"weight": "1.5"}),
        _tagged_trace("t1", 200, {}),
    ]
    m = build_tag_matrix(traces, IDENT)
    assert m.kinds["weight"] == "label"


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_tag_value_makes_a_label_column(value):
    # "ver" splits latency perfectly (a slow, b fast); "shard" alternates
    # 0 and 1, except in one trace where it reads `value`.
    traces = [
        _tagged_trace(f"t{i}", 200 if i < 10 else 100,
                      {"ver": "a" if i < 10 else "b", "shard": value if i == 3 else str(i % 2)})
        for i in range(20)
    ]
    m = build_tag_matrix(traces, IDENT)
    assert m.kinds["shard"] == "label"
    assert m.code_books["shard"] == tuple(sorted({"0", "1", value}))
    assert all(np.isfinite(row.r) for row in correlation_report(m))
    best = strongest_tag(traces)
    assert best is not None
    assert (best[0].identity, best[1].key) == (IDENT, "ver")
    assert best[1].r == pytest.approx(-1.0)


def test_first_occurrence_per_trace():
    recs = [
        SpanRecord("t0", "root", None, IDENT, 0, 100, {"v": "first"}),
        SpanRecord("t0", "dup", "root", IDENT, 10, 20, {"v": "second"}),
    ]
    m = build_tag_matrix([build_trace(recs)], IDENT)
    assert m.num_rows == 1
    assert m.code_books["v"] == ("first",)
    # Root's self segment excises the nested duplicate.
    assert m.self_us.tolist() == [80.0]
    assert m.duration_us.tolist() == [100.0]
    assert m.e2e_us.tolist() == [100.0]


def test_correlation_report_orders_by_strength_and_flags_constants():
    rng = np.random.default_rng(23)
    traces = []
    for i in range(120):
        slow = bool(rng.random() < 0.5)
        dur = int(5000 + 2000 * slow + rng.normal(0, 80))
        tags = {"rollout": "canary" if slow else "stable", "region": "us-east"}
        traces.append(_tagged_trace(f"t{i}", dur, tags))
    m = build_tag_matrix(traces, IDENT)
    rows = correlation_report(m, target="duration")
    assert rows[0].key == "rollout"
    assert abs(rows[0].r) > 0.9
    by_key = {r.key: r for r in rows}
    assert by_key["region"].degenerate
    assert by_key["region"].r == 0.0
    assert [abs(r.r) for r in rows] == sorted((abs(r.r) for r in rows), reverse=True)


def test_two_level_label_matches_point_biserial():
    rng = np.random.default_rng(29)
    flags = rng.random(200) < 0.4
    durations = 1000 + 500 * flags + rng.normal(0, 50, size=200)
    traces = [
        _tagged_trace(f"t{i}", int(d), {"flag": "on" if f else "off"})
        for i, (f, d) in enumerate(zip(flags, durations))
    ]
    m = build_tag_matrix(traces, IDENT)
    (row,) = [r for r in correlation_report(m, target="duration") if r.key == "flag"]
    # "off" < "on" lexicographically, so code 1 means flag set.
    want = pearson(flags.astype(float), m.duration_us)
    assert row.r == pytest.approx(want, abs=1e-12)


def test_canary_fixture_end_to_end_target():
    preset = get_preset("media-canary")
    workload = WorkloadSpec(num_requests=300, rng_seed=3)
    traces, _ = simulate_workload(preset.topology, preset.anomalies, workload)
    anomaly = next(a for a in preset.anomalies if isinstance(a, CanaryAnomaly))
    ident = next(
        i for i in preset.topology.identities() if i.service == anomaly.service
    )
    m = build_tag_matrix(traces, ident)
    rows = correlation_report(m, target="e2e")
    assert rows[0].key == anomaly.tag_key
    assert abs(rows[0].r) >= 0.8
    # The canary delay lands on the faulty service's own spans, so the
    # self-time target finds it too.
    self_rows = correlation_report(m, target="self")
    assert self_rows[0].key == anomaly.tag_key


def test_strongest_tag_scans_identities():
    rng = np.random.default_rng(31)
    other = SpanIdentity("billing", "charge")
    traces = []
    for i in range(80):
        hot = bool(rng.random() < 0.5)
        recs = [
            SpanRecord(f"t{i}", "root", None, IDENT, 0, 1000, {"zone": "z1"}),
            SpanRecord(
                f"t{i}", "leaf", "root", other, 0,
                int(400 + 300 * hot + rng.normal(0, 20)),
                {"tier": "hot" if hot else "cold"},
            ),
        ]
        traces.append(build_trace(recs))
    best = strongest_tag(traces, target="self")
    assert best is not None
    assert best[0].identity == other
    assert best[1].key == "tier"
    assert strongest_tag([], target="self") is None


def test_target_validation():
    m = build_tag_matrix([_tagged_trace("t0", 10, {"k": "v"})], IDENT)
    with pytest.raises(ValueError):
        m.target("p99")


def test_constant_float_column_is_degenerate():
    # float("2.2") twenty times has a mean that is not exactly 2.2, so its
    # standard deviation is a rounding residue, not 0.
    traces = [_tagged_trace(f"t{i}", 100 + 10 * i, {"w": "2.2"}) for i in range(20)]
    m = build_tag_matrix(traces, IDENT)
    assert m.kinds["w"] == "numeric"
    (row,) = correlation_report(m)
    assert row.degenerate is True
    assert row.r == 0.0
    assert pearson(m.columns["w"], m.self_us) == 0.0
    assert strongest_tag(traces) is None


def test_huge_numeric_column_gets_a_finite_r():
    signs = [1.0 if i % 3 else -1.0 for i in range(30)]
    traces = [
        _tagged_trace(f"t{i}", int(500 + 40 * s + 7 * (i % 5)), {"w": repr(s * 1e308)})
        for i, s in enumerate(signs)
    ]
    m = build_tag_matrix(traces, IDENT)
    assert m.kinds["w"] == "numeric"
    (row,) = correlation_report(m)
    assert not row.degenerate
    assert row.r == pytest.approx(pearson(signs, m.self_us), abs=1e-12)
    assert row.r > 0.9
    best = strongest_tag(traces)
    assert best is not None and best[1].r == row.r


def test_pearson_keeps_the_bits_of_corrcoef_on_ordinary_columns():
    # Scaling each side by a power of two is exact, so r matches np.corrcoef
    # bit for bit wherever corrcoef does not overflow.
    rng = np.random.default_rng(37)
    for n in (2, 3, 10, 200):
        for scale in (1e-6, 1.0, 3e5, 1e150):
            x = rng.normal(size=n) * scale
            y = rng.lognormal(size=n) * 1e3
            assert pearson(x, y) == float(np.corrcoef(x, y)[0, 1])
