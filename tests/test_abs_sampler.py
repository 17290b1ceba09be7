"""Monte-Carlo vital-set estimation and the published sampling policy."""
import pytest
from scipy import integrate, stats

from spanbandit import (
    BeliefStore,
    BetaBelief,
    EmptyStore,
    InvalidPolicy,
    SpanIdentity,
    VitalSetConfig,
    build_policy,
    draw_matrix,
    finalize_policy,
    load_policy,
    policy_from_json_dict,
    policy_to_json_dict,
    report,
    save_policy,
    vital_probabilities,
)


def _store(params, mode="discounted_count", lam=0.3, epoch=7):
    store = BeliefStore(lam=lam, mode=mode, epoch=epoch)
    for i, (a, b) in enumerate(params):
        store.beliefs[SpanIdentity(f"s{i:02d}", "op")] = BetaBelief(a, b)
    return store


def _win_probability(a1, b1, a2, b2):
    """P(X1 > X2) for independent Beta draws, by quadrature."""
    d1 = stats.beta(a1, b1)
    d2 = stats.beta(a2, b2)
    val, _ = integrate.quad(lambda x: d1.pdf(x) * d2.cdf(x), 0.0, 1.0, limit=200)
    return val


def test_vital_matches_pairwise_win_probability_for_two_spans():
    # With two identities and an interpolated percentile strictly inside
    # (0, 100), the row threshold lies strictly between the draws, so only
    # the larger one is a candidate. The vital probability is then exactly
    # the probability of winning the pairwise comparison.
    cases = [
        ((2.0, 5.0), (5.0, 2.0)),
        ((1.0, 1.0), (1.0, 1.0)),
        ((8.0, 2.0), (6.0, 4.0)),
        ((0.5, 0.5), (3.0, 3.0)),
    ]
    cfg = VitalSetConfig(percentile_p=75.0, epsilon=0.0, mc_rows=100_000, rng_seed=13)
    for (a1, b1), (a2, b2) in cases:
        store = _store([(a1, b1), (a2, b2)])
        matrix = draw_matrix(store, cfg)
        vital = vital_probabilities(matrix, cfg.percentile_p)
        want = _win_probability(a1, b1, a2, b2)
        got = vital[SpanIdentity("s00", "op")]
        assert abs(got - want) < 0.02
        other = vital[SpanIdentity("s01", "op")]
        assert abs(other - (1.0 - want)) < 0.02


def test_single_identity_is_always_vital():
    store = _store([(3.0, 4.0)])
    policy = build_policy(store, VitalSetConfig(mc_rows=1000, rng_seed=0))
    assert policy.vital[SpanIdentity("s00", "op")] == 1.0


def test_integer_rank_threshold_with_concentrated_beliefs():
    # Five identities, percentile 75 -> h = 3.0 exactly, so the threshold
    # is the 4th-smallest draw and exactly two identities qualify per row.
    # With well-separated concentrated beliefs the top two dominate.
    params = [(2, 800), (2, 600), (2, 400), (600, 2), (800, 2)]
    store = _store(params)
    cfg = VitalSetConfig(percentile_p=75.0, epsilon=0.0, mc_rows=50_000, rng_seed=3)
    vital = vital_probabilities(draw_matrix(store, cfg), 75.0)
    vals = [vital[SpanIdentity(f"s{i:02d}", "op")] for i in range(5)]
    assert sum(vals) == pytest.approx(2.0)
    assert vals[3] > 0.99 and vals[4] > 0.99
    assert max(vals[:3]) < 0.01


def test_percentile_100_keeps_only_row_maxima():
    store = _store([(1, 1), (1, 1), (1, 1)])
    cfg = VitalSetConfig(percentile_p=100.0, epsilon=0.0, mc_rows=30_000, rng_seed=5)
    vital = vital_probabilities(draw_matrix(store, cfg), 100.0)
    assert sum(vital.values()) == pytest.approx(1.0)
    for v in vital.values():
        assert abs(v - 1.0 / 3.0) < 0.02


def test_epsilon_floor_applied_to_entries_not_vital():
    vital = {SpanIdentity("a", "op"): 0.001, SpanIdentity("b", "op"): 0.9}
    cfg = VitalSetConfig(epsilon=0.05)
    policy = finalize_policy(vital, cfg, epoch=3)
    assert policy.entries[SpanIdentity("a", "op")] == 0.05
    assert policy.entries[SpanIdentity("b", "op")] == 0.9
    assert policy.vital[SpanIdentity("a", "op")] == 0.001
    assert policy.eliminated(SpanIdentity("a", "op"))
    assert not policy.eliminated(SpanIdentity("b", "op"))
    assert policy.probability(SpanIdentity("zzz", "op")) == 1.0


def test_empty_store_raises():
    with pytest.raises(EmptyStore):
        draw_matrix(BeliefStore(), VitalSetConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        VitalSetConfig(percentile_p=0.0)
    with pytest.raises(ValueError):
        VitalSetConfig(percentile_p=101.0)
    with pytest.raises(ValueError):
        VitalSetConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        VitalSetConfig(mc_rows=0)
    with pytest.raises(InvalidPolicy, match="percentile"):
        VitalSetConfig(percentile_p=float("nan"))
    with pytest.raises(InvalidPolicy, match="epsilon"):
        VitalSetConfig(epsilon=float("nan"))


def test_policy_json_round_trip(tmp_path):
    store = _store([(2, 5), (5, 2), (1, 1)])
    policy = build_policy(store, VitalSetConfig(mc_rows=2000, rng_seed=11))
    path = tmp_path / "policy.json"
    save_policy(policy, str(path))
    back = load_policy(str(path))
    assert back.epoch == policy.epoch
    assert back.epsilon == policy.epsilon
    assert back.percentile == policy.percentile
    assert back.entries == policy.entries
    assert back.vital == policy.vital
    assert policy_from_json_dict(policy_to_json_dict(policy)).entries == policy.entries


@pytest.mark.parametrize(
    "field, value",
    [
        ("probability", 7.5),
        ("probability", -0.01),
        ("probability", float("nan")),
        ("vitalProbability", -1.0),
        ("vitalProbability", float("inf")),
    ],
)
def test_policy_entry_out_of_range_rejected(field, value):
    obj = policy_to_json_dict(build_policy(_store([(2, 5), (5, 2)]), VitalSetConfig(mc_rows=500)))
    obj["entries"][1][field] = value
    with pytest.raises(InvalidPolicy, match=f"{field} must be finite and in \\[0, 1\\]"):
        policy_from_json_dict(obj)


@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon", 1.0),
        ("epsilon", -0.5),
        ("epsilon", float("nan")),
        ("percentile", 0.0),
        ("percentile", 100.5),
        ("percentile", float("inf")),
    ],
)
def test_policy_header_out_of_range_rejected(field, value):
    obj = policy_to_json_dict(build_policy(_store([(2, 5), (5, 2)]), VitalSetConfig(mc_rows=500)))
    obj[field] = value
    with pytest.raises(InvalidPolicy, match=field):
        policy_from_json_dict(obj)


def test_report_ranks_by_vital_then_mean():
    store = _store([(2, 8), (8, 2), (5, 5)])
    policy = build_policy(store, VitalSetConfig(mc_rows=20_000, rng_seed=2))
    rep = report(policy, store)
    assert not rep.ambiguous
    assert [r.rank for r in rep.rows] == [1, 2, 3]
    assert rep.rows[0].identity == SpanIdentity("s01", "op")
    assert rep.rows[0].vital_probability >= rep.rows[1].vital_probability
    assert rep.top(1) == rep.rows[:1]
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0].startswith("rank,service,operation")
    assert len(csv_text.splitlines()) == 4


def test_report_flags_identical_beliefs_as_ambiguous():
    store = _store([(1, 1), (1, 1), (1, 1), (1, 1)])
    policy = build_policy(store, VitalSetConfig(mc_rows=5000, rng_seed=4))
    rep = report(policy, store)
    assert rep.ambiguous
    assert [r.identity for r in rep.rows] == sorted(r.identity for r in rep.rows)
    assert "identical" in rep.format_table()
