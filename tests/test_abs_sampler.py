"""The quadrature vital-set planner and the published sampling policy."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

from spanbandit import (
    BeliefStore,
    BetaBelief,
    EmptyStore,
    InvalidPolicy,
    SpanIdentity,
    VitalSetConfig,
    build_policy,
    load_policy,
    policy_from_json_dict,
    policy_to_json_dict,
    report,
    save_policy,
)
from spanbandit.abs_sampler import beta_cdf
from spanbandit.belief import PARAM_FLOOR
from spanbandit.experiment import synthetic_store


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


# The Monte-Carlo oracle, independent of the planner: one numpy Beta draw
# per identity per row, the row's linear-interpolation P-th percentile as
# threshold, and the fraction of rows whose draw met it. The tolerance is
# Z_MAX standard errors of the difference, the planner counted as a
# REFERENCE_ROWS-row estimate, with the Bernoulli variance floored at one
# such row so probabilities near 0 or 1 keep a little room.
ORACLE_ROWS = 40_000
REFERENCE_ROWS = 10_000
Z_MAX = 5.5


def _oracle_vital(alphas, betas, percentile, seed=20240515):
    rng = np.random.default_rng(seed)
    hits = np.zeros(len(alphas))
    for lo in range(0, ORACLE_ROWS, 4_000):
        values = rng.beta(alphas, betas, size=(min(4_000, ORACLE_ROWS - lo), len(alphas)))
        thresh = np.percentile(values, percentile, axis=1, method="linear")
        hits += (values >= thresh[:, None]).sum(axis=0)
    return hits / ORACLE_ROWS


def _oracle_misses(store, percentile):
    ids = sorted(store.beliefs)
    alphas = np.array([store.beliefs[i].alpha for i in ids])
    betas = np.array([store.beliefs[i].beta for i in ids])
    vital = build_policy(store, VitalSetConfig(percentile_p=percentile, epsilon=0.0)).vital
    got = np.array([vital[i] for i in ids])
    want = _oracle_vital(alphas, betas, percentile)
    pooled = (got * REFERENCE_ROWS + want * ORACLE_ROWS) / (REFERENCE_ROWS + ORACLE_ROWS)
    var = np.maximum(pooled * (1.0 - pooled), 1.0 / REFERENCE_ROWS)
    se = np.sqrt(var * (1.0 / REFERENCE_ROWS + 1.0 / ORACLE_ROWS))
    return [(str(i), g, w) for i, g, w, e in zip(ids, got, want, se) if abs(g - w) > Z_MAX * e]


# alpha + beta = 1, the verbatim EWMA's fixed point, with alpha from 1e-3
# to 0.5: each belief piles its mass near 0 over many orders of magnitude,
# most of it inside the grid's first uniform bin, where only the tail
# nodes tell the spans apart. Beta stays >= 0.5 because the oracle's own
# draws tie at exactly 1.0 once beta is far below 1 (doubles near 1 are
# 1.1e-16 apart), and a continuous planner rightly does not reproduce
# those ties.
U_SHAPED = [(a, 1.0 - a) for a in np.geomspace(0.001, 0.5, 30)]
# Beta(200, 20) and Beta(190, 20) share most of one grid bin.
CONCENTRATED = [(200.0, 20.0), (190.0, 20.0), (150.0, 30.0), (5.0, 5.0), (3.0, 7.0)]
ORACLE_STORES = [
    ("synthetic-564", lambda: synthetic_store(564, 0), 75.0),
    ("synthetic-41", lambda: synthetic_store(41, 2), 50.0),
    ("synthetic-41", lambda: synthetic_store(41, 2), 90.0),
    ("synthetic-41", lambda: synthetic_store(41, 2), 100.0),
    ("u-shaped", lambda: _store(U_SHAPED), 75.0),
    ("u-shaped", lambda: _store(U_SHAPED), 100.0),
    ("concentrated", lambda: _store(CONCENTRATED), 75.0),
    ("concentrated", lambda: _store(CONCENTRATED), 100.0),
    ("param-floor",
     lambda: _store([(PARAM_FLOOR, 1.0), (2.0, 5.0), (5.0, 2.0), (1.0, PARAM_FLOOR)]), 75.0),
    ("one", lambda: _store([(3.0, 4.0)]), 75.0),
    ("two", lambda: _store([(0.5, 0.5), (3.0, 3.0)]), 75.0),
]


@pytest.mark.parametrize(
    "make, percentile", [(m, p) for _, m, p in ORACLE_STORES],
    ids=[f"{name}-p{p:g}" for name, _, p in ORACLE_STORES],
)
def test_vital_matches_monte_carlo_oracle(make, percentile):
    assert _oracle_misses(make(), percentile) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "make, percentile", [(m, p) for _, m, p in ORACLE_STORES],
    ids=[f"{name}-p{p:g}" for name, _, p in ORACLE_STORES],
)
def test_vital_invariants(make, percentile):
    store = make()
    s = len(store.beliefs)
    h = (s - 1) * percentile / 100.0
    m = math.floor(h) + (h > math.floor(h))
    vital = build_policy(store, VitalSetConfig(percentile_p=percentile, epsilon=0.0)).vital
    assert abs(sum(vital.values()) - (s - m)) < 1e-9
    assert all(0.0 <= v <= 1.0 for v in vital.values())


@pytest.mark.filterwarnings("error")
def test_equal_beliefs_get_bit_equal_vital():
    params = [(2.0, 5.0), (0.3, 0.7), (2.0, 5.0), (9.0, 1.0), (0.3, 0.7), (2.0, 5.0)]
    for percentile in (50.0, 75.0, 100.0):
        vital = build_policy(_store(params), VitalSetConfig(percentile_p=percentile)).vital
        by_params = {}
        for i, ab in enumerate(params):
            by_params.setdefault(ab, set()).add(vital[SpanIdentity(f"s{i:02d}", "op")])
        assert all(len(values) == 1 for values in by_params.values())


def test_huge_concentration_plans_like_a_point_mass():
    # A state file may hold any finite belief; 1e12 pseudo-counts must not
    # stall the continued fraction.
    store = _store([(3e11, 1e12), (1e12, 1e12), (2.0, 2.0)])
    vital = build_policy(store, VitalSetConfig(percentile_p=100.0, epsilon=0.0)).vital
    assert vital[SpanIdentity("s00", "op")] < 1e-9
    assert abs(vital[SpanIdentity("s01", "op")] - 0.5) < 0.01


def test_beta_cdf_matches_scipy():
    rng = np.random.default_rng(7)
    a = 10.0 ** rng.uniform(-9.0, 6.0, 20_000)
    b = 10.0 ** rng.uniform(-9.0, 6.0, 20_000)
    x = rng.uniform(0.0, 1.0, 20_000)
    x[:5_000] = (a / (a + b))[:5_000]  # at the mean, where the fraction is slowest
    got = beta_cdf(a, b, x, 1.0 - x)
    assert np.max(np.abs(got - special.betainc(a, b, x))) < 1e-8


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
    cfg = VitalSetConfig(percentile_p=75.0, epsilon=0.0)
    for (a1, b1), (a2, b2) in cases:
        store = _store([(a1, b1), (a2, b2)])
        vital = build_policy(store, cfg).vital
        want = _win_probability(a1, b1, a2, b2)
        got = vital[SpanIdentity("s00", "op")]
        assert abs(got - want) < 0.02
        other = vital[SpanIdentity("s01", "op")]
        assert abs(other - (1.0 - want)) < 0.02


def test_single_identity_is_always_vital():
    store = _store([(3.0, 4.0)])
    policy = build_policy(store, VitalSetConfig())
    assert policy.vital[SpanIdentity("s00", "op")] == 1.0


def test_integer_rank_threshold_with_concentrated_beliefs():
    # Five identities, percentile 75 -> h = 3.0 exactly, so the threshold
    # is the 4th-smallest draw and exactly two identities qualify per row.
    # With well-separated concentrated beliefs the top two dominate.
    params = [(2, 800), (2, 600), (2, 400), (600, 2), (800, 2)]
    store = _store(params)
    cfg = VitalSetConfig(percentile_p=75.0, epsilon=0.0)
    vital = build_policy(store, cfg).vital
    vals = [vital[SpanIdentity(f"s{i:02d}", "op")] for i in range(5)]
    assert sum(vals) == pytest.approx(2.0)
    assert vals[3] > 0.99 and vals[4] > 0.99
    assert max(vals[:3]) < 0.01


def test_percentile_100_keeps_only_row_maxima():
    store = _store([(1, 1), (1, 1), (1, 1)])
    cfg = VitalSetConfig(percentile_p=100.0, epsilon=0.0)
    vital = build_policy(store, cfg).vital
    assert sum(vital.values()) == pytest.approx(1.0)
    for v in vital.values():
        assert abs(v - 1.0 / 3.0) < 0.02


def test_epsilon_floor_applied_to_entries_not_vital():
    # Beta(1, 1000) never outdraws Beta(1000, 1), so its vital probability
    # is 0 and only its published entry sits at the floor.
    store = BeliefStore(epoch=3)
    store.beliefs[SpanIdentity("a", "op")] = BetaBelief(1, 1000)
    store.beliefs[SpanIdentity("b", "op")] = BetaBelief(1000, 1)
    policy = build_policy(store, VitalSetConfig(epsilon=0.05))
    assert policy.entries[SpanIdentity("a", "op")] == 0.05
    assert policy.entries[SpanIdentity("b", "op")] == 1.0
    assert policy.vital[SpanIdentity("a", "op")] == 0.0
    assert policy.eliminated(SpanIdentity("a", "op"))
    assert not policy.eliminated(SpanIdentity("b", "op"))
    assert policy.probability(SpanIdentity("zzz", "op")) == 1.0
    assert policy.epoch == 3


def test_empty_store_raises():
    with pytest.raises(EmptyStore):
        build_policy(BeliefStore(), VitalSetConfig())


def test_planning_memory_stays_below_a_draw_matrix():
    # 564 identities: the planner's arrays are about (S + 1) x bins floats
    # each, well under a 10k-row draw matrix (43 MB).
    store = synthetic_store(564, 0)
    cfg = VitalSetConfig()
    build_policy(store, cfg)  # warm caches outside the measurement
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        build_policy(store, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000 * 564 * 8


def test_config_validation():
    with pytest.raises(ValueError):
        VitalSetConfig(percentile_p=0.0)
    with pytest.raises(ValueError):
        VitalSetConfig(percentile_p=101.0)
    with pytest.raises(ValueError):
        VitalSetConfig(epsilon=1.0)
    with pytest.raises(InvalidPolicy, match="percentile"):
        VitalSetConfig(percentile_p=float("nan"))
    with pytest.raises(InvalidPolicy, match="epsilon"):
        VitalSetConfig(epsilon=float("nan"))


def test_policy_json_round_trip(tmp_path):
    store = _store([(2, 5), (5, 2), (1, 1)])
    policy = build_policy(store, VitalSetConfig())
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
    obj = policy_to_json_dict(build_policy(_store([(2, 5), (5, 2)]), VitalSetConfig()))
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
    obj = policy_to_json_dict(build_policy(_store([(2, 5), (5, 2)]), VitalSetConfig()))
    obj[field] = value
    with pytest.raises(InvalidPolicy, match=field):
        policy_from_json_dict(obj)


@pytest.mark.parametrize(
    "field, value",
    [("epsilon", "0.05"), ("percentile", True), ("probability", "0.5"), ("vitalProbability", False)],
)
def test_policy_file_with_non_number_rejected(field, value):
    obj = policy_to_json_dict(build_policy(_store([(2, 5), (5, 2)]), VitalSetConfig()))
    (obj if field in obj else obj["entries"][1])[field] = value
    with pytest.raises(InvalidPolicy, match=field):
        policy_from_json_dict(obj)


def test_report_ranks_by_vital_then_mean():
    store = _store([(2, 8), (8, 2), (5, 5)])
    policy = build_policy(store, VitalSetConfig())
    rep = report(policy, store)
    assert not rep.ambiguous
    assert [r.rank for r in rep.rows] == [1, 2, 3]
    assert rep.rows[0].identity == SpanIdentity("s01", "op")
    assert rep.rows[0].vital_probability >= rep.rows[1].vital_probability
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0].startswith("rank,service,operation")
    assert len(csv_text.splitlines()) == 4


def test_report_refuses_a_policy_identity_the_store_lacks():
    store = _store([(2, 8), (8, 2), (5, 5)])
    policy = build_policy(store, VitalSetConfig())
    del store.beliefs[SpanIdentity("s01", "op")]
    with pytest.raises(InvalidPolicy, match="^s01/op is in the policy but not in the state$"):
        report(policy, store)
    # The store may hold identities the policy lacks; the report lists the policy's.
    store = _store([(2, 8), (8, 2), (5, 5), (1, 1)])
    assert sorted(r.identity for r in report(policy, store).rows) == sorted(policy.entries)


def test_policy_file_listing_an_identity_twice_rejected():
    obj = policy_to_json_dict(build_policy(_store([(2, 5), (5, 2)]), VitalSetConfig()))
    obj["entries"].append({**obj["entries"][0], "probability": 0.5})
    with pytest.raises(InvalidPolicy, match="^s00/op is listed twice in entries$"):
        policy_from_json_dict(obj)


def test_report_flags_identical_beliefs_as_ambiguous():
    store = _store([(1, 1), (1, 1), (1, 1), (1, 1)])
    policy = build_policy(store, VitalSetConfig())
    rep = report(policy, store)
    assert rep.ambiguous
    assert [r.identity for r in rep.rows] == sorted(r.identity for r in rep.rows)
    assert "identical" in rep.format_table()
