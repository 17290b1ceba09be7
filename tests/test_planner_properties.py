"""Planner invariants and wire-format round trips on random stores.

Hypothesis draws stores of 1 to 60 identities with alpha and beta
log-uniform in [0.05, 50] and a percentile P in (0, 100] (derandomized,
so a run is reproducible). Every draw's vital set has S - m members, so
the vital probabilities must sum to S - m; the planner must not depend
on how the identities are named; identities with equal beliefs must get
bit-equal values; raising one identity's alpha with its beta fixed makes
its utility stochastically larger, so it must not lower that identity's
vital probability; and belief and policy files must read back exactly
what was written and refuse non-finite numbers.

The planner bounds every Beta CDF from its leading factor, takes the
CDFs only at the grid nodes those bounds leave open, and settles
far-off bins by a Chernoff bound before it builds any count pmf. It is
checked against a test-local copy that takes the CDF at every node and
builds the pmf in every bin, on stores of 1 to 700 identities drawn
from numpy by a Hypothesis seed, one kind of which puts the continued
fraction's flip points x = (a+1)/(a+b+2) inside the band of undecided
bins. The vital values must agree within 1e-14 before the rescale, and
after it within 1e-14 plus the share of the total that the rescale
passes on. That copy's Horner sums carry roundoff of up to about an ulp
per term, so in every settled bin its tails must lie within
max(1e-15, S ulps) of the 0 or 1 assigned; the exact count pmf, a sum
of positive terms, must place each settled bin within DECIDED_TAIL of
it. The open bins must hold every bin the copy leaves undecided, and
the CDF bounds must hold beta_cdf at every node, for alpha and beta
log-uniform in [1e-9, 1e6] and for sums that MAX_CONCENTRATION shrinks.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanbandit import abs_sampler
from spanbandit import (
    BeliefStore,
    BetaBelief,
    InvalidBelief,
    InvalidPolicy,
    SpanIdentity,
    VitalSetConfig,
    build_policy,
    policy_from_json_dict,
    policy_to_json_dict,
    store_from_json_dict,
    store_to_json_dict,
)

_param = st.floats(math.log(0.05), math.log(50.0)).map(math.exp)
_params = st.lists(st.tuples(_param, _param), min_size=1, max_size=60)
_percentile = st.floats(0.0, 100.0, exclude_min=True)
_settings = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def _store(params, names=None, epoch=3):
    names = names if names is not None else range(len(params))
    store = BeliefStore(lam=0.3, mode="discounted_count", epoch=epoch)
    for name, (a, b) in zip(names, params):
        store.beliefs[SpanIdentity(f"svc-{name:02d}", "op")] = BetaBelief(a, b)
    return store


def _vital_in_draw_order(params, names, percentile):
    vital = build_policy(_store(params, names), VitalSetConfig(percentile_p=percentile)).vital
    return [vital[SpanIdentity(f"svc-{name:02d}", "op")] for name in names]


@_settings
@given(params=_params, percentile=_percentile)
def test_vital_sums_to_the_vital_set_size(params, percentile):
    s = len(params)
    h = (s - 1) * percentile / 100.0
    m = math.floor(h) + (h > math.floor(h))
    vital = build_policy(_store(params), VitalSetConfig(percentile_p=percentile)).vital
    assert abs(sum(vital.values()) - (s - m)) <= 1e-9
    assert all(0.0 <= v <= 1.0 for v in vital.values())


@_settings
@given(params=_params, percentile=_percentile, data=st.data())
def test_relabelling_identities_moves_no_vital_value(params, percentile, data):
    names = list(range(len(params)))
    relabelled = data.draw(st.permutations(names))
    before = _vital_in_draw_order(params, names, percentile)
    after = _vital_in_draw_order(params, relabelled, percentile)
    assert max(abs(x - y) for x, y in zip(before, after)) <= 1e-12


@_settings
@given(params=_params, percentile=_percentile, data=st.data())
def test_equal_beliefs_get_bit_equal_vital_values(params, percentile, data):
    copied = data.draw(st.lists(st.integers(0, len(params) - 1), min_size=1, max_size=5))
    params = params + [params[i] for i in copied]
    vital = _vital_in_draw_order(params, range(len(params)), percentile)
    by_belief = {}
    for ab, v in zip(params, vital):
        by_belief.setdefault(ab, set()).add(v)
    assert all(len(values) == 1 for values in by_belief.values())


@_settings
@given(
    params=st.lists(st.tuples(_param, _param), min_size=1, max_size=39),
    percentile=_percentile,
    data=st.data(),
)
def test_raising_alpha_never_lowers_vital(params, percentile, data):
    j = data.draw(st.integers(0, len(params) - 1))
    factor = data.draw(st.floats(1.0, 10.0, exclude_min=True))
    raised = list(params)
    raised[j] = (params[j][0] * factor, params[j][1])
    names = range(len(params))
    before = _vital_in_draw_order(params, names, percentile)[j]
    after = _vital_in_draw_order(raised, names, percentile)[j]
    assert after >= before - 1e-12


@_settings
@given(
    params=_params,
    percentile=_percentile,
    epsilon=st.floats(0.0, 1.0, exclude_max=True),
    epoch=st.integers(0, 10**6),
)
def test_belief_and_policy_json_round_trips_are_exact(params, percentile, epsilon, epoch):
    store = _store(params, epoch=epoch)
    back = store_from_json_dict(json.loads(json.dumps(store_to_json_dict(store))))
    assert back == store
    policy = build_policy(store, VitalSetConfig(percentile_p=percentile, epsilon=epsilon))
    read = policy_from_json_dict(json.loads(json.dumps(policy_to_json_dict(policy))))
    assert read == policy


_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@_settings
@given(params=_params, bad=_non_finite, field=st.sampled_from(["alpha", "beta"]), data=st.data())
def test_belief_file_with_a_non_finite_parameter_is_rejected(params, bad, field, data):
    obj = json.loads(json.dumps(store_to_json_dict(_store(params))))
    data.draw(st.sampled_from(obj["beliefs"]))[field] = bad
    with pytest.raises(InvalidBelief):
        store_from_json_dict(obj)


@_settings
@given(
    params=_params,
    bad=_non_finite,
    field=st.sampled_from(["probability", "vitalProbability"]),
    data=st.data(),
)
def test_policy_file_with_a_non_finite_probability_is_rejected(params, bad, field, data):
    obj = policy_to_json_dict(build_policy(_store(params), VitalSetConfig()))
    obj = json.loads(json.dumps(obj))
    data.draw(st.sampled_from(obj["entries"]))[field] = bad
    with pytest.raises(InvalidPolicy):
        policy_from_json_dict(obj)


# --- the planner against an all-nodes, all-bins copy ------------------------


def _all_bins(p, m):
    """The planner's tails with a count pmf built in every bin: the half-pmf
    convolution and both Horner sums, as before bins were settled."""
    s = p.shape[0]
    q = 1.0 - p
    low, high = _pmf(p[: s // 2]), _pmf(p[s // 2 :])
    pmf = np.stack([np.convolve(low[:, g], high[:, g]) for g in range(p.shape[1])], axis=1)
    forward = p <= 0.5
    q_fwd = np.where(forward, q, 1.0)
    p_bwd = np.where(forward, 1.0, p)
    ratio = np.where(forward, -p / q_fwd, 0.0)
    acc = np.zeros_like(p)
    for at_most in np.cumsum(pmf[:m], axis=0):
        acc = acc * ratio + at_most
    fewer = acc / q_fwd
    ratio = np.where(forward, 0.0, -q / p_bwd)
    acc = np.zeros_like(p)
    for at_least in np.cumsum(pmf[s:m:-1], axis=0):
        acc = acc * ratio + at_least
    return np.clip(np.where(forward, 1.0 - fewer, acc / p_bwd), 0.0, 1.0)


def _pmf(p):
    """pmf[n, g] of the count below bin g, one identity at a time."""
    pmf = np.zeros((p.shape[0] + 1, p.shape[1]))
    pmf[0] = 1.0
    for i, p_i in enumerate(p):
        pmf[1 : i + 2] = pmf[1 : i + 2] * (1.0 - p_i) + pmf[: i + 1] * p_i
        pmf[0] *= 1.0 - p_i
    return pmf


_KINDS = ("log-uniform", "u-shaped", "max-concentration", "identical", "flip-in-band")


def _random_store(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "log-uniform":
        alphas, betas = np.exp(rng.uniform(math.log(0.05), math.log(50.0), (2, size)))
    elif kind == "u-shaped":
        alphas, betas = 10.0 ** rng.uniform(-3.0, 0.0, (2, size))
    elif kind == "max-concentration":
        means = rng.uniform(0.01, 0.99, size)
        total = abs_sampler.MAX_CONCENTRATION * 10.0 ** rng.uniform(-1.0, 1.0, size)
        alphas, betas = means * total, (1.0 - means) * total
    elif kind == "flip-in-band":
        # Means near 1/2 and sums of 20 to 200: each flip point
        # x = (a+1)/(a+b+2) lies near its mean, so inside the band.
        means, total = rng.uniform(0.45, 0.55, size), rng.uniform(20.0, 200.0, size)
        alphas, betas = means * total, (1.0 - means) * total
    else:
        alphas, betas = np.exp(rng.uniform(math.log(0.05), math.log(50.0), (2, 1))).repeat(size, 1)
    return _store(list(zip(alphas.tolist(), betas.tolist())))


def _all_nodes(store, percentile):
    """The identities, the shrunk (a, b) columns, m, and the CDFs at 0,
    every grid node and 1: the planner's input before any node was bounded."""
    identities = sorted(store.beliefs)
    a, b = abs_sampler._shrunk(
        np.array([store.beliefs[i].alpha for i in identities]),
        np.array([store.beliefs[i].beta for i in identities]),
    )
    s = len(identities)
    h = (s - 1) * percentile / 100.0
    m = math.floor(h) + (h > math.floor(h))
    cdf = np.zeros((s, abs_sampler._GRID[0].size + 2))
    cdf[:, -1] = 1.0
    cdf[:, 1:-1] = abs_sampler.beta_cdf(a, b, *abs_sampler._GRID)
    return identities, a, b, m, cdf


def _rescaled(raw, m):
    s, total = raw.size, raw.sum()
    vital = raw * (s - m) / total if total >= s - m else 1.0 - (1.0 - raw) * (m / (s - total))
    return np.clip(vital, 0.0, 1.0)


def _open_bins(a, b, m):
    lead = abs_sampler._beta_lead(a, b, *abs_sampler._LOG_GRID)
    return abs_sampler._open_bins(*abs_sampler._cdf_bounds(a, b, lead), m)


def _plan_both(kind, size, seed, percentile):
    """The all-nodes bin probabilities p, m, and for build_policy and for a
    copy that takes every CDF and builds every bin's pmf, each the vital
    values before and after the rescale."""
    store = _random_store(kind, size, seed)
    identities, a, b, m, cdf = _all_nodes(store, percentile)
    p = 0.5 * (cdf[:, :-1] + cdf[:, 1:])
    raw_full = (np.diff(cdf, axis=1) * _all_bins(p, m)).sum(axis=1)
    raw = abs_sampler._unscaled_vital(a, b, m)
    vital = build_policy(store, VitalSetConfig(percentile_p=percentile)).vital
    assert [vital[i] for i in identities] == _rescaled(raw, m).tolist()
    return p, m, [(raw, _rescaled(raw, m)), (raw_full, _rescaled(raw_full, m))]


_stores = dict(
    kind=st.sampled_from(_KINDS),
    size=st.one_of(st.integers(1, 40), st.integers(41, 700)),
    seed=st.integers(0, 2**32 - 1),
    percentile=st.one_of(st.sampled_from([50.0, 100.0]), _percentile),
)
_edges = [
    example(kind="log-uniform", size=1, seed=0, percentile=75.0),
    example(kind="u-shaped", size=564, seed=1, percentile=100.0),
    example(kind="log-uniform", size=564, seed=2, percentile=75.0),
    example(kind="identical", size=300, seed=3, percentile=50.0),
    example(kind="max-concentration", size=700, seed=4, percentile=100.0),
    # A continued fraction whose value moved with the other nodes of its
    # call put this store 1.2e-14 from the all-nodes copy.
    example(kind="max-concentration", size=587, seed=3596435267, percentile=50.0),
    example(kind="flip-in-band", size=200, seed=5, percentile=50.0),
    example(kind="flip-in-band", size=564, seed=6, percentile=75.0),
]


def _on_random_stores(test):
    for edge in _edges:
        test = edge(test)
    return settings(derandomize=True, database=None, max_examples=60, deadline=None)(
        given(**_stores)(test)
    )


@_on_random_stores
def test_settled_bins_keep_every_vital_value(kind, size, seed, percentile):
    p, m, ((raw, vital), (raw_full, vital_full)) = _plan_both(kind, size, seed, percentile)
    s, total = p.shape[0], raw.sum()
    assert np.max(np.abs(raw - raw_full)) <= 1e-14
    # The rescale divides by the raw total (or by S minus it), which the
    # all-bins path's roundoff moves by up to S times a tail's; each value
    # may move by that share as well.
    share = abs(total - raw_full.sum()) / (total if total >= s - m else s - total)
    assert np.max(np.abs(vital - vital_full)) <= 1e-14 + share


@_on_random_stores
def test_settled_bins_are_settled_by_the_full_path_and_the_exact_pmf(kind, size, seed, percentile):
    p, m, _ = _plan_both(kind, size, seed, percentile)
    s, count = p.shape[0], p.sum(axis=0)
    settled = ~abs_sampler._undecided_bins(count, (1.0 - p).sum(axis=0), s, m)
    above = count > m
    full = _all_bins(p, m)
    # The all-bins path's Horner sums add up to about an ulp per term.
    roundoff = max(1e-15, s * np.finfo(float).eps)
    assert np.max(np.abs(full[:, settled] - above[settled]), initial=0.0) <= roundoff
    pmf = _pmf(p)
    # Beyond m on the far side: P(N >= m) where the mean lies below m, P(N <= m) where above.
    far = np.where(above, pmf[: m + 1].sum(axis=0), pmf[m:].sum(axis=0))
    assert np.all(far[settled] < abs_sampler.DECIDED_TAIL)


def test_a_count_whose_mean_rounds_to_s_is_not_settled():
    # Two of ten identities lie below the bin but for 6 and 7 half-ulps of
    # 1: their mean rounds to S = 10, yet with m = 9 the far side
    # P(N <= 9) is 1.4e-15, far above DECIDED_TAIL, so the bin stays open.
    half_ulp = np.finfo(float).eps / 2
    p = np.ones((10, 1))
    p[1] -= 6 * half_ulp
    p[9] -= 7 * half_ulp
    assert p.sum() == 10.0 and _pmf(p)[:10].sum() > abs_sampler.DECIDED_TAIL
    assert abs_sampler._undecided_bins(p.sum(axis=0), (1.0 - p).sum(axis=0), 10, 9).all()


@_on_random_stores
def test_open_bins_hold_every_bin_the_all_nodes_path_leaves_undecided(kind, size, seed, percentile):
    store = _random_store(kind, size, seed)
    _, a, b, m, cdf = _all_nodes(store, percentile)
    p = 0.5 * (cdf[:, :-1] + cdf[:, 1:])
    count = p.sum(axis=0)
    undecided = np.flatnonzero(abs_sampler._undecided_bins(count, (1.0 - p).sum(axis=0), a.size, m))
    start, stop = _open_bins(a, b, m)
    assert np.all((start <= undecided) & (undecided < stop))
    # And the bins outside are settled on the side the bounds assign.
    assert np.all(count[:start] < m) and np.all(count[stop:] > m)


@pytest.mark.parametrize("size, seed, percentile", [(200, 5, 50.0), (564, 6, 75.0)])
def test_flip_in_band_stores_put_flip_points_inside_the_band(size, seed, percentile):
    _, a, b, m, cdf = _all_nodes(_random_store("flip-in-band", size, seed), percentile)
    p = 0.5 * (cdf[:, :-1] + cdf[:, 1:])
    band = np.flatnonzero(abs_sampler._undecided_bins(p.sum(axis=0), (1.0 - p).sum(axis=0), a.size, m))
    edges = np.concatenate([[0.0], abs_sampler._GRID[0], [1.0]])
    flip = (a + 1.0) / (a + b + 2.0)
    assert np.any((edges[band.min()] < flip) & (flip < edges[band.max() + 1]))


# Log-uniform in [1e-9, 1e6], and pairs scaled up by as much as 1e300,
# which MAX_CONCENTRATION shrinks.
_exponent = st.floats(-9.0, 6.0)
_beliefs = st.lists(
    st.tuples(_exponent, _exponent, st.one_of(st.just(0.0), st.floats(0.0, 300.0))).map(
        lambda t: (10.0 ** (t[0] + t[2]), 10.0 ** (t[1] + t[2]))
    ),
    min_size=1,
    max_size=40,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(params=_beliefs)
@example(params=[(1e-9, 1e-9), (1e6, 1e6), (1.7e308, 1e-9), (1e-9, 1.7e308), (1e-9, 1e6)])
def test_cdf_bounds_bracket_beta_cdf_at_every_node(params):
    a, b = abs_sampler._shrunk(*np.array(params).T)
    below, above = abs_sampler._cdf_bounds(a, b, abs_sampler._beta_lead(a, b, *abs_sampler._LOG_GRID))
    cdf = abs_sampler.beta_cdf(a, b, *abs_sampler._GRID)
    # beta_cdf carries the grid's roundoff: a node's 1 - x is rounded to an
    # ulp of 1, which moves log lead by up to (a + b) such ulps, and a CDF
    # near 1 is itself rounded to an ulp of 1.
    eps = np.finfo(float).eps
    rel = 8 * abs_sampler.MAX_CONCENTRATION * eps
    assert np.all(cdf <= below * (1 + rel) + 2 * eps)
    assert np.all(1.0 - cdf <= above * (1 + rel) + 2 * eps)
