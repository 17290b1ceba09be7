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

The planner settles far-off grid bins by a Chernoff bound before it
builds any count pmf. It is checked against a copy of the path that
builds the pmf in every bin, on stores of 1 to 700 identities drawn from
numpy by a Hypothesis seed. The vital values must agree within 1e-14
before the rescale, and after it within 1e-14 plus the share of the
total that the rescale passes on. That path's Horner sums carry roundoff
of up to about an ulp per term, so in every settled bin its tails must
lie within max(1e-15, S ulps) of the 0 or 1 assigned; the exact count
pmf, a sum of positive terms, must place each settled bin within
DECIDED_TAIL of it.
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


# --- settled bins against the all-bins path -------------------------------


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


_KINDS = ("log-uniform", "u-shaped", "max-concentration", "identical")


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
    else:
        alphas, betas = np.exp(rng.uniform(math.log(0.05), math.log(50.0), (2, 1))).repeat(size, 1)
    return _store(list(zip(alphas.tolist(), betas.tolist())))


def _plan_both(kind, size, seed, percentile):
    """The bin probabilities p, m, and for the settled and the all-bins tails
    each the vital values before and after build_policy's rescale."""
    store = _random_store(kind, size, seed)
    identities = sorted(store.beliefs)
    alphas = np.array([store.beliefs[i].alpha for i in identities])
    betas = np.array([store.beliefs[i].beta for i in identities])
    shrink = np.minimum(1.0, abs_sampler.MAX_CONCENTRATION / (alphas + betas))
    s = len(identities)
    h = (s - 1) * percentile / 100.0
    m = math.floor(h) + (h > math.floor(h))
    cdf = np.zeros((s, abs_sampler._GRID[0].size + 2))
    cdf[:, -1] = 1.0
    cdf[:, 1:-1] = abs_sampler.beta_cdf(
        (alphas * shrink)[:, None], (betas * shrink)[:, None], *abs_sampler._GRID
    )
    p = 0.5 * (cdf[:, :-1] + cdf[:, 1:])
    planned = []
    for tails in (abs_sampler._others_at_least, _all_bins):
        raw = (np.diff(cdf, axis=1) * tails(p, m)).sum(axis=1)
        total = raw.sum()
        if total >= s - m:
            vital = raw * (s - m) / total
        else:
            vital = 1.0 - (1.0 - raw) * (m / (s - total))
        planned.append((raw, np.clip(vital, 0.0, 1.0)))
    policy = build_policy(store, VitalSetConfig(percentile_p=percentile)).vital
    assert [policy[i] for i in identities] == planned[0][1].tolist()
    return p, m, planned


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
    settled = ~abs_sampler._undecided_bins(count, s, m)
    above = count > m
    full = _all_bins(p, m)
    # The all-bins path's Horner sums add up to about an ulp per term.
    roundoff = max(1e-15, s * np.finfo(float).eps)
    assert np.max(np.abs(full[:, settled] - above[settled]), initial=0.0) <= roundoff
    pmf = _pmf(p)
    # Beyond m on the far side: P(N >= m) where the mean lies below m, P(N <= m) where above.
    far = np.where(above, pmf[: m + 1].sum(axis=0), pmf[m:].sum(axis=0))
    assert np.all(far[settled] < abs_sampler.DECIDED_TAIL)
