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
"""
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
