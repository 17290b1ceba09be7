"""Beta belief updates, closed forms, and the snapshot wire format."""
import json

import numpy as np
import pytest

from spanbandit import (
    BeliefStore,
    BetaBelief,
    InvalidBelief,
    NormalizationOutOfRange,
    SpanIdentity,
    UtilityEstimate,
    init_belief,
    load_store,
    posterior_variance,
    save_store,
    store_from_json_dict,
    store_to_json_dict,
    update_epoch,
)
from spanbandit.belief import PARAM_FLOOR, write_json

IDENT = SpanIdentity("svc", "op")
OTHER = SpanIdentity("svc", "other")


def _est(identity, u):
    return UtilityEstimate(identity=identity, sample_count=10, raw=u, normalized=u)


def test_prior_is_uniform():
    b = init_belief()
    assert b.alpha == 1.0 and b.beta == 1.0
    assert b.mean == pytest.approx(0.5)
    assert posterior_variance(b) == pytest.approx(1.0 / 12.0)


def test_posterior_variance_closed_form():
    b = BetaBelief(71.0, 31.0)
    assert posterior_variance(b) == pytest.approx(71 * 31 / (102**2 * 103), rel=1e-14)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        BetaBelief(0.0, 1.0)
    with pytest.raises(ValueError):
        BeliefStore(lam=0.0)
    with pytest.raises(ValueError):
        BeliefStore(lam=1.5)
    with pytest.raises(ValueError):
        BeliefStore(mode="running_sum")


@pytest.mark.parametrize(
    "alpha, beta, field",
    [
        (float("nan"), 1.0, "alpha"),
        (float("inf"), 1.0, "alpha"),
        (-2.0, 1.0, "alpha"),
        (1.0, float("nan"), "beta"),
        (1.0, float("-inf"), "beta"),
        (1.0, 0.0, "beta"),
    ],
)
def test_non_finite_or_non_positive_belief_rejected(alpha, beta, field):
    with pytest.raises(InvalidBelief, match=f"^{field} "):
        BetaBelief(alpha, beta)


def test_store_file_with_nan_belief_rejected():
    obj = {"epoch": 1, "lambda": 0.3, "mode": "verbatim_ewma",
           "beliefs": [{"service": "s", "operation": "o", "alpha": float("nan"), "beta": 1.0}]}
    with pytest.raises(InvalidBelief, match="alpha"):
        store_from_json_dict(obj)


@pytest.mark.parametrize(
    "key, value",
    [("lambda", "0.3"), ("lambda", True), ("alpha", True), ("alpha", "2"), ("beta", None), ("beta", [1.0])],
)
def test_store_file_with_non_number_rejected(key, value):
    obj = {"epoch": 1, "lambda": 0.3, "mode": "verbatim_ewma",
           "beliefs": [{"service": "s", "operation": "o", "alpha": 1.0, "beta": 1.0}]}
    (obj if key == "lambda" else obj["beliefs"][0])[key] = value
    with pytest.raises(InvalidBelief, match=f"^{key} must be a finite number"):
        store_from_json_dict(obj)


def test_store_file_integer_numbers_load_as_floats():
    obj = {"epoch": 1, "lambda": 1, "mode": "verbatim_ewma",
           "beliefs": [{"service": "s", "operation": "o", "alpha": 2, "beta": 3}]}
    store = store_from_json_dict(obj)
    belief = store.beliefs[SpanIdentity("s", "o")]
    assert (store.lam, belief.alpha, belief.beta) == (1.0, 2.0, 3.0)
    assert all(type(v) is float for v in (store.lam, belief.alpha, belief.beta))


@pytest.mark.parametrize("name", ["service", "operation", "url"])
def test_store_file_with_non_string_identity_rejected(name):
    row = {"service": "s", "operation": "o", "url": "", "alpha": 1.0, "beta": 1.0, name: 5}
    obj = {"epoch": 1, "lambda": 0.3, "mode": "verbatim_ewma", "beliefs": [row]}
    with pytest.raises(ValueError, match=name):
        store_from_json_dict(obj)


@pytest.mark.parametrize(
    "change, named",
    [
        pytest.param(lambda obj: [obj], "^a state file must be a JSON object, got list$", id="list"),
        pytest.param(lambda obj: {**obj, "beliefs": 5}, "^beliefs must be a JSON list, got int$",
                     id="beliefs-number"),
        pytest.param(lambda obj: {**obj, "beliefs": {}}, "^beliefs must be a JSON list, got dict$",
                     id="beliefs-object"),
        pytest.param(lambda obj: {**obj, "beliefs": ["x"]},
                     "^a row of beliefs must be a JSON object, got str$", id="belief-string"),
        pytest.param(lambda obj: {**obj, "beliefs": obj["beliefs"] * 2},
                     "^svc/op is listed twice in beliefs$", id="twice"),
    ],
)
def test_store_file_of_the_wrong_shape_rejected(change, named):
    obj = store_to_json_dict(BeliefStore(beliefs={IDENT: BetaBelief(2.0, 3.0)}))
    with pytest.raises(InvalidBelief, match=named):
        store_from_json_dict(change(obj))


def test_verbatim_ewma_closed_form():
    # From alpha_0 = 1 with constant utility u:
    # alpha_k = (1-lam)^k + u * (1 - (1-lam)^k), and symmetrically for beta.
    lam, u, k = 0.3, 0.37, 12
    store = BeliefStore(lam=lam, mode="verbatim_ewma")
    for _ in range(k):
        update_epoch(store, [_est(IDENT, u)])
    decay = (1 - lam) ** k
    b = store.beliefs[IDENT]
    assert abs(b.alpha - (decay + u * (1 - decay))) / b.alpha < 1e-12
    assert abs(b.beta - (decay + (1 - u) * (1 - decay))) / b.beta < 1e-12
    assert b.alpha + b.beta == pytest.approx(2 * decay + (1 - decay), rel=1e-12)


def test_discounted_count_closed_form():
    # alpha_k = (1-lam)^k + u * (1 - (1-lam)^k) / lam; the sum heads to 1/lam.
    lam, u, k = 0.3, 0.37, 12
    store = BeliefStore(lam=lam, mode="discounted_count")
    for _ in range(k):
        update_epoch(store, [_est(IDENT, u)])
    decay = (1 - lam) ** k
    b = store.beliefs[IDENT]
    assert abs(b.alpha - (decay + u * (1 - decay) / lam)) / b.alpha < 1e-12
    assert abs(b.beta - (decay + (1 - u) * (1 - decay) / lam)) / b.beta < 1e-12


def test_discounted_count_concentrates_verbatim_does_not():
    ewma = BeliefStore(lam=0.3, mode="verbatim_ewma")
    counts = BeliefStore(lam=0.3, mode="discounted_count")
    for _ in range(40):
        update_epoch(ewma, [_est(IDENT, 0.9)])
        update_epoch(counts, [_est(IDENT, 0.9)])
    assert posterior_variance(counts.beliefs[IDENT]) < posterior_variance(ewma.beliefs[IDENT])
    decay = (1 - 0.3) ** 40
    assert ewma.beliefs[IDENT].alpha + ewma.beliefs[IDENT].beta == pytest.approx(
        1.0 + decay, rel=1e-9
    )
    assert counts.beliefs[IDENT].alpha + counts.beliefs[IDENT].beta == pytest.approx(
        1.0 / 0.3 + decay * (2.0 - 1.0 / 0.3), rel=1e-9
    )


def test_parameter_floor_under_extreme_utility():
    store = BeliefStore(lam=1.0, mode="verbatim_ewma")
    update_epoch(store, [_est(IDENT, 1.0)])
    b = store.beliefs[IDENT]
    assert b.beta == PARAM_FLOOR
    assert b.alpha == pytest.approx(1.0)


def test_out_of_range_normalization_raises():
    store = BeliefStore()
    with pytest.raises(NormalizationOutOfRange):
        update_epoch(store, [_est(IDENT, 1.0001)])
    with pytest.raises(NormalizationOutOfRange):
        update_epoch(store, [_est(IDENT, -0.2)])


def test_absent_identity_untouched_and_epoch_counts():
    store = BeliefStore(lam=0.5, mode="verbatim_ewma")
    update_epoch(store, [_est(IDENT, 0.8), _est(OTHER, 0.1)])
    frozen = (store.beliefs[OTHER].alpha, store.beliefs[OTHER].beta)
    update_epoch(store, [_est(IDENT, 0.8)])
    assert (store.beliefs[OTHER].alpha, store.beliefs[OTHER].beta) == frozen
    assert store.epoch == 2


def test_snapshot_is_isolated():
    store = BeliefStore()
    update_epoch(store, [_est(IDENT, 0.6)])
    snap = store.snapshot()
    update_epoch(store, [_est(IDENT, 0.6)])
    assert snap.epoch == 1
    assert snap.beliefs[IDENT].alpha != store.beliefs[IDENT].alpha


def test_store_json_round_trip(tmp_path):
    store = BeliefStore(lam=0.25, mode="discounted_count")
    rng = np.random.default_rng(9)
    idents = [SpanIdentity(f"s{i}", "op", "/u" if i % 2 else "") for i in range(6)]
    for _ in range(5):
        update_epoch(store, [_est(i, float(rng.uniform())) for i in idents])
    path = tmp_path / "state.json"
    save_store(store, str(path))
    back = load_store(str(path))
    assert back.epoch == store.epoch
    assert back.lam == store.lam
    assert back.mode == store.mode
    assert set(back.beliefs) == set(store.beliefs)
    for ident in idents:
        assert back.beliefs[ident].alpha == store.beliefs[ident].alpha
        assert back.beliefs[ident].beta == store.beliefs[ident].beta
    assert store_to_json_dict(back) == store_to_json_dict(store)


def test_store_json_dict_sorted_and_url_optional():
    store = BeliefStore()
    update_epoch(store, [_est(SpanIdentity("zeta", "op"), 0.5), _est(SpanIdentity("alpha", "op"), 0.5)])
    obj = store_to_json_dict(store)
    assert [row["service"] for row in obj["beliefs"]] == ["alpha", "zeta"]
    del obj["beliefs"][0]["url"]
    back = store_from_json_dict(obj)
    assert SpanIdentity("alpha", "op") in back.beliefs


def test_write_json_keeps_old_file_when_dump_fails(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"b": 1, "a": [1, 2]}, str(path))
    before = path.read_text()
    assert before == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    with pytest.raises(TypeError):
        write_json({"a": 1, "z": object()}, str(path))
    assert path.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


def test_save_store_is_atomic(tmp_path, monkeypatch):
    store = BeliefStore()
    update_epoch(store, [_est(IDENT, 0.6)])
    path = tmp_path / "state.json"
    save_store(store, str(path))
    before = path.read_bytes()

    def dump_then_fail(obj, f, **kwargs):
        f.write('{"epoch": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    update_epoch(store, [_est(IDENT, 0.1)])
    with pytest.raises(OSError, match="disk full"):
        save_store(store, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]
