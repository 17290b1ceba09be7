"""Experiment harness: multi-seed runs, sweeps, CSV output, benchmark."""
import dataclasses
import json

import pytest

from spanbandit import (
    RunConfig,
    bench_inference,
    run_experiment,
    run_one,
    sweep,
    write_epoch_rows,
    write_sweep_csv,
)
from spanbandit.experiment import synthetic_store
from spanbandit.version import VERSION

FAST = RunConfig(
    preset="media",
    seeds=(0, 1),
    num_epochs=4,
    batch_size=30,
)


def test_run_config_json_round_trip():
    cfg = RunConfig(preset="rail", seeds=(3, 5), epsilon=0.02, mode="discounted_count")
    obj = cfg.to_json_dict()
    assert obj["version"] == VERSION
    assert obj["seeds"] == [3, 5]
    back = RunConfig.from_json_dict(json.loads(json.dumps(obj)))
    assert back == cfg


def test_run_config_from_json_dict_refuses_fractional_seeds():
    # int() would load [1.7, 2.2] as seeds 1 and 2.
    with pytest.raises(ValueError, match="seeds must be an integer, got 1.7"):
        RunConfig.from_json_dict({"preset": "social", "seeds": [1.7, 2.2]})
    assert RunConfig.from_json_dict({"seeds": [1.0, 2]}).seeds == (1, 2)


def test_run_config_ignores_unknown_keys():
    # "mc_rows" is a field of configs written before the planner was exact.
    back = RunConfig.from_json_dict(
        {"preset": "social", "seeds": [1], "futureKnob": 7, "mc_rows": 20_000}
    )
    assert back.preset == "social"
    assert back.seeds == (1,)


@pytest.mark.parametrize("field, value", [("seeds", ()), ("num_epochs", 0), ("num_epochs", -3)])
def test_run_config_rejects_empty_runs(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})


def _never(*args, **kwargs):
    raise AssertionError("a run started before its config was checked")


def test_run_config_rejects_a_repeated_seed():
    with pytest.raises(ValueError, match="seed 3 "):
        RunConfig(seeds=(1, 3, 2, 3))


@pytest.mark.parametrize(
    "knobs",
    [{"percentile": 500.0}, {"epsilon": 1.5}, {"lam": 7.0}, {"mode": "nosuch"},
     {"measure": "nosuch"}, {"request_sampling_rate": 1.5}],
)
def test_controller_knobs_are_checked_when_the_config_is_built(knobs):
    with pytest.raises((ValueError, KeyError)):
        RunConfig(**knobs)


@pytest.mark.parametrize("param, values", [("epsilon", [0.1, 1.5]), ("percentile", [50.0, 0.0])])
def test_sweep_checks_every_value_before_the_first_run(monkeypatch, param, values):
    monkeypatch.setattr("spanbandit.experiment.run_experiment", _never)
    monkeypatch.setattr("spanbandit.experiment.run_one", _never)
    with pytest.raises(ValueError, match=param):
        sweep(FAST, param, values)


def test_bench_inference_needs_a_rep():
    with pytest.raises(ValueError, match="reps"):
        bench_inference(num_identities=8, reps=0)


def test_run_one_deterministic_in_seed():
    r1 = run_one(FAST, 0)
    r2 = run_one(FAST, 0)
    assert [row.samples_seen for row in r1.rows] == [row.samples_seen for row in r2.rows]
    assert r1.policy.entries == r2.policy.entries
    r3 = run_one(FAST, 1)
    assert r1.policy.entries != r3.policy.entries


def test_experiment_result_reach_and_summary():
    result = run_experiment(dataclasses.replace(FAST, num_epochs=8))
    assert set(result.results) == {0, 1}
    for seed in result.results:
        reach = result.traces_to_reach(seed, 0.9)
        assert reach is not None and reach % FAST.batch_size == 0
        req = result.requests_to_reach(seed, 0.9)
        assert req is not None and req >= reach
    assert result.converged_fraction(0.9) == 1.0
    assert result.converged_fraction(0.9, within_traces=30) in (0.0, 0.5, 1.0)
    summary = result.summary_dict(0.9, within_traces=500)
    assert summary["seeds"] == 2
    assert 0.0 < summary["meanCumulativeFractionEnabled"] <= 1.0
    assert summary["meanFinalFaultyProbability"] > 0.9
    # An impossible threshold is reported as never reached.
    assert result.traces_to_reach(0, threshold=2.0) is None


def test_write_epoch_rows_csv(tmp_path):
    result = run_experiment(FAST)
    path = tmp_path / "rows.csv"
    write_epoch_rows(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    cfg = json.loads(lines[0].removeprefix("# config: "))
    assert cfg["preset"] == "media"
    assert lines[1].split(",")[:4] == ["seed", "epoch", "samples_seen", "requests_seen"]
    assert len(lines) == 2 + len(FAST.seeds) * FAST.num_epochs


def test_sweep_rejects_unknown_param():
    with pytest.raises(ValueError):
        sweep(FAST, "batch_size", [10, 20])


def test_sweep_and_csv(tmp_path):
    points = sweep(FAST, "percentile", [60.0, 90.0])
    assert [p.value for p in points] == [60.0, 90.0]
    assert all(p.param == "percentile" for p in points)
    # A higher percentile plans a smaller vital set, so less instrumentation.
    assert points[1].mean_cumulative_fraction_enabled < points[0].mean_cumulative_fraction_enabled
    path = tmp_path / "sweep.csv"
    write_sweep_csv(points, FAST, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1].split(",")[0] == "param"
    assert len(lines) == 4


def test_synthetic_store_shape_and_determinism():
    a = synthetic_store(100, seed=0)
    b = synthetic_store(100, seed=0)
    assert len(a.beliefs) == 100
    assert {i.label() for i in a.beliefs} == {i.label() for i in b.beliefs}
    for ident in a.beliefs:
        assert a.beliefs[ident].alpha == b.beliefs[ident].alpha
        assert 1.0 <= a.beliefs[ident].alpha <= 10.0


def test_bench_inference_smoke():
    res = bench_inference(num_identities=40, reps=3)
    assert res.num_identities == 40
    assert len(res.times_ms) == 3
    assert res.median_ms > 0.0
    obj = res.to_json_dict()
    assert obj["numIdentities"] == 40
    assert obj["medianMs"] == round(res.median_ms, 3)
