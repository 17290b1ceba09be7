"""Elimination baselines and the shared-budget comparison."""
import math

import numpy as np
import pytest

from spanbandit import (
    ArmEnvironment,
    BudgetExhausted,
    ComparisonConfig,
    SampleBudget,
    abs_run,
    compare_elimination,
    ege_round_quota,
    make_arm_env,
    me_round_quota,
    me_run,
    median_elimination,
)


def test_me_round_quota_first_round():
    # epsilon=0.4, delta=0.2 -> eps_l=0.1, delta_l=0.1:
    # ceil(4 / 0.05^2 * ln(30)) = ceil(1600 * ln 30) = 5442 draws per arm.
    assert me_round_quota(0.1, 0.1) == 5442
    assert me_round_quota(0.1, 0.1) == math.ceil(1600 * math.log(30))


def test_ege_round_quota_monotone_in_round():
    quotas = [
        ege_round_quota(2.0 ** (-r) / 4.0, 0.2 / (50.0 * r**3)) for r in range(1, 5)
    ]
    assert quotas == sorted(quotas)
    assert quotas[0] > 100


def test_budget_charging():
    b = SampleBudget(100)
    b.charge(60)
    assert b.remaining == 40
    with pytest.raises(BudgetExhausted):
        b.charge(41)
    assert b.remaining == 0
    with pytest.raises(ValueError):
        SampleBudget(0)


def test_arm_environment_validation_and_top_arms():
    with pytest.raises(ValueError):
        ArmEnvironment(())
    with pytest.raises(ValueError):
        ArmEnvironment((0.5, 1.2))
    env = ArmEnvironment((0.1, 0.9, 0.5, 0.9))
    assert env.top_arms(2) == (1, 3)
    rng = np.random.default_rng(0)
    draws = env.draw(1, 5000, rng)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert abs(draws.mean() - 0.9) < 0.02


def test_make_arm_env_deterministic_and_skewed():
    a = make_arm_env(50, "skewed", seed=3)
    b = make_arm_env(50, "skewed", seed=3)
    assert a == b
    assert a.num_arms == 50
    means = np.array(a.means)
    assert (means >= 0.75).sum() == 5
    assert ((means >= 0.50) & (means <= 0.62)).sum() == 15
    with pytest.raises(ValueError):
        make_arm_env(10, "bimodal")


def test_unscaled_median_elimination_cannot_move_within_budget():
    env = make_arm_env(50, "skewed", seed=0)
    outcome = me_run(env, SampleBudget(2000), seed=0)
    assert outcome.name == "median_elimination"
    assert len(outcome.survivors) == 50
    assert outcome.samples_used == 2000


def test_median_elimination_finds_best_arm_given_room():
    env = ArmEnvironment((0.1, 0.15, 0.9, 0.2))
    rng = np.random.default_rng(12)
    best = median_elimination(
        env, range(4), epsilon=0.4, delta=0.2, rng=rng,
        budget=SampleBudget(10_000_000), quota_cap=2000,
    )
    assert best == 2


def test_abs_run_eliminates_most_arms():
    env = make_arm_env(50, "skewed", seed=0)
    outcome = abs_run(env, SampleBudget(2000), seed=0)
    assert outcome.name == "belief_sampler"
    assert outcome.eliminated_fraction(50) >= 0.8
    assert outcome.samples_used <= 2000
    counts = [n for _, n in outcome.trail]
    assert counts == sorted(counts, reverse=True)


def test_comparison_frozen_seed_zero():
    result = compare_elimination(ComparisonConfig(seed=0))
    counts = result.survivor_counts()
    assert counts == {
        "median_elimination": 50,
        "exponential_gap": 13,
        "belief_sampler": 4,
    }
    recall = result.top_arm_recall(5)
    assert recall["belief_sampler"] >= 0.8
    obj = result.to_json_dict()
    assert obj["config"]["budget"] == 2000
    assert len(obj["armMeans"]) == 50
    assert set(obj["outcomes"]) == {"median_elimination", "exponential_gap", "belief_sampler"}


def test_comparison_ordering_across_seeds():
    for seed in (1, 2, 3, 4):
        counts = compare_elimination(ComparisonConfig(seed=seed)).survivor_counts()
        assert counts["belief_sampler"] < counts["exponential_gap"]
        assert counts["exponential_gap"] < counts["median_elimination"]
        assert counts["median_elimination"] == 50
