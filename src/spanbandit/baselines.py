"""Elimination baselines on synthetic arms, under a shared sample budget.

Median elimination and exponential-gap elimination are fixed-confidence
best-arm algorithms: their per-round quotas come from concentration
bounds and are enormous compared to what a tracing backend can afford.
Run against a finite budget they usually die mid-round; a round that
cannot complete its quota is aborted without eliminating anyone, since
acting on a partial round would void the bound that justified it.

Scaled variants cap the per-arm quota per round. That buys progress
inside the budget at the price of the original guarantee, which is the
honest way to put these algorithms on the same axis as the belief
sampler: same arms, same budget, survivor counts compared directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .belief import BeliefStore, update_epoch
from .simulator import ControllerConfig
from .trace_model import SpanIdentity
from .utility import score_pools


# Fixed settings of the contenders: the (epsilon, delta) confidence pair of
# both elimination baselines, and the belief sampler's per-epoch draws per
# live arm and controller; its exploration floor is the planner's default.
EPSILON = 0.4
DELTA = 0.2
EGE_MAX_ROUNDS = 30
ABS_DRAWS_PER_ARM = 4
ABS_CONTROLLER = ControllerConfig(measure="mean", lam=0.1, mode="discounted_count", percentile=90.0)
ABS_MAX_EPOCHS = 40
# The synthetic arm layouts make_arm_env builds.
ENV_KINDS = ("skewed", "uniform")


@dataclass(frozen=True)
class ComparisonConfig:
    num_arms: int = 50
    budget: int = 2000
    env_kind: str = "skewed"
    seed: int = 0
    ege_quota_cap: int = 24
    ege_me_cap: int = 6
    abs_percentile: float = ABS_CONTROLLER.percentile

    def __post_init__(self) -> None:
        # A zero cap samples nothing and ranks arms on NaN means; the skewed
        # layout needs one high arm and one decoy.
        least = {"num_arms": 2 if self.env_kind == "skewed" else 1,
                 "budget": 1, "ege_quota_cap": 1, "ege_me_cap": 1}
        for name, floor in least.items():
            value = getattr(self, name)
            if value < floor:
                raise ValueError(
                    f"ComparisonConfig.{name} must be at least {floor}, got {value!r}"
                )
        replace(ABS_CONTROLLER, percentile=self.abs_percentile)  # checked before any contender runs


class BudgetExhausted(RuntimeError):
    """Raised when a draw request does not fit in the remaining budget."""


class SampleBudget:
    def __init__(self, total: int):
        if total < 1:
            raise ValueError("budget must be positive")
        self.total = int(total)
        self.used = 0

    @property
    def remaining(self) -> int:
        return self.total - self.used

    def charge(self, n: int) -> None:
        if n > self.remaining:
            self.used = self.total
            raise BudgetExhausted(f"needed {n} draws with {self.remaining} left")
        self.used += n


@dataclass(frozen=True)
class ArmEnvironment:
    """Bernoulli arms with fixed means in [0, 1]."""

    means: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.means:
            raise ValueError("environment needs at least one arm")
        if any(not 0.0 <= m <= 1.0 for m in self.means):
            raise ValueError("arm means must lie in [0, 1]")

    @property
    def num_arms(self) -> int:
        return len(self.means)

    def draw(self, arm: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(n) < self.means[arm]).astype(np.float64)

    def top_arms(self, k: int) -> tuple[int, ...]:
        order = sorted(range(self.num_arms), key=lambda a: (-self.means[a], a))
        return tuple(sorted(order[:k]))


def make_arm_env(num_arms: int, kind: str, seed: int = 0) -> ArmEnvironment:
    """Synthetic arm sets.

    "skewed": a few clearly high arms, a band of decoys below them, and a
    mass of low arms; mirrors a system where a handful of operations carry
    most of the signal. "uniform": means spread evenly, no structure.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 4201))))
    if kind == "skewed":
        n_high = max(1, round(num_arms * 0.1))
        n_decoy = max(1, round(num_arms * 0.3))
        n_low = num_arms - n_high - n_decoy
        means = np.concatenate(
            [
                rng.uniform(0.75, 0.90, n_high),
                rng.uniform(0.50, 0.62, n_decoy),
                rng.uniform(0.08, 0.45, n_low),
            ]
        )
        rng.shuffle(means)
    elif kind == "uniform":
        means = rng.uniform(0.2, 0.8, num_arms)
    else:
        raise ValueError(f"unknown environment kind {kind!r}; one of {ENV_KINDS}")
    return ArmEnvironment(tuple(float(m) for m in means))


def me_round_quota(eps_l: float, delta_l: float) -> int:
    """Per-arm draws a median-elimination round needs at (eps_l, delta_l)."""
    return math.ceil((4.0 / (eps_l / 2.0) ** 2) * math.log(3.0 / delta_l))


def ege_round_quota(eps_r: float, delta_r: float) -> int:
    """Per-arm draws an exponential-gap round needs at (eps_r, delta_r)."""
    return math.ceil((2.0 / eps_r**2) * math.log(2.0 / delta_r))


@dataclass(frozen=True)
class EliminationOutcome:
    name: str
    survivors: tuple[int, ...]
    samples_used: int
    trail: tuple[tuple[int, int], ...]  # (samples_used, survivor count) per event

    def eliminated_fraction(self, num_arms: int) -> float:
        return 1.0 - len(self.survivors) / num_arms


def _sample_draws(
    env: ArmEnvironment,
    arms: Sequence[int],
    n: int,
    rng: np.random.Generator,
    budget: SampleBudget,
) -> dict[int, np.ndarray]:
    """Pay for and draw n samples of each arm in turn."""
    draws = {}
    for a in arms:
        budget.charge(n)
        draws[a] = env.draw(a, n, rng)
    return draws


def _me_rounds(
    env: ArmEnvironment,
    arms: Sequence[int],
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    budget: SampleBudget,
    quota_cap: int | None,
) -> Iterator[list[int]]:
    """Median-elimination halvings; yields the surviving arms after each."""
    current = sorted(arms)
    eps_l = epsilon / 4.0
    delta_l = delta / 2.0
    while len(current) > 1:
        quota = me_round_quota(eps_l, delta_l)
        if quota_cap is not None:
            quota = min(quota, quota_cap)
        means = {a: float(x.mean()) for a, x in _sample_draws(env, current, quota, rng, budget).items()}
        ranked = sorted(current, key=lambda a: (-means[a], a))
        current = sorted(ranked[: (len(current) + 1) // 2])
        yield current
        eps_l *= 0.75
        delta_l *= 0.5


def median_elimination(
    env: ArmEnvironment,
    arms: Sequence[int],
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    budget: SampleBudget,
    quota_cap: int | None = None,
) -> int:
    """Halve the arm set on empirical means until one arm remains.

    Raises BudgetExhausted if any round cannot be paid for; the caller
    decides what an aborted search means for its own state.
    """
    current = sorted(arms)
    for current in _me_rounds(env, current, epsilon, delta, rng, budget, quota_cap):
        pass
    return current[0]


def me_run(env: ArmEnvironment, budget: SampleBudget, seed: int = 0) -> EliminationOutcome:
    """Unscaled median elimination as a top-level contender; survivors at abort."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 4301))))
    arms = list(range(env.num_arms))
    trail = [(0, len(arms))]
    try:
        for arms in _me_rounds(env, arms, EPSILON, DELTA, rng, budget, None):
            trail.append((budget.used, len(arms)))
    except BudgetExhausted:
        trail.append((budget.used, len(arms)))
    return EliminationOutcome("median_elimination", tuple(arms), budget.used, tuple(trail))


def ege_run(
    env: ArmEnvironment,
    budget: SampleBudget,
    seed: int = 0,
    quota_cap: int | None = None,
    me_quota_cap: int | None = None,
) -> EliminationOutcome:
    """Exponential-gap elimination; survivors at abort.

    Each round samples every live arm, finds a reference arm with a
    nested (possibly capped) median-elimination search, and drops arms
    whose round mean sits more than eps_r below the reference's.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 4302))))
    arms = list(range(env.num_arms))
    trail = [(0, len(arms))]
    r = 1
    try:
        while len(arms) > 1 and r <= EGE_MAX_ROUNDS:
            eps_r = 2.0 ** (-r) / 4.0
            delta_r = DELTA / (50.0 * r**3)
            quota = ege_round_quota(eps_r, delta_r)
            if quota_cap is not None:
                quota = min(quota, quota_cap)
            means = {a: float(x.mean()) for a, x in _sample_draws(env, arms, quota, rng, budget).items()}
            ref = median_elimination(
                env, arms, eps_r / 2.0, delta_r, rng, budget, quota_cap=me_quota_cap
            )
            arms = [a for a in arms if means[a] >= means[ref] - eps_r]
            trail.append((budget.used, len(arms)))
            r += 1
    except BudgetExhausted:
        trail.append((budget.used, len(arms)))
    return EliminationOutcome("exponential_gap", tuple(arms), budget.used, tuple(trail))


def abs_run(
    env: ArmEnvironment,
    budget: SampleBudget,
    seed: int = 0,
    percentile: float = ABS_CONTROLLER.percentile,
) -> EliminationOutcome:
    """The belief sampler driving elimination on the same arm interface.

    Arms become span identities; each epoch's draws are scored as a batch
    of spans is (under `ABS_CONTROLLER`'s measure, their means over the
    batch max) and feed the usual belief update, and an arm is retired
    once its vital-set probability falls below epsilon. Eliminated arms stop
    costing budget, which is the mechanism the fixed-quota baselines
    lack. The counting mode is used here because elimination wants
    beliefs that concentrate with evidence. A retired arm's belief is
    deleted, so the store only ever holds the arms still planned over.
    """
    controller = replace(ABS_CONTROLLER, percentile=percentile)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 4303))))
    identities = [SpanIdentity(f"arm-{i:03d}", "reward") for i in range(env.num_arms)]
    store = BeliefStore(lam=controller.lam, mode=controller.mode)
    survivors = list(range(env.num_arms))
    trail = [(0, len(survivors))]
    for _ in range(ABS_MAX_EPOCHS):
        if len(survivors) <= 1 or budget.remaining < ABS_DRAWS_PER_ARM * len(survivors):
            break
        draws = _sample_draws(env, survivors, ABS_DRAWS_PER_ARM, rng, budget)
        update_epoch(store, score_pools({identities[a]: x for a, x in draws.items()}, controller.measure))
        policy = controller.plan(store)
        for a in survivors:
            if policy.eliminated(identities[a]):
                del store.beliefs[identities[a]]
        survivors = [a for a in survivors if identities[a] in store.beliefs]
        trail.append((budget.used, len(survivors)))
    return EliminationOutcome("belief_sampler", tuple(survivors), budget.used, tuple(trail))


@dataclass
class ComparisonResult:
    config: ComparisonConfig
    env: ArmEnvironment
    outcomes: dict[str, EliminationOutcome] = field(default_factory=dict)

    def survivor_counts(self) -> dict[str, int]:
        return {name: len(o.survivors) for name, o in self.outcomes.items()}

    def top_arm_recall(self, k: int = 5) -> dict[str, float]:
        top = set(self.env.top_arms(k))
        return {
            name: len(top.intersection(o.survivors)) / k for name, o in self.outcomes.items()
        }

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "numArms": self.config.num_arms,
                "budget": self.config.budget,
                "envKind": self.config.env_kind,
                "seed": self.config.seed,
                "epsilon": EPSILON,
                "delta": DELTA,
                "egeQuotaCap": self.config.ege_quota_cap,
                "egeMeCap": self.config.ege_me_cap,
            },
            "armMeans": list(self.env.means),
            "outcomes": {
                name: {
                    "survivors": list(o.survivors),
                    "samplesUsed": o.samples_used,
                    "eliminatedFraction": o.eliminated_fraction(self.env.num_arms),
                    "trail": [list(point) for point in o.trail],
                }
                for name, o in sorted(self.outcomes.items())
            },
            "topArmRecall": self.top_arm_recall(),
        }


def compare_elimination(config: ComparisonConfig = ComparisonConfig()) -> ComparisonResult:
    """Run all three contenders on one environment, one budget each."""
    env = make_arm_env(config.num_arms, config.env_kind, config.seed)
    result = ComparisonResult(config=config, env=env)
    result.outcomes["median_elimination"] = me_run(env, SampleBudget(config.budget), config.seed)
    result.outcomes["exponential_gap"] = ege_run(
        env,
        SampleBudget(config.budget),
        seed=config.seed,
        quota_cap=config.ege_quota_cap,
        me_quota_cap=config.ege_me_cap,
    )
    result.outcomes["belief_sampler"] = abs_run(
        env,
        SampleBudget(config.budget),
        seed=config.seed,
        percentile=config.abs_percentile,
    )
    return result
