"""Monte-Carlo vital-set sampler: beliefs in, sampling policy out.

Each Monte-Carlo row draws one utility per identity from its Beta
belief, takes the row's P-th percentile (linear interpolation across the
row's values), and marks every identity at or above that threshold as a
vital candidate. An identity's vital probability is the fraction of rows
in which it was a candidate, i.e. a probability-matching estimate of
"this span belongs to the top (100-P)% of utilities". The published
sampling probability is max(vital, epsilon): the epsilon floor keeps a
trickle of observations flowing so a span whose behavior changes later
can still be noticed.

The inclusive >= candidate rule guarantees at least one candidate per
row (the row maximum always qualifies), so vital probabilities sum to at
least 1 and a single-identity store gets probability 1.0 exactly.

Drawing is done in a fixed layout of 8 row chunks, each with its own
seed spawned from the configured seed. The layout defines the random
stream, so it stays fixed even though the chunks are filled in order.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .belief import BeliefStore, posterior_variance, write_json
from .trace_model import SpanIdentity

_DRAW_CHUNKS = 8


class EmptyStore(ValueError):
    pass


class InvalidPolicy(ValueError):
    """A policy or planner value outside its range; the message names the field."""


@dataclass(frozen=True)
class VitalSetConfig:
    """Knobs for the Monte-Carlo policy construction.

    mc_rows defaults to 100k which is comfortably below one second for
    tens of identities; the experiment harness trims it further. Raising
    percentile_p shrinks the candidate set per row (more aggressive
    instrumentation reduction); epsilon floors every probability.
    """

    percentile_p: float = 75.0
    epsilon: float = 0.05
    mc_rows: int = 100_000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile_p <= 100.0:
            raise InvalidPolicy(f"percentile_p must lie in (0, 100], got {self.percentile_p!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise InvalidPolicy(f"epsilon must lie in [0, 1), got {self.epsilon!r}")
        if self.mc_rows < 1:
            raise ValueError("mc_rows must be positive")


class DrawMatrix(NamedTuple):
    identities: tuple[SpanIdentity, ...]
    values: np.ndarray  # shape (mc_rows, len(identities))


def draw_matrix(store: BeliefStore, cfg: VitalSetConfig) -> DrawMatrix:
    """Sample an (mc_rows x S) matrix of utilities from the current beliefs.

    Identities are ordered lexicographically; rows are split into 8 fixed
    chunks seeded independently from cfg.rng_seed, so the same
    (beliefs, config, seed) triple always yields the same matrix.
    """
    if not store.beliefs:
        raise EmptyStore("no identities to draw for")
    identities = tuple(sorted(store.beliefs))
    alphas = np.array([store.beliefs[i].alpha for i in identities])
    betas = np.array([store.beliefs[i].beta for i in identities])

    n_chunks = min(_DRAW_CHUNKS, cfg.mc_rows)
    bounds = np.linspace(0, cfg.mc_rows, n_chunks + 1).astype(int)
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(n_chunks)

    parts = []
    for seed, lo, hi in zip(seeds, bounds[:-1], bounds[1:]):
        rng = np.random.Generator(np.random.PCG64(seed))
        parts.append(rng.beta(alphas, betas, size=(hi - lo, len(identities))))
    return DrawMatrix(identities, np.vstack(parts))


def vital_probabilities(matrix: DrawMatrix, percentile_p: float) -> dict[SpanIdentity, float]:
    """Per-identity fraction of rows where its draw met the row's percentile.

    The threshold uses the linear-interpolation percentile of the row's
    own S values and candidacy is inclusive (value >= threshold). With a
    single identity the threshold is the value itself, so the vital
    probability is 1.0.
    """
    values = matrix.values
    n_rows, s = values.shape
    h = (s - 1) * percentile_p / 100.0
    k = int(np.floor(h))
    if k >= s - 1:
        thresh = values.max(axis=1)
    else:
        part = np.partition(values, (k, k + 1), axis=1)
        thresh = part[:, k] + (h - k) * (part[:, k + 1] - part[:, k])
    fractions = (values >= thresh[:, None]).mean(axis=0)
    return {identity: float(fractions[j]) for j, identity in enumerate(matrix.identities)}


@dataclass
class SamplingPolicy:
    """Published per-identity sampling probabilities for one epoch."""

    epoch: int
    epsilon: float
    percentile: float
    entries: dict[SpanIdentity, float] = field(default_factory=dict)
    vital: dict[SpanIdentity, float] = field(default_factory=dict)

    def probability(self, identity: SpanIdentity, default: float = 1.0) -> float:
        """Identities the policy has never scored sample at `default` (1.0):
        unknown spans stay fully visible until judged."""
        return self.entries.get(identity, default)

    def eliminated(self, identity: SpanIdentity) -> bool:
        return self.vital.get(identity, 1.0) < self.epsilon


def finalize_policy(
    vital: dict[SpanIdentity, float], cfg: VitalSetConfig, epoch: int
) -> SamplingPolicy:
    return SamplingPolicy(
        epoch=epoch,
        epsilon=cfg.epsilon,
        percentile=cfg.percentile_p,
        entries={i: max(v, cfg.epsilon) for i, v in sorted(vital.items())},
        vital=dict(sorted(vital.items())),
    )


def build_policy(store: BeliefStore, cfg: VitalSetConfig) -> SamplingPolicy:
    """draw_matrix + vital_probabilities + finalize_policy in one call."""
    matrix = draw_matrix(store, cfg)
    vital = vital_probabilities(matrix, cfg.percentile_p)
    return finalize_policy(vital, cfg, store.epoch)


# --- policy wire format -------------------------------------------------
#
# {"epoch": int, "epsilon": float, "percentile": float,
#  "entries": [{"service", "operation", "url",
#               "probability", "vitalProbability"}, ...]}


def policy_to_json_dict(policy: SamplingPolicy) -> dict:
    return {
        "epoch": policy.epoch,
        "epsilon": policy.epsilon,
        "percentile": policy.percentile,
        "entries": [
            {
                "service": identity.service,
                "operation": identity.operation,
                "url": identity.url,
                "probability": policy.entries[identity],
                "vitalProbability": policy.vital.get(identity, policy.entries[identity]),
            }
            for identity in sorted(policy.entries)
        ],
    }


def _checked(obj: dict, key: str, in_range, interval: str) -> float:
    value = float(obj[key])
    if not in_range(value):  # NaN fails every comparison
        raise InvalidPolicy(f"{key} must be finite and in {interval}, got {value!r}")
    return value


def _unit(v: float) -> bool:
    return 0.0 <= v <= 1.0


def policy_from_json_dict(obj: dict) -> SamplingPolicy:
    policy = SamplingPolicy(
        epoch=int(obj["epoch"]),
        epsilon=_checked(obj, "epsilon", lambda v: 0.0 <= v < 1.0, "[0, 1)"),
        percentile=_checked(obj, "percentile", lambda v: 0.0 < v <= 100.0, "(0, 100]"),
    )
    for row in obj["entries"]:
        identity = SpanIdentity(row["service"], row["operation"], row.get("url", ""))
        policy.entries[identity] = _checked(row, "probability", _unit, "[0, 1]")
        policy.vital[identity] = _checked(row, "vitalProbability", _unit, "[0, 1]")
    return policy


def save_policy(policy: SamplingPolicy, path: str) -> None:
    write_json(policy_to_json_dict(policy), path)


def load_policy(path: str) -> SamplingPolicy:
    with open(path) as f:
        return policy_from_json_dict(json.load(f))


# --- report ------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    rank: int
    identity: SpanIdentity
    vital_probability: float
    probability: float
    posterior_mean: float
    posterior_variance: float
    eliminated: bool


@dataclass
class VitalityReport:
    rows: list[ReportRow]
    ambiguous: bool

    def top(self, k: int) -> list[ReportRow]:
        return self.rows[:k]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(
            ["rank", "service", "operation", "url", "vital_probability",
             "probability", "posterior_mean", "posterior_variance", "eliminated"]
        )
        for r in self.rows:
            w.writerow(
                [r.rank, r.identity.service, r.identity.operation, r.identity.url,
                 repr(r.vital_probability), repr(r.probability), repr(r.posterior_mean),
                 repr(r.posterior_variance), str(r.eliminated).lower()]
            )
        return buf.getvalue()

    def format_table(self, k: int | None = None) -> str:
        rows = self.rows if k is None else self.rows[:k]
        lines = []
        if self.ambiguous:
            lines.append("(all beliefs identical; ranking falls back to identity order)")
        lines.append(f"{'rank':>4}  {'span':<44} {'vital':>7} {'prob':>7} {'mean':>7}  flag")
        for r in rows:
            flag = "eliminated" if r.eliminated else ""
            lines.append(
                f"{r.rank:>4}  {r.identity.label():<44} {r.vital_probability:>7.4f} "
                f"{r.probability:>7.4f} {r.posterior_mean:>7.4f}  {flag}"
            )
        return "\n".join(lines)


def report(policy: SamplingPolicy, store: BeliefStore, top_k: int | None = None) -> VitalityReport:
    """Rank identities by vital probability (desc), posterior mean, identity.

    When every identity holds the identical belief the Monte-Carlo
    fractions differ only by sampling noise, so the ranking would be
    arbitrary: the report then falls back to identity order and is
    flagged ambiguous. Elimination (vital < epsilon) is advisory: flagged
    identities stay in the policy at the epsilon floor, never removed.
    """
    params = {
        identity: (store.beliefs[identity].alpha, store.beliefs[identity].beta)
        for identity in policy.entries
        if identity in store.beliefs
    }
    ambiguous = len(set(params.values())) <= 1 and len(policy.entries) > 1

    def sort_key(identity: SpanIdentity):
        if ambiguous:
            return identity
        b = store.beliefs.get(identity)
        mean = b.mean if b else 0.0
        return (-policy.vital.get(identity, 0.0), -mean, identity)

    ordered = sorted(policy.entries, key=sort_key)
    rows = []
    for rank, identity in enumerate(ordered, start=1):
        b = store.beliefs.get(identity)
        rows.append(
            ReportRow(
                rank=rank,
                identity=identity,
                vital_probability=policy.vital.get(identity, 0.0),
                probability=policy.entries[identity],
                posterior_mean=b.mean if b else 0.5,
                posterior_variance=posterior_variance(b) if b else 1.0 / 12.0,
                eliminated=policy.eliminated(identity),
            )
        )
    if top_k is not None:
        rows = rows[:top_k]
    return VitalityReport(rows=rows, ambiguous=ambiguous)
