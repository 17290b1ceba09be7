"""Vital-set planner: beliefs in, sampling policy out.

An identity's vital probability is the probability that its utility,
drawn from its Beta belief, lies at or above the P-th percentile
(linear interpolation) of all S identities' draws: a probability-matching
estimate of "this span belongs to the top (100-P)% of utilities". The
published sampling probability is max(vital, epsilon): the epsilon floor
keeps a trickle of observations flowing so a span whose behavior changes
later can still be noticed.

With h = (S-1)P/100 and k = floor(h), the percentile of S distinct draws
lies strictly between the (k+1)-th and (k+2)-th smallest when h > k, and
on the (k+1)-th smallest when h = k. So identity j is vital exactly when
at least m others fall below it, m = k+1 or k, and every draw has S-m
vital identities. The planner computes

    vital_j = integral of P(#{i != j : X_i < v} >= m) dF_j(v)

by quadrature: F_j is the regularized incomplete beta, the count is
Poisson-binomial with success probabilities F_i(v), and each identity is
divided back out of the all-identity count (Hong 2013, CSDA 59). The
result is a pure function of the beliefs, P and epsilon: no random
draws, no seed.

Most bins need no count pmf. With N the count of all S identities below
a bin and mu its mean, the Chernoff-Hoeffding bound (Hoeffding 1963,
JASA 58, Theorem 1) gives P(N >= m) <= exp(-S KL(m/S || mu/S)) when
mu < m, and the same bound on P(N <= m) when mu > m. As
P(N >= m+1) <= P(N_-j >= m) <= P(N >= m) for every identity j, a bin
whose bound is below DECIDED_TAIL (1e-17) is settled: every tail there
is 0 (mu < m) or 1 (mu > m) to within 1e-17. The pmf and the divisions
run only on the bins left: 14-16 of 88 for 564 beliefs with alpha and
beta uniform in [1, 10].

The grid is GRID_BINS uniform bins over [0, 1], with TAIL_NODES more
nodes inside each end bin at 1/GRID_BINS raised to the powers
TAIL_POWER, TAIL_POWER**2, ... (mirrored near 1). The tail nodes matter:
a belief with alpha or beta well below 1, which the verbatim EWMA update
produces for every span it rarely scores, holds most of its mass in an
end bin, spread over many orders of magnitude of v, and ranking such
spans against each other needs nodes at those magnitudes.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .belief import (
    BeliefStore,
    identity_rows,
    json_integer,
    json_number,
    json_object,
    posterior_variance,
    write_json,
)
from .trace_model import SpanIdentity, identity_to_json

GRID_BINS = 64
TAIL_NODES = 12
TAIL_POWER = 1.4
# A belief with alpha + beta above this has a standard deviation below
# 5e-4, a thirtieth of a uniform bin; larger sums are scaled down to it
# (mean kept), which bounds the continued fraction's steps.
MAX_CONCENTRATION = 1e6
# A grid bin whose count below is this unlikely to fall on the other side
# of m is settled without building its pmf (see _undecided_bins).
DECIDED_TAIL = 1e-17
_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAX_STEPS = 10_000
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _grid() -> tuple[np.ndarray, np.ndarray]:
    """The interior grid nodes x, ascending, and 1 - x, each exact where it is tiny."""
    tail = (1.0 / GRID_BINS) ** (TAIL_POWER ** np.arange(TAIL_NODES, 0, -1))
    half = np.concatenate([tail, np.arange(1, GRID_BINS // 2 + 1) / GRID_BINS])
    return (
        np.concatenate([half, 1.0 - half[-2::-1]]),
        np.concatenate([1.0 - half, half[-2::-1]]),
    )


_GRID = _grid()


class EmptyStore(ValueError):
    pass


class InvalidPolicy(ValueError):
    """A policy or planner value outside its range; the message names the field."""


@dataclass(frozen=True)
class VitalSetConfig:
    """The vital-set percentile P and the exploration floor epsilon.

    Raising percentile_p shrinks the vital set (more aggressive
    instrumentation reduction); epsilon floors every probability.
    """

    percentile_p: float = 75.0
    epsilon: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile_p <= 100.0:
            raise InvalidPolicy(f"percentile_p must lie in (0, 100], got {self.percentile_p!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise InvalidPolicy(f"epsilon must lie in [0, 1), got {self.epsilon!r}")


@dataclass
class SamplingPolicy:
    """Published per-identity sampling probabilities for one epoch."""

    epoch: int
    epsilon: float
    percentile: float
    entries: dict[SpanIdentity, float] = field(default_factory=dict)
    vital: dict[SpanIdentity, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The policy file's rules, naming wire keys; VitalSetConfig holds P's and epsilon's.
        self.epoch = json_integer(self.epoch, "epoch", InvalidPolicy)
        self.epsilon = json_number(self.epsilon, "epsilon", InvalidPolicy)
        self.percentile = json_number(self.percentile, "percentile", InvalidPolicy)
        VitalSetConfig(percentile_p=self.percentile, epsilon=self.epsilon)
        for key, probabilities in (("probability", self.entries), ("vitalProbability", self.vital)):
            for identity, value in probabilities.items():
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not (number and 0.0 <= value <= 1.0):  # NaN fails every comparison
                    raise InvalidPolicy(
                        f"{identity.label()}: {key} must be finite and in [0, 1], got {value!r}"
                    )

    def probability(self, identity: SpanIdentity) -> float:
        """Identities the policy has never scored sample at 1.0: unknown
        spans stay fully visible until judged."""
        return self.entries.get(identity, 1.0)

    def eliminated(self, identity: SpanIdentity) -> bool:
        return self.vital.get(identity, 1.0) < self.epsilon


def _nonzero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)


def _beta_cf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The incomplete beta's continued fraction, by modified Lentz.

    Numerical Recipes (3rd ed.) section 6.4, on flat arrays. An element
    whose last factor is within _CF_EPS of 1 has converged; converged
    elements leave the working set once they are at least half of it.
    """
    out = np.empty_like(x)
    live = np.arange(x.size)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d.copy()
    for step in range(1, _CF_MAX_STEPS + 1):
        m2 = 2.0 * step
        aa = step * (b - step) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        h *= d * c
        aa = -(a + step) * (qab + step) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) <= _CF_EPS
        if 2 * np.count_nonzero(done) >= done.size:
            out[live[done]] = h[done]
            keep = ~done
            live, a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (live, a, b, x, qab, qap, qam, c, d, h)
            )
            if not live.size:
                break
    out[live] = h
    return out


def beta_cdf(alpha, beta, x, x_comp) -> np.ndarray:
    """The regularized incomplete beta I_x(alpha, beta) for 0 < x < 1.

    x_comp is 1 - x, passed separately so that x near 1 keeps its
    precision. Arguments broadcast; log B(alpha, beta) is taken once per
    (alpha, beta) element before broadcasting against x. Where
    x > (alpha+1)/(alpha+beta+2) the fraction is evaluated for
    1 - I_{1-x}(beta, alpha), where it converges fast.
    """
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    log_norm = _lgamma(alpha + beta) - _lgamma(alpha) - _lgamma(beta)
    arrays = np.broadcast_arrays(alpha, beta, x, x_comp, log_norm)
    a, b, x, xc, log_norm = (v.ravel() for v in arrays)
    flip = x > (a + 1.0) / (a + b + 2.0)
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    x, xc = np.where(flip, xc, x), np.where(flip, x, xc)
    tail = np.exp(log_norm + a * np.log(x) + b * np.log(xc)) / a * _beta_cf(a, b, x)
    return np.where(flip, 1.0 - tail, tail).reshape(arrays[0].shape)


def _count_pmf(p: np.ndarray) -> np.ndarray:
    """pmf[n, g]: the chance that exactly n of the identities in p lie below bin g."""
    pmf = np.zeros((p.shape[0] + 1, p.shape[1]))
    pmf[0] = 1.0
    moved = np.empty_like(pmf)
    for i, (p_i, q_i) in enumerate(zip(p, 1.0 - p)):
        np.multiply(pmf[: i + 1], p_i, out=moved[: i + 1])
        pmf[: i + 2] *= q_i
        pmf[1 : i + 2] += moved[: i + 1]
    return pmf


def _undecided_bins(mean_count: np.ndarray, s: int, m: int) -> np.ndarray:
    """The bins where the count of S identities below, of mean mu = mean_count, is
    not settled against m: its Chernoff-Hoeffding bound exp(-S KL(m/S || mu/S))
    on the far side of m is not below DECIDED_TAIL (see the module docstring).
    """
    a, mean = m / s, np.clip(mean_count / s, 0.0, 1.0)
    with np.errstate(divide="ignore"):  # log(0) = -inf: the far side is empty
        kl = (1.0 - a) * (math.log1p(-a) - np.log1p(-mean))
        if m:
            kl += a * (math.log(a) - np.log(mean))
    return ~(s * kl > -math.log(DECIDED_TAIL))


def _others_at_least(p: np.ndarray, m: int) -> np.ndarray:
    """P(#{i != j : X_i below} >= m) for each identity j and bin g.

    p[i, g] is the chance that identity i lies below bin g. Bins that
    `_undecided_bins` settles get 0 or 1. In the rest, the
    Poisson-binomial pmf of the count below is built over all S
    identities, as the bin-by-bin convolution of its two halves' pmfs
    (half the cost of one pass over all S); identity j is then divided
    back out by a Horner sum, forward over the pmf's prefix sums where
    p <= 1/2 and backward over its suffix sums where p > 1/2, each the
    numerically stable direction.
    """
    mean_count = p.sum(axis=0)
    undecided = _undecided_bins(mean_count, p.shape[0], m)
    tails = np.broadcast_to(mean_count > m, p.shape).astype(float)
    if undecided.any():
        tails[:, undecided] = _divided_out(p[:, undecided], m)
    return tails


def _divided_out(p: np.ndarray, m: int) -> np.ndarray:
    """`_others_at_least` in every bin of p, by the pmf and the Horner sums."""
    s = p.shape[0]
    q = 1.0 - p
    low, high = _count_pmf(p[: s // 2]), _count_pmf(p[s // 2 :])
    pmf = np.stack([np.convolve(low[:, g], high[:, g]) for g in range(p.shape[1])], axis=1)
    forward = p <= 0.5
    q_fwd = np.where(forward, q, 1.0)
    p_bwd = np.where(forward, 1.0, p)

    ratio = np.where(forward, -p / q_fwd, 0.0)
    acc = np.zeros_like(p)
    for at_most in np.cumsum(pmf[:m], axis=0):  # P(N <= n), n = 0 .. m-1
        acc *= ratio
        acc += at_most
    fewer = acc / q_fwd  # P(others < m), read where forward

    ratio = np.where(forward, 0.0, -q / p_bwd)
    acc = np.zeros_like(p)
    for at_least in np.cumsum(pmf[s:m:-1], axis=0):  # P(N >= n), n = S .. m+1
        acc *= ratio
        acc += at_least
    return np.clip(np.where(forward, 1.0 - fewer, acc / p_bwd), 0.0, 1.0)


def build_policy(store: BeliefStore, cfg: VitalSetConfig) -> SamplingPolicy:
    """Plan the sampling policy for `store`'s beliefs.

    Identities are ordered lexicographically. In each grid bin, identity
    i lies below identity j with the mean of i's CDF at the bin's two
    edges; weighting P(at least m others below) by j's mass in each bin
    gives vital_j. The vital values are then rescaled to sum to S - m
    exactly, as every draw's vital set does: the vital mass is scaled
    down when it overshoots, the non-vital mass when it falls short, so
    every value stays within [0, 1].
    """
    if not store.beliefs:
        raise EmptyStore("no identities to plan for")
    identities = sorted(store.beliefs)
    alphas = np.array([store.beliefs[i].alpha for i in identities])
    betas = np.array([store.beliefs[i].beta for i in identities])
    shrink = np.minimum(1.0, MAX_CONCENTRATION / (alphas + betas))
    s = len(identities)
    h = (s - 1) * cfg.percentile_p / 100.0
    k = math.floor(h)
    m = k + 1 if h > k else k

    cdf = np.zeros((s, _GRID[0].size + 2))
    cdf[:, -1] = 1.0
    cdf[:, 1:-1] = beta_cdf((alphas * shrink)[:, None], (betas * shrink)[:, None], *_GRID)
    p = 0.5 * (cdf[:, :-1] + cdf[:, 1:])
    vital = (np.diff(cdf, axis=1) * _others_at_least(p, m)).sum(axis=1)
    total, target = vital.sum(), float(s - m)
    if total >= target:
        vital = vital * target / total
    else:
        vital = 1.0 - (1.0 - vital) * (m / (s - total))
    vital = dict(zip(identities, np.clip(vital, 0.0, 1.0).tolist()))
    return SamplingPolicy(
        epoch=store.epoch,
        epsilon=cfg.epsilon,
        percentile=cfg.percentile_p,
        entries={i: max(v, cfg.epsilon) for i, v in vital.items()},
        vital=vital,
    )


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
                **identity_to_json(identity),
                "probability": policy.entries[identity],
                "vitalProbability": policy.vital.get(identity, policy.entries[identity]),
            }
            for identity in sorted(policy.entries)
        ],
    }


def policy_from_json_dict(obj: dict) -> SamplingPolicy:
    obj = json_object(obj, "a policy file", InvalidPolicy)
    entries, vital = {}, {}
    for identity, row in identity_rows(obj, "entries", InvalidPolicy).items():
        entries[identity] = row["probability"]
        vital[identity] = row["vitalProbability"]
    return SamplingPolicy(obj["epoch"], obj["epsilon"], obj["percentile"], entries, vital)


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


def report(policy: SamplingPolicy, store: BeliefStore) -> VitalityReport:
    """Rank identities by vital probability (desc), posterior mean, identity.

    Every identity of the policy must hold a belief in the store, else
    InvalidPolicy names it; the store may hold identities the policy
    lacks, as a state is often newer than its policy.
    When every identity holds the identical belief, a policy planned from
    them gives every identity the same vital probability (to the bit) and
    mean, so the ranking falls back to identity order, carries no
    information, and the report is flagged ambiguous.
    Elimination (vital < epsilon) is advisory: flagged identities stay in
    the policy at the epsilon floor, never removed.
    """
    for identity in policy.entries:
        if identity not in store.beliefs:
            raise InvalidPolicy(f"{identity.label()} is in the policy but not in the state")
    beliefs = {identity: store.beliefs[identity] for identity in policy.entries}
    ambiguous = len({(b.alpha, b.beta) for b in beliefs.values()}) <= 1 and len(beliefs) > 1
    ordered = sorted(beliefs, key=lambda i: (-policy.vital.get(i, 0.0), -beliefs[i].mean, i))
    rows = [
        ReportRow(
            rank=rank,
            identity=identity,
            vital_probability=policy.vital.get(identity, 0.0),
            probability=policy.entries[identity],
            posterior_mean=beliefs[identity].mean,
            posterior_variance=posterior_variance(beliefs[identity]),
            eliminated=policy.eliminated(identity),
        )
        for rank, identity in enumerate(ordered, start=1)
    ]
    return VitalityReport(rows=rows, ambiguous=ambiguous)
