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
is 0 (mu < m) or 1 (mu > m) to within 1e-17. S - mu is summed apart, as
the sum of 1 - F_i, since mu near S rounds it away. The pmf and the
divisions run only on the bins left: 14-16 of 88 for 564 beliefs with
alpha and beta uniform in [1, 10].

Most grid nodes need no CDF either. The factor
lead = x^a (1-x)^b / B(a, b), which I_x(a, b) and its mirror
1 - I_x(a, b) = I_{1-x}(b, a) share, is taken at every node, as lead/a
and lead/b, and bounds both with no continued fraction. The
hypergeometric series I_x(a, b) = lead/a * sum_n (a+b)_n/(a+1)_n x^n
(DLMF 8.17.8) has positive terms, each at most r = x max(1, (a+b)/(a+1))
times the one before, so lead/a <= I_x(a, b) <= lead/(a(1-r)) when
r < 1; the mirror's series, with r' = (1-x) max(1, (a+b)/(b+1)), bounds
1 - I_x(a, b) the same way. Summed over the identities, these bounds cap
mu and S - mu in every bin. The bins they settle below and above the
undecided band need no CDF: a settled-0 bin adds nothing to any vital
value, and the settled-1 bins above telescope to 1 - F_j at the band's
top node. So the continued fraction runs once, on the nodes in between:
18-23 of 87 for the 564 beliefs above.

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
    read_json,
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
# Identities per block of the count pmf's build (see _count_pmf).
PMF_BLOCK = 48
_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAX_STEPS = 10_000


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _grid() -> tuple[np.ndarray, np.ndarray]:
    """The interior grid nodes x, ascending, and 1 - x, each exact where it is tiny."""
    tail = (1.0 / GRID_BINS) ** (TAIL_POWER ** np.arange(TAIL_NODES, 0, -1))
    half = np.concatenate([tail, np.arange(1, GRID_BINS // 2 + 1) / GRID_BINS])
    return (
        np.concatenate([half, 1.0 - half[-2::-1]]),
        np.concatenate([1.0 - half, half[-2::-1]]),
    )


def _logs(x: np.ndarray, x_comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log x and log(1 - x), each from whichever of x and x_comp = 1 - x is
    exact: the one at most 1/2, as the grid and beta_cdf's callers keep it.
    The log of a rounded 1 - x near 1 would be off by up to 100% of itself."""
    low = x <= 0.5
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf, on the side not taken
        log_x = np.where(low, np.log(x), np.log1p(-x_comp))
        return log_x, np.where(low, np.log1p(-x), np.log(x_comp))


_GRID = _grid()
_LOG_GRID = _logs(*_GRID)


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
        # An entry with no vital probability gets its probability, as the file writes it.
        self.vital = {**self.entries, **self.vital}
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
        return self.vital[identity] < self.epsilon


def _nonzero(v: np.ndarray) -> np.ndarray:
    """v with each element below _CF_TINY in size set to _CF_TINY; v itself
    when there is none, as there almost never is."""
    size = np.abs(v)
    return v if size.min(initial=np.inf) >= _CF_TINY else np.where(size < _CF_TINY, _CF_TINY, v)


def _beta_cf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The incomplete beta's continued fraction, by modified Lentz.

    Numerical Recipes (3rd ed.) section 6.4, on flat arrays. An element
    whose last factor is within _CF_EPS of 1 has converged. Its x is then
    set to 0, which makes every later factor exactly 1, so its value does
    not depend on the other elements of the call. Converged elements leave
    the working set once they are at least half of it.
    """
    out = np.empty_like(x)
    live = np.arange(x.size)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d.copy()
    for step in range(1, _CF_MAX_STEPS + 1):
        m2 = 2.0 * step
        am2 = a + m2
        aa = step * (b - step) * x / ((qam + m2) * am2)
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        h *= d * c
        aa = (a + step) * (qab + step) * x / (am2 * (qap + m2))  # the odd term, negated
        d = 1.0 / _nonzero(1.0 - aa * d)
        c = _nonzero(1.0 - aa / c)
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) <= _CF_EPS
        x = np.where(done, 0.0, x)
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


def beta_cdf(alpha, beta, x, x_comp, firsts=None) -> np.ndarray:
    """The regularized incomplete beta I_x(alpha, beta) for 0 < x < 1.

    x_comp is 1 - x, passed separately so that x near 1 keeps its
    precision. Arguments broadcast. `firsts` is `_first_terms` of the same
    arguments, for a caller that has already taken them; the planner takes
    them at every grid node, and the fraction at a few. Where
    x > (alpha+1)/(alpha+beta+2) the fraction is evaluated for
    1 - I_{1-x}(beta, alpha), where it converges fast.
    """
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    if firsts is None:
        firsts = _first_terms(alpha, beta, *_logs(x, x_comp))
    flip = x > (alpha + 1.0) / (alpha + beta + 2.0)
    first, a, b, x = (
        np.where(flip, *pair).ravel()
        for pair in (firsts[::-1], (beta, alpha), (alpha, beta), (x_comp, x))
    )
    tail = (first * _beta_cf(a, b, x)).reshape(flip.shape)
    return np.where(flip, 1.0 - tail, tail)


def _first_terms(alpha, beta, log_x, log_xc) -> tuple[np.ndarray, np.ndarray]:
    """lead/alpha and lead/beta, lead = x^alpha (1-x)^beta / B(alpha, beta):
    the first terms of the series of I_x(alpha, beta) and of its mirror,
    which beta_cdf and the series bounds share. Each takes its own log
    normaliser, with log Gamma(alpha+1) (or beta+1) in place of a division
    by alpha (or beta): a lead below the smallest normal number keeps too
    few bits to be divided by a tiny parameter. log Gamma(alpha+beta) is
    paired first with the term that cancels it exactly when the other
    parameter is below its ulp. The normalisers are taken once per
    (alpha, beta) element before broadcasting against x."""
    both, power = _lgamma(alpha + beta), alpha * log_x + beta * log_xc
    return (
        np.exp((both - _lgamma(beta) - _lgamma(alpha + 1.0)) + power),
        np.exp((both - _lgamma(alpha) - _lgamma(beta + 1.0)) + power),
    )


def _cdf_bounds(a, b, firsts) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds on I_x(a, b) and on 1 - I_x(a, b) at every grid node,
    from the first terms alone: the series bound of the module docstring on
    each, capped by 1 less the other's first term. Each stays accurate
    where it is tiny."""
    x, xc = _GRID
    first, mirror_first = firsts
    below = _series_bound(first, x * np.maximum(1.0, (a + b) / (a + 1.0)))
    np.minimum(below, 1.0 - mirror_first, out=below)
    above = _series_bound(mirror_first, xc * np.maximum(1.0, (a + b) / (b + 1.0)))
    np.minimum(above, 1.0 - first, out=above)
    return below, above


def _series_bound(first: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """first / (1 - ratio), the sum of a positive series whose terms shrink
    by at most `ratio`; infinite where ratio >= 1 bounds nothing."""
    rest = np.subtract(1.0, ratio, out=ratio)
    return np.divide(first, rest, out=np.full_like(first, np.inf), where=rest > 0.0)


def _count_pmf(p: np.ndarray) -> np.ndarray:
    """pmf[n, g]: the chance that exactly n of the identities in p lie below bin g.

    The identities are cut into equal blocks of at most PMF_BLOCK, the last
    padded with p = 0, which adds nothing to a count. Each block's pmf is
    built one identity at a time, every step's three array operations
    covering all blocks at once, and the blocks' pmfs are then convolved
    pairwise, bin by bin. A store of at most PMF_BLOCK identities is one
    block, built by the plain sequential loop.
    """
    s, bins = p.shape
    blocks = -(-s // PMF_BLOCK)
    size = -(-s // blocks)
    padded = np.zeros((blocks * size, bins))
    padded[:s] = p
    p = padded.reshape(blocks, size, bins).transpose(1, 0, 2)  # [identity in block, block, bin]
    pmf = np.zeros((size + 1, blocks, bins))
    pmf[0] = 1.0
    moved = np.empty_like(pmf)
    for i, (p_i, q_i) in enumerate(zip(p, 1.0 - p)):
        np.multiply(pmf[: i + 1], p_i, out=moved[: i + 1])
        pmf[: i + 2] *= q_i
        pmf[1 : i + 2] += moved[: i + 1]
    parts = list(pmf.transpose(1, 2, 0))  # one [bin, count] pmf per block
    while len(parts) > 1:
        merged = [
            np.stack([np.convolve(x, y) for x, y in zip(a, b)])
            for a, b in zip(parts[::2], parts[1::2])
        ]
        parts = merged + parts[2 * len(merged) :]
    return parts[0][:, : s + 1].T


def _undecided_bins(below: np.ndarray, above: np.ndarray, s: int, m: int) -> np.ndarray:
    """The bins where the count of S identities below, of mean mu = below, is
    not settled against m: its Chernoff-Hoeffding bound exp(-S KL(m/S || mu/S))
    on the far side of m is not below DECIDED_TAIL (see the module docstring).
    above is S - mu, summed apart: near S, mu cannot carry it.
    """
    a = m / s
    below, above = np.clip(below / s, 0.0, 1.0), np.clip(above / s, 0.0, 1.0)
    with np.errstate(divide="ignore"):  # log(0) = -inf: the far side is empty
        kl = (1.0 - a) * (math.log1p(-a) - np.log(above))
        if m:
            kl += a * (math.log(a) - np.log(below))
    return ~(s * kl > -math.log(DECIDED_TAIL))


def _open_bins(below: np.ndarray, above: np.ndarray, m: int) -> tuple[int, int]:
    """The bins start .. stop-1 that upper bounds `below` on each CDF and
    `above` on its complement, at the grid nodes, cannot settle: every bin
    below start is settled-0 and every bin from stop on settled-1 (see
    `_undecided_bins`), for any CDFs within the bounds."""
    s, nodes = below.shape
    most = np.zeros((2, nodes + 2))  # the most identities below, and above, at 0, each node and 1
    most[0, -1] = most[1, 0] = s
    most[0, 1:-1], most[1, 1:-1] = below.sum(axis=0), above.sum(axis=0)
    most = 0.5 * (most[:, :-1] + most[:, 1:])  # and in each bin
    # The count below in each bin: at most most[0], for settled-0; at least S - most[1], for settled-1.
    count = np.stack([most[0], s - most[1]])
    settled = ~_undecided_bins(count, np.stack([s - most[0], most[1]]), s, m)
    start = int(np.logical_and.accumulate(settled[0] & (count[0] < m)).sum())
    high = settled[1] & (count[1] > m)
    return start, high.size - int(np.logical_and.accumulate(high[::-1]).sum())


def _others_at_least(p: np.ndarray, m: int) -> np.ndarray:
    """P(#{i != j : X_i below} >= m) for each identity j and bin g.

    p[i, g] is the chance that identity i lies below bin g. Bins that
    `_undecided_bins` settles get 0 or 1. In the rest, the
    Poisson-binomial pmf of the count below is built over all S
    identities in blocks (`_count_pmf`), and identity j is divided back
    out by a Horner sum over the pmf's certified window (`_divided_out`).
    """
    below = p.sum(axis=0)
    undecided = _undecided_bins(below, (1.0 - p).sum(axis=0), p.shape[0], m)
    tails = np.broadcast_to(below > m, p.shape).astype(float)
    if undecided.any():
        tails[:, undecided] = _divided_out(p[:, undecided], m)
    return tails


def _window(pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The count's P(N <= n) and P(N >= n) in every bin, rows n = 0 .. S,
    and the window [lo, hi] outside which neither exceeds DECIDED_TAIL/(2S)
    in any bin: P(N <= lo-1) and P(N >= hi+1) are at most that. Both are
    sums of positive terms, exact to a few ulps however small."""
    s = pmf.shape[0] - 1
    at_most = np.cumsum(pmf, axis=0)
    at_least = np.cumsum(pmf[::-1], axis=0)[::-1]
    tail = DECIDED_TAIL / (2 * s)
    lo = int(np.count_nonzero(at_most.max(axis=1) <= tail))
    hi = s - int(np.count_nonzero(at_least.max(axis=1) <= tail))
    return at_most, at_least, lo, hi


def _divided_out(p: np.ndarray, m: int) -> np.ndarray:
    """`_others_at_least` in every bin of p, by the pmf and the Horner sums.

    With N the count of all S identities below a bin and N_-j the count
    without j, each identity is divided back out of N (Hong 2013, CSDA 59)
    in the numerically stable direction:
    P(N_-j <= m-1) = sum_{n < m} P(N <= n) r^(m-1-n) / q_j, r = -p_j/q_j,
    where p_j <= 1/2, and
    P(N_-j >= m) = sum_{n > m} P(N >= n) r^(n-m-1) / p_j, r = -q_j/p_j,
    elsewhere; each element runs in its own sum only. Both sums skip the
    rows outside `_window`: each of the at most S terms dropped is at most
    DECIDED_TAIL/(2S), |r| <= 1 and q_j (or p_j) >= 1/2, so a result moves
    by at most DECIDED_TAIL. Each result is then clipped into
    P(N >= m+1) <= P(N_-j >= m) <= P(N >= m), which 1 - P(N_-j <= m-1)
    would otherwise miss by up to S ulps where both bounds are tiny.
    """
    at_most, at_least, lo, hi = _window(_count_pmf(p))
    out = np.empty_like(p)
    i, g = np.nonzero(p <= 0.5)
    p_j = p[i, g]
    q_j = 1.0 - p_j
    out[i, g] = 1.0 - _horner(at_most[lo:m], -p_j / q_j, g) / q_j
    i, g = np.nonzero(p > 0.5)
    p_j = p[i, g]
    out[i, g] = _horner(at_least[hi:m:-1], -(1.0 - p_j) / p_j, g) / p_j
    return np.clip(out, at_least[m + 1], np.minimum(at_least[m], 1.0))


def _horner(sums: np.ndarray, ratio: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_k sums[k, g] ratio^(K-1-k) for each element, by Horner's rule;
    g is each element's bin."""
    acc = np.zeros_like(ratio)
    for row in sums:
        acc *= ratio
        acc += row[g]
    return acc


def _shrunk(alphas: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The beliefs' alpha and beta as columns, each alpha + beta above
    MAX_CONCENTRATION scaled down to it with the mean kept."""
    shrink = np.minimum(1.0, MAX_CONCENTRATION / (alphas + betas))
    return (alphas * shrink)[:, None], (betas * shrink)[:, None]


def _unscaled_vital(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """vital_j for the Beta(a, b) columns before `build_policy`'s rescale.

    The CDFs are taken only at the nodes of the bins that their bounds
    leave open (see the module docstring). In each of those bins, identity
    i lies below identity j with the mean of i's CDF at the bin's two
    edges, and P(at least m others below) is weighted by j's mass in the
    bin; the settled-1 bins above add j's mass above them, 1 - F_j.
    """
    firsts = _first_terms(a, b, *_LOG_GRID)
    start, stop = _open_bins(*_cdf_bounds(a, b, firsts), m)
    nodes = slice(max(start - 1, 0), min(stop, _GRID[0].size))
    cdf = np.zeros((a.size, _GRID[0].size + 2))
    cdf[:, -1] = 1.0
    cdf[:, nodes.start + 1 : nodes.stop + 1] = beta_cdf(
        a, b, _GRID[0][nodes], _GRID[1][nodes], [f[:, nodes] for f in firsts]
    )
    block = cdf[:, start : stop + 1]
    p = 0.5 * (block[:, :-1] + block[:, 1:])
    return (np.diff(block, axis=1) * _others_at_least(p, m)).sum(axis=1) + (1.0 - block[:, -1])


def build_policy(store: BeliefStore, cfg: VitalSetConfig) -> SamplingPolicy:
    """Plan the sampling policy for `store`'s beliefs.

    Identities are ordered lexicographically. The vital values
    (`_unscaled_vital`) are rescaled to sum to S - m exactly, as every
    draw's vital set does: the vital mass is scaled down when it
    overshoots, the non-vital mass when it falls short, so every value
    stays within [0, 1].
    """
    if not store.beliefs:
        raise EmptyStore("no identities to plan for")
    identities = sorted(store.beliefs)
    alphas = np.array([store.beliefs[i].alpha for i in identities])
    betas = np.array([store.beliefs[i].beta for i in identities])
    s = len(identities)
    h = (s - 1) * cfg.percentile_p / 100.0
    k = math.floor(h)
    m = k + 1 if h > k else k
    vital = _unscaled_vital(*_shrunk(alphas, betas), m)
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
                "vitalProbability": policy.vital[identity],
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
    return policy_from_json_dict(read_json(path, "a policy file", InvalidPolicy))


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
    ordered = sorted(beliefs, key=lambda i: (-policy.vital[i], -beliefs[i].mean, i))
    rows = [
        ReportRow(
            rank=rank,
            identity=identity,
            vital_probability=policy.vital[identity],
            probability=policy.entries[identity],
            posterior_mean=beliefs[identity].mean,
            posterior_variance=posterior_variance(beliefs[identity]),
            eliminated=policy.eliminated(identity),
        )
        for rank, identity in enumerate(ordered, start=1)
    ]
    return VitalityReport(rows=rows, ambiguous=ambiguous)
