"""Per-identity utility measures over self-segment latencies.

A utility measure maps the pooled self segments one identity produced in
a batch of traces to a non-negative score. Scores are normalized by the
batch maximum so the controller only ever sees relative interestingness;
variance is the default because spans that explain latency *variation*
are the ones worth keeping instrumented.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .trace_model import SpanIdentity, Trace, self_segments_us


class UnknownMeasure(KeyError):
    pass


class EmptyBatch(ValueError):
    pass


UtilityFn = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class _Measure:
    fn: UtilityFn
    min_samples: int = 1


def _variance(x: np.ndarray) -> float:
    return float(np.var(x, ddof=1))


def _std(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1))


def _cov(x: np.ndarray) -> float:
    m = float(np.mean(x))
    return float(np.std(x, ddof=1) / m) if m > 0 else 0.0


DEFAULT_MEASURE = "variance"

_MEASURES: dict[str, _Measure] = {
    "variance": _Measure(_variance, min_samples=2),
    "std": _Measure(_std, min_samples=2),
    "coefficient_of_variation": _Measure(_cov, min_samples=2),
    "mean": _Measure(lambda x: float(np.mean(x))),
    "max": _Measure(lambda x: float(np.max(x))),
    "p99": _Measure(lambda x: float(np.percentile(x, 99))),
}


def measure_min_samples(measure: str) -> int:
    if measure not in _MEASURES:
        raise UnknownMeasure(measure)
    return _MEASURES[measure].min_samples


@dataclass(frozen=True)
class UtilityEstimate:
    """One identity's batch utility: raw score plus batch-max normalization.

    sample_count below the measure's minimum (a single observation cannot
    carry spread information) yields raw = 0.0; callers can spot those
    cases through sample_count rather than trusting the zero.
    """

    identity: SpanIdentity
    sample_count: int
    raw: float
    normalized: float


def pool_self_segments(traces: Iterable[Trace]) -> dict[SpanIdentity, np.ndarray]:
    """Self segments per identity in (trace, preorder) order, from one
    `self_segments_us` over the batch; repeated spans in one trace each count once."""
    traces = list(traces)
    identities = [identity for t in traces for identity in t.identities]
    # Code each distinct object by id() first: equal identities from different
    # reads are different objects, and merge in `codes`, in first-seen order.
    codes: dict[SpanIdentity, int] = {}
    code_of = {
        key: codes.setdefault(identity, len(codes))
        for key, identity in {id(i): i for i in identities}.items()
    }
    code = np.fromiter(map(code_of.__getitem__, map(id, identities)), dtype=np.intp, count=len(identities))
    # The stable sort keeps each pool in (trace, preorder) order, which fixes the bits of np.var.
    pooled = self_segments_us(traces)[np.argsort(code, kind="stable")]
    return dict(zip(codes, np.split(pooled, np.cumsum(np.bincount(code))[:-1])))


def compute_batch_utilities(
    traces: Sequence[Trace], measure: str = DEFAULT_MEASURE
) -> list[UtilityEstimate]:
    """Score every identity observed in the batch, normalized by the batch max.

    A batch whose maximum raw score is 0 (constant latencies everywhere)
    normalizes to all zeros rather than dividing by zero.
    """
    return score_pools(pool_self_segments(traces), measure)


def score_pools(pools: dict[SpanIdentity, np.ndarray], measure: str) -> list[UtilityEstimate]:
    """Score each identity's pooled observations, normalized as `compute_batch_utilities` does."""
    if measure not in _MEASURES:
        raise UnknownMeasure(measure)
    if not pools:  # every trace holds a span, so only an empty batch pools nothing
        raise EmptyBatch("cannot score an empty batch of traces")
    spec = _MEASURES[measure]
    raws = {}
    for identity, obs in pools.items():
        if len(obs) < spec.min_samples:
            raws[identity] = 0.0
        else:
            raws[identity] = float(spec.fn(np.asarray(obs, dtype=np.float64)))
    max_raw = max(raws.values())
    return [
        UtilityEstimate(
            identity=identity,
            sample_count=len(pools[identity]),
            raw=raws[identity],
            normalized=raws[identity] / max_raw if max_raw > 0 else 0.0,
        )
        for identity in sorted(raws)
    ]
