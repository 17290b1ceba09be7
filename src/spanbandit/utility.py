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

from .trace_model import SpanIdentity, Trace, decompose


class UnknownMeasure(KeyError):
    pass


class UnknownIdentity(KeyError):
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
_BUILTIN_MEASURES = tuple(_MEASURES)


def register_measure(name: str, fn: UtilityFn, min_samples: int = 1) -> None:
    """Register a custom measure. Spread-like measures should set min_samples=2."""
    _MEASURES[name] = _Measure(fn, min_samples)


def available_measures() -> list[str]:
    return sorted(_MEASURES)


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


def pool_self_segments(traces: Iterable[Trace]) -> dict[SpanIdentity, list[int]]:
    """Self segments per identity; repeated spans in one trace each count once."""
    pools: dict[SpanIdentity, list[int]] = {}
    for trace in traces:
        for d in decompose(trace):
            pools.setdefault(d.identity, []).append(d.self_segment_us)
    return pools


def compute_batch_utilities(
    traces: Sequence[Trace], measure: str = DEFAULT_MEASURE
) -> list[UtilityEstimate]:
    """Score every identity observed in the batch, normalized by the batch max.

    A batch whose maximum raw score is 0 (constant latencies everywhere)
    normalizes to all zeros rather than dividing by zero.
    """
    return _score_pools(pool_self_segments(traces), measure)


def _score_pools(pools: dict[SpanIdentity, list[int]], measure: str) -> list[UtilityEstimate]:
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


@dataclass(frozen=True)
class MeasureComparisonRow:
    measure: str
    fault_rank: int
    top1: bool
    top3: bool
    top5: bool
    ambiguous: bool


def measure_comparison(
    traces: Sequence[Trace],
    fault_identity: SpanIdentity,
    measures: Sequence[str] = _BUILTIN_MEASURES,
) -> list[MeasureComparisonRow]:
    """Rank a known-faulty identity under each measure, by default the built-in ones.

    The batch is pooled once, and each measure scores the pools as
    `compute_batch_utilities` does. When every identity scores the same
    (all-constant latencies, say) the ranking carries no information: the
    row is flagged ambiguous and no top-k hit is credited.
    """
    pools = pool_self_segments(traces)
    rows = []
    for name in measures:
        estimates = _score_pools(pools, name)
        if fault_identity not in pools:
            raise UnknownIdentity(fault_identity.label())
        ranked = sorted(estimates, key=lambda e: (-e.raw, e.identity))
        rank = next(i for i, e in enumerate(ranked, start=1) if e.identity == fault_identity)
        raw_values = [e.raw for e in estimates]
        ambiguous = max(raw_values) == min(raw_values)
        rows.append(
            MeasureComparisonRow(
                measure=name,
                fault_rank=rank,
                top1=not ambiguous and rank <= 1,
                top3=not ambiguous and rank <= 3,
                top5=not ambiguous and rank <= 5,
                ambiguous=ambiguous,
            )
        )
    return rows
