"""Correlate span tags with span latency to explain a slow operation.

Label tags are coded ordinally in lexicographic order (missing values
get their own top code). For unordered labels with three or more levels
that coding is a heuristic; for the common two-level case (a rollout
tag, a shard pair) the Pearson coefficient against latency is exactly
the point-biserial correlation, which is what makes a slow canary jump
to the top of the report.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .trace_model import SpanIdentity, Trace, decompose


class LengthMismatch(ValueError):
    pass


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation; 0.0 when either side has no variance."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise LengthMismatch(f"length mismatch: {xa.shape} vs {ya.shape}")
    if xa.size < 2:
        return 0.0
    if float(np.std(xa)) == 0.0 or float(np.std(ya)) == 0.0:
        return 0.0
    return float(np.corrcoef(xa, ya)[0, 1])


@dataclass(frozen=True)
class TagMatrix:
    """Per-trace rows for one identity: encoded tag columns plus targets.

    One row per trace containing the identity, taken from its first
    occurrence in document order. code_books maps a label column to the
    tuple of labels behind its codes; numeric columns map to None.
    """

    identity: SpanIdentity
    keys: tuple[str, ...]
    columns: dict[str, np.ndarray]
    kinds: dict[str, str]  # "label" or "numeric"
    code_books: dict[str, tuple[str, ...] | None]
    self_us: np.ndarray
    duration_us: np.ndarray
    e2e_us: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.self_us.size)

    def target(self, which: str = "self") -> np.ndarray:
        if which == "self":
            return self.self_us
        if which == "duration":
            return self.duration_us
        if which == "e2e":
            return self.e2e_us
        raise ValueError(f"unknown target {which!r}")


def _first_occurrences(traces: Iterable[Trace], identity: SpanIdentity):
    for trace in traces:
        for span, row in zip(trace.preorder(), decompose(trace)):
            if span.identity == identity:
                yield span, row.self_segment_us, trace.end_to_end_latency_us()
                break


def build_tag_matrix(traces: Sequence[Trace], identity: SpanIdentity) -> TagMatrix:
    rows = list(_first_occurrences(traces, identity))
    tag_rows = [span.tags for span, _, _ in rows]
    keys = sorted({k for tags in tag_rows for k in tags})
    columns: dict[str, np.ndarray] = {}
    kinds: dict[str, str] = {}
    code_books: dict[str, tuple[str, ...] | None] = {}
    for key in keys:
        raw = [tags.get(key) for tags in tag_rows]
        try:
            values = np.array([float(v) for v in raw], dtype=np.float64)  # None raises TypeError
        except (TypeError, ValueError):
            values = None
        # "nan" and "inf" parse, but would make Pearson's r NaN: such a column is labels.
        if values is not None and np.isfinite(values).all():
            columns[key] = values
            kinds[key] = "numeric"
            code_books[key] = None
        else:
            labels = tuple(sorted({v for v in raw if v is not None}))
            index = {label: i for i, label in enumerate(labels)}
            missing_code = float(len(labels))
            columns[key] = np.array(
                [index[v] if v is not None else missing_code for v in raw],
                dtype=np.float64,
            )
            kinds[key] = "label"
            code_books[key] = labels
    return TagMatrix(
        identity=identity,
        keys=tuple(keys),
        columns=columns,
        kinds=kinds,
        code_books=code_books,
        self_us=np.array([s for _, s, _ in rows], dtype=np.float64),
        duration_us=np.array([span.duration_us for span, _, _ in rows], dtype=np.float64),
        e2e_us=np.array([e for _, _, e in rows], dtype=np.float64),
    )


@dataclass(frozen=True)
class CorrelationRow:
    key: str
    r: float
    kind: str
    degenerate: bool  # constant column or constant target; r pinned to 0
    num_rows: int


def correlation_report(matrix: TagMatrix, target: str = "self") -> tuple[CorrelationRow, ...]:
    y = matrix.target(target)
    rows = []
    for key in matrix.keys:
        x = matrix.columns[key]
        degenerate = x.size < 2 or float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0
        r = 0.0 if degenerate else pearson(x, y)
        rows.append(CorrelationRow(key=key, r=r, kind=matrix.kinds[key], degenerate=degenerate, num_rows=x.size))
    return tuple(sorted(rows, key=lambda row: (-abs(row.r), row.key)))


def strongest_tag(
    traces: Sequence[Trace],
    identity: SpanIdentity | None = None,
    target: str = "self",
) -> tuple[SpanIdentity, CorrelationRow] | None:
    """Best |r| tag over one identity, or over all identities when None."""
    if identity is not None:
        candidates = [identity]
    else:
        seen: list[SpanIdentity] = []
        for trace in traces:
            for span in trace.preorder():
                if span.tags and span.identity not in seen:
                    seen.append(span.identity)
        candidates = sorted(seen)
    best: tuple[SpanIdentity, CorrelationRow] | None = None
    for cand in candidates:
        matrix = build_tag_matrix(traces, cand)
        if matrix.num_rows == 0 or not matrix.keys:
            continue
        for row in correlation_report(matrix, target):
            if row.degenerate:
                continue
            if best is None or abs(row.r) > abs(best[1].r):
                best = (cand, row)
            break
    return best
