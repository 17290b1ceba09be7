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

from .trace_model import SpanIdentity, SpanRecord, Trace, decompose


# The latency a tag column is correlated with: the span's self time, its
# duration, or its trace's end-to-end latency.
TARGETS = ("self", "duration", "e2e")
DEFAULT_TARGET = "self"


class LengthMismatch(ValueError):
    pass


def _degenerate(x: np.ndarray) -> bool:
    """Fewer than two rows, or one value in every row: no correlation to measure."""
    return bool(x.size < 2 or x.min() == x.max())


def _scaled(x: np.ndarray) -> np.ndarray:
    """x times the power of two that brings max |x| into [0.5, 1).

    The scaling is exact, so r keeps its bits, and the sums of squares
    behind r cannot overflow, as they do for values near 1e308.
    """
    return np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation; 0.0 when either side is degenerate."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise LengthMismatch(f"length mismatch: {xa.shape} vs {ya.shape}")
    if _degenerate(xa) or _degenerate(ya):
        return 0.0
    return float(np.corrcoef(_scaled(xa), _scaled(ya))[0, 1])


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

    def target(self, which: str = DEFAULT_TARGET) -> np.ndarray:
        if which not in TARGETS:
            raise ValueError(f"unknown target {which!r}; one of {TARGETS}")
        return (self.self_us, self.duration_us, self.e2e_us)[TARGETS.index(which)]


def _first_occurrences(traces: Iterable[Trace]) -> dict[SpanIdentity, list[tuple[SpanRecord, int, int]]]:
    """Each identity's first occurrence per trace, with its self time and the
    trace's end-to-end latency, from one `decompose` per trace."""
    rows: dict[SpanIdentity, list[tuple[SpanRecord, int, int]]] = {}
    for trace in traces:
        e2e = trace.end_to_end_latency_us()
        first: dict[SpanIdentity, tuple[SpanRecord, int, int]] = {}
        for span, row in zip(trace.preorder(), decompose(trace)):
            first.setdefault(span.identity, (span, row.self_segment_us, e2e))
        for identity, occurrence in first.items():
            rows.setdefault(identity, []).append(occurrence)
    return rows


def build_tag_matrix(traces: Sequence[Trace], identity: SpanIdentity) -> TagMatrix:
    """`identity`'s matrix; raises ValueError if no span in `traces` has it."""
    rows = _first_occurrences(traces).get(identity)
    if rows is None:
        raise ValueError(f"no span of {identity.label()} in the traces")
    return _tag_matrix(identity, rows)


def _tag_matrix(identity: SpanIdentity, rows: list[tuple[SpanRecord, int, int]]) -> TagMatrix:
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
    degenerate: bool  # fewer than 2 rows, or a constant column or target; r pinned to 0
    num_rows: int


def correlation_report(matrix: TagMatrix, target: str = DEFAULT_TARGET) -> tuple[CorrelationRow, ...]:
    y = matrix.target(target)
    rows = []
    for key in matrix.keys:
        x = matrix.columns[key]
        degenerate = _degenerate(x) or _degenerate(y)  # pearson's r is 0.0 exactly then
        r = pearson(x, y)
        rows.append(CorrelationRow(key=key, r=r, kind=matrix.kinds[key], degenerate=degenerate, num_rows=x.size))
    return tuple(sorted(rows, key=lambda row: (-abs(row.r), row.key)))


def strongest_tag(
    traces: Sequence[Trace], target: str = DEFAULT_TARGET
) -> tuple[TagMatrix, CorrelationRow] | None:
    """Best |r| tag over every identity, with that identity's matrix.

    Identities are tried in sorted order and a later one must beat the
    best |r| strictly; degenerate rows never win.
    """
    best: tuple[TagMatrix, CorrelationRow] | None = None
    for identity, rows in sorted(_first_occurrences(traces).items()):
        matrix = _tag_matrix(identity, rows)
        row = next((r for r in correlation_report(matrix, target) if not r.degenerate), None)
        if row is not None and (best is None or abs(row.r) > abs(best[1].r)):
            best = (matrix, row)
    return best
