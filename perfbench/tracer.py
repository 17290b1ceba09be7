"""Outside-in tracer for the spanbandit package.

A function is traced by rebinding every module attribute under
``spanbandit`` that *is* the original function object, so names bound
with ``from .x import f`` (``simulator.build_policy``, ``utility.decompose``)
are caught as well as the defining module's own global. A function the
installed package no longer has is reported as absent, never an error.

Spans are kept in memory as ``[name, parent, start_ns, end_ns]`` lists and
written once, at the end of a run, in the package's own span JSONL
format, one trace per traced segment (set-up or pass). Self time follows
the rule ``trace_model.decompose`` applies: a span's duration minus the
union of its children's intervals, clipped to the span.

Calls are assumed to come from one thread (the benchmark pins the
planner to one worker), so the open-span stack is a plain list.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs wrapped in a traced run, grouped by layer.
TRACED = (
    ("trace_model", "span_from_json"),
    ("trace_model", "read_traces_jsonl"),
    ("trace_model", "write_traces_jsonl"),
    ("trace_model", "build_trace"),
    ("trace_model", "decompose"),
    ("utility", "compute_batch_utilities"),
    ("belief", "update_epoch"),
    ("belief", "save_store"),
    ("abs_sampler", "build_policy"),
    ("abs_sampler", "draw_matrix"),
    ("abs_sampler", "vital_probabilities"),
    ("abs_sampler", "finalize_policy"),
    ("abs_sampler", "report"),
    ("abs_sampler", "save_policy"),
    ("simulator", "generate_request"),
    ("simulator", "run_closed_loop"),
    ("experiment", "run_one"),
    ("presets", "get_preset"),
    ("cli", "main"),
)

# The two boundaries end-to-end runs time and count: plan latency and
# spans recorded by the simulator.
PROBE = (("abs_sampler", "build_policy"), ("simulator", "generate_request"))

ROOT = "bench.segment"


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "spanbandit" or name.startswith("spanbandit."))
    ]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every spanbandit attribute that is `original` at `replacement`.

    Returns (module, attribute, previous value) triples for `restore`.
    """
    undo = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, value))
    return undo


def restore(undo) -> None:
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


def lookup(module: str, name: str):
    mod = sys.modules.get(f"spanbandit.{module}")
    return getattr(mod, name, None) if mod is not None else None


@dataclass
class Counters:
    """Counts taken at layer boundaries from arguments and return values."""

    spans_recorded: int = 0
    spans_possible: int = 0
    thin_estimates: int = 0
    plans: int = 0
    identities_planned: int = 0
    ids_at_floor: int = 0
    unavailable: set = field(default_factory=set)
    # id(topology) -> (topology, spans per fully traced request); holding the
    # topology keeps its id from being reused by another object.
    _occurrences: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {k: v for k, v in vars(self).items() if not k.startswith("_")}
        out["unavailable"] = sorted(self.unavailable)
        return out

    def after_generate_request(self, args, kwargs, result) -> None:
        topology = kwargs.get("topology", args[0] if args else None)
        key = id(topology)
        if key not in self._occurrences:
            self._occurrences[key] = (topology, sum(topology.occurrence_counts().values()))
        self.spans_possible += self._occurrences[key][1]
        if result is not None:
            self.spans_recorded += len(result)

    def after_compute_batch_utilities(self, args, kwargs, result) -> None:
        measure = kwargs.get("measure", args[1] if len(args) > 1 else "variance")
        floor = lookup("utility", "measure_min_samples")(measure)
        self.thin_estimates += sum(1 for e in result if e.sample_count < floor)

    def after_build_policy(self, args, kwargs, result) -> None:
        self.plans += 1
        self.identities_planned += len(result.entries)
        self.ids_at_floor += sum(1 for p in result.entries.values() if p <= result.epsilon)


class Tracer:
    """Records one span per call of each wrapped function while installed."""

    def __init__(self, targets=TRACED):
        self.targets = targets
        self.origin = time.perf_counter_ns()
        self.spans: list[list] = []
        self.segments: list[tuple[str, int]] = []  # (label, index of root span)
        self.absent: list[str] = []
        self.counters = Counters()
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    # The package's API moved under this counter; the span stands.
                    self.counters.unavailable.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.absent = []
        for module, name in self.targets:
            original = lookup(module, name)
            if original is None:
                self.absent.append(f"{module}.{name}")
                continue
            after = getattr(self.counters, f"after_{name}", None)
            self._undo += rebind(original, self._wrap(f"{module}.{name}", original, after))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def durations_ms(self, name: str, since: int = 0) -> list[float]:
        return [(e - s) / 1e6 for n, _, s, e in self.spans[since:] if n == name]

    @contextlib.contextmanager
    def segment(self, label: str):
        """One root span covering a traced set-up or pass."""
        self.spans.append([ROOT, -1, time.perf_counter_ns(), 0])
        idx = len(self.spans) - 1
        self.segments.append((label, idx))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter_ns()


# --- span dump and self time ----------------------------------------------------


def to_records(spans: list[list], segments: list[tuple[str, int]], origin_ns: int) -> list[dict]:
    """Spans as span-JSONL objects, one trace per segment, times in integer us.

    Both ends are floored to the microsecond, so a child's interval stays
    inside its parent's and self times of a trace sum to its root's
    duration exactly.
    """
    roots = {idx: label for label, idx in segments}
    trace_of: dict[int, str] = {}
    out = []
    for idx, (name, parent, start, end) in enumerate(spans):
        if parent == -1:
            if idx not in roots:
                continue  # a call made outside every segment
            trace_of[idx] = roots[idx]
        elif parent in trace_of:
            trace_of[idx] = trace_of[parent]
        else:
            continue
        module, _, op = name.partition(".")
        start_us = (start - origin_ns) // 1000
        obj = {"traceId": trace_of[idx], "spanId": f"s{idx:07d}"}
        if parent != -1:
            obj["parentId"] = f"s{parent:07d}"
        obj.update(
            service=module,
            operation=op,
            url="",
            startUs=start_us,
            durationUs=(end - origin_ns) // 1000 - start_us,
            tags={},
        )
        out.append(obj)
    return out


def self_times_us(records: list[dict]) -> dict[tuple[str, str], int]:
    """(traceId, spanId) -> duration minus the union of its children's
    intervals, each clipped to the span."""
    by_id = {(r["traceId"], r["spanId"]): r for r in records}
    children: dict[tuple[str, str], list[dict]] = {}
    for r in records:
        if "parentId" in r:
            children.setdefault((r["traceId"], r["parentId"]), []).append(r)
    out = {}
    for sid, r in by_id.items():
        lo, hi = r["startUs"], r["startUs"] + r["durationUs"]
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(sid, ()), key=lambda c: c["startUs"]):
            s = max(c["startUs"], lo)
            e = min(c["startUs"] + c["durationUs"], hi)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            elif e > cur_end:
                cur_end = e
        if cur_end is not None:
            covered += cur_end - cur_start
        out[sid] = r["durationUs"] - covered
    return out


def write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps(r, separators=(",", ":")) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
