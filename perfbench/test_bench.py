"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_bench.py
"""
import os
import sys
import types

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import oracle_failures, oracle_vital  # noqa: E402
from tracer import Tracer, rebind, restore, self_times_us  # noqa: E402


def _beliefs(s=120, seed=3):
    rng = np.random.default_rng(seed)
    ids = [f"id-{i:03d}" for i in range(s)]
    return ids, 1.0 + 9.0 * rng.random(s), 1.0 + 9.0 * rng.random(s)


def test_oracle_accepts_an_independent_monte_carlo_planner():
    ids, a, b = _beliefs()
    planned = oracle_vital(a, b, 75.0, rows=10_000, seed=11)
    vital = dict(zip(ids, planned))
    assert oracle_failures(ids, a, b, vital, 75.0, planner_rows=10_000) == []


def test_oracle_rejects_a_planner_returning_uniform_probabilities():
    ids, a, b = _beliefs()
    # Uniform at the vital-set share: right on average, wrong per identity.
    vital = {i: 0.25 for i in ids}
    failures = oracle_failures(ids, a, b, vital, 75.0, planner_rows=10_000)
    assert len(failures) > len(ids) // 2


def test_rebind_catches_aliases_and_restores():
    def f():
        return 1

    home = types.ModuleType("spanbandit._bench_home")
    user = types.ModuleType("spanbandit._bench_user")
    home.f, user.g = f, f  # user did `from home import f as g`
    sys.modules[home.__name__], sys.modules[user.__name__] = home, user
    try:
        undo = rebind(f, lambda: 2)
        assert home.f() == 2 and user.g() == 2
        restore(undo)
        assert home.f is f and user.g is f
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_missing_function_is_reported_absent():
    tracer = Tracer(targets=(("no_such_module", "nothing"),))
    with tracer:
        pass
    assert tracer.absent == ["no_such_module.nothing"]


def test_self_time_subtracts_the_union_of_clipped_children():
    def span(sid, start, dur, parent=None):
        r = {"traceId": "t", "spanId": sid, "startUs": start, "durationUs": dur}
        if parent:
            r["parentId"] = parent
        return r

    records = [
        span("root", 0, 100),
        span("a", 10, 30, "root"),   # [10, 40)
        span("b", 30, 20, "root"),   # [30, 50), overlaps a
        span("c", 90, 30, "root"),   # [90, 120), clipped to [90, 100)
    ]
    self_us = self_times_us(records)
    assert self_us[("t", "root")] == 100 - 40 - 10
    assert self_us[("t", "a")] == 30
