"""The three benchmark workloads.

Each workload is a single-process, single-thread batch job. `setup`
builds the inputs from the seed and is repeated to time set-up; `run_pass`
is one timed unit of work; `verify` and `finish` check outputs. Every
workload reports every end-to-end metric:

* plan-564: one controller epoch at criterion 6's size per pass (score a
  50-trace batch, update beliefs, plan 564 identities at 10k rows). The
  planner is ~98% of a pass.
* loop-presets: one 20-epoch `run_one` for each of social, rail and media
  per pass, criterion 1's settings; the controller's own closed loop.
* ingest-rail: one `spanbandit learn` child per pass on a 4,000-request
  rail file (196,000 spans) written in set-up; the belief state carries
  over from pass to pass, so passes are successive epochs.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

from oracle import oracle_failures, policy_failures

EPSILON = 0.05
PERCENTILE = 75.0
DETECT = 0.9  # criterion 1's faulty-probability threshold


def knobs(target, applied: dict, label: str, **wanted) -> dict:
    """The subset of `wanted` keyword arguments `target` still accepts.

    `target` is a dataclass (checked by its fields) or a function (checked
    by its signature); what was kept is recorded in `applied[label]`.
    """
    if dataclasses.is_dataclass(target):
        accepted = {f.name for f in dataclasses.fields(target)}
    else:
        accepted = set(inspect.signature(target).parameters)
    kept = {k: v for k, v in wanted.items() if k in accepted}
    applied[label] = sorted(kept)
    return kept


def cli_flags(cli, command: str) -> set[str]:
    """Option strings the installed CLI accepts for one subcommand."""
    import argparse

    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices[command]._option_string_actions)
    return set()


def first_detection(passes: list[dict]) -> int | None:
    """1-based index of the first pass whose policy gave the fault >= DETECT."""
    return next((k + 1 for k, p in enumerate(passes)
                 if p["fault_p"] is not None and p["fault_p"] >= DETECT), None)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs) -> float:
    return float(np.median(xs))


def percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, float), q))


class Workload:
    name = ""
    min_passes = 1  # quality metrics need at least this many passes
    max_passes = sys.maxsize
    runs_in_child = False  # passes trace themselves in a child process

    def __init__(self, ctx):
        self.ctx = ctx
        self.failures: list[str] = []
        self.attempted = 0

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def verify(self) -> None:
        """Checks of the set-up's output, run once and not timed."""

    def finish(self) -> None:
        """Checks after the timed passes, not timed."""

    def more_passes(self, passes: list[dict]) -> bool:
        """Whether passes must go on after the time and minimum count are met."""
        return False


# --- plan-564 -----------------------------------------------------------------


class Plan564(Workload):
    """Criterion 6's store with an ingest step small enough not to matter.

    The 564 identities are `synthetic_store(564, seed)`'s. The 8 of service
    svc-000 enter through ingest at the Beta(1, 1) prior, so the planted
    fault's detection does not hinge on a random prior; the other 556
    keep criterion 6's beliefs. Each pass scores one pre-built batch of 50
    eight-span traces (a fault on one of the 8 operations), updates the
    store and plans. Batches are written and read through the span JSONL
    format, so the simulator does no work here.
    """

    name = "plan-564"
    min_passes = 40  # ten plans beyond the 75th percentile
    identities = 564
    rows = 10_000
    batches = 10
    batch_size = 50
    quality_passes = 10

    def setup(self) -> None:
        sb, seed = self.ctx.sb, self.ctx.seed
        store = sb.experiment.synthetic_store(self.identities, seed)
        service = sorted(store.beliefs)[0].service
        self.ingested = [i for i in sorted(store.beliefs) if i.service == service]
        for identity in self.ingested:
            del store.beliefs[identity]
        self.store = store
        self.fault = self.ingested[1 + seed % (len(self.ingested) - 1)]
        path = os.path.join(self.ctx.work, "plan-batches.jsonl")
        self._write_batches(path, seed)
        traces = sb.trace_model.read_traces_jsonl(path)
        n = self.batch_size
        self.batch_traces = [traces[k * n:(k + 1) * n] for k in range(self.batches)]
        self.batch_spans = [sum(len(t) for t in b) for b in self.batch_traces]
        self.cfg = sb.abs_sampler.VitalSetConfig(
            percentile_p=PERCENTILE, epsilon=EPSILON,
            **knobs(sb.abs_sampler.VitalSetConfig, self.ctx.applied, "VitalSetConfig",
                    mc_rows=self.rows, rng_seed=seed),
        )
        self.plan_kwargs = knobs(sb.abs_sampler.build_policy, self.ctx.applied,
                                 "build_policy", workers=1)
        warm = sb.experiment.synthetic_store(self.identities, seed)
        sb.abs_sampler.build_policy(warm, self.cfg, **self.plan_kwargs)

    def _write_batches(self, path: str, seed: int) -> None:
        rng = np.random.default_rng([seed, 564])
        ops = self.ingested
        with open(path, "w") as f:
            for t in range(self.batches * self.batch_size):
                self_us = np.maximum(1, np.rint(2000.0 * rng.lognormal(0.0, 0.25, len(ops))))
                for j, op in enumerate(ops):
                    if op == self.fault and rng.random() < 0.2:
                        self_us[j] += max(0, int(rng.normal(30_000, 5_000)))
                # Root calls the other operations one after another.
                child_total = int(self_us[1:].sum())
                start = int(self_us[0]) // 2
                for j, op in enumerate(ops):
                    span = {"traceId": f"b{t:05d}", "spanId": f"s{j}",
                            "service": op.service, "operation": op.operation, "url": op.url}
                    if j == 0:
                        span.update(startUs=0, durationUs=int(self_us[0]) + child_total)
                    else:
                        span.update(parentId="s0", startUs=start, durationUs=int(self_us[j]))
                        start += int(self_us[j])
                    span["tags"] = {}
                    f.write(json.dumps(span) + "\n")

    def run_pass(self, i: int) -> dict:
        sb = self.ctx.sb
        batch = self.batch_traces[i % self.batches]
        t0 = time.perf_counter()
        estimates = sb.utility.compute_batch_utilities(batch, "variance")
        floor = sb.utility.measure_min_samples("variance")
        estimates = [e for e in estimates if e.sample_count >= floor]
        sb.belief.update_epoch(self.store, estimates)
        policy = sb.abs_sampler.build_policy(self.store, self.cfg, **self.plan_kwargs)
        wall = time.perf_counter() - t0
        problems = policy_failures(policy, self.identities)
        self.check(not problems, f"pass {i}: {problems}")
        return {
            "wall_s": wall,
            "spans": self.batch_spans[i % self.batches],
            "traces": len(batch),
            "fault_p": policy.probability(self.fault),
            "fraction": float(np.mean(list(policy.entries.values()))),
        }

    def finish(self) -> None:
        sb = self.ctx.sb
        store = self.store.snapshot()
        first = sb.abs_sampler.build_policy(store, self.cfg, **self.plan_kwargs)
        second = sb.abs_sampler.build_policy(store, self.cfg, **self.plan_kwargs)
        self.check(first.entries == second.entries and first.vital == second.vital,
                   "two plans of the same store differ")
        ids = sorted(store.beliefs)
        problems = oracle_failures(
            ids,
            [store.beliefs[i].alpha for i in ids],
            [store.beliefs[i].beta for i in ids],
            first.vital, PERCENTILE, getattr(self.cfg, "mc_rows", None),
        )
        self.check(not problems, f"oracle: {len(problems)} identities off, e.g. {problems[:2]}")

    def metrics(self, passes: list[dict]) -> dict:
        quality = passes[: self.quality_passes]
        detected = first_detection(passes)
        self.check(detected is not None, f"fault {self.fault} never reached {DETECT}")
        return {
            "traces_to_detect": float(detected * self.batch_size) if detected else None,
            "fraction_enabled": float(np.mean([p["fraction"] for p in quality])),
            "learn_peak_rss_mb": peak_rss_mb(),
        }


# --- loop-presets -------------------------------------------------------------


class LoopPresets(Workload):
    name = "loop-presets"
    presets = ("social", "rail", "media")
    min_passes = 3
    quality_passes = 3

    def setup(self) -> None:
        self.run_knobs = knobs(self.ctx.sb.experiment.RunConfig, self.ctx.applied, "RunConfig",
                               mc_rows=20_000, workers=1)
        for p in self.presets:  # warm-up: two epochs per preset
            self._run(p, 2, self.ctx.seed)

    def _run(self, preset: str, epochs: int, run_seed: int):
        sb = self.ctx.sb
        cfg = sb.experiment.RunConfig(
            preset=preset, seeds=(run_seed,), num_epochs=epochs, batch_size=50,
            request_sampling_rate=1.0, **self.run_knobs,
        )
        return sb.experiment.run_one(cfg, run_seed)

    def run_pass(self, i: int) -> dict:
        run_seed = self.ctx.seed * 1000 + i
        results = {}
        t0 = time.perf_counter()
        for p in self.presets:
            results[p] = self._run(p, 20, run_seed)
        wall = time.perf_counter() - t0
        detect, fraction = [], []
        for p, r in results.items():
            where = f"pass {i} {p}"
            self.check(len(r.rows) == 20, f"{where}: {len(r.rows)} epoch rows, expected 20")
            self.check(r.rows[-1].requests_seen == 1000,
                       f"{where}: {r.rows[-1].requests_seen} requests, expected 1000")
            f = r.cumulative_fraction_enabled()
            self.check(EPSILON <= f <= 1.0, f"{where}: fraction enabled {f}")
            seen = next((row.samples_seen for row in r.rows if row.faulty_probability >= DETECT), None)
            self.check(seen is not None, f"{where}: fault never reached {DETECT}")
            detect.append(seen)
            fraction.append(f)
        return {"wall_s": wall, "detect": detect, "fraction": fraction}

    def metrics(self, passes: list[dict]) -> dict:
        quality = passes[: self.quality_passes]
        detect = [d for p in quality for d in p["detect"] if d is not None]
        return {
            "traces_to_detect": float(np.mean(detect)) if detect else None,
            "fraction_enabled": float(np.mean([f for p in quality for f in p["fraction"]])),
            "learn_peak_rss_mb": peak_rss_mb(),
        }


# --- ingest-rail --------------------------------------------------------------


class IngestRail(Workload):
    name = "ingest-rail"
    runs_in_child = True
    requests = 4000
    min_passes = 4
    max_passes = 8
    quality_passes = 4

    def setup(self) -> None:
        sb, seed = self.ctx.sb, self.ctx.seed
        preset = sb.presets.get_preset("rail")
        workload = dataclasses.replace(
            sb.simulator.with_seed(preset.workload, seed),
            num_requests=self.requests, request_sampling_rate=1.0,
        )
        traces, truth = sb.simulator.simulate_workload(
            preset.topology, preset.anomalies, workload, None
        )
        self.path = os.path.join(self.ctx.work, "rail.jsonl")
        sb.trace_model.write_traces_jsonl(traces, self.path)
        self.spans = sum(len(t) for t in traces)
        self.faults = [(i.service, i.operation, i.url) for i in truth.faulty]
        self.weights = {
            (i.service, i.operation, i.url): w
            for i, w in preset.topology.occurrence_counts().items()
        }

    def verify(self) -> None:
        sb = self.ctx.sb
        traces = sb.trace_model.read_traces_jsonl(self.path)
        self.check(len(traces) == self.requests, f"file holds {len(traces)} traces")
        spans = bad = 0
        for trace in traces:
            for d in sb.trace_model.decompose(trace):
                spans += 1
                bad += d.duration_us != d.child_waiting_us + d.self_segment_us
        self.check(spans == self.spans, f"file holds {spans} spans, simulated {self.spans}")
        self.check(bad == 0, f"{bad} spans break duration == child_waiting + self_segment")
        flags = cli_flags(sb.cli, "learn")
        self.learn_flags = []
        if "--workers" in flags:
            self.learn_flags += ["--workers", "1"]
        if "--seed" in flags:
            self.learn_flags += ["--seed", str(self.ctx.seed)]
        self.ctx.applied["learn"] = self.learn_flags[::2]
        self.state = os.path.join(self.ctx.work, "state.json")

    def run_pass(self, i: int, trace: bool = False) -> dict:
        work = self.ctx.work
        policy_path = os.path.join(work, "policy.json")
        report = os.path.join(work, f"child-{i}.json")
        stdout = os.path.join(work, f"child-{i}.out")
        argv = [sys.executable, os.path.join(self.ctx.bench_dir, "child.py"),
                report, "1" if trace else "0",
                "learn", "--in", self.path, "--state", self.state,
                "--policy-out", policy_path, *self.learn_flags]
        with open(stdout, "w") as out:
            t0 = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, cwd=self.ctx.root)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        where = f"learn {i}"
        result = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "spans": self.spans,
                  "traces": self.requests,
                  "plan_ms": [], "fault_p": None, "fraction": None, "child": None}
        if not self.check(child.returncode == 0, f"{where}: exit code {child.returncode}"):
            return result
        with open(stdout) as f:
            summary = json.loads(f.read().strip().splitlines()[-1])
        self.check(summary.get("traces") == self.requests,
                   f"{where}: traces {summary.get('traces')}, expected {self.requests}")
        tracked, entries = summary.get("identitiesTracked"), summary.get("policyEntries")
        self.check(tracked == entries == len(self.weights),
                   f"{where}: {tracked} tracked, {entries} planned, expected {len(self.weights)}")
        with open(policy_path) as f:
            policy = {
                (e["service"], e["operation"], e.get("url", "")): e["probability"]
                for e in json.load(f)["entries"]
            }
        with open(report) as f:
            result["child"] = json.load(f)
        result["child_spans"] = report + ".spans.jsonl"
        result["plan_ms"] = result["child"]["plan_ms"]
        result["fault_p"] = float(np.mean([policy.get(k, 1.0) for k in self.faults]))
        total = sum(self.weights.values())
        result["fraction"] = sum(w * policy.get(k, 1.0) for k, w in self.weights.items()) / total
        return result

    def metrics(self, passes: list[dict]) -> dict:
        quality = passes[: self.quality_passes]
        detected = first_detection(passes)
        self.check(detected is not None, f"rail fault never reached {DETECT}")
        return {
            "traces_to_detect": float(detected * self.requests) if detected else None,
            "fraction_enabled": float(np.mean([p["fraction"] for p in quality if p["fraction"] is not None])),
            "learn_peak_rss_mb": median([p["rss_mb"] for p in passes]),
        }

    def more_passes(self, passes: list[dict]) -> bool:
        """Keep learning until the fault is detected (max_passes caps it)."""
        return first_detection(passes) is None


WORKLOADS = {w.name: w for w in (Plan564, LoopPresets, IngestRail)}
