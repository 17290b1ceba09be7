"""Multi-seed experiment harness over the closed loop, plus sweeps.

Every CSV produced here starts with a `# config:` comment carrying the
full run configuration and package version, so a result file is enough
to reproduce the run that made it.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .belief import BeliefStore, BetaBelief
from .presets import get_preset
from .simulator import (
    ControllerConfig,
    EpochMetrics,
    InvalidTopology,
    RunResult,
    WorkloadSpec,
    run_closed_loop,
    with_seed,
)
from .trace_model import SpanIdentity
from .version import VERSION

# A run has found its fault once the faulty identities' mean sampling probability
# reaches DETECT_THRESHOLD; convergedFraction counts seeds that do so within WITHIN_TRACES.
DETECT_THRESHOLD = 0.9
WITHIN_TRACES = 500


@dataclass(frozen=True)
class RunConfig(ControllerConfig):
    """The controller's knobs plus the preset, seeds and workload they run on."""

    preset: str = "social"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    num_epochs: int = 20
    batch_size: int = WorkloadSpec.batch_size
    request_sampling_rate: float = WorkloadSpec.request_sampling_rate

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            twice = next(s for s in self.seeds if self.seeds.count(s) > 1)
            raise ValueError(f"seeds must be distinct; seed {twice} is listed more than once")
        try:  # every seed's workload is built, and so checked, before the first run
            for seed in self.seeds:
                WorkloadSpec(
                    batch_size=self.batch_size, request_sampling_rate=self.request_sampling_rate, rng_seed=seed
                )
        except InvalidTopology as e:
            # The workload names its spec-file keys; say which fields here feed them.
            raise InvalidTopology(f"{e} (from seeds, batch_size or request_sampling_rate)") from e
        if self.num_epochs < 1:
            raise ValueError(f"num_epochs must be at least 1, got {self.num_epochs}")

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        d["version"] = VERSION
        return d


def run_one(config: RunConfig, seed: int) -> RunResult:
    preset = get_preset(config.preset)
    workload = replace(
        with_seed(preset.workload, seed),
        batch_size=config.batch_size,
        request_sampling_rate=config.request_sampling_rate,
    )
    return run_closed_loop(
        preset.topology, preset.anomalies, workload, config, num_epochs=config.num_epochs
    )


@dataclass
class ExperimentResult:
    config: RunConfig
    results: dict[int, RunResult] = field(default_factory=dict)

    def _first_reaching(self, seed: int, threshold: float) -> EpochMetrics | None:
        return next(
            (r for r in self.results[seed].rows if r.faulty_probability >= threshold), None
        )

    def traces_to_reach(self, seed: int, threshold: float = DETECT_THRESHOLD) -> int | None:
        row = self._first_reaching(seed, threshold)
        return None if row is None else row.samples_seen

    def requests_to_reach(self, seed: int, threshold: float = DETECT_THRESHOLD) -> int | None:
        row = self._first_reaching(seed, threshold)
        return None if row is None else row.requests_seen

    def converged_fraction(
        self, threshold: float = DETECT_THRESHOLD, within_traces: int | None = None
    ) -> float:
        hits = 0
        for seed in self.results:
            reached = self.traces_to_reach(seed, threshold)
            if reached is not None and (within_traces is None or reached <= within_traces):
                hits += 1
        return hits / len(self.results)

    def mean_over_seeds(self, fn) -> float:
        return float(np.mean([fn(r) for r in self.results.values()]))

    def summary_dict(
        self, threshold: float = DETECT_THRESHOLD, within_traces: int | None = WITHIN_TRACES
    ) -> dict:
        traces_needed = [self.traces_to_reach(s, threshold) for s in self.results]
        requests_needed = [self.requests_to_reach(s, threshold) for s in self.results]
        reached = [t for t in traces_needed if t is not None]
        reached_req = [t for t in requests_needed if t is not None]
        final_top5 = [r.rows[-1].top5_hit for r in self.results.values()]
        return {
            "config": self.config.to_json_dict(),
            "seeds": len(self.results),
            "convergedFraction": self.converged_fraction(threshold, within_traces),
            "threshold": threshold,
            "withinTraces": within_traces,
            "meanTracesToReach": float(np.mean(reached)) if reached else None,
            "meanRequestsToReach": float(np.mean(reached_req)) if reached_req else None,
            "meanCumulativeFractionEnabled": self.mean_over_seeds(
                lambda r: r.cumulative_fraction_enabled()
            ),
            "meanFinalFractionEnabled": self.mean_over_seeds(
                lambda r: r.rows[-1].fraction_enabled
            ),
            "meanFinalFaultyProbability": self.mean_over_seeds(
                lambda r: r.rows[-1].faulty_probability
            ),
            "finalTop5HitRate": float(np.mean(final_top5)),
        }


def run_experiment(config: RunConfig) -> ExperimentResult:
    out = ExperimentResult(config=config)
    for seed in config.seeds:
        out.results[seed] = run_one(config, seed)
    return out


def write_epoch_rows(result: ExperimentResult, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# config: {json.dumps(result.config.to_json_dict(), sort_keys=True)}\n")
        writer = csv.writer(f)
        writer.writerow(["seed", *(c.name for c in fields(EpochMetrics))])
        for seed in sorted(result.results):
            for row in result.results[seed].rows:
                writer.writerow(
                    [
                        seed,
                        row.epoch,
                        row.samples_seen,
                        row.requests_seen,
                        f"{row.faulty_probability:.6f}",
                        f"{row.fraction_enabled:.6f}",
                        int(row.top1_hit),
                        int(row.top3_hit),
                        int(row.top5_hit),
                        f"{row.inference_ms:.3f}",
                    ]
                )


# --- sweeps ---------------------------------------------------------------

SWEEPABLE = ("percentile", "epsilon", "request_sampling_rate")


@dataclass(frozen=True)
class SweepPoint:
    param: str
    value: float
    converged_fraction: float
    mean_traces_to_reach: float | None
    mean_requests_to_reach: float | None
    mean_cumulative_fraction_enabled: float
    mean_final_fraction_enabled: float
    mean_final_faulty_probability: float


def sweep(config: RunConfig, param: str, values, threshold: float = DETECT_THRESHOLD) -> list[SweepPoint]:
    """Re-run the experiment for each value of one knob."""
    if param not in SWEEPABLE:
        raise ValueError(f"cannot sweep {param!r}; one of {SWEEPABLE}")
    # Every swept config is built, and so checked, before the first run.
    configs = [replace(config, **{param: float(value)}) for value in values]
    points = []
    for swept in configs:
        summary = run_experiment(swept).summary_dict(threshold, None)
        points.append(
            SweepPoint(
                param=param,
                value=getattr(swept, param),
                converged_fraction=summary["convergedFraction"],
                mean_traces_to_reach=summary["meanTracesToReach"],
                mean_requests_to_reach=summary["meanRequestsToReach"],
                mean_cumulative_fraction_enabled=summary["meanCumulativeFractionEnabled"],
                mean_final_fraction_enabled=summary["meanFinalFractionEnabled"],
                mean_final_faulty_probability=summary["meanFinalFaultyProbability"],
            )
        )
    return points


def write_sweep_csv(points: list[SweepPoint], config: RunConfig, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# config: {json.dumps(config.to_json_dict(), sort_keys=True)}\n")
        writer = csv.writer(f)
        writer.writerow([c.name for c in fields(SweepPoint)])
        for p in points:
            writer.writerow(
                [
                    p.param,
                    p.value,
                    f"{p.converged_fraction:.4f}",
                    "" if p.mean_traces_to_reach is None else f"{p.mean_traces_to_reach:.1f}",
                    "" if p.mean_requests_to_reach is None else f"{p.mean_requests_to_reach:.1f}",
                    f"{p.mean_cumulative_fraction_enabled:.6f}",
                    f"{p.mean_final_fraction_enabled:.6f}",
                    f"{p.mean_final_faulty_probability:.6f}",
                ]
            )


def synthetic_store(num_identities: int, seed: int = 0) -> BeliefStore:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 9001))))
    beliefs = {}
    for i in range(num_identities):
        identity = SpanIdentity(f"svc-{i // 8:03d}", f"op-{i % 8}")
        beliefs[identity] = BetaBelief(
            alpha=float(1.0 + 9.0 * rng.random()), beta=float(1.0 + 9.0 * rng.random())
        )
    return BeliefStore(epoch=1, beliefs=beliefs)
