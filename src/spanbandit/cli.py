"""Command line front end.

Errors are reported as a single JSON object on stderr with exit code 2,
so scripted callers can tell a usage problem from a crash. The default
seed comes from SPANBANDIT_SEED when set.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, fields, replace

from .abs_sampler import VitalSetConfig, load_policy, report, save_policy
from .baselines import ENV_KINDS, ComparisonConfig, compare_elimination
from .belief import UPDATE_MODES, BeliefStore, load_store, save_store, write_json
from .experiment import (
    DETECT_THRESHOLD,
    SWEEPABLE,
    WITHIN_TRACES,
    RunConfig,
    run_experiment,
    sweep,
    write_epoch_rows,
    write_sweep_csv,
)
from .presets import get_preset, preset_names
from .simulator import (
    ControllerConfig,
    ground_truth_to_json_dict,
    load_spec,
    simulate_workload,
)
from .tag_analysis import DEFAULT_TARGET, TARGETS, build_tag_matrix, correlation_report, strongest_tag
from .trace_model import (
    SpanIdentity,
    read_traces_jsonl,
    self_segments_us,
    write_traces_jsonl,
)
from .utility import DEFAULT_MEASURE
from .version import VERSION


def _resolve_seed(args, fallback: int = 0) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get("SPANBANDIT_SEED")
    return int(raw) if raw else fallback


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_inputs(args):
    if getattr(args, "spec", None):
        return load_spec(args.spec)
    preset = get_preset(args.preset)
    return preset.topology, preset.anomalies, preset.workload


def _cmd_simulate(args) -> int:
    topology, anomalies, workload = _load_inputs(args)
    seed = _resolve_seed(args, workload.rng_seed)
    workload = replace(
        workload,
        rng_seed=seed,
        num_requests=args.requests if args.requests is not None else workload.num_requests,
        request_sampling_rate=args.rate if args.rate is not None else workload.request_sampling_rate,
    )
    policy = load_policy(args.policy) if args.policy else None
    traces, truth = simulate_workload(topology, anomalies, workload, policy)
    write_traces_jsonl(traces, args.out)
    if args.truth_out:
        write_json(ground_truth_to_json_dict(truth), args.truth_out)
    _print_json(
        {
            "command": "simulate",
            "source": args.spec or args.preset,
            "seed": seed,
            "requests": workload.num_requests,
            "traces": len(traces),
            "out": args.out,
            "truthOut": args.truth_out,
            "version": VERSION,
        }
    )
    return 0


def _cmd_decompose(args) -> int:
    traces = read_traces_jsonl(args.input, lenient=args.lenient)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(
            [
                "trace_id",
                "span_id",
                "service",
                "operation",
                "url",
                "duration_us",
                "child_waiting_us",
                "self_segment_us",
            ]
        )
        # One union over the whole file; its rows run in (trace, preorder) order.
        self_us = iter(self_segments_us(traces).tolist())
        for trace in traces:
            for span_id, identity, duration in zip(
                trace.span_ids, trace.identities, trace.duration_us.tolist()
            ):
                own = next(self_us)
                writer.writerow(
                    [
                        trace.trace_id,
                        span_id,
                        identity.service,
                        identity.operation,
                        identity.url,
                        duration,
                        duration - own,
                        own,
                    ]
                )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_learn(args) -> int:
    store = load_store(args.state) if os.path.exists(args.state) else BeliefStore()
    # replace() re-runs the store's validation on the overridden knobs.
    overrides = {k: v for k, v in (("lam", args.lam), ("mode", args.mode)) if v is not None}
    store = replace(store, **overrides)
    # The controller checks every knob before the input is read or the state written.
    controller = ControllerConfig(
        measure=args.measure, lam=store.lam, mode=store.mode, percentile=args.percentile, epsilon=args.epsilon
    )
    traces = read_traces_jsonl(args.input, lenient=args.lenient)
    estimates = controller.learn(store, traces)
    save_store(store, args.state_out or args.state)
    policy_entries = None
    if args.policy_out:
        policy = controller.plan(store)
        save_policy(policy, args.policy_out)
        policy_entries = len(policy.entries)
    _print_json(
        {
            "command": "learn",
            "traces": len(traces),
            "identitiesUpdated": len(estimates),
            "identitiesTracked": len(store.beliefs),
            "epoch": store.epoch,
            "state": args.state_out or args.state,
            "policyOut": args.policy_out,
            "policyEntries": policy_entries,
            "version": VERSION,
        }
    )
    return 0


def _cmd_report(args) -> int:
    if args.top is not None and args.top < 1:
        raise ValueError(f"--top must be at least 1, got {args.top}")
    # The planner flags are checked even when --policy makes them unused.
    controller = ControllerConfig(percentile=args.percentile, epsilon=args.epsilon)
    store = load_store(args.state)
    policy = load_policy(args.policy) if args.policy else controller.plan(store)
    rep = report(policy, store)
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(rep.to_csv())
    print(rep.format_table(args.top))
    return 0


def _cmd_experiment(args) -> int:
    if not 0.0 < args.threshold <= 1.0:  # NaN fails every comparison
        raise ValueError(f"--threshold must lie in (0, 1], got {args.threshold}")
    if args.within < 1:
        raise ValueError(f"--within must be at least 1, got {args.within}")
    # Every RunConfig field but the seed list has a flag of the same dest.
    config = RunConfig(
        seeds=tuple(int(s) for s in args.seeds.split(",") if s != ""),
        **{f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name != "seeds"},
    )
    if args.sweep:
        values = [float(v) for v in args.values.split(",") if v != ""]
        if not values:
            raise ValueError("--sweep needs --values, a comma list of numbers")
        points = sweep(config, args.sweep, values, threshold=args.threshold)
        if args.out:
            write_sweep_csv(points, config, args.out)
        _print_json({"command": "experiment", "sweep": [asdict(p) for p in points], "version": VERSION})
        return 0
    result = run_experiment(config)
    if args.out:
        write_epoch_rows(result, args.out)
    _print_json({"command": "experiment", **result.summary_dict(args.threshold, args.within)})
    return 0


def _cmd_tags(args) -> int:
    traces = read_traces_jsonl(args.input, lenient=args.lenient)
    if args.service or args.operation:
        if not (args.service and args.operation):
            raise ValueError("--service and --operation must be given together")
        matrix = build_tag_matrix(traces, SpanIdentity(args.service, args.operation, args.url or ""))
    else:
        best = strongest_tag(traces, target=args.target)
        if best is None:
            raise ValueError("no tagged spans with usable variation found")
        matrix = best[0]
    rows = correlation_report(matrix, target=args.target)
    if args.json:
        _print_json(
            {
                "command": "tags",
                "identity": matrix.identity.label(),
                "rows": matrix.num_rows,
                "target": args.target,
                "correlations": [asdict(r) for r in rows],
                "version": VERSION,
            }
        )
        return 0
    print(f"identity: {matrix.identity.label()}  rows: {matrix.num_rows}  target: {args.target}")
    print(f"{'tag':<24} {'kind':<8} {'r':>9}  flags")
    for row in rows:
        flag = "degenerate" if row.degenerate else ""
        print(f"{row.key:<24} {row.kind:<8} {row.r:>9.4f}  {flag}")
    return 0


def _cmd_compare(args) -> int:
    config = ComparisonConfig(
        num_arms=args.arms,
        budget=args.budget,
        env_kind=args.env,
        seed=_resolve_seed(args),
        ege_quota_cap=args.ege_cap,
        ege_me_cap=args.ege_me_cap,
        abs_percentile=args.percentile,
    )
    result = compare_elimination(config)
    payload = result.to_json_dict()
    if args.out:
        write_json(payload, args.out)
    _print_json(
        {
            "command": "compare-baselines",
            "survivors": result.survivor_counts(),
            "eliminatedFraction": {
                name: o.eliminated_fraction(result.env.num_arms)
                for name, o in sorted(result.outcomes.items())
            },
            "samplesUsed": {
                name: o.samples_used for name, o in sorted(result.outcomes.items())
            },
            "topArmRecall": result.top_arm_recall(),
            "out": args.out,
            "version": VERSION,
        }
    )
    return 0


def _add_planner_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--percentile", type=float, default=VitalSetConfig.percentile_p,
                   help="vital-set percentile P")
    p.add_argument("--epsilon", type=float, default=VitalSetConfig.epsilon, help="exploration floor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanbandit",
        description="Span-level adaptive trace sampling: simulate, learn, inspect.",
    )
    parser.add_argument("--version", action="version", version=f"spanbandit {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate traces from a preset or spec file")
    p.add_argument("--preset", choices=preset_names(), default=RunConfig.preset)
    p.add_argument("--spec", help="JSON file with topology, anomalies, workload")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--truth-out", help="write fault ground truth JSON here")
    p.add_argument("--policy", help="sample spans under this policy file")
    p.add_argument("--requests", type=int)
    p.add_argument("--rate", type=float, help="head sampling rate in (0, 1]")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("decompose", help="self-time decomposition of a trace file, as CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.add_argument("--lenient", action="store_true", help="re-parent orphan spans instead of failing")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("learn", help="one belief update from a batch of traces")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--state", required=True, help="belief snapshot JSON, read if present")
    p.add_argument("--state-out", help="write the snapshot here instead of --state")
    p.add_argument("--measure", default=DEFAULT_MEASURE)
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="forgetting factor")
    p.add_argument("--mode", choices=UPDATE_MODES, default=None)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--policy-out", help="also plan and save a policy")
    _add_planner_flags(p)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("report", help="rank identities by vital-set probability")
    p.add_argument("--state", required=True)
    p.add_argument("--policy", help="use this policy file instead of re-planning")
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--csv", help="also write the full table as CSV")
    _add_planner_flags(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("experiment", help="closed-loop runs over seeds, with optional sweeps")
    p.add_argument("--preset", choices=preset_names(), default=RunConfig.preset)
    p.add_argument("--seeds", default=",".join(map(str, RunConfig.seeds)), help="comma list of seeds")
    p.add_argument("--epochs", dest="num_epochs", metavar="EPOCHS", type=int, default=RunConfig.num_epochs)
    p.add_argument("--batch-size", type=int, default=RunConfig.batch_size)
    p.add_argument("--rate", dest="request_sampling_rate", metavar="RATE", type=float,
                   default=RunConfig.request_sampling_rate)
    p.add_argument("--measure", default=RunConfig.measure)
    p.add_argument("--lambda", dest="lam", type=float, default=RunConfig.lam)
    p.add_argument("--mode", choices=UPDATE_MODES, default=RunConfig.mode)
    p.add_argument("--threshold", type=float, default=DETECT_THRESHOLD,
                   help="faulty-probability convergence threshold")
    p.add_argument("--within", type=int, default=WITHIN_TRACES, help="trace budget for convergedFraction")
    p.add_argument("--sweep", choices=SWEEPABLE)
    p.add_argument("--values", default="", help="comma list of sweep values")
    p.add_argument("--out", help="CSV output path")
    _add_planner_flags(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("tags", help="correlate span tags with latency")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--service")
    p.add_argument("--operation")
    p.add_argument("--url", default="")
    p.add_argument("--target", choices=TARGETS, default=DEFAULT_TARGET)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tags)

    p = sub.add_parser("compare-baselines", help="elimination baselines vs the belief sampler")
    p.add_argument("--arms", type=int, default=ComparisonConfig.num_arms)
    p.add_argument("--budget", type=int, default=ComparisonConfig.budget)
    p.add_argument("--env", choices=ENV_KINDS, default=ComparisonConfig.env_kind)
    p.add_argument("--seed", type=int)
    p.add_argument("--ege-cap", type=int, default=ComparisonConfig.ege_quota_cap,
                   help="per-arm round quota cap for the gap baseline")
    p.add_argument("--ege-me-cap", type=int, default=ComparisonConfig.ege_me_cap,
                   help="quota cap inside its reference search")
    p.add_argument("--percentile", type=float, default=ComparisonConfig.abs_percentile)
    p.add_argument("--out", help="write the full comparison JSON here")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, KeyError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, KeyError) and exc.args:
            message = str(exc.args[0])
        print(
            json.dumps({"error": type(exc).__name__, "message": message}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
