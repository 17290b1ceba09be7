"""Outside-in benchmark of the spanbandit controller.

    python3 perfbench/run.py --workload {plan-564,loop-presets,ingest-rail}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from `src/`
there, never from an installed copy. Inputs come from the seed alone.
Passes repeat for at least S seconds (and at least the workload's minimum
pass count). The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced run with --trace 1.
See perfbench/README.md for what each metric measures.
"""
import os

# One thread everywhere: nproc is small and the planner must not fan out.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, median, percentile  # noqa: E402

SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "plan_ms_p50": "ms",
    "plan_ms_p75": "ms",
    "loop_s": "s",
    "fraction_enabled": "ratio",
    "traces_to_detect": "traces",
    "ingest_spans_per_s": "spans/s",
    "learn_peak_rss_mb": "MB",
}

COUNTERS = {
    "simulator.spans_recorded_ratio": "ratio",
    "utility.thin_estimates": "count",
    "abs_sampler.ids_at_floor": "count",
    "abs_sampler.identities_planned": "count",
}
OVERHEAD = {
    "bench.untraced_wall_ms": "ms",
    "bench.traced_wall_ms": "ms",
    "bench.trace_overhead_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
    "bench.spans_wall_ms": "ms",
    "bench.untraced_remainder_ms": "ms",
}


def per_layer_units() -> dict:
    units = {}
    for module, name in tracing.TRACED:
        units[f"{module}.{name}.calls"] = "count"
        units[f"{module}.{name}.busy_ms"] = "ms"
        units[f"{module}.{name}.self_ms"] = "ms"
    units.update(COUNTERS)
    units.update(OVERHEAD)
    return units


class Context:
    def __init__(self, sb, root: str, seed: int, work: str):
        self.sb = sb
        self.root = root
        self.seed = seed
        self.work = work
        self.bench_dir = os.path.dirname(os.path.abspath(__file__))
        self.applied: dict = {}  # planner knobs passed, by the API that took them


def import_package(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spanbandit", "__init__.py")):
        raise SystemExit(f"error: no spanbandit package under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import spanbandit
    import spanbandit.cli  # noqa: F401

    if not os.path.abspath(spanbandit.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"error: spanbandit imported from {spanbandit.__file__}, not {src}")
    return spanbandit


IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import spanbandit.cli; print(time.perf_counter() - t)"
)


def import_seconds(root: str) -> list[float]:
    """Wall time of importing the package in fresh interpreters, once per set-up."""
    out = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, os.path.join(root, "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout.strip()))
    return out


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def machine_record(root: str, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "commit": commit,
        "src_sha256": source_digest(root),
    }


def probe_pass(wl, k: int, probe) -> dict:
    """Pass k with only the probe installed: plan latency and spans recorded."""
    gc.collect()
    since = len(probe.spans)
    recorded = probe.counters.spans_recorded
    with probe:
        p = wl.run_pass(k)
    p.setdefault("plan_ms", probe.durations_ms("abs_sampler.build_policy", since))
    p.setdefault("spans", probe.counters.spans_recorded - recorded)
    return p


def run_passes(wl, seconds: float) -> list[dict]:
    """Untraced passes for at least `seconds` and the workload's minimum count."""
    probe = tracing.Tracer(tracing.PROBE)
    passes = []
    t0 = time.perf_counter()
    while len(passes) < wl.max_passes:
        passes.append(probe_pass(wl, len(passes), probe))
        if (time.perf_counter() - t0 >= seconds and len(passes) >= wl.min_passes
                and not wl.more_passes(passes)):
            break
    return passes


def end_to_end(wl, passes: list[dict], setup_s: float) -> tuple[dict, dict]:
    plans = [ms for p in passes for ms in p["plan_ms"]]
    wl.check(bool(plans), "no plan was timed")
    values = {
        "setup_s": setup_s,
        "plan_ms_p50": percentile(plans, 50) if plans else 0.0,
        "plan_ms_p75": percentile(plans, 75) if plans else 0.0,
        "loop_s": median([p["wall_s"] for p in passes]),
        "ingest_spans_per_s": median([p["spans"] / p["wall_s"] for p in passes]),
    }
    values.update(wl.metrics(passes))
    if values["traces_to_detect"] is None:
        # Not detected (a failed check): report the traces seen as a lower bound.
        values["traces_to_detect"] = float(sum(p.get("traces", 0) for p in passes))
    samples = {"passes": len(passes), "plans": len(plans),
               "pass_walls_s": [round(p["wall_s"], 4) for p in passes]}
    return values, samples


def per_layer(wl, ctx, setup_tracer, pass_tracer, child_records, n_passes,
              untraced_setup_s, untraced_pass_s, traced_setup_s, traced_pass_s, out_path):
    """Per-layer calls, busy and self time for one set-up plus one mean pass."""
    records = tracing.to_records(setup_tracer.spans, setup_tracer.segments, setup_tracer.origin)
    if pass_tracer is not None:
        records += tracing.to_records(pass_tracer.spans, pass_tracer.segments, pass_tracer.origin)
    records += child_records
    tracing.write_jsonl(records, out_path)
    self_us = tracing.self_times_us(records)

    # Cross-check self time against the package's own decomposition.
    mismatched = 0
    for trace in ctx.sb.trace_model.read_traces_jsonl(out_path):
        for d in ctx.sb.trace_model.decompose(trace):
            mismatched += d.self_segment_us != self_us[(trace.trace_id, d.span_id)]
    wl.check(mismatched == 0, f"{mismatched} span self times differ from trace_model.decompose")

    totals: dict = {}
    span_wall = remainder = 0.0
    for r in records:
        weight = 1.0 if r["traceId"] == "setup" else 1.0 / n_passes
        key = f"{r['service']}.{r['operation']}"
        if key == "bench.segment":
            span_wall += weight * r["durationUs"] / 1000.0
            remainder += weight * self_us[(r["traceId"], r["spanId"])] / 1000.0
            continue
        t = totals.setdefault(key, [0.0, 0.0, 0.0])
        t[0] += weight
        t[1] += weight * r["durationUs"] / 1000.0
        t[2] += weight * self_us[(r["traceId"], r["spanId"])] / 1000.0

    values = {}
    for module, name in tracing.TRACED:
        calls, busy, self_ms = totals.get(f"{module}.{name}", (0.0, 0.0, 0.0))
        values[f"{module}.{name}.calls"] = calls
        values[f"{module}.{name}.busy_ms"] = busy
        values[f"{module}.{name}.self_ms"] = self_ms
    layer_self = sum(t[2] for t in totals.values())
    wl.check(abs(layer_self + remainder - span_wall) < 1e-6 * max(1.0, span_wall),
             f"self times {layer_self} + remainder {remainder} != traced wall {span_wall}")

    untraced = (untraced_setup_s + untraced_pass_s) * 1000.0
    traced = (traced_setup_s + traced_pass_s) * 1000.0
    values.update({
        "bench.untraced_wall_ms": untraced,
        "bench.traced_wall_ms": traced,
        "bench.trace_overhead_ms": traced - untraced,
        "bench.trace_overhead_ratio": (traced - untraced) / untraced,
        "bench.spans_wall_ms": span_wall,
        "bench.untraced_remainder_ms": remainder,
    })
    return values


def counter_values(counters: list[dict], n_passes: int) -> dict:
    total = {k: sum(c[k] for c in counters) for k in
             ("spans_recorded", "spans_possible", "thin_estimates", "plans",
              "identities_planned", "ids_at_floor")}
    plans = total["plans"] or 1
    return {
        "simulator.spans_recorded_ratio":
            total["spans_recorded"] / total["spans_possible"] if total["spans_possible"] else 0.0,
        "utility.thin_estimates": total["thin_estimates"] / n_passes,
        "abs_sampler.ids_at_floor": total["ids_at_floor"] / plans,
        "abs_sampler.identities_planned": total["identities_planned"] / plans,
    }


def traced_run(wl, ctx, args, setup_walls: list[float]) -> tuple[dict, dict]:
    """One traced set-up, then pairs of an untraced and a traced pass on the
    same inputs, for at least `--seconds`. The pairs give the overhead."""
    setup_tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with setup_tracer, setup_tracer.segment("setup"):
        wl.setup()
    traced_setup_s = time.perf_counter() - t0

    probe = tracing.Tracer(tracing.PROBE)
    pass_tracer = None if wl.runs_in_child else tracing.Tracer()
    untraced, walls, counters, child_records = [], [], [], []
    t0 = time.perf_counter()
    while not walls or (time.perf_counter() - t0 < args.seconds and len(walls) < wl.max_passes):
        k = len(walls)
        untraced.append(probe_pass(wl, k, probe))
        gc.collect()
        if wl.runs_in_child:
            p = wl.run_pass(k, trace=True)
            if p["child"] is not None:
                counters.append(p["child"]["counters"])
                for r in tracing.read_jsonl(p["child_spans"]):
                    r["traceId"] = f"pass-{k}"
                    child_records.append(r)
        else:
            with pass_tracer, pass_tracer.segment(f"pass-{k}"):
                p = wl.run_pass(k)
        walls.append(p["wall_s"])
    if pass_tracer is not None:
        counters.append(pass_tracer.counters.as_dict())
    wl.finish()

    n = len(walls)
    out_dir = os.path.join(ctx.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    dump = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    values = per_layer(
        wl, ctx, setup_tracer, pass_tracer, child_records, n,
        median(setup_walls), float(np.mean([p["wall_s"] for p in untraced])),
        traced_setup_s, float(np.mean(walls)), dump,
    )
    values.update(counter_values(counters, n))
    samples = {"pairs": n, "absent": setup_tracer.absent,
               "span_dump": os.path.relpath(dump, ctx.root)}
    return values, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    sb = import_package(root)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    work = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        ctx = Context(sb, root, args.seed, work)
        wl = WORKLOADS[args.workload](ctx)

        setup_walls = []
        for _ in range(SETUP_REPS):
            gc.collect()
            t0 = time.perf_counter()
            wl.setup()
            setup_walls.append(time.perf_counter() - t0)
        import_walls = import_seconds(root)
        setup_s = median(import_walls) + median(setup_walls)
        wl.verify()

        if not args.trace:
            passes = run_passes(wl, args.seconds)
            wl.finish()
            values, samples = end_to_end(wl, passes, setup_s)
            units = END_TO_END
        else:
            values, samples = traced_run(wl, ctx, args, setup_walls)
            units = per_layer_units()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    samples["import_walls_s"] = [round(w, 4) for w in import_walls]
    samples["setup_walls_s"] = [round(w, 4) for w in setup_walls]
    record = {
        "workload": args.workload,
        "machine": machine_record(root, args.seed),
        "knobs_applied": ctx.applied,
        "samples": samples,
        "failures": wl.failures[:20],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:<44} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not wl.failures,
        "attempted": wl.attempted,
        "failed": len(wl.failures),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
