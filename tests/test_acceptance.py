"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
"[criterion N] ... PASS/FAIL" line with the measured numbers (run pytest
with -rA or -s to see the lines for passing tests). The runs are fully
seeded; every number here is reproducible by re-running the module.

Criterion 6 is a wall-clock bound that assumes a multi-core desktop
class CPU; on a single-core container it fails honestly rather than
being relaxed.

The closed-loop runs behind criteria 1-4 are independent and seeded, so
they are spread over up to two forked worker processes (see `_map`). The
results are the ones a serial loop gives; only the wall time shrinks.
"""
import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from spanbandit import (
    BeliefStore,
    BetaBelief,
    ComparisonConfig,
    ControllerConfig,
    RandomDelayAnomaly,
    RunConfig,
    SpanIdentity,
    VitalSetConfig,
    WorkloadSpec,
    build_policy,
    build_tag_matrix,
    closed_loop,
    compare_elimination,
    correlation_report,
    decompose,
    generate_request,
    get_preset,
    pool_self_segments,
    run_closed_loop,
    run_one,
    simulate_workload,
    sweep,
    update_epoch,
    with_seed,
)
from spanbandit import experiment
from spanbandit.abs_sampler import policy_to_json_dict
from spanbandit.experiment import synthetic_store
from spanbandit.simulator import request_rng
from spanbandit.utility import UtilityEstimate

pytestmark = pytest.mark.acceptance

PRESETS = ("social", "rail", "media")
SEEDS = tuple(range(20))
THRESHOLD = 0.9


def _samples_to_reach(result, threshold=THRESHOLD):
    for row in result.rows:
        if row.faulty_probability >= threshold:
            return row.samples_seen
    return None


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _map(fn, *iterables):
    """list(map(fn, *iterables)), run in up to two forked processes.

    Every call is fully seeded and shares no state with the others, so
    the results equal a serial loop's, in the same order.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(2, cpus or 1)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(fn, *iterables))
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(fn, *iterables))


def _timed_default_run(preset, seed):
    t0 = time.perf_counter()
    cfg = RunConfig(preset=preset, seeds=(seed,), num_epochs=20)
    result = run_one(cfg, seed)
    return result, time.perf_counter() - t0


def _randomized_fault_run(preset, seed):
    p = get_preset(preset)
    ids = [i for i in p.topology.identities() if i != p.topology.root]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 4401))))
    target = ids[int(rng.integers(len(ids)))]
    result = run_closed_loop(
        p.topology,
        (RandomDelayAnomaly(target),),
        with_seed(p.workload, seed),
        ControllerConfig(),
        num_epochs=20,
    )
    return target, result


@pytest.fixture(scope="module")
def default_runs():
    """Criterion 1/3 runs: every preset's built-in fault, default knobs.

    `elapsed` sums each preset's per-run wall times, which is what a
    serial loop over its 20 seeds takes.
    """
    keys = [(preset, seed) for preset in PRESETS for seed in SEEDS]
    timed = _map(_timed_default_run, *zip(*keys))
    runs = {key: result for key, (result, _) in zip(keys, timed)}
    elapsed = dict.fromkeys(PRESETS, 0.0)
    for (preset, _), (_, seconds) in zip(keys, timed):
        elapsed[preset] += seconds
    return runs, elapsed


@pytest.fixture(scope="module")
def randomized_fault_runs():
    """Criterion 2/3 runs: fault target drawn per seed, default knobs."""
    keys = [(preset, seed) for preset in PRESETS for seed in SEEDS]
    return dict(zip(keys, _map(_randomized_fault_run, *zip(*keys))))


def test_criterion_1_fault_localization_convergence(default_runs):
    runs, elapsed = default_runs
    fractions = {}
    worst = 0
    for preset in PRESETS:
        reached = []
        for seed in SEEDS:
            samples = _samples_to_reach(runs[(preset, seed)])
            reached.append(samples is not None and samples <= 500)
            if samples is not None:
                worst = max(worst, samples)
        fractions[preset] = sum(reached) / len(SEEDS)
    ok = all(f >= 0.8 for f in fractions.values()) and all(
        e < 120.0 for e in elapsed.values()
    )
    detail = ", ".join(
        f"{p}: {fractions[p]:.0%} within 500 ({elapsed[p]:.0f}s)" for p in PRESETS
    )
    print(
        f"[criterion 1] faulty span reaches sampling probability 0.9 within 500 traces "
        f"in >=80% of 20 seeds: {_verdict(ok)} ({detail}; slowest convergence {worst} traces)"
    )
    assert ok, (fractions, elapsed)


def test_criterion_2_top5_accuracy_randomized_faults(randomized_fault_runs):
    hits = 0
    misses = []
    for (preset, seed), (target, result) in randomized_fault_runs.items():
        if result.rows[-1].top5_hit:
            hits += 1
        else:
            misses.append((preset, seed, target.label()))
    total = len(randomized_fault_runs)
    rate = hits / total
    ok = rate >= 0.85
    print(
        f"[criterion 2] randomly placed fault ranks in the top 5 at the final epoch: "
        f"{_verdict(ok)} ({hits}/{total} runs = {rate:.0%}, need >=85%; misses: {misses or 'none'})"
    )
    assert ok, misses


def test_criterion_3_instrumentation_reduction(default_runs, randomized_fault_runs):
    runs, _ = default_runs
    per_preset = {}
    overall_max = 0.0
    for preset in PRESETS:
        vals = [runs[(preset, s)].cumulative_fraction_enabled() for s in SEEDS]
        vals += [randomized_fault_runs[(preset, s)][1].cumulative_fraction_enabled() for s in SEEDS]
        per_preset[preset] = float(np.mean(vals))
        overall_max = max(overall_max, max(vals))
    ok = all(v <= 0.35 for v in per_preset.values()) and overall_max <= 0.35
    detail = ", ".join(f"{p}: mean {per_preset[p]:.3f}" for p in PRESETS)
    print(
        f"[criterion 3] cumulative fraction of instrumentation enabled <=35% at defaults "
        f"(P=75, epsilon=0.05): {_verdict(ok)} ({detail}; worst single run {overall_max:.3f})"
    )
    assert ok, (per_preset, overall_max)


# Epsilon governs recovery speed after the fault moves: run with the
# preset fault, then shift it to a previously quiet span at epoch 10
# and measure samples from the pre-shift row to re-convergence on the
# new target. Concentrated beliefs (counting mode) plus a tight vital
# set make the epsilon floor the only way back in.
SHIFT_EPOCH = 10


def _recovery_samples(eps, seed):
    preset = get_preset("social")
    controller = ControllerConfig(epsilon=eps, mode="discounted_count", lam=0.3, percentile=85.0)
    schedule = [
        (1, tuple(preset.anomalies)),
        (SHIFT_EPOCH, (RandomDelayAnomaly(SpanIdentity("cache", "timeline-set")),)),
    ]
    # Epoch k depends on no later epoch: the walk stops at re-convergence, or at epoch 50.
    epochs = closed_loop(preset.topology, schedule, with_seed(preset.workload, seed), controller)
    for row in (record.metrics for record in itertools.islice(epochs, 50)):
        if row.epoch == SHIFT_EPOCH - 1:
            base_samples = row.samples_seen
        if row.epoch >= SHIFT_EPOCH and row.faulty_probability >= THRESHOLD:
            break
    return row.samples_seen - base_samples


def test_criterion_4_sensitivity_trends(monkeypatch):
    base = RunConfig(preset="social", seeds=SEEDS, num_epochs=20)
    sweeps = {"percentile": [50.0, 75.0, 90.0], "request_sampling_rate": [1.0, 0.5, 0.1]}

    # `sweep` runs its seeds through experiment.run_one. Its runs are made
    # up front in worker processes, each distinct (config, seed) once (P=75
    # and rate 1.0 are both the base config), and handed back from there.
    jobs = list(
        dict.fromkeys(
            (replace(base, **{param: float(v)}), seed)
            for param, values in sweeps.items()
            for v in values
            for seed in SEEDS
        )
    )
    done = dict(zip(jobs, _map(run_one, *zip(*jobs))))
    monkeypatch.setattr(experiment, "run_one", lambda config, seed: done[(config, seed)])

    p_points = sweep(base, "percentile", sweeps["percentile"])
    p_vals = [pt.mean_cumulative_fraction_enabled for pt in p_points]
    p_ok = p_vals[0] > p_vals[1] > p_vals[2]

    r_points = sweep(base, "request_sampling_rate", sweeps["request_sampling_rate"])
    r_vals = [pt.mean_requests_to_reach for pt in r_points]
    r_ok = all(v is not None for v in r_vals) and r_vals[0] < r_vals[1] < r_vals[2]

    epsilons = (0.01, 0.05, 0.10)
    keys = [(eps, seed) for eps in epsilons for seed in SEEDS]
    samples = dict(zip(keys, _map(_recovery_samples, *zip(*keys))))
    recovery = {}
    for eps in epsilons:
        vals = [samples[(eps, seed)] for seed in SEEDS]
        recovery[eps] = (float(np.mean(vals)), float(np.median(vals)))
    e_means = [recovery[e][0] for e in (0.01, 0.05, 0.10)]
    e_ok = e_means[0] > e_means[1] > e_means[2]
    band_ok = 200 <= recovery[0.05][1] <= 500
    median_ok = recovery[0.10][1] < recovery[0.01][1]

    ok = p_ok and r_ok and e_ok and band_ok and median_ok
    print(
        f"[criterion 4] sensitivity trends over 20-seed means: {_verdict(ok)} "
        f"(fraction enabled falls with P: {[round(v, 4) for v in p_vals]}; "
        f"requests to converge grow as head rate drops: {[round(v, 1) for v in r_vals]}; "
        f"post-shift recovery shrinks as epsilon grows: "
        f"means {[round(v, 1) for v in e_means]}, "
        f"median at 0.05 = {recovery[0.05][1]:.0f} in [200, 500], "
        f"median 0.10 {recovery[0.10][1]:.0f} < median 0.01 {recovery[0.01][1]:.0f})"
    )
    assert p_ok, p_vals
    assert r_ok, r_vals
    assert e_ok, recovery
    assert band_ok, recovery
    assert median_ok, recovery


def test_criterion_5_budgeted_elimination_comparison():
    rows = []
    ok = True
    for seed in (0, 1, 2):
        result = compare_elimination(ComparisonConfig(seed=seed))
        counts = result.survivor_counts()
        abs_frac = result.outcomes["belief_sampler"].eliminated_fraction(50)
        seed_ok = (
            abs_frac >= 0.8
            and counts["belief_sampler"] < counts["exponential_gap"]
            and counts["exponential_gap"] < counts["median_elimination"]
            and counts["median_elimination"] == 50
        )
        ok = ok and seed_ok
        rows.append(
            f"seed {seed}: sampler {counts['belief_sampler']} < gap "
            f"{counts['exponential_gap']} < median {counts['median_elimination']}, "
            f"eliminated {abs_frac:.0%}"
        )
    print(
        f"[criterion 5] belief sampler retires >=80% of 50 arms on a 2000-sample budget "
        f"and survivor sets order sampler < gap < median: {_verdict(ok)} ({'; '.join(rows)})"
    )
    assert ok, rows


def test_criterion_6_planning_latency():
    store, cfg = synthetic_store(564, 0), VitalSetConfig()
    build_policy(store, cfg)  # warm allocator and caches
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        build_policy(store, cfg)
        times.append((time.perf_counter() - t0) * 1000.0)
    median = float(np.median(times))
    ok = median < 100.0
    print(
        f"[criterion 6] policy planning for 564 identities "
        f"under 100 ms median: {_verdict(ok)} (measured {median:.1f} ms over "
        f"{len(times)} reps, times {[round(t, 1) for t in times]}; "
        f"the bound assumes a multi-core desktop CPU)"
    )
    assert ok, f"median {median:.1f} ms"


def test_criterion_7_canary_tag_correlation():
    preset = get_preset("media-canary")
    anomaly = preset.anomalies[0]
    ident = next(i for i in preset.topology.identities() if i.service == anomaly.service)
    hits = 0
    rs = []
    for seed in SEEDS:
        traces, _ = simulate_workload(
            preset.topology, preset.anomalies, WorkloadSpec(num_requests=300, rng_seed=seed)
        )
        rows = correlation_report(build_tag_matrix(traces, ident), target="e2e")
        first = rows[0]
        rs.append(first.r)
        if first.key == anomaly.tag_key and abs(first.r) >= 0.8:
            hits += 1
    ok = hits >= 0.9 * len(SEEDS)
    print(
        f"[criterion 7] canary version tag tops the end-to-end latency correlation "
        f"with |r|>=0.8: {_verdict(ok)} ({hits}/{len(SEEDS)} seeds, "
        f"mean |r| {np.mean(np.abs(rs)):.3f}, min |r| {np.min(np.abs(rs)):.3f})"
    )
    assert ok, rs


def test_criterion_8_property_suites():
    # (a) decomposition conservation across 10,000 policy-thinned traces
    rng = np.random.default_rng(77)
    violations = 0
    total = 0
    for preset_name, n in (("social", 3400), ("rail", 3300), ("media", 3300)):
        p = get_preset(preset_name)
        from spanbandit import SamplingPolicy

        policy = SamplingPolicy(
            epoch=1,
            epsilon=0.05,
            percentile=75.0,
            entries={
                i: float(rng.uniform(0.05, 1.0)) for i in p.topology.identities()
            },
        )
        for idx in range(n):
            t = generate_request(
                p.topology, p.anomalies, policy, request_rng(1000 + idx, idx), request_index=idx
            )
            total += 1
            for d in decompose(t):
                if d.duration_us != d.child_waiting_us + d.self_segment_us or d.self_segment_us < 0:
                    violations += 1
    conservation_ok = violations == 0 and total == 10_000

    # (b) iterative belief updates match the closed forms
    max_rel = 0.0
    for mode in ("verbatim_ewma", "discounted_count"):
        for lam, u, k in ((0.3, 0.37, 12), (0.1, 0.9, 25), (0.7, 0.05, 8)):
            store = BeliefStore(lam=lam, mode=mode)
            ident = SpanIdentity("svc", "op")
            for _ in range(k):
                update_epoch(store, [UtilityEstimate(ident, 5, u, u)])
            decay = (1 - lam) ** k
            scale = 1.0 if mode == "verbatim_ewma" else 1.0 / lam
            want_alpha = decay + u * (1 - decay) * scale
            want_beta = decay + (1 - u) * (1 - decay) * scale
            b = store.beliefs[ident]
            max_rel = max(
                max_rel,
                abs(b.alpha - want_alpha) / want_alpha,
                abs(b.beta - want_beta) / want_beta,
            )
    closed_form_ok = max_rel < 1e-12

    # (c) planned vital probability vs the pairwise quadrature oracle
    worst_gap = 0.0
    for (a1, b1), (a2, b2) in (((2.0, 5.0), (5.0, 2.0)), ((1.0, 1.0), (4.0, 4.0))):
        store = BeliefStore()
        store.beliefs[SpanIdentity("x", "op")] = BetaBelief(a1, b1)
        store.beliefs[SpanIdentity("y", "op")] = BetaBelief(a2, b2)
        cfg = VitalSetConfig(percentile_p=75.0, epsilon=0.0)
        vital = build_policy(store, cfg).vital
        d1 = stats.beta(a1, b1)
        d2 = stats.beta(a2, b2)
        want, _ = integrate.quad(lambda v: d1.pdf(v) * d2.cdf(v), 0.0, 1.0, limit=200)
        worst_gap = max(worst_gap, abs(vital[SpanIdentity("x", "op")] - want))
    oracle_ok = worst_gap <= 0.02

    # (d) byte-identical policies for identical beliefs
    store = synthetic_store(60, seed=5)
    cfg = VitalSetConfig()
    first = policy_to_json_dict(build_policy(store, cfg))
    second = policy_to_json_dict(build_policy(store, cfg))
    import json

    determinism_ok = json.dumps(first, sort_keys=True).encode() == json.dumps(
        second, sort_keys=True
    ).encode()

    # (e) skew fixture: top 15% of identities carry ~80% of total variance
    p = get_preset("social")
    traces, _ = simulate_workload(p.topology, (), WorkloadSpec(num_requests=400, rng_seed=0))
    pools = pool_self_segments(traces)
    variances = sorted(
        (float(np.var(np.asarray(v, dtype=np.float64), ddof=1)) for v in pools.values()),
        reverse=True,
    )
    k = int(np.ceil(0.15 * len(variances)))
    share = sum(variances[:k]) / sum(variances)
    skew_ok = 0.75 <= share <= 0.85

    ok = conservation_ok and closed_form_ok and oracle_ok and determinism_ok and skew_ok
    print(
        f"[criterion 8] property suites: {_verdict(ok)} "
        f"(conservation: {violations} violations over {total} traces; "
        f"closed-form max relative error {max_rel:.2e}; "
        f"vital-vs-oracle gap {worst_gap:.4f} <= 0.02; "
        f"policy bytes identical across two plans of one store: {determinism_ok}; "
        f"top {k}/{len(variances)} identities hold {share:.1%} of variance, in [75%, 85%])"
    )
    assert conservation_ok, violations
    assert closed_form_ok, max_rel
    assert oracle_ok, worst_gap
    assert determinism_ok
    assert skew_ok, share
