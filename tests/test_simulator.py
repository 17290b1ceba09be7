"""Synthetic workload generation and the closed control loop."""
import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from spanbandit import (
    CallSpec,
    CanaryAnomaly,
    ContentionAnomaly,
    ControllerConfig,
    InvalidTopology,
    LatencyModel,
    OperationSpec,
    RandomDelayAnomaly,
    SamplingPolicy,
    ServiceTagSpec,
    SpanIdentity,
    TopologySpec,
    WorkloadSpec,
    closed_loop,
    decompose,
    generate_request,
    get_preset,
    latency_from_median_us,
    load_spec,
    run_closed_loop,
    save_spec,
    simulate_workload,
    with_seed,
)
from spanbandit.simulator import anomaly_label, anomaly_labels, faulty_identities, request_rng

ROOT = SpanIdentity("web", "handle")
MID = SpanIdentity("svc", "mid")
LEAF = SpanIdentity("db", "find")
SIDE = SpanIdentity("cache", "get")


def _topology():
    return TopologySpec(
        root=ROOT,
        operations=(
            OperationSpec(ROOT, latency_from_median_us(900, 0.2),
                          calls=(CallSpec(MID), CallSpec(MID), CallSpec(SIDE, "parallel"))),
            OperationSpec(MID, latency_from_median_us(400, 0.3),
                          calls=(CallSpec(LEAF), CallSpec(LEAF))),
            OperationSpec(LEAF, latency_from_median_us(200, 0.5)),
            OperationSpec(SIDE, latency_from_median_us(80, 0.1)),
        ),
    )


def test_occurrence_counts_multiply_through_call_sites():
    counts = _topology().occurrence_counts()
    assert counts[ROOT] == 1
    assert counts[MID] == 2
    assert counts[LEAF] == 4
    assert counts[SIDE] == 1


def test_preset_occurrence_counts():
    rail = get_preset("rail").topology.occurrence_counts()
    assert sum(rail.values()) == 49
    assert rail[SpanIdentity("station", "lookup")] == 3
    assert rail[SpanIdentity("config", "get")] == 3
    media = get_preset("media").topology.occurrence_counts()
    assert sum(media.values()) == 39
    assert media[SpanIdentity("video-db", "find-batch")] == 2


def test_tree_holds_each_span_in_preorder_with_its_parent_and_stages():
    tree = _topology().tree
    assert [node.op.identity for node in tree] == [ROOT, MID, LEAF, LEAF, MID, LEAF, LEAF, SIDE]
    assert [node.parent for node in tree] == [-1, 0, 1, 1, 0, 4, 4, 0]
    # ROOT: MID, then MID with SIDE beside it; each MID: LEAF, then LEAF.
    assert [node.children for node in tree] == [
        ((1,), (4, 7)), ((2,), (3,)), (), (), ((5,), (6,)), (), (), (),
    ]


def _chain(depth, closed=False):
    """A sequential chain of `depth` operations; `closed` makes the last call the first."""
    ids = [SpanIdentity(f"svc{i}", "op") for i in range(depth)]
    callees = ids[1:] + ([ids[0]] if closed else [None])
    return TopologySpec(
        root=ids[0],
        operations=tuple(
            OperationSpec(i, latency_from_median_us(100, 0.1), calls=(CallSpec(c),) if c else ())
            for i, c in zip(ids, callees)
        ),
    )


def test_a_2000_deep_chain_runs_two_closed_loop_epochs():
    records = list(itertools.islice(closed_loop(_chain(2000), (), WorkloadSpec(batch_size=5)), 2))
    assert [r.metrics.epoch for r in records] == [1, 2]
    assert [len(t) for t in records[0].traces] == [2000] * 5
    assert all(len(r.traces) == 5 for r in records)


def test_a_2000_deep_cycle_names_its_callee():
    with pytest.raises(InvalidTopology, match=r"^call cycle through svc0/op$"):
        _chain(2000, closed=True)


def test_invalid_topologies_rejected():
    ops = _topology().operations
    with pytest.raises(InvalidTopology):
        TopologySpec(root=SpanIdentity("ghost", "op"), operations=ops)
    with pytest.raises(InvalidTopology):
        TopologySpec(root=ROOT, operations=ops + (ops[-1],))
    with pytest.raises(InvalidTopology):
        TopologySpec(
            root=ROOT,
            operations=(
                OperationSpec(ROOT, latency_from_median_us(100, 0.1),
                              calls=(CallSpec(SpanIdentity("nobody", "op")),)),
            ),
        )
    with pytest.raises(InvalidTopology):
        a, b = SpanIdentity("a", "op"), SpanIdentity("b", "op")
        TopologySpec(
            root=a,
            operations=(
                OperationSpec(a, latency_from_median_us(100, 0.1), calls=(CallSpec(b),)),
                OperationSpec(b, latency_from_median_us(100, 0.1), calls=(CallSpec(a),)),
            ),
        )
    with pytest.raises(InvalidTopology):
        CallSpec(LEAF, mode="fanout")
    with pytest.raises(InvalidTopology):
        latency_from_median_us(100, -0.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: LatencyModel(NAN, 0.1), "mu_log"),
        (lambda: LatencyModel(5.0, INF), "sigma_log"),
        (lambda: RandomDelayAnomaly(LEAF, probability=NAN), "probability"),
        (lambda: RandomDelayAnomaly(LEAF, probability=1.5), "probability"),
        (lambda: RandomDelayAnomaly(LEAF, delay_mean_us=INF), "delay_mean_us"),
        (lambda: RandomDelayAnomaly(LEAF, delay_std_us=-1.0), "delay_std_us"),
        (lambda: ContentionAnomaly("db", factor=0.0), "factor"),
        (lambda: ContentionAnomaly("db", factor=NAN), "factor"),
        (lambda: ContentionAnomaly("db", window=(300, 100)), "window"),
        (lambda: ContentionAnomaly("db", window=(0, NAN)), "window"),
        (lambda: CanaryAnomaly("db", fraction=-0.1), "fraction"),
        (lambda: CanaryAnomaly("db", delay_mean_us=NAN), "delay_mean_us"),
        (lambda: CanaryAnomaly("db", delay_std_us=-5.0), "delay_std_us"),
        (lambda: ServiceTagSpec("db", "shard", ()), "values"),
        (lambda: ContentionAnomaly("db", window=(5,)), "window"),
        (lambda: ContentionAnomaly("db", window=("a", "b")), "window"),
        (lambda: ContentionAnomaly("db", window=(1, 2, 3)), "window"),
        (lambda: ContentionAnomaly("db", window=5), "window"),
        (lambda: ContentionAnomaly(5), "service"),
        (lambda: ContentionAnomaly(""), "service"),
        (lambda: CanaryAnomaly(None), "service"),
        (lambda: CanaryAnomaly("db", tag_key=""), "tag_key"),
        (lambda: CanaryAnomaly("db", canary_value=3), "canary_value"),
        (lambda: CanaryAnomaly("db", stable_value=""), "stable_value"),
        (lambda: ServiceTagSpec(5, "shard", ("a",)), "service"),
        (lambda: ServiceTagSpec("db", "", ("a",)), "key"),
        (lambda: ServiceTagSpec("db", "shard", ("a", "")), "ServiceTagSpec.values"),
        (lambda: ServiceTagSpec("db", "shard", (2,)), "ServiceTagSpec.values"),
    ],
)
def test_out_of_range_spec_values_rejected(build, field):
    with pytest.raises(InvalidTopology, match=field):
        build()


# (where in the spec file, key, value, field the error names): numbers the
# reader once coerced with float(), so "5000.0" loaded as 5000.0.
NON_NUMBER_SPEC_VALUES = [
    (0, "delayMeanUs", "5000.0", "delay_mean_us"),
    (0, "probability", "0.3", "probability"),
    (0, "delayStdUs", True, "delay_std_us"),
    (1, "factor", "2", "factor"),
    (2, "fraction", "0.4", "fraction"),
    (2, "delayMeanUs", None, "delay_mean_us"),
    ("operation", "muLog", "6.0", "mu_log"),
    ("operation", "sigmaLog", False, "sigma_log"),
    ("workload", "requestSamplingRate", "0.5", "requestSamplingRate"),
]


@pytest.mark.parametrize("where, key, value, named", NON_NUMBER_SPEC_VALUES)
def test_spec_file_with_non_number_rejected(tmp_path, where, key, value, named):
    anomalies = (
        RandomDelayAnomaly(SpanIdentity("text", "process"), 0.5),
        ContentionAnomaly("post-store", 3.0),
        CanaryAnomaly("media", 0.4),
    )
    path = tmp_path / "spec.json"
    save_spec(get_preset("social").topology, anomalies, WorkloadSpec(), str(path))
    doc = json.loads(path.read_text())
    if where == "operation":
        doc["topology"]["operations"][0][key] = value
    elif where == "workload":
        doc["workload"][key] = value
    else:
        doc["anomalies"][where][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidTopology, match=f"{named} must be a finite number, got {re.escape(repr(value))}"):
        load_spec(str(path))


def test_spec_file_with_nan_latency_rejected(tmp_path):
    preset = get_preset("social")
    path = tmp_path / "spec.json"
    save_spec(preset.topology, preset.anomalies, preset.workload, str(path))
    doc = json.loads(path.read_text())
    doc["topology"]["operations"][0]["muLog"] = NAN
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidTopology, match="mu_log"):
        load_spec(str(path))


# Each names nothing in the social topology: a typo in an operation, in a
# service, and a service that does not exist.
UNKNOWN_TARGETS = (
    RandomDelayAnomaly(SpanIdentity("text", "proces")),
    ContentionAnomaly("gatewya", 3.0),
    CanaryAnomaly("nobody"),
)


@pytest.mark.parametrize("anomaly", UNKNOWN_TARGETS, ids=anomaly_label)
def test_closed_loop_rejects_anomaly_naming_no_operation(anomaly, monkeypatch):
    social = get_preset("social")
    workload = WorkloadSpec(num_requests=50, batch_size=10, rng_seed=2)
    with pytest.raises(InvalidTopology, match=re.escape(anomaly_label(anomaly))):
        run_closed_loop(social.topology, (anomaly,), workload, ControllerConfig(),
                        num_epochs=2)
    # A later phase of a schedule is checked before the first request is generated.
    def never(*args, **kwargs):
        raise AssertionError("a request was generated before the schedule was checked")

    monkeypatch.setattr("spanbandit.simulator.generate_request", never)
    schedule = [(1, social.anomalies), (2, (anomaly,))]
    with pytest.raises(InvalidTopology, match=re.escape(anomaly_label(anomaly))):
        next(closed_loop(social.topology, schedule, workload))


@pytest.mark.parametrize("anomaly", UNKNOWN_TARGETS, ids=anomaly_label)
def test_simulate_workload_rejects_anomaly_naming_no_operation(anomaly):
    social = get_preset("social")
    with pytest.raises(InvalidTopology, match=re.escape(anomaly_label(anomaly))):
        simulate_workload(social.topology, (anomaly,), WorkloadSpec(num_requests=5))


@pytest.mark.parametrize(
    "anomalies, base",
    [
        ((), LatencyModel(800.0, 0.1)),
        ((ContentionAnomaly("db", 1e308),), latency_from_median_us(200, 0.5)),
        ((RandomDelayAnomaly(LEAF, 1.0, 1e308, 1e308),), latency_from_median_us(200, 0.5)),
        ((CanaryAnomaly("db", 1.0, 1e308, 1e308),), latency_from_median_us(200, 0.5)),
    ],
)
def test_non_finite_draw_names_the_operation(anomalies, base):
    topo = TopologySpec(root=LEAF, operations=(OperationSpec(LEAF, base),))
    with pytest.raises(InvalidTopology, match=re.escape(LEAF.label())):
        simulate_workload(topo, anomalies, WorkloadSpec(num_requests=20, rng_seed=4))


def test_span_times_past_2_62_name_the_operation_or_the_root():
    # A trace holds its times as int64: one draw past 2**62 names the
    # operation that drew it, and draws that fit but sum past it the root.
    huge = TopologySpec(root=LEAF, operations=(OperationSpec(LEAF, LatencyModel(np.log(2.0**62) + 0.01, 0.0)),))
    with pytest.raises(InvalidTopology, match=re.escape(f"{LEAF.label()} drew a latency of")):
        generate_request(huge, (), None, request_rng(0, 0))
    large = LatencyModel(np.log(0.6 * 2.0**62), 0.0)
    pair = TopologySpec(root=ROOT, operations=(OperationSpec(ROOT, large, calls=(CallSpec(LEAF),)),
                                               OperationSpec(LEAF, large)))
    with pytest.raises(InvalidTopology, match=re.escape(f"{ROOT.label()} has a duration of")):
        generate_request(pair, (), None, request_rng(0, 0))


def test_closed_loop_needs_an_epoch():
    preset = get_preset("social")
    with pytest.raises(ValueError, match="num_epochs"):
        run_closed_loop(preset.topology, preset.anomalies, preset.workload, num_epochs=0)


def test_latency_model_median():
    model = latency_from_median_us(700, 0.4)
    rng = np.random.default_rng(0)
    draws = np.array([model.draw(rng) for _ in range(20_000)])
    assert abs(np.median(draws) - 700) / 700 < 0.02


def test_full_policy_recovers_drawn_self_times():
    topo = _topology()
    out: dict[str, int] = {}
    trace = generate_request(
        topo, (), None, request_rng(3, 0), request_index=0, self_times_out=out
    )
    decomposed = {d.span_id: d for d in decompose(trace)}
    assert set(out) == set(decomposed)
    for span_id, drawn in out.items():
        assert decomposed[span_id].self_segment_us == drawn
    assert len(trace) == 8


def test_policy_does_not_perturb_latency_draws():
    topo = _topology()
    full = generate_request(topo, (), None, request_rng(11, 4), request_index=4)
    thin_policy = SamplingPolicy(
        epoch=1, epsilon=0.05, percentile=75.0,
        entries={MID: 0.3, LEAF: 0.05, SIDE: 0.05, ROOT: 1.0},
    )
    thin = generate_request(topo, (), thin_policy, request_rng(11, 4), request_index=4)
    assert thin.end_to_end_latency_us() == full.end_to_end_latency_us()
    full_keys = set(zip(full.identities, full.start_us.tolist(), full.duration_us.tolist()))
    thin_keys = set(zip(thin.identities, thin.start_us.tolist(), thin.duration_us.tolist()))
    assert thin_keys <= full_keys
    assert len(thin) <= len(full)


def test_thinned_traces_stay_valid_and_conserve_latency():
    topo = _topology()
    policy = SamplingPolicy(
        epoch=1, epsilon=0.05, percentile=75.0,
        entries={MID: 0.4, LEAF: 0.2, SIDE: 0.5, ROOT: 1.0},
    )
    for idx in range(300):
        t = generate_request(topo, (), policy, request_rng(29, idx), request_index=idx)
        assert t.identities[0] == ROOT
        for d in decompose(t):
            assert d.duration_us == d.child_waiting_us + d.self_segment_us
            assert d.self_segment_us >= 0


def test_dropped_child_self_time_absorbs_into_ancestor():
    topo = _topology()
    zero = SamplingPolicy(
        epoch=1, epsilon=0.0, percentile=75.0,
        entries={MID: 0.0, LEAF: 0.0, SIDE: 0.0, ROOT: 1.0},
    )
    t = generate_request(topo, (), zero, request_rng(7, 0), request_index=0)
    assert len(t) == 1
    (d,) = decompose(t)
    assert d.self_segment_us == t.end_to_end_latency_us()


def test_head_sampling_rate():
    topo = _topology()
    workload = WorkloadSpec(num_requests=3000, request_sampling_rate=0.3, rng_seed=17)
    traces, _ = simulate_workload(topo, (), workload)
    frac = len(traces) / workload.num_requests
    assert abs(frac - 0.3) < 0.03
    with pytest.raises(ValueError):
        WorkloadSpec(request_sampling_rate=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(request_sampling_rate=1.2)


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"num_requests": 0}, "numRequests"),
        ({"batch_size": 0}, "batchSize"),
        ({"rng_seed": -1}, "rngSeed"),
        ({"request_sampling_rate": 0.0}, "requestSamplingRate"),
        ({"request_sampling_rate": 1.2}, "requestSamplingRate"),
        ({"request_sampling_rate": float("nan")}, "requestSamplingRate"),
    ],
)
def test_workload_range_checks_name_the_spec_key(fields, key):
    with pytest.raises(InvalidTopology, match=f"^{key} "):
        WorkloadSpec(**fields)


def test_random_delay_ground_truth_and_activation_counts():
    topo = _topology()
    anomaly = RandomDelayAnomaly(target=LEAF, probability=1.0, delay_mean_us=5000.0)
    workload = WorkloadSpec(num_requests=50, rng_seed=23)
    traces, truth = simulate_workload(topo, (anomaly,), workload)
    assert truth.faulty == (LEAF,)
    label = f"random_delay:{LEAF.label()}"
    # probability 1.0 fires at every one of the 4 LEAF instances per request
    assert len(truth.activations[label]) == 4 * len(traces)


def test_contention_window_and_faulty_identities():
    topo = _topology()
    anomaly = ContentionAnomaly(service="db", factor=50.0, window=(10, 20))
    workload = WorkloadSpec(num_requests=30, rng_seed=31)
    traces, truth = simulate_workload(topo, (anomaly,), workload)
    assert truth.faulty == (LEAF,)
    fired = set(truth.activations[f"contention:db"])
    assert fired == set(range(10, 20))
    assert faulty_identities(topo, (CanaryAnomaly(service="svc"),)) == (MID,)


def test_canary_routing_stamps_tags_and_slows_service():
    topo = _topology()
    always = CanaryAnomaly(service="db", fraction=1.0, delay_mean_us=4000.0, delay_std_us=1.0)
    never = dataclasses.replace(always, fraction=0.0)
    workload = WorkloadSpec(num_requests=40, rng_seed=41)
    canary_traces, _ = simulate_workload(topo, (always,), workload)
    stable_traces, _ = simulate_workload(topo, (never,), workload)
    for traces, version in ((canary_traces, "canary"), (stable_traces, "stable")):
        for t in traces:
            for row, identity in enumerate(t.identities):
                if identity.service == "db":
                    assert t.tags[row]["service.version"] == version

    def mean_leaf_self(traces):
        vals = [
            d.self_segment_us
            for t in traces
            for d in decompose(t)
            if d.identity == LEAF
        ]
        return float(np.mean(vals))

    assert mean_leaf_self(canary_traces) > mean_leaf_self(stable_traces) + 3000


def test_two_canaries_on_one_service_route_apart():
    preset = get_preset("media-canary")
    canaries = (
        CanaryAnomaly("recommend", 1.0, tag_key="k1"),
        CanaryAnomaly("recommend", 0.0, tag_key="k2"),
    )
    traces, truth = simulate_workload(preset.topology, canaries, WorkloadSpec(num_requests=200))
    tags = [t.tags[row] for t in traces for row, i in enumerate(t.identities) if i.service == "recommend"]
    assert len(traces) == 200 and tags
    # Only the first canary routes, so it fires once per span of the service.
    assert {k: len(v) for k, v in truth.activations.items()} == {"canary:recommend": len(tags)}
    assert {(t["k1"], t["k2"]) for t in tags} == {("canary", "stable")}


def test_repeated_anomaly_labels_get_positional_suffixes():
    post = ContentionAnomaly("post-store", 3.0, (0, 10))
    delay = RandomDelayAnomaly(SpanIdentity("text", "process"), 0.3)
    anomalies = (post, delay, dataclasses.replace(post, window=(20, 30)), delay, post)
    assert anomaly_labels(anomalies) == [
        "contention:post-store",
        "random_delay:text/process",
        "contention:post-store#2",
        "random_delay:text/process#2",
        "contention:post-store#3",
    ]
    assert anomaly_labels(anomalies[:2]) == [anomaly_label(a) for a in anomalies[:2]]


def test_two_contention_windows_on_one_service_report_apart():
    preset = get_preset("social")
    anomalies = (
        ContentionAnomaly("post-store", 3.0, (0, 10)),
        ContentionAnomaly("post-store", 3.0, (20, 30)),
    )
    _, truth = simulate_workload(preset.topology, anomalies, WorkloadSpec(num_requests=40))
    assert set(truth.activations) == {"contention:post-store", "contention:post-store#2"}
    assert set(truth.activations["contention:post-store"]) == set(range(0, 10))
    assert set(truth.activations["contention:post-store#2"]) == set(range(20, 30))


def test_closed_loop_is_deterministic_up_to_timing():
    preset = get_preset("media")
    workload = preset.workload
    controller = ControllerConfig()

    def run():
        return list(itertools.islice(closed_loop(preset.topology, preset.anomalies, workload, controller), 4))

    r1, r2 = run(), run()
    for a, b in zip(r1, r2):
        assert dataclasses.replace(a.metrics, inference_ms=0.0) == dataclasses.replace(b.metrics, inference_ms=0.0)
    assert r1[-1].policy.entries == r2[-1].policy.entries
    assert r1[-1].metrics.samples_seen == 4 * workload.batch_size


def test_closed_loop_yields_its_live_store_and_each_epochs_batch():
    preset = get_preset("social")
    records = list(itertools.islice(closed_loop(preset.topology, preset.anomalies, preset.workload), 3))
    assert all(r.store is records[0].store for r in records)
    assert records[-1].store.epoch == 3
    assert [len(r.traces) for r in records] == [preset.workload.batch_size] * 3
    assert [r.policy.epoch for r in records] == [1, 2, 3]
    rows = run_closed_loop(preset.topology, preset.anomalies, preset.workload, num_epochs=3).rows
    untimed = [dataclasses.replace(row, inference_ms=0.0) for row in rows]
    assert untimed == [dataclasses.replace(r.metrics, inference_ms=0.0) for r in records]


def test_closed_loop_learns_to_watch_the_fault():
    preset = get_preset("media")
    workload = preset.workload
    controller = ControllerConfig()
    result = run_closed_loop(preset.topology, preset.anomalies, workload, controller, num_epochs=8)
    assert result.rows[-1].faulty_probability > 0.9
    assert result.rows[-1].fraction_enabled < 0.6
    assert result.cumulative_fraction_enabled() <= 1.0


def test_with_seed_replaces_only_the_seed():
    base = WorkloadSpec(num_requests=77, request_sampling_rate=0.5, batch_size=10, rng_seed=1)
    other = with_seed(base, 99)
    assert other.rng_seed == 99
    assert (other.num_requests, other.request_sampling_rate, other.batch_size) == (77, 0.5, 10)
    assert base.rng_seed == 1


def test_spec_file_round_trip(tmp_path):
    preset = get_preset("media-canary")
    path = tmp_path / "spec.json"
    save_spec(preset.topology, preset.anomalies, preset.workload, str(path))
    topo, anomalies, workload = load_spec(str(path))
    assert topo == preset.topology
    assert anomalies == preset.anomalies
    assert workload == preset.workload
    # Identical generation from the reloaded document.
    t1 = generate_request(preset.topology, preset.anomalies, None, request_rng(5, 1), request_index=1)
    t2 = generate_request(topo, anomalies, None, request_rng(5, 1), request_index=1)
    assert t1.identities == t2.identities
    assert t1.start_us.tolist() == t2.start_us.tolist()
    assert t1.duration_us.tolist() == t2.duration_us.tolist()
    assert t1.tags == t2.tags
