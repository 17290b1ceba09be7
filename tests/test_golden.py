"""Golden byte-identity of seeded outputs.

Each case runs one seeded command in process and hashes what it wrote:
the bytes of the files it produced, or its JSON with the wall-clock
field inference_ms and the retired `workers` knob
stripped, re-serialised with sorted keys. A refactor that claims to keep
behaviour must leave every hash unchanged; a change that is meant to
alter outputs re-derives the constants and says so in CHANGES.md.

The hashes were taken with numpy 2.4.6 on x86-64. Another numpy release
may draw different lognormal streams or round the planner's vectorised
exp and log differently, so the cases are skipped there rather than
reporting a difference the code did not make.
"""
import contextlib
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

from spanbandit import tag_analysis, utility
from spanbandit.abs_sampler import VitalSetConfig, build_policy, policy_to_json_dict
from spanbandit.belief import BeliefStore, BetaBelief
from spanbandit.cli import main
from spanbandit.experiment import RunConfig, run_one, synthetic_store
from spanbandit.presets import get_preset
from spanbandit.simulator import (
    CanaryAnomaly,
    ContentionAnomaly,
    ControllerConfig,
    RandomDelayAnomaly,
    ServiceTagSpec,
    TopologySpec,
    WorkloadSpec,
    run_closed_loop,
    save_spec,
    with_seed,
)
from spanbandit.trace_model import SpanIdentity, read_traces_jsonl, self_segments_us

VOLATILE = {"inference_ms", "workers"}

GOLDEN = {
    "compare-baselines": "2b2eec8053028446f630c53db679e5bc3724a733ce80b0cee8c73cc8bf6fb198",
    "compare-baselines-file": "5293e3a4baf210eeab2f89d2591436507a9b598efdd553b021e40727a02370e4",
    "decompose-lenient-orphans": "6f54411e6fbce1c58271ec3b9474a2d2b32e4d39358025834beb618ecd7f3d9c",
    "decompose-social-thinned": "4590f40367bf62527dfb0fd595aab0a32184ef2e763eb19fb82dda3c9301dd6e",
    "experiment-csv": "05e2dccba4c97a67a45acf4565c7059b36ce3ac35e7875847fe548307cb84eab",
    "experiment-summary": "52dd088a9c6b74350529dc2deace1236d159aeb7670a2c69e1681d6572799406",
    "experiment-sweep": "442915150628ea11b36a6b0229520511e1c27ec565695e5eee861492b5dbd554",
    "experiment-sweep-csv": "dc79f79aafb219eebed2f6f0b53a9cb8f499a12e47a38bfa8b4c99a522f5e687",
    "learn-policy": "ec965ebc3d9a201fa2a6af57fd88560ce07e3fa8b50229cee88b9081ea575593",
    "learn-state": "e760e98cd52c9040497cdc7a4312af3e16af4969b201ecbbc9622b29dfae7637",
    "learn-summary": "12835d016a3b7b1267cda210c8db1e7c62fb2046acc58060b8b16507dc8d0cec",
    "relearn-state": "09b9ee3d65f7a960596802db611131c0b54a72f5f417bb3e9b77af533c6d4ac5",
    "run_one-social": "81d352efe2a190c9fdd44413a3f523de30d1e1dd0caa552f2e9e4284146a030c",
    "shift_anomaly-social": "1b571dc34a0f9a93577c0061b366a0218791fe9721eea1e8b1975f3da475adcb",
    "simulate-media": "56629c66ef8792ddddc136260145b1690c753f5b4a5ad6fc79466fdb5cb68fc8",
    "simulate-media-canary": "e5ad39b3783826e14323259c12ba81736da99289748b4c619efbedc2843dffe2",
    "simulate-mixed-spec": "666cbc85509316ebd7fa56afaa6d1827668c688d5a9f2b9fd7724533b357d8d4",
    "simulate-rail": "d0e4ee1af82b5d34759fd0e0af16aee52a051323dfbfd05605c510898c411a23",
    "simulate-social": "48c1cbd82ca4da54ac73e15275f735cd5243f1805305160ad4fdb3bd1a67340f",
    "simulate-layered-spec": "09fa1ded58e12e7ab9af715e2cd7390315c855bc2a12aa0aa206f2e39b85d60b",
    "simulate-social-thinned": "92222c535f49b6c5b0f3e9769a0e826b21b38e71eb18e65ad326c5138246122f",
    "tags-json": "a8baab38abb38ac2264fb17b863cd50490ba9ba593788512c6674bc0fae929ff",
    "tags-json-e2e": "994ff05ba5c7477d11209999d368b8274972c03bd1b63ba445c1caa100dcb544",
    "tags-table-recommend": "4b6ba9e5717c01eb2896989ee7ae485f4c6c5553a84dfc8908d7392a8fd55f19",
    "truth-layered-spec": "8fd6c3cc3b3dd3f287d9db051d7c3833a5ea5207cb7cf3c755453ef409782eef",
    "truth-media": "616436f1e6884dca30408619fa9a8d24b18efc1546dc88fd7948d995e7f196a7",
    "truth-media-canary": "56f15075a23d36f82d00ade1b0b41ab2d5a09957ea2f081bdbbf26f7d33313e7",
    "truth-mixed-spec": "e4e7f83a7df6e0daf9e5d30ee2b77b41de39d31862640b7559334d92ad6bccf6",
    "truth-rail": "e0e48f247d655840312f4cc7431a9076b6509c51ba74ce4a2c0e4d2561e46c19",
    "truth-social": "e373a97fb3035288d2e4baa274b3644921f0d547da2713848c77d49e1ee721a2",
}


def _all_bins_open_store(n: int) -> BeliefStore:
    """n U-shaped beliefs near Beta(0.05, 0.05): no grid bin is settled."""
    return BeliefStore(epoch=1, beliefs={
        SpanIdentity(f"svc-{i}", "op"): BetaBelief(alpha=0.05 * (1 + 0.1 * i), beta=0.05) for i in range(n)
    })


# Policies planned straight from stores: the benchmark's shape, the row
# maximum (P = 100), an interpolated median, a single identity, and a
# store whose every bin builds the count pmf. The synthetic cases' names
# keep the row counts of the sampling planner they were first taken
# with, so that test ids stay stable.
PLANNER_CASES = {
    "plan-564x10000-p75": (lambda: synthetic_store(564, 0), dict()),
    "plan-7x999-p100": (lambda: synthetic_store(7, 1), dict(percentile_p=100.0)),
    "plan-12x3-p50": (lambda: synthetic_store(12, 4), dict(percentile_p=50.0)),
    "plan-1x1000": (lambda: synthetic_store(1, 0), dict()),
    "plan-3-all-bins-open-p75": (lambda: _all_bins_open_store(3), dict(percentile_p=75.0)),
}

PLANNER_GOLDEN = {
    "plan-12x3-p50": "393b3f00fa9192510dafead9344a0c92821fec0dd1128b152a45ba33249b86e0",
    "plan-1x1000": "b8dc169d89228d3c6ee2a267ec0b6c14cba169f0278ec3f6e197e72de99fb69f",
    "plan-3-all-bins-open-p75": "dd3477c6558af57f9fc65d014ec2a27c6e5f33190b4df70965d7275ed919cb0d",
    "plan-564x10000-p75": "cd589a6bc5ca2c23f8ea0e7191a0eb40b5ae804e062dbbac300505a9b8592a0e",
    "plan-7x999-p100": "b4922573a19e6972e370f19bd30a0e08f82983e0f4e674d36009597a245a38ac",
}

# Contention, random delay and canary routing at once, head-sampled: the
# generator paths the single-fault presets leave out.
MIXED_ANOMALIES = (
    ContentionAnomaly("post-store", 3.0, (100, 300)),
    RandomDelayAnomaly(SpanIdentity("text", "process"), 0.3),
    CanaryAnomaly("media", 0.4),
)

# The generator's draw order where anomalies stack on one span. Two
# contentions on the cache service, applied one after the other: their
# factors push its latencies past 2**53, where one rounding step shows in
# whole microseconds, so multiplying by the factors' product instead
# changes the trace. A random delay on a span of a canary's service, so
# that span draws twice between its latency and the next span's. And
# service tags on both services.
LAYERED_ANOMALIES = (
    ContentionAnomaly("cache", 4.1e6),
    RandomDelayAnomaly(SpanIdentity("user-store", "find"), 0.6, 3000.0, 900.0),
    CanaryAnomaly("user-store", 0.5, 2000.0, 500.0),
    ContentionAnomaly("cache", 1.3e7, (50, 250)),
)
LAYERED_TAGS = (
    ServiceTagSpec("cache", "zone", ("z1", "z2", "z3")),
    ServiceTagSpec("user-store", "shard", ("a", "b")),
)

pytestmark = pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason=f"golden hashes were taken with numpy 2.4.6, found {np.__version__}",
)


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in VOLATILE}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _sha_json(obj) -> str:
    return hashlib.sha256(json.dumps(_strip(obj), sort_keys=True).encode()).hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sha_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([str(a) for a in argv]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def digests(golden_dir):
    d = golden_dir
    out = {}
    for preset in ("social", "rail", "media", "media-canary"):
        traces, truth = d / f"{preset}.jsonl", d / f"{preset}-truth.json"
        _run(["simulate", "--preset", preset, "--requests", 500, "--seed", 0,
              "--out", traces, "--truth-out", truth])
        out[f"simulate-{preset}"] = _sha_file(traces)
        out[f"truth-{preset}"] = _sha_file(truth)

    state, policy = d / "state.json", d / "policy.json"
    learned = json.loads(_run(["learn", "--in", d / "social.jsonl", "--state", state,
                               "--policy-out", policy]))
    out["learn-summary"] = _sha_json({k: v for k, v in learned.items()
                                      if k not in ("state", "policyOut")})
    out["learn-state"] = _sha_file(state)
    out["learn-policy"] = _sha_file(policy)
    relearned = d / "state-2.json"
    _run(["learn", "--in", d / "media.jsonl", "--state", state, "--state-out", relearned,
          "--lambda", 0.5, "--mode", "discounted_count"])
    out["relearn-state"] = _sha_file(relearned)

    # The learned policy thins the trace, so dropped spans' children are
    # re-parented: this gates the generator's recording pass directly.
    thinned, thinned_csv = d / "social-thinned.jsonl", d / "social-thinned.csv"
    _run(["simulate", "--preset", "social", "--requests", 500, "--seed", 0,
          "--policy", policy, "--out", thinned])
    _run(["decompose", "--in", thinned, "--out", thinned_csv])
    out["simulate-social-thinned"] = _sha_file(thinned)
    out["decompose-social-thinned"] = _sha_file(thinned_csv)

    # Every span whose id ends in 1 or 5 removed: a quarter of the rest are
    # orphans, which --lenient re-parents under the root.
    holed, holed_csv = d / "social-holed.jsonl", d / "social-holed.csv"
    with open(d / "social.jsonl") as src, open(holed, "w") as dst:
        dst.writelines(line for line in src if json.loads(line)["spanId"][-1] not in "15")
    _run(["decompose", "--lenient", "--in", holed, "--out", holed_csv])
    out["decompose-lenient-orphans"] = _sha_file(holed_csv)

    # Tag analysis on the canary file: the strongest tag over every
    # identity, against two targets, and one named identity's table.
    canary = d / "media-canary.jsonl"
    out["tags-json"] = _sha(_run(["tags", "--in", canary, "--json"]))
    out["tags-json-e2e"] = _sha(_run(["tags", "--in", canary, "--json", "--target", "e2e"]))
    out["tags-table-recommend"] = _sha(_run(["tags", "--in", canary, "--service", "recommend",
                                             "--operation", "list"]))

    rows = run_one(RunConfig(preset="social"), 0).rows
    out["run_one-social"] = _sha_json([dataclasses.asdict(r) for r in rows])

    rows_csv, sweep_csv = d / "experiment.csv", d / "sweep.csv"
    summary = _run(["experiment", "--preset", "media", "--seeds", "0,1", "--epochs", 4,
                    "--out", rows_csv])
    out["experiment-summary"] = _sha_json(json.loads(summary))
    # The last column, inference_ms, is wall-clock time.
    untimed = "\n".join(line.rsplit(",", 1)[0] for line in rows_csv.read_text().splitlines())
    out["experiment-csv"] = hashlib.sha256(untimed.encode()).hexdigest()
    swept = _run(["experiment", "--preset", "rail", "--seeds", "0", "--epochs", 3,
                  "--sweep", "percentile", "--values", "60,90", "--out", sweep_csv])
    out["experiment-sweep"] = _sha_json(json.loads(swept))
    out["experiment-sweep-csv"] = _sha_file(sweep_csv)

    compared = d / "compare.json"
    printed = json.loads(_run(["compare-baselines", "--seed", 0, "--out", compared]))
    printed.pop("out")
    out["compare-baselines"] = _sha_json(printed)
    out["compare-baselines-file"] = _sha_file(compared)

    spec, traces, truth = d / "mixed-spec.json", d / "mixed.jsonl", d / "mixed-truth.json"
    save_spec(get_preset("social").topology, MIXED_ANOMALIES,
              WorkloadSpec(num_requests=400, rng_seed=5), str(spec))
    _run(["simulate", "--spec", spec, "--rate", 0.7, "--out", traces, "--truth-out", truth])
    out["simulate-mixed-spec"] = _sha_file(traces)
    out["truth-mixed-spec"] = _sha_file(truth)

    social = get_preset("social")
    spec, traces, truth = d / "layered-spec.json", d / "layered.jsonl", d / "layered-truth.json"
    layered = TopologySpec(social.topology.root, social.topology.operations, LAYERED_TAGS)
    save_spec(layered, LAYERED_ANOMALIES, WorkloadSpec(num_requests=400, rng_seed=9), str(spec))
    _run(["simulate", "--spec", spec, "--rate", 0.8, "--policy", policy, "--out", traces,
          "--truth-out", truth])
    out["simulate-layered-spec"] = _sha_file(traces)
    out["truth-layered-spec"] = _sha_file(truth)

    schedule = [(1, social.anomalies), (4, (RandomDelayAnomaly(SpanIdentity("cache", "timeline-set")),))]
    shifted = run_closed_loop(
        social.topology, schedule, with_seed(social.workload, 3), ControllerConfig(), num_epochs=8
    )
    out["shift_anomaly-social"] = _sha_json([dataclasses.asdict(r) for r in shifted.rows])
    return out


def test_golden_cases_cover_every_output(digests):
    assert sorted(digests) == sorted(GOLDEN)


def test_mixed_spec_fires_every_anomaly(digests, golden_dir):
    truth = json.loads((golden_dir / "mixed-truth.json").read_text())
    counts = {k: len(v) for k, v in truth["activations"].items()}
    assert counts == {
        "canary:media": 105,
        "contention:post-store": 137,
        "random_delay:text/process": 72,
    }


def test_layered_spec_fires_every_anomaly(digests, golden_dir):
    truth = json.loads((golden_dir / "layered-truth.json").read_text())
    counts = {k: len(v) for k, v in truth["activations"].items()}
    assert counts == {
        "canary:user-store": 480,
        "contention:cache": 2664,
        "contention:cache#2": 1384,
        "random_delay:user-store/find": 197,
    }


def test_tag_and_measure_analysis_decompose_each_trace_once(digests, golden_dir, monkeypatch):
    # Each analysis sweeps the batch once, not once per identity:
    # every trace goes through one self-time union once.
    calls = []

    def counted(traces):
        calls.extend(trace.trace_id for trace in traces)
        return self_segments_us(traces)

    monkeypatch.setattr(tag_analysis, "self_segments_us", counted)
    monkeypatch.setattr(utility, "self_segments_us", counted)
    path = golden_dir / "media-canary.jsonl"
    traces = read_traces_jsonl(str(path))
    assert len(traces) == 500
    counts = {}
    for name, run in (
        ("tags --json", lambda: _run(["tags", "--in", path, "--json"])),
        ("strongest_tag", lambda: tag_analysis.strongest_tag(traces)),
        ("compute_batch_utilities", lambda: utility.compute_batch_utilities(traces)),
    ):
        calls.clear()
        run()
        counts[name] = len(calls)
    assert counts == {"tags --json": 500, "strongest_tag": 500, "compute_batch_utilities": 500}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(digests, case):
    assert digests[case] == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(PLANNER_CASES))
def test_golden_policy(case):
    make_store, knobs = PLANNER_CASES[case]
    policy = build_policy(make_store(), VitalSetConfig(**knobs))
    assert _sha_json(policy_to_json_dict(policy)) == PLANNER_GOLDEN[case]
