"""Golden byte-identity of seeded outputs.

Each case runs one seeded command in process and hashes what it wrote:
the bytes of the files it produced, or its JSON with the wall-clock
fields (inference_ms, timesMs, medianMs) and the retired `workers` knob
stripped, re-serialised with sorted keys. A refactor that claims to keep
behaviour must leave every hash unchanged; a change that is meant to
alter outputs re-derives the constants and says so in CHANGES.md.

The hashes were taken with numpy 2.4.6. Another numpy release may draw
different Beta or lognormal streams, so the cases are skipped there
rather than reporting a difference the code did not make.
"""
import contextlib
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

from spanbandit.abs_sampler import VitalSetConfig, build_policy, policy_to_json_dict
from spanbandit.cli import main
from spanbandit.experiment import RunConfig, run_one, synthetic_store
from spanbandit.presets import get_preset
from spanbandit.simulator import (
    CanaryAnomaly,
    ContentionAnomaly,
    ControllerConfig,
    RandomDelayAnomaly,
    WorkloadSpec,
    save_spec,
    shift_anomaly,
    with_seed,
)
from spanbandit.trace_model import SpanIdentity

VOLATILE = {"inference_ms", "timesMs", "medianMs", "workers"}

GOLDEN = {
    "compare-baselines": "66388f4ed20f3a835d06098ed6c6f45ab2bda589c7cb1630448e39462c84eed3",
    "compare-baselines-file": "130d515338ae435fb71ca9364e5118e352115c655d51c74b07532215cb47ba27",
    "experiment-csv": "efb616000721320646380f9cc8bc83fd38e2c481c6868110f228bd02969b55f6",
    "experiment-summary": "efae3e0d72d5505068ad31146ee1bd88ad0c60e540cbfd43b813fdf0d7d527a5",
    "experiment-sweep": "cb05d77d48ec969504a7cc232ec48017770f3491234f403e84b9b747965e68bc",
    "experiment-sweep-csv": "c193ac22fa2f6dd5ff50b3333d7f1907b08dcc0611fb132496dc4639528b665d",
    "learn-policy": "8ddb7d2cd46a093e6e776a3d76a7ff191451d321e4c55bb2b6307f35925ce78b",
    "learn-state": "e760e98cd52c9040497cdc7a4312af3e16af4969b201ecbbc9622b29dfae7637",
    "learn-summary": "12835d016a3b7b1267cda210c8db1e7c62fb2046acc58060b8b16507dc8d0cec",
    "relearn-state": "09b9ee3d65f7a960596802db611131c0b54a72f5f417bb3e9b77af533c6d4ac5",
    "run_one-social": "260f361e47b322049c0cad4c533485fdba0aa375437b10974a06515e2d675331",
    "shift_anomaly-social": "97a76ba06d6af7cc3ce85a0e74fc88254ce529ee1a5426f6ae690f7361bc0436",
    "simulate-media": "56629c66ef8792ddddc136260145b1690c753f5b4a5ad6fc79466fdb5cb68fc8",
    "simulate-media-canary": "e5ad39b3783826e14323259c12ba81736da99289748b4c619efbedc2843dffe2",
    "simulate-mixed-spec": "666cbc85509316ebd7fa56afaa6d1827668c688d5a9f2b9fd7724533b357d8d4",
    "simulate-rail": "d0e4ee1af82b5d34759fd0e0af16aee52a051323dfbfd05605c510898c411a23",
    "simulate-social": "48c1cbd82ca4da54ac73e15275f735cd5243f1805305160ad4fdb3bd1a67340f",
    "truth-media": "616436f1e6884dca30408619fa9a8d24b18efc1546dc88fd7948d995e7f196a7",
    "truth-media-canary": "56f15075a23d36f82d00ade1b0b41ab2d5a09957ea2f081bdbbf26f7d33313e7",
    "truth-mixed-spec": "e4e7f83a7df6e0daf9e5d30ee2b77b41de39d31862640b7559334d92ad6bccf6",
    "truth-rail": "e0e48f247d655840312f4cc7431a9076b6509c51ba74ce4a2c0e4d2561e46c19",
    "truth-social": "e373a97fb3035288d2e4baa274b3644921f0d547da2713848c77d49e1ee721a2",
}

# Policies planned straight from synthetic stores: the benchmark's shape,
# the row-maximum threshold with uneven chunk bounds, fewer rows than
# chunks, and a single identity.
PLANNER_CASES = {
    "plan-564x10000-p75": ((564, 0), dict(mc_rows=10_000, rng_seed=0)),
    "plan-7x999-p100": ((7, 1), dict(percentile_p=100.0, mc_rows=999)),
    "plan-12x3-p50": ((12, 4), dict(percentile_p=50.0, mc_rows=3)),
    "plan-1x1000": ((1, 0), dict(mc_rows=1000)),
}

PLANNER_GOLDEN = {
    "plan-12x3-p50": "a494ea066f2c095c9c72cdec1db9f81711e57dbd365e91d3cee58cfc4ba90df7",
    "plan-1x1000": "b8dc169d89228d3c6ee2a267ec0b6c14cba169f0278ec3f6e197e72de99fb69f",
    "plan-564x10000-p75": "97a4909c487adccc3dc7e04d306d7ffee2196740aafbefe0c5443d8761466535",
    "plan-7x999-p100": "bfe06fbc417d6987ddc5ae5e3f5dee88f1ad3b9ec9da0b1a1c23fc18d71d647b",
}

# Contention, random delay and canary routing at once, head-sampled: the
# generator paths the single-fault presets leave out.
MIXED_ANOMALIES = (
    ContentionAnomaly("post-store", 3.0, (100, 300)),
    RandomDelayAnomaly(SpanIdentity("text", "process"), 0.3),
    CanaryAnomaly("media", 0.4),
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
                               "--policy-out", policy, "--seed", 0]))
    out["learn-summary"] = _sha_json({k: v for k, v in learned.items()
                                      if k not in ("state", "policyOut")})
    out["learn-state"] = _sha_file(state)
    out["learn-policy"] = _sha_file(policy)
    relearned = d / "state-2.json"
    _run(["learn", "--in", d / "media.jsonl", "--state", state, "--state-out", relearned,
          "--lambda", 0.5, "--mode", "discounted_count"])
    out["relearn-state"] = _sha_file(relearned)

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
    shifted = shift_anomaly(
        social.topology,
        social.anomalies,
        [RandomDelayAnomaly(SpanIdentity("cache", "timeline-set"))],
        4,
        with_seed(social.workload, 3),
        ControllerConfig(mc_rows=2000),
        num_epochs=8,
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


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(digests, case):
    assert digests[case] == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(PLANNER_CASES))
def test_golden_policy(case):
    store_args, knobs = PLANNER_CASES[case]
    policy = build_policy(synthetic_store(*store_args), VitalSetConfig(**knobs))
    assert _sha_json(policy_to_json_dict(policy)) == PLANNER_GOLDEN[case]
