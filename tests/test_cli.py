"""Command line behavior, run in process through main(argv).

CI also runs this module against a numpy-only install of the package,
so it imports neither scipy nor hypothesis.
"""
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spanbandit import (
    BeliefStore,
    CanaryAnomaly,
    ContentionAnomaly,
    ControllerConfig,
    RandomDelayAnomaly,
    SpanIdentity,
    WorkloadSpec,
    closed_loop,
    get_preset,
    load_policy,
    load_store,
    read_traces_jsonl,
    save_spec,
    with_seed,
    write_traces_jsonl,
)
from spanbandit.belief import UPDATE_MODES
from spanbandit.cli import main


def _simulate(tmp_path, name="traces.jsonl", extra=(), preset="media", requests=40):
    out = tmp_path / name
    rc = main(
        [
            "simulate",
            "--preset", preset,
            "--out", str(out),
            "--requests", str(requests),
            "--seed", "3",
            *extra,
        ]
    )
    assert rc == 0
    return out


def _strict_json(text):
    """json.loads that fails on the NaN and Infinity that json.dumps can print."""
    def reject(constant):
        raise AssertionError(f"tags --json printed {constant}")

    return json.loads(text, parse_constant=reject)


def test_simulate_writes_jsonl_and_summary(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    out = _simulate(tmp_path, extra=("--truth-out", str(truth)))
    summary = json.loads(capsys.readouterr().out)
    assert summary["command"] == "simulate"
    assert summary["requests"] == 40
    lines = out.read_text().splitlines()
    trace_ids = {json.loads(line)["traceId"] for line in lines}
    assert summary["traces"] == len(trace_ids) and summary["traces"] > 0
    assert len(lines) > len(trace_ids)
    assert "faulty" in json.loads(truth.read_text())


def test_decompose_csv(tmp_path, capsys):
    src = _simulate(tmp_path)
    capsys.readouterr()
    csv_path = tmp_path / "rows.csv"
    assert main(["decompose", "--in", str(src), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["trace_id", "span_id", "service"]
    assert len(lines) > 40
    assert main(["decompose", "--in", str(src)]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("trace_id,")


def test_learn_report_pipeline(tmp_path, capsys):
    src = _simulate(tmp_path)
    capsys.readouterr()
    state = tmp_path / "state.json"
    policy = tmp_path / "policy.json"
    rc = main(
        [
            "learn",
            "--in", str(src),
            "--state", str(state),
            "--policy-out", str(policy),
        ]
    )
    assert rc == 0
    learn_summary = json.loads(capsys.readouterr().out)
    assert learn_summary["epoch"] == 1
    assert learn_summary["identitiesTracked"] > 0
    assert learn_summary["policyEntries"] == learn_summary["identitiesTracked"]
    assert json.loads(state.read_text())["epoch"] == 1
    assert json.loads(policy.read_text())["entries"]

    # A second pass over the same state advances the epoch.
    assert main(["learn", "--in", str(src), "--state", str(state)]) == 0
    assert json.loads(capsys.readouterr().out)["epoch"] == 2
    assert json.loads(state.read_text())["epoch"] == 2

    csv_path = tmp_path / "report.csv"
    rc = main(
        [
            "report",
            "--state", str(state),
            "--policy", str(policy),
            "--top", "5",
            "--csv", str(csv_path),
        ]
    )
    assert rc == 0
    table = capsys.readouterr().out
    assert "rank" in table and "vital" in table
    assert csv_path.read_text().startswith("rank,service,operation")


def test_experiment_summary_and_sweep_csv(tmp_path, capsys):
    rc = main(
        [
            "experiment",
            "--preset", "media",
            "--seeds", "0",
            "--epochs", "2",
            "--batch-size", "20",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["command"] == "experiment"
    assert summary["seeds"] == 1
    assert "meanCumulativeFractionEnabled" in summary

    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "experiment",
            "--preset", "media",
            "--seeds", "0",
            "--epochs", "2",
            "--batch-size", "20",
            "--sweep", "epsilon",
            "--values", "0.05,0.1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["value"] for p in payload["sweep"]] == [0.05, 0.1]
    assert out.read_text().startswith("# config: ")


def test_tags_json_is_strict_json_with_a_nan_tag_value(tmp_path, capsys):
    # One "nan" among numeric tag values once made Pearson's r NaN, which
    # json.dumps prints as a bare NaN.
    path = tmp_path / "traces.jsonl"
    lines = [
        {"traceId": f"t{i}", "spanId": "s0", "service": "api", "operation": "get",
         "startUs": 0, "durationUs": 200 if i < 10 else 100,
         "tags": {"ver": "a" if i < 10 else "b", "shard": "nan" if i == 3 else str(i % 2)}}
        for i in range(20)
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))

    assert main(["tags", "--in", str(path), "--json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert [row["key"] for row in payload["correlations"]] == ["ver", "shard"]


def test_tags_json_output(tmp_path, capsys):
    out = tmp_path / "traces.jsonl"
    rc = main(
        [
            "simulate",
            "--preset", "media-canary",
            "--out", str(out),
            "--requests", "120",
            "--seed", "3",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(
        [
            "tags",
            "--in", str(out),
            "--service", "recommend",
            "--operation", "list",
            "--target", "e2e",
            "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identity"] == "recommend/list"
    assert payload["target"] == "e2e"
    keys = [row["key"] for row in payload["correlations"]]
    assert "service.version" in keys

    # The strongest tag over every identity: strict JSON too.
    assert main(["tags", "--in", str(out), "--json"]) == 0
    assert _strict_json(capsys.readouterr().out)["correlations"]


def test_tags_requires_service_and_operation_together(tmp_path, capsys):
    src = _simulate(tmp_path)
    capsys.readouterr()
    rc = main(["tags", "--in", str(src), "--service", "video"])
    captured = capsys.readouterr()
    assert rc == 2
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"


def test_compare_baselines_json(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    rc = main(
        [
            "compare-baselines",
            "--arms", "20",
            "--budget", "600",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary["survivors"]) == {
        "median_elimination", "exponential_gap", "belief_sampler",
    }
    assert summary["survivors"]["median_elimination"] == 20
    full = json.loads(out.read_text())
    assert len(full["armMeans"]) == 20


def test_missing_input_reports_json_error(tmp_path, capsys):
    rc = main(["decompose", "--in", str(tmp_path / "nope.jsonl")])
    captured = capsys.readouterr()
    assert rc == 2
    err = json.loads(captured.err)
    assert err["error"] == "FileNotFoundError"
    assert "message" in err


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    flagged = tmp_path / "flagged.jsonl"
    rc = main(["simulate", "--preset", "media", "--out", str(flagged),
               "--requests", "25", "--seed", "11"])
    assert rc == 0
    monkeypatch.setenv("SPANBANDIT_SEED", "11")
    env_out = tmp_path / "env.jsonl"
    rc = main(["simulate", "--preset", "media", "--out", str(env_out), "--requests", "25"])
    assert rc == 0
    capsys.readouterr()
    assert env_out.read_bytes() == flagged.read_bytes()


def test_cli_import_loads_no_scipy():
    # scipy is a test extra only; a fresh `import scipy.special` alone costs
    # about a third of a second, which every CLI call would pay.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, spanbandit.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "spanbandit" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, field",
    [
        (["experiment", "--preset", "social", "--seeds", "0", "--epochs", "0"], "num_epochs"),
        (["experiment", "--preset", "social", "--seeds", ","], "seeds"),
        (["compare-baselines", "--budget", "0"], "budget"),
        (["compare-baselines", "--ege-cap", "0"], "ege_quota_cap"),
        (["compare-baselines", "--ege-cap", "-3"], "ege_quota_cap"),
        (["compare-baselines", "--ege-me-cap", "0"], "ege_me_cap"),
        (["compare-baselines", "--arms", "1"], "num_arms"),
        (["compare-baselines", "--seed", "-1"], "seed"),
        (["SPANBANDIT_SEED=abc", "compare-baselines"], "SPANBANDIT_SEED"),
        (["SPANBANDIT_SEED=-1", "compare-baselines"], "SPANBANDIT_SEED"),
    ],
)
def test_out_of_range_flag_reports_json_error(argv, field, capsys, monkeypatch):
    if "=" in argv[0]:  # a leading NAME=value sets that environment variable, as in a shell
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    rc = main(argv)
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["error"] == "ValueError"
    assert field in err["message"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--seeds", "0,0"], "seed 0"),
        (["--percentile", "500", "--epochs", "1"], "percentile"),
        (["--lambda", "7"], "lambda"),
        (["--measure", "nosuch"], "nosuch"),
        (["--sweep", "epsilon", "--values", "0.1,1.5"], "epsilon"),
        (["--sweep", "request_sampling_rate", "--values", "0.5,1.5"], "request_sampling_rate"),
        (["--seeds", "0,-1"], "rngSeed"),
        (["--seeds", "1.5"], "--seeds"),
        (["--values", "0.1"], "--sweep"),
    ],
)
def test_experiment_rejects_bad_settings_before_any_run(monkeypatch, capsys, argv, named):
    def never(*args, **kwargs):
        raise AssertionError("a run started before its settings were checked")

    for target in ("cli.run_experiment", "experiment.run_experiment", "experiment.run_one"):
        monkeypatch.setattr(f"spanbandit.{target}", never)
    rc = main(["experiment", *argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert named in json.loads(captured.err)["message"]


def test_state_file_with_non_string_identity_reports_json_error(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"epoch": 1, "lambda": 0.3, "mode": "verbatim_ewma", "beliefs": [
        {"service": 5, "operation": "o", "alpha": 1.0, "beta": 1.0},
        {"service": "s", "operation": "o", "alpha": 1.0, "beta": 1.0},
    ]}))
    rc = main(["learn", "--in", str(_simulate(tmp_path)), "--state", str(state)])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["error"] == "ValueError"
    assert "service" in err["message"]


def test_spec_with_infinite_delay_reports_json_error(tmp_path, capsys):
    preset = get_preset("social")
    spec = tmp_path / "spec.json"
    save_spec(preset.topology, preset.anomalies, preset.workload, str(spec))
    doc = json.loads(spec.read_text())
    doc["anomalies"][0]["delayMeanUs"] = float("inf")
    spec.write_text(json.dumps(doc))
    rc = main(["simulate", "--spec", str(spec), "--requests", "20", "--out", str(tmp_path / "t.jsonl")])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["error"] == "InvalidTopology"
    assert "delay_mean_us" in err["message"]


# (anomaly index, key, value, text the error must name) on a spec holding
# contention on post-store, a random delay on text/process and a canary
# of media; index None sets the key on every operation, "serviceTags"
# on one service tag of media.
BAD_SPEC_VALUES = [
    (0, "service", "gatewya", "contention:gatewya"),
    (0, "service", 5, "service"),
    (1, "target", {"service": "text", "operation": "proces"}, "random_delay:text/proces"),
    (2, "service", "nobody", "canary:nobody"),
    (0, "window", [5], "window"),
    (0, "window", ["a", "b"], "window"),
    (0, "window", [1, 2, 3], "window"),
    (0, "factor", 1e308, "post-store/"),
    (1, "delayMeanUs", 1e308, "text/process"),
    (2, "tagKey", "", "tag_key"),
    (2, "canaryValue", 7, "canary_value"),
    (None, "muLog", 800.0, "gateway/compose-post"),
    ("serviceTags", "values", "dc1", "ServiceTagSpec.values"),
]


@pytest.mark.parametrize("index, key, value, named", BAD_SPEC_VALUES)
def test_bad_spec_value_reports_json_error(tmp_path, capsys, index, key, value, named):
    anomalies = (
        ContentionAnomaly("post-store", 3.0, (0, 300)),
        RandomDelayAnomaly(SpanIdentity("text", "process"), 1.0),
        CanaryAnomaly("media", 0.4),
    )
    spec = tmp_path / "spec.json"
    save_spec(get_preset("social").topology, anomalies, WorkloadSpec(num_requests=30), str(spec))
    doc = json.loads(spec.read_text())
    if index is None:
        for op in doc["topology"]["operations"]:
            op[key] = value
    elif index == "serviceTags":
        doc["topology"]["serviceTags"] = [{"service": "media", "key": "datacenter", key: value}]
    else:
        doc["anomalies"][index][key] = value
        if key == "delayMeanUs":
            doc["anomalies"][index]["delayStdUs"] = value
    spec.write_text(json.dumps(doc))
    rc = main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "t.jsonl")])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["error"] == "InvalidTopology"
    assert named in err["message"]


@pytest.mark.parametrize("top", ["0", "-1"])
def test_report_top_below_one_reports_json_error(tmp_path, capsys, top):
    state = tmp_path / "state.json"
    assert main(["learn", "--in", str(_simulate(tmp_path)), "--state", str(state)]) == 0
    capsys.readouterr()
    rc = main(["report", "--state", str(state), "--top", top])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert "--top" in err["message"]


# (file, key, value, error): counts that int() would truncate or accept.
NON_INTEGER_COUNTS = [
    ("spec", "numRequests", 2.9, "InvalidTopology"),
    ("spec", "batchSize", True, "InvalidTopology"),
    ("spec", "rngSeed", 1.5, "InvalidTopology"),
    ("state", "epoch", 1.7, "InvalidBelief"),
    ("state", "epoch", False, "InvalidBelief"),
    ("policy", "epoch", 1.5, "InvalidPolicy"),
    ("policy", "epoch", True, "InvalidPolicy"),
]


def _files_with_one_change(tmp_path, capsys, kind, change):
    """A spec, a state and a policy file, the `kind` one's document replaced by `change(document)`."""
    traces = _simulate(tmp_path)
    spec, state, policy = tmp_path / "spec.json", tmp_path / "state.json", tmp_path / "policy.json"
    preset = get_preset("media")
    save_spec(preset.topology, preset.anomalies, preset.workload, str(spec))
    assert main(["learn", "--in", str(traces), "--state", str(state),
                 "--policy-out", str(policy)]) == 0
    capsys.readouterr()
    path = {"spec": spec, "state": state, "policy": policy}[kind]
    path.write_text(json.dumps(change(json.loads(path.read_text()))))
    return traces, spec, state, policy


def _files_with_one_value_changed(tmp_path, capsys, kind, key, value):
    """A spec, a state and a policy file, with `key` of the `kind` one set to `value`."""
    def change(doc):
        (doc["workload"] if kind == "spec" else doc)[key] = value
        return doc

    return _files_with_one_change(tmp_path, capsys, kind, change)


def _main_reading(kind, tmp_path, traces, spec, state, policy):
    """main() on the command that reads the `kind` file."""
    return main({
        "spec": ["simulate", "--spec", str(spec), "--out", str(tmp_path / "t.jsonl")],
        "state": ["learn", "--in", str(traces), "--state", str(state)],
        "policy": ["report", "--state", str(state), "--policy", str(policy)],
    }[kind])


@pytest.mark.parametrize("kind, key, value, error", NON_INTEGER_COUNTS)
def test_non_integer_count_in_json_file_reports_json_error(tmp_path, capsys, kind, key, value, error):
    files = _files_with_one_value_changed(tmp_path, capsys, kind, key, value)
    rc = _main_reading(kind, tmp_path, *files)
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["error"] == error
    assert key in err["message"]


def _set(value, *path):
    """A change to a document that sets the node at `path` to `value`."""
    def change(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    return change


def _twice(key):
    """A change that lists the first row under `key` again, its empty url left out."""
    def change(doc):
        row = {k: v for k, v in doc[key][0].items() if k != "url"}
        doc[key].append(row)
        return doc

    return change


# (file, change, error, text the message must name): documents of the wrong
# shape, and one identity listed twice.
BAD_SHAPES = [
    pytest.param("state", lambda doc: [1, 2], "InvalidBelief", "state file", id="state-list"),
    pytest.param("state", _set(5, "beliefs"), "InvalidBelief", "beliefs", id="state-beliefs-number"),
    pytest.param("state", _set(["x"], "beliefs"), "InvalidBelief", "beliefs", id="state-belief-string"),
    pytest.param("state", _set({}, "beliefs"), "InvalidBelief", "beliefs", id="state-beliefs-object"),
    pytest.param("state", _twice("beliefs"), "InvalidBelief", "listed twice in beliefs", id="state-twice"),
    pytest.param("policy", lambda doc: [doc], "InvalidPolicy", "policy file", id="policy-list"),
    pytest.param("policy", _set("x", "entries"), "InvalidPolicy", "entries", id="policy-entries-string"),
    pytest.param("policy", _twice("entries"), "InvalidPolicy", "listed twice in entries", id="policy-twice"),
    pytest.param("spec", lambda doc: [doc], "InvalidTopology", "spec file", id="spec-list"),
    pytest.param("spec", _set("x", "topology", "operations", 0, "calls"), "InvalidTopology", "calls",
                 id="spec-calls-string"),
    pytest.param("spec", _set([1], "workload"), "InvalidTopology", "workload", id="spec-workload-list"),
]


@pytest.mark.parametrize("kind, change, error, named", BAD_SHAPES)
def test_json_file_of_the_wrong_shape_reports_json_error(tmp_path, capsys, kind, change, error, named):
    files = _files_with_one_change(tmp_path, capsys, kind, change)
    rc = _main_reading(kind, tmp_path, *files)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error
    assert named in err["message"]


# (alpha, beta, text the message must name): beliefs no epoch could
# produce and the planner could not plan.
OUT_OF_DOMAIN_BELIEFS = [
    pytest.param(1.7e308, 1.7e308, "alpha + beta must be finite", id="sum-overflows"),
    pytest.param(1e300, 1e-300, "beta must be finite and >= 1e-09", id="beta-below-floor"),
]


@pytest.mark.parametrize("alpha, beta, named", OUT_OF_DOMAIN_BELIEFS)
def test_state_file_with_a_belief_outside_the_planners_domain_reports_json_error(
    tmp_path, capsys, alpha, beta, named
):
    def change(doc):
        doc["beliefs"][0].update(alpha=alpha, beta=beta)
        return doc

    traces, _, state, _ = _files_with_one_change(tmp_path, capsys, "state", change)
    rc = main(["learn", "--in", str(traces), "--state", str(state),
               "--policy-out", str(tmp_path / "replanned.json")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InvalidBelief"
    assert named in err["message"]


def test_report_refuses_a_policy_identity_the_state_lacks(tmp_path, capsys):
    ghost = {"service": "ghost", "operation": "log", "url": "", "probability": 1.0, "vitalProbability": 1.0}
    _, _, state, policy = _files_with_one_change(
        tmp_path, capsys, "policy", lambda doc: {**doc, "entries": doc["entries"] + [ghost]}
    )
    rc = main(["report", "--state", str(state), "--policy", str(policy)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InvalidPolicy"
    assert "ghost/log" in err["message"]
    # The other way round is allowed: a state may be newer than its policy.
    doc = json.loads(policy.read_text())
    doc["entries"] = doc["entries"][1:-1]
    policy.write_text(json.dumps(doc))
    assert main(["report", "--state", str(state), "--policy", str(policy)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(doc["entries"])


# (file, key, value, error): values float() would have turned into numbers.
NON_NUMBERS = [
    ("state", "lambda", "0.3", "InvalidBelief"),
    ("state", "lambda", True, "InvalidBelief"),
    ("policy", "epsilon", "0.05", "InvalidPolicy"),
    ("policy", "percentile", True, "InvalidPolicy"),
]


@pytest.mark.parametrize("kind, key, value, error", NON_NUMBERS)
def test_non_number_in_json_file_reports_json_error(tmp_path, capsys, kind, key, value, error):
    _, _, state, policy = _files_with_one_value_changed(tmp_path, capsys, kind, key, value)
    rc = main(["report", "--state", str(state), "--policy", str(policy)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error
    assert f"{key} must be a finite number" in err["message"]


# (spec workload key, value): counts below their least value, a rate outside (0, 1].
OUT_OF_RANGE_WORKLOAD = [
    ("numRequests", 0),
    ("batchSize", 0),
    ("rngSeed", -1),
    ("requestSamplingRate", 0),
    ("requestSamplingRate", 1.5),
]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE_WORKLOAD)
def test_out_of_range_workload_in_spec_file_reports_json_error(tmp_path, capsys, key, value):
    _, spec, _, _ = _files_with_one_value_changed(tmp_path, capsys, "spec", key, value)
    rc = main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "t.jsonl")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InvalidTopology"
    assert key in err["message"]


def test_negative_seed_flag_reports_json_error(tmp_path, capsys):
    rc = main(["simulate", "--preset", "social", "--seed", "-1", "--requests", "5",
               "--out", str(tmp_path / "t.jsonl")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InvalidTopology"
    assert "rngSeed" in err["message"]
    assert not (tmp_path / "t.jsonl").exists()


def test_tags_json_is_strict_json_with_huge_and_constant_float_tags(tmp_path, capsys):
    # A +-1e308 column once overflowed np.std and made r NaN; a constant
    # "2.2" column once passed as varying, with r a rounding residue.
    path = tmp_path / "traces.jsonl"
    lines = [
        {"traceId": f"t{i}", "spanId": "s0", "service": "api", "operation": "get",
         "startUs": 0, "durationUs": 100 + 10 * i,
         "tags": {"huge": "1e308" if i % 2 else "-1e308", "w": "2.2"}}
        for i in range(20)
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))

    assert main(["tags", "--in", str(path), "--json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    rows = {row["key"]: row for row in payload["correlations"]}
    assert rows["huge"]["degenerate"] is False
    assert rows["w"]["degenerate"] is True
    assert rows["w"]["r"] == 0.0


@pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
def test_tags_for_an_identity_no_span_has_reports_json_error(tmp_path, capsys, as_json):
    src = _simulate(tmp_path)
    capsys.readouterr()
    argv = ["tags", "--in", str(src), "--service", "nosuch", "--operation", "x"]
    rc = main(argv + ["--json"] * as_json)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert "nosuch/x" in err["message"]


class _Ran(Exception):
    pass


def _refuse_to_run(*args, **kwargs):
    raise _Ran


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--threshold", "nan"),
        ("--threshold", "inf"),
        ("--threshold", "0"),
        ("--threshold", "-0.5"),
        ("--threshold", "1.5"),
        ("--within", "0"),
        ("--within", "-5"),
    ],
)
@pytest.mark.parametrize("sweep", [False, True], ids=["runs", "sweep"])
def test_experiment_rejects_bad_threshold_and_within_before_any_run(
    monkeypatch, capsys, flag, value, sweep
):
    monkeypatch.setattr("spanbandit.cli.run_experiment", _refuse_to_run)
    monkeypatch.setattr("spanbandit.cli.sweep", _refuse_to_run)
    argv = ["experiment", "--seeds", "0", "--epochs", "1", flag, value]
    if sweep:
        argv += ["--sweep", "epsilon", "--values", "0.1"]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert flag in err["message"] and value in err["message"]


def test_experiment_accepts_threshold_one_and_within_one(monkeypatch):
    monkeypatch.setattr("spanbandit.cli.run_experiment", _refuse_to_run)
    with pytest.raises(_Ran):
        main(["experiment", "--seeds", "0", "--threshold", "1", "--within", "1"])


# (flags, named): a bad knob fails before learn reads --in or writes --state,
# with or without --policy-out.
BAD_LEARN_KNOBS = [
    (["--percentile", "500", "--policy-out", "p.json"], "percentile"),
    (["--epsilon", "7"], "epsilon"),
    (["--measure", "nosuch"], "measure"),
    (["--lambda", "7"], "lambda"),
]


@pytest.mark.parametrize("existing", [False, True], ids=["fresh-state", "existing-state"])
@pytest.mark.parametrize("flags, named", BAD_LEARN_KNOBS)
def test_learn_checks_every_knob_before_reading_input(tmp_path, capsys, monkeypatch, flags, named, existing):
    state = tmp_path / "state.json"
    if existing:
        assert main(["learn", "--in", str(_simulate(tmp_path)), "--state", str(state)]) == 0
        before = state.read_bytes()
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("learn read its input before its knobs were checked")

    monkeypatch.setattr("spanbandit.cli.read_traces_jsonl", never)
    monkeypatch.chdir(tmp_path)
    rc = main(["learn", "--in", "t.jsonl", "--state", str(state), *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert named in (err["error"] + err["message"]).lower()
    assert (state.read_bytes() == before) if existing else not state.exists()
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("with_policy", [True, False], ids=["with-policy", "replan"])
@pytest.mark.parametrize("flags, named", [(["--percentile", "500"], "percentile"), (["--epsilon", "7"], "epsilon")])
def test_report_checks_planner_flags_even_with_a_policy(tmp_path, capsys, flags, named, with_policy):
    state, policy = tmp_path / "state.json", tmp_path / "policy.json"
    assert main(["learn", "--in", str(_simulate(tmp_path)), "--state", str(state),
                 "--policy-out", str(policy)]) == 0
    capsys.readouterr()
    argv = ["report", "--state", str(state), *flags]
    rc = main(argv + (["--policy", str(policy)] if with_policy else []))
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InvalidPolicy" and named in err["message"]


@pytest.mark.parametrize("value", ["500", "0", "nan"])
def test_compare_baselines_checks_percentile_before_any_contender(monkeypatch, capsys, value):
    for contender in ("me_run", "ege_run", "abs_run"):
        monkeypatch.setattr(f"spanbandit.baselines.{contender}", _refuse_to_run)
    rc = main(["compare-baselines", "--arms", "4", "--budget", "100", "--percentile", value])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InvalidPolicy" and "percentile" in err["message"]


def _batch_with_one_lone_identity(path):
    """Five api -> db traces; cache/get appears in the first trace only."""
    spans = []
    for t in range(5):
        spans.append({"traceId": f"t{t}", "spanId": "root", "service": "api", "operation": "get",
                      "startUs": 0, "durationUs": 1000 + 130 * t * t})
        spans.append({"traceId": f"t{t}", "spanId": "db", "parentId": "root", "service": "db",
                      "operation": "query", "startUs": 100, "durationUs": 300 + 70 * t})
    spans.append({"traceId": "t0", "spanId": "cache", "parentId": "root", "service": "cache",
                  "operation": "get", "startUs": 500, "durationUs": 200})
    path.write_text("".join(json.dumps(s) + "\n" for s in spans))


@pytest.mark.parametrize("measure, lone_updated", [("variance", False), ("mean", True)])
def test_learn_withholds_thin_estimates(tmp_path, capsys, measure, lone_updated):
    batch, state, out = tmp_path / "batch.jsonl", tmp_path / "state.json", tmp_path / "out.json"
    _batch_with_one_lone_identity(batch)
    state.write_text(json.dumps({"epoch": 3, "lambda": 0.3, "mode": "verbatim_ewma", "beliefs": [
        {"service": "cache", "operation": "get", "url": "", "alpha": 2.0, "beta": 3.0}]}))
    rc = main(["learn", "--in", str(batch), "--state", str(state), "--state-out", str(out),
               "--measure", measure])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["identitiesTracked"] == 3
    assert summary["identitiesUpdated"] == (3 if lone_updated else 2)
    beliefs = {(b["service"], b["operation"]): (b["alpha"], b["beta"])
               for b in json.loads(out.read_text())["beliefs"]}
    assert (beliefs[("cache", "get")] != (2.0, 3.0)) == lone_updated
    assert beliefs[("api", "get")] != (1.0, 1.0) and beliefs[("db", "query")] != (1.0, 1.0)
    # The same rule on the library's epoch step: the estimates applied are the ones returned.
    store = BeliefStore()
    applied = ControllerConfig(measure=measure).learn(store, read_traces_jsonl(str(batch)))
    assert {e.identity.service for e in applied} == ({"api", "db", "cache"} if lone_updated else {"api", "db"})
    assert set(store.beliefs) == {e.identity for e in applied}


def test_learn_on_children_first_lines_equals_learn_in_order(tmp_path, capsys):
    # Each trace's lines reversed, the traces kept in order: every child
    # arrives before its parent.
    src = _simulate(tmp_path, preset="social", requests=200)
    groups = {}
    for line in src.read_text().splitlines(keepends=True):
        groups.setdefault(json.loads(line)["traceId"], []).append(line)
    reversed_src = tmp_path / "reversed.jsonl"
    reversed_src.write_text("".join(line for lines in groups.values() for line in reversed(lines)))
    in_order, children_first = tmp_path / "state.json", tmp_path / "reversed-state.json"
    assert main(["learn", "--in", str(src), "--state", str(in_order)]) == 0
    assert main(["learn", "--in", str(reversed_src), "--state", str(children_first)]) == 0
    assert children_first.read_bytes() == in_order.read_bytes()


def test_decompose_of_a_holed_file_needs_lenient(tmp_path, capsys):
    # Line 2 is the first trace's first child, a parent itself: without it
    # its children are orphans, which only --lenient accepts.
    lines = _simulate(tmp_path, preset="social", requests=200).read_text().splitlines(keepends=True)
    holed = tmp_path / "holed.jsonl"
    holed.write_text("".join(lines[:1] + lines[2:]))
    capsys.readouterr()
    rc = main(["decompose", "--in", str(holed), "--out", str(tmp_path / "strict.csv")])
    captured = capsys.readouterr()
    assert rc == 2 and json.loads(captured.err)["error"] == "OrphanSpan"
    assert main(["decompose", "--lenient", "--in", str(holed), "--out", str(tmp_path / "holed.csv")]) == 0


def test_learn_names_the_line_of_a_list_url(tmp_path, capsys):
    # A list url is no identity and no dict key.
    lines = _simulate(tmp_path, preset="social", requests=200).read_text().splitlines(keepends=True)
    obj = json.loads(lines[1])
    obj["url"] = ["u"]
    lines[1] = json.dumps(obj) + "\n"
    bad = tmp_path / "listurl.jsonl"
    bad.write_text("".join(lines))
    capsys.readouterr()
    state = tmp_path / "state.json"
    rc = main(["learn", "--in", str(bad), "--state", str(state)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "TraceFormatError" and "line 2" in err["message"]
    assert not state.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["fresh-state", "existing-state"])
def test_learn_plans_before_it_writes_either_file(tmp_path, capsys, existing):
    # One trace: every estimate is thin under variance, so nothing is
    # learned and the store stays empty, which cannot be planned.
    src = _simulate(tmp_path, preset="social", requests=1)
    state, policy = tmp_path / "state.json", tmp_path / "policy.json"
    argv = ["learn", "--in", str(src), "--state", str(state), "--measure", "variance"]
    if existing:
        assert main(argv) == 0
        assert json.loads(state.read_text())["beliefs"] == []
        before = state.read_bytes()
    capsys.readouterr()
    rc = main(argv + ["--policy-out", str(policy)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "EmptyStore"
    assert (state.read_bytes() == before) if existing else not state.exists()
    assert not policy.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--url", "/x"], "--url"),
        (["--service", "video"], "--service and --operation"),
        (["--operation", "list"], "--service and --operation"),
    ],
    ids=["url-alone", "service-alone", "operation-alone"],
)
def test_tags_rejects_a_flag_it_would_ignore_before_reading_input(tmp_path, capsys, monkeypatch, flags, named):
    def never(*args, **kwargs):
        raise AssertionError("tags read its input before its flags were checked")

    monkeypatch.setattr("spanbandit.cli.read_traces_jsonl", never)
    rc = main(["tags", "--in", str(tmp_path / "t.jsonl"), *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError" and named in err["message"]


def test_a_hand_written_policy_probability_is_read_and_reported_as_given(tmp_path, capsys):
    # Policy files are accepted as written, not only as the planner writes
    # them (max(vital, epsilon)): `simulate --policy` runs hand-written ones.
    state, policy = tmp_path / "state.json", tmp_path / "policy.json"
    assert main(["learn", "--in", str(_simulate(tmp_path)), "--state", str(state),
                 "--policy-out", str(policy)]) == 0
    doc = json.loads(policy.read_text())
    row = doc["entries"][0]
    assert doc["epsilon"] == 0.05
    row.update(probability=0.01, vitalProbability=0.5)
    policy.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", "--state", str(state), "--policy", str(policy)]) == 0
    label = SpanIdentity(row["service"], row["operation"], row["url"]).label()
    line = next(line.split() for line in capsys.readouterr().out.splitlines()[1:] if line.split()[1] == label)
    # rank, label, vital, probability, posterior mean, and no "eliminated" flag
    assert line[2:4] == ["0.5000", "0.0100"] and len(line) == 5


@pytest.mark.parametrize("mode", UPDATE_MODES)
@pytest.mark.parametrize("preset", ["social", "rail", "media"])
def test_the_loop_through_files_and_learn_equals_the_loop_in_memory(tmp_path, capsys, preset, mode):
    # Each epoch's batch goes through a JSONL file and `learn`, with the
    # state file carried from epoch to epoch. After every epoch the files
    # hold the loop's own store and policy: their floats compare with ==,
    # and none is NaN, so equal is bit-identical.
    p = get_preset(preset)
    batch, state, policy = tmp_path / "batch.jsonl", tmp_path / "state.json", tmp_path / "policy.json"
    epochs = closed_loop(p.topology, p.anomalies, with_seed(p.workload, 3), ControllerConfig(mode=mode))
    for record in itertools.islice(epochs, 10):
        write_traces_jsonl(record.traces, str(batch))
        assert main(["learn", "--in", str(batch), "--state", str(state), "--policy-out", str(policy),
                     "--mode", mode]) == 0
        assert load_store(str(state)) == record.store, f"epoch {record.metrics.epoch}"
        assert load_policy(str(policy)) == record.policy, f"epoch {record.metrics.epoch}"
    capsys.readouterr()


def test_simulate_spec_of_a_2000_deep_chain(tmp_path, capsys):
    # Nothing recurses per call level, so any depth loads and simulates.
    depth = 2000
    ops = [
        {"service": f"svc{i}", "operation": "op", "muLog": 4.6, "sigmaLog": 0.1,
         "calls": [{"service": f"svc{i + 1}", "operation": "op"}] if i + 1 < depth else []}
        for i in range(depth)
    ]
    spec, out = tmp_path / "chain.json", tmp_path / "chain.jsonl"
    spec.write_text(json.dumps({"topology": {"root": {"service": "svc0", "operation": "op"}, "operations": ops}}))
    assert main(["simulate", "--spec", str(spec), "--requests", "2", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["traces"] == 2
    assert [len(t) for t in read_traces_jsonl(str(out))] == [depth, depth]


# One tag value per JSON type: a string, number, boolean or null reads as
# its str(); an object or a list is refused, naming the line and the key.
TAG_VALUES = [("eu", True), (7, True), (2.5, True), (True, True), (None, True), ({"a": 1}, False), ([1], False)]


@pytest.mark.parametrize("value, read", TAG_VALUES, ids=["string", "integer", "float", "boolean", "null", "object", "list"])
def test_a_tag_value_of_each_json_type_is_read_or_refused(tmp_path, capsys, value, read):
    lines = _simulate(tmp_path, preset="social", requests=100).read_text().splitlines(keepends=True)
    obj = json.loads(lines[1])
    obj["tags"] = {**obj.get("tags", {}), "zone": value}
    lines[1] = json.dumps(obj) + "\n"
    path = tmp_path / "tagged.jsonl"
    path.write_text("".join(lines))
    capsys.readouterr()
    for argv in (["learn", "--in", str(path), "--state", str(tmp_path / "state.json")],
                 ["tags", "--in", str(path), "--json"]):
        rc = main(argv)
        captured = capsys.readouterr()
        if read:
            assert rc == 0, captured.err
        else:
            assert rc == 2 and captured.out == ""
            err = json.loads(captured.err)
            assert err["error"] == "TraceFormatError"
            assert "line 2" in err["message"] and "'zone'" in err["message"]
    if read:
        assert read_traces_jsonl(str(path))[0].tags[1]["zone"] == str(value)
