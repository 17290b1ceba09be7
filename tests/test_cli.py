"""Command line behavior, run in process through main(argv)."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spanbandit import (
    CanaryAnomaly,
    ContentionAnomaly,
    RandomDelayAnomaly,
    SpanIdentity,
    WorkloadSpec,
    get_preset,
    save_spec,
)
from spanbandit.cli import main


def _simulate(tmp_path, name="traces.jsonl", extra=()):
    out = tmp_path / name
    rc = main(
        [
            "simulate",
            "--preset", "media",
            "--out", str(out),
            "--requests", "40",
            "--seed", "3",
            *extra,
        ]
    )
    assert rc == 0
    return out


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


def test_bench_inference_json(capsys):
    rc = main(["bench-inference", "--identities", "30", "--reps", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "bench-inference"
    assert payload["numIdentities"] == 30
    assert len(payload["timesMs"]) == 2


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
        (["bench-inference", "--identities", "8", "--reps", "0"], "reps"),
        (["compare-baselines", "--ege-cap", "0"], "ege_quota_cap"),
        (["compare-baselines", "--ege-cap", "-3"], "ege_quota_cap"),
        (["compare-baselines", "--ege-me-cap", "0"], "ege_me_cap"),
        (["compare-baselines", "--arms", "1"], "num_arms"),
    ],
)
def test_out_of_range_flag_reports_json_error(argv, field, capsys):
    rc = main(argv)
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["error"] == "ValueError"
    assert field in err["message"]


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
