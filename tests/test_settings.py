"""Every setting has one home: CLI flags and harness defaults name it.

Each subcommand is parsed with only its required arguments, and every
flag that mirrors a library setting must carry that setting's default
and choice list, so a changed default cannot split the library, the
harness and the CLI apart.
"""
import argparse
import dataclasses

import pytest

from spanbandit.abs_sampler import VitalSetConfig
from spanbandit.baselines import ENV_KINDS, ComparisonConfig
from spanbandit.belief import UPDATE_MODES, BeliefStore
from spanbandit.cli import build_parser
from spanbandit.experiment import (
    DETECT_THRESHOLD,
    SWEEPABLE,
    WITHIN_TRACES,
    RunConfig,
)
from spanbandit.presets import preset_names
from spanbandit.simulator import ControllerConfig
from spanbandit.tag_analysis import DEFAULT_TARGET, TARGETS
from spanbandit.utility import DEFAULT_MEASURE

KNOBS = ("measure", "lam", "mode", "percentile", "epsilon")
PLANNER = {"percentile": VitalSetConfig.percentile_p, "epsilon": VitalSetConfig.epsilon}

# subcommand -> (required arguments, {dest: library default}, {dest: library choices})
MIRRORS = {
    "simulate": (["--out", "t.jsonl"], {"preset": RunConfig.preset}, {"preset": preset_names()}),
    "learn": (
        ["--in", "t.jsonl", "--state", "s.json"],
        {"measure": DEFAULT_MEASURE, **PLANNER},
        {"mode": UPDATE_MODES},
    ),
    "report": (["--state", "s.json"], PLANNER, {}),
    "experiment": (
        [],
        {
            # Every RunConfig field is a flag of the same dest.
            **{f.name: getattr(RunConfig, f.name) for f in dataclasses.fields(RunConfig)},
            "seeds": ",".join(map(str, RunConfig.seeds)),
            "threshold": DETECT_THRESHOLD,
            "within": WITHIN_TRACES,
        },
        {"preset": preset_names(), "mode": UPDATE_MODES, "sweep": SWEEPABLE},
    ),
    "tags": (["--in", "t.jsonl"], {"target": DEFAULT_TARGET}, {"target": TARGETS}),
    "compare-baselines": (
        [],
        {
            "arms": ComparisonConfig.num_arms,
            "budget": ComparisonConfig.budget,
            "env": ComparisonConfig.env_kind,
            "ege_cap": ComparisonConfig.ege_quota_cap,
            "ege_me_cap": ComparisonConfig.ege_me_cap,
            "percentile": ComparisonConfig.abs_percentile,
        },
        {"env": ENV_KINDS},
    ),
}


def _subparser(command: str) -> argparse.ArgumentParser:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


@pytest.mark.parametrize("command", sorted(MIRRORS))
def test_flags_carry_the_library_defaults_and_choices(command):
    required, defaults, choices = MIRRORS[command]
    args = vars(build_parser().parse_args([command, *required]))
    assert {k: args[k] for k in defaults} == defaults
    actions = {a.dest: a for a in _subparser(command)._actions}
    assert {k: tuple(actions[k].choices) for k in choices} == choices


def test_controller_knobs_have_one_default():
    run, controller = RunConfig(), ControllerConfig()
    assert {k: getattr(run, k) for k in KNOBS} == {k: getattr(controller, k) for k in KNOBS}
    store, planner = BeliefStore(), VitalSetConfig()
    assert (controller.lam, controller.mode) == (store.lam, store.mode)
    assert (controller.percentile, controller.epsilon) == (planner.percentile_p, planner.epsilon)
    assert controller.measure == DEFAULT_MEASURE
    assert controller.mode in UPDATE_MODES


def test_run_config_declares_no_controller_field():
    own = set(RunConfig.__annotations__)
    assert own.isdisjoint(f.name for f in dataclasses.fields(ControllerConfig))
