"""A state, policy or spec file one change away from a valid one is read or refused, never crashed on.

Each property takes a valid document and makes one change at any depth:
it replaces one node with a value of another JSON type, deletes one key
of an object, or lists one row of a list twice. The command that reads
the file must then exit 0, or exit 2 with one JSON error object on
stderr. It must never exit 1 or raise. The draws are derandomized, so a
run is reproducible.
"""
import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanbandit import (
    BeliefStore,
    ContentionAnomaly,
    ControllerConfig,
    RandomDelayAnomaly,
    WorkloadSpec,
    get_preset,
    policy_to_json_dict,
    simulate_workload,
    store_to_json_dict,
)
from spanbandit.cli import main
from spanbandit.simulator import spec_to_json_dict

_settings = settings(derandomize=True, database=None, max_examples=300, deadline=None)
KINDS = ("state", "policy", "spec")

# One strategy per JSON type; a node is replaced by a value of another type.
_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=4),
    "array": st.lists(st.integers(0, 2) | st.text(max_size=2), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def _paths(node, path=()):
    """The path of every node under `node`, itself included, as key and index tuples."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


@st.composite
def _one_change(draw, doc):
    """`doc` with one node retyped, one key deleted or one list row listed twice."""
    # A depth first, then a node at that depth, so that the few shallow
    # nodes are drawn as often as the many deep ones.
    paths = list(_paths(doc))
    depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
    box = [copy.deepcopy(doc)]  # the root's parent, so every node has one
    path = (0, *draw(st.sampled_from([p for p in paths if len(p) == depth])))
    parent = box
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    changes = ["retype"]
    if isinstance(parent, dict):
        changes.append("delete")
    elif parent is not box:
        changes.append("twice")
    change = draw(st.sampled_from(changes))
    if change == "retype":
        kind = draw(st.sampled_from([k for k in _VALUES if k != _json_type(parent[key])]))
        parent[key] = draw(_VALUES[kind])
    elif change == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return box[0]


def _status(argv) -> int:
    """main(argv)'s exit status, after checking that an exit 2 printed one JSON error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), (rc, err.getvalue())
    if rc == 2:
        error = json.loads(err.getvalue())
        assert sorted(error) == ["error", "message"] and error["message"], error
    return rc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid state, policy and spec file, by kind."""
    media = get_preset("media")
    traces, _ = simulate_workload(media.topology, media.anomalies, WorkloadSpec(num_requests=40, rng_seed=3))
    controller, store = ControllerConfig(), BeliefStore()
    controller.learn(store, traces)
    canary = get_preset("media-canary")
    ops = [i for i in canary.topology.identities() if i != canary.topology.root]
    anomalies = (*canary.anomalies, ContentionAnomaly(ops[0].service, 2.0, (0, 2)), RandomDelayAnomaly(ops[1]))
    documents = {
        "state": store_to_json_dict(store),
        "policy": policy_to_json_dict(controller.plan(store)),
        "spec": spec_to_json_dict(canary.topology, anomalies, WorkloadSpec(num_requests=5, rng_seed=1)),
    }
    d = tmp_path_factory.mktemp("shapes")
    paths = {kind: d / f"{kind}.json" for kind in documents}
    for kind, path in paths.items():
        path.write_text(json.dumps(documents[kind]))
    return paths


def _reading(kind, files, path):
    """The command that reads the `kind` file, given at `path`."""
    return {
        "state": ["report", "--state", str(path)],
        "policy": ["report", "--state", str(files["state"]), "--policy", str(path)],
        "spec": ["simulate", "--spec", str(path), "--requests", "3", "--out", str(path.with_suffix(".jsonl"))],
    }[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_each_valid_file_reads(files, kind):
    assert _status(_reading(kind, files, files[kind])) == 0


@pytest.mark.parametrize("kind", KINDS)
@_settings
@given(data=st.data())
def test_a_file_one_change_away_is_read_or_refused(files, kind, data):
    doc = data.draw(_one_change(json.loads(files[kind].read_text())))
    path = files[kind].with_name(f"changed-{kind}.json")
    path.write_text(json.dumps(doc))
    _status(_reading(kind, files, path))
