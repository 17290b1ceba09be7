"""Beta beliefs over span utility, updated once per batch epoch.

Each identity carries Beta(alpha, beta) pseudo-counts for "this span's
latency behavior is worth watching". Updates blend the batch-normalized
utility into the parameters with an exponential forgetting factor, so
stale evidence decays and the controller can track shifting behavior.

Two update modes exist because they trade concentration differently:

* ``verbatim_ewma``: alpha <- (1-lam)*alpha + lam*u and
  beta <- (1-lam)*beta + lam*(1-u). The parameter *sum* converges to 1,
  which keeps posteriors deliberately wide: sampling probabilities stay
  exploratory and never collapse, but confidence never accumulates
  either.
* ``discounted_count``: alpha <- (1-lam)*alpha + u and
  beta <- (1-lam)*beta + (1-u). The sum converges to 1/lam, i.e. a
  sliding evidence window of about 1/lam epochs, so posteriors actually
  concentrate and low-utility spans can be eliminated with confidence.

Identities absent from a batch are left untouched rather than decayed:
"we saw nothing" must not masquerade as "we saw nothing interesting".
"""
from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable

from .trace_model import SpanIdentity, identity_from_json, identity_to_json
from .utility import UtilityEstimate

PARAM_FLOOR = 1e-9
UPDATE_MODES = ("verbatim_ewma", "discounted_count")


class NormalizationOutOfRange(ValueError):
    pass


class InvalidBelief(ValueError):
    """A Beta parameter that is not a finite number at or above PARAM_FLOOR,
    an alpha + beta that overflows, a store's lambda that is not a finite
    number, or its epoch that is not an integer."""


def json_integer(value, name: str, error: type[ValueError]) -> int:
    """A count as an int; raises `error` naming `name` for a bool, a
    non-number or a number that is not integral, which int() would truncate."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_number(value, name: str, error: type[ValueError]) -> float:
    """A finite number as a float; raises `error` naming `name` for a bool,
    a string or other non-number, and for NaN or an infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


def json_object(value, name: str, error: type[ValueError]) -> dict:
    """`value` itself; raises `error` naming `name` when it is not a JSON object."""
    if not isinstance(value, dict):
        raise error(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def json_list(value, name: str, error: type[ValueError]) -> list:
    """`value` itself; raises `error` naming `name` when it is not a JSON list."""
    if not isinstance(value, list):
        raise error(f"{name} must be a JSON list, got {type(value).__name__}")
    return value


def identity_rows(obj: dict, key: str, error: type[ValueError]) -> dict[SpanIdentity, dict]:
    """The objects listed under `key`, each by the identity it names, in
    file order; raises `error` naming `key` for a row that is not an
    object, and naming the identity for one listed twice."""
    rows: dict[SpanIdentity, dict] = {}
    for row in json_list(obj[key], key, error):
        identity = identity_from_json(json_object(row, f"a row of {key}", error))
        if identity in rows:
            raise error(f"{identity.label()} is listed twice in {key}")
        rows[identity] = row
    return rows


@dataclass
class BetaBelief:
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        # The planner's numeric domain has this one home. One NaN belief
        # zeroes every identity's vital probability; update_epoch never goes
        # below PARAM_FLOOR; and the planner divides by alpha + beta to
        # shrink it, so each is rejected here, not downstream.
        for name in ("alpha", "beta"):
            value = json_number(getattr(self, name), name, InvalidBelief)
            if not value >= PARAM_FLOOR:
                raise InvalidBelief(f"{name} must be finite and >= {PARAM_FLOOR}, got {value!r}")
            setattr(self, name, value)
        if not math.isfinite(self.alpha + self.beta):
            raise InvalidBelief(f"alpha + beta must be finite, got {self.alpha!r} + {self.beta!r}")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


def init_belief() -> BetaBelief:
    """Uninformed prior: Beta(1, 1), the uniform distribution."""
    return BetaBelief()


def posterior_variance(b: BetaBelief) -> float:
    s = b.alpha + b.beta
    return (b.alpha * b.beta) / (s * s * (s + 1.0))


@dataclass
class BeliefStore:
    """All per-identity beliefs plus the update configuration.

    `update_epoch` mutates the store in place; snapshot() returns an
    independent copy for a caller that needs the state as it was. The
    `lam` and `mode` defaults here are the library's: the controller
    config, the harness and the CLI name these fields.
    """

    lam: float = 0.3
    mode: str = "verbatim_ewma"
    epoch: int = 0
    beliefs: dict[SpanIdentity, BetaBelief] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.epoch = json_integer(self.epoch, "epoch", InvalidBelief)
        self.lam = json_number(self.lam, "lambda", InvalidBelief)
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lambda must lie in (0, 1], got {self.lam}")
        if self.mode not in UPDATE_MODES:
            raise ValueError(f"unknown update mode {self.mode!r}")

    def snapshot(self) -> "BeliefStore":
        return BeliefStore(
            lam=self.lam,
            mode=self.mode,
            epoch=self.epoch,
            beliefs={k: BetaBelief(v.alpha, v.beta) for k, v in self.beliefs.items()},
        )


def update_epoch(store: BeliefStore, estimates: Iterable[UtilityEstimate]) -> BeliefStore:
    """Fold one batch of normalized utilities into the store (in place).

    New identities enter at the Beta(1, 1) prior and then receive this
    epoch's update like everyone else. Parameters are floored at 1e-9 so
    extreme lambda/utility combinations cannot drive them to zero.
    """
    lam = store.lam
    for est in estimates:
        u = est.normalized
        if not 0.0 <= u <= 1.0:
            raise NormalizationOutOfRange(
                f"{est.identity.label()}: normalized utility {u} outside [0, 1]"
            )
        b = store.beliefs.get(est.identity)
        if b is None:
            b = init_belief()
            store.beliefs[est.identity] = b
        if store.mode == "verbatim_ewma":
            b.alpha = (1.0 - lam) * b.alpha + lam * u
            b.beta = (1.0 - lam) * b.beta + lam * (1.0 - u)
        else:
            b.alpha = (1.0 - lam) * b.alpha + u
            b.beta = (1.0 - lam) * b.beta + (1.0 - u)
        b.alpha = max(b.alpha, PARAM_FLOOR)
        b.beta = max(b.beta, PARAM_FLOOR)
    store.epoch += 1
    return store


# --- snapshot wire format ----------------------------------------------------
#
# {"epoch": int, "lambda": float, "mode": str,
#  "beliefs": [{"service": ..., "operation": ..., "url": ...,
#               "alpha": float, "beta": float}, ...]}


def store_to_json_dict(store: BeliefStore) -> dict:
    return {
        "epoch": store.epoch,
        "lambda": store.lam,
        "mode": store.mode,
        "beliefs": [
            {**identity_to_json(identity), "alpha": b.alpha, "beta": b.beta}
            for identity, b in sorted(store.beliefs.items())
        ],
    }


def store_from_json_dict(obj: dict) -> BeliefStore:
    obj = json_object(obj, "a state file", InvalidBelief)
    store = BeliefStore(lam=obj["lambda"], mode=obj["mode"], epoch=obj["epoch"])
    for identity, row in identity_rows(obj, "beliefs", InvalidBelief).items():
        store.beliefs[identity] = BetaBelief(row["alpha"], row["beta"])
    return store


def write_json(obj, path: str) -> None:
    """Write `obj` as indented, key-sorted JSON, replacing `path` atomically.

    The document goes to a temporary file beside `path`, which then
    replaces it, so a failure mid-write leaves the old file intact and no
    temporary file behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            json.dump(obj, f, indent=2, sort_keys=True)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_store(store: BeliefStore, path: str) -> None:
    write_json(store_to_json_dict(store), path)


def load_store(path: str) -> BeliefStore:
    with open(path) as f:
        return store_from_json_dict(json.load(f))
