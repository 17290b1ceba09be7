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
from typing import Iterable, Sequence

from .trace_model import SpanIdentity, Trace
from .utility import UtilityEstimate, compute_batch_utilities, measure_min_samples

PARAM_FLOOR = 1e-9
UPDATE_MODES = ("verbatim_ewma", "discounted_count")


class NormalizationOutOfRange(ValueError):
    pass


class InvalidBelief(ValueError):
    """A Beta parameter that is not a finite positive number."""


@dataclass
class BetaBelief:
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        # One NaN belief zeroes every identity's vital probability, so
        # non-finite parameters are rejected here, not downstream.
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidBelief(f"{name} must be finite and > 0, got {value!r}")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


def init_belief() -> BetaBelief:
    """Uninformed prior: Beta(1, 1), the uniform distribution."""
    return BetaBelief(1.0, 1.0)


def posterior_variance(b: BetaBelief) -> float:
    s = b.alpha + b.beta
    return (b.alpha * b.beta) / (s * s * (s + 1.0))


@dataclass
class BeliefStore:
    """All per-identity beliefs plus the update configuration.

    The store is mutated only by its owning controller loop; anything that
    reads concurrently (the planner, report writers) should take a
    snapshot() instead.
    """

    lam: float = 0.3
    mode: str = "verbatim_ewma"
    epoch: int = 0
    beliefs: dict[SpanIdentity, BetaBelief] = field(default_factory=dict)

    def __post_init__(self) -> None:
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


def learn_batch(
    store: BeliefStore, traces: Sequence[Trace], measure: str = "variance"
) -> list[UtilityEstimate]:
    """The learning half of one epoch: score the batch, then update the store.

    An estimate from fewer observations than the measure needs (a single
    observation carries no spread) is withheld, so its identity is left
    untouched as if absent instead of being pushed toward zero utility.
    Returns the estimates that were applied.
    """
    estimates = compute_batch_utilities(traces, measure)
    floor = measure_min_samples(measure)
    estimates = [e for e in estimates if e.sample_count >= floor]
    update_epoch(store, estimates)
    return estimates


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
            {
                "service": identity.service,
                "operation": identity.operation,
                "url": identity.url,
                "alpha": b.alpha,
                "beta": b.beta,
            }
            for identity, b in sorted(store.beliefs.items())
        ],
    }


def store_from_json_dict(obj: dict) -> BeliefStore:
    store = BeliefStore(lam=float(obj["lambda"]), mode=str(obj["mode"]), epoch=int(obj["epoch"]))
    for row in obj["beliefs"]:
        identity = SpanIdentity(row["service"], row["operation"], row.get("url", ""))
        store.beliefs[identity] = BetaBelief(float(row["alpha"]), float(row["beta"]))
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
