"""Bundled demo topologies.

Three shapes with different texture:

* ``social``: a feed-style app, wide parallel fan-out under a composer.
* ``rail``: a booking flow, deep sequential chains with shared helper
  operations reached from several call sites.
* ``media``: a watch-page render, a mix of fan-out and chains, plus a
  dedicated id-generation service.

Each carries a handful of operations with visibly heavier latency noise
and one default injected fault, so a fresh run has something to find.
``media-canary`` swaps the fault for a slow canary deployment plus decoy
tags, for the tag-correlation workflow.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .simulator import (
    AnomalySpec,
    CallSpec,
    CanaryAnomaly,
    OperationSpec,
    RandomDelayAnomaly,
    ServiceTagSpec,
    TopologySpec,
    WorkloadSpec,
    latency_from_median_us,
)
from .trace_model import SpanIdentity


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    topology: TopologySpec
    anomalies: tuple[AnomalySpec, ...]
    workload: WorkloadSpec


def _ops(rows) -> tuple[OperationSpec, ...]:
    identities = {}
    for service, operation, url, _median, _sigma, _calls in rows:
        key = f"{service}/{operation}"
        if key in identities:
            raise ValueError(f"duplicate preset row {key}")
        identities[key] = SpanIdentity(service, operation, url)
    out = []
    for service, operation, url, median, sigma, calls in rows:
        specs = tuple(
            CallSpec(identities[key], "parallel" if mode == "par" else "sequential")
            for key, mode in calls
        )
        out.append(
            OperationSpec(
                identities[f"{service}/{operation}"],
                latency_from_median_us(median, sigma),
                specs,
            )
        )
    return tuple(out)


def _social_rows():
    return [
        ("gateway", "compose-post", "/api/v1/post", 1200, 0.32, (
            ("auth/check", "seq"),
            ("compose/orchestrate", "seq"),
            ("post-store/store", "seq"),
            ("home-timeline/write", "seq"),
            ("user-timeline/write", "par"),
            ("notify/fanout", "seq"),
            ("metrics/emit", "par"),
        )),
        ("auth", "check", "", 400, 0.36, (
            ("cache/session-get", "seq"),
            ("user-store/session-find", "seq"),
        )),
        ("compose", "orchestrate", "", 900, 0.36, (
            ("unique-id/generate", "seq"),
            ("text/process", "par"),
            ("media/upload", "par"),
            ("user/lookup", "par"),
        )),
        ("unique-id", "generate", "", 250, 0.36, ()),
        ("text", "process", "", 800, 0.42, (
            ("spam/filter", "seq"),
            ("url-shorten/shorten", "par"),
            ("user-mention/extract", "par"),
        )),
        ("spam", "filter", "", 500, 0.36, ()),
        ("url-shorten", "shorten", "", 450, 0.36, (
            ("cache/url-get", "seq"),
            ("url-store/insert", "seq"),
        )),
        ("user-mention", "extract", "", 420, 0.36, (
            ("cache/mention-get", "seq"),
            ("user-store/find-mentions", "seq"),
        )),
        ("media", "upload", "", 800, 0.82, (
            ("media-store/put", "seq"),
            ("media-meta/insert", "seq"),
        )),
        ("user", "lookup", "", 380, 0.36, (
            ("cache/user-get", "seq"),
            ("user-store/find", "seq"),
        )),
        ("post-store", "store", "", 600, 0.36, (
            ("post-db/insert", "seq"),
            ("cache/post-set", "par"),
        )),
        ("post-db", "insert", "", 850, 0.80, ()),
        ("home-timeline", "write", "", 700, 0.36, (
            ("social-graph/followers", "seq"),
            ("rank/score", "seq"),
            ("cache/home-set", "seq"),
        )),
        ("social-graph", "followers", "", 500, 0.36, (
            ("cache/graph-get", "seq"),
            ("graph-store/find", "seq"),
        )),
        ("graph-store", "find", "", 750, 0.84, ()),
        ("rank", "score", "", 1400, 0.33, ()),
        ("user-timeline", "write", "", 520, 0.36, (
            ("cache/timeline-set", "seq"),
        )),
        ("notify", "fanout", "", 600, 0.36, (
            ("queue/publish", "seq"),
            ("push/send", "par"),
            ("analytics/log", "par"),
        )),
        ("queue", "publish", "", 900, 0.79, ()),
        ("push", "send", "", 1300, 0.33, ()),
        ("analytics", "log", "", 480, 0.36, ()),
        ("metrics", "emit", "", 300, 0.36, ()),
        ("cache", "session-get", "", 180, 0.36, ()),
        ("cache", "url-get", "", 170, 0.36, ()),
        ("cache", "mention-get", "", 175, 0.36, ()),
        ("cache", "user-get", "", 185, 0.36, ()),
        ("cache", "post-set", "", 190, 0.36, ()),
        ("cache", "home-set", "", 195, 0.36, ()),
        ("cache", "timeline-set", "", 200, 0.36, ()),
        ("cache", "graph-get", "", 165, 0.36, ()),
        ("user-store", "session-find", "", 520, 0.36, ()),
        ("user-store", "find-mentions", "", 560, 0.36, ()),
        ("user-store", "find", "", 540, 0.36, ()),
        ("url-store", "insert", "", 650, 0.36, ()),
        ("media-store", "put", "", 950, 0.77, ()),
        ("media-meta", "insert", "", 700, 0.36, ()),
    ]


def _rail_rows():
    return [
        ("gateway", "book-ticket", "/api/v1/book", 1500, 0.30, (
            ("rate-limit/check", "seq"),
            ("auth/verify", "par"),
            ("travel/plan", "seq"),
            ("preserve/reserve", "seq"),
            ("payment/pay", "seq"),
            ("notify/send", "seq"),
            ("audit/log", "par"),
        )),
        ("rate-limit", "check", "", 150, 0.25, ()),
        ("auth", "verify", "", 260, 0.25, (
            ("session-cache/get", "seq"),
            ("user-db/find-auth", "seq"),
        )),
        ("session-cache", "get", "", 140, 0.25, ()),
        ("user-db", "find-auth", "", 300, 0.25, ()),
        ("travel", "plan", "", 420, 0.25, (
            ("route/query", "seq"),
            ("train/query", "seq"),
            ("seat/availability", "seq"),
        )),
        ("route", "query", "", 330, 0.25, (
            ("route-db/find", "seq"),
            ("station/lookup", "seq"),
        )),
        ("route-db", "find", "", 340, 0.25, ()),
        ("station", "lookup", "", 190, 0.25, (
            ("station-cache/get", "seq"),
            ("station-db/find", "seq"),
        )),
        ("station-cache", "get", "", 130, 0.25, ()),
        ("station-db", "find", "", 280, 0.25, ()),
        ("train", "query", "", 320, 0.25, (
            ("train-db/find", "seq"),
            ("price/calculate", "seq"),
        )),
        ("train-db", "find", "", 780, 0.83, ()),
        ("price", "calculate", "", 260, 0.25, (
            ("price-db/find", "seq"),
            ("config/get", "seq"),
        )),
        ("price-db", "find", "", 290, 0.25, ()),
        ("config", "get", "", 150, 0.25, ()),
        ("seat", "availability", "", 380, 0.28, (
            ("seat-db/find", "seq"),
            ("order/count", "seq"),
        )),
        ("seat-db", "find", "", 620, 0.30, ()),
        ("order", "count", "", 310, 0.25, ()),
        ("preserve", "reserve", "", 450, 0.30, (
            ("contacts/get", "seq"),
            ("security/check", "seq"),
            ("station/lookup", "seq"),
            ("order/create", "seq"),
            ("config/get", "seq"),
        )),
        ("contacts", "get", "", 230, 0.25, (
            ("contacts-db/find", "seq"),
        )),
        ("contacts-db", "find", "", 300, 0.25, ()),
        ("security", "check", "", 600, 0.25, (
            ("security-db/find", "seq"),
            ("order/history", "seq"),
        )),
        ("security-db", "find", "", 290, 0.25, ()),
        ("order", "history", "", 340, 0.25, ()),
        ("order", "create", "", 390, 0.28, (
            ("order-db/insert", "seq"),
            ("assurance/add", "seq"),
            ("food/add", "seq"),
            ("consign/add", "seq"),
        )),
        ("order-db", "insert", "", 580, 0.30, ()),
        ("assurance", "add", "", 240, 0.25, (
            ("assurance-db/insert", "seq"),
        )),
        ("assurance-db", "insert", "", 280, 0.25, ()),
        ("food", "add", "", 250, 0.25, (
            ("food-db/insert", "seq"),
            ("station/lookup", "seq"),
        )),
        ("food-db", "insert", "", 290, 0.25, ()),
        ("consign", "add", "", 240, 0.25, (
            ("consign-db/insert", "seq"),
        )),
        ("consign-db", "insert", "", 270, 0.25, ()),
        ("payment", "pay", "", 430, 0.30, (
            ("payment-gw/charge", "seq"),
            ("payment-db/insert", "seq"),
            ("config/get", "seq"),
        )),
        ("payment-gw", "charge", "", 950, 0.77, ()),
        ("payment-db", "insert", "", 310, 0.25, ()),
        ("notify", "send", "", 300, 0.25, (
            ("template/render", "seq"),
            ("email/send", "seq"),
            ("sms/send", "par"),
        )),
        ("template", "render", "", 220, 0.25, ()),
        ("email", "send", "", 880, 0.80, ()),
        ("sms", "send", "", 480, 0.33, ()),
        ("audit", "log", "", 210, 0.25, ()),
    ]


def _media_rows():
    return [
        ("edge", "render-page", "/page/watch", 1100, 0.30, (
            ("rate-limit/check", "seq"),
            ("auth-svc/validate", "par"),
            ("session/track", "par"),
            ("geo-svc/resolve", "par"),
            ("page/assemble", "seq"),
            ("metrics-svc/emit", "seq"),
            ("cdn-log/write", "par"),
        )),
        ("rate-limit", "check", "", 210, 0.25, ()),
        ("auth-svc", "validate", "", 430, 0.25, (
            ("token-cache/get", "seq"),
            ("account-db/find", "seq"),
        )),
        ("token-cache", "get", "", 175, 0.25, ()),
        ("account-db", "find", "", 540, 0.25, ()),
        ("session", "track", "", 380, 0.25, (
            ("unique-id/generate", "seq"),
            ("session-db/upsert", "seq"),
        )),
        ("unique-id", "generate", "", 240, 0.25, ()),
        ("session-db", "upsert", "", 520, 0.25, ()),
        ("geo-svc", "resolve", "", 360, 0.25, ()),
        ("page", "assemble", "", 900, 0.28, (
            ("video/meta", "seq"),
            ("recommend/list", "par"),
            ("comments/list", "par"),
            ("ads/select", "par"),
            ("related/list", "par"),
        )),
        ("video", "meta", "", 700, 0.25, (
            ("video-db/find", "seq"),
            ("thumb-store/get", "par"),
            ("stats/views", "par"),
            ("subtitle/list", "par"),
            ("transcode/probe", "par"),
        )),
        ("video-db", "find", "", 800, 0.82, ()),
        ("thumb-store", "get", "", 300, 0.25, (
            ("watermark/sign", "seq"),
        )),
        ("watermark", "sign", "", 260, 0.25, ()),
        ("stats", "views", "", 340, 0.25, (
            ("stats-db/find", "seq"),
        )),
        ("stats-db", "find", "", 490, 0.25, ()),
        ("subtitle", "list", "", 320, 0.25, ()),
        ("transcode", "probe", "", 650, 0.28, ()),
        ("recommend", "list", "", 600, 0.25, (
            ("feature/fetch", "seq"),
            ("model/score", "seq"),
            ("video-db/find-batch", "seq"),
        )),
        ("feature", "fetch", "", 420, 0.25, (
            ("feature-cache/get", "seq"),
            ("feature-db/find", "seq"),
        )),
        ("feature-cache", "get", "", 180, 0.25, ()),
        ("feature-db", "find", "", 510, 0.25, ()),
        ("model", "score", "", 850, 0.80, ()),
        ("video-db", "find-batch", "", 750, 0.84, ()),
        ("comments", "list", "", 560, 0.25, (
            ("comment-db/find", "seq"),
            ("user-svc/profiles", "seq"),
            ("moderate/filter", "seq"),
        )),
        ("comment-db", "find", "", 780, 0.83, ()),
        ("user-svc", "profiles", "", 480, 0.25, (
            ("user-cache/get", "seq"),
            ("user-db/find-batch", "seq"),
        )),
        ("user-cache", "get", "", 185, 0.25, ()),
        ("user-db", "find-batch", "", 550, 0.25, ()),
        ("moderate", "filter", "", 620, 0.28, ()),
        ("ads", "select", "", 580, 0.25, (
            ("ad-exchange/bid", "seq"),
            ("ad-db/find", "seq"),
            ("budget/check", "seq"),
        )),
        ("ad-exchange", "bid", "", 950, 0.77, ()),
        ("ad-db", "find", "", 520, 0.25, ()),
        ("budget", "check", "", 330, 0.25, ()),
        ("related", "list", "", 540, 0.25, (
            ("graph-svc/similar", "seq"),
            ("video-db/find-batch", "seq"),
        )),
        ("graph-svc", "similar", "", 660, 0.28, ()),
        ("metrics-svc", "emit", "", 290, 0.25, ()),
        ("cdn-log", "write", "", 310, 0.25, ()),
    ]


# name -> (rows, root, target of the default delay fault, description)
_BASES = {
    "social": (
        _social_rows,
        SpanIdentity("gateway", "compose-post", "/api/v1/post"),
        SpanIdentity("text", "process"),
        "feed composer with wide parallel fan-out; delay fault in text processing",
    ),
    "rail": (
        _rail_rows,
        SpanIdentity("gateway", "book-ticket", "/api/v1/book"),
        SpanIdentity("security", "check"),
        "booking flow with deep sequential chains and shared helpers; delay fault in the security check",
    ),
    "media": (
        _media_rows,
        SpanIdentity("edge", "render-page", "/page/watch"),
        SpanIdentity("moderate", "filter"),
        "watch-page render mixing fan-out and chains; delay fault in comment moderation",
    ),
}


@lru_cache(maxsize=None)
def get_preset(name: str) -> Preset:
    if name in _BASES:
        rows, root, target, description = _BASES[name]
        return Preset(
            name=name,
            description=description,
            topology=TopologySpec(root=root, operations=_ops(rows())),
            anomalies=(RandomDelayAnomaly(target=target),),
            workload=WorkloadSpec(),
        )
    if name == "media-canary":
        base = get_preset("media")
        topology = TopologySpec(
            root=base.topology.root,
            operations=base.topology.operations,
            service_tags=(
                ServiceTagSpec("edge", "datacenter", ("dc1", "dc2", "dc3")),
                ServiceTagSpec("video-db", "shard", ("shard-a", "shard-b", "shard-c")),
                ServiceTagSpec("user-svc", "region", ("eu-west", "us-east")),
                ServiceTagSpec("ads", "experiment", ("exp-on", "exp-off")),
                ServiceTagSpec("recommend", "build", ("b101", "b102")),
            ),
        )
        canary = CanaryAnomaly(service="recommend", fraction=0.5, delay_mean_us=7500.0, delay_std_us=1200.0)
        return Preset(
            name="media-canary",
            description="media topology with a slow canary on the recommender plus decoy tags",
            topology=topology,
            anomalies=(canary,),
            workload=WorkloadSpec(),
        )
    raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")


def preset_names() -> tuple[str, ...]:
    return (*_BASES, "media-canary")
