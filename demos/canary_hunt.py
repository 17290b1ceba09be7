"""Find a slow canary rollout from span tags alone.

The canary preset routes half the requests through a slower build of
one service and stamps service.version on its spans. Several decoy tags
(datacenter, shard, region, an ad experiment) vary too but do not move
latency. Encoding each tag column and correlating against end-to-end
latency puts the guilty tag on top.
"""
from spanbandit import (
    WorkloadSpec,
    build_tag_matrix,
    correlation_report,
    get_preset,
    simulate_workload,
    strongest_tag,
)


def main():
    preset = get_preset("media-canary")
    anomaly = preset.anomalies[0]
    traces, _ = simulate_workload(
        preset.topology, preset.anomalies, WorkloadSpec(num_requests=300, rng_seed=0)
    )
    ident = next(i for i in preset.topology.identities() if i.service == anomaly.service)
    print(f"{len(traces)} traces; inspecting {ident.label()} "
          f"(canary fraction {anomaly.fraction})\n")

    matrix = build_tag_matrix(traces, ident)
    print(f"{'tag':<22} {'kind':<8} {'r vs end-to-end':>16}")
    for row in correlation_report(matrix, target="e2e"):
        print(f"{row.key:<22} {row.kind:<8} {row.r:>16.4f}")

    best = strongest_tag(traces, target="e2e")
    if best:
        found_matrix, found = best
        print(f"\nstrongest over all identities: {found.key} on "
              f"{found_matrix.identity.label()} (r = {found.r:.3f})")


if __name__ == "__main__":
    main()
