"""One closed-loop run, printed epoch by epoch as the loop yields it.

Each epoch: sample a batch of traces under the current policy, score
per-identity self-time variance, fold the normalized scores into the
Beta beliefs, and publish the next policy from the vital-set
planner. Watch the injected fault's sampling probability climb while the
total instrumentation paid for falls.
"""
import argparse
import itertools

from spanbandit import ControllerConfig, RunResult, closed_loop, get_preset, with_seed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--preset", default="social")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=20)
    args = ap.parse_args()

    preset = get_preset(args.preset)
    fault_labels = ", ".join(
        i.label() for a in preset.anomalies for i in [getattr(a, "target", None)] if i
    )
    print(f"preset {preset.name}: {len(preset.topology.identities())} identities, "
          f"injected fault at {fault_labels or preset.anomalies}")

    print(f"\n{'epoch':>5} {'traces':>7} {'fault prob':>11} {'enabled':>8}  top5")
    rows = []
    epochs = closed_loop(
        preset.topology,
        preset.anomalies,
        with_seed(preset.workload, args.seed),
        ControllerConfig(),
    )
    for record in itertools.islice(epochs, args.epochs):
        row = record.metrics
        rows.append(row)
        print(f"{row.epoch:>5} {row.samples_seen:>7} {row.faulty_probability:>11.3f} "
              f"{row.fraction_enabled:>8.3f}  {'hit' if row.top5_hit else '-'}")

    print(f"\ncumulative instrumentation fraction: "
          f"{RunResult(rows).cumulative_fraction_enabled():.3f}")
    reached = next(
        (r.samples_seen for r in rows if r.faulty_probability >= 0.9), None
    )
    if reached is not None:
        print(f"fault pinned at probability >= 0.9 after {reached} sampled traces")
    else:
        print("fault not pinned within this run; try more epochs")


if __name__ == "__main__":
    main()
