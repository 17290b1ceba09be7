"""Quick look at the three controller knobs.

Higher percentile P plans a smaller vital set, so less instrumentation
stays enabled. Lower head sampling rates stretch the same trace budget
over more requests, so convergence costs more requests. The epsilon
floor only matters after beliefs have concentrated somewhere wrong; the
acceptance suite measures that with a mid-run fault shift, this demo
keeps to the two cheap knobs.

Five seeds here for speed; the acceptance suite runs twenty.
"""
from spanbandit import RunConfig, sweep

CFG = RunConfig(preset="social", seeds=(0, 1, 2, 3, 4), num_epochs=20)


def show(points, value_fmt, column):
    for p in points:
        val = getattr(p, column)
        print(f"  {p.param} = {p.value:<5g} -> {column} = "
              f"{'n/a' if val is None else value_fmt.format(val)}")


def main():
    print("vital-set percentile vs instrumentation kept on:")
    show(sweep(CFG, "percentile", [50.0, 75.0, 90.0]),
         "{:.4f}", "mean_cumulative_fraction_enabled")

    print("\nhead sampling rate vs requests needed to pin the fault:")
    show(sweep(CFG, "request_sampling_rate", [1.0, 0.5, 0.1]),
         "{:.0f}", "mean_requests_to_reach")


if __name__ == "__main__":
    main()
