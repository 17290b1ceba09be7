"""How policy planning cost scales with store size.

The planner builds the Poisson-binomial count over all S identities on
a fixed grid and divides each identity back out, so its cost grows as
S^2 times the number of grid bins the count does not already settle.
"""
import time

import numpy as np

from spanbandit import VitalSetConfig, build_policy
from spanbandit.experiment import synthetic_store


def median_ms(num_identities: int, reps: int = 3) -> float:
    store, cfg = synthetic_store(num_identities), VitalSetConfig()
    build_policy(store, cfg)  # warm allocator and caches
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        build_policy(store, cfg)
        times.append((time.perf_counter() - t0) * 1000.0)
    return float(np.median(times))


def main():
    print(f"{'identities':>10} {'median ms':>10}")
    for num_identities in (50, 150, 564):
        print(f"{num_identities:>10} {median_ms(num_identities):>10.1f}")


if __name__ == "__main__":
    main()
