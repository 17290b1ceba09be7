"""How policy planning cost scales with store size.

In each grid bin that a bound does not already settle, the planner
builds the Poisson-binomial count of all S identities below it: in
blocks of PMF_BLOCK identities, one step per identity with every block
in the same array operations, and then a pairwise convolution of the
blocks' pmfs, about S^2/2 multiply-adds per bin. It then divides each
identity back out by a Horner sum over only the rows of the count that
its pmf does not certify negligible, so each sum takes as many steps as
that window is wide, not S. At the sizes below, plan time grows about
linearly in S on synthetic stores, far more slowly than S^2.
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
    for num_identities in (50, 150, 564, 1128, 2256, 4512):
        print(f"{num_identities:>10} {median_ms(num_identities):>10.1f}")


if __name__ == "__main__":
    main()
