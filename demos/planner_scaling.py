"""How policy planning cost scales with store size.

The planner builds the Poisson-binomial count over all S identities on
a fixed grid and divides each identity back out, so its cost grows as
S^2 times the grid's bin count.
"""
from spanbandit import bench_inference


def main():
    print(f"{'identities':>10} {'median ms':>10}")
    for num_identities in (50, 150, 564):
        res = bench_inference(num_identities=num_identities, reps=3)
        print(f"{num_identities:>10} {res.median_ms:>10.1f}")


if __name__ == "__main__":
    main()
