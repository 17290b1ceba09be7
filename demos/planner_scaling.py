"""How policy planning cost scales with store size and row count.

Planning is one (rows x identities) matrix of Beta draws plus a
per-row partition for the percentile threshold, so cost is close to
linear in both dimensions.
"""
from spanbandit import bench_inference


def main():
    print(f"{'identities':>10} {'mc rows':>8} {'median ms':>10}")
    for num_identities in (50, 150, 564):
        for mc_rows in (2_000, 10_000):
            res = bench_inference(num_identities=num_identities, mc_rows=mc_rows, reps=3)
            print(f"{num_identities:>10} {mc_rows:>8} {res.median_ms:>10.1f}")


if __name__ == "__main__":
    main()
