"""Independent checks of a planned policy.

The oracle re-derives each identity's vital probability by Monte Carlo
without calling the package's planner: one numpy Beta draw per identity
per row, the row's linear-interpolation P-th percentile as threshold,
and the fraction of rows in which the identity's draw met it. Both the
planner and the oracle carry Monte-Carlo error, so the tolerance is a
multiple of the standard error of their difference.
"""
from __future__ import annotations

import numpy as np

ORACLE_ROWS = 40_000
ORACLE_SEED = 20240515
# Largest |z| accepted over all identities. For 564 independent normal
# differences the maximum |z| exceeds 5.5 with probability below 3e-5.
Z_MAX = 5.5
# Reference row count for a planner that no longer draws rows: its error
# is then taken to be no worse than a 10k-row Monte-Carlo estimate.
REFERENCE_ROWS = 10_000


def oracle_vital(alphas: np.ndarray, betas: np.ndarray, percentile: float,
                 rows: int = ORACLE_ROWS, seed: int = ORACLE_SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    s = len(alphas)
    hits = np.zeros(s)
    chunk = 4_000
    for lo in range(0, rows, chunk):
        n = min(chunk, rows - lo)
        values = rng.beta(alphas, betas, size=(n, s))
        thresh = np.percentile(values, percentile, axis=1, method="linear")
        hits += (values >= thresh[:, None]).sum(axis=0)
    return hits / rows


def oracle_failures(identities, alphas, betas, vital: dict, percentile: float,
                    planner_rows: int | None) -> list[str]:
    """Identities whose planned vital probability is off the oracle's."""
    expected = oracle_vital(np.asarray(alphas, float), np.asarray(betas, float), percentile)
    n_plan = planner_rows or REFERENCE_ROWS
    failures = []
    for identity, q in zip(identities, expected):
        got = vital.get(identity)
        if got is None:
            failures.append(f"{identity}: missing from the policy")
            continue
        # Pooled Bernoulli variance, floored at one planner row so that
        # probabilities near 0 or 1 still allow a few rows of noise.
        p = (got * n_plan + q * ORACLE_ROWS) / (n_plan + ORACLE_ROWS)
        var = max(p * (1.0 - p), 1.0 / n_plan)
        se = np.sqrt(var * (1.0 / n_plan + 1.0 / ORACLE_ROWS))
        if abs(got - q) > Z_MAX * se:
            failures.append(f"{identity}: planned {got}, oracle {q:.4f} +- {Z_MAX * se:.4f}")
    return failures


def policy_failures(policy, expected_entries: int) -> list[str]:
    """Invariants every published policy must hold."""
    out = []
    if len(policy.entries) != expected_entries:
        out.append(f"{len(policy.entries)} entries, expected {expected_entries}")
    eps = policy.epsilon
    bad = [p for p in policy.entries.values() if not eps <= p <= 1.0]
    if bad:
        out.append(f"{len(bad)} probabilities outside [{eps}, 1]")
    total = sum(policy.vital.values())
    if not total >= 1.0 - 1e-9:
        out.append(f"vital probabilities sum to {total} < 1")
    return out
