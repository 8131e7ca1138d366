"""Small statistics helpers shared by the test suite."""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def chi_square_homogeneity(counts_a: dict, counts_b: dict, min_expected: int = 10) -> float:
    """p-value of the two-sample chi-square test that both count dictionaries
    were drawn from one distribution.  Sparse categories (pooled count below
    ``min_expected``) are merged into one bin."""
    categories = sorted(set(counts_a) | set(counts_b))
    table = np.array(
        [
            [counts_a.get(c, 0) for c in categories],
            [counts_b.get(c, 0) for c in categories],
        ]
    )
    keep = table.sum(axis=0) >= min_expected
    merged = table[:, keep]
    if (~keep).any():
        merged = np.hstack([merged, table[:, ~keep].sum(axis=1, keepdims=True)])
    _, p_value, _, _ = stats.chi2_contingency(merged)
    return float(p_value)


def chi_square_goodness_of_fit(counts: dict, probabilities: dict, min_expected: int = 10) -> float:
    """p-value of the chi-square test that ``counts`` were drawn from the
    exact distribution ``probabilities`` (category -> probability).  Sparse
    categories (expected count below ``min_expected``) are merged into one bin."""
    if set(counts) - set(probabilities):
        return 0.0
    categories = sorted(probabilities)
    total = sum(counts.values())
    observed = np.array([counts.get(c, 0) for c in categories], dtype=float)
    expected = np.array([float(probabilities[c]) * total for c in categories])
    keep = expected >= min_expected
    if (~keep).any():
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
    return float(stats.chisquare(observed, expected).pvalue)


def binomial_lower_bound(successes: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided lower confidence bound for a binomial proportion
    (Clopper-Pearson)."""
    if successes == 0:
        return 0.0
    if successes == trials:
        return (1.0 - confidence) ** (1.0 / trials)
    return float(stats.beta.ppf(1.0 - confidence, successes, trials - successes + 1))


def stderr(rate: float, trials: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / trials)
