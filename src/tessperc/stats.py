"""Small statistics helpers: Wilson intervals and Monte Carlo result records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def wilson_ci(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def wilson_sigma(successes: int, n: int) -> float:
    """Half-width of the 1-sigma Wilson interval; a robust SE surrogate."""
    lo, hi = wilson_ci(successes, n, z=1.0)
    return (hi - lo) / 2.0


def mean_ci(values) -> tuple[float, tuple[float, float]]:
    """Sample mean with normal-approximation 95% CI (compensated summation)."""
    vals = list(values)
    n = len(vals)
    if n == 0:
        return (float("nan"), (float("nan"), float("nan")))
    m = math.fsum(vals) / n
    if n == 1:
        return (m, (m, m))
    var = math.fsum((v - m) ** 2 for v in vals) / (n - 1)
    half = 1.96 * math.sqrt(var / n)
    return (m, (m - half, m + half))


@dataclass
class PercResult:
    """A Monte Carlo probability estimate with its Wilson 95% interval."""

    estimate: float
    ci: tuple[float, float]
    replicates: int
    successes: int = 0
    failed: int = 0
    meta: dict = field(default_factory=dict)

    @staticmethod
    def from_counts(successes: int, n: int, failed: int = 0, **meta) -> "PercResult":
        return PercResult(
            estimate=successes / n if n else float("nan"),
            ci=wilson_ci(successes, n),
            replicates=n,
            successes=successes,
            failed=failed,
            meta=dict(meta),
        )

