"""Empirical flow-size distributions (piecewise-linear inverse CDF).

The same representation ns-2 workload generators use: an ordered list of
``(size_bytes, cumulative_probability)`` points, sampled by drawing a
uniform variate and interpolating linearly within the enclosing segment.
Analytic helpers (mean, quantiles, byte shares) let tests pin down the
skewness properties the paper cites — e.g. "~60% of the web search
workload's bytes come from flows smaller than 10 MB".
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Sequence, Tuple


class EmpiricalCdf:
    """A flow-size CDF given as ``(size_bytes, cdf)`` knots.

    >>> cdf = EmpiricalCdf("tiny", [(1000, 0.0), (2000, 1.0)])
    >>> cdf.mean()
    1500.0
    >>> cdf.quantile(1.0)
    2000.0
    """

    def __init__(self, name: str, points: Sequence[Tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ValueError(f"{name}: need at least 2 CDF points")
        sizes = [float(s) for s, _ in points]
        probs = [float(p) for _, p in points]
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError(f"{name}: CDF must start at 0 and end at 1")
        for i in range(1, len(points)):
            if sizes[i] < sizes[i - 1] or probs[i] < probs[i - 1]:
                raise ValueError(f"{name}: CDF points must be non-decreasing")
        if sizes[0] <= 0:
            raise ValueError(f"{name}: sizes must be positive")
        self.name = name
        self.sizes = sizes
        self.probs = probs

    # -- sampling -------------------------------------------------------------

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size (bytes, >= 1)."""
        return max(1, int(round(self.quantile(rng.random()))))

    def quantile(self, p: float) -> float:
        """Inverse CDF with linear interpolation between knots."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0,1], got {p}")
        probs = self.probs
        i = bisect_left(probs, p)
        if i == 0:
            return self.sizes[0]
        if i >= len(probs):
            return self.sizes[-1]
        p0, p1 = probs[i - 1], probs[i]
        s0, s1 = self.sizes[i - 1], self.sizes[i]
        if p1 == p0:
            return s1
        frac = (p - p0) / (p1 - p0)
        return s0 + frac * (s1 - s0)

    # -- analytics --------------------------------------------------------------

    def mean(self) -> float:
        """Expected flow size under piecewise-linear interpolation.

        A convex combination of the knot sizes, so it lies between the
        smallest and the largest; the float sum can land an ulp outside
        (three knots at 516467 sum to 516467.00000000006) and is
        clamped back.
        """
        sizes = self.sizes
        total = 0.0
        for i in range(1, len(sizes)):
            dp = self.probs[i] - self.probs[i - 1]
            total += dp * (sizes[i] + sizes[i - 1]) / 2.0
        return min(max(total, sizes[0]), sizes[-1])

    def byte_fraction_below(self, size_bytes: float) -> float:
        """Fraction of all *bytes* contributed by flows of size <= ``size_bytes``."""
        total = self.mean()
        if total <= 0:
            return 0.0
        acc = 0.0
        for i in range(1, len(self.sizes)):
            s0, s1 = self.sizes[i - 1], self.sizes[i]
            dp = self.probs[i] - self.probs[i - 1]
            if dp == 0:
                continue
            if s1 <= size_bytes:
                acc += dp * (s0 + s1) / 2.0
            elif s0 < size_bytes:
                # partial segment: sizes are uniform on [s0, s1] within it
                frac = (size_bytes - s0) / (s1 - s0)
                acc += dp * frac * (s0 + size_bytes) / 2.0
            else:
                break
        return acc / total

    def fraction_below(self, size_bytes: float) -> float:
        """CDF evaluated at ``size_bytes`` (fraction of *flows*)."""
        sizes = self.sizes
        i = bisect_left(sizes, size_bytes)
        if i == 0:
            return 0.0 if size_bytes < sizes[0] else self.probs[0]
        if i >= len(sizes):
            return 1.0
        s0, s1 = sizes[i - 1], sizes[i]
        p0, p1 = self.probs[i - 1], self.probs[i]
        if s1 == s0:
            return p1
        return p0 + (size_bytes - s0) / (s1 - s0) * (p1 - p0)

    def truncated(self, max_size_bytes: float) -> "EmpiricalCdf":
        """A copy with the tail clipped at ``max_size_bytes``.

        Probability mass above the clip collapses onto the clip point.
        Used by the scaled-down benchmarks: a single gigabyte flow costs
        millions of simulator events, and clipping the extreme tail keeps
        the heavy-tailed *shape* while bounding per-flow cost (the clip is
        always documented next to its use).
        """
        if max_size_bytes <= self.sizes[0]:
            raise ValueError(
                f"clip {max_size_bytes} below the smallest size {self.sizes[0]}"
            )
        points = [
            (s, p) for s, p in zip(self.sizes, self.probs) if s < max_size_bytes
        ]
        points.append((max_size_bytes, 1.0))
        return EmpiricalCdf(f"{self.name}<=clip", points)

    def __repr__(self) -> str:
        return (
            f"<EmpiricalCdf {self.name}: {len(self.sizes)} knots, "
            f"mean={self.mean():.0f}B>"
        )
