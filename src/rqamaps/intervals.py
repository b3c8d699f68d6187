"""Configurations of ordered compact real intervals.

Implements the calculus underlying finite-time recurrence counts: gap
distances, union diameters, and the set of index pairs whose intervals are
closer than a threshold while their hull is wider than it.  The cardinality
of that pair set is sharply bounded by ``4*(n-1)``; both the extremal and
the empty configurations are constructible.

In an ordered configuration J_1 < ... < J_n, for b > a the gap is
metric(hi_a, lo_b) and the hull metric(lo_a, hi_b).  Under any
order-preserving metric both grow with b and shrink with a, so each row of
the pair set is a contiguous range of b whose two ends only move right as
a grows.  Two pointers find every row in O(n + #pairs) metric calls.

All operations are pure; all values are immutable after construction, so
everything here is safe to share between threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .rational import Number, as_fraction, fraction_str, positive


def euclidean(x: Number, y: Number) -> Number:
    """Default metric |x - y|.  Order-preserving on the real line."""
    return abs(x - y)


# Seam for alternative order-preserving metrics (strictly monotone growth of
# outer-pair distances).  Only the Euclidean metric is shipped; the endpoint
# formulas below are valid for any order-preserving metric.
Metric = Callable[[Number, Number], Number]


@dataclass(frozen=True)
class CompactInterval:
    """Closed interval [lo, hi]; degenerate (lo == hi) allowed."""

    lo: Number
    hi: Number

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo={self.lo} > hi={self.hi}")

    @property
    def diam(self) -> Number:
        return self.hi - self.lo

    def __contains__(self, x: Number) -> bool:
        return self.lo <= x <= self.hi

    @staticmethod
    def exact(lo, hi) -> "CompactInterval":
        return CompactInterval(as_fraction(lo), as_fraction(hi))


def interval_dist(j: CompactInterval, k: CompactInterval,
                  metric: Metric = euclidean) -> Number:
    """Gap distance min over point pairs; 0 when the intervals overlap."""
    if j.lo > k.hi:
        return metric(k.hi, j.lo)
    if k.lo > j.hi:
        return metric(j.hi, k.lo)
    return 0 * j.lo  # preserves Fraction/float type


def union_diam(j: CompactInterval, k: CompactInterval,
               metric: Metric = euclidean) -> Number:
    """Diameter of the hull: max over point pairs of the two intervals."""
    return metric(min(j.lo, k.lo), max(j.hi, k.hi))


@dataclass(frozen=True)
class Configuration:
    """Strictly ordered family J_1 < J_2 < ... < J_n (1-indexed)."""

    intervals: tuple[CompactInterval, ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("configuration must contain at least one interval")
        for a, b in zip(self.intervals, self.intervals[1:]):
            if not a.hi < b.lo:
                raise ValueError(
                    f"intervals not strictly ordered: [{a.lo},{a.hi}] !< [{b.lo},{b.hi}]")

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, a: int) -> CompactInterval:
        """1-based indexing."""
        if not 1 <= a <= len(self.intervals):
            raise IndexError(f"index {a} outside 1..{len(self.intervals)}")
        return self.intervals[a - 1]

    @staticmethod
    def of(pairs: Iterable[tuple]) -> "Configuration":
        return Configuration(tuple(CompactInterval.exact(lo, hi) for lo, hi in pairs))

    def to_json(self) -> str:
        """JSON array of [lo, hi] pairs, endpoints as exact rational strings."""
        data = [[fraction_str(iv.lo), fraction_str(iv.hi)] for iv in self.intervals]
        return json.dumps(data)

    @staticmethod
    def from_json(text: str) -> "Configuration":
        """Parse a configuration file, an array of [lo, hi] arrays; a
        malformed one raises ValueError."""
        data = json.loads(text)
        if not (isinstance(data, list)
                and all(isinstance(pair, list) and len(pair) == 2 for pair in data)):
            raise ValueError("malformed configuration JSON: need [lo, hi] arrays in an array")
        try:
            return Configuration.of(data)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed configuration JSON: {exc!r}") from exc


@dataclass(frozen=True)
class EpsilonPairSet:
    """Index pairs (a, b) with dist(J_a, J_b) < epsilon < diam(J_a u J_b).

    Symmetric under swap by construction; for n >= 2 the cardinality never
    exceeds 4*(n-1).
    """

    n: int
    epsilon: Number
    pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    @property
    def bound(self) -> int:
        """Sharp cardinality bound 4*(n-1), or 1 for a single interval."""
        return 4 * (self.n - 1) if self.n >= 2 else 1


def epsilon_pairs(c: Configuration, epsilon: Number,
                  metric: Metric = euclidean) -> EpsilonPairSet:
    """All (a, b), 1-based, with dist < epsilon < union diameter.

    Both comparisons are strict; ties (dist == epsilon or diam == epsilon)
    exclude the pair.  (a, a) is included exactly when diam(J_a) > epsilon.
    """
    positive(epsilon)
    ivs = c.intervals
    n = len(ivs)
    pairs = []
    near = wide = 0   # row a's first b with gap >= eps, and with hull > eps
    for a, ja in enumerate(ivs):
        if metric(ja.lo, ja.hi) > epsilon:
            pairs.append((a + 1, a + 1))
        # row a is the range [wide, near); both ends only move right as a
        # grows (see the module docstring)
        near = max(near, a + 1)
        while near < n and metric(ja.hi, ivs[near].lo) < epsilon:
            near += 1
        wide = max(wide, a + 1)
        while wide < near and not metric(ja.lo, ivs[wide].hi) > epsilon:
            wide += 1
        for b in range(wide, near):
            pairs += [(a + 1, b + 1), (b + 1, a + 1)]
    return EpsilonPairSet(n=n, epsilon=epsilon, pairs=frozenset(pairs))


def extremal_configuration(n: int, epsilon: Number) -> Configuration:
    """Configuration attaining the sharp bound #pairs == 4*(n-1).

    Layout (delta = epsilon/10): J_1 = [0, eps+delta] and
    J_n = [2*eps, 3*eps+delta], so the outer gap is eps-delta < eps while
    both outer diameters exceed eps; the n-2 interior intervals are short
    equally spaced slabs strictly inside the gap.  Deterministic, suitable
    for golden tests.
    """
    if n < 2:
        raise ValueError("extremal configuration needs n >= 2")
    eps = positive(as_fraction(epsilon))
    delta = eps / 10
    first = CompactInterval(Fraction(0), eps + delta)
    last = CompactInterval(2 * eps, 3 * eps + delta)
    interior = []
    m = n - 2
    if m:
        gap = eps - delta  # width of the open gap between first and last
        unit = gap / (2 * m + 1)
        for i in range(1, m + 1):
            lo = first.hi + (2 * i - 1) * unit
            interior.append(CompactInterval(lo, lo + unit))
    return Configuration((first, *interior, last))


def zero_configuration(n: int, epsilon: Number) -> Configuration:
    """Configuration with an empty pair set: short intervals, wide gaps.

    Each interval has diameter exactly epsilon (never > epsilon) and
    consecutive gaps exactly epsilon (never < epsilon), so no pair
    satisfies both strict inequalities.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    eps = positive(as_fraction(epsilon))
    return Configuration(tuple(
        CompactInterval(2 * k * eps, 2 * k * eps + eps) for k in range(n)))
