"""Configurations of ordered compact real intervals.

Implements the calculus underlying finite-time recurrence counts: gap
distances, union diameters, and the set of index pairs whose intervals are
closer than a threshold while their hull is wider than it.  The cardinality
of that pair set is sharply bounded by ``4*(n-1)``; both the extremal and
the empty configurations are constructible.

The two tests between intervals, gap < eps and hull <= eps, have one home
here, in two forms, both exact for any denominator.  :func:`epsilon_pairs`
decides them through the rank table of the endpoints and its strict and
closed cuts (:mod:`rqamaps.ranks`): in an ordered configuration
J_1 < ... < J_n, for b > a the gap lo_b - hi_a and the hull hi_b - lo_a
both grow with b, so row a of the pair set is the range of b between two
``searchsorted`` calls over the ranks of the endpoints.
:func:`int_interval_test` decides them on integer endpoints over one
scale, against the integer threshold of ``ranks.int_threshold``; the word
counts of :mod:`rqamaps.solenoidal` read it on the bounds of pairs of
subtrees.

All operations are pure; all values are immutable after construction, so
everything here is safe to share between threads.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import ranks
from .rational import Number, as_fraction, fraction_str, positive


def _less(x: Number, y: Number) -> bool:
    """x < y, exactly, by cross-multiplying the two ``as_integer_ratio()``
    pairs (whose denominators are positive); a type without that method
    raises TypeError."""
    try:
        (p, q), (r, s) = x.as_integer_ratio(), y.as_integer_ratio()
    except AttributeError:
        raise TypeError(f"cannot compare {x!r} and {y!r} as exact rationals") from None
    return p * s < r * q


@dataclass(frozen=True)
class CompactInterval:
    """Closed interval [lo, hi]; degenerate (lo == hi) allowed.  A float
    endpoint, numpy's included, must be finite, and an endpoint without
    ``as_integer_ratio`` (a numpy integer, a string) raises TypeError."""

    lo: Number
    hi: Number

    def __post_init__(self):
        for x in (self.lo, self.hi):
            if isinstance(x, (float, np.floating)) and not math.isfinite(x):
                raise ValueError("float points must be finite")
        if _less(self.hi, self.lo):
            raise ValueError(f"invalid interval: lo={self.lo} > hi={self.hi}")

    @property
    def diam(self) -> Number:
        return self.hi - self.lo

    def __contains__(self, x: Number) -> bool:
        return self.lo <= x <= self.hi

    @staticmethod
    def exact(lo, hi) -> "CompactInterval":
        return CompactInterval(as_fraction(lo), as_fraction(hi))


def interval_dist(j: CompactInterval, k: CompactInterval) -> Number:
    """Gap distance min over point pairs; 0 when the intervals overlap."""
    if j.lo > k.hi:
        return j.lo - k.hi
    if k.lo > j.hi:
        return k.lo - j.hi
    return 0 * j.lo  # preserves Fraction/float type


def union_diam(j: CompactInterval, k: CompactInterval) -> Number:
    """Diameter of the hull: max over point pairs of the two intervals."""
    return max(j.hi, k.hi) - min(j.lo, k.lo)


@dataclass(frozen=True)
class Configuration:
    """Strictly ordered family J_1 < J_2 < ... < J_n (1-indexed)."""

    intervals: tuple[CompactInterval, ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("configuration must contain at least one interval")
        for a, b in zip(self.intervals, self.intervals[1:]):
            if not _less(a.hi, b.lo):
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


def int_interval_test(lo_a, hi_a, lo_b, hi_b, e: int, strict: bool) -> np.ndarray:
    """gap < eps (``strict``) or hull <= eps between [lo_a, hi_a] and
    [lo_b, hi_b], elementwise over integer endpoint arrays of one scale S,
    with e = ``ranks.int_threshold(eps, S, strict)``: max(lo_b - hi_a,
    lo_a - hi_b) <= e, or max(hi_a, hi_b) - min(lo_a, lo_b) <= e.  The
    endpoints need not be in order, and the tests keep these formulas when
    they are not."""
    if strict:
        return (lo_b - hi_a <= e) & (lo_a - hi_b <= e)
    return np.maximum(hi_a, hi_b) - np.minimum(lo_a, lo_b) <= e


def epsilon_pairs(c: Configuration, epsilon: Number) -> EpsilonPairSet:
    """All (a, b), 1-based, with dist < epsilon < union diameter.

    Both comparisons are strict; ties (dist == epsilon or diam == epsilon)
    exclude the pair.  (a, a) is included exactly when diam(J_a) > epsilon.
    A configuration with a float endpoint is decided in float arithmetic
    on float(x) of every endpoint, exact ones included, as every rank
    table (``ranks.table``) decides its points.
    """
    positive(epsilon)
    n = len(c.intervals)
    ends = [iv.lo for iv in c.intervals] + [iv.hi for iv in c.intervals]
    table = ranks.table(ends, 2 * n)
    rank_lo, rank_hi = table.rank[:n], table.rank[n:]
    _, near_hi = ranks.cuts(table, epsilon, strict=True)
    _, within_hi = ranks.cuts(table, epsilon, strict=False)
    # in order, for b > a: gap < eps iff lo_b < hi_a + eps iff b < near[a],
    # and hull > eps iff hi_b > lo_a + eps iff b >= wide[a]
    near = np.searchsorted(rank_lo, near_hi[rank_hi]).tolist()
    wide = np.searchsorted(rank_hi, within_hi[rank_lo]).tolist()
    pairs = [(a + 1, a + 1) for a in range(n) if wide[a] <= a]
    for a in range(n):
        for b in range(max(wide[a], a + 1), near[a]):
            pairs += [(a + 1, b + 1), (b + 1, a + 1)]
    return EpsilonPairSet(n=n, epsilon=epsilon, pairs=frozenset(pairs))


def extremal_configuration(n: int, epsilon: Number) -> Configuration:
    """Configuration attaining the sharp bound #pairs == 4*(n-1).

    Layout (delta = epsilon/10): J_1 = [0, eps+delta] and
    J_n = [2*eps, 3*eps+delta], so the outer gap is eps-delta < eps while
    both outer diameters exceed eps; the m = n-2 interior intervals are
    short equally spaced slabs strictly inside the gap: the gap is cut into
    2m+1 equal units and J_(i+1) is unit 2i-1, i = 1..m.  Deterministic,
    suitable for golden tests.

    Every endpoint is an integer times a over one denominator, for
    eps = a/b: J_1 and J_n over 10 b, and interior interval i over
    10 b (2m+1), from a (11 (2m+1) + 9 (2i-1)) to a (11 (2m+1) + 18 i).
    """
    if n < 2:
        raise ValueError("extremal configuration needs n >= 2")
    eps = positive(as_fraction(epsilon))
    a, b = eps.numerator, eps.denominator
    first = CompactInterval(Fraction(0), Fraction(11 * a, 10 * b))
    last = CompactInterval(Fraction(2 * a, b), Fraction(31 * a, 10 * b))
    units = 2 * (n - 2) + 1
    den, start = 10 * b * units, 11 * units
    interior = [CompactInterval(Fraction(a * (start + 18 * i - 9), den),
                                Fraction(a * (start + 18 * i), den))
                for i in range(1, n - 1)]
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
