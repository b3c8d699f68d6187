"""The threshold-free rank layer under every pair count.

The trajectory counts of :mod:`rqamaps.rqa`, the finite cycles of
:mod:`rqamaps.finite_omega` and the interval configurations of
:mod:`rqamaps.intervals` all test points through ranks, in two parts.
The rank table (:class:`RankTable`) does not depend on the threshold:
each point's rank among the distinct values, and the distinct values in
ascending order.  The cuts (:func:`cuts`) are computed per threshold: for
every rank, the half-open rank range of the values within eps of it, so
a pair passes iff the rank of one point lies in the range of the other.
Each cut starts from :func:`threshold`, the largest distance that passes
``<= eps`` (``< eps`` when strict) in the table's arithmetic, so that
both comparisons are one ``<=`` test.

Exact values are held as integers over a common denominator S
(:func:`int_table`, over :func:`int_array`), where ``|x_i - x_j| <= eps``
iff ``x_i - e <= x_j <= x_i + e`` with the integer threshold ``e =
floor(eps S)`` (``ceil(eps S) - 1`` for ``< eps``, :func:`int_threshold`,
which the word counts of :mod:`rqamaps.solenoidal` also read).  Two ``searchsorted`` calls find the rank range of
[v - e, v + e] for every distinct value v, so every pair is decided
exactly, whatever the size of the denominator.  The values are int64
while they fit and Python ints otherwise, never a dtype numpy infers,
which could wrap as uint64; the cut stays in int64 while ``max|v| + e <
2^63`` and runs over Python ints beyond.  Float values keep the test
``|fl(x_i - x_j)| <= eps`` against eps itself, float or exact: it runs as
``<= d`` at the largest float d, inf included, that passes, which decides
every float distance as eps does.  Rounding is monotone, so the values
that pass it also form a rank range, whose ends are found with the test
itself.  A point set of which any point is a float is ranked as floats,
each point taken as float(x), so that the arithmetic does not depend on
the order of the points.

Every table carries a lasso (k, p): point i takes the rank of position i
below k and of position k + (i - k) mod p beyond.  Only the k + p lasso
points are ranked and kept, and :meth:`RankTable.ranks` reads the ranks
of a prefix through the lasso, so a count holds no more ranks than it
reads.  It is the lasso that :func:`~rqamaps.dynamics.iterate` leaves an
orbit that repeats, and otherwise (their number, 1), a lasso with no
cycle.  A :class:`~rqamaps.dynamics.Trajectory` ranks its points on its
first count and keeps the table (:func:`table`), so later counts on it,
at any threshold or n, reuse it; a plain sequence is ranked on every
call.

The scans test a rank against a range with one unsigned compare
(:func:`in_ranges`) and take their temporaries in blocks of about
:data:`BLOCK_ELEMS` entries, which they read at call time.  The one
resource guard, :func:`check_pairs`, refuses a scan of more than
``RQA_MAX_PAIRS`` pairs (default 2^26) with :class:`ResourceGuardError`
before its work starts.
"""
from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import Trajectory
from .rational import as_fraction, scaled

# Block rows are chosen so that each block temporary has about this many
# elements (1 MB of float64), which keeps the scan in cache at any n.
BLOCK_ELEMS = 1 << 17


class ResourceGuardError(RuntimeError):
    """Raised when a pair scan would exceed the configured quadratic budget."""


def check_pairs(what: str, side: int) -> None:
    """Raise ResourceGuardError when ``what``, of side^2 pairs, exceeds the
    budget ``RQA_MAX_PAIRS`` (default 2^26); a budget that is not a
    nonnegative integer raises ValueError naming the variable."""
    value = os.environ.get("RQA_MAX_PAIRS", str(2 ** 26))
    try:
        limit = int(value)
    except ValueError:
        limit = -1   # refused below with the negative budgets
    if limit < 0:
        raise ValueError(f"RQA_MAX_PAIRS must be a nonnegative integer, got {value!r}")
    if side * side > limit:
        raise ResourceGuardError(f"{what} of {side}^2 pairs exceeds the guard ({limit}); "
                                 "raise RQA_MAX_PAIRS to override")


class RankTable(NamedTuple):
    """The ranks of the points' lasso positions among the distinct values,
    the distinct values in ascending order, their common denominator
    ``scale`` (None for float points), and the lasso (k, p).  ``rank``
    holds min(k + p, number of points) entries; the k + p lasso positions
    are the index classes of the pair counts, and may share a value, as on
    points that are all their own class, (their number, 1)."""

    rank: np.ndarray
    values: np.ndarray   # integers over scale (int64 or Python ints), or float64
    scale: int | None
    lasso: tuple[int, int]

    def ranks(self, count: int) -> np.ndarray:
        """The ranks of the first ``count`` points, read through the lasso;
        ``count`` is at most the number of points."""
        if count <= len(self.rank):
            return self.rank[:count]
        k, p = self.lasso
        # the cycle's ranks, repeated as often as the count needs
        return np.concatenate((self.rank[:k],) + (self.rank[k:],) * -(-(count - k) // p))[:count]


def int_array(ints: Sequence[int]) -> np.ndarray:
    """The integers ``ints`` as int64 while they fit and as Python ints
    otherwise, never in a dtype numpy infers, which could wrap as uint64."""
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


def int_table(ints: Sequence[int], scale: int) -> RankTable:
    """The rank table of the integers ``ints`` over ``scale``, a lasso with
    no cycle."""
    array = int_array(ints)
    # return_index makes np.unique sort stably, as the other rank tables do;
    # its quicksort path alone adds about 0.6 MB of resident sort code
    values, _, rank = np.unique(array, return_index=True, return_inverse=True)
    return RankTable(rank, values, scale, (len(rank), 1))


def _rank_table(pts: Sequence, lasso: tuple[int, int] | None = None) -> RankTable:
    """The rank table of the points' first k + p, in their own arithmetic,
    for their lasso (k, p); points without a known lasso are their own,
    (len(pts), 1).  Points of which any is a float are ranked as floats,
    each taken as float(x); exact values are integers over the points'
    common denominator, which sort faster than Fractions."""
    k, p = (len(pts), 1) if lasso is None else lasso
    head = pts[:k + p]
    if any(isinstance(x, float) for x in head):
        values, rank = np.unique(np.asarray(head, float), return_inverse=True)
        if not np.isfinite(values).all():
            raise ValueError("float points must be finite")
        return RankTable(rank, values, None, (k, p))
    return int_table(*scaled([as_fraction(x) for x in head]))._replace(lasso=(k, p))


def table(t, n: int, windows: int = 1) -> RankTable:
    """The rank table of at least the first n + W - 1 points of t, which a
    count at n reads for windows up to W = ``windows``.  A Trajectory ranks
    its points on its first count, through its lasso when it keeps one,
    and keeps the table; a plain sequence ranks its first n + W - 1 points
    on every call."""
    pts = t.points if isinstance(t, Trajectory) else t
    need = n + windows - 1
    if len(pts) < need:
        raise ValueError(f"trajectory length {len(pts)} < n + W - 1 = {need} "
                         f"(n = {n}, widest window W = {windows})")
    if not isinstance(t, Trajectory):
        return _rank_table(pts[:need])
    if not t._rank_cache:
        t._rank_cache.append(_rank_table(pts, t._lasso))
    return t._rank_cache[0]


def threshold(table: RankTable, epsilon, strict: bool):
    """The largest distance that passes ``<= epsilon`` (``< epsilon`` when
    ``strict``) in the table's arithmetic, so that every cut is one ``<=``
    test: over the integers of scale S, floor(eps S), or ceil(eps S) - 1
    when strict; for floats, the largest float d, inf included, with d <=
    eps (d < eps when strict), so the float max above the float range.  An
    infinite epsilon passes every distance: over the integers, the span."""
    if table.scale is not None:
        if epsilon == math.inf:
            return int(table.values[-1]) - int(table.values[0])
        return int_threshold(epsilon, table.scale, strict)
    # float() raises above the float range, where inf is the float nearest eps
    d = math.inf if epsilon > sys.float_info.max else float(epsilon)
    if d > epsilon or strict and d == epsilon:
        d = math.nextafter(d, -math.inf)
    return d


def int_threshold(epsilon, scale: int, strict: bool) -> int:
    """The largest integer distance over ``scale`` that passes ``<=
    epsilon`` (``< epsilon`` when ``strict``), for a finite epsilon:
    floor(eps S), or ceil(eps S) - 1."""
    eps = as_fraction(epsilon)
    num, den = eps.numerator * scale, eps.denominator   # eps S = num / den
    return -(-num // den) - 1 if strict else num // den


def _exact_cuts(table: RankTable, epsilon, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cuts` in exact integers: v - e <= w <= v + e for the integer
    threshold e."""
    e = threshold(table, epsilon, strict)
    values = table.values
    if values.dtype == np.int64 and max(-int(values[0]), int(values[-1])) + e >= 2 ** 63:
        values = values.astype(object)
    return (np.searchsorted(values, values - e, side="left"),
            np.searchsorted(values, values + e, side="right"))


def _float_cuts(table: RankTable, epsilon, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cuts` for ``|fl(x_i - x_j)| <= d`` at the float threshold d,
    which decides every float distance as epsilon does.  ``searchsorted``
    on ``fl(x +- d)`` lands within an ulp of each range's ends, and a few
    steps of the test itself find them exactly."""
    values, last = table.values, len(table.values) - 1
    d = threshold(table, epsilon, strict)
    # a difference that overflows is inf, which the test then decides
    with np.errstate(over="ignore"):
        lo = np.searchsorted(values, values - d, side="left")
        while (step := ~(values - values[lo] <= d)).any():
            lo += step
        while (step := (lo > 0) & (values - values[lo - 1] <= d)).any():
            lo -= step
        hi = np.searchsorted(values, values + d, side="right")
        while (step := ~(values[hi - 1] - values <= d)).any():
            hi -= step
        while (step := (hi <= last) & (values[np.minimum(hi, last)] - values <= d)).any():
            hi += step
    return lo, hi


def cuts(table: RankTable, epsilon, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per rank, the half-open rank range of the values within epsilon of
    it (closer than epsilon when ``strict``), exact or float as the table
    is."""
    return (_float_cuts if table.scale is None else _exact_cuts)(table, epsilon, strict)


def unsigned(rank: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``rank``, and the start and length of each entry's rank range, in
    the smallest unsigned dtype that holds len(lo), for :func:`in_ranges`."""
    dtype = np.min_scalar_type(len(lo))
    start = lo[rank]
    return rank.astype(dtype), start.astype(dtype), (hi[rank] - start).astype(dtype)


def in_ranges(col: np.ndarray, start: np.ndarray, span: np.ndarray) -> np.ndarray:
    """start <= col < start + span, for unsigned ranks: a col below start
    wraps past every span, so one compare tests both ends."""
    return (col - start) < span
