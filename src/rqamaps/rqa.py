"""Bowen metrics, correlation sums, recurrence determinism, recurrence plots.

Core quantities
---------------
For a trajectory x_0, x_1, ... the window-m Bowen distance between indices
i and j is ``max_{0<=s<m} |x_{i+s} - x_{j+s}|``.  The correlation sum
``C_m(n, eps)`` is the fraction of index pairs (i, j) in [0, n)^2 whose
Bowen distance is <= eps (non-strict, deliberately); recurrence determinism
is ``rdet_m = C_m / C_1``; RQA-determinism is the affine combination
``DET_m = m*rdet_m - (m-1)*rdet_{m+1}``.

Counts are exact integers, so correlation sums and determinisms are exact
rationals in both arithmetic modes; only the underlying distance
comparisons differ (exact rational vs binary float, decided by the
trajectory's element type).

Pair counting
-------------
All of these are read off one pair count ``N_w(n)`` at the windows each
names (C_m at m, rdet_m at 1 and m, DET_m at 1, m and m + 1), and one pass
to the widest yields them at every n of an increasing schedule: the
window-w test is the AND of the pointwise tests at offsets s < w.  Both
arithmetic modes test points through ranks, in two parts.  The rank table
does not depend on the threshold: each point's rank among the distinct
values, and the distinct values in ascending order.  Exact mode holds them as integers
over a common denominator S (:func:`_int_table`), where ``|x_i - x_j| <=
eps`` iff ``x_i - e <= x_j <= x_i + e`` with the integer cut ``e =
floor(eps S)`` (``ceil(eps S) - 1`` for ``< eps``).  :func:`_exact_cuts`
finds the rank range of [v - e, v + e] for every distinct value v with two
``searchsorted`` calls, so the rank of x_j against that range decides every
pair exactly, whatever the size of the denominator.  The values are int64
while they fit and Python ints otherwise, and the cut stays in int64 while
``max|v| + e < 2^63``.  This one table and cut serve the trajectory counts,
the finite cycles of :mod:`rqamaps.finite_omega` and the interval endpoints
of the word counts of :mod:`rqamaps.solenoidal`.  Float mode keeps the
test ``|fl(x_i - x_j)| <= eps`` against eps itself, float or exact: it
runs at the float nearest eps, moved onto eps's side of the comparison,
which decides every float distance as eps does.  Rounding is monotone, so
the values that pass it also form a rank range, whose ends are found with
the test itself.  Only these rank ranges are computed per threshold.  A
:class:`~rqamaps.dynamics.Trajectory` ranks its points on its first count
and keeps the table, so later counts on it, at any threshold or n, reuse
it; a plain sequence is ranked on every call.  Every rank table carries a
lasso (k, p): point i takes the rank of position i below k and of position
k + (i - k) mod p beyond, so only the k + p lasso points are ranked.  It is
the lasso that :func:`~rqamaps.dynamics.iterate` leaves an orbit that
repeats, and otherwise (their number, 1), a lasso with no cycle.

Trajectory counts (:func:`correlation_sum`, :func:`recurrence_determinism`,
:func:`rqa_det`, :func:`estimate_asymptotics`) run over classes of indices
with equal delay vectors ``(x_i, ..., x_{i+W-1})``: the lasso positions c
reached below n, since every index has the vector of its position.  An
eventually periodic orbit has at most k + p of them; other points are each
their own class, repeated values included.  Each class is weighted by its
multiplicity below every scheduled n, and a pair of classes adds the
product of their weights: below n, a position c < k occurs once if c < n,
and a cycle position max(0, ceil((n - c) / p)) times.  The classes are
sorted by their first coordinate, which they may share, so the classes
d >= c that can pass at offset 0 form a band that starts at c and ends
where the first coordinate leaves c's range.  The scan reads the band by
diagonal offset, as a sheared strip: row c holds the classes c + k for
offsets k below the widest band, and past the last class a sentinel rank
that no range contains, with weight 0.  The strip is a zero-copy view
(:func:`_strip`), so there is no triangle below the diagonal to mask and
no column beyond the band.  Rows are taken in blocks as wide as their
widest band: at least one row, and beyond it the most rows whose block
holds at most :data:`_BLOCK_ELEMS` entries, so a band wider than that
takes a block of one row, O(n) entries.  Offset 0 of the window is one
compare against the range end; every later offset is one unsigned range
test (:func:`_in_ranges`), ``(rank - lo) < (hi - lo)`` in the
smallest unsigned dtype that holds the sentinel, where a rank below lo
wraps past every span.  Each off-diagonal hit counts twice, the diagonal
once; the pointwise test is symmetric in both modes (``fl(a - b) = -fl(b -
a)`` under IEEE round-to-nearest).  The cost is the sum over blocks of
rows times their widest band, times W, at most O(n^2 W) when every index
is its own class and every pair recurs.  These counts are not guarded.

:func:`_window_counts` keeps the scan over index pairs in index order, at
one n, for what needs every pair or its position: the bits of
:func:`recurrence_matrix`, and the finite cycles of
:mod:`rqamaps.finite_omega`, counted on the cycle's own trajectory, whose
strict (``< eps``) count backs the excluded-threshold check.  It reads the
same ranks and rank ranges as the class scan, with the same unsigned range
test, over the full n-by-n square in row blocks, at a cost of n^2 W: each
block tests its rows, extended by W - 1, against every column once, then
ANDs the test shifted by each offset into the block's hits and counts
them.  The plot's rows take the window-W hits in place; a plot of more
than :func:`max_pairs_limit` pairs raises :class:`ResourceGuardError`
before its bits are allocated (env RQA_MAX_PAIRS overrides), through
:func:`_check_pairs`, which the word counts share.  The word counts of
:mod:`rqamaps.solenoidal` do not use it: they walk pairs of subtrees
instead, and read the rank table, its cuts, :data:`_BLOCK_ELEMS` and the
guard from here.  Every count is serial.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import Trajectory
from .rational import Number, as_fraction, scaled

# Block rows are chosen so that each block temporary has about this many
# elements (1 MB of float64), which keeps the scan in cache at any n.
_BLOCK_ELEMS = 1 << 17

_DEFAULT_MAX_PAIRS = 2 ** 26


class ResourceGuardError(RuntimeError):
    """Raised when a pair scan would exceed the configured quadratic budget."""


def max_pairs_limit() -> int:
    return int(os.environ.get("RQA_MAX_PAIRS", str(_DEFAULT_MAX_PAIRS)))


def _check_pairs(what: str, side: int) -> None:
    """Raise ResourceGuardError when ``what``, of side^2 pairs, exceeds
    :func:`max_pairs_limit`."""
    limit = max_pairs_limit()
    if side * side > limit:
        raise ResourceGuardError(f"{what} of {side}^2 pairs exceeds the guard ({limit}); "
                                 "raise RQA_MAX_PAIRS to override")


@dataclass(frozen=True)
class RQAParams:
    """Window length m, threshold epsilon > 0, segment length n."""

    m: int
    epsilon: Number
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if not self.epsilon > 0:   # NaN fails this too
            raise ValueError("epsilon must be positive")


def _points(t) -> Sequence[Number]:
    if isinstance(t, Trajectory):
        return t.points
    return t


def bowen_distance(t, i: int, j: int, m: int) -> Number:
    """max over the m-window of pointwise distances |x_{i+s} - x_{j+s}|."""
    pts = _points(t)
    if m < 1:
        raise ValueError("window length must be >= 1")
    if max(i, j) + m > len(pts) or min(i, j) < 0:
        raise ValueError(
            f"window [{max(i, j)}, +{m}) overflows trajectory of length {len(pts)}")
    return max(abs(pts[i + s] - pts[j + s]) for s in range(m))


class _RankTable(NamedTuple):
    """The threshold-free half of ranking: each point's rank among the
    distinct values, the distinct values in ascending order, their common
    denominator ``scale`` (None for float points), and the points' lasso
    (k, p): point i >= k has the rank of position k + (i - k) mod p.  The
    k + p lasso positions are the index classes of the pair counts; they
    may share a value, as on points that are all their own class, (their
    number, 1)."""

    rank: np.ndarray
    values: np.ndarray   # integers over scale (int64 or Python ints), or float64
    scale: int | None
    lasso: tuple[int, int]


def _int_table(ints: Sequence[int], scale: int) -> _RankTable:
    """The rank table of the integers ``ints`` over ``scale``: int64 when
    they fit and Python ints otherwise, never a dtype numpy infers, which
    could wrap as uint64."""
    try:
        array = np.array(ints, dtype=np.int64)
    except OverflowError:
        array = np.array(ints, dtype=object)
    # return_index makes np.unique sort stably, as the other rank tables do;
    # its quicksort path alone adds about 0.6 MB of resident sort code
    values, _, rank = np.unique(array, return_index=True, return_inverse=True)
    return _RankTable(rank, values, scale, (len(rank), 1))


def _exact_cuts(table: _RankTable, epsilon, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per rank, the half-open rank range of the values within epsilon of
    it (closer than epsilon when ``strict``), decided in exact integers:
    an integer distance d is <= eps S iff d <= floor(eps S), and < eps S
    iff d <= ceil(eps S) - 1.  The values +- that cut stay in int64 while
    they fit, and are Python ints otherwise."""
    eps = as_fraction(epsilon)
    num, den = eps.numerator * table.scale, eps.denominator   # eps S = num / den
    e = -(-num // den) - 1 if strict else num // den
    values = table.values
    if values.dtype == np.int64 and max(-int(values[0]), int(values[-1])) + e >= 2 ** 63:
        values = values.astype(object)
    return (np.searchsorted(values, values - e, side="left"),
            np.searchsorted(values, values + e, side="right"))


def _float_cuts(table: _RankTable, epsilon, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """The float analogue of :func:`_exact_cuts` for ``|fl(x_i - x_j)| <=
    epsilon`` (``< epsilon`` when ``strict``) against epsilon itself, float
    or exact.  The test runs at the float eps that decides every float
    distance as epsilon does: the float nearest epsilon, moved onto its
    side of the comparison.  Rounding is monotone, so the
    values passing the test form a rank range around each value;
    ``searchsorted`` on ``fl(x +- eps)`` lands within an ulp of its ends,
    and a few steps of the test itself find them exactly."""
    values, last = table.values, len(table.values) - 1
    # float() raises above the float range, where eps, like inf, exceeds
    # every finite float
    eps = math.inf if epsilon > sys.float_info.max else float(epsilon)
    if strict and eps < epsilon:
        eps = math.nextafter(eps, math.inf)
    elif not strict and eps > epsilon:
        eps = math.nextafter(eps, -math.inf)
    compare = np.less if strict else np.less_equal
    # a difference that overflows is inf, which the test then decides
    with np.errstate(over="ignore"):
        lo = np.searchsorted(values, values - eps, side="left")
        while (step := ~compare(values - values[lo], eps)).any():
            lo += step
        while (step := (lo > 0) & compare(values - values[lo - 1], eps)).any():
            lo -= step
        hi = np.searchsorted(values, values + eps, side="right")
        while (step := ~compare(values[hi - 1] - values, eps)).any():
            hi -= step
        while (step := (hi <= last) & compare(values[np.minimum(hi, last)] - values, eps)).any():
            hi += step
    return lo, hi


def _rank_table(pts: Sequence, lasso: tuple[int, int] | None = None) -> _RankTable:
    """The points' rank table, in their own arithmetic, through their lasso
    (k, p): only the first k + p points are ranked, and point i takes the
    rank of its position, i below k and k + (i - k) mod p beyond.  Points
    without a known lasso are their own, (len(pts), 1).  Float values are
    float64; exact values are integers over the points' common denominator,
    which sort faster than Fractions."""
    k, p = (len(pts), 1) if lasso is None else lasso
    if isinstance(pts[0], float):
        values, rank = np.unique(np.asarray(pts[:k + p], float), return_inverse=True)
        if not np.isfinite(values).all():
            raise ValueError("float points must be finite")
        scale = None
    else:
        rank, values, scale, _ = _int_table(*scaled([as_fraction(x) for x in pts[:k + p]]))
    at = np.arange(len(pts))
    at[k:] = k + (at[k:] - k) % p
    return _RankTable(rank[at], values, scale, (k, p))


def _cuts(table: _RankTable, epsilon, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per rank, the half-open rank range of the values within epsilon."""
    return (_float_cuts if table.scale is None else _exact_cuts)(table, epsilon, strict)


def _table(t, need: int) -> _RankTable:
    """The rank table of at least the first ``need`` points of t.  A
    Trajectory ranks all of its points on its first count, through its
    lasso when it keeps one, and keeps the table; a plain sequence ranks
    its first ``need`` points on every call."""
    pts = _points(t)
    if len(pts) < need:
        raise ValueError(f"trajectory length {len(pts)} < n+m-1 = {need}")
    if not isinstance(t, Trajectory):
        return _rank_table(pts[:need])
    if not t._rank_cache:
        t._rank_cache.append(_rank_table(pts, t._lasso))
    return t._rank_cache[0]


def _ranks(t, need: int, epsilon, strict: bool = False):
    """The ranks of the first ``need`` points of t, and per rank the rank
    range of the values within epsilon (closer than epsilon when
    ``strict``)."""
    table = _table(t, need)
    return (table.rank[:need], *_cuts(table, epsilon, strict))


def _unsigned(rank: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``rank``, and the start and length of each entry's rank range, in
    the smallest unsigned dtype that holds len(lo), for :func:`_in_ranges`."""
    dtype = np.min_scalar_type(len(lo))
    start = lo[rank]
    return rank.astype(dtype), start.astype(dtype), (hi[rank] - start).astype(dtype)


def _in_ranges(col: np.ndarray, start: np.ndarray, span: np.ndarray) -> np.ndarray:
    """start <= col < start + span, for unsigned ranks: a col below start
    wraps past every span, so one compare tests both ends."""
    return (col - start) < span


def _strip(a: np.ndarray, band: int, fill) -> np.ndarray:
    """The read-only view strip[..., c, k] = a[..., c + k] for k < band,
    over a copy of ``a`` extended by band - 1 entries ``fill``."""
    padded = np.full(a.shape[:-1] + (a.shape[-1] + band - 1,), fill, dtype=a.dtype)
    padded[..., :a.shape[-1]] = a
    step = padded.strides[-1]
    # the ndarray constructor makes the same view as as_strided at a
    # seventh of its cost, which counts on calls with a handful of classes
    strip = np.ndarray(a.shape + (band,), a.dtype, padded,
                       strides=padded.strides[:-1] + (step, step))
    strip.flags.writeable = False
    return strip


def _window_counts(rank: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   n: int, windows: int, out: np.ndarray | None = None) -> list[int]:
    """counts[w-1] = #{(i, j) in [0, n)^2 : lo[rank_{i+s}] <= rank_{j+s} <
    hi[rank_{i+s}] for s < w}, over index pairs in index order.

    ``rank`` holds n + windows - 1 point ranks, and [lo[r], hi[r]) is the
    rank range of the values close to rank r.  ``out``, an n-by-n bool
    array when given, receives the window-``windows`` hits.
    """
    rank, row_lo, span = _unsigned(rank, lo, hi)
    rows = max(1, min(n, _BLOCK_ELEMS // n))
    counts = [0] * windows
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        h = i1 - i0
        near = _in_ranges(rank[None, :], row_lo[i0:i1 + windows - 1, None],
                          span[i0:i1 + windows - 1, None])
        hit = np.empty((h, n), dtype=bool) if out is None else out[i0:i1]
        hit[...] = near[:h, :n]
        for s in range(windows):
            if s:
                hit &= near[s:s + h, s:s + n]
            counts[s] += int(np.count_nonzero(hit))
    return counts


def _class_counts(rank: np.ndarray, lo: np.ndarray, hi: np.ndarray, ns: Sequence[int],
                  windows: Sequence[int], lasso: tuple[int, int]) -> list[list[int]]:
    """counts[a][k] = #{(i, j) in [0, ns[k])^2 : lo[rank_{i+s}] <=
    rank_{j+s} < hi[rank_{i+s}] for s < windows[a]}, counted over the index
    classes of the ranks' lasso, one row per entry of ``windows``, in any
    order and with repeats.

    ``rank`` holds ns[-1] + max(windows) - 1 point ranks, and [lo[r], hi[r])
    is the rank range of the values close to rank r, a relation that must
    be symmetric and contain r.  ``lasso`` is the ranks' lasso (k, p), as
    the rank table keeps it: rank i >= k equals rank k + (i - k) mod p.
    """
    depth, n = max(windows), ns[-1]
    # weights and per-row sums are integers <= n, exact in float32; their
    # products and totals are integers <= n^2, exact in float64
    if n >= 2 ** 24:
        raise ValueError(f"n = {n} exceeds the exact pair-count limit 2^24")
    # the lasso positions c reached below n are the classes, since every
    # index has the delay vector of its position; sorted by their first
    # coordinate, positions may tie in it.  Below every scheduled n, a
    # position c < k occurs once if c < n, and a cycle position at c, c + p,
    # c + 2p, ...
    k, p = lasso
    first = np.arange(min(n, k + p))
    first = first[np.argsort(rank[first])]
    ahead = np.array(ns)[:, None] - first
    weight = np.where(first < k, ahead > 0, -(-ahead // p)).clip(0).astype(np.float32)
    u = len(first)
    col, row_lo, span = _unsigned(rank[first + np.arange(depth)[:, None]], lo, hi)
    row_hi = row_lo[0] + span[0]   # offset 0 tests the range end alone
    # classes ascend in their first coordinate, so the classes d >= c that
    # can pass at offset 0 end where the first coordinate leaves c's range,
    # ties with c included: class c's band has width >= 1, c itself included
    width = np.searchsorted(col[0], row_hi) - np.arange(u)
    # the band as a sheared strip: entry (c, k) is class c + k, and past the
    # last class a sentinel rank that fails every range test, with weight 0
    band = int(width.max())
    col_strip, w_strip = _strip(col, band, len(lo)), _strip(weight, band, 0)
    totals = np.zeros((depth, len(ns)))
    c0 = 0
    while c0 < u:
        # at least one row, and beyond it the most rows whose block, rows
        # times their widest band, has at most _BLOCK_ELEMS entries (no more
        # than _BLOCK_ELEMS over the first row's band)
        tall = min(u - c0, max(1, _BLOCK_ELEMS // int(width[c0])))
        widest = np.maximum.accumulate(width[c0:c0 + tall])
        h = max(1, int(np.searchsorted(np.arange(1, tall + 1) * widest, _BLOCK_ELEMS,
                                       side="right")))
        c1, b = c0 + h, int(widest[h - 1])
        w_row = weight[:, c0:c1].astype(np.float64)
        # at offset 0 every column ranks at or above the row's range start
        hit = col_strip[0, c0:c1, :b] < row_hi[c0:c1, None]
        for s in range(depth):
            if s:
                hit &= _in_ranges(col_strip[s, c0:c1, :b],
                                  row_lo[s, c0:c1, None], span[s, c0:c1, None])
            if s + 1 in windows:
                per_row = np.einsum("rk,nrk->nr", hit.astype(np.float32),
                                    w_strip[:, c0:c1, :b])
                pairs = np.einsum("nr,nr->n", w_row, per_row)
                # (c, d) and (d, c), and the diagonal (c, c), offset 0, once
                totals[s] += 2 * pairs - w_row ** 2 @ hit[:, 0]
        c0 = c1
    counts = totals.astype(np.int64).tolist()
    return [counts[w - 1] for w in windows]


def _pair_counts(t, ns: Sequence[int], windows: Sequence[int], epsilon) -> list[list[int]]:
    """N_w(n) for each w of ``windows``, in their order, and n in the
    increasing schedule ns."""
    need = ns[-1] + max(windows) - 1
    table = _table(t, need)
    return _class_counts(table.rank[:need], *_cuts(table, epsilon, False), ns, windows,
                         table.lasso)


def recurrent_pair_count(t, p: RQAParams) -> int:
    """#{(i, j) in [0, n)^2 : Bowen_m(i, j) <= epsilon}, exact."""
    return _pair_counts(t, [p.n], [p.m], p.epsilon)[0][0]


def correlation_sum(t, p: RQAParams, threads: int | None = None) -> Fraction:
    """C_m(n, epsilon) = recurrent pair count / n^2, as an exact rational.

    ``threads`` has no effect: pair counts are serial."""
    return Fraction(recurrent_pair_count(t, p), p.n * p.n)


def _ratio_series(t, ns: Sequence[int], m: int, epsilon, det: bool) -> list[Fraction]:
    """rdet_m, or DET_m when ``det``, at every n of the increasing schedule
    ns, from one scan."""
    if det and m > 1:
        return [Fraction(m * n_m - (m - 1) * n_m1, n1)
                for n1, n_m, n_m1 in zip(*_pair_counts(t, ns, [1, m, m + 1], epsilon))]
    # DET_1 = rdet_1
    return [Fraction(n_m, n1) for n1, n_m in zip(*_pair_counts(t, ns, [1, m], epsilon))]


def recurrence_determinism(t, p: RQAParams) -> Fraction:
    """rdet_m = C_m / C_1 (well defined: diagonal pairs keep C_1 > 0)."""
    return _ratio_series(t, [p.n], p.m, p.epsilon, det=False)[0]


def rqa_det(t, p: RQAParams) -> Fraction:
    """DET_m = m*rdet_m - (m-1)*rdet_{m+1}; needs window m+1 available."""
    return _ratio_series(t, [p.n], p.m, p.epsilon, det=True)[0]


@dataclass(frozen=True)
class RecurrenceMatrix:
    """Boolean recurrence plot: bits[i, j] iff Bowen_m(i, j) <= epsilon."""

    n: int
    m: int
    epsilon: Number
    bits: np.ndarray = field(compare=False)

    @property
    def popcount(self) -> int:
        return int(self.bits.sum())


def recurrence_matrix(t, p: RQAParams) -> RecurrenceMatrix:
    """The n-by-n plot, one byte per pair; a plot of more than
    :func:`max_pairs_limit` pairs raises ResourceGuardError before any of
    it is allocated."""
    _check_pairs("a recurrence plot", p.n)
    bits = np.empty((p.n, p.n), dtype=bool)
    _window_counts(*_ranks(t, p.n + p.m - 1, p.epsilon), p.n, p.m, bits)
    return RecurrenceMatrix(n=p.n, m=p.m, epsilon=p.epsilon, bits=bits)


@dataclass(frozen=True)
class SeriesEstimate:
    """Finite-schedule estimate of lower/upper asymptotic correlation sums.

    Heuristic by construction: min/max of the examined tail.  Where a
    closed-form backend exists it is authoritative, not this estimate.
    """

    m: int
    epsilon: Number
    values: tuple[tuple[int, Fraction], ...]
    liminf_est: Fraction
    limsup_est: Fraction


def estimate_asymptotics(t, m: int, epsilon: Number, schedule: Sequence[int],
                         tail_fraction: float = 0.5) -> SeriesEstimate:
    """Correlation sums over an increasing n-schedule, tail min/max extremes.

    The trajectory (or plain point sequence) must be long enough for the
    largest scheduled n plus the window: max(schedule) + m - 1 points.
    """
    schedule = list(schedule)
    if not schedule or any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be nonempty and strictly increasing")
    RQAParams(m, epsilon, schedule[0])   # validates m, epsilon and every n
    counts, = _pair_counts(t, schedule, [m], epsilon)
    values = tuple((n, Fraction(c, n * n)) for n, c in zip(schedule, counts))
    tail_len = max(1, int(len(values) * tail_fraction))
    tail = [c for _, c in values[-tail_len:]]
    return SeriesEstimate(m=m, epsilon=epsilon, values=values,
                          liminf_est=min(tail), limsup_est=max(tail))


def pgm_bytes(matrix: RecurrenceMatrix) -> bytes:
    """Plain-bitmap rendering: header "P1\\n<n> <n>\\n", rows of 0/1 tokens.

    Row i corresponds to trajectory index i; 1 marks a recurrent pair.
    Byte-exact golden-file format.
    """
    n = matrix.n
    cells = np.empty((n, n, 2), dtype=np.uint8)   # each bit and the byte after it
    cells[:, :, 0] = matrix.bits.view(np.uint8) + ord("0")
    cells[:, :, 1] = ord(" ")
    cells[:, -1:, 1] = ord("\n")
    return f"P1\n{n} {n}\n".encode("ascii") + cells.tobytes()


def write_pgm(matrix: RecurrenceMatrix, path) -> None:
    with open(path, "wb") as fh:
        fh.write(pgm_bytes(matrix))
