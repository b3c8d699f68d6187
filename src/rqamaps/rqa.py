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
All of these are read off one pair count ``N_w(n)``, and one pass yields it
for every window w <= W and every n of an increasing schedule: the window-w
test is the AND of the pointwise tests at offsets s < w.  Both arithmetic
modes test points through ranks, in two parts.  The rank table does not
depend on the threshold: each point's rank among the distinct values, and
the distinct values in ascending order.  Exact mode holds them as integers
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
:class:`~rqamaps.dynamics.Trajectory` ranks all of its points on its first
count and keeps the table, so later counts on it, at any threshold or n,
reuse it; a plain sequence is ranked on every call.

Trajectory counts (:func:`correlation_sum`, :func:`recurrence_determinism`,
:func:`rqa_det`, :func:`estimate_asymptotics`) run over the distinct delay
vectors ``(x_i, ..., x_{i+W-1})``.  Rows with equal vectors form a class;
an eventually periodic orbit has at most k + p of them.  Each class is
weighted by its multiplicity below every scheduled n, and a pair of
classes adds the product of their weights.  The classes are sorted by
their first coordinate, so the classes d >= c that can pass at offset 0
form a band that ends where the first coordinate leaves c's range.  The
scan covers the upper triangle of the classes in row blocks, each reading
only the columns up to the band end of its last row, and counts each
off-diagonal hit twice; the pointwise test is symmetric in both modes
(``fl(a - b) = -fl(b - a)`` under IEEE round-to-nearest).  The cost is the
band area times W, at most O(n^2 W) when every vector is distinct and
every pair recurs.

:func:`_window_counts` keeps the scan over index pairs in index order, at
one n, for what needs every pair or its position: the bits of
:func:`recurrence_matrix`, and the finite cycles of
:mod:`rqamaps.finite_omega`, counted on the cycle's own trajectory, whose
strict (``< eps``) count backs the excluded-threshold check.  It reads the
same ranks and rank ranges as the class scan, walks the upper triangle in
row blocks and counts each off-diagonal hit twice.  The word counts of
:mod:`rqamaps.solenoidal` do not use it: they walk pairs of subtrees
instead, and read the rank table, its cuts and :data:`_BLOCK_ELEMS` from
here.  Every count is serial.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, NamedTuple, Sequence

import numpy as np

from .dynamics import Trajectory
from .rational import Number, as_fraction, scaled

# Block rows are chosen so that each block temporary has about this many
# elements (1 MB of float64), which keeps the scan in cache at any n.
_BLOCK_ELEMS = 1 << 17


@dataclass(frozen=True)
class RQAParams:
    """Window length m, threshold epsilon > 0, segment length n."""

    m: int
    epsilon: Number
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.epsilon <= 0:
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
    distinct values, the distinct values in ascending order, and their
    common denominator ``scale`` (None for float points)."""

    rank: np.ndarray
    values: np.ndarray   # integers over scale (int64 or Python ints), or float64
    scale: int | None


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
    return _RankTable(rank, values, scale)


def _exact_table(pts: Sequence) -> _RankTable:
    """The distinct values as integers over the points' common denominator.

    A Fraction's hash costs a modular inverse, so repeated point objects
    are merged by identity first (``pts`` keeps them alive, so their ids
    are stable); equal values among the distinct objects then merge as
    scaled integers, which also sort faster than Fractions.
    """
    _, first, which = np.unique(np.array([id(p) for p in pts], dtype=np.uint64),
                                return_index=True, return_inverse=True)
    table = _int_table(*scaled([as_fraction(pts[i]) for i in first]))
    return table._replace(rank=table.rank[which])


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


def _float_table(pts: Sequence) -> _RankTable:
    """The distinct values as float64, each point's rank among them."""
    values, rank = np.unique(np.asarray(pts, dtype=np.float64), return_inverse=True)
    if not np.isfinite(values).all():
        raise ValueError("float points must be finite")
    return _RankTable(rank, values, None)


def _float_cuts(table: _RankTable, epsilon, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """The float analogue of :func:`_exact_cuts` for ``|fl(x_i - x_j)| <=
    epsilon`` (``< epsilon`` when ``strict``) against epsilon itself, float
    or exact.  The test runs at the float eps that decides every float
    distance as epsilon does: the float nearest epsilon, moved onto its
    side of the comparison.  Rounding is monotone, so the
    values passing the test form a rank range around each value;
    ``searchsorted`` on ``fl(x +- eps)`` lands within an ulp of its ends,
    and a few steps of the test itself find them exactly."""
    values = table.values
    eps, last = float(epsilon), len(values) - 1
    if strict and eps < epsilon:
        eps = math.nextafter(eps, math.inf)
    elif not strict and eps > epsilon:
        eps = math.nextafter(eps, -math.inf)
    compare = np.less if strict else np.less_equal
    if not compare(0.0, eps):   # not even a point and itself are close
        own = np.arange(len(values))
        return own, own
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


def _rank_table(pts: Sequence) -> _RankTable:
    """The points' rank table, in their own arithmetic."""
    return (_float_table if isinstance(pts[0], float) else _exact_table)(pts)


def _cuts(table: _RankTable, epsilon, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per rank, the half-open rank range of the values within epsilon."""
    return (_float_cuts if table.scale is None else _exact_cuts)(table, epsilon, strict)


def _ranks(t, need: int, epsilon, strict: bool = False):
    """The ranks of the first ``need`` points of t, and per rank the rank
    range of the values within epsilon (closer than epsilon when
    ``strict``).  A Trajectory ranks all of its points on its first count
    and keeps the table; a plain sequence is ranked on every call."""
    pts = _points(t)
    if len(pts) < need:
        raise ValueError(f"trajectory length {len(pts)} < n+m-1 = {need}")
    if isinstance(t, Trajectory):
        if not t._rank_cache:
            t._rank_cache.append(_rank_table(pts))
        table = t._rank_cache[0]
    else:
        table = _rank_table(pts[:need])
    return (table.rank[:need], *_cuts(table, epsilon, strict))


def _window_counts(rank: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   n: int, windows: int, collect=None) -> list[int]:
    """counts[w-1] = #{(i, j) in [0, n)^2 : lo[rank_{i+s}] <= rank_{j+s} <
    hi[rank_{i+s}] for s < w}, over index pairs in index order.

    ``rank`` holds n + windows - 1 point ranks, and [lo[r], hi[r]) is the
    rank range of the values close to rank r, a relation that must be
    symmetric and contain r.  ``collect(i0, i1, block)``, when given,
    receives the window-``windows`` hits of rows [i0, i1) and columns
    [i0, n), with the entries below the diagonal cleared.
    """
    extra = windows - 1
    row_lo, row_hi = lo[rank], hi[rank]
    rows = max(1, min(n, _BLOCK_ELEMS // n))
    upper = np.triu(np.ones((rows, rows), dtype=bool))
    counts = [0] * windows
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        h, c = i1 - i0, n - i0
        col = rank[None, i0:n + extra]
        near = (row_lo[i0:i1 + extra, None] <= col) & (col < row_hi[i0:i1 + extra, None])
        hit = near[:h, :c].copy()
        hit[:, :h] &= upper[:h, :h]
        for s in range(windows):
            if s:
                hit &= near[s:s + h, s:s + c]
            # (i, j) and (j, i), and (i, i) once
            counts[s] += int(2 * np.count_nonzero(hit) - np.count_nonzero(hit.diagonal()))
        if collect is not None:
            collect(i0, i1, hit)
    return counts


def _class_counts(rank: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  ns: Sequence[int], windows: int,
                  reduce: Collection[int] | None = None) -> list[list[int] | None]:
    """counts[w-1][k] = #{(i, j) in [0, ns[k])^2 : lo[rank_{i+s}] <=
    rank_{j+s} < hi[rank_{i+s}] for s < w}, counted over the distinct delay
    vectors of length ``windows``.

    ``rank`` holds ns[-1] + windows - 1 point ranks, and [lo[r], hi[r]) is
    the rank range of the values close to rank r, a relation that must be
    symmetric and contain r.  Only the windows in ``reduce`` (all of them
    by default) are summed; the others read None.
    """
    reduce = range(1, windows + 1) if reduce is None else reduce
    n = ns[-1]
    # weights and per-row sums are integers <= n, exact in float32; their
    # products and totals are integers <= n^2, exact in float64
    if n >= 2 ** 24:
        raise ValueError(f"n = {n} exceeds the exact pair-count limit 2^24")
    # classes of equal delay rows, refined one offset at a time; np.unique
    # sorts its keys, so the classes come out in lexicographic order
    key = rank[:n].astype(np.int64)
    for s in range(1, windows):
        _, cls = np.unique(key, return_inverse=True)
        key = cls * len(lo) + rank[s:s + n]
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    u = len(first)
    dtype = np.min_scalar_type(len(lo))
    col = rank[first + np.arange(windows)[:, None]].astype(dtype)   # (windows, u)
    row_lo, row_hi = lo[col].astype(dtype), hi[col].astype(dtype)
    # each class's multiplicity below every scheduled n
    weight = np.array([np.bincount(cls[:k], minlength=u) for k in ns], dtype=np.float32)
    # classes ascend in their first coordinate, so the columns d >= c that
    # can pass at offset 0 end where the first coordinate leaves c's range
    end = np.searchsorted(col[0], row_hi[0])
    end = np.maximum.accumulate(np.maximum(end, np.arange(1, u + 1)))
    side = math.isqrt(_BLOCK_ELEMS)   # block rows r satisfy r^2 <= r * width
    upper = np.triu(np.ones((min(side, u),) * 2, dtype=bool))
    totals = np.zeros((windows, len(ns)))
    c0 = 0
    while c0 < u:
        # the most rows whose block, up to the band end of its last row,
        # has at most _BLOCK_ELEMS entries; a wider band is split into chunks
        tall = min(side, u - c0)
        area = np.arange(1, tall + 1) * (end[c0:c0 + tall] - c0)
        c1 = c0 + max(1, int(np.searchsorted(area, _BLOCK_ELEMS, side="right")))
        h = c1 - c0
        w_row = weight[:, c0:c1].astype(np.float64)
        chunk = max(1, _BLOCK_ELEMS // h)
        for j0 in range(c0, end[c1 - 1], chunk):
            j1 = min(j0 + chunk, end[c1 - 1])
            w_col = weight[:, j0:j1]
            # at offset 0 every column ranks at or above the row's range start
            hit = col[0, None, j0:j1] < row_hi[0, c0:c1, None]
            if j0 == c0:
                hit[:, :h] &= upper[:h, :h]
            for s in range(windows):
                if s:
                    hit &= row_lo[s, c0:c1, None] <= col[s, None, j0:j1]
                    hit &= col[s, None, j0:j1] < row_hi[s, c0:c1, None]
                if s + 1 not in reduce:
                    continue
                per_row = np.matmul(hit, w_col.T, dtype=np.float32)
                pairs = np.einsum("kr,rk->k", w_row, per_row)
                totals[s] += 2 * pairs   # (c, d) and (d, c) ...
                if j0 == c0:             # ... and (c, c) once
                    totals[s] -= w_row ** 2 @ hit[:, :h].diagonal()
        c0 = c1
    counts = totals.astype(np.int64).tolist()
    return [counts[w - 1] if w in reduce else None for w in range(1, windows + 1)]


def _pair_counts(t, ns: Sequence[int], windows: int, epsilon,
                 reduce: Collection[int] | None = None) -> list[list[int] | None]:
    """N_w(n) for the windows w in ``reduce`` (every w <= windows by
    default) and n in the increasing schedule ns; other windows read None."""
    return _class_counts(*_ranks(t, ns[-1] + windows - 1, epsilon), ns, windows, reduce)


def recurrent_pair_count(t, p: RQAParams) -> int:
    """#{(i, j) in [0, n)^2 : Bowen_m(i, j) <= epsilon}, exact."""
    return _pair_counts(t, [p.n], p.m, p.epsilon, {p.m})[-1][0]


def correlation_sum(t, p: RQAParams, threads: int | None = None) -> Fraction:
    """C_m(n, epsilon) = recurrent pair count / n^2, as an exact rational.

    ``threads`` has no effect: pair counts are serial."""
    return Fraction(recurrent_pair_count(t, p), p.n * p.n)


def _ratio_series(t, ns: Sequence[int], m: int, epsilon, det: bool) -> list[Fraction]:
    """rdet_m, or DET_m when ``det``, at every n of the increasing schedule
    ns, from one scan."""
    if det and m > 1:
        counts = _pair_counts(t, ns, m + 1, epsilon, {1, m, m + 1})
        return [Fraction(m * n_m - (m - 1) * n_m1, n1)
                for n1, n_m, n_m1 in zip(counts[0], counts[m - 1], counts[m])]
    counts = _pair_counts(t, ns, m, epsilon, {1, m})   # DET_1 = rdet_1
    return [Fraction(n_m, n1) for n1, n_m in zip(counts[0], counts[m - 1])]


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
    bits = np.zeros((p.n, p.n), dtype=bool)

    def collect(lo, hi, block):
        bits[lo:hi, lo:] = block

    _window_counts(*_ranks(t, p.n + p.m - 1, p.epsilon), p.n, p.m, collect)
    bits |= bits.T
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
    counts = _pair_counts(t, schedule, m, epsilon, {m})[-1]
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


def write_series_csv(series: SeriesEstimate, path) -> None:
    """CSV export (n, C_m_exact_num, C_m_exact_den, C_m_float)."""
    with open(path, "w", newline="") as fh:
        fh.write("n,C_m_exact_num,C_m_exact_den,C_m_float\n")
        for n, c in series.values:
            fh.write(f"{n},{c.numerator},{c.denominator},{float(c)!r}\n")
