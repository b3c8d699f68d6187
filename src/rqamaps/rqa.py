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
comparisons differ (exact rational vs binary float, which decides every
point when any point of the trajectory is a float).

Pair counting
-------------
All of these are read off one pair count ``N_w(n)`` at the windows each
names (C_m at m, rdet_m at 1 and m, DET_m at 1, m and m + 1), and one pass
to the widest yields them at every n of an increasing schedule: the
window-w test is the AND of the pointwise tests at offsets s < w.
:func:`series` is their one producer, by the CLI subcommand name
(``"corrsum"``, ``"rdet"``, ``"det"``), and :func:`series_windows` names
the windows each reads, which fixes how many points a series at n needs:
n + max(windows) - 1.  Both arithmetic modes test points
through the threshold-free rank table of :mod:`rqamaps.ranks`
(``ranks.table``) and, per threshold, its rank ranges (``ranks.cuts``):
exact points in integers over a common denominator, float points by the
float test against eps itself.  The table carries the lasso (k, p) of the
points, point i taking the rank of position i below k and of position
k + (i - k) mod p beyond, and each scan reads only the ranks it tests
through it (``RankTable.ranks``).

Trajectory counts (:func:`series`, and :func:`correlation_sum`,
:func:`recurrence_determinism`, :func:`rqa_det` and
:func:`estimate_asymptotics`, which read it) run over classes of indices
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
holds at most ``ranks.BLOCK_ELEMS`` entries, so a band wider than that
takes a block of one row, O(n) entries.  Offset 0 of the window is one
compare against the range end; every later offset is one unsigned range
test (``ranks.in_ranges``), ``(rank - lo) < (hi - lo)`` in the
smallest unsigned dtype that holds the sentinel, where a rank below lo
wraps past every span.  Each off-diagonal hit counts twice, the diagonal
once; the pointwise test is symmetric in both modes (``fl(a - b) = -fl(b -
a)`` under IEEE round-to-nearest).  The cost is the sum over blocks of
rows times their widest band, times W, at most O(n^2 W) when every index
is its own class and every pair recurs.  These counts are not guarded.

:func:`window_counts` keeps the scan over index pairs in index order, at
one n, for what needs every pair or its position: the bits of
:func:`recurrence_matrix`, and the finite cycles of
:mod:`rqamaps.finite_omega`, counted on the cycle's own trajectory, whose
strict (``< eps``) count backs the excluded-threshold check.  It reads the
same ranks and rank ranges as the class scan, with the same unsigned range
test, over the full n-by-n square in row blocks, at a cost of n^2 W: each
block tests its rows, extended by W - 1, against every column once, then
ANDs the test shifted by each offset into the block's hits and counts
them.  The plot's rows take the window-W hits in place; a plot of more
than ``RQA_MAX_PAIRS`` pairs raises :class:`ResourceGuardError` before
its bits are allocated, through the guard ``ranks.check_pairs``, which
the word counts of :mod:`rqamaps.solenoidal` share.  Every count is
serial.

One renderer writes the plot as a plain bitmap: each pixel is one
little-endian uint16, its bit plus 0x2030 ("0 " or "1 ", "0\\n" or "1\\n"
at the end of a row); :func:`pgm_bytes` renders every row at once, and
:func:`write_pgm` writes blocks of at most ``ranks.BLOCK_ELEMS`` pixels
(one row at least), so a file costs one block of text beside the bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import ranks
from .dynamics import Trajectory
from .rational import Number, positive
from .ranks import ResourceGuardError   # re-exported: callers catch it from here


@dataclass(frozen=True)
class RQAParams:
    """Window length m, threshold epsilon > 0, segment length n."""

    m: int
    epsilon: Number
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        positive(self.epsilon)


def bowen_distance(t, i: int, j: int, m: int) -> Number:
    """max over the m-window of pointwise distances |x_{i+s} - x_{j+s}|."""
    pts = t.points if isinstance(t, Trajectory) else t
    if m < 1:
        raise ValueError("window length must be >= 1")
    if max(i, j) + m > len(pts) or min(i, j) < 0:
        raise ValueError(
            f"window [{max(i, j)}, +{m}) overflows trajectory of length {len(pts)}")
    return max(abs(pts[i + s] - pts[j + s]) for s in range(m))


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


def window_counts(t, n: int, windows: int, epsilon, strict: bool = False,
                  out: np.ndarray | None = None) -> list[int]:
    """counts[w-1] = #{(i, j) in [0, n)^2 : Bowen_w(i, j) <= epsilon} (<
    epsilon when ``strict``) for w <= ``windows``, over index pairs in
    index order.  ``out``, an n-by-n bool array when given, receives the
    window-``windows`` hits.
    """
    need = n + windows - 1
    table = ranks.table(t, n, windows)
    rank, row_lo, span = ranks.unsigned(table.ranks(need), *ranks.cuts(table, epsilon, strict))
    rows = max(1, min(n, ranks.BLOCK_ELEMS // n))
    counts = [0] * windows
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        h = i1 - i0
        near = ranks.in_ranges(rank[None, :], row_lo[i0:i1 + windows - 1, None],
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

    ``rank`` holds at least the min(ns[-1], k + p) + max(windows) - 1
    point ranks that the classes read, and [lo[r], hi[r]) is the rank
    range of the values close to rank r, a relation that must be
    symmetric and contain r.  ``lasso`` is the ranks' lasso (k, p), as
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
    col, row_lo, span = ranks.unsigned(rank[first + np.arange(depth)[:, None]], lo, hi)
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
        # times their widest band, has at most BLOCK_ELEMS entries (no more
        # than BLOCK_ELEMS over the first row's band)
        tall = min(u - c0, max(1, ranks.BLOCK_ELEMS // int(width[c0])))
        widest = np.maximum.accumulate(width[c0:c0 + tall])
        h = max(1, int(np.searchsorted(np.arange(1, tall + 1) * widest, ranks.BLOCK_ELEMS,
                                       side="right")))
        c1, b = c0 + h, int(widest[h - 1])
        w_row = weight[:, c0:c1].astype(np.float64)
        # at offset 0 every column ranks at or above the row's range start
        hit = col_strip[0, c0:c1, :b] < row_hi[c0:c1, None]
        for s in range(depth):
            if s:
                hit &= ranks.in_ranges(col_strip[s, c0:c1, :b],
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
    table = ranks.table(t, ns[-1], max(windows))
    # the classes are the lasso positions below ns[-1]; they read W - 1 ranks beyond
    count = min(ns[-1], sum(table.lasso)) + max(windows) - 1
    return _class_counts(table.ranks(count), *ranks.cuts(table, epsilon, False), ns,
                         windows, table.lasso)


def series_windows(m: int, kind: str) -> list[int]:
    """The windows w whose counts N_w the ``kind`` series of :func:`series`
    reads at window m: C_m reads m, rdet_m and DET_1 = rdet_1 read 1 and m,
    and DET_m for m > 1 reads 1, m and m + 1.  At n it reads the first
    n + max(windows) - 1 points."""
    if kind == "corrsum":
        return [m]
    if kind == "det" and m > 1:
        return [1, m, m + 1]
    if kind not in ("rdet", "det"):
        raise ValueError(f"unknown series kind {kind!r}")
    return [1, m]


def series(t, ns: Sequence[int], m: int, epsilon, kind: str) -> list[Fraction]:
    """C_m (``kind`` "corrsum"), rdet_m ("rdet") or DET_m ("det") at
    every n of the increasing schedule ns, from one scan over the windows
    of :func:`series_windows`, once ns, m and epsilon are checked."""
    if not ns or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("schedule must be nonempty and strictly increasing")
    RQAParams(m, epsilon, ns[0])   # validates m, epsilon and every n
    rows = _pair_counts(t, ns, series_windows(m, kind), epsilon)
    if kind == "corrsum":
        return [Fraction(c, n * n) for n, c in zip(ns, rows[0])]
    if len(rows) == 3:   # DET_m, m > 1
        return [Fraction(m * n_m - (m - 1) * n_m1, n1) for n1, n_m, n_m1 in zip(*rows)]
    # rdet_m, and DET_1 = rdet_1
    return [Fraction(n_m, n1) for n1, n_m in zip(*rows)]


def correlation_sum(t, p: RQAParams, threads: int | None = None) -> Fraction:
    """C_m(n, epsilon) = recurrent pair count / n^2, as an exact rational.

    ``threads`` has no effect: pair counts are serial."""
    return series(t, [p.n], p.m, p.epsilon, "corrsum")[0]


def recurrence_determinism(t, p: RQAParams) -> Fraction:
    """rdet_m = C_m / C_1 (well defined: diagonal pairs keep C_1 > 0)."""
    return series(t, [p.n], p.m, p.epsilon, "rdet")[0]


def rqa_det(t, p: RQAParams) -> Fraction:
    """DET_m = m*rdet_m - (m-1)*rdet_{m+1}; needs window m+1 available."""
    return series(t, [p.n], p.m, p.epsilon, "det")[0]


@dataclass(frozen=True)
class RecurrenceMatrix:
    """Boolean recurrence plot: bits[i, j] iff Bowen_m(i, j) <= epsilon."""

    n: int
    m: int
    epsilon: Number
    bits: np.ndarray = field(compare=False)

    def __post_init__(self):
        # the renderers read the bits as raw bytes, one per pixel
        if not (self.n >= 1 and isinstance(self.bits, np.ndarray)
                and self.bits.dtype == bool and self.bits.shape == (self.n, self.n)):
            raise ValueError(f"bits must be a bool array of shape (n, n) = "
                             f"({self.n}, {self.n}) with n >= 1")

    @property
    def popcount(self) -> int:
        return int(np.count_nonzero(self.bits))


def recurrence_matrix(t, p: RQAParams) -> RecurrenceMatrix:
    """The n-by-n plot, one byte per pair; a plot of more than
    ``RQA_MAX_PAIRS`` pairs raises ResourceGuardError before any of it is
    allocated."""
    ranks.check_pairs("a recurrence plot", p.n)
    bits = np.empty((p.n, p.n), dtype=bool)
    window_counts(t, p.n, p.m, p.epsilon, out=bits)
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


def estimate_asymptotics(t, m: int, epsilon: Number, schedule: Sequence[int]) -> SeriesEstimate:
    """Correlation sums over an increasing n-schedule, and the min and max
    of their tail, the last half of the schedule.

    The trajectory (or plain point sequence) must be long enough for the
    largest scheduled n plus the window: max(schedule) + m - 1 points.
    """
    schedule = list(schedule)
    values = tuple(zip(schedule, series(t, schedule, m, epsilon, "corrsum")))
    tail = [c for _, c in values[-max(1, len(values) // 2):]]
    return SeriesEstimate(m=m, epsilon=epsilon, values=values,
                          liminf_est=min(tail), limsup_est=max(tail))


def _pgm_rows(bits: np.ndarray) -> np.ndarray:
    """The plain-bitmap text of a block of rows, one little-endian uint16
    per pixel: "0 " or "1 ", and "0\\n" or "1\\n" in the last column."""
    cells = bits.view(np.uint8).astype("<u2", order="C")   # C order: written as is
    cells += 0x2030                 # bytes (0x30 + bit, 0x20)
    cells[:, -1] -= 0x1600          # 0x20 -> 0x0a in the row's last cell
    return cells


def _pgm_header(n: int) -> bytes:
    return f"P1\n{n} {n}\n".encode("ascii")


def pgm_bytes(matrix: RecurrenceMatrix) -> bytes:
    """Plain-bitmap rendering: header "P1\\n<n> <n>\\n", rows of 0/1 tokens.

    Row i corresponds to trajectory index i; 1 marks a recurrent pair.
    Byte-exact golden-file format.
    """
    return _pgm_header(matrix.n) + _pgm_rows(matrix.bits).tobytes()


def write_pgm(matrix: RecurrenceMatrix, path) -> None:
    """Write :func:`pgm_bytes` of the plot to ``path``, rendering it in
    blocks of rows of at most ``ranks.BLOCK_ELEMS`` pixels (at least one
    row), so the text is never held whole."""
    rows = max(1, ranks.BLOCK_ELEMS // matrix.n)
    with open(path, "wb") as fh:
        fh.write(_pgm_header(matrix.n))
        for i0 in range(0, matrix.n, rows):
            fh.write(_pgm_rows(matrix.bits[i0:i0 + rows]))
