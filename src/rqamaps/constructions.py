"""Executable counterexample constructions.

Two fully parameterized objects:

* ``prop42``: a zero-entropy piecewise linear map whose trajectory clusters
  around the 2-cycle {1/4, 3/4} so slowly that at the critical threshold
  eps = 1/2 the correlation sums C_1(n) oscillate forever: along the
  schedule n_k = 2*(2^{k+1} - 1) the even-k values settle at 7/10 and the
  odd-k values at 8/10, so no asymptotic correlation sum exists.  The
  symbolic point positions are authoritative; the numeric map is a
  depth-truncated cross-check.  The pair count behind C_1
  (``prop42_pair_count``) reads n alone, in one pass over the O(log n)
  levels, so it needs no built depth and runs at n = 10^100; ``prop42_C1``
  keeps C_1 to the built depth of its instance.  The report and the C_1
  table read one schedule, whose k_max is checked before any value is
  computed or any file is opened.

  Every value of the scheme comes from integers (``_lows``, ``_cells``).
  With R = ``SCALE_RATIO`` and delta_n = 1/(4 R^(n+1)), the level-n
  intervals I_n and J_n are one delta_n wide, with endpoints that are
  integers over 4 R^(n+1).  A level-L position is lo + delta_L (2r + 1) /
  2^(L+1), the midpoint of cell r of 2^L: an integer over
  4 R^(L+1) 2^(L+1), which is 2^(5L+7) at R = 16.  Each position is built
  once, as ``Fraction(numerator, denominator)``, and ``build_prop42``
  checks its contract on integers over 4 R^(depth+1).

* ``delahaye`` (prop52): the admissible nested-interval system with
  diameters r^-t / 2*r^-t (by leading digit), whose word-pair counts at
  eps_k = r^-k give asymptotic determinism exactly 2/3 for every window
  length m >= 2 -- recurrence determinism can stay away from 1 even for a
  map that is not chaotic in any standard sense.  Its rule nests at every
  depth, which the system records (``_nests``), so its build check and
  the word counts on it build the node tables of the depths they read
  alone, each checked at its own depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .dynamics import PiecewiseLinearMap
from .intervals import CompactInterval, interval_dist, union_diam
from .rational import fraction_str
from .rqa import ResourceGuardError
from .solenoidal import AdmissibleSystem, Word, counts_by_window, node_bounds

Y0 = Fraction(1, 4)
Y1 = Fraction(3, 4)
EPSILON_STAR = Fraction(1, 2)
SCALE_RATIO = 16


# ---------------------------------------------------------------------------
# prop42: oscillating correlation sums at the critical threshold
# ---------------------------------------------------------------------------

def _units(n: int) -> int:
    """1/delta_n = 4 R^(n+1): the ratio-R decay, scaled so every interval
    stays inside (0, 1/4) and (1/4, 3/4)."""
    return 4 * SCALE_RATIO ** (n + 1)


def _lows(n: int) -> tuple[int, int]:
    """lo(I_n) and lo(J_n) as integers over ``_units(n)``; both intervals
    are one unit delta_n wide.  Y0 is R^(n+1) units and Y1 three times it."""
    y0 = SCALE_RATIO ** (n + 1)
    if n % 2 == 0:
        return y0 - 8, 3 * y0 - 2
    return y0 - 2, 3 * y0 - 8


def _cells(level: int) -> tuple[int, int, int]:
    """(base_i, base_j, den): the level positions on the I and J sides are
    (base + 2 rank + 1) / den for rank < 2^level, den = 4 R^(level+1)
    2^(level+1), the midpoints of 2^level equal cells of the interval."""
    lo_i, lo_j = _lows(level)
    return lo_i << (level + 1), lo_j << (level + 1), _units(level) << (level + 1)


def _cell(index: int) -> tuple[int, int]:
    """Position ``index`` as (numerator, denominator), unreduced."""
    level = index_level(index)
    base_i, base_j, den = _cells(level)
    rank = index // 2 - (2 ** level - 1)
    return (base_j if index % 2 else base_i) + 2 * rank + 1, den


def index_level(index: int) -> int:
    """Depth of the interval holding position ``index``.

    Even index 2i lies in the left-side interval of depth level(i); odd
    index 2i+1 in the right-side interval of the same level map, where
    level(i) is the unique k with 2^k - 1 <= i <= 2^{k+1} - 2.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    return (index // 2 + 1).bit_length() - 1


@dataclass(frozen=True)
class Prop42Instance:
    """Verified interval scheme down to ``depth``; point positions on demand."""

    depth: int
    y0: Fraction
    y1: Fraction
    epsilon_star: Fraction
    scale_ratio: int
    intervals_i: tuple[CompactInterval, ...]
    intervals_j: tuple[CompactInterval, ...]
    slope: Fraction
    fixed_point: Fraction

    @property
    def n_points(self) -> int:
        return 2 * (2 ** (self.depth + 1) - 1)

    @cached_property
    def positions(self) -> tuple[Fraction, ...]:
        """All n_points positions x_0 ... x_{n_points - 1} (exact rationals)."""
        return prop42_positions(self, self.n_points)


def build_prop42(depth: int) -> Prop42Instance:
    """Construct and machine-verify the scheme down to ``depth`` levels.

    Verified at build (failure raises):  left intervals inside (0, 1/4) and
    right intervals inside (1/4, 3/4); even-level gap > 1/2 and odd-level
    hull < 1/2; strict ordering of both families; the cross-level
    consequences gap(I_s, J_t) > 1/2 for s < t and hull(I_s, J_t) < 1/2
    for s > t.  The interval checks run on integers over the one scale
    4 R^(depth+1), and the branch checks on x_1, x_2 over their common
    denominator.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    scale = _units(depth)
    y0, y1, eps = scale // 4, 3 * scale // 4, scale // 2
    ivs_i, ivs_j = [], []
    for n in range(depth + 1):
        up = SCALE_RATIO ** (depth - n)
        for ivs, lo in zip((ivs_i, ivs_j), _lows(n)):
            ivs.append(CompactInterval(lo * up, (lo + 1) * up))

    def fail(msg):
        raise AssertionError(f"prop42 scheme violates its contract: {msg}")

    for n in range(depth + 1):
        a, b = ivs_i[n], ivs_j[n]
        if not (0 < a.lo and a.hi < y0):
            fail(f"I_{n} not inside (0, 1/4)")
        if not (y0 < b.lo and b.hi < y1):
            fail(f"J_{n} not inside (1/4, 3/4)")
        if n % 2 == 0 and not interval_dist(a, b) > eps:
            fail(f"dist(I_{n}, J_{n}) <= 1/2")
        if n % 2 == 1 and not union_diam(a, b) < eps:
            fail(f"diam(I_{n} u J_{n}) >= 1/2")
        if n < depth and not (ivs_i[n].hi < ivs_i[n + 1].lo
                              and ivs_j[n].hi < ivs_j[n + 1].lo):
            fail(f"families not strictly increasing at level {n}")
    for s in range(depth + 1):
        for t in range(depth + 1):
            if s < t and not interval_dist(ivs_i[s], ivs_j[t]) > eps:
                fail(f"dist(I_{s}, J_{t}) <= 1/2")
            if s > t and not union_diam(ivs_i[s], ivs_j[t]) < eps:
                fail(f"diam(I_{s} u J_{t}) >= 1/2")

    (n1, d1), (n2, d2) = _cell(1), _cell(2)
    # slope a/b = (x_2 - Y1) / (x_1 - Y0), both sides times 4 d1 d2; b > 0,
    # since x_1 lies in J_0
    a, b = (4 * n2 - 3 * d2) * d1, (4 * n1 - d1) * d2
    if not a < -b:
        fail("middle branch not expanding")
    # the fixed point (Y1 - slope Y0) / (1 - slope) is (3b - a) / (4 (b - a)),
    # with b - a > 0: above Y0 iff b - a < 3b - a, below x_1 = n1/d1 iff
    # (3b - a) d1 < 4 (b - a) n1
    if not (b - a < 3 * b - a and (3 * b - a) * d1 < 4 * (b - a) * n1):
        fail("fixed point outside (1/4, x_1)")
    intervals_i, intervals_j = (
        tuple(CompactInterval(Fraction(iv.lo, scale), Fraction(iv.hi, scale)) for iv in ivs)
        for ivs in (ivs_i, ivs_j))
    return Prop42Instance(
        depth=depth, y0=Y0, y1=Y1, epsilon_star=EPSILON_STAR, scale_ratio=SCALE_RATIO,
        intervals_i=intervals_i, intervals_j=intervals_j, slope=Fraction(a, b),
        fixed_point=Fraction(3 * b - a, 4 * (b - a)))


def prop42_positions(inst: Prop42Instance, n: int) -> tuple[Fraction, ...]:
    """The first n point positions x_0 ... x_{n-1} (exact rationals), each
    built once from its integer form (``_cells``)."""
    if not 1 <= n <= inst.n_points:
        raise ValueError(f"n={n} outside generated depth (max {inst.n_points})")
    cells = []
    for level in range(index_level(n - 1) + 1):
        base_i, base_j, den = _cells(level)
        for odd in range(1, 2 << level, 2):
            cells += (base_i + odd, den), (base_j + odd, den)
    return tuple(Fraction(num, den) for num, den in cells[:n])


def prop42_pair_count(n: int) -> int:
    """#{(i, j) in [0, n)^2 : |x_i - x_j| <= 1/2}, exact, from n alone.

    The pair recurs iff i and j share parity, or the mixed pair sits at
    levels (s, t) (even index at level s, odd at level t) with s == t odd
    or s > t.  Level s of a parity class holds its indices
    2^s - 1 <= i <= 2^(s+1) - 2, so the even class puts
    min(evens + 1 - 2^s, 2^s) of its indices at each level s it reaches,
    and each of them recurs with the min(odds, 2^s - 1) odd indices below
    its level, or min(odds, 2^(s+1) - 1) when s is odd.  One pass over the
    levels in Python ints: O(log n) at any n.  The rule scan and the
    closed form (tests) agree with it exactly.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    evens, odds = (n + 1) // 2, n // 2
    mixed = 0
    for s in range(evens.bit_length()):
        mixed += min(evens + 1 - 2 ** s, 2 ** s) * min(odds, 2 ** (s + s % 2) - 1)
    return evens * evens + odds * odds + 2 * mixed


def prop42_C1(inst: Prop42Instance, n: int) -> Fraction:
    """C_1(n, 1/2) of the constructed trajectory, exact for any n in depth."""
    if not 1 <= n <= inst.n_points:
        raise ValueError(f"n={n} outside generated depth (max {inst.n_points})")
    return Fraction(prop42_pair_count(n), n * n)


def prop42_schedule_n(k: int) -> int:
    """The analysis subsequence n_k = 2*(2^{k+1} - 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2 * (2 ** (k + 1) - 1)


def prop42_c1_closed_form(k: int) -> Fraction:
    """Closed form of C_1 at n_k: independent of the pair scan.

    (2/n^2) * [(2^{k+1}-1)^2 + (4/15)(16^{ceil(k/2)} - 1)
               + (4^{k+1} - 3*2^{k+1} + 2)/3]
    """
    if k < 1:
        raise ValueError("closed form is stated for k >= 1")
    n = prop42_schedule_n(k)
    total = ((2 ** (k + 1) - 1) ** 2
             + Fraction(4, 15) * (16 ** math.ceil(k / 2) - 1)
             + Fraction(4 ** (k + 1) - 3 * 2 ** (k + 1) + 2, 3))
    return Fraction(2, n * n) * total


def prop42_numeric_map(inst: Prop42Instance, depth: int | None = None) -> PiecewiseLinearMap:
    """Depth-truncated PL realization of the construction.

    Interpolates the point successor relation through every generated
    position whose image is itself generated, is constant x_1 left of x_0
    and constant y_0 right of y_1, and decreases with constant slope on
    [y_0, x_1].  The true map accumulates breakpoints at y_0 and y_1, so
    the truncation closes both branches linearly to f(y_0) = y_1 and
    f(y_1) = y_0; numeric iteration is faithful exactly for trajectory
    prefixes within the generated depth -- the symbolic positions stay
    authoritative beyond it.
    """
    depth = inst.depth if depth is None else depth
    if not 1 <= depth <= inst.depth:
        raise ValueError(f"depth {depth} outside built instance (max {inst.depth})")
    n_pts = 2 * (2 ** (depth + 1) - 1)
    pos = prop42_positions(inst, n_pts)
    breakpoints = [Fraction(0), pos[0]]
    values = [pos[1], pos[1]]
    for e in range(2, n_pts - 1, 2):  # even indices with generated successors
        breakpoints.append(pos[e])
        values.append(pos[e + 1])
    breakpoints.append(Y0)
    values.append(Y1)
    breakpoints.append(pos[1])
    values.append(pos[2])
    for o in range(3, n_pts - 2, 2):  # odd indices with generated successors
        breakpoints.append(pos[o])
        values.append(pos[o + 1])
    breakpoints.append(Y1)
    values.append(Y0)
    breakpoints.append(Fraction(1))
    values.append(Y0)
    return PiecewiseLinearMap(tuple(breakpoints), tuple(values))


def _c1_schedule(inst: Prop42Instance, k_max: int) -> list[tuple[int, int, Fraction]]:
    """The rows (k, n_k, C_1(n_k)) for k = 1..k_max, once k_max is checked
    to be >= 1 and within the generated depth."""
    if not 1 <= k_max:
        raise ValueError("k_max must be >= 1")
    if prop42_schedule_n(k_max) > inst.n_points:
        raise ValueError("schedule exceeds generated depth")
    return [(k, prop42_schedule_n(k), prop42_C1(inst, prop42_schedule_n(k)))
            for k in range(1, k_max + 1)]


def prop42_report(inst: Prop42Instance, k_max: int) -> dict:
    """Oscillation report over the schedule k = 1..k_max.

    liminf/limsup estimates are the min/max of the tail half of the
    scheduled values, which the even-k and odd-k subfamilies pull apart.
    """
    values = _c1_schedule(inst, k_max)
    tail = values[len(values) // 2:]
    liminf_est = min(c for _, _, c in tail)
    limsup_est = max(c for _, _, c in tail)
    return {
        "epsilon": fraction_str(inst.epsilon_star),
        "schedule": [{"k": k, "n": n, "c1_num": c.numerator,
                      "c1_den": c.denominator, "c1_float": float(c),
                      "parity": "even" if k % 2 == 0 else "odd"}
                     for k, n, c in values],
        "liminf_est": fraction_str(liminf_est),
        "limsup_est": fraction_str(limsup_est),
        "liminf_float": float(liminf_est),
        "limsup_float": float(limsup_est),
        "liminf_lt_limsup": liminf_est < limsup_est,
    }


def write_c1_csv(inst: Prop42Instance, k_max: int, path) -> None:
    """CSV export (k, n, c1_num, c1_den, c1_float, parity) over the schedule
    of :func:`prop42_report`; an invalid k_max raises before the file is
    opened."""
    rows = _c1_schedule(inst, k_max)
    with open(path, "w", newline="") as fh:
        fh.write("k,n,c1_num,c1_den,c1_float,parity\n")
        for k, n, c in rows:
            parity = "even" if k % 2 == 0 else "odd"
            fh.write(f"{k},{n},{c.numerator},{c.denominator},{float(c)!r},{parity}\n")


# ---------------------------------------------------------------------------
# delahaye / prop52: determinism limit 2/3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelahayeInstance:
    """Admissible system with diameters r^-t (leading digit 0) / 2 r^-t (digit 1)."""

    r: int
    system: AdmissibleSystem

    def epsilon_k(self, k: int) -> Fraction:
        if k < 1:
            raise ValueError("k must be >= 1")
        return Fraction(1, self.r ** k)


def build_delahaye(r: int, depth_cap: int = 13) -> DelahayeInstance:
    """Construct the system and validate its gap structure.

    Requires r >= 5 (smaller r breaks the separation between sibling
    unions and the threshold scale).  Checked at build: the top-level gap
    is 1 - 3/r and every sibling gap is (r-2) r^-(t+1), doubled under a
    leading 1.

    The rule nests at every depth: below a word of depth d the sibling gap
    is c (r - 2) r^-(d+1) > 0, c = 1 or 2 by its leading digit, so the
    system is built with ``_nests`` and its counts build the node tables
    of the depths they walk alone.
    """
    if r < 5:
        raise ValueError("need r >= 5")
    widths = {}   # depth -> (r^-depth, 2 r^-depth)

    def diam_rule(digits: tuple[int, ...]) -> Fraction:
        d = len(digits)
        if d not in widths:
            unit = Fraction(1, r ** d)
            widths[d] = (unit, 2 * unit)
        return widths[d][digits[0]]

    system = AdmissibleSystem(diam_rule=diam_rule, depth_cap=depth_cap, _nests=True)
    _check_delahaye_gaps(system, r)
    return DelahayeInstance(r=r, system=system)


def _check_delahaye_gaps(system: AdmissibleSystem, r: int) -> None:
    """The build-time contract of ``build_delahaye``, read off the node
    bounds of depth 5: the top-level gap is 1 - 3/r, below every word a of
    depth t <= 4 the sibling gap min K_{a1} - max K_{a0} is
    (r-2) r^-(t+1), doubled under a leading 1, and the widest interval at
    depth 5 is 2 r^-5.  Word j's children at depth t + 1 are words j and
    j + 2^t."""
    depth = min(system.depth_cap, 5)
    n = 2 ** depth
    # K_u at depth d spans the depth-5 intervals of its leftmost leaf u and
    # its rightmost leaf u + 2^5 - 2^d, so one read of depth 5 gives every
    # depth; its node bounds are built depth by depth from the root, 2^6 - 2
    # rule calls, one per word of depths 1-5
    b = node_bounds(system, depth, depth, range(n))
    lo, hi = b.lo.tolist(), b.hi.tolist()
    if (lo[1] - hi[n - 2]) * r != (r - 3) * b.scale:
        raise AssertionError("top-level gap violates the diameter rule")
    for t in range(1, depth):
        p = 2 ** t
        for j in range(p):
            # a leading digit 1 (odd j) doubles the gap
            if (lo[j + p] - hi[j + n - 2 * p]) * r ** (t + 1) != (r - 2) * b.scale * (1 + j % 2):
                raise AssertionError(
                    f"sibling gap below {Word.from_int(j, t)} violates the rule")
    if Fraction(max(y - x for x, y in zip(lo, hi)), b.scale) != Fraction(2, r ** depth):
        raise AssertionError(f"widest interval at depth {depth} violates the rule")


def delahaye_counts_formula(k: int, m: int, t: int) -> tuple[int, int]:
    """Scaling-law counts (N_1°, N_m°) at eps_k for depth t >= k + 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if t < k + 1:
        raise ValueError("formula needs t >= k + 1")
    if m < 2:
        raise ValueError("the window count is stated for m >= 2")
    factor = 4 ** (t - (k + 1))
    return factor * 3 * 2 ** k, factor * 2 ** (k + 1)


def delahaye_counts(inst: DelahayeInstance, k: int, m: int, t: int) -> tuple[int, int]:
    """(N_1°, N_m°) at eps_k = r^-k; enumerated when the guard allows.

    Beyond the resource guard the depth-scaling law takes over; both paths
    agree exactly wherever both apply.
    """
    if m < 2:
        raise ValueError("need m >= 2 (window count)")
    if t < k + 1:
        raise ValueError("need t >= k + 1")
    eps = inst.epsilon_k(k)
    if t <= inst.system.depth_cap:
        try:
            counts = counts_by_window(inst.system, t, eps, m)
        except ResourceGuardError:
            pass
        else:
            return counts[0].n_closed, counts[m - 1].n_closed
    return delahaye_counts_formula(k, m, t)


def delahaye_rdet(k: int, m: int) -> Fraction:
    """Asymptotic determinism at eps_k: exactly 2/3 for every m >= 2, and
    for every r, so it reads (k, m) alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return Fraction(1)
    n1, nm = delahaye_counts_formula(k, m, k + 1)
    return Fraction(nm, n1)


def delahaye_det(k: int, m: int) -> Fraction:
    """Asymptotic RQA-determinism m*rdet_m - (m-1)*rdet_{m+1} at eps_k."""
    return m * delahaye_rdet(k, m) - (m - 1) * delahaye_rdet(k, m + 1)
