"""Odometer words, admissible nested-interval systems, and pair counting.

An admissible system assigns to every binary word ``a`` a closed interval
K_a inside [0, 1]: children share their parent's outer endpoints
(min K_{a0} = min K_a, max K_{a1} = max K_a, K_{a0} < K_{a1}) and depth-t
diameters tend to zero, so the intersection over depths is a Cantor set.
The dynamics acts as the odometer (adding machine): the image of K_a is
K_{a+1}, addition carrying from the leftmost (least significant) digit.

For window length m and threshold eps the depth-t word-pair counts are

    N_m  = #{(a, b) : max_{i<m} dist(K_{a+i}, K_{b+i}) <  eps}   (strict)
    N_m° = #{(a, b) : max_{i<m} diam(K_{a+i} u K_{b+i}) <= eps}  (closed)

whose densities N°/p_t^2 <= c <= N/p_t^2 sandwich every asymptotic
correlation sum over the system, with enclosure width at most
4m(p_t - 1)/p_t^2.  A :class:`SolenoidalCounts` row carries both counts
and this enclosure; :func:`asymptotic_corr_sum` returns the rows of a depth
schedule after checking each width against its bound.

Each system keeps one table of levels: level d is K_j = [lo[j], hi[j]] /
scale for every odometer value j, in Python ints over one denominator,
built from level d - 1 on first use.  A level costs one ``diam_rule`` call
per node: its words come in ascending odometer value from
``itertools.product`` with each digit tuple reversed, skip ``Word``'s digit
validation (every digit is 0 or 1 by construction), and each width's sign
is checked on its integer numerator over the level's denominator.  The
level then checks admissibility, one integer comparison per parent: the
children of K_a lie inside it and in order iff max K_{a0} < min K_{a1}.  A rule
that breaks either check raises ValueError naming the first depth that
shows it.  A cold ``interval_of_word`` thus builds and checks its word's
whole level, at most 2^depth_cap nodes.

Counts come from a dual-tree walk over level t (Gray & Moore, "N-body
problems in statistical learning", 2001).  Node u at depth d covers the
leaves a = u mod 2^d; as the odometer carries from the least significant
digit, the leaves a + s below u are exactly those below (u + s) mod 2^d.
The per-step tests need only order comparisons of endpoints,

    gap < eps   iff  hi_b > lo_a - eps  and  lo_b < hi_a + eps
    hull <= eps iff  hi_b <= lo_a + eps and  lo_b >= hi_a - eps
                     and both diameters are <= eps,

so the level's endpoints, over its own denominator, go into the rank table
of the trajectory counts (``rqa._int_table``) and each threshold is a rank
among them: ``rqa._exact_cuts`` with ``strict=True`` for the gap test and
``strict=False`` for the hull test.  The table is int64 while the endpoints
fit and the cut while ``max|v| + e < 2^63``, Python ints otherwise, and every
pair is decided exactly by small-integer comparisons, whatever the
denominator.

Each node keeps the min and max of these ranks over its leaves, reduced
bottom-up by halves.  The walk starts from the root pair and, per pair of
nodes and shift s < m, asks whether every leaf pair under the shifted nodes
passes or none does.  A pair whose leading all-pass shifts end at an
all-fail shift (or at m) adds 4^(t-d) to each of those windows at once;
any other pair splits into its four child pairs.  At depth t each node is
one leaf, so every pair left is decided there.  The walk's frontier runs
in blocks of about ``rqa._BLOCK_ELEMS`` entries, so no temporary grows with
p_t^2.  On the Delahaye systems a few dozen node pairs per test decide all
p_t^2 leaf pairs.  A resource guard bounds the depth by p_t^2 pairs before
any level is built (env RQA_MAX_PAIRS overrides).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

import numpy as np

from . import rqa
from .intervals import CompactInterval, interval_dist, union_diam
from .rational import Number, as_fraction, fraction_str, scaled

_DEFAULT_MAX_PAIRS = 2 ** 26


class ResourceGuardError(RuntimeError):
    """Raised when a pair scan would exceed the configured quadratic budget."""


def max_pairs_limit() -> int:
    return int(os.environ.get("RQA_MAX_PAIRS", str(_DEFAULT_MAX_PAIRS)))


@dataclass(frozen=True)
class Word:
    """Binary digit word a_0 a_1 ... a_{t-1}.

    The leftmost digit is the least significant one for odometer addition.
    """

    digits: tuple[int, ...]

    def __post_init__(self):
        for d in self.digits:
            if d not in (0, 1):
                raise ValueError(f"digit {d} is not binary")

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits)

    @property
    def group_order(self) -> int:
        """p_t: the number of words of this length."""
        return 1 << len(self.digits)

    def to_int(self) -> int:
        """Odometer-compatible integer value (leftmost digit least significant)."""
        return sum(d << i for i, d in enumerate(self.digits))

    @staticmethod
    def from_int(value: int, t: int) -> "Word":
        """The length-t word of odometer value ``value``, which must lie in
        [0, 2^t)."""
        if not 0 <= value < 1 << t:
            raise ValueError(f"value {value} outside 0..{(1 << t) - 1}")
        return Word(tuple((value >> i) & 1 for i in range(t)))

    @staticmethod
    def _unchecked(digits: tuple[int, ...]) -> "Word":
        """A word whose digits are known to be binary, built without
        ``__post_init__``'s validation."""
        word = object.__new__(Word)
        word.__dict__["digits"] = digits
        return word

    @staticmethod
    def parse(text: str) -> "Word":
        return Word(tuple(int(ch) for ch in text))


def word_add(a: Word, k: int) -> Word:
    """Odometer addition a + k, carrying left to right, wrapping mod p_t."""
    return Word.from_int((a.to_int() + k) % a.group_order, len(a))


@dataclass(frozen=True)
class AdmissibleSystem:
    """Binary nested-interval system driven by a diameter rule.

    ``diam_rule(word)`` fixes the width of K_word; interval placement then
    follows from endpoint sharing: the 0-child keeps the parent's lo, the
    1-child keeps the parent's hi.  The rule is admissible when every width
    is positive and the two children of every word lie inside it in order
    (their widths sum to less than the parent's); each level checks this
    as it is built and raises ValueError at the first depth that breaks it.
    """

    diam_rule: Callable[[Word], Fraction]
    depth_cap: int = 13
    descriptor: dict | None = None
    # level d: (lo, hi, scale), K_j = [lo[j], hi[j]] / scale for odometer value j
    _levels: list = field(default_factory=lambda: [([0], [1], 1)], init=False,
                          repr=False, compare=False)

    def __post_init__(self):
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be >= 1")


def _check_depth(s: AdmissibleSystem, t: int) -> None:
    if not 0 <= t <= s.depth_cap:
        raise ValueError(f"depth {t} outside 0..{s.depth_cap} (the depth cap)")


def _level(s: AdmissibleSystem, t: int) -> tuple[list[int], list[int], int]:
    """Level t, each new level built from its parent with one rule call per
    node in odometer order, over the lcm of the parent's scale and its
    width denominators, and checked for positive widths and nesting.
    Word j + b 2^(d-1) is child b of word j."""
    _check_depth(s, t)
    levels = s._levels
    while len(levels) <= t:
        d = len(levels)
        lo, hi, scale = levels[-1]
        # product() counts with its last digit fastest, so reversed tuples
        # run through the words in ascending odometer value
        widths = [as_fraction(s.diam_rule(Word._unchecked(digits[::-1])))
                  for digits in product((0, 1), repeat=d)]
        w, new = scaled(widths, scale)
        lo, hi = ([v * (new // scale) for v in ends] for ends in (lo, hi))
        if min(w) <= 0:
            raise ValueError(f"diameter rule must be positive, got {min(widths)}")
        # child 0 of word j keeps its lo, child 1 (word j + 2^(d-1)) its hi
        lo_1 = [h - x for h, x in zip(hi, w[len(hi):])]
        hi_0 = [v + x for v, x in zip(lo, w)]
        if any(a >= b for a, b in zip(hi_0, lo_1)):
            raise ValueError(f"diameter rule is not admissible at depth {d}: "
                             "children must lie inside their parent, in order")
        levels.append((lo + lo_1, hi_0 + hi, new))
    return levels[t]


def interval_of_word(s: AdmissibleSystem, a: Word) -> CompactInterval:
    """K_a, read from the level table; exact rational endpoints."""
    lo, hi, scale = _level(s, len(a))
    j = a.to_int()
    return CompactInterval(Fraction(lo[j], scale), Fraction(hi[j], scale))


def word_midpoint(s: AdmissibleSystem, a: Word) -> Fraction:
    iv = interval_of_word(s, a)
    return (iv.lo + iv.hi) / 2


def max_diam(s: AdmissibleSystem, t: int) -> Fraction:
    """nu_t: the largest depth-t interval diameter."""
    lo, hi, scale = _level(s, t)
    return Fraction(max(h - v for v, h in zip(lo, hi)), scale)


def _shifted_pair(s: AdmissibleSystem, a: Word, b: Word, i: int):
    return (interval_of_word(s, word_add(a, i)),
            interval_of_word(s, word_add(b, i)))


def dist_m_words(s: AdmissibleSystem, a: Word, b: Word, m: int) -> Fraction:
    """max over i < m of dist(K_{a+i}, K_{b+i}); m is capped at p_t."""
    if len(a) != len(b):
        raise ValueError("words must share their length")
    steps = min(m, a.group_order)
    return max(interval_dist(*_shifted_pair(s, a, b, i)) for i in range(steps))


def diam_m_words(s: AdmissibleSystem, a: Word, b: Word, m: int) -> Fraction:
    """max over i < m of diam(K_{a+i} u K_{b+i}); m is capped at p_t."""
    if len(a) != len(b):
        raise ValueError("words must share their length")
    steps = min(m, a.group_order)
    return max(union_diam(*_shifted_pair(s, a, b, i)) for i in range(steps))


@dataclass(frozen=True)
class SolenoidalCounts:
    """Depth-t pair counts for one window length, and the enclosure
    [lower, upper] = [N_m°, N_m]/p_t^2 they certify."""

    t: int
    p_t: int
    m: int
    epsilon: Fraction
    n_strict: int
    n_closed: int

    @property
    def lower(self) -> Fraction:
        return Fraction(self.n_closed, self.p_t ** 2)

    @property
    def upper(self) -> Fraction:
        return Fraction(self.n_strict, self.p_t ** 2)

    @property
    def width_bound(self) -> Fraction:
        return Fraction(4 * self.m * (self.p_t - 1), self.p_t ** 2)


def _leaf_tests(lo: Sequence[int], hi: Sequence[int], scale: int,
                eps: Fraction) -> np.ndarray:
    """Rank tests for gap < eps (strict) and hull <= eps (closed) between
    the intervals [lo, hi] / scale, exact for any denominator and interval
    order: rows (lo, x, y, hi) of 2 p_t entries, interval a of test k at
    k p_t + a (k = 0 strict, 1 closed), such that a and b pass iff
    lo_a <= x_b and y_b < hi_a."""
    table = rqa._int_table(lo + hi, scale)
    p, n_values = len(lo), len(table.values)
    rank_lo, rank_hi = table.rank[:p], table.rank[p:]
    # gap < eps  iff  hi_b > lo_a - eps  and  lo_b < hi_a + eps
    near_lo, near_hi = rqa._exact_cuts(table, eps, strict=True)
    strict = (near_lo[rank_lo], rank_hi, rank_lo, near_hi[rank_hi])
    # hull <= eps  iff  lo_b >= hi_a - eps  and  hi_b <= lo_a + eps, and both
    # diameters are <= eps: a wider interval gets the out-of-range rank
    # len(values), which fails either comparison as a or as b
    within_lo, within_hi = rqa._exact_cuts(table, eps, strict=False)
    closed_hi = within_hi[rank_lo]
    wide = rank_hi >= closed_hi
    closed = (np.where(wide, n_values, within_lo[rank_hi]), rank_lo,
              np.where(wide, n_values, rank_hi), closed_hi)
    dtype = np.min_scalar_type(n_values)   # the narrowest type is the fastest
    return np.array([np.concatenate(pair) for pair in zip(strict, closed)], dtype=dtype)


def _walk(leaf: np.ndarray, t: int, steps: int) -> np.ndarray:
    """counts[k, w-1] = #{(a, b) in [0, p_t)^2 : test k of ``leaf`` (see
    :func:`_leaf_tests`) passes for (a + s, b + s) at every shift s < w}.

    A dual-tree walk from the root pair decides whole pairs of subtrees on
    their bounds; at depth t, where each row's min equals its max, every
    shift passes or fails, so no pair is left."""
    # node u at depth d covers the leaves a = u mod 2^d and has the children
    # u and u + 2^d; its bounds are each row's min and max over those leaves
    mins, maxs = [leaf], [leaf]
    for d in range(t - 1, -1, -1):
        h = 1 << d
        lower, upper = (x[0].reshape(4, 2, 2 * h) for x in (mins, maxs))
        mins.insert(0, np.minimum(lower[..., :h], lower[..., h:]).reshape(4, 2 * h))
        maxs.insert(0, np.maximum(upper[..., :h], upper[..., h:]).reshape(4, 2 * h))
    walk_rows = max(1, rqa._BLOCK_ELEMS // (2 * steps))
    shifts = np.arange(steps)[:, None]
    halves = np.array([[0, 1, 0, 1], [0, 0, 1, 1]])   # of the four child pairs
    by_lead = np.zeros(2 * (steps + 1), dtype=np.int64)
    root = np.zeros(2, dtype=np.int64)
    stack = [(0, np.arange(2), root, root)]
    while stack:
        # node pairs (u, v) at depth d under test k; the leaves a + s below u
        # are those below (u + s) mod 2^d, as the odometer carries from the
        # least significant digit
        d, k, u, v = stack.pop()
        nodes = 1 << d
        iu = k * nodes + ((u + shifts) & (nodes - 1))
        iv = k * nodes + ((v + shifts) & (nodes - 1))
        lo_min, hi_min = np.take(mins[d][::3], iu, axis=1)
        lo_max, hi_max = np.take(maxs[d][::3], iu, axis=1)
        x_min, y_min = np.take(mins[d][1:3], iv, axis=1)
        x_max, y_max = np.take(maxs[d][1:3], iv, axis=1)
        # the leading shifts where every leaf pair passes, and the shifts
        # from the first one where none does
        lead = np.logical_and.accumulate((lo_max <= x_min) & (y_max < hi_min)).sum(0)
        tail = np.logical_or.accumulate((lo_min > x_max) | (y_min >= hi_max)).sum(0)
        done = lead + tail == steps
        by_lead += np.bincount(k[done] * (steps + 1) + lead[done],
                               minlength=2 * (steps + 1)) << 2 * (t - d)
        # the four child pairs of each pair left in turn, so k stays sorted
        k, u, v = k[~done], u[~done], v[~done]
        k = np.repeat(k, 4)
        u = (u[:, None] + halves[0] * nodes).ravel()
        v = (v[:, None] + halves[1] * nodes).ravel()
        stack.extend((d + 1, k[i:i + walk_rows], u[i:i + walk_rows], v[i:i + walk_rows])
                     for i in range(0, len(k), walk_rows))
    # a pair decided after P leading passes counts in every window w <= P
    by_lead = by_lead.reshape(2, steps + 1)
    return np.cumsum(by_lead[:, :0:-1], axis=1)[:, ::-1]


def counts_by_window(s: AdmissibleSystem, t: int, epsilon: Number, m_max: int,
                     threads: int = 1) -> list[SolenoidalCounts]:
    """Counts for every window length 1..m_max in one dual-tree walk.

    ``threads`` has no effect: pair counts are serial."""
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if t < 1:
        raise ValueError(f"depth {t} < 1: the enclosure width bound needs p_t >= 2")
    p, limit = 2 ** t, max_pairs_limit()
    if p * p > limit:
        raise ResourceGuardError(
            f"{p}^2 pairs exceed the guard ({limit}); "
            "raise RQA_MAX_PAIRS to override")
    steps = min(m_max, p)
    strict, closed = _walk(_leaf_tests(*_level(s, t), eps), t, steps).tolist()
    # windows beyond p_t repeat the p_t values
    pad = m_max - steps
    return [SolenoidalCounts(t=t, p_t=p, m=m, epsilon=eps, n_strict=ns, n_closed=nc)
            for m, (ns, nc) in enumerate(zip(strict + strict[-1:] * pad,
                                             closed + closed[-1:] * pad), start=1)]


def count_pairs(s: AdmissibleSystem, t: int, m: int, epsilon: Number) -> SolenoidalCounts:
    """N_m / N_m° at depth t (strict < eps vs closed <= eps)."""
    return counts_by_window(s, t, epsilon, m)[-1]


def asymptotic_corr_sum(s: AdmissibleSystem, m: int, epsilon: Number,
                        t_schedule: Sequence[int]) -> tuple[SolenoidalCounts, ...]:
    """The window-m counts at every depth of ``t_schedule``, each checked
    against its certified enclosure width.

    The enclosure [N_m°, N_m]/p_t^2 (``lower``, ``upper``) contains both
    asymptotic correlation sums of any trajectory attracted to the system,
    and its width never exceeds ``width_bound`` = 4m(p_t - 1)/p_t^2, which
    vanishes as t grows.  A wider enclosure is a bug and raises
    AssertionError.
    """
    out = tuple(count_pairs(s, t, m, epsilon) for t in t_schedule)
    for c in out:
        if c.upper - c.lower > c.width_bound:
            raise AssertionError(f"enclosure width exceeds bound at t={c.t}: {c}")
    return out


def symbolic_trajectory(prefix: Word, n: int) -> tuple[Word, ...]:
    """Depth-|prefix| itinerary of a point of the Cantor set below K_prefix.

    The image intervals follow the odometer, so the itinerary of step i is
    simply prefix + i.  (The counts N_m/N_m° depend only on the system, not
    on the particular point; word-level operations here are likewise
    point-free.)
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(word_add(prefix, i) for i in range(n))


def midpoint_trajectory(s: AdmissibleSystem, prefix: Word, n: int) -> list[Fraction]:
    """Numeric positions for the symbolic itinerary (interval midpoints)."""
    return [word_midpoint(s, w) for w in symbolic_trajectory(prefix, n)]


def system_to_json(s: AdmissibleSystem) -> str:
    import json
    if not s.descriptor:
        raise ValueError("system has no serializable descriptor")
    return json.dumps({**s.descriptor, "depth_cap": s.depth_cap})


def write_counts_csv(rows: Sequence[SolenoidalCounts], path) -> None:
    """CSV export (t, p_t, m, epsilon_num, epsilon_den, N_strict, N_closed, lower, upper)."""
    with open(path, "w", newline="") as fh:
        fh.write("t,p_t,m,epsilon_num,epsilon_den,N_strict,N_closed,lower,upper\n")
        for c in rows:
            fh.write(f"{c.t},{c.p_t},{c.m},{c.epsilon.numerator},"
                     f"{c.epsilon.denominator},{c.n_strict},{c.n_closed},"
                     f"{fraction_str(c.lower)},{fraction_str(c.upper)}\n")
