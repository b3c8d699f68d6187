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
scale for every odometer value j, an integer array over one denominator
(int64 while it fits, Python ints otherwise), built from level d - 1 on
first use.  A level costs one ``diam_rule`` call per node: its words come
in ascending odometer value from ``itertools.product`` with each digit
tuple reversed, skip ``Word``'s digit validation (every digit is 0 or 1
by construction), and each width's sign is checked on its integer
numerator over the level's denominator.  The level then checks
admissibility, one integer comparison per parent: the children of K_a lie
inside it and in order iff max K_{a0} < min K_{a1}.  A rule that breaks
either check raises ValueError naming the first depth that shows it.

Node intervals are read through one accessor, :func:`node_bounds`.  Node
u at depth d of a depth-t count covers the leaves a = u mod 2^d, which
lie inside K_u in order: the leftmost, u then zeros (value u), keeps
lo K_u, and the rightmost, u then ones (value u + 2^t - 2^d), keeps
hi K_u.  The accessor returns K_u and these two leaves.  A system whose
rule nests at every depth records it in the private keyword field
``_nests`` (``constructions.build_delahaye`` sets it from its gap
formula).  Below its built levels such a system reads K_u down one path
of nodes, one rule call per node, and each extreme leaf with one more,
since the zeros (ones) below u keep its lo (hi); it keeps what it reads
in ``_nodes``.  Any other system builds and checks level t, and the
accessor reads the leaves from it.  :func:`interval_of_word` is the
accessor at d = t: a cold one walks one path on a system that nests and
builds its word's whole level (at most 2^depth_cap nodes) on any other.
:func:`midpoint_trajectory` reads all of its words with one accessor call.
:func:`max_diam` needs every width, and always builds its level.

Counts come from a dual-tree walk (Gray & Moore, "N-body problems in
statistical learning", 2001).  As the odometer carries from the least
significant digit, the leaves a + s below u are exactly those below
(u + s) mod 2^d.  The walk starts from the root pair and, per pair of
nodes and shift s < m, asks whether every leaf pair under the shifted
nodes passes or none does, on their node bounds alone.  Leaves of distinct
nodes A, B are disjoint and in order, so with lo+ the lo of a node's
rightmost leaf and hi- the hi of its leftmost,

    every leaf pair has gap < eps    iff  max(lo+_B - hi-_A, lo+_A - hi-_B) < eps
    some leaf pair has gap < eps     iff  gap(K_A, K_B) < eps
    every leaf pair has hull <= eps  iff  hull(K_A, K_B) <= eps
    some leaf pair has hull <= eps   iff  hi- of the right node - lo+ of the left <= eps.

Each is one :func:`~rqamaps.intervals.int_interval_test`, the integer
form of the gap and hull tests, on the bounds over their scale against
``ranks.int_threshold``, so every pair is decided exactly, whatever the
denominator.  A node paired with itself is never taken to fail every leaf
pair above depth t.  A pair whose leading all-pass shifts end at an
all-fail shift (or at m) adds 4^(t-d) to each of those windows at once;
any other pair splits into its four child pairs.  At depth t each node is
one leaf, so every pair left is decided there.  The walk's frontier runs
in blocks of about ``ranks.BLOCK_ELEMS`` / 8 entries, so no temporary
grows with p_t^2.  On the Delahaye systems a few dozen node pairs per test
decide all p_t^2 leaf pairs, so a cold count there reads a few dozen
nodes and builds no level.  A resource guard bounds the depth by p_t^2
pairs before any node is read (``ranks.check_pairs``; env RQA_MAX_PAIRS
overrides).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import ranks
from .intervals import CompactInterval, int_interval_test
from .ranks import ResourceGuardError   # re-exported: callers catch it from here
from .rational import Number, as_fraction, fraction_str, positive, scaled


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
    A rule proved to nest at every depth is marked by the private keyword
    field ``_nests``, and its counts then read only the nodes they touch
    (:func:`node_bounds`), with no level to build or check.
    """

    diam_rule: Callable[[Word], Fraction]
    depth_cap: int = 13
    # level d: (lo, hi, scale), K_j = [lo[j], hi[j]] / scale for odometer value j
    _levels: list = field(default_factory=lambda: [(ranks.int_array([0]), ranks.int_array([1]), 1)],
                          init=False, repr=False, compare=False)
    # (d, u) -> (lo, hi, den, digits), K_u = [lo, hi] / den for the word of
    # value u at depth d, for the nodes read below the built levels of a
    # system that nests
    _nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the rule nests at every depth, so no count needs its level built
    _nests: bool = field(default=False, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be >= 1")


def _check_depth(s: AdmissibleSystem, t: int) -> None:
    if not 0 <= t <= s.depth_cap:
        raise ValueError(f"depth {t} outside 0..{s.depth_cap} (the depth cap)")


def _level(s: AdmissibleSystem, t: int) -> tuple[np.ndarray, np.ndarray, int]:
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
        lo, hi = ([v * (new // scale) for v in ends.tolist()] for ends in (lo, hi))
        if min(w) <= 0:
            raise ValueError(f"diameter rule must be positive, got {min(widths)}")
        # child 0 of word j keeps its lo, child 1 (word j + 2^(d-1)) its hi
        lo_1 = [h - x for h, x in zip(hi, w[len(hi):])]
        hi_0 = [v + x for v, x in zip(lo, w)]
        if any(a >= b for a, b in zip(hi_0, lo_1)):
            raise ValueError(f"diameter rule is not admissible at depth {d}: "
                             "children must lie inside their parent, in order")
        levels.append((ranks.int_array(lo + lo_1), ranks.int_array(hi_0 + hi), new))
    return levels[t]


def _descend(s: AdmissibleSystem, above: tuple, digits: tuple[int, ...]) -> tuple:
    """K of the word ``digits`` as (lo, hi, den, digits), K = [lo, hi] / den,
    from ``above``, an ancestor's, when every digit below it is the last
    one: a 1 keeps the ancestor's hi, a 0 its lo.  One rule call."""
    lo, hi, den, _ = above
    w = as_fraction(s.diam_rule(Word._unchecked(digits)))
    scale = lcm(den, w.denominator)
    up, width = scale // den, w.numerator * (scale // w.denominator)
    if digits[-1]:
        return hi * up - width, hi * up, scale, digits
    return lo * up, lo * up + width, scale, digits


def _node(s: AdmissibleSystem, d: int, u: int) -> tuple:
    """K_u as (lo, hi, den, digits) for node u at depth d: from level d when
    it is built, otherwise from its parent's and one rule call, kept in
    ``_nodes``."""
    if d < len(s._levels):
        lo, hi, scale = s._levels[d]
        return int(lo[u]), int(hi[u]), scale, tuple((u >> i) & 1 for i in range(d))
    if (d, u) not in s._nodes:
        parent = _node(s, d - 1, u % (1 << (d - 1)))
        s._nodes[d, u] = _descend(s, parent, parent[3] + (u >> (d - 1),))
    return s._nodes[d, u]


def _leaf(s: AdmissibleSystem, t: int, d: int, one: bool, u: int) -> tuple:
    """K of the rightmost (``one``) or the leftmost leaf at depth t of node
    u at depth d, as (lo, hi, den, digits), kept in ``_nodes``."""
    x = u + ((1 << t) - (1 << d) if one else 0)
    if d == t or (t, x) in s._nodes:
        return _node(s, t, x)
    node = _node(s, d, u)
    s._nodes[t, x] = _descend(s, node, node[3] + (int(one),) * (t - d))
    return s._nodes[t, x]


class NodeBounds(NamedTuple):
    """Bounds of nodes u at depth d of a depth-t count, integers over
    ``scale``: K_u = [lo, hi], its leftmost leaf (u, then zeros) is
    [lo, hi_left] and its rightmost leaf (u, then ones) is [lo_right, hi]."""

    lo: np.ndarray
    hi_left: np.ndarray
    lo_right: np.ndarray
    hi: np.ndarray
    scale: int


def node_bounds(s: AdmissibleSystem, t: int, d: int, nodes) -> NodeBounds:
    """K_u and its two extreme leaves, the words of value u and
    u + 2^t - 2^d at depth t, for every node u of ``nodes`` (an integer
    array of values in [0, 2^d)) at depth d <= t, in the shape of ``nodes``.

    A system that nests (``_nests``) and has not built level t reads each
    K_u down one path of nodes and each leaf with one rule call, and keeps
    what it reads; any other system builds and checks level t, and reads
    them from it."""
    _check_depth(s, t)
    if not 0 <= d <= t:
        raise ValueError(f"node depth {d} outside 0..{t}")
    nodes = np.asarray(nodes, dtype=np.int64)
    # a negative node sets every high bit
    if np.bitwise_or.reduce(nodes, axis=None) >> d:
        raise ValueError(f"a node at depth {d} is outside 0..{(1 << d) - 1}")
    if len(s._levels) > t or not s._nests:
        lo, hi, scale = _level(s, t)
        right = nodes + ((1 << t) - (1 << d))
        return NodeBounds(lo[nodes], hi[nodes], lo[right], hi[right], scale)
    distinct = sorted(set(nodes.ravel().tolist()))
    leaves = [leaf for u in distinct for leaf in (_leaf(s, t, d, False, u), _leaf(s, t, d, True, u))]
    scale = lcm(*{den for _, _, den, _ in leaves})
    # lo, hi_left, lo_right, hi of each distinct node, over scale
    ends = ranks.int_array([end * (scale // den) for lo, hi, den, _ in leaves for end in (lo, hi)])
    index = np.searchsorted(np.array(distinct), nodes)
    return NodeBounds(*ends.reshape(-1, 4).T.take(index, axis=1), scale)


def interval_of_word(s: AdmissibleSystem, a: Word) -> CompactInterval:
    """K_a, exact rational endpoints (:func:`node_bounds` at depth len(a))."""
    b = node_bounds(s, len(a), len(a), [a.to_int()])
    return CompactInterval(Fraction(int(b.lo[0]), b.scale), Fraction(int(b.hi[0]), b.scale))


def max_diam(s: AdmissibleSystem, t: int) -> Fraction:
    """nu_t: the largest depth-t interval diameter."""
    lo, hi, scale = _level(s, t)
    return Fraction(int((hi - lo).max()), scale)


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


def _test(ends: tuple[np.ndarray, np.ndarray], e: int, strict: bool) -> np.ndarray:
    """The test of :func:`~rqamaps.intervals.int_interval_test` between the
    intervals [lo[0], hi[0]] and [lo[1], hi[1]], for ends = (lo, hi)."""
    (lo_a, lo_b), (hi_a, hi_b) = ends
    return int_interval_test(lo_a, hi_a, lo_b, hi_b, e, strict)


def _walk(s: AdmissibleSystem, t: int, steps: int, eps: Fraction) -> np.ndarray:
    """counts[k, w-1] = #{(a, b) in [0, p_t)^2 : the test passes for
    (K_{a+s}, K_{b+s}) at every shift s < w}, where test 0 is gap < eps and
    test 1 hull <= eps.

    A dual-tree walk from the root pair decides whole pairs of subtrees on
    their node bounds (:func:`node_bounds`); at depth t every leaf is its
    own node, whose bounds decide each shift, so no pair is left."""
    # about BLOCK_ELEMS / 8 entries in each of the block's integer arrays
    walk_rows = max(1, ranks.BLOCK_ELEMS // (16 * steps))
    shifts = np.arange(steps)[:, None]
    # weight steps - s at shift s, so that steps less the largest weight
    # among some shifts is the first of them (steps when there is none)
    weight = np.arange(steps, 0, -1, dtype=np.min_scalar_type(steps))[:, None]
    # k, u and v of the four child pairs of (k, u, v), over 2^d
    halves = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1]])[:, None, :]
    by_lead = np.zeros(2 * (steps + 1), dtype=np.int64)
    stack = [(0, np.array([[0, 1], [0, 0], [0, 0]]))]
    while stack:
        # node pairs (u, v) = pairs[1:, i] at depth d under test k =
        # pairs[0, i]; the leaves a + s below u are those below
        # (u + s) mod 2^d, as the odometer carries from the least
        # significant digit
        d, pairs = stack.pop()
        k = pairs[0].astype(bool)
        b = node_bounds(s, t, d, (pairs[1:, None, :] + shifts) & ((1 << d) - 1))
        # every endpoint lies in [0, scale], so a wider threshold tells no
        # pair apart, and these keep int64 differences in range
        e_gap, e_hull = (min(ranks.int_threshold(eps, b.scale, strict), b.scale)
                         for strict in (True, False))
        # every leaf pair passes, or some does, as in the module docstring:
        # a node paired with itself has a negative inner hull, so above
        # depth t some leaf pair is taken to pass
        outer, inner = (b.lo, b.hi), (b.lo_right, b.hi_left)
        every = np.where(k, _test(outer, e_hull, False), _test(inner, e_gap, True))
        some = np.where(k, _test(inner, e_hull, False), _test(outer, e_gap, True))
        # the first shift where not every leaf pair passes, and the first
        # where none does: a pair is decided when they are the same shift
        lead = steps - (~every * weight).max(0)
        done = lead == steps - (~some * weight).max(0)
        by_lead += np.bincount(pairs[0, done] * (steps + 1) + lead[done],
                               minlength=2 * (steps + 1)) << 2 * (t - d)
        if not done.all():
            # the four child pairs of each pair left in turn
            pairs = (pairs[:, ~done, None] + (halves << d)).reshape(3, -1)
            stack.extend((d + 1, pairs[:, i:i + walk_rows])
                         for i in range(0, pairs.shape[1], walk_rows))
    # a pair decided after P leading passes counts in every window w <= P
    by_lead = by_lead.reshape(2, steps + 1)
    return np.cumsum(by_lead[:, :0:-1], axis=1)[:, ::-1]


def counts_by_window(s: AdmissibleSystem, t: int, epsilon: Number, m_max: int,
                     threads: int = 1) -> list[SolenoidalCounts]:
    """Counts for every window length 1..m_max in one dual-tree walk.

    ``threads`` has no effect: pair counts are serial."""
    eps = positive(as_fraction(epsilon))
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if t < 1:
        raise ValueError(f"depth {t} < 1: the enclosure width bound needs p_t >= 2")
    p = 2 ** t
    ranks.check_pairs("a word-pair scan", p)
    steps = min(m_max, p)
    strict, closed = _walk(s, t, steps, eps).tolist()
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
    """Numeric positions for the symbolic itinerary: the midpoints of
    K_{prefix + i} for i < n, read with one :func:`node_bounds` call."""
    if n < 1:
        raise ValueError("need n >= 1")
    t = len(prefix)
    # a prefix past the depth cap raises here, before its node values can
    # leave int64
    _check_depth(s, t)
    b = node_bounds(s, t, t, (prefix.to_int() + np.arange(n)) % (1 << t))
    return [Fraction(lo + hi, 2 * b.scale) for lo, hi in zip(b.lo.tolist(), b.hi.tolist())]


def write_counts_csv(rows: Sequence[SolenoidalCounts], path) -> None:
    """CSV export (t, p_t, m, epsilon_num, epsilon_den, N_strict, N_closed, lower, upper)."""
    with open(path, "w", newline="") as fh:
        fh.write("t,p_t,m,epsilon_num,epsilon_den,N_strict,N_closed,lower,upper\n")
        for c in rows:
            fh.write(f"{c.t},{c.p_t},{c.m},{c.epsilon.numerator},"
                     f"{c.epsilon.denominator},{c.n_strict},{c.n_closed},"
                     f"{fraction_str(c.lower)},{fraction_str(c.upper)}\n")
