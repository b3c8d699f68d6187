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

Node intervals are read through one accessor, :func:`node_bounds`.  Node
u at depth d of a depth-t count covers the leaves a = u mod 2^d, which
lie inside K_u in order: the leftmost, u then zeros (value u), keeps
lo K_u, and the rightmost, u then ones (value u + 2^t - 2^d), keeps
hi K_u.  The accessor returns K_u and these two leaves, with one gather
from the table of depth d, which holds the bounds of every node at that
depth of the count over one scale (int64 while they fit, Python ints
otherwise).  The table is built from that of depth d - 1 on first use and
kept in ``_nodes``: each child keeps one extreme leaf of its parent, since
the zeros (ones) below u keep its lo (hi), and costs one ``diam_rule``
call for its width and one for its other extreme leaf.  The words come in
ascending odometer value from ``itertools.product`` with each digit tuple
reversed, skip ``Word``'s digit validation (every digit is 0 or 1 by
construction), and each width's sign is checked on its integer numerator
over the table's scale.  Each table of depth d >= 1 then checks
admissibility, one integer comparison per parent: the children of K_a lie
inside it and in order iff max K_{a0} < min K_{a1}.  A rule that breaks
either check raises ValueError, the nesting check naming the first depth
that shows it.  The tables of depths 0..d cost 2^(d+2) - 2 calls, and
those of every depth to t cost 2^(t+1) - 2, since the nodes at depth t are
the extreme leaves of depth t - 1 and call no rule.

Every public entry opens with one gate: the depth within ``depth_cap``,
and on a system whose rule is not known to nest the tables of every depth
to t, built and checked once.  A system whose rule nests at every depth
records it in the private keyword field ``_nests``
(``constructions.build_delahaye`` sets it from its gap formula), and its
entries then build only the tables they read; each of those still checks
its own depth, so a wrong certificate raises at the first depth read that
breaks nesting.  The public entries are :func:`node_bounds`,
:func:`counts_by_window` and :func:`max_diam`, which reads the 2^t
depth-t widths, one rule call each, over one integer scale, and checks
that each is positive; :func:`midpoint_trajectory` reads all of its words
with one :func:`node_bounds` call.

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
all-fail shift (or at m) adds 4^(t-d) to each of those windows at once,
in Python ints, exact past 4^32 = 2^64; any other pair splits into its
four child pairs.  At depth t each node is one leaf, so every pair left
is decided there.  The walk's frontier runs in blocks of about
``ranks.BLOCK_ELEMS`` / 8 entries, so no temporary grows with p_t^2.
On the Delahaye systems a few dozen node pairs per test decide all p_t^2
leaf pairs by depth k + 1 at eps = r^-k, so a cold count there reads the
nodes of depths 0..k + 1 alone, 2^(k+3) - 2 rule calls at most.  A
resource guard bounds the depth by p_t^2 pairs before any node is read
(``ranks.check_pairs``; env RQA_MAX_PAIRS overrides).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import inf
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import ranks
from .intervals import int_interval_test
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


@dataclass(frozen=True)
class AdmissibleSystem:
    """Binary nested-interval system driven by a diameter rule.

    ``diam_rule(word)`` fixes the width of K_word; interval placement then
    follows from endpoint sharing: the 0-child keeps the parent's lo, the
    1-child keeps the parent's hi.  The rule is admissible when every width
    is positive and the two children of every word lie inside it in order
    (their widths sum to less than the parent's); each node table checks
    this at its depth as it is built and raises ValueError at the first
    depth that breaks it.  A rule proved to nest at every depth is marked
    by the private keyword field ``_nests``, and its entries then build
    only the tables they read, where any other system builds and checks
    the tables of every depth to t first.
    """

    diam_rule: Callable[[Word], Fraction]
    depth_cap: int = 13
    # (t, d) -> (ends, scale): rows lo, lo_right, hi, hi_left of every node
    # at depth d of a depth-t count, over scale
    _nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the rule nests at every depth, so no entry checks a depth it does not read
    _nests: bool = field(default=False, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be >= 1")


def _gate(s: AdmissibleSystem, t: int) -> None:
    """The check that opens every entry at depth t: t within the depth cap,
    and on a system without ``_nests`` the node tables of every depth to t
    built and checked, 2^(t+1) - 2 rule calls on first use."""
    if not 0 <= t <= s.depth_cap:
        raise ValueError(f"depth {t} outside 0..{s.depth_cap} (the depth cap)")
    if not s._nests:
        _node_table(s, t, t)


def _widths(s: AdmissibleSystem, words: list[tuple[int, ...]], scale: int = 1) -> tuple[list[int], int]:
    """The widths of ``words``, one rule call each, as integers over the lcm
    of ``scale`` and their denominators; a width that is not positive raises
    ValueError.  The words skip ``Word``'s digit validation: every digit is
    0 or 1 by construction."""
    rule, word = s.diam_rule, Word._unchecked
    widths = [as_fraction(rule(word(digits))) for digits in words]
    w, new = scaled(widths, scale)
    if min(w, default=1) <= 0:
        raise ValueError(f"diameter rule must be positive, got {min(widths)}")
    return w, new


def _node_table(s: AdmissibleSystem, t: int, d: int) -> tuple[np.ndarray, int]:
    """The bounds of every node at depth d of a depth-t count, as the rows
    lo, lo_right, hi, hi_left of a (4, 2^d) integer array over one scale,
    built from depth d - 1 and kept in ``_nodes``.

    Child 0 of node j (node j at depth d) keeps its lo and its leftmost
    leaf, child 1 (node j + 2^(d-1)) its hi and its rightmost leaf; each
    child's width and its other extreme leaf's width cost one rule call
    each, 2^(d+1) calls for the depth.  At depth t each child is its own
    leaf, one of its parent's two, so that depth calls no rule.  Each depth
    d >= 1 then checks admissibility, one integer comparison per parent:
    its children lie inside it and in order iff max K_{j0} < min K_{j1}."""
    if (t, d) in s._nodes:
        return s._nodes[t, d]
    if d == 0:
        # the root [0, 1] and its leaves 0^t and 1^t, the root itself at t = 0
        (w_left, w_right), scale = _widths(s, [(0,) * t, (1,) * t]) if t else ((1, 1), 1)
        rows = [0], [scale - w_right], [scale], [w_left]
    else:
        ends, scale = _node_table(s, t, d - 1)
        lo, lo_right, hi, hi_left = ends.tolist()
        if d == t:
            # the children of each parent are its two extreme leaves
            hi_0, lo_1 = hi_left, lo_right
            lo, hi = lo + lo_right, hi_left + hi
            rows = lo, lo, hi, hi
        else:
            # product() counts with its last digit fastest, so reversed
            # tuples run through the words in ascending odometer value
            words = [digits[::-1] for digits in product((0, 1), repeat=d)]
            # the child's width, then the width of its new extreme leaf: the
            # child then ones below a 0-child, then zeros below a 1-child
            tails = (1,) * (t - d), (0,) * (t - d)
            w, new = _widths(s, words + [x + tails[x[-1]] for x in words], scale)
            if new != scale:
                lo, lo_right, hi, hi_left = ([v * (new // scale) for v in row]
                                             for row in (lo, lo_right, hi, hi_left))
            half = len(lo)
            hi_0 = [v + x for v, x in zip(lo, w)]
            lo_1 = [v - x for v, x in zip(hi, w[half:])]
            rows = (lo + lo_1, [v - x for v, x in zip(hi_0, w[2 * half:])] + lo_right,
                    hi_0 + hi, hi_left + [v + x for v, x in zip(lo_1, w[3 * half:])])
            scale = new
        if any(a >= b for a, b in zip(hi_0, lo_1)):
            raise ValueError(f"diameter rule is not admissible at depth {d}: "
                             "children must lie inside their parent, in order")
    s._nodes[t, d] = ranks.int_array(rows), scale
    return s._nodes[t, d]


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
    array of values in [0, 2^d)) at depth d <= t, in the shape of ``nodes``,
    read with one gather from the node table of depth d."""
    _gate(s, t)
    if not 0 <= d <= t:
        raise ValueError(f"node depth {d} outside 0..{t}")
    nodes = np.asarray(nodes)
    if nodes.size and nodes.dtype.kind not in "iu":
        raise ValueError(f"nodes must be integers, got dtype {nodes.dtype}")
    nodes = nodes.astype(np.int64)
    # a negative node sets every high bit
    if np.bitwise_or.reduce(nodes, axis=None) >> d:
        raise ValueError(f"a node at depth {d} is outside 0..{(1 << d) - 1}")
    ends, scale = _node_table(s, t, d)
    lo, lo_right, hi, hi_left = ends.take(nodes, axis=1)
    return NodeBounds(lo, hi_left, lo_right, hi, scale)


def max_diam(s: AdmissibleSystem, t: int) -> Fraction:
    """nu_t: the largest depth-t interval diameter, from the 2^t widths of
    depth t, one rule call each, over one integer scale."""
    _gate(s, t)
    # every word of depth t, in any order, as only the widest counts; the
    # root, at depth 0, is [0, 1]
    w, scale = _widths(s, list(product((0, 1), repeat=t))) if t else ([1], 1)
    return Fraction(max(w), scale)


@dataclass(frozen=True)
class SolenoidalCounts:
    """Depth-t pair counts for one window length, and the enclosure
    [lower, upper] = [N_m°, N_m]/p_t^2 they certify."""

    t: int
    p_t: int
    m: int
    epsilon: Fraction   # or math.inf
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


def _walk(s: AdmissibleSystem, t: int, steps: int, eps: Number) -> np.ndarray:
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
    # by_depth[d, k (steps + 1) + P]: the pairs of depth d under test k
    # decided after P leading passes, each standing for 4^(t-d) leaf pairs
    by_depth = np.zeros((t + 1, 2 * (steps + 1)), dtype=np.int64)
    finite = eps != inf
    stack = [(0, np.array([[0, 1], [0, 0], [0, 0]]))]
    while stack:
        # node pairs (u, v) = pairs[1:, i] at depth d under test k =
        # pairs[0, i]; the leaves a + s below u are those below
        # (u + s) mod 2^d, as the odometer carries from the least
        # significant digit
        d, pairs = stack.pop()
        table, scale = _node_table(s, t, d)
        ends = table.take((pairs[1:, None, :] + shifts) & ((1 << d) - 1), axis=1)
        # every endpoint lies in [0, scale], so a wider threshold, an
        # infinite one included, tells no pair apart, and these keep int64
        # differences in range
        e_gap, e_hull = (min(ranks.int_threshold(eps, scale, strict), scale) if finite else scale
                         for strict in (True, False))
        # the lo and hi of the outer (K_u) and inner ([lo_right, hi_left])
        # intervals of node u, then of node v; every leaf pair passes, or
        # some does, as in the module docstring: a node paired with itself
        # has a negative inner hull, so above depth t some leaf pair is
        # taken to pass
        (lo_a, lo_b), (hi_a, hi_b) = ends[:2].swapaxes(0, 1), ends[2:].swapaxes(0, 1)
        hull = int_interval_test(lo_a, hi_a, lo_b, hi_b, e_hull, False)
        gap = int_interval_test(lo_a, hi_a, lo_b, hi_b, e_gap, True)
        # [every, some]: the outer and inner hulls under test 1, the inner
        # and outer gaps under test 0
        passes = np.where(pairs[0] == 1, hull, gap[::-1])
        # the first shift where not every leaf pair passes, and the first
        # where none does: a pair is decided when they are the same shift
        lead, fail = steps - (~passes * weight).max(1)
        done = lead == fail
        by_depth[d] += np.bincount((pairs[0] * (steps + 1) + lead)[done],
                                   minlength=2 * (steps + 1))
        if not done.all():
            # the four child pairs of each pair left in turn
            pairs = (pairs[:, ~done, None] + (halves << d)).reshape(3, -1)
            stack.extend((d + 1, pairs[:, i:i + walk_rows])
                         for i in range(0, pairs.shape[1], walk_rows))
    # in Python ints, as a count reaches 4^t, past int64 from t = 32; a
    # pair decided after P leading passes counts in every window w <= P
    by_lead = (by_depth.astype(object) * 4 ** np.arange(t, -1, -1, dtype=object)[:, None]).sum(0)
    by_lead = by_lead.reshape(2, steps + 1)
    return np.cumsum(by_lead[:, :0:-1], axis=1)[:, ::-1]


def counts_by_window(s: AdmissibleSystem, t: int, epsilon: Number, m_max: int,
                     threads: int = 1) -> list[SolenoidalCounts]:
    """Counts for every window length 1..m_max in one dual-tree walk.
    Counts are Python ints, exact at any depth; an infinite epsilon passes
    every word pair, so N_m = N_m° = p_t^2.

    ``threads`` has no effect: pair counts are serial."""
    eps = positive(epsilon if epsilon == inf else as_fraction(epsilon))
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if t < 1:
        raise ValueError(f"depth {t} < 1: the enclosure width bound needs p_t >= 2")
    p = 2 ** t
    ranks.check_pairs("a word-pair scan", p)
    _gate(s, t)
    steps = min(m_max, p)
    strict, closed = _walk(s, t, steps, eps).tolist()
    # windows beyond p_t repeat the p_t values
    pad = m_max - steps
    return [SolenoidalCounts(t=t, p_t=p, m=m, epsilon=eps, n_strict=ns, n_closed=nc)
            for m, (ns, nc) in enumerate(zip(strict + strict[-1:] * pad,
                                             closed + closed[-1:] * pad), start=1)]


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
    out = tuple(counts_by_window(s, t, epsilon, m)[m - 1] for t in t_schedule)
    for c in out:
        if c.upper - c.lower > c.width_bound:
            raise AssertionError(f"enclosure width exceeds bound at t={c.t}: {c}")
    return out


def midpoint_trajectory(s: AdmissibleSystem, prefix: Word, n: int) -> list[Fraction]:
    """Numeric positions for the symbolic itinerary: the midpoints of
    K_{prefix + i} for i < n, read with one :func:`node_bounds` call."""
    if n < 1:
        raise ValueError("need n >= 1")
    t = len(prefix)
    # a prefix past the depth cap raises here, before its node values can
    # leave int64
    _gate(s, t)
    b = node_bounds(s, t, t, (prefix.to_int() + np.arange(n)) % (1 << t))
    return [Fraction(lo + hi, 2 * b.scale) for lo, hi in zip(b.lo.tolist(), b.hi.tolist())]


def write_counts_csv(rows: Sequence[SolenoidalCounts], path) -> None:
    """CSV export (t, p_t, m, epsilon_num, epsilon_den, N_strict, N_closed,
    lower, upper); an infinite threshold is written as inf over 1."""
    with open(path, "w", newline="") as fh:
        fh.write("t,p_t,m,epsilon_num,epsilon_den,N_strict,N_closed,lower,upper\n")
        for c in rows:
            num, den = ("inf", 1) if c.epsilon == inf else c.epsilon.as_integer_ratio()
            fh.write(f"{c.t},{c.p_t},{c.m},{num},{den},{c.n_strict},{c.n_closed},"
                     f"{fraction_str(c.lower)},{fraction_str(c.upper)}\n")
