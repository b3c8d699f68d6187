import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rqamaps.intervals import (CompactInterval, Configuration, epsilon_pairs,
                               extremal_configuration, interval_dist, union_diam,
                               zero_configuration)

IV = CompactInterval.exact


def brute_pairs(config, eps):
    """Oracle: scan all index pairs with raw endpoint arithmetic only."""
    ivs = config.intervals
    found = set()
    for a, ja in enumerate(ivs, start=1):
        for b, jb in enumerate(ivs, start=1):
            gap = max(0 * eps, jb.lo - ja.hi, ja.lo - jb.hi)
            hull = max(ja.hi, jb.hi) - min(ja.lo, jb.lo)
            if gap < eps < hull:
                found.add((a, b))
    return found


class TestDistDiam:
    def test_gap(self):
        assert interval_dist(IV(0, "1/5"), IV("3/5", 1)) == F(2, 5)

    def test_overlap_is_zero(self):
        assert interval_dist(IV(0, "1/2"), IV("3/10", "4/5")) == 0

    def test_sibling_gap(self):
        assert interval_dist(IV(0, "1/25"), IV("4/25", "1/5")) == F(3, 25)

    def test_symmetry(self):
        a, b = IV(0, "1/4"), IV("1/2", 1)
        assert interval_dist(a, b) == interval_dist(b, a)

    def test_union_diam_endpoints(self):
        assert union_diam(IV(0, "1/25"), IV("4/25", "1/5")) == F(1, 5)

    def test_union_diam_self(self):
        j = IV("1/8", "3/8")
        assert union_diam(j, j) == j.diam

    def test_union_diam_hull(self):
        assert union_diam(IV(0, "1/5"), IV("3/5", 1)) == 1

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            CompactInterval(F(1, 2), F(1, 4))

    def test_degenerate_allowed(self):
        assert IV("1/3", "1/3").diam == 0


class TestConfiguration:
    def test_requires_strict_order(self):
        with pytest.raises(ValueError):
            Configuration((IV(0, "1/2"), IV("1/2", 1)))  # touching endpoints

    def test_one_based_indexing(self):
        c = Configuration.of([(0, "1/4"), ("1/2", 1)])
        assert c[1].lo == 0 and c[2].hi == 1
        with pytest.raises(IndexError):
            c[0]

    def test_json_round_trip(self):
        c = Configuration.of([(0, "1/3"), ("1/2", "2/3")])
        again = Configuration.from_json(c.to_json())
        assert again == c
        assert json.loads(c.to_json()) == [["0", "1/3"], ["1/2", "2/3"]]

    @pytest.mark.parametrize("text", ['["01", "23"]', '[[0, 1], "23"]', '[[0, 1, 2]]',
                                      '[[0]]', '{"0": [0, 1]}', '"01"'])
    def test_json_needs_an_array_of_pairs(self, text):
        # strings and objects are iterable, but no configuration file holds them
        with pytest.raises(ValueError, match="malformed configuration JSON"):
            Configuration.from_json(text)

    def test_of_stays_lenient(self):
        # library callers may pass any iterable of pairs
        assert Configuration.of(["01", "23"]) == Configuration.of([(0, 1), (2, 3)])


# endpoints are ordered by cross-multiplying as_integer_ratio(), exact for
# int, bool, float and Fraction alike; Python's own mixed comparisons are
# exact too, so they are the oracle
ENDPOINTS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.booleans(),
                      st.floats(-2.0 ** 70, 2.0 ** 70), st.fractions())


@settings(max_examples=300, deadline=None)
@given(ENDPOINTS, ENDPOINTS)
@example(0.1, F(1, 10))                     # 0.1 lies just above 1/10
@example(2 ** 60 + 1, float(2 ** 60))       # past float precision
@example(True, 1)
def test_endpoint_order_is_exact_across_types(x, y):
    if x > y:
        with pytest.raises(ValueError, match="invalid interval"):
            CompactInterval(x, y)
    else:
        assert CompactInterval(x, y).hi is y
    ordered = [CompactInterval(x, x), CompactInterval(y, y)]
    if x < y:
        assert Configuration(tuple(ordered)).intervals == tuple(ordered)
    else:
        with pytest.raises(ValueError, match="not strictly ordered"):
            Configuration(tuple(ordered))


@pytest.mark.parametrize("lo, hi", [(np.int64(0), np.int64(1)), (0, np.int64(1)),
                                    (np.int32(0), F(1)), ("0", "1")])
def test_endpoint_without_integer_ratio_is_refused(lo, hi):
    # numpy integer scalars have no as_integer_ratio; as_fraction refuses them too
    with pytest.raises(TypeError, match="as exact rationals"):
        CompactInterval(lo, hi)


class TestEpsilonPairs:
    def test_single_small_interval_empty(self):
        c = Configuration.of([(0, "3/10")])
        assert len(epsilon_pairs(c, F(1, 2))) == 0

    def test_single_wide_interval_diagonal(self):
        c = Configuration.of([(0, "4/5")])
        assert epsilon_pairs(c, F(1, 2)).pairs == frozenset({(1, 1)})

    def test_diagonal_tie_excluded(self):
        c = Configuration.of([(0, "1/2")])
        assert len(epsilon_pairs(c, F(1, 2))) == 0

    def test_extremal_two_intervals(self):
        c = extremal_configuration(2, F(1, 2))
        got = epsilon_pairs(c, F(1, 2))
        assert got.pairs == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
        assert got.pairs == frozenset(brute_pairs(c, F(1, 2)))

    def test_matches_brute_oracle(self):
        rnd = random.Random(7)
        for _ in range(50):
            n = rnd.randint(1, 12)
            c = _random_config(rnd, n)
            eps = F(rnd.randint(1, 40), 20)
            assert epsilon_pairs(c, eps).pairs == frozenset(brute_pairs(c, eps))

    def test_rejects_nonpositive_epsilon(self):
        c = Configuration.of([(0, 1)])
        with pytest.raises(ValueError):
            epsilon_pairs(c, 0)

    def test_rejects_nan_epsilon(self):
        c = Configuration.of([(0, 1)])
        with pytest.raises(ValueError, match="epsilon must be positive"):
            epsilon_pairs(c, float("nan"))

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, math.nan),
                                       (np.float32(0), np.float32(math.inf)),
                                       (np.float32(math.nan), np.float32(1))])
    def test_rejects_non_finite_endpoint(self, lo, hi):
        with pytest.raises(ValueError, match="float points must be finite"):
            CompactInterval(lo, hi)

    def test_infinite_epsilon_passes_every_gap_and_no_hull(self):
        c = _random_config(random.Random(3), 6)
        assert not brute_pairs(c, math.inf)
        assert epsilon_pairs(c, math.inf).pairs == frozenset()


def _random_config(rnd, n, exact=True):
    ivs, x = [], F(rnd.randint(0, 8), 8)
    for _ in range(n):
        width = F(rnd.randint(0, 16), 16)
        ivs.append(CompactInterval(x, x + width))
        x = x + width + F(rnd.randint(1, 16), 16)
    return Configuration(tuple(ivs))


class TestExtremal:
    @pytest.mark.parametrize("n,eps,expected",
                             [(2, F(1, 2), 4), (3, F(1, 2), 8), (10, F(1), 36)])
    def test_attains_bound(self, n, eps, expected):
        c = extremal_configuration(n, eps)
        assert len(epsilon_pairs(c, eps)) == expected == 4 * (n - 1)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            extremal_configuration(1, F(1, 2))

    def test_deterministic(self):
        assert extremal_configuration(5, F(1, 3)) == extremal_configuration(5, F(1, 3))

    def test_matches_fraction_layout(self):
        for n in range(2, 301):
            eps = F(3, 10) if n % 2 else F(7)
            assert_extremal_layout(n, eps)


def fraction_extremal(n, eps):
    """Oracle: the extremal layout in Fraction arithmetic, one operation at a
    time."""
    delta = eps / 10
    first = CompactInterval(F(0), eps + delta)
    last = CompactInterval(2 * eps, 3 * eps + delta)
    m, interior = n - 2, []
    if m:
        unit = (eps - delta) / (2 * m + 1)
        for i in range(1, m + 1):
            lo = first.hi + (2 * i - 1) * unit
            interior.append(CompactInterval(lo, lo + unit))
    return Configuration((first, *interior, last))


def assert_extremal_layout(n, eps):
    c = extremal_configuration(n, eps)
    assert c == fraction_extremal(n, eps)
    assert all(type(x) is F for iv in c.intervals for x in (iv.lo, iv.hi))
    assert len(epsilon_pairs(c, eps)) == 4 * (n - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40),
       st.one_of(st.integers(1, 10 ** 6).map(F),
                 st.fractions(min_value=F(1, 10 ** 6), max_value=10 ** 6).filter(lambda e: e > 0),
                 st.tuples(st.integers(1, 2 ** 70), st.integers(2 ** 64 + 1, 2 ** 80)).map(
                     lambda ab: F(*ab))))
@example(300, F(5))
@example(300, F(3 ** 41, 2 ** 64 + 13))
def test_extremal_matches_fraction_layout(n, eps):
    # integer eps, and eps with denominators past 2^64 among them
    assert_extremal_layout(n, eps)


class TestZero:
    @pytest.mark.parametrize("n,eps", [(1, F(1, 2)), (5, F(1, 10)), (50, F(1, 100))])
    def test_empty_pair_set(self, n, eps):
        c = zero_configuration(n, eps)
        assert len(c) == n
        assert not brute_pairs(c, eps)
        assert len(epsilon_pairs(c, eps)) == 0


# structural properties of the pair set, checked on random configurations

def _check_swap(pairs):
    return all((b, a) in pairs for a, b in pairs)


def _check_betweenness(pairs, n):
    # upper rows {b >= a : (a,b) in pairs} and left columns must be contiguous
    for a in range(1, n + 1):
        row = sorted(b for (x, b) in pairs if x == a and b >= a)
        if row and row != list(range(row[0], row[-1] + 1)):
            return False
        col = sorted(x for (x, d) in pairs if d == a and x <= a)
        if col and col != list(range(col[0], col[-1] + 1)):
            return False
    return True


def _check_exclusion(pairs):
    # no pair strictly enclosed by another pair
    upper = [(a, b) for a, b in pairs if a <= b]
    for a, d in upper:
        for b, c in upper:
            if a < b and c < d:
                return False
    return True


@given(st.integers(0, 10 ** 6))
def test_pair_set_properties(seed):
    rnd = random.Random(seed)
    n = rnd.randint(2, 12)
    c = _random_config(rnd, n)
    eps = F(rnd.randint(1, 60), 24)
    pairs = epsilon_pairs(c, eps).pairs
    assert len(pairs) <= 4 * (n - 1)
    assert _check_swap(pairs)
    assert _check_betweenness(pairs, n)
    assert _check_exclusion(pairs)


def _tie_case(rnd, kind):
    """A configuration of 1 to 16 intervals, degenerate ones included, on a
    grid of 1/10 (of 1/10 + 1/(2^64 + 13), a scale beyond 2^63, when
    ``kind`` is "big"), its intervals floats, Fractions or a mix of both,
    and an eps at a gap, hull or width of the configuration or one float
    ulp beside it.  Returns the configuration, eps and the configuration in the
    arithmetic that decides it, every endpoint a float when one is."""
    unit = F(1, 10) + (F(1, 2 ** 64 + 13) if kind == "big" else 0)
    ends, x = [], unit * rnd.randint(-40, 8)
    for _ in range(rnd.randint(1, 16)):
        width = unit * rnd.randint(0, 16)
        ends += [x, x + width]
        x += width + unit * rnd.randint(1, 16)
    if kind in ("float", "fraction eps"):
        ends = [float(v) for v in ends]
    elif kind == "mixed":
        # per interval, so that each one stays an interval
        ends = [v for i in range(0, len(ends), 2) for v in
                (map(float, ends[i:i + 2]) if rnd.random() < 0.5 else ends[i:i + 2])]
    # a low and a high: a gap, a hull or a width
    a, b = rnd.choice(ends[::2]), rnd.choice(ends[1::2])
    eps = abs(a - b) or unit
    if kind == "float":
        eps = rnd.choice([eps, math.nextafter(eps, 0), math.nextafter(eps, math.inf)])
    elif kind == "fraction eps":
        eps = rnd.choice([F(eps), abs(F(a) - F(b)) or unit, F(eps) + F(1, 10 ** 30)])

    def config(values):
        return Configuration(tuple(CompactInterval(*values[i:i + 2])
                                   for i in range(0, len(values), 2)))
    floats = any(isinstance(v, float) for v in ends)
    return config(ends), eps, config([float(v) for v in ends] if floats else ends)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["exact", "big", "float", "fraction eps",
                                                   "mixed"]))
def test_epsilon_pairs_matches_brute_oracle_at_ties(seed, kind):
    c, eps, decided = _tie_case(random.Random(seed), kind)
    assert epsilon_pairs(c, eps).pairs == frozenset(brute_pairs(decided, eps))


@pytest.mark.parametrize("n", [2, 50, 400])
def test_epsilon_pairs_metric_calls_linear(n):
    # the extremal layout makes every row of a quadratic scan run to the end
    eps = F(1, 3)
    assert len(epsilon_pairs(extremal_configuration(n, eps), eps)) == 4 * (n - 1)


@given(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
def test_euclidean_metric_is_order_preserving(triple):
    # exact rational evaluation: every float is a rational, so the strict
    # outer-pair dominance holds with no rounding caveats
    x, y, z = sorted(F(v) for v in triple)
    if x < y < z:
        assert max(abs(x - y), abs(y - z)) < abs(x - z)
