import random
from fractions import Fraction

import pytest

from rqamaps import PiecewiseLinearMap, build_delahaye, build_prop42
from rqamaps.dynamics import PeriodicStructure

# The test pools fall on either side of this common denominator: well below
# it, points in [0, 1] and their cuts stay in int64; far above it, the
# scaled points themselves leave int64.  The code does not switch at this
# value: the rank table is int64 while its values fit, and a cut while
# max|v| + e < 2^63 (the int64 boundary tests sit on that edge).
INT64_SCALE_LIMIT = 2 ** 62

# The int64 edge of the exact rank cuts.  Over S = 2^62 the point 1 plus the
# closed cut is exactly 2^63 at eps = 1 and 2^63 - 1 at eps = 1 - 2^-62, and
# plus the strict cut it is 2^63 at eps = 1 + 2^-62; over S = 2^63 the
# point 1 itself leaves int64.
EDGE_SCALES = (2 ** 62, 2 ** 63)
EDGE_EPS = (1 - Fraction(1, 2 ** 62), Fraction(1), 1 + Fraction(1, 2 ** 62))


def edge_points(scale: int) -> tuple[Fraction, ...]:
    """Distinct points of [0, 1], 0 and 1 among them, over exactly ``scale``."""
    return (Fraction(0), Fraction(1, scale), Fraction(1, 2),
            Fraction(scale - 1, scale), Fraction(1))


@pytest.fixture(scope="session")
def plateau_map():
    """Superattracting 3-cycle 1/5 -> 1/2 -> 4/5: plateaus around each orbit
    point send nearby starts exactly onto the cycle."""
    return PiecewiseLinearMap.of(
        [0, "1/4", "9/20", "11/20", "3/4", "17/20", 1],
        ["1/2", "1/2", "4/5", "4/5", "1/5", "1/5", "1/5"])


@pytest.fixture(scope="session")
def contracting_two_cycle_map():
    """2-cycle {1/4, 3/4} attracting with one-sided slopes -1/2."""
    return PiecewiseLinearMap.of(
        [0, "1/4", "3/4", 1], ["7/8", "3/4", "1/4", "1/8"])


@pytest.fixture(scope="session")
def prop42_small():
    return build_prop42(6)


@pytest.fixture(scope="session")
def delahaye5():
    return build_delahaye(5)


def random_pl_map(rnd: random.Random, max_den: int = 32) -> PiecewiseLinearMap:
    """Random exact-rational PL self-map of [0, 1]."""
    k = rnd.randint(0, 3)
    interior = sorted({Fraction(rnd.randint(1, max_den - 1), max_den)
                       for _ in range(k)})
    bps = [Fraction(0), *interior, Fraction(1)]
    vals = [Fraction(rnd.randint(0, max_den), max_den) for _ in bps]
    return PiecewiseLinearMap(tuple(bps), tuple(vals))


def cycle_map(rnd, k, p):
    """A map whose orbit from its first point y_0 lands on a p-cycle at step
    k: y_0 -> y_1 -> ... -> y_{k+p-1} -> y_k, each y_i on a plateau sent to
    its successor, with ramps between the plateaus."""
    count = k + p
    ys = [Fraction(2 * i + 1, 2 * count) for i in rnd.sample(range(count), count)]
    succ = {y: ys[i + 1] if i + 1 < count else ys[k] for i, y in enumerate(ys)}
    half = Fraction(1, 8 * count)
    bps, vals = [Fraction(0)], [succ[min(ys)]]
    for y in sorted(ys):
        bps += [y - half, y + half]
        vals += [succ[y], succ[y]]
    bps.append(Fraction(1))
    vals.append(succ[max(ys)])
    return PiecewiseLinearMap(tuple(bps), tuple(vals)), ys[0]


def residual_detect(t, tol):
    """Reference: the residual loop |x_{i+p} - x_i| <= tol for every tol."""
    pts, n = t.points, len(t.points)
    for p in range(1, n // 2 + 1):
        k = n - p
        for i in range(n - p - 1, -1, -1):
            if abs(pts[i + p] - pts[i]) <= tol:
                k = i
            else:
                break
        if k + 2 * p <= n:
            return PeriodicStructure(k, p, tuple(pts[k:k + p]))
    return None


def assert_lasso_holds(t):
    """t's lasso (k, p) describes its points: the first k + p pairwise
    distinct, and every later point equal to point k + (i - k) mod p."""
    k, p = t._lasso
    pts = t.points
    assert len(set(pts[:k + p])) == min(len(pts), k + p)
    assert all(pts[i] == pts[k + (i - k) % p] for i in range(k, len(pts)))
