import math
import random
import struct
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rqamaps.constructions import build_prop42, prop42_numeric_map
from rqamaps.dynamics import (PeriodicStructure, PiecewiseLinearMap, Trajectory,
                              detect_periodic, evaluate, iterate)

from conftest import assert_lasso_holds, cycle_map, random_pl_map, residual_detect

IDENTITY = PiecewiseLinearMap.of([0, 1], [0, 1])
TENT = PiecewiseLinearMap.of([0, "1/2", 1], [0, 1, 0])
SWAP = PiecewiseLinearMap.of([0, "1/4", "3/4", 1], [1, "3/4", "1/4", 0])


class TestEvaluate:
    def test_identity(self):
        assert evaluate(IDENTITY, F(3, 10)) == F(3, 10)

    def test_tent_interpolation(self):
        assert evaluate(TENT, F(1, 4)) == F(1, 2)

    def test_breakpoint_values_exact(self):
        assert evaluate(TENT, F(1, 2)) == 1
        assert evaluate(TENT, 1) == 0

    def test_float_mode(self):
        assert evaluate(TENT, 0.25) == 0.5

    def test_domain_error(self):
        with pytest.raises(ValueError):
            evaluate(TENT, F(3, 2))
        with pytest.raises(ValueError):
            evaluate(TENT, -0.1)

    def test_truncated_construction_endpoints(self):
        # increasing branch [x_1, y_1] -> [x_2, y_0]: both endpoint images
        inst = build_prop42(3)
        f = prop42_numeric_map(inst)
        assert evaluate(f, inst.positions[1]) == inst.positions[2]
        assert evaluate(f, F(3, 4)) == F(1, 4)

    def test_monotone_on_cells(self):
        rnd = random.Random(3)
        for _ in range(20):
            f = random_pl_map(rnd)
            for (b0, b1), (v0, v1) in zip(zip(f.breakpoints, f.breakpoints[1:]),
                                          zip(f.values, f.values[1:])):
                xs = [b0 + (b1 - b0) * F(i, 4) for i in range(5)]
                ys = [evaluate(f, x) for x in xs]
                assert all(0 <= y <= 1 for y in ys)
                if v0 <= v1:
                    assert all(a <= b for a, b in zip(ys, ys[1:]))
                else:
                    assert all(a >= b for a, b in zip(ys, ys[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMap.of([0, "1/2"], [0, 1])  # must end at 1
        with pytest.raises(ValueError):
            PiecewiseLinearMap.of([0, 1], [0, 2])  # value outside [0,1]


class TestIterate:
    def test_identity_constant(self):
        assert iterate(IDENTITY, F(3, 10), 4).points == (F(3, 10),) * 4

    def test_fixed_point(self):
        f = PiecewiseLinearMap.of([0, "1/2", 1], ["1/2", "1/2", "1/2"])
        assert iterate(f, F(1, 2), 3).points == (F(1, 2),) * 3

    def test_two_cycle(self):
        t = iterate(SWAP, F(1, 4), 4)
        assert t.points == (F(1, 4), F(3, 4), F(1, 4), F(3, 4))

    def test_extension(self):
        rnd = random.Random(11)
        f = random_pl_map(rnd)
        t8, t9 = iterate(f, F(1, 3), 8), iterate(f, F(1, 3), 9)
        assert t9.points[:8] == t8.points
        assert t9.points[8] == evaluate(f, t8.points[7])

    def test_requires_positive_length(self):
        with pytest.raises(ValueError):
            iterate(IDENTITY, F(0), 0)

    def test_shifted(self):
        t = iterate(SWAP, F(1, 4), 6)
        assert t.shifted(1).points == t.points[1:]
        assert t.shifted(1).base == F(3, 4)
        assert t._lasso == t.shifted(1)._lasso == (0, 2)


@pytest.mark.parametrize("k, p", [(0, 1), (1, 4), (4, 3), (9, 2)])
def test_shifted_lasso(k, p):
    # shifts before, at and past the preperiod, down to a single point
    f, y0 = cycle_map(random.Random(k + p), k, p)
    t = iterate(f, y0, 40)
    assert t._lasso == (k, p)
    for h in sorted({0, k - 1, k, k + 1, k + p, 39} - {-1}):
        s = t.shifted(h)
        assert s.points == t.points[h:]
        assert s._lasso == (max(0, k - h), p)
        assert_lasso_holds(s)
        assert detect_periodic(s, 0) == residual_detect(s, 0)


def oracle_orbit(f, x, n):
    """Reference: every step evaluated in full, by linear interpolation
    between breakpoints, in the seed's arithmetic."""
    if n < 1:
        raise ValueError("trajectory length must be >= 1")
    if isinstance(x, float):
        bps, vals = [float(b) for b in f.breakpoints], [float(v) for v in f.values]
    else:
        x = F(x)
        bps, vals = f.breakpoints, f.values
    pts = [x]
    for _ in range(n - 1):
        if not bps[0] <= x <= bps[-1]:
            raise ValueError(f"point {x} outside map domain [0, 1]")
        i = bisect_right(bps, x) - 1
        if i == len(bps) - 1:   # x == 1
            x = vals[-1]
        else:
            x0, x1, v0, v1 = bps[i], bps[i + 1], vals[i], vals[i + 1]
            x = v0 if v0 == v1 else v0 + (x - x0) * (v1 - v0) / (x1 - x0)
        pts.append(x)
    return pts


def bits(v):
    """A point as its type and value, floats by their bits (so -0.0 != 0.0)."""
    return (type(v), struct.pack("d", v) if isinstance(v, float) else v)


def outcome(run, *args):
    try:
        return [bits(v) for v in run(*args)]
    except ValueError as exc:
        return str(exc)


def assert_matches_oracle(f, x, n):
    got = outcome(lambda *a: iterate(*a).points, f, x, n)
    assert got == outcome(oracle_orbit, f, x, n)
    if isinstance(got, list):
        t = iterate(f, x, n)
        assert [bits(evaluate(f, p)) for p in t.points[:-1]] == got[1:]
        if t._lasso is not None:
            assert_lasso_holds(t)


# lengths just below, at and just past each index where the checkpoint moves
BRENT_LENGTHS = sorted({2 ** i + d for i in range(8) for d in (-1, 0, 1, 2)} - {0})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(BRENT_LENGTHS))
def test_iterate_matches_oracle_on_random_maps(seed, n):
    rnd = random.Random(seed)
    f = random_pl_map(rnd)
    for x in (F(rnd.randint(0, 32), 32), rnd.random(), 0, 1, 0.0, -0.0, 1.0):
        assert_matches_oracle(f, x, n)
        assert_matches_oracle(f, x, rnd.choice((1, 2)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 40), st.integers(1, 6),
       st.sampled_from(BRENT_LENGTHS))
def test_iterate_matches_oracle_on_cycles(seed, k, p, n):
    f, y0 = cycle_map(random.Random(seed), k, p)
    orbit = oracle_orbit(f, y0, k + 2 * p)
    assert len(set(orbit[:k + p])) == k + p and orbit[k + p:] == orbit[k:k + p]
    # a seed on the plateau of y_0 with a denominator above 2^62 joins the
    # same orbit at step 1
    big = y0 + F(1, 2 ** 70 + 1)
    assert big.denominator > 2 ** 62
    for x in (y0, float(y0), big):
        for length in (n, k + p, k + p + 1, k + 2 * p, 2 * (k + p) + p):
            assert_matches_oracle(f, x, length)
        # a repeat fixes the lasso: big is off the cycle, and lands on y_1
        assert iterate(f, x, 2 * max(k, p) + p + 1)._lasso == \
            ((max(k, 1) if x is big else k), p)
    # the orbit stops being evaluated by step 2 max(k, p) + p
    steps, step = [], f._step(True)
    f._step_cache[True] = lambda x: steps.append(x) or step(x)
    assert iterate(f, y0, 10 ** 4).points == tuple(orbit[:k + p]) + \
        tuple(orbit[k + (i % p)] for i in range(10 ** 4 - k - p))
    assert len(steps) <= 2 * max(k, p) + p


def test_iterate_matches_oracle_beyond_int64_denominators():
    # slopes +-1/2 around the fixed point 2/3: every step doubles the
    # distance's denominator, and the orbit never repeats exactly
    f = PiecewiseLinearMap.of([0, "1/2", 1], ["1/2", "3/4", "1/2"])
    for x in (F(1, 5), F(5, 7), F(1, 3 ** 40)):
        pts = iterate(f, x, 90).points
        assert pts[-1].denominator > 2 ** 62
        assert_matches_oracle(f, x, 90)


# breakpoint denominators without a common factor, so that the integer
# piece search p L // q rounds down next to every inner breakpoint
COPRIME_DENS = (3, 7, 2 ** 33 + 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_piece_search_at_breakpoints(seed):
    rnd = random.Random(seed)
    inner = sorted({F(rnd.randint(1, d - 1), d) for d in COPRIME_DENS for _ in range(2)})
    bps = [F(0), *sorted(rnd.sample(inner, rnd.randint(1, len(inner)))), F(1)]
    vals = [F(rnd.randint(0, d), d) for d in (rnd.choice(COPRIME_DENS) for _ in bps)]
    for i in range(1, len(vals)):   # some plateaus
        if rnd.random() < 0.3:
            vals[i] = vals[i - 1]
    f = PiecewiseLinearMap(tuple(bps), tuple(vals))
    tiny = F(1, 2 ** 70)
    for b in bps:   # 0 and 1 included
        for x in (b - tiny, b, b + tiny):
            if 0 <= x <= 1:
                assert_matches_oracle(f, x, 3)


def test_iterate_domain_and_length_errors():
    for x in (F(3, 2), -F(1, 10), 2, 1.5, -0.1, math.nan, math.inf):
        for n in (2, 3, 40):
            with pytest.raises(ValueError):
                iterate(TENT, x, n)
        # one point needs no step: the bare seed comes back
        seed = x if isinstance(x, float) else F(x)
        assert outcome(lambda *a: iterate(*a).points, TENT, x, 1) == [bits(seed)]
    for n in (0, -1):
        with pytest.raises(ValueError):
            iterate(TENT, F(1, 2), n)


class TestDetectPeriodic:
    def test_pure_two_cycle(self):
        t = Trajectory(F(1, 4), (F(1, 4), F(3, 4)) * 3)
        ps = detect_periodic(t, 0)
        assert (ps.preperiod, ps.period) == (0, 2)
        assert ps.orbit == (F(1, 4), F(3, 4))

    def test_transient_then_cycle(self):
        t = Trajectory(F(9, 10), (F(9, 10), F(1, 4), F(3, 4), F(1, 4), F(3, 4)))
        ps = detect_periodic(t, 0)
        assert (ps.preperiod, ps.period) == (1, 2)

    def test_fixed_point_minimal_period(self):
        t = Trajectory(F(1, 2), (F(1, 2),) * 5)
        ps = detect_periodic(t, 0)
        assert (ps.preperiod, ps.period) == (0, 1)

    def test_not_found(self):
        t = Trajectory(F(0), tuple(F(i, 10) for i in range(6)))
        assert detect_periodic(t, 0) is None

    def test_needs_two_witnesses(self):
        # one full period visible only once: not certifiable
        t = Trajectory(F(1, 4), (F(1, 4), F(3, 4), F(1, 4)))
        ps = detect_periodic(t, 0)
        assert ps is None or ps.period == 1

    def test_converging_two_cycle(self, contracting_two_cycle_map):
        t = iterate(contracting_two_cycle_map, 0.1, 80)
        ps = detect_periodic(t, 1e-9)
        assert ps.period == 2
        assert sorted(ps.orbit) == pytest.approx([0.25, 0.75], abs=1e-8)

    def test_exact_replay(self, contracting_two_cycle_map):
        # tol=0 on an exactly eventually periodic rational trajectory
        t = iterate(SWAP, F(1, 4), 10)
        ps = detect_periodic(t, 0)
        replay = iterate(SWAP, ps.orbit[0], 2 * ps.period)
        assert replay.points[ps.period] == ps.orbit[0]

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            detect_periodic(Trajectory(F(0), (F(0), F(0))), -1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_detect_periodic_matches_residual_loop(seed, exact):
    # a random prefix, then a repeated cycle, from a small pool of values so
    # that equal values recur by accident; exact points are fresh Fractions
    # or shared objects at random, float zeros are 0.0 or -0.0
    rnd = random.Random(seed)
    pool = [F(k, 6) for k in range(7)] + [F(0), F(1, 2)]
    cycle = [rnd.choice(pool) for _ in range(rnd.randint(1, 5))]
    seq = [rnd.choice(pool) for _ in range(rnd.randint(0, 6))]
    seq += [cycle[i % len(cycle)] for i in range(rnd.randint(0, 4 * len(cycle) + 3))]
    seq = seq or [pool[0]]
    if exact:
        pts = tuple(F(x.numerator, x.denominator) if rnd.random() < 0.5 else x for x in seq)
    else:
        pts = tuple(float(x) if x or rnd.random() < 0.5 else -0.0 for x in seq)
    t = Trajectory(pts[0], pts)
    assert detect_periodic(t, 0) == residual_detect(t, 0)


def eq_iterate(f, x, n):
    """Reference: the Brent loop of ``iterate`` with == as its test, as
    (points, lasso)."""
    pts, lasso = [x if isinstance(x, float) else F(x)], None
    c, move = 0, 1
    for j in range(1, n):
        pts.append(evaluate(f, pts[-1]))
        if pts[j] == pts[c]:
            p = j - c
            k = next(i for i in range(c + 1) if pts[i] == pts[i + p])
            lasso = (k, p)
            pts += [pts[c + 1 + (i % p)] for i in range(n - 1 - j)]
            break
        if j == move:
            c, move = j, 2 * j
    return [bits(v) for v in pts], lasso


def eq_detect(t):
    """Reference: the tol-0 scan of ``detect_periodic`` with == as its test."""
    pts, n = t.points, len(t.points)
    for p in range(1, n // 2 + 1):
        k = n - p
        while k > 0 and pts[k - 1 + p] == pts[k - 1]:
            k -= 1
        if k + 2 * p <= n:
            return PeriodicStructure(k, p, tuple(pts[k:k + p]))
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 12), st.integers(1, 6),
       st.sampled_from(BRENT_LENGTHS))
def test_integer_equality_matches_eq_reference(seed, k, p, n):
    # exact orbits compare numerators and denominators as ints; float orbits
    # and as_float() keep ==, and the lasso-free copies take the scan
    rnd = random.Random(seed)
    cycle, y0 = cycle_map(rnd, k, p)
    for f, x in ((cycle, y0), (random_pl_map(rnd), F(rnd.randint(0, 32), 32))):
        for seed_point in (x, float(x)):
            t = iterate(f, seed_point, n)
            assert ([bits(v) for v in t.points], t._lasso) == eq_iterate(f, seed_point, n)
            for s in (t, t.as_float()):
                bare = Trajectory(s.base, s.points)
                assert detect_periodic(s) == detect_periodic(bare) == eq_detect(s)


@pytest.mark.parametrize("pts, found", [
    ((0, F(1, 2), 0, F(1, 2)), (0, 2)),
    ((F(1, 3), 0.5, F(1, 2), 0.5), (1, 1)),
    ((F(1, 3), F(1, 2), F(2, 3)), None)])
def test_detect_periodic_on_mixed_points(pts, found):
    # ints and floats among the points: the scan compares with ==
    ps = detect_periodic(Trajectory(pts[0], pts))
    assert (ps and (ps.preperiod, ps.period)) == found
    assert ps == eq_detect(Trajectory(pts[0], pts))


class TestSerialization:
    def test_map_json_round_trip(self):
        f = SWAP
        assert PiecewiseLinearMap.from_json(f.to_json()) == f

    @pytest.mark.parametrize("text", ['{"breakpoints": "01", "values": "10"}',
                                      '{"breakpoints": {"0": 5, "1": 6}, "values": [1, 0]}',
                                      '{"breakpoints": [0, 1], "values": "10"}',
                                      '{"breakpoints": [0, 1]}', '[[0, 1], [1, 0]]', '"01"'])
    def test_map_json_needs_two_arrays(self, text):
        # strings and objects are iterable, but no map file holds them
        with pytest.raises(ValueError, match="malformed map JSON"):
            PiecewiseLinearMap.from_json(text)
