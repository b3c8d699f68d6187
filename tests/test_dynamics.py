import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rqamaps.constructions import build_prop42, prop42_numeric_map
from rqamaps.dynamics import (PeriodicStructure, PiecewiseLinearMap, Trajectory,
                              detect_periodic, evaluate, iterate)

from conftest import random_pl_map

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


class TestSerialization:
    def test_map_json_round_trip(self):
        f = SWAP
        assert PiecewiseLinearMap.from_json(f.to_json()) == f

    def test_trajectory_csv(self, tmp_path):
        from rqamaps.dynamics import write_trajectory_csv
        t = iterate(SWAP, F(1, 4), 3)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(t, out)
        assert out.read_text() == "index,value\n0,1/4\n1,3/4\n2,1/4\n"
