import math
import random
import sys
import tracemalloc
from fractions import Fraction as F
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rqamaps import ranks, rqa
from rqamaps.constructions import prop42_positions
from rqamaps.dynamics import (PeriodicStructure, PiecewiseLinearMap, Trajectory,
                              detect_periodic, iterate)
from rqamaps.finite_omega import PeriodicOrbitData, closed_form_corr_sum
from rqamaps.rational import common_scale
from rqamaps.rqa import (RQAParams, bowen_distance, correlation_sum,
                         estimate_asymptotics, pgm_bytes, recurrence_determinism,
                         recurrence_matrix, rqa_det)

from conftest import (EDGE_EPS, EDGE_SCALES, INT64_SCALE_LIMIT, assert_lasso_holds,
                      cycle_map, edge_points, random_pl_map, residual_detect)


def brute_bits(points, m, eps, n):
    """Oracle: direct O(n^2 m) scan in the points' own arithmetic."""
    return [[max(abs(points[i + s] - points[j + s]) for s in range(m)) <= eps
             for j in range(n)] for i in range(n)]


def brute_corr_sum(points, m, eps, n):
    return F(sum(map(sum, brute_bits(points, m, eps, n))), n * n)


ALTERNATING = Trajectory(F(0), tuple(F(i % 2) for i in range(12)))
TWO_CYCLE = Trajectory(F(1, 4), tuple(F(1, 4) if i % 2 == 0 else F(3, 4)
                                      for i in range(12)))


class TestBowen:
    def test_identical_indices(self):
        assert bowen_distance(TWO_CYCLE, 3, 3, 4) == 0

    def test_window_one_is_plain_distance(self):
        assert bowen_distance(ALTERNATING, 0, 1, 1) == 1

    def test_two_cycle_window_two(self):
        assert bowen_distance(TWO_CYCLE, 0, 1, 2) == F(1, 2)

    def test_window_overflow(self):
        with pytest.raises(ValueError):
            bowen_distance(TWO_CYCLE, 11, 0, 2)

    def test_nondecreasing_in_m(self):
        rnd = random.Random(5)
        t = iterate(random_pl_map(rnd), F(1, 3), 12)
        for m in range(1, 5):
            assert bowen_distance(t, 1, 4, m) <= bowen_distance(t, 1, 4, m + 1)


class TestCorrelationSum:
    def test_fixed_point_is_one(self):
        t = Trajectory(F(1, 2), (F(1, 2),) * 10)
        for m in (1, 2, 3):
            assert correlation_sum(t, RQAParams(m, F(1, 100), 8)) == 1

    def test_alternating_half(self):
        assert correlation_sum(ALTERNATING, RQAParams(1, F(1, 2), 10)) == F(1, 2)

    def test_construction_first_six_points(self, prop42_small):
        pts = prop42_positions(prop42_small, 6)
        got = correlation_sum(list(pts), RQAParams(1, F(1, 2), 6))
        assert got == brute_corr_sum(pts, 1, F(1, 2), 6) == F(5, 6)

    def test_exact_and_float_paths_agree(self, prop42_small):
        pts = prop42_positions(prop42_small, 30)
        p = RQAParams(2, F(1, 2), 24)
        exact = correlation_sum(list(pts), p)
        floaty = correlation_sum([float(x) for x in pts], p)
        assert exact == floaty  # distances well away from the threshold

    def test_matches_brute_oracle(self):
        rnd = random.Random(17)
        for _ in range(25):
            t = iterate(random_pl_map(rnd), F(rnd.randint(0, 16), 16), 20)
            m, n = rnd.randint(1, 3), rnd.randint(2, 16)
            eps = F(rnd.randint(1, 32), 32)
            assert correlation_sum(t, RQAParams(m, eps, n)) == \
                brute_corr_sum(t.points, m, eps, n)

    def test_threads_deterministic(self, prop42_small):
        pts = list(prop42_positions(prop42_small, 80))
        p = RQAParams(2, F(1, 2), 70)
        assert correlation_sum(pts, p, threads=1) == correlation_sum(pts, p, threads=4)

    def test_insufficient_trajectory(self):
        with pytest.raises(ValueError):
            correlation_sum(ALTERNATING, RQAParams(3, F(1, 2), 11))

    def test_insufficient_trajectory_names_n_and_the_widest_window(self):
        # DET_2 reads windows 1, 2 and 3, so n = 4 needs n + 3 - 1 points
        with pytest.raises(ValueError, match=r"^trajectory length 4 < n \+ W - 1 = 6 "
                                             r"\(n = 4, widest window W = 3\)$"):
            rqa_det([F(1, 4)] * 4, RQAParams(2, F(1, 4), 4))

    def test_nonstrict_threshold(self):
        # pairs at distance exactly epsilon count
        t = Trajectory(F(0), (F(0), F(1, 2), F(0), F(1, 2)))
        assert correlation_sum(t, RQAParams(1, F(1, 2), 4)) == 1

    def test_float_points_against_exact_threshold(self):
        # fl(0.1 - 0.0) = 0.1 lies just above 1/10, so only the diagonal
        # recurs, for the trajectory and for the cycle alike
        pts, eps = [0.0, 0.1], F(1, 10)
        assert correlation_sum(pts, RQAParams(1, eps, 2)) == \
            brute_corr_sum(pts, 1, eps, 2) == F(1, 2)
        assert closed_form_corr_sum(PeriodicOrbitData(tuple(pts)), 1, eps) == F(1, 2)

    def test_exact_threshold_above_the_float_range(self):
        # every finite float distance is below 10^400; a distance that
        # overflows to inf is not, but passes the float threshold inf
        huge, top = F(10 ** 400), sys.float_info.max
        assert correlation_sum([0.0, 0.1], RQAParams(1, huge, 2)) == 1
        assert correlation_sum([-top, 0.0, top], RQAParams(1, huge, 3)) == F(7, 9)
        assert correlation_sum([-top, 0.0, top], RQAParams(1, math.inf, 3)) == 1
        for strict in (False, True):
            lo, hi = ranks.cuts(ranks.table([-top, 0.0, top], 3), huge, strict)
            assert lo.tolist() == [0, 0, 1] and hi.tolist() == [2, 3, 3]

    @pytest.mark.parametrize("strict", [False, True])
    def test_threshold_below_the_smallest_float(self, strict):
        # fl(eps) is 0.0, yet every point is still within eps of itself
        pts, tiny = [0.0, 5e-324, 0.1], F(1, 10 ** 400)
        lo, hi = ranks.cuts(ranks.table(pts, 3), tiny, strict)
        assert lo.tolist() == [0, 1, 2] and hi.tolist() == [1, 2, 3]
        lo, hi = ranks.cuts(ranks.table(pts, 3), F(5e-324), strict)
        assert (lo.tolist(), hi.tolist()) == (([0, 1, 2], [1, 2, 3]) if strict
                                              else ([0, 0, 2], [2, 2, 3]))
        assert correlation_sum(pts, RQAParams(1, tiny, 3)) == F(1, 3)

    @pytest.mark.parametrize("eps", [0, -1, F(-1, 2), math.nan])
    def test_rejects_threshold_that_is_not_positive(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            correlation_sum([0.0, 0.1, 0.2], RQAParams(1, eps, 3))


class TestDeterminism:
    def test_window_one_is_one(self):
        rnd = random.Random(23)
        t = iterate(random_pl_map(rnd), F(1, 7), 10)
        assert recurrence_determinism(t, RQAParams(1, F(1, 3), 10)) == 1

    def test_attracting_two_cycle_near_one(self, contracting_two_cycle_map):
        t = iterate(contracting_two_cycle_map, 0.1, 800 + 2)
        r = recurrence_determinism(t, RQAParams(3, 0.05, 800))
        assert r >= F(99, 100)

    def test_det_window_one_collapses(self):
        t = TWO_CYCLE
        assert rqa_det(t, RQAParams(1, F(3, 5), 10)) == \
            recurrence_determinism(t, RQAParams(1, F(3, 5), 10)) == 1

    def test_det_affine_identity(self):
        rnd = random.Random(29)
        for _ in range(10):
            t = iterate(random_pl_map(rnd), F(rnd.randint(0, 8), 8), 20)
            m, n = rnd.randint(2, 3), 12
            eps = F(rnd.randint(1, 16), 16)
            r_m = recurrence_determinism(t, RQAParams(m, eps, n))
            r_m1 = recurrence_determinism(t, RQAParams(m + 1, eps, n))
            assert rqa_det(t, RQAParams(m, eps, n)) == m * r_m - (m - 1) * r_m1

    def test_det_equal_rdets_identity(self):
        t = Trajectory(F(1, 2), (F(1, 2),) * 12)  # rdet_m = rdet_{m+1} = 1
        assert rqa_det(t, RQAParams(3, F(1, 4), 8)) == 1

    def test_series_by_kind(self):
        t = iterate(random_pl_map(random.Random(7)), F(1, 8), 20)
        ns, eps = [5, 9, 16], F(1, 4)
        for kind, count in [("corrsum", correlation_sum), ("rdet", recurrence_determinism),
                            ("det", rqa_det)]:
            assert rqa.series(t, ns, 2, eps, kind) == [count(t, RQAParams(2, eps, n))
                                                       for n in ns]
        with pytest.raises(ValueError, match="unknown series kind 'DET'"):
            rqa.series(t, ns, 2, eps, "DET")
        # a schedule out of order would count its largest n over too few classes
        with pytest.raises(ValueError, match="strictly increasing"):
            rqa.series(t, [9, 5], 2, eps, "corrsum")


class TestRecurrenceMatrix:
    def test_fixed_point_all_true(self):
        t = Trajectory(F(1, 2), (F(1, 2),) * 4)
        mat = recurrence_matrix(t, RQAParams(1, F(1, 10), 3))
        assert mat.bits.all() and mat.popcount == 9

    def test_checkerboard(self):
        mat = recurrence_matrix(ALTERNATING, RQAParams(1, F(1, 2), 4))
        expect = [[(i - j) % 2 == 0 for j in range(4)] for i in range(4)]
        assert mat.bits.tolist() == expect

    def test_popcount_consistency(self):
        rnd = random.Random(31)
        for _ in range(10):
            t = iterate(random_pl_map(rnd), F(rnd.randint(0, 8), 8), 20)
            p = RQAParams(rnd.randint(1, 3), F(rnd.randint(1, 16), 16), 14)
            mat = recurrence_matrix(t, p)
            assert F(mat.popcount, p.n ** 2) == correlation_sum(t, p)
            assert (mat.bits == mat.bits.T).all()
            assert mat.bits.diagonal().all()

    def test_guard_at_the_pair_budget(self, monkeypatch):
        # a budget of n^2 pairs allows the plot's n^2 bytes; one pair less
        # refuses it before anything is allocated
        p = RQAParams(1, F(1, 2), 5)
        monkeypatch.setenv("RQA_MAX_PAIRS", "25")
        assert recurrence_matrix(ALTERNATING, p).popcount == 13
        monkeypatch.setenv("RQA_MAX_PAIRS", "24")
        with mock.patch.object(np, "empty", wraps=np.empty) as empty, \
                pytest.raises(rqa.ResourceGuardError, match=r"5\^2 pairs exceeds the guard \(24\)"):
            recurrence_matrix(ALTERNATING, p)
        empty.assert_not_called()

    def test_pgm_bytes(self):
        mat = recurrence_matrix(ALTERNATING, RQAParams(1, F(1, 2), 3))
        assert pgm_bytes(mat) == b"P1\n3 3\n1 0 1\n0 1 0\n1 0 1\n"


class TestEstimator:
    def test_fixed_point(self):
        t = Trajectory(F(1, 2), (F(1, 2),) * 40)
        est = estimate_asymptotics(t, 2, F(1, 10), [4, 8, 16, 32])
        assert est.liminf_est == est.limsup_est == 1

    def test_schedule_validation(self):
        t = Trajectory(F(1, 2), (F(1, 2),) * 10)
        with pytest.raises(ValueError):
            estimate_asymptotics(t, 1, F(1, 2), [4, 4])
        with pytest.raises(ValueError):
            estimate_asymptotics(t, 1, F(1, 2), [])

    def test_oscillating_schedule_separates_limits(self, prop42_small):
        # the even-k/odd-k subfamilies pull the tail extremes apart
        from rqamaps.constructions import prop42_C1, prop42_schedule_n
        schedule = [prop42_schedule_n(k) for k in range(1, 7)]
        pts = list(prop42_positions(prop42_small, max(schedule)))
        est = estimate_asymptotics(pts, 1, F(1, 2), schedule)
        assert all(c == prop42_C1(prop42_small, n) for n, c in est.values)
        assert abs(float(est.liminf_est) - 0.7) <= 1e-2
        assert abs(float(est.limsup_est) - 0.8) <= 1e-2
        assert est.liminf_est < est.limsup_est

    def test_attracting_cycle_converges_to_closed_form(self, plateau_map):
        t = iterate(plateau_map, 0.21, 1500 + 1)
        est = estimate_asymptotics(t, 2, 0.45, [200, 400, 800, 1500])
        assert float(est.limsup_est - est.liminf_est) <= 1e-2
        closed = closed_form_corr_sum(PeriodicOrbitData.of(["1/5", "1/2", "4/5"]),
                                      2, F(9, 20))
        assert abs(float(est.liminf_est) - float(closed)) <= 1e-2


class TestShiftBound:
    def test_exact_bound(self):
        rnd = random.Random(37)
        for _ in range(20):
            f = random_pl_map(rnd)
            n, m, h = 16, rnd.randint(1, 3), rnd.randint(1, 8)
            eps = F(rnd.randint(1, 16), 16)
            t = iterate(f, F(rnd.randint(0, 16), 16), n + m - 1 + h)
            c0 = correlation_sum(t, RQAParams(m, eps, n))
            ch = correlation_sum(t.shifted(h), RQAParams(m, eps, n))
            assert abs(ch - c0) <= F(4 * h, n)


# quick randomized invariants; the acceptance suite runs the large corpus

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rqa_invariants(seed):
    rnd = random.Random(seed)
    f = random_pl_map(rnd)
    m, n = rnd.randint(1, 3), rnd.randint(4, 12)
    eps = F(rnd.randint(1, 24), 16)
    t = iterate(f, F(rnd.randint(0, 12), 12), n + m)
    c = correlation_sum(t, RQAParams(m, eps, n))
    assert F(1, n) <= c <= 1
    assert c <= correlation_sum(t, RQAParams(m, eps + F(1, 16), n))
    assert c <= correlation_sum(t, RQAParams(max(1, m - 1), eps, n))
    if eps >= 1:
        assert c == 1
    r = recurrence_determinism(t, RQAParams(m, eps, n))
    r_next = recurrence_determinism(t, RQAParams(m + 1, eps, n))
    assert 0 <= r_next <= r <= 1


# the fused kernel against the dense oracle, on every backend

_POOLS = {
    "float": [k / 10 for k in range(11)] + [0.15, 0.3 + 1e-9],
    # float points with exact thresholds on, just above or just below a
    # float distance
    "float, exact eps": [k / 10 for k in range(11)] + [0.15, 0.3 + 1e-9],
    "int64": [F(k, 12) for k in range(13)],
    # denominators 2**33 + k: any two distinct points have a common scale
    # above 2**62
    "bigint": [F(k, 8) + F(1, 2 ** 33 + k) for k in range(7)],
}


@settings(max_examples=55, deadline=None)
@given(st.sampled_from(sorted(_POOLS)), st.integers(0, 10 ** 6), st.integers(1, 3))
def test_kernel_matches_oracle(backend, seed, m):
    rnd = random.Random(seed)
    pool = _POOLS[backend]
    n_max = rnd.randint(1, 14)
    # few distinct values, so that distances repeat and hit eps exactly
    pts = rnd.sample(pool, 2) + [rnd.choice(pool[:rnd.randint(2, len(pool))])
                                 for _ in range(n_max + m - 2)]
    a, b = rnd.randrange(len(pts)), rnd.randrange(len(pts))
    eps = abs(pts[a] - pts[b]) or pool[1]
    if backend == "float, exact eps":
        eps = F(eps) + rnd.choice([0, F(1, 10 ** 30), -F(1, 10 ** 30)])
    elif backend != "float":
        scale = common_scale(list(pts) + [eps])
        assert (scale <= INT64_SCALE_LIMIT) == (backend == "int64")
    schedule = sorted(rnd.sample(range(1, n_max + 1), rnd.randint(1, n_max)))
    dense = {w: brute_bits(pts, w, eps, n_max) for w in range(1, m + 2)}

    def count(w, n):
        return sum(sum(row[:n]) for row in dense[w][:n])

    def oracle(w, n):
        return F(count(w, n), n * n)

    # one block per call, and blocks of one or two rows
    for block_elems in (ranks.BLOCK_ELEMS, 1, 2 * n_max):
        with mock.patch.object(ranks, "BLOCK_ELEMS", block_elems):
            assert rqa._pair_counts(pts, schedule, range(1, m + 2), eps) == \
                [[count(w, n) for n in schedule] for w in range(1, m + 2)]
            est = estimate_asymptotics(pts[:n_max + m - 1], m, eps, schedule)
            assert est.values == tuple((n, oracle(m, n)) for n in schedule)
            for n in schedule:
                p = RQAParams(m, eps, n)
                c1, cm, cm1 = oracle(1, n), oracle(m, n), oracle(m + 1, n)
                assert correlation_sum(pts, p) == cm
                assert recurrence_determinism(pts, p) == cm / c1
                det = cm / c1 if m == 1 else m * cm / c1 - (m - 1) * cm1 / c1
                assert rqa_det(pts[:n + m], p) == det
            mat = recurrence_matrix(pts, RQAParams(m, eps, n_max))
            assert mat.bits.tolist() == dense[m]
            assert (mat.bits == mat.bits.T).all()
    assert_one_trajectory_matches_oracle(rnd, pts, m, schedule)


# the sorted class-and-band count on eventually periodic orbits, where
# delay vectors repeat

_ORBIT_POOLS = {
    # values an ulp or two apart, so that float ranges end between them
    "float": [k / 10 for k in range(11)] + [0.1 + 0.2, math.nextafter(0.3, 0),
                                            math.nextafter(0.7, 1), 0.7 + 1e-15],
    "int64": [F(k, 12) for k in range(13)],
    "bigint": [F(k, 8) + F(1, 2 ** 33 + k) for k in range(9)],
}


@pytest.mark.parametrize("strict", [False, True])
def test_float_ranks_match_the_test_itself(strict):
    # every distance of the ulp-rich pool, and one ulp either side, as eps:
    # some fl(x + eps) fall an ulp short of a value that passes the test,
    # others an ulp past one that fails it
    pool = _ORBIT_POOLS["float"]
    values = sorted(set(pool))
    passes = (lambda d, eps: d < eps) if strict else (lambda d, eps: d <= eps)
    for d in sorted({abs(a - b) for a in pool for b in pool if a != b}):
        for eps in (d, math.nextafter(d, 0), math.nextafter(d, 1)):
            lo, hi = ranks.cuts(ranks.table(pool, len(pool)), eps, strict)
            for r, x in enumerate(values):
                close = [k for k, y in enumerate(values) if passes(abs(x - y), eps)]
                assert close == list(range(lo[r], hi[r]))


def eventually_periodic(rnd, pool, length):
    """A random prefix starting with two distinct values, then a cycle
    repeated up to ``length`` points; exact points repeat as shared objects
    or as fresh equal Fractions."""
    head = rnd.sample(pool, 2) + [rnd.choice(pool) for _ in range(rnd.randint(0, 4))]
    cycle = [rnd.choice(pool) for _ in range(rnd.randint(1, 5))]
    pts = (head + cycle * length)[:length]
    if isinstance(pts[0], F):
        pts = [F(x.numerator, x.denominator) if rnd.random() < 0.5 else x for x in pts]
    return pts


def thresholds(rnd, pts):
    """An orbit distance, one float ulp below and above it, and eps > 1;
    points that are all equal, as on a fixed point, get 1/4 and eps > 1."""
    d = abs(rnd.choice(pts) - rnd.choice(pts)) or max(pts) - min(pts)
    if not d:
        return [type(d)(1) / 4, type(d)(3) / 2]
    if isinstance(d, float):
        return [d, math.nextafter(d, 0), math.nextafter(d, math.inf), 1.5]
    return [d, d - F(1, 2 ** 70), d + F(1, 2 ** 70), F(3, 2)]


def assert_one_trajectory_matches_oracle(rnd, pts, m, schedule, lasso=None):
    """Every count on one Trajectory of ``pts`` (n_max + m points, with the
    points' ``lasso`` when given), over every threshold, in a random order,
    against the dense oracle; the trajectory ranks its points once and
    keeps one table."""
    t = Trajectory(pts[0], tuple(pts), _lasso=lasso)

    def values(eps):
        return estimate_asymptotics(t, m, eps, schedule).values

    def bits(p):
        return recurrence_matrix(t, p).bits.tolist()

    checks = []
    for eps in thresholds(rnd, pts):
        dense = {w: brute_bits(pts, w, eps, schedule[-1]) for w in range(1, m + 2)}
        c = {(w, n): F(sum(sum(row[:n]) for row in dense[w][:n]), n * n)
             for w in dense for n in schedule}
        checks.append((partial(values, eps), tuple((n, c[m, n]) for n in schedule)))
        for n in schedule:
            p = RQAParams(m, eps, n)
            rdet_m, rdet_m1 = c[m, n] / c[1, n], c[m + 1, n] / c[1, n]
            checks += [(partial(correlation_sum, t, p), c[m, n]),
                       (partial(recurrence_determinism, t, p), rdet_m),
                       (partial(rqa_det, t, p), m * rdet_m - (m - 1) * rdet_m1),
                       (partial(bits, p), [row[:n] for row in dense[m][:n]])]
    rnd.shuffle(checks)
    for call, want in checks:
        assert call() == want
    assert len(t._rank_cache) == 1
    # equality and hash ignore the rank table and the lasso
    twin = Trajectory(pts[0], tuple(pts))
    assert t == twin and hash(t) == hash(twin) and not twin._rank_cache
    assert twin._lasso is None and t._lasso == lasso


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ORBIT_POOLS)), st.integers(0, 10 ** 6), st.integers(1, 3))
def test_sorted_counts_on_periodic_orbits(backend, seed, m):
    rnd = random.Random(seed)
    n_max = rnd.randint(1, 30)
    pts = eventually_periodic(rnd, _ORBIT_POOLS[backend], n_max + m)
    if backend != "float":
        assert (common_scale(list(pts)) <= INT64_SCALE_LIMIT) == (backend == "int64")
    schedule = sorted(rnd.sample(range(1, n_max + 1), rnd.randint(1, min(n_max, 4))))
    for eps in thresholds(rnd, pts):
        dense = {w: brute_bits(pts, w, eps, n_max) for w in range(1, m + 2)}
        want = [[sum(sum(row[:n]) for row in dense[w][:n]) for n in schedule]
                for w in range(1, m + 2)]
        # one block, blocks of one row whose band may be wider than
        # BLOCK_ELEMS (1 or 3), and blocks of a few rows
        for block_elems in (ranks.BLOCK_ELEMS, 1, 3, 4 * n_max):
            with mock.patch.object(ranks, "BLOCK_ELEMS", block_elems):
                for k in range(1, len(schedule) + 1):
                    got = rqa._pair_counts(pts, schedule[:k], range(1, m + 2), eps)
                    assert got == [row[:k] for row in want]
        mat = recurrence_matrix(pts, RQAParams(m, eps, n_max))
        assert mat.popcount == rqa._pair_counts(pts, [n_max], [m], eps)[0][0]
    assert_one_trajectory_matches_oracle(rnd, pts, m, schedule)


# counts through the lasso that iterate keeps: the k + p lasso points are
# the classes, against the class scan on a lasso-free twin and the dense
# oracle, at schedules below k, between k and k + p, and beyond

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 40), st.integers(1, 6), st.booleans(),
       st.integers(1, 4))
def test_lasso_counts_match_the_class_scan(seed, k, p, exact, windows):
    rnd = random.Random(seed)
    f, y0 = cycle_map(rnd, k, p)
    x = y0 if exact else float(y0)
    # long enough for iterate to see the repeat
    t = iterate(f, x, 2 * max(k, p) + p + windows + rnd.randint(0, 8))
    assert t._lasso == (k, p)
    for length in (k + 2 * p - 1, k + 2 * p):
        if length >= 1:
            short = iterate(f, x, length)
            assert short._lasso in (None, (k, p))
            assert detect_periodic(short, 0) == residual_detect(short, 0)
    # half the time the trajectory of a later point, before or past k
    if rnd.random() < 0.5:
        t = t.shifted(rnd.randint(0, k + p))
    kt = t._lasso[0]
    assert detect_periodic(t, 0) == residual_detect(t, 0)
    for length in (kt + 2 * p - 1, kt + 2 * p):
        cut = Trajectory(t.base, t.points[:length], _lasso=t._lasso)
        assert detect_periodic(cut, 0) == residual_detect(cut, 0)
    # at most 30 points counted, so that the dense oracle stays small; one
    # scheduled n below k, one in [k, k + p) and one beyond, where they fit.
    # The oracle check at the end counts windows m and m + 1
    m = max(1, windows - 1)
    top = min(len(t) - m, 30)
    ends = ((1, kt), (max(kt, 1), kt + p), (kt + p, top + 1))
    schedule = sorted({top} | {rnd.randrange(lo, min(hi, top + 1))
                               for lo, hi in ends if lo < min(hi, top + 1)})
    pts = t.points[:top + windows - 1]
    twin = Trajectory(t.base, t.points)
    for eps in thresholds(rnd, pts):
        dense = {w: brute_bits(pts, w, eps, top) for w in range(1, windows + 1)}
        want = [[sum(sum(row[:n]) for row in dense[w][:n]) for n in schedule]
                for w in range(1, windows + 1)]
        assert rqa._pair_counts(t, schedule, range(1, windows + 1), eps) == want
        # the lasso-free twin's index classes, each index its own
        table = ranks.table(twin, len(pts))
        assert rqa._class_counts(table.ranks(len(pts)), *ranks.cuts(table, eps, False),
                                 schedule, range(1, windows + 1), (len(pts), 1)) == want
    assert len(t._rank_cache) == 1 and twin._rank_cache[0].lasso == (len(twin), 1)
    assert_one_trajectory_matches_oracle(rnd, t.points[:top + m], m, schedule, t._lasso)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 12), st.integers(1, 6))
def test_lasso_ranks_match_the_points(seed, k, p):
    # a table keeps only the ranks of its lasso points and reads every
    # prefix through the lasso as the ranks of the points themselves: on
    # iterate's lasso, on shifts before and past k, one of them leaving
    # fewer than k + p points when p > 1, and on their floats
    rnd = random.Random(seed)
    f, y0 = cycle_map(rnd, k, p)
    t = iterate(f, y0, 2 * max(k, p) + p + rnd.randint(0, 10))
    assert t._lasso == (k, p)
    shifts = [t.shifted(h) for h in (rnd.randint(0, max(0, k - 1)),
                                     rnd.randint(k, len(t) - 1), len(t) - max(1, p - 1))]
    assert len(shifts[-1]) < p or p == 1
    for u in [t] + shifts + [v.as_float() for v in [t] + shifts]:
        table = ranks.table(u, len(u))
        assert len(table.rank) == min(len(u), sum(table.lasso))
        values = sorted(set(u.points))
        for count in {1, rnd.randint(1, len(u)), len(u)}:
            assert table.ranks(count).tolist() == [values.index(x) for x in u.points[:count]]


def test_cold_lasso_count_holds_only_its_lasso():
    # a cold count on a long lasso trajectory ranks and reads only its
    # k + p lasso points and the W - 1 beyond, never an array as long as
    # the trajectory, which at 10^6 points would take 8 MB a copy
    f, y0 = cycle_map(random.Random(3), 5, 7)
    n = 10 ** 6
    t = iterate(f, y0, n + 1)
    tracemalloc.start()
    try:
        estimate_asymptotics(t, 2, F(1, 10), [n // 4, n // 2, n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert t._rank_cache[0].lasso == (5, 7) and len(t._rank_cache[0].rank) == 12


def test_all_distinct_points_are_a_lasso_without_cycle():
    # points without a known lasso are a lasso with no cycle, repeated values
    # or not: each index is its own class, with no np.unique pass
    assert ranks._rank_table([F(1, 3), F(1, 2), F(0), F(1, 7)]).lasso == (4, 1)
    assert ranks._rank_table([0.5, 0.25, 0.125]).lasso == (3, 1)
    assert ranks._rank_table([F(1, 3), F(1, 2), F(1, 3)]).lasso == (3, 1)
    assert ranks._rank_table([0.5, 0.25, 0.125, 0.25]).lasso == (4, 1)
    distinct = [k / 64 for k in (5, 1, 9, 33, 17, 2, 40)]
    repeated = [k / 64 for k in (5, 1, 9, 5, 17, 1, 5)]
    for pts in (distinct, repeated, [F(x) for x in repeated]):
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            assert rqa._pair_counts(pts, [3, 6], [1, 2], F(1, 16)) == \
                [[sum(map(sum, brute_bits(pts, w, F(1, 16), n))) for n in (3, 6)]
                 for w in (1, 2)]
        assert unique.call_count == 1   # the rank table's own


def test_as_float_drops_the_lasso():
    # an exact 2-cycle a <-> b whose points round to one float: the float
    # points repeat with period 1, which no lasso of the exact orbit says
    a, d = F(1, 3), F(1, 2 ** 82)
    b = a + 4 * d
    f = PiecewiseLinearMap.of([0, a - d, a + d, b - d, b + d, 1], [b, b, b, a, a, a])
    t = iterate(f, a, 8)
    assert t._lasso == (0, 2) and float(a) == float(b)
    ft = t.as_float()
    hand = Trajectory(float(a), (float(a),) * 8)
    assert ft == hand and ft._lasso is None
    assert detect_periodic(ft, 0) == residual_detect(ft, 0) == \
        PeriodicStructure(0, 1, (float(a),))
    for eps in (2.0 ** -90, 0.5):
        assert rqa._pair_counts(ft, [3, 6], [1, 2], eps) == \
            rqa._pair_counts(hand, [3, 6], [1, 2], eps) \
            == [[9, 36], [9, 36]]
    # exactly, a and b are 2^-80 apart
    assert rqa._pair_counts(t, [3, 6], [1, 2], d) == [[5, 18], [5, 18]]


@pytest.mark.parametrize("k, p", [(0, 1), (0, 3), (3, 4), (6, 2)])
def test_as_float_keeps_a_lasso_of_distinct_floats(k, p):
    # cycle_map's lasso points are distinct multiples of 1/(2(k + p)), and so
    # are their floats: the float trajectory keeps (k, p) and counts through
    # it, as its hand-built twin and the dense oracle count
    f, y0 = cycle_map(random.Random(k + p), k, p)
    t = iterate(f, y0, 50)
    ft = t.as_float()
    assert t._lasso == ft._lasso == (k, p)
    assert_lasso_holds(ft)
    hand = Trajectory(ft.base, ft.points)
    assert ft == hand and hand._lasso is None
    assert detect_periodic(ft, 0) == residual_detect(ft, 0) == detect_periodic(hand, 0)
    schedule = [k + p, 45]
    for eps in thresholds(random.Random(k), ft.points):
        dense = {w: brute_bits(ft.points, w, eps, 45) for w in (1, 2, 3)}
        want = [[sum(sum(row[:n]) for row in dense[w][:n]) for n in schedule]
                for w in (1, 2, 3)]
        assert rqa._pair_counts(ft, schedule, [1, 2, 3], eps) == \
            rqa._pair_counts(hand, schedule, [1, 2, 3], eps) == want
    assert ft._rank_cache[0].lasso == (k, p)


def test_as_float_drops_the_lasso_of_a_short_shift():
    # past the preperiod a shift keeps the lasso (0, p); once fewer than p
    # points are left, their floats cannot show the whole cycle distinct
    k, p = 3, 4
    f, y0 = cycle_map(random.Random(7), k, p)
    t = iterate(f, y0, 10)
    for h in (k + 1, 6, 7, 9):
        s = t.shifted(h)
        assert s._lasso == (0, p)
        ft = s.as_float()
        assert ft._lasso == ((0, p) if len(s) >= p else None)
        assert detect_periodic(ft, 0) == residual_detect(ft, 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ORBIT_POOLS)), st.integers(0, 10 ** 6), st.integers(1, 4))
def test_reduced_windows_match_all_windows(backend, seed, windows):
    # a subset of the windows reads the matching rows of the full scan
    rnd = random.Random(seed)
    n_max = rnd.randint(1, 30)
    pts = eventually_periodic(rnd, _ORBIT_POOLS[backend], n_max + windows)
    schedule = sorted(rnd.sample(range(1, n_max + 1), rnd.randint(1, min(n_max, 4))))
    request = sorted(rnd.sample(range(1, windows + 1), rnd.randint(1, windows)))
    for eps in thresholds(rnd, pts):
        full = rqa._pair_counts(pts, schedule, range(1, windows + 1), eps)
        with mock.patch.object(ranks, "BLOCK_ELEMS", rnd.choice((1, 3, ranks.BLOCK_ELEMS))):
            got = rqa._pair_counts(pts, schedule, request, eps)
        assert got == [full[w - 1] for w in request]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ORBIT_POOLS)), st.integers(0, 10 ** 6), st.integers(1, 4))
def test_window_requests_in_any_order(backend, seed, m):
    # a shuffled request with repeats, such as [m, 1, m], reads the full
    # scan's rows in request order; [1, 1], as rqa_det asks at m = 1, reads
    # window 1 twice, against the dense oracle
    rnd = random.Random(seed)
    n_max = rnd.randint(1, 30)
    pts = eventually_periodic(rnd, _ORBIT_POOLS[backend], n_max + m)
    schedule = sorted(rnd.sample(range(1, n_max + 1), rnd.randint(1, min(n_max, 4))))
    request = [m, 1, m] + rnd.choices(range(1, m + 1), k=rnd.randint(0, 3))
    rnd.shuffle(request)
    for eps in thresholds(rnd, pts):
        full = rqa._pair_counts(pts, schedule, range(1, m + 1), eps)
        ones = [sum(sum(row[:n]) for row in brute_bits(pts, 1, eps, n)) for n in schedule]
        with mock.patch.object(ranks, "BLOCK_ELEMS", rnd.choice((1, 3, ranks.BLOCK_ELEMS))):
            assert rqa._pair_counts(pts, schedule, request, eps) == \
                [full[w - 1] for w in request]
            assert rqa._pair_counts(pts[:n_max], schedule, [1, 1], eps) == [ones, ones]


@pytest.mark.parametrize("scale", EDGE_SCALES)
@pytest.mark.parametrize("eps", EDGE_EPS)
def test_counts_at_the_int64_edge(scale, eps):
    pts = list(edge_points(scale)) * 2
    assert common_scale(pts) == scale
    n = len(pts) - 2
    for m in (1, 2, 3):
        assert correlation_sum(pts, RQAParams(m, eps, n)) == brute_corr_sum(pts, m, eps, n)


# 0.1 and 1/10 differ by about 5.6e-18 exactly and not at all in floats,
# and so do 0.3 and 3/10; the threshold lies between
MIXED_EPS = F(1, 10 ** 18)


@pytest.mark.parametrize("pts", [[0.1, F(1, 10)],
                                 [F(1, 10), 0.1, F(1, 2), F(3, 10), 0.3, 0.5, F(1, 10)]])
def test_mixed_points_count_in_floats_in_any_order(pts):
    for order in (pts, pts[::-1]):
        floats = [float(x) for x in order]
        for m in range(1, len(pts) + 1):
            n = len(pts) - m + 1
            c = correlation_sum(order, RQAParams(m, MIXED_EPS, n))
            assert c == brute_corr_sum(floats, m, MIXED_EPS, n)
            assert c == F(sum(bowen_distance(floats, i, j, m) <= MIXED_EPS
                              for i in range(n) for j in range(n)), n * n)
    assert correlation_sum(pts[:2], RQAParams(1, MIXED_EPS, 2)) == 1


def test_mixed_cycle_counts_in_floats_at_every_rotation():
    cycle = (F(1, 10), 0.1, F(1, 2), F(3, 10), 0.3)
    p = len(cycle)
    for r in range(p):
        o = PeriodicOrbitData(cycle[r:] + cycle[:r])
        floats = [float(y) for y in o.points] * 2
        for m in (1, 2, 3):
            want = sum(max(abs(floats[i + s] - floats[j + s]) for s in range(m)) <= MIXED_EPS
                       for i in range(p) for j in range(p))
            assert closed_form_corr_sum(o, m, MIXED_EPS) * p ** 2 == want


def test_det_window_one_needs_only_n_points():
    pts = [F(1, 4), F(3, 4), F(1, 4), F(1, 2)]
    assert rqa_det(pts, RQAParams(1, F(1, 4), 4)) == 1
    with pytest.raises(ValueError):
        rqa_det(pts, RQAParams(2, F(1, 4), 4))   # window 3 needs n + 2 points


def joined_pgm(matrix):
    """Reference rendering: one Python string per bit, rows joined by spaces."""
    rows = [" ".join("1" if b else "0" for b in row) + "\n" for row in matrix.bits]
    return (f"P1\n{matrix.n} {matrix.n}\n" + "".join(rows)).encode("ascii")


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10 ** 6))
@example(1, 0)
def test_pgm_bytes_matches_joined_rendering(n, seed):
    rnd = random.Random(seed)
    density = rnd.random()
    bits = np.array([[rnd.random() < density for _ in range(n)] for _ in range(n)])
    matrix = rqa.RecurrenceMatrix(n=n, m=1, epsilon=F(1, 2), bits=bits)
    assert pgm_bytes(matrix) == joined_pgm(matrix)



# the class scan at the edges of its rank dtype: ranks are held in the
# smallest unsigned dtype that holds the sentinel rank len(lo), and a rank
# below its range start wraps past every span

@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("distinct", [255, 256, 257, 65535, 65536])
def test_counts_at_the_rank_dtype_edges(distinct, exact):
    rnd = random.Random(distinct)
    unit = F(1, 7) if exact else 0.125
    ends = [0, 1, 2, 3, distinct - 4, distinct - 3, distinct - 2, distinct - 1]
    ks = [rnd.choice(ends) for _ in range(42)]
    ks += sorted(set(range(distinct)) - set(ks))
    # the trajectory ranks all of its points, so lo and hi have an entry
    # for every value, though the counted prefix uses only a few ranks
    t = Trajectory(ks[0] * unit, tuple(k * unit for k in ks))
    for eps in (unit, 3 * unit, (distinct - 4) * unit, (distinct - 1) * unit):
        assert len(ranks.cuts(ranks.table(t, 1), eps, False)[1]) == distinct
        for m in (1, 2, 3):
            schedule = [10, 25, 43 - m]
            dense = {w: brute_bits(t.points, w, eps, schedule[-1]) for w in (1, m)}
            assert rqa._pair_counts(t, schedule, [1, m], eps) == [
                [sum(sum(row[:n]) for row in dense[w][:n]) for n in schedule]
                for w in (1, m)]


@pytest.mark.parametrize("exact", [False, True])
def test_wide_band_in_a_one_row_block(exact):
    # one class whose band covers a cluster of values above it, the others
    # narrow: a band wider than BLOCK_ELEMS takes a block of one row, as
    # wide as that band
    rnd = random.Random(5)
    unit = F(1, 9) if exact else 0.125
    ks = list(range(7)) + [20 * (i + 1) for i in range(12)]
    rnd.shuffle(ks)
    pts = [k * unit for k in ks + ks[:3]]
    n, eps = len(ks), 6 * unit
    b = max(sum(0 <= y - x <= eps for y in pts[:n]) for x in pts[:n])
    assert b == 7
    for m in (1, 2, 3):
        dense = {w: brute_bits(pts, w, eps, n) for w in range(1, m + 1)}
        want = [[sum(sum(row[:k]) for row in dense[w][:k]) for k in (n // 2, n)]
                for w in range(1, m + 1)]
        for block_elems in (1, b - 1, b, b + 1):
            with mock.patch.object(ranks, "BLOCK_ELEMS", block_elems):
                assert rqa._pair_counts(pts, [n // 2, n], range(1, m + 1), eps) == want


def test_class_scan_memory_stays_within_blocks():
    # an expanding tent's float orbit has every delay vector distinct and a
    # band of about a hundred classes; only the per-point arrays and
    # temporaries of BLOCK_ELEMS entries may be held, never the whole
    # strip of u rows by the widest band, nor a u-by-u block
    f = PiecewiseLinearMap((F(0), F(1, 2), F(1)), (F(0), F(39, 40), F(0)))
    n, m = 4400, 3
    table = ranks.table(iterate(f, 0.3, n + m), n + m)
    args = table.ranks(n + m), *ranks.cuts(table, 0.02, False)
    tracemalloc.start()
    try:
        rqa._class_counts(*args, [n // 4, n // 2, n], range(1, m + 2), (n + m, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * n + 6 * ranks.BLOCK_ELEMS


def test_recurrence_matrix_memory_is_one_bitmap():
    # the plot is written in place: beyond its n^2 bits only the per-point
    # arrays and temporaries of BLOCK_ELEMS entries may be held, never a
    # second n-by-n array
    f = PiecewiseLinearMap((F(0), F(1, 2), F(1)), (F(0), F(39, 40), F(0)))
    n, m = 2000, 2
    t = iterate(f, 0.3, n + m)
    tracemalloc.start()
    try:
        recurrence_matrix(t, RQAParams(m, 0.02, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n + 200 * n + 6 * ranks.BLOCK_ELEMS
