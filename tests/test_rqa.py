import math
import random
from fractions import Fraction as F
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rqamaps import rqa
from rqamaps.constructions import prop42_positions
from rqamaps.dynamics import Trajectory, iterate
from rqamaps.finite_omega import PeriodicOrbitData, closed_form_corr_sum
from rqamaps.rational import common_scale
from rqamaps.rqa import (RQAParams, bowen_distance, correlation_sum,
                         estimate_asymptotics, pgm_bytes, recurrence_determinism,
                         recurrence_matrix, rqa_det, write_series_csv)

from conftest import EDGE_EPS, EDGE_SCALES, INT64_SCALE_LIMIT, edge_points, random_pl_map


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

    def test_series_csv(self, tmp_path):
        t = Trajectory(F(1, 2), (F(1, 2),) * 10)
        est = estimate_asymptotics(t, 1, F(1, 2), [2, 4])
        out = tmp_path / "series.csv"
        write_series_csv(est, out)
        assert out.read_text() == ("n,C_m_exact_num,C_m_exact_den,C_m_float\n"
                                   "2,1,1,1.0\n4,1,1,1.0\n")


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
    for block_elems in (rqa._BLOCK_ELEMS, 1, 2 * n_max):
        with mock.patch.object(rqa, "_BLOCK_ELEMS", block_elems):
            assert rqa._pair_counts(pts, schedule, m + 1, eps) == \
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
            _, lo, hi = rqa._ranks(pool, len(pool), eps, strict)
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
    """An orbit distance, one float ulp below and above it, and eps > 1."""
    d = abs(rnd.choice(pts) - rnd.choice(pts)) or abs(pts[0] - pts[1])
    if isinstance(d, float):
        return [d, math.nextafter(d, 0), math.nextafter(d, math.inf), 1.5]
    return [d, d - F(1, 2 ** 70), d + F(1, 2 ** 70), F(3, 2)]


def assert_one_trajectory_matches_oracle(rnd, pts, m, schedule):
    """Every count on one Trajectory of ``pts`` (n_max + m points), over
    every threshold, in a random order, against the dense oracle; the
    trajectory ranks its points once and keeps one table."""
    t = Trajectory(pts[0], tuple(pts))

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
    twin = Trajectory(pts[0], tuple(pts))
    assert t == twin and hash(t) == hash(twin) and not twin._rank_cache


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
        # one block, blocks of one row with the band split into column
        # chunks of one or three, and blocks of a few rows
        for block_elems in (rqa._BLOCK_ELEMS, 1, 3, 4 * n_max):
            with mock.patch.object(rqa, "_BLOCK_ELEMS", block_elems):
                for k in range(1, len(schedule) + 1):
                    got = rqa._pair_counts(pts, schedule[:k], m + 1, eps)
                    assert got == [row[:k] for row in want]
        mat = recurrence_matrix(pts, RQAParams(m, eps, n_max))
        assert mat.popcount == rqa._pair_counts(pts, [n_max], m, eps)[m - 1][0]
    assert_one_trajectory_matches_oracle(rnd, pts, m, schedule)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ORBIT_POOLS)), st.integers(0, 10 ** 6), st.integers(1, 4))
def test_reduced_windows_match_all_windows(backend, seed, windows):
    # windows left out of the reduction read None; the others are unchanged
    rnd = random.Random(seed)
    n_max = rnd.randint(1, 30)
    pts = eventually_periodic(rnd, _ORBIT_POOLS[backend], n_max + windows)
    schedule = sorted(rnd.sample(range(1, n_max + 1), rnd.randint(1, min(n_max, 4))))
    reduce = set(rnd.sample(range(1, windows + 1), rnd.randint(1, windows)))
    for eps in thresholds(rnd, pts):
        full = rqa._pair_counts(pts, schedule, windows, eps)
        with mock.patch.object(rqa, "_BLOCK_ELEMS", rnd.choice((1, 3, rqa._BLOCK_ELEMS))):
            got = rqa._pair_counts(pts, schedule, windows, eps, reduce=reduce)
        assert got == [row if w in reduce else None for w, row in enumerate(full, 1)]


@pytest.mark.parametrize("scale", EDGE_SCALES)
@pytest.mark.parametrize("eps", EDGE_EPS)
def test_counts_at_the_int64_edge(scale, eps):
    pts = list(edge_points(scale)) * 2
    assert common_scale(pts) == scale
    n = len(pts) - 2
    for m in (1, 2, 3):
        assert correlation_sum(pts, RQAParams(m, eps, n)) == brute_corr_sum(pts, m, eps, n)


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

