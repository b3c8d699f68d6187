import math
import operator
import random
import sys
import warnings
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rqamaps import ranks
from rqamaps.dynamics import detect_periodic, iterate
from rqamaps.finite_omega import (ExcludedEpsilonWarning, PeriodicOrbitData,
                                  aligned_orbit, asymptotic_rdet_finite,
                                  bowen_orbit_distance, closed_form_corr_sum,
                                  excluded_epsilons, min_spatial_gap,
                                  recurrent_orbit_pairs, report, report_json)
from rqamaps.rqa import RQAParams, correlation_sum

from conftest import (EDGE_EPS, EDGE_SCALES, assert_lasso_holds, edge_points,
                      residual_detect)

TWO = PeriodicOrbitData.of(["1/4", "3/4"])
THREE = PeriodicOrbitData.of(["1/5", "1/2", "4/5"])
FIXED = PeriodicOrbitData.of(["1/2"])


class TestBowenOrbit:
    def test_diagonal(self):
        assert bowen_orbit_distance(THREE, 2, 2, 5) == 0

    def test_window_one(self):
        assert bowen_orbit_distance(TWO, 0, 1, 1) == F(1, 2)

    def test_window_two_cyclic(self):
        assert bowen_orbit_distance(THREE, 0, 1, 2) == F(3, 10)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            bowen_orbit_distance(TWO, 0, 2, 1)

    def test_cyclic_wraparound(self):
        # window crossing the cycle boundary uses successors mod p
        assert bowen_orbit_distance(THREE, 1, 2, 3) == \
            max(F(3, 10), F(3, 5), F(3, 10))


class TestClosedForm:
    def test_fixed_point_always_one(self):
        for eps in (F(1, 1000), F(1, 2), F(10)):
            for m in (1, 2, 5):
                assert closed_form_corr_sum(FIXED, m, eps) == 1

    def test_two_cycle_below_gap(self):
        assert closed_form_corr_sum(TWO, 1, F(3, 10)) == F(1, 2)

    def test_two_cycle_above_gap(self):
        assert closed_form_corr_sum(TWO, 1, F(3, 5)) == 1

    @pytest.mark.filterwarnings("ignore::rqamaps.finite_omega.ExcludedEpsilonWarning")
    def test_monotone_in_epsilon_and_window(self):
        # the grid deliberately crosses excluded thresholds; the counting
        # formula itself stays monotone there
        eps_grid = [F(k, 10) for k in range(1, 10)]
        for m in (1, 2, 3):
            vals = [closed_form_corr_sum(THREE, m, e) for e in eps_grid]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        for e in eps_grid:
            by_m = [closed_form_corr_sum(THREE, m, e) for m in (1, 2, 3, 4)]
            assert all(a >= b for a, b in zip(by_m, by_m[1:]))

    def test_orbit_validation(self):
        with pytest.raises(ValueError):
            PeriodicOrbitData.of(["1/2", "1/2"])
        with pytest.raises(ValueError):
            closed_form_corr_sum(TWO, 1, 0)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            closed_form_corr_sum(TWO, 1, math.nan)

    def test_float_orbit_with_exact_threshold_above_the_float_range(self):
        huge, top = F(10 ** 400), sys.float_info.max
        assert closed_form_corr_sum(PeriodicOrbitData((0.0, 0.1)), 1, huge) == 1
        # the distance 2 top overflows to inf, which 10^400 excludes, strict
        # or not, so no pair sits at the threshold and nothing warns
        assert closed_form_corr_sum(PeriodicOrbitData((-top, top)), 1, huge) == F(1, 2)


class TestExcluded:
    def test_fixed_point_empty(self):
        assert excluded_epsilons(FIXED, 3) == frozenset()

    def test_two_cycle(self):
        assert excluded_epsilons(TWO, 1) == frozenset({F(1, 2)})

    def test_three_cycle(self):
        assert excluded_epsilons(THREE, 1) == frozenset({F(3, 10), F(3, 5)})

    def test_warning_at_excluded_threshold(self):
        with pytest.warns(ExcludedEpsilonWarning):
            closed_form_corr_sum(TWO, 1, F(1, 2))

    @pytest.mark.parametrize("closed_form", [closed_form_corr_sum, asymptotic_rdet_finite])
    def test_warning_points_at_the_caller(self, closed_form):
        with pytest.warns(ExcludedEpsilonWarning) as caught:
            line = sys._getframe().f_lineno + 1
            closed_form(TWO, 1, F(1, 2))
        assert {(w.filename, w.lineno) for w in caught} == {(__file__, line)}

    def test_no_warning_off_threshold(self, recwarn):
        closed_form_corr_sum(TWO, 1, F(2, 5))
        assert not [w for w in recwarn if issubclass(w.category, ExcludedEpsilonWarning)]


class TestDeterminism:
    def test_below_min_gap_exactly_one(self):
        assert min_spatial_gap(THREE) == F(3, 10)
        for m in (1, 2, 3, 7):
            assert asymptotic_rdet_finite(THREE, m, F(1, 10)) == 1

    def test_window_one_trivial(self):
        assert asymptotic_rdet_finite(THREE, 1, F(2, 5)) == 1

    def test_two_cycle_wide_threshold(self):
        assert asymptotic_rdet_finite(TWO, 2, F(3, 5)) == 1

    def test_ratio_value(self):
        # m=2 at eps between the two spatial gaps of the 3-cycle
        c2 = closed_form_corr_sum(THREE, 2, F(9, 20))
        c1 = closed_form_corr_sum(THREE, 1, F(9, 20))
        assert asymptotic_rdet_finite(THREE, 2, F(9, 20)) == c2 / c1 == F(5, 7)


class TestAgainstFiniteTime:
    def test_finite_n_converges(self, plateau_map):
        t = iterate(plateau_map, 0.21, 2000 + 2)
        for m in (1, 2, 3):
            for eps in (F(1, 4), F(9, 20), F(7, 10)):
                c = correlation_sum(t, RQAParams(m, float(eps), 2000))
                closed = closed_form_corr_sum(THREE, m, eps)
                assert abs(float(c) - float(closed)) <= 0.01

    def test_transient_independence(self, plateau_map):
        # closed form via cycle detection agrees for several starting iterates
        base = iterate(plateau_map, F(21, 100), 40)
        references = None
        for h in (0, 1, 2, 5):
            ps = detect_periodic(base.shifted(h), 0)
            orbit = aligned_orbit(ps)
            vals = [closed_form_corr_sum(orbit, m, F(9, 20)) for m in (1, 2, 3)]
            references = references or vals
            assert vals == references

    def test_aligned_orbit_rotation(self, plateau_map):
        t = iterate(plateau_map, F(21, 100), 30)
        ps = detect_periodic(t, 0)
        orbit = aligned_orbit(ps)
        # index i of the orbit matches trajectory indices congruent to i
        p = ps.period
        for i in range(p):
            idx = ps.preperiod + ((i - ps.preperiod) % p)
            assert orbit.points[i] == t.points[idx]


# the closed forms against brute Bowen-distance counts, at tie thresholds

_ORBIT_POOLS = {
    "exact": [F(k, 12) for k in range(13)],
    # denominators 2**33 + k: a common scale above 2**62
    "bigint": [F(k, 8) + F(1, 2 ** 33 + k) for k in range(9)],
    # float points with float thresholds, and with exact thresholds that sit
    # on, just above or just below a float distance
    "float": [k / 10 for k in range(11)] + [0.15, 0.3 + 1e-9],
    "float, exact eps": [k / 10 for k in range(11)] + [0.15, 0.3 + 1e-9],
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_ORBIT_POOLS)), st.integers(0, 10 ** 6), st.integers(1, 5),
       st.sampled_from([ranks.BLOCK_ELEMS, 16, 1]))
def test_closed_forms_match_brute_counts(kind, seed, m, block_elems):
    rnd = random.Random(seed)
    pool = _ORBIT_POOLS[kind]
    o = PeriodicOrbitData(tuple(rnd.sample(pool, rnd.randint(1, 7))))
    i, j = rnd.randrange(o.period), rnd.randrange(o.period)
    eps = bowen_orbit_distance(o, i, j, rnd.choice([1, m])) or pool[2] - pool[0]
    if kind == "float, exact eps":
        eps = F(eps) + rnd.choice([0, F(1, 10 ** 30), -F(1, 10 ** 30)])
    # one block per cycle, blocks of one row, or, for p = 5-7 at 16 entries
    # per block, blocks of two or three rows with edges inside the cycle
    with mock.patch.object(ranks, "BLOCK_ELEMS", block_elems):
        _check_closed_forms(o, m, eps)


@pytest.mark.parametrize("scale", EDGE_SCALES)
@pytest.mark.parametrize("eps", EDGE_EPS)
def test_closed_forms_at_the_int64_edge(scale, eps):
    for m in (1, 2, 3):
        _check_closed_forms(PeriodicOrbitData(edge_points(scale)), m, eps)


def _check_closed_forms(o, m, eps):
    """The closed forms of orbit ``o`` at threshold ``eps`` against brute
    Bowen-distance counts, ties and their warnings included."""
    p = o.period

    def brute(w, compare=operator.le):
        return sum(compare(bowen_orbit_distance(o, a, b, w), eps)
                   for a in range(p) for b in range(p))

    ties = [brute(w) != brute(w, operator.lt) for w in (m, 1)]
    assert ties[0] == (eps in excluded_epsilons(o, m))
    assert recurrent_orbit_pairs(o, m, eps) == brute(m)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert closed_form_corr_sum(o, m, eps) == F(brute(m), p * p)
        assert len(caught) == ties[0]
        assert asymptotic_rdet_finite(o, m, eps) == F(brute(m), brute(1))
        # the determinism warns once per tied window among m and 1, after
        # the correlation sum's one warning for a tie at window m
        assert len(caught) == ties[0] + sum(ties)
    assert all(issubclass(w.category, ExcludedEpsilonWarning) for w in caught)
    if p > 1:
        assert min_spatial_gap(o) == min(abs(x - y) for x in o.points
                                         for y in o.points if x != y)


@pytest.mark.filterwarnings("ignore::rqamaps.finite_omega.ExcludedEpsilonWarning")
def test_one_rank_table_per_orbit():
    # every count on one orbit, at any window, at tie and non-tie thresholds,
    # reads the rank table of the orbit's one trajectory
    o = PeriodicOrbitData.of(["1/5", "1/2", "4/5"])
    with mock.patch.object(ranks, "_rank_table", wraps=ranks._rank_table) as table:
        for m in (1, 2, 3):
            for eps in (F(3, 10), F(9, 20)):
                closed_form_corr_sum(o, m, eps)
                asymptotic_rdet_finite(o, m, eps)
    assert table.call_count == 1


def test_unrolled_cycle_keeps_its_lasso():
    # the cycle repeated to 2p - 1 points is its own lasso (0, p), seen
    # only once, so no period is witnessed twice
    for o in (FIXED, TWO, THREE, PeriodicOrbitData((0.25, 0.5, 0.125))):
        u = o._unrolled
        assert u._lasso == (0, o.period)
        assert_lasso_holds(u)
        assert detect_periodic(u, 0) is None and residual_detect(u, 0) is None
        assert ranks.table(u, 1).ranks(len(u)).tolist() == \
            ranks._rank_table(u.points).rank.tolist()


def test_report_shape():
    data = report(THREE, 2, F(9, 20))
    assert data == {
        "p": 3,
        "orbit": ["1/5", "1/2", "4/5"],
        "m": 2,
        "epsilon": "9/20",
        "c_m_num": 5,
        "c_m_den": 9,
        "excluded": ["3/10", "3/5"],
    }
    assert "\"c_m_num\": 5" in report_json(THREE, 2, F(9, 20))
